"""Config-driven batch runner with machine-readable reports.

One JSON config describes one problem plus the checks to run against it;
the canonical schema is documented in the README.  Reports are emitted as
stable-key-ordered JSON (byte-identical for a fixed config and seed,
timing aside) or as a human-readable text summary.  Exit status is 0 only
if the solve certified and every requested check passed; config errors
exit with 2, solver and check failures with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .errors import (
    CapabilityError,
    ConfigError,
    ConstructionError,
    ConvergenceError,
    DomainError,
    InputError,
    OracleFailure,
)
from .hilbert_core import read_matrix_market, restrict_operator
from .operators import (
    CUSTOM,
    FREE,
    ZERO_BOUNDARY,
    OperatorSpec,
    build_operator,
    operator_pair,
)
from .relations import (
    DEFAULT_MAX_ITER,
    DEFAULT_PROJECTED_TOL,
    Clamp,
    DiagonalDescriptor,
    Linear,
    LinearDescriptor,
    Power,
    Relay,
    Sign,
    make_diagonal,
    make_linear,
    monotonicity_probe,
)
from .solver import (
    DIRICHLET,
    HOMOGENEOUS,
    NEUMANN,
    Problem,
    solve,
    verify_dirichlet_estimate,
    verify_neumann_estimate,
    lipschitz_probe,
)

SCHEMA_VERSION = 1

CHECK_NAMES = (
    "certificate",
    "oracle",
    "lipschitz",
    "dirichlet_estimate",
    "neumann_estimate",
    "monotonicity",
)

# the one problem kind each kind-specific check applies to
_CHECK_KIND = {"dirichlet_estimate": DIRICHLET, "neumann_estimate": NEUMANN,
               "lipschitz": HOMOGENEOUS}

_ERROR_CODES = {
    DomainError: "domain_error",
    ConvergenceError: "convergence_failure",
    CapabilityError: "capability_error",
    ConstructionError: "construction_error",
    OracleFailure: "oracle_failure",
    InputError: "input_error",
}


@dataclass
class RunReport:
    """JSON-ready report payload plus the process exit code."""

    data: dict
    exit_code: int


def _fail(msg, fieldpath):
    raise ConfigError(msg, field=fieldpath)


def _get(cfg, key, types, fieldpath, default=None, required=False):
    if key not in cfg:
        if required:
            _fail("missing required field", f"{fieldpath}{key}")
        return default
    value = cfg[key]
    allowed = types if isinstance(types, tuple) else (types,)
    # JSON true and false parse as bool, which subclasses int
    if not isinstance(value, allowed) or (isinstance(value, bool)
                                          and bool not in allowed):
        _fail(f"expected {types}, got {type(value).__name__}", f"{fieldpath}{key}")
    if isinstance(value, float) and not math.isfinite(value):
        _fail(f"expected a finite number, got {value}", f"{fieldpath}{key}")
    return value


def _load_vector(value, fieldpath, base_dir):
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            _fail("vector entries must be numbers", fieldpath)
    if isinstance(value, dict) and "path" in value:
        if not isinstance(value["path"], str):
            _fail(f"'path' must be a string, got {type(value['path']).__name__}",
                  fieldpath)
        path = Path(base_dir) / value["path"]
        if not path.exists():
            _fail(f"referenced file {path} does not exist", fieldpath)
        try:
            data = np.loadtxt(path, dtype=float, ndmin=1)
        except (OSError, ValueError) as exc:  # OSError: a directory, no read access
            _fail(f"cannot read vector file {path}: {exc}", fieldpath)
        return data
    _fail("expected an inline array or {'path': ...}", fieldpath)


def _parse_graph(entry, fieldpath):
    if not isinstance(entry, dict) or "kind" not in entry:
        _fail("graph entries need a 'kind'", fieldpath)
    kind = entry["kind"]
    try:
        if kind == "linear":
            return Linear(float(entry.get("slope", 1.0)))
        if kind == "sign":
            return Sign()
        if kind == "power":
            return Power(float(entry.get("exponent", 2.0)))
        if kind == "clamp":
            return Clamp(float(entry["lo"]), float(entry["hi"]))
        if kind == "relay":
            return Relay(float(entry.get("height", 1.0)))
    except (KeyError, TypeError, ValueError, ConstructionError) as exc:
        _fail(str(exc), fieldpath)
    _fail(f"unknown graph kind {kind!r}", f"{fieldpath}.kind")


def _parse_relation(cfg, dim, fieldpath, base_dir):
    rtype = _get(cfg, "type", str, f"{fieldpath}.", required=True)
    if rtype == "linear":
        matrix = cfg.get("matrix")
        if matrix is None and "path" in cfg:
            mtx = _get(cfg, "path", str, f"{fieldpath}.")
            try:
                matrix = read_matrix_market(Path(base_dir) / mtx)
            except (FileNotFoundError, InputError) as exc:
                _fail(str(exc), f"{fieldpath}.path")
        if matrix is None:
            _fail("linear relations need 'matrix' or 'path'", f"{fieldpath}.matrix")
        try:
            return make_linear(matrix)
        except (ConstructionError, InputError, TypeError, ValueError) as exc:
            _fail(str(exc), f"{fieldpath}.matrix")
    if rtype == "diagonal":
        c = _get(cfg, "c", (int, float), f"{fieldpath}.", required=True)
        graphs = _get(cfg, "graphs", (list, dict), f"{fieldpath}.", required=True)
        if isinstance(graphs, dict):  # one graph for every coordinate: parse it once
            parsed = [_parse_graph(graphs, f"{fieldpath}.graphs")] * dim
        else:
            parsed = [_parse_graph(g, f"{fieldpath}.graphs[{i}]")
                      for i, g in enumerate(graphs)]
        if len(parsed) != dim:
            _fail(
                f"need {dim} graphs (one per relation coordinate), got {len(parsed)}",
                f"{fieldpath}.graphs",
            )
        try:
            return make_diagonal(float(c), parsed)
        except ConstructionError as exc:
            _fail(str(exc), fieldpath)
    _fail(f"unknown relation type {rtype!r}", f"{fieldpath}.type")


def _parse_operator_section(cfg, kind, fieldpath, base_dir):
    family = _get(cfg, "family", str, f"{fieldpath}.", required=True)
    h = float(_get(cfg, "h", (int, float), f"{fieldpath}.", default=1.0))
    shape = tuple(_get(cfg, "shape", list, f"{fieldpath}.", default=[]))
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in shape):
        _fail("shape entries must be integers", f"{fieldpath}.shape")
    if family == CUSTOM:
        if kind != HOMOGENEOUS:
            _fail("custom operators support homogeneous problems only",
                  f"{fieldpath}.family")
        path = _get(cfg, "path", str, f"{fieldpath}.", required=True)
        try:
            spec = OperatorSpec(CUSTOM, (), path=str(Path(base_dir) / path))
            return build_operator(spec), None
        except (ConstructionError, InputError, FileNotFoundError) as exc:
            _fail(str(exc), fieldpath)
    try:
        if kind == HOMOGENEOUS:
            boundary = _get(cfg, "boundary", str, f"{fieldpath}.",
                            default=ZERO_BOUNDARY)
            return build_operator(OperatorSpec(family, shape, h, boundary)), None
        # boundary conditions restrict the free operator to the inclusion
        _, free, inclusion = operator_pair(OperatorSpec(family, shape, h, FREE))
    except ConstructionError as exc:
        _fail(str(exc), fieldpath)
    return free, inclusion


def parse_config(path):
    """Parse and validate a run config; returns (problem, normalized dict)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    base_dir = path.parent

    version = _get(cfg, "schema_version", int, "", required=True)
    if version != SCHEMA_VERSION:
        _fail(f"unsupported schema_version {version} (this build reads "
              f"{SCHEMA_VERSION})", "schema_version")
    kind = _get(cfg, "kind", str, "", required=True)
    if kind not in (HOMOGENEOUS, DIRICHLET, NEUMANN):
        _fail(f"kind must be one of {HOMOGENEOUS!r}, {DIRICHLET!r}, {NEUMANN!r}",
              "kind")
    known = {
        "schema_version", "kind", "operator", "relation", "f", "u0",
        "tol", "max_iter", "seed", "checks",
    }
    for key in cfg:
        if key not in known:
            _fail("unknown field", key)

    op_cfg = _get(cfg, "operator", dict, "", required=True)
    a_built, inclusion = _parse_operator_section(op_cfg, kind, "operator", base_dir)

    rel_cfg = _get(cfg, "relation", dict, "", required=True)
    relation = _parse_relation(rel_cfg, a_built.matrix.rows, "relation", base_dir)

    f = _load_vector(_get(cfg, "f", (list, dict), "", required=True), "f", base_dir)
    u0 = cfg.get("u0")
    if u0 is not None:
        u0 = _load_vector(u0, "u0", base_dir)
    tol = float(_get(cfg, "tol", (int, float), "", default=DEFAULT_PROJECTED_TOL))
    max_iter = int(_get(cfg, "max_iter", int, "", default=DEFAULT_MAX_ITER))
    seed = _check_seed(_get(cfg, "seed", int, "", default=0))

    checks = _get(cfg, "checks", list, "", default=[])
    _validate_checks(checks, kind, relation)

    try:
        problem = Problem(
            kind=kind,
            A=a_built.matrix,
            relation=relation,
            f=f,
            inclusion=inclusion,
            u0=u0,
            tol=tol,
            max_iter=max_iter,
        )
    except InputError as exc:
        raise ConfigError(str(exc), field=exc.field)

    normalized = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "operator": {k: op_cfg[k] for k in sorted(op_cfg)},
        "relation": rel_cfg,
        "f": f.tolist(),
        "u0": None if u0 is None else u0.tolist(),
        "tol": tol,
        "max_iter": max_iter,
        "seed": seed,
        "checks": list(checks),
    }
    return problem, normalized


def _check_seed(seed):
    if seed < 0:
        _fail(f"seed must be a non-negative integer, got {seed}", "seed")
    return seed


def _validate_checks(checks, kind, relation):
    for i, name in enumerate(checks):
        if name not in CHECK_NAMES:
            _fail(f"unknown check {name!r}", f"checks[{i}]")
    for name, only in _CHECK_KIND.items():
        if name in checks and kind != only:
            _fail(f"{name} applies to {only} problems only", "checks")
    if "oracle" in checks:
        _validate_oracle_applicable(kind, relation)


def _validate_oracle_applicable(kind, relation):
    if kind == NEUMANN:
        _fail("the oracle check is unavailable for neumann problems", "checks")
    desc = relation.descriptor
    if isinstance(desc, LinearDescriptor):
        return
    if isinstance(desc, DiagonalDescriptor):
        if any(isinstance(g, Power) for g in desc.graphs):
            _fail("branch enumeration cannot handle power graphs", "checks")
        rows = relation.dim
        if rows > oracle_mod.MAX_ENUM_ROWS:
            _fail(f"oracle enumeration is capped at {oracle_mod.MAX_ENUM_ROWS} "
                  f"rows, problem has {rows}", "checks")
        return
    _fail("the oracle check needs a linear or diagonal relation", "checks")


# ---------------------------------------------------------------------------
# checks


def _check_certificate(problem, solution):
    residuals = {k: v for k, v in solution.diagnostics.items()
                 if k.startswith("residual_")}
    bound = 10.0 * problem.tol
    passed = all(v <= bound for v in residuals.values())
    return {"name": "certificate", "pass": passed, "bound": bound,
            "max_residual": max(residuals.values()) if residuals else 0.0}


def _check_oracle(problem, solution):
    relation = problem.relation
    if problem.kind == HOMOGENEOUS:
        a_mat, f, shift_p = problem.A.matrix, problem.f, None
        u_pipeline = solution.u
    else:  # dirichlet: enumerate against the translated relation
        a_mat = problem.effective.matrix
        f = problem.f
        shift_p = problem.A.matrix @ problem.u0
        u_pipeline = problem.inclusion.coords(solution.u - problem.u0)
    desc = relation.descriptor
    if isinstance(desc, LinearDescriptor):
        rhs = f
        if shift_p is not None:
            # relation translated by (p, 0): the certificate is M(s + p), so
            # the reduced right-hand side loses A^T M p
            rhs = f - a_mat.T @ (desc.matrix.matrix @ shift_p)
        u_ref = oracle_mod.linear_direct_solve(a_mat, desc.matrix.matrix, rhs)
    else:
        u_ref = oracle_mod.active_set_solve(
            a_mat, relation.c, list(desc.graphs), f, input_shift=shift_p
        )
    delta = float(np.linalg.norm(u_pipeline - u_ref))
    scale = max(1.0, float(np.linalg.norm(u_ref)))
    return {"name": "oracle", "pass": delta <= 1e-8 * scale, "oracle_delta": delta}


def _check_lipschitz(problem, seed):
    ratio = lipschitz_probe(problem, pairs=50, rng_seed=seed)
    bound = 1.0 / problem.relation.c
    return {"name": "lipschitz", "pass": ratio <= bound + 1e-8,
            "max_ratio": ratio, "bound": bound}


def _check_monotonicity(problem, seed):
    report = monotonicity_probe(problem.relation, trials=200, rng_seed=seed)
    return {"name": "monotonicity", "pass": report.passed,
            "min_quotient": report.min_quotient, "c": report.c,
            "violations": report.violations}


def _perturbed_problem(problem, rng):
    """Second instance for the estimate checks, admissible by construction."""
    # the map the solve restricts, so that its factors are reused
    restricted = restrict_operator(
        problem.effective if problem.kind == DIRICHLET else problem.A)
    ran_adj = restricted.ran_adj
    df = ran_adj.from_coords(rng.standard_normal(ran_adj.dim)) * 0.2
    # the boundary-data bound needs the adjoint relation, so nonlinear
    # dirichlet pairs keep their data; the flux-data bound has no such limit
    u0 = problem.u0
    if isinstance(problem.relation.descriptor, LinearDescriptor) \
            or problem.kind == NEUMANN:
        u0 = u0 + rng.standard_normal(u0.shape[0]) * 0.2
    # same A and inclusion: the composed A E and its factors are reused
    return replace(problem, f=problem.f + df, u0=u0)


def _check_estimate(problem, solution, seed, which):
    rng = np.random.default_rng(seed)
    other = _perturbed_problem(problem, rng)
    # the perturbed solve starts where the main solve's iteration stopped
    other_solution = solve(other, dr_start=solution.certificate.dr_state)
    if which == "dirichlet_estimate":
        report = verify_dirichlet_estimate(problem, other, solution, other_solution)
    else:
        report = verify_neumann_estimate(problem, other, solution, other_solution)
    return {"name": which, "pass": report.passed, "lhs": report.lhs,
            "rhs": report.rhs,
            "constants": {k: float(v) for k, v in sorted(report.constants.items())}}


def _run_checks(problem, solution, checks, seed):
    results = []
    for name in checks:
        if name == "certificate":
            results.append(_check_certificate(problem, solution))
        elif name == "oracle":
            results.append(_check_oracle(problem, solution))
        elif name == "lipschitz":
            results.append(_check_lipschitz(problem, seed))
        elif name == "monotonicity":
            results.append(_check_monotonicity(problem, seed))
        elif name in ("dirichlet_estimate", "neumann_estimate"):
            results.append(_check_estimate(problem, solution, seed, name))
    return results


def _norm_block(problem, solution):
    diag = dict(solution.diagnostics)
    norms = {k: float(v) for k, v in diag.items() if k.startswith("norm_")}
    norms["norm_f_h0"] = float(np.linalg.norm(problem.f))
    return norms


def run_config(path, overrides=None, checks_override=None) -> RunReport:
    """Execute one config: solve, run checks, assemble the report."""
    started = time.perf_counter()
    overrides = overrides or {}
    try:
        problem, normalized = parse_config(path)
        if checks_override is not None:
            _validate_checks(checks_override, problem.kind, problem.relation)
        if overrides.get("tol") is not None:
            try:
                problem = replace(problem, tol=float(overrides["tol"]))
            except InputError as exc:
                _fail(str(exc), "tol")
        if overrides.get("seed") is not None:
            _check_seed(overrides["seed"])
    except ConfigError as exc:
        data = {
            "schema_version": SCHEMA_VERSION,
            "config_path": str(path),
            "error": {"code": "config_error", "message": str(exc),
                      "field": exc.field},
            "checks": [],
            "pass": False,
            "timing": {"seconds": time.perf_counter() - started},
        }
        return RunReport(data, exit_code=2)

    for key, value in overrides.items():
        if value is not None:
            normalized[key] = value
    seed = int(normalized["seed"])
    checks = list(checks_override) if checks_override is not None \
        else list(normalized["checks"])
    normalized["checks"] = checks

    def _error_report(exc, code=None):
        data = {
            "schema_version": SCHEMA_VERSION,
            "config": normalized,
            "error": {
                "code": code or _ERROR_CODES.get(type(exc), "solver_error"),
                "message": str(exc),
            },
            "checks": [],
            "pass": False,
            "timing": {"seconds": time.perf_counter() - started},
        }
        return RunReport(data, exit_code=1)

    try:
        if problem.kind == NEUMANN:
            restrict_operator(problem.A).ran_adj.require(
                problem.f, problem.tol, "right-hand side has a kernel component; "
                "solutions would ignore it", code="rhs_not_in_H_minus_1",
            )
        solution = solve(problem)
        check_results = _run_checks(problem, solution, checks, seed)
    except DomainError as exc:
        return _error_report(exc, code=exc.code or "domain_error")
    except (ConvergenceError, CapabilityError, OracleFailure, InputError,
            ConstructionError) as exc:
        return _error_report(exc)
    except Exception as exc:  # batch front door: never crash bare
        return _error_report(exc, code="internal_error")

    # solve() raises unless every residual is certified, so the checks decide
    all_pass = all(r["pass"] for r in check_results)
    data = {
        "schema_version": SCHEMA_VERSION,
        "config": normalized,
        "solution": {
            "u": solution.u.tolist(),
            "w": solution.w.tolist(),
            "certificate": {
                "x": solution.certificate.x.tolist(),
                "y": solution.certificate.y.tolist(),
                "residual": float(solution.certificate.residual),
            },
        },
        "residuals": {k: float(v) for k, v in solution.diagnostics.items()
                      if k.startswith("residual_")},
        "norms": _norm_block(problem, solution),
        "reports": {k: float(v) for k, v in solution.diagnostics.items()
                    if k.startswith("report_")},
        "iterations": int(solution.diagnostics.get("n_iterations", 0)),
        "extrapolations": {"accepted": solution.certificate.accepted,
                           "rejected": solution.certificate.rejected},
        "checks": check_results,
        "pass": bool(all_pass),
        "timing": {"seconds": time.perf_counter() - started},
    }
    return RunReport(data, exit_code=0 if all_pass else 1)


def emit_report(report: RunReport, fmt="json") -> bytes:
    """Serialize a report; JSON is stable-key-ordered and round-trips."""
    if fmt == "json":
        return (json.dumps(report.data, sort_keys=True, indent=2) + "\n").encode()
    if fmt != "text":
        raise InputError(f"unknown report format {fmt!r}")
    d = report.data
    lines = []
    if "error" in d:
        lines.append(f"status: error ({d['error']['code']})")
        lines.append(f"message: {d['error']['message']}")
    else:
        lines.append(f"status: {'ok' if d['pass'] else 'FAILED'}")
        cfg = d.get("config", {})
        lines.append(f"kind: {cfg.get('kind', '?')}")
        u = d["solution"]["u"]
        if len(u) <= 20:
            lines.append("u: " + "  ".join(f"{x:.12g}" for x in u))
        else:
            lines.append(f"u: length {len(u)}, euclidean norm "
                         f"{float(np.linalg.norm(u)):.12g}")
        lines.append(f"iterations: {d['iterations']}")
        ext = d["extrapolations"]
        lines.append(f"extrapolations: {ext['accepted']} accepted, "
                     f"{ext['rejected']} rejected")
        for key in sorted(d["residuals"]):
            lines.append(f"{key}: {d['residuals'][key]:.3e}")
        for key in sorted(d["norms"]):
            lines.append(f"{key}: {d['norms'][key]:.12g}")
        for check in d["checks"]:
            lines.append(
                f"check {check['name']}: {'pass' if check['pass'] else 'FAIL'}"
            )
    lines.append(f"elapsed: {d['timing']['seconds']:.3f} s")
    return ("\n".join(lines) + "\n").encode()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="elliptic-inclusions",
        description="Solve divergence-form inclusions described by a JSON config "
                    "and report certified residuals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("solve", "run the solve plus the checks listed in the config"),
        ("verify", "run the solve plus every verification check that applies"),
        ("oracle-check", "run the solve and cross-check it against a reference "
                         "solver"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--tol", type=float, default=None,
                       help="override the config tolerance")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--report", default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
    args = parser.parse_args(argv)

    checks_override = None
    if args.command == "verify":
        checks_override = ["certificate", "monotonicity"]
        try:
            _, normalized = parse_config(args.config)
            checks_override += [name for name, only in _CHECK_KIND.items()
                                if only == normalized["kind"]]
        except ConfigError:
            pass  # run_config reports the config error itself
    elif args.command == "oracle-check":
        checks_override = ["oracle"]

    overrides = {"tol": args.tol, "seed": args.seed}
    report = run_config(args.config, overrides=overrides,
                        checks_override=checks_override)
    payload = emit_report(report, args.format)
    if args.report:
        Path(args.report).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
