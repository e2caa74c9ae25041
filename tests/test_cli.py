"""Config parsing, report emission, determinism, and exit codes."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from elliptic_inclusions import oracle
from elliptic_inclusions.cli import emit_report, main, run_config


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def poisson_config(**extra):
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [3], "h": 1.0, "boundary": "zero"},
        "relation": {"type": "linear", "matrix": np.eye(4).tolist()},
        "f": [1, 1, 1],
        "checks": [],
    }
    cfg.update(extra)
    return cfg


def test_run_config_poisson(tmp_path):
    path = write_config(tmp_path, poisson_config(checks=["certificate", "oracle"]))
    report = run_config(path)
    assert report.exit_code == 0
    assert np.allclose(report.data["solution"]["u"], [1.5, 2.0, 1.5])
    by_name = {c["name"]: c for c in report.data["checks"]}
    assert by_name["certificate"]["pass"]
    assert by_name["oracle"]["pass"]
    assert by_name["oracle"]["oracle_delta"] <= 1e-8


def test_cli_rejects_neumann_kernel_rhs(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "neumann",
        "operator": {"family": "grad1d", "shape": [5], "h": 1.0},
        "relation": {"type": "linear", "matrix": np.eye(4).tolist()},
        "f": [1, 1, 1, 1, 1],
        "checks": [],
    }
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code != 0
    assert report.data["error"]["code"] == "rhs_not_in_H_minus_1"
    assert report.data["pass"] is False


def test_cli_oracle_check_on_sign_relation(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [2], "h": 1.0, "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": {"kind": "sign"}},
        "f": [1.2, -0.3],
        "checks": ["oracle"],
    }
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 0
    oracle = report.data["checks"][0]
    assert oracle["name"] == "oracle"
    assert oracle["oracle_delta"] <= 1e-8


def test_emit_json_round_trips(tmp_path):
    path = write_config(tmp_path, poisson_config())
    report = run_config(path)
    payload = emit_report(report, "json")
    assert json.loads(payload) == report.data


def test_empty_checks_serialize_as_arrays(tmp_path):
    path = write_config(tmp_path, poisson_config(checks=[]))
    report = run_config(path)
    assert report.data["checks"] == []
    assert isinstance(report.data["config"]["checks"], list)
    assert b'"checks": []' in emit_report(report, "json")


def test_reports_are_deterministic(tmp_path):
    path = write_config(tmp_path, poisson_config(
        checks=["certificate", "lipschitz", "monotonicity"], seed=5))
    payloads = []
    for _ in range(3):
        report = run_config(path)
        data = json.loads(emit_report(report, "json"))
        del data["timing"]
        payloads.append(json.dumps(data, sort_keys=True).encode())
    assert payloads[0] == payloads[1] == payloads[2]


def test_schema_error_reports_field(tmp_path):
    cfg = poisson_config()
    cfg["kind"] = "parabolic"
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 2
    assert report.data["error"]["code"] == "config_error"
    assert "kind" in report.data["error"]["message"]

    cfg = poisson_config(checks=["nosuch"])
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 2
    assert "checks[0]" in report.data["error"]["message"]


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "kind": ???\n}\n')
    report = run_config(path)
    assert report.exit_code == 2
    assert "line 3" in report.data["error"]["message"]


def test_vector_file_reference(tmp_path):
    fpath = tmp_path / "f.txt"
    fpath.write_text("1\n1\n1\n")
    cfg = poisson_config(f={"path": "f.txt"})
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 0
    assert np.allclose(report.data["solution"]["u"], [1.5, 2.0, 1.5])


def test_missing_vector_file_is_config_error(tmp_path):
    cfg = poisson_config(f={"path": "absent.txt"})
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 2


def test_main_solve_and_flags(tmp_path, capsys):
    path = write_config(tmp_path, poisson_config(checks=["certificate"]))
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(path), "--report", str(out),
                 "--tol", "1e-9", "--seed", "3"])
    assert code == 0
    data = json.loads(out.read_bytes())
    assert data["config"]["tol"] == 1e-9
    assert data["config"]["seed"] == 3

    code = main(["solve", "--config", str(path), "--format", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "status: ok" in captured.out
    assert "extrapolations: " in captured.out


def test_main_verify_dirichlet(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "dirichlet",
        "operator": {"family": "grad1d", "shape": [5], "h": 1.0},
        "relation": {"type": "linear", "matrix": (2.0 * np.eye(4)).tolist()},
        "f": [0.5, -0.2, 0.1],
        "u0": [0, 1, 2, 3, 4],
        "checks": [],
    }
    path = write_config(tmp_path, cfg)
    code = main(["verify", "--config", str(path), "--report",
                 str(tmp_path / "verify.json")])
    assert code == 0
    data = json.loads((tmp_path / "verify.json").read_bytes())
    names = {c["name"] for c in data["checks"]}
    assert "dirichlet_estimate" in names
    assert all(c["pass"] for c in data["checks"])


def test_dirichlet_verify_factors_the_effective_map_once(tmp_path, monkeypatch):
    cfg = {
        "schema_version": 1,
        "kind": "dirichlet",
        "operator": {"family": "grad2d", "shape": [4, 4], "h": 1.0},
        "relation": {"type": "linear", "matrix": (2.0 * np.eye(24)).tolist()},
        "f": [0.5, -0.2, 0.1, 0.3],
        "u0": np.linspace(0.0, 1.0, 16).tolist(),
        "seed": 3,
    }
    path = write_config(tmp_path, cfg)
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["verify", "--config", str(path), "--report",
                 str(tmp_path / "report.json")]) == 0
    data = json.loads((tmp_path / "report.json").read_bytes())
    assert "dirichlet_estimate" in {c["name"] for c in data["checks"]}
    # A E is 24 x 4 (free grad2d rows, interior columns): factored once
    assert shapes.count((24, 4)) == 1


def test_main_oracle_check_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, poisson_config())
    code = main(["oracle-check", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["checks"][0]["name"] == "oracle"


def test_oracle_check_on_neumann_is_a_config_error(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "neumann",
        "operator": {"family": "grad1d", "shape": [5], "h": 1.0},
        "relation": {"type": "diagonal", "c": 1.5, "graphs": {"kind": "sign"}},
        "f": [1.0, -0.5, 0.25, -0.5, -0.25],
        "checks": ["certificate"],
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--config", str(path), "--report", str(out)]) == 2
    error = json.loads(out.read_bytes())["error"]
    assert error["code"] == "config_error"
    assert error["field"] == "checks"
    listed = run_config(write_config(tmp_path, dict(cfg, checks=["oracle"]),
                                     name="listed.json"))
    assert listed.exit_code == 2
    assert listed.data["error"]["message"] == error["message"]


def test_main_exit_code_for_config_error(tmp_path):
    path = tmp_path / "missing.json"
    code = main(["solve", "--config", str(path), "--report",
                 str(tmp_path / "r.json")])
    assert code == 2


def test_neumann_estimate_check_via_cli(tmp_path):
    f = np.array([1.0, -0.5, 0.25, -0.5, -0.25])
    cfg = {
        "schema_version": 1,
        "kind": "neumann",
        "operator": {"family": "grad1d", "shape": [5], "h": 1.0},
        "relation": {"type": "diagonal", "c": 1.5, "graphs": {"kind": "sign"}},
        "f": f.tolist(),
        "checks": ["neumann_estimate", "certificate"],
        "seed": 11,
    }
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 0
    by_name = {c["name"]: c for c in report.data["checks"]}
    assert by_name["neumann_estimate"]["pass"]


@pytest.mark.parametrize("h", [1e308, 1e-154])
def test_unusable_test_space_gram_is_an_input_error(tmp_path, h):
    # the Gram matrix of A W underflows to zero (1e308) or overflows (1e-154)
    cfg = json.loads((CONFIGS / "neumann_1d.json").read_text())
    cfg["operator"]["h"] = h
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_config(write_config(tmp_path, cfg))
    assert not caught, [str(w.message) for w in caught]
    assert report.exit_code == 1
    assert report.data["error"]["code"] == "input_error"
    assert "test-space Gram matrix" in report.data["error"]["message"]


def test_homogeneous_kernel_rhs_reports_error_code(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [4], "h": 1.0, "boundary": "free"},
        "relation": {"type": "linear", "matrix": np.eye(3).tolist()},
        "f": [1, 1, 1, 1],
        "checks": [],
    }
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 1
    assert report.data["error"]["code"] == "rhs_not_in_H_minus_1"


def test_custom_operator_from_matrix_market(tmp_path):
    import scipy.io
    import scipy.sparse

    m = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    scipy.io.mmwrite(tmp_path / "op.mtx", scipy.sparse.coo_array(m))
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "custom", "path": "op.mtx"},
        "relation": {"type": "linear", "matrix": np.eye(3).tolist()},
        "f": [0.5, -0.5],
        "checks": ["certificate", "oracle"],
    }
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 0
    u = np.asarray(report.data["solution"]["u"])
    assert np.allclose(m.T @ m @ u, [0.5, -0.5], atol=1e-9)


def test_relation_matrix_from_file(tmp_path):
    import scipy.io
    import scipy.sparse

    scipy.io.mmwrite(tmp_path / "rel.mtx", scipy.sparse.coo_array(2.0 * np.eye(4)))
    cfg = poisson_config(relation={"type": "linear", "path": "rel.mtx"})
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 0
    assert np.allclose(report.data["solution"]["u"], [0.75, 1.0, 0.75])


def test_dirichlet_oracle_checks(tmp_path):
    base = {
        "schema_version": 1,
        "kind": "dirichlet",
        "operator": {"family": "grad1d", "shape": [5], "h": 1.0},
        "f": [0.4, -0.1, 0.3],
        "u0": [0, 1, 2, 3, 4],
        "checks": ["oracle", "certificate"],
    }
    linear = dict(base, relation={"type": "linear",
                                  "matrix": (1.5 * np.eye(4)).tolist()})
    report = run_config(write_config(tmp_path, linear, name="lin.json"))
    assert report.exit_code == 0
    assert {c["name"]: c["pass"] for c in report.data["checks"]}["oracle"]

    diagonal = dict(base, relation={"type": "diagonal", "c": 1.0,
                                    "graphs": {"kind": "sign"}})
    report = run_config(write_config(tmp_path, diagonal, name="diag.json"))
    assert report.exit_code == 0
    assert {c["name"]: c["pass"] for c in report.data["checks"]}["oracle"]


def test_missing_relation_file_is_config_error(tmp_path):
    cfg = poisson_config(relation={"type": "linear", "path": "absent.mtx"})
    report = run_config(write_config(tmp_path, cfg))
    assert report.exit_code == 2
    assert report.data["error"]["code"] == "config_error"
    assert report.data["error"]["field"] == "relation.path"


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tol_override_is_a_config_error(tmp_path, tol):
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(CONFIGS / "sign_diagonal.json"),
                 "--tol", tol, "--report", str(out)])
    assert code == 2
    error = json.loads(out.read_bytes())["error"]
    assert error["code"] == "config_error"
    assert error["field"] == "tol"


@pytest.mark.parametrize("u0", [None, [0, 1, 2], [0, 1, float("nan"), 3, 4]])
def test_bad_dirichlet_boundary_data_is_a_config_error(tmp_path, u0):
    cfg = json.loads((CONFIGS / "dirichlet_ramp.json").read_text())
    if u0 is None:
        del cfg["u0"]
    else:
        cfg["u0"] = u0
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(write_config(tmp_path, cfg)),
                 "--report", str(out)])
    assert code == 2
    assert json.loads(out.read_bytes())["error"]["code"] == "config_error"


def test_homogeneous_u0_is_checked(tmp_path):
    cfg = json.loads((CONFIGS / "poisson_1d.json").read_text())
    cfg["u0"] = [float("nan")]
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(write_config(tmp_path, cfg)),
                 "--report", str(out)])
    assert code == 2
    error = json.loads(out.read_bytes())["error"]
    assert error["code"] == "config_error"
    assert "finite" in error["message"]


def test_failed_monotonicity_probe_is_a_construction_error(tmp_path, monkeypatch):
    from elliptic_inclusions import ConstructionError, cli

    def broken_probe(relation, trials, rng_seed):
        raise ConstructionError("relation inverse is not finite on a sampled point")

    monkeypatch.setattr(cli, "monotonicity_probe", broken_probe)
    out = tmp_path / "report.json"
    code = main(["verify", "--config", str(CONFIGS / "poisson_1d.json"),
                 "--report", str(out)])
    assert code == 1
    report = json.loads(out.read_bytes())
    assert report["error"]["code"] == "construction_error"
    assert report["pass"] is False


def _config_error(tmp_path, cfg):
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(write_config(tmp_path, cfg)),
                 "--report", str(out)])
    assert code == 2
    error = json.loads(out.read_bytes())["error"]
    assert error["code"] == "config_error"
    return error


@pytest.mark.parametrize("path", [5, ["a"], None, {"file": "rel.mtx"}])
def test_non_string_relation_path_is_a_config_error(tmp_path, path):
    cfg = poisson_config(relation={"type": "linear", "path": path})
    assert _config_error(tmp_path, cfg)["field"] == "relation.path"


@pytest.mark.parametrize("field", ["f", "u0"])
@pytest.mark.parametrize("path", [5, ["f.txt"], 1.5])
def test_non_string_vector_path_is_a_config_error(tmp_path, field, path):
    (tmp_path / "f.txt").write_text("1\n1\n1\n")
    cfg = json.loads((CONFIGS / "dirichlet_ramp.json").read_text())
    cfg[field] = {"path": path}
    assert _config_error(tmp_path, cfg)["field"] == field


@pytest.mark.parametrize("field", ["f", "u0"])
def test_unreadable_vector_file_is_a_config_error(tmp_path, field):
    (tmp_path / "sub").mkdir()
    cfg = json.loads((CONFIGS / "dirichlet_ramp.json").read_text())
    cfg[field] = {"path": "sub"}
    assert _config_error(tmp_path, cfg)["field"] == field


MTX_HEADER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text", [
    "this is not a matrix market file\n",
    "%%MatrixMarket matrix coordinate complex general\n4 4 1\n1 1 1.0 2.0\n",
    MTX_HEADER + "4 4 2\n1 1 inf\n2 2 1.0\n",
    MTX_HEADER + "4 4 2\n1 1 nan\n2 2 1.0\n",
], ids=["unparsable", "complex", "inf", "nan"])
def test_bad_relation_file_is_a_config_error_on_the_path(tmp_path, text):
    (tmp_path / "rel.mtx").write_text(text)
    cfg = poisson_config(relation={"type": "linear", "path": "rel.mtx"})
    assert _config_error(tmp_path, cfg)["field"] == "relation.path"


@pytest.mark.parametrize("source", ["inline", "file"])
def test_overflowing_relation_matrix_is_a_config_error(tmp_path, source):
    import scipy.io
    import scipy.sparse

    m = np.full((4, 4), 1e308)
    if source == "inline":
        relation = {"type": "linear", "matrix": m.tolist()}
    else:
        scipy.io.mmwrite(tmp_path / "rel.mtx", scipy.sparse.coo_array(m), precision=17)
        relation = {"type": "linear", "path": "rel.mtx"}
    error = _config_error(tmp_path, poisson_config(relation=relation))
    assert error["field"] == "relation.matrix"
    assert "overflows" in error["message"]


@pytest.mark.parametrize("entry", [None, {"a": 1}, [1.0]])
def test_non_numeric_relation_matrix_entry_is_a_config_error(tmp_path, entry):
    cfg = poisson_config(relation={"type": "linear", "matrix": [[1, entry], [0, 1]]})
    assert _config_error(tmp_path, cfg)["field"] == "relation.matrix"


def test_cli_import_leaves_sparse_linalg_unloaded():
    # scipy.sparse.linalg is imported by make_linear on first use only: at
    # module level it would add its import time to every run's set-up
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, elliptic_inclusions.cli; "
             "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.strip() == "False"


def _diagonal_config(graphs, shape=6, **extra):
    # grad1d zero on `shape` nodes has shape + 1 rows, one graph per row
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [shape], "h": 1.0,
                     "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": graphs},
        "f": [0.9, -0.4, 1.1, 0.3, -0.7, 0.2][:shape],
        "checks": [],
    }
    cfg.update(extra)
    return cfg


def test_every_graph_kind_parses(tmp_path):
    from elliptic_inclusions import Clamp, Linear, Power, Relay, Sign
    from elliptic_inclusions.cli import parse_config

    graphs = [
        {"kind": "linear", "slope": 0.5}, {"kind": "linear"},
        {"kind": "sign"}, {"kind": "power", "exponent": 3},
        {"kind": "clamp", "lo": -0.5, "hi": 0.25},
        {"kind": "relay", "height": 2.0}, {"kind": "relay"},
    ]
    problem, _ = parse_config(write_config(tmp_path, _diagonal_config(graphs)))
    assert list(problem.relation.descriptor.graphs) == [
        Linear(0.5), Linear(1.0), Sign(), Power(3.0), Clamp(-0.5, 0.25),
        Relay(2.0), Relay(1.0),
    ]


@pytest.mark.parametrize("graph", [
    {"kind": "clamp", "lo": -1.0}, {"kind": "clamp", "lo": 1.0, "hi": -1.0},
    {"kind": "relay", "height": "tall"}, {"kind": "linear", "slope": [1.0]},
])
def test_bad_graph_parameters_are_a_config_error(tmp_path, graph):
    cfg = _diagonal_config([{"kind": "sign"}, graph] + [{"kind": "sign"}] * 5)
    assert _config_error(tmp_path, cfg)["field"] == "relation.graphs[1]"


@pytest.mark.parametrize("graph, field", [
    ({"kind": "clamp", "lo": 1.0, "hi": -1.0}, "relation.graphs"),
    ({"slope": 2.0}, "relation.graphs"),
    ({"kind": "cubic"}, "relation.graphs.kind"),
])
def test_bad_shared_graph_reports_the_shared_field(tmp_path, graph, field):
    assert _config_error(tmp_path, _diagonal_config(graph))["field"] == field


def test_shared_graph_is_parsed_once(tmp_path, monkeypatch):
    from elliptic_inclusions import Power, cli

    calls = []
    real_parse = cli._parse_graph
    monkeypatch.setattr(cli, "_parse_graph",
                        lambda entry, fieldpath: calls.append(fieldpath)
                        or real_parse(entry, fieldpath))
    shared = {"kind": "power", "exponent": 3}
    problem, _ = cli.parse_config(write_config(tmp_path, _diagonal_config(shared)))
    graphs = problem.relation.descriptor.graphs
    assert calls == ["relation.graphs"]
    assert len(graphs) == 7 and graphs[0] == Power(3.0)
    assert all(g is graphs[0] for g in graphs)


def test_oracle_check_with_clamp_and_relay_graphs(tmp_path, monkeypatch):
    from elliptic_inclusions import oracle

    domains = []
    real_domain = oracle._domain
    monkeypatch.setattr(oracle, "_domain",
                        lambda mat: domains.append(mat.shape) or real_domain(mat))
    graphs = [{"kind": "clamp", "lo": -0.5, "hi": 0.5}, {"kind": "relay"},
              {"kind": "sign"}, {"kind": "relay", "height": 0.5},
              {"kind": "clamp", "lo": -0.2, "hi": 1.0}]
    path = write_config(tmp_path, _diagonal_config(graphs, shape=4,
                                                   checks=["certificate"]))
    out = tmp_path / "report.json"
    assert main(["oracle-check", "--config", str(path), "--report", str(out)]) == 0
    data = json.loads(out.read_bytes())
    assert data["pass"]
    (check,) = data["checks"]
    assert check["name"] == "oracle" and check["pass"]
    assert check["oracle_delta"] <= 1e-8
    assert domains == [(5, 4)]  # branch enumeration on the 5 x 4 map


@pytest.mark.parametrize("section, key, value", [
    (None, "max_iter", True), (None, "tol", True), (None, "schema_version", True),
    (None, "seed", False), ("operator", "h", True), ("relation", "c", True),
])
def test_json_booleans_are_not_numbers(tmp_path, section, key, value):
    cfg = _diagonal_config({"kind": "sign"})
    (cfg if section is None else cfg[section])[key] = value
    field = key if section is None else f"{section}.{key}"
    assert _config_error(tmp_path, cfg)["field"] == field


@pytest.mark.parametrize("max_iter", [0, -5])
def test_non_positive_max_iter_is_a_config_error(tmp_path, max_iter):
    error = _config_error(tmp_path, poisson_config(max_iter=max_iter))
    assert "max_iter" in error["message"]


def test_douglas_rachford_step_is_not_a_config_field(tmp_path):
    assert _config_error(tmp_path, poisson_config(**{"lambda": 0.5}))["field"] == "lambda"


def test_defaults_are_the_solver_defaults(tmp_path):
    from elliptic_inclusions.cli import parse_config
    from elliptic_inclusions.relations import DEFAULT_MAX_ITER, DEFAULT_PROJECTED_TOL

    problem, normalized = parse_config(write_config(tmp_path, poisson_config()))
    assert (problem.tol, problem.max_iter) == (DEFAULT_PROJECTED_TOL, DEFAULT_MAX_ITER)
    assert (normalized["tol"], normalized["max_iter"]) == (problem.tol, problem.max_iter)
    assert "lambda" not in normalized


@pytest.mark.parametrize("key, value", [
    ("max_iter", 0), ("tol", 0), ("tol", -1), ("f", [1.0, 2.0]),
])
def test_problem_errors_name_their_config_field(tmp_path, key, value):
    cfg = json.loads((CONFIGS / "poisson_1d.json").read_text())
    cfg[key] = value
    assert _config_error(tmp_path, cfg)["field"] == key


@pytest.mark.parametrize("u0", [None, [0, 1, 2], [0, 1, float("nan"), 3, 4]])
def test_bad_boundary_data_names_the_u0_field(tmp_path, u0):
    cfg = json.loads((CONFIGS / "dirichlet_ramp.json").read_text())
    cfg["u0"] = u0
    if u0 is None:
        del cfg["u0"]
    assert _config_error(tmp_path, cfg)["field"] == "u0"


@pytest.mark.parametrize("check, kind, config", [
    ("dirichlet_estimate", "dirichlet", "poisson_1d.json"),
    ("neumann_estimate", "neumann", "dirichlet_ramp.json"),
    ("lipschitz", "homogeneous", "neumann_1d.json"),
])
def test_kind_specific_checks_name_the_kind_they_apply_to(tmp_path, check, kind,
                                                           config):
    cfg = json.loads((CONFIGS / config).read_text())
    cfg["checks"] = [check]
    error = _config_error(tmp_path, cfg)
    assert error["field"] == "checks"
    assert error["message"] == f"checks: {check} applies to {kind} problems only"


@pytest.mark.parametrize("section, key, value", [
    ("relation", "graphs", 5), ("relation", "graphs", 1.5),
    ("operator", "shape", ["a"]), ("operator", "shape", [["x"]]),
    ("operator", "shape", [4.7]), ("operator", "shape", [True]),
    (None, "seed", -1), (None, "tol", 1e308), (None, "tol", float("inf")),
    ("operator", "h", float("nan")), ("relation", "c", float("inf")),
])
def test_bad_config_values_name_their_field(tmp_path, section, key, value):
    cfg = json.loads((CONFIGS / "sign_diagonal.json").read_text())
    (cfg if section is None else cfg[section])[key] = value
    field = key if section is None else f"{section}.{key}"
    assert _config_error(tmp_path, cfg)["field"] == field


def test_negative_seed_override_is_a_config_error(tmp_path):
    out = tmp_path / "report.json"
    code = main(["solve", "--config", str(CONFIGS / "sign_diagonal.json"),
                 "--seed", "-3", "--report", str(out)])
    assert code == 2
    error = json.loads(out.read_bytes())["error"]
    assert (error["code"], error["field"]) == ("config_error", "seed")


def test_monotonicity_check_keeps_pairs_for_a_large_constant(tmp_path):
    cfg = json.loads((CONFIGS / "neumann_1d.json").read_text())
    cfg["relation"]["c"] = 2**70
    cfg["checks"] = ["monotonicity"]
    out = tmp_path / "report.json"
    assert main(["solve", "--config", str(write_config(tmp_path, cfg)),
                 "--report", str(out)]) == 0
    (check,) = json.loads(out.read_bytes())["checks"]
    assert check["pass"] and 2**70 * (1 - 1e-9) <= check["min_quotient"] < float("inf")


@pytest.mark.parametrize("graphs, nodes, message", [
    ({"kind": "power", "exponent": 3.0}, 4, "cannot handle power graphs"),
    ({"kind": "sign"}, oracle.MAX_ENUM_ROWS, f"capped at {oracle.MAX_ENUM_ROWS} rows"),
])
def test_oracle_beyond_enumeration_is_a_config_error(tmp_path, graphs, nodes, message):
    # grad1d zero on `nodes` nodes has nodes + 1 rows
    cfg = _diagonal_config(graphs, shape=nodes, f=[0.5] * nodes, checks=["oracle"])
    error = _config_error(tmp_path, cfg)
    assert error["field"] == "checks"
    assert message in error["message"]


def test_linear_relation_of_the_wrong_size_names_the_relation_field(tmp_path):
    cfg = poisson_config(relation={"type": "linear", "matrix": np.eye(3).tolist()})
    error = _config_error(tmp_path, cfg)
    assert error["field"] == "relation"
    assert error["message"] == ("relation: relation dimension 3 does not match the "
                                "codomain of A (dimension 4)")


def test_verify_reports_an_unknown_key_as_a_config_error(tmp_path):
    path = write_config(tmp_path, poisson_config(extra_key=1))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(path), "--report", str(out)]) == 2
    error = json.loads(out.read_bytes())["error"]
    assert (error["code"], error["field"]) == ("config_error", "extra_key")


def test_text_format_of_an_error_report(tmp_path, capsys):
    path = write_config(tmp_path, poisson_config(extra_key=1))
    assert main(["solve", "--config", str(path), "--format", "text"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status: error (config_error)"
    assert lines[1].startswith("message: ") and "extra_key" in lines[1]
    assert lines[-1].startswith("elapsed: ") and len(lines) == 3


def test_text_format_summarizes_a_long_solution(tmp_path, capsys):
    n = 25
    cfg = poisson_config(operator={"family": "grad1d", "shape": [n], "h": 1.0,
                                   "boundary": "zero"},
                         relation={"type": "linear", "matrix": np.eye(n + 1).tolist()},
                         f=[1.0] * n)
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", str(path), "--format", "text"]) == 0
    text = capsys.readouterr().out
    u = run_config(path).data["solution"]["u"]
    assert f"u: length {n}, euclidean norm {float(np.linalg.norm(u)):.12g}\n" in text
