"""Correctness gate that re-derives each report's claims from its config.

The operator and relation are rebuilt through the package's public API,
not through the CLI's config parser, and the certificate is checked
directly: ``relation.graph_residual(x, y)``, ``x = A u`` (``C u`` for
boundary data) and, where the equation is strong, ``A^T y = f``
(``(C E)^T y = f`` for boundary data, E the interior embedding).  None of
this reads the report's own ``residuals`` block.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from elliptic_inclusions import (
    OperatorSpec,
    Power,
    Sign,
    build_operator,
    load_matrix_market,
    make_diagonal,
    make_linear,
    operator_pair,
)

DEFAULT_TOL = 1e-10  # the CLI's default when a config gives no tol


def without_timing(report_bytes: bytes) -> str:
    """Canonical report text with the non-deterministic ``timing`` removed."""
    data = json.loads(report_bytes)
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True)


class Checker:
    """Rebuilds operators and relations once per distinct config section."""

    def __init__(self):
        self._operators = {}
        self._relations = {}

    def _operator(self, kind, op):
        key = (kind, json.dumps(op, sort_keys=True))
        if key not in self._operators:
            if kind == "homogeneous":
                spec = OperatorSpec(op["family"], tuple(op["shape"]), op["h"],
                                    op["boundary"])
                a = build_operator(spec).matrix.matrix
                self._operators[key] = (a, a)
            else:
                _, big, inclusion = operator_pair(
                    OperatorSpec(op["family"], tuple(op["shape"]), op["h"], "free"))
                c = big.matrix.matrix
                # (map producing x from u, map whose transpose must send y to f)
                adjoint = c @ inclusion.basis if kind == "dirichlet" else None
                self._operators[key] = (c, adjoint)
        return self._operators[key]

    def _relation(self, rel, dim, base_dir):
        key = json.dumps(rel, sort_keys=True)
        if key not in self._relations:
            if rel["type"] == "linear":
                relation = make_linear(load_matrix_market(base_dir / rel["path"]))
            else:
                g = rel["graphs"]  # the workloads use one graph for all rows
                graph = Sign() if g["kind"] == "sign" else Power(g["exponent"])
                relation = make_diagonal(rel["c"], [graph] * dim)
            self._relations[key] = relation
        return self._relations[key]

    def problems(self, config_path: Path, exit_code: int, report_bytes: bytes):
        """Reasons the request failed; empty when it is certified."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        report = json.loads(report_bytes)
        if not report.get("pass"):
            return ["report does not pass"]
        cfg = json.loads(config_path.read_text())
        tol = float(cfg.get("tol", DEFAULT_TOL))
        bound = 10.0 * tol
        forward, adjoint = self._operator(cfg["kind"], cfg["operator"])
        relation = self._relation(cfg["relation"], forward.shape[0],
                                  config_path.parent)
        u = np.asarray(report["solution"]["u"])
        x = np.asarray(report["solution"]["certificate"]["x"])
        y = np.asarray(report["solution"]["certificate"]["y"])
        out = []
        graph = relation.graph_residual(x, y)
        if not graph <= bound:
            out.append(f"graph residual {graph:.3e} > {bound:.1e}")
        gap = float(np.linalg.norm(x - forward @ u))
        if not gap <= bound * max(1.0, float(np.linalg.norm(x))):
            out.append(f"|x - A u| = {gap:.3e} exceeds {bound:.1e} relative")
        if adjoint is not None:
            f = np.asarray(cfg["f"], dtype=float)
            adj = float(np.linalg.norm(adjoint.T @ y - f))
            if not adj <= bound:
                out.append(f"|A^T y - f| = {adj:.3e} > {bound:.1e}")
        return out
