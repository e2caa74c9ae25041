"""Tooling outside the package reaches into it by name; keep those names there.

The benchmark's tracer patches module attributes, its checker imports the
public API, and ``scripts/restriction_sweep.py`` calls private helpers of
``hilbert_core``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from elliptic_inclusions import hilbert_core

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        spans = importlib.import_module("spans")
        missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in spans.PATCHES
                   if not callable(getattr(mod, attr, None))]
    finally:
        sys.modules.pop("spans", None)
    assert missing == []


def test_benchmark_checker_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        check = importlib.import_module("check")
    finally:
        sys.modules.pop("check", None)
    assert callable(check.without_timing)


@pytest.mark.parametrize("path, cls", [("svd", "RestrictedOperator"),
                                       ("sparse", "NormalRestriction")])
def test_restriction_sweep_runs_one_grid(monkeypatch, path, cls):
    spec = importlib.util.spec_from_file_location(
        "restriction_sweep", ROOT / "scripts" / "restriction_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    # the sweep sets the gate size itself; monkeypatch puts it back
    monkeypatch.setattr(hilbert_core, "_NORMAL_MIN_ENTRIES",
                        hilbert_core._NORMAL_MIN_ENTRIES)
    row = sweep.one("grad2d", 10, path)
    assert row["class"] == cls and row["path"] == path
    assert row["max_residual"] <= 1e-9
