"""Tooling outside the package reaches into it by name; keep those names there.

The benchmark's tracer patches module attributes, its checker imports the
public API, and ``scripts/restriction_sweep.py`` calls private helpers of
``hilbert_core``.  The benchmark's traced self-test (pinned restriction and
parse counts, repeatable counts and bytes, the outside checker) runs here
on one generated config per workload.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from elliptic_inclusions import cli, hilbert_core

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


def _perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    names = ("workloads", "spans", "check")
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_traced_workload_requests_keep_the_benchmark_pins(monkeypatch, tmp_path):
    workloads, spans, check = _perfbench_modules(monkeypatch)
    units = spans.metric_units()
    for index, workload in enumerate(workloads.WORKLOADS.values()):
        checker = check.Checker()  # one per workload, as in a benchmark run
        workdir = tmp_path / workload.name
        workdir.mkdir()
        config = workdir / "config.json"
        config.write_text(json.dumps(
            workload.make_config(np.random.default_rng([5, index]), workdir)))
        tracer = spans.Tracer()
        counts, texts = [], []
        for request in range(2):
            report = workdir / f"report_{request}.json"
            with tracer.installed():
                code = tracer.call(request, cli.main, [
                    workload.command, "--config", str(config), "--report", str(report)])
            assert code == 0, workload.name
            row = tracer.request_metrics(request)
            assert row["hilbert_core.restrict_calls"] \
                == workload.restrictions_per_request, workload.name
            assert row["cli.parse_calls"] == workload.parses_per_request, workload.name
            counts.append({k: v for k, v in row.items() if units[k] != "s"})
            report_bytes = report.read_bytes()
            assert checker.problems(config, code, report_bytes) == [], workload.name
            texts.append(check.without_timing(report_bytes))
        assert counts[0] == counts[1], workload.name
        assert texts[0] == texts[1], workload.name
