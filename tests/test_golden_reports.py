"""End-to-end reports of the shipped configs against committed golden files.

Each of the five ``configs/`` runs under ``solve``, ``verify`` and
``oracle-check``; the report (``timing`` removed) and the exit status must
match ``tests/data/golden/<config>.<command>.json``.  Keys, strings, ints
and booleans compare exactly; floats to 1e-9 relative or 1e-13 absolute.
Every fresh report must also be strict JSON: no ``NaN`` or ``Infinity``.

Regenerate the golden files, only when a report change is intended, with
``PYTHONPATH=src python tests/test_golden_reports.py --write [config ...]``;
naming configs writes only theirs.
"""

import json
import sys
from pathlib import Path

import pytest

from elliptic_inclusions.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
CONFIGS = ("poisson_1d", "sign_diagonal", "dirichlet_ramp", "neumann_1d", "elastic_mtx")
COMMANDS = ("solve", "verify", "oracle-check")
CASES = [(c, cmd) for c in CONFIGS for cmd in COMMANDS]


def _reject_constant(name):
    raise ValueError(f"report is not strict JSON: it holds {name}")


def _run(config, command, out):
    # relative config path, so error reports name it the same way everywhere
    code = main([command, "--config", f"configs/{config}.json",
                 "--report", str(out)])
    report = json.loads(Path(out).read_bytes(), parse_constant=_reject_constant)
    del report["timing"]
    return {"exit_code": code, "report": report}


def _assert_close(actual, expected, where):
    assert type(actual) is type(expected), f"{where}: {actual!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{where}: keys differ"
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert abs(actual - expected) <= max(1e-9 * abs(expected), 1e-13), \
            f"{where}: {actual!r} vs {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


@pytest.mark.parametrize("config,command", CASES)
def test_report_matches_golden(config, command, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads((GOLDEN / f"{config}.{command}.json").read_text())
    actual = _run(config, command, tmp_path / "report.json")
    _assert_close(actual, expected, f"{config}.{command}")


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    import os
    import tempfile

    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for config in sys.argv[2:] or CONFIGS:
            for command in COMMANDS:
                data = _run(config, command, Path(tmp) / "report.json")
                (GOLDEN / f"{config}.{command}.json").write_text(
                    json.dumps(data, sort_keys=True, indent=2) + "\n")
