"""Config fuzz sweep: every field of the shipped configs set to hostile values.

Whatever the value, ``solve`` must neither raise nor print non-standard
JSON: it exits 0, 1 or 2 with a report that strict JSON parsers read.
Only the huge values (1e308, 2**70) may reach an ``internal_error``; every
other bad value is caught as a typed error.
"""

import json
from pathlib import Path

import pytest

from elliptic_inclusions.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAMES = ("poisson_1d", "sign_diagonal", "dirichlet_ramp", "neumann_1d")
# fields the shipped configs may leave out, set as well
ABSENT = ("tol", "seed", "max_iter", "u0")
HUGE = (1e308, 2**70)
VALUES = ("a", -1, 0, 1.5, True, None, [], [["x"]], {}, float("nan"),
          float("inf"), float("-inf")) + HUGE


def _strict(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _paths(cfg):
    """(section, key) for every top-level, operator and relation field."""
    out = [(None, key) for key in sorted(set(cfg) | set(ABSENT))]
    for section in ("operator", "relation"):
        out += [(section, key) for key in sorted(cfg[section])]
    return out


# the huge values overflow inside the solve, which then reports its error
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", NAMES)
def test_hostile_config_values_give_typed_reports(tmp_path, name):
    base = json.loads((CONFIGS / f"{name}.json").read_text())
    failures = []
    for section, key in _paths(base):
        for value in VALUES:
            cfg = json.loads(json.dumps(base))
            (cfg if section is None else cfg[section])[key] = value
            path = tmp_path / "run.json"
            path.write_text(json.dumps(cfg))
            report = tmp_path / "report.json"
            case = f"{section or ''}.{key}={value!r}"
            try:
                code = main(["solve", "--config", str(path), "--report", str(report)])
                data = json.loads(report.read_text(), parse_constant=_strict)
            except Exception as exc:  # the sweep reports every failing case
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"{case}: exit {code}")
            elif (data.get("error") or {}).get("code") == "internal_error" \
                    and not any(value is v for v in HUGE):
                failures.append(f"{case}: internal_error {data['error']['message']}")
    assert not failures, "\n".join(failures)
