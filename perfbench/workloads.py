"""Workload definitions: seeded config generators for the CLI benchmark.

Each workload writes a pool of JSON configs (plus any referenced data
files) into a work directory.  The program under test only ever sees those
files; the workload seed never reaches it except through the configs'
own ``seed`` fields, which drive the CLI's probe checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.io
import scipy.sparse

# Configs generated per run.  A run that outlasts the pool cycles through it
# again; the repeats are then compared byte for byte like the final re-run.
POOL_SIZE = 48


def _write(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg))
    return path


def _small_sign(rng, workdir):
    n = 10
    return {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad2d", "shape": [n, n], "h": 1.0 / (n + 1),
                     "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": {"kind": "sign"}},
        "f": (20.0 * rng.standard_normal(n * n)).tolist(),
        "seed": int(rng.integers(2**31)),
    }


def _large_sign(rng, workdir):
    n = 24
    # A scales as 1/h, so scaling f by 1/h keeps the stuck share near 46%
    h = float(rng.uniform(0.97, 1.03)) / (n + 1)
    scale = 52.0 / ((n + 1) * h)
    return {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad2d", "shape": [n, n], "h": h,
                     "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": {"kind": "sign"}},
        "f": (scale * rng.standard_normal(n * n)).tolist(),
        "checks": ["certificate"],
        "seed": int(rng.integers(2**31)),
    }


def _neumann_power(rng, workdir):
    # The scalar Power resolvent is ~85% of a request at any grid size.  At
    # 7x7 a request takes ~0.5 s, so a 25 s run serves ~50 of them: enough
    # for a median that holds still and a tail percentile near p80.
    n = 7
    f = rng.standard_normal(n * n)
    f -= f.mean()  # the free gradient's kernel is the constants
    rows = 2 * n * (n - 1)
    return {
        "schema_version": 1,
        "kind": "neumann",
        "operator": {"family": "grad2d", "shape": [n, n], "h": 1.0 / (n - 1)},
        "relation": {"type": "diagonal", "c": 1.0,
                     "graphs": {"kind": "power", "exponent": 3.0}},
        "f": f.tolist(),
        "u0": (0.5 * rng.standard_normal(rows)).tolist(),
        "seed": int(rng.integers(2**31)),
    }


def _elastic_relation(rng, dim):
    """Banded nonsymmetric matrix whose symmetric part is diagonally dominant.

    Diagonal in [1.5, 2.5]; the first off-diagonals carry a skew part of
    size up to 1 and a symmetric part below 0.25, so the symmetric part is
    SPD with smallest eigenvalue at least 1.
    """
    diag = rng.uniform(1.5, 2.5, dim)
    skew = rng.uniform(-1.0, 1.0, dim - 1)
    sym = rng.uniform(-0.25, 0.25, dim - 1)
    return np.diag(diag) + np.diag(skew + sym, 1) + np.diag(-skew + sym, -1)


def _dirichlet_elastic(rng, workdir):
    # At 14x14 the restrictions' SVDs lead a ~0.7 s request, so a 25 s run
    # serves ~35 requests and the tail sits near p70.  Smaller grids are
    # mostly Python overhead, and their p94 tail swings with outside load.
    n = 14
    relation = workdir / "relation.mtx"  # one matrix, shared by the run
    if not relation.exists():
        # symgrad2d free n x n: rows e11, e22 ((n-1)*n each), e12 ((n-1)^2)
        dim = 2 * (n - 1) * n + (n - 1) ** 2
        scipy.io.mmwrite(relation,
                         scipy.sparse.coo_array(_elastic_relation(rng, dim)),
                         precision=17)
    return {
        "schema_version": 1,
        "kind": "dirichlet",
        "operator": {"family": "symgrad2d", "shape": [n, n], "h": 1.0 / (n - 1)},
        "relation": {"type": "linear", "path": relation.name},
        "f": rng.standard_normal(2 * (n - 2) ** 2).tolist(),
        "u0": (0.5 * rng.standard_normal(2 * n * n)).tolist(),
        "checks": ["certificate", "oracle", "dirichlet_estimate", "monotonicity"],
        "seed": int(rng.integers(2**31)),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    restrictions_per_request: int  # pinned count, derived from the code paths
    parses_per_request: int
    make_config: Callable  # (rng, workdir) -> config dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_small_sign", "verify",
            restrictions_per_request=102, parses_per_request=2,
            make_config=_small_sign,
        ),
        Workload(
            "solve_large_sign", "solve",
            restrictions_per_request=1, parses_per_request=1,
            make_config=_large_sign,
        ),
        Workload(
            "verify_neumann_power", "verify",
            restrictions_per_request=7, parses_per_request=2,
            make_config=_neumann_power,
        ),
        Workload(
            "solve_dirichlet_elastic", "solve",
            restrictions_per_request=4, parses_per_request=1,
            make_config=_dirichlet_elastic,
        ),
    )
}


def generate(name: str, seed: int, workdir: Path):
    """Write POOL_SIZE configs for workload ``name``; return their paths."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    make = WORKLOADS[name].make_config
    return [_write(workdir / f"config_{i:03d}.json", make(rng, workdir))
            for i in range(POOL_SIZE)]
