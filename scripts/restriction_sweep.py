"""Dense/sparse crossover sweep of the restriction on grad2d zero-boundary grids.

Run from the repository root:

    python3 scripts/restriction_sweep.py > sweep.json

For each grid n x n and each path (the thin SVD, ``RestrictedOperator``;
the sparse LU of A^T A, ``NormalRestriction``) one fresh process, with one
BLAS thread, builds the operator, restricts it with the path forced through
the size gate ``hilbert_core._NORMAL_MIN_ENTRIES``, times the range
projection of one Douglas-Rachford (DR) iteration, and solves one sign
problem scaled as in the ``solve_large_sign`` benchmark workload.  It
reports the restriction time, the projection time, the DR iterations and
time per iteration, and the process's peak RSS.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

GRIDS = (10, 16, 20, 24, 40, 60)
SVD_MAX_GRID = 40  # the 60 x 60 SVD needs about 1 GB and half a minute
PROJECTIONS = 200


def one(n, path):
    import resource

    import numpy as np

    from elliptic_inclusions import (OperatorSpec, Problem, build_operator,
                                     hilbert_core, make_diagonal, Sign, solve)

    h = 1.0 / (n + 1)
    a = build_operator(OperatorSpec("grad2d", (n, n), h, "zero")).matrix
    hilbert_core._NORMAL_MIN_ENTRIES = 0 if path == "sparse" else 10**18
    start = time.perf_counter()
    restricted = hilbert_core.restrict_operator(a)
    restrict_s = time.perf_counter() - start
    rng = np.random.default_rng(n)
    y = rng.standard_normal(a.rows)
    start = time.perf_counter()
    for _ in range(PROJECTIONS):
        restricted.ran.project(y)
    project_s = (time.perf_counter() - start) / PROJECTIONS
    f = 52.0 / ((n + 1) * h) * rng.standard_normal(a.cols)
    relation = make_diagonal(1.0, [Sign()] * a.rows)
    start = time.perf_counter()
    sol = solve(Problem("homogeneous", a, relation, f))
    solve_s = time.perf_counter() - start
    iterations = sol.diagnostics["n_iterations"]
    return {
        "grid": n, "path": path, "class": type(restricted).__name__,
        "shape": list(a.shape), "dense_entries": a.rows * a.cols,
        "restrict_s": restrict_s, "project_us": 1e6 * project_s,
        "dr_iterations": iterations, "solve_s": solve_s,
        "dr_s_per_iter": solve_s / iterations,
        "max_residual": max(v for k, v in sol.diagnostics.items()
                            if k.startswith("residual_")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(int(sys.argv[2]), sys.argv[3])))
        return
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows = []
    for n in GRIDS:
        for path in ("svd", "sparse"):
            if path == "svd" and n > SVD_MAX_GRID:
                continue
            out = subprocess.run([sys.executable, __file__, "--one", str(n), path],
                                 env=env, capture_output=True, text=True, check=True)
            rows.append(json.loads(out.stdout.splitlines()[-1]))
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
