"""Sweeps of the restriction and of Douglas-Rachford on grad2d zero-boundary grids.

Run from the repository root:

    python3 scripts/restriction_sweep.py > sweep.json
    python3 scripts/restriction_sweep.py --dr > dr_sweep.json

The first form is the dense/sparse crossover.  For each grid n x n and each
path (the thin SVD, ``RestrictedOperator``; the sparse LU of A^T A,
``NormalRestriction``) one fresh process, with one BLAS thread, builds the
operator, restricts it with the path forced through the size gate
``hilbert_core._NORMAL_MIN_ENTRIES``, times the range projection of one
Douglas-Rachford (DR) iteration, and solves one sign problem scaled as in
the ``solve_large_sign`` benchmark workload.  It reports the restriction
time, the projection time, the DR iterations and time per iteration, and
the process's peak RSS.

The ``--dr`` form compares plain and Anderson-accelerated DR on the same
sign problems at 20 x 20, 30 x 30 and 40 x 40, each grid in one fresh
process, at the steps lam*c = 1 (the default), 0.5 and 0.25.  Plain DR is
the accelerated code with ``relations._ANDERSON_SLOW_RATE`` set to
infinity, so that every step counts as fast enough.  It reports the DR map
evaluations, the accepted and rejected extrapolations, the solve time and
the largest certified residual.
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
DR_GRIDS = (20, 30, 40)
DR_STEPS = (1.0, 0.5, 0.25)  # lam * c


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


def dr_rows(n):
    import numpy as np

    from elliptic_inclusions import (OperatorSpec, Problem, build_operator,
                                     make_diagonal, relations, Sign, solve)

    h = 1.0 / (n + 1)
    a = build_operator(OperatorSpec("grad2d", (n, n), h, "zero")).matrix
    f = 52.0 / ((n + 1) * h) * np.random.default_rng(n).standard_normal(a.cols)
    relation = make_diagonal(1.0, [Sign()] * a.rows)
    solve(Problem("homogeneous", a, relation, f))  # factor A once, untimed
    accelerated = relations._ANDERSON_SLOW_RATE
    rows = []
    for rule, rate in (("plain", float("inf")), ("anderson", accelerated)):
        relations._ANDERSON_SLOW_RATE = rate
        for step in DR_STEPS:
            start = time.perf_counter()
            sol = solve(Problem("homogeneous", a, relation, f, lam=step / relation.c))
            solve_s = time.perf_counter() - start
            rows.append({
                "grid": n, "shape": list(a.shape), "rule": rule, "lam_c": step,
                "evaluations": sol.diagnostics["n_iterations"],
                "accepted": sol.certificate.accepted,
                "rejected": sol.certificate.rejected,
                "solve_s": solve_s,
                "max_residual": max(v for k, v in sol.diagnostics.items()
                                    if k.startswith("residual_")),
            })
    relations._ANDERSON_SLOW_RATE = accelerated
    return rows


def main():
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one(int(sys.argv[2]), sys.argv[3])))
        return
    if sys.argv[1:2] == ["--dr-one"]:
        print(json.dumps(dr_rows(int(sys.argv[2]))))
        return
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if sys.argv[1:2] == ["--dr"]:
        runs = [["--dr-one", str(n)] for n in DR_GRIDS]
    else:
        runs = [["--one", str(n), path] for n in GRIDS for path in ("svd", "sparse")
                if path == "sparse" or n <= SVD_MAX_GRID]
    rows = []
    for args in runs:
        out = subprocess.run([sys.executable, __file__, *args],
                             env=env, capture_output=True, text=True, check=True)
        new = json.loads(out.stdout.splitlines()[-1])
        rows.extend(new if isinstance(new, list) else [new])
        print(out.stdout.splitlines()[-1], file=sys.stderr)
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
