"""Sweeps of the restriction and of Douglas-Rachford on zero-boundary grids.

Run from the repository root:

    python3 scripts/restriction_sweep.py > sweep.json
    python3 scripts/restriction_sweep.py --dr > dr_sweep.json

The first form is the dense/sparse crossover, on grad2d and symgrad2d
zero-boundary n x n grids, with the sizes around the gate
``hilbert_core._NORMAL_MIN_ENTRIES`` sampled densely.  For each grid and
each path (the thin SVD, ``RestrictedOperator``; the sparse LU of A^T A,
``NormalRestriction``) one fresh process, with one BLAS thread, builds the
operator, factors it with the path forced through the size gate (the best
of 5 factorizations), times the range projection of one Douglas-Rachford
(DR) iteration (the best of 5 means over 200 projections), and solves one
sign problem scaled as in the ``solve_large_sign`` benchmark workload.  It
reports the restriction time, the projection time, the DR iterations and
time per iteration, and the process's peak RSS.

The ``--dr`` form compares plain and Anderson-accelerated DR on the same
sign problems at 20 x 20, 30 x 30 and 40 x 40, each grid in one fresh
process, at the solver's one step 1/c.  Plain DR is
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

GRIDS = {  # dense entries from 22,000 (grad2d 10) upwards; the gate is 60,000
    "grad2d": (10, 11, 12, 13, 14, 16, 20, 24, 40, 60),
    "symgrad2d": (8, 9, 10, 11, 12, 16, 20),
}
SVD_SKIP = {("grad2d", 60)}  # that SVD needs about 1 GB and half a minute
PROJECTIONS = 200
REPEATS = 5
DR_GRIDS = (20, 30, 40)


def _best(fn):
    """Least wall time of ``REPEATS`` calls of ``fn``."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def one(family, n, path):
    import resource

    import numpy as np

    from elliptic_inclusions import (OperatorSpec, Problem, build_operator,
                                     hilbert_core, make_diagonal, Sign, solve)

    h = 1.0 / (n + 1)
    a = build_operator(OperatorSpec(family, (n, n), h, "zero")).matrix
    hilbert_core._NORMAL_MIN_ENTRIES = 0 if path == "sparse" else 10**18
    restricted = hilbert_core.restrict_operator(a)
    restrict_s = _best(lambda: hilbert_core._factor(a.matrix))
    rng = np.random.default_rng(n)
    y = rng.standard_normal(a.rows)

    def projections():
        for _ in range(PROJECTIONS):
            restricted.ran.project(y)

    project_s = _best(projections) / PROJECTIONS
    f = 52.0 / ((n + 1) * h) * rng.standard_normal(a.cols)
    relation = make_diagonal(1.0, [Sign()] * a.rows)
    start = time.perf_counter()
    sol = solve(Problem("homogeneous", a, relation, f))
    solve_s = time.perf_counter() - start
    iterations = sol.diagnostics["n_iterations"]
    return {
        "family": family, "grid": n, "path": path,
        "class": type(restricted).__name__,
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
        start = time.perf_counter()
        sol = solve(Problem("homogeneous", a, relation, f))
        solve_s = time.perf_counter() - start
        rows.append({
            "grid": n, "shape": list(a.shape), "rule": rule,
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
        print(json.dumps(one(sys.argv[2], int(sys.argv[3]), sys.argv[4])))
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
        runs = [["--one", family, str(n), path]
                for family, grids in GRIDS.items() for n in grids
                for path in ("svd", "sparse")
                if path == "sparse" or (family, n) not in SVD_SKIP]
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
