"""Property tests of the certified pipeline over random operator pairs.

Each draw takes a rank-deficient map C, an orthonormal inclusion basis E
and the consistent pair (C E, C), a diagonal relation with c in [0.5, 2],
and admissible data.  Its graphs come from one of three pools:
piecewise-affine graphs with a potential (Linear, Sign), every
piecewise-affine graph (adding Clamp and Relay), or all of them (adding
Power).  The same draw becomes a homogeneous, a boundary-data or a
flux-data problem of up to 9 rows.

Every solve must certify (all ``residual_*`` <= 10*tol).  Piecewise-affine
homogeneous and boundary-data solves must also agree with the
branch-enumeration oracle, and homogeneous ones with potentials also with
the convex-minimization oracle.  Over a fixed set of seeded draws the
Anderson-accelerated Douglas-Rachford iteration must never need more map
evaluations than plain Douglas-Rachford, and far fewer in the median.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_inclusions import (
    Clamp,
    ConvergenceError,
    Linear,
    Power,
    Problem,
    Relay,
    Sign,
    Subspace,
    make_diagonal,
    relations,
    solve,
)
from elliptic_inclusions.oracle import active_set_solve, convex_min_solve
from helpers import random_operator, random_subspace

# the same examples on every run, and no example database on disk
REPRODUCIBLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)

KINDS = ("homogeneous", "dirichlet", "neumann")
POTENTIAL_KINDS = ("linear", "sign")
AFFINE_KINDS = POTENTIAL_KINDS + ("clamp", "relay")
POOLS = (POTENTIAL_KINDS, AFFINE_KINDS, AFFINE_KINDS + ("power",))
MAX_ROWS = 9
TOL = 1e-10
# the safeguard's fixed draw set: 150 seeds per problem kind
SAFEGUARD_SEEDS = range(1000, 1150)


def _graph(kind, rng):
    if kind == "linear":
        return Linear(float(rng.uniform(0.0, 2.0)))
    if kind == "sign":
        return Sign()
    if kind == "clamp":
        return Clamp(float(-rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
    if kind == "relay":
        return Relay(float(rng.uniform(0.0, 2.0)))
    return Power(float(rng.uniform(1.5, 3.0)))


def draw_problem(seed, kind):
    """One random problem of the given kind; returns it with its graph kinds."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, MAX_ROWS + 1))  # rows of A, the relation's dimension
    n = int(rng.integers(2, MAX_ROWS + 1))  # columns of A
    rank = int(rng.integers(1, min(m, n)))  # rank-deficient
    k = int(rng.integers(1, n + 1))  # dimension of the inclusion
    pool = POOLS[int(rng.integers(len(POOLS)))]
    kinds = [pool[i] for i in rng.integers(len(pool), size=m)]
    c = float(rng.uniform(0.5, 2.0))

    cmat = random_operator(rng, m, n, rank)
    embed = random_subspace(rng, n, k)
    inclusion = Subspace(n, embed)
    small = cmat @ embed
    relation = make_diagonal(c, [_graph(g, rng) for g in kinds])
    y = 2.0 * rng.standard_normal(m)
    if kind == "homogeneous":
        problem = Problem(kind, cmat, relation, cmat.T @ y, tol=TOL)
    elif kind == "dirichlet":
        problem = Problem(kind, cmat, relation, small.T @ y,
                          inclusion=inclusion, u0=rng.standard_normal(n), tol=TOL)
    else:
        problem = Problem(kind, cmat, relation, cmat.T @ y,
                          inclusion=inclusion, u0=rng.standard_normal(m), tol=TOL)
    return problem, set(kinds)


def _close(u, u_ref):
    return np.linalg.norm(u - u_ref) <= 1e-7 * max(1.0, float(np.linalg.norm(u_ref)))


@pytest.mark.parametrize("kind", KINDS)
@REPRODUCIBLE
@given(seed=st.integers(0, 2**32 - 1))
def test_every_solve_certifies_and_matches_the_oracle(kind, seed):
    problem, kinds = draw_problem(seed, kind)
    solution = solve(problem)
    residuals = {k: v for k, v in solution.diagnostics.items()
                 if k.startswith("residual_")}
    assert residuals and all(v <= 10.0 * problem.tol for v in residuals.values())
    if not kinds <= set(AFFINE_KINDS) or problem.kind == "neumann":
        return
    graphs = list(problem.relation.descriptor.graphs)
    if problem.kind == "homogeneous":
        a, c, f = problem.A.matrix, problem.relation.c, problem.f
        assert _close(solution.u, active_set_solve(a, c, graphs, f))
        if kinds <= set(POTENTIAL_KINDS):
            assert _close(solution.u, convex_min_solve(a, c, graphs, f))
    else:
        basis = problem.inclusion.basis
        u = basis.T @ (solution.u - problem.u0)
        u_ref = active_set_solve(problem.effective.matrix, problem.relation.c, graphs,
                                 problem.f, input_shift=problem.A.matrix @ problem.u0)
        assert _close(u, u_ref)


@pytest.mark.parametrize("kind", KINDS)
def test_acceleration_never_loses_to_plain_douglas_rachford(kind, monkeypatch):
    """Evaluations of the DR map over the fixed draw set, against plain DR.

    Plain DR (the acceleration switched off by calling every gap ratio
    fast) runs with a budget of max(accelerated - 1, 3 * accelerated
    median) evaluations: running out shows it needs more than the
    accelerated solve, and more than three times the accelerated median.
    """
    problems = [draw_problem(seed, kind)[0] for seed in SAFEGUARD_SEEDS]
    accelerated = [solve(p).diagnostics["n_iterations"] for p in problems]
    assert max(accelerated) <= 1000
    median = float(np.median(accelerated))
    monkeypatch.setattr(relations, "_ANDERSON_SLOW_RATE", np.inf)
    slower = 0  # draws on which plain DR needs more than 3x the median
    for seed, problem, count in zip(SAFEGUARD_SEEDS, problems, accelerated):
        budget = max(count - 1, int(3 * median))
        try:
            plain = solve(replace(problem, max_iter=budget)).diagnostics["n_iterations"]
        except ConvergenceError as exc:
            assert exc.iterations == budget, f"seed {seed}: {exc}"
            slower += 1
            continue
        assert plain >= count, f"seed {seed}: plain DR {plain} < accelerated {count}"
        slower += plain > 3 * median
    # both middle order statistics of plain DR exceed 3x the accelerated median
    assert slower > len(problems) // 2
