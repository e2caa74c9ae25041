"""Property tests of the certified pipeline over random operator pairs.

Each example draws a rank-deficient map C, an orthonormal inclusion basis E
and the consistent pair (C E, C), a diagonal relation mixing Linear, Sign,
Clamp, Relay and Power graphs with c in [0.5, 2], and admissible data.  The
same draw becomes a homogeneous, a boundary-data or a flux-data problem.
Every solve must certify (all ``residual_*`` <= 10*tol); piecewise-affine
homogeneous and boundary-data solves must also agree with the
branch-enumeration oracle.  At most 6 rows keep the Douglas-Rachford solves
and the oracle's enumeration short.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_inclusions import (
    Clamp,
    Linear,
    Power,
    Problem,
    Relay,
    Sign,
    Subspace,
    make_diagonal,
    solve,
)
from elliptic_inclusions.oracle import active_set_solve
from helpers import random_operator, random_subspace

# the same examples on every run, and no example database on disk
REPRODUCIBLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)

AFFINE_KINDS = ("linear", "sign", "clamp", "relay")
TOL = 1e-10


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


@st.composite
def problems(draw, kind):
    m = draw(st.integers(2, 6))  # rows of C, the relation's dimension
    n = draw(st.integers(2, 6))  # columns of C
    rank = draw(st.integers(1, min(m, n) - 1))  # rank-deficient
    k = draw(st.integers(1, n))  # dimension of the inclusion
    affine = draw(st.booleans())
    pool = AFFINE_KINDS if affine else AFFINE_KINDS + ("power",)
    kinds = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    c = draw(st.floats(0.5, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    cmat = random_operator(rng, m, n, rank)
    embed = random_subspace(rng, n, k)
    inclusion = Subspace(n, embed)
    small = cmat @ embed
    relation = make_diagonal(c, [_graph(g, rng) for g in kinds])
    y = 2.0 * rng.standard_normal(m)
    if kind == "homogeneous":
        problem = Problem(kind, cmat, relation, cmat.T @ y, tol=TOL)
    elif kind == "dirichlet":
        problem = Problem(kind, small, relation, small.T @ y, C=cmat,
                          inclusion=inclusion, u0=rng.standard_normal(n), tol=TOL)
    else:
        problem = Problem(kind, cmat, relation, cmat.T @ y, C=small,
                          inclusion=inclusion, u0=rng.standard_normal(m), tol=TOL)
    return problem, "power" not in kinds


@pytest.mark.parametrize("kind", ["homogeneous", "dirichlet", "neumann"])
@REPRODUCIBLE
@given(data=st.data())
def test_every_solve_certifies_and_matches_the_oracle(kind, data):
    problem, affine = data.draw(problems(kind))
    solution = solve(problem)
    residuals = {k: v for k, v in solution.diagnostics.items()
                 if k.startswith("residual_")}
    assert residuals and all(v <= 10.0 * problem.tol for v in residuals.values())
    if not affine or problem.kind == "neumann":
        return
    graphs = list(problem.relation.descriptor.graphs)
    if problem.kind == "homogeneous":
        u, u_ref = solution.u, active_set_solve(problem.A.matrix, problem.relation.c,
                                                graphs, problem.f)
    else:
        basis = problem.inclusion.basis
        u = basis.T @ (solution.u - problem.u0)
        u_ref = active_set_solve(problem.effective.matrix, problem.relation.c, graphs,
                                 problem.f, input_shift=problem.C.matrix @ problem.u0)
    assert np.linalg.norm(u - u_ref) <= 1e-7 * max(1.0, float(np.linalg.norm(u_ref)))
