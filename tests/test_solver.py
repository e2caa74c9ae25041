"""Solution pipelines, certificates, estimate verifiers, and the probe."""

import dataclasses
import gc

import numpy as np
import pytest
import scipy.linalg

from elliptic_inclusions import (
    CapabilityError,
    ConvergenceError,
    DomainError,
    InputError,
    LinearMap,
    OperatorSpec,
    Problem,
    Relation,
    Sign,
    SobolevNormKind,
    build_operator,
    lipschitz_probe,
    make_diagonal,
    make_linear,
    operator_pair,
    restrict_operator,
    sobolev_norm,
    solve_dirichlet,
    solve_homogeneous,
    solve_neumann,
    verify_dirichlet_estimate,
    verify_neumann_estimate,
)
from elliptic_inclusions.oracle import active_set_solve, linear_direct_solve
from helpers import (
    DIRICHLET_GRAD_3,
    RELATION_FAMILIES,
    random_operator,
    random_pd_matrix,
    relation_family,
)


def grad1d_pair(n):
    return operator_pair(OperatorSpec("grad1d", (n,)))


def test_homogeneous_poisson_like():
    rel = make_linear(np.eye(4))
    problem = Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3))
    sol = solve_homogeneous(problem)
    assert np.allclose(sol.u, [1.5, 2.0, 1.5], atol=1e-10)
    assert np.allclose(sol.w, [1.5, 0.5, -0.5, -1.5], atol=1e-10)
    for key, value in sol.diagnostics.items():
        if key.startswith("residual_"):
            assert value <= 10.0 * problem.tol


def test_homogeneous_zero_rhs():
    rel = make_diagonal(1.0, [Sign()] * 4)
    problem = Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.zeros(3))
    sol = solve_homogeneous(problem)
    assert np.allclose(sol.u, 0.0, atol=1e-10)


def test_homogeneous_sign_single_interior_node():
    a = np.array([[1.0], [-1.0]])
    rel = make_diagonal(1.0, [Sign(), Sign()])
    for f in (np.array([0.5]), np.array([3.0]), np.array([-4.2])):
        problem = Problem("homogeneous", LinearMap(a), rel, f, tol=1e-11)
        sol = solve_homogeneous(problem)
        u_ref = active_set_solve(a, 1.0, [Sign(), Sign()], f)
        assert np.linalg.norm(sol.u - u_ref) < 1e-8


def test_homogeneous_rejects_kernel_rhs():
    free = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    rel = make_linear(np.eye(2))
    problem = Problem("homogeneous", LinearMap(free), rel, np.ones(3))
    with pytest.raises(DomainError) as info:
        solve_homogeneous(problem)
    assert info.value.code == "rhs_not_in_H_minus_1"


def test_homogeneous_rejects_mismatched_relation():
    # dimension 2 matches neither the codomain (4) nor the range (3)
    rel = make_linear(np.eye(2))
    with pytest.raises(InputError):
        problem = Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3))
        solve_homogeneous(problem)


def test_factorization_matches_dense_reduced_solve():
    rng = np.random.default_rng(1)
    for _ in range(25):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(1, 6))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = random_operator(rng, rows, cols, rank)
        m = random_pd_matrix(rng, rows)
        rel = make_linear(m)
        q = np.linalg.svd(a, full_matrices=False)[2][:rank]
        f = q.T @ rng.standard_normal(rank)
        problem = Problem("homogeneous", LinearMap(a), rel, f, tol=1e-12)
        u = solve_homogeneous(problem).u
        u_ref = linear_direct_solve(a, m, f)
        scale = max(1.0, np.linalg.norm(u_ref))
        assert np.linalg.norm(u - u_ref) <= 1e-9 * scale


def test_non_finite_residuals_fail_certification():
    rel = Relation(3, 1.0, lambda mu, z: np.full(np.shape(z), np.nan),
                   validate=False)
    problem = Problem("homogeneous", np.eye(3), rel, np.ones(3))
    with pytest.raises(ConvergenceError, match="exceed 10"):
        solve_homogeneous(problem)


def test_homogeneous_certificates_random_relations():
    rng = np.random.default_rng(2)
    tol = 1e-10
    for name in RELATION_FAMILIES:
        for _ in range(5):
            a = random_operator(rng, 5, 4, int(rng.integers(1, 5)))
            rel = relation_family(name, 5, rng)
            restricted = restrict_operator(a)
            f = restricted.ran_adj.project(rng.standard_normal(4))
            problem = Problem("homogeneous", LinearMap(a), rel, f, tol=tol)
            sol = solve_homogeneous(problem)
            assert rel.graph_residual(sol.certificate.x, sol.certificate.y) <= 10 * tol
            assert np.linalg.norm(a.T @ sol.certificate.y - f) <= 10 * tol
            assert restricted.ran_adj.membership_residual(sol.u) <= 10 * tol


def test_dirichlet_harmonic_ramp():
    small, big, inclusion = grad1d_pair(5)
    u0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    # stencil oracle: the ramp has constant differences, so A^T(C u0) = 0
    eff = big.matrix.matrix @ inclusion.basis
    assert np.allclose(eff.T @ (big.matrix.matrix @ u0), 0.0)
    rel = make_linear(np.eye(4))
    problem = Problem("dirichlet", big.matrix, rel, np.zeros(3),
                      inclusion=inclusion, u0=u0)
    sol = solve_dirichlet(problem)
    assert np.allclose(sol.u, u0, atol=1e-10)


def test_dirichlet_zero_data_matches_homogeneous():
    small, big, inclusion = grad1d_pair(5)
    rel = make_linear(random_pd_matrix(np.random.default_rng(3), 4))
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal(3)
        pd = Problem("dirichlet", big.matrix, rel, f,
                     inclusion=inclusion, u0=np.zeros(5), tol=1e-13)
        ud = solve_dirichlet(pd).u
        eff = LinearMap(big.matrix.matrix @ inclusion.basis)
        ph = Problem("homogeneous", eff, rel, f, tol=1e-13)
        uh = solve_homogeneous(ph).u
        assert np.linalg.norm(ud - inclusion.basis @ uh) < 1e-12


def test_dirichlet_sign_edges_vs_shifted_enumeration():
    small, big, inclusion = grad1d_pair(5)
    graphs = [Sign()] * 4
    rel = make_diagonal(1.0, graphs)
    u0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    f = np.array([1.0, -0.4, 0.7])
    problem = Problem("dirichlet", big.matrix, rel, f,
                      inclusion=inclusion, u0=u0, tol=1e-11)
    sol = solve_dirichlet(problem)
    eff = big.matrix.matrix @ inclusion.basis
    shift = big.matrix.matrix @ u0
    x_ref = active_set_solve(eff, 1.0, graphs, f, input_shift=shift)
    u_ref = u0 + inclusion.basis @ x_ref
    assert np.linalg.norm(sol.u - u_ref) < 1e-8


def test_dirichlet_certificates_random():
    rng = np.random.default_rng(5)
    small, big, inclusion = grad1d_pair(6)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, big.matrix.rows, rng)
        f = rng.standard_normal(4)
        u0 = rng.standard_normal(6)
        problem = Problem("dirichlet", big.matrix, rel, f,
                          inclusion=inclusion, u0=u0, tol=1e-10)
        sol = solve_dirichlet(problem)
        cu = big.matrix.matrix @ sol.u
        assert rel.graph_residual(cu, sol.certificate.y) <= 1e-9
        eff = big.matrix.matrix @ inclusion.basis
        assert np.linalg.norm(eff.T @ sol.certificate.y - f) <= 1e-9
        gap = sol.u - u0
        assert np.linalg.norm(gap - inclusion.basis @ (inclusion.basis.T @ gap)) <= 1e-9


def test_dirichlet_requires_u0():
    small, big, inclusion = grad1d_pair(5)
    rel = make_linear(np.eye(4))
    with pytest.raises(InputError):
        Problem("dirichlet", big.matrix, rel, np.zeros(3),
                inclusion=inclusion)


def test_consistent_pairs_keep_the_effective_map():
    small, big, inclusion = grad1d_pair(7)
    rel = make_linear(np.eye(6))
    problem = Problem("dirichlet", big.matrix, rel, np.zeros(5),
                      inclusion=inclusion, u0=np.zeros(7))
    assert np.array_equal(problem.effective.matrix,
                          big.matrix.matrix @ inclusion.basis)
    neumann = Problem("neumann", big.matrix, rel, np.zeros(7),
                      inclusion=inclusion)
    assert neumann.effective is None


def test_problem_fields_cannot_be_assigned():
    small, big, inclusion = grad1d_pair(5)
    problem = Problem("dirichlet", big.matrix, make_linear(np.eye(4)),
                      np.zeros(3), inclusion=inclusion,
                      u0=np.zeros(5))
    for field in dataclasses.fields(Problem):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, field.name, getattr(problem, field.name))


def test_replaced_problem_shares_the_checked_map_without_cycles():
    small, big, inclusion = grad1d_pair(7)
    rel = make_linear(np.eye(6))
    problem = Problem("dirichlet", big.matrix, rel, np.zeros(5),
                      inclusion=inclusion, u0=np.zeros(7))
    other = dataclasses.replace(problem, f=np.ones(5), u0=np.ones(7))
    assert other.effective is problem.effective
    assert other.u0.tolist() == [1.0] * 7
    with pytest.raises(InputError, match="tol"):
        dataclasses.replace(problem, tol=float("nan"))
    rng = np.random.default_rng(3)
    rel = make_linear(np.eye(5))
    gc.collect()
    gc.disable()
    try:
        for _ in range(4):
            small, big, inclusion = grad1d_pair(6)
            problem = Problem("dirichlet", big.matrix, rel, rng.standard_normal(4),
                              inclusion=inclusion, u0=np.zeros(6))
            other = dataclasses.replace(problem, f=np.zeros(4))
            solve_dirichlet(other)
            del small, big, inclusion, problem, other
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_neumann_flux_data_defaults_to_zero():
    problem = neumann_problem(5, make_linear(np.eye(4)),
                              np.array([1.0, -0.5, 0.25, -0.5, -0.25]))
    assert problem.u0.tolist() == [0.0] * 4


# The first case keeps its established id; the operator the data must fit is A.
@pytest.mark.parametrize("u0,match", [
    pytest.param(np.zeros(4), "domain of A", id="u00-domain of C"),
    (np.array([0, 1, np.nan, 3, 4]), "finite")])
def test_dirichlet_boundary_data_is_checked_at_construction(u0, match):
    small, big, inclusion = grad1d_pair(5)
    with pytest.raises(InputError, match=match):
        Problem("dirichlet", big.matrix, make_linear(np.eye(4)), np.zeros(3),
                inclusion=inclusion, u0=u0)


def test_homogeneous_u0_must_be_finite_when_given():
    rel = make_linear(np.eye(4))
    Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3), u0=np.ones(1))
    with pytest.raises(InputError, match="finite"):
        Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3),
                u0=np.array([np.nan]))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_boundary_problems_check_the_inclusion_against_a(kind):
    _, big, inclusion = grad1d_pair(5)
    _, _, other = grad1d_pair(6)  # lives in a 6-dimensional space
    rel = make_linear(np.eye(4))
    f = np.zeros(3 if kind == "dirichlet" else 5)
    with pytest.raises(InputError, match="inclusion must live in the domain of A"):
        Problem(kind, big.matrix, rel, f, inclusion=other, u0=np.zeros(5))
    with pytest.raises(InputError, match="need the inclusion subspace"):
        Problem(kind, big.matrix, rel, f, u0=np.zeros(5))


def test_dirichlet_f_lives_on_the_inclusion_coordinates():
    _, big, inclusion = grad1d_pair(5)
    rel = make_linear(np.eye(4))
    with pytest.raises(InputError, match=r"expected \(3,\)") as info:
        Problem("dirichlet", big.matrix, rel, np.zeros(5), inclusion=inclusion,
                u0=np.zeros(5))
    assert info.value.field == "f"


@pytest.mark.parametrize("tol", [float("inf"), 1e308])
def test_tol_whose_certificate_bound_is_not_finite_is_rejected(tol):
    rel = make_linear(np.eye(4))
    with pytest.raises(InputError, match="10\\*tol finite") as info:
        Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3), tol=tol)
    assert info.value.field == "tol"


def neumann_problem(n, rel, f, u0=None, tol=1e-10):
    small, big, inclusion = grad1d_pair(n)
    return Problem("neumann", big.matrix, rel, f,
                   inclusion=inclusion, u0=u0, tol=tol)


def test_neumann_kernel_rhs_gives_zero_solution():
    rel = make_linear(np.eye(4))
    problem = neumann_problem(5, rel, np.full(5, 2.0))
    sol = solve_neumann(problem)
    assert np.linalg.norm(sol.u) <= 1e-9
    # the reported compatibility defect picks up the kernel component
    assert sol.diagnostics["report_compat_kernel_max"] > 1.0


def test_neumann_zero_data():
    rel = make_linear(np.eye(4))
    sol = solve_neumann(neumann_problem(5, rel, np.zeros(5)))
    assert np.allclose(sol.u, 0.0, atol=1e-12)


def _neumann_reduction_oracle(a, interior_idx, f, u0):
    """Independent dense run of the pipeline steps for the identity relation."""
    n = a.shape[1]
    # admissible test space: supported on the interior, zero total sum
    diffs = []
    for j in range(len(interior_idx) - 1):
        v = np.zeros(n)
        v[interior_idx[j]] = 1.0
        v[interior_idx[j + 1]] = -1.0
        diffs.append(v)
    w_basis = scipy.linalg.orth(np.array(diffs).T)
    q1 = scipy.linalg.null_space(np.ones((1, n)))
    aw = a @ w_basis
    gram = aw.T @ aw
    proj = np.linalg.solve(gram, aw.T @ (a @ q1))
    gamma = proj.T @ (w_basis.T @ f - aw.T @ u0)
    g = q1 @ gamma
    return np.linalg.pinv(a.T @ a) @ (g + a.T @ u0)


def test_neumann_matches_reduction_oracle():
    rng = np.random.default_rng(6)
    rel = make_linear(np.eye(4))
    for _ in range(5):
        f = rng.standard_normal(5)
        f -= f.mean()
        problem = neumann_problem(5, rel, f, tol=1e-12)
        sol = solve_neumann(problem)
        u_ref = _neumann_reduction_oracle(problem.A.matrix, [1, 2, 3], f, np.zeros(4))
        assert np.linalg.norm(sol.u - u_ref) < 1e-8
        assert abs(sol.u.mean()) < 1e-10


def test_neumann_weak_and_boundary_identities_random():
    rng = np.random.default_rng(7)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 4, rng)
        f = rng.standard_normal(5)
        f -= f.mean()
        u0 = rng.standard_normal(4)
        problem = neumann_problem(5, rel, f, u0=u0, tol=1e-10)
        sol = solve_neumann(problem)
        assert sol.diagnostics["residual_weak_equation"] <= 1e-8
        assert sol.diagnostics["residual_boundary_condition"] <= 1e-8
        # the flux field is the w slot for this problem kind
        assert np.allclose(sol.w, sol.certificate.y)


def test_neumann_uniqueness_across_dr_starts():
    rng = np.random.default_rng(8)
    rel = relation_family("sign", 4, rng)
    f = rng.standard_normal(5)
    f -= f.mean()
    problem = neumann_problem(5, rel, f, tol=1e-10)
    u_a = solve_neumann(problem, dr_start=np.zeros(4)).u
    u_b = solve_neumann(problem, dr_start=7.0 * np.ones(4)).u
    assert np.linalg.norm(u_a - u_b) <= 1e-8


def test_neumann_compatibility_report_for_gradient():
    rel = make_linear(np.eye(4))
    rng = np.random.default_rng(9)
    f = rng.standard_normal(5)
    f -= f.mean()
    u0 = rng.standard_normal(4)
    problem = neumann_problem(5, rel, f, u0=u0)
    sol = solve_neumann(problem)
    a = problem.A.matrix
    expected = abs(float(np.ones(5) / np.sqrt(5.0) @ (f - a.T @ u0)))
    assert sol.diagnostics["report_compat_kernel_max"] == pytest.approx(expected)


def _dirichlet_pair_with(rel, f1, f2, u0_1, u0_2, n=6, tol=1e-10):
    small, big, inclusion = grad1d_pair(n)
    p1 = Problem("dirichlet", big.matrix, rel, f1,
                 inclusion=inclusion, u0=u0_1, tol=tol)
    p2 = Problem("dirichlet", big.matrix, rel, f2,
                 inclusion=inclusion, u0=u0_2, tol=tol)
    return p1, p2, solve_dirichlet(p1), solve_dirichlet(p2)


def test_dirichlet_estimate_identical_problems():
    rel = make_linear(np.eye(5))
    u0 = np.linspace(0.0, 1.0, 6)
    f = np.array([1.0, 0.0, -1.0, 0.5])
    p1, p2, s1, s2 = _dirichlet_pair_with(rel, f, f.copy(), u0, u0.copy())
    report = verify_dirichlet_estimate(p1, p2, s1, s2)
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-9)


def test_dirichlet_estimate_linear_random_data():
    rng = np.random.default_rng(10)
    rel = make_linear(random_pd_matrix(rng, 5))
    for _ in range(10):
        f1, f2 = rng.standard_normal(4), rng.standard_normal(4)
        u0_1, u0_2 = rng.standard_normal(6), rng.standard_normal(6)
        p1, p2, s1, s2 = _dirichlet_pair_with(rel, f1, f2, u0_1, u0_2)
        report = verify_dirichlet_estimate(p1, p2, s1, s2)
        assert report.passed
        assert report.lhs <= report.rhs + 1e-9
        assert report.constants["L1"] > 1.0


def test_dirichlet_estimate_nonlinear_equal_data():
    rng = np.random.default_rng(11)
    rel = relation_family("sign", 5, rng)
    u0 = rng.standard_normal(6)
    f1, f2 = rng.standard_normal(4), rng.standard_normal(4)
    p1, p2, s1, s2 = _dirichlet_pair_with(rel, f1, f2, u0, u0.copy())
    report = verify_dirichlet_estimate(p1, p2, s1, s2)
    assert report.passed
    assert report.constants["w0_norm"] == 0.0


def test_dirichlet_estimate_capability_error():
    rng = np.random.default_rng(12)
    rel = relation_family("sign", 5, rng)
    p1, p2, s1, s2 = _dirichlet_pair_with(
        rel, np.zeros(4), np.zeros(4),
        rng.standard_normal(6), rng.standard_normal(6),
    )
    with pytest.raises(CapabilityError):
        verify_dirichlet_estimate(p1, p2, s1, s2)


def _neumann_pair_with(rel, f1, f2, u0_1, u0_2, n=6, tol=1e-10):
    small, big, inclusion = grad1d_pair(n)
    p1 = Problem("neumann", big.matrix, rel, f1,
                 inclusion=inclusion, u0=u0_1, tol=tol)
    p2 = Problem("neumann", big.matrix, rel, f2,
                 inclusion=inclusion, u0=u0_2, tol=tol)
    return p1, p2, solve_neumann(p1), solve_neumann(p2)


def test_neumann_estimate_identical_problems():
    rel = make_linear(np.eye(5))
    f = np.array([1.0, -1.0, 0.5, -0.5, 0.0, 0.3])
    f -= f.mean()
    p1, p2, s1, s2 = _neumann_pair_with(rel, f, f.copy(), None, None)
    report = verify_neumann_estimate(p1, p2, s1, s2)
    assert report.passed
    assert report.lhs == pytest.approx(0.0, abs=1e-9)


def test_neumann_estimate_f_difference():
    rng = np.random.default_rng(13)
    rel = make_linear(2.0 * np.eye(5))
    for _ in range(5):
        f1 = rng.standard_normal(6)
        f1 -= f1.mean()
        f2 = rng.standard_normal(6)
        f2 -= f2.mean()
        p1, p2, s1, s2 = _neumann_pair_with(rel, f1, f2, None, None)
        report = verify_neumann_estimate(p1, p2, s1, s2)
        assert report.passed


def test_neumann_estimate_data_difference_nonlinear():
    rng = np.random.default_rng(14)
    rel = relation_family("mixed", 5, rng)
    f = rng.standard_normal(6)
    f -= f.mean()
    u0_1 = rng.standard_normal(5)
    u0_2 = rng.standard_normal(5)
    p1, p2, s1, s2 = _neumann_pair_with(rel, f, f.copy(), u0_1, u0_2)
    report = verify_neumann_estimate(p1, p2, s1, s2)
    assert report.passed


def test_estimates_compare_distinct_operators_by_entries():
    rng = np.random.default_rng(13)
    rel = make_linear(random_pd_matrix(rng, 5))
    f1, f2 = rng.standard_normal(4), rng.standard_normal(4)
    p1, p2, s1, s2 = _dirichlet_pair_with(rel, f1, f2, rng.standard_normal(6),
                                          rng.standard_normal(6))
    assert p1.A is p2.A
    copy = dataclasses.replace(p2, A=LinearMap(p2.A.matrix.copy()))
    assert copy.A is not p1.A
    shared = verify_dirichlet_estimate(p1, p2, s1, s2)
    distinct = verify_dirichlet_estimate(p1, copy, s1, solve_dirichlet(copy))
    assert (distinct.passed, distinct.lhs, distinct.rhs, distinct.constants) \
        == (shared.passed, shared.lhs, shared.rhs, shared.constants)
    changed = p2.A.matrix.copy()
    changed[0, 0] += 1e-3
    other = dataclasses.replace(p2, A=LinearMap(changed))
    with pytest.raises(InputError, match="share the operator A"):
        verify_dirichlet_estimate(p1, other, s1, s2)


def test_lipschitz_probe_scaled_identity_is_exact():
    rng = np.random.default_rng(15)
    c = 2.0
    a = random_operator(rng, 6, 5, 3)
    rel = make_linear(c * np.eye(6))
    template = Problem("homogeneous", LinearMap(a), rel, np.zeros(5), tol=1e-12)
    probe = lipschitz_probe(template, pairs=40, rng_seed=0)
    assert probe == pytest.approx(1.0 / c, abs=1e-10)
    # per-pair exactness, solved directly
    restricted = restrict_operator(a)
    q1 = restricted.ran_adj.basis
    for _ in range(10):
        f1 = q1 @ rng.standard_normal(3)
        f2 = q1 @ rng.standard_normal(3)
        u1 = solve_homogeneous(Problem("homogeneous", LinearMap(a), rel, f1,
                                       tol=1e-12)).u
        u2 = solve_homogeneous(Problem("homogeneous", LinearMap(a), rel, f2,
                                       tol=1e-12)).u
        num = np.linalg.norm(a @ (u1 - u2))
        den = sobolev_norm(restricted, SobolevNormKind.HM1_B, f1 - f2)
        assert num / den == pytest.approx(1.0 / c, abs=1e-10)


def test_lipschitz_probe_sign_bounded_by_one():
    a = np.vstack([np.eye(3), np.zeros((1, 3))])
    rel = make_diagonal(1.0, [Sign()] * 4)
    template = Problem("homogeneous", LinearMap(a), rel, np.zeros(3), tol=1e-11)
    assert lipschitz_probe(template, pairs=60, rng_seed=1) <= 1.0 + 1e-8


def test_lipschitz_probe_symmetric_linear_reaches_extreme():
    rel = make_linear(np.diag([1.0, 4.0]))
    template = Problem("homogeneous", LinearMap(np.eye(2)), rel, np.zeros(2),
                       tol=1e-12)
    probe = lipschitz_probe(template, pairs=500, rng_seed=2)
    assert probe <= 1.0 + 1e-10
    assert probe >= 0.99


def test_zero_operator_admits_only_zero():
    rel = make_linear(np.eye(3))
    problem = Problem("homogeneous", LinearMap(np.zeros((3, 2))), rel, np.zeros(2))
    sol = solve_homogeneous(problem)
    assert np.allclose(sol.u, 0.0)
    with pytest.raises(DomainError):
        solve_homogeneous(
            Problem("homogeneous", LinearMap(np.zeros((3, 2))), rel, np.array([1.0, 0.0]))
        )


def test_custom_relation_through_pipeline():
    from elliptic_inclusions import Relation

    # base part b(x) = |x| * x on the plane, resolvent solved radially
    def base(mu, z):
        z = np.asarray(z, dtype=float)
        r = np.linalg.norm(z)
        if r == 0.0:
            return z
        lo, hi = 0.0, r
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + mu * mid * mid > r:
                hi = mid
            else:
                lo = mid
        return z * (0.5 * (lo + hi) / r)

    rel = Relation(2, 1.0, base)
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    f = np.array([0.6, -1.0])
    sol = solve_homogeneous(Problem("homogeneous", LinearMap(a), rel, f, tol=1e-11))
    s = a @ sol.u
    assert np.linalg.norm(a.T @ (s + np.linalg.norm(s) * s) - f) < 1e-8


@pytest.mark.parametrize("max_iter", [0, -5])
def test_problem_rejects_non_positive_max_iter(max_iter):
    rel = make_linear(np.eye(4))
    with pytest.raises(InputError, match="max_iter"):
        Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), rel, np.ones(3),
                max_iter=max_iter)


def test_homogeneous_relation_lives_on_the_codomain():
    # dimension 3 is the rank of A, not its codomain (4)
    with pytest.raises(InputError, match="codomain of A"):
        Problem("homogeneous", LinearMap(DIRICHLET_GRAD_3), make_linear(np.eye(3)),
                np.ones(3))


def test_problem_takes_the_built_operator_matrix_not_the_builder_result():
    built = build_operator(OperatorSpec("grad1d", (3,), 1.0, "zero"))
    relation = make_linear(np.eye(4))
    with pytest.raises(InputError, match="must be real numbers"):
        Problem(kind="homogeneous", A=built, relation=relation, f=np.ones(3))
    Problem(kind="homogeneous", A=built.matrix, relation=relation, f=np.ones(3))
