"""Reference solvers: branch enumeration, energy minimization, dense solves."""

import numpy as np
import pytest
import scipy.linalg

from elliptic_inclusions import (
    CapabilityError,
    Clamp,
    InputError,
    Linear,
    OracleFailure,
    Power,
    Relay,
    Sign,
)
from elliptic_inclusions.operators import OperatorSpec, build_operator
from elliptic_inclusions.oracle import (
    _domain,
    active_set_solve,
    convex_min_solve,
    energy_value,
    linear_direct_solve,
)
from helpers import DIRICHLET_GRAD_3, random_operator, random_pd_matrix

EPS = np.finfo(float).eps


def test_active_set_linear_graphs_reduce_to_least_squares():
    rng = np.random.default_rng(0)
    a = random_operator(rng, 4, 3, 3)
    f = rng.standard_normal(3)
    u = active_set_solve(a, 1.0, [Linear(0.0)] * 4, f)
    expected = np.linalg.pinv(a.T @ a) @ f
    assert np.allclose(u, expected, atol=1e-10)


def test_active_set_single_node_sign_zero_branch():
    a = np.array([[1.0], [-1.0]])
    # by hand: u = 0 and box multipliers absorb any |f| <= 2
    u = active_set_solve(a, 1.0, [Sign(), Sign()], np.array([0.8]))
    assert abs(u[0]) < 1e-12


def test_active_set_single_node_sign_active_branch():
    a = np.array([[1.0], [-1.0]])
    # by hand: positive branch v = (u+1, -u-1)... equilibrium 2u + 2 = f
    f = np.array([5.0])
    u = active_set_solve(a, 1.0, [Sign(), Sign()], f)
    assert u[0] == pytest.approx(1.5)


def test_active_set_shifts_match_shifted_relation_pipeline():
    from elliptic_inclusions import LinearMap, Problem, make_diagonal, solve_homogeneous

    rng = np.random.default_rng(1)
    a = np.array([[1.0], [-1.0]])
    graphs = [Sign(), Sign()]
    for _ in range(10):
        p = rng.standard_normal(2)
        q = rng.standard_normal(2)
        f = rng.standard_normal(1) * 2.0
        u_enum = active_set_solve(a, 1.0, graphs, f, input_shift=p, output_shift=q)
        rel = make_diagonal(1.0, graphs).shift(p, q)
        problem = Problem("homogeneous", LinearMap(a), rel, f, tol=1e-11)
        u_pipe = solve_homogeneous(problem).u
        assert np.linalg.norm(u_enum - u_pipe) < 1e-8


def test_active_set_rejects_power_and_large_instances():
    with pytest.raises(CapabilityError):
        active_set_solve(np.eye(2), 1.0, [Power(2.0), Sign()], np.zeros(2))
    with pytest.raises(InputError):
        active_set_solve(np.eye(13), 1.0, [Sign()] * 13, np.zeros(13))


def test_active_set_rejects_kernel_component():
    a = np.array([[-1.0, 1.0]])  # kernel holds the constants
    with pytest.raises(OracleFailure):
        active_set_solve(a, 1.0, [Sign()], np.array([1.0, 1.0]))


def test_active_set_clamp_and_relay_matches_pipeline():
    from elliptic_inclusions import LinearMap, Problem, make_diagonal, solve_homogeneous

    rng = np.random.default_rng(2)
    graphs = [Clamp(-0.5, 0.5), Relay(1.0), Sign()]
    rel = make_diagonal(1.2, graphs)
    for _ in range(5):
        a = random_operator(rng, 3, 2, 2)
        f = rng.standard_normal(2) * 0.7
        u_enum = active_set_solve(a, 1.2, graphs, f)
        problem = Problem("homogeneous", LinearMap(a), rel, f, tol=1e-11)
        u_pipe = solve_homogeneous(problem).u
        assert np.linalg.norm(u_enum - u_pipe) < 1e-8


def test_convex_min_quadratic_matches_direct_solve():
    rng = np.random.default_rng(3)
    a = random_operator(rng, 5, 4, 4)
    f = rng.standard_normal(4)
    slopes = [Linear(float(s)) for s in rng.uniform(0.0, 2.0, size=5)]
    u = convex_min_solve(a, 1.5, slopes, f)
    m = 1.5 * np.eye(5) + np.diag([g.slope for g in slopes])
    expected = np.linalg.solve(a.T @ m @ a, f)
    assert np.allclose(u, expected, atol=1e-8)


def test_convex_min_sign_cross_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(1, 4))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = random_operator(rng, rows, cols, rank)
        graphs = [Sign()] * rows
        q = np.linalg.svd(a, full_matrices=False)[2][:rank]
        f = q.T @ rng.standard_normal(rank) * 2.0
        u_enum = active_set_solve(a, 1.0, graphs, f)
        u_energy = convex_min_solve(a, 1.0, graphs, f)
        assert np.linalg.norm(u_enum - u_energy) < 1e-6
        gap = abs(energy_value(a, 1.0, graphs, f, u_enum)
                  - energy_value(a, 1.0, graphs, f, u_energy))
        assert gap < 1e-10


def test_convex_min_power_objective():
    rng = np.random.default_rng(5)
    a = random_operator(rng, 3, 3, 3)
    graphs = [Power(3.0)] * 3
    f = rng.standard_normal(3)
    u = convex_min_solve(a, 1.0, graphs, f)
    # stationarity of the smooth energy: A^T (c s + s|s|) = f at s = A u
    s = a @ u
    grad = a.T @ (s + s * np.abs(s)) - f
    assert np.linalg.norm(grad) < 1e-7


def test_convex_min_zero_rhs():
    rng = np.random.default_rng(6)
    a = random_operator(rng, 4, 3, 2)
    u = convex_min_solve(a, 1.0, [Sign()] * 4, np.zeros(3))
    assert np.allclose(u, 0.0, atol=1e-12)


def test_convex_min_rejects_non_potential_graphs():
    with pytest.raises(CapabilityError):
        convex_min_solve(np.eye(2), 1.0, [Clamp(-1.0, 1.0), Sign()], np.zeros(2))
    with pytest.raises(CapabilityError):
        convex_min_solve(np.eye(2), 1.0, [Relay(1.0), Sign()], np.zeros(2))


def test_linear_direct_poisson_and_linearity():
    f = np.ones(3)
    u = linear_direct_solve(DIRICHLET_GRAD_3, np.eye(4), f)
    # hand tridiagonal elimination of A^T A u = f
    assert np.allclose(u, [1.5, 2.0, 1.5], atol=1e-12)
    u_half = linear_direct_solve(DIRICHLET_GRAD_3, 2.0 * np.eye(4), f)
    assert np.allclose(u_half, 0.5 * u, atol=1e-12)


def test_tri_oracle_agreement():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(1, 4))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = random_operator(rng, rows, cols, rank)
        slopes = rng.uniform(0.0, 2.0, size=rows)
        graphs = [Linear(float(s)) for s in slopes]
        c = 1.1
        q = np.linalg.svd(a, full_matrices=False)[2][:rank]
        f = q.T @ rng.standard_normal(rank)
        u1 = active_set_solve(a, c, graphs, f)
        u2 = convex_min_solve(a, c, graphs, f)
        u3 = linear_direct_solve(a, c * np.eye(rows) + np.diag(slopes), f)
        assert np.linalg.norm(u1 - u2) < 1e-6
        assert np.linalg.norm(u1 - u3) < 1e-6
        assert np.linalg.norm(u2 - u3) < 1e-6


def _svd_rank(a):
    """The rank SciPy's orth (an SVD) gives ran(a^T)."""
    return scipy.linalg.orth(a.T).shape[1]


def _straddling_map(rng, rows, cols, spread):
    """Random map with sigma_max = 1 and the other singular values spread
    log-uniformly over a factor ``spread`` around the rank cutoff."""
    k = min(rows, cols)
    cutoff = max(rows, cols) * EPS
    sv = np.sort(np.concatenate(
        [[1.0], cutoff * spread ** rng.uniform(-1.0, 1.0, k - 1)]))[::-1]
    u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, k)))[0]
    return (u * sv) @ v.T


def test_domain_rank_matches_the_svd_rank_away_from_the_cutoff():
    rng = np.random.default_rng(8)
    for _ in range(300):
        rows, cols = (int(x) for x in rng.integers(1, 9, size=2))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        # exact rank, nonzero singular values at least 1e3 above the cutoff
        smin = 1e3 * max(rows, cols) * EPS
        a = random_operator(rng, rows, cols, rank, smin=smin, smax=1.0)
        q, aq = _domain(a)
        assert q.shape == (cols, rank) == (cols, _svd_rank(a))
        assert np.allclose(q.T @ q, np.eye(rank), atol=1e-12)
        assert aq.shape == (rows, rank)  # A Q read off R
        assert np.allclose(aq, a @ q, rtol=0.0, atol=1e-14)
        if rank:  # the basis spans ran(a^T): projecting the rows changes nothing
            assert np.allclose(a - (a @ q) @ q.T, 0.0, atol=1e-12)


def test_domain_rank_straddling_the_cutoff_stays_inside_the_svd_band():
    # the two rules may differ only on singular values within a small factor
    # of max(m, n) * eps * sigma_max; 4 was the widest band seen in 20,000
    # such draws, so 10 leaves room
    rng = np.random.default_rng(9)
    differ = 0
    for _ in range(400):
        rows, cols = (int(x) for x in rng.integers(2, 7, size=2))
        a = _straddling_map(rng, rows, cols, spread=1e3)
        s = np.linalg.svd(a, compute_uv=False)
        cutoff = max(rows, cols) * EPS * s[0]
        rank = _domain(a)[0].shape[1]
        assert np.sum(s > 10.0 * cutoff) <= rank <= np.sum(s > cutoff / 10.0)
        differ += rank != _svd_rank(a)
    assert differ > 0  # the band is real; the cases below pin two of them


def test_domain_rank_where_the_rules_disagree_on_a_random_map():
    # a straddling draw: sigma_3 is 0.54x the cutoff, |R_33| 1.95x, so the SVD
    # drops a direction that the oracle keeps
    a = np.array([
        [0.12700834055389779, -0.2829893509136569, -0.4777993961013553],
        [0.10464804648044622, -0.23316801572819473, -0.3936810227854646],
        [0.11113660306687392, -0.24762527427320583, -0.4180906671052428],
        [-0.10137079870984114, 0.22586592662647645, 0.3813521710042393],
    ])
    assert _svd_rank(a) == 2
    assert _domain(a)[0].shape[1] == 3
    # the kept direction makes the normal system singular to working
    # precision: the linear oracle refuses it instead of returning noise
    with pytest.raises(OracleFailure, match="ill-conditioned"):
        linear_direct_solve(a, np.eye(4), np.ones(3))


def test_domain_rank_where_the_rules_disagree_on_the_kahan_matrix():
    # Kahan's matrix (columns scaled by (1 - 1e-3)^j so pivoting keeps their
    # order) hides a singular value 300x below the cutoff from pivoted QR:
    # |R_nn| stays 1e9x above it, so the oracle keeps all n directions
    n, c = 60, 0.55
    scale = np.sqrt(1.0 - c * c) ** np.arange(n)
    kahan = scale[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))
    a = (kahan * (1.0 - 1e-3) ** np.arange(n)).T  # _domain factors a^T
    assert _svd_rank(a) == n - 1
    assert _domain(a)[0].shape[1] == n
    # the SVD rank would give the pseudo-inverse solution; with all n kept,
    # the normal system's condition number is near (300 / (n eps))^2, so the
    # linear oracle refuses it
    f = np.random.default_rng(11).standard_normal(n)
    with pytest.raises(OracleFailure, match="ill-conditioned"):
        linear_direct_solve(a, np.eye(n), f)


def test_linear_direct_on_a_rank_deficient_map_matches_pinv():
    rng = np.random.default_rng(10)
    a = build_operator(OperatorSpec("grad1d", (7,), 0.5, "free")).matrix.matrix
    m = random_pd_matrix(rng, a.shape[0])  # nonsymmetric, monotone
    for _ in range(5):
        f = rng.standard_normal(a.shape[1])
        f -= f.mean()  # admissible: orthogonal to the constants
        u = linear_direct_solve(a, m, f)
        assert abs(u.sum()) < 1e-12  # in the kernel complement
        u_ref = np.linalg.pinv(a.T @ m @ a) @ f
        assert np.allclose(u, u_ref, rtol=0.0, atol=1e-10)
        assert np.allclose(a.T @ (m @ (a @ u)), f, atol=1e-10)


def test_linear_direct_on_the_zero_map_returns_zeros():
    u = linear_direct_solve(np.zeros((3, 4)), np.eye(3), np.ones(4))
    assert np.array_equal(u, np.zeros(4))
