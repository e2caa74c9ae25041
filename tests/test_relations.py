"""Resolvent calculus: construction, inversion, shifting, projected inversion."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from elliptic_inclusions import (
    Clamp,
    ConstructionError,
    ConvergenceError,
    DomainError,
    InputError,
    Linear,
    LinearMap,
    Power,
    Relation,
    Relay,
    Sign,
    Subspace,
    make_diagonal,
    make_linear,
    monotonicity_probe,
    projected_inverse,
)
from elliptic_inclusions.oracle import _prox
from elliptic_inclusions.relations import graph_base_resolvent
from helpers import (
    RELATION_FAMILIES,
    random_banded_matrix,
    random_pd_matrix,
    relation_family,
)


def test_make_linear_scaled_identity():
    rel = make_linear(2.0 * np.eye(2))
    assert rel.c == pytest.approx(2.0)
    z = np.array([3.0, -1.0])
    # base part is zero, so the base resolvent is the identity
    assert np.allclose(rel.base_resolvent(0.7, z), z)
    assert np.allclose(rel.resolvent(1.0, z), z / 3.0)


def test_make_linear_nonsymmetric_constant():
    m = np.array([[2.0, 1.0], [0.0, 2.0]])
    rel = make_linear(m)
    # symmetric-part eigenvalue oracle
    expected = scipy.linalg.eigh(0.5 * (m + m.T), eigvals_only=True)[0]
    assert rel.c == pytest.approx(expected)
    assert rel.c == pytest.approx(1.5)


def test_make_linear_identity_inverse():
    rel = make_linear(np.eye(3))
    y = np.array([0.5, -2.0, 1.0])
    assert np.allclose(rel.inverse(y), y)
    doubled = make_linear(2.0 * np.eye(2))
    assert np.allclose(doubled.inverse(np.array([4.0, 6.0])), [2.0, 3.0])


def test_make_linear_rejects_indefinite():
    with pytest.raises(ConstructionError):
        make_linear(np.array([[1.0, 0.0], [0.0, -0.5]]))
    with pytest.raises(ConstructionError):
        make_linear(np.ones((2, 3)))


def _random_sparse_pd(rng, dim, density):
    """Random sparse nonsymmetric matrix, its symmetric part made diagonally
    dominant by a margin in [0.1, 1]."""
    m = scipy.sparse.random_array((dim, dim), density=density, rng=rng,
                                  data_sampler=rng.standard_normal).toarray()
    sym = 0.5 * (m + m.T)
    dominance = np.sum(np.abs(sym), axis=1) - 2.0 * np.abs(np.diag(sym))
    return m + np.diag(dominance + rng.uniform(0.1, 1.0, dim))


def _dense_reference_cases():
    rng = np.random.default_rng(60)
    cases = [pytest.param(random_pd_matrix(rng, dim), id=f"pd{dim}")
             for dim in range(1, 61)]
    cases += [pytest.param(random_banded_matrix(rng, dim).toarray(), id=f"banded{dim}")
              for dim in (1, 2, 3, 17, 120)]
    cases += [pytest.param(_random_sparse_pd(rng, dim, density),
                           id=f"sparse{dim}-{density}")
              for dim in (2, 9, 40, 150) for density in (0.02, 0.1, 0.4)]
    return cases


@pytest.mark.parametrize("m", _dense_reference_cases())
def test_make_linear_matches_dense_reference(m):
    rng = np.random.default_rng(61)
    dim = m.shape[0]
    rel = make_linear(scipy.sparse.csr_array(m))
    c_ref = scipy.linalg.eigh(0.5 * (m + m.T), eigvals_only=True)[0]
    assert abs(rel.c - c_ref) <= 1e-12 * abs(c_ref)
    ys = 3.0 * rng.standard_normal((dim, 4))
    x_ref = np.linalg.solve(m, ys)
    assert np.linalg.norm(rel.inverse(ys) - x_ref) <= 1e-13 * np.linalg.norm(x_ref)
    for lam in (0.1, 1.0, 10.0):
        z = ys[:, 0]
        s_ref = np.linalg.solve(np.eye(dim) + lam * m, z)
        assert np.linalg.norm(rel.resolvent(lam, z) - s_ref) \
            <= 1e-13 * np.linalg.norm(s_ref)


@pytest.mark.parametrize("dim", [1, 2, 30])
def test_make_linear_input_format_does_not_change_bits(dim):
    rng = np.random.default_rng(62)
    m = random_banded_matrix(rng, dim)
    builds = [make_linear(m), make_linear(m.toarray()), make_linear(m.tocoo()),
              make_linear(LinearMap(m)), make_linear(m)]
    ys = 3.0 * rng.standard_normal((dim, 3))
    first = builds[0]
    for rel in builds[1:]:
        assert rel.c == first.c
        assert np.array_equal(rel.inverse(ys), first.inverse(ys))
        assert np.array_equal(rel.resolvent(0.3, ys[:, 0]), first.resolvent(0.3, ys[:, 0]))
    assert isinstance(first.descriptor.matrix, LinearMap)
    assert np.array_equal(first.descriptor.matrix.matrix, m.toarray())


@pytest.mark.parametrize("m", [
    np.diag([2.0, 1.0, -0.5]),
    np.diag([1.0, 0.0]),  # Gershgorin bound exact and zero
    np.diag([3.0, 1e-12, 2.0]),
    np.zeros((3, 3)),
    np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 2.0], [0.0, 2.0, 1.0]]),
    np.diag(np.r_[np.full(40, 2.0), -1e-3]) + np.diag(np.ones(40), 1),
], ids=["diag", "diag_zero", "diag_tiny", "zero", "tridiag", "dim41"])
def test_make_linear_rejects_indefinite_dense_and_sparse(m):
    for matrix in (m, scipy.sparse.csc_array(m)):
        with pytest.raises(ConstructionError, match="positive definite"):
            make_linear(matrix)


def test_make_linear_rejects_overflowing_symmetric_part():
    with pytest.raises(ConstructionError, match="overflows"):
        make_linear(np.full((2, 2), 1e308))
    with pytest.raises(ConstructionError, match="overflows"):
        make_linear(scipy.sparse.csc_array(np.full((3, 3), 1e308)))


def test_diagonal_sign_soft_threshold():
    rel = make_diagonal(1.0, [Sign()] * 3)
    z = np.array([2.0, 0.3, -1.5])
    mu = 0.5
    expected = np.array([1.5, 0.0, -1.0])
    assert np.allclose(rel.base_resolvent(mu, z), expected)


def test_diagonal_linear_graphs():
    rel = make_diagonal(2.0, [Linear(3.0)] * 2)
    z = np.array([4.0, -8.0])
    assert np.allclose(rel.base_resolvent(1.0, z), z / 4.0)


def test_diagonal_power_cube():
    rel = make_diagonal(1.0, [Power(3.0)])
    # s + 1*s*|s| = 2 has the root s = 1
    assert rel.base_resolvent(1.0, np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-12)


POWER_STEPS = (1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6)
POWER_INPUTS = np.array(
    [0.0, -0.0, 1e-12, -3e-9, 2.5e-5, -0.7, 1.0, -2.0, 13.0, -450.0, 8e4, -3e7]
)


@pytest.mark.parametrize("mu", POWER_STEPS)
def test_power_resolvent_matches_closed_forms(mu):
    z = POWER_INPUTS
    quadratic = graph_base_resolvent(Power(2.0), mu, z)
    np.testing.assert_allclose(quadratic, z / (1.0 + mu), rtol=1e-13, atol=1e-14)
    # p = 3: s + mu*s*|s| = z has |s| = (sqrt(1 + 4 mu |z|) - 1) / (2 mu),
    # written here as 2|z| / (1 + sqrt(1 + 4 mu |z|)) to avoid cancellation
    t = np.abs(z)
    cube = np.sign(z) * 2.0 * t / (1.0 + np.sqrt(1.0 + 4.0 * mu * t))
    got = graph_base_resolvent(Power(3.0), mu, z)
    np.testing.assert_allclose(got, cube, rtol=1e-13, atol=1e-14)
    assert np.array_equal(np.signbit(got), np.signbit(z))


@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 4.0, 7.0])
@pytest.mark.parametrize("mu", POWER_STEPS)
def test_power_resolvent_matches_oracle_bisection(p, mu):
    z = POWER_INPUTS
    got = graph_base_resolvent(Power(p), mu, z)
    np.testing.assert_allclose(got, _prox(Power(p), mu, z), rtol=1e-12, atol=1e-14)


def test_power_resolvent_returns_float_for_scalar_input():
    value = graph_base_resolvent(Power(3.0), 1.0, 2.0)
    assert type(value) is float
    assert value == pytest.approx(1.0, abs=1e-14)
    assert graph_base_resolvent(Power(3.0), 1.0, -0.0) == 0.0


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("z", [1e300, -1e300, 1e200, 1e10])
def test_power_resolvent_huge_inputs(p, z):
    # the bracket [0, min(|z|, |z|^(1/(p-1)))] keeps s^(p-1) finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = graph_base_resolvent(Power(p), 1.0, np.array([z]))[0]
        x = make_diagonal(1.0, [Power(p)]).inverse(np.array([z]))[0]
    for root in (s, x):
        residual = root + np.abs(root) ** (p - 2.0) * root - z
        assert np.isfinite(root)
        assert abs(residual) <= 1e-12 * abs(z)


@pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 3.0, 4.0, 7.0])
@pytest.mark.parametrize("mu", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_power_resolvent_relative_residual_from_tiny_to_large(p, mu):
    # both stops are relative, so a root near 1e-14 is not left at its start
    t = np.logspace(-30, 8, 153)
    z = np.concatenate([t, -t])
    s = graph_base_resolvent(Power(p), mu, z)
    residual = s + mu * np.abs(s) ** (p - 2.0) * s - z
    assert np.max(np.abs(residual) / np.abs(z)) <= 1e-12


def test_power_rejects_bad_exponent():
    with pytest.raises(ConstructionError):
        Power(1.0)
    with pytest.raises(ConstructionError):
        make_diagonal(1.0, [Power(0.5)])


def test_clamp_and_relay_resolvents():
    rel = make_diagonal(1.0, [Clamp(-1.0, 2.0), Relay(3.0)])
    mu = 0.5
    # clamp: three closed-form regimes
    assert rel.base_resolvent(mu, np.array([-3.0, 0.0]))[0] == pytest.approx(-2.5)
    assert rel.base_resolvent(mu, np.array([0.6, 0.0]))[0] == pytest.approx(0.4)
    assert rel.base_resolvent(mu, np.array([4.0, 0.0]))[0] == pytest.approx(3.0)
    # relay: negative passthrough, dead zone [0, mu*h], shift above
    assert rel.base_resolvent(mu, np.array([0.0, -2.0]))[1] == pytest.approx(-2.0)
    assert rel.base_resolvent(mu, np.array([0.0, 1.0]))[1] == pytest.approx(0.0)
    assert rel.base_resolvent(mu, np.array([0.0, 2.0]))[1] == pytest.approx(0.5)


def test_resolvent_scaled_identity():
    rel = make_linear(np.eye(2))
    assert np.allclose(rel.resolvent(1.0, np.array([2.0, 4.0])), [1.0, 2.0])


def test_resolvent_sign_branch():
    rel = make_diagonal(1.0, [Sign()])
    # piecewise oracle: 2s + sgn(s) must contain 3, positive branch gives s = 1
    assert rel.resolvent(1.0, np.array([3.0]))[0] == pytest.approx(1.0)


def test_resolvent_fixed_point_identity():
    rng = np.random.default_rng(2)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 4, rng)
        for _ in range(10):
            y = rng.standard_normal(4) * 2.0
            x = rel.inverse(y)
            for lam in (0.37, 1.0, 5.0):
                assert np.allclose(rel.resolvent(lam, x + lam * y), x, atol=1e-9)


def test_inverse_sign_active_branch():
    rel = make_diagonal(1.0, [Sign()])
    # scalar oracle: x + sgn(x) = 3 on the positive branch gives x = 2
    assert rel.inverse(np.array([3.0]))[0] == pytest.approx(2.0)


def test_inverse_lipschitz_bound_sampled():
    rng = np.random.default_rng(4)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 5, rng)
        bound = 1.0 / rel.c
        for _ in range(200):
            y1 = rng.standard_normal(5) * 3.0
            y2 = rng.standard_normal(5) * 3.0
            gap = np.linalg.norm(rel.inverse(y1) - rel.inverse(y2))
            assert gap <= bound * np.linalg.norm(y1 - y2) + 1e-10


def test_inverse_lipschitz_sharp_for_symmetric_linear():
    rng = np.random.default_rng(6)
    m = random_pd_matrix(rng, 3, symmetric=True)
    rel = make_linear(m)
    lam_min = scipy.linalg.eigh(m, eigvals_only=True)[0]
    best = 0.0
    for _ in range(500):
        y1 = rng.standard_normal(3)
        y2 = rng.standard_normal(3)
        ratio = np.linalg.norm(rel.inverse(y1) - rel.inverse(y2)) \
            / np.linalg.norm(y1 - y2)
        best = max(best, ratio)
    assert best <= 1.0 / lam_min + 1e-12
    assert best >= 0.95 / lam_min


def test_resolvent_nonexpansive_all_families():
    rng = np.random.default_rng(8)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 4, rng)
        for lam in (0.1, 1.0, 10.0):
            for _ in range(200):
                z1 = rng.standard_normal(4) * 2.0
                z2 = rng.standard_normal(4) * 2.0
                gap = np.linalg.norm(rel.resolvent(lam, z1) - rel.resolvent(lam, z2))
                assert gap <= np.linalg.norm(z1 - z2) + 1e-12


def test_custom_relation_validation_catches_expansive_base():
    def bad_base(mu, z):
        return 2.0 * np.asarray(z)

    with pytest.raises(ConstructionError):
        Relation(2, 1.0, bad_base)


def test_shift_by_zero_is_identity():
    rng = np.random.default_rng(10)
    rel = relation_family("mixed", 4, rng)
    shifted = rel.shift(np.zeros(4), np.zeros(4))
    for _ in range(10):
        z = rng.standard_normal(4)
        for mu in (0.2, 1.0):
            assert np.allclose(shifted.base_resolvent(mu, z),
                               rel.base_resolvent(mu, z), atol=1e-12)


def test_shift_linear_example():
    rel = make_linear(np.eye(2))
    shifted = rel.shift(np.array([1.0, 0.0]), np.array([3.0, 0.0]))
    # (x, y) belongs to the shifted relation iff (x+p, y+q) belongs to the
    # identity, so y = 0 forces x = q - p = (2, 0)
    assert np.allclose(shifted.inverse(np.zeros(2)), [2.0, 0.0])


def test_shift_preserves_lipschitz_constant():
    rng = np.random.default_rng(12)
    rel = relation_family("linear", 3, rng)
    shifted = rel.shift(rng.standard_normal(3), rng.standard_normal(3))
    assert shifted.c == rel.c
    for _ in range(100):
        y1 = rng.standard_normal(3) * 2.0
        y2 = rng.standard_normal(3) * 2.0
        gap_plain = np.linalg.norm(rel.inverse(y1) - rel.inverse(y2))
        gap_shift = np.linalg.norm(shifted.inverse(y1) - shifted.inverse(y2))
        bound = np.linalg.norm(y1 - y2) / rel.c + 1e-10
        assert gap_plain <= bound and gap_shift <= bound


def test_shift_residual_consistency():
    rng = np.random.default_rng(14)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 3, rng)
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        shifted = rel.shift(p, q)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            assert shifted.graph_residual(x - p, y - q) == pytest.approx(
                rel.graph_residual(x, y), abs=1e-12
            )


def test_graph_residual_basic_cases():
    rel = make_linear(np.eye(1))
    assert rel.graph_residual(np.array([1.0]), np.array([1.0])) == pytest.approx(0.0)
    # closed form: J_1(identity)(1) = 0.5, so the residual of (0, 1) is 0.5
    assert rel.graph_residual(np.array([0.0]), np.array([1.0])) == pytest.approx(0.5)


def test_graph_residual_zero_on_inverse_pairs():
    rng = np.random.default_rng(16)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 4, rng)
        for _ in range(10):
            y = rng.standard_normal(4) * 2.0
            x = rel.inverse(y)
            assert rel.graph_residual(x, y) < 1e-12


def test_projected_inverse_whole_space_collapses_to_inverse():
    rng = np.random.default_rng(18)
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 4, rng)
        w = rng.standard_normal(4)
        point = projected_inverse(rel, Subspace.full(4), w, tol=1e-12)
        assert np.allclose(point.x, rel.inverse(w), atol=1e-10)
        assert np.allclose(point.y, w, atol=1e-10)


def test_projected_inverse_diagonal_line():
    rel = make_diagonal(1.0, [Sign(), Sign()])
    line = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    w = np.array([2.0, 2.0])
    point = projected_inverse(rel, line, w)
    # enumeration oracle: x = t(1,1), v_i = t + sigma, sigma in sgn(t),
    # projection of v onto the line equals w forces t + sigma = 2, so t = 1
    assert np.allclose(point.x, [1.0, 1.0], atol=1e-9)
    assert point.residual <= 1e-9
    assert np.linalg.norm(line.project(point.y) - w) <= 1e-9


def test_projected_inverse_zero_data():
    rel = make_diagonal(1.0, [Sign()] * 3)
    sub = Subspace(3, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    point = projected_inverse(rel, sub, np.zeros(3))
    assert np.allclose(point.x, 0.0, atol=1e-10)


def test_projected_inverse_monotone_output_pairs():
    rng = np.random.default_rng(20)
    tol = 1e-10
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 5, rng)
        basis = scipy.linalg.orth(rng.standard_normal((5, 2)))
        sub = Subspace(5, basis)
        points = []
        for _ in range(6):
            w = sub.project(rng.standard_normal(5))
            points.append((projected_inverse(rel, sub, w, tol=tol).x, w))
        for i in range(len(points)):
            for j in range(i):
                dx = points[i][0] - points[j][0]
                dw = points[i][1] - points[j][1]
                assert dx @ dw >= rel.c * (dx @ dx) - 10.0 * tol


def test_projected_inverse_errors():
    rel = make_diagonal(1.0, [Sign()] * 2)
    sub = Subspace(2, np.array([[1.0], [0.0]]))
    with pytest.raises(DomainError):
        projected_inverse(rel, sub, np.array([1.0, 1.0]))
    with pytest.raises(ConvergenceError) as info:
        projected_inverse(rel, sub, np.array([5.0, 0.0]), max_iter=1, tol=1e-14)
    assert info.value.residual is not None


def test_projected_inverse_stops_at_first_non_finite_gap():
    rel = Relation(3, 1.0, lambda mu, z: np.full(3, np.nan), validate=False)
    sub = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(ConvergenceError) as info:
        projected_inverse(rel, sub, np.array([1.0, 0.0, 0.0]))
    assert info.value.iterations <= 2
    assert np.isnan(info.value.residual)


def _sign_line_problem(seed):
    rng = np.random.default_rng(seed)
    sub = Subspace(6, np.linalg.qr(rng.standard_normal((6, 2)))[0])
    return sub, sub.project(3.0 * rng.standard_normal(6))


def test_projected_inverse_repeats_bitwise_and_warm_starts_from_its_state():
    rel = make_diagonal(1.0, [Sign()] * 6)
    sub, w = _sign_line_problem(3)
    point = projected_inverse(rel, sub, w)
    again = projected_inverse(rel, sub, w)
    assert point.x.tobytes() == again.x.tobytes()
    assert (point.iterations, point.accepted, point.rejected) == \
        (again.iterations, again.accepted, again.rejected)
    assert point.accepted > 0
    assert point.accepted + point.rejected < point.iterations
    warm = projected_inverse(rel, sub, w, s0=point.dr_state)
    assert warm.iterations == 1
    assert np.allclose(warm.x, point.x, atol=1e-10)


def test_projected_inverse_drops_an_extrapolated_point_that_breaks_down():
    sub, w = _sign_line_problem(6)
    reference = projected_inverse(make_diagonal(1.0, [Sign()] * 6), sub, w)
    calls = []

    def base(mu, z):  # the third evaluation is the first extrapolated point
        calls.append(None)
        out = graph_base_resolvent(Sign(), mu, z)
        return np.full_like(out, np.nan) if len(calls) == 3 else out

    point = projected_inverse(Relation(6, 1.0, base, validate=False), sub, w)
    assert point.rejected == 1
    assert point.residual <= 1e-9
    assert np.allclose(point.x, reference.x, atol=1e-9)


def test_monotonicity_probe_scaled_identity():
    rel = make_linear(2.5 * np.eye(3))
    report = monotonicity_probe(rel, trials=50, rng_seed=0)
    assert report.passed
    assert report.min_quotient == pytest.approx(2.5, abs=1e-9)


def test_monotonicity_probe_sign():
    rel = make_diagonal(1.0, [Sign()] * 3)
    report = monotonicity_probe(rel, trials=200, rng_seed=1)
    assert report.passed
    assert report.min_quotient >= 1.0 - 1e-9


def test_monotonicity_probe_linear_pd_reaches_smallest_eigenvalue():
    rng = np.random.default_rng(22)
    m = random_pd_matrix(rng, 3, symmetric=True)
    lam_min = scipy.linalg.eigh(m, eigvals_only=True)[0]
    rel = make_linear(m)
    report = monotonicity_probe(rel, trials=2000, rng_seed=2)
    assert report.passed
    assert report.min_quotient >= lam_min - 1e-9
    assert report.min_quotient <= lam_min * 1.2


def test_monotonicity_probe_skip_rule_is_relative():
    # |x| ~ 3 / c: an absolute cut-off on |x1 - x2|^2 would skip every pair
    c = 2.0**70
    report = monotonicity_probe(make_diagonal(c, [Sign()] * 4), trials=50)
    assert report.passed
    assert c * (1.0 - 1e-9) <= report.min_quotient < np.inf


def test_monotonicity_probe_slack_is_relative_for_tiny_values():
    # x = 2y/c is only c/2-monotone; its pairs are far below an absolute 1e-9
    c = 2.0**70
    weak = Relation(3, c, lambda mu, z: 2 * z, validate=False, columnwise=True)
    report = monotonicity_probe(weak, trials=200)
    assert (report.passed, report.violations) == (False, 200)
    assert report.min_quotient == pytest.approx(c / 2)


def test_monotonicity_probe_that_keeps_no_pair_does_not_pass():
    # a(0) is everything: every sampled y inverts to x = 0, so no pair is kept
    flat = Relation(3, 1.0, lambda mu, z: np.zeros_like(z), columnwise=True)
    report = monotonicity_probe(flat, trials=20)
    assert (report.passed, report.min_quotient, report.violations) == (False, None, 0)


@pytest.mark.parametrize("c", [np.inf, np.nan, 0.0])
def test_monotonicity_constant_must_be_positive_and_finite(c):
    with pytest.raises(ConstructionError, match="positive and finite"):
        make_diagonal(c, [Sign()])
    with pytest.raises(ConstructionError, match="positive and finite"):
        Relation(1, c, lambda mu, z: z)


def _column_by_column(relation, ys):
    return np.column_stack([relation.inverse(ys[:, j]) for j in range(ys.shape[1])])


def _piecewise_relations(dim):
    graphs = [Linear(2.0), Sign(), Clamp(-0.5, 1.5), Relay(0.7)]
    mixed = make_diagonal(0.8, [graphs[i % 4] for i in range(dim)])
    return [make_diagonal(0.8, [g] * dim) for g in graphs] + [mixed]


@pytest.mark.parametrize("k", [1, 5, 6])
def test_block_inverse_is_bitwise_column_by_column_for_piecewise_graphs(k):
    rng = np.random.default_rng(40)
    dim = 6
    ys = 3.0 * rng.standard_normal((dim, k))
    for rel in _piecewise_relations(dim):
        assert np.array_equal(rel.inverse(ys), _column_by_column(rel, ys))
        # a shift acts on every column the same way, also when k == dim
        p, q = rng.standard_normal(dim), rng.standard_normal(dim)
        shifted = rel.shift(p, q)
        assert np.array_equal(shifted.inverse(ys), _column_by_column(shifted, ys))


@pytest.mark.parametrize("k", [1, 7, 9])
def test_block_inverse_matches_columns_for_power_and_linear(k):
    rng = np.random.default_rng(41)
    dim = 9
    ys = 3.0 * rng.standard_normal((dim, k))
    relations = [
        make_diagonal(0.7, [Power(3.0)] * dim),
        make_diagonal(1.2, [Power(1.5), Power(4.0), Sign()] * 3),
        make_linear(random_pd_matrix(rng, dim)),
    ]
    for rel in relations:
        for r in (rel, rel.shift(rng.standard_normal(dim), rng.standard_normal(dim))):
            block, columns = r.inverse(ys), _column_by_column(r, ys)
            assert block.shape == (dim, k)
            assert np.max(np.abs(block - columns)) <= 1e-14 * np.max(np.abs(columns))


def test_shifted_block_moves_each_column_by_p():
    # k == dim: a p added along the wrong axis would still broadcast
    rel = make_linear(np.eye(3)).shift(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    ys = np.zeros((3, 3))
    assert np.array_equal(rel.inverse(ys), np.tile([[-1.0], [-2.0], [-3.0]], (1, 3)))


@pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 2, 1), ()])
def test_inverse_rejects_other_shapes(shape):
    rel = make_diagonal(1.0, [Sign()] * 3)
    with pytest.raises(InputError, match=r"expected \(3,\) or \(3, k\)"):
        rel.inverse(np.zeros(shape))


def _per_sample_probe(relation, trials, rng_seed):
    """The probe as one inverse call per sampled vector: the reference."""
    rng = np.random.default_rng(rng_seed)
    min_quotient = np.inf
    violations = 0
    for _ in range(trials):
        y1 = 3.0 * rng.standard_normal(relation.dim)
        y2 = 3.0 * rng.standard_normal(relation.dim)
        x1 = relation.inverse(y1)
        x2 = relation.inverse(y2)
        dx = x1 - x2
        nsq = float(dx @ dx)
        if nsq < 1e-24:
            continue
        inner = float(dx @ (y1 - y2))
        min_quotient = min(min_quotient, inner / nsq)
        if inner < relation.c * nsq - 1e-9:
            violations += 1
    return violations == 0, min_quotient, violations, trials


def _overclaimed_linear():
    # slopes -0.5 make some sampled pairs fall short of c = 1
    slopes = np.array([-0.5, 1.0, 2.0])

    def base(mu, z):
        z = np.asarray(z)
        return z / (1.0 + mu * slopes.reshape((-1,) + (1,) * (z.ndim - 1)))

    return Relation(3, 1.0, base, validate=False, columnwise=True)


def _radial_relation():
    # b(x) = |x| x on the plane; the resolvent scales z by a root found on |z|,
    # so it is written for one vector and would mix the columns of a block
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

    return Relation(2, 1.0, base)


def _probe_relations():
    rng = np.random.default_rng(42)
    mixed = make_diagonal(0.6, [Sign(), Power(1.5), Clamp(-1.0, 1.0), Relay(0.5)] * 6)
    return {
        "power84": make_diagonal(1.0, [Power(3.0)] * 84),
        "mixed24": mixed,
        "shifted24": mixed.shift(rng.standard_normal(24), rng.standard_normal(24)),
        "linear30": make_linear(random_pd_matrix(rng, 30)),
        "sign_zero_pairs": make_diagonal(1.0, [Sign()]),
        "overclaimed": _overclaimed_linear(),
        "radial": _radial_relation(),
    }


PROBE_RELATIONS = _probe_relations()


@pytest.mark.parametrize("trials", [1, 7, 200, 2000])
@pytest.mark.parametrize("name", sorted(PROBE_RELATIONS))
def test_monotonicity_probe_matches_per_sample_loop(name, trials):
    rel = PROBE_RELATIONS[name]
    passed, min_quotient, violations, count = _per_sample_probe(rel, trials, 3)
    report = monotonicity_probe(rel, trials=trials, rng_seed=3)
    assert (report.passed, report.violations, report.trials) == \
        (passed, violations, count)
    if np.isinf(min_quotient):
        assert report.min_quotient == min_quotient
    else:
        assert report.min_quotient == pytest.approx(min_quotient, rel=1e-12, abs=0.0)


def test_block_inverse_passes_vectors_to_a_base_that_is_not_columnwise():
    radial = _radial_relation()
    calls = []

    def spy(mu, z):
        calls.append(np.shape(z))
        return radial.base_resolvent(mu, z)

    ys = 3.0 * np.random.default_rng(43).standard_normal((2, 5))
    for rel in (Relation(2, 1.0, spy), Relation(2, 1.0, spy).shift(np.ones(2), np.ones(2))):
        calls.clear()
        block = rel.inverse(ys)
        assert calls == [(2,)] * 5
        assert np.array_equal(block, _column_by_column(rel, ys))
    assert not radial.columnwise
    assert not radial.shift(np.ones(2), np.ones(2)).columnwise
    assert make_diagonal(1.0, [Sign()] * 2).shift(np.ones(2), np.ones(2)).columnwise


def test_monotonicity_probe_counts_violations():
    report = monotonicity_probe(PROBE_RELATIONS["overclaimed"], trials=200)
    assert not report.passed
    assert 0 < report.violations < 200


def test_monotonicity_probe_rejects_non_finite_inverse():
    rel = Relation(3, 1.0, lambda mu, z: np.full(np.shape(z), np.nan), validate=False)
    with pytest.raises(ConstructionError, match="not finite"):
        monotonicity_probe(rel)


def test_monotonicity_probe_memory_stays_bounded():
    rel = make_diagonal(1.0, [Power(3.0)] * 84)
    monotonicity_probe(rel, 200)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        monotonicity_probe(rel, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_concurrent_resolvent_evaluation_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(24)
    relations = [
        make_linear(random_pd_matrix(rng, 4)),
        make_diagonal(1.0, [Sign(), Linear(2.0), Clamp(-1.0, 1.0), Relay(0.5)]),
        make_diagonal(1.0, [Power(3.0), Power(1.5), Sign(), Linear(2.0)]),
    ]
    inputs = [rng.standard_normal(4) for _ in range(40)]
    for rel in relations:
        expected = [rel.resolvent(0.7, z) for z in inputs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda z: rel.resolvent(0.7, z), inputs))
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
