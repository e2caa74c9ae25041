"""Resolvent calculus: construction, inversion, shifting, projected inversion."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from elliptic_inclusions import (
    Clamp,
    ConstructionError,
    ConvergenceError,
    DomainError,
    Linear,
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
from helpers import RELATION_FAMILIES, random_pd_matrix, relation_family


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
