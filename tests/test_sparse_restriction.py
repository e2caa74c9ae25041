"""The normal-equation restriction (one sparse LU of A^T A) against the SVD one.

Small maps stay below the size gate, so the agreement tests lower
``hilbert_core._NORMAL_MIN_ENTRIES`` to build the sparse factors directly,
and compare them with the SVD factors of an equal, separately cached map.
"""

import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from elliptic_inclusions import (
    InputError,
    LinearMap,
    NormalRestriction,
    OperatorSpec,
    Power,
    Problem,
    RestrictedOperator,
    Sign,
    SobolevNormKind,
    Subspace,
    b_inverse,
    b_star_inverse,
    build_operator,
    embedding_constant,
    lipschitz_probe,
    make_diagonal,
    make_linear,
    operator_pair,
    restrict_operator,
    sobolev_norm,
    solve,
)
from elliptic_inclusions import cli, hilbert_core, solver
from elliptic_inclusions.cli import main
from helpers import random_operator

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def no_size_gate(monkeypatch):
    monkeypatch.setattr(hilbert_core, "_NORMAL_MIN_ENTRIES", 0)


def zero_boundary(family, shape):
    spec = OperatorSpec(family, shape, 1.0 / (shape[0] + 1), "zero")
    return build_operator(spec).matrix.matrix


def sparse_injective(rng, rows, cols):
    """Random sparse tall map with full column rank: a sparse block over a
    diagonal block that dominates it."""
    top = scipy.sparse.random_array((cols, cols), density=0.2, rng=rng)
    bottom = scipy.sparse.random_array((rows - cols, cols), density=0.2, rng=rng)
    return scipy.sparse.vstack([top + 3.0 * scipy.sparse.eye_array(cols), bottom])


def ill_conditioned(rng):
    """Injective 12x6 map with singular values 1 (five times) and 1e-3: the
    SVD rule finds full rank, and cond(A^T A) = 1e6 fails the gate."""
    q, _ = np.linalg.qr(rng.standard_normal((12, 6)))
    return q * np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1e-3])


def both_paths(entries):
    """(SVD restriction, sparse restriction) of two equal maps."""
    dense = restrict_operator(LinearMap(entries))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert_core, "_NORMAL_MIN_ENTRIES", 0)
        sparse = restrict_operator(LinearMap(entries))
    assert isinstance(dense, RestrictedOperator)
    assert isinstance(sparse, NormalRestriction)
    return dense, sparse


def assert_close(x, y, rel=1e-12):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    assert np.linalg.norm(x - y) <= rel * np.linalg.norm(y), \
        np.linalg.norm(x - y) / np.linalg.norm(y)


MAPS = {
    "grad2d": lambda rng: zero_boundary("grad2d", (5, 4)),
    "symgrad2d": lambda rng: zero_boundary("symgrad2d", (4, 4)),
    "custom": lambda rng: sparse_injective(rng, 30, 12),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_sparse_factors_agree_with_the_svd(name):
    rng = np.random.default_rng(11)
    entries = MAPS[name](rng)
    dense, sparse = both_paths(entries)
    a = dense.full_map.matrix
    rows, cols = a.shape
    assert sparse.rank == dense.rank == cols
    assert sparse.ker.dim == 0 and sparse.ran_adj.dim == cols
    for _ in range(3):
        f = rng.standard_normal(cols)
        y = rng.standard_normal(rows)
        assert_close(b_star_inverse(sparse, f), b_star_inverse(dense, f))
        assert_close(b_inverse(sparse, a @ f), b_inverse(dense, a @ f))
        assert_close(sparse.ran.project(y), dense.ran.project(y))
        assert abs(sparse.ran.membership_residual(y)
                   - dense.ran.membership_residual(y)) <= 1e-12 * np.linalg.norm(y)
        assert_close(sobolev_norm(sparse, SobolevNormKind.HM1_B, f),
                     sobolev_norm(dense, SobolevNormKind.HM1_B, f))
    cmap = np.vstack([a, rng.standard_normal((3, cols))])
    assert_close(embedding_constant(sparse, cmap), embedding_constant(dense, cmap))


@pytest.mark.parametrize("graph", [Sign(), Power(3.0)])
@pytest.mark.parametrize("name", sorted(MAPS))
def test_homogeneous_solves_agree(name, graph):
    rng = np.random.default_rng(12)
    entries = MAPS[name](rng)
    dense, sparse = both_paths(entries)
    rows, cols = dense.full_map.shape
    relation = make_diagonal(1.0, [graph] * rows)
    # large enough that the sign relation leaves its zero set
    f = 5.0 * np.abs(dense.full_map.matrix).max() * rng.standard_normal(cols)
    assert f @ f > 0.0
    sols = [solve(Problem("homogeneous", r.full_map, relation, f, tol=1e-12))
            for r in (dense, sparse)]
    assert_close(sols[1].u, sols[0].u)
    assert_close(sols[1].w, sols[0].w)
    assert sols[1].diagnostics["n_iterations"] == sols[0].diagnostics["n_iterations"]
    for key, value in sols[1].diagnostics.items():
        if key.startswith("residual_"):
            assert value <= 10.0 * 1e-12, key


def test_dirichlet_solve_agrees(no_size_gate):
    rng = np.random.default_rng(14)
    for family in ("symgrad2d", "grad2d"):
        small, big, inclusion = operator_pair(OperatorSpec(family, (5, 5), 0.25))
        dim = big.matrix.rows
        relation = make_linear(np.diag(rng.uniform(1.0, 2.0, dim))
                               + 0.3 * np.diag(rng.uniform(-1, 1, dim - 1), 1))
        f = rng.standard_normal(small.matrix.cols)
        u0 = rng.standard_normal(big.matrix.cols)

        def run():
            problem = Problem("dirichlet", LinearMap(big.matrix.matrix), relation,
                              f, inclusion=inclusion, u0=u0, tol=1e-12)
            restricted = restrict_operator(problem.effective)
            return (solve(problem), type(restricted),
                    embedding_constant(restricted, problem.effective))

        sparse, kind, l1_sparse = run()
        assert kind is NormalRestriction, family
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hilbert_core, "_NORMAL_MIN_ENTRIES", 10**12)
            dense, kind, l1_dense = run()
        assert kind is RestrictedOperator, family
        assert_close(sparse.u, dense.u)
        assert_close(sparse.certificate.x, dense.certificate.x)
        assert_close(sparse.certificate.y, dense.certificate.y)
        assert abs(l1_sparse - l1_dense) <= 1e-12 * l1_dense, family


@pytest.mark.parametrize("name", sorted(MAPS))
def test_embedding_constant_is_read_off_the_restriction(name, monkeypatch):
    rng = np.random.default_rng(18)
    calls = []
    eigh = hilbert_core.scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(hilbert_core.scipy.linalg, "eigh", counting_eigh)
    for restricted in both_paths(MAPS[name](rng)):
        a = restricted.full_map
        del calls[:]
        shortcut = embedding_constant(restricted, a)
        assert not calls, type(restricted).__name__
        # an equal map that is another object takes the generalized eigh
        reference = embedding_constant(restricted, LinearMap(a.matrix))
        assert len(calls) == 1
        assert abs(shortcut - reference) <= 1e-12 * reference
        gram = a.matrix.T @ a.matrix
        exact = np.sqrt(eigh(gram + np.eye(a.cols), gram, eigvals_only=True)[-1])
        assert abs(shortcut - exact) <= 1e-12 * exact
        # any other C keeps the generalized eigenproblem
        cmap = LinearMap(np.vstack([a.matrix, rng.standard_normal((3, a.cols))]))
        del calls[:]
        assert embedding_constant(restricted, cmap) > shortcut
        assert len(calls) == 1


def test_benchmark_shapes_take_the_gated_path():
    spec = OperatorSpec("symgrad2d", (14, 14), 1.0 / 13)
    small, big, inclusion = operator_pair(spec)
    free_grad = build_operator(OperatorSpec("grad2d", (14, 14), 1.0)).matrix.matrix
    cases = {  # shape: (entries, class, kernel dimension)
        (220, 100): (zero_boundary("grad2d", (10, 10)), RestrictedOperator, 0),
        (480, 288): (small.matrix.matrix, NormalRestriction, 0),
        (533, 288): (big.matrix.matrix @ inclusion.basis, NormalRestriction, 0),
        (1200, 576): (zero_boundary("grad2d", (24, 24)), NormalRestriction, 0),
        # free maps are large enough to be tried, and their kernel rejects them
        (364, 196): (free_grad, RestrictedOperator, 1),
        (533, 392): (big.matrix.matrix, RestrictedOperator, 3),
    }
    for shape, (entries, kind, ker_dim) in cases.items():
        assert entries.shape == shape
        restricted = restrict_operator(LinearMap(entries))
        assert type(restricted) is kind, shape
        assert restricted.ker.dim == ker_dim, shape


def test_sparse_path_builds_no_identity_basis(no_size_gate):
    rng = np.random.default_rng(19)
    a = LinearMap(zero_boundary("grad2d", (5, 4)))
    template = Problem("homogeneous", a, make_diagonal(1.0, [Power(3.0)] * a.rows),
                       np.zeros(a.cols))
    assert lipschitz_probe(template, pairs=3) > 0.0
    whole = restrict_operator(a).ran_adj
    assert whole._basis is None
    z = rng.standard_normal(a.cols)
    x = whole.from_coords(z)
    assert np.array_equal(x, z) and x is not z and whole._basis is None
    # nor does a boundary-data solve with its estimate check
    small, big, inclusion = operator_pair(OperatorSpec("symgrad2d", (5, 5), 0.25))
    relation = make_linear(2.0 * np.eye(big.matrix.rows))
    problem = Problem("dirichlet", big.matrix, relation,
                      rng.standard_normal(small.matrix.cols),
                      inclusion=inclusion, u0=rng.standard_normal(big.matrix.cols))
    check = cli._check_estimate(problem, solve(problem), 3, "dirichlet_estimate")
    assert check["pass"]
    assert restrict_operator(problem.effective).ran_adj._basis is None
    # a stored basis maps coordinates by one product, bit for bit
    line = Subspace(3, np.array([[0.6], [0.8], [0.0]]))
    assert np.array_equal(line.from_coords(np.array([2.0])), line.basis @ [2.0])


def test_fallbacks_take_the_svd_path(no_size_gate, caplog):
    rng = np.random.default_rng(15)
    free = build_operator(OperatorSpec("grad2d", (5, 5), 0.25)).matrix.matrix
    cases = {
        "free": free,  # kernel of constants
        "rank_deficient": random_operator(rng, 12, 6, 4),
        "ill_conditioned": ill_conditioned(rng),
        "wide": random_operator(rng, 4, 8, 4),
    }
    with caplog.at_level(logging.INFO, logger=hilbert_core.__name__):
        for name, entries in cases.items():
            caplog.clear()
            restricted = restrict_operator(LinearMap(entries))
            assert isinstance(restricted, RestrictedOperator), name
            assert caplog.records, f"{name}: the fallback was not logged"
            assert "falls back to the SVD" in caplog.records[-1].getMessage()
    # the SVD agrees: the conditioning gate dropped a map of full rank
    assert restrict_operator(cases["ill_conditioned"]).ker.dim == 0
    assert restrict_operator(cases["free"]).ker.dim == 1


def test_arpack_failure_falls_back(no_size_gate, monkeypatch, caplog):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with caplog.at_level(logging.INFO, logger=hilbert_core.__name__):
        restricted = restrict_operator(zero_boundary("grad2d", (4, 4)))
    assert isinstance(restricted, RestrictedOperator) and restricted.ker.dim == 0
    assert "ARPACK" in caplog.records[-1].getMessage()


def test_gate_decision_repeats_bitwise(no_size_gate):
    rng = np.random.default_rng(16)
    accepted = zero_boundary("grad2d", (6, 6))
    rejected = ill_conditioned(rng)
    lam = [hilbert_core._normal_range(accepted)[0].lambda_min for _ in range(3)]
    assert lam[0] > 0.0 and lam.count(lam[0]) == 3
    reasons = {hilbert_core._normal_range(rejected)[1] for _ in range(3)}
    assert len(reasons) == 1 and None not in reasons


def test_small_maps_skip_the_gate():
    assert hilbert_core._normal_range(zero_boundary("grad2d", (6, 6))) == (None, None)


def test_public_subspace_still_checks_orthonormality():
    with pytest.raises(InputError):
        Subspace(2, [[1.0], [1.0]])
    with pytest.raises(InputError):
        Subspace(3, np.array([[1.0, 0.9], [0.0, 0.1], [0.0, 0.0]]))


def test_whole_space_builds_its_basis_on_request():
    whole = Subspace.full(4)
    x = np.array([1.0, -2.0, 0.0, 3.5])
    assert np.array_equal(whole.project(x), x)
    assert whole.dim == whole.ambient_dim == 4
    assert np.array_equal(whole.basis, np.eye(4))
    line = Subspace(4, np.eye(4)[:, :1])
    assert whole.intersect(line).dim == 1


def big_grid_config(tmp_path, graph):
    n = 40
    h = 1.0 / (n + 1)
    rng = np.random.default_rng(17)
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad2d", "shape": [n, n], "h": h, "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": graph},
        "f": (50.0 / ((n + 1) * h) * rng.standard_normal(n * n)).tolist(),
        "checks": ["certificate"],
        "seed": 1,
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("graph", [{"kind": "sign"}, {"kind": "power", "exponent": 3.0}])
def test_large_grid_certifies_on_the_sparse_path(tmp_path, monkeypatch, graph):
    path = big_grid_config(tmp_path, graph)
    kinds = []
    original = solver.restrict_operator

    def spy(*args, **kwargs):
        restricted = original(*args, **kwargs)
        kinds.append(type(restricted))
        return restricted

    monkeypatch.setattr(solver, "restrict_operator", spy)
    report = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["solve", "--config", str(path), "--report", str(report)])
    elapsed = time.perf_counter() - start
    data = json.loads(report.read_text())
    assert code == 0 and data["pass"], data.get("error")
    assert kinds and set(kinds) == {NormalRestriction}
    assert max(data["residuals"].values()) <= 1e-9
    assert elapsed < 2.0


def test_solve_below_the_gate_leaves_sparse_linalg_unloaded(tmp_path):
    probe = (
        "import sys\n"
        "from elliptic_inclusions.cli import main\n"
        f"code = main(['solve', '--config', {str(REPO / 'configs' / 'sign_diagonal.json')!r},"
        f" '--report', {str(tmp_path / 'report.json')!r}])\n"
        "print(code, 'scipy.sparse.linalg' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert out.stdout.split() == ["0", "False"]
