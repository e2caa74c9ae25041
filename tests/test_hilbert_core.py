"""Subspace machinery, restricted operators, and the norm scale."""

import gc
import json

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

from elliptic_inclusions import (
    DomainError,
    InputError,
    LinearMap,
    NormalRestriction,
    SobolevNormKind,
    Subspace,
    b_inverse,
    b_star_inverse,
    embedding_constant,
    kernel_basis,
    load_matrix_market,
    restrict_operator,
    sobolev_norm,
)
from elliptic_inclusions import hilbert_core
from elliptic_inclusions.cli import main
from helpers import DIRICHLET_GRAD_3, NEUMANN_GRAD_3, random_operator


def test_linear_map_rejects_bad_input():
    with pytest.raises(InputError):
        LinearMap([1.0, 2.0])
    with pytest.raises(InputError):
        LinearMap([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        LinearMap(np.array([[1.0 + 1j]]))


@pytest.mark.parametrize("entries", ["abc", [[1.0, "x"]], [[1.0], [1.0, 2.0]],
                                     object()])
def test_linear_map_rejects_non_numeric_entries_with_a_typed_error(entries):
    with pytest.raises(InputError, match="must be real numbers"):
        LinearMap(entries)


def test_linear_map_accepts_sparse():
    m = LinearMap(scipy.sparse.eye_array(3, format="csr"))
    assert m.shape == (3, 3)
    assert np.array_equal(m.matrix, np.eye(3))


def test_kernel_basis_injective_map_is_empty():
    assert kernel_basis(np.eye(2)).dim == 0


def test_kernel_basis_neumann_gradient_is_constants():
    ker = kernel_basis(NEUMANN_GRAD_3)
    assert ker.dim == 1
    expected = np.ones(3) / np.sqrt(3.0)
    assert abs(abs(float(ker.basis[:, 0] @ expected)) - 1.0) < 1e-12


def test_kernel_basis_zero_map_is_everything():
    assert kernel_basis(np.zeros((3, 3))).dim == 3


def test_rank_nullity_on_random_maps():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rank = int(rng.integers(0, 5))
        m = random_operator(rng, 6, 4, rank)
        assert np.linalg.matrix_rank(m, tol=1e-8) == rank  # independent oracle
        assert restrict_operator(m).ran.dim == rank
        assert kernel_basis(m).dim == 4 - rank
        assert restrict_operator(m).ran.dim + kernel_basis(m).dim == 4


def test_project_special_cases():
    whole = Subspace.full(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.allclose(whole.project(x), x)
    line = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    assert np.allclose(line.project([1.0, 0.0]), [0.5, 0.5])
    assert np.allclose(Subspace.zero(3).project(x), 0.0)


def test_project_idempotent_and_self_adjoint():
    rng = np.random.default_rng(3)
    basis = scipy.linalg.orth(rng.standard_normal((6, 3)))
    sub = Subspace(6, basis)
    for _ in range(20):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        px = sub.project(x)
        assert np.linalg.norm(sub.project(px) - px) < 1e-12
        assert abs(px @ y - x @ sub.project(y)) < 1e-12
        # the residual is orthogonal to every basis vector
        assert np.max(np.abs(basis.T @ (x - px))) < 1e-12


def test_project_dimension_mismatch():
    with pytest.raises(InputError):
        Subspace.full(3).project(np.ones(4))


def test_restrict_operator_dirichlet_gradient():
    restricted = restrict_operator(DIRICHLET_GRAD_3)
    # oracle: singular values of the stencil
    sv = np.linalg.svd(DIRICHLET_GRAD_3, compute_uv=False)
    assert np.all(sv > 1e-12)
    assert restricted.ker.dim == 0
    assert restricted.ran.dim == 3
    assert restricted.full_map.rows - restricted.rank == 1


def test_restrict_operator_neumann_gradient():
    restricted = restrict_operator(NEUMANN_GRAD_3)
    assert restricted.ker.dim == 1
    assert restricted.sv.shape == (2,)
    assert restricted.sv[-1] > 1e-12


def test_restrict_operator_identity_and_zero():
    r_id = restrict_operator(np.eye(4))
    assert r_id.rank == 4 and r_id.ker.dim == 0
    assert r_id.full_map.rows - r_id.rank == 0
    r_zero = restrict_operator(np.zeros((3, 2)))
    assert r_zero.rank == 0 and r_zero.ker.dim == 2
    assert r_zero.full_map.rows - r_zero.rank == 3


@pytest.mark.parametrize("rows", [3, 5])
def test_one_rank_rule_for_kernel_range_and_restriction(rows):
    # RANK_TOL = 1e-10 relative: 2e-10 counts as rank, 5e-11 as kernel
    m = np.zeros((rows, 3))
    m[:3, :3] = np.diag([1.0, 2e-10, 5e-11])
    ker = kernel_basis(m)
    assert ker.dim == 1
    assert np.allclose(np.abs(ker.basis[:, 0]), [0.0, 0.0, 1.0])
    restricted = restrict_operator(m)
    assert restricted.rank == 2 and restricted.ker.dim == 1


def test_restrict_operator_reuses_factors_per_map_and_tol():
    lm = LinearMap(NEUMANN_GRAD_3)
    first = restrict_operator(lm)
    again = restrict_operator(lm)
    assert again is not first
    assert again.ran is first.ran and again.ran_adj is first.ran_adj
    assert again.ker is first.ker and again.sv is first.sv
    raw = restrict_operator(NEUMANN_GRAD_3)
    assert raw.rank == first.rank == 2
    assert np.allclose(raw.sv, first.sv)


def test_restrict_operator_leaves_no_cyclic_garbage(monkeypatch):
    rng = np.random.default_rng(37)
    # injective maps take the sparse path, rank-deficient ones the SVD
    monkeypatch.setattr(hilbert_core, "_NORMAL_MIN_ENTRIES", 0)
    restrict_operator(np.eye(3))  # first use imports scipy.sparse.linalg
    gc.collect()
    gc.disable()
    try:
        for rank in (3, 4, 3, 4):
            lm = LinearMap(random_operator(rng, 6, 4, rank))
            restricted = restrict_operator(lm)
            assert restricted.full_map.rows - restricted.rank == 6 - rank
            if rank == 3:
                assert restricted.sv.shape == (3,)
            else:
                assert isinstance(restricted, NormalRestriction)
                restricted.ran.project(rng.standard_normal(6))
            del lm, restricted
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_verify_factors_the_operator_once(tmp_path, monkeypatch):
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [6], "h": 1.0, "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": {"kind": "sign"}},
        "f": [0.9, -0.4, 1.1, 0.0, 0.3, -0.7],
        "checks": [],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    assert main(["verify", "--config", str(path), "--report",
                 str(tmp_path / "report.json")]) == 0
    data = json.loads((tmp_path / "report.json").read_bytes())
    assert {c["name"] for c in data["checks"]} == {"certificate", "monotonicity",
                                                   "lipschitz"}
    assert shapes.count((7, 6)) == 1


def test_sobolev_norms_scaled_identity():
    restricted = restrict_operator(2.0 * np.eye(3))
    x = np.array([1.0, 2.0, -1.0])
    assert np.isclose(sobolev_norm(restricted, SobolevNormKind.H1_B, x),
                      2.0 * np.linalg.norm(x))
    assert np.isclose(sobolev_norm(restricted, SobolevNormKind.H0, x),
                      np.linalg.norm(x))
    assert np.isclose(sobolev_norm(restricted, SobolevNormKind.HM1_B, x),
                      np.linalg.norm(x) / 2.0)


def test_sobolev_dual_of_normal_matrix_image_is_graph_norm():
    rng = np.random.default_rng(11)
    m = random_operator(rng, 6, 4, 3)
    restricted = restrict_operator(m)
    for _ in range(10):
        x = restricted.ran_adj.project(rng.standard_normal(4))
        image = m.T @ (m @ x)
        lhs = sobolev_norm(restricted, SobolevNormKind.HM1_B, image)
        rhs = sobolev_norm(restricted, SobolevNormKind.H1_B, x)
        assert abs(lhs - rhs) < 1e-10


def test_sobolev_dirichlet_gradient_by_stencil():
    restricted = restrict_operator(DIRICHLET_GRAD_3)
    # stencil applied to (1,1,1) by hand: (1, 0, 0, -1)
    assert np.isclose(
        sobolev_norm(restricted, SobolevNormKind.H1_B, np.ones(3)), np.sqrt(2.0)
    )


def test_sobolev_rejects_kernel_component():
    restricted = restrict_operator(NEUMANN_GRAD_3)
    with pytest.raises(DomainError):
        sobolev_norm(restricted, SobolevNormKind.H1_B, np.ones(3))


def test_sobolev_c_kinds():
    c = LinearMap(np.diag([1.0, 2.0]))
    x = np.array([3.0, 1.0])
    expected = np.sqrt(np.linalg.norm(c.matrix @ x) ** 2 + np.linalg.norm(x) ** 2)
    assert np.isclose(
        sobolev_norm(None, SobolevNormKind.H1_C_PLUS_I, x, cmap=c), expected
    )
    g = c.matrix.T @ c.matrix + np.eye(2)
    expected_dual = np.sqrt(x @ np.linalg.solve(g, x))
    assert np.isclose(
        sobolev_norm(None, SobolevNormKind.HM1_C_PLUS_I, x, cmap=c), expected_dual
    )
    with pytest.raises(InputError):
        sobolev_norm(None, SobolevNormKind.H1_C_PLUS_I, x)


def test_b_star_inverse_identity():
    restricted = restrict_operator(np.eye(3))
    f = np.array([1.0, -2.0, 0.5])
    assert np.allclose(b_star_inverse(restricted, f), f)


def test_b_star_inverse_defining_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_operator(rng, 7, 5, int(rng.integers(1, 5)))
        restricted = restrict_operator(m)
        f = restricted.ran_adj.project(rng.standard_normal(5))
        w = b_star_inverse(restricted, f)
        assert np.linalg.norm(m.T @ w - f) < 1e-10
        assert restricted.ran.membership_residual(w) < 1e-10


def test_b_star_inverse_dirichlet_pattern():
    restricted = restrict_operator(DIRICHLET_GRAD_3)
    f = np.ones(3)
    w = b_star_inverse(restricted, f)
    # independent oracle: minimum-norm solution of A^T w = f lies in R(A)
    w_ref = np.linalg.lstsq(DIRICHLET_GRAD_3.T, f, rcond=None)[0]
    assert np.allclose(w, w_ref, atol=1e-12)
    assert np.allclose(w, [1.5, 0.5, -0.5, -1.5])
    assert np.allclose(-(np.diff(w)), 1.0)


def test_b_star_inverse_rejects_kernel_component():
    restricted = restrict_operator(NEUMANN_GRAD_3)
    with pytest.raises(DomainError):
        b_star_inverse(restricted, np.array([1.0, 1.0, 1.0]))


def test_b_inverse_identity_and_round_trips():
    restricted = restrict_operator(np.eye(3))
    v = np.array([0.3, -1.0, 2.0])
    assert np.allclose(b_inverse(restricted, v), v)
    rng = np.random.default_rng(9)
    for _ in range(15):
        m = random_operator(rng, 6, 5, 3)
        restricted = restrict_operator(m)
        v = restricted.ran.project(rng.standard_normal(6))
        u = b_inverse(restricted, v)
        assert np.linalg.norm(m @ u - v) < 1e-10
        x = restricted.ran_adj.project(rng.standard_normal(5))
        assert np.allclose(b_inverse(restricted, m @ x), x, atol=1e-10)


def test_b_inverse_rejects_off_range_input():
    restricted = restrict_operator(DIRICHLET_GRAD_3)
    with pytest.raises(DomainError):
        b_inverse(restricted, np.array([1.0, 1.0, 1.0, 1.0]))


def test_embedding_constant_identity():
    restricted = restrict_operator(np.eye(3))
    assert np.isclose(embedding_constant(restricted, np.eye(3)), np.sqrt(2.0))


def test_embedding_constant_invertible_formula():
    rng = np.random.default_rng(13)
    m = random_operator(rng, 4, 4, 4)
    restricted = restrict_operator(m)
    got = embedding_constant(restricted, m)
    # dense generalized eigenvalue oracle
    vals = scipy.linalg.eigh(m.T @ m + np.eye(4), m.T @ m, eigvals_only=True)
    assert np.isclose(got, np.sqrt(vals[-1]))
    smin = np.linalg.svd(m, compute_uv=False)[-1]
    assert np.isclose(got, np.sqrt(1.0 + 1.0 / smin**2))


def test_embedding_constant_bounds_the_ratio():
    rng = np.random.default_rng(17)
    m = random_operator(rng, 8, 6, 4)
    restricted = restrict_operator(m)
    c = LinearMap(m)
    bound = embedding_constant(restricted, c)
    for _ in range(100):
        h = restricted.ran_adj.project(rng.standard_normal(6))
        if np.linalg.norm(h) < 1e-12:
            continue
        ratio = sobolev_norm(None, SobolevNormKind.H1_C_PLUS_I, h, cmap=c) \
            / sobolev_norm(restricted, SobolevNormKind.H1_B, h)
        assert ratio <= bound + 1e-10


def test_embedding_constant_degenerate_restriction():
    restricted = restrict_operator(np.zeros((2, 2)))
    assert embedding_constant(restricted, np.eye(2)) == 0.0


def test_unitarity_both_directions():
    rng = np.random.default_rng(19)
    for _ in range(25):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = random_operator(rng, rows, cols, rank)
        restricted = restrict_operator(m)
        x = restricted.ran_adj.project(rng.standard_normal(cols))
        assert sobolev_norm(restricted, SobolevNormKind.H1_B, x) == np.linalg.norm(m @ x)
        y = restricted.ran.project(rng.standard_normal(rows))
        dual = sobolev_norm(restricted, SobolevNormKind.HM1_B, m.T @ y)
        assert abs(dual - np.linalg.norm(y)) < 1e-9


def test_adjoint_maps_range_into_kernel_complement():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_operator(rng, 6, 5, 3)
        restricted = restrict_operator(m)
        y = restricted.ran.project(rng.standard_normal(6))
        assert restricted.ran_adj.membership_residual(m.T @ y) < 1e-12


def test_b_star_inverse_is_adjoint_of_b_inverse():
    rng = np.random.default_rng(29)
    for _ in range(15):
        m = random_operator(rng, 6, 5, 3)
        restricted = restrict_operator(m)
        f = restricted.ran_adj.project(rng.standard_normal(5))
        v = restricted.ran.project(rng.standard_normal(6))
        lhs = b_star_inverse(restricted, f) @ v
        rhs = f @ b_inverse(restricted, v)
        assert abs(lhs - rhs) < 1e-10


def test_transpose_pairing_identity():
    rng = np.random.default_rng(31)
    m = random_operator(rng, 6, 4, 3)
    for _ in range(20):
        x = rng.standard_normal(4)
        y = rng.standard_normal(6)
        assert abs((m @ x) @ y - x @ (m.T @ y)) < 1e-12


def test_matrix_market_round_trip(tmp_path):
    path = tmp_path / "op.mtx"
    m = np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 3.0]])
    scipy.io.mmwrite(path, scipy.sparse.coo_array(m))
    loaded = load_matrix_market(path)
    assert np.allclose(loaded.matrix, m)


def test_matrix_market_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_matrix_market(tmp_path / "missing.mtx")
    bad = tmp_path / "bad.mtx"
    bad.write_text("this is not a matrix market file\n")
    with pytest.raises(InputError):
        load_matrix_market(bad)
