"""Grid operator builders: stencils, nesting, kernels, adjoint convention."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from elliptic_inclusions import (
    ConstructionError,
    OperatorSpec,
    build_operator,
    free_gradient_3d,
    kernel_basis,
    negative_adjoint,
    operator_pair,
    operators,
)


def test_grad1d_zero_boundary_stencil():
    built = build_operator(OperatorSpec("grad1d", (3,), 1.0, "zero"))
    expected = np.array([
        [1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, 1.0],
        [0.0, 0.0, -1.0],
    ])
    assert np.array_equal(built.matrix.matrix, expected)


def test_grad1d_free_stencil_and_kernel():
    built = build_operator(OperatorSpec("grad1d", (3,), 1.0, "free"))
    expected = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(built.matrix.matrix, expected)
    ker = kernel_basis(built.matrix)
    assert ker.dim == 1
    ones = np.ones(3) / np.sqrt(3.0)
    assert abs(abs(float(ker.basis[:, 0] @ ones)) - 1.0) < 1e-12


def test_grad1d_spacing():
    built = build_operator(OperatorSpec("grad1d", (4,), 0.5, "free"))
    assert np.allclose(np.abs(built.matrix.matrix[built.matrix.matrix != 0.0]), 2.0)


def test_grad2d_shapes_and_kernel():
    built = build_operator(OperatorSpec("grad2d", (3, 4), 1.0, "free"))
    assert built.matrix.shape == (2 * 4 + 3 * 3, 12)
    assert np.allclose(built.matrix.matrix.sum(axis=1), 0.0)  # constants in kernel
    assert kernel_basis(built.matrix).dim == 1
    zero = build_operator(OperatorSpec("grad2d", (2, 2), 1.0, "zero"))
    assert kernel_basis(zero.matrix).dim == 0


def test_free_gradient_kernel_counts_connected_components():
    built = build_operator(OperatorSpec("grad2d", (3, 3), 1.0, "free"))
    d = built.matrix.matrix
    # connectivity oracle: grid adjacency from the difference rows
    n = d.shape[1]
    adj = scipy.sparse.lil_array((n, n))
    for row in d:
        idx = np.nonzero(row)[0]
        if idx.size == 2:
            adj[idx[0], idx[1]] = 1
            adj[idx[1], idx[0]] = 1
    ncomp, _ = connected_components(adj.tocsr(), directed=False)
    assert kernel_basis(built.matrix).dim == ncomp == 1


def test_symgrad_trace_inner_product_matches_oracle():
    h = 0.7
    built = build_operator(OperatorSpec("symgrad2d", (2, 2), h, "free"))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8)
    ux = u[:4].reshape(2, 2)
    uy = u[4:].reshape(2, 2)
    # direct trace-sum oracle over all forward-difference samples
    total = 0.0
    for i in range(1):
        for j in range(2):
            e11 = (ux[i + 1, j] - ux[i, j]) / h
            total += h * h * e11 * e11
    for i in range(2):
        for j in range(1):
            e22 = (uy[i, j + 1] - uy[i, j]) / h
            total += h * h * e22 * e22
    for i in range(1):
        for j in range(1):
            e12 = 0.5 * ((ux[i, j + 1] - ux[i, j]) / h + (uy[i + 1, j] - uy[i, j]) / h)
            total += h * h * 2.0 * e12 * e12
    out = built.matrix.matrix @ u
    assert np.isclose(float(out @ out), total, rtol=0.0, atol=1e-12)


def test_symgrad_kernel_is_rigid_motions():
    built = build_operator(OperatorSpec("symgrad2d", (3, 3), 1.0, "free"))
    assert kernel_basis(built.matrix).dim == 3
    # explicit rigid motions: two translations and one rotation
    n = 9
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    tx = np.concatenate([np.ones(n), np.zeros(n)])
    ty = np.concatenate([np.zeros(n), np.ones(n)])
    rot = np.concatenate([-ys.ravel(), xs.ravel()])
    for motion in (tx, ty, rot):
        assert np.allclose(built.matrix.matrix @ motion, 0.0, atol=1e-12)


def test_curl_of_gradient_is_exactly_zero():
    grad = free_gradient_3d((4, 4, 4), 1.0)
    curl = build_operator(OperatorSpec("curl3d", (4, 4, 4), 1.0, "free"))
    assert curl.matrix.cols == grad.matrix.rows
    product = curl.matrix.matrix @ grad.matrix.matrix
    assert np.all(product == 0.0)


def test_curl_zero_boundary_not_built():
    with pytest.raises(ConstructionError):
        build_operator(OperatorSpec("curl3d", (4, 4, 4), 1.0, "zero"))


def test_operator_pair_1d_inclusion():
    small, big, inclusion = operator_pair(OperatorSpec("grad1d", (5,)))
    assert small.matrix.shape == (4, 3)
    assert big.matrix.shape == (4, 5)
    assert inclusion.dim == 3
    # interior coordinate directions
    expected_cols = np.zeros((5, 3))
    expected_cols[1:4] = np.eye(3)
    assert np.allclose(np.abs(inclusion.basis), expected_cols)


def _assert_nested(small, big, inclusion, rng, trials=50):
    embed = inclusion.basis
    for _ in range(trials):
        x = rng.standard_normal(inclusion.dim)
        via_big = big.matrix.matrix @ (embed @ x)
        via_small = small.matrix.matrix @ x
        # row-for-row match up to reindexing: every small row value shows up,
        # remaining big rows vanish on extended vectors
        assert np.isclose(np.linalg.norm(via_big), np.linalg.norm(via_small),
                          rtol=0.0, atol=1e-12)
        assert np.allclose(np.sort(np.abs(via_big))[-via_small.size:],
                           np.sort(np.abs(via_small)), atol=1e-12)
        extra = via_big.size - via_small.size
        if extra:
            assert np.allclose(np.sort(np.abs(via_big))[:extra], 0.0, atol=1e-12)


def test_operator_pair_rows_nest_exactly():
    rng = np.random.default_rng(1)
    for family, shape in (("grad1d", (6,)), ("grad2d", (4, 5)), ("symgrad2d", (4, 4))):
        small, big, inclusion = operator_pair(OperatorSpec(family, shape, 1.0))
        _assert_nested(small, big, inclusion, rng)


def test_operator_pair_row_selection_is_exact():
    # in two dimensions the free operator has extra rows; after restriction to
    # the interior columns they must be exactly zero rows
    small, big, inclusion = operator_pair(OperatorSpec("grad2d", (4, 4), 1.0))
    restricted = big.matrix.matrix @ inclusion.basis
    nonzero = restricted[np.any(restricted != 0.0, axis=1)]
    assert nonzero.shape == small.matrix.shape
    assert np.array_equal(nonzero, small.matrix.matrix)


def test_poincare_constant_positive_for_zero_boundary():
    for family, shape in (("grad1d", (4,)), ("grad2d", (3, 3)), ("symgrad2d", (2, 3))):
        built = build_operator(OperatorSpec(family, shape, 1.0, "zero"))
        smin = np.linalg.svd(built.matrix.matrix, compute_uv=False)[-1]
        assert smin > 1e-8


def test_divergence_is_negative_transpose():
    built = build_operator(OperatorSpec("grad1d", (4,), 1.0, "free"))
    div = negative_adjoint(built)
    assert np.array_equal(div.matrix, -built.matrix.matrix.T)


def test_custom_matrix_market(tmp_path):
    m = np.array([[2.0, 0.0], [1.0, -1.0]])
    path = tmp_path / "custom.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_array(m))
    built = build_operator(OperatorSpec("custom", (), path=str(path)))
    assert np.allclose(built.matrix.matrix, m)


def test_bad_specs_rejected():
    with pytest.raises(ConstructionError):
        OperatorSpec("grad1d", (3,), h=0.0)
    with pytest.raises(ConstructionError):
        OperatorSpec("grad2d", (3,))
    with pytest.raises(ConstructionError):
        OperatorSpec("grad1d", (1,), boundary="free")
    with pytest.raises(ConstructionError):
        OperatorSpec("nosuch", (3,))
    with pytest.raises(ConstructionError):
        OperatorSpec("custom", ())
    with pytest.raises(ConstructionError):
        operator_pair(OperatorSpec("curl3d", (4, 4, 4)))
    with pytest.raises(ConstructionError):
        operator_pair(OperatorSpec("grad1d", (2,)))


def test_zero_boundary_single_node():
    built = build_operator(OperatorSpec("grad1d", (1,), 1.0, "zero"))
    assert np.array_equal(built.matrix.matrix, np.array([[1.0], [-1.0]]))


def _dense_zero_boundary(shape, h, free_builder, components):
    """The zero-boundary construction on dense arrays, as a reference."""
    full = free_builder(tuple(s + 2 for s in shape), h)
    restricted = full.toarray()[:, operators._interior_columns(shape, components)]
    return restricted[np.any(restricted != 0.0, axis=1)]


@pytest.mark.parametrize("family,shape,components", [
    ("grad1d", (5,), 1), ("grad2d", (4, 6), 1), ("grad2d", (1, 3), 1),
    ("symgrad2d", (3, 5), 2), ("symgrad2d", (1, 1), 2),
])
def test_zero_boundary_matches_the_dense_construction_bitwise(family, shape, components):
    builder = operators._free_symgrad_2d if family == "symgrad2d" \
        else operators._free_gradient
    matrix = _dense_zero_boundary(shape, 0.3, builder, components)
    built = build_operator(OperatorSpec(family, shape, 0.3, "zero"))
    assert built.matrix.matrix.tobytes() == matrix.tobytes()
    assert built.matrix.shape == matrix.shape


def test_zero_boundary_drops_rows_holding_only_stored_zeros():
    def free_builder(shape, h):
        # 3 x 3 ghost-extended grid: the interior column is node 4; row 1
        # stores an explicit zero there, row 2 touches only ghost nodes
        rows = np.array([0, 1, 2, 3])
        cols = np.array([4, 4, 0, 4])
        vals = np.array([1.0, 0.0, 5.0, -2.0])
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=(4, 9))

    matrix = operators._zero_boundary_from_free(free_builder((3, 3), 1.0),
                                                (1, 1), 1)
    assert np.array_equal(matrix.toarray(), np.array([[1.0], [-2.0]]))
    reference = _dense_zero_boundary((1, 1), 1.0, free_builder, 1)
    assert np.array_equal(matrix.toarray(), reference)


@pytest.mark.parametrize("family,shape", [
    ("grad1d", (9,)), ("grad2d", (7, 7)), ("grad2d", (24, 24)),
    ("grad2d", (3, 5)), ("symgrad2d", (14, 14)), ("symgrad2d", (4, 6)),
])
def test_operator_pair_matches_two_separate_builds_bitwise(family, shape):
    h = 1.0 / (shape[0] - 1)
    small, big, inclusion = operator_pair(OperatorSpec(family, shape, h))
    interior = tuple(s - 2 for s in shape)
    ref_small = build_operator(OperatorSpec(family, interior, h, "zero"))
    ref_big = build_operator(OperatorSpec(family, shape, h, "free"))
    for built, ref in ((small, ref_small), (big, ref_big)):
        assert built.matrix.shape == ref.matrix.shape
        assert built.matrix.matrix.tobytes() == ref.matrix.matrix.tobytes()
    components = 2 if family == "symgrad2d" else 1
    basis = np.zeros((components * int(np.prod(shape)), small.matrix.cols))
    cols = operators._interior_columns(interior, components)
    basis[cols, np.arange(cols.size)] = 1.0
    assert inclusion.basis.tobytes() == basis.tobytes()
