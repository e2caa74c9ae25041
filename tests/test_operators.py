"""Grid operator builders: stencils, nesting, kernels, adjoint convention."""

import hashlib

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


def _digest(matrix):
    """Shape and the leading 16 hex digits of the SHA-256 of the dense entries."""
    digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
    return f"{matrix.shape[0]}x{matrix.shape[1]}:{digest[:16]}"


# Digests of the matrices built, at h = 0.3, by the Kronecker-product
# assembly (sp.kron of identities and 1-d difference matrices) that the
# index-based stencils replaced; "free_gradient_3d" is that builder.
BUILD_DIGESTS = {
    ("grad1d", "free", (2,)): "1x2:2d5592157edf4310",
    ("grad1d", "free", (5,)): "4x5:23c68017bd2d5097",
    ("grad1d", "free", (9,)): "8x9:bf0b4899f17e6a4e",
    ("grad1d", "zero", (1,)): "2x1:8d98ba02c8ea7024",
    ("grad1d", "zero", (3,)): "4x3:5d25f5c109632dff",
    ("grad1d", "zero", (7,)): "8x7:21eaf29ee070ed05",
    ("grad2d", "free", (2, 2)): "4x4:7f5e75952a5c147a",
    ("grad2d", "free", (3, 4)): "17x12:2271329c22b7c7f5",
    ("grad2d", "free", (7, 7)): "84x49:7911f87e3d54e18c",
    ("grad2d", "zero", (1, 3)): "10x3:58b31d1d317d42d8",
    ("grad2d", "zero", (5, 8)): "93x40:caef1658835c91fa",
    ("grad2d", "zero", (10, 10)): "220x100:a714c0f3d10d8462",
    ("symgrad2d", "free", (2, 2)): "5x8:4787516699409f1b",
    ("symgrad2d", "free", (3, 5)): "30x30:003078ba775e6f10",
    ("symgrad2d", "free", (14, 14)): "533x392:0df1763bd4f8826e",
    ("symgrad2d", "zero", (1, 1)): "7x2:c03eb303c2586cf6",
    ("symgrad2d", "zero", (2, 3)): "28x12:037fac11d13085fb",
    ("symgrad2d", "zero", (5, 7)): "129x70:852a4c090c23e2b6",
    ("curl3d", "free", (2, 2, 2)): "6x12:71dc14b397327f62",
    ("curl3d", "free", (4, 5, 3)): "98x133:62508d707c554ecd",
    ("curl3d", "free", (3, 3, 4)): "52x75:675140d866b7811a",
    ("free_gradient_3d", "free", (2, 3, 4)): "46x24:c445f1bd85fa9a84",
    ("free_gradient_3d", "free", (4, 5, 3)): "133x60:79bd06ec8e2fd9d3",
    ("free_gradient_3d", "free", (2, 2, 2)): "12x8:5d178d67f85fbc8c",
}
# (small, big, inclusion basis) of ``operator_pair`` at h = 0.3, likewise
PAIR_DIGESTS = {
    ("grad1d", (5,)):
        ("4x3:5d25f5c109632dff", "4x5:23c68017bd2d5097", "5x3:bdcb5e124ee7537f"),
    ("grad1d", (9,)):
        ("8x7:21eaf29ee070ed05", "8x9:bf0b4899f17e6a4e", "9x7:7ca6e61e51b9ed15"),
    ("grad2d", (3, 3)):
        ("4x1:d2cd11ef2620dcbd", "12x9:bdd57eec9bbff575", "9x1:6234231fb909fb32"),
    ("grad2d", (4, 6)):
        ("22x8:10af21f095f64646", "38x24:2f761d78e0a22441", "24x8:b162e200e3a521da"),
    ("grad2d", (7, 7)):
        ("60x25:be4a7188112fb775", "84x49:7911f87e3d54e18c", "49x25:964bfafe19949238"),
    ("symgrad2d", (3, 4)):
        ("12x4:112dd725b5fa61aa", "23x24:032031ea73264571", "24x4:a0a0f857fa4ef998"),
    ("symgrad2d", (5, 5)):
        ("39x18:e27ad1659331fa27", "56x50:51df6d643c1c5953", "50x18:534aad7daf99f882"),
    ("symgrad2d", (14, 14)):
        ("480x288:f865b3febd7ff8fa", "533x392:0df1763bd4f8826e", "392x288:f51a3a09413c70a2"),
}


def _id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else value


@pytest.mark.parametrize("family,boundary,shape", list(BUILD_DIGESTS), ids=_id)
def test_builders_match_the_kronecker_assembly_bitwise(family, boundary, shape):
    if family == "free_gradient_3d":
        built = free_gradient_3d(shape, 0.3)
    else:
        built = build_operator(OperatorSpec(family, shape, 0.3, boundary))
    assert _digest(built.matrix.matrix) == BUILD_DIGESTS[family, boundary, shape]


@pytest.mark.parametrize("family,shape", list(PAIR_DIGESTS), ids=_id)
def test_operator_pair_matches_the_kronecker_assembly_bitwise(family, shape):
    small, big, inclusion = operator_pair(OperatorSpec(family, shape, 0.3))
    assert inclusion._basis is None  # a coordinate subspace: no basis until read
    got = (_digest(small.matrix.matrix), _digest(big.matrix.matrix),
           _digest(inclusion.basis))
    assert got == PAIR_DIGESTS[family, shape]
