"""Forward-difference builders for grid gradient, symmetric-gradient, and curl.

Every operator is assembled from node indices: a row is the difference
-e_k + e_(k+stride) between a node k of a C-ordered grid and its forward
neighbour along one axis (``_diff``), and a family stacks such blocks.
Every operator comes in a free variant (all grid nodes are unknowns,
differences only between adjacent nodes) and, where it makes sense, a
zero-boundary variant (values one layer outside the index set are zero).
The zero-boundary matrix is literally the free matrix of the ghost-extended
grid with ghost columns deleted and the resulting all-zero rows dropped, so
the two variants nest exactly: the free operator applied to a zero-extended
interior vector reproduces the zero-boundary operator row for row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError
from .hilbert_core import LinearMap, _Coordinates, load_matrix_market

GRAD_1D = "grad1d"
GRAD_2D = "grad2d"
SYMGRAD_2D = "symgrad2d"
CURL_3D = "curl3d"
CUSTOM = "custom"

ZERO_BOUNDARY = "zero"
FREE = "free"

_FAMILIES = (GRAD_1D, GRAD_2D, SYMGRAD_2D, CURL_3D, CUSTOM)
_FAMILY_NDIM = {GRAD_1D: 1, GRAD_2D: 2, SYMGRAD_2D: 2, CURL_3D: 3}


@dataclass(frozen=True)
class OperatorSpec:
    """What to build: family, grid extents, spacing, boundary treatment."""

    family: str
    shape: tuple = ()
    h: float = 1.0
    boundary: str = FREE
    path: str | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConstructionError(f"unknown operator family {self.family!r}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if self.family == CUSTOM:
            if not self.path:
                raise ConstructionError("custom operators need a file path")
            return
        if not (self.h > 0.0):
            raise ConstructionError("grid spacing h must be positive")
        if self.boundary not in (ZERO_BOUNDARY, FREE):
            raise ConstructionError(f"unknown boundary treatment {self.boundary!r}")
        ndim = _FAMILY_NDIM[self.family]
        if len(self.shape) != ndim:
            raise ConstructionError(
                f"{self.family} needs {ndim} grid extent(s), got {self.shape}"
            )
        minimum = 1 if self.boundary == ZERO_BOUNDARY and self.family != CURL_3D else 2
        if any(s < minimum for s in self.shape):
            raise ConstructionError(
                f"grid extents must be >= {minimum} for {self.family}/{self.boundary}"
            )


@dataclass
class BuiltOperator:
    """A constructed difference operator."""

    matrix: LinearMap


def _diff(shape, axis, rows=None):
    """Unscaled forward differences along ``axis`` of the C-ordered grid
    ``shape``: row k is -e_k + e_(k+stride), one row per node k of the
    leading sub-grid with extents ``rows`` (by default every node that has a
    forward neighbour along ``axis``), in C order."""
    if rows is None:
        rows = shape[:axis] + (shape[axis] - 1,) + shape[axis + 1:]
    n = int(np.prod(shape))
    k = np.arange(n).reshape(shape)[tuple(slice(r) for r in rows)].ravel()
    stride = int(np.prod(shape[axis + 1:]))
    return sp.csr_array((np.tile([-1.0, 1.0], k.size),
                         np.column_stack([k, k + stride]).ravel(),
                         np.arange(0, 2 * k.size + 1, 2)), shape=(k.size, n))


def _free_gradient(shape, h):
    blocks = [_diff(shape, a) for a in range(len(shape))]
    return sp.vstack(blocks, format="csr") / h


def _free_symgrad_2d(shape, h):
    """Rows (e11, e22, sqrt(2) e12), scaled so the Euclidean inner product of
    outputs equals the trace inner product summed with grid-point weight h^2.

    Normal strains sit on their forward-difference grids; the shear strain is
    sampled on the (nx-1) x (ny-1) cells, where both one-sided differences
    exist.
    """
    cells = (shape[0] - 1, shape[1] - 1)
    r2 = np.sqrt(2.0)
    # the square root h of the measure weight cancels the stencil's 1/h
    return sp.block_array([[_diff(shape, 0), None],
                           [None, _diff(shape, 1)],
                           [_diff(shape, 1, cells) / r2, _diff(shape, 0, cells) / r2]],
                          format="csr")


def free_gradient_3d(shape, h=1.0) -> BuiltOperator:
    """Free 3-d node gradient; its output lives on the edge layout of curl_3d."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 2 for s in shape):
        raise ConstructionError("3-d gradient needs three extents >= 2")
    if not (h > 0.0):
        raise ConstructionError("grid spacing h must be positive")
    return BuiltOperator(LinearMap(_free_gradient(shape, h)))


def _free_curl_3d(shape, h):
    """Edge field -> face field circulation on a staggered grid.

    Domain blocks [Ex, Ey, Ez] live on the edge grids of the node grid; the
    rows are grouped by face normal.  Composed with the free 3-d gradient the
    result is exactly zero.
    """
    nx, ny, nz = shape
    ex, ey, ez = (nx - 1, ny, nz), (nx, ny - 1, nz), (nx, ny, nz - 1)
    return sp.block_array([[None, -_diff(ey, 2), _diff(ez, 1)],
                           [_diff(ex, 2), None, -_diff(ez, 0)],
                           [-_diff(ex, 1), _diff(ey, 0), None]], format="csr") / h


def _interior_columns(shape, components):
    """Flat column indices of interior nodes on the ghost-extended grid, one
    component after the other."""
    ext = tuple(s + 2 for s in shape)
    grid = np.arange(components * int(np.prod(ext))).reshape((components,) + ext)
    return grid[(slice(None),) + tuple(slice(1, -1) for _ in shape)].ravel()


def _zero_boundary_from_free(full, shape, components):
    """Zero-boundary operator on ``shape`` from the free one on its ghost grid."""
    restricted = full[:, _interior_columns(shape, components)].tocsr()
    # a row stays when it holds a nonzero value; stored zeros do not count
    keep = np.zeros(restricted.shape[0], dtype=bool)
    keep[np.repeat(np.arange(restricted.shape[0]), np.diff(restricted.indptr))
         [restricted.data != 0.0]] = True
    return restricted[np.flatnonzero(keep)]


# free builder and unknowns per grid node of the families with pairs
_PAIR_BUILDERS = {GRAD_1D: (_free_gradient, 1), GRAD_2D: (_free_gradient, 1),
                  SYMGRAD_2D: (_free_symgrad_2d, 2)}


def build_operator(spec: OperatorSpec) -> BuiltOperator:
    """Construct the difference operator described by ``spec``.

    Divergence-type operators are not built directly; they are the negative
    transposes of the gradients (see ``negative_adjoint``).
    """
    if spec.family == CUSTOM:
        matrix = load_matrix_market(spec.path)
        return BuiltOperator(matrix)
    if spec.family == CURL_3D:
        if spec.boundary == ZERO_BOUNDARY:
            raise ConstructionError("only the free curl variant is built")
        return BuiltOperator(LinearMap(_free_curl_3d(spec.shape, spec.h)))

    builder, components = _PAIR_BUILDERS[spec.family]
    if spec.boundary == FREE:
        matrix = builder(spec.shape, spec.h)
    else:
        ext_shape = tuple(s + 2 for s in spec.shape)
        matrix = _zero_boundary_from_free(builder(ext_shape, spec.h),
                                          spec.shape, components)
    return BuiltOperator(LinearMap(matrix))


def operator_pair(spec: OperatorSpec):
    """Zero-boundary and free operators on one grid, plus the domain embedding.

    ``spec.shape`` gives the total grid extents.  Returns
    ``(small, big, inclusion)`` where ``small`` is the zero-boundary operator
    on the interior unknowns, ``big`` the free operator on all nodes, and
    ``inclusion`` the coordinate subspace of the free unknown space spanned
    by the interior unknowns, held as their indices (zero-extension embeds
    ``small``'s domain there).  Boundary-data and flux-data problems take
    ``big`` and ``inclusion``: the operator with boundary conditions is
    ``big`` restricted to the inclusion, a slice of its columns.
    """
    if spec.family not in _PAIR_BUILDERS:
        raise ConstructionError(
            f"operator pairs exist for {tuple(_PAIR_BUILDERS)}, not {spec.family!r}"
        )
    if any(s < 3 for s in spec.shape):
        raise ConstructionError("pair grids need every extent >= 3")
    interior = tuple(s - 2 for s in spec.shape)
    builder, components = _PAIR_BUILDERS[spec.family]
    # the whole grid is the interior's ghost grid: one free build serves both
    free = builder(spec.shape, spec.h)
    small = BuiltOperator(LinearMap(_zero_boundary_from_free(free, interior,
                                                             components)))
    big = BuiltOperator(LinearMap(free))
    return small, big, _Coordinates(free.shape[1],
                                    _interior_columns(interior, components))


def negative_adjoint(m) -> LinearMap:
    """Discrete divergence convention: the negative transpose of a gradient."""
    if isinstance(m, BuiltOperator):
        m = m.matrix
    if not isinstance(m, LinearMap):
        m = LinearMap(m)
    return LinearMap(-m.matrix.T)
