"""Subspaces, restricted operators, and the norm scale they generate.

The central object is the restriction of a matrix to the orthogonal
complement of its kernel, mapped onto its range.  That restriction is
invertible, and it powers a three-level norm scale: the graph norm |Ax|
above, the plain Euclidean norm in the middle, and a dual norm below.
Every rank decision follows one relative rule (``RANK_TOL``), which no
caller sets.  The restriction is factored once per map, and no inverse is
ever assembled.  Small maps are factored by a dense thin SVD, so dual-norm
quantities and restricted inverses divide by its singular values in the
singular bases.  An injective, well-conditioned map of mid size or more is
factored instead by one sparse LU of its normal matrix A^T A (see
``restrict_operator``).  Either factorization also gives lambda_min(A^T A)
on the kernel complement, from which the graph-norm embedding constant of
A itself is read (``embedding_constant``).

Matrices are held dense (``LinearMap``); sparse input is accepted and
converted.  Only the normal-equation restriction works on CSR copies.
"""

from __future__ import annotations

import enum
import logging
import os

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

from .errors import DomainError, InputError

# The one rank rule: singular values below RANK_TOL * sigma_max count as zero.
# It also bounds the off-subspace component the solve methods accept.
RANK_TOL = 1e-10

_log = logging.getLogger(__name__)


def _as_array_1d(x, dim=None, name="vector"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"{name} has length {v.shape[0]}, expected {dim}")
    return v


class LinearMap:
    """Real matrix with explicit domain (cols) and codomain (rows) dimensions.

    Accepts dense array-likes or scipy sparse matrices; entries must be
    finite and real.  Instances are immutable, so each caches the factors
    of its restriction in ``_factors`` (see ``restrict_operator``), and its
    compositions with inclusion subspaces in ``_composed`` (see
    ``solver._composed``), keyed by the subspace.
    """

    __slots__ = ("_a", "_factors", "_composed")

    def __init__(self, entries):
        owned = scipy.sparse.issparse(entries)  # densified here: no caller holds it
        if owned:
            entries = entries.toarray()
        try:
            entries = np.asarray(entries)
            a = None if np.iscomplexobj(entries) else np.asarray(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"matrix entries must be real numbers ({exc})") from exc
        if a is None:
            raise InputError("complex entries are not supported; the scalar field is real")
        if a.ndim != 2:
            raise InputError(f"expected a matrix, got an array of shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix entries must be finite")
        if not owned:
            a = a.copy()
        a.flags.writeable = False
        self._a = a
        self._factors = None
        self._composed = {}

    @property
    def matrix(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self):
        return self._a.shape

    def __repr__(self):
        return f"LinearMap({self.rows}x{self.cols})"


def as_linear_map(value) -> LinearMap:
    """Coerce a LinearMap, dense array, or sparse matrix into a LinearMap."""
    if isinstance(value, LinearMap):
        return value
    return LinearMap(value)


class _Projector:
    """Membership checks shared by every orthogonal projector onto a subspace.

    Subclasses provide ``project`` and ``ambient_dim``.
    """

    __slots__ = ()

    def membership_residual(self, x) -> float:
        x = _as_array_1d(x, self.ambient_dim, "x")
        return float(np.linalg.norm(x - self.project(x)))

    def require(self, x, tol, what, code=None) -> None:
        """Raise ``DomainError`` unless |x - P x| <= tol * max(1, |x|)."""
        resid = self.membership_residual(x)
        if resid > tol * max(1.0, float(np.linalg.norm(x))):
            raise DomainError(f"{what} (off-subspace component {resid:.3e})", code=code)


class Subspace(_Projector):
    """Subspace of R^n stored as an (n, k) matrix with orthonormal columns."""

    __slots__ = ("_basis",)

    def __init__(self, ambient_dim, basis):
        b = np.asarray(basis, dtype=float)
        if b.size == 0:
            b = b.reshape(ambient_dim, 0)
        if b.ndim != 2 or b.shape[0] != ambient_dim:
            raise InputError(
                f"basis must be an ({ambient_dim}, k) array, got shape {b.shape}"
            )
        if b.shape[1] > ambient_dim:
            raise InputError("more basis vectors than ambient dimensions")
        if b.shape[1]:
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-12:
                raise InputError("basis columns must be orthonormal (to 1e-12)")
        self._store(b)

    def _store(self, b):
        b = b.copy()
        b.flags.writeable = False
        self._basis = b

    @classmethod
    def _orthonormal(cls, basis) -> "Subspace":
        """Wrap columns that are orthonormal by construction (singular
        vectors from LAPACK, distinct unit vectors), without the Gram check
        of ``__init__``."""
        sub = cls.__new__(cls)
        sub._store(basis)
        return sub

    @classmethod
    def full(cls, n) -> "Subspace":
        return _WholeSpace(n)

    @classmethod
    def zero(cls, n) -> "Subspace":
        return cls(n, np.zeros((n, 0)))

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def ambient_dim(self) -> int:
        return self._basis.shape[0]

    @property
    def dim(self) -> int:
        return self._basis.shape[1]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of ``x`` onto the subspace."""
        x = _as_array_1d(x, self.ambient_dim, "x")
        if self.dim == 0:
            return np.zeros_like(x)
        return self._basis @ (self._basis.T @ x)

    def from_coords(self, z) -> np.ndarray:
        """The vector ``basis @ z`` with coordinates ``z`` in the basis."""
        return self._basis @ z

    def __repr__(self):
        return f"Subspace(dim={self.dim} of R^{self.ambient_dim})"


class _WholeSpace(Subspace):
    """R^n itself: the projection is the identity, and the identity basis
    is built only when it is read."""

    __slots__ = ("_n",)

    def __init__(self, n):
        self._n, self._basis = int(n), None

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = np.eye(self._n)
            self._basis.flags.writeable = False
        return self._basis

    @property
    def ambient_dim(self) -> int:
        return self._n

    dim = ambient_dim

    def project(self, x) -> np.ndarray:
        return _as_array_1d(x, self._n, "x").copy()

    def from_coords(self, z) -> np.ndarray:
        return np.array(z, dtype=float)


class SobolevNormKind(enum.Enum):
    """Norms of the scale attached to a restricted operator (or a square map)."""

    H1_B = "h1_b"
    H0 = "h0"
    HM1_B = "hm1_b"
    H1_C_PLUS_I = "h1_c_plus_i"
    HM1_C_PLUS_I = "hm1_c_plus_i"


def _rank_svd(a):
    """SVD of ``a`` with its numerical rank under the ``RANK_TOL`` rule.

    U is thin; Vh is square when ``a`` is wide, as the kernel needs.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size else 0
    return u, s, vh, rank


def kernel_basis(m) -> Subspace:
    """Orthonormal basis of the null space of ``m``.

    Rank decisions use a relative rule: singular values below
    ``RANK_TOL * sigma_max`` count as zero.
    """
    _, _, vh, rank = _rank_svd(as_linear_map(m).matrix)
    return Subspace._orthonormal(vh[rank:].T)


class RestrictedOperator:
    """A matrix restricted to its kernel complement, onto its range.

    Holds orthonormal bases of the kernel, the range and the kernel
    complement (``ran_adj``), and the singular values ``sv`` of the
    restriction: in the coordinates of ``ran_adj`` and ``ran`` it is the
    invertible diagonal matrix ``diag(sv)``.  The smallest singular value
    is the discrete constant in |x| <= |Ax| / sv[-1] on the kernel
    complement.

    The solve methods take arguments already checked to lie in their
    spaces (``b_star_inverse``, ``b_inverse`` and ``sobolev_norm`` check).
    """

    __slots__ = ("full_map", "ker", "ran", "ran_adj", "sv")

    def __init__(self, full_map, ker, ran, ran_adj, sv):
        self.full_map = as_linear_map(full_map)
        self.ker = ker
        self.ran = ran
        self.ran_adj = ran_adj
        self.sv = np.asarray(sv, dtype=float)
        if self.sv.shape != (ran.dim,) or ran.dim != ran_adj.dim:
            raise InputError("need one singular value per range and kernel-complement direction")
        if not np.all(self.sv > 0.0):
            raise InputError("restriction matrix is singular")

    @property
    def rank(self) -> int:
        return self.sv.shape[0]

    def pull_back(self, f) -> np.ndarray:
        """The w in the range with A^T w = f, for f in the kernel complement."""
        return self.ran.basis @ ((self.ran_adj.basis.T @ f) / self.sv)

    def push_forward(self, v) -> np.ndarray:
        """The u in the kernel complement with A u = v, for v in the range."""
        return self.ran_adj.basis @ ((self.ran.basis.T @ v) / self.sv)

    def dual_norm(self, x) -> float:
        """sqrt(<x, (A^T A)^+ x>) for x in the kernel complement."""
        return float(np.linalg.norm((self.ran_adj.basis.T @ x) / self.sv))

    def lambda_min(self) -> float:
        """Smallest eigenvalue of A^T A on the kernel complement."""
        return float(self.sv[-1] ** 2)

    def __repr__(self):
        return f"RestrictedOperator(rank={self.rank}, shape={self.full_map.shape})"


class _NormalRange(_Projector):
    """ran(A) of an injective A, projected through one sparse LU of G = A^T A.

    Holds CSR copies of A and A^T, the LU and the certified ``lambda_min``
    of G, never the ``LinearMap``: it is cached on that map, and a
    reference back would make a cycle.  It stores no basis of the range.
    """

    __slots__ = ("a", "at", "lu", "lambda_min")

    def __init__(self, a, at, lu, lambda_min):
        self.a, self.at, self.lu, self.lambda_min = a, at, lu, lambda_min

    @property
    def ambient_dim(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def project(self, x) -> np.ndarray:
        """Orthogonal projection A G^-1 A^T x onto the range."""
        x = _as_array_1d(x, self.ambient_dim, "x")
        return self.a @ self.lu.solve(self.at @ x)


class NormalRestriction:
    """The restriction of an injective matrix, held by a sparse LU of A^T A.

    With a trivial kernel the restriction is A itself, from all of R^n onto
    its range: ``ker`` is zero, ``ran_adj`` the whole domain, and ``ran``
    the range projector A G^-1 A^T (G = A^T A), which stores no basis.  The
    solve methods mirror ``RestrictedOperator``'s.
    """

    __slots__ = ("full_map", "ker", "ran", "ran_adj")

    def __init__(self, full_map, ker, ran, ran_adj):
        self.full_map = as_linear_map(full_map)
        self.ker = ker
        self.ran = ran
        self.ran_adj = ran_adj

    @property
    def rank(self) -> int:
        return self.ran.dim

    def pull_back(self, f) -> np.ndarray:
        return self.ran.a @ self.ran.lu.solve(f)

    def push_forward(self, v) -> np.ndarray:
        return self.ran.lu.solve(self.ran.at @ v)

    def dual_norm(self, x) -> float:
        return float(np.sqrt(max(float(x @ self.ran.lu.solve(x)), 0.0)))

    def lambda_min(self) -> float:
        """ARPACK's lambda_min(A^T A), not below the true one up to rounding:
        it is the inverse of a Ritz value of (A^T A)^-1, which bounds that
        operator's largest eigenvalue from below."""
        return self.ran.lambda_min

    def __repr__(self):
        return f"NormalRestriction(rank={self.rank}, shape={self.full_map.shape})"


# Maps with fewer dense entries (rows * cols) keep the SVD, the reference
# path, and its results bit for bit.  From about 60k entries up the LU is
# 3-8x cheaper to factor, and a DR iteration's range projection costs about
# the same through either path (20-45 us up to 140k entries).  Below that
# the two factorizations differ by less than 3x, while the dense projection
# is up to 2.5x cheaper (grad2d zero 10x10, 22k entries: 11 against 27 us),
# which a small map projected hundreds of times per factorization pays for
# (BENCH_dirichlet_sparse.json).
_NORMAL_MIN_ENTRIES = 60_000
# The LU path needs lambda_min(G) >= _NORMAL_MIN_RATIO * (Gershgorin bound
# of G).  Then cond(G) <= 1e4, so the normal-equation solves keep about 12
# digits, and sigma_min >= 1e-2 * sigma_max, so the SVD rule (RANK_TOL is
# far below 1e-2) finds full rank as well.
_NORMAL_MIN_RATIO = 1e-4


def _normal_range(a):
    """Factor ``a`` through A^T A if the gate of ``restrict_operator`` admits it.

    Returns ``(_NormalRange, None)``, ``(None, None)`` for a map the gate
    does not consider (too small), or ``(None, reason)`` for one it rejects.
    """
    rows, cols = a.shape
    if a.size < _NORMAL_MIN_ENTRIES:
        return None, None
    if not 2 <= cols <= rows:
        return None, f"shape {rows}x{cols} is not tall"
    # imported here, not at module level: runs on small maps never need it
    import scipy.sparse.linalg

    a_csr = scipy.sparse.csr_array(a)
    at = a_csr.T.tocsr()
    g = (at @ a_csr).tocsc()
    try:  # G is symmetric positive definite when A is injective: no pivoting
        lu = scipy.sparse.linalg.splu(g, permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular pivot
        return None, f"SuperLU: {exc}"
    # largest eigenvalue of G^-1, from a fixed start so that it repeats bitwise
    inv = scipy.sparse.linalg.LinearOperator(g.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(cols)
    try:
        mu = float(scipy.sparse.linalg.eigsh(inv, k=1, v0=v0,
                                             return_eigenvectors=False)[0])
    except scipy.sparse.linalg.ArpackError as exc:  # no convergence, among others
        return None, f"ARPACK: {exc}"
    bound = float(abs(g).sum(axis=0).max())
    lam_min = 1.0 / mu if mu > 0.0 else 0.0
    if not lam_min >= _NORMAL_MIN_RATIO * bound:
        return None, (f"lambda_min(A^T A) = {lam_min:.3e} is below "
                      f"{_NORMAL_MIN_RATIO:g} x its Gershgorin bound {bound:.3e}")
    return _NormalRange(a_csr, at, lu, lam_min), None


def restrict_operator(m):
    """Build the invertible restriction of ``m``, factored once per map.

    A map with at least ``_NORMAL_MIN_ENTRIES`` dense entries and at least
    as many rows as columns is tried on the sparse path: an LU of A^T A
    that SuperLU completes, and ARPACK's lambda_min(A^T A) at least
    ``_NORMAL_MIN_RATIO`` times its Gershgorin bound, give a
    ``NormalRestriction``.  Every other map gets a ``RestrictedOperator``
    from one thin SVD; a tried map that falls back logs why.  The choice
    depends on the map alone and repeats bitwise.

    The factors are cached on the map; they hold no reference back to it.
    The zero map yields a 0-dimensional restriction, which is vacuously
    invertible; every derived solve then returns the zero vector.
    """
    lm = as_linear_map(m)
    if lm._factors is None:
        lm._factors = _factor(lm.matrix)
    if isinstance(lm._factors[1], _NormalRange):
        return NormalRestriction(lm, *lm._factors)
    return RestrictedOperator(lm, *lm._factors)


def _factor(a):
    """The cached factors of ``restrict_operator``: (ker, ran, ran_adj[, sv])."""
    rows, cols = a.shape
    ran, reason = _normal_range(a)
    if ran is not None:
        return Subspace.zero(cols), ran, Subspace.full(cols)
    if reason is not None:
        _log.info("restriction of a %dx%d map falls back to the SVD: %s",
                  rows, cols, reason)
    u, s, vh, rank = _rank_svd(a)
    sv = s[:rank].copy()
    sv.flags.writeable = False
    return (
        Subspace._orthonormal(vh[rank:].T),
        Subspace._orthonormal(u[:, :rank]),
        Subspace._orthonormal(vh[:rank].T),
        sv,
    )


def sobolev_norm(ctx, kind, x, cmap=None) -> float:
    """Evaluate one norm of the scale.

    Parameters
    ----------
    ctx : RestrictedOperator, NormalRestriction or None
        Required for the B-based kinds; ignored by the C-based ones.
    kind : SobolevNormKind or str
        Which level of the scale to evaluate.
    x : array_like
        For the B-based kinds, ``x`` must lie in the kernel complement of
        the restricted operator (checked against ``RANK_TOL``).
    cmap : LinearMap, optional
        The square-or-rectangular map defining the C-based kinds.
    """
    kind = SobolevNormKind(kind)
    x = np.asarray(x, dtype=float)
    if kind is SobolevNormKind.H0:
        return float(np.linalg.norm(x))
    if kind in (SobolevNormKind.H1_C_PLUS_I, SobolevNormKind.HM1_C_PLUS_I):
        if cmap is None:
            raise InputError(f"{kind.value} needs the map C")
        cmap = as_linear_map(cmap)
        x = _as_array_1d(x, cmap.cols, "x")
        if kind is SobolevNormKind.H1_C_PLUS_I:
            return float(np.hypot(np.linalg.norm(cmap.matrix @ x), np.linalg.norm(x)))
        # dual norm: sqrt(<x, (C^T C + I)^{-1} x>) through a Cholesky solve
        g = cmap.matrix.T @ cmap.matrix + np.eye(cmap.cols)
        y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), x)
        return float(np.sqrt(max(float(x @ y), 0.0)))
    if ctx is None:
        raise InputError(f"{kind.value} needs a RestrictedOperator context")
    x = _as_array_1d(x, ctx.full_map.cols, "x")
    ctx.ran_adj.require(x, RANK_TOL, "x must lie in the kernel complement")
    if kind is SobolevNormKind.H1_B:
        return float(np.linalg.norm(ctx.full_map.matrix @ x))
    return ctx.dual_norm(x)  # HM1_B: sqrt(<x, (B^T B)^{-1} x>)


def b_star_inverse(ctx, f) -> np.ndarray:
    """Unique w in the range of A with A^T w = f, for f in the kernel complement."""
    f = _as_array_1d(f, ctx.full_map.cols, "f")
    ctx.ran_adj.require(f, RANK_TOL, "f has a component in the kernel of A",
                        code="rhs_not_in_H_minus_1")
    return ctx.pull_back(f)


def b_inverse(ctx, v) -> np.ndarray:
    """Unique u in the kernel complement with A u = v, for v in the range of A."""
    v = _as_array_1d(v, ctx.full_map.rows, "v")
    ctx.ran.require(v, RANK_TOL, "v has a component outside the range of A")
    return ctx.push_forward(v)


def embedding_constant(ctx, cmap) -> float:
    """Smallest L with sqrt(|Cx|^2 + |x|^2) <= L * |Ax| on the kernel complement.

    Solves the generalized eigenproblem (C^T C + I) x = lam A^T A x restricted
    to the kernel complement; the caller guarantees that C agrees with A
    there (C composed with the domain embedding, where one applies).  For
    C = A itself (``cmap is ctx.full_map``) the eigenvalues are
    1 + 1/lambda(A^T A), so L = sqrt(1 + 1/lambda_min) is read off the
    restriction.
    """
    cmap = as_linear_map(cmap)
    r = ctx.rank
    if r == 0:
        return 0.0
    if cmap is ctx.full_map:
        return float(np.sqrt(1.0 + 1.0 / ctx.lambda_min()))
    q1 = ctx.ran_adj.basis
    cq = cmap.matrix @ q1
    aq = ctx.full_map.matrix @ q1
    g_top = cq.T @ cq + np.eye(r)
    g_bot = aq.T @ aq
    vals = scipy.linalg.eigh(g_top, g_bot, eigvals_only=True)
    return float(np.sqrt(max(float(vals[-1]), 0.0)))


def read_matrix_market(path):
    """Read a real, finite Matrix Market matrix as scipy returns it (sparse
    for coordinate files), without densifying it."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such Matrix Market file: {path}")
    try:
        m = scipy.io.mmread(path)
    except Exception as exc:  # scipy raises bare ValueError/TypeError on bad files
        raise InputError(f"cannot parse Matrix Market file {path}: {exc}") from exc
    if np.iscomplexobj(m):
        raise InputError(f"{path}: complex matrices are not supported")
    if not np.all(np.isfinite(m.data if scipy.sparse.issparse(m) else m)):
        raise InputError("matrix entries must be finite")
    return m


def load_matrix_market(path) -> LinearMap:
    """Read a real general matrix in Matrix Market format as a LinearMap."""
    return LinearMap(read_matrix_market(path))
