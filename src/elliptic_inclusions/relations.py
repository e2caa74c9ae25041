"""Strongly monotone relations and their resolvent calculus.

A relation here pairs x with c*x + b(x) where c > 0 and b is maximal
monotone; it is stored through the resolvent family of the base part b,
a total nonexpansive map for every positive step.  Everything else is
resolvent algebra: inversion is a single evaluation, shifting rewrites the
resolvent argument, and composing with an orthogonal projection is
inverted by Douglas-Rachford iteration in which the projection is the
second resolvent.  That iteration is accelerated by safeguarded type-II
Anderson extrapolation, which never costs an extra evaluation of the
Douglas-Rachford map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import ConstructionError, ConvergenceError, InputError
from .hilbert_core import Subspace, as_linear_map

DEFAULT_PROJECTED_TOL = 1e-10
DEFAULT_MAX_ITER = 100000

_SCALAR_ROOT_TOL = 1e-14
_SCALAR_ROOT_FLOOR = 1e-300
# make_linear rejects a monotonicity constant c at or below this floor
_LINEAR_C_FLOOR = 1e-10
# sampled entries (trials * 2 * dim) per inverse call of the monotonicity
# probe; bounds the probe's working memory whatever the trial count
_PROBE_BLOCK_ENTRIES = 4096
# Anderson-accelerated Douglas-Rachford (see projected_inverse): iterates
# remembered; Tikhonov weight relative to the trace of the residual Gram
# matrix; the safeguard envelope's D and exponent -(1 + eps); and the
# gap ratio below which plain DR is fast enough to keep.  Measured over
# seeded random problems up to 9 rows and on grid problems
_ANDERSON_MEMORY = 5
_ANDERSON_REGULARIZATION = 1e-10
_SAFEGUARD_SCALE = 1e6
_SAFEGUARD_DECAY = -(1.0 + 1e-6)
_ANDERSON_SLOW_RATE = 0.4


# ---------------------------------------------------------------------------
# scalar graphs


@dataclass(frozen=True)
class Linear:
    """Line through the origin with slope >= 0."""

    slope: float

    def __post_init__(self):
        if not (self.slope >= 0.0):
            raise ConstructionError("Linear slope must be >= 0")


@dataclass(frozen=True)
class Sign:
    """Multi-valued sign: -1 below zero, +1 above, the interval [-1, 1] at 0."""


@dataclass(frozen=True)
class Power:
    """s -> |s|^(p-2) s for an exponent p > 1."""

    exponent: float

    def __post_init__(self):
        if not (self.exponent > 1.0):
            raise ConstructionError("Power exponent must be > 1")


@dataclass(frozen=True)
class Clamp:
    """Saturation s -> min(max(s, lo), hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ConstructionError("Clamp needs lo <= hi")


@dataclass(frozen=True)
class Relay:
    """Jump of height h >= 0 at the origin: 0 below, h above, [0, h] at 0."""

    height: float

    def __post_init__(self):
        if not (self.height >= 0.0):
            raise ConstructionError("Relay height must be >= 0")


def _power_base_resolvent(p, mu, z):
    """Solve s + mu*|s|^(p-2)*s = z coordinatewise by safeguarded Newton.

    Every coordinate runs the same scalar method on t = |z|, all of them in
    one array pass: the root lies in [0, hi] with hi = min(t, (t/mu)^(1/(p-1)))
    because mu*s^(p-1) <= t there; start at t/(1+mu) (clipped to hi), take
    the Newton step when it stays inside the bracket and bisect otherwise,
    and stop on |g| <= _SCALAR_ROOT_TOL*min(t, 1) (floored at
    _SCALAR_ROOT_FLOOR) or a bracket narrower than _SCALAR_ROOT_TOL*hi; both
    stops are relative, so tiny roots are resolved too.  A coordinate that
    meets its stop is frozen.
    """
    if mu == 0.0:
        return z.copy()
    t = np.abs(z)
    e1, e2, k = p - 1.0, p - 2.0, mu * (p - 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo = np.zeros_like(t)
        hi = np.minimum(t, (t / mu) ** (1.0 / e1))
        g_tol = np.maximum(_SCALAR_ROOT_TOL * np.minimum(t, 1.0), _SCALAR_ROOT_FLOOR)
        s = np.minimum(t / (1.0 + mu), hi)
        active = np.ones(t.shape, dtype=bool)
        for _ in range(200):
            g = s + mu * s ** e1 - t
            active &= np.abs(g) > g_tol  # NaN input stops here
            above = g > 0.0
            np.copyto(hi, s, where=active & above)
            np.copyto(lo, s, where=active > above)
            active &= hi - lo > _SCALAR_ROOT_TOL * hi
            if not active.any():
                break
            cand = s - g / (1.0 + k * s ** e2)
            # a NaN or infinite candidate fails the bracket test too
            newton = (s > 0.0) & (cand > lo) & (cand < hi)
            np.copyto(s, np.where(newton, cand, 0.5 * (lo + hi)), where=active)
    return np.copysign(s, z)


def graph_base_resolvent(graph, mu, z):
    """Vectorized solve of s + mu * graph(s) in z, over the whole array at once."""
    z = np.asarray(z, dtype=float)
    if isinstance(graph, Linear):
        return z / (1.0 + mu * graph.slope)
    if isinstance(graph, Sign):
        return np.sign(z) * np.maximum(np.abs(z) - mu, 0.0)
    if isinstance(graph, Clamp):
        lo, hi = graph.lo, graph.hi
        return np.where(
            z <= lo * (1.0 + mu),
            z - mu * lo,
            np.where(z >= hi * (1.0 + mu), z - mu * hi, z / (1.0 + mu)),
        )
    if isinstance(graph, Relay):
        h = graph.height
        return np.where(z < 0.0, z, np.where(z > mu * h, z - mu * h, 0.0))
    if isinstance(graph, Power):
        out = _power_base_resolvent(graph.exponent, mu, np.atleast_1d(z))
        return out if z.ndim else float(out[0])
    raise InputError(f"unknown scalar graph {graph!r}")


# ---------------------------------------------------------------------------
# relation descriptors


class LinearDescriptor:
    """Single-valued linear relation x -> M x with positive definite symmetric part."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = matrix


class DiagonalDescriptor:
    """Coordinatewise relation c*x_i + graph_i(x_i)."""

    __slots__ = ("graphs",)

    def __init__(self, graphs):
        self.graphs = tuple(graphs)


@dataclass
class GraphPoint:
    """A candidate membership pair; residual is zero exactly when it belongs.

    A pair found by ``projected_inverse`` also records the Douglas-Rachford
    evaluations (``iterations``), its accepted and rejected extrapolations,
    and its final iterate ``dr_state``.
    """

    x: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int | None = None
    accepted: int = 0
    rejected: int = 0
    dr_state: np.ndarray | None = field(default=None, repr=False)


@dataclass
class MonotonicityReport:
    passed: bool
    min_quotient: float | None  # None when no sampled pair was kept
    violations: int
    trials: int
    c: float


class Relation:
    """c-strongly monotone relation represented by base-part resolvents.

    ``base_resolvent(mu, z)`` must evaluate the resolvent of the monotone
    base part b at step mu > 0, defined for every z (a quick nonexpansiveness
    probe runs at construction unless ``validate=False``).  It is called with
    (dim,) vectors only, unless ``columnwise=True`` declares that it also maps
    a (dim, k) block column by column; then a block is passed in one call.
    """

    __slots__ = ("dim", "c", "base_resolvent", "descriptor", "columnwise")

    def __init__(self, dim, c, base_resolvent, descriptor=None, validate=True,
                 columnwise=False):
        if dim < 1:
            raise ConstructionError("relation dimension must be positive")
        if not (0.0 < c < np.inf):
            raise ConstructionError(
                "monotonicity constant c must be positive and finite")
        self.dim = int(dim)
        self.c = float(c)
        self.base_resolvent = base_resolvent
        self.descriptor = descriptor
        self.columnwise = bool(columnwise)
        if validate:
            self._probe_nonexpansive()

    def _probe_nonexpansive(self):
        rng = np.random.default_rng(0)
        for mu in (0.1, 1.0, 10.0):
            for _ in range(3):
                z1 = rng.standard_normal(self.dim)
                z2 = rng.standard_normal(self.dim)
                gap = np.linalg.norm(
                    np.asarray(self.base_resolvent(mu, z1))
                    - np.asarray(self.base_resolvent(mu, z2))
                )
                if gap > np.linalg.norm(z1 - z2) + 1e-9:
                    raise ConstructionError(
                        "base resolvent is not nonexpansive; the base part "
                        "is not monotone"
                    )

    def _check_dim(self, v, name, block=False):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,) and not (
            block and v.ndim == 2 and v.shape[0] == self.dim
        ):
            expected = f"({self.dim},) or ({self.dim}, k)" if block else f"({self.dim},)"
            raise InputError(f"{name} has shape {v.shape}, expected {expected}")
        return v

    def resolvent(self, lam, z) -> np.ndarray:
        """(1 + lam*a)^{-1} z, total for every lam > 0."""
        if not (lam > 0.0):
            raise InputError("resolvent step must be positive")
        z = self._check_dim(z, "z")
        factor = 1.0 + lam * self.c
        return np.asarray(self.base_resolvent(lam / factor, z / factor), dtype=float)

    def inverse(self, y) -> np.ndarray:
        """The unique x with y in a(x); Lipschitz with constant 1/c.

        A (dim, k) block is inverted column by column: in one call of a
        ``columnwise`` base resolvent, one call per column otherwise.
        """
        y = self._check_dim(y, "y", block=True)
        if y.ndim == 1 or self.columnwise:
            return np.asarray(self.base_resolvent(1.0 / self.c, y / self.c), dtype=float)
        out = np.empty_like(y)
        for j in range(y.shape[1]):
            out[:, j] = self.inverse(y[:, j])
        return out

    def graph_residual(self, x, y) -> float:
        """|x - J_{1/c}(a)(x + y/c)|; zero exactly on membership pairs."""
        x = self._check_dim(x, "x")
        y = self._check_dim(y, "y")
        return float(np.linalg.norm(x - self.resolvent(1.0 / self.c, x + y / self.c)))

    def shift(self, p, q) -> "Relation":
        """The relation {(x - p, y - q)}; same dimension, same constant c."""
        p = self._check_dim(p, "p")
        q = self._check_dim(q, "q")
        base = self.base_resolvent
        c = self.c
        offset = q - c * p

        def shifted_base(mu, z):
            z = np.asarray(z)
            # p and the offset run along axis 0, so a (dim, k) block shifts
            # every column
            col = (-1,) + (1,) * (z.ndim - 1)
            pc = p.reshape(col)
            return np.asarray(base(mu, z + pc + mu * offset.reshape(col))) - pc

        return Relation(self.dim, c, shifted_base, validate=False,
                        columnwise=self.columnwise)

    def __repr__(self):
        return f"Relation(dim={self.dim}, c={self.c})"


def make_linear(m) -> Relation:
    """Relation x -> M x for square M whose symmetric part is positive definite.

    M may be dense, scipy sparse or a LinearMap; it is held as a CSC matrix
    (the descriptor keeps a dense LinearMap for the oracle and the estimate
    checks).  The monotonicity constant is the smallest eigenvalue of
    (M + M^T)/2, found by shift-invert Lanczos from a shift below the
    Gershgorin bound, so the eigenvalue nearest the shift is the smallest one
    even for an indefinite symmetric part.  The base resolvent is a sparse LU
    of I + mu*(M - c I), built on demand and cached per step size.
    """
    # imported here, not at module level: runs without a linear relation
    # would pay its import time for nothing
    import scipy.sparse.linalg

    lm = as_linear_map(m)
    if lm.rows != lm.cols:
        raise ConstructionError("linear relation needs a square matrix")
    dim = lm.rows
    mat = scipy.sparse.csc_array(lm.matrix)
    sym = 0.5 * (mat + mat.T)
    diag = sym.diagonal()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked next
        radii = abs(sym).sum(axis=1) - np.abs(diag)
        lower, upper = np.min(diag - radii), np.max(diag + radii)
    if not (np.isfinite(lower) and np.isfinite(upper)):
        raise ConstructionError(
            "symmetric part overflows (an entry or a Gershgorin row sum is not finite)"
        )
    if dim == 1:  # ARPACK needs dim >= 2
        c = float(diag[0])
    else:
        # every eigenvalue lies in [lower, upper]; the margin keeps sym - sigma I
        # well conditioned (the floor covers a zero symmetric part), and a
        # fixed start vector keeps c bitwise repeatable
        sigma = lower - 0.01 * max(-lower, upper, _LINEAR_C_FLOOR)
        v0 = np.random.default_rng(0).standard_normal(dim)
        c = float(scipy.sparse.linalg.eigsh(
            sym, k=1, sigma=sigma, v0=v0, return_eigenvectors=False)[0])
    if c <= _LINEAR_C_FLOOR:
        raise ConstructionError(
            f"symmetric part must be positive definite (smallest eigenvalue {c:.3e})"
        )
    eye = scipy.sparse.eye_array(dim, format="csc")
    base_mat = mat - c * eye
    cache: dict = {}

    def base(mu, z):
        key = float(mu)
        lu = cache.get(key)
        if lu is None:
            lu = cache[key] = scipy.sparse.linalg.splu(eye + key * base_mat)
        return lu.solve(np.asarray(z, dtype=float))

    return Relation(
        dim, c, base, descriptor=LinearDescriptor(lm), validate=False, columnwise=True
    )


def make_diagonal(c, graphs) -> Relation:
    """Coordinatewise relation c*x_i + graph_i(x_i) from a list of scalar graphs."""
    graphs = tuple(graphs)
    if not graphs:
        raise ConstructionError("need at least one scalar graph")
    for g in graphs:
        if not isinstance(g, (Linear, Sign, Power, Clamp, Relay)):
            raise ConstructionError(f"unknown scalar graph {g!r}")
    # group equal graphs so the base resolvent runs vectorized per group
    groups: dict = {}
    for i, g in enumerate(graphs):
        groups.setdefault(g, []).append(i)
    grouped = [(g, np.array(idx, dtype=int)) for g, idx in groups.items()]

    def base(mu, z):
        z = np.asarray(z, dtype=float)
        out = np.empty_like(z)
        for g, idx in grouped:
            out[idx] = graph_base_resolvent(g, mu, z[idx])
        return out

    return Relation(
        len(graphs), float(c), base,
        descriptor=DiagonalDescriptor(graphs), validate=False, columnwise=True,
    )


class _Anderson:
    """Type-II Anderson extrapolation of a fixed-point map T(s) = s + g(s).

    The differences of T-values and of residuals between consecutive
    iterates fill (n, memory) ring buffers, and the Gram matrix of the
    residual differences gains one row and column per ``push``.  An
    extrapolation then solves a Tikhonov-regularized memory x memory system
    and never factors an n-row array.
    """

    __slots__ = ("dt", "dg", "gram", "eye", "size", "head", "prev")

    def __init__(self, n, memory):
        # column-major, so each stored difference is one contiguous column
        self.dt = np.empty((n, memory), order="F")
        self.dg = np.empty((n, memory), order="F")
        self.gram = np.empty((memory, memory))
        self.eye = np.eye(memory)
        self.size = self.head = 0
        self.prev = None

    def push(self, t, g):
        """Record the next iterate through its T-value t and residual g."""
        if self.prev is not None:
            pt, pg = self.prev
            j = self.head
            dg = self.dg[:, j]
            np.subtract(g, pg, out=dg)
            np.subtract(t, pt, out=self.dt[:, j])
            self.size = min(self.size + 1, self.dg.shape[1])
            self.head = (j + 1) % self.dg.shape[1]
            row = self.dg[:, :self.size].T @ dg
            self.gram[j, :self.size] = row
            self.gram[:self.size, j] = row
        self.prev = (t, g)

    def clear(self):
        """Forget the differences; the last iterate stays as the base."""
        self.size = self.head = 0

    def extrapolate(self, t, g):
        """T(s) = t minus its least-squares correction; None without history."""
        k = self.size
        gram = self.gram[:k, :k]
        trace = float(gram.trace())
        if not trace > 0.0:  # no history, or residuals that stopped moving
            return None
        gram = gram + (_ANDERSON_REGULARIZATION * trace) * self.eye[:k, :k]
        gamma = np.linalg.solve(gram, self.dg[:, :k].T @ g)
        return t - self.dt[:, :k] @ gamma


def projected_inverse(
    relation: Relation,
    subspace: Subspace,
    w,
    tol=DEFAULT_PROJECTED_TOL,
    max_iter=DEFAULT_MAX_ITER,
    s0=None,
) -> GraphPoint:
    """Solve w in P a(x) with x in U, P the orthogonal projection onto U.

    ``subspace`` is a ``Subspace`` or any projector onto U with ``project``,
    ``require`` and ``ambient_dim``, such as a sparse restriction's range.

    Douglas-Rachford iteration on 0 in (a - (0, w))(x) + N_U(x): the normal
    cone resolvent is the projection, the other is the relation's resolvent
    at the step 1/c.  Strong monotonicity makes the solution unique.
    Returns the pair (x, v) with v in a(x) and P v = w, its graph residual,
    and the iteration count.

    The DR map T(s) = s + z - x is accelerated by type-II Anderson
    extrapolation with memory ``_ANDERSON_MEMORY`` (Fu, Zhang & Boyd 2020).
    The safeguard costs no evaluation of T: an extrapolated step is taken
    only while the gap |z - x| did not grow over the previous iterate, stays
    under the envelope D*gap_0*(n_AA + 1)^-(1 + eps) (Zhang, O'Donoghue &
    Boyd 2020; n_AA extrapolations so far), and plain DR is contracting
    slower than ``_ANDERSON_SLOW_RATE``.  An extrapolated point whose gap
    grew or left the envelope is rejected: the next step is plain and the
    memory is cleared (a non-finite one is dropped for the plain step it
    replaced).  ``iterations`` counts evaluations of T, ``accepted`` and
    ``rejected`` the judged extrapolations, and ``dr_state`` is the final
    DR iterate, a warm start for a nearby solve.
    """
    w = relation._check_dim(w, "w")
    if subspace.ambient_dim != relation.dim:
        raise InputError("subspace ambient dimension does not match the relation")
    subspace.require(w, tol, "w must lie in the projection subspace")
    lam = 1.0 / relation.c
    shifted = relation.shift(np.zeros_like(w), w)
    s = w.copy() if s0 is None else relation._check_dim(s0, "s0").copy()
    history = _Anderson(relation.dim, _ANDERSON_MEMORY)
    accepted = rejected = 0
    base = None  # T at the point s was extrapolated from, while s is extrapolated
    gap = np.inf
    for k in range(1, max_iter + 1):
        x = subspace.project(s)
        z = shifted.resolvent(lam, 2.0 * x - s)
        g = z - x
        gap_new = float(np.linalg.norm(g))
        if not np.isfinite(gap_new):
            if base is None:
                raise ConvergenceError(
                    f"projected inverse broke down at iteration {k} (gap {gap_new})",
                    residual=gap_new,
                    iterations=k,
                )
            # the extrapolated point broke down; the plain step is safe
            rejected += 1
            history.clear()
            s, base = base, None
            continue
        gap_prev, gap = gap, gap_new
        t = s + z - x
        if k == 1:  # a first gap that is not finite has raised above
            envelope = _SAFEGUARD_SCALE * gap
        grew = gap > gap_prev \
            or gap > envelope * (accepted + rejected + 1) ** _SAFEGUARD_DECAY
        if base is not None:  # judge the extrapolation that led here
            if grew:
                rejected += 1
            else:
                accepted += 1
            base = None
        if gap <= tol:
            x_out = subspace.project(t)
            v = w + (x_out - t) / lam
            return GraphPoint(
                x_out, v, relation.graph_residual(x_out, v), iterations=k,
                accepted=accepted, rejected=rejected, dr_state=t,
            )
        history.push(t, g)
        if grew:
            history.clear()
        elif gap > _ANDERSON_SLOW_RATE * gap_prev:
            candidate = history.extrapolate(t, g)
            if candidate is not None:
                s, base = candidate, t
                continue
        s = t
    raise ConvergenceError(
        f"projected inverse did not converge in {max_iter} iterations "
        f"(last gap {gap:.3e})",
        residual=gap,
        iterations=max_iter,
    )


def monotonicity_probe(relation: Relation, trials=200, rng_seed=0) -> MonotonicityReport:
    """Sample membership pairs through the inverse and check strong monotonicity.

    Trial i draws y1, y2 from 3*N(0, I) (one generator, in trial order) and
    inverts both; trials run in column blocks of at most _PROBE_BLOCK_ENTRIES
    sampled entries, one ``inverse`` call per block.  The inverse is
    1/c-Lipschitz, so pairs with |x1 - x2| below 1e-12 |y1 - y2| / c are
    skipped as rounding-level.  A violation of <x1 - x2, y1 - y2> >=
    c|x1 - x2|^2 - 1e-9 min(1, |x1 - x2| |y1 - y2|), a slack relative for
    small pairs, is reported, not raised; the report carries the smallest
    observed quotient.  A probe that keeps no
    pair shows nothing and does not pass.  A non-finite inverse raises
    ConstructionError: the relation is not what it claims to be.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dim, c = relation.dim, relation.c
    per_block = max(1, _PROBE_BLOCK_ENTRIES // (2 * dim))
    min_quotient = np.inf
    violations = pairs = 0
    for start in range(0, trials, per_block):
        k = min(per_block, trials - start)
        ys = 3.0 * rng.standard_normal((k, 2, dim))  # trial i: y1, y2 = ys[i]
        xs = relation.inverse(ys.reshape(2 * k, dim).T)
        if not np.all(np.isfinite(xs)):
            raise ConstructionError(
                "relation inverse is not finite on a sampled point"
            )
        xs = xs.T.reshape(k, 2, dim)
        dx = xs[:, 0] - xs[:, 1]
        dy = ys[:, 0] - ys[:, 1]
        nsq = np.einsum("ij,ij->i", dx, dx)
        inner = np.einsum("ij,ij->i", dx, dy)
        dsq = np.einsum("ij,ij->i", dy, dy)
        kept = nsq > (1e-12 / c) ** 2 * dsq
        pairs += int(np.count_nonzero(kept))
        nsq, inner, dsq = nsq[kept], inner[kept], dsq[kept]
        min_quotient = min(min_quotient, float(np.min(inner / nsq, initial=np.inf)))
        slack = 1e-9 * np.minimum(1.0, np.sqrt(nsq * dsq))
        violations += int(np.count_nonzero(inner < c * nsq - slack))
    return MonotonicityReport(
        passed=pairs > 0 and violations == 0,
        min_quotient=float(min_quotient) if pairs else None,
        violations=violations,
        trials=trials,
        c=c,
    )
