"""Strongly monotone relations and their resolvent calculus.

A relation here pairs x with c*x + b(x) where c > 0 and b is maximal
monotone; it is stored through the resolvent family of the base part b,
a total nonexpansive map for every positive step.  Everything else is
resolvent algebra: inversion is a single evaluation, shifting rewrites the
resolvent argument, and composing with an orthogonal projection is
inverted by Douglas-Rachford iteration in which the projection is the
second resolvent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConstructionError, ConvergenceError, DomainError, InputError
from .hilbert_core import Subspace, as_linear_map

DEFAULT_PROJECTED_TOL = 1e-10
DEFAULT_MAX_ITER = 100000

_SCALAR_ROOT_TOL = 1e-14


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
    and stop on |g| <= _SCALAR_ROOT_TOL or a bracket narrower than
    _SCALAR_ROOT_TOL*max(1, hi).  A coordinate that meets its stop is frozen.
    """
    if mu == 0.0:
        return z.copy()
    t = np.abs(z)
    e1, e2, k = p - 1.0, p - 2.0, mu * (p - 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lo = np.zeros_like(t)
        hi = np.minimum(t, (t / mu) ** (1.0 / e1))
        width_tol = _SCALAR_ROOT_TOL * np.maximum(1.0, hi)
        s = np.minimum(t / (1.0 + mu), hi)
        active = np.ones(t.shape, dtype=bool)
        for _ in range(200):
            g = s + mu * s ** e1 - t
            active &= np.abs(g) > _SCALAR_ROOT_TOL  # NaN input stops here
            above = g > 0.0
            np.copyto(hi, s, where=active & above)
            np.copyto(lo, s, where=active > above)
            active &= hi - lo > width_tol
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


class ShiftedDescriptor:
    """Relation translated in graph space by (p, q)."""

    __slots__ = ("base", "p", "q")

    def __init__(self, base, p, q):
        self.base = base
        self.p = p
        self.q = q


@dataclass
class GraphPoint:
    """A candidate membership pair; residual is zero exactly when it belongs."""

    x: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int | None = None


@dataclass
class MonotonicityReport:
    passed: bool
    min_quotient: float
    violations: int
    trials: int
    c: float


class Relation:
    """c-strongly monotone relation represented by base-part resolvents.

    ``base_resolvent(mu, z)`` must evaluate the resolvent of the monotone
    base part b at step mu > 0, defined for every z (a quick nonexpansiveness
    probe runs at construction unless ``validate=False``).
    """

    __slots__ = ("dim", "c", "base_resolvent", "descriptor")

    def __init__(self, dim, c, base_resolvent, descriptor=None, validate=True):
        if dim < 1:
            raise ConstructionError("relation dimension must be positive")
        if not (c > 0.0):
            raise ConstructionError("monotonicity constant c must be positive")
        self.dim = int(dim)
        self.c = float(c)
        self.base_resolvent = base_resolvent
        self.descriptor = descriptor
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

    def _check_dim(self, v, name):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise InputError(f"{name} has shape {v.shape}, expected ({self.dim},)")
        return v

    def resolvent(self, lam, z) -> np.ndarray:
        """(1 + lam*a)^{-1} z, total for every lam > 0."""
        if not (lam > 0.0):
            raise InputError("resolvent step must be positive")
        z = self._check_dim(z, "z")
        factor = 1.0 + lam * self.c
        return np.asarray(self.base_resolvent(lam / factor, z / factor), dtype=float)

    def inverse(self, y) -> np.ndarray:
        """The unique x with y in a(x); Lipschitz with constant 1/c."""
        y = self._check_dim(y, "y")
        return np.asarray(self.base_resolvent(1.0 / self.c, y / self.c), dtype=float)

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
            return np.asarray(base(mu, np.asarray(z) + p + mu * offset)) - p

        return Relation(
            self.dim, c, shifted_base,
            descriptor=ShiftedDescriptor(self, p, q), validate=False,
        )

    def __repr__(self):
        return f"Relation(dim={self.dim}, c={self.c})"


def make_linear(m, tol=1e-10) -> Relation:
    """Relation x -> M x for square M whose symmetric part is positive definite.

    The monotonicity constant is the smallest eigenvalue of (M + M^T)/2;
    the base resolvent factors I + mu*(M - c I) on demand and caches the
    factorization per step size.
    """
    lm = as_linear_map(m)
    if lm.rows != lm.cols:
        raise ConstructionError("linear relation needs a square matrix")
    mat = lm.matrix
    sym = 0.5 * (mat + mat.T)
    c = float(scipy.linalg.eigh(sym, eigvals_only=True)[0])
    if c <= tol:
        raise ConstructionError(
            f"symmetric part must be positive definite (smallest eigenvalue {c:.3e})"
        )
    dim = lm.rows
    base_mat = mat - c * np.eye(dim)
    cache: dict[float, tuple] = {}

    def base(mu, z):
        key = float(mu)
        lu = cache.get(key)
        if lu is None:
            lu = scipy.linalg.lu_factor(np.eye(dim) + key * base_mat)
            cache[key] = lu
        return scipy.linalg.lu_solve(lu, np.asarray(z, dtype=float))

    return Relation(dim, c, base, descriptor=LinearDescriptor(lm), validate=False)


def make_diagonal(c, graphs) -> Relation:
    """Coordinatewise relation c*x_i + graph_i(x_i) from a list of scalar graphs."""
    if not (c > 0.0):
        raise ConstructionError("monotonicity constant c must be positive")
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
        descriptor=DiagonalDescriptor(graphs), validate=False,
    )


def projected_inverse(
    relation: Relation,
    subspace: Subspace,
    w,
    lam=None,
    tol=DEFAULT_PROJECTED_TOL,
    max_iter=DEFAULT_MAX_ITER,
    s0=None,
) -> GraphPoint:
    """Solve w in P a(x) with x in U, P the orthogonal projection onto U.

    Douglas-Rachford iteration on 0 in (a - (0, w))(x) + N_U(x): the normal
    cone resolvent is the projection, the other resolvent comes from the
    relation.  Strong monotonicity makes the solution unique.  Returns the
    pair (x, v) with v in a(x) and P v = w, its graph residual, and the
    iteration count.
    """
    w = relation._check_dim(w, "w")
    if subspace.ambient_dim != relation.dim:
        raise InputError("subspace ambient dimension does not match the relation")
    wnorm = float(np.linalg.norm(w))
    if subspace.membership_residual(w) > tol * max(1.0, wnorm):
        raise DomainError("w must lie in the projection subspace")
    if lam is None:
        lam = 1.0 / relation.c
    elif not (lam > 0.0):
        raise InputError("lam must be positive")
    # keep the certificate v = w + (x - s)/lam accurate when lam*c is small
    tol_inner = tol * min(1.0, lam * relation.c)
    shifted = relation.shift(np.zeros_like(w), w)
    s = w.copy() if s0 is None else relation._check_dim(s0, "s0").copy()
    gap = np.inf
    for k in range(1, max_iter + 1):
        x = subspace.project(s)
        z = shifted.resolvent(lam, 2.0 * x - s)
        gap = float(np.linalg.norm(z - x))
        if not np.isfinite(gap):
            raise ConvergenceError(
                f"projected inverse broke down at iteration {k} (gap {gap})",
                residual=gap,
                iterations=k,
            )
        s = s + z - x
        if gap <= tol_inner:
            x_out = subspace.project(s)
            v = w + (x_out - s) / lam
            return GraphPoint(
                x_out, v, relation.graph_residual(x_out, v), iterations=k
            )
    raise ConvergenceError(
        f"projected inverse did not converge in {max_iter} iterations "
        f"(last gap {gap:.3e})",
        residual=gap,
        iterations=max_iter,
    )


def monotonicity_probe(relation: Relation, trials=200, rng_seed=0) -> MonotonicityReport:
    """Sample membership pairs through the inverse and check strong monotonicity.

    A violation of <u - x, v - y> >= c|u - x|^2 - 1e-9 is reported, not
    raised; the report carries the smallest observed quotient.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
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
    return MonotonicityReport(
        passed=violations == 0,
        min_quotient=float(min_quotient),
        violations=violations,
        trials=trials,
        c=relation.c,
    )
