"""Solution pipelines for divergence-form inclusions A^T a(A u) in f.

The homogeneous pipeline factorizes the solution operator: pull the
right-hand side back through the invertible restriction's adjoint, invert
the relation on the range (directly, or composed with the range projection
through Douglas-Rachford), and push the result back through the
restriction.  Boundary-data problems reduce to the homogeneous one by
translating the relation; flux-data problems additionally rebuild the
right-hand side as a Riesz vector on the admissible test space.  Every
solve returns a certificate pair living on the relation's graph, plus the
residuals that certify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import CapabilityError, ConvergenceError, InputError
from .hilbert_core import (
    LinearMap,
    SobolevNormKind,
    Subspace,
    as_linear_map,
    b_inverse,
    b_star_inverse,
    embedding_constant,
    kernel_basis,
    restrict_operator,
    sobolev_norm,
)
from .relations import (DEFAULT_MAX_ITER, DEFAULT_PROJECTED_TOL, GraphPoint,
                        LinearDescriptor, Relation, projected_inverse)

HOMOGENEOUS = "homogeneous"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_KINDS = (HOMOGENEOUS, DIRICHLET, NEUMANN)


@dataclass(frozen=True)
class Problem:
    """One inclusion to solve; immutable, and checked once when built.

    ``A`` is the one operator, and the relation lives on its codomain.
    Boundary-data and flux-data problems also carry the ``inclusion``: the
    closed subspace of A's domain that the boundary condition cuts out, so
    that the operator with boundary conditions is A restricted to it.  A
    boundary-data problem has ``f`` in the inclusion's coordinates and
    boundary data ``u0`` in A's domain, and keeps the composed map ``A E``
    (E the inclusion basis) as ``effective``; a flux-data problem has ``f``
    in A's domain and flux data ``u0`` on A's codomain (zero if omitted).
    Build variants with ``dataclasses.replace``, which runs the checks again.
    """

    kind: str
    A: LinearMap
    relation: Relation
    f: np.ndarray
    inclusion: Subspace | None = None
    u0: np.ndarray | None = None
    tol: float = DEFAULT_PROJECTED_TOL
    max_iter: int = DEFAULT_MAX_ITER
    effective: LinearMap | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown problem kind {self.kind!r}")
        a = as_linear_map(self.A)
        f = np.asarray(self.f, dtype=float)
        u0 = np.zeros(a.rows) if self.u0 is None and self.kind == NEUMANN else self.u0
        u0 = None if u0 is None else np.asarray(u0, dtype=float)
        for name, value in (("A", a), ("f", f), ("u0", u0)):
            object.__setattr__(self, name, value)
        inclusion = self.inclusion
        if not np.all(np.isfinite(f)):
            raise InputError("right-hand side must be finite", field="f")
        if not (self.tol > 0.0 and np.isfinite(10.0 * self.tol)):
            raise InputError("tol must be positive, with 10*tol finite", field="tol")
        if not (self.max_iter >= 1):
            raise InputError("max_iter must be >= 1", field="max_iter")
        if self.kind != HOMOGENEOUS:
            if inclusion is None:
                raise InputError(f"{self.kind} problems need the inclusion subspace")
            if inclusion.ambient_dim != a.cols:
                raise InputError("inclusion must live in the domain of A")
        n = inclusion.dim if self.kind == DIRICHLET else a.cols
        if f.shape != (n,):
            raise InputError(f"f has shape {f.shape}, expected ({n},)", field="f")
        if self.relation.dim != a.rows:
            raise InputError(f"relation dimension {self.relation.dim} does not match "
                             f"the codomain of A (dimension {a.rows})", field="relation")
        if self.kind == DIRICHLET:
            if u0 is None:
                raise InputError("boundary-data problems need u0", field="u0")
            if u0.shape != (a.cols,):
                raise InputError("u0 must live in the domain of A", field="u0")
        if self.kind == NEUMANN and u0.shape != (a.rows,):
            raise InputError("u0 must live in the codomain of A", field="u0")
        if u0 is not None and not np.all(np.isfinite(u0)):
            raise InputError("u0 must be finite", field="u0")
        if self.kind == DIRICHLET:
            object.__setattr__(self, "effective", _composed(a, inclusion))


def _composed(a: LinearMap, inclusion: Subspace) -> LinearMap:
    """``A E``, memoized on ``a`` (immutable, like ``inclusion``) and keyed by
    the inclusion, so a problem rebuilt over the same two objects gets the
    same map and its factored restriction."""
    eff = a._composed.get(inclusion)
    if eff is None:
        # (E^T A^T)^T: a column slice of A for a coordinate inclusion
        eff = a._composed[inclusion] = LinearMap(inclusion.coords(a.matrix.T).T)
    return eff


@dataclass
class Solution:
    """Solution vector, graph certificate, and named diagnostics.

    ``w`` is the adjoint preimage of the right-hand side for homogeneous and
    boundary-data problems, and the flux vector for flux-data problems.
    Keys starting with ``residual_`` certify the solve (all bounded by
    10*tol on success); ``norm_`` entries are plain norms; ``report_``
    entries are informational and can be legitimately large.
    ``certificate.dr_state`` is the final Douglas-Rachford iterate (None
    after a direct inversion); ``solve(..., dr_start=...)`` takes it as a
    warm start for a nearby problem.
    """

    u: np.ndarray
    certificate: GraphPoint
    w: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass
class EstimateReport:
    """Two sides of a continuity bound plus the constants that built it."""

    lhs: float
    rhs: float
    constants: dict
    passed: bool


def _homogeneous_core(a_map, relation, f, tol, max_iter, dr_start=None):
    """Pull ``f`` back to w, invert the relation on the range (directly when
    A maps onto its codomain, else through Douglas-Rachford), push forward.

    Returns (restricted, w, v, point, u): ``point`` is the pair (A u, v) on
    the relation's graph, and v projects onto the range as w.
    """
    restricted = restrict_operator(a_map)
    restricted.ran_adj.require(
        f, tol, "right-hand side has a kernel component; it does not define an "
        "admissible functional", code="rhs_not_in_H_minus_1",
    )
    w = b_star_inverse(restricted, f)
    if restricted.ran.dim == relation.dim:
        g = relation.inverse(w)
        point = GraphPoint(g, w.copy(), relation.graph_residual(g, w), iterations=0)
    else:
        point = projected_inverse(relation, restricted.ran, w, tol=tol,
                                  max_iter=max_iter, s0=dr_start)
    u = b_inverse(restricted, point.x)
    return restricted, w, point.y, point, u


def _certify(diagnostics, tol):
    bad = {k: v for k, v in diagnostics.items()
           if k.startswith("residual_") and not v <= 10.0 * tol}
    if bad:
        worst = max(bad.values())
        raise ConvergenceError(
            f"certificate residuals exceed 10*tol: {sorted(bad)} (max {worst:.3e})",
            residual=worst,
        )


def solve_homogeneous(problem: Problem, dr_start=None) -> Solution:
    """Solve A^T a(A u) in f for f orthogonal to the kernel of A.

    The relation lives on the codomain of A.  It is composed with the range
    projection and inverted by Douglas-Rachford, or in one evaluation when
    A maps onto its codomain.
    """
    if problem.kind != HOMOGENEOUS:
        raise InputError(f"expected a homogeneous problem, got {problem.kind!r}")
    restricted, w, v, point, u = _homogeneous_core(
        problem.A, problem.relation, problem.f, problem.tol, problem.max_iter, dr_start,
    )
    amat = problem.A.matrix
    diagnostics = {
        "residual_graph": point.residual,
        "residual_adjoint": float(np.linalg.norm(amat.T @ v - problem.f)),
        "residual_range": float(np.linalg.norm(restricted.ran.project(v) - w)),
        "residual_kernel": restricted.ran_adj.membership_residual(u),
        "norm_u_h0": float(np.linalg.norm(u)),
        "norm_u_h1_b": float(np.linalg.norm(amat @ u)),
        "norm_f_hm1_b": sobolev_norm(restricted, SobolevNormKind.HM1_B, problem.f),
        "n_iterations": point.iterations,
    }
    _certify(diagnostics, problem.tol)
    return Solution(u=u, certificate=point, w=w, diagnostics=diagnostics)


def solve_dirichlet(problem: Problem, dr_start=None) -> Solution:
    """Solve (A E)^T a(A u) in f with u - u0 in the inclusion subspace ran E.

    Translates the relation by (A u0, 0), solves the homogeneous problem for
    u - u0 through the restriction of A to the inclusion subspace (the map
    ``effective`` = A E), and adds u0 back.  The certificate pair is (A u, v)
    with (A E)^T v = f.
    """
    if problem.kind != DIRICHLET:
        raise InputError(f"expected a boundary-data problem, got {problem.kind!r}")
    u0 = problem.u0
    eff = problem.effective
    cu0 = problem.A.matrix @ u0
    shifted = problem.relation.shift(cu0, np.zeros_like(cu0))
    restricted, w, v, point, u_red = _homogeneous_core(
        eff, shifted, problem.f, problem.tol, problem.max_iter, dr_start,
    )
    u = u0 + problem.inclusion.from_coords(u_red)
    cu = problem.A.matrix @ u
    cert = replace(point, x=cu, y=v, residual=problem.relation.graph_residual(cu, v))
    diagnostics = {
        "residual_graph": cert.residual,
        "residual_adjoint": float(np.linalg.norm(eff.matrix.T @ v - problem.f)),
        "residual_range": float(np.linalg.norm(restricted.ran.project(v) - w)),
        "residual_membership": problem.inclusion.membership_residual(u - u0),
        "residual_kernel": restricted.ran_adj.membership_residual(u_red),
        "norm_u_h0": float(np.linalg.norm(u)),
        "norm_u_h1_c_plus_i": sobolev_norm(
            None, SobolevNormKind.H1_C_PLUS_I, u, cmap=problem.A
        ),
        "norm_correction_h1_b": float(np.linalg.norm(eff.matrix @ u_red)),
        "norm_f_hm1_b": sobolev_norm(restricted, SobolevNormKind.HM1_B, problem.f),
        "n_iterations": point.iterations,
    }
    _certify(diagnostics, problem.tol)
    return Solution(u=u, certificate=cert, w=w, diagnostics=diagnostics)


def _test_space(restricted, inclusion: Subspace):
    """The admissible test space W = ker(A)^perp in ran E as (wb, aw, gram):
    the orthonormal basis wb = E Z (Z spans ker(K^T E), K the kernel basis),
    aw = A wb and the Cholesky factor of aw^T aw, which raises ``InputError``
    when it does not factor (its entries underflow or overflow)."""
    # K^T E holds cosines, on the scale 1: a unit corner pins sigma_max there
    pinned = scipy.linalg.block_diag(inclusion.coords(restricted.ker.basis).T, 1.0)
    wb = inclusion.from_coords(kernel_basis(pinned).basis[:-1])
    aw = restricted.full_map.matrix @ wb
    # entries that overflow reach cho_factor as infs, which it rejects
    with np.errstate(over="ignore", invalid="ignore"):
        gram = aw.T @ aw
    try:
        gram = scipy.linalg.cho_factor(gram)
    except ValueError as exc:  # LinAlgError too: not positive definite
        raise InputError(f"the test-space Gram matrix does not factor ({exc})") from exc
    return wb, aw, gram


def _dual_on_w(gram, r) -> float:
    """sqrt(r^T G^-1 r): the largest z . r over z with |aw z| = 1."""
    return float(np.sqrt(max(float(r @ scipy.linalg.cho_solve(gram, r)), 0.0)))


def _beyond_w(restricted, aw, gram, y) -> float:
    """|P_ran y - P_AW y|: sup <y, z> over unit z in ran(A) orthogonal to A W."""
    p_aw = aw @ scipy.linalg.cho_solve(gram, aw.T @ y)
    return float(np.linalg.norm(restricted.ran.project(y) - p_aw))


def solve_neumann(problem: Problem, dr_start=None) -> Solution:
    """Solve the flux-data problem for A with flux data u0, in the weak sense.

    The functional f - A^T u0 is restricted to the admissible test space W
    (kernel complement intersected with the inclusion subspace), extended
    by zero on the graph-orthogonal complement of W, and represented by the
    Riesz vector A^T A w with w in W; the homogeneous solve then runs
    against the relation translated by (0, u0).  The reported flux v
    satisfies <v, A w> = <f, w> on W and <v - u0, A w> = 0 on the
    complement.  Each ``residual_``/``report_`` diagnostic is a supremum
    over test functions of unit graph norm (unit norm for the kernel
    report), so none depends on a basis.
    """
    if problem.kind != NEUMANN:
        raise InputError(f"expected a flux-data problem, got {problem.kind!r}")
    amat = problem.A.matrix
    u0 = problem.u0
    restricted = restrict_operator(problem.A)
    wb, aw, gram = _test_space(restricted, problem.inclusion)
    g = amat.T @ (aw @ scipy.linalg.cho_solve(gram, wb.T @ problem.f - aw.T @ u0))

    shifted = problem.relation.shift(np.zeros(problem.A.rows), u0)
    _, w_vec, y, point, u = _homogeneous_core(
        problem.A, shifted, g, problem.tol, problem.max_iter, dr_start,
    )
    v = y + u0
    au = amat @ u
    cert = replace(point, x=au, y=v, residual=problem.relation.graph_residual(au, v))

    diagnostics = {
        "residual_graph": cert.residual,
        "residual_weak_equation": _dual_on_w(gram, wb.T @ problem.f - aw.T @ v),
        "residual_boundary_condition": _beyond_w(restricted, aw, gram, v - u0),
        "residual_range": float(np.linalg.norm(restricted.ran.project(y) - w_vec)),
        "residual_kernel": restricted.ran_adj.membership_residual(u),
        "norm_u_h0": float(np.linalg.norm(u)),
        "norm_u_h1_b": float(np.linalg.norm(au)),
        "norm_xi_hm1_b": sobolev_norm(restricted, SobolevNormKind.HM1_B, g),
        "report_compat_kernel_max": float(np.linalg.norm(
            restricted.ker.basis.T @ (problem.f - amat.T @ u0))),
        # <f, x> = <w_f, A x> on ker(A)^perp, with w_f the pull-back of f
        "report_wperp_discrepancy_max": _beyond_w(restricted, aw, gram,
                                                  restricted.pull_back(problem.f)),
        "n_iterations": point.iterations,
    }
    _certify(diagnostics, problem.tol)
    return Solution(u=u, certificate=cert, w=v, diagnostics=diagnostics)


def solve(problem: Problem, dr_start=None) -> Solution:
    """Dispatch on the problem kind."""
    if problem.kind == HOMOGENEOUS:
        return solve_homogeneous(problem, dr_start)
    if problem.kind == DIRICHLET:
        return solve_dirichlet(problem, dr_start)
    return solve_neumann(problem, dr_start)


def _same_map(m1: LinearMap, m2: LinearMap) -> bool:
    """Equal entries; the same object (as in a ``replace`` variant) short-cuts."""
    return m1 is m2 or np.array_equal(m1.matrix, m2.matrix)


def _require_same_setting(p1: Problem, p2: Problem, kind):
    if p1.kind != kind or p2.kind != kind:
        raise InputError(f"both problems must be of kind {kind!r}")
    if not _same_map(p1.A, p2.A):
        raise InputError("the two problems must share the operator A")
    if p1.relation is not p2.relation:
        raise InputError("the two problems must share the relation object")


def verify_dirichlet_estimate(p1: Problem, p2: Problem,
                              s1: Solution, s2: Solution) -> EstimateReport:
    """Check the explicit continuity bound for boundary-data problems.

    For a linear relation the adjoint-relation element is the transpose
    applied to A(u0 - v0); otherwise the boundary data must coincide (the
    element is then zero).  The bound chains the graph-norm embedding
    constant with the strong-monotonicity estimate, Young's inequality
    applied with epsilon = c.
    """
    _require_same_setting(p1, p2, DIRICHLET)
    relation = p1.relation
    c = relation.c
    eff = p1.effective
    restricted = restrict_operator(eff)
    du0 = p1.u0 - p2.u0
    cdu0 = p1.A.matrix @ du0
    if isinstance(relation.descriptor, LinearDescriptor):
        w0 = relation.descriptor.matrix.matrix.T @ cdu0
        w0_norm = float(np.linalg.norm(w0))
    elif float(np.linalg.norm(cdu0)) <= 1e-14 * max(1.0, float(np.linalg.norm(p1.u0))):
        w0_norm = 0.0
    else:
        raise CapabilityError(
            "the adjoint relation is only materialized for linear relations; "
            "use equal boundary data otherwise"
        )
    df_norm = sobolev_norm(restricted, SobolevNormKind.HM1_B, p1.f - p2.f)
    cdu0_norm = float(np.linalg.norm(cdu0))
    l1 = embedding_constant(restricted, eff)
    cucv_sq = (2.0 / c) * df_norm * cdu0_norm + (df_norm + w0_norm) ** 2 / c**2
    cucv_bound = float(np.sqrt(max(cucv_sq, 0.0)))
    rhs = (
        l1 * cucv_bound
        + l1 * cdu0_norm
        + sobolev_norm(None, SobolevNormKind.H1_C_PLUS_I, du0, cmap=p1.A)
    )
    lhs = sobolev_norm(None, SobolevNormKind.H1_C_PLUS_I, s1.u - s2.u, cmap=p1.A)
    return EstimateReport(
        lhs=lhs,
        rhs=rhs,
        constants={"L1": l1, "c": c, "w0_norm": w0_norm,
                   "df_hm1_b": df_norm, "cu0_gap": cdu0_norm},
        passed=lhs <= rhs + 1e-9,
    )


def verify_neumann_estimate(p1: Problem, p2: Problem,
                            s1: Solution, s2: Solution) -> EstimateReport:
    """Check the continuity bound for flux-data problems.

    The functional difference is measured through its Riesz representative
    on the admissible test space W in the graph inner product; the data
    difference through the range projection.  Both terms carry 1/c.
    """
    _require_same_setting(p1, p2, NEUMANN)
    c = p1.relation.c
    amat = p1.A.matrix
    restricted = restrict_operator(p1.A)
    wb, aw, gram = _test_space(restricted, p1.inclusion)
    du0 = p1.u0 - p2.u0
    dual = _dual_on_w(gram, wb.T @ (p1.f - p2.f) - aw.T @ du0)
    data_gap = float(np.linalg.norm(restricted.ran.project(du0)))
    rhs = (dual + data_gap) / c
    lhs = float(np.linalg.norm(amat @ (s1.u - s2.u)))
    return EstimateReport(
        lhs=lhs,
        rhs=rhs,
        constants={"c": c, "dual_gap": dual, "data_gap": data_gap},
        passed=lhs <= rhs + 1e-9,
    )


def lipschitz_probe(template: Problem, pairs=100, rng_seed=0) -> float:
    """Largest sampled ratio |u1 - u2|_{H1(B)} / |f1 - f2|_{H-1(B)}.

    Samples admissible right-hand-side pairs for the homogeneous template
    and solves both; the ratio never exceeds the Lipschitz constant of the
    relation's inverse (1/c in general, 1/lambda_min for symmetric linear
    relations along range directions).
    """
    if template.kind != HOMOGENEOUS:
        raise InputError("the probe needs a homogeneous template")
    if pairs < 1:
        raise InputError("pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    restricted = restrict_operator(template.A)
    ran_adj = restricted.ran_adj
    r = ran_adj.dim
    if r == 0:
        return 0.0
    amat = template.A.matrix
    worst = 0.0
    for _ in range(pairs):
        f1 = ran_adj.from_coords(rng.standard_normal(r))
        f2 = ran_adj.from_coords(rng.standard_normal(r))
        den = sobolev_norm(restricted, SobolevNormKind.HM1_B, f1 - f2)
        if den < 1e-12:
            continue
        u1 = _homogeneous_core(template.A, template.relation, f1,
                               template.tol, template.max_iter)[-1]
        u2 = _homogeneous_core(template.A, template.relation, f2,
                               template.tol, template.max_iter)[-1]
        ratio = float(np.linalg.norm(amat @ (u1 - u2))) / den
        worst = max(worst, ratio)
    return worst
