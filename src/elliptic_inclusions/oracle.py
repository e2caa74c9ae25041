"""Independent reference solvers for small instances.

These deliberately avoid the production code paths: branch enumeration
solves one small linear system per piecewise-affine branch assignment,
the energy oracle minimizes the variational objective by an alternating
splitting with its own factorizations and scalar proximal maps, and the
linear oracle is a dense direct solve.  Agreement between any of them and
the pipeline is the point.  All three take ran(A^T) from one column-pivoted
QR of A^T (``_domain``), not an SVD: the rank counts |R_ii| > max(m, n) * eps
* |R_00|, SciPy ``orth``'s rule with |R_ii| for the singular values.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import scipy.linalg

from .errors import CapabilityError, InputError, OracleFailure
from .hilbert_core import LinearMap
from .relations import Clamp, Linear, Power, Relay, Sign

MAX_ENUM_ROWS = 12

_INF = np.inf


def _as_matrix(a):
    if isinstance(a, LinearMap):
        return a.matrix
    return np.asarray(a, dtype=float)


def _domain(mat):
    """Orthonormal basis Q of ran(mat^T), and mat @ Q read off the QR:
    mat^T[:, piv] = Q R gives mat[piv] @ Q[:, :rank] = R[:rank]^T."""
    m, n = mat.shape
    q, r, piv = scipy.linalg.qr(mat.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))  # non-increasing under column pivoting
    cutoff = max(m, n) * np.finfo(float).eps * diag.max(initial=0.0)
    rank = int(np.count_nonzero(diag > cutoff))
    aq = np.empty((m, rank))
    aq[piv] = r[:rank].T
    return q[:, :rank], aq


def _pieces(graph):
    """Branches of a piecewise-affine scalar graph.

    Affine piece: ("affine", slope, intercept, lo, hi) meaning
    value = slope*s + intercept for s in [lo, hi].  Vertical piece:
    ("vertical", s0, vmin, vmax) meaning s = s0 with value in [vmin, vmax].
    """
    if isinstance(graph, Linear):
        return [("affine", graph.slope, 0.0, -_INF, _INF)]
    if isinstance(graph, Sign):
        return [
            ("affine", 0.0, -1.0, -_INF, 0.0),
            ("vertical", 0.0, -1.0, 1.0),
            ("affine", 0.0, 1.0, 0.0, _INF),
        ]
    if isinstance(graph, Clamp):
        return [
            ("affine", 0.0, graph.lo, -_INF, graph.lo),
            ("affine", 1.0, 0.0, graph.lo, graph.hi),
            ("affine", 0.0, graph.hi, graph.hi, _INF),
        ]
    if isinstance(graph, Relay):
        return [
            ("affine", 0.0, 0.0, -_INF, 0.0),
            ("vertical", 0.0, 0.0, graph.height),
            ("affine", 0.0, graph.height, 0.0, _INF),
        ]
    raise CapabilityError(
        f"branch enumeration needs piecewise-affine graphs, got {graph!r}"
    )


def active_set_solve(a, c, graphs, f, input_shift=None, output_shift=None,
                     feas_tol=1e-9):
    """Brute-force solve of A^T v = f with v_i in c*s_i + graph_i(s_i), s = A u.

    Enumerates every branch assignment of the piecewise-affine graphs,
    solves the linear system of each assignment, and keeps the assignments
    whose solution respects all branch intervals.  ``input_shift``/
    ``output_shift`` translate the relation in graph space, so shifted
    instances can be checked without rebuilding graphs.  The lowest-index
    consistent assignment wins; genuinely distinct consistent solutions
    raise, since the solution is unique.
    """
    mat = _as_matrix(a)
    m, n = mat.shape
    if m > MAX_ENUM_ROWS:
        raise InputError(f"enumeration is capped at {MAX_ENUM_ROWS} rows, got {m}")
    if not (c > 0.0):
        raise InputError("c must be positive")
    graphs = list(graphs)
    if len(graphs) != m:
        raise InputError(f"need one graph per row, got {len(graphs)} for {m}")
    f = np.asarray(f, dtype=float)
    p = np.zeros(m) if input_shift is None else np.asarray(input_shift, dtype=float)
    q = np.zeros(m) if output_shift is None else np.asarray(output_shift, dtype=float)

    q_dom, aq = _domain(mat)  # aq = A Q, m x r
    r = q_dom.shape[1]
    if np.linalg.norm(f - q_dom @ (q_dom.T @ f)) > 1e-8 * max(1.0, np.linalg.norm(f)):
        raise OracleFailure("f has a kernel component; no consistent assignment exists")

    piece_lists = [_pieces(g) for g in graphs]
    solutions = []
    first = None
    for assignment in itertools.product(*piece_lists):
        vertical = [i for i, piece in enumerate(assignment) if piece[0] == "vertical"]
        nv = len(vertical)
        vert_pos = {i: j for j, i in enumerate(vertical)}
        # unknowns: reduced u coordinates (r) then vertical values t (nv)
        size = r + nv
        rows = r + nv
        K = np.zeros((rows, size))
        rhs = np.zeros(rows)
        # equilibrium rows: Q^T A^T v = Q^T f where the shifted value at s is
        # v_i = (c + slope_i)*(s_i + p_i) + intercept_i - q_i  (affine branch)
        # v_i = c*s0_i + t_i - q_i                             (vertical branch)
        alpha = np.zeros(m)
        const = np.zeros(m)
        for i, piece in enumerate(assignment):
            if piece[0] == "affine":
                _, slope, intercept, _, _ = piece
                alpha[i] = c + slope
                const[i] = (c + slope) * p[i] + intercept - q[i]
            else:
                _, s0, _, _ = piece
                const[i] = c * s0 - q[i]
        K[:r, :r] = aq.T @ (alpha[:, None] * aq)
        for i in vertical:
            K[:r, r + vert_pos[i]] = aq.T[:, i]
        rhs[:r] = q_dom.T @ f - aq.T @ const
        # vertical constraint rows: s_i = s0_i - p_i
        for j, i in enumerate(vertical):
            K[r + j, :r] = aq[i]
            rhs[r + j] = assignment[i][1] - p[i]

        sol, _, _, _ = np.linalg.lstsq(K, rhs, rcond=None)
        if np.linalg.norm(K @ sol - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
            continue
        x = sol[:r]
        t = sol[r:]
        s = aq @ x
        ok = True
        for i, piece in enumerate(assignment):
            sigma = s[i] + p[i]
            if piece[0] == "affine":
                _, _, _, lo, hi = piece
                if sigma < lo - feas_tol or sigma > hi + feas_tol:
                    ok = False
                    break
            else:
                _, _, vmin, vmax = piece
                ti = t[vert_pos[i]]
                if ti < vmin - feas_tol or ti > vmax + feas_tol:
                    ok = False
                    break
        if not ok:
            continue
        u = q_dom @ x
        if first is None:
            first = u
        solutions.append(u)

    if first is None:
        raise OracleFailure(
            "no consistent branch assignment (check that f is admissible)"
        )
    worst = max(float(np.linalg.norm(u - first)) for u in solutions)
    if worst > 1e-6 * max(1.0, float(np.linalg.norm(first))):
        raise OracleFailure(
            f"distinct consistent solutions found (spread {worst:.3e}); "
            "uniqueness is guaranteed, so something is wrong"
        )
    return first


def _potential(graph, s):
    if isinstance(graph, Linear):
        return 0.5 * graph.slope * s * s
    if isinstance(graph, Sign):
        return np.abs(s)
    if isinstance(graph, Power):
        return np.abs(s) ** graph.exponent / graph.exponent
    raise CapabilityError(f"{graph!r} is not one of the supported potential graphs")


def _prox(graph, mu, z):
    """prox of mu*potential, i.e. the resolvent of the subdifferential."""
    if isinstance(graph, Linear):
        return z / (1.0 + mu * graph.slope)
    if isinstance(graph, Sign):
        return np.sign(z) * np.maximum(np.abs(z) - mu, 0.0)
    if isinstance(graph, Power):
        # bisection on s + mu*s^(p-1) = |z|, root in [0, |z|]
        p = graph.exponent
        out = np.empty_like(z)
        for j, zj in enumerate(z):
            t = abs(float(zj))
            lo, hi = 0.0, t
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid + mu * mid ** (p - 1.0) > t:
                    hi = mid
                else:
                    lo = mid
            out[j] = np.sign(zj) * 0.5 * (lo + hi)
        return out
    raise CapabilityError(f"{graph!r} is not one of the supported potential graphs")


def energy_value(a, c, graphs, f, u):
    """The variational objective (c/2)|Au|^2 + sum phi_i((Au)_i) - <f, u>."""
    mat = _as_matrix(a)
    u = np.asarray(u, dtype=float)
    s = mat @ u
    total = 0.5 * c * float(s @ s) - float(np.asarray(f, dtype=float) @ u)
    for i, g in enumerate(graphs):
        total += float(_potential(g, s[i]))
    return total


def convex_min_solve(a, c, graphs, f, iters=1_000_000, tol=1e-12):
    """Minimize the variational objective over the kernel complement.

    Splits on s = A u and alternates a dense normal-equations solve in u
    with coordinatewise proximal maps in s plus a running multiplier, which
    converges linearly for this strongly convex objective.  Only graphs
    that are subdifferentials of the known scalar potentials are accepted.
    """
    mat = _as_matrix(a)
    m, _ = mat.shape
    graphs = list(graphs)
    if len(graphs) != m:
        raise InputError(f"need one graph per row, got {len(graphs)} for {m}")
    for g in graphs:
        if not isinstance(g, (Linear, Sign, Power)):
            raise CapabilityError(
                f"{g!r} has no declared potential; the energy oracle cannot run"
            )
    if not (c > 0.0):
        raise InputError("c must be positive")
    f = np.asarray(f, dtype=float)

    q_dom, aq = _domain(mat)
    r = q_dom.shape[1]
    if r == 0:
        return np.zeros(mat.shape[1])
    f_red = q_dom.T @ f
    sv = np.linalg.svd(aq, compute_uv=False)
    rho = c * float(sv[0] * sv[-1])
    chol = scipy.linalg.cho_factor((c + rho) * (aq.T @ aq))

    groups: dict = {}
    for i, g in enumerate(graphs):
        groups.setdefault(g, []).append(i)
    grouped = [(g, np.array(idx, dtype=int)) for g, idx in groups.items()]

    x = np.zeros(r)
    s = np.zeros(m)
    d = np.zeros(m)
    scale = max(1.0, float(np.linalg.norm(f_red)))
    for _ in range(iters):
        x = scipy.linalg.cho_solve(chol, f_red + rho * aq.T @ (s - d))
        ax = aq @ x
        s_prev = s
        s = np.empty(m)
        z = ax + d
        for g, idx in grouped:
            s[idx] = _prox(g, 1.0 / rho, z[idx])
        d = d + ax - s
        primal = float(np.linalg.norm(ax - s))
        dual = rho * float(np.linalg.norm(aq.T @ (s - s_prev)))
        if primal <= tol * scale and dual <= tol * scale:
            break
    return q_dom @ x


def linear_direct_solve(a, m, f):
    """Dense solve of A^T M A u = f on the kernel complement: (AQ)^T M (AQ) x
    = Q^T f, u = Q x.  A system too ill-conditioned to solve accurately
    raises ``OracleFailure`` rather than returning an unreliable reference."""
    mat = _as_matrix(a)
    rel = _as_matrix(m)
    f = np.asarray(f, dtype=float)
    q_dom, aq = _domain(mat)
    if q_dom.shape[1] == 0:
        return np.zeros(mat.shape[1])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            x = scipy.linalg.solve(aq.T @ (rel @ aq), q_dom.T @ f)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise OracleFailure(f"reduced system is ill-conditioned: {exc}") from exc
    return q_dom @ x
