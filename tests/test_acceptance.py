"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import sys

import numpy as np
import scipy.linalg

from elliptic_inclusions import (
    LinearMap,
    OperatorSpec,
    Problem,
    Sign,
    SobolevNormKind,
    Subspace,
    build_operator,
    free_gradient_3d,
    kernel_basis,
    lipschitz_probe,
    make_diagonal,
    make_linear,
    operator_pair,
    projected_inverse,
    restrict_operator,
    sobolev_norm,
    solve_dirichlet,
    solve_homogeneous,
    solve_neumann,
    verify_dirichlet_estimate,
    verify_neumann_estimate,
)
from elliptic_inclusions.cli import emit_report, run_config
from elliptic_inclusions.oracle import active_set_solve, convex_min_solve
from helpers import (
    RELATION_FAMILIES,
    random_operator,
    random_pd_matrix,
    random_subspace,
    relation_family,
)


def _verdict(number, description, passed):
    # bypass capture so the verdict lines land in any pytest log
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} - {description}",
          file=sys.__stdout__)
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_unitarity():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(25):
        rows = int(rng.integers(2, 21))
        cols = int(rng.integers(2, 16))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        m = random_operator(rng, rows, cols, rank)
        restricted = restrict_operator(m)
        x = restricted.ran_adj.project(rng.standard_normal(cols))
        ok &= sobolev_norm(restricted, SobolevNormKind.H1_B, x) \
            == np.linalg.norm(m @ x)
        y = restricted.ran.project(rng.standard_normal(rows))
        dual = sobolev_norm(restricted, SobolevNormKind.HM1_B, m.T @ y)
        ok &= abs(dual - np.linalg.norm(y)) <= 1e-9
    _verdict(1, "restriction is norm-preserving in both directions", ok)


def test_criterion_02_resolvent_suite():
    rng = np.random.default_rng(102)
    ok = True
    for name in RELATION_FAMILIES:
        rel = relation_family(name, 5, rng)
        for lam in (0.1, 1.0, 10.0):
            for _ in range(200):
                z1 = rng.standard_normal(5) * 2.0
                z2 = rng.standard_normal(5) * 2.0
                gap = np.linalg.norm(rel.resolvent(lam, z1) - rel.resolvent(lam, z2))
                ok &= gap <= np.linalg.norm(z1 - z2) + 1e-12
        bound = 1.0 / rel.c
        for _ in range(200):
            y1 = rng.standard_normal(5) * 3.0
            y2 = rng.standard_normal(5) * 3.0
            gap = np.linalg.norm(rel.inverse(y1) - rel.inverse(y2))
            ok &= gap <= bound * np.linalg.norm(y1 - y2) + 1e-10
    _verdict(2, "resolvents nonexpansive, inverses 1/c-Lipschitz", ok)


def test_criterion_03_factorization_identity():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(25):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(1, 7))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = random_operator(rng, rows, cols, rank)
        m = random_pd_matrix(rng, rows)
        q = np.linalg.svd(a, full_matrices=False)[2][:rank]
        f = q.T @ rng.standard_normal(rank)
        u = solve_homogeneous(
            Problem("homogeneous", LinearMap(a), make_linear(m), f, tol=1e-12)
        ).u
        # dense reduced solve, independent assembly
        q_dom = scipy.linalg.orth(a.T)
        aq = a @ q_dom
        u_ref = q_dom @ np.linalg.solve(aq.T @ m @ aq, q_dom.T @ f)
        ok &= np.linalg.norm(u - u_ref) <= 1e-9 * max(1.0, np.linalg.norm(u_ref))
    _verdict(3, "pipeline equals dense reduced solve for linear relations", ok)


def test_criterion_04_lipschitz_equality():
    rng = np.random.default_rng(104)
    ok = True
    c = 2.5
    a = random_operator(rng, 6, 5, 3)
    rel = make_linear(c * np.eye(6))
    restricted = restrict_operator(a)
    q1 = restricted.ran_adj.basis
    for _ in range(60):
        f1 = q1 @ rng.standard_normal(3)
        f2 = q1 @ rng.standard_normal(3)
        u1 = solve_homogeneous(Problem("homogeneous", LinearMap(a), rel, f1,
                                       tol=1e-12)).u
        u2 = solve_homogeneous(Problem("homogeneous", LinearMap(a), rel, f2,
                                       tol=1e-12)).u
        ratio = np.linalg.norm(a @ (u1 - u2)) \
            / sobolev_norm(restricted, SobolevNormKind.HM1_B, f1 - f2)
        ok &= abs(ratio - 1.0 / c) <= 1e-10
    rel_sym = make_linear(np.diag([1.0, 4.0]))
    template = Problem("homogeneous", LinearMap(np.eye(2)), rel_sym, np.zeros(2),
                       tol=1e-12)
    sup = lipschitz_probe(template, pairs=500, rng_seed=104)
    ok &= sup >= 0.99 * 1.0
    ok &= sup <= 1.0 + 1e-10
    _verdict(4, "solution map attains the inverse Lipschitz constant", ok)


def test_criterion_05_multivalued_correctness():
    rng = np.random.default_rng(105)
    ok = True
    for trial in range(100):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(1, 5))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        a = random_operator(rng, rows, cols, rank)
        graphs = [Sign()] * rows
        q = np.linalg.svd(a, full_matrices=False)[2][:rank]
        f = q.T @ rng.standard_normal(rank) * 2.0
        rel = make_diagonal(1.0, graphs)
        u = solve_homogeneous(
            Problem("homogeneous", LinearMap(a), rel, f, tol=1e-11)
        ).u
        u_enum = active_set_solve(a, 1.0, graphs, f)
        ok &= np.linalg.norm(u - u_enum) <= 1e-8
        if trial % 4 == 0:
            u_energy = convex_min_solve(a, 1.0, graphs, f)
            ok &= np.linalg.norm(u_energy - u_enum) <= 1e-6
    _verdict(5, "multi-valued solves match enumeration and energy oracles", ok)


def _random_dirichlet_instance(rng, relation_name):
    family, shape = [
        ("grad1d", (int(rng.integers(5, 9)),)),
        ("grad2d", (4, 4)),
        ("symgrad2d", (4, 3)),
    ][int(rng.integers(3))]
    small, big, inclusion = operator_pair(OperatorSpec(family, shape, 1.0))
    rel = relation_family(relation_name, big.matrix.rows, rng)
    f = rng.standard_normal(small.matrix.cols)
    u0 = rng.standard_normal(big.matrix.cols)
    problem = Problem("dirichlet", big.matrix, rel, f,
                      inclusion=inclusion, u0=u0, tol=1e-10)
    return problem


def test_criterion_06_dirichlet_reduction():
    ok = True
    small, big, inclusion = operator_pair(OperatorSpec("grad1d", (5,), 1.0))
    rel = make_linear(np.eye(4))
    ramp = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    sol = solve_dirichlet(Problem("dirichlet", big.matrix, rel, np.zeros(3),
                                  inclusion=inclusion, u0=ramp))
    ok &= np.linalg.norm(sol.u - ramp) <= 1e-10

    rng = np.random.default_rng(106)
    rel_pd = make_linear(random_pd_matrix(rng, 4))
    for _ in range(5):
        f = rng.standard_normal(3)
        ud = solve_dirichlet(Problem(
            "dirichlet", big.matrix, rel_pd, f,
            inclusion=inclusion, u0=np.zeros(5), tol=1e-13,
        )).u
        eff = LinearMap(big.matrix.matrix @ inclusion.basis)
        uh = solve_homogeneous(Problem("homogeneous", eff, rel_pd, f, tol=1e-13)).u
        ok &= np.linalg.norm(ud - inclusion.basis @ uh) <= 1e-12

    for trial in range(50):
        problem = _random_dirichlet_instance(
            rng, RELATION_FAMILIES[trial % len(RELATION_FAMILIES)]
        )
        sol = solve_dirichlet(problem)
        cu = problem.A.matrix @ sol.u
        eff = problem.A.matrix @ problem.inclusion.basis
        ok &= problem.relation.graph_residual(cu, sol.certificate.y) <= 1e-9
        ok &= np.linalg.norm(eff.T @ sol.certificate.y - problem.f) <= 1e-9
    _verdict(6, "boundary-data reduction: ramp, degeneracy, certificates", ok)


def _random_neumann_instance(rng, relation_name):
    n = int(rng.integers(5, 9))
    small, big, inclusion = operator_pair(OperatorSpec("grad1d", (n,), 1.0))
    rel = relation_family(relation_name, big.matrix.rows, rng)
    f = rng.standard_normal(n)
    f -= f.mean()
    u0 = rng.standard_normal(big.matrix.rows)
    return Problem("neumann", big.matrix, rel, f,
                   inclusion=inclusion, u0=u0, tol=1e-10)


def test_criterion_07_neumann_suite():
    ok = True
    small, big, inclusion = operator_pair(OperatorSpec("grad1d", (5,), 1.0))
    rel_id = make_linear(np.eye(4))
    sol = solve_neumann(Problem("neumann", big.matrix, rel_id, np.ones(5),
                                inclusion=inclusion))
    ok &= np.linalg.norm(sol.u) <= 1e-9

    rng = np.random.default_rng(107)
    for trial in range(50):
        problem = _random_neumann_instance(
            rng, RELATION_FAMILIES[trial % len(RELATION_FAMILIES)]
        )
        sol = solve_neumann(problem)
        ok &= sol.diagnostics["residual_weak_equation"] <= 1e-8
        ok &= sol.diagnostics["residual_boundary_condition"] <= 1e-8
        if trial % 10 == 0:
            other = solve_neumann(problem, dr_start=5.0 * np.ones(problem.A.rows))
            ok &= np.linalg.norm(sol.u - other.u) <= 1e-8
    _verdict(7, "flux-data suite: kernel forcing, weak identities, uniqueness", ok)


def test_criterion_08_continuity_estimates():
    rng = np.random.default_rng(108)
    ok = True
    small, big, inclusion = operator_pair(OperatorSpec("grad1d", (6,), 1.0))
    for trial in range(100):
        linear = trial % 2 == 0
        if linear:
            rel = make_linear(random_pd_matrix(rng, big.matrix.rows))
            u0_1, u0_2 = rng.standard_normal(6), rng.standard_normal(6)
        else:
            rel = relation_family(
                RELATION_FAMILIES[1 + trial % 3], big.matrix.rows, rng
            )
            u0_1 = rng.standard_normal(6)
            u0_2 = u0_1.copy()
        f1, f2 = rng.standard_normal(4), rng.standard_normal(4)
        p1 = Problem("dirichlet", big.matrix, rel, f1,
                     inclusion=inclusion, u0=u0_1, tol=1e-10)
        p2 = Problem("dirichlet", big.matrix, rel, f2,
                     inclusion=inclusion, u0=u0_2, tol=1e-10)
        report = verify_dirichlet_estimate(p1, p2, solve_dirichlet(p1),
                                           solve_dirichlet(p2))
        ok &= report.passed
    for trial in range(100):
        name = RELATION_FAMILIES[trial % len(RELATION_FAMILIES)]
        rel = relation_family(name, big.matrix.rows, rng)
        f1 = rng.standard_normal(6)
        f1 -= f1.mean()
        f2 = rng.standard_normal(6)
        f2 -= f2.mean()
        u0_1 = rng.standard_normal(big.matrix.rows)
        u0_2 = rng.standard_normal(big.matrix.rows)
        p1 = Problem("neumann", big.matrix, rel, f1,
                     inclusion=inclusion, u0=u0_1, tol=1e-10)
        p2 = Problem("neumann", big.matrix, rel, f2,
                     inclusion=inclusion, u0=u0_2, tol=1e-10)
        report = verify_neumann_estimate(p1, p2, solve_neumann(p1),
                                         solve_neumann(p2))
        ok &= report.passed
    _verdict(8, "continuity estimates hold on randomized instance pairs", ok)


def test_criterion_09_projected_relation_inversion():
    rng = np.random.default_rng(109)
    ok = True
    tol = 1e-10
    for name in RELATION_FAMILIES:
        for _ in range(4):
            dim = int(rng.integers(3, 7))
            rel = relation_family(name, dim, rng)
            k = int(rng.integers(1, dim + 1))
            sub = Subspace(dim, random_subspace(rng, dim, k))
            points = []
            for _ in range(5):
                w = sub.project(rng.standard_normal(dim) * 2.0)
                point = projected_inverse(rel, sub, w, tol=tol, max_iter=100000)
                ok &= point.residual <= 10.0 * tol
                ok &= np.linalg.norm(sub.project(point.y) - w) <= 10.0 * tol
                points.append((point.x, w))
            for i in range(len(points)):
                for j in range(i):
                    dx = points[i][0] - points[j][0]
                    dw = points[i][1] - points[j][1]
                    ok &= dx @ dw >= rel.c * (dx @ dx) - 10.0 * tol
    _verdict(9, "projected relations invert and stay strongly monotone", ok)


def test_criterion_10_operator_builders():
    ok = True
    free = build_operator(OperatorSpec("grad1d", (6,), 1.0, "free"))
    ker = kernel_basis(free.matrix)
    ones = np.ones(6) / np.sqrt(6.0)
    ok &= ker.dim == 1
    ok &= abs(abs(float(ker.basis[:, 0] @ ones)) - 1.0) < 1e-14
    for family, shape in (("grad1d", (4,)), ("grad2d", (3, 4)), ("symgrad2d", (3, 3))):
        built = build_operator(OperatorSpec(family, shape, 1.0, "zero"))
        ok &= np.linalg.svd(built.matrix.matrix, compute_uv=False)[-1] > 0.0
    grad = free_gradient_3d((4, 4, 4), 1.0)
    curl = build_operator(OperatorSpec("curl3d", (4, 4, 4), 1.0, "free"))
    ok &= bool(np.all(curl.matrix.matrix @ grad.matrix.matrix == 0.0))
    h = 0.5
    sym = build_operator(OperatorSpec("symgrad2d", (3, 3), h, "free"))
    rng = np.random.default_rng(110)
    u = rng.standard_normal(18)
    ux, uy = u[:9].reshape(3, 3), u[9:].reshape(3, 3)
    total = 0.0
    for i in range(2):
        for j in range(3):
            total += h * h * ((ux[i + 1, j] - ux[i, j]) / h) ** 2
    for i in range(3):
        for j in range(2):
            total += h * h * ((uy[i, j + 1] - uy[i, j]) / h) ** 2
    for i in range(2):
        for j in range(2):
            e12 = 0.5 * ((ux[i, j + 1] - ux[i, j]) / h
                         + (uy[i + 1, j] - uy[i, j]) / h)
            total += 2.0 * h * h * e12 ** 2
    out = sym.matrix.matrix @ u
    ok &= abs(float(out @ out) - total) <= 1e-12
    _verdict(10, "builders: kernels, coercivity, exact complex identity, weights", ok)


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "homogeneous",
        "operator": {"family": "grad1d", "shape": [4], "h": 1.0, "boundary": "zero"},
        "relation": {"type": "diagonal", "c": 1.0, "graphs": {"kind": "sign"}},
        "f": [0.9, -0.4, 1.1, 0.0],
        "checks": ["certificate", "oracle", "lipschitz", "monotonicity"],
        "seed": 42,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    payloads = []
    for _ in range(3):
        report = run_config(path)
        assert report.exit_code == 0
        data = json.loads(emit_report(report, "json"))
        del data["timing"]
        payloads.append(json.dumps(data, sort_keys=True).encode())
    ok = payloads[0] == payloads[1] == payloads[2]
    _verdict(11, "identical config and seed give byte-identical reports", ok)
