"""Shared construction helpers for the test suite."""

import numpy as np
import scipy.linalg
import scipy.sparse

from elliptic_inclusions import (
    Clamp,
    Linear,
    LinearMap,
    Power,
    Relay,
    Sign,
    make_diagonal,
    make_linear,
)

DIRICHLET_GRAD_3 = np.array([
    [1.0, 0.0, 0.0],
    [-1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0],
    [0.0, 0.0, -1.0],
])

NEUMANN_GRAD_3 = np.array([
    [-1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0],
])


def haar_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_operator(rng, rows, cols, rank, smin=0.5, smax=2.0):
    """Random map with prescribed rank and singular values in [smin, smax]."""
    u = haar_orthogonal(rng, rows)
    v = haar_orthogonal(rng, cols)
    s = np.sort(rng.uniform(smin, smax, size=rank))[::-1]
    return u[:, :rank] @ (s[:, None] * v[:, :rank].T)


def random_pd_matrix(rng, dim, cmin=0.5, cmax=3.0, symmetric=False):
    """Matrix whose symmetric part has eigenvalues in [cmin, cmax]."""
    q = haar_orthogonal(rng, dim)
    eig = rng.uniform(cmin, cmax, size=dim)
    sym = q @ (eig[:, None] * q.T)
    if symmetric:
        return sym
    skew = rng.standard_normal((dim, dim))
    skew = 0.2 * (skew - skew.T)
    return sym + skew


def random_banded_matrix(rng, dim):
    """Sparse tridiagonal nonsymmetric matrix whose symmetric part has
    eigenvalues >= 1: diagonal in [1.5, 2.5], off-diagonals carrying a skew
    part up to 1 and a symmetric part below 0.25 (the elastic benchmark's law)."""
    diag = rng.uniform(1.5, 2.5, dim)
    skew = rng.uniform(-1.0, 1.0, dim - 1)
    sym = rng.uniform(-0.25, 0.25, dim - 1)
    return scipy.sparse.diags_array([sym - skew, diag, sym + skew], offsets=(-1, 0, 1),
                                    shape=(dim, dim), format="csc")


def random_subspace(rng, n, k):
    return scipy.linalg.orth(rng.standard_normal((n, max(k, 1)))[:, :k]) \
        if k else np.zeros((n, 0))


def random_graphs(rng, m):
    pool = [
        lambda: Sign(),
        lambda: Linear(float(rng.uniform(0.0, 2.0))),
        lambda: Power(float(rng.uniform(1.5, 3.0))),
        lambda: Clamp(float(-rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))),
        lambda: Relay(float(rng.uniform(0.0, 2.0))),
    ]
    return [pool[rng.integers(len(pool))]() for _ in range(m)]


def relation_family(name, dim, rng):
    """Named relation families used by the sampling suites."""
    if name == "linear":
        return make_linear(LinearMap(random_pd_matrix(rng, dim)))
    if name == "banded":
        return make_linear(random_banded_matrix(rng, dim))
    if name == "sign":
        return make_diagonal(1.0, [Sign()] * dim)
    if name == "power":
        return make_diagonal(0.7, [Power(float(rng.uniform(1.5, 3.5)))
                                   for _ in range(dim)])
    if name == "mixed":
        graphs = []
        for i in range(dim):
            graphs.append(Clamp(-1.0, 1.5) if i % 2 == 0
                          else Relay(float(rng.uniform(0.0, 2.0))))
        return make_diagonal(1.3, graphs)
    raise ValueError(name)


RELATION_FAMILIES = ("linear", "sign", "power", "mixed", "banded")
