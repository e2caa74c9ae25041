"""Property tests of the array-wise resolvents: the Power resolvent over random
p, mu and z, and block inversion of random diagonal relations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_inclusions import Clamp, Linear, Power, Relay, Sign, make_diagonal
from elliptic_inclusions.relations import graph_base_resolvent

exponents = st.floats(min_value=1.05, max_value=8.0)
steps = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)
values = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)
inputs = st.lists(values, min_size=1, max_size=40).map(np.array)

# the same examples on every run, and no example database on disk
REPRODUCIBLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _slack(*arrays):
    # each root is accurate to 1e-14 absolute or 1e-14 of the bracket
    return 1e-13 * max(1.0, *(float(np.max(np.abs(a))) for a in arrays))


@REPRODUCIBLE
@given(exponents, steps, inputs)
def test_power_resolvent_is_odd_and_bracketed(p, mu, z):
    s = graph_base_resolvent(Power(p), mu, z)
    assert np.array_equal(graph_base_resolvent(Power(p), mu, -z), -s)
    assert np.all(np.abs(s) <= np.abs(z))
    assert np.all(s * z >= 0.0)


@REPRODUCIBLE
@given(exponents, steps, inputs)
def test_power_resolvent_is_nondecreasing(p, mu, z):
    z = np.sort(z)
    s = graph_base_resolvent(Power(p), mu, z)
    assert np.all(np.diff(s) >= -_slack(z))


@REPRODUCIBLE
@given(exponents, steps, inputs, st.floats(min_value=-12.0, max_value=2.0))
def test_power_resolvent_is_nonexpansive(p, mu, z, log_h):
    # far pairs (z against its reverse) and near pairs (z against a nudge)
    nudge = 10.0 ** log_h * np.cos(np.arange(z.size))
    z1 = np.concatenate([z, z])
    z2 = np.concatenate([z[::-1], z + nudge])
    gap = graph_base_resolvent(Power(p), mu, z1) - graph_base_resolvent(Power(p), mu, z2)
    assert np.all(np.abs(gap) <= np.abs(z1 - z2) + _slack(z1, z2))


graphs = st.one_of(
    st.builds(Linear, st.floats(min_value=0.0, max_value=5.0)),
    st.just(Sign()),
    st.builds(Power, st.floats(min_value=1.1, max_value=6.0)),
    st.builds(lambda lo, width: Clamp(lo, lo + width),
              st.floats(min_value=-3.0, max_value=1.0),
              st.floats(min_value=0.0, max_value=4.0)),
    st.builds(Relay, st.floats(min_value=0.0, max_value=3.0)),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(graphs, min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=4.0),
       st.integers(min_value=1, max_value=8),
       st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_block_inverse_is_column_by_column(graph_list, c, k, shift, seed):
    rng = np.random.default_rng(seed)
    dim = len(graph_list)
    rel = make_diagonal(c, graph_list)
    if shift:
        rel = rel.shift(rng.standard_normal(dim), rng.standard_normal(dim))
    ys = 3.0 * rng.standard_normal((dim, k))
    block = rel.inverse(ys)
    columns = np.column_stack([rel.inverse(ys[:, j]) for j in range(k)])
    if any(isinstance(g, Power) for g in graph_list):
        assert np.all(np.abs(block - columns) <= 1e-14 * max(1.0, np.max(np.abs(columns))))
    else:
        assert np.array_equal(block, columns)
