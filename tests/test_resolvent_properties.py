"""Property tests of the array-wise Power resolvent over random p, mu and z."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_inclusions import Power
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
