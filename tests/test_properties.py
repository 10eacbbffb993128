"""Property-based invariants (hypothesis)."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftbench.detector import standardize
from driftbench.nn import AdadeltaState, adadelta_update
from driftbench.tree import hoeffding_bound

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=2, max_size=32))
@example([699051.291833258] * 3)  # constant, but the mean rounds off it
# squared deviations below ~1e-154 underflow and above ~1e154 overflow
@example([1e-170, 3e-170, 2e-170])
@example([0.0, 1.3465504131170187e-160])
@example([1e200, -1e200])
def test_standardize_output_is_zero_mean_unit_sigma_or_zero(values):
    out = standardize(values)
    if np.all(out == 0.0):
        return  # constant input
    assert abs(out.mean()) < 1e-6
    assert abs(out.std() - 1.0) < 1e-6


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=2, max_size=16),
       st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=-1e3, max_value=1e3))
# a resolvable spread that the map shrinks to 1e-10 of the mean: it must
# not be taken for a constant row
@example([0.0, 4e-6], 0.1, 1000.0)
def test_standardize_invariant_to_positive_affine_maps(values, scale, shift):
    # spreads near float epsilon vanish when shifted; the invariance is
    # only meaningful for numerically resolvable inputs
    assume(np.std(values) > 1e-6)
    base = standardize(values)
    mapped = standardize(np.asarray(values) * scale + shift)
    assert np.allclose(base, mapped, atol=1e-6)


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.sampled_from([-1.0, 1.0]))
def test_adadelta_step_opposes_the_gradient(magnitude, sign):
    grad = magnitude * sign
    param = np.array([0.0])
    state = AdadeltaState.for_param(param)
    adadelta_update(param, np.array([grad]), state)
    assert param[0] * grad < 0.0


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_hoeffding_bound_decreases_with_n(n1, n2):
    lo, hi = sorted((n1, n2))
    assert hoeffding_bound(1.0, 1e-7, hi) <= hoeffding_bound(1.0, 1e-7, lo)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.integers(min_value=1, max_value=10**6))
def test_hoeffding_bound_scales_linearly_with_range(r, n):
    assert math.isclose(hoeffding_bound(2.0 * r, 1e-7, n),
                        2.0 * hoeffding_bound(r, 1e-7, n), rel_tol=1e-12)
