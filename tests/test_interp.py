"""The numpy interpolants against scipy's, which serve here as the oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

from adiabatz._interp import cubic_spline, pchip

GRIDS = {
    "origin": lambda n: np.linspace(0.0, 3.0, n),
    "negative": lambda n: np.linspace(-5.0, 7.0, n),
    "arange": lambda n: np.arange(n) * 0.37,
    # |x| / step up to 4e8: the rounding of the knots spreads the steps by
    # ~5e-8 of a step, which scipy takes as a non-uniform grid
    "far": lambda n: 1000.0 + np.linspace(0.0, 1e-2, n),
}


def _points(rng, x):
    # the knots, points between them, and half a step beyond each end
    half = 0.5 * (x[1] - x[0])
    return np.concatenate([x, rng.uniform(x[0], x[-1], 2000), [x[0] - half, x[-1] + half]])


@settings(deadline=None, max_examples=80)
@given(
    st.integers(2, 4097), st.sampled_from(sorted(GRIDS)), st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(2, "far", False, 0)
@example(3, "far", True, 1)
@example(4, "origin", False, 2)
@example(33, "far", True, 3)
@example(4097, "far", True, 4)
def test_spline_matches_scipy(n, grid, complex_values, seed):
    # within 1e-13 of the largest |y|, for real and complex data
    rng = np.random.default_rng(seed)
    x = GRIDS[grid](n)
    y = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_values else 0.0)
    t = _points(rng, x)
    got = cubic_spline(x, y)(t)
    assert got.dtype == y.dtype
    np.testing.assert_allclose(got, CubicSpline(x, y)(t), rtol=0, atol=1e-13 * np.max(np.abs(y)))


def test_spline_keeps_the_shape_of_the_times():
    x = np.linspace(0.0, 1.0, 50)
    t = np.linspace(0.0, 1.0, 3 * 9000).reshape(3, 9000)  # more than one block
    np.testing.assert_allclose(cubic_spline(x, x**2)(t), t**2, rtol=0, atol=1e-15)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(2, 300),
    st.sampled_from(["random", "monotone", "steps", "flat"]),
    st.integers(0, 2**32 - 1),
)
@example(2, "random", 0)
@example(2, "flat", 0)
@example(3, "random", 1)
@example(3, "steps", 2)
@example(3, "flat", 3)
def test_pchip_is_bitwise_scipys(n, data, seed):
    # non-uniform knots; flat stretches and turning points exercise the zero
    # slopes and the shape-preserving end rule
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.1, 1.0, n))
    y = {
        "random": rng.normal(size=n),
        "monotone": np.cumsum(rng.uniform(0.0, 1.0, n)),
        "steps": np.round(rng.normal(size=n)),
        "flat": np.full(n, 0.3),
    }[data]
    t = _points(rng, x)
    value, slope = pchip(x, y, t)
    ref = PchipInterpolator(x, y)
    assert np.array_equal(value, ref(t))
    assert np.array_equal(slope, ref.derivative()(t))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_interpolants_refuse_non_finite_data(bad):
    x = np.linspace(0.0, 1.0, 8)
    y = np.ones(8)
    y[3] = bad
    with pytest.raises(ValueError, match="finite"):
        cubic_spline(x, y)
    with pytest.raises(ValueError, match="finite"):
        pchip(x, y, x)
