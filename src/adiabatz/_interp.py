"""scipy's not-a-knot CubicSpline in numpy alone (scipy.interpolate takes
~0.7 s to import), piecewise cubic Hermite on the knots x with scipy's
coefficients (_hermite, which the remap's inverse shares).  The spline needs
a grid uniform up to rounding, where a fixed filter replaces the banded
solve for its slopes.
"""

import math

import numpy as np

# z1 = sqrt(3) - 2 is the decaying root of z^2 + 4 z + 1: tridiag(1, 4, 1) is
# -(1 - z1 D)(1 - z1 / D) / z1 for the shift D, so its inverse is a causal
# and an anticausal geometric filter, each truncated at z1^32 ~ 5e-19
_Z1 = math.sqrt(3.0) - 2.0
_DOUBLINGS = (1, 2, 4, 8, 16)
_MODE = _Z1 ** np.arange(32)
# points per evaluation block, whose temporaries stay in cache
_BLOCK = 8192


def _hermite(x, y, s):
    """scipy's CubicHermiteSpline coefficients, one row per interval,
    highest power first."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]], axis=-1)


def _uniform_solve(r):
    """Solve the not-a-knot slope system of a uniform grid, rows [1, 2],
    [1, 4, 1] ... [1, 4, 1], [2, 1], for r (n >= 4): the filters invert the
    interior rows, then the decaying modes z1^i and z1^(n-1-i), which the
    interior rows do not see, are fitted to the end rows."""
    n = len(r)
    s = -_Z1 * r
    s[0] = s[-1] = 0.0
    for k in _DOUBLINGS:  # sum_j<32 z1^j D^j, then its reverse
        s[k:] += _Z1**k * s[:-k]
    for k in _DOUBLINGS:
        s[:-k] += _Z1**k * s[k:]
    m = min(n, len(_MODE))
    alpha, beta = 1.0 + 2.0 * _Z1, _Z1 ** (n - 1) + 2.0 * _Z1 ** (n - 2)
    u, v = r[0] - s[0] - 2.0 * s[1], r[-1] - 2.0 * s[-2] - s[-1]
    det = alpha * alpha - beta * beta
    s[:m] += (alpha * u - beta * v) / det * _MODE[:m]
    s[n - m:] += (alpha * v - beta * u) / det * _MODE[m - 1::-1]
    return s


def _not_a_knot_slopes(x, y):
    """Knot slopes of scipy's not-a-knot spline on x uniform up to rounding:
    the uniform solve of scipy's system scaled by the mean step, corrected
    once by its residual on the actual steps (the correction's own error is
    the square of the steps' relative spread).  n = 2 and 3 give scipy's
    line and parabola."""
    n = len(x)
    if n < 4:
        return np.gradient(y, x, edge_order=n - 1)
    dx = np.diff(x)
    m = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b = np.empty(n, dtype=m.dtype)
    b[0] = ((dx[0] + 2 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0
    b[1:-1] = 3 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])
    b[-1] = (dx[-1] ** 2 * m[-2] + (2 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1
    h = (x[-1] - x[0]) / (n - 1)
    s = _uniform_solve(b / h)
    b[0] -= dx[1] * s[0] + d0 * s[1]
    b[1:-1] -= dx[1:] * s[:-2] + 2 * (dx[:-1] + dx[1:]) * s[1:-1] + dx[:-1] * s[2:]
    b[-1] -= d1 * s[-2] + dx[-2] * s[-1]
    return s + _uniform_solve(b / h)


def cubic_spline(x, y):
    """scipy's CubicSpline(x, y) to rounding, for n >= 2 knots x uniform up
    to rounding and real or complex y.  Returns the spline as a function of
    t; the end pieces extend beyond [x[0], x[-1]]."""
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):  # as scipy
        raise ValueError("interpolation knots and values must be finite")
    pieces = _hermite(x, y, _not_a_knot_slopes(x, y))
    x0, per_step, last = x[0], (len(x) - 1) / (x[-1] - x[0]), len(x) - 2

    def spline(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=pieces.dtype)
        for k in range(0, t.size, _BLOCK):  # flat blocks of t and out
            u = t.reshape(-1)[k:k + _BLOCK]
            i = np.clip(((u - x0) * per_step).astype(np.intp), 0, last)
            c = pieces.take(i, axis=0)
            d = u - x.take(i)
            out.reshape(-1)[k:k + _BLOCK] = c[:, 3] + d * (c[:, 2] + d * (c[:, 1] + d * c[:, 0]))
        return out

    return spline
