"""Power spectral density of control waveforms by direct Fourier quadrature.

S(omega) = |integral_0^{t_p} f(t) exp(-i omega t) dt|^2, evaluated with the
composite trapezoid rule on the signal's own sample grid, which must be
uniform (a non-uniform one raises ValueError).  The phase tables are
factored twice, see fourier_integral: M frequencies on N samples take about
4 M N^(1/4) complex exponentials, the rest of the work being complex
products.  The integral is computed at caller-chosen frequencies rather than
FFT bins because the optimizer needs the spectrum above an arbitrary cutoff.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = ["SpectralDensity", "fourier_integral", "psd"]

# largest max_k |t_k - (t_0 + k d)| accepted as uniform, in units of d, on
# top of the rounding of the times themselves: far below any deliberately
# uneven grid
_UNIFORM_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class SpectralDensity:
    """Frequency grid with S(omega) >= 0.

    Dimensionless when the waveform is normalized to unit area; then
    S(0) = 1 exactly (squared area).
    """

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.values) < 0):
            raise ValueError("spectral density must be nonnegative")


def _uniform_step(t: np.ndarray) -> float:
    """Step d of a grid t_k = t_0 + k d (at least two samples); ValueError if
    any t_k is off that line by more than _UNIFORM_TOL d plus the rounding of
    the times themselves."""
    n = len(t)
    d = (t[-1] - t[0]) / (n - 1)
    rounding = 8.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]))
    if not np.max(np.abs(t - (t[0] + d * np.arange(n)))) <= _UNIFORM_TOL * abs(d) + rounding:
        raise ValueError("time grid must be uniform")
    return d


def _phase_table(w: np.ndarray, t0: float, step: float, count: int) -> np.ndarray:
    """The M x count table exp(-i w_m (t0 + k step)), k < count, as the
    product of two tables of about sqrt(count) columns: with k = q s + r,
    s = ceil(sqrt(count)), it is exp(-i w (t0 + q s step)) exp(-i w r step)."""
    s = math.isqrt(count - 1) + 1
    coarse = np.exp(-1j * np.outer(w, t0 + (s * step) * np.arange(-(-count // s))))
    fine = np.exp(-1j * np.outer(w, step * np.arange(s)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(w), -1)[:, :count]


def fourier_integral(times, values, omegas) -> np.ndarray:
    """Complex F(omega) = trapezoid of f(t) exp(-i omega t) over the grid.

    The grid must be uniform, t_k = t_0 + k d; a non-uniform one raises
    ValueError, and so does a frequency grid that is not finite or has more
    than one dimension (a scalar is one frequency).  Evaluation is factored:
    with k = a B + b, B = ceil(sqrt(N)), exp(-i omega t_k) =
    exp(-i omega (t_0 + a B d)) exp(-i omega b d), so F(omega) = sum_a
    exp(-i omega (t_0 + a B d)) [E(omega) @ G]_a with the M x B in-block
    table E and the weighted samples G reshaped B x A.  Each of the two
    phase tables is itself the product of two tables of about the square
    root of its width (_phase_table), so the M x N phases take about
    2 M (sqrt(A) + sqrt(B)) exponentials, and M (A + B) complex products.
    A single sample spans no interval and gives zeros.  Accepts real or
    complex signals; psd() restricts itself to real input.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values)
    f = f.astype(complex) if np.iscomplexobj(f) else f.astype(float)
    w = np.asarray(omegas, dtype=float)
    if w.ndim > 1:
        raise ValueError(f"frequency grid must be one-dimensional, got shape {w.shape}")
    w = np.atleast_1d(w)
    if not np.all(np.isfinite(w)):
        raise ValueError("frequency grid must be finite")
    if not np.all(np.isfinite(f)):
        raise ValueError("signal must be finite")
    n = len(t)
    if n < 2:
        return np.zeros(len(w), dtype=complex)
    d = _uniform_step(t)
    b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // b)
    # trapezoid weights d (1/2, 1, ..., 1, 1/2), zero-padded to whole blocks
    g = np.zeros(blocks * b, dtype=f.dtype)
    g[:n] = d * f
    g[0] /= 2.0
    g[n - 1] /= 2.0
    g = g.reshape(blocks, b).T
    inner = _phase_table(w, 0.0, d, b) @ g
    return np.einsum("ma,ma->m", _phase_table(w, t[0], b * d, blocks), inner)


def psd(times, values, omegas) -> SpectralDensity:
    """Spectral density of a sampled real signal at arbitrary frequencies.

    Parameters
    ----------
    times : array
        Uniformly spaced sample instants covering [0, t_p].
    values : array
        Real signal samples f(t).
    omegas : array
        Finite, nonnegative angular frequencies at which to evaluate S.
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if not np.all((w >= 0) & (w < np.inf)):  # refuses nan too
        raise ValueError("frequency grid must be finite and nonnegative")
    if np.iscomplexobj(values):  # omega >= 0 is half of a complex signal's spectrum
        raise ValueError("signal must be real")
    F = fourier_integral(times, values, w)
    return SpectralDensity(omegas=w, values=np.abs(F) ** 2)
