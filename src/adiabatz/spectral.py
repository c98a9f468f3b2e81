"""Power spectral density of control waveforms by direct Fourier quadrature.

S(omega) = |integral_0^{t_p} f(t) exp(-i omega t) dt|^2, evaluated with the
composite trapezoid rule on the signal's own sample grid, which must be
uniform (a non-uniform one raises ValueError); the phase table is factored,
see fourier_integral.  The integral is computed at caller-chosen
frequencies rather than FFT bins because the optimizer needs the spectrum
above an arbitrary cutoff.
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


def fourier_integral(times, values, omegas) -> np.ndarray:
    """Complex F(omega) = trapezoid of f(t) exp(-i omega t) over the grid.

    The grid must be uniform, t_k = t_0 + k d; a non-uniform one raises
    ValueError.  Evaluation is factored: with k = a B + b, B = ceil(sqrt(N)),
    exp(-i omega t_k) = exp(-i omega t_{aB}) exp(-i omega b d), so
    F(omega) = sum_a exp(-i omega t_{aB}) [E(omega) @ G]_a with the M x B
    in-block table E and the weighted samples G reshaped B x A.  That takes
    M (A + B) exponentials instead of M N.  A single sample spans no interval
    and gives zeros.  Accepts real or complex signals; psd() restricts itself
    to real input.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(values)
    f = f.astype(complex) if np.iscomplexobj(f) else f.astype(float)
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
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
    inner = np.exp(-1j * np.outer(w, d * np.arange(b))) @ g
    return np.einsum("ma,ma->m", np.exp(-1j * np.outer(w, t[::b])), inner)


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
