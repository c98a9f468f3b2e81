"""Nonlinear time remapping between the constant-frequency frame and lab time.

An optimal waveform derived for the constant precession frequency
omega_x = 2 h_x (tau frame) maps onto an arbitrary excursion through the
crossing by the change of variables omega_x * dtau = omega(t) * dt, which
reduces to dt = sin(theta) dtau.  On u = tau / tau_p the lab time is
t(u) = tau_p S(u), S(u) = int_0^u sin(theta), so the map is linear in the
duration: a shape is remapped once, at unit lab duration (tau_p = 1 / S(1)),
and stretched to the duration asked for (SampledTrajectory.with_t_p); a
sweep over durations stretches the one unit trajectory to each of them.  A
waveform's coefficients are its shape over u, so the remap reads them and
never the waveform's own t_p.

invert_remap samples the lab trajectory from the closed-form shape:
Simpson's rule gives S at the sample grid, a cubic Hermite with the exact
slopes du/dS = 1 / sin(theta) inverts it at the uniform lab times, and theta
and its rate are evaluated in closed form there.  build_remap is the
second-order trapezoid map of a sampled angle, the reference the tests
compare the remap against.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np

from ._interp import _hermite
from .geometry import omega_from_theta
from .waveform import FourierWaveform, SampledTrajectory, _dtheta_series, _theta_series

__all__ = ["RemapTable", "build_remap", "invert_remap", "remapped_trajectory"]


@dataclasses.dataclass(frozen=True)
class RemapTable:
    """Forward map tau -> (t, theta) on a uniform tau grid."""

    tau: np.ndarray
    t_of_tau: np.ndarray
    theta_of_tau: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.t_of_tau) > 0):
            raise ValueError("t(tau) must be strictly increasing")
        if self.t_of_tau[0] != 0:
            raise ValueError("t(0) must be 0")

    @property
    def t_p(self) -> float:
        return float(self.t_of_tau[-1])


def build_remap(theta_of_tau, tau_p: float) -> RemapTable:
    """Integrate dt/dtau = omega_x/omega(theta) = sin(theta) on a uniform tau grid.

    Parameters
    ----------
    theta_of_tau : array
        Angle samples on the uniform grid over [0, tau_p]; must stay
        strictly inside (0, pi) (the poles put infinite frequency in the
        lab frame).
    tau_p : float
        Duration in the constant-frequency frame, whose frequency is
        omega_x = 2*h_x, the gap at the crossing; the map is the same for every h_x.
    """
    theta = np.asarray(theta_of_tau, dtype=float)
    if not 0 < tau_p < np.inf:  # refuses nan too
        raise ValueError("tau_p must be finite and positive")
    if not np.all((theta > 0) & (theta < np.pi)):  # refuses nan too
        raise ValueError("theta(tau) must stay strictly inside (0, pi)")
    tau = np.linspace(0.0, tau_p, len(theta))
    rate = 2.0 / omega_from_theta(theta)  # sin(theta)
    dt_mid = (rate[1:] + rate[:-1]) / 2.0 * np.diff(tau)
    t = np.concatenate([[0.0], np.cumsum(dt_mid)])
    return RemapTable(tau=tau, t_of_tau=t, theta_of_tau=theta)


def _unit_shape(w: FourierWaveform, n_samples: int):
    """sin(theta) and S(u) = int_0^u sin(theta) of w's shape at n_samples
    points of [0, 1], S by Simpson's rule on each interval with theta at its
    midpoint too: S[-1] = <sin theta> is the scale t_p = tau_p <sin theta>
    of the remap.  Only the angle is read, never its rate, and a shape that
    leaves (0, pi) at these points raises ValueError."""
    u = np.linspace(0.0, 1.0, 2 * n_samples - 1)
    theta = _theta_series(w.mode, w.coefficients, w.theta_i, u)
    if not np.all((theta > 0) & (theta < np.pi)):  # refuses nan too
        raise ValueError("theta(tau) must stay strictly inside (0, pi)")
    rate = np.sin(theta)
    area = (rate[:-2:2] + 4.0 * rate[1::2] + rate[2::2]) / (6.0 * (n_samples - 1))
    return rate[::2], np.concatenate([[0.0], np.cumsum(area)])


def invert_remap(w: FourierWaveform, n_samples: int) -> SampledTrajectory:
    """The lab trajectory of w's shape at unit duration and h_x = 1, on
    n_samples uniform times t_k.

    The sample t_k sits at the u_k with S(u_k) = t_k S(1).  u(S) is the
    cubic Hermite through the points (S_j, u_j) of _unit_shape with the
    exact slopes du/dS = 1 / sin(theta_j), and theta and
    dtheta/dt = theta'(u) S(1) / sin(theta) are the closed form at u_k.
    """
    try:
        n = operator.index(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n < 2:
        raise ValueError("need at least two samples")
    rate, area = _unit_shape(w, n)
    pieces = _hermite(area, np.linspace(0.0, 1.0, n), 1.0 / rate)
    target = np.linspace(0.0, area[-1], n)
    i = np.clip(np.searchsorted(area, target, side="right") - 1, 0, n - 2)
    c, d = pieces[i], target - area[i]
    u = c[:, 3] + d * (c[:, 2] + d * (c[:, 1] + d * c[:, 0]))
    theta = _theta_series(w.mode, w.coefficients, w.theta_i, u)
    dtheta = _dtheta_series(w.mode, w.coefficients, u) * area[-1] / np.sin(theta)
    return SampledTrajectory(times=np.linspace(0.0, 1.0, n), theta=theta, dtheta_dt=dtheta)


def remapped_trajectory(
    w: FourierWaveform,
    t_p_lab: float,
    n_samples: int = 4096,
) -> SampledTrajectory:
    """Map a tau-frame waveform onto a lab trajectory of target duration, at
    h_x = 1, with n_samples samples.

    Only the shape of w is read, not its t_p.  The lab duration scales
    exactly linearly with the frame duration, so this is the unit-duration
    trajectory invert_remap(w, n_samples) stretched to t_p_lab.  A duration
    sweep builds remapped_trajectory(w, 1.0, n) once and stretches it to
    each t_p with with_t_p, which gives remapped_trajectory(w, t_p, n)
    bitwise.
    """
    return invert_remap(w, n_samples).with_t_p(t_p_lab)
