"""Nonlinear time remapping between the constant-frequency frame and lab time.

An optimal waveform derived for the constant precession frequency
omega_x = 2 h_x (tau frame) maps onto an arbitrary excursion through the
crossing by the change of variables omega_x * dtau = omega(t) * dt, which
reduces to dt = sin(theta) dtau.  The forward map is a
cumulative quadrature; the inverse is monotone cubic (PCHIP) interpolation
(_interp.pchip, bitwise scipy's PchipInterpolator and its derivative).
The map is linear in the duration, so a shape is remapped once, at unit lab
duration, and stretched to the duration asked for
(SampledTrajectory.with_t_p); a sweep over durations stretches the one unit
trajectory to each of them.  A waveform's coefficients are its shape over
u = t / t_p, so the remap reads them and never the waveform's own t_p.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._interp import pchip
from .geometry import omega_from_theta
from .waveform import FourierWaveform, SampledTrajectory, _theta_series

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


def invert_remap(table: RemapTable, t_grid) -> SampledTrajectory:
    """Resample theta onto a uniform lab-time grid, at h_x = 1.

    Uses shape-preserving (monotone) cubic interpolation of (t(tau), theta)
    so dtheta/dt stays continuous for the dynamics backends.
    """
    t = np.asarray(t_grid, dtype=float)
    if t[0] < -1e-12 or t[-1] > table.t_p * (1 + 1e-12):
        raise ValueError("t_grid outside [0, t(tau_p)]")
    theta, dtheta = pchip(table.t_of_tau, table.theta_of_tau, t)
    return SampledTrajectory(times=t, theta=theta, dtheta_dt=dtheta)


def remapped_trajectory(
    w: FourierWaveform,
    t_p_lab: float,
    n_samples: int = 4096,
) -> SampledTrajectory:
    """Map a tau-frame waveform onto a lab trajectory of target duration, at
    h_x = 1.

    Only the shape of w is read, not its t_p.  The lab duration scales
    exactly linearly with the frame duration, t_p = tau_p * mean(sin theta),
    so the map is built at unit lab duration (tau_p = 1 / mean(sin theta))
    and its lab trajectory is stretched to t_p_lab.  The tau grid and the
    lab grid both have n_samples points.  A duration sweep builds
    remapped_trajectory(w, 1.0, n) once and stretches it to each t_p with
    with_t_p, which gives remapped_trajectory(w, t_p, n) bitwise.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    u = np.linspace(0.0, 1.0, n_samples)
    theta_shape = _theta_series(w.mode, w.coefficients, w.theta_i, u)
    mean_rate = float(np.trapezoid(np.sin(theta_shape), u))
    table = build_remap(theta_shape, 1.0 / mean_rate)
    t_grid = np.linspace(0.0, table.t_p, n_samples)
    return invert_remap(table, t_grid).with_t_p(t_p_lab)
