"""Fourier-basis control waveforms, sampled trajectories, and window functions.

Two parameterizations of the control angle, each a shape over the unit
duration u = t / t_p, are supported; t_p alone sets the duration.  In the
derivative basis the rate of change is a cosine series that vanishes at
both ends,

    dtheta/du = sum_n lam_n * (1 - cos(2 pi n u)),

with the endpoint constraint theta_f - theta_i = sum_n lam_n.  In the theta
basis the angle itself is the series (out-and-back trajectories),

    theta(u) = theta_i + sum_n lam'_n * (1 - cos(2 pi n u)),

whose midpoint excursion fixes theta_f - theta_i = 2 * sum_{n odd} lam'_n.
Both read a . lam = theta_f - theta_i, with a from _constraint_row, so a
waveform holds theta_i and its coefficients, and theta_f follows from them;
the builders take theta_f and refuse one the coefficients do not reach.

A SampledTrajectory carries its transverse field h_x; the builders here
(sample_trajectory, small_angle_trajectory, linear_ramp_trajectory) work at
h_x = 1, the units of every caller.  It refuses an angle outside (0, pi):
with h_x > 0 fixed no field points there (the ends are |h_z| -> inf).
Sampling such a shape raises ValueError, as remapping it does, rather than
clamping the angle.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from .geometry import _transverse_field, h_z_from_theta, omega_from_theta
from .spectral import _uniform_step

__all__ = [
    "BasisMode",
    "FourierWaveform",
    "derivative_waveform",
    "theta_waveform",
    "eval_fourier",
    "SampledTrajectory",
    "sample_trajectory",
    "small_angle_trajectory",
    "linear_ramp_trajectory",
    "rectangular_window",
    "hanning_window",
]

CONSTRAINT_TOL = 1e-12


class BasisMode(enum.Enum):
    DERIVATIVE = "derivative"
    THETA = "theta"


@dataclasses.dataclass(frozen=True)
class FourierWaveform:
    """Coefficient vector plus initial angle for one control pulse.

    Attributes
    ----------
    mode : BasisMode
        DERIVATIVE for the dtheta/du cosine series, THETA for the
        out-and-back angle series.
    coefficients : np.ndarray
        lam_1..lam_{n_m} of the shape over u = t / t_p, radians in both bases.
    t_p : float
        Pulse duration, the only duration the waveform holds.
    theta_i : float
        Initial angle; the target theta_i + a . lam (the midpoint excursion
        for THETA) follows from the coefficients.
    """

    mode: BasisMode
    coefficients: np.ndarray
    t_p: float
    theta_i: float

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        )
        if not 0 < self.t_p < np.inf:
            raise ValueError(f"t_p must be finite and positive, got {self.t_p}")
        if not np.isfinite(self.coefficients).all():
            raise ValueError(f"coefficients must be finite, got {self.coefficients}")
        if not np.isfinite(self.theta_i):
            raise ValueError(f"theta_i must be finite, got {self.theta_i}")

    def with_t_p(self, t_p: float) -> "FourierWaveform":
        """Same shape, same coefficients, stretched to a new duration."""
        return dataclasses.replace(self, t_p=t_p)


def _constraint_row(mode: BasisMode, n_m: int) -> np.ndarray:
    """a with a . lam = theta_f - theta_i: every term of the derivative
    basis, twice the odd terms of the theta basis."""
    if mode is BasisMode.DERIVATIVE:
        return np.ones(n_m)
    return 2.0 * (np.arange(n_m) % 2 == 0)


def _reaching(w: FourierWaveform, theta_f: float) -> FourierWaveform:
    """w, if its coefficients reach theta_f: a . lam = theta_f - theta_i."""
    a = _constraint_row(w.mode, len(w.coefficients))
    res = float(np.sum(a * w.coefficients) - (theta_f - w.theta_i))
    tol = CONSTRAINT_TOL * max(1.0, abs(theta_f - w.theta_i))
    if not abs(res) <= tol:  # a nan residual fails too
        raise ValueError(
            f"endpoint constraint violated: residual {res:.3e} exceeds {tol:.1e} "
            f"for mode {w.mode.value}"
        )
    return w


def derivative_waveform(
    coefficients, t_p: float, theta_i: float, theta_f: float, normalized: bool = True
) -> FourierWaveform:
    """Convenience builder for the derivative basis.

    With normalized=True the input coefficients are taken as the
    published convention (sum = 1) and scaled by theta_f - theta_i so the
    endpoint constraint holds exactly; otherwise they are the shape's own.
    """
    c = np.atleast_1d(np.asarray(coefficients, dtype=float))
    if normalized:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            s = c.sum()
        if not np.isfinite(s):
            raise ValueError(f"normalized coefficients must have a finite sum, got {s}")
        if s == 0:
            raise ValueError("normalized coefficients must have nonzero sum")
        c = c / s * (theta_f - theta_i)
    return _reaching(FourierWaveform(BasisMode.DERIVATIVE, c, t_p, theta_i), theta_f)


def theta_waveform(coefficients, t_p: float, theta_i: float, theta_f: float) -> FourierWaveform:
    """Convenience builder for the theta (out-and-back) basis."""
    return _reaching(FourierWaveform(BasisMode.THETA, coefficients, t_p, theta_i), theta_f)


def eval_fourier(w: FourierWaveform, t):
    """Evaluate theta(t) and dtheta/dt at the times t in [0, t_p].

    Returns a (theta, dtheta_dt) pair of arrays shaped like t.  The shape
    is read at u = t / t_p, and its rate dtheta/du divided by t_p.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-12) or np.any(t_arr > w.t_p * (1 + 1e-12)):
        raise ValueError("t outside [0, t_p]")
    u = t_arr / w.t_p
    return (
        _theta_series(w.mode, w.coefficients, w.theta_i, u),
        _dtheta_series(w.mode, w.coefficients, u) / w.t_p,
    )


def _phases(n_m: int, u):
    return 2.0 * np.pi * np.multiply.outer(u, np.arange(1, n_m + 1))  # (..., n_m)


def _series(basis, coefficients):
    """sum_n basis[..., n] * coefficients[n], term by term in a fixed order:
    each shape's value does not depend on the other columns of an (n_m, K)
    coefficient matrix, as a matrix product's would (its path depends on K)."""
    total = np.multiply.outer(basis[..., 0], coefficients[0])
    for n in range(1, len(coefficients)):
        total = total + np.multiply.outer(basis[..., n], coefficients[n])
    return total


def _theta_series(mode: BasisMode, coefficients, theta_i: float, u):
    """The shape theta(u) at the points u of [0, 1]; an (n_m, K) coefficient
    matrix gives K shapes at once, on a trailing axis."""
    n_m = len(coefficients)
    phases = _phases(n_m, u)
    if mode is BasisMode.DERIVATIVE:
        # closed-form integral of the series, exact at the sample points
        terms = np.arange(1, n_m + 1)
        basis = np.multiply.outer(u, np.ones(n_m)) - (1.0 / (2.0 * np.pi * terms)) * np.sin(phases)
        return theta_i + _series(basis, coefficients)
    return theta_i + _series(1.0 - np.cos(phases), coefficients)


def _dtheta_series(mode: BasisMode, coefficients, u):
    """The shape's rate dtheta/du at the points u, shaped as _theta_series."""
    n_m = len(coefficients)
    phases = _phases(n_m, u)
    if mode is BasisMode.DERIVATIVE:
        return _series(1.0 - np.cos(phases), coefficients)
    n = np.arange(1, n_m + 1).reshape((n_m,) + (1,) * (np.ndim(coefficients) - 1))
    return _series(np.sin(phases), coefficients * 2.0 * np.pi * n)


@dataclasses.dataclass(frozen=True, eq=False)
class SampledTrajectory:
    """Uniformly sampled control trajectory; arrays that cannot be
    propagated raise ValueError.  theta, dtheta_dt, h_z and omega need one
    sample per time; theta must lie inside (0, pi) and the other three must
    be finite.  h_z and omega left out follow from theta and h_x; a builder
    gives h_z only where it is the control, and omega only where it pins it.

    Attributes
    ----------
    times : np.ndarray
        Uniform grid t_0 + k d spanning t_p (up to the rounding of the
        times themselves).
    theta : np.ndarray
        Control angle per sample, inside (0, pi).
    dtheta_dt : np.ndarray
        Finite angle rate per sample (analytic where available).
    h_z : np.ndarray
        Longitudinal field; defaults to h_x / tan(theta).
    omega : np.ndarray
        Precession frequency used by the linearized error integral; defaults
        to 2*h_x/sin(theta), the physical gap.  The constant-frequency
        idealization (small_angle_trajectory) pins it instead.  The exact
        propagators ignore it and take the gap from theta and h_x.
    h_x : float
        Fixed transverse field, finite and positive; defaults to 1.
    """

    times: np.ndarray
    theta: np.ndarray
    dtheta_dt: np.ndarray
    h_z: np.ndarray | None = None
    omega: np.ndarray | None = None
    h_x: float = 1.0

    def __post_init__(self):
        _transverse_field(self.h_x)  # first: a bad h_x also spoils h_z and omega
        t = np.asarray(self.times, dtype=float)
        if len(t) < 2:
            raise ValueError("need at least two samples")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValueError("times must be strictly increasing")
        _uniform_step(t)
        th = np.asarray(self.theta, dtype=float)
        if not np.all((th > 0) & (th < np.pi)):  # refuses nan too
            raise ValueError("theta must stay inside (0, pi)")
        if self.h_z is None:
            object.__setattr__(self, "h_z", h_z_from_theta(th, self.h_x))
        if self.omega is None:
            object.__setattr__(self, "omega", omega_from_theta(th, self.h_x))
        shapes = {th.shape, np.shape(self.dtheta_dt), np.shape(self.h_z), np.shape(self.omega)}
        if shapes != {t.shape}:
            raise ValueError("theta, dtheta_dt, h_z and omega need one sample per time")
        for name in ("dtheta_dt", "h_z", "omega"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def t_p(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def with_t_p(self, t_p: float) -> "SampledTrajectory":
        """Same samples stretched to a new duration, as FourierWaveform.with_t_p.

        The times become times[0] + linspace(0, t_p, n); theta, h_z and omega
        are kept and dtheta/dt scales by the old duration over the new.  The
        remap is linear in the duration, so a remapped trajectory stretched
        this way is the remapped trajectory of the new duration, and a sampled
        one the sampled trajectory of the new duration up to rounding.
        """
        if not 0 < t_p < np.inf:
            raise ValueError(f"t_p must be finite and positive, got {t_p}")
        return dataclasses.replace(
            self,
            times=self.times[0] + np.linspace(0.0, t_p, len(self.times)),
            dtheta_dt=self.dtheta_dt * self.t_p / t_p,
        )


def sample_trajectory(w: FourierWaveform, n_samples: int = 1024) -> SampledTrajectory:
    """Sample a waveform into a physical trajectory at h_x = 1 (omega tied
    to theta).

    A shape whose angle leaves (0, pi) raises ValueError; it is not clamped.
    """
    times = np.linspace(0.0, w.t_p, n_samples)
    theta, dtheta = eval_fourier(w, times)
    return SampledTrajectory(times=times, theta=theta, dtheta_dt=dtheta)


def small_angle_trajectory(
    w: FourierWaveform, omega0: float, n_samples: int = 1024
) -> SampledTrajectory:
    """Constant-frequency idealization: theta follows the waveform, omega is
    pinned at omega0.  This is the regime in which the error equals the
    waveform's spectral density at omega0 (up to the 1/4 factor)."""
    return dataclasses.replace(
        sample_trajectory(w, n_samples), omega=np.full(n_samples, float(omega0))
    )


def linear_ramp_trajectory(span: float, rate: float, n_samples: int) -> SampledTrajectory:
    """Linear h_z sweep from +span to -span at |dh_z/dt| = rate with h_x = 1
    (the Landau-Zener ramp), with theta and its rate in closed form."""
    if not (0 < span < np.inf and 0 < rate < np.inf):  # refuses nan too
        raise ValueError(f"span and rate must be finite and positive, got {span}, {rate}")
    t = np.linspace(0.0, 2.0 * span / rate, n_samples)
    h_z = span - rate * t
    return SampledTrajectory(
        times=t, theta=np.arctan2(1.0, h_z), dtheta_dt=rate / (1.0 + h_z**2), h_z=h_z
    )


def rectangular_window(n_samples: int) -> np.ndarray:
    """Unit-area rectangular window on [0, 1]."""
    return np.ones(n_samples)


def hanning_window(n_samples: int) -> np.ndarray:
    """Unit-area Hanning window 1 - cos(2 pi t) on [0, 1]."""
    t = np.linspace(0.0, 1.0, n_samples)
    return 1.0 - np.cos(2.0 * np.pi * t)
