"""Linearized (geometric) non-adiabatic error and the Landau-Zener reference.

In the frame co-rotating with the instantaneous eigenbasis, the excitation
amplitude accumulated by a slow drive is the Fourier-like integral

    theta_mr = -int_0^{t_p} (dtheta/dt) exp(-i int_0^t omega dt') dt,

and the transition probability is P_e = |theta_mr|^2 / 4 in the linear
regime.  For constant omega this is exactly (1/4) of the waveform's
spectral density at omega.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, Sequence

import numpy as np

from .dynamics import evolve_two_level_direct
from .geometry import _transverse_field
from .waveform import SampledTrajectory

__all__ = [
    "Evaluator",
    "ErrorResult",
    "ErrorCurve",
    "geometric_error",
    "landau_zener_error",
    "error_curve",
]

# beyond this the "angles add linearly" picture degrades
OUT_OF_REGIME_THRESHOLD = 0.5


class Evaluator(enum.Enum):
    LINEARIZED = "linearized"
    EXACT = "exact"


@dataclasses.dataclass(frozen=True)
class ErrorResult:
    """Accumulated error amplitude and transition probability."""

    theta_mr: complex
    p_e: float
    out_of_regime: bool

    def __post_init__(self):
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError(f"p_e out of [0, 1]: {self.p_e}")


def _accumulated_phase(traj: SampledTrajectory) -> np.ndarray:
    """Cumulative trapezoid of omega(t) on the trajectory grid."""
    dt = np.diff(traj.times)
    mid = (traj.omega[1:] + traj.omega[:-1]) / 2.0
    return np.concatenate([[0.0], np.cumsum(mid * dt)])


def geometric_error(traj: SampledTrajectory) -> ErrorResult:
    """Rotating-frame error integral for one trajectory: p_e = |theta_mr|^2/4,
    the linearized answer; the exact dynamics module is the ground truth
    beyond that regime."""
    phase = _accumulated_phase(traj)
    theta_mr = -complex(np.trapezoid(traj.dtheta_dt * np.exp(-1j * phase), traj.times))
    return ErrorResult(
        theta_mr=theta_mr,
        p_e=min(abs(theta_mr) ** 2 / 4.0, 1.0),
        out_of_regime=abs(theta_mr) > OUT_OF_REGIME_THRESHOLD,
    )


def landau_zener_error(h_x: float, ramp_rate: float) -> float:
    """Transition probability exp(-pi h_x^2 / ramp_rate) for a linear sweep.

    ramp_rate is dH_z/dt (hbar = 1); the formula holds for a sweep through
    the crossing from far below to far above.
    """
    _transverse_field(h_x)
    if not ramp_rate > 0:  # refuses nan too
        raise ValueError(f"ramp_rate must be positive, got {ramp_rate}")
    return float(np.exp(-np.pi * h_x**2 / ramp_rate))


@dataclasses.dataclass(frozen=True)
class ErrorCurve:
    """(t_p, P_e) pairs.

    Failed points carry NaN in p_e and an entry in failures.  An EXACT curve
    sums the propagator steps of its points in steps and keeps their worst
    step-error estimate in step_error (None without an exact point).
    """

    t_p: np.ndarray
    p_e: np.ndarray
    failures: tuple = ()
    steps: int = 0
    step_error: float | None = None


def error_curve(
    generator: Callable[[float], SampledTrajectory],
    t_p_grid: Sequence[float],
    evaluator: Evaluator = Evaluator.LINEARIZED,
) -> ErrorCurve:
    """Sweep pulse duration and evaluate the error per point.

    Parameters
    ----------
    generator : callable
        Maps a duration t_p to the trajectory to evaluate (waveform shape
        fixed, time axis stretched).
    t_p_grid : array
        Positive, strictly increasing durations.
    evaluator : Evaluator
        LINEARIZED uses the rotating-frame integral; EXACT delegates to the
        direct dynamics backend.
    """
    grid = np.asarray(t_p_grid, dtype=float)
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("t_p grid must be positive and strictly increasing")
    p_e = np.full(len(grid), np.nan)
    failures, exact = [], []
    for i, t_p in enumerate(grid):
        try:
            traj = generator(float(t_p))
            if evaluator is Evaluator.LINEARIZED:
                p_e[i] = geometric_error(traj).p_e
            else:
                exact.append(evolve_two_level_direct(traj))
                p_e[i] = exact[-1].p_e
        except Exception as exc:  # per-point failure -> partial curve
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return ErrorCurve(grid, p_e, tuple(failures), sum(r.steps for r in exact),
                      max((r.step_error for r in exact), default=None))
