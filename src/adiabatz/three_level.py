"""Driven three-level dynamics with quadrature (derivative) leakage control.

Models the lowest levels of a weakly anharmonic oscillator in the frame
rotating at the drive frequency: level energies (0, -detuning, delta -
2*detuning), drive matrix elements W/2 on 0<->1 and sqrt(2) W/2 on 1<->2.
The complex envelope W = x - i D xdot / delta trades in-phase amplitude
against a derivative quadrature to steer spectral weight away from the
leakage transition; the propagators read it at the Gauss nodes of each
step from a not-a-knot cubic spline (_interp.cubic_spline).  A calibration
splines one drive per call and scales its node values by a complex factor
at each trial point.  Only the calibration needs scipy (least_squares),
which it imports when first called.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from ._interp import cubic_spline
from .dynamics import (
    PHASE_PER_STEP, _capped, _fixed_step_count, _gauss_node_times, _magnus4, _su2_chain, _su2_exp,
)

__all__ = [
    "ThreeLevelPulse",
    "RotationTarget",
    "ThreeLevelResult",
    "CalibrationResult",
    "drag_envelope",
    "stark_shift",
    "evolve_three_level",
    "calibrate_pulse",
]

UNITARITY_TOL = 1e-9
# qubit-subspace error below which a calibration counts as converged
ERROR_TARGET = 1e-7
# most steps of one propagation (150 MB a (n, 3, 3) array; drag-sweep takes ~1.8k)
_MAX_STEPS = 1 << 20


@dataclasses.dataclass(frozen=True)
class ThreeLevelPulse:
    """Sampled drive pulse for the three-level simulator.

    Attributes
    ----------
    envelope_x : np.ndarray
        Real in-phase envelope on a uniform grid over [0, t_p] (rad/time).
    drag_d : float
        Dimensionless derivative-quadrature coefficient D.
    delta : float
        Anharmonicity of the third level (rad/time); negative for
        transmon-like spectra.  Must be nonzero.
    detuning : float
        Drive frequency minus qubit frequency (rad/time).
    t_p : float
        Pulse duration.
    drive_phase : float
        Overall drive phase (radians); rotates the target axis in the
        equatorial plane.
    """

    envelope_x: np.ndarray
    drag_d: float
    delta: float
    detuning: float
    t_p: float
    drive_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "envelope_x", np.atleast_1d(np.asarray(self.envelope_x, dtype=float))
        )
        if self.envelope_x.ndim != 1:
            raise ValueError("envelope_x must be 1-D")
        if not 0 < self.t_p < math.inf:  # refuses nan too
            raise ValueError(f"t_p must be positive and finite, got {self.t_p}")
        _anharmonicity(self.delta)
        for name in ("drag_d", "detuning", "drive_phase", "envelope_x"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if len(self.envelope_x) < 8:
            raise ValueError("need at least 8 envelope samples")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_p, len(self.envelope_x))

    @property
    def dt(self) -> float:
        return self.t_p / (len(self.envelope_x) - 1)


class RotationTarget(enum.Enum):
    PI_PULSE = "pi"
    HALF_PI_PULSE = "pi/2"

    @property
    def angle(self) -> float:
        return math.pi if self is RotationTarget.PI_PULSE else math.pi / 2.0


@dataclasses.dataclass(frozen=True)
class ThreeLevelResult:
    """Net rotating-frame unitary and its two error figures.

    err2_avg averages the leakage probabilities 0 -> 2 and 1 -> 2.
    qubit_subspace_error compares the 2x2 qubit block M against the ideal
    rotation V through 1 - |tr(V^dag M)|^2 / (2 tr(M^dag M)); the
    normalization removes leakage loss so the figure isolates rotation
    quality inside the subspace.
    """

    unitary: np.ndarray
    err2_avg: float
    qubit_subspace_error: float


def _anharmonicity(delta: float) -> None:
    if not (math.isfinite(delta) and delta != 0):  # refuses nan too
        raise ValueError(f"delta must be finite and nonzero, got {delta}")


def drag_envelope(envelope_x, drag_d: float, delta: float, dt: float) -> np.ndarray:
    """Complex envelope W = x - i D xdot / delta.

    xdot by second-order central differences (one-sided at the endpoints);
    Fourier-basis envelopes vanish at the ends, so the one-sided error there
    is benign.
    """
    _anharmonicity(delta)
    x = np.asarray(envelope_x, dtype=float)
    xdot = np.gradient(x, dt)
    return x - 1j * drag_d * xdot / delta


def stark_shift(x, drag_d: float, delta: float):
    """Drive-induced frequency shift -(1 + 2D) x^2 / (2 delta); array-friendly."""
    _anharmonicity(delta)
    x = np.asarray(x, dtype=float)
    return -(1.0 + 2.0 * drag_d) * x**2 / (2.0 * delta)


def _step_count(t_p: float, rate, n_steps: int | None) -> int:
    """n_steps, or the fixed rule's count for a run whose levels and drive
    turn at rate at most (rad/time); refused past _MAX_STEPS."""
    if n_steps is None:
        n_steps = _fixed_step_count(t_p * rate, PHASE_PER_STEP, 1024)
    return _capped(n_steps, _MAX_STEPS)


def _propagate(h: float, w1: np.ndarray, w2: np.ndarray, energies: np.ndarray,
               couplings: tuple) -> np.ndarray:
    """Gauss two-node effective-Hamiltonian stepping for a driven ladder,
    the drive w1, w2 at the two nodes of each step of length h."""
    dim = len(energies)

    def ladder(wv):
        ham = np.zeros((len(wv), dim, dim), dtype=complex)
        for k in range(dim):
            ham[:, k, k] = energies[k]
        for j, g in enumerate(couplings):
            ham[:, j, j + 1] = g * wv / 2.0
            ham[:, j + 1, j] = g * np.conj(wv) / 2.0
        return ham

    h1 = ladder(w1)
    h2 = ladder(w2)
    # fourth-order two-node effective generator; the commutator term is
    # anti-Hermitian so h_eff stays Hermitian
    h_eff = (h / 2.0) * (h1 + h2) - 1j * (math.sqrt(3.0) * h * h / 12.0) * (
        h2 @ h1 - h1 @ h2
    )
    evals, vecs = np.linalg.eigh(h_eff)
    steps = (vecs * np.exp(-1j * evals)[:, None, :]) @ np.conj(
        vecs.transpose(0, 2, 1)
    )
    return _chain_product(steps)


def _chain_product(steps: np.ndarray) -> np.ndarray:
    """Time-ordered product steps[n-1] @ ... @ steps[0] by pairwise halving."""
    while len(steps) > 1:
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(steps.shape[1])[None]])
        steps = steps[1::2] @ steps[0::2]
    return steps[0]


def _qubit_unitary(h: float, w1: np.ndarray, w2: np.ndarray, det: float):
    """_propagate for diag(0, -det) on the SU(2) chain, whose blocks take the
    _magnus4 exponents of their steps; the Hamiltonian is
    (Re w/2, -Im w/2, det/2).sigma - det/2, the last term a global phase."""
    x1, y1, x2, y2, z = w1.real / 2.0, -w1.imag / 2.0, w2.real / 2.0, -w2.imag / 2.0, det / 2.0

    def steps(k, m):
        return _su2_exp(*_magnus4((x1[k:m], y1[k:m], z, x2[k:m], y2[k:m], z), h))

    alpha, beta = _su2_chain(steps, len(w1), 1)
    u = np.array([[alpha, -beta.conj()], [beta, alpha.conj()]])
    return np.exp(0.5j * det * h * len(w1)) * u


def _subspace_residual(m: np.ndarray, target: RotationTarget) -> np.ndarray:
    """(m - tr(V^dag m) V / 2) / ||m||_F as 8 reals; V is unitary, so the
    squared norm is 1 - |tr(V^dag m)|^2 / (2 tr(m^dag m)).
    """
    a = target.angle / 2.0
    v = math.cos(a) * np.eye(2) - 1j * math.sin(a) * np.array([[0.0, 1.0], [1.0, 0.0]])
    r = (m - 0.5 * np.vdot(v, m) * v) / np.linalg.norm(m)
    return np.concatenate([r.real.ravel(), r.imag.ravel()])


def _subspace_error(m: np.ndarray, target: RotationTarget) -> float:
    return float(np.sum(_subspace_residual(m, target) ** 2))


def evolve_three_level(
    pulse: ThreeLevelPulse, target: RotationTarget, n_steps: int | None = None
) -> ThreeLevelResult:
    """Integrate the rotating-frame three-level Schroedinger equation.

    Returns the net unitary, the mean of the two leakage probabilities
    P(0 -> 2) and P(1 -> 2), and the qubit-subspace gate error against the
    ideal target rotation.
    """
    w = drag_envelope(pulse.envelope_x, pulse.drag_d, pulse.delta, pulse.dt)
    w = w * np.exp(1j * pulse.drive_phase)
    energies = np.array([0.0, -pulse.detuning, pulse.delta - 2.0 * pulse.detuning])
    n = _step_count(pulse.t_p, np.max(np.abs(energies)) + np.max(np.abs(w)), n_steps)
    h, nodes = _gauss_node_times(0.0, pulse.t_p, n)
    return _ladder_result(h, *cubic_spline(pulse.times, w)(nodes), energies, target)


def _ladder_result(h, w1, w2, energies, target: RotationTarget) -> ThreeLevelResult:
    """The net ladder unitary of drive w1, w2 at the Gauss nodes, and its errors."""
    u = _propagate(h, w1, w2, energies, (1.0, math.sqrt(2.0)))
    drift = float(np.max(np.abs(u.conj().T @ u - np.eye(3))))
    if not drift <= UNITARITY_TOL:  # nan too
        raise RuntimeError(f"non-unitarity {drift:.3e} exceeds {UNITARITY_TOL:.0e}")
    err2_avg = (abs(u[2, 0]) ** 2 + abs(u[2, 1]) ** 2) / 2.0
    return ThreeLevelResult(
        unitary=u,
        err2_avg=float(err2_avg),
        qubit_subspace_error=_subspace_error(u[:2, :2], target),
    )


@dataclasses.dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the (amplitude, detuning, phase) calibration search."""

    amplitude: float
    detuning: float
    phase: float
    qubit_subspace_error: float
    err2_avg: float
    converged: bool
    optimizer_success: bool


def calibrate_pulse(
    shape,
    t_p: float,
    drag_d: float,
    delta: float,
    target: RotationTarget,
    levels: int = 3,
    n_steps: int | None = None,
) -> CalibrationResult:
    """Tune (amplitude, detuning, phase) for the target qubit rotation.

    shape is the unit-amplitude envelope; the returned amplitude multiplies
    it.  levels=2 truncates to the qubit subspace with the plain in-phase
    envelope (the delta -> -inf limit), where the area theorem fixes the
    answer and serves as a sanity anchor.  Levenberg-Marquardt on the
    qubit-block residual off the target rotation (see _subspace_residual),
    seeded by the area theorem and the mean Stark shift; if the subspace
    error cannot reach ERROR_TARGET the best point found is returned with
    converged=False (optimizer_success is the least-squares status).  An
    n_steps that is not an integer in [1, _MAX_STEPS] is refused before the
    fit; a trial point whose step rule passes _MAX_STEPS, or that overflows,
    scores full error, and a fit whose own point has no finite error raises
    RuntimeError.  One spline serves every trial point, of the shape
    at levels=2 and of the seed pulse's drag_envelope at levels=3; a point
    scales its Gauss-node values by amplitude e^(i phase) over the
    amplitude of the splined drive.
    """
    if levels not in (2, 3):
        raise ValueError("levels must be 2 or 3")
    if n_steps is not None:
        _capped(n_steps, _MAX_STEPS)
    shape = np.atleast_1d(np.asarray(shape, dtype=float))
    if shape.ndim != 1:
        raise ValueError("shape must be 1-D")
    if not 0 < t_p < math.inf:
        raise ValueError(f"t_p must be positive and finite, got {t_p}")
    if not np.all(np.isfinite(shape)):
        raise ValueError("shape must be finite")
    times = np.linspace(0.0, t_p, len(shape))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing area is refused below
        area = float(np.trapezoid(shape, times))
    amp0 = target.angle / area if area else math.inf
    if not (math.isfinite(amp0) and amp0):  # a zero, subnormal or overflowing area
        raise ValueError(f"shape must have a finite area with a finite reciprocal, got {area!r}")

    # the splined drive, the shape or at levels=3 the seed's (a huge shape's
    # own xdot can overflow); a trial point scales it by (amp / scale) e^(i phase).
    # A drive past the float range is refused by the spline or scores full
    # error, and the final evaluation refuses a figure that is not a number
    with np.errstate(over="ignore", invalid="ignore"):
        det0, drive, scale = 0.0, shape, 1.0
        if levels == 3:  # the seed pulse names a drag_d or delta that is not finite
            seed = ThreeLevelPulse(amp0 * shape, drag_d, delta, 0.0, t_p)
            det0 = float(np.mean(stark_shift(seed.envelope_x, drag_d, delta)))
            drive, scale = drag_envelope(seed.envelope_x, drag_d, delta, seed.dt), amp0
        spline, peak = cubic_spline(times, drive), np.max(np.abs(drive))

    @functools.lru_cache(maxsize=1)  # a fixed n_steps reads the spline once
    def node_values(n):
        h, nodes = _gauss_node_times(0.0, t_p, n)
        return h, *spline(nodes)

    def evolve(params) -> ThreeLevelResult:
        amp, det, phase = params
        c = amp / scale * np.exp(1j * phase)
        energies = np.array([0.0, -det, delta - 2.0 * det][:levels])
        h, u1, u2 = node_values(_step_count(t_p, np.max(np.abs(energies)) + abs(c) * peak, n_steps))
        if levels == 3:
            return _ladder_result(h, c * u1, c * u2, energies, target)
        u = _qubit_unitary(h, c * u1, c * u2, det)
        return ThreeLevelResult(u, 0.0, _subspace_error(u, target))

    from scipy.optimize import least_squares  # ~0.7 s to import, so not at the top

    def residual(params) -> np.ndarray:  # the fit backs off from a refused or overflowing point
        try:
            with np.errstate(over="raise", invalid="raise"):
                return _subspace_residual(evolve(params).unitary[:2, :2], target)
        except (ValueError, FloatingPointError):
            return np.ones(8)

    fit = least_squares(residual, np.array([amp0, det0, 0.0]), method="lm")
    with np.errstate(over="ignore", invalid="ignore"):
        final = evolve(fit.x)
    if not math.isfinite(final.qubit_subspace_error):
        raise RuntimeError(f"qubit-subspace error {final.qubit_subspace_error} at the fit")
    amp, det, phase = (float(v) for v in fit.x)
    return CalibrationResult(
        amplitude=amp,
        detuning=det,
        phase=phase,
        qubit_subspace_error=final.qubit_subspace_error,
        err2_avg=final.err2_avg,
        converged=bool(final.qubit_subspace_error <= ERROR_TARGET),
        optimizer_success=bool(fit.success),
    )
