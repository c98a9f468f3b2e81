"""Coefficient design: the optimal window's linear solve and exact searches.

The optimal window (optimal_window) is the paper's: derivative-basis
coefficients that sum to 1 with the least power spectral density integrated
above a band edge, the edge realized as a narrow logistic ramp rather than a
hard step (the soft edge keeps the quadratic form well conditioned and
reproduces the published optima; see the closed-form basis transforms
below).  The band power is a quadratic form in the coefficients and the
unit sum is linear, so its optimum is one linear least-squares solve.  A
caller that wants the sum theta_f - theta_i scales it there
(derivative_waveform, normalized=True).  Coefficients are the shape over
the unit duration in both bases (waveform), so one row serves every duration.
Exact objectives (Objective, optimize_coefficients) score candidate
waveforms by the excitation left by exact two-level dynamics, and are
searched by a simplex from a few fixed starts that run in lockstep, each
round's points scored as one batch.
Without rounding the batch's coefficient matrix goes to the constant-gap
kernel (dynamics.remapped_p_e), where theta(u) is the shape in closed
form, in one call on one grid for every candidate and distinct duration of
the window (a window with lo = hi scores its one duration), and a candidate
whose angle leaves (0, pi) is masked and scores 1.0; the search steps it
only until the step error estimates fall to STEP_ATOL + SEARCH_RTOL * P_e,
and the winning candidate is scored again on the fixed step rule, which is
the value reported.
Gaussian rounding acts on the lab control h_z(t), so a rounded candidate is
remapped once onto a lab grid of ROUNDED_SAMPLES points at unit duration,
stretched to each duration of the window, rounded there (by FFT) and
propagated in lab time.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator

import numpy as np

from .dynamics import _MAX_STEPS, STEP_ATOL, evolve_two_level_direct, remapped_p_e
from .geometry import theta_from_fields
from .remap import remapped_trajectory
from .waveform import CONSTRAINT_TOL, BasisMode, FourierWaveform, SampledTrajectory, _constraint_row

__all__ = [
    "ObjectiveKind",
    "Objective",
    "OptimizationReport",
    "basis_transform",
    "convolve_trajectory",
    "optimal_window",
    "optimize_coefficients",
    "optimize_cz_pulse",
]

# logistic width of the band edge, in units of u = omega t_p / 2 pi
EDGE_SOFTNESS = 0.10
# spectral tail truncation: all basis transforms fall at least as 1/u^2,
# so the weight beyond u = 400 is negligible against the band integral
U_MAX = 400.0
# widest step of the band grid, in cycles, that may hold the resonance
# u = n_m of the highest term: two samples per unit-period sinc lobe
_RESONANCE_STEP = 0.5
# evenly spaced durations across the window of an exact objective; the
# distinct ones are scored, so a (t, t) window scores one
WINDOW_DURATIONS = 9
# lab grid of the rounded path: tau and lab samples per remapped duration
ROUNDED_SAMPLES = 2048
# relative step error tolerance of the constant-gap kernel during a search
SEARCH_RTOL = 1e-6


class ObjectiveKind(enum.Enum):
    EXACT_ERROR_MAX_OVER_WINDOW = "exact-error-max-over-window"
    # an alias kept for callers that name it: one duration t is the (t, t) window
    EXACT_ERROR_AT_TP = "exact-error-max-over-window"


@dataclasses.dataclass(frozen=True)
class Objective:
    """What the exact search minimizes: the worst excitation left by exact
    two-level dynamics at h_x = 1 (the crossing period is pi) between the
    endpoint angles, over the distinct values of WINDOW_DURATIONS evenly
    spaced durations of the lab-duration window 0 < lo <= hi < inf (one
    duration when lo = hi), optionally after a finite Gaussian rounding
    width (lab time units) applied to the control h_z(t).
    Unrounded objectives step in the constant-gap frame and size their
    own grid; a rounded one is remapped onto ROUNDED_SAMPLES lab samples.
    """

    kind: ObjectiveKind
    t_p_window: tuple
    theta_i: float
    theta_f: float
    convolution_sigma: float = 0.0

    def __post_init__(self):
        if not 0 <= self.convolution_sigma < np.inf:
            raise ValueError(
                f"convolution_sigma must be finite and >= 0, got {self.convolution_sigma}"
            )
        lo, hi = self.t_p_window
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"bad t_p window ({lo}, {hi})")


@dataclasses.dataclass(frozen=True)
class OptimizationReport:
    """Search outcome; evaluations counts the candidates the exact objective
    scored (the final rescore included), rejected those it scored 1.0
    because their angle left (0, pi) or propagating them raised, and steps
    the propagator steps it took, chains x steps summed over the search and
    the rescore (each duration of each candidate is a chain).  step_error
    is the largest step error estimate over the window at the reported value
    (None for a reported candidate that was rejected, whose value reads
    1.0).  On the rounded path it is the lab propagator's estimate.  The
    remap's samples are exact, but the estimate leaves out the error of
    rounding the ROUNDED_SAMPLES samples and of the propagator's spline
    through them; unrounded and stepped to STEP_RTOL alone, that count puts
    the two-term sweep from h_z = 10 to -10 within 1.1e-7 relative of
    remapped_p_e."""

    coefficients: np.ndarray
    objective_value: float
    iterations: int
    converged: bool
    rejected: int
    step_error: float | None
    evaluations: int
    steps: int


def basis_transform(u, n, mode: BasisMode) -> np.ndarray:
    """Real spectral profile of basis term n over unit duration.

    The Fourier integral of the drive contribution of coefficient 1,
    meaning 1 - cos(2 pi n t) for the derivative basis and its dtheta/dt
    counterpart 2 pi n sin(2 pi n t) for the theta basis, is
    exp(-i pi u) R_n(u) up to
    an n-independent phase, with R_n real.  The sinc composition below is
    exact and finite at every u, including the resonances u = n.  n is an
    integer or an integer array that broadcasts against u, so that
    basis_transform(u[:, None], np.arange(1, n_m + 1), mode) gives every
    term as a column; each entry has the bits of the scalar call, and
    sinc(u) is evaluated once for all of them.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(n)
    sign = np.where(n % 2, -1.0, 1.0)  # (-1)^n
    if mode is BasisMode.DERIVATIVE:
        return np.sinc(u) - sign * (np.sinc(u - n) + np.sinc(u + n)) / 2.0
    return sign * math.pi * n * (np.sinc(u - n) - np.sinc(u + n))


def _band_basis(n_m: int, cutoff: float):
    """The band grid's basis matrix B, the profiles R_n(u) of the derivative
    terms n = 1..n_m as columns, and weights w, the trapezoid weights times
    the logistic band edge, so that w @ (B lam)^2 is the band power of lam.
    The grid samples linearly through the band edge and the first sidelobes
    and at a logarithmic stride for the smooth 1/u^2 tail.  Column n does
    not depend on n_m, so the leading columns of a wider basis are the
    basis of fewer terms.

    Refuses, before building B, an n_m below 1, a cutoff outside (0,
    U_MAX - 5) and an n_m past the grid's resolution: the resonance u = n_m
    of the highest term must lie in a grid step of at most _RESONANCE_STEP
    cycles, since over wider ones the least-squares solve plays the aliased
    sinc lobes of the high terms against each other.  The log tail's stride
    is about u ln(U_MAX / (cutoff + 5)) / 799, 0.005 u at cutoff 2.3, which
    allows n_m <= 99 there.  The bound also caps the len(u) x n_m doubles
    of B."""
    _check_terms(n_m)
    # the u grid runs from the band edge + 5 up to U_MAX
    if not 0 < cutoff < U_MAX - 5.0:
        raise ValueError(f"cutoff must be in (0, {U_MAX - 5.0:g}), got {cutoff}")
    u = np.concatenate(
        [np.arange(0.0, cutoff + 5.0, 0.002), np.geomspace(cutoff + 5.0, U_MAX, 800)]
    )
    du = np.diff(u)
    coarse = np.flatnonzero(du > _RESONANCE_STEP)
    limit = math.floor(u[coarse[0]] if len(coarse) else U_MAX)
    if n_m > limit:
        raise ValueError(
            f"n_m must be <= {limit} at cutoff {cutoff}: past u = {limit} the band grid's "
            f"step exceeds {_RESONANCE_STEP} cycles, got {n_m}"
        )
    basis = basis_transform(u[:, None], np.arange(1, n_m + 1), BasisMode.DERIVATIVE)
    quad = np.empty_like(u)
    quad[0], quad[-1] = du[0] / 2.0, du[-1] / 2.0
    quad[1:-1] = (du[1:] + du[:-1]) / 2.0
    return basis, quad * (1.0 / (1.0 + np.exp(-(u - cutoff) / EDGE_SOFTNESS)))


def _solve_window(basis: np.ndarray, weighted: np.ndarray, n_m: int):
    """The optimal window of the leading n_m columns of a band basis, and its
    band power; see optimal_window."""
    # a contiguous copy: the products below then see the same memory layout,
    # and give the same bits, whatever the width of the basis
    basis = np.ascontiguousarray(basis[:, :n_m])
    root = np.sqrt(weighted)
    first = root * basis[:, 0]
    design = root[:, None] * basis[:, 1:] - first[:, None]
    free, *_ = np.linalg.lstsq(design, -first, rcond=None)
    lam = np.concatenate([[1.0 - np.sum(free)], free])
    amp = basis @ lam
    return lam, float(weighted @ (amp * amp))


class _ExactObjective:
    """Worst exact-dynamics error of the remapped waveform over the distinct
    durations of the window grid: stepped in the constant-gap frame, or on the
    lab grid when rounded.  score() scores a batch of candidates; report()
    scores the result."""

    def __init__(self, objective: Objective, mode: BasisMode):
        self._obj = objective
        self._mode = mode
        # the distinct durations, sorted; np.unique would import numpy.ma
        self._grid = np.array(sorted(set(np.linspace(*objective.t_p_window, WINDOW_DURATIONS))))
        self.rejected = 0
        self.evaluations = 0
        self.steps = 0

    def score(self, lams: np.ndarray, atol: float, rtol: float):
        """(worst P_e over the window, largest step error estimate) of each
        row of lams: unrounded in one kernel call, rounded one by one through
        the lab pipeline.  The tolerance applies to the constant-gap kernel;
        the rounded path keeps the lab propagator's own.  A candidate whose
        angle leaves (0, pi) or whose dynamics blow up scores (1.0, nan) and
        counts once in rejected; the simplex backs off."""
        obj = self._obj
        self.evaluations += len(lams)
        if obj.convolution_sigma == 0:
            result = remapped_p_e(self._mode, lams, obj.theta_i, self._grid, atol, rtol)
            self.steps += result.p_e.size * result.steps
            worst, error = result.p_e.max(1), result.step_error.max(1)
            self.rejected += int(np.count_nonzero(result.rejected))
            return np.where(result.rejected, 1.0, worst), np.where(result.rejected, np.nan, error)
        worst, error = np.zeros(len(lams)), np.zeros(len(lams))
        for k, lam in enumerate(lams):
            w = FourierWaveform(self._mode, lam, 1.0, obj.theta_i)
            try:
                unit = remapped_trajectory(w, 1.0, n_samples=ROUNDED_SAMPLES)
                for t_p in self._grid:
                    lab = unit.with_t_p(float(t_p))
                    r = evolve_two_level_direct(convolve_trajectory(lab, obj.convolution_sigma))
                    self.steps += r.steps
                    worst[k], error[k] = max(worst[k], r.p_e), max(error[k], r.step_error)
            except (ValueError, RuntimeError):
                self.rejected += 1
                worst[k], error[k] = 1.0, np.nan
        return worst, error

    def report(self, lam: np.ndarray, iterations: int, converged: bool) -> OptimizationReport:
        # the default tolerance of the constant-gap kernel is its fixed rule
        (value,), (step_error,) = self.score(lam[None], 0.0, 0.0)
        return OptimizationReport(
            lam, float(value), iterations, converged, self.rejected,
            None if np.isnan(step_error) else float(step_error), self.evaluations, self.steps,
        )


def _assemble(a: np.ndarray, free: np.ndarray, constraint_value: float) -> np.ndarray:
    """Fill lambda_1 from the endpoint constraint a . lam = constraint_value
    (hard elimination)."""
    return np.concatenate([[(constraint_value - np.sum(a[1:] * free)) / a[0]], free])


def _check_terms(n_m: int):
    # a basis of at least one term
    if n_m < 1:
        raise ValueError("n_m must be >= 1")


def optimal_window(n_m: int, cutoff: float):
    """The optimal window: the n_m derivative-basis coefficients, summing to
    1, with the least band power above the band edge cutoff (omega t_p /
    2 pi, in (0, U_MAX - 5)), and that band power.  With lambda_1 = 1 - sum
    of the free terms the weighted amplitude is affine in them, so the
    optimum is one least-squares solve on sqrt(w) B (conditioned like B,
    not like B^T diag(w) B; never above the one-term window, free = 0).
    n_m is bounded by the band grid's resolution (_band_basis: at cutoff
    2.3, n_m <= 99); a larger one raises ValueError.  A table of several
    n_m builds one basis, for the largest, and solves each on its leading
    columns (_solve_window); every row has the bits of this call."""
    return _solve_window(*_band_basis(n_m, cutoff), n_m)


def optimize_coefficients(
    n_m: int,
    mode: BasisMode,
    objective: Objective,
    constraint_value: float,
    seed: int = 0,
    max_iterations: int = 4000,
) -> OptimizationReport:
    """Coefficients minimizing the exact objective under the endpoint
    constraint.

    lambda_1 is solved out of the endpoint constraint a . lam =
    constraint_value, which must be finite and is refused unless it is the
    objective's theta_f - theta_i (to CONSTRAINT_TOL).  A simplex searches
    the n_m - 1 free coefficients from the flat start (the one-term
    waveform) and the spokes +-0.25 |constraint_value| along the first two
    free coordinates (the landscape is multimodal and the useful basins sit
    well away from zero): 3 starts for n_m = 2, 5 for n_m >= 3.  The
    searches (_simplex), each capped at max_iterations (an integer >= 1),
    advance in lockstep and each round's points are scored as one batch, at
    a loose step tolerance; the best is scored again on the fixed step rule,
    and that value is returned.  converged reflects the simplex termination
    status of the winning search.  One term, or a zero constraint (theta_f =
    theta_i, where the flat shape, every free coefficient 0, leaves no
    excitation), needs no search: that one candidate is scored on the fixed
    rule, with 0 iterations, converged.  seed is never read; the keyword
    stays for callers that still pass it.
    """
    _check_terms(n_m)
    try:
        max_iterations = operator.index(max_iterations)
    except TypeError:
        raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}") from None
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    delta = objective.theta_f - objective.theta_i
    if not abs(constraint_value - delta) <= CONSTRAINT_TOL * max(1.0, abs(delta)):
        raise ValueError(f"constraint_value {constraint_value} is not theta_f - theta_i = {delta}")
    value, a = _ExactObjective(objective, mode), _constraint_row(mode, n_m)
    if n_m == 1 or constraint_value == 0:
        return value.report(_assemble(a, np.zeros(n_m - 1), constraint_value), 0, True)

    starts = [np.zeros(n_m - 1)]
    spoke = 0.25 * abs(constraint_value)
    for i in range(min(n_m - 1, 2)):
        for sign in (-1.0, 1.0):
            e = np.zeros(n_m - 1)
            e[i] = sign * spoke
            starts.append(e)

    results = _lockstep(
        [_simplex(x0, max_iterations) for x0 in starts],
        lambda z: value.score(
            np.array([_assemble(a, x, constraint_value) for x in z]), STEP_ATOL, SEARCH_RTOL
        )[0],
    )
    x, _, _, converged = min(results, key=lambda res: res[1])
    iterations = sum(res[2] for res in results)
    return value.report(_assemble(a, x, constraint_value), iterations, converged)


def _simplex(x0: np.ndarray, max_iterations: int):
    """Nelder-Mead as a generator: it yields arrays of points, one per row,
    is sent their values, and returns (x, fun, nit, success).  Step for step
    this is scipy's non-adaptive minimize(method="Nelder-Mead") with xatol
    1e-10, fatol 1e-14, maxiter max_iterations and maxfev twice that, down
    to its sorts and to where the budget runs out inside the initial simplex
    or a shrink."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    max_evaluations, evaluations = 2 * max_iterations, 0

    def scored(points):
        # the values of the leading points that the budget still covers
        nonlocal evaluations
        take = min(len(points), max_evaluations - evaluations)
        evaluations += take
        return (yield points[:take]) if take else np.empty(0)

    n = len(x0)
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    values = yield from scored(sim)
    fsim[: len(values)] = values
    order = np.argsort(fsim)  # scipy sorts here and at the top of each round
    sim, fsim, iterations = sim[order], fsim[order], 1
    # a step that the budget cuts short is dropped (continue), as in scipy
    while True:
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if evaluations >= max_evaluations or iterations >= max_iterations or (
            np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
            and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-14
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield from scored(xr[None])
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            values = yield from scored(xe[None])
            if not len(values):
                continue
            sim[-1], fsim[-1] = (xe, values[0]) if values[0] < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside the simplex, or inside it, or shrink
            outside = fxr < fsim[-1]
            xc = ((1 + psi * rho) * xbar - psi * rho * sim[-1] if outside
                  else (1 - psi) * xbar + psi * sim[-1])
            values = yield from scored(xc[None])
            if not len(values):
                continue
            if values[0] <= fxr if outside else values[0] < fsim[-1]:
                sim[-1], fsim[-1] = xc, values[0]
            else:
                shrunk = sim[0] + sigma * (sim[1:] - sim[0])
                values = yield from scored(shrunk)
                # scipy moves a point before scoring it: a cut moves one more
                k = len(values)
                sim[1 : k + 2], fsim[1 : k + 1] = shrunk[: k + 1], values
                if k < n:
                    continue
        iterations += 1
    success = evaluations < max_evaluations and iterations < max_iterations
    return sim[0], np.min(fsim), iterations, success


def _lockstep(searches, score):
    """Run generator searches together: each round, the points that all live
    searches ask for go to score (M points to M values) in one call.
    Returns each search's result, in order."""
    results, sent = [None] * len(searches), dict.fromkeys(range(len(searches)))
    while True:
        asks = {}
        for k, values in sent.items():
            try:
                asks[k] = searches[k].send(values)
            except StopIteration as stop:
                results[k] = stop.value
        if not asks:
            return results
        points = list(asks.values())
        values = score(np.concatenate(points))
        sent = dict(zip(asks, np.split(values, np.cumsum([len(p) for p in points[:-1]]))))


def convolve_trajectory(traj: SampledTrajectory, sigma: float) -> SampledTrajectory:
    """Round the physical control h_z(t) and rebuild the trajectory.

    Smoothing acts on the longitudinal field (the signal the electronics
    actually produce), not on theta.  The kernel is the unit-integral Gaussian
    of width sigma sampled on the dt grid and cut at 5 sigma, half = ceil(5
    sigma / dt) samples each side.  h_z is continued by its endpoint values
    before convolving, so a constant control passes through unchanged, and
    the pulse grows by the kernel support: n + 2 half samples on the same dt
    grid.  sigma = 0 returns traj itself.  The lab propagator takes at least
    one step a sample, so a rounded pulse of more than _MAX_STEPS + 1
    samples raises ValueError before any array is built.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return traj
    dt = traj.dt
    half = np.ceil(5.0 * float(sigma) / dt)  # a float, inf past the float range
    length = len(traj.times) + 2 * half
    if length - 1 > _MAX_STEPS:
        raise ValueError(
            f"rounded trajectory of {length:.4g} samples exceeds the step cap of {_MAX_STEPS}"
        )
    half = int(half)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * dt / sigma) ** 2)
    kernel = kernel / (kernel.sum() * dt)
    padded = np.concatenate(
        [np.full(2 * half, traj.h_z[0]), traj.h_z, np.full(2 * half, traj.h_z[-1])]
    )
    # np.convolve's "valid" part is entries 2 half .. len(padded) - 1 of the
    # full convolution, which a circular one of length >= len(padded) keeps
    # free of wrap-around
    size = 1 << (len(padded) - 1).bit_length()
    spectrum = np.fft.rfft(padded, size) * np.fft.rfft(kernel * dt, size)
    h_z = np.fft.irfft(spectrum, size)[2 * half : len(padded)]
    times = np.arange(len(h_z)) * dt
    theta = theta_from_fields(h_z, traj.h_x)
    return SampledTrajectory(
        times=times, theta=theta, dtheta_dt=np.gradient(theta, dt), h_z=h_z, h_x=traj.h_x
    )


def optimize_cz_pulse(
    theta_i: float,
    theta_f: float,
    n_coeffs: int,
    sigma: float,
    t_p_window: tuple | None = None,
    max_iterations: int = 300,
) -> OptimizationReport:
    """Out-and-back excursion search scored by exact dynamics.

    The candidate is a theta-basis waveform from theta_i out to theta_f and
    back, remapped onto lab time, optionally rounded with a Gaussian of
    width sigma (lab time), and scored by the worst exact error at h_x = 1
    over the duration window (default windows frozen against the reference
    solutions: around one crossing period, pi, without rounding, and around
    two with it, frozen against sigma = 0.1 T_x; it is taken whatever sigma
    is).  The search is optimize_coefficients', so theta_f = theta_i scores
    the flat shape with no search, and n_coeffs < 1 is refused there.
    """
    if not 0 < theta_i <= theta_f < np.pi / 2:
        raise ValueError("need 0 < theta_i <= theta_f < pi/2")
    if t_p_window is None:
        t_p_window = (0.9 * np.pi, 1.15 * np.pi) if sigma == 0 else (1.85 * np.pi, 2.15 * np.pi)
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW,
        t_p_window=t_p_window,
        convolution_sigma=sigma,
        theta_i=theta_i,
        theta_f=theta_f,
    )
    return optimize_coefficients(
        n_coeffs, BasisMode.THETA, objective, theta_f - theta_i, max_iterations=max_iterations
    )
