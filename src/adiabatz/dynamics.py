"""Exact two-level dynamics: moving-frame RK4 ODE and a direct propagator.

Two independent formulations of the same evolution serve as mutual checks.
The first takes fixed-step RK4 on the PHASE_PER_STEP rule for the
instantaneous-eigenbasis amplitudes; its step maps are (non-unit)
quaternions, built elementwise and chained pairwise, with the norm drift
from the product of the step norms.  The second chains per-step SU(2)
exponentials of the lab-frame 2x2 Hamiltonian as unit quaternions, with a
fourth-order two-node Magnus step whose exponents are built from the lab
field (h_x, 0, z) block by block; it doubles its step count once from a
coarse pilot, then jumps to the count the fourth order predicts, until a
Richardson estimate of the step error meets STEP_ATOL + STEP_RTOL * P_e, and
reports that estimate with the answer.  Both derive the
Hamiltonian from theta(t) and the trajectory's h_x alone, read between the
samples from a not-a-knot cubic spline (_interp.cubic_spline, scipy's
CubicSpline in numpy); a pinned omega field on the trajectory is a
linearized-analysis device and is ignored here.  Both report P_e = |beta|^2
off the final amplitudes (alpha, beta) on the instantaneous eigenstates.
The same quaternion chain also steps remapped Fourier waveforms at h_x = 1
directly in the constant-gap frame (remapped_p_e, the kernel of the
unrounded exact searches and of the CLI's remapped exact error-curve), with
a sixth-order three-node Magnus step whose exponent is a polynomial in the
duration scale, on its own rule (TAU_PHASE_PER_STEP) under the same loop
(_richardson): one call takes a (K, n_m) coefficient matrix of shapes and
returns a frozen RemappedResult, with the shapes whose angle leaves (0, pi)
masked; searches pass a loose tolerance, and the default tolerance 0 runs
up to the fixed rule's own count.  Of a mirror-symmetric call it chains
only u in [0, 1/2], Uh, and counts in steps the steps it chains:
U = Uh^T Uh for theta-basis shapes, theta(1 - u) = theta(u), and
U = sigma_x Uh^T sigma_x Uh for derivative-basis ones with
theta_i + theta(1) = pi, theta(1 - u) = pi - theta(u), with an odd grid's
middle step between the halves.  Its grids stop at _MAX_STEPS steps.
Every path is one _su2_chain read off its pair (alpha, beta), the product
U = [[alpha, -beta*], [beta, alpha*]]: the ODE's pair is its final state
(its chain acts on (1, 0)), and the lab propagator and the kernel share one
elementwise readout of U psi0 on the eigenstates at theta_f (_amplitudes).
"""

from __future__ import annotations

import dataclasses
import math
import operator

import numpy as np

from ._interp import cubic_spline
from .geometry import excited_state, ground_state
from .waveform import BasisMode, SampledTrajectory, _dtheta_series, _theta_series

__all__ = [
    "TwoLevelState",
    "EvolutionResult",
    "evolve_two_level_exact",
    "evolve_two_level_direct",
    "RemappedResult",
    "remapped_p_e",
]

AB_PRODUCT_TOL = 1e-9
NORM_DRIFT_TOL = 1e-9
# fixed step rule (_fixed_step_count): rotation angle per step, small
# enough for ~1e-10 step error at fourth order.  It sizes the product ODE,
# the three-level ladder and the direct propagator, whose error-controlled
# loop (_richardson) takes its pilot (1/PILOT_DIVISOR of the rule's count) and
# cap from it
PHASE_PER_STEP = 0.0125
# the rule of the sixth-order constant-gap kernel (remapped_p_e), for the
# same ~1e-10 aim (a finer rule leaves its estimate at the rounding floor)
TAU_PHASE_PER_STEP = 0.1
# error control of the direct propagator: the Richardson estimate of the
# returned P_e must fall to STEP_ATOL + STEP_RTOL * P_e (searches on the
# constant-gap kernel use STEP_ATOL with a looser relative tolerance)
STEP_ATOL = 1e-12
STEP_RTOL = 1e-8
PILOT_DIVISOR = 16
# most steps of one lab run (the ODE's, or one run of the direct
# propagator), whose peak memory grows ~85 MB (ODE) and ~40 MB (direct) a
# million steps.  The test suite's largest, a 4x-rule reference on a slow
# ramp, takes 2.58 M
_MAX_STEPS = 1 << 22
# the constant-gap kernel's pilot, at 0.4 rad a step: from 0.6 rad a step
# its first doubling can be short of the asymptotic ratio 64 and
# underestimate the error
TAU_PILOT_DIVISOR = 4
# elements (chains x steps) per aligned block of the SU(2) chain: each block
# is reduced to one step before the next is built, which bounds the memory
CHAIN_BLOCK = 2**14
# Gauss-Legendre nodes and weights of three points on a unit step
GAUSS3_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
GAUSS3_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclasses.dataclass(frozen=True)
class TwoLevelState:
    """Final amplitudes (alpha, beta) on the instantaneous ground and excited
    eigenstates.  ab_product = alpha* beta; on a unit state its magnitude
    cannot exceed 1/2."""

    amplitudes: tuple

    @property
    def ab_product(self) -> complex:
        alpha, beta = self.amplitudes
        return alpha.conjugate() * beta

    def __post_init__(self):
        mag = abs(self.ab_product)
        if mag > 0.5 + AB_PRODUCT_TOL:
            raise RuntimeError(
                f"|alpha* beta| = {mag:.12f} exceeds 1/2: numerical failure"
            )


@dataclasses.dataclass(frozen=True)
class EvolutionResult:
    """Excitation probability |beta|^2 plus the final state and a drift
    diagnostic.

    norm_drift is the state-norm error of the direct propagator and the
    worst | |psi|^4 - 1 | over the steps of the ODE.
    step_error is the Richardson estimate of the step error in p_e, set only
    by the error-controlled direct propagator (None for a fixed n_steps and
    for the ODE).  steps counts the integration steps over all runs made.
    """

    p_e: float
    final_state: TwoLevelState
    norm_drift: float
    step_error: float | None
    steps: int


def _fixed_step_count(phase: float, per_step: float, floor: int) -> int:
    """The fixed step rule: phase bounds the rotation angle of the whole
    run (duration times the largest rate), each step takes at most
    per_step of it (PHASE_PER_STEP, or TAU_PHASE_PER_STEP for the
    sixth-order kernel), and there are at least floor steps."""
    return max(floor, math.ceil(phase / per_step))


def _gauss_node_times(start: float, duration: float, n: int):
    """Step length h and the two Gauss-node times of each of n equal steps
    from start, as a (2, n) array."""
    h = duration / n
    mid = start + (np.arange(n) + 0.5) * h
    return h, mid + np.array([[-1.0], [1.0]]) * h / (2.0 * math.sqrt(3.0))


def _richardson(run, n_rule: int, divisor: int, order: int, atol: float, rtol: float):
    """Error-controlled step count: run(n) returns (P, state, steps) for an
    n-step grid of a method of the given order (4 for the lab path, 6 for
    the constant-gap kernel), steps counting those it computed.

    From a pilot at ceil(n_rule / divisor) steps the count doubles once.
    The finer run m of each pair carries the Richardson estimate
    E = |P(m) - P(n)| / ((m/n)^order - 1) (/15 or /63 for a doubling).
    While E misses tol = atol + rtol * P on some entry of P, the next count
    is m (2 max(E / tol))^(1/order), where an error of that order falls to
    half the tolerance, at least 2m and at most the rule's count; a ratio
    E / tol that is 0 or not finite (a tolerance of 0, which is never met)
    goes straight to the rule.  The loop stops when every entry meets its
    tolerance or the finer run reaches the rule's count, which it never
    exceeds (n_rule = 1 caps at 2: an estimate needs two counts).
    Returns the finer run's P and state, the estimate and the steps of all
    runs summed.
    """
    cap = max(n_rule, 2)
    n = math.ceil(n_rule / divisor)
    p, _, steps = run(n)
    m = min(2 * n, cap)
    while True:
        p_fine, state, run_steps = run(m)
        steps += run_steps
        error = abs(p_fine - p) / ((m / n) ** order - 1.0)
        n, p = m, p_fine
        tol = atol + rtol * p
        met = (error <= tol) & (tol > 0.0)  # an array for an array of P
        if n == cap or (met.all() if isinstance(met, np.ndarray) else met):
            return p, state, error, steps
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = float(np.max(np.divide(error, tol)))
        target = n * (2.0 * ratio) ** (1.0 / order) if 0.0 < ratio < math.inf else cap
        m = min(cap, max(2 * n, math.ceil(min(target, cap))))


def _capped(n: int, cap: int) -> int:
    """n, the step count of one run, refused unless an integer (by
    operator.index) in [1, cap] (_MAX_STEPS of its module) before any of the
    run's arrays is built."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError("n_steps must be an integer") from None
    if n < 1:
        raise ValueError("n_steps must be >= 1")
    if n > cap:
        raise ValueError(f"step count {n} exceeds the cap of {cap}")
    return n


def _n_steps(traj: SampledTrajectory, n_steps: int | None) -> int:
    if n_steps is not None:
        return _capped(n_steps, _MAX_STEPS)
    omega = 2.0 * traj.h_x / np.sin(traj.theta)
    rate = float(np.max(omega) + np.max(np.abs(traj.dtheta_dt)))
    return _fixed_step_count(traj.t_p * rate, PHASE_PER_STEP, len(traj.times) - 1)


def evolve_two_level_exact(
    traj: SampledTrajectory, n_steps: int | None = None
) -> EvolutionResult:
    """Fixed-step RK4 on the moving-frame amplitudes psi = (alpha, beta),
    psi' = X psi from the instantaneous ground state, with X the quaternion
    [[a, -b*], [b, a*]], (a, b) = (-i omega/2, (dtheta/dt)/2); P_e = |beta|^2
    at t_p.

    Each RK4 step map, a real polynomial in the X of its ends and midpoint,
    is a (non-unit) quaternion; the maps are chained pairwise (_su2_chain).
    The norm is multiplicative: norm_drift is the worst | |psi_k|^4 - 1 |
    over the steps, and |alpha* beta| <= |psi_k|^2 / 2 must stay within
    1/2 + AB_PRODUCT_TOL.  A step count past _MAX_STEPS raises ValueError.
    """
    n = _capped(_n_steps(traj, n_steps), _MAX_STEPS)
    h = float(traj.t_p / n)
    h2, h6 = 0.5 * h, h / 6.0
    # spline b + a = (dtheta/dt)/2 - i omega/2 as one complex series, then
    # read it on the step ends and midpoints
    grid = traj.times[0] + np.linspace(0.0, traj.t_p, 2 * n + 1)
    x = cubic_spline(traj.times, 0.5 * traj.dtheta_dt - 1j * (traj.h_x / np.sin(traj.theta)))(grid)
    norms = []

    def step_maps(k, m):
        # the stages K_j = X (1 + c K_{j-1}), K_1 = X_0, of steps k..m-1, with
        # X (r, s) = (a r - b s, b r - a s) as a is imaginary and b real
        y = x[2 * k:2 * m + 1]
        a, b = 1j * y.imag, y.real
        a0, a1, a2, b0, b1, b2 = a[:-1:2], a[1::2], a[2::2], b[:-1:2], b[1::2], b[2::2]
        r, s = 1.0 + h2 * a0, h2 * b0
        k2 = a1 * r - b1 * s, b1 * r - a1 * s
        r, s = 1.0 + h2 * k2[0], h2 * k2[1]
        k3 = a1 * r - b1 * s, b1 * r - a1 * s
        r, s = 1.0 + h * k3[0], h * k3[1]
        k4 = a2 * r - b2 * s, b2 * r - a2 * s
        alpha = 1.0 + h6 * (a0 + 2.0 * (k2[0] + k3[0]) + k4[0])
        beta = h6 * (b0 + 2.0 * (k2[1] + k3[1]) + k4[1])
        norms.append(alpha.real**2 + alpha.imag**2 + beta.real**2 + beta.imag**2)
        return alpha, beta

    # a chain that overflows fails the bound check below, not inside numpy
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = map(complex, _su2_chain(step_maps, n, 1))
        norm = np.cumprod(np.concatenate(norms))  # |psi_k|^2 after each step
    bound = float(np.max(norm)) / 2.0  # of |alpha* beta| over the steps
    if not bound <= 0.5 + AB_PRODUCT_TOL:  # inf or nan too
        raise RuntimeError(
            f"|alpha* beta| can reach {bound:.12f} > 1/2 during integration: "
            "numerical failure"
        )
    return EvolutionResult(
        p_e=beta.real**2 + beta.imag**2,
        final_state=TwoLevelState((alpha, beta)),
        norm_drift=float(np.max(np.abs(norm * norm - 1.0))),
        step_error=None,
        steps=n,
    )


def evolve_two_level_direct(
    traj: SampledTrajectory, n_steps: int | None = None
) -> EvolutionResult:
    """Fourth-order exact-exponential stepping of the lab-frame 2x2
    Hamiltonian on the SU(2) quaternion chain (_su2_chain), from the
    instantaneous ground state at t = 0.

    P_e is the population of the instantaneous excited eigenstate at t_p.
    The step exponents come from the lab field (_lab_exponent), bitwise
    those of _magnus4, one block of the chain at a time.  Unless n_steps is
    given, the step count is error-controlled (_richardson): a pilot at
    1/PILOT_DIVISOR of the fixed _n_steps rule is doubled, then the count
    jumps to what the fourth order predicts until the Richardson estimate
    falls to STEP_ATOL + STEP_RTOL * P, or the run reaches the rule's count,
    which it never exceeds.  The finer run is returned with that estimate
    as step_error and the steps of all runs summed in steps.  A run past
    _MAX_STEPS steps raises ValueError before it is built.
    """
    n_rule = _n_steps(traj, n_steps)
    z = cubic_spline(traj.times, traj.h_x / np.tan(traj.theta))

    def propagate(n):
        h, nodes = _gauss_node_times(traj.times[0], traj.t_p, _capped(n, _MAX_STEPS))
        z1, z2 = z(nodes)

        def steps(i, j):  # built per block of the chain
            return _su2_exp(*_lab_exponent(traj.h_x, z1[i:j], z2[i:j], h))

        alpha, beta = _amplitudes(*_su2_chain(steps, n, 1), traj.theta[0], traj.theta[-1])
        return beta.real**2 + beta.imag**2, (complex(alpha), complex(beta)), n

    if n_steps is not None:
        p_e, (alpha, beta), steps = propagate(n_rule)
        step_error = None
    else:
        p_e, (alpha, beta), step_error, steps = _richardson(
            propagate, n_rule, PILOT_DIVISOR, 4, STEP_ATOL, STEP_RTOL
        )

    drift = abs(math.hypot(abs(alpha), abs(beta)) - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise RuntimeError(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.0e}")
    return EvolutionResult(
        p_e=p_e,
        final_state=TwoLevelState((alpha, beta)),
        norm_drift=drift,
        step_error=step_error,
        steps=steps,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class RemappedResult:
    """P_e per shape (row) and lab duration (column) with the Richardson
    estimate of each entry, the steps of each chain summed over the runs,
    and the shapes masked because their angle leaves (0, pi) (P_e and
    estimate 0)."""

    p_e: np.ndarray
    step_error: np.ndarray
    steps: int
    rejected: np.ndarray


def remapped_p_e(
    mode, coefficients, theta_i: float, t_ps, atol: float = 0.0, rtol: float = 0.0
) -> RemappedResult:
    """P_e of remapped Fourier waveforms at each lab duration in t_ps,
    stepped in the constant-gap frame on one shared grid, with step error
    estimates.  Row k of the (K, n_m) matrix coefficients holds the
    coefficients of a shape in the basis mode, from theta_i to its own
    theta(u = 1); K x len(t_ps) chains share the grid.

    At h_x = 1, under the remap 2 dtau = omega(t) dt the lab Hamiltonian
    becomes sin theta sigma_x + cos theta sigma_z in tau: the gap is a
    constant 2 and theta(tau) is the waveform shape in closed form.  On
    u = tau/tau_p the fields are s (sin theta, 0, cos theta) with the scale
    s = tau_p = t_p / int_0^1 sin theta du, so every duration shares the
    theta nodes and differs only by s.  This is the continuum limit of
    remapped_trajectory + evolve_two_level_direct, and scores the unrounded
    exact searches and the CLI's remapped exact error-curve.

    Each step is the sixth-order Magnus exponent of the three Gauss nodes
    (_tau_exponent), an odd polynomial in s for v_x, v_z and an even one for
    v_y whose coefficients come once per shape: a chain costs a Horner
    evaluation and one exponential per step.  The same nodes, with weights
    5/18, 8/18, 5/18, give int_0^1 sin theta du.

    A mirror-symmetric call chains only the steps on u in [0, 1/2] (_mirror).
    A step's mirror image swaps its outer nodes, which negates v_y: it is the
    step's transpose.  Where theta(1 - u) = theta(u), as for every
    theta-basis shape, U = Uh^T Uh, with Uh the first half's product.  Where
    theta(1 - u) = pi - theta(u), as for a derivative-basis shape exactly
    when theta_i + theta(1) = pi (taken to 4 ulps of pi, on every unmasked
    row), the mirror also negates v_z and U = sigma_x Uh^T sigma_x Uh.  Any
    other call chains every step.  An odd grid's self-mirrored middle step M
    sits between the halves (U = Uh^T M Uh), and int sin theta du is twice
    the half's sum plus M's term.  The answer is the full chain's up to
    rounding; steps counts the steps exponentiated and chained, about half
    the grid for a mirrored call.

    The fixed step rule at TAU_PHASE_PER_STEP, sized once for the longest
    duration and the most demanding shape, caps the error-controlled loop
    (_richardson, order 6, from 1/TAU_PILOT_DIVISOR of the rule's count),
    which stops once every estimate falls to atol + rtol * P_e.  The default
    tolerance 0 is never met, so P_e is the fixed rule's answer.  A grid
    past _MAX_STEPS steps raises ValueError before its nodes are built.  A
    shape whose theta leaves (0, pi), or is nan, at any node is masked.
    Each row's P_e, estimate and mask depend only on the row and the grid.
    Coefficients that are not a 2-D matrix with at least one row, and
    durations that are neither a scalar nor a 1-D array, empty, or not
    finite and positive, raise ValueError.
    """
    lam = np.asarray(coefficients, dtype=float)
    t_ps = np.atleast_1d(np.asarray(t_ps, dtype=float))
    if lam.ndim != 2 or not len(lam):
        raise ValueError("coefficients must be a (K, n_m) matrix with K >= 1")
    if t_ps.ndim != 1 or not (t_ps.size and np.all(np.isfinite(t_ps) & (t_ps > 0.0))):
        raise ValueError("durations t_ps must be a scalar or 1-D, given, finite and positive")
    lam = np.ascontiguousarray(lam.T)  # the basis evaluation takes (n_m, K)
    rejected = np.zeros(lam.shape[1], dtype=bool)

    def nodes(n, m):
        # u at the three Gauss nodes of the first m of n steps on [0, 1], (3, m)
        return (np.arange(m) + GAUSS3_NODES[:, None]) / n

    def shapes(theta):
        # (3, m, K) to (K, 3, m), masking the shapes that leave (0, pi)
        theta = np.ascontiguousarray(theta.transpose(2, 0, 1))
        rejected[:] |= ~np.all((theta > 0.0) & (theta < math.pi), axis=(1, 2))  # and nan
        return theta

    # a coarse pass sizes the fixed step rule for the longest duration, with
    # the constant gap 2 tau_p; its last point, u = 1, gives each shape
    # its end angle
    u = np.append(nodes(64, 64), 1.0)
    theta, dtheta = _theta_series(mode, lam, theta_i, u), _dtheta_series(mode, lam, u)
    theta_f = theta[-1]
    theta, dtheta = shapes(theta[:-1].reshape(3, 64, -1)), dtheta[:-1].reshape(3, 64, -1)
    tau_max = np.max(t_ps) / (np.mean(np.sin(theta), axis=-1) @ GAUSS3_WEIGHTS)
    phase = 2.0 * tau_max + np.max(np.abs(dtheta), axis=(0, 1))
    n_rule = _fixed_step_count(
        float(np.max(phase, where=~rejected, initial=0.0)), TAU_PHASE_PER_STEP, 64
    )
    mirror = _mirror(mode, theta_i, theta_f[~rejected])

    def run(n):
        # the first half of the n steps and an odd n's middle step, or all
        m = (n + 1) // 2 if mirror else n
        half = n // 2 if mirror else n  # the steps chained before the mirror
        theta = shapes(_theta_series(mode, lam, theta_i, nodes(_capped(n, _MAX_STEPS), m)))
        p1, p3, p5, q2, q4 = _tau_exponent(theta, n)
        area = np.sum(p1.real[..., :half], axis=-1)  # int sin theta du
        if mirror:  # twice the first half, and the middle step
            area = 2.0 * area + np.sum(p1.real[..., half:], axis=-1)
        # one chain per shape and duration
        s = ((1.0 / area)[..., None] * t_ps)[..., None]
        s2 = s * s

        def steps(k, j):
            p1_, p3_, p5_, q2_, q4_ = (c[..., None, k:j] for c in (p1, p3, p5, q2, q4))
            xz = s * (p1_ + s2 * (p3_ + s2 * p5_))
            return _su2_exp(xz.real, s2 * (q2_ + s2 * q4_), xz.imag)

        alpha, beta = chain = _su2_chain(steps, half, s.size)
        if mirror:
            if m > half:
                alpha, beta = _su2_mul(*(c[..., 0] for c in steps(half, m)), alpha, beta)
            alpha, beta = _su2_mul(*mirror(*chain), alpha, beta)
        _, amp = _amplitudes(alpha, beta, theta_i, theta_f[:, None])
        p = amp.real**2 + amp.imag**2
        p[rejected] = 0.0  # the chains of masked shapes run, unread
        return p, None, m

    p_e, _, step_error, steps = _richardson(run, n_rule, TAU_PILOT_DIVISOR, 6, atol, rtol)
    return RemappedResult(p_e, step_error, steps, rejected)


def _mirror(mode, theta_i: float, theta_f: np.ndarray):
    """The map W on quaternion pairs with U = W(Uh) Uh for a remapped_p_e
    call whose shapes are all mirror-symmetric, else None; theta_f holds the
    end angles of the unmasked shapes."""
    if mode is BasisMode.THETA:  # U^T
        return lambda alpha, beta: (alpha, -beta.conj())
    if np.all(np.abs(theta_i + theta_f - math.pi) <= 4.0 * np.spacing(math.pi)):
        return lambda alpha, beta: (alpha.conj(), beta)  # sigma_x U^T sigma_x
    return None


def _amplitudes(alpha, beta, theta_i, theta_f):
    """Amplitudes (a, e) of U psi0 on the ground and excited eigenstates at
    theta_f, with U = [[alpha, -beta*], [beta, alpha*]] and psi0 the ground
    state at theta_i; theta_f broadcasts against the pair."""
    g0, g1 = ground_state(theta_i).real
    e0, e1 = excited_state(theta_f).real  # the ground state at theta_f is (e1, -e0)
    psi0, psi1 = alpha * g0 - beta.conj() * g1, beta * g0 + alpha.conj() * g1
    return e1 * psi0 - e0 * psi1, e0 * psi0 + e1 * psi1


def _tau_exponent(theta, n: int):
    """Coefficients of the sixth-order Magnus exponent of each step of the
    constant-gap frame, as polynomials in the scale s.

    theta (..., 3, m) holds the angle at the three Gauss nodes of m of the
    n equal steps h = 1/n of the unit fields e = (sin theta, 0, cos theta).  With
    A_j = s h e(node j), alpha_1 = A_2, alpha_2 = (sqrt(15)/3)(A_3 - A_1),
    alpha_3 = (10/3)(A_3 - 2 A_2 + A_1), C_1 = [alpha_1, alpha_2] and
    C_2 = -[alpha_1, 2 alpha_3 + C_1]/60, the exponent of Blanes, Casas and
    Ros (BIT 40, 434 (2000)) is
    alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 + C_1, alpha_2 + C_2]/240,
    where [a, b] is 2 a x b on the vectors v of exp(-i v.sigma).  The A_j lie
    in the x-z plane, held here as x + i z, and every cross product of two
    of them lies along y, so the exponent is
    v_x + i v_z = s (p1 + s^2 (p3 + s^2 p5)) and v_y = s^2 (q2 + s^2 q4).
    Returns (p1, p3, p5, q2, q4), each (..., m); p1 is the three-node
    Gauss rule of h e.
    """
    e = np.exp(-1j * theta) * (1j / n)  # h (sin theta + i cos theta)
    e1, e2, e3 = e[..., 0, :], e[..., 1, :], e[..., 2, :]

    def cross(a, b):  # y component of a x b, both in the x-z plane
        return (a * b.conj()).imag

    # per power of s: alpha_2 = s a2, alpha_3 = s a3, C_1 = s^2 c1 along y;
    # a x (c y) = i c a and (c y) x a = -i c a for a in the plane
    a2 = (math.sqrt(15.0) / 3.0) * (e3 - e1)
    a3 = (10.0 / 3.0) * (e3 - 2.0 * e2 + e1)
    c1 = 2.0 * cross(e2, a2)
    x = -20.0 * e2 - a3
    d = cross(e2, a3)  # C_2 = -(s^2/15) d y - (s^3/30) i c1 e2
    p1 = e2 + a3 / 12.0
    p3 = (-1j / 120.0) * (d * x / 15.0 + c1 * a2)
    p5 = (-c1 * c1 / 3600.0) * e2
    q2 = cross(x, a2) / 120.0
    q4 = c1 * (x * e2.conj()).real / 3600.0
    return p1, p3, p5, q2, q4


def _lab_exponent(h_x: float, z1, z2, h: float):
    """The _magnus4 exponents of the lab fields (h_x, 0, z1) and (h_x, 0, z2)
    at the Gauss nodes, bitwise, with its zero terms left out:
    v = (h h_x, k (z2 h_x - h_x z1), (h/2)(z1 + z2)), k = sqrt(3) h^2/6,
    v_x a scalar for every step."""
    k = math.sqrt(3.0) * h * h / 6.0
    return h * h_x, k * (z2 * h_x - h_x * z1), (h / 2.0) * (z1 + z2)


def _magnus4(fields, h: float):
    """Exponent v of each step exp(-i v.sigma) from the Gauss-node fields
    (f1x, f1y, f1z, f2x, f2y, f2z): v = (h/2)(f1 + f2) + (sqrt(3) h^2/6)(f2 x f1)."""
    f1x, f1y, f1z, f2x, f2y, f2z = fields
    k = math.sqrt(3.0) * h * h / 6.0
    v_x = (h / 2.0) * (f1x + f2x) + k * (f2y * f1z - f2z * f1y)
    v_y = (h / 2.0) * (f1y + f2y) + k * (f2z * f1x - f2x * f1z)
    v_z = (h / 2.0) * (f1z + f2z) + k * (f2x * f1y - f2y * f1x)
    return v_x, v_y, v_z


def _su2_chain(steps, n: int, chains: int):
    """Time-ordered product, later step on the left, of n >= 1 quaternion
    steps, where steps(k, m) gives the Cayley-Klein pairs (alpha, beta) of
    steps k..m-1 on the last axis, with leading axes for the independent
    chains (_su2_exp for the exponentials exp(-i v.sigma)).

    The steps go in aligned blocks of the largest power of two
    <= CHAIN_BLOCK / chains, built in order and each reduced to one step
    (_su2_halve) before the next: they are subtrees of the pairwise
    reduction, so the product is that of the whole chain, and a block's
    arrays bound the memory.  Returns the pair (alpha, beta) of the product,
    shaped as the leading axes.
    """
    block = 1 << max(CHAIN_BLOCK // chains, 1).bit_length() - 1
    blocks = [_su2_halve(*steps(k, min(k + block, n))) for k in range(0, n, block)]
    merged = (np.concatenate(q, -1) for q in zip(*blocks))
    alpha, beta = _su2_halve(*merged) if len(blocks) > 1 else blocks[0]
    return alpha[..., 0], beta[..., 0]


def _su2_exp(v_x, v_y, v_z):
    """Cayley-Klein pairs (alpha, beta) of the steps exp(-i v.sigma).  Each
    step is the unit quaternion a - i(b, c, d).sigma held as
    alpha = a - i d, beta = c - i b, the matrix [[alpha, -beta*], [beta, alpha*]]."""
    mag = np.sqrt(v_x**2 + v_y**2 + v_z**2)
    # sin|v|/|v|; where v = 0 the vector part is 0 whatever the factor
    s = np.divide(np.sin(mag), mag, out=np.ones_like(mag), where=mag > 0.0)
    # the parts are written in place, with no complex temporaries; np.cos
    # is taken on a contiguous array and copied, since numpy may take
    # another loop, not checked to give the same bits, for a strided output
    alpha, beta = np.empty(mag.shape, complex), np.empty(mag.shape, complex)
    alpha.real = np.cos(mag)
    np.negative(np.multiply(s, v_z, out=alpha.imag), out=alpha.imag)
    np.multiply(s, v_y, out=beta.real)
    np.negative(np.multiply(s, v_x, out=beta.imag), out=beta.imag)
    return alpha, beta


def _su2_mul(a2, b2, a1, b1):
    """Hamilton product of the pairs (a2, b2) after (a1, b1), elementwise."""
    return a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1


def _su2_halve(alpha, beta):
    """Pairwise Hamilton products along the last axis down to one step, with
    a last axis of length 1; an odd tail is padded with the identity step,
    which is exact.  The pairs need not be unit quaternions."""
    while alpha.shape[-1] > 1:
        if alpha.shape[-1] % 2:
            pad = np.zeros(alpha.shape[:-1] + (1,))
            alpha, beta = np.concatenate([alpha, pad + 1.0], -1), np.concatenate([beta, pad], -1)
        alpha, beta = _su2_mul(alpha[..., 1::2], beta[..., 1::2], alpha[..., 0::2], beta[..., 0::2])
    return alpha, beta
