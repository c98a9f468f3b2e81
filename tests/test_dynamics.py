import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from adiabatz import dynamics
from adiabatz._interp import cubic_spline
from adiabatz.adiabatic_error import landau_zener_error
from adiabatz.dynamics import (
    STEP_ATOL,
    STEP_RTOL,
    TAU_PHASE_PER_STEP,
    TwoLevelState,
    _magnus4,
    evolve_two_level_direct,
    evolve_two_level_exact,
    remapped_p_e,
)
from adiabatz.geometry import excited_state, ground_state
from adiabatz.optimize import CZ_ROUNDING_SIGMA_PERIODS, SEARCH_RTOL, convolve_trajectory
from adiabatz.remap import remapped_trajectory
from adiabatz.waveform import (
    BasisMode,
    SampledTrajectory,
    derivative_waveform,
    linear_ramp_trajectory,
    sample_trajectory,
    theta_waveform,
)
from strategies import (
    _antisymmetric_sweep,
    _gentle_waveform,
    few_term_waveforms,
    gentle_waveforms,
    mirror_symmetric_waveforms,
)

T_X = np.pi  # crossing period at h_x = 1


def constant_theta(theta, t_p=5.0, n=257, h_x=1.0):
    t = np.linspace(0.0, t_p, n)
    th = np.full(n, theta)
    hz = np.full(n, h_x / np.tan(theta))
    om = np.full(n, 2.0 * h_x / np.sin(theta))
    return SampledTrajectory(t, th, np.zeros(n), hz, om, h_x)


def smooth_sweep(t_p=20.0, n=2049):
    w = derivative_waveform(np.array([1.0866, -0.0866]), t_p, 0.3, 2.2)
    return sample_trajectory(w, n)


def test_stationary_state_stays_put():
    traj = constant_theta(0.7)
    assert evolve_two_level_direct(traj).p_e < 1e-12
    # the ODE's excited amplitude stays exactly 0 when dtheta/dt = 0
    assert evolve_two_level_exact(traj).p_e == 0.0


def test_sudden_quench_half_population():
    # start in the ground state of a frame rotated by pi/2: populations in
    # the new eigenbasis are conserved, p_e = sin^2(pi/4) exactly
    theta, t_p, n = 0.4 + np.pi / 2, 3.7, 257
    field = np.array([np.ones(n), np.zeros(n), np.full(n, 1.0 / np.tan(theta))])
    psi = chain_product(field, field, t_p / n) @ ground_state(0.4)
    assert abs(np.vdot(excited_state(theta), psi)) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_backends_agree():
    traj = smooth_sweep()
    p_direct = evolve_two_level_direct(traj).p_e
    p_product = evolve_two_level_exact(traj).p_e
    assert p_direct == pytest.approx(p_product, abs=1e-8)


def test_norm_drift_small():
    traj = smooth_sweep()
    assert evolve_two_level_direct(traj).norm_drift < 1e-9
    assert evolve_two_level_exact(traj).norm_drift < 1e-9


def test_fourth_order_convergence():
    traj = smooth_sweep(t_p=12.0, n=513)
    for evolve in (evolve_two_level_direct, evolve_two_level_exact):
        ref = evolve(traj, n_steps=32768).p_e
        errs = [abs(evolve(traj, n_steps=n).p_e - ref) for n in (256, 512, 1024)]
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 3.2), (evolve.__name__, errs, slopes)


def rk4_loop(traj, n):
    # classic RK4 on psi' = X psi, X = [[-i omega/2, -dtheta/2], [dtheta/2,
    # i omega/2]], one 2x2 step at a time on the ODE's splined fields, with
    # the norm drift | |psi|^4 - 1 | after every step
    h = traj.t_p / n
    grid = traj.times[0] + np.linspace(0.0, traj.t_p, 2 * n + 1)
    omega = cubic_spline(traj.times, 2.0 * traj.h_x / np.sin(traj.theta))(grid)
    rate = cubic_spline(traj.times, traj.dtheta_dt)(grid)
    x = [np.array([[-0.5j * w, -0.5 * g], [0.5 * g, 0.5j * w]]) for w, g in zip(omega, rate)]
    psi, drift = np.array([1.0, 0.0], dtype=complex), []
    for k in range(n):
        k1 = x[2 * k] @ psi
        k2 = x[2 * k + 1] @ (psi + (h / 2) * k1)
        k3 = x[2 * k + 1] @ (psi + (h / 2) * k2)
        k4 = x[2 * k + 2] @ (psi + h * k3)
        psi = psi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift.append(abs(np.vdot(psi, psi).real ** 2 - 1.0))
    return psi, drift


# fast enough that dtheta/dt outweighs omega, where RK4 steps can grow the
# norm as well as shrink it: the worst drift comes before the last step
FAST_SHAPES = {
    "sweep": derivative_waveform([1.0866, -0.0866], 0.6, 0.3, 2.6),
    "excursion": theta_waveform([0.8, -0.4], 1.5, 0.3, 1.9),
}


@pytest.mark.parametrize("w", FAST_SHAPES.values(), ids=FAST_SHAPES.keys())
def test_chained_ode_is_the_step_by_step_loop(w):
    # the quaternion chain of the RK4 step maps, in time order, is the loop
    # that applies them one after another, and its drift is the loop's
    # worst step, not its last
    traj = sample_trajectory(w, 513)
    psi, drift = rk4_loop(traj, 200)
    ode = evolve_two_level_exact(traj, n_steps=200)
    assert np.max(np.abs(np.array(ode.final_state.amplitudes) - psi)) < 1e-13
    assert max(drift) - drift[-1] > 1e-12
    assert abs(ode.norm_drift - max(drift)) < 1e-13
    alpha, beta = psi
    assert ode.final_state.ab_product == pytest.approx(alpha.conjugate() * beta, abs=1e-13)


def test_ode_refuses_a_norm_that_lets_the_product_pass_one_half():
    # this coarse run grows |psi|^2 by ~7e-9, so |alpha* beta| <= |psi|^2 / 2
    # no longer keeps the product within 1/2 + AB_PRODUCT_TOL
    traj = sample_trajectory(theta_waveform([1.0, 0.3], 0.8, 0.1, 2.1), 513)
    with pytest.raises(RuntimeError, match="1/2"):
        evolve_two_level_exact(traj, n_steps=180)
    assert evolve_two_level_exact(traj, n_steps=240).norm_drift < 4e-9


def test_landau_zener_ramp_matches_formula():
    rate = 0.341
    traj = linear_ramp_trajectory(10.0, rate, 8192)
    expected = landau_zener_error(1.0, rate)
    assert expected == pytest.approx(1e-4, rel=0.01)
    p = evolve_two_level_exact(traj).p_e
    assert p == pytest.approx(expected, rel=0.15)


def test_landau_zener_finite_range_bias_shrinks():
    # doubling the swept range moves the exact answer toward the
    # infinite-range formula
    rate = 0.341
    expected = landau_zener_error(1.0, rate)
    rel = [
        abs(evolve_two_level_direct(linear_ramp_trajectory(span, rate, 8192)).p_e - expected)
        / expected
        for span in (10.0, 20.0)
    ]
    assert rel[1] < rel[0]
    assert rel[0] < 0.15


def test_remapped_two_coefficient_minimum():
    # the optimized two-coefficient sweep, slowed near the crossing, has a
    # deep error minimum close to one crossing period
    w = derivative_waveform(
        np.array([1.0866, -0.0866]), 1.0, np.arctan2(1.0, 10.0), np.arctan2(1.0, -10.0)
    )
    traj = remapped_trajectory(w, 1.34 * np.pi, n_samples=4096)
    assert evolve_two_level_direct(traj).p_e < 1e-4


def test_ab_product_bound_enforced():
    # |alpha* beta| of (0.8, 0.7j), not a unit state, is 0.56 > 1/2
    with pytest.raises(RuntimeError):
        TwoLevelState((0.8 + 0j, 0.7j))
    state = TwoLevelState((np.sqrt(0.5) + 0j, np.sqrt(0.5) + 0j))
    assert state.ab_product == pytest.approx(0.5)


def test_argument_validation():
    traj = constant_theta(0.7, n=17)
    with pytest.raises(ValueError):
        evolve_two_level_direct(traj, n_steps=0)
    # the constant-gap kernel takes positive finite durations and a
    # (K, n_m) coefficient matrix
    lams = np.array([[1.0, 0.1]])
    # (empty durations and an empty batch failed inside numpy; a (2, 2)
    # matrix of durations paired shape k with row k of it at K = 2, and
    # raised numpy's IndexError at K = 1)
    for t_ps in ([T_X, 0.0], [-T_X], [np.nan], [T_X, np.inf], [], np.full((2, 2), T_X)):
        for shapes in (lams, np.vstack([lams, lams])):
            with pytest.raises(ValueError, match="t_ps"):
                remapped_p_e(BasisMode.DERIVATIVE, shapes, 0.3, t_ps)
    for coefficients in (lams[0], lams[None], lams[:0]):
        with pytest.raises(ValueError, match="coefficients"):
            remapped_p_e(BasisMode.DERIVATIVE, coefficients, 0.3, [T_X])


def test_lab_runs_past_the_step_cap_are_refused(monkeypatch):
    # a pilot, a caller's n_steps and the ODE's rule are each refused before
    # any of the run's step arrays is built (a span-1e4 ramp at rate 1e-3
    # asked for 3.2e13 steps); a run at the cap goes through
    traj = linear_ramp_trajectory(10.0, 0.3, 2049)
    n_rule = dynamics._n_steps(traj, None)
    pilot = -(-n_rule // dynamics.PILOT_DIVISOR)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", pilot - 1)

    def unreachable(*args):
        raise AssertionError("step arrays built past the cap")

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_gauss_node_times", unreachable)
        with pytest.raises(ValueError, match=f"^step count {pilot} exceeds the cap of {pilot - 1}$"):
            evolve_two_level_direct(traj)
        with pytest.raises(ValueError, match=f"^step count {pilot} exceeds"):
            evolve_two_level_direct(traj, n_steps=pilot)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "cubic_spline", unreachable)  # reads the ODE's step grid
        with pytest.raises(ValueError, match=f"^step count {n_rule} exceeds"):
            evolve_two_level_exact(traj)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", n_rule)
    assert evolve_two_level_exact(traj).steps == n_rule
    assert evolve_two_level_direct(traj, n_steps=n_rule).steps == n_rule


@pytest.mark.parametrize("n_steps", [100.5, 64.0, np.float64(64.0), "64"])
def test_step_counts_that_are_not_integers_are_refused(n_steps, monkeypatch):
    # both lab paths raised numpy's TypeError on 100.5; each count is now
    # refused before the trajectory is splined
    def unreachable(*args):
        raise AssertionError("a spline built for a count that is not an integer")

    monkeypatch.setattr(dynamics, "cubic_spline", unreachable)
    traj = constant_theta(0.7, n=17)
    for evolve in (evolve_two_level_direct, evolve_two_level_exact):
        with pytest.raises(ValueError, match="^n_steps must be an integer$"):
            evolve(traj, n_steps=n_steps)


def test_ode_overflow_is_its_own_failure():
    # 100 steps on a slow ramp overflow the chain: numpy's overflow warning
    # (an error in this suite) escaped before the bound check could raise
    with pytest.raises(RuntimeError, match=r"\|alpha\* beta\| can reach inf > 1/2"):
        evolve_two_level_exact(linear_ramp_trajectory(10.0, 0.05, 8192), n_steps=100)


def test_tau_frame_masks_nan_angles():
    # a nan angle passed the (0, pi) mask and failed the step rule with
    # "cannot convert float NaN to integer"; now its row is masked and the
    # others score what they score alone
    good = np.array([[0.25, 0.05]])
    alone = remapped_p_e(BasisMode.THETA, good, 0.1, [T_X])
    mixed = remapped_p_e(BasisMode.THETA, np.vstack([[np.nan, 0.0], good[0]]), 0.1, [T_X])
    assert list(mixed.rejected) == [True, False]
    assert mixed.p_e[0, 0] == 0.0 and np.array_equal(mixed.p_e[1:], alone.p_e)
    everything = remapped_p_e(BasisMode.THETA, good, np.nan, [T_X])
    assert list(everything.rejected) == [True] and everything.p_e[0, 0] == 0.0


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])

# random Gauss-node fields (3, n) for 1-257 steps of length h
random_steps = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 257), st.floats(0.01, 0.5)
).map(lambda a: (*np.random.default_rng(a[0]).normal(size=(2, 3, a[1])), a[2]))


def chain_product(f1, f2, h):
    # the 2x2 product of the fourth-order steps (_magnus4) of the Gauss-node
    # fields f1, f2 (3, ..., n) on the pair API, one chain per leading index
    fields = (*f1, *f2)

    def steps(k, m):
        return dynamics._su2_exp(*_magnus4([f[..., k:m] for f in fields], h))

    alpha, beta = dynamics._su2_chain(steps, f1.shape[-1], math.prod(f1.shape[1:-1]))
    return np.stack([alpha, -beta.conj(), beta, alpha.conj()], -1).reshape(alpha.shape + (2, 2))


def sequential_product(f1, f2, h):
    # one expm per step of the two-node generator (h/2)(H1 + H2)
    # - i (sqrt(3) h^2/12)[H2, H1], multiplied in time order
    u = np.eye(2, dtype=complex)
    for g1, g2 in zip(f1.T, f2.T):
        h1, h2 = np.tensordot(g1, PAULI, 1), np.tensordot(g2, PAULI, 1)
        comm = h2 @ h1 - h1 @ h2
        u = expm(-1j * ((h / 2) * (h1 + h2) - 1j * (np.sqrt(3) * h * h / 12) * comm)) @ u
    return u


@settings(deadline=None, max_examples=50)
@given(random_steps)
def test_su2_chain_matches_sequential_product(steps):
    f1, f2, h = steps
    assert np.max(np.abs(chain_product(f1, f2, h) - sequential_product(f1, f2, h))) < 1e-13


@settings(deadline=None)
@given(random_steps)
def test_su2_chain_is_unit_quaternion(steps):
    # [[a - i d, -c - i b], [c - i b, a + i d]]: the first column holds the
    # quaternion, so a^2 + b^2 + c^2 + d^2 is its squared norm
    u = chain_product(*steps)
    assert np.sum(np.abs(u[:, 0]) ** 2) == pytest.approx(1.0, abs=1e-13)


@settings(deadline=None)
@given(random_steps)
def test_su2_chain_time_reversal(steps):
    # H(t) followed by -H(T - t): each reversed step (nodes swapped and
    # negated) is the conjugate of its forward step, so the whole is 1
    f1, f2, h = steps
    back1, back2 = -f2[:, ::-1], -f1[:, ::-1]
    u = chain_product(np.hstack([f1, back1]), np.hstack([f2, back2]), h)
    assert np.max(np.abs(u - np.eye(2))) < 1e-13


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.floats(1e-4, 0.5), st.floats(0.2, 5.0))
def test_lab_exponent_is_the_magnus4_of_the_lab_field(seed, n, h, h_x):
    # the lab path leaves out the zero terms of _magnus4 on the field
    # (h_x, 0, z): the exponents are the same bits, v_x one for every step
    z1, z2 = np.random.default_rng(seed).normal(0.0, 10.0, (2, n))
    lab = dynamics._lab_exponent(h_x, z1, z2, h)
    ref = _magnus4((h_x, 0.0, z1, h_x, 0.0, z2), h)
    assert np.ndim(lab[0]) == 0
    for v, w in zip(lab, ref):
        assert np.broadcast_to(v, w.shape).tobytes() == w.tobytes()


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1,), (300,), (3, 70)]), st.floats(1e-3, 10.0))
def test_su2_exp_is_the_complex_formula(seed, shape, scale):
    # the parts written in place are the bits of the complex formula
    # cos|v| - i s v_z, s (v_y - i v_x), s = sin|v|/|v|, on nonzero
    # components (an exact 0 may differ in its sign)
    v = np.random.default_rng(seed).normal(0.0, scale, (3, *shape))
    mag = np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    s = np.sin(mag) / mag
    ref = np.cos(mag) - 1j * (s * v[2]), s * (v[1] - 1j * v[0])
    for got, want in zip(dynamics._su2_exp(*v), ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # a zero vector is the identity step
    alpha, beta = dynamics._su2_exp(np.zeros(2), np.zeros(2), np.zeros(2))
    assert np.array_equal(alpha, [1.0, 1.0]) and np.array_equal(beta, [0.0, 0.0])


@settings(deadline=None, max_examples=50)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
    st.floats(0.01, math.pi - 0.01),
)
def test_amplitudes_are_the_matrix_projection(seed, rows, columns, theta_i):
    # the readout of the lab propagator and the kernel: U psi0 on the real
    # eigenstates at theta_f, with a theta_f per row broadcast as the kernel
    # passes it, against the matrix route it replaced
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(4, rows, columns))
    alpha, beta = (q[0] + 1j * q[1], q[2] + 1j * q[3]) / np.sqrt(np.sum(q * q, axis=0))
    theta_f = rng.uniform(0.01, math.pi - 0.01, rows)
    a, e = dynamics._amplitudes(alpha, beta, theta_i, theta_f[:, None])
    assert a.shape == e.shape == (rows, columns)
    for k in range(rows):
        for j in range(columns):
            u = np.array([[alpha[k, j], -beta[k, j].conj()], [beta[k, j], alpha[k, j].conj()]])
            psi = u @ ground_state(theta_i)
            assert abs(a[k, j] - np.vdot(ground_state(theta_f[k]), psi)) < 1e-15
            assert abs(e[k, j] - np.vdot(excited_state(theta_f[k]), psi)) < 1e-15
    norm = np.abs(a) ** 2 + np.abs(e) ** 2
    assert np.max(np.abs(norm - (np.abs(alpha) ** 2 + np.abs(beta) ** 2))) < 1e-15


def kernel(ws, t_ps, atol=0.0, rtol=0.0):
    # the constant-gap kernel on one waveform, or a list of waveforms of one
    # mode and start angle, one row each
    ws = ws if isinstance(ws, list) else [ws]
    lams = np.array([w.coefficients for w in ws])
    return remapped_p_e(ws[0].mode, lams, ws[0].theta_i, t_ps, atol, rtol)


# the criterion-05 sweep (h_z from +10 to -10) and an out-and-back excursion
SWEEP_ANGLES = (np.arctan2(1.0, 10.0), np.arctan2(1.0, -10.0))
SWEEP = derivative_waveform(np.array([1.086, -0.086]), 1.0, *SWEEP_ANGLES)
EXCURSION = theta_waveform([(0.55 * np.pi / 2 - 0.1) / 2.0, -0.1], 1.0, 0.1, 0.55 * np.pi / 2)


@pytest.mark.parametrize(
    "w, durations",
    [(SWEEP, (0.9, 1.1, 1.34)), (EXCURSION, (0.9, 1.0, 1.05, 1.15))],
    ids=["sweep", "excursion"],
)
def test_tau_frame_is_the_limit_of_the_lab_pipeline(w, durations, monkeypatch):
    # the lab pipeline (trapezoid remap, PCHIP inverse, splined fields)
    # converges at second order in its sample count onto the tau-frame answer
    t_ps = np.array(durations) * T_X
    tau = kernel(w, t_ps).p_e[0]
    for t_p, ref in zip(t_ps, tau):
        lab = [
            evolve_two_level_direct(remapped_trajectory(w, t_p, n_samples=n)).p_e
            for n in (2048, 4096, 16384)
        ]
        assert abs(lab[1] - ref) <= abs(lab[0] - ref) / 3.0
        assert abs(lab[2] - ref) <= 5e-5 * ref
    # and the tau-frame answer is converged in its own step count
    monkeypatch.setattr(dynamics, "TAU_PHASE_PER_STEP", TAU_PHASE_PER_STEP / 2.0)
    assert kernel(w, t_ps).p_e[0] == pytest.approx(tau, rel=1e-8, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(gentle_waveforms, st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6))
def test_tau_frame_batch_matches_single_durations(w, spans):
    # one shared grid, sized for the longest duration, gives each duration
    # what a grid of its own gives
    t_ps = np.array(spans) * T_X
    batch = kernel(w, t_ps).p_e[0]
    alone = np.array([kernel(w, t_p).p_e[0, 0] for t_p in t_ps])
    assert np.all(np.abs(batch - alone) <= 1e-8 * alone + 1e-15)


# windows of the unrounded searches: criterion 05's sweep, criterion 06's
# optimum, and a small excursion so short that the 64-step floor sets the grid
TAU_WINDOWS = {
    "criterion-05": (SWEEP, (1.2, 1.5)),
    "criterion-06": (
        theta_waveform(
            [(0.55 * np.pi / 2 - 0.1) / 2.0 - 0.0205, -0.19, 0.0205], 1.0, 0.1, 0.55 * np.pi / 2
        ),
        (0.9, 1.15),
    ),
    "floor": (theta_waveform([0.02, 0.0], 1.0, 0.5, 0.54), (0.02, 0.05)),
}


def doubling_series(n_rule, divisor):
    counts = [-(-n_rule // divisor)]
    while counts[-1] < n_rule:
        counts.append(min(2 * counts[-1], n_rule))
    return counts


def half_and_full_counts(n):
    # the steps a default-tolerance call computes on a rule of n steps, with
    # and without the mirror
    grids = doubling_series(n, dynamics.TAU_PILOT_DIVISOR)
    return sum(-(-m // 2) for m in grids), sum(grids)


@pytest.mark.parametrize("w, window", TAU_WINDOWS.values(), ids=TAU_WINDOWS.keys())
@pytest.mark.parametrize("rtol", [0.0, SEARCH_RTOL], ids=["default", "search"])
def test_tau_step_error_bounds_the_true_error(w, window, rtol, monkeypatch):
    # against a reference at four times the fixed rule's step count
    t_ps = np.linspace(*window, 9) * T_X
    atol = STEP_ATOL if rtol else 0.0
    result = kernel(w, t_ps, atol, rtol)
    rule = dynamics._fixed_step_count
    monkeypatch.setattr(dynamics, "_fixed_step_count", lambda *args: 4 * rule(*args))
    ref = kernel(w, t_ps)
    assert np.all(np.abs(result.p_e - ref.p_e) <= 2.0 * result.step_error + 1e-15)
    if rtol:
        assert np.all(result.step_error <= atol + rtol * result.p_e)


def excursion(lam_2):
    return theta_waveform([(0.55 * np.pi / 2 - 0.1) / 2.0, lam_2], 1.0, 0.1, 0.55 * np.pi / 2)


@settings(deadline=None, max_examples=40)
@given(
    few_term_waveforms, st.tuples(st.floats(0.8, 1.6), st.floats(0.8, 1.6)).map(sorted),
    st.sampled_from([0.0, SEARCH_RTOL]),
)
# two-term excursions near the optimum of the benchmark's excursion search,
# whose estimate the first doubling from a pilot at 0.6 rad a step or more
# misses by up to 3.4x
@example(excursion(-0.0439), (0.9, 1.15), SEARCH_RTOL)
@example(excursion(-0.02716), (0.9, 1.15), SEARCH_RTOL)
def test_tau_step_error_bounds_the_true_error_of_any_shape(w, window, rtol):
    # the same bound over shapes and windows like the searches'
    t_ps = np.linspace(*window, 9) * T_X
    atol = STEP_ATOL if rtol else 0.0
    result = kernel(w, t_ps, atol, rtol)
    rule = dynamics._fixed_step_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_fixed_step_count", lambda *args: 4 * rule(*args))
        ref = kernel(w, t_ps)
    assert np.all(np.abs(result.p_e - ref.p_e) <= 2.0 * result.step_error + 1e-15)


@pytest.mark.xfail(strict=True, reason="the first doubling from a pilot short of the asymptotic "
                   "regime can underestimate the kernel's error")
def test_tau_step_error_bounds_the_true_error_of_a_deep_excursion(monkeypatch):
    # one of 703 random three-term excursions, dipping to theta = 0.048: the
    # grids of 54 and 108 steps (27 and 54 chained, the mirror's halves)
    # agree too well at 1.025 T_x (P_e ~ 0.124), and their estimate misses
    # the error against the kernel at a quarter of the rule's step by 2.5x,
    # at the search's tolerance and at the lab's alike (81 steps counted
    # against the reference's 746)
    lams = np.array([[0.5389320630317478, 0.07321022519421116, -0.15696307316315117]])
    t_ps = np.linspace(0.9, 1.15, 9) * T_X
    results = [remapped_p_e(BasisMode.THETA, lams, 0.1, t_ps, STEP_ATOL, rtol)
               for rtol in (SEARCH_RTOL, STEP_RTOL)]
    monkeypatch.setattr(dynamics, "TAU_PHASE_PER_STEP", TAU_PHASE_PER_STEP / 4.0)
    ref = remapped_p_e(BasisMode.THETA, lams, 0.1, t_ps)
    assert all(np.all(np.abs(r.p_e - ref.p_e) <= 2.0 * r.step_error + 1e-15) for r in results)


def test_tau_step_is_sixth_order(monkeypatch):
    # at the criterion-05 optimum the error falls ~64x per halving of the
    # step, and the estimate of each run is its error
    w = derivative_waveform([3.5618384, -0.6787289, 0.0591458], 1.0, *SWEEP_ANGLES)
    t_ps = np.linspace(1.2, 1.5, 9) * T_X

    def at(n):
        monkeypatch.setattr(dynamics, "_fixed_step_count", lambda *args: n)
        return kernel(w, t_ps)

    ref = at(8192)
    runs = [at(n) for n in (64, 128, 256)]
    errors = [np.abs(run.p_e - ref.p_e) for run in runs]
    assert all(np.max(coarse) >= 40.0 * np.max(fine) for coarse, fine in zip(errors, errors[1:]))
    for run, error in zip(runs, errors):
        assert np.all((run.step_error <= 2.0 * error) & (error <= 2.0 * run.step_error))


@pytest.mark.parametrize("w, window", TAU_WINDOWS.values(), ids=TAU_WINDOWS.keys())
def test_tau_default_tolerance_is_the_fixed_rule(w, window, monkeypatch):
    # the default tolerance doubles up to the rule's own step count and
    # returns, bitwise, what one run at that count gives; every window is a
    # mirror-symmetric pulse, so each run steps the first half of its grid
    # and an odd count's middle step
    t_ps = np.linspace(*window, 9) * T_X
    result = kernel(w, t_ps)
    rules = []

    def fixed_rule(run, n_rule, *_):
        rules.append(n_rule)
        p, state, steps = run(n_rule)
        return p, state, None, steps

    monkeypatch.setattr(dynamics, "_richardson", fixed_rule)
    fixed = kernel(w, t_ps)
    (n_rule,) = rules
    assert (n_rule == 64) == (window[1] < 0.1)
    assert np.array_equal(result.p_e, fixed.p_e)
    assert fixed.steps == -(-n_rule // 2)
    assert result.steps == half_and_full_counts(n_rule)[0]
    assert np.all(result.step_error > 0.0)


@settings(deadline=None, max_examples=60)
@given(
    mirror_symmetric_waveforms, st.lists(st.floats(0.8, 1.6), min_size=1, max_size=4),
    st.integers(16, 1024),
)
@example(EXCURSION, [1.0], 101)
@example(SWEEP, [1.34], 100)
def test_tau_half_chain_is_the_full_chain(w, spans, n):
    # the first half mirrored (and an odd grid's middle step) gives the full
    # chain's P_e up to rounding, which grows with the amplitude: over 3800
    # random shapes of this kind at 16-4096 steps the largest difference was
    # 1.7e-15 (P_e 0.35), and its excess over 1e-15 at most 3.6e-15 P_e
    t_ps = np.array(spans) * T_X
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_fixed_step_count", lambda *args: n)
        half = kernel(w, t_ps)
        mp.setattr(dynamics, "_mirror", lambda *args: None)
        full = kernel(w, t_ps)
    assert (half.steps, full.steps) == half_and_full_counts(n)
    assert not np.any(half.rejected) and not np.any(full.rejected)
    assert np.all(np.abs(half.p_e - full.p_e) <= 1e-15 + 8e-15 * full.p_e)
    assert np.all(np.abs(half.step_error - full.step_error) <= 1e-15)


def test_tau_sweep_off_pi_chains_every_step(monkeypatch):
    # a derivative-basis row is mirrored only when theta_i + theta(1) is
    # within 4 ulps of pi: 10 ulps off, alone or beside a row that is on,
    # every step is chained; a masked row off pi does not count
    monkeypatch.setattr(dynamics, "_fixed_step_count", lambda *args: 101)
    half, full = half_and_full_counts(101)
    on = SWEEP.coefficients
    off = on + [10.0 * np.spacing(np.pi), 0.0]
    masked = [np.nan, 0.0]

    def steps(*rows):
        return remapped_p_e(BasisMode.DERIVATIVE, np.array(rows), SWEEP.theta_i, [T_X]).steps

    assert steps(on) == steps(on, masked) == half
    assert steps(off) == steps(on, off) == full


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2**32 - 1), st.sampled_from(list(BasisMode)), st.integers(1, 5),
    st.integers(1, 5), st.integers(16, 300),
)
def test_tau_row_does_not_depend_on_its_batch(seed, mode, n_m, partners, n):
    # on one grid a row scores bitwise the same alone and among random
    # partners, nan rows and rows that leave (0, pi) among them.  A matrix
    # product for the shapes moved theta by an ulp between one row and two.
    # Derivative-basis rows this random are not mirrored, alone or not
    rng = np.random.default_rng(seed)
    theta_i = rng.uniform(0.2, 1.0)
    rows = rng.normal(0.0, 0.3, (partners + 1, n_m))
    rows[1:][rng.random(partners) < 0.3] = np.nan
    where = int(rng.integers(partners + 1))
    rows[[0, where]] = rows[[where, 0]]
    t_ps = rng.uniform(0.5, 2.0, int(rng.integers(1, 4))) * T_X
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_fixed_step_count", lambda *args: n)
        alone = remapped_p_e(mode, rows[where][None], theta_i, t_ps)
        batch = remapped_p_e(mode, rows, theta_i, t_ps)
    assert np.array_equal(batch.p_e[where], alone.p_e[0])
    assert np.array_equal(batch.step_error[where], alone.step_error[0])
    assert batch.rejected[where] == alone.rejected[0]


def test_tau_grids_past_the_step_cap_are_refused(monkeypatch):
    # the pilot and each doubling are refused before their node arrays are
    # built (a cz-pulse window of 1e7 T_x asks for over 1e9 steps); a grid at
    # the cap goes through
    t_ps = [T_X]
    rules = []
    richardson, theta_series = dynamics._richardson, dynamics._theta_series

    def recording(run, n_rule, *args):
        rules.append(n_rule)
        return richardson(run, n_rule, *args)

    def coarse_only(mode, lam, theta_i, u):  # the step grids are (3, m)
        if np.ndim(u) > 1:
            raise AssertionError("node arrays built past the cap")
        return theta_series(mode, lam, theta_i, u)

    monkeypatch.setattr(dynamics, "_richardson", recording)
    ref = kernel(EXCURSION, t_ps)
    n_rule = rules[0]
    pilot = -(-n_rule // dynamics.TAU_PILOT_DIVISOR)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_MAX_STEPS", pilot - 1)
        m.setattr(dynamics, "_theta_series", coarse_only)
        with pytest.raises(ValueError, match=f"^step count {pilot} exceeds the cap of {pilot - 1}$"):
            kernel(EXCURSION, t_ps)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_MAX_STEPS", 2 * pilot - 1)
        with pytest.raises(ValueError, match=f"^step count {2 * pilot} exceeds"):
            kernel(EXCURSION, t_ps)
    monkeypatch.setattr(dynamics, "_MAX_STEPS", n_rule)
    assert np.array_equal(kernel(EXCURSION, t_ps).p_e, ref.p_e)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([(), (3,), (2, 3)]),
    st.integers(1, 64),
)
def test_blocked_chain_equals_the_whole_chain(seed, n, chains, chain_block):
    # aligned power-of-two blocks are subtrees of the pairwise reduction;
    # a block holds at most CHAIN_BLOCK elements (chains x steps), or one
    # step of every chain
    f1, f2 = np.random.default_rng(seed).normal(size=(2, 3, *chains, n))
    sizes = []
    exp = dynamics._su2_exp

    def recording(*v):
        sizes.append(max(np.size(c) for c in v))
        return exp(*v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHAIN_BLOCK", 2**40)
        whole = chain_product(f1, f2, 0.1)
        mp.setattr(dynamics, "CHAIN_BLOCK", chain_block)
        mp.setattr(dynamics, "_su2_exp", recording)
        blocked = chain_product(f1, f2, 0.1)
    assert np.array_equal(blocked, whole)
    assert max(sizes) <= max(chain_block, np.prod(chains))
    # each leading index is a chain of its own (axis 0 holds x, y, z)
    first = (0,) * len(chains)
    one = (slice(None), *first)
    assert np.array_equal(whole[first], chain_product(f1[one], f2[one], 0.1))


# candidates of the criterion-06 excursion search: one mode, one term
# count, shared endpoints
STACK = [
    theta_waveform([(0.55 * np.pi / 2 - 0.1) / 2.0 - b, a, b], 1.0, 0.1, 0.55 * np.pi / 2)
    for a, b in np.random.default_rng(2).normal(0.0, 0.05, (6, 2))
]
# derivative-basis sweeps from one start angle to different end angles
SWEEPS = [derivative_waveform([1.086, -0.086], 1.0, SWEEP_ANGLES[0], f) for f in (2.2, 2.6, 3.0)]


@pytest.mark.parametrize("rtol", [0.0, SEARCH_RTOL], ids=["default", "search"])
def test_tau_frame_stack_matches_single_waveforms(rtol):
    # one grid for the stack, sized for its most demanding candidate: each
    # candidate lies within twice the estimate of what it gives alone, and
    # each is scored against its own end angle
    t_ps = np.linspace(0.9, 1.15, 9) * T_X
    atol = STEP_ATOL if rtol else 0.0
    for candidates in (STACK, SWEEPS):
        stack = kernel(candidates, t_ps, atol, rtol)
        assert stack.p_e.shape == (len(candidates), len(t_ps)) and not np.any(stack.rejected)
        for k, w in enumerate(candidates):
            alone = kernel(w, t_ps, atol, rtol)
            assert np.all(
                np.abs(stack.p_e[k] - alone.p_e[0]) <= 2.0 * alone.step_error[0] + 1e-15
            )


def test_tau_frame_rejects_angles_outside_the_open_interval():
    # theta_i + lam_1 (1 - cos) - lam_2 (1 - cos 2 .) dips below 0 near u = 1/4:
    # the lab path raises, and the kernel marks the row rejected and scores
    # nothing for it
    w = theta_waveform([0.25, -0.2], 1.0, 0.1, 0.6)
    with pytest.raises(ValueError, match="inside"):
        remapped_trajectory(w, T_X)
    result = kernel(w, [T_X])
    assert list(result.rejected) == [True]
    assert result.p_e.shape == (1, 1) and result.p_e[0, 0] == 0.0


@pytest.mark.parametrize("rtol", [0.0, SEARCH_RTOL], ids=["default", "search"])
def test_tau_frame_stack_masks_angles_outside_the_open_interval(rtol):
    # theta_i + lam_1 (1 - cos) - lam_2 (1 - cos 2 .) of the bad candidate
    # dips below 0 near u = 1/4: alone or in a stack it is masked, and the
    # others give what they give without it
    good = [theta_waveform([0.25, lam], 1.0, 0.1, 0.6) for lam in (0.0, 0.05, -0.05)]
    bad = theta_waveform([0.25, -0.2], 1.0, 0.1, 0.6)
    t_ps = np.linspace(0.9, 1.15, 9) * T_X
    atol = STEP_ATOL if rtol else 0.0
    alone = kernel(bad, t_ps, atol, rtol)
    assert list(alone.rejected) == [True]
    assert np.all(alone.p_e == 0.0) and np.all(alone.step_error == 0.0)
    mixed = kernel([good[0], bad, *good[1:]], t_ps, atol, rtol)
    clean = kernel(good, t_ps, atol, rtol)
    assert list(mixed.rejected) == [False, True, False, False]
    assert np.all(mixed.p_e[1] == 0.0) and np.all(mixed.step_error[1] == 0.0)
    assert np.array_equal(np.delete(mixed.p_e, 1, 0), clean.p_e)
    assert mixed.steps == clean.steps
    everything_bad = kernel([bad, bad], t_ps, atol, rtol)
    assert np.all(everything_bad.rejected) and np.all(everything_bad.p_e == 0.0)


STEP_ERROR_CASES = {
    "ramp-0.05": lambda: linear_ramp_trajectory(10.0, 0.05, 8192),
    "ramp-2.0": lambda: linear_ramp_trajectory(10.0, 2.0, 8192),
    "remapped-1.34": lambda: remapped_trajectory(SWEEP, 1.34 * T_X, n_samples=4096),
    "rounded": lambda: convolve_trajectory(
        remapped_trajectory(EXCURSION, 1.85 * T_X, n_samples=2048),
        CZ_ROUNDING_SIGMA_PERIODS * T_X,
    ),
    "sampled": lambda: sample_trajectory(SWEEP.with_t_p(2.0 * T_X), 2048),
}


@pytest.mark.parametrize("make", STEP_ERROR_CASES.values(), ids=STEP_ERROR_CASES.keys())
def test_step_error_bounds_the_true_error(make):
    # the Richardson estimate of the error-controlled run bounds its error
    # against a reference at four times the fixed rule's step count
    traj = make()
    n_rule = dynamics._n_steps(traj, None)
    result = evolve_two_level_direct(traj)
    ref = evolve_two_level_direct(traj, n_steps=4 * n_rule)
    assert ref.step_error is None and ref.steps == 4 * n_rule
    assert abs(result.p_e - ref.p_e) <= 2.0 * result.step_error + 1e-14
    # the run either met the tolerance or stopped at the rule's step count
    assert (
        result.step_error <= STEP_ATOL + STEP_RTOL * result.p_e
        or result.steps >= n_rule
    )


# gentle derivative sweeps, with theta_f = pi - theta_i and off it, sampled
# at 2048 points; rounded theta-basis excursions on remaps of 1024 or 2048
# points; linear ramps at rates from 0.05 to 2 (a span of 4 keeps the
# slowest reference near 0.4 M steps).  Unrounded remapped sweeps, and
# sweeps sampled at 1024 points, can miss the bound (the xfail below)
lab_inputs = st.one_of(
    st.builds(
        lambda w, span: sample_trajectory(w.with_t_p(span * T_X), 2048),
        st.one_of(
            st.builds(_gentle_waveform, st.integers(0, 2**32 - 1), st.integers(1, 5), st.just(True)),
            st.builds(_antisymmetric_sweep, st.integers(0, 2**32 - 1), st.integers(1, 5)),
        ),
        st.floats(0.8, 2.5),
    ),
    st.builds(
        lambda w, span, n, sigma: convolve_trajectory(
            remapped_trajectory(w, span * T_X, n_samples=n), sigma * T_X
        ),
        st.builds(_gentle_waveform, st.integers(0, 2**32 - 1), st.integers(1, 3), st.just(False)),
        st.floats(0.8, 2.2), st.sampled_from([1024, 2048]), st.floats(0.05, 0.15),
    ),
    st.floats(math.log(0.05), math.log(2.0)).map(
        lambda x: linear_ramp_trajectory(4.0, math.exp(x), 1025)
    ),
)


@settings(deadline=None, max_examples=200)
@given(lab_inputs)
# runs whose doubling missed the tolerance and jumped past twice its count
# (128, 256, then 559 of a 2047-step rule; 198, 396, then 793 of 3163)
@example(sample_trajectory(_antisymmetric_sweep(1, 3).with_t_p(2.0 * T_X), 2048))
@example(convolve_trajectory(
    remapped_trajectory(_gentle_waveform(1, 2, False), 2.0 * T_X, n_samples=2048), 0.1 * T_X
))
def test_lab_step_error_bounds_the_true_error_of_gentle_inputs(traj):
    # the error-controlled lab run against a reference at four times the
    # fixed rule's step count, as in test_step_error_bounds_the_true_error
    n_rule = dynamics._n_steps(traj, None)
    result = evolve_two_level_direct(traj)
    ref = evolve_two_level_direct(traj, n_steps=4 * n_rule)
    assert abs(result.p_e - ref.p_e) <= 2.0 * result.step_error + 1e-14
    assert result.step_error <= STEP_ATOL + STEP_RTOL * result.p_e or result.steps >= n_rule


@pytest.mark.xfail(strict=True, reason="the lab estimate from runs coarser than the samples of "
                   "a remapped sweep can miss its error")
def test_lab_step_error_bounds_the_true_error_of_a_remapped_sweep():
    # a remap's monotone-cubic inverse leaves the samples rough on their own
    # scale, and the Richardson pair of runs coarser than the sample grid
    # (82 and 164 steps for 1023 sample intervals) can agree by chance: the
    # estimate 1.1e-13 stands for an error of 2.2e-12.  About 1 in 20 gentle
    # remapped sweeps, at 1024 or 2048 samples, misses the bound this way,
    # and 1 in 200 sweeps sampled at 1024 points
    traj = remapped_trajectory(_gentle_waveform(32, 3, True), 1.5 * T_X, n_samples=1024)
    result = evolve_two_level_direct(traj)
    ref = evolve_two_level_direct(traj, n_steps=4 * dynamics._n_steps(traj, None))
    assert abs(result.p_e - ref.p_e) <= 2.0 * result.step_error + 1e-14


@pytest.mark.parametrize("order", [4, 6])
def test_a_missed_doubling_jumps_to_the_predicted_count(order):
    # a method whose error is exactly c n^-order, so that each estimate is
    # the error: the pilot's doubling to n misses the tolerance by E/tol,
    # and the next count is n (2 E/tol)^(1/order), where the error is half
    # the tolerance, at least 2n and at most the rule's
    n_rule, pilot = 100_000, 6250
    n = 2 * pilot

    def series(error_at_n, atol=1e-12, rtol=1e-8):
        c, counts = error_at_n * float(n) ** order, []

        def run(m):
            counts.append(m)
            return 1e-3 + c * float(m) ** -order, None, m

        p, _, error, steps = dynamics._richardson(run, n_rule, 16, order, atol, rtol)
        assert steps == sum(counts) and p == 1e-3 + c * float(counts[-1]) ** -order
        return counts, error / (atol + rtol * p)

    tol = 1e-12 + 1e-8 * 1e-3
    counts, left = series(1e3 * tol)
    assert counts[:2] == [pilot, n] and len(counts) == 3
    assert abs(counts[2] - n * 2e3 ** (1.0 / order)) <= 1.0 and 2 * n < counts[2] < n_rule
    assert 0.45 <= left <= 0.5 + 1e-9
    assert series(1.5 * tol)[0] == [pilot, n, 2 * n]
    assert series(1e30 * tol)[0] == [pilot, n, n_rule]
    # E/tol = 1e310 overflows: straight to the rule, with no numpy warning
    assert series(1e10, atol=1e-300, rtol=0.0)[0] == [pilot, n, n_rule]


def test_unmet_tolerance_stops_at_the_fixed_rule(monkeypatch):
    # a tolerance no run meets doubles the pilot once, then jumps to the
    # rule's own step count and returns what the fixed rule gives
    monkeypatch.setattr(dynamics, "STEP_ATOL", 0.0)
    monkeypatch.setattr(dynamics, "STEP_RTOL", 0.0)
    traj = remapped_trajectory(SWEEP, 1.34 * T_X, n_samples=4096)
    n_rule = dynamics._n_steps(traj, None)
    result = evolve_two_level_direct(traj)
    assert result.p_e == evolve_two_level_direct(traj, n_steps=n_rule).p_e
    pilot = -(-n_rule // dynamics.PILOT_DIVISOR)
    assert result.steps == pilot + 2 * pilot + n_rule
    assert result.step_error > 0.0


@settings(deadline=None, max_examples=25)
@given(gentle_waveforms, st.floats(0.8, 2.5), st.floats(0.2, 5.0))
def test_transverse_field_only_sets_the_time_unit(w, span, c):
    # c (sin theta sigma_x + cos theta sigma_z) over t is the h_x = 1
    # Hamiltonian over c t: a trajectory at h_x = c is its h_x = 1 copy with
    # the times divided by c and dtheta/dt times c, so the builders and the
    # search, which work at h_x = 1, lose nothing
    unit = sample_trajectory(w.with_t_p(span * T_X), 1024)
    scaled = SampledTrajectory(
        unit.times / c, unit.theta, unit.dtheta_dt * c, unit.h_z * c, unit.omega * c, c
    )
    for evolve in (evolve_two_level_direct, evolve_two_level_exact):
        at_c, at_1 = evolve(scaled), evolve(unit)
        assert at_c.steps == at_1.steps
        assert abs(at_c.p_e - at_1.p_e) <= 1e-12


@settings(deadline=None, max_examples=25)
@given(gentle_waveforms, st.floats(0.8, 2.5), st.sampled_from([1024, 2048]))
def test_direct_and_ode_agree_on_gentle_sweeps(w, span, n_samples):
    # the ODE keeps the fixed step rule, so it checks the error control
    # independently
    traj = sample_trajectory(w.with_t_p(span * T_X), n_samples)
    direct, ode = evolve_two_level_direct(traj), evolve_two_level_exact(traj)
    assert ode.step_error is None and ode.steps == dynamics._n_steps(traj, None)
    assert abs(direct.p_e - ode.p_e) < 1e-8
