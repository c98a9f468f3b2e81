from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatz import three_level
from adiabatz._interp import cubic_spline
from adiabatz.spectral import fourier_integral
from adiabatz.three_level import (
    RotationTarget,
    ThreeLevelPulse,
    calibrate_pulse,
    drag_envelope,
    evolve_three_level,
    stark_shift,
)

T_P = 2.5
DELTA = -2.0 * np.pi  # t_p |delta| / 2 pi = 2.5


def raised_cosine(n):
    t = np.linspace(0.0, T_P, n)
    return t, 1.0 - np.cos(2.0 * np.pi * t / T_P)


def test_drag_envelope_trivials():
    t, x = raised_cosine(64)
    dt = t[1] - t[0]
    assert np.array_equal(drag_envelope(x, 0.0, DELTA, dt), x)
    assert np.all(drag_envelope(np.zeros(64), -1.0, DELTA, dt) == 0)
    for delta in (0.0, np.nan, np.inf):  # nan gave a nan envelope
        with pytest.raises(ValueError, match="^delta must be"):
            drag_envelope(x, -1.0, delta, dt)


def test_full_derivative_nulls_leakage_frequency():
    # W = x - i xdot / delta has zero spectral weight at the leakage
    # offset: F_W(delta) = (1 + D) F_x(delta) with D = -1
    t, x = raised_cosine(2048)
    w = drag_envelope(x, -1.0, DELTA, t[1] - t[0])
    num = np.abs(fourier_integral(t, w, DELTA)).item()
    den = np.abs(fourier_integral(t, w, 0.0)).item()
    assert num / den < 1e-5


def test_half_derivative_quarters_leakage_band():
    t, x = raised_cosine(2048)
    w = drag_envelope(x, -0.5, DELTA, t[1] - t[0])
    num = np.abs(fourier_integral(t, w, DELTA)).item()
    ref = np.abs(fourier_integral(t, x, DELTA)).item()
    assert (num / ref) ** 2 == pytest.approx(0.25, rel=1e-3)


def test_stark_shift_formula():
    assert stark_shift(1.0, 0.0, -2.0) == pytest.approx(0.25)
    assert stark_shift(0.0, -1.0, -2.0) == 0.0
    # D = -1/2 cancels the shift at any amplitude
    x = np.linspace(0.0, 3.0, 7)
    assert np.all(stark_shift(x, -0.5, DELTA) == 0)
    for delta in (0.0, np.nan, np.inf):  # nan gave a nan shift
        with pytest.raises(ValueError, match="^delta must be"):
            stark_shift(1.0, 0.0, delta)


def test_zero_envelope_is_phase_diagonal():
    pulse = ThreeLevelPulse(
        envelope_x=np.zeros(64), drag_d=0.0, delta=DELTA, detuning=0.3, t_p=T_P
    )
    res = evolve_three_level(pulse, RotationTarget.PI_PULSE)
    assert res.err2_avg == 0.0
    off_diag = res.unitary - np.diag(np.diag(res.unitary))
    assert np.max(np.abs(off_diag)) < 1e-12
    assert np.abs(np.diag(res.unitary)) == pytest.approx(np.ones(3), abs=1e-12)


def test_unitarity_preserved():
    t, x = raised_cosine(256)
    pulse = ThreeLevelPulse(
        envelope_x=1.3 * x, drag_d=-0.5, delta=DELTA, detuning=0.1, t_p=T_P
    )
    u = evolve_three_level(pulse, RotationTarget.PI_PULSE).unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9


def test_two_level_calibration_recovers_area_theorem():
    _, x = raised_cosine(512)
    for target in (RotationTarget.PI_PULSE, RotationTarget.HALF_PI_PULSE):
        cal = calibrate_pulse(x, T_P, 0.0, DELTA, target, levels=2)
        t = np.linspace(0.0, T_P, 512)
        assert cal.amplitude == pytest.approx(
            target.angle / np.trapezoid(x, t), rel=1e-8
        )
        assert cal.qubit_subspace_error < 1e-12
        assert cal.detuning == pytest.approx(0.0, abs=1e-6)
        assert cal.converged


def test_three_level_plain_pulse_calibration():
    # with no derivative quadrature the rotation can be tuned nearly
    # perfectly inside the qubit subspace, but leakage stays at the 1e-3
    # scale for this pulse speed
    _, x = raised_cosine(512)
    cal = calibrate_pulse(x, T_P, 0.0, DELTA, RotationTarget.PI_PULSE, levels=3)
    assert cal.qubit_subspace_error < 1e-6
    assert cal.err2_avg == pytest.approx(7.425e-4, rel=1e-2)
    # the calibrated detuning compensates a positive drive-induced shift
    # (delta < 0): same sign and scale as the mean Stark shift
    shift = float(np.mean(stark_shift(cal.amplitude * x, 0.0, DELTA)))
    assert shift > 0
    assert 0.3 * shift < cal.detuning < 3.0 * shift


def test_calibration_work_count(monkeypatch):
    # criterion 09 at D = 0, where Levenberg-Marquardt reaches the error
    # floor, 1.38e-7, in 26 propagations at this resolution (a derivative-free
    # simplex search used to stall there after 6390); the floor lies above
    # the default 1e-7 target, so the search ends normally unconverged
    calls = []
    propagate = three_level._propagate

    def counted(*args, **kwargs):
        calls.append(None)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(three_level, "_propagate", counted)
    shape = 1.0 - np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 512))
    cal = calibrate_pulse(
        shape, T_P, 0.0, DELTA, RotationTarget.PI_PULSE, n_steps=112
    )
    assert len(calls) <= 100
    assert cal.qubit_subspace_error < 1e-6
    assert cal.err2_avg == pytest.approx(7.425e-4, rel=1e-2)
    assert cal.optimizer_success
    assert not cal.converged


def ladder_nodes(w, max_energy, n_steps):
    # a drive sampled on raised_cosine's grid, splined on its own, at the
    # Gauss nodes of the step rule
    n = three_level._step_count(T_P, max_energy + np.max(np.abs(w)), n_steps)
    h, nodes = three_level._gauss_node_times(0.0, T_P, n)
    return h, *cubic_spline(np.linspace(0.0, T_P, len(w)), w)(nodes)


@settings(deadline=None, max_examples=30)
@given(
    amp=st.floats(0.0, 3.0),
    det=st.floats(-3.0, 3.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    n_steps=st.sampled_from([None, 7, 112]),
)
def test_qubit_kernel_matches_ladder(amp, det, phase, n_steps):
    # the levels=2 path on the SU(2) kernel against the 2x2 ladder through
    # batched eigh and matrix products
    _, x = raised_cosine(64)
    h, w1, w2 = ladder_nodes(amp * x * np.exp(1j * phase), abs(det), n_steps)
    u = three_level._qubit_unitary(h, w1, w2, det)
    ref = three_level._propagate(h, w1, w2, np.array([0.0, -det]), (1.0,))
    assert np.max(np.abs(u - ref)) < 1e-12


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("n_steps", [None, 112])
def test_calibration_splines_its_drive_once(levels, n_steps, monkeypatch):
    # every trial point scales the node values of one spline of the unit
    # drive by amp e^(i phase); the fit used to build a spline per trial, and
    # a fixed n_steps reads the spline at its nodes once
    builds, reads = [], []

    def counted(*args):
        builds.append(None)
        spline = cubic_spline(*args)
        return lambda t: reads.append(None) or spline(t)

    monkeypatch.setattr(three_level, "cubic_spline", counted)
    _, x = raised_cosine(64)
    cal = calibrate_pulse(x, T_P, -0.48, DELTA, RotationTarget.PI_PULSE,
                          levels=levels, n_steps=n_steps)
    assert cal.qubit_subspace_error < 1e-6
    assert len(builds) == 1
    if n_steps is not None:
        assert len(reads) == 1


@settings(deadline=None, max_examples=30)
@given(
    amp=st.floats(0.0, 3.0),
    det=st.floats(-3.0, 3.0),
    phase=st.floats(0.0, 2.0 * np.pi),
    drag_d=st.floats(-1.5, 0.5),
    levels=st.sampled_from([2, 3]),
    n_steps=st.sampled_from([None, 7, 112]),
)
def test_calibration_trial_matches_a_pulse_built_for_it(amp, det, phase, drag_d, levels, n_steps):
    # the unitary of a fit's trial point against a pulse built and splined
    # for that point: the ladder through evolve_three_level at levels 3, the
    # 2x2 ladder reference at levels 2
    _, x = raised_cosine(64)
    point = np.array([amp, det, phase])
    core = "_propagate" if levels == 3 else "_qubit_unitary"
    unitaries = []

    def one_trial(fun, x0, method):  # a fit that tries the point and returns it
        fun(point)
        return SimpleNamespace(x=point, success=True)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(scipy.optimize, "least_squares", one_trial)
        run = getattr(three_level, core)
        m.setattr(three_level, core, lambda *args: unitaries.append(run(*args)) or unitaries[-1])
        calibrate_pulse(x, T_P, drag_d, DELTA, RotationTarget.PI_PULSE,
                        levels=levels, n_steps=n_steps)
    trial, final = unitaries
    assert np.array_equal(trial, final)
    if levels == 3:
        pulse = ThreeLevelPulse(amp * x, drag_d, DELTA, det, T_P, phase)
        ref = evolve_three_level(pulse, RotationTarget.PI_PULSE, n_steps).unitary
        assert np.max(np.abs(trial - ref)) < 1e-13
    else:
        h, w1, w2 = ladder_nodes(amp * x * np.exp(1j * phase), abs(det), n_steps)
        ref = three_level._propagate(h, w1, w2, np.array([0.0, -det]), (1.0,))
        assert np.max(np.abs(trial - ref)) < 1e-12


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    phase=st.floats(0.0, 2.0 * np.pi),
    target=st.sampled_from(RotationTarget),
)
def test_subspace_error_matches_closed_form(seed, phase, target):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(z)
    m = np.exp(1j * phase) * u[:2, :2]
    c, s = np.cos(target.angle / 2.0), np.sin(target.angle / 2.0)
    v = np.array([[c, -1j * s], [-1j * s, c]])
    closed = 1.0 - abs(np.trace(v.conj().T @ m)) ** 2 / (
        2.0 * np.trace(m.conj().T @ m).real
    )
    assert three_level._subspace_error(m, target) == pytest.approx(closed, abs=1e-12)


def test_pulse_validation():
    with pytest.raises(ValueError):
        ThreeLevelPulse(np.zeros(64), 0.0, 0.0, 0.0, T_P)
    with pytest.raises(ValueError):
        ThreeLevelPulse(np.zeros(64), 0.0, DELTA, 0.0, 0.0)
    with pytest.raises(ValueError):
        ThreeLevelPulse(np.zeros(7), 0.0, DELTA, 0.0, T_P)
    with pytest.raises(ValueError):
        calibrate_pulse(np.zeros(64), T_P, 0.0, DELTA, RotationTarget.PI_PULSE)
    with pytest.raises(ValueError):
        calibrate_pulse(np.ones(64), T_P, 0.0, DELTA, RotationTarget.PI_PULSE, levels=4)


PULSE = dict(envelope_x=np.ones(64), drag_d=0.0, delta=DELTA, detuning=0.0, t_p=T_P)


@pytest.mark.parametrize(
    "field, value",
    [("delta", np.nan), ("delta", np.inf), ("t_p", np.nan), ("t_p", np.inf),
     ("drag_d", np.nan), ("detuning", np.nan), ("drive_phase", np.nan),
     ("envelope_x", np.r_[np.ones(63), np.nan]), ("envelope_x", np.ones((8, 2)))],
)
def test_pulse_refuses_what_is_not_finite(field, value):
    # each used to be accepted, and evolve_three_level then failed elsewhere
    # (a 2-D envelope: "can't multiply sequence by non-int of type 'complex'")
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ThreeLevelPulse(**{**PULSE, field: value})


@pytest.mark.parametrize(
    "levels, field, value",
    [(levels, field, value) for levels in (2, 3) for field, value in
     [("t_p", np.nan), ("t_p", np.inf), ("shape", np.r_[np.ones(63), np.nan])]]
    + [(3, "drag_d", np.nan), (3, "delta", np.nan)]  # levels=2 reads neither
    + [(2, "shape", np.ones((64, 2))), (3, "shape", np.ones((64, 2)))],
)
def test_calibration_refuses_what_is_not_finite(levels, field, value):
    # least_squares used to refuse the seed: "Initial guess is outside of
    # provided bounds"; a 2-D shape failed with "only 0-dimensional arrays can
    # be converted"
    args = dict(shape=np.ones(64), t_p=T_P, drag_d=0.0, delta=DELTA,
                target=RotationTarget.PI_PULSE, levels=levels)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        calibrate_pulse(**{**args, field: value})


@pytest.mark.parametrize("levels", [2, 3])
def test_calibration_refuses_a_shape_whose_seed_overflows(levels):
    # a subnormal area made the area-theorem seed pi / area overflow, and the
    # run failed inside numpy ("cannot convert float NaN to integer"); an area
    # that overflows made the seed 0, and the fit returned a zero pulse (and
    # later warned of the overflow before refusing it)
    _, x = raised_cosine(64)
    for shape in (np.zeros(64), 1e-320 * x, 8e307 * x):
        with pytest.raises(ValueError, match="^shape must"):
            calibrate_pulse(shape, T_P, 0.0, DELTA, RotationTarget.PI_PULSE, levels=levels)


@pytest.mark.parametrize("levels, message", [
    (2, "^qubit-subspace error nan at the fit$"),
    (3, "^interpolation knots and values must be finite$"),
], ids=["levels2", "levels3"])
def test_calibration_refuses_a_drive_past_the_float_range(levels, message):
    # at 1e-200 time units the splined drive overflows: at levels 2 the fit
    # returned a nan error with optimizer_success, and both levels warned
    _, x = raised_cosine(64)
    with pytest.raises((RuntimeError, ValueError), match=message):
        calibrate_pulse(x, 1e-200, 0.0, DELTA, RotationTarget.PI_PULSE, levels=levels)


@pytest.mark.parametrize("levels", [2, 3])
def test_calibration_backs_off_from_a_drive_past_the_step_cap(levels):
    # the fit's second point put max |w| at 3e299, and sizing the step rule
    # for it failed inside numpy ("Maximum allowed size exceeded")
    t, x = raised_cosine(64)
    cal = calibrate_pulse(1e307 * x, T_P, 0.0, DELTA, RotationTarget.PI_PULSE, levels=levels)
    assert np.isfinite([cal.amplitude, cal.detuning, cal.phase, cal.qubit_subspace_error]).all()
    if levels == 2:  # the area theorem
        assert cal.converged
        assert cal.amplitude == pytest.approx(np.pi / np.trapezoid(1e307 * x, t), rel=1e-9)


@pytest.mark.parametrize("levels", [2, 3])
def test_fixed_step_calibration_backs_off_from_an_overflowing_point(levels):
    # with n_steps fixed no step cap refuses the fit's huge trial drives, and
    # propagating them overflowed inside numpy ("overflow encountered in
    # square" at levels 2, "... in matmul" at levels 3)
    t, x = raised_cosine(64)
    cal = calibrate_pulse(
        1e307 * x, T_P, 0.0, DELTA, RotationTarget.PI_PULSE, levels=levels, n_steps=32
    )
    assert np.isfinite([cal.amplitude, cal.detuning, cal.phase, cal.qubit_subspace_error]).all()
    assert cal.optimizer_success
    if levels == 2:  # the area theorem
        assert cal.converged
        assert cal.amplitude == pytest.approx(np.pi / np.trapezoid(1e307 * x, t), rel=1e-9)
    else:
        assert not cal.converged


def test_calibration_splines_the_seed_drive_of_a_huge_shape():
    # the derivative quadrature of a 1e306-scale shape overflows at unit
    # amplitude (D = -10); the fit's spline is of the seed pulse's drive
    _, x = raised_cosine(64)
    cal = calibrate_pulse(1e306 * x, T_P, -10.0, DELTA, RotationTarget.PI_PULSE, n_steps=32)
    assert np.isfinite([cal.amplitude, cal.detuning, cal.phase, cal.qubit_subspace_error]).all()


def test_drive_past_the_step_cap_is_refused():
    # refused before any step is built, with its count in full; a rule past
    # the float range is refused in its short form
    # (test_a_step_rule_past_the_float_range_is_the_cap_refusal)
    huge = ThreeLevelPulse(**{**PULSE, "envelope_x": 1e10 * np.ones(64)})
    with pytest.raises(ValueError, match=f"^step count 2000000001257 exceeds the cap of {2**20}$"):
        evolve_three_level(huge, RotationTarget.PI_PULSE)
    with pytest.raises(ValueError, match=f"^step count {2**20 + 1} exceeds"):
        evolve_three_level(ThreeLevelPulse(**PULSE), RotationTarget.PI_PULSE, 2**20 + 1)


@pytest.mark.parametrize("n_steps", [0, -3, 2**20 + 1, 2000.5, 3.5, 112.0])
def test_step_count_validation(n_steps, monkeypatch):
    # a count that is not an integer used to run ceil(n) steps of t_p / n,
    # past the end of the pulse (2000.5 steps: 3.9e-3 off the 2000-step unitary)
    _, x = raised_cosine(64)
    pulse = ThreeLevelPulse(envelope_x=x, drag_d=0.0, delta=DELTA, detuning=0.0, t_p=T_P)
    message = ("^n_steps must be an integer$" if isinstance(n_steps, float)
               else "n_steps must be >= 1" if n_steps < 1 else f"^step count {n_steps} exceeds")
    with pytest.raises(ValueError, match=message):
        evolve_three_level(pulse, RotationTarget.PI_PULSE, n_steps)
    # a caller's count is refused before the fit: the fit scored five refused
    # trial points as full error before its final evaluation raised
    calls = []
    monkeypatch.setattr(three_level, "_gauss_node_times", lambda *args: calls.append(args))
    for levels in (2, 3):
        with pytest.raises(ValueError, match=message):
            calibrate_pulse(x, T_P, 0.0, DELTA, RotationTarget.PI_PULSE,
                            levels=levels, n_steps=n_steps)
    assert not calls


def test_rotation_target_angles():
    assert RotationTarget.PI_PULSE.angle == pytest.approx(np.pi)
    assert RotationTarget.HALF_PI_PULSE.angle == pytest.approx(np.pi / 2)
