import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiabatz.geometry import h_z_from_theta, omega_from_theta
from adiabatz.waveform import (
    CONSTRAINT_TOL,
    BasisMode,
    FourierWaveform,
    SampledTrajectory,
    derivative_waveform,
    eval_fourier,
    hanning_window,
    linear_ramp_trajectory,
    rectangular_window,
    sample_trajectory,
    small_angle_trajectory,
    theta_waveform,
)
from strategies import gentle_waveforms


def unit_times(n=1024):
    return np.linspace(0.0, 1.0, n)


# ---------------------------------------------------------------- waveforms


ENDPOINT_MISSED = "^endpoint constraint violated: residual "


def test_derivative_constraint_enforced():
    # the sum of the derivative coefficients must equal the angle change
    with pytest.raises(ValueError, match=ENDPOINT_MISSED):
        derivative_waveform([1.0, 0.3], 1.0, 0.1, 0.9, normalized=False)


def test_theta_constraint_enforced():
    # odd-index sum must equal half the excursion
    with pytest.raises(ValueError, match=ENDPOINT_MISSED):
        theta_waveform([0.1, -0.05, 0.2], 1.0, 0.1, 0.9)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: derivative_waveform([1.0], np.nan, 0.1, 1.0), "t_p"),
        (lambda: theta_waveform([0.3], np.nan, 0.1, 0.7), "t_p"),
        (lambda: theta_waveform([0.3], np.inf, 0.1, 0.7), "t_p"),
        (lambda: theta_waveform([np.nan], 1.0, 0.1, 0.7), "finite"),
        # and this one warned of the overflow, then missed its endpoints
        (lambda: derivative_waveform([1e308, 1e308, -1e308], 1.0, 0.1, 1.0), "finite sum, got inf"),
        # a finite sum of 1e-300 whose rescale overflows, which warned
        (lambda: derivative_waveform([1e308, -1e308, 1e-300], 1.0, 0.1, 1.0),
         "coefficients must be finite"),
        (lambda: FourierWaveform(BasisMode.THETA, [0.3], 1.0, np.nan), "theta_i must be finite"),
    ],
    ids=["derivative-nan-t_p", "theta-nan-t_p", "theta-inf-t_p", "nan-coefficient",
         "overflowing-sum", "overflowing-rescale", "nan-theta_i"],
)
def test_waveform_refuses_what_is_not_finite(build, message):
    # each of these was accepted before, its nan residual passing the
    # endpoint check, and failed later with a misleading message
    with pytest.raises(ValueError, match=message):
        build()


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["derivative", "theta"]),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
    st.floats(-3.0, 3.0),
    st.floats(-1.0, 1.0),
)
def test_builders_reach_the_theta_f_they_are_given(basis, lam, theta_i, offset):
    # theta_f is theta(1) of the derivative basis and theta(1/2) of the theta
    # basis; a builder takes it within CONSTRAINT_TOL and refuses it past that
    if basis == "derivative":
        delta, u_f = sum(lam), 1.0
        build = lambda theta_f: derivative_waveform(lam, 1.0, theta_i, theta_f, normalized=False)
    else:
        delta, u_f = 2.0 * sum(lam[::2]), 0.5
        build = lambda theta_f: theta_waveform(lam, 1.0, theta_i, theta_f)
    tol = CONSTRAINT_TOL * max(1.0, abs(delta))
    theta_f = theta_i + delta + 0.5 * offset * tol
    (theta,), _ = eval_fourier(build(theta_f), np.array([u_f]))
    rounding = 64 * np.finfo(float).eps * (abs(theta_i) + 2.0 * np.sum(np.abs(lam)))
    assert abs(theta - theta_f) <= tol + rounding
    for missed in (theta_i + delta + 2.0 * tol, theta_i + delta - 2.0 * tol):
        with pytest.raises(ValueError, match=ENDPOINT_MISSED):
            build(missed)


@pytest.mark.parametrize("lam", [[1e6, -999999.0], [3e9, 1.0, -2999999999.5]])
def test_normalized_builder_takes_its_own_rescale_of_cancelling_coefficients(lam):
    # c / sum(c) (theta_f - theta_i) sums back to theta_f - theta_i only to
    # the rounding of the rescale, 1.4e-10 and 9.5e-8 here: that was refused
    # as a missed endpoint
    delta = 2.2 - 0.3
    w = derivative_waveform(lam, 1.0, 0.3, 2.2)
    assert np.array_equal(w.coefficients, np.array(lam) / np.sum(lam) * delta)
    rounding = 2 * len(lam) * np.finfo(float).eps * np.sum(np.abs(w.coefficients))
    assert 1e-10 < abs(np.sum(w.coefficients) - delta) <= rounding


def test_derivative_waveform_sweeps_angles():
    w = derivative_waveform(np.array([2.0, -0.2, 0.04]), 3.7, 0.25, 1.31)
    t = np.linspace(0.0, 3.7, 4001)
    theta, dtheta = eval_fourier(w, t)
    assert theta[0] == pytest.approx(0.25, abs=1e-12)
    assert theta[-1] == pytest.approx(1.31, abs=1e-12)
    # derivative vanishes at both ends: every basis term is 1 - cos
    assert dtheta[0] == pytest.approx(0.0, abs=1e-12)
    assert dtheta[-1] == pytest.approx(0.0, abs=1e-12)


def test_eval_fourier_closed_form_matches_quadrature():
    w = derivative_waveform(np.array([1.2, -0.1, 0.02, 0.01]), 2.3, 0.2, 1.4)
    t = np.linspace(0.0, 2.3, 20001)
    theta, dtheta = eval_fourier(w, t)
    numeric = 0.2 + np.concatenate(
        [[0.0], np.cumsum((dtheta[1:] + dtheta[:-1]) / 2.0 * np.diff(t))]
    )
    assert theta == pytest.approx(numeric, abs=5e-9)


def test_eval_fourier_scalar_point():
    w = theta_waveform(np.array([0.3, -0.1, 0.05]), 2.0, 0.1, 0.8)
    theta, dtheta = eval_fourier(w, np.array([1.0]))  # midpoint of the excursion
    assert theta[0] == pytest.approx(0.1 + 2 * (0.3 + 0.05))
    assert dtheta[0] == pytest.approx(0.0, abs=1e-12)
    # a point outside [0, t_p], past a rounding margin, is refused
    for t in (-1e-9, 2.0 * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match=r"^t outside \[0, t_p\]$"):
            eval_fourier(w, np.array([t]))


def test_theta_mode_midpoint_excursion():
    # theta basis is out-and-back: theta(t_p) = theta_i, theta(t_p/2) = theta_f
    w = theta_waveform(np.array([0.25, -0.19, 0.1]), 1.0, 0.1, 0.8)
    t = np.array([0.0, 0.5, 1.0])
    theta, _ = eval_fourier(w, t)
    assert theta[0] == pytest.approx(0.1, abs=1e-12)
    assert theta[1] == pytest.approx(0.8, abs=1e-12)
    assert theta[2] == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize(
    "w",
    [derivative_waveform(np.array([1.0, -0.1]), 1.0, 0.1, 1.2),
     theta_waveform(np.array([0.3, -0.1, 0.05]), 1.0, 0.1, 0.8)],
    ids=["derivative", "theta"],
)
def test_with_t_p_keeps_the_coefficients(w):
    # both bases describe the shape over u = t / t_p, so a coefficient
    # vector is valid at every duration
    v = w.with_t_p(4.0)
    assert np.array_equal(v.coefficients, w.coefficients)
    # shape is preserved: same angles swept
    theta_v, _ = eval_fourier(v, np.linspace(0, 4.0, 101))
    theta_w, _ = eval_fourier(w, np.linspace(0, 1.0, 101))
    assert theta_v == pytest.approx(theta_w, abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(gentle_waveforms, st.floats(0.1, 10.0))
def test_stretched_waveform_is_the_shape_at_scaled_times(w, c):
    v = w.with_t_p(c * w.t_p)
    assert np.array_equal(v.coefficients, w.coefficients)
    t = np.linspace(0.0, w.t_p, 257)
    theta_w, rate_w = eval_fourier(w, t)
    theta_v, rate_v = eval_fourier(v, c * t)
    assert np.max(np.abs(theta_v - theta_w)) <= 1e-15
    # the rate scales by 1/c, up to rounding
    assert np.max(np.abs(rate_v - rate_w / c)) <= 1e-14 * np.max(np.abs(rate_w / c))


# ------------------------------------------------------------- trajectories


def test_sample_trajectory_consistency():
    w = derivative_waveform(np.array([1.0866, -0.0866]), 4.0, 0.15, np.pi / 2)
    traj = sample_trajectory(w, n_samples=513)
    assert len(traj.times) == 513
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(4.0)
    assert traj.h_x == 1.0
    assert traj.omega == pytest.approx(2 / np.sin(traj.theta), rel=1e-13)
    assert traj.h_z == pytest.approx(1 / np.tan(traj.theta), rel=1e-12)


def test_trajectory_derives_what_it_is_not_given():
    # h_z and omega left out follow from theta and h_x by the geometry formulas
    t = np.linspace(0.0, 2.0, 65)
    theta = 0.3 + 0.4 * t
    for h_x in (1.0, 2.5):
        traj = SampledTrajectory(times=t, theta=theta, dtheta_dt=np.full(65, 0.4), h_x=h_x)
        assert np.array_equal(traj.h_z, h_z_from_theta(theta, h_x))
        assert np.array_equal(traj.omega, omega_from_theta(theta, h_x))
    assert SampledTrajectory(times=t, theta=theta, dtheta_dt=np.zeros(65)).h_x == 1.0


def test_linear_ramp_gives_its_control_and_derives_the_gap():
    # h_z is the ramp's control; omega = 2 / sin(theta) is its closed form
    # 2 sqrt(1 + h_z^2) up to rounding
    traj = linear_ramp_trajectory(10.0, 0.05, 4097)
    assert np.array_equal(traj.h_z, 10.0 - 0.05 * traj.times)
    assert traj.omega == pytest.approx(2.0 * np.sqrt(1.0 + traj.h_z**2), rel=1e-14, abs=0)


def test_small_angle_trajectory_pins_omega():
    w = derivative_waveform(np.array([1.0]), 2.0, 0.1, 0.2)
    traj = small_angle_trajectory(w, omega0=5.0, n_samples=129)
    assert np.all(traj.omega == 5.0)


def test_trajectory_rejects_nonuniform_grid():
    t = np.array([0.0, 0.1, 0.3])
    with pytest.raises(ValueError):
        SampledTrajectory(
            times=t,
            theta=np.full(3, 0.5),
            dtheta_dt=np.zeros(3),
            h_z=np.full(3, 1.0),
            omega=np.full(3, 2.0),
            h_x=1.0,
        )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("theta", np.full(4, 0.5), "one sample per time"),
        ("dtheta_dt", np.zeros(6), "one sample per time"),
        ("theta", np.array([0.5, np.nan, 0.5, 0.5, 0.5]), r"\(0, pi\)"),
        ("dtheta_dt", np.array([0.0, 0.0, np.nan, 0.0, 0.0]), "finite"),
        ("dtheta_dt", np.array([0.0, np.inf, 0.0, 0.0, 0.0]), "finite"),
        ("h_x", 0.0, "h_x"),
        ("h_x", np.nan, "h_x"),
        ("h_z", np.full(10, 1.0), "one sample per time"),
        ("omega", np.full(3, 2.0), "one sample per time"),
        ("h_z", np.array([1.0, 1.0, np.inf, 1.0, 1.0]), "finite"),
        ("omega", np.array([2.0, np.nan, 2.0, 2.0, 2.0]), "finite"),
        ("times", np.array([0.0]), "at least two samples"),
        ("times", np.array([0.0, 0.5, 0.25, 0.75, 1.0]), "strictly increasing"),
    ],
)
def test_trajectory_rejects_what_cannot_be_propagated(field, value, message):
    # before these checks each case got through: the first two failed later
    # in the spline, the nan angle passed the (0, pi) test, the nan rate
    # failed in the ODE's step count, h_x = 0 propagated to P_e = 6e-35, a
    # mismatched h_z changed the rounded trajectory's length, a short omega
    # failed to broadcast in the error integral and a nan omega gave nan P_e;
    # one sample, or times out of order, leave no step to take
    fields = dict(
        times=np.linspace(0.0, 1.0, 5), theta=np.full(5, 0.5), dtheta_dt=np.zeros(5),
        h_z=np.full(5, 1.0), omega=np.full(5, 2.0), h_x=1.0,
    )
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        SampledTrajectory(**fields)


def test_trajectory_accepts_rounded_grid_far_from_the_origin():
    # |t| / d = 2e8: the rounding of the times alone is ~2e-8 d, the same
    # grid fourier_integral accepts; a sample moved by 1e-6 d is refused
    n = 2000
    t = 1000.0 + np.linspace(0.0, 1e-2, n)
    fields = dict(
        theta=np.full(n, 0.5), dtheta_dt=np.zeros(n), h_z=np.full(n, 1.0),
        omega=np.full(n, 2.0), h_x=1.0,
    )
    assert SampledTrajectory(times=t, **fields).t_p == pytest.approx(1e-2, rel=1e-9)
    t[700] += 1e-6 * (t[1] - t[0])
    with pytest.raises(ValueError, match="uniform"):
        SampledTrajectory(times=t, **fields)


def test_out_of_range_theta_is_refused():
    # sampling refuses an angle outside (0, pi), as the remap does, rather
    # than clamping it; an angle of exactly 0 is refused without a warning
    w = theta_waveform(np.array([0.26, -0.3, 0.05]), 1.0, 0.1, 0.72)
    with pytest.raises(ValueError, match=r"\(0, pi\)"):
        sample_trajectory(w, n_samples=257)
    with pytest.raises(ValueError, match=r"\(0, pi\)"):
        sample_trajectory(derivative_waveform([1.0], 1.0, 0.0, 1.0), n_samples=257)


def test_linear_ramp_refuses_a_span_or_rate_that_is_not_finite_and_positive():
    # a zero rate raised ZeroDivisionError, a nan span or rate "time grid
    # must be uniform"
    for span, rate in [(10.0, r) for r in (0.0, -0.3, np.nan, np.inf)] + [
        (s, 0.3) for s in (0.0, -1.0, np.nan, np.inf)
    ]:
        with pytest.raises(ValueError, match="^span and rate must be"):
            linear_ramp_trajectory(span, rate, 65)


# ------------------------------------------------------------------ windows


def test_flat_and_hanning_windows():
    assert rectangular_window(9) == pytest.approx(np.ones(9))
    h = hanning_window(33)
    assert h[0] == pytest.approx(0.0, abs=1e-15)
    assert h[-1] == pytest.approx(0.0, abs=1e-15)
    assert h[16] == pytest.approx(2.0)  # peak of 1 - cos is 2
    assert np.trapezoid(h, unit_times(33)) == pytest.approx(1.0, rel=1e-3)
