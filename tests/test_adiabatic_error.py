import re

import numpy as np
import pytest

from adiabatz.adiabatic_error import (
    Evaluator,
    error_curve,
    geometric_error,
    landau_zener_error,
)
from adiabatz.spectral import psd
from adiabatz.waveform import (
    SampledTrajectory,
    derivative_waveform,
    small_angle_trajectory,
)


def constant_rate_trajectory(dtheta, t_p, omega0, n=32768):
    """theta ramps linearly: the rectangular-window reference case."""
    t = np.linspace(0.0, t_p, n)
    theta = 0.5 + dtheta * t / t_p
    return SampledTrajectory(
        times=t,
        theta=theta,
        dtheta_dt=np.full(n, dtheta / t_p),
        h_z=1.0 / np.tan(theta),
        omega=np.full(n, omega0),
        h_x=1.0,
    )


def hanning_trajectory(dtheta, t_p, omega0, n=2048):
    w = derivative_waveform(np.array([1.0]), t_p, 0.5, 0.5 + dtheta)
    return small_angle_trajectory(w, omega0=omega0, n_samples=n)


def test_rectangular_closed_form_error():
    dtheta, t_p = 0.02, 1.0
    for u in (0.37, 1.48, 3.73):
        omega0 = 2 * np.pi * u / t_p
        expected = dtheta**2 * np.sin(omega0 * t_p / 2) ** 2 / (omega0 * t_p) ** 2
        got = geometric_error(constant_rate_trajectory(dtheta, t_p, omega0))
        assert got == pytest.approx(expected, rel=1e-5)


def test_hanning_closed_form_error():
    dtheta, t_p = 0.02, 1.0
    for u in (0.37, 2.48, 4.61):
        omega0 = 2 * np.pi * u / t_p
        rect = dtheta**2 * np.sin(omega0 * t_p / 2) ** 2 / (omega0 * t_p) ** 2
        expected = rect / (1.0 - u**2) ** 2
        got = geometric_error(hanning_trajectory(dtheta, t_p, omega0))
        assert got == pytest.approx(expected, rel=1e-6)


def test_error_is_quarter_of_spectral_density():
    # constant-omega trajectories: P_e = S(omega0) / 4 on the same grid
    for u in (0.7, 2.3, 5.2):
        traj = hanning_trajectory(0.05, 2.0, omega0=2 * np.pi * u / 2.0, n=4096)
        s = psd(traj.times, traj.dtheta_dt, np.array([traj.omega[0]])).values[0]
        assert geometric_error(traj) == pytest.approx(s / 4.0, abs=1e-10)


def test_quadratic_scaling_in_excursion():
    a = geometric_error(hanning_trajectory(0.01, 1.0, 9.0))
    b = geometric_error(hanning_trajectory(0.03, 1.0, 9.0))
    assert b / a == pytest.approx(9.0, rel=1e-10)


def test_time_reversal_symmetry():
    traj = hanning_trajectory(0.4, 1.3, 7.1, n=4097)
    rev = SampledTrajectory(
        times=traj.times,
        theta=traj.theta[::-1].copy(),
        dtheta_dt=traj.dtheta_dt[::-1].copy(),
        h_z=traj.h_z[::-1].copy(),
        omega=traj.omega[::-1].copy(),
        h_x=traj.h_x,
    )
    assert geometric_error(rev) == pytest.approx(
        geometric_error(traj), rel=1e-12
    )


def test_envelope_slopes_rect_vs_hanning():
    # at half-integer u the oscillation factor is 1, exposing the envelope:
    # 1/t_p^2 for the flat ramp, 1/t_p^6 for the single-term waveform
    us = np.array([10.5, 21.5, 42.5])
    omega0 = 2 * np.pi
    rect = [
        geometric_error(constant_rate_trajectory(0.01, u, omega0, n=65536))
        for u in us
    ]
    hann = [
        geometric_error(hanning_trajectory(0.01, u, omega0, n=16384))
        for u in us
    ]
    slope_rect = np.polyfit(np.log(us), np.log(rect), 1)[0]
    slope_hann = np.polyfit(np.log(us), np.log(hann), 1)[0]
    assert slope_rect == pytest.approx(-2.0, abs=0.05)
    assert slope_hann == pytest.approx(-6.0, abs=0.05)


def test_two_term_optimum_band_performance():
    # the two-term optimal waveform holds the band above the design edge
    # below 1e-4 per unit excursion
    lam = np.array([1.0866, -0.0866])
    worst = 0.0
    for u in np.linspace(2.3, 6.0, 113):
        w = derivative_waveform(lam, 1.0, 0.5, 1.5)
        traj = small_angle_trajectory(w, omega0=2 * np.pi * u, n_samples=4096)
        worst = max(worst, geometric_error(traj))
    assert worst < 1e-4


def test_landau_zener_formula():
    assert landau_zener_error(1.0, np.pi) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert landau_zener_error(1.0, 0.341) == pytest.approx(
        np.exp(-np.pi / 0.341), rel=1e-14
    )
    # slower ramps leak less
    assert (
        landau_zener_error(1.0, 0.2)
        < landau_zener_error(1.0, 0.3)
        < landau_zener_error(1.0, 0.5)
    )
    for rate in (0.0, -1.0, np.nan):  # nan gave a nan probability
        with pytest.raises(ValueError, match="ramp_rate"):
            landau_zener_error(1.0, rate)
    for h_x in (0.0, -1.0, np.inf, np.nan):  # each used to be accepted
        with pytest.raises(ValueError, match="h_x"):
            landau_zener_error(h_x, 0.3)


def aliased(t_p):
    # 1e307 rad/s on 65 samples: ~1.6e305 rad a sample at t_p = 1
    w = derivative_waveform([1.0], t_p, 0.5, 1.5)
    return small_angle_trajectory(w, omega0=1e307, n_samples=65)


def test_overflowing_phase_is_a_failed_point():
    # omega0 * t_p overflows the accumulated phase; the integral used to
    # warn from np.cumsum, which error_curve let through under -W error.
    # The point at t_p = 1 is a failure too: its grid aliases the phase
    with pytest.raises(ValueError, match="theta_mr is not a number"):
        geometric_error(aliased(100.0))
    curve = error_curve(aliased, [1.0, 100.0])
    assert np.all(np.isnan(curve.p_e))
    assert [i for i, _ in curve.failures] == [0, 1]
    assert "theta_mr is not a number" in curve.failures[1][1]


def test_aliased_phase_steps_are_refused():
    # the grid of 65 samples returned P_e 1.3e-4 at t_p = 1 and 3.4e-4 at 2
    # from ~1.6e305 and ~3.2e305 rad a sample; now each point fails and
    # names its largest step
    for t_p in (1.0, 2.0):
        traj = aliased(t_p)
        step = (traj.omega[1:] + traj.omega[:-1]) / 2.0 * np.diff(traj.times)
        k = int(np.argmax(step))
        message = f"phase step {step[k]:.3g} rad between samples {k} and {k + 1} exceeds pi:"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            geometric_error(traj)
    curve = error_curve(aliased, [1.0, 2.0])
    assert np.all(np.isnan(curve.p_e)) and [i for i, _ in curve.failures] == [0, 1]
    assert all("exceeds pi" in reason for _, reason in curve.failures)
    # a constant gap with a step of pi passes; one ulp over is refused
    for omega0, ok in ((np.pi, True), (np.nextafter(np.pi, 4.0), False)):
        traj = constant_rate_trajectory(0.02, 16.0, omega0, n=17)
        if ok:
            assert geometric_error(traj) >= 0.0
        else:
            with pytest.raises(ValueError, match="exceeds pi"):
                geometric_error(traj)


def test_error_curve_partial_failures():
    def gen(t_p):
        if 2.0 < t_p < 3.0:
            raise ValueError("bad point")
        return hanning_trajectory(0.05, t_p, 6.0, n=512)

    curve = error_curve(gen, [1.0, 2.5, 4.0], Evaluator.LINEARIZED)
    assert np.isnan(curve.p_e[1])
    assert np.isfinite(curve.p_e[[0, 2]]).all()
    assert len(curve.failures) == 1
    assert curve.failures[0][0] == 1
    assert "ValueError" in curve.failures[0][1]


def test_error_curve_lets_a_programming_error_through():
    # only numerical failures become failed points; a TypeError used to be
    # recorded as a NaN point with its reason
    def gen(t_p):
        if 2.0 < t_p < 3.0:
            raise TypeError("not a trajectory")
        return hanning_trajectory(0.05, t_p, 6.0, n=512)

    with pytest.raises(TypeError, match="not a trajectory"):
        error_curve(gen, [1.0, 2.5, 4.0], Evaluator.LINEARIZED)


def test_error_curve_rejects_bad_grid():
    gen = lambda t_p: hanning_trajectory(0.05, t_p, 6.0, n=256)
    with pytest.raises(ValueError):
        error_curve(gen, [2.0, 1.0])
    with pytest.raises(ValueError):
        error_curve(gen, [-1.0, 2.0])
    # a nan or inf duration is refused up front, not reported as a failed point
    for bad in ([1.0, np.nan], [np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="finite, positive and strictly increasing"):
            error_curve(gen, bad)


def test_error_curve_exact_evaluator_smoke():
    lam = np.array([1.0866, -0.0866])

    def gen(t_p):
        from adiabatz.remap import remapped_trajectory

        w = derivative_waveform(lam, 1.0, np.arctan2(1.0, 10.0), np.pi / 2)
        return remapped_trajectory(w, t_p, n_samples=1024)

    curve = error_curve(gen, [2.0, 4.0], Evaluator.EXACT)
    assert curve.failures == ()
    assert np.all((curve.p_e >= 0) & (curve.p_e <= 1))
