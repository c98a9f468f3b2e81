import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adiabatz.adiabatic_error import geometric_error
from adiabatz.dynamics import evolve_two_level_direct
from adiabatz.remap import RemapTable, build_remap, invert_remap, remapped_trajectory
from adiabatz.waveform import (
    BasisMode,
    FourierWaveform,
    derivative_waveform,
    eval_fourier,
    small_angle_trajectory,
)
from strategies import gentle_waveforms

T_X = np.pi  # crossing period 2 pi / omega_x at h_x = 1
THETA_I = np.arctan2(1.0, 10.0)


def half_transition(lam=(1.0866, -0.0866)):
    return derivative_waveform(np.array(lam), 1.0, THETA_I, np.pi / 2)


def test_constant_theta_remap_is_identity():
    # at theta = pi/2 the precession already runs at omega_x
    theta = np.full(257, np.pi / 2)
    table = build_remap(theta, tau_p=2.0)
    assert table.t_of_tau == pytest.approx(table.tau, abs=1e-12)
    assert table.t_p == pytest.approx(2.0)


def test_remap_slows_near_small_angles():
    # lab time advances at rate sin(theta) < 1: the pulse gets shorter
    theta = np.linspace(0.2, np.pi / 2, 513)
    table = build_remap(theta, tau_p=1.0)
    rate = np.diff(table.t_of_tau) / np.diff(table.tau)
    # trapezoid accumulation averages the endpoint rates of each interval
    mid = (np.sin(theta[1:]) + np.sin(theta[:-1])) / 2.0
    assert rate == pytest.approx(mid, abs=1e-10)
    assert table.t_p < 1.0


def test_total_phase_preserved():
    # int omega dt over the lab pulse equals omega_x tau_p by construction
    w = half_transition()
    traj = remapped_trajectory(w, 1.2 * T_X, n_samples=8192)
    phase_lab = np.trapezoid(traj.omega, traj.times)
    u = np.linspace(0.0, 1.0, 8192)
    theta_shape, _ = eval_fourier(w.with_t_p(1.0), u)
    mean_rate = np.trapezoid(np.sin(theta_shape), u)
    tau_p = 1.2 * T_X / mean_rate
    assert phase_lab == pytest.approx(2.0 * tau_p, rel=1e-6)


@settings(deadline=None, max_examples=30)
@given(gentle_waveforms, st.floats(0.5, 3.0), st.just(4096))
@example(half_transition(), 1.1, 2048)
@example(half_transition(), 1.1, 4096)
def test_round_trip_theta_recovery(w, span, n):
    # build t(tau), resample theta onto the lab grid, then map the lab grid
    # back to tau by inverting t(tau) and compare against the waveform shape
    # evaluated there; the linear inverse of the reference is second order,
    # worst seen 8.4e-7 at 2048 samples and 2.4e-7 at 4096 over random shapes
    u = np.linspace(0.0, 1.0, n)
    theta_shape, _ = eval_fourier(w.with_t_p(1.0), u)
    tau_p = span * T_X / np.trapezoid(np.sin(theta_shape), u)
    table = build_remap(theta_shape, tau_p)
    traj = invert_remap(table, np.linspace(0.0, table.t_p, n))
    tau_back = np.interp(traj.times, table.t_of_tau, table.tau)
    theta_direct, _ = eval_fourier(w.with_t_p(tau_p), tau_back)
    assert np.max(np.abs(traj.theta - theta_direct)) < 1e-6


@settings(deadline=None, max_examples=30)
@given(gentle_waveforms, st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
       st.sampled_from([2, 3, 257, 2048]))
@example(half_transition(), [1.1 * T_X, 4.0], 4096)
def test_unit_remap_stretches_to_every_duration_bitwise(w, t_ps, n):
    # the remap is linear in the duration: a sweep remaps the shape once at
    # unit duration and stretches it, and gets the per-duration arrays bitwise
    unit = remapped_trajectory(w, 1.0, n_samples=n)
    for t_p in t_ps:
        stretched, direct = unit.with_t_p(t_p), remapped_trajectory(w, t_p, n_samples=n)
        for field in ("times", "theta", "dtheta_dt", "h_z", "omega"):
            assert np.array_equal(getattr(stretched, field), getattr(direct, field)), field
        assert stretched.h_x == direct.h_x
        assert stretched.times[-1] == t_p


def test_stretch_keeps_the_samples_and_refuses_bad_durations():
    traj = small_angle_trajectory(half_transition().with_t_p(2.0), omega0=2.0, n_samples=65)
    stretched = traj.with_t_p(3.0)
    assert np.array_equal(stretched.times, np.linspace(0.0, 3.0, 65))
    for field in ("theta", "h_z", "omega"):
        assert np.array_equal(getattr(stretched, field), getattr(traj, field))
    assert np.array_equal(stretched.dtheta_dt, traj.dtheta_dt * 2.0 / 3.0)
    for t_p in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_p"):
            traj.with_t_p(t_p)


def test_endpoints_preserved():
    w = half_transition()
    traj = remapped_trajectory(w, 4.0, n_samples=1025)
    assert traj.theta[0] == pytest.approx(THETA_I, abs=1e-9)
    assert traj.theta[-1] == pytest.approx(np.pi / 2, abs=1e-9)
    assert traj.times[-1] == pytest.approx(4.0, rel=1e-12)


def test_frame_equivalence_linearized_error():
    # the remap's reason to exist: the lab-frame error functional with
    # varying omega equals the constant-omega functional in the remapped
    # time.  (The exact backends always rebuild the constant-h_x lab
    # Hamiltonian from theta, so the pinned-omega side is compared through
    # the linearized functional, where omega enters only as a phase rate.)
    w = derivative_waveform(
        np.array([1.086, -0.086]),
        1.0,
        np.arctan2(1.0, 10.0),
        np.arctan2(1.0, -10.0),
    )
    n = 16384
    u = np.linspace(0.0, 1.0, n)
    theta_shape, _ = eval_fourier(w.with_t_p(1.0), u)
    mean_rate = np.trapezoid(np.sin(theta_shape), u)
    for t_p in (0.9 * T_X, 1.1 * T_X, 1.34 * T_X):
        lab = remapped_trajectory(w, t_p, n_samples=n)
        tau_frame = small_angle_trajectory(
            w.with_t_p(t_p / mean_rate), omega0=2.0, n_samples=n
        )
        p_lab = geometric_error(lab)
        p_tau = geometric_error(tau_frame)
        assert p_lab == pytest.approx(p_tau, abs=1e-8)


def test_grid_refinement_stability():
    w = half_transition()
    coarse = evolve_two_level_direct(remapped_trajectory(w, 4.0, n_samples=4096)).p_e
    fine = evolve_two_level_direct(remapped_trajectory(w, 4.0, n_samples=16384)).p_e
    assert coarse == pytest.approx(fine, abs=2e-8)


def test_out_and_back_remap():
    w = FourierWaveform(
        BasisMode.THETA,
        np.array([0.33196898986871659, -0.19, 0.05]),
        1.0,
        0.1,
    )
    traj = remapped_trajectory(w, 2.0 * T_X, n_samples=4096)
    assert traj.theta[0] == pytest.approx(0.1, abs=1e-8)
    assert traj.theta[-1] == pytest.approx(0.1, abs=1e-8)
    assert np.max(traj.theta) == pytest.approx(0.8639379797371932, abs=1e-4)


def test_build_remap_guards():
    with pytest.raises(ValueError):
        build_remap(np.full(64, 0.5), tau_p=0.0)
    with pytest.raises(ValueError):
        build_remap(np.linspace(-0.1, 1.0, 64), tau_p=1.0)
    with pytest.raises(ValueError):
        build_remap(np.linspace(0.5, np.pi, 64), tau_p=1.0)


def test_build_remap_refuses_an_infinite_duration():
    # inf passed the positivity check and failed later on numpy warnings
    # as "t(tau) must be strictly increasing"
    with pytest.raises(ValueError, match="tau_p must be finite and positive"):
        build_remap(np.full(4, 0.5), tau_p=np.inf)


def test_remap_refuses_nan():
    # nan compares false both ways, so each check is written to fail on it
    with pytest.raises(ValueError, match="inside"):
        build_remap(np.array([0.5, np.nan, 0.5, 0.6]), tau_p=1.0)
    with pytest.raises(ValueError, match="tau_p"):
        build_remap(np.full(4, 0.5), tau_p=np.nan)
    tau, theta = np.linspace(0.0, 1.0, 4), np.full(4, 0.5)
    with pytest.raises(ValueError, match="increasing"):
        RemapTable(tau=tau, t_of_tau=np.array([0.0, np.nan, 0.5, 0.6]), theta_of_tau=theta)
    with pytest.raises(ValueError, match="t\\(0\\)"):
        RemapTable(tau=tau[:1], t_of_tau=np.array([np.nan]), theta_of_tau=theta[:1])


def test_remapped_trajectory_needs_two_samples():
    w = half_transition()
    with pytest.raises(ValueError, match="two samples"):
        remapped_trajectory(w, 4.0, n_samples=1)
    assert len(remapped_trajectory(w, 4.0, n_samples=2).times) == 2


def test_invert_remap_rejects_out_of_range_times():
    table = build_remap(np.full(64, np.pi / 2), tau_p=1.0)
    with pytest.raises(ValueError):
        invert_remap(table, np.array([-0.5, 0.2]))
    with pytest.raises(ValueError):
        invert_remap(table, np.array([0.2, 1.5]))


def test_table_validation():
    tau = np.linspace(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        RemapTable(tau=tau, t_of_tau=np.zeros(16), theta_of_tau=np.full(16, 1.0))
