import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from adiabatz import dynamics
from adiabatz.dynamics import STEP_ATOL, evolve_two_level_direct, remapped_p_e
from adiabatz.optimize import (
    CZ_ROUNDING_SIGMA_PERIODS,
    ROUNDED_SAMPLES,
    SEARCH_RTOL,
    Objective,
    ObjectiveKind,
    _ExactObjective,
    _lockstep,
    _simplex,
    _SpectralObjective,
    basis_transform,
    convolve_gaussian,
    convolve_trajectory,
    gaussian_kernel,
    optimize_coefficients,
    optimize_cz_pulse,
)
from adiabatz.remap import remapped_trajectory
from adiabatz.spectral import fourier_integral
from adiabatz.waveform import (
    BasisMode,
    constraint_residual,
    derivative_waveform,
    sample_trajectory,
    theta_waveform,
)

CUTOFF = 2.3

# frozen from an early simplex search over the same band integral; the
# closed-form solve the optimizer now uses reproduces them to ~1e-9
REFERENCE_ROWS = {
    2: [1.086557, -0.086557],
    4: [1.071075, -0.078754, 0.002696, 0.004983],
    10: [1.033325, -0.062776, 0.004122, 0.005110, 0.004420,
         0.003814, 0.003380, 0.003072, 0.002849, 0.002684],
}


def spectral_objective(cutoff=CUTOFF):
    return Objective(kind=ObjectiveKind.INTEGRATED_PSD_ABOVE_CUTOFF, cutoff=cutoff)


def test_window_coefficient_rows():
    for n_m, expected in REFERENCE_ROWS.items():
        rep = optimize_coefficients(n_m, BasisMode.DERIVATIVE, spectral_objective(), 1.0)
        assert rep.converged
        assert rep.coefficients == pytest.approx(np.array(expected), abs=1e-4)


def test_single_term_is_fully_constrained():
    rep = optimize_coefficients(1, BasisMode.DERIVATIVE, spectral_objective(), 1.0)
    assert np.array_equal(rep.coefficients, [1.0])
    assert rep.iterations == 0
    assert rep.converged
    assert rep.step_error is None


def test_two_terms_beat_one():
    one = optimize_coefficients(1, BasisMode.DERIVATIVE, spectral_objective(), 1.0)
    two = optimize_coefficients(2, BasisMode.DERIVATIVE, spectral_objective(), 1.0)
    assert two.objective_value < one.objective_value


def test_constraint_enforced_exactly():
    rep = optimize_coefficients(4, BasisMode.DERIVATIVE, spectral_objective(), 0.7)
    assert np.sum(rep.coefficients) == pytest.approx(0.7, abs=1e-12)
    rep = optimize_coefficients(4, BasisMode.THETA, spectral_objective(), 0.7)
    # odd terms carry the net excursion: theta(t_p/2) - theta(0) = 2 sum_odd
    assert np.sum(rep.coefficients[0::2]) == pytest.approx(0.35, abs=1e-12)


def test_bitwise_reproducibility():
    # the seeded restarts of the exact-dynamics simplex
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_AT_TP, t_p_window=(4.0, 4.0),
        theta_i=0.3, theta_f=2.2,
    )
    a, b = (
        optimize_coefficients(3, BasisMode.DERIVATIVE, objective, 1.9, seed=3, max_iterations=15)
        for _ in range(2)
    )
    assert a.iterations > 0
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.objective_value == b.objective_value
    assert a.iterations == b.iterations and a.rejected == b.rejected


def constraint_row(mode, n_m):
    # a with a.lam = theta_f - theta_i at unit duration, read off the public
    # constraint_residual, which is linear in the coefficients
    return np.array([
        constraint_residual(
            SimpleNamespace(mode=mode, coefficients=e, t_p=1.0, theta_i=0.0, theta_f=0.0)
        )
        for e in np.eye(n_m)
    ])


# band edges from near zero to 40 cycles (past 2 n_m for every n_m drawn):
# far above the edge every basis term falls like n^2/u^3 and B nears rank 1
closed_form_cases = dict(
    cutoff=st.floats(0.05, 40.0),
    n_m=st.integers(2, 16),
    mode=st.sampled_from(list(BasisMode)),
    c=st.floats(0.2, 1.5),
)


def one_term_power(objective, mode, n_m, c):
    # band power of the one-term window (free coefficients 0); the quadrature
    # rounds at this scale, not at that of the optimum, which at high
    # cutoffs lies 20 orders of magnitude below it
    lam = np.zeros(n_m)
    lam[0] = c / constraint_row(mode, n_m)[0]
    return _SpectralObjective(objective, mode, n_m)(lam)


@settings(max_examples=40, deadline=None)
@given(**closed_form_cases, seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-4, 1e-2, 1.0]))
def test_closed_form_is_the_constrained_minimum(cutoff, n_m, mode, c, seed, scale):
    objective = spectral_objective(cutoff)
    with pytest.MonkeyPatch.context() as mp:
        def no_simplex(*args, **kwargs):
            raise AssertionError("spectral path started a simplex")

        mp.setattr("adiabatz.optimize._simplex", no_simplex)
        rep = optimize_coefficients(n_m, mode, objective, c)
        again = optimize_coefficients(n_m, mode, objective, c, seed=seed)
    assert rep.iterations == 0 and rep.converged and rep.rejected == 0
    # bitwise independent of the (unused) seed
    assert np.array_equal(rep.coefficients, again.coefficients)
    assert rep.objective_value == again.objective_value

    a = constraint_row(mode, n_m)
    assert a @ rep.coefficients == pytest.approx(c, abs=1e-12)
    value = _SpectralObjective(objective, mode, n_m)
    assert value(rep.coefficients) == rep.objective_value
    one_term = one_term_power(objective, mode, n_m, c)
    assert rep.objective_value <= one_term * (1.0 + 1e-12)
    floor = 1e-15 * one_term
    # feasible perturbations, both signs: any first-order descent direction
    # left at the returned point lowers the objective along one of them
    d = np.random.default_rng(seed).normal(size=n_m)
    d -= a * (a @ d) / (a @ a)
    d *= scale * c / np.linalg.norm(d)
    for delta in (d, -d):
        assert value(rep.coefficients + delta) >= rep.objective_value * (1.0 - 1e-12) - floor


@settings(max_examples=20, deadline=None)
@given(**closed_form_cases)
def test_closed_form_objective_falls_with_terms(cutoff, n_m, mode, c):
    objective = spectral_objective(cutoff)
    fewer = optimize_coefficients(n_m - 1, mode, objective, c).objective_value
    more = optimize_coefficients(n_m, mode, objective, c).objective_value
    assert more <= fewer * (1.0 + 1e-12) + 1e-15 * one_term_power(objective, mode, n_m, c)


def test_spectral_cutoff_must_fit_the_u_grid():
    for cutoff in (0.0, 395.0):
        with pytest.raises(ValueError, match="cutoff"):
            spectral_objective(cutoff)


def test_rejected_candidates_are_counted():
    # sweeping almost the whole (0, pi) range, the simplex steps on
    # candidates whose angle leaves it; each is scored 1.0 and counted
    theta_i, theta_f = 0.05, np.pi - 0.05
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_AT_TP, t_p_window=(4.0, 4.0),
        theta_i=theta_i, theta_f=theta_f,
    )
    rep = optimize_coefficients(
        3, BasisMode.DERIVATIVE, objective, theta_f - theta_i, max_iterations=10
    )
    assert rep.rejected >= 1
    assert rep.objective_value < 1.0


class Reached(Exception):
    pass


def test_unrounded_objectives_skip_the_lab_pipeline(monkeypatch):
    # unrounded exact objectives step in the constant-gap frame and never
    # build a lab trajectory; rounding acts on the lab h_z, so it still does
    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr("adiabatz.optimize.remapped_trajectory", reached)
    monkeypatch.setattr("adiabatz.optimize.evolve_two_level_direct", reached)
    theta_i, theta_f = 0.2, 0.55 * np.pi / 2
    window = (0.9 * np.pi, 1.15 * np.pi)
    rep = optimize_cz_pulse(theta_i, theta_f, 2, 0.0, t_p_window=window, max_iterations=10)
    assert rep.rejected == 0
    # the reported value is the optimum scored again at the default tolerance
    rescored = remapped_p_e(
        BasisMode.THETA, rep.coefficients[None], theta_i, np.linspace(*window, 9)
    )
    assert rep.objective_value == np.max(rescored.p_e)
    assert rep.step_error == np.max(rescored.step_error)
    with pytest.raises(Reached):
        optimize_cz_pulse(theta_i, theta_f, 2, 0.2, t_p_window=window, max_iterations=10)


def test_rounded_report_carries_the_lab_estimate():
    # one rounded candidate (n_m = 1: no search); the report holds the worst
    # lab P_e over the window and the largest lab step error estimate
    theta_i, theta_f = 0.1, 0.55 * np.pi / 2
    sigma, window = CZ_ROUNDING_SIGMA_PERIODS * np.pi, (1.85 * np.pi, 2.15 * np.pi)
    rep = optimize_cz_pulse(theta_i, theta_f, 1, sigma, t_p_window=window)
    w = theta_waveform(rep.coefficients, 1.0, theta_i, theta_f)
    results = [
        evolve_two_level_direct(
            convolve_trajectory(remapped_trajectory(w, t_p, n_samples=ROUNDED_SAMPLES), sigma)
        )
        for t_p in np.linspace(*window, 9)
    ]
    assert rep.objective_value == max(r.p_e for r in results)
    assert rep.step_error == max(r.step_error for r in results)


def exact_search_work(monkeypatch, seed):
    """Kernel work of the two benchmark searches (excursion window and single
    duration), rescore included: (grid steps, chains x steps) per call of
    the doubling loop, the candidates scored, and the chains x steps the
    two reports give."""
    counts = []
    doubling = dynamics._richardson

    def counting(run, *args):
        result = doubling(run, *args)
        counts.append((result[3], np.size(result[0]) * result[3]))
        return result

    monkeypatch.setattr(dynamics, "_richardson", counting)
    excursion = optimize_cz_pulse(0.1, 0.55 * np.pi / 2, 2, 0.0, seed=seed, max_iterations=10)
    theta_i, theta_f = math.atan2(1.0, 10.0), math.atan2(1.0, -10.0)
    t_p = 1.34 * np.pi
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_AT_TP, t_p_window=(t_p, t_p),
        theta_i=theta_i, theta_f=theta_f,
    )
    single = optimize_coefficients(
        2, BasisMode.DERIVATIVE, objective, theta_f - theta_i, seed=seed, max_iterations=20
    )
    reports = (excursion, single)
    return (
        np.array(counts), sum(r.evaluations for r in reports), sum(r.steps for r in reports)
    )


@pytest.mark.parametrize("seed", [0, 26])
def test_search_work_stays_at_half_the_fourth_order_kernel(monkeypatch, seed):
    # on a fourth-order step the constant-gap kernel took, at seed 0,
    # 30 023 grid steps and 780 804 chains x steps (32 124 and 879 655 at
    # seed 26); the bound is half its seed-0 totals
    counts, evaluations, reported = exact_search_work(monkeypatch, seed)
    steps, chain_steps = np.sum(counts, axis=0)
    assert evaluations > 100
    assert reported == chain_steps
    assert steps <= 15_000
    assert chain_steps <= 390_000


def test_restarts_share_kernel_calls(monkeypatch):
    # the lockstep restarts score each round's candidates in one batch
    counts, evaluations, _ = exact_search_work(monkeypatch, 0)
    assert 4 * len(counts) <= evaluations


# test functions for the simplex: smooth, kinked, quantized (ties and
# shrinks) and flat beyond a bowl (ties at 1.0, like rejected candidates)
SIMPLEX_FUNCTIONS = {
    "rosenbrock": lambda x: float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2) + (x[0] - 0.7) ** 2
    ),
    "kink": lambda x: float(np.sum(np.abs(x - 0.3))),
    "steps": lambda x: float(np.round(np.sum((x - 0.2) ** 2), 2)),
    "plateau": lambda x: min(1.0, float(np.sum((3.0 * x + 0.5) ** 2))),
}


@pytest.mark.parametrize("f", SIMPLEX_FUNCTIONS.values(), ids=SIMPLEX_FUNCTIONS.keys())
def test_simplex_is_scipys_nelder_mead(f):
    # bitwise scipy's result, with the searches of each case run in
    # lockstep.  Cap 1 cuts the initial simplex for n >= 2; "steps" and
    # "plateau" run out of budget inside shrinks (for n = 2 at cap 5 from
    # the zero start after one shrunk point, for n = 1 at cap 2 before any)
    for n in (1, 2, 3):
        starts = [np.zeros(n), np.full(n, 0.4), np.random.default_rng(n).normal(0.0, 1.0, n)]
        for cap in (1, 2, 5, 10, 20, 300):
            results = _lockstep(
                [_simplex(x0, cap) for x0 in starts], lambda z: np.array([f(x) for x in z])
            )
            for x0, (x, fun, nit, success) in zip(starts, results):
                ref = minimize(
                    f, x0, method="Nelder-Mead",
                    options=dict(xatol=1e-10, fatol=1e-14, maxiter=cap, maxfev=2 * cap),
                )
                assert np.array_equal(x, ref.x), (n, cap, x0)
                assert (fun, nit, success) == (ref.fun, ref.nit, ref.success), (n, cap, x0)


def test_masked_candidate_is_counted_once():
    # one candidate of the batch dips below theta = 0: it scores 1.0 and
    # counts once; the others score what they score without it
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(0.9 * np.pi, 1.15 * np.pi),
        theta_i=0.1, theta_f=0.6,
    )
    lams = np.array([[0.25, 0.0], [0.25, 0.05], [0.25, -0.2], [0.25, -0.05]])
    value = _ExactObjective(objective, BasisMode.THETA, 2)
    scores, errors = value.score(lams, STEP_ATOL, SEARCH_RTOL)
    assert (value.rejected, value.evaluations) == (1, 4)
    assert scores[2] == 1.0 and np.isnan(errors[2])
    alone, _ = _ExactObjective(objective, BasisMode.THETA, 2).score(
        np.delete(lams, 2, 0), STEP_ATOL, SEARCH_RTOL
    )
    assert np.array_equal(np.delete(scores, 2), alone)
    assert np.all(alone < 0.1)
    # reported, the masked candidate reads 1.0 with no step error
    rep = _ExactObjective(objective, BasisMode.THETA, 2).report(lams[2], 0, True)
    assert (rep.objective_value, rep.step_error, rep.rejected, rep.evaluations) == (
        1.0, None, 1, 1
    )


def test_term_profile_matches_quadrature():
    # dual route: the closed-form term profile against a direct Fourier
    # integral of the sampled term shape over unit duration
    t = np.linspace(0.0, 1.0, 32768)
    u = np.linspace(0.05, 7.95, 40)
    for mode, shape, tol in (
        (BasisMode.DERIVATIVE, lambda n: 1 - np.cos(2 * np.pi * n * t), 1e-12),
        (BasisMode.THETA, lambda n: 2 * np.pi * n * np.sin(2 * np.pi * n * t), 1e-5),
    ):
        for n in (1, 2, 3, 5):
            closed = np.abs(basis_transform(u, n, mode))
            numeric = np.abs(fourier_integral(t, shape(n), 2 * np.pi * u))
            assert closed == pytest.approx(numeric, abs=tol), (mode, n)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(kind=ObjectiveKind.INTEGRATED_PSD_ABOVE_CUTOFF)
    with pytest.raises(ValueError):
        Objective(
            kind=ObjectiveKind.INTEGRATED_PSD_ABOVE_CUTOFF,
            cutoff=2.3,
            convolution_sigma=0.1,
        )
    with pytest.raises(ValueError):
        Objective(kind=ObjectiveKind.EXACT_ERROR_AT_TP)
    with pytest.raises(ValueError):
        Objective(
            kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW,
            t_p_window=(2.0, 1.0),
            theta_i=0.1,
            theta_f=0.9,
        )
    with pytest.raises(ValueError):
        optimize_coefficients(0, BasisMode.DERIVATIVE, spectral_objective(), 1.0)
    for h_x in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="h_x"):
            Objective(
                kind=ObjectiveKind.EXACT_ERROR_AT_TP, t_p_window=(4.0, 4.0),
                theta_i=0.3, theta_f=2.2, h_x=h_x,
            )


def test_gaussian_kernel_mass():
    dt = 0.01
    kernel = gaussian_kernel(0.3, dt)
    assert len(kernel) % 2 == 1
    assert np.sum(kernel) * dt == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, dt)


def test_convolution_identity_and_dc_gain():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=200)
    assert np.array_equal(convolve_gaussian(vals, 0.0, 0.01), vals)
    out = convolve_gaussian(np.full(200, 2.5), 0.1, 0.01)
    half = (len(gaussian_kernel(0.1, 0.01)) - 1) // 2
    assert len(out) == 200 + 2 * half
    assert out == pytest.approx(np.full(len(out), 2.5), abs=1e-12)


def test_convolution_preserves_interior_ramp():
    # a symmetric unit-mass kernel leaves affine signals unchanged away
    # from the padded ends
    dt = 0.01
    vals = np.linspace(-1.0, 3.0, 400)
    out = convolve_gaussian(vals, 0.05, dt)
    half = (len(gaussian_kernel(0.05, dt)) - 1) // 2
    assert out[2 * half : 400] == pytest.approx(vals[half : 400 - half], abs=1e-10)


def test_convolve_trajectory_extends_and_smooths():
    w = derivative_waveform(np.array([1.0866, -0.0866]), 10.0, 0.4, 1.8)
    traj = sample_trajectory(w, 2048)
    out = convolve_trajectory(traj, 0.3)
    half = (len(gaussian_kernel(0.3, traj.dt)) - 1) // 2
    assert len(out.times) == len(traj.times) + 2 * half
    assert out.t_p == pytest.approx(traj.t_p + 2 * half * traj.dt, rel=1e-12)
    # positive unit-mass kernel: smoothed h_z stays inside the input range
    assert np.min(out.h_z) >= np.min(traj.h_z) - 1e-12
    assert np.max(out.h_z) <= np.max(traj.h_z) + 1e-12
    assert convolve_trajectory(traj, 0.0) is traj


def test_excursion_search_zero_width():
    rep = optimize_cz_pulse(0.3, 0.3, 2, 0.0)
    assert np.array_equal(rep.coefficients, np.zeros(2))
    assert rep.objective_value < 1e-14
    assert rep.converged
    # no search: the one candidate scored is the reported one
    assert (rep.evaluations, rep.rejected) == (1, 0)


def test_excursion_search_preconditions():
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.0, 0.5, 2, 0.0)
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.1, np.pi / 2, 2, 0.0)
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.6, 0.5, 2, 0.0)
    # refused before the crossing period pi / h_x is worked out
    for h_x in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="h_x"):
            optimize_cz_pulse(0.1, 0.5, 2, 0.0, h_x=h_x)
