import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from adiabatz import dynamics
from adiabatz import optimize as optimize_module
from adiabatz.dynamics import STEP_ATOL, evolve_two_level_direct, remapped_p_e
from adiabatz.geometry import omega_from_theta, theta_from_fields
from adiabatz.optimize import (
    EDGE_SOFTNESS,
    ROUNDED_SAMPLES,
    SEARCH_RTOL,
    U_MAX,
    Objective,
    ObjectiveKind,
    _band_basis,
    _ExactObjective,
    _lockstep,
    _simplex,
    basis_transform,
    convolve_trajectory,
    optimal_window,
    optimize_coefficients,
    optimize_cz_pulse,
)
from adiabatz.remap import remapped_trajectory
from adiabatz.spectral import fourier_integral
from adiabatz.waveform import (
    BasisMode,
    SampledTrajectory,
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


def test_window_coefficient_rows():
    for n_m, expected in REFERENCE_ROWS.items():
        lam, _ = optimal_window(n_m, CUTOFF)
        assert lam == pytest.approx(np.array(expected), abs=1e-4)


def band_power(lam, cutoff):
    # w @ (B lam)^2 on the band grid's quadrature
    basis, weighted = _band_basis(len(lam), cutoff)
    amp = basis @ lam
    return float(weighted @ (amp * amp))


def test_single_term_is_fully_constrained():
    lam, power = optimal_window(1, CUTOFF)
    assert np.array_equal(lam, [1.0])
    assert power == band_power(np.array([1.0]), CUTOFF)


def test_two_terms_beat_one():
    _, one = optimal_window(1, CUTOFF)
    _, two = optimal_window(2, CUTOFF)
    assert two < one


def test_constraint_enforced_exactly():
    # lambda_1 = 1 - sum of the free terms: the window sums to 1 to rounding
    for n_m in range(1, 17):
        lam, _ = optimal_window(n_m, CUTOFF)
        assert abs(lam.sum() - 1.0) <= 1e-15


def test_bitwise_reproducibility(monkeypatch):
    # the starts are fixed: no random draw, and the seed changes nothing
    def no_rng(*args, **kwargs):
        raise AssertionError("the search drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(4.0, 4.0),
        theta_i=0.3, theta_f=2.2,
    )
    a, b = (
        optimize_coefficients(3, BasisMode.DERIVATIVE, objective, 1.9, seed=seed, max_iterations=15)
        for seed in (3, 4)
    )
    assert a.iterations > 0
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.objective_value == b.objective_value and a.step_error == b.step_error
    assert a.iterations == b.iterations and a.rejected == b.rejected
    assert (a.evaluations, a.steps) == (b.evaluations, b.steps)


SPOKE = 0.25 * 0.7  # a quarter of the constraint value


@pytest.mark.parametrize("n_m, rows, starts", [
    (2, 6, [[0.0], [-SPOKE], [SPOKE]]),
    (3, 15, [[0.0, 0.0], [-SPOKE, 0.0], [SPOKE, 0.0], [0.0, -SPOKE], [0.0, SPOKE]]),
])
def test_search_starts_are_the_flat_start_and_its_spokes(monkeypatch, n_m, rows, starts):
    # the first kernel call scores the initial simplex (n_m points) of each
    # start: the flat start and the +-spokes of the first two free
    # coordinates (16 and 24 rows with the eight seeded starts)
    calls = []
    kernel = optimize_module.remapped_p_e

    def counting(mode, lams, *args):
        calls.append(lams.copy())
        return kernel(mode, lams, *args)

    monkeypatch.setattr(optimize_module, "remapped_p_e", counting)
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(np.pi, np.pi),
        theta_i=0.1, theta_f=0.8,
    )
    optimize_coefficients(n_m, BasisMode.THETA, objective, 0.7, max_iterations=5)
    assert calls[0].shape == (rows, n_m)
    # the first point of each initial simplex is its start
    assert np.array_equal(calls[0][::n_m, 1:], starts)


def test_max_iterations_must_be_a_positive_integer(monkeypatch):
    # 0 returned the flat start with iterations 8, -3 failed inside the
    # kernel on its coefficient matrix, and 2.5 was accepted
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(np.pi, np.pi),
        theta_i=0.1, theta_f=0.8,
    )
    monkeypatch.setattr(optimize_module._ExactObjective, "score", None)  # scores nothing
    for cap in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_iterations"):
            optimize_coefficients(2, BasisMode.THETA, objective, 0.7, max_iterations=cap)


@pytest.mark.parametrize("sigma", [0.0, 0.1 * np.pi], ids=["unrounded", "rounded"])
def test_exact_search_refuses_a_constraint_off_its_endpoints(monkeypatch, sigma):
    # twice the excursion used to pass: unrounded, the search returned a
    # pulse out to theta_i + 2 * 0.764 and scored it; rounded, the first
    # candidate raised "endpoint constraint violated" from inside the search
    theta_i, theta_f = 0.1, 0.55 * np.pi / 2
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(np.pi, np.pi),
        convolution_sigma=sigma, theta_i=theta_i, theta_f=theta_f,
    )
    monkeypatch.setattr(optimize_module._ExactObjective, "score", None)  # scores nothing
    for c in (2.0 * (theta_f - theta_i), theta_f - theta_i + 1e-9, np.nan):
        for n_m in (1, 2):
            with pytest.raises(ValueError, match="constraint_value"):
                optimize_coefficients(n_m, BasisMode.THETA, objective, c, max_iterations=3)


def test_constraint_value_must_be_finite():
    # the exact search's endpoint check refuses a constraint that is not
    # finite
    exact = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(np.pi, np.pi),
        theta_i=0.1, theta_f=0.8,
    )
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="constraint_value"):
            optimize_coefficients(2, BasisMode.DERIVATIVE, exact, c)


# band edges from near zero to 40 cycles (past 2 n_m for every n_m drawn):
# far above the edge every basis term falls like n^2/u^3 and B nears rank 1
closed_form_cases = dict(cutoff=st.floats(0.05, 40.0), n_m=st.integers(2, 16))


def one_term_power(cutoff, n_m):
    # band power of the one-term window (free coefficients 0); the quadrature
    # rounds at this scale, not at that of the optimum, which at high
    # cutoffs lies 20 orders of magnitude below it
    lam = np.zeros(n_m)
    lam[0] = 1.0
    return band_power(lam, cutoff)


@settings(max_examples=40, deadline=None)
@given(**closed_form_cases, seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-4, 1e-2, 1.0]))
def test_closed_form_is_the_constrained_minimum(cutoff, n_m, seed, scale):
    with pytest.MonkeyPatch.context() as mp:
        def no_simplex(*args, **kwargs):
            raise AssertionError("spectral path started a simplex")

        mp.setattr("adiabatz.optimize._simplex", no_simplex)
        lam, power = optimal_window(n_m, cutoff)

    assert abs(lam.sum() - 1.0) <= 1e-15
    assert band_power(lam, cutoff) == power
    one_term = one_term_power(cutoff, n_m)
    assert power <= one_term * (1.0 + 1e-12)
    floor = 1e-15 * one_term
    # feasible perturbations (summing to 0), both signs: any first-order
    # descent direction left at the returned point lowers the objective
    # along one of them
    d = np.random.default_rng(seed).normal(size=n_m)
    d -= d.mean()
    d *= scale / np.linalg.norm(d)
    for delta in (d, -d):
        assert band_power(lam + delta, cutoff) >= power * (1.0 - 1e-12) - floor


@settings(max_examples=20, deadline=None)
@given(**closed_form_cases)
def test_closed_form_objective_falls_with_terms(cutoff, n_m):
    _, fewer = optimal_window(n_m - 1, cutoff)
    _, more = optimal_window(n_m, cutoff)
    assert more <= fewer * (1.0 + 1e-12) + 1e-15 * one_term_power(cutoff, n_m)


def test_spectral_cutoff_must_fit_the_u_grid():
    # the u grid runs from 5 cycles past the band edge up to U_MAX
    for cutoff in (0.0, -1.0, U_MAX - 5.0, U_MAX, np.nan, np.inf):
        with pytest.raises(ValueError, match="cutoff"):
            optimal_window(2, cutoff)


def test_rejected_candidates_are_counted():
    # sweeping almost the whole (0, pi) range, the simplex steps on
    # candidates whose angle leaves it; each is scored 1.0 and counted
    theta_i, theta_f = 0.05, np.pi - 0.05
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(4.0, 4.0),
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
    sigma, window = 0.1 * np.pi, (1.85 * np.pi, 2.15 * np.pi)
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


def single_duration_search(kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, seed=0):
    """The benchmark's single-duration derivative search: a (t, t) window at
    1.34 T_x through an avoided crossing, 20 iterations.  seed goes to the
    keyword optimize_coefficients keeps, and never reads, for old callers."""
    theta_i, theta_f = math.atan2(1.0, 10.0), math.atan2(1.0, -10.0)
    t_p = 1.34 * np.pi
    objective = Objective(kind=kind, t_p_window=(t_p, t_p), theta_i=theta_i, theta_f=theta_f)
    return optimize_coefficients(
        2, BasisMode.DERIVATIVE, objective, theta_f - theta_i, seed=seed, max_iterations=20
    )


def test_single_duration_kind_is_the_degenerate_window():
    # EXACT_ERROR_AT_TP, which the benchmark names, is an alias of the window
    # kind; a (t, t) window scores its one duration, not nine copies of it
    assert ObjectiveKind.EXACT_ERROR_AT_TP is ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW
    assert len(list(ObjectiveKind)) == 1
    window = single_duration_search()
    alias = single_duration_search(ObjectiveKind.EXACT_ERROR_AT_TP)
    assert np.array_equal(window.coefficients, alias.coefficients)
    for field in ("objective_value", "iterations", "converged", "evaluations", "rejected",
                  "steps", "step_error"):
        assert getattr(window, field) == getattr(alias, field), field
    lam = window.coefficients[None]
    one = remapped_p_e(BasisMode.DERIVATIVE, lam, math.atan2(1.0, 10.0), np.array([1.34 * np.pi]))
    assert window.objective_value == one.p_e[0, 0]


def test_rounded_degenerate_window_steps_one_duration():
    # a rounded (t, t) excursion (n_m = 1: no search) propagates one lab
    # trajectory, not nine
    theta_i, theta_f, t_p = 0.1, 0.8, 2.0 * np.pi
    sigma = 0.1 * np.pi
    rep = optimize_cz_pulse(theta_i, theta_f, 1, sigma, t_p_window=(t_p, t_p))
    w = theta_waveform(rep.coefficients, 1.0, theta_i, theta_f)
    lab = remapped_trajectory(w, t_p, n_samples=ROUNDED_SAMPLES)
    result = evolve_two_level_direct(convolve_trajectory(lab, sigma))
    assert (rep.evaluations, rep.steps) == (1, result.steps)
    assert (rep.objective_value, rep.step_error) == (result.p_e, result.step_error)


def exact_search_work(monkeypatch, seed=0):
    """Kernel work of the two benchmark searches (excursion window and single
    duration, the latter passed seed), rescore included: (grid steps,
    chains x steps) per call of the doubling loop, the candidates scored,
    and the chains x steps the two reports give."""
    counts = []
    doubling = dynamics._richardson

    def counting(run, *args):
        result = doubling(run, *args)
        counts.append((result[3], np.size(result[0]) * result[3]))
        return result

    monkeypatch.setattr(dynamics, "_richardson", counting)
    excursion = optimize_cz_pulse(0.1, 0.55 * np.pi / 2, 2, 0.0, max_iterations=10)
    single = single_duration_search(seed=seed)
    reports = (excursion, single)
    return (
        np.array(counts), sum(r.evaluations for r in reports), sum(r.steps for r in reports)
    )


@pytest.mark.parametrize("seed", [0, 26])
def test_search_work_stays_at_half_the_fourth_order_kernel(monkeypatch, seed):
    # on a fourth-order step the constant-gap kernel took, with eight
    # seeded starts, 30 023 grid steps and 780 804 chains x steps at seed 0
    # (32 124 and 879 655 at seed 26); the bound is half the seed-0 totals.
    # The three fixed starts of each search score 182 candidates (482 with
    # eight), whatever seed a caller still passes
    counts, evaluations, reported = exact_search_work(monkeypatch, seed)
    steps, chain_steps = np.sum(counts, axis=0)
    assert 100 < evaluations <= 200
    assert reported == chain_steps
    assert steps <= 15_000
    assert chain_steps <= 390_000


@pytest.mark.parametrize("seed", [0, 26])
def test_search_work_chains_half_of_each_mirror_symmetric_grid(monkeypatch, seed):
    # both searches score mirror-symmetric pulses (a theta-basis excursion,
    # a sweep from theta_i to pi - theta_i), so the kernel chains the first
    # half of each grid: with eight starts the full chains took 12 108 grid
    # steps and 359 297 chains x steps, the half chains 6065 and 180 061;
    # the three fixed starts take 6065 and 68 626 at either seed
    counts, evaluations, reported = exact_search_work(monkeypatch, seed)
    steps, chain_steps = np.sum(counts, axis=0)
    assert 100 < evaluations <= 200
    assert reported == chain_steps
    assert steps <= 6_500
    assert chain_steps <= 75_000


def test_restarts_share_kernel_calls(monkeypatch):
    # the lockstep searches score each round's candidates in one batch: each
    # search call (all but the two rescores) scores at least one candidate
    # of each of the three starts
    counts, evaluations, _ = exact_search_work(monkeypatch)
    assert 3 * (len(counts) - 2) <= evaluations - 2


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
    value = _ExactObjective(objective, BasisMode.THETA)
    scores, errors = value.score(lams, STEP_ATOL, SEARCH_RTOL)
    assert (value.rejected, value.evaluations) == (1, 4)
    assert scores[2] == 1.0 and np.isnan(errors[2])
    alone, _ = _ExactObjective(objective, BasisMode.THETA).score(
        np.delete(lams, 2, 0), STEP_ATOL, SEARCH_RTOL
    )
    assert np.array_equal(np.delete(scores, 2), alone)
    assert np.all(alone < 0.1)
    # reported, the masked candidate reads 1.0 with no step error
    rep = _ExactObjective(objective, BasisMode.THETA).report(lams[2], 0, True)
    assert (rep.objective_value, rep.step_error, rep.rejected, rep.evaluations) == (
        1.0, None, 1, 1
    )


def test_rounded_score_remaps_each_candidate_once(monkeypatch):
    # the window's nine durations stretch one unit-duration remap
    calls = []
    remap = optimize_module.remapped_trajectory

    def counting(*args, **kwargs):
        calls.append(args[1])
        return remap(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "remapped_trajectory", counting)
    objective = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(1.85 * np.pi, 2.15 * np.pi),
        convolution_sigma=0.1 * np.pi, theta_i=0.1, theta_f=0.6,
    )
    value = _ExactObjective(objective, BasisMode.THETA)
    scores, _ = value.score(np.array([[0.25, -0.05]]), STEP_ATOL, SEARCH_RTOL)
    assert calls == [1.0]
    assert value.rejected == 0 and 0.0 < scores[0] < 1.0


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


@settings(max_examples=60, deadline=None)
@given(n_m=st.integers(1, 40), u=st.lists(st.floats(-60.0, 60.0), max_size=20),
       mode=st.sampled_from(BasisMode))
def test_array_of_terms_has_the_bits_of_one_call_per_term(n_m, u, mode):
    # zero and every resonance u = +-n, where the sincs take their 0/0 branch
    n = np.arange(1, n_m + 1)
    grid = np.concatenate([[0.0], n, -n, u])
    table = basis_transform(grid[:, None], n, mode)
    assert table.shape == (len(grid), n_m)
    for k in range(1, n_m + 1):
        assert table[:, k - 1].tobytes() == basis_transform(grid, k, mode).tobytes()


@pytest.mark.parametrize("cutoff, largest", [(2.3, 99), (0.5, 92)])
def test_largest_accepted_term_count_resolves_its_band_power(cutoff, largest):
    # the band power of the largest n_m the grid takes is the band power on
    # a grid of 200 points a cycle; past it the solve used to play aliased
    # sinc lobes off each other (n_m = 260 at cutoff 2.3 reported 3.4e-5
    # against 1.7e4), and now the next n_m is refused
    lam, power = optimal_window(largest, cutoff)
    u = np.arange(0.0, U_MAX + 0.0025, 0.005)
    amp = sum(c * basis_transform(u, n, BasisMode.DERIVATIVE) for n, c in enumerate(lam, 1))
    edge = 1.0 / (1.0 + np.exp(-(u - cutoff) / EDGE_SOFTNESS))
    fine = np.trapezoid(edge * amp * amp, u)
    assert abs(power - fine) <= 1e-3 * fine
    with pytest.raises(ValueError, match=f"^n_m must be <= {largest} at cutoff {cutoff}: "):
        optimal_window(largest + 1, cutoff)


def test_objective_validation():
    # the window and the endpoint angles are required fields
    with pytest.raises(TypeError):
        Objective(kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW)
    with pytest.raises(ValueError):
        Objective(
            kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW,
            t_p_window=(2.0, 1.0),
            theta_i=0.1,
            theta_f=0.9,
        )
    for n_m in (0, -1):
        with pytest.raises(ValueError, match="n_m must be >= 1"):
            optimal_window(n_m, CUTOFF)
    exact = Objective(
        kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(4.0, 4.0),
        theta_i=0.3, theta_f=2.2,
    )
    with pytest.raises(ValueError, match="n_m must be >= 1"):
        optimize_coefficients(0, BasisMode.DERIVATIVE, exact, 1.9)
    # a non-finite rounding width or window is refused, not scored 1.0 per
    # candidate or left to fail inside the kernel
    for sigma in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="convolution_sigma"):
            Objective(
                kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=(4.0, 4.0),
                theta_i=0.3, theta_f=2.2, convolution_sigma=sigma,
            )
    for window in ((3.0, np.inf), (np.nan, 4.0), (3.0, np.nan), (np.inf, np.inf), (0.0, 1.0)):
        with pytest.raises(ValueError, match="window"):
            Objective(
                kind=ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, t_p_window=window,
                theta_i=0.3, theta_f=2.2,
            )


def trajectory_of(h_z, dt, h_x=1.0):
    """The trajectory whose lab control is h_z on the dt grid."""
    h_z = np.asarray(h_z, dtype=float)
    theta = theta_from_fields(h_z, h_x)
    return SampledTrajectory(
        times=np.arange(len(h_z)) * dt, theta=theta, dtheta_dt=np.gradient(theta, dt),
        h_z=h_z, omega=omega_from_theta(theta, h_x), h_x=h_x,
    )


def test_gaussian_kernel_mass():
    # an impulse comes out as the kernel times dt: 2 half + 1 samples,
    # symmetric about the impulse, with unit sum
    dt, sigma = 0.01, 0.3
    half = math.ceil(5 * sigma / dt)
    h_z = np.zeros(201)
    h_z[100] = 1.0
    out = convolve_trajectory(trajectory_of(h_z, dt), sigma).h_z
    response = out[100 : 100 + 2 * half + 1]
    assert np.sum(response) == pytest.approx(1.0, abs=1e-12)
    assert response == pytest.approx(response[::-1], abs=1e-15)
    assert np.max(np.abs(np.delete(out, np.s_[100 : 100 + 2 * half + 1]))) < 1e-15


def test_convolution_identity_and_dc_gain():
    rng = np.random.default_rng(5)
    traj = trajectory_of(rng.normal(size=200), 0.01)
    assert convolve_trajectory(traj, 0.0) is traj
    out = convolve_trajectory(trajectory_of(np.full(200, 2.5), 0.01), 0.1).h_z
    half = math.ceil(5 * 0.1 / 0.01)
    assert len(out) == 200 + 2 * half
    assert out == pytest.approx(np.full(len(out), 2.5), abs=1e-12)


def test_convolution_preserves_interior_ramp():
    # a symmetric unit-mass kernel leaves affine signals unchanged away
    # from the padded ends
    dt = 0.01
    vals = np.linspace(-1.0, 3.0, 400)
    out = convolve_trajectory(trajectory_of(vals, dt), 0.05).h_z
    half = math.ceil(5 * 0.05 / dt)
    assert out[2 * half : 400] == pytest.approx(vals[half : 400 - half], abs=1e-10)


@pytest.mark.parametrize("ramp", [False, True])
@pytest.mark.parametrize("n, sigma, dt", [(200, 0.1, 0.01), (2048, 0.1 * np.pi, 0.003), (3, 0.05, 0.04)])
def test_fft_rounding_is_the_direct_convolution(ramp, n, sigma, dt):
    # the FFT gives np.convolve's "valid" part of the endpoint-continued
    # signal, at the same length, to rounding
    rng = np.random.default_rng(n)
    vals = np.linspace(-10.0, 10.0, n) if ramp else rng.uniform(-10.0, 10.0, n)
    half = math.ceil(5 * sigma / dt)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * dt / sigma) ** 2)
    padded = np.concatenate([np.full(2 * half, vals[0]), vals, np.full(2 * half, vals[-1])])
    direct = np.convolve(padded, kernel / kernel.sum(), mode="valid")
    out = convolve_trajectory(trajectory_of(vals, dt), sigma).h_z
    assert len(out) == len(direct) == n + 2 * half
    assert np.max(np.abs(out - direct)) <= 1e-13 * np.max(np.abs(vals))


def test_rounding_width_must_be_finite_and_non_negative():
    traj = trajectory_of(np.linspace(-1.0, 1.0, 50), 0.01)
    for sigma in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="sigma"):
            convolve_trajectory(traj, sigma)


def test_rounding_past_the_step_cap_is_refused_before_any_array(monkeypatch):
    # the propagator takes at least one step a sample, n + 2 half - 1 in
    # all; a width of 1e5 T_x on the rounded grid asked np.arange for 8 GiB
    n, dt = ROUNDED_SAMPLES, 0.003
    traj = trajectory_of(np.linspace(-1.0, 1.0, n), dt)

    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(np, "arange", build)
    monkeypatch.setattr(np.fft, "rfft", build)
    half = (dynamics._MAX_STEPS + 1 - n) // 2  # the widest kernel under the cap
    with pytest.raises(Built):
        convolve_trajectory(traj, (half - 0.5) * dt / 5.0)
    # past it, and where 5 sigma / dt overflows a float
    for sigma in ((half + 0.5) * dt / 5.0, 1e5 * np.pi, 1e307):
        with pytest.raises(ValueError, match="exceeds the step cap"):
            convolve_trajectory(traj, sigma)


def test_convolve_trajectory_extends_and_smooths():
    w = derivative_waveform(np.array([1.0866, -0.0866]), 10.0, 0.4, 1.8)
    traj = sample_trajectory(w, 2048)
    out = convolve_trajectory(traj, 0.3)
    half = math.ceil(5 * 0.3 / traj.dt)
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


def test_a_zero_constraint_needs_no_search():
    # theta_f = theta_i: the flat shape leaves no excitation, and the simplex
    # took 81 evaluations and 32 iterations to come back to it
    objective = Objective(ObjectiveKind.EXACT_ERROR_MAX_OVER_WINDOW, (np.pi, np.pi), 0.5, 0.5)
    rep = optimize_coefficients(3, BasisMode.DERIVATIVE, objective, 0.0, max_iterations=5)
    assert np.array_equal(rep.coefficients, np.zeros(3))
    assert (rep.evaluations, rep.iterations, rep.rejected, rep.converged) == (1, 0, 0, True)
    flat = remapped_p_e(BasisMode.DERIVATIVE, np.zeros((1, 3)), 0.5, [np.pi])
    assert rep.objective_value == flat.p_e[0, 0] < 1e-30
    assert rep.step_error == flat.step_error[0, 0]


def test_excursion_search_preconditions():
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.0, 0.5, 2, 0.0)
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.1, np.pi / 2, 2, 0.0)
    with pytest.raises(ValueError):
        optimize_cz_pulse(0.6, 0.5, 2, 0.0)
    with pytest.raises(ValueError, match="convolution_sigma"):
        optimize_cz_pulse(0.1, 0.8, 1, float("nan"))
    # an empty basis, also where no excursion takes the shortcut past the
    # search: zero terms raised IndexError there, -1 numpy's "negative
    # dimensions are not allowed"
    for theta_f in (0.1, 0.8):
        for n_coeffs in (0, -1):
            with pytest.raises(ValueError, match="^n_m must be >= 1$"):
                optimize_cz_pulse(0.1, theta_f, n_coeffs, 0.0)
