"""The four benchmark workloads: inputs drawn from the seed, jobs, checks.

A workload is a fixed list of jobs built from the seed; adiabatz only ever
sees the generated inputs.  Each job calls the public API (the CLI in-process
where the work is a CLI experiment), checks what came back, and raises
``CheckFailed`` when an answer is wrong.  Continuous inputs are drawn by
stratified sampling, so a different seed moves every input but keeps the
mix, and with it the cost of a pass, nearly the same.

Why each workload exists, and which layer metric should move which
end-to-end metric, is in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from adiabatz import (
    adiabatic_error,
    cli,
    dynamics,
    optimize,
    remap,
    spectral,
    three_level,
    waveform,
)

T_X = math.pi  # crossing period at h_x = 1
# full sweep across the crossing, h_z from +10 h_x to -10 h_x
THETA_I = math.atan2(1.0, 10.0)
THETA_F = math.atan2(1.0, -10.0)
# criterion 01: leading coefficients of the optimal windows at 2.3 cycles
TABLE1 = {
    2: ([1.0866, -0.0866], 0.005),
    4: ([1.0751, -0.0811, 0.0017, 0.0044], 0.01),
    10: ([1.0333, -0.0628, 0.0041, 0.0051, 0.0044, 0.0038, 0.0034], 0.01),
}
# criterion 09 drag sweep; 112 steps per propagation instead of the automatic
# ~1760 keep one pass near 14 s and reproduce the full-resolution pattern:
# the D = 0 simplex stalls (~6400 propagations), D = -0.48 and -1.2 do not
DRAG_D = (0.0, -0.48, -1.2)
DRAG_DELTA = -2.0 * math.pi
DRAG_T_P = 2.5
DRAG_STEPS = 112


class CheckFailed(Exception):
    """A job returned an answer that is wrong."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclasses.dataclass
class Job:
    kind: str
    run: Callable[["PassContext"], None]
    uses_cli: bool = False


@dataclasses.dataclass
class Workload:
    jobs: list
    warmup: Callable[[Path], None]


class PassContext:
    """What the jobs of one pass share: an output directory for CLI runs,
    results handed from one job to a later one, and the data-file bytes of
    every CLI config seen so far in the run (shared across passes)."""

    def __init__(self, out_dir: Path, cli_bytes: dict):
        self.out_dir = out_dir
        self.cli_bytes = cli_bytes
        self.shared = {}

    def run_cli(self, key, experiment, params, seed=0):
        """One in-process CLI run; its data file must repeat byte for byte."""
        raw = json.dumps(params, sort_keys=True).encode()
        config = cli.RunConfig(
            experiment=experiment,
            parameters=params,
            output_dir=self.out_dir / key,
            format="csv",
            seed=seed,
            config_sha256=hashlib.sha256(raw).hexdigest(),
        )
        data_path = cli.run(config)[0]
        data = data_path.read_bytes()
        seen = self.cli_bytes.setdefault(key, [data, 0])
        check(seen[0] == data, f"{experiment} data file differs between runs of one config")
        seen[1] += 1
        return cli.load_table(data_path)


def _strata(rng, lo, hi, n):
    """n values in [lo, hi], one uniform draw from each of n equal strata."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _column(columns, data, name):
    return data[:, columns.index(name)]


def _finite_probability(p, what):
    check(math.isfinite(p) and -1e-12 <= p <= 1.0 + 1e-12, f"{what}: P_e = {p!r}")


# ------------------------------------------------------------- linear_design


def linear_design(seed: int, small: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    cutoffs = _strata(rng, 1.8, 3.0, 1 if small else 3)
    lam2 = float(_strata(rng, -0.1, -0.07, 1)[0])
    t_lo = float(_strata(rng, 0.7, 0.9, 1)[0])
    t_hi = float(_strata(rng, 1.4, 1.6, 1)[0])

    def table1(ctx):
        n_m_list = [2, 4] if small else [2, 4, 10]
        columns, data = ctx.run_cli(
            "table1", "table1", {"n_m_list": n_m_list, "cutoff_cycles": 2.3}
        )
        rows = []
        for row, n_m in zip(data, n_m_list):
            lam = row[columns.index("lambda_1"):][:n_m]
            expected, tol = TABLE1[n_m]
            check(abs(lam.sum() - 1.0) < 1e-12, f"table1 n_m={n_m}: sum {lam.sum()!r}")
            check(np.all(np.abs(lam[: len(expected)] - expected) <= tol),
                  f"table1 n_m={n_m}: {lam[:len(expected)]} vs {expected}")
            rows.append(lam.tolist())
        ctx.shared["table1"] = rows

    def table1_at(cutoff):
        def job(ctx):
            columns, data = ctx.run_cli(
                f"table1_{cutoff:.6f}", "table1",
                {"n_m_list": [1, 2, 3, 4], "cutoff_cycles": float(cutoff)},
            )
            lam = data[:, columns.index("lambda_1"):]
            check(np.all(np.abs(np.nansum(lam, axis=1) - 1.0) < 1e-12),
                  f"table1 at {cutoff}: coefficients do not sum to 1")
            # each added term can only lower the out-of-band power
            obj = _column(columns, data, "objective_rad2")
            check(np.all(np.isfinite(obj)) and np.all(obj > 0), f"table1 at {cutoff}: {obj}")
            check(np.all(np.diff(obj) <= 1e-9 * obj[:-1]),
                  f"table1 at {cutoff}: objective rises with n_m: {obj}")
        return job

    def psd_windows(ctx):
        rows = ctx.shared["table1"]
        labels = [f"nm{len(r)}" for r in rows]
        columns, data = ctx.run_cli(
            "psd_windows", "psd-windows",
            {"coefficients_lambda": rows, "labels": labels, "n_points": 400},
        )
        u = _column(columns, data, "u_cycles")
        check(np.array_equal(_column(columns, data, "psd_rect_rad2"), np.sinc(u) ** 2),
              "psd-windows: rectangular reference is not sinc^2")
        # the CLI uses the closed-form basis transforms; quadrature of the
        # sampled drive is an independent route to the same spectrum
        t = np.linspace(0.0, 1.0, 4096)
        for label, lam in zip(labels, rows):
            n = np.arange(1, len(lam) + 1)
            drive = (1.0 - np.cos(2.0 * np.pi * np.outer(t, n))) @ np.asarray(lam)
            direct = spectral.psd(t, drive, 2.0 * np.pi * u).values
            got = _column(columns, data, f"psd_{label}_rad2")
            check(np.all(np.abs(got - direct) <= 1e-8 * direct + 1e-12),
                  f"psd-windows {label}: closed form and quadrature disagree")

    # criterion 02 grid: zeros excluded, there is no relative scale there
    u02 = np.linspace(0.1, 10.0, 397)
    u02 = u02[np.abs(u02 - np.round(u02)) > 0.03]

    def psd_closed_form(kind, n):
        def job(ctx):
            t = np.linspace(0.0, 1.0, n)
            if kind == "rect":
                values = waveform.rectangular_window(n)
                expected = np.sinc(u02) ** 2
            else:
                values = waveform.hanning_window(n)
                expected = np.sinc(u02) ** 2 / (1.0 - u02**2) ** 2
            got = spectral.psd(t, values, 2.0 * np.pi * u02).values
            check(np.all(np.abs(got - expected) <= 1e-6 * expected),
                  f"psd {kind} n={n}: off the closed form by more than 1e-6")
        return job

    lam = [1.0 - lam2, lam2]

    def error_curve(ctx):
        params = {
            "window": "fourier", "basis": "derivative", "coefficients_lambda": lam,
            "theta_i_rad": THETA_I, "theta_f_rad": THETA_F, "remap": True,
            "evaluator": "linearized", "t_p_min_over_Tx": t_lo,
            "t_p_max_over_Tx": t_hi, "n_points": 60, "n_samples": 2048,
        }
        columns, data = ctx.run_cli("error_curve", "error-curve", params)
        t_p = _column(columns, data, "t_p_time")
        p_e = _column(columns, data, "p_e_linearized")
        check(np.all(np.isfinite(p_e)), "error-curve: failed points")
        # remapped, the linearized error is the constant-gap one: a quarter
        # of the drive spectrum at omega_x = 2 over the frame duration
        u = np.linspace(0.0, 1.0, 2048)
        w = waveform.derivative_waveform(lam, 1.0, THETA_I, THETA_F)
        theta, _ = waveform.eval_fourier(w, u)
        tau_p = t_p / np.trapezoid(np.sin(theta), u)
        cycles = tau_p / math.pi
        profile = sum(c * optimize.basis_transform(cycles, n, waveform.BasisMode.DERIVATIVE)
                      for n, c in enumerate(lam, start=1))
        closed = (THETA_F - THETA_I) ** 2 / 4.0 * profile**2
        check(np.all(np.abs(p_e - closed) <= 2e-4 * closed.max()),
              "error-curve: linearized remapped error off the closed form")

    jobs = [Job("table1", table1, True)]
    jobs += [Job("table1_cutoff", table1_at(c), True) for c in cutoffs]
    jobs += [
        Job("psd_windows", psd_windows, True),
        Job("psd_rect", psd_closed_form("rect", 32768)),
        Job("psd_hann", psd_closed_form("hann", 1024)),
        Job("error_curve", error_curve, True),
    ]

    def warmup(out_dir):
        ctx = PassContext(out_dir, {})
        ctx.run_cli("warmup", "table1", {"n_m_list": [2], "cutoff_cycles": 2.3})
        spectral.psd(np.linspace(0.0, 1.0, 64), np.ones(64), np.array([1.0]))

    return Workload(jobs, warmup)


# ------------------------------------------------------------ exact_dynamics


def _ramp(span, rate, n_samples=4097):
    """Linear h_z sweep from +span to -span at the given rate, h_x = 1."""
    t_p = 2.0 * span / rate
    t = np.linspace(0.0, t_p, n_samples)
    h_z = span - rate * t
    return waveform.SampledTrajectory(
        times=t,
        theta=np.arctan2(1.0, h_z),
        dtheta_dt=rate / (1.0 + h_z**2),
        h_z=h_z,
        omega=2.0 * np.sqrt(1.0 + h_z**2),
        h_x=1.0,
    )


def _check_evolution(result, what):
    _finite_probability(result.p_e, what)
    alpha, beta = result.final_state.amplitudes
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    check(abs(norm - 1.0) <= 1e-9 and result.norm_drift <= 1e-9,
          f"{what}: norm {norm!r}, drift {result.norm_drift!r}")


def _check_endpoints(traj, t_p, theta_i, theta_f, what):
    check(abs(traj.t_p - t_p) <= 1e-9 * t_p, f"{what}: duration {traj.t_p} != {t_p}")
    check(abs(traj.theta[0] - theta_i) <= 1e-9 and abs(traj.theta[-1] - theta_f) <= 1e-9,
          f"{what}: endpoints {traj.theta[0]}, {traj.theta[-1]}")


def exact_dynamics(seed: int, small: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    scale = 10 if small else 1
    n_remap, n_round, n_sample, n_ramp = (50 // scale, 40 // scale, 30 // scale, 30 // scale)

    def sweep(lam2):
        return waveform.derivative_waveform([1.0 - lam2, lam2], 1.0, THETA_I, THETA_F)

    def remapped_job(t_p, lam2, with_ode):
        def job(ctx):
            traj = remap.remapped_trajectory(sweep(lam2), t_p, n_samples=2048)
            _check_endpoints(traj, t_p, THETA_I, THETA_F, "remapped")
            _run_propagators(traj, with_ode, "remapped")
        return job

    def rounded_job(t_p, lam2, sigma):
        def job(ctx):
            traj = remap.remapped_trajectory(sweep(lam2), t_p, n_samples=2048)
            rounded = optimize.convolve_trajectory(traj, sigma)
            # endpoint continuation keeps the far-field value; the pulse
            # grows by the kernel support on both sides
            half = math.ceil(5.0 * sigma / traj.dt)
            check(len(rounded.times) == len(traj.times) + 2 * half,
                  "rounded: unexpected length")
            check(abs(rounded.h_z[0] - 10.0) < 1e-9 and abs(rounded.h_z[-1] + 10.0) < 1e-9,
                  f"rounded: end fields {rounded.h_z[0]}, {rounded.h_z[-1]}")
            _run_propagators(rounded, False, "rounded")
        return job

    def sampled_job(t_p, lam2, with_ode):
        def job(ctx):
            traj = waveform.sample_trajectory(sweep(lam2).with_t_p(t_p), 2048)
            _check_endpoints(traj, t_p, THETA_I, THETA_F, "sampled")
            _run_propagators(traj, with_ode, "sampled")
        return job

    def ramp_job(rate):
        def job(ctx):
            result = dynamics.evolve_two_level_direct(_ramp(10.0, rate))
            _check_evolution(result, f"ramp {rate}")
            lz = adiabatic_error.landau_zener_error(1.0, rate)
            # the sweep starts and stops abruptly at |h_z| = 10; first-order
            # adiabatic theory bounds the amplitude this adds by
            # rate / (1 + 10^2)^1.5 (both ends); 0.075 in amplitude is 15%
            # in probability
            bound = rate / 101.0**1.5 + 0.075 * math.sqrt(lz)
            check(abs(math.sqrt(result.p_e) - math.sqrt(lz)) <= bound,
                  f"ramp {rate}: P_e {result.p_e} vs Landau-Zener {lz}")
            if rate == 0.341:
                check(abs(result.p_e - lz) <= 0.15 * lz, f"ramp 0.341: {result.p_e} vs {lz}")
        return job

    t_remap = _strata(rng, 0.8, 1.5, n_remap) * T_X
    t_round = _strata(rng, 0.8, 1.5, n_round) * T_X
    t_sample = _strata(rng, 1.0, 3.0, n_sample) * T_X
    lam2s = rng.permutation(_strata(rng, -0.1, -0.07, n_remap + n_round + n_sample))
    sigmas = rng.permutation(_strata(rng, 0.05, 0.15, n_round)) * T_X
    # ramps: both ends of the rate range and criterion 04's rate are always in
    rates = np.exp(_strata(rng, math.log(0.05), math.log(2.0), n_ramp - 3))
    rates = [0.05, 0.341, 2.0] + rates.tolist()
    # a tenth of all jobs also run on the ODE backend: every fifth remapped
    # and sampled sweep in duration order, from a seeded offset, so the
    # share of long ones is fixed.  Rounded trajectories carry finite-
    # difference rates the two backends read differently, and ramps are far
    # too long for it
    offset = int(rng.integers(5))
    ode = {i for i in range(n_remap + n_sample) if i % 5 == offset}

    jobs = []
    for i, t_p in enumerate(t_remap):
        jobs.append(Job("remapped", remapped_job(float(t_p), lam2s[i], i in ode)))
    for i, t_p in enumerate(t_round):
        jobs.append(Job("rounded", rounded_job(float(t_p), lam2s[n_remap + i], float(sigmas[i]))))
    for i, t_p in enumerate(t_sample):
        k = n_remap + i
        jobs.append(Job("sampled", sampled_job(float(t_p), lam2s[n_round + k], k in ode)))
    jobs += [Job("ramp", ramp_job(float(r))) for r in rates]
    jobs = [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup(out_dir):
        traj = remap.remapped_trajectory(sweep(-0.086), 1.34 * T_X, n_samples=2048)
        dynamics.evolve_two_level_direct(traj)

    return Workload(jobs, warmup)


def _run_propagators(traj, with_ode, what):
    direct = dynamics.evolve_two_level_direct(traj)
    _check_evolution(direct, what)
    if with_ode:
        ode = dynamics.evolve_two_level_exact(traj)
        _finite_probability(ode.p_e, f"{what} (ODE)")
        check(abs(ode.p_e - direct.p_e) < 1e-8,
              f"{what}: ODE {ode.p_e!r} vs direct {direct.p_e!r}")


# -------------------------------------------------------------- exact_search


def _worst_over(w, durations):
    return max(
        dynamics.evolve_two_level_direct(
            remap.remapped_trajectory(w, float(t_p), n_samples=2048)
        ).p_e
        for t_p in durations
    )


def exact_search(seed: int, small: bool = False) -> Workload:
    # the search inputs are fixed; the seed drives the random restarts.
    # Iteration caps keep a pass near 13 s: every restart of the 1-D simplex
    # runs into its evaluation cap, so the point count barely moves with the
    # seed.  Lower caps truncate the search before the checks hold: at 6 the
    # excursion objective is 1.06e-3 for seed 26 (7.65e-4 at 10), at 5 the
    # single-duration one is 9.9e-9 for seed 1.  The self-test runs it as is.
    cz_iterations = 10
    tp_iterations = 20
    theta_f = 0.55 * math.pi / 2.0

    def excursion(ctx):
        params = {"theta_i_rad": 0.1, "theta_f_rad": theta_f, "n_coeffs": 2,
                  "sigma_over_Tx": 0.0, "max_iterations": cz_iterations}
        columns, data = ctx.run_cli("cz_pulse", "cz-pulse", params, seed=seed)
        worst = float(_column(columns, data, "max_p_e")[0])
        lam = data[0, columns.index("lambda_prime_1_rad"):]
        check(worst < 1e-3, f"cz-pulse: objective {worst!r} >= 1e-3")
        # rescore the returned pulse on the default window, 0.9..1.15 T_x
        w = waveform.theta_waveform(lam, 1.0, 0.1, theta_f)
        again = _worst_over(w, np.linspace(0.9, 1.15, 9) * T_X)
        check(abs(again - worst) <= 1e-2 * worst, f"cz-pulse: rescored {again!r} vs {worst!r}")

    def single_duration(ctx):
        t_p = 1.34 * T_X
        objective = optimize.Objective(
            kind=optimize.ObjectiveKind.EXACT_ERROR_AT_TP, t_p_window=(t_p, t_p),
            theta_i=THETA_I, theta_f=THETA_F,
        )
        report = optimize.optimize_coefficients(
            2, waveform.BasisMode.DERIVATIVE, objective, THETA_F - THETA_I,
            seed=seed, max_iterations=tp_iterations,
        )
        check(report.objective_value < 1e-10, f"t_p search: objective {report.objective_value!r}")
        w = waveform.derivative_waveform(report.coefficients, 1.0, THETA_I, THETA_F,
                                         normalized=False)
        again = _worst_over(w, [t_p])
        check(again < 1e-10, f"t_p search: rescored {again!r}")

    def warmup(out_dir):
        w = waveform.theta_waveform([(theta_f - 0.1) / 2.0, 0.0], 1.0, 0.1, theta_f)
        _worst_over(w, [T_X])

    return Workload(
        [Job("cz_pulse", excursion, True), Job("single_duration", single_duration)],
        warmup,
    )


# ------------------------------------------------------- leakage_calibration


def leakage_calibration(seed: int, small: bool = False) -> Workload:
    # the inputs are criterion 09's and do not depend on the seed: any change
    # to the sweep moves the simplex stall this workload is there to measure,
    # and with it the cost of a pass by up to 2x
    steps = 48 if small else DRAG_STEPS
    shape = 1.0 - np.cos(2.0 * np.pi * np.linspace(0.0, 1.0, 512))
    target = three_level.RotationTarget.PI_PULSE

    def calibrate(drag_d):
        def job(ctx):
            cal = three_level.calibrate_pulse(shape, DRAG_T_P, drag_d, DRAG_DELTA, target,
                                              n_steps=steps)
            check(cal.qubit_subspace_error < 1e-6,
                  f"D={drag_d}: subspace error {cal.qubit_subspace_error!r}")
            check(math.isfinite(cal.err2_avg) and cal.err2_avg > 0,
                  f"D={drag_d}: err2 {cal.err2_avg!r}")
            err2 = ctx.shared.setdefault("err2", {})
            err2[drag_d] = cal.err2_avg
            if len(err2) == len(DRAG_D):
                # criterion 09 leakage ratio bands
                check(err2[-1.2] <= err2[0.0] / 10.0, f"err2 ratio -1.2: {err2}")
                check(0.12 <= err2[-0.48] / err2[0.0] <= 0.5, f"err2 ratio -0.48: {err2}")
        return job

    def anchor(ctx):
        # levels=2 is the delta -> -inf limit: the area theorem fixes the
        # amplitude at pi / area of the unit-amplitude envelope
        params = {"drag_d_list": [0.0], "delta_rad_per_time": DRAG_DELTA,
                  "t_p_time": DRAG_T_P, "n_envelope_samples": len(shape),
                  "target": "pi", "levels": 2}
        columns, data = ctx.run_cli("drag_sweep_levels2", "drag-sweep", params)
        area = np.trapezoid(shape, np.linspace(0.0, DRAG_T_P, len(shape)))
        amplitude = float(_column(columns, data, "amplitude_rad_per_time")[0])
        error = float(_column(columns, data, "qubit_subspace_error")[0])
        check(abs(amplitude - math.pi / area) <= 1e-6 * math.pi / area,
              f"levels=2: amplitude {amplitude!r} vs pi/area {math.pi / area!r}")
        check(error < 1e-6, f"levels=2: subspace error {error!r}")

    jobs = [Job("calibrate", calibrate(d)) for d in DRAG_D]
    jobs.append(Job("levels2_anchor", anchor, True))

    def warmup(out_dir):
        pulse = three_level.ThreeLevelPulse(shape, 0.0, DRAG_DELTA, 0.0, DRAG_T_P)
        three_level.evolve_three_level(pulse, target, steps)

    return Workload(jobs, warmup)


BUILDERS = {
    "linear_design": linear_design,
    "exact_dynamics": exact_dynamics,
    "exact_search": exact_search,
    "leakage_calibration": leakage_calibration,
}
