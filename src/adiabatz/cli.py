"""Command-line front end: config ingestion, experiment drivers, tabular export.

Each experiment reads a JSON parameter file, runs one reproducible
computation, and writes a result table (CSV or JSON) plus a small manifest
with the config hash, library versions, wall time and diagnostics (the
cz-pulse search's report, the failed error-curve points and an exact curve's
step work, the lz-sweep step work, each drag-sweep calibration's evaluations,
optimizer status and reached error). The manifest lives in a separate file
so result bytes depend only on the config. No experiment reads a seed, so
the command takes none, and a config that names one is refused as unknown.
A remapped error-curve builds no trajectory: the exact one is one
constant-gap kernel call, the linearized one its closed form.

Each parameter is named once, where its experiment reads it: a read pops
the key from a copy of the config, and the keys left after the last read
are unknown and refused, before any computation.

Exit codes: 0 success, 2 config validation failure (no files written),
3 numerical failure during the computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic_error import ErrorCurve, Evaluator, error_curve, landau_zener_error
from .dynamics import STEP_ATOL, STEP_RTOL, evolve_two_level_direct, remapped_p_e
from .optimize import U_MAX, _band_basis, _solve_window, basis_transform, optimize_cz_pulse
from .remap import _unit_shape
from .three_level import RotationTarget, calibrate_pulse
from .waveform import (
    BasisMode,
    derivative_waveform,
    linear_ramp_trajectory,
    sample_trajectory,
    theta_waveform,
)

__all__ = [
    "ValidationError",
    "RunConfig",
    "EXPERIMENTS",
    "load_config",
    "export_table",
    "load_table",
    "run",
    "main",
]

SCHEMA_VERSION = 1
T_X = np.pi  # crossing period 2 pi / omega_x at h_x = 1; the CLI fixes h_x = 1


class ValidationError(ValueError):
    """Config rejected before any computation."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    experiment: str
    parameters: dict
    output_dir: Path
    format: str
    config_sha256: str
    seed: int = 0  # never read; the field stays for callers that still pass it


# ---------------------------------------------------------------- validation

_REQUIRED = object()


def _get(params: dict, name: str, default):
    """Pop ``name`` from ``params``: a read consumes its key, so whatever an
    experiment leaves unread is unknown (see ``_reject_unknown``)."""
    if name in params:
        return params.pop(name)
    if default is _REQUIRED:
        raise ValidationError(f"{name}: required parameter missing")
    return default


def _finite(v) -> bool:
    # abs(v) <= max also refuses nan, inf and an integer beyond float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _num(params, name, default=_REQUIRED, lo=None, hi=None, open_lo=False, open_hi=False):
    v = _get(params, name, default)
    if not _finite(v):
        raise ValidationError(f"{name}: must be a finite number, got {v!r}")
    v = float(v)
    if lo is not None and (v < lo or (open_lo and v == lo)):
        raise ValidationError(f"{name}: must be {'>' if open_lo else '>='} {lo}, got {v}")
    if hi is not None and (v > hi or (open_hi and v == hi)):
        raise ValidationError(f"{name}: must be {'<' if open_hi else '<='} {hi}, got {v}")
    return v


def _int(params, name, default=_REQUIRED, lo=None):
    v = _get(params, name, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{name}: must be an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ValidationError(f"{name}: must be >= {lo}, got {v}")
    return v


def _bool(params, name, default):
    v = _get(params, name, default)
    if not isinstance(v, bool):
        raise ValidationError(f"{name}: must be true or false, got {v!r}")
    return v


def _choice(params, name, options, default=_REQUIRED):
    v = _get(params, name, default)
    if not isinstance(v, str) or v not in options:  # a list is unhashable
        raise ValidationError(f"{name}: must be one of {sorted(options)}, got {v!r}")
    return v


def _num_list(params, name, default=_REQUIRED, min_len=1):
    v = _get(params, name, default)
    if v is default:  # a default needs no check, and None leaves the list out
        return v
    if not isinstance(v, list) or len(v) < min_len:
        raise ValidationError(f"{name}: must be a list with at least {min_len} entries")
    for x in v:
        if not _finite(x):
            raise ValidationError(f"{name}: entries must be finite numbers, got {x!r}")
    return [float(x) for x in v]


def _reject_unknown(params: dict, experiment: str):
    """Refuse the keys left after an experiment's reads."""
    unknown = sorted(params)
    if unknown:
        raise ValidationError(f"{experiment}: unknown parameter(s): {', '.join(unknown)}")


def _label_ok(label) -> bool:
    return (
        isinstance(label, str)
        and 0 < len(label) <= 40
        and all(c.isalnum() or c in "_-" for c in label)
    )


# ---------------------------------------------------------------- experiments


def _profile(lam, u: np.ndarray, mode: BasisMode) -> np.ndarray:
    """sum_n lam_n R_n(u): the real spectral profile of a shape at the u
    cycles of a 1-D grid.  The terms come from one call; the sum runs term
    by term, in order, as it did over one call per term."""
    terms = basis_transform(u[:, None], np.arange(1, len(lam) + 1), mode)
    return sum(c * terms[:, k] for k, c in enumerate(lam))


def _run_psd_windows(params: dict):
    sets = _get(params, "coefficients_lambda", _REQUIRED)
    if not isinstance(sets, list) or len(sets) == 0:
        raise ValidationError(
            "coefficients_lambda: must be a non-empty list of coefficient lists"
        )
    lams = []
    for i, entry in enumerate(sets):
        key = f"coefficients_lambda[{i}]"
        lam = np.array(_num_list({key: entry}, key))
        with np.errstate(over="ignore"):
            total = lam.sum()
        if not (np.isfinite(total) and total != 0):
            raise ValidationError(f"{key}: sum must be finite and nonzero, got {total}")
        lams.append(lam / total)
    labels = _get(params, "labels", [f"w{i + 1}" for i in range(len(lams))])
    if (
        not isinstance(labels, list)
        or len(labels) != len(lams)
        or not all(_label_ok(s) for s in labels)
    ):
        raise ValidationError(
            "labels: must be one short alphanumeric label per coefficient list"
        )
    u_min = _num(params, "u_min_cycles", 0.02, lo=0, open_lo=True)
    u_max = _num(params, "u_max_cycles", 8.0, lo=u_min, open_lo=True)
    n_points = _int(params, "n_points", 400, lo=2)
    rect = _bool(params, "include_rect_reference", True)
    columns = ["u_cycles"] + ["psd_rect_rad2"] * rect + [f"psd_{s}_rad2" for s in labels]
    if len(set(columns)) < len(columns):
        raise ValidationError(
            "labels: must be distinct, and 'rect' only without include_rect_reference"
        )
    _reject_unknown(params, "psd-windows")

    u = np.linspace(u_min, u_max, n_points)
    series = [u] + [np.sinc(u) ** 2] * rect
    with np.errstate(over="raise", invalid="raise"):  # exit 3, not an inf column
        series += [_profile(lam, u, BasisMode.DERIVATIVE) ** 2 for lam in lams]
    return columns, np.column_stack(series).tolist(), {}


def _run_error_curve(params: dict):
    window = _choice(params, "window", {"rect", "hanning", "fourier"}, "fourier")
    if window in ("rect", "hanning"):
        dth = _num(params, "delta_theta_rad", 1.0, lo=0, open_lo=True)
        u_min = _num(params, "u_min_cycles", 0.1, lo=0, open_lo=True)
        u_max = _num(params, "u_max_cycles", 10.0, lo=u_min, open_lo=True)
        n_points = _int(params, "n_points", 500, lo=2)
        _reject_unknown(params, "error-curve")
        u = np.linspace(u_min, u_max, n_points)
        # constant-omega closed forms: P_e of the abrupt window is the
        # squared sinc; one cosine term divides it by (1 - u^2)^2; both are
        # clipped at 1, as geometric_error clips
        shape = np.sinc(u) if window == "rect" else basis_transform(u, 1, BasisMode.DERIVATIVE)
        p_e = np.minimum((dth**2 / 4.0) * shape**2, 1.0)
        rows = np.column_stack([u, p_e]).tolist()
        return ["u_cycles", "p_e_linearized"], rows, {"failures": []}

    build = {"derivative": derivative_waveform, "theta": theta_waveform}[
        _choice(params, "basis", {"derivative", "theta"}, "derivative")
    ]
    lam = np.array(_num_list(params, "coefficients_lambda"))
    theta_i = _num(params, "theta_i_rad", _REQUIRED, lo=0, hi=np.pi, open_lo=True, open_hi=True)
    theta_f = _num(params, "theta_f_rad", _REQUIRED, lo=0, hi=np.pi, open_lo=True, open_hi=True)
    remap = _bool(params, "remap", False)
    evaluator = Evaluator(_choice(params, "evaluator", {"linearized", "exact"}, "linearized"))
    t_lo = _num(params, "t_p_min_over_Tx", _REQUIRED, lo=0, open_lo=True)
    t_hi = _num(params, "t_p_max_over_Tx", _REQUIRED, lo=t_lo, open_lo=True)
    n_points = _int(params, "n_points", 60, lo=2)
    kernel = remap and evaluator is Evaluator.EXACT  # scored without samples
    n_samples = None if kernel else _int(params, "n_samples", 2048, lo=16)
    _reject_unknown(params, "error-curve")

    try:
        w = build(lam, 1.0, theta_i, theta_f)
    except ValueError as exc:
        raise ValidationError(f"coefficients_lambda: {exc}") from exc

    grid = np.linspace(t_lo, t_hi, n_points) * T_X
    try:
        if kernel:  # one constant-gap kernel call scores every duration
            r = remapped_p_e(w.mode, w.coefficients[None], theta_i, grid, STEP_ATOL, STEP_RTOL)
            if r.rejected[0]:
                raise ValueError("theta(tau) must stay strictly inside (0, pi)")
            curve = ErrorCurve(grid, r.p_e[0], (), n_points * r.steps, float(np.max(r.step_error)))
        elif remap:  # a quarter of the drive spectrum at s = t_p / (T_x <sin theta>)
            mean_rate = _unit_shape(w, n_samples)[1][-1]  # bitwise the remap's scale
            s = grid / (T_X * mean_rate)
            with np.errstate(over="raise", invalid="raise"):
                p_e = np.minimum(_profile(w.coefficients, s, w.mode) ** 2 / 4.0, 1.0)
            curve = ErrorCurve(grid, p_e)
        else:  # one unit-duration sample, stretched to each duration
            curve = error_curve(sample_trajectory(w, n_samples).with_t_p, grid, evaluator)
    except (ValueError, RuntimeError, ArithmeticError) as exc:  # fails every point
        failed = [(i, f"{type(exc).__name__}: {exc}") for i in range(n_points)]
        curve = ErrorCurve(grid, np.full(n_points, np.nan), tuple(failed))
    columns = ["t_p_over_Tx", "t_p_time", f"p_e_{evaluator.value}"]
    rows = np.column_stack([grid / T_X, grid, curve.p_e]).tolist()
    # failed points read NaN in the table; the manifest says why
    diagnostics = {"failures": [list(failure) for failure in curve.failures]}
    if evaluator is Evaluator.EXACT:  # and the step work of the exact points
        diagnostics.update(steps=curve.steps, step_error=curve.step_error)
    return columns, rows, diagnostics


def _run_lz_sweep(params: dict):
    span = _num(params, "span_over_hx", 10.0, lo=1.0)
    r_lo = _num(params, "rate_min_hx2", _REQUIRED, lo=0, open_lo=True)
    r_hi = _num(params, "rate_max_hx2", _REQUIRED, lo=r_lo, open_lo=True)
    n_points = _int(params, "n_points", 20, lo=2)
    n_samples = _int(params, "n_samples", 4097, lo=64)
    _reject_unknown(params, "lz-sweep")
    rates = np.geomspace(r_lo, r_hi, n_points)
    results = [evolve_two_level_direct(linear_ramp_trajectory(span, r, n_samples)) for r in rates]
    rows = [[rate, r.p_e, landau_zener_error(1.0, rate)] for rate, r in zip(rates, results)]
    diagnostics = {"steps": sum(r.steps for r in results),
                   "step_error": max(r.step_error for r in results)}
    return ["ramp_rate_hx2", "p_e_exact", "p_e_formula"], rows, diagnostics


def _run_cz_pulse(params: dict):
    theta_i = _num(params, "theta_i_rad", _REQUIRED, lo=0, hi=np.pi / 2, open_lo=True, open_hi=True)
    theta_f = _num(params, "theta_f_rad", _REQUIRED, lo=theta_i, hi=np.pi / 2, open_hi=True)
    n_coeffs = _int(params, "n_coeffs", _REQUIRED, lo=1)
    sigma = _num(params, "sigma_over_Tx", 0.0, lo=0.0)
    window = _num_list(params, "t_p_window_over_Tx", None, min_len=2)
    if window is not None:
        if len(window) != 2 or not 0 < window[0] <= window[1]:
            raise ValidationError(
                "t_p_window_over_Tx: must be [lo, hi] with 0 < lo <= hi"
            )
        window = (window[0] * T_X, window[1] * T_X)
    max_iterations = _int(params, "max_iterations", 300, lo=1)
    _reject_unknown(params, "cz-pulse")

    rep = optimize_cz_pulse(
        theta_i, theta_f, n_coeffs, sigma * T_X, t_p_window=window, max_iterations=max_iterations
    )
    if rep.rejected == rep.evaluations:  # no candidate was scored: no result
        raise RuntimeError(f"cz-pulse: all {rep.evaluations} candidates were rejected")
    columns = ["n_coeffs", "sigma_over_Tx", "max_p_e", "iterations", "converged",
               "max_p_e_step_error", "rejected"]
    columns += [f"lambda_prime_{n}_rad" for n in range(1, n_coeffs + 1)]
    step_error = float("nan") if rep.step_error is None else rep.step_error
    row = [float(n_coeffs), sigma, rep.objective_value, float(rep.iterations),
           float(rep.converged), step_error, float(rep.rejected)]
    diagnostics = {k: getattr(rep, k) for k in
                   ("iterations", "converged", "rejected", "evaluations", "steps", "step_error")}
    return columns, [row + [float(c) for c in rep.coefficients]], diagnostics


def _run_table1(params: dict):
    n_m_list = _get(params, "n_m_list", [2, 4, 10])
    if (
        not isinstance(n_m_list, list)
        or len(n_m_list) == 0
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_m_list)
    ):
        raise ValidationError("n_m_list: must be a non-empty list of integers >= 1")
    # the band edge sits at least 5 cycles below the spectral grid's end, U_MAX
    cutoff = _num(params, "cutoff_cycles", 2.3, lo=0, hi=U_MAX - 5.0, open_lo=True, open_hi=True)
    _reject_unknown(params, "table1")

    # one basis, for the largest n_m, whose leading columns serve every row;
    # its check refuses an n_m past the band grid's resolution first
    width = max(n_m_list)
    try:
        basis, weighted = _band_basis(width, cutoff)
    except ValueError as exc:
        raise ValidationError(f"n_m_list: {exc}") from exc
    columns = ["n_m", "objective_rad2"] + [f"lambda_{n}" for n in range(1, width + 1)]
    rows = []
    for n_m in n_m_list:
        lam, power = _solve_window(basis, weighted, n_m)
        pad = [float("nan")] * (width - n_m)
        rows.append([float(n_m), power] + [float(c) for c in lam] + pad)
    return columns, rows, {}


def _run_drag_sweep(params: dict):
    d_list = _num_list(params, "drag_d_list", [0.0, -0.48, -1.20])
    delta = _num(params, "delta_rad_per_time", -2.0 * np.pi)
    if delta == 0:
        raise ValidationError("delta_rad_per_time: must be nonzero")
    t_p = _num(params, "t_p_time", 2.5, lo=0, open_lo=True)
    n_env = _int(params, "n_envelope_samples", 512, lo=8)
    target = {"pi": RotationTarget.PI_PULSE, "pi/2": RotationTarget.HALF_PI_PULSE}[
        _choice(params, "target", {"pi", "pi/2"}, "pi")
    ]
    levels = _int(params, "levels", 3)
    if levels not in (2, 3):
        raise ValidationError(f"levels: must be 2 or 3, got {levels}")
    _reject_unknown(params, "drag-sweep")

    t = np.linspace(0.0, t_p, n_env)
    shape = 1.0 - np.cos(2.0 * np.pi * t / t_p)
    cals = [calibrate_pulse(shape, t_p, d, delta, target, levels=levels) for d in d_list]
    rows = [
        [d, cal.amplitude, cal.detuning, cal.phase,
         cal.qubit_subspace_error, cal.err2_avg, float(cal.converged)]
        for d, cal in zip(d_list, cals)
    ]
    # converged mixes an unreachable target with a failed search; these tell them apart
    diagnostics = {"evaluations": [cal.evaluations for cal in cals],
                   "optimizer_success": [cal.optimizer_success for cal in cals],
                   "qubit_subspace_error": [cal.qubit_subspace_error for cal in cals]}
    columns = ["drag_d", "amplitude_rad_per_time", "detuning_rad_per_time",
               "phase_rad", "qubit_subspace_error", "err2_avg", "converged"]
    return columns, rows, diagnostics


EXPERIMENTS = {
    "psd-windows": _run_psd_windows,
    "error-curve": _run_error_curve,
    "lz-sweep": _run_lz_sweep,
    "cz-pulse": _run_cz_pulse,
    "table1": _run_table1,
    "drag-sweep": _run_drag_sweep,
}


# ---------------------------------------------------------------- i/o


def load_config(path) -> tuple[dict, str]:
    """Read a JSON parameter file; returns (parameters, sha256 of the bytes)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise ValidationError("config must be a JSON object")
    return params, digest


def export_table(columns, rows, path, fmt: str):
    """Write a numeric table; floats keep 17 significant digits."""
    path = Path(path)
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join("%.17g" % v for v in row))
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "columns": list(columns),
            "rows": [[float(v) for v in row] for row in rows],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
    else:
        raise ValidationError(f"format: must be csv or json, got {fmt!r}")


def load_table(path) -> tuple[list, np.ndarray]:
    """Read a table written by export_table; returns (columns, row array)."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        columns = payload["columns"]
        rows = payload["rows"]
    else:
        lines = path.read_text().splitlines()
        columns = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return columns, data


def run(config: RunConfig) -> list:
    """Execute one experiment; returns the paths written."""
    if config.experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {config.experiment!r}")
    if config.format not in ("csv", "json"):
        raise ValidationError(f"format: must be csv or json, got {config.format!r}")
    started = time.monotonic()
    params = dict(config.parameters)  # the experiment's reads consume this copy
    columns, rows, diagnostics = EXPERIMENTS[config.experiment](params)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    result_path = config.output_dir / f"{config.experiment}.{config.format}"
    export_table(columns, rows, result_path, config.format)
    manifest = {
        "diagnostics": diagnostics,
        "experiment": config.experiment,
        "schema_version": SCHEMA_VERSION,
        "config_sha256": config.config_sha256,
        "format": config.format,
        "output": result_path.name,
        "rows": len(rows),
        "versions": {
            "adiabatz": __version__,
            "numpy": np.__version__,
        },
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    manifest_path = config.output_dir / f"{config.experiment}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return [result_path, manifest_path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adiabatz",
        description="Reproduce control-waveform experiments from JSON configs.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="JSON parameter file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        params, digest = load_config(args.config)
        config = RunConfig(
            experiment=args.experiment,
            parameters=params,
            output_dir=Path(args.out),
            format=args.format,
            config_sha256=digest,
        )
        paths = run(config)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
