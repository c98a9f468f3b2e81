import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from adiabatz import cli, remap
from adiabatz.adiabatic_error import geometric_error
from adiabatz.cli import ValidationError, export_table, load_table, main
from adiabatz.dynamics import evolve_two_level_direct
from adiabatz.optimize import optimize_cz_pulse
from adiabatz.remap import remapped_trajectory
from adiabatz.waveform import (
    SampledTrajectory,
    derivative_waveform,
    linear_ramp_trajectory,
    sample_trajectory,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, params, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(params))
    return path


def test_validation_failure_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, {"coefficients_lambda": []})
    out = tmp_path / "out"
    rc = main(["psd-windows", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


FOURIER_CURVE = {"coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3,
                 "theta_f_rad": 2.2, "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0}


@pytest.mark.parametrize(
    "experiment, params, key",
    [
        ("psd-windows", {"coefficients_lambda": [[1.0]], "n_pionts": 5}, "n_pionts"),
        # a key of the fourier branch is unknown to the closed-form one, and back
        ("error-curve", {"window": "rect", "basis": "theta"}, "basis"),
        ("error-curve", {**FOURIER_CURVE, "delta_theta_rad": 1.0}, "delta_theta_rad"),
        ("lz-sweep", {"rate_min_hx2": 0.3, "rate_max_hx2": 0.5, "rate": 1.0}, "rate"),
        ("cz-pulse", {"theta_i_rad": 0.3, "theta_f_rad": 0.3, "n_coeffs": 2, "sigma": 0.1},
         "sigma"),
        ("table1", {"n_m_list": [2], "cutoff": 2.3}, "cutoff"),
        ("drag-sweep", {"levels": 2, "n_envelope_sample": 8}, "n_envelope_sample"),
    ],
    ids=["psd-windows", "error-curve-rect", "error-curve-fourier", "lz-sweep", "cz-pulse",
         "table1", "drag-sweep"],
)
def test_unknown_parameter_rejected(tmp_path, capsys, experiment, params, key):
    # the keys left after an experiment's reads are refused before it computes
    cfg = write_config(tmp_path, {**params, "seed": 1})
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {experiment}: unknown parameter(s): {key}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, params, message",
    [
        # a legal JSON integer that no float holds used to crash np.isfinite
        ("table1", {"n_m_list": [2], "cutoff_cycles": 10**400},
         "cutoff_cycles: must be a finite number, got 1000"),
        ("psd-windows", {"coefficients_lambda": [[1.0, 10**400]]},
         "coefficients_lambda[0]: entries must be finite numbers, got 1000"),
        # a sum that overflows used to normalize every coefficient to 0
        ("psd-windows", {"coefficients_lambda": [[1.0], [1e308, 1e308]]},
         "coefficients_lambda[1]: sum must be finite and nonzero, got inf\n"),
        # a list where a name belongs used to crash the set lookup
        ("error-curve", {"window": ["rect"]},
         "window: must be one of ['fourier', 'hanning', 'rect'], got ['rect']\n"),
        # two columns of one name would leave a reader by name the wrong one
        ("psd-windows", {"coefficients_lambda": [[1.0], [1.0]], "labels": ["a", "a"]},
         "labels: must be distinct"),
        ("psd-windows", {"coefficients_lambda": [[1.0]], "labels": ["rect"]},
         "labels: must be distinct"),
        ("psd-windows", {"coefficients_lambda": [[1.0], [1.0]], "labels": ["a", "a"],
                         "include_rect_reference": False}, "labels: must be distinct"),
        # the known keys are checked before the leftovers are refused
        ("table1", {"n_m_list": [2], "cutoff_cycles": -1.0, "cutof": 2.3},
         "cutoff_cycles: must be > 0, got -1.0\n"),
    ],
    ids=["huge-number", "huge-list-entry", "overflowing-sum", "list-for-name", "repeated-label",
         "rect-label", "repeated-label-without-rect", "bad-value-and-unknown-key"],
)
def test_bad_value_is_a_config_error(tmp_path, capsys, experiment, params, message):
    cfg = write_config(tmp_path, params)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not out.exists()


def test_psd_windows_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the sum is 1.0 but the profile overflows: no inf column is written
    cfg = write_config(tmp_path, {"coefficients_lambda": [[1e308, -1e308, 1.0]]})
    out = tmp_path / "out"
    assert main(["psd-windows", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: overflow")
    assert not out.exists()


def test_psd_windows_takes_rect_label_without_the_reference(tmp_path):
    cfg = write_config(tmp_path, {"coefficients_lambda": [[1.0]], "labels": ["rect"],
                                  "include_rect_reference": False, "n_points": 3})
    assert main(["psd-windows", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cols, _ = load_table(tmp_path / "psd-windows.csv")
    assert cols == ["u_cycles", "psd_rect_rad2"]


def test_run_leaves_the_config_untouched(tmp_path):
    # the reads consume a copy: a second run of one RunConfig, as the
    # benchmark makes, reads the same parameters and writes the same bytes
    params = {"n_m_list": [2], "cutoff_cycles": 3.0, "seed": 1}
    config = cli.RunConfig("table1", params, tmp_path, "csv", 0, "0" * 64)
    data = []
    for _ in range(2):
        data.append(cli.run(config)[0].read_bytes())
        assert config.parameters == {"n_m_list": [2], "cutoff_cycles": 3.0, "seed": 1}
    assert data[0] == data[1]
    assert data[0].splitlines()[0] == b"n_m,objective_rad2,lambda_1,lambda_2"


def readme_examples():
    """The README's example configs, as (experiment, parameters) pairs."""
    text = README.read_text()
    heredocs = dict(re.findall(r"cat > (\S+) << 'EOF'\n(.*?)\nEOF", text, re.S))
    runs = re.findall(r"^adiabatz ([a-z0-9-]+) --config (\S+)", text, re.M)
    (curve,) = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
    return [(exp, json.loads(heredocs[name])) for exp, name in runs] + [
        ("error-curve", json.loads(curve))
    ]


def test_readme_examples_run(tmp_path):
    # the documented keys cannot drift from what the experiments read
    examples = readme_examples()
    assert [exp for exp, _ in examples] == ["psd-windows", "table1", "error-curve"]
    for exp, params in examples:
        cfg = write_config(tmp_path, params, f"{exp}.json")
        assert main([exp, "--config", str(cfg), "--out", str(tmp_path / exp)]) == 0


def test_psd_windows_error_names_the_bad_list(tmp_path, capsys):
    cfg = write_config(tmp_path, {"coefficients_lambda": [[1.0, 0.5], [1.0, "x"]]})
    rc = main(["psd-windows", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: coefficients_lambda[1]: entries must be finite numbers, got 'x'\n"
    )


def test_missing_config_file(tmp_path):
    rc = main(["table1", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_unwritable_output_reported(tmp_path):
    cfg = write_config(tmp_path, {"n_m_list": [1]})
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["table1", "--config", str(cfg), "--out", str(blocker / "sub")])
    assert rc == 3


def test_export_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    columns = ["a_unit", "b_unit", "c_unit"]
    rows = rng.normal(size=(7, 3)).tolist()
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        export_table(columns, rows, path, fmt)
        cols2, data = load_table(path)
        assert cols2 == columns
        assert np.array_equal(data, np.array(rows))
        # a second export of the re-imported data is byte-identical
        path2 = tmp_path / f"t2.{fmt}"
        export_table(cols2, data.tolist(), path2, fmt)
        assert path.read_bytes() == path2.read_bytes()
    with pytest.raises(ValidationError):
        export_table(columns, rows, tmp_path / "t.xml", "xml")


def test_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_table(["x_unit", "y_unit"], [], path, "csv")
    assert path.read_text() == "x_unit,y_unit\n"
    cols, data = load_table(path)
    assert cols == ["x_unit", "y_unit"]
    assert data.shape == (0, 2)


def test_three_point_curve_gives_four_lines(tmp_path):
    cfg = write_config(
        tmp_path,
        {"window": "rect", "u_min_cycles": 0.5, "u_max_cycles": 2.5, "n_points": 3},
    )
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "error-curve.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "u_cycles,p_e_linearized"


def test_rect_curve_has_nulls_at_integer_cycles(tmp_path):
    cfg = write_config(
        tmp_path,
        {"window": "rect", "u_min_cycles": 1.0, "u_max_cycles": 4.0, "n_points": 4},
    )
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(data[:, 1] < 1e-30)


def test_table1_two_term_row(tmp_path):
    cfg = write_config(tmp_path, {"n_m_list": [2]})
    assert main(["table1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cols, data = load_table(tmp_path / "table1.csv")
    row = dict(zip(cols, data[0]))
    assert row["lambda_1"] == pytest.approx(1.0866, abs=0.005)
    assert row["lambda_2"] == pytest.approx(-0.0866, abs=0.005)
    # the closed-form solve has no iteration count or convergence flag
    assert cols == ["n_m", "objective_rad2", "lambda_1", "lambda_2"]


def test_table1_cutoff_out_of_range_is_a_config_error(tmp_path, capsys):
    # the spectral grid ends at 400 cycles, so the objective refuses a
    # cutoff of 395 or more; that is the config's fault, not a numerical one
    cfg = write_config(tmp_path, {"n_m_list": [2], "cutoff_cycles": 395})
    out = tmp_path / "out"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cutoff_cycles: ")
    assert not out.exists()


def test_manifest_records_config_hash_and_seed(tmp_path):
    cfg = write_config(tmp_path, {"n_m_list": [1], "seed": 4})
    assert main(["table1", "--config", str(cfg), "--out", str(tmp_path), "--seed", "7"]) == 0
    manifest = json.loads((tmp_path / "table1_manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["seed"] == 7  # command line wins over the config value
    assert manifest["output"] == "table1.csv"
    assert manifest["schema_version"] == 1
    assert set(manifest["versions"]) == {"adiabatz", "numpy", "scipy"}


def test_runs_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, {"theta_i_rad": 0.3, "theta_f_rad": 0.3, "n_coeffs": 2}
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["cz-pulse", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "cz-pulse.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cz_pulse_columns(tmp_path):
    # the estimate and the rejection count sit before the coefficients,
    # which run to the end of the row
    cfg = write_config(tmp_path, {"theta_i_rad": 0.3, "theta_f_rad": 0.3, "n_coeffs": 2})
    assert main(["cz-pulse", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cols, data = load_table(tmp_path / "cz-pulse.csv")
    assert cols == [
        "n_coeffs", "sigma_over_Tx", "max_p_e", "iterations", "converged",
        "max_p_e_step_error", "rejected", "lambda_prime_1_rad", "lambda_prime_2_rad",
    ]
    row = dict(zip(cols, data[0]))
    assert row["rejected"] == 0.0
    assert 0.0 < row["max_p_e_step_error"] < 1e-12


def test_cz_pulse_diagnostics_stay_out_of_the_data_file(tmp_path):
    # the manifest reports the search; the data file holds the row it held
    # before the manifest did, byte for byte
    params = {"theta_i_rad": 0.1, "theta_f_rad": 0.55 * np.pi / 2, "n_coeffs": 2,
              "max_iterations": 10}
    cfg = write_config(tmp_path, params)
    assert main(["cz-pulse", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 0
    rep = optimize_cz_pulse(0.1, 0.55 * np.pi / 2, 2, 0.0, seed=3, max_iterations=10)
    columns = ["n_coeffs", "sigma_over_Tx", "max_p_e", "iterations", "converged",
               "max_p_e_step_error", "rejected", "lambda_prime_1_rad", "lambda_prime_2_rad"]
    row = [2.0, 0.0, rep.objective_value, float(rep.iterations), float(rep.converged),
           rep.step_error, float(rep.rejected), *rep.coefficients]
    export_table(columns, [row], tmp_path / "expected.csv", "csv")
    assert (tmp_path / "cz-pulse.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    manifest = json.loads((tmp_path / "cz-pulse_manifest.json").read_text())
    assert manifest["diagnostics"] == {
        "iterations": rep.iterations, "converged": rep.converged, "rejected": rep.rejected,
        "evaluations": rep.evaluations, "steps": rep.steps, "step_error": rep.step_error,
    }
    assert rep.evaluations > rep.iterations > 0


def test_error_curve_failures_reach_the_manifest(tmp_path, monkeypatch):
    # a point whose trajectory cannot be built reads NaN in the data file
    # and is named, with the reason, in the manifest
    stretch = SampledTrajectory.with_t_p

    def failing(traj, t_p):
        if abs(t_p - 1.5 * np.pi) < 1e-9:
            raise ValueError("no trajectory here")
        return stretch(traj, t_p)

    monkeypatch.setattr(SampledTrajectory, "with_t_p", failing)
    cfg = write_config(tmp_path, {
        "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3, "theta_f_rad": 2.2,
        "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0, "n_points": 3,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert list(np.isnan(data[:, 2])) == [False, True, False]
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    assert manifest["diagnostics"] == {"failures": [[1, "ValueError: no trajectory here"]]}


def test_remapped_curve_remaps_its_shape_once(tmp_path, monkeypatch):
    # the 60 durations stretch one unit-duration remap, and every point is
    # the per-duration remapped trajectory's value, bitwise
    calls = []
    build = remap.build_remap

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(remap, "build_remap", counting)
    cfg = write_config(tmp_path, {
        "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3, "theta_f_rad": 2.2,
        "remap": True, "t_p_min_over_Tx": 0.8, "t_p_max_over_Tx": 1.5, "n_points": 60,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    _, data = load_table(tmp_path / "error-curve.csv")
    w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
    assert [geometric_error(remapped_trajectory(w, t_p, n_samples=2048)).p_e
            for t_p in data[:, 1]] == list(data[:, 2])


def test_sampled_curve_samples_its_shape_once(tmp_path, monkeypatch):
    # without the remap the 60 durations stretch one unit-duration sample;
    # each point is that stretch's value, bitwise, and per-duration
    # sampling's up to rounding
    calls = []
    sample = cli.sample_trajectory

    def counting(w, n_samples):
        calls.append(w.t_p)
        return sample(w, n_samples)

    monkeypatch.setattr(cli, "sample_trajectory", counting)
    cfg = write_config(tmp_path, {
        "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3, "theta_f_rad": 2.2,
        "t_p_min_over_Tx": 0.8, "t_p_max_over_Tx": 1.5, "n_points": 60,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == [1.0]
    _, data = load_table(tmp_path / "error-curve.csv")
    w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
    unit = sample_trajectory(w, 2048)
    assert [geometric_error(unit.with_t_p(t_p)).p_e for t_p in data[:, 1]] == list(data[:, 2])
    per_duration = [geometric_error(sample_trajectory(w.with_t_p(t_p), 2048)).p_e
                    for t_p in data[:, 1]]
    assert np.max(np.abs(data[:, 2] - per_duration)) <= 1e-14


def test_sampled_curve_failures_reach_the_manifest(tmp_path):
    # the shape of the remapped case below, sampled: the sample is refused,
    # not clamped, so every point reads NaN with the refusal once per point
    cfg = write_config(tmp_path, {
        "basis": "theta", "coefficients_lambda": [0.25, -0.5], "theta_i_rad": 0.3,
        "theta_f_rad": 0.8, "remap": False, "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0,
        "n_points": 3,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(np.isnan(data[:, 2]))
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    reason = "ValueError: theta must stay inside (0, pi)"
    assert manifest["diagnostics"] == {"failures": [[i, reason] for i in range(3)]}


def test_remapped_curve_failures_reach_the_manifest(tmp_path):
    # the shape dips below theta = 0, so its remap fails: every point reads
    # NaN and the manifest names the remap's error once per point
    cfg = write_config(tmp_path, {
        "basis": "theta", "coefficients_lambda": [0.25, -0.5], "theta_i_rad": 0.3,
        "theta_f_rad": 0.8, "remap": True, "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0,
        "n_points": 3,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(np.isnan(data[:, 2]))
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    reason = "ValueError: theta(tau) must stay strictly inside (0, pi)"
    assert manifest["diagnostics"] == {"failures": [[i, reason] for i in range(3)]}


def test_drag_sweep_two_level_area_theorem(tmp_path):
    n, t_p = 128, 2.5
    cfg = write_config(
        tmp_path, {"drag_d_list": [0.0], "levels": 2, "n_envelope_samples": n}
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["drag-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "drag-sweep.csv").read_bytes())
    assert outs[0] == outs[1]
    cols, data = load_table(tmp_path / "a" / "drag-sweep.csv")
    row = dict(zip(cols, data[0]))
    t = np.linspace(0.0, t_p, n)
    area = np.trapezoid(1.0 - np.cos(2.0 * np.pi * t / t_p), t)
    assert row["amplitude_rad_per_time"] == pytest.approx(np.pi / area, rel=1e-6)
    assert row["converged"] == 1.0
    # the manifest holds the optimizer status and the reached error per D
    manifest = json.loads((tmp_path / "a" / "drag-sweep_manifest.json").read_text())
    assert manifest["diagnostics"] == {
        "optimizer_success": [True], "qubit_subspace_error": [row["qubit_subspace_error"]],
    }


def test_lz_sweep_tracks_formula(tmp_path):
    cfg = write_config(
        tmp_path,
        {"rate_min_hx2": 0.3, "rate_max_hx2": 0.5, "n_points": 3, "n_samples": 2049},
    )
    assert main(["lz-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cols, data = load_table(tmp_path / "lz-sweep.csv")
    assert cols == ["ramp_rate_hx2", "p_e_exact", "p_e_formula"]
    assert data[:, 1] == pytest.approx(data[:, 2], rel=0.15)
    # the manifest sums the steps and keeps the worst step error estimate
    results = [evolve_two_level_direct(linear_ramp_trajectory(10.0, rate, 2049))
               for rate in data[:, 0]]
    assert [r.p_e for r in results] == list(data[:, 1])
    manifest = json.loads((tmp_path / "lz-sweep_manifest.json").read_text())
    assert manifest["diagnostics"] == {
        "steps": sum(r.steps for r in results),
        "step_error": max(r.step_error for r in results),
    }


def test_exact_error_curve_reports_its_step_work(tmp_path):
    cfg = write_config(tmp_path, {
        "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3, "theta_f_rad": 2.2,
        "remap": True, "evaluator": "exact", "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0,
        "n_points": 3, "n_samples": 512,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    # the manifest sums the steps and keeps the worst step error estimate
    w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
    results = [evolve_two_level_direct(remapped_trajectory(w, t_p, n_samples=512))
               for t_p in data[:, 1]]
    assert [r.p_e for r in results] == list(data[:, 2])
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    assert manifest["diagnostics"] == {
        "failures": [],
        "steps": sum(r.steps for r in results),
        "step_error": max(r.step_error for r in results),
    }


def test_json_format_payload(tmp_path):
    cfg = write_config(
        tmp_path,
        {"coefficients_lambda": [[1.0866, -0.0866]], "n_points": 5,
         "u_min_cycles": 0.2, "u_max_cycles": 3.0},
    )
    assert main([
        "psd-windows", "--config", str(cfg), "--out", str(tmp_path),
        "--format", "json",
    ]) == 0
    payload = json.loads((tmp_path / "psd-windows.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["columns"][0] == "u_cycles"
    assert len(payload["rows"]) == 5
