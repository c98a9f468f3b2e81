import hashlib
import json

import numpy as np
import pytest

from adiabatz import cli
from adiabatz.cli import ValidationError, export_table, load_table, main
from adiabatz.dynamics import evolve_two_level_direct
from adiabatz.optimize import optimize_cz_pulse
from adiabatz.remap import remapped_trajectory
from adiabatz.waveform import derivative_waveform, linear_ramp_trajectory


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


def test_unknown_parameter_rejected(tmp_path):
    cfg = write_config(tmp_path, {"coefficients_lambda": [[1.0]], "n_pionts": 5})
    rc = main(["psd-windows", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


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
    sample = cli.sample_trajectory

    def failing(w, n_samples):
        if abs(w.t_p - 1.5 * np.pi) < 1e-9:
            raise ValueError("no trajectory here")
        return sample(w, n_samples)

    monkeypatch.setattr(cli, "sample_trajectory", failing)
    cfg = write_config(tmp_path, {
        "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3, "theta_f_rad": 2.2,
        "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0, "n_points": 3,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert list(np.isnan(data[:, 2])) == [False, True, False]
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    assert manifest["diagnostics"] == {"failures": [[1, "ValueError: no trajectory here"]]}


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
