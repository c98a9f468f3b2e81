import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from adiabatz import adiabatic_error, cli, dynamics, optimize, remap
from adiabatz.adiabatic_error import geometric_error
from adiabatz.cli import ValidationError, export_table, load_table, main
from adiabatz.dynamics import STEP_ATOL, STEP_RTOL, evolve_two_level_direct, remapped_p_e
from adiabatz.optimize import basis_transform, optimal_window, optimize_cz_pulse
from adiabatz.remap import remapped_trajectory
from adiabatz.waveform import (
    SampledTrajectory,
    derivative_waveform,
    eval_fourier,
    linear_ramp_trajectory,
    sample_trajectory,
    theta_waveform,
)
from paper_numbers import CONFIGS


README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, params, name="config.json"):
    # a string is written as it is, to give a file that is not JSON
    path = tmp_path / name
    path.write_text(params if isinstance(params, str) else json.dumps(params))
    return path


def test_validation_failure_writes_nothing(tmp_path):
    cfg = write_config(tmp_path, {"coefficients_lambda": []})
    out = tmp_path / "out"
    rc = main(["psd-windows", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


FOURIER_CURVE = {"coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3,
                 "theta_f_rad": 2.2, "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0}
EXCURSION = {"theta_i_rad": 0.1, "theta_f_rad": 0.8, "n_coeffs": 2, "max_iterations": 2}


@pytest.mark.parametrize(
    "experiment, params, key",
    [
        ("psd-windows", {"coefficients_lambda": [[1.0]], "n_pionts": 5}, "n_pionts"),
        # a key of the fourier branch is unknown to the closed-form one, and back
        ("error-curve", {"window": "rect", "basis": "theta"}, "basis"),
        ("error-curve", {**FOURIER_CURVE, "delta_theta_rad": 1.0}, "delta_theta_rad"),
        # the constant-gap kernel scores a remapped exact curve without samples
        ("error-curve", {**FOURIER_CURVE, "remap": True, "evaluator": "exact", "n_samples": 512},
         "n_samples"),
        ("lz-sweep", {"rate_min_hx2": 0.3, "rate_max_hx2": 0.5, "rate": 1.0}, "rate"),
        # the rates are always geometric
        ("lz-sweep", {"rate_min_hx2": 0.3, "rate_max_hx2": 0.5, "log_spacing": False},
         "log_spacing"),
        ("cz-pulse", {"theta_i_rad": 0.3, "theta_f_rad": 0.3, "n_coeffs": 2, "sigma": 0.1},
         "sigma"),
        ("table1", {"n_m_list": [2], "cutoff": 2.3}, "cutoff"),
        ("drag-sweep", {"levels": 2, "n_envelope_sample": 8}, "n_envelope_sample"),
        # no experiment reads a seed
        ("cz-pulse", {**EXCURSION, "seed": 1}, "seed"),
    ],
    ids=["psd-windows", "error-curve-rect", "error-curve-fourier", "error-curve-kernel",
         "lz-sweep", "lz-sweep-log-spacing", "cz-pulse", "table1", "drag-sweep", "seed"],
)
def test_unknown_parameter_rejected(tmp_path, capsys, experiment, params, key):
    # the keys left after an experiment's reads are refused before it computes
    cfg = write_config(tmp_path, params)
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
        # a negative seed used to reach the search, or the manifest; a seed
        # is now unknown on every path, the search's and the no-search one's
        ("table1", {"n_m_list": [2], "seed": -5}, "table1: unknown parameter(s): seed\n"),
        ("cz-pulse", {**EXCURSION, "n_coeffs": 1, "seed": -1},
         "cz-pulse: unknown parameter(s): seed\n"),
        ("cz-pulse", {**EXCURSION, "seed": -1}, "cz-pulse: unknown parameter(s): seed\n"),
        ("error-curve", {**FOURIER_CURVE, "coefficients_lambda": [1.0, -1.0]},
         "coefficients_lambda: normalized coefficients must have nonzero sum\n"),
        ("error-curve", {**FOURIER_CURVE, "basis": "theta", "coefficients_lambda": [0.3],
                         "theta_f_rad": 0.8},
         "coefficients_lambda: endpoint constraint violated"),
        ("error-curve", {**FOURIER_CURVE, "theta_i_rad": 4.0},
         "theta_i_rad: must be < 3.141592653589793, got 4.0\n"),
        ("error-curve", {**FOURIER_CURVE, "remap": "yes"},
         "remap: must be true or false, got 'yes'\n"),
        ("cz-pulse", {**EXCURSION, "t_p_window_over_Tx": [2, 1]},
         "t_p_window_over_Tx: must be [lo, hi] with 0 < lo <= hi\n"),
        ("cz-pulse", {**EXCURSION, "t_p_window_over_Tx": [1]},
         "t_p_window_over_Tx: must be a list with at least 2 entries\n"),
        ("lz-sweep", {"rate_max_hx2": 0.5}, "rate_min_hx2: required parameter missing\n"),
        ("psd-windows", {"coefficients_lambda": [[1.0]], "n_points": 2.5},
         "n_points: must be an integer, got 2.5\n"),
        ("psd-windows", {"coefficients_lambda": [[1.0]], "n_points": 1},
         "n_points: must be >= 2, got 1\n"),
        ("table1", {"n_m_list": [0]}, "n_m_list: must be a non-empty list of integers >= 1\n"),
        # the first n_m whose resonance the band grid's stride cannot resolve
        ("table1", {"n_m_list": [2, 100]}, "n_m_list: n_m must be <= 99 at cutoff 2.3: "),
        ("table1", {"n_m_list": [93], "cutoff_cycles": 0.5},
         "n_m_list: n_m must be <= 92 at cutoff 0.5: "),
        ("drag-sweep", {"delta_rad_per_time": 0}, "delta_rad_per_time: must be nonzero\n"),
        ("drag-sweep", {"levels": 4}, "levels: must be 2 or 3, got 4\n"),
        ("psd-windows", {"coefficients_lambda": [[1.0]], "labels": ["a", "b"]},
         "labels: must be one short alphanumeric label per coefficient list\n"),
        ("table1", "{", "config is not valid JSON: "),
        ("table1", [1, 2], "config must be a JSON object\n"),
    ],
    ids=["huge-number", "huge-list-entry", "overflowing-sum", "list-for-name", "repeated-label",
         "rect-label", "repeated-label-without-rect", "bad-value-and-unknown-key",
         "negative-seed", "negative-seed-one-coefficient", "negative-seed-search",
         "zero-sum-coefficients", "missed-endpoint", "theta-outside-range", "remap-not-bool",
         "reversed-window", "one-entry-window", "missing-rate", "fractional-count",
         "one-point", "zero-term-count", "terms-past-the-grid", "terms-past-the-grid-at-0.5",
         "zero-anharmonicity", "four-levels",
         "labels-per-list", "invalid-json", "json-list"],
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
    params = {"n_m_list": [2], "cutoff_cycles": 3.0}
    config = cli.RunConfig("table1", params, tmp_path, "csv", "0" * 64)
    data = []
    for _ in range(2):
        data.append(cli.run(config)[0].read_bytes())
        assert config.parameters == {"n_m_list": [2], "cutoff_cycles": 3.0}
    assert data[0] == data[1]
    assert data[0].splitlines()[0] == b"n_m,objective_rad2,lambda_1,lambda_2"


def test_run_refuses_a_seed_among_the_parameters(tmp_path):
    # a seed in the parameters was accepted and had no effect; no
    # experiment reads one, so it is an unknown key
    params = {"n_m_list": [2], "cutoff_cycles": 3.0, "seed": 7}
    config = cli.RunConfig("table1", params, tmp_path / "out", "csv", "0" * 64)
    with pytest.raises(ValidationError, match=r"^table1: unknown parameter\(s\): seed$"):
        cli.run(config)
    assert not (tmp_path / "out").exists()


def test_seed_flag_is_refused(tmp_path, capsys):
    # the command takes no seed: the parser refuses the flag, writing nothing
    cfg = write_config(tmp_path, {"n_m_list": [2]})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--config", str(cfg), "--out", str(out), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, fmt, message",
    [
        ("table2", "csv", "unknown experiment 'table2'"),
        ("table1", "xml", "format: must be csv or json, got 'xml'"),
    ],
    ids=["experiment", "format"],
)
def test_run_refuses_a_bad_run_config(tmp_path, experiment, fmt, message):
    # the library entry point checks what main's parser would have refused
    config = cli.RunConfig(experiment, {"n_m_list": [2]}, tmp_path / "out", fmt, "0" * 64)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cli.run(config)
    assert not (tmp_path / "out").exists()


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


def test_readme_usage_line_names_the_parser_options(capsys):
    # the usage line cannot keep a removed flag, or miss a new one
    (usage,) = re.findall(r"^adiabatz <experiment> --config .*$", README.read_text(), re.M)
    with pytest.raises(SystemExit):
        main(["--help"])
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[a-z-]+", usage)) == options


def test_readme_error_curve_is_the_recorded_one():
    # the headline curve's recorded numbers are those of the documented config
    assert readme_examples()[-1] == ("error-curve", CONFIGS["error-curve-exact"][1])


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


@pytest.mark.parametrize("window", ["rect", "hanning"])
def test_closed_form_curves_clip_at_one(tmp_path, window):
    # at delta_theta 3 the closed forms reach 2.2; a probability stops at 1,
    # as geometric_error's does, and every smaller value is the closed form's
    cfg = write_config(tmp_path, {"window": window, "delta_theta_rad": 3.0})
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    u = np.linspace(0.1, 10.0, 500)
    shape = np.sinc(u) if window == "rect" else cli.basis_transform(u, 1, cli.BasisMode.DERIVATIVE)
    closed = 9.0 / 4.0 * shape**2
    assert np.sum(closed > 1.0) >= 19
    assert list(data[:, 1]) == list(np.where(closed > 1.0, 1.0, closed))


def test_table1_two_term_row(tmp_path):
    cfg = write_config(tmp_path, {"n_m_list": [2]})
    assert main(["table1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    cols, data = load_table(tmp_path / "table1.csv")
    row = dict(zip(cols, data[0]))
    assert row["lambda_1"] == pytest.approx(1.0866, abs=0.005)
    assert row["lambda_2"] == pytest.approx(-0.0866, abs=0.005)
    # the closed-form solve has no iteration count or convergence flag
    assert cols == ["n_m", "objective_rad2", "lambda_1", "lambda_2"]


@pytest.mark.parametrize("n_m_list, cutoff", [([2, 4, 10], 2.3), ([1, 2, 3, 4], 2.75)])
def test_table1_builds_one_basis_and_keeps_optimal_window_bits(tmp_path, monkeypatch,
                                                              n_m_list, cutoff):
    # the basis of the largest n_m serves every row: 10 and 4 columns, where
    # one basis a row took 16 and 10
    columns = []
    transform = optimize.basis_transform

    def counting(u, n, mode):
        columns.append(np.size(n))
        return transform(u, n, mode)

    with monkeypatch.context() as m:
        m.setattr(optimize, "basis_transform", counting)
        cfg = write_config(tmp_path, {"n_m_list": n_m_list, "cutoff_cycles": cutoff})
        assert main(["table1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert sum(columns) == max(n_m_list)
    _, data = load_table(tmp_path / "table1.csv")
    for row, n_m in zip(data, n_m_list):
        lam, power = optimal_window(n_m, cutoff)
        assert list(row[1 : n_m + 2]) == [power, *lam]


def test_table1_cutoff_out_of_range_is_a_config_error(tmp_path, capsys):
    # the spectral grid ends at 400 cycles, so the objective refuses a
    # cutoff of 395 or more; that is the config's fault, not a numerical one
    cfg = write_config(tmp_path, {"n_m_list": [2], "cutoff_cycles": 395})
    out = tmp_path / "out"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cutoff_cycles: ")
    assert not out.exists()


def test_manifest_records_config_hash(tmp_path):
    cfg = write_config(tmp_path, {"n_m_list": [1]})
    assert main(["table1", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "table1_manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert "seed" not in manifest  # no experiment reads one
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
    assert main(["cz-pulse", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = optimize_cz_pulse(0.1, 0.55 * np.pi / 2, 2, 0.0, max_iterations=10)
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


@pytest.mark.parametrize("shape", [
    {"basis": "derivative", "coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.3,
     "theta_f_rad": 2.2, "t_p_min_over_Tx": 0.8, "t_p_max_over_Tx": 1.5},
    {"basis": "theta", "coefficients_lambda": [0.36, 0.02, -0.01], "theta_i_rad": 0.1,
     "theta_f_rad": 0.8, "t_p_min_over_Tx": 0.9, "t_p_max_over_Tx": 2.2},
], ids=["derivative", "theta"])
def test_remapped_linearized_curve_is_its_closed_form(tmp_path, monkeypatch, shape):
    # the column is min(|sum_n lam_n R_n(s)|^2 / 4, 1) at the frame duration
    # s = t_p / (T_x <sin theta>) in cycles, <sin theta> the remap's Simpson
    # rule on n_samples points of the shape and the midpoints between them,
    # and no remap is built
    def refused(*args, **kwargs):
        raise AssertionError("a remap was built")

    with monkeypatch.context() as m:
        m.setattr(remap, "invert_remap", refused)
        cfg = write_config(tmp_path, {**shape, "remap": True, "n_points": 60})
        assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    build = {"derivative": derivative_waveform, "theta": theta_waveform}[shape["basis"]]
    w = build(shape["coefficients_lambda"], 1.0, shape["theta_i_rad"], shape["theta_f_rad"])
    u = np.linspace(0.0, 1.0, 2 * 2048 - 1)
    theta, _ = eval_fourier(w, u)
    s = data[:, 1] / (np.pi * simpson(np.sin(theta), x=u))
    profile = sum(c * basis_transform(s, n, w.mode) for n, c in enumerate(w.coefficients, 1))
    closed = np.minimum(profile**2 / 4.0, 1.0)
    assert np.max(np.abs(data[:, 2] - closed)) <= 1e-15
    # the lab pipeline converges to it at second order, that of the
    # linearized evaluator's trapezoids on the exact samples: 2.2e-7 and
    # 1.4e-8 off at 2048 and 8192 samples (derivative), 8.9e-7 and 5.5e-8
    # (theta)
    off = [np.max(np.abs([geometric_error(remapped_trajectory(w, t_p, n_samples=n))
                          for t_p in data[:, 1]] - closed)) for n in (2048, 8192)]
    assert off[1] <= off[0] / 10.0 and off[1] <= 1e-7


def test_remapped_linearized_curve_fails_an_overflowing_profile(tmp_path):
    # a 30th harmonic vanishes at all 16 samples (1 - cos rounds to 0 there),
    # so a shape with 1e305 on it stays inside (0, pi), but its spectral
    # profile overflows: every point fails with the overflow, where a
    # RuntimeWarning and a clipped P_e of 1 would be written
    cfg = write_config(tmp_path, {
        "basis": "theta", "coefficients_lambda": [0.35] + [0.0] * 28 + [1e305],
        "theta_i_rad": 0.1, "theta_f_rad": 0.8, "remap": True, "t_p_min_over_Tx": 1.0,
        "t_p_max_over_Tx": 2.0, "n_points": 3, "n_samples": 16,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(np.isnan(data[:, 2]))
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    reason = "FloatingPointError: overflow encountered in square"
    assert manifest["diagnostics"] == {"failures": [[i, reason] for i in range(3)]}


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
    assert [geometric_error(unit.with_t_p(t_p)) for t_p in data[:, 1]] == list(data[:, 2])
    per_duration = [geometric_error(sample_trajectory(w.with_t_p(t_p), 2048))
                    for t_p in data[:, 1]]
    assert np.max(np.abs(data[:, 2] - per_duration)) <= 1e-14


def test_error_curve_takes_cancelling_normalized_coefficients(tmp_path):
    # rescaled to theta_f - theta_i, [1e6, -999999] sum back to it only to
    # 1.4e-10, past CONSTRAINT_TOL: the config exited 2; now the shape is
    # built, and each point fails on sampling it, as its angle leaves (0, pi)
    cfg = write_config(tmp_path, {**FOURIER_CURVE, "coefficients_lambda": [1e6, -999999.0],
                                  "n_points": 3})
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    reason = "ValueError: theta must stay inside (0, pi)"
    assert manifest["diagnostics"] == {"failures": [[i, reason] for i in range(3)]}


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
    # the shape dips below theta = 0, so the closed form refuses it: every
    # point reads NaN and the manifest names the refusal once per point
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


def test_exact_remapped_curve_failures_reach_the_manifest(tmp_path):
    # the shape above, scored by the kernel, which masks it: every point
    # reads NaN with the remap's reason, and no point's steps are counted
    cfg = write_config(tmp_path, {
        "basis": "theta", "coefficients_lambda": [0.25, -0.5], "theta_i_rad": 0.3,
        "theta_f_rad": 0.8, "remap": True, "evaluator": "exact", "t_p_min_over_Tx": 1.0,
        "t_p_max_over_Tx": 2.0, "n_points": 3,
    })
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(np.isnan(data[:, 2]))
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    reason = "ValueError: theta(tau) must stay strictly inside (0, pi)"
    assert manifest["diagnostics"] == {
        "failures": [[i, reason] for i in range(3)], "steps": 0, "step_error": None,
    }


def test_exact_remapped_curve_past_the_step_cap_fails_every_point(tmp_path, monkeypatch):
    # the kernel refuses its pilot grid before building it; the curve is
    # written, NaN at every point, with the refusal once per point
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 10)
    cfg = write_config(tmp_path, {**FOURIER_CURVE, "remap": True, "evaluator": "exact",
                                  "n_points": 3})
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, data = load_table(tmp_path / "error-curve.csv")
    assert np.all(np.isnan(data[:, 2]))
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    (reason,) = {reason for _, reason in manifest["diagnostics"]["failures"]}
    assert re.fullmatch(r"ValueError: step count \d+ exceeds the cap of 10", reason)
    assert manifest["diagnostics"] == {
        "failures": [[i, reason] for i in range(3)], "steps": 0, "step_error": None,
    }


OVERFLOW = "FloatingPointError: overflow encountered in square"


@pytest.mark.parametrize("experiment, params, code, expected", [
    # a sampled point 1e-300 T_x long overflows the lab spline: its nan
    # norm drift is refused, where P_e, drift and step error read nan
    ("error-curve", {"coefficients_lambda": [1.0, 0.1], "theta_i_rad": 0.2, "theta_f_rad": 0.8,
                     "evaluator": "exact", "t_p_min_over_Tx": 1e-300, "t_p_max_over_Tx": 1.0,
                     "n_points": 2},
     0, [[0, "RuntimeError: norm drift nan exceeds 1e-09"]]),
    # the closed form reads theta alone: the 30th harmonic's rate overflowed,
    # unread, before its profile failed every point
    ("error-curve", {"basis": "theta", "coefficients_lambda": [0.35] + [0.0] * 28 + [1e307],
                     "theta_i_rad": 0.1, "theta_f_rad": 0.8, "remap": True,
                     "t_p_min_over_Tx": 1.0, "t_p_max_over_Tx": 2.0, "n_points": 3,
                     "n_samples": 16},
     0, [[i, OVERFLOW] for i in range(3)]),
    ("error-curve", {**FOURIER_CURVE, "coefficients_lambda": [1e308, 1e308, -1e308]},
     2, "error: coefficients_lambda: normalized coefficients must have a finite sum, got inf\n"),
    # the fit's final evaluation refuses its nan figure (levels 2); the
    # seed's drive is refused by its spline (levels 3)
    ("drag-sweep", {"t_p_time": 1e-200, "levels": 2},
     3, "numerical failure: qubit-subspace error nan at the fit\n"),
    ("drag-sweep", {"t_p_time": 1e-200, "levels": 3},
     3, "numerical failure: interpolation knots and values must be finite\n"),
], ids=["sampled-exact-tiny-duration", "theta-rate-overflow", "overflowing-sum",
        "drag-levels2-tiny-duration", "drag-levels3-tiny-duration"])
def test_overflow_gives_its_exit_code_and_no_warning(
    tmp_path, capsys, experiment, params, code, expected
):
    # each warned and then wrote nan, exited 0 with a misleading message, or
    # under -W error ended in a traceback; a numpy warning fails this test
    # (filterwarnings = error).  Exit 0 names the failed points in the
    # manifest, 2 and 3 write nothing
    cfg = write_config(tmp_path, params)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == expected
        assert not out.exists()
    else:
        manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
        assert manifest["diagnostics"]["failures"] == expected


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


def test_lz_sweep_past_the_step_cap_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # the run is refused at its first propagation, before its arrays exist,
    # and nothing is written
    monkeypatch.setattr(dynamics, "_MAX_STEPS", 1000)
    cfg = write_config(tmp_path, {"rate_min_hx2": 0.3, "rate_max_hx2": 0.5, "n_points": 3})
    out = tmp_path / "out"
    assert main(["lz-sweep", "--config", str(cfg), "--out", str(out)]) == 3
    pilot = -(-dynamics._n_steps(linear_ramp_trajectory(10.0, 0.3, 4097), None)
              // dynamics.PILOT_DIVISOR)
    assert capsys.readouterr().err == (
        f"numerical failure: step count {pilot} exceeds the cap of 1000\n"
    )
    assert not out.exists()


def test_cz_pulse_past_the_kernel_step_cap_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a window of 1e7 T_x asks the constant-gap kernel for a rule of over
    # 1e9 steps; its pilot is refused before its nodes are built, and nothing is
    # written
    rules = []
    richardson = dynamics._richardson

    def recording(run, n_rule, *args):
        rules.append(n_rule)
        return richardson(run, n_rule, *args)

    monkeypatch.setattr(dynamics, "_richardson", recording)
    cfg = write_config(tmp_path, {
        "theta_i_rad": 0.1, "theta_f_rad": 0.8, "n_coeffs": 2, "t_p_window_over_Tx": [1e7, 1e7],
    })
    out = tmp_path / "out"
    assert main(["cz-pulse", "--config", str(cfg), "--out", str(out)]) == 3
    (n_rule,) = rules
    pilot = -(-n_rule // dynamics.TAU_PILOT_DIVISOR)
    assert n_rule > 1e9 and pilot > dynamics._MAX_STEPS
    assert capsys.readouterr().err == (
        f"numerical failure: step count {pilot} exceeds the cap of {dynamics._MAX_STEPS}\n"
    )
    assert not out.exists()


def test_cz_pulse_rounding_past_the_step_cap_rejects_every_candidate(tmp_path, capsys):
    # a width of 1e5 T_x asked for an 8 GiB rounding kernel per candidate and
    # ended in a MemoryError traceback; each candidate is now refused before
    # its arrays are built, and a search that scored none of them is a
    # numerical failure, not a row with max_p_e 1.0
    cfg = write_config(tmp_path, {
        "theta_i_rad": 0.1, "theta_f_rad": 0.8, "n_coeffs": 2, "sigma_over_Tx": 1e5,
        "max_iterations": 2,
    })
    assert main(["cz-pulse", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "candidates were rejected" in capsys.readouterr().err
    assert not (tmp_path / "cz-pulse.csv").exists()


@pytest.mark.parametrize("evaluator", ["exact", "linearized"])
def test_exact_error_curve_reports_its_step_work(tmp_path, monkeypatch, evaluator):
    # a remapped exact curve is one constant-gap kernel call over its
    # durations, a remapped linearized one its closed form: neither builds
    # a lab trajectory, scores or propagates one
    calls = []

    def counting(*args):
        calls.append(args)
        return remapped_p_e(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the lab pipeline was called")

    monkeypatch.setattr(cli, "remapped_p_e", counting)
    monkeypatch.setattr(remap, "remapped_trajectory", refused)
    monkeypatch.setattr(adiabatic_error, "geometric_error", refused)
    monkeypatch.setattr(adiabatic_error, "evolve_two_level_direct", refused)
    cfg = write_config(tmp_path, {**FOURIER_CURVE, "remap": True, "evaluator": evaluator,
                                  "n_points": 3})
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "error-curve_manifest.json").read_text())
    if evaluator == "linearized":
        assert calls == [] and manifest["diagnostics"] == {"failures": []}
        return
    assert len(calls) == 1
    _, data = load_table(tmp_path / "error-curve.csv")
    # each point is the kernel's, bitwise; the manifest counts chains x
    # steps and keeps the row's worst step error estimate
    w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
    result = remapped_p_e(w.mode, w.coefficients[None], 0.3, data[:, 1], STEP_ATOL, STEP_RTOL)
    assert list(result.p_e[0]) == list(data[:, 2])
    assert manifest["diagnostics"] == {
        "failures": [],
        "steps": 3 * result.steps,
        "step_error": float(np.max(result.step_error)),
    }


@pytest.mark.parametrize("remap, evaluator", [(True, "linearized"), (False, "linearized"),
                                              (False, "exact")])
def test_sampled_error_curves_read_n_samples(tmp_path, remap, evaluator):
    # every error-curve path but the kernel's takes the count: the sampled
    # curves sample their shape, the remapped linearized one integrates
    # <sin theta> over that many points
    cfg = write_config(tmp_path, {**FOURIER_CURVE, "remap": remap, "evaluator": evaluator,
                                  "n_points": 2, "n_samples": 64})
    assert main(["error-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 0


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
