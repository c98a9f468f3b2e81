import copy
import json

import numpy as np
import pytest

from adiabatz import dynamics
from adiabatz.dynamics import evolve_two_level_direct, remapped_p_e
from adiabatz.remap import remapped_trajectory
from adiabatz.waveform import derivative_waveform, theta_waveform
from paper_numbers import CONFIGS, RECORD, diff, mismatches, moves, run_config

record = json.loads(RECORD.read_text())["configs"]


def test_record_covers_every_experiment_and_config():
    from adiabatz.cli import EXPERIMENTS

    assert set(record) == set(CONFIGS)
    assert {CONFIGS[name][0] for name in CONFIGS} == set(EXPERIMENTS)
    assert all(record[name]["config"] == CONFIGS[name][1] for name in CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_paper_numbers(name):
    # the CLI's data and work counts for each config are the recorded ones
    # (exact P_e within twice its step error estimate)
    assert mismatches(run_config(name), record[name]) == []


@pytest.mark.parametrize("name", ["error-curve-exact", "error-curve-theta"])
def test_remapped_exact_curves_meet_their_error_bars(name, monkeypatch):
    # every recorded point lies within twice the recorded step error of the
    # kernel at four times its rule, and the lab pipeline at 32768 samples,
    # whose remap error is below 1e-6 relative, agrees at the first, middle
    # and last durations
    entry = record[name]
    params = entry["config"]
    build = {"derivative": derivative_waveform, "theta": theta_waveform}[params["basis"]]
    w = build(params["coefficients_lambda"], 1.0, params["theta_i_rad"], params["theta_f_rad"])
    _, t_ps, p_e = np.array(entry["rows"]).T
    for i in (0, len(t_ps) // 2, len(t_ps) - 1):
        lab = evolve_two_level_direct(remapped_trajectory(w, t_ps[i], n_samples=32768))
        assert abs(lab.p_e - p_e[i]) <= 1e-6 * p_e[i]
    rule = dynamics._fixed_step_count
    monkeypatch.setattr(dynamics, "_fixed_step_count", lambda *args: 4 * rule(*args))
    ref = remapped_p_e(w.mode, w.coefficients[None], w.theta_i, t_ps).p_e[0]
    assert np.all(np.abs(p_e - ref) <= 2.0 * entry["diagnostics"]["step_error"] + 1e-15)


def test_diff_names_each_move(capsys):
    # the cheap rect curve against its own entry, then against a copy with
    # one value nudged and a count it does not have
    want = record["error-curve-rect"]
    got = run_config("error-curve-rect")
    assert moves(got, want) == []
    diff(["error-curve-rect"])
    assert capsys.readouterr().out == "error-curve-rect: no moves\n"
    nudged = copy.deepcopy(want)
    nudged["rows"][7][1] *= 1.0 + 1e-9
    nudged["diagnostics"]["steps"] = 12
    nudged["data_sha256"] = "0" * 64
    move = abs(nudged["rows"][7][1] - want["rows"][7][1])
    relative = move / nudged["rows"][7][1]
    assert moves(got, nudged) == [
        "steps 12 -> None",
        "data_sha256 changed",
        f"p_e_linearized: {move:.3g} absolute (row 7), {relative:.3g} relative (row 7)",
    ]


def test_diff_tells_a_script_whether_anything_moved(tmp_path, monkeypatch, capsys):
    # --diff exits with 1 when diff() is true, a config having moved against
    # the record, and with 0 on "no moves"
    import paper_numbers

    assert diff(["error-curve-rect"]) is False
    nudged = copy.deepcopy(json.loads(RECORD.read_text()))
    nudged["configs"]["error-curve-rect"]["diagnostics"]["steps"] = 12
    (tmp_path / "record.json").write_text(json.dumps(nudged))
    monkeypatch.setattr(paper_numbers, "RECORD", tmp_path / "record.json")
    assert diff(["error-curve-rect"]) is True
    assert capsys.readouterr().out.endswith("error-curve-rect: steps 12 -> None\n")
