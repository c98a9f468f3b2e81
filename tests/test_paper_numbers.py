import copy
import json

import pytest

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
