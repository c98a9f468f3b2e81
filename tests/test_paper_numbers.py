import json

import pytest

from paper_numbers import CONFIGS, RECORD, mismatches, run_config

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
