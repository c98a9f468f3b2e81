"""Self-test of the benchmark, at the reduced sizes of ``--small``.

    python3 -m pytest bench/test_bench.py -q

Run twice with one seed, a workload must give identical layer counts
(calls, failures, objective points, rejections, iterations, samples); run
with another seed it must pass every check.  Without the package next to it
the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().with_name("run.py")
ROOT = RUN.parent.parent
WORKLOADS = ("linear_design", "exact_dynamics", "exact_search", "leakage_calibration")


def bench(workload, seed, trace, cwd=ROOT, run=RUN):
    # a few seconds give the short workloads several traced passes, whose
    # counts must agree; the long ones still run one pass of each kind
    return subprocess.run(
        [sys.executable, str(run), "--workload", workload, "--seed", str(seed),
         "--seconds", str(3 * trace), "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(res):
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    first = result(workload, 0, 1)
    second = result(workload, 0, 1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["bench.job.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_passes_every_check(workload):
    res = result(workload, 1, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"run_s", "setup_s", "job_p50_s", "job_p90_s",
                                   "ok_ratio", "peak_rss_mb"}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name)
    proc = bench("exact_dynamics", 0, 0, cwd=tmp_path, run=tmp_path / RUN.parent.name / RUN.name)
    assert proc.returncode != 0
    assert proc.stdout == ""
