"""adiabatz benchmark: time to a verified result, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The process runs single-threaded: the BLAS/OpenMP thread counts are pinned
to 1 before numpy is imported.

A run builds the workload's job list from the seed, sets up (import, inputs,
one warm-up job), then repeats passes over the job list while the next pass
still fits in ``--seconds``; a pass is one full job list with every answer
checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from
spans taken around the public functions of each module, plus the tracing
overhead (traced minus untraced pass time).  All times are normalized to
the machine speed measured alongside (see clock.py).  The last line of standard output is one JSON object; a
fuller record, with raw times and the spans, goes to ``.bench_results/``.
"""

import os

# before numpy is imported, here and in the set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOADS = ("linear_design", "exact_dynamics", "exact_search", "leakage_calibration")
SETUP_CHILDREN = 5  # setup_s is the median of five fresh set-ups
SPEED_RUNS = 100  # interpreter-loop runs on each side of a timed set-up

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced job sizes, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name, seed, small, work_dir):
    """Import adiabatz, build the job list, run one untimed warm-up job.

    Returns the workload and the set-up's wall time.
    """
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.BUILDERS[name](seed, small)
    workload.warmup(work_dir / "warmup")
    return workload, time.perf_counter() - t0


def timed_setup(args, work_dir):
    """(wall, normalized) time of one set-up in this fresh process.

    numpy is not imported yet, so the speed comes from a pure-interpreter
    loop timed right before and right after the set-up (see clock.py).
    """
    import clock

    before = clock.python_rate(SPEED_RUNS)
    _, wall = setup(args.workload, args.seed, args.small, work_dir)
    after = clock.python_rate(SPEED_RUNS)
    return wall, wall * (before + after) / 2.0


def setup_children(args):
    """Set-up samples from fresh processes: a second import is not an import."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    samples = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


@dataclasses.dataclass
class Pass:
    traced: bool
    seconds: float  # raw wall time
    jobs_s: list  # raw wall time per job
    spans: tuple  # range in the tracer's span list
    norm_seconds: float = 0.0  # normalized to the reference speed
    norm_jobs_s: list = dataclasses.field(default_factory=list)


class Runner:
    """Runs passes over one workload and keeps what the metrics need."""

    def __init__(self, workload, work_dir):
        import spans
        import workloads

        self.workload = workload
        self.work_dir = work_dir
        self.tracer = spans.Tracer()
        self.check_failed = workloads.CheckFailed
        self.pass_context = workloads.PassContext
        self.cli_bytes = {}
        self.probe = None
        self.attempted = 0
        self.failed = 0
        self.passes = []

    def run_job(self, job_id, job, ctx, traced):
        self.attempted += 1
        try:
            if traced:
                self.tracer.run_job(job_id, lambda: job.run(ctx))
            else:
                job.run(ctx)
        except Exception as exc:  # one wrong or crashed job must not end the run
            self.failed += 1
            detail = "" if isinstance(exc, self.check_failed) else traceback.format_exc()
            print(f"job {job_id} ({job.kind}) failed: {exc}\n{detail}", file=sys.stderr)

    def run_pass(self, traced, jobs=None):
        """One pass over the jobs (all of them unless given); returns its record."""
        index = len(self.passes)
        out_dir = self.work_dir / f"pass{index}"
        ctx = self.pass_context(out_dir, self.cli_bytes)
        first_span = len(self.tracer.spans)
        if traced:
            self.tracer.install()
        bounds = []
        try:
            for job_id, job in enumerate(self.workload.jobs if jobs is None else jobs):
                t0 = time.perf_counter()
                self.run_job(f"{index}.{job_id}", job, ctx, traced)
                bounds.append((t0, time.perf_counter()))
        finally:
            if traced:
                self.tracer.uninstall()
            shutil.rmtree(out_dir, ignore_errors=True)
        record = Pass(traced, bounds[-1][1] - bounds[0][0], [b - a for a, b in bounds],
                      (first_span, len(self.tracer.spans)))
        self.probe.sample()
        record.norm_jobs_s = [self.probe.normalize(a, b) for a, b in bounds]
        record.norm_seconds = self.probe.normalize(bounds[0][0], bounds[-1][1])
        if jobs is None:
            self.passes.append(record)
        return record

    def measure(self, seconds, trace):
        """Repeat passes, with the speed probe running alongside, while the
        next one, as long as the longest so far, still ends inside the
        window.  With trace, untraced and traced passes alternate, at least
        one of each."""
        import clock

        started = time.perf_counter()
        longest = 0.0
        traced = False
        self.probe = clock.SpeedProbe()
        self.probe.sample()
        self.probe.start()
        try:
            while True:
                longest = max(longest, self.run_pass(traced).seconds)
                if trace:
                    traced = not traced
                elapsed = time.perf_counter() - started
                need_traced = trace and not any(p.traced for p in self.passes)
                if not need_traced and elapsed + longest > seconds:
                    break
        finally:
            self.probe.stop()

    def check_cli_repeats(self):
        """A CLI data file seen once is rerun once (untimed) and compared."""
        jobs = [j for j in self.workload.jobs if j.uses_cli]
        if jobs and any(count < 2 for _, count in self.cli_bytes.values()):
            self.run_pass(False, jobs)


def end_to_end(runner, setup_samples):
    passes = [p for p in runner.passes if not p.traced]
    # one sample per job: its median over the passes, so the sample set does
    # not depend on how many passes fitted in the window
    durations = [statistics.median(t) for t in zip(*(p.norm_jobs_s for p in passes))]
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": statistics.median(p.norm_seconds for p in passes),
        "setup_s": statistics.median(norm for _, norm in setup_samples),
        "job_p50_s": statistics.median(durations),
        "job_p90_s": deciles[8],
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }, len(durations)


def per_layer(runner):
    """Per-layer metrics with units, and whether counts repeat across passes."""
    import spans

    traced = [p for p in runner.passes if p.traced]
    untraced = [p for p in runner.passes if not p.traced]
    summaries = [spans.summarize(runner.tracer.spans, *p.spans, runner.probe.normalize)
                 for p in traced]
    metrics = {}
    for name in spans.LAYER_NAMES + (spans.JOB_SPAN,):
        first = summaries[0][0][name]
        metrics[f"{name}.calls"] = (first["calls"], "count")
        metrics[f"{name}.failed"] = (first["failed"], "count")
        for key in ("busy_s", "self_s"):
            metrics[f"{name}.{key}"] = (statistics.median(s[0][name][key] for s in summaries), "s")
    for name, value in summaries[0][1].items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    counts = [
        ({n: (t["calls"], t["failed"]) for n, t in totals.items()}, derived)
        for totals, derived in summaries
    ]
    repeat = all(c == counts[0] for c in counts)

    run_traced = statistics.median(p.norm_seconds for p in traced)
    run_untraced = statistics.median(p.norm_seconds for p in untraced)
    self_sum = statistics.median(
        sum(t["self_s"] for t in totals.values()) for totals, _ in summaries
    )
    metrics.update({
        "bench.jobs_per_pass": (len(runner.workload.jobs), "count"),
        "trace.run_s": (run_traced, "s"),
        "trace.run_s_untraced": (run_untraced, "s"),
        "trace.overhead_s": (run_traced - run_untraced, "s"),
        # all self times, package layers and the benchmark's own job span,
        # add up to the traced pass less the loop around the jobs
        "trace.self_sum_s": (self_sum, "s"),
        "trace.unattributed_s": (run_traced - self_sum, "s"),
    })
    return metrics, repeat


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "adiabatz" / "__init__.py").is_file():
        print(f"error: no adiabatz package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(args, work_dir)}))
            return 0
        workload, _ = setup(args.workload, args.seed, args.small, work_dir)
        runner = Runner(workload, work_dir)
        runner.measure(args.seconds, args.trace)
        runner.check_cli_repeats()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, "environment": environment(),
              "passes": [dataclasses.asdict(p) for p in runner.passes]}
    correct = runner.failed == 0
    if args.trace:
        metrics, repeat = per_layer(runner)
        if not repeat:
            print("error: layer counts differ between traced passes", file=sys.stderr)
            correct = False
        record["spans"] = runner.tracer.spans
        summary = (f"{args.workload}: traced pass {metrics['trace.run_s'][0]:.3f} s, "
                   f"untraced {metrics['trace.run_s_untraced'][0]:.3f} s")
    else:
        setup_samples = setup_children(args)
        values, samples = end_to_end(runner, setup_samples)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record["setup_s"] = setup_samples
        passes = [p for p in runner.passes if not p.traced]
        summary = (f"{args.workload}: run_s {values['run_s']:.3f} "
                   f"(wall {statistics.median(p.seconds for p in passes):.3f}) over "
                   f"{len(passes)} passes; job p50 {values['job_p50_s']:.4f} s, "
                   f"p90 {values['job_p90_s']:.4f} s over {samples} jobs")
    out = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = out
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' * args.small}.json"
    (RESULTS / name).write_text(json.dumps(record) + "\n")
    print(summary)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
