"""Spans around the public functions of adiabatz, recorded from outside.

The package binds functions by name at import (``adiabatz.optimize`` holds
its own ``evolve_two_level_direct``), so a wrapper only sees every call when
it replaces the name in every loaded ``adiabatz`` module.  ``Tracer.install``
does that and ``Tracer.uninstall`` puts the originals back.

A span is ``[name, start, end, parent, job, failed, note]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``job`` the id of the benchmark
job it ran under, ``failed`` whether the call raised, and ``note`` a count
taken from the call's arguments or result (see ``NOTES``).  Spans stay in
memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs that are wrapped; geometry is elementwise
# arithmetic inside these callers and is not measured on its own
TARGETS = (
    ("cli", "run"),
    ("optimize", "optimize_coefficients"),
    ("optimize", "optimize_cz_pulse"),
    ("optimize", "convolve_trajectory"),
    ("remap", "remapped_trajectory"),
    ("remap", "build_remap"),
    ("remap", "invert_remap"),
    ("dynamics", "evolve_two_level_direct"),
    ("dynamics", "evolve_two_level_exact"),
    ("three_level", "calibrate_pulse"),
    ("three_level", "evolve_three_level"),
    ("adiabatic_error", "error_curve"),
    ("adiabatic_error", "geometric_error"),
    ("spectral", "psd"),
    ("spectral", "fourier_integral"),
    ("waveform", "eval_fourier"),
    ("waveform", "sample_trajectory"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
JOB_SPAN = "bench.job"

NAME, START, END, PARENT, JOB, FAILED, NOTE = range(7)


def _samples(args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    return len(traj.times)


def _spectral_points(args, kwargs, result):
    times = args[0] if args else kwargs["times"]
    return len(result) * len(times)


def _curve(args, kwargs, result):
    return (len(result.failures), len(result.t_p))


# counts read off a call: propagator samples, spectral operation count
# len(omega) * len(t), optimizer iterations, error-curve failures and points
NOTES = {
    "dynamics.evolve_two_level_direct": _samples,
    "dynamics.evolve_two_level_exact": _samples,
    "spectral.fourier_integral": _spectral_points,
    "optimize.optimize_coefficients": lambda a, k, r: r.iterations,
    "adiabatic_error.error_curve": _curve,
}


class Tracer:
    """Records spans for wrapped adiabatz functions and benchmark jobs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.job = None

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace each target by its wrapper in every loaded adiabatz module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "adiabatz" or n.startswith("adiabatz."))
        ]
        for module_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"adiabatz.{module_name}"), fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in self._restore:
            setattr(module, attr, original)
        self._restore = []

    def run_job(self, job_id, fn):
        """Run fn() under a root span for the job; re-raises what fn raises."""
        self.job = job_id
        try:
            return self._wrap(JOB_SPAN, fn)()
        finally:
            self.job = None


def summarize(spans, lo, hi, length=lambda start, end: end - start):
    """Per-layer totals and derived counts for the spans spans[lo:hi].

    The range holds whole span trees (one pass).  ``length`` turns a span's
    start and end into its duration.  Self time is a span's duration minus
    the time its child spans cover; calls here are sequential, so that is
    the sum of the children.
    """
    durations = [length(s[START], s[END]) for s in spans[lo:hi]]
    child_time = [0.0] * (hi - lo)
    for s, busy in zip(spans[lo:hi], durations):
        if s[PARENT] >= 0:
            child_time[s[PARENT] - lo] += busy
    totals = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failed": 0}
              for name in LAYER_NAMES + (JOB_SPAN,)}
    points = rejected = iterations = samples = spectral_points = 0
    curve_failures = curve_points = 0
    for i, s in enumerate(spans[lo:hi]):
        name = s[NAME]
        busy = durations[i]
        t = totals[name]
        t["calls"] += 1
        t["busy_s"] += busy
        t["self_s"] += busy - child_time[i]
        t["failed"] += int(s[FAILED])
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        # a point is one remap made by the exact objective; it is rejected
        # when the remap, the rounding or the propagator raised and the
        # objective scored the candidate 1.0
        from_objective = parent in ("optimize.optimize_coefficients",
                                    "optimize.optimize_cz_pulse")
        if from_objective and name == "remap.remapped_trajectory":
            points += 1
        if from_objective and s[FAILED] and name in (
            "remap.remapped_trajectory", "optimize.convolve_trajectory",
            "dynamics.evolve_two_level_direct",
        ):
            rejected += 1
        note = s[NOTE]
        if note is None:
            continue
        if name == "optimize.optimize_coefficients":
            iterations += note
        elif name.startswith("dynamics."):
            samples += note
        elif name == "spectral.fourier_integral":
            spectral_points += note
        elif name == "adiabatic_error.error_curve":
            curve_failures += note[0]
            curve_points += note[1]
    derived = {
        "optimize.points": points,
        "optimize.rejected": rejected,
        "optimize.useful_ratio": (points - rejected) / points if points else 0.0,
        "optimize.iterations": iterations,
        "dynamics.samples": samples,
        "spectral.points": spectral_points,
        "adiabatic_error.curve_failures": curve_failures,
        "adiabatic_error.curve_points": curve_points,
    }
    return totals, derived
