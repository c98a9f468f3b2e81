import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import adiabatz

# every module but the command-line front end
LIBRARY_MODULES = (
    "adiabatic_error",
    "dynamics",
    "geometry",
    "optimize",
    "remap",
    "spectral",
    "three_level",
    "waveform",
)


def test_package_reexports_exactly_the_module_exports():
    exported = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"adiabatz.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"
        exported |= set(module.__all__)
    public = {
        n for n, v in vars(adiabatz).items()
        if not n.startswith("_") and not inspect.ismodule(v)
    }
    assert public == exported



def test_benchmark_span_targets_resolve():
    # bench/spans.py wraps these functions by name; one pruned or renamed
    # fails here, not in a benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}" for module, name in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"adiabatz.{module}"), name, None))
    ]
    assert spans.TARGETS
    assert not missing


# the scipy subpackages whose import dominated a run's start-up
HEAVY_SCIPY = ("interpolate", "optimize", "linalg", "special", "sparse")

PROPAGATION_RUN = """
import json, math, sys
import numpy as np
import adiabatz, adiabatz.cli
from adiabatz import (RotationTarget, ThreeLevelPulse, convolve_trajectory,
    derivative_waveform, evolve_three_level, evolve_two_level_direct,
    evolve_two_level_exact, hanning_window, remapped_trajectory, sample_trajectory)

w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
lab = convolve_trajectory(remapped_trajectory(w, 4.0, n_samples=256), 0.2)
evolve_two_level_direct(lab)
evolve_two_level_exact(sample_trajectory(w.with_t_p(4.0), 129))
pulse = ThreeLevelPulse(hanning_window(64), 0.5, -2.0 * math.pi, 0.0, 2.5)
evolve_three_level(pulse, RotationTarget.PI_PULSE, n_steps=64)
print(json.dumps(sorted(sys.modules)))
"""


def test_propagation_path_leaves_heavy_scipy_unimported():
    # deterministic stand-in for the start-up time: only the DRAG
    # calibration (least_squares) may pull in these subpackages
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", PROPAGATION_RUN], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    modules = set(json.loads(out.stdout.strip().splitlines()[-1]))
    # a submodule import leaves its parent package in sys.modules as well
    assert not [f"scipy.{name}" for name in HEAVY_SCIPY if f"scipy.{name}" in modules]
    # and importing the command-line front end leaves scipy itself out: only
    # the manifest writer reads its version
    assert "scipy" not in modules
