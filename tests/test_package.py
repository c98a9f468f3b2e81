import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import adiabatz

ROOT = Path(__file__).resolve().parents[1]

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


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))


def test_each_public_name_is_declared_once_in_its_module():
    owner = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"adiabatz.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names undefined {missing}"
        shared = {n: owner[n] for n in module.__all__ if n in owner}
        assert not shared, f"{name}.__all__ repeats {shared}"
        owner.update(dict.fromkeys(module.__all__, name))
    # the package is no second import path: it holds the version only
    assert not set(owner) & set(vars(adiabatz))
    assert {n for n in vars(adiabatz) if not n.startswith("_")} <= set(LIBRARY_MODULES) | {"cli"}


def _module_definitions(tree):
    """(name, node) of each top-level function, class and module-level name
    of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names)


def _private_definitions(tree):
    """_module_definitions of the private names; a dunder is not private."""
    return ((name, node) for name, node in _module_definitions(tree)
            if name.startswith("_") and not name.startswith("__"))


def _library_trees():
    return [ast.parse(path.read_text()) for path in (ROOT / "src" / "adiabatz").glob("*.py")]


def _read_outside(name, definition, trees):
    """Whether library code outside the node definition reads name, as a
    name or as an attribute."""
    own = set(map(id, ast.walk(definition)))
    return any(
        id(node) not in own
        and isinstance(getattr(node, "ctx", None), ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
        for tree in trees for node in ast.walk(tree)
    )


def test_each_private_function_has_a_library_caller():
    # a private top-level function, class or module-level name that no
    # library code outside its own definition reads is a variant or a
    # constant only the tests use, and goes
    trees = _library_trees()
    unused = [name for tree in trees for name, definition in _private_definitions(tree)
              if not _read_outside(name, definition, trees)]
    assert not unused


def _public_readers_needed(tree):
    """(name, node) of each property, with its class as the node, and of
    each upper-case name in the module's __all__, with its definition."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", None) == "property" for d in node.decorator_list
            ):
                yield node.name, cls
    public = {name for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
              for name in ast.literal_eval(node.value)}
    for name, definition in _module_definitions(tree):
        if name in public and name.isupper():
            yield name, definition


def test_each_property_and_public_constant_has_a_library_reader():
    # a property that only its own class reads, or a public constant that
    # only the tests read, is a variant only a unit test uses, and goes
    trees = _library_trees()
    unread = [name for tree in trees for name, definition in _public_readers_needed(tree)
              if not _read_outside(name, definition, trees)]
    assert not unread


def test_package_import_loads_no_module():
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, adiabatz; print(json.dumps(sorted(sys.modules)))"],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    modules = json.loads(out.stdout)
    assert not [m for m in modules if m.startswith("adiabatz.")]
    assert "numpy" not in modules


def test_readme_library_quickstart_runs():
    # the documented import paths are the only ones the package has
    text = (ROOT / "README.md").read_text()
    (code,) = re.findall(r"^## Library quickstart\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    exec(compile(code, "README.md", "exec"), {})


def test_benchmark_span_targets_resolve():
    # bench/spans.py wraps these functions by name; one pruned or renamed
    # fails here, not in a benchmark run
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}" for module, name in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"adiabatz.{module}"), name, None))
    ]
    assert spans.TARGETS
    assert not missing


def test_benchmark_jobs_pass_on_the_library(tmp_path, monkeypatch):
    # every job of each workload in bench/workloads.py, once at its small
    # size: a pruning that breaks the benchmark's use of the library fails
    # here, not in a benchmark run
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.BUILDERS
    for name, build in workloads.BUILDERS.items():
        ctx = workloads.PassContext(tmp_path / name, {})
        for job in build(0, small=True).jobs:
            job.run(ctx)


# a fresh process that runs every propagator, the DRAG calibration at both
# levels and every CLI experiment at a small config, then lists its modules
PROPAGATION_RUN = """
import json, math, sys, tempfile
from pathlib import Path
import numpy as np
from adiabatz import cli
from adiabatz.dynamics import evolve_two_level_direct, evolve_two_level_exact
from adiabatz.optimize import convolve_trajectory
from adiabatz.remap import remapped_trajectory
from adiabatz.three_level import (
    RotationTarget, ThreeLevelPulse, calibrate_pulse, evolve_three_level,
)
from adiabatz.waveform import derivative_waveform, hanning_window, sample_trajectory

w = derivative_waveform([1.0866, -0.0866], 1.0, 0.3, 2.2)
lab = convolve_trajectory(remapped_trajectory(w, 4.0, n_samples=256), 0.2)
evolve_two_level_direct(lab)
evolve_two_level_exact(sample_trajectory(w.with_t_p(4.0), 129))
pulse = ThreeLevelPulse(hanning_window(64), 0.5, -2.0 * math.pi, 0.0, 2.5)
evolve_three_level(pulse, RotationTarget.PI_PULSE, n_steps=64)
for levels in (2, 3):
    calibrate_pulse(hanning_window(64), 2.5, -0.5, -2.0 * math.pi, RotationTarget.PI_PULSE,
                    levels=levels, n_steps=48)
sweep = {"coefficients_lambda": [1.0866, -0.0866], "theta_i_rad": 0.0997,
         "theta_f_rad": 3.0419, "t_p_min_over_Tx": 0.8, "t_p_max_over_Tx": 1.5, "n_points": 4}
configs = {
    "psd-windows": {"coefficients_lambda": [[1.0866, -0.0866]], "n_points": 40},
    "error-curve": sweep,
    "lz-sweep": {"rate_min_hx2": 0.05, "rate_max_hx2": 2.0, "n_points": 4},
    "cz-pulse": {"theta_i_rad": 0.3, "theta_f_rad": 0.3, "n_coeffs": 2},
    "table1": {"n_m_list": [2]},
    "drag-sweep": {"drag_d_list": [-0.48], "n_envelope_samples": 64},
}
assert set(configs) == set(cli.EXPERIMENTS)
with tempfile.TemporaryDirectory() as tmp:
    for name, params in configs.items():
        cli.run(cli.RunConfig(name, params, Path(tmp) / name, "csv", "0" * 64))
print(json.dumps(sorted(sys.modules)))
"""


def test_propagation_path_leaves_heavy_scipy_unimported():
    # deterministic stand-in for the start-up time: no path of the package,
    # the DRAG calibration and the manifest writer included, imports scipy
    out = subprocess.run(
        [sys.executable, "-c", PROPAGATION_RUN], env=_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    modules = set(json.loads(out.stdout.strip().splitlines()[-1]))
    # a submodule import leaves its parent package in sys.modules as well
    assert not [name for name in modules if name.split(".")[0] == "scipy"]
