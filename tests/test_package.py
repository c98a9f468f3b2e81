import importlib
import inspect

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
