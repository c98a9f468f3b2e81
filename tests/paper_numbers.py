"""The paper's numbers as the CLI computes them, and the record they are
checked against.

Each entry of CONFIGS is one experiment run through ``cli.main`` at a size
that fits the tests.  ``tests/data/paper_numbers.json`` records, per config,
the data columns and rows, the deterministic manifest diagnostics
(``evaluations``, ``rejected``, ``steps``, ``step_error``) where the
manifest has them, and, for information only, the SHA-256 of the data file
and the numpy version that wrote the record.  ``test_paper_numbers.py``
reruns each config and compares (``mismatches``):

- exact P_e (``EXACT_COLUMNS``) and its step error estimates within
  2 * step_error + 1e-15 of the record, step_error the recorded estimate;
- work counts exactly, and so every other column of the experiments that
  solve, search or fit for their numbers (``SOLVED``: the table1 optimum,
  the cz-pulse search, the drag-sweep calibrations), which one build of
  numpy computes bitwise;
- the columns of the closed forms and quadratures of the other experiments
  within 1e-12 relative.

The bitwise rule is what makes a one-ulp change to a table1 coefficient
show: that solve is well conditioned, and 1e-12 relative would hide it.

Rewrite the record with

    PYTHONPATH=src python tests/paper_numbers.py --write

Re-recording changes a check: say which numbers moved, by how much, and why.
``--diff`` reruns every config without writing and prints, per config, each
diagnostic that changed (old -> new) and each column's largest absolute and
relative move against the record (``moves``), or "no moves"; it exits 1 when
any config moved and 0 when none did, so a script can gate on the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from adiabatz import cli

RECORD = Path(__file__).resolve().parent / "data" / "paper_numbers.json"

_README_SWEEP = {
    "window": "fourier", "basis": "derivative", "coefficients_lambda": [1.0866, -0.0866],
    "theta_i_rad": 0.0997, "theta_f_rad": 3.0419, "remap": True, "evaluator": "exact",
    "t_p_min_over_Tx": 0.8, "t_p_max_over_Tx": 1.5, "n_points": 60,
}
_EXCURSION = {"theta_i_rad": 0.1, "theta_f_rad": 0.8, "n_coeffs": 2}

CONFIGS = {
    "psd-windows": ("psd-windows", {
        "coefficients_lambda": [[1.0866, -0.0866]], "labels": ["two_term"], "n_points": 400,
    }),
    "table1": ("table1", {"n_m_list": [2, 4, 10], "cutoff_cycles": 2.3}),
    "error-curve-exact": ("error-curve", _README_SWEEP),
    "error-curve-linearized": ("error-curve", {**_README_SWEEP, "evaluator": "linearized"}),
    "error-curve-sampled": ("error-curve", {**_README_SWEEP, "remap": False, "n_points": 20}),
    "error-curve-theta": ("error-curve", {
        "window": "fourier", "basis": "theta", "coefficients_lambda": [0.36, 0.02, -0.01],
        "theta_i_rad": 0.1, "theta_f_rad": 0.8, "remap": True, "evaluator": "exact",
        "t_p_min_over_Tx": 0.9, "t_p_max_over_Tx": 2.2, "n_points": 20,
    }),
    "error-curve-rect": ("error-curve", {"window": "rect"}),
    "error-curve-hanning": ("error-curve", {"window": "hanning"}),
    "lz-sweep": ("lz-sweep", {"rate_min_hx2": 0.05, "rate_max_hx2": 2.0, "n_points": 12}),
    "cz-pulse": ("cz-pulse", {**_EXCURSION, "max_iterations": 15}),
    "cz-pulse-rounded": ("cz-pulse", {**_EXCURSION, "sigma_over_Tx": 0.1, "max_iterations": 8}),
    "drag-sweep": ("drag-sweep", {}),
    "drag-sweep-levels2": ("drag-sweep", {"levels": 2}),
}

# columns holding an exact-dynamics P_e or its step error estimate
EXACT_COLUMNS = ("p_e_exact", "max_p_e", "max_p_e_step_error")
SOLVED = ("table1", "cz-pulse", "drag-sweep")
COUNTS = ("evaluations", "rejected", "steps")


def run_config(name: str) -> dict:
    """Run one config through cli.main; returns its record entry."""
    experiment, params = CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(params))
        with contextlib.redirect_stdout(io.StringIO()):  # the paths written
            rc = cli.main([experiment, "--config", str(config), "--out", str(out),
                           "--format", "json"])
        if rc != 0:
            raise RuntimeError(f"{name}: {experiment} exited with {rc}")
        data = (out / f"{experiment}.json").read_bytes()
        manifest = json.loads((out / f"{experiment}_manifest.json").read_text())
    table = json.loads(data)
    diagnostics = manifest["diagnostics"]
    return {
        "experiment": experiment,
        "config": params,
        "columns": table["columns"],
        "rows": table["rows"],
        "diagnostics": {k: diagnostics[k] for k in (*COUNTS, "step_error") if k in diagnostics},
        "data_sha256": hashlib.sha256(data).hexdigest(),
    }


def mismatches(got: dict, want: dict) -> list:
    """What in a rerun entry breaks the comparison rules against the record."""
    if got["columns"] != want["columns"]:
        return [f"columns {got['columns']} != {want['columns']}"]
    a, b = (np.array(e["rows"], dtype=float) for e in (got, want))
    if a.shape != b.shape:
        return [f"rows shaped {a.shape} != {b.shape}"]
    found = []
    for k in COUNTS:
        if got["diagnostics"].get(k) != want["diagnostics"].get(k):
            found.append(f"{k} {got['diagnostics'].get(k)} != {want['diagnostics'].get(k)}")
    error = want["diagnostics"].get("step_error")
    if error is not None and not abs(got["diagnostics"]["step_error"] - error) <= 2 * error + 1e-15:
        found.append(f"step_error {got['diagnostics']['step_error']} != {error}")
    columns = want["columns"]
    if "max_p_e_step_error" in columns:  # the cz-pulse row carries its own estimate
        error = b[:, columns.index("max_p_e_step_error")]
    for j, column in enumerate(columns):
        if column in EXACT_COLUMNS:
            ok = np.abs(a[:, j] - b[:, j]) <= 2 * error + 1e-15
        elif want["experiment"] in SOLVED:
            ok = a[:, j] == b[:, j]
        else:
            ok = np.isclose(a[:, j], b[:, j], rtol=1e-12, atol=0.0)
        ok |= np.isnan(a[:, j]) & np.isnan(b[:, j])
        if not ok.all():
            i = int(np.argmin(ok))
            found.append(f"{column} row {i}: {a[i, j]!r} != {b[i, j]!r}")
    return found


def moves(got: dict, want: dict) -> list:
    """What moved in a rerun entry against the record: each diagnostic that
    changed, old -> new, a changed data file, and per column the largest
    absolute and relative move (a NaN against a number moves by inf)."""
    found = [f"{k} {want['diagnostics'].get(k)} -> {got['diagnostics'].get(k)}"
             for k in sorted(got["diagnostics"].keys() | want["diagnostics"].keys())
             if got["diagnostics"].get(k) != want["diagnostics"].get(k)]
    if got["data_sha256"] != want["data_sha256"]:
        found.append("data_sha256 changed")
    a, b = (np.array(e["rows"], dtype=float) for e in (got, want))
    if got["columns"] != want["columns"] or a.shape != b.shape:
        return found + [f"columns {want['columns']} -> {got['columns']}, "
                        f"rows shaped {b.shape} -> {a.shape}"]
    with np.errstate(invalid="ignore", divide="ignore"):
        move = np.where(np.isnan(a) & np.isnan(b), 0.0, np.nan_to_num(np.abs(a - b), nan=np.inf))
        relative = np.where(move > 0, move / np.abs(b), 0.0)
    for j, column in enumerate(want["columns"]):
        if move[:, j].any():
            i, k = np.argmax(move[:, j]), np.argmax(relative[:, j])
            found.append(f"{column}: {move[i, j]:.3g} absolute (row {i}), "
                         f"{relative[k, j]:.3g} relative (row {k})")
    return found


def diff(names=CONFIGS) -> bool:
    """Print the moves of each named config against the record; True when
    any config moved."""
    record = json.loads(RECORD.read_text())["configs"]
    moved = False
    for name in names:
        found = moves(run_config(name), record[name])
        moved |= bool(found)
        for line in found or ["no moves"]:
            print(f"{name}: {line}")
    return moved


def write() -> None:
    record = {
        "numpy": np.__version__,
        "configs": {name: run_config(name) for name in CONFIGS},
    }
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:] == ["--diff"]:
        sys.exit(1 if diff() else 0)
    else:
        sys.exit("usage: python tests/paper_numbers.py --write | --diff")
