"""The benchmark's workloads: their CLI commands, seeded configs and output checks.

A workload seed shifts the solver and noise seeds of the workload's base
config (in ``configs/``), so seed 0 runs the shipped configuration.  Every
seed is checked for a clean exit, no divergence, seed-independent columns
(iteration counts, step sizes, stop indices) equal to the reference, and
finite values.  Seed 0 is also compared value by value with the stored
reference outputs (``reference/``), within ``RTOL``.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Relative tolerance of the reference comparison.  It is not bitwise: at
# 110x110 the history digits depend on the BLAS thread count (np.linalg.norm
# and ndarray.dot go through threaded OpenBLAS there), by up to 4e-15
# relative between one thread and the default on a 2-core box.
RTOL = 1e-6

# Columns that do not depend on the solver or noise seed.
FIXED_COLUMNS = {
    "history.csv": {"epoch", "iter", "mu"},
    "summary.csv": {"axis", "value", "metric"},
    "noisy_study.csv": {"delta", "k_delta", "n_seeds"},
}
ARRAYS = ("final.bsgd", "best.bsgd")
SWEEP_VALUES = ("1.1:2", "2:2", "1.1:1.1", "1.5:1.5")


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    extra_args: tuple[str, ...]
    cells: tuple[str, ...]    # output subdirectories that each hold one run
    tables: tuple[str, ...]   # CSV files at the top of the output directory

    def cli_args(self, config: Path, out: Path) -> list[str]:
        return [self.verb, "--config", str(config), "--out", str(out),
                *self.extra_args, "--quiet"]


WORKLOADS = {
    w.name: w for w in (
        Workload("desk_sweep", "sweep",
                 ("--axis", "space_exponent", "--values", ",".join(SWEEP_VALUES)),
                 tuple(f"space_exponent={v}" for v in SWEEP_VALUES),
                 ("summary.csv",)),
        Workload("full_slice", "run", ("--epochs", "100"), ("",), ()),
        Workload("rates_study", "rates", (), (), ("noisy_study.csv",)),
    )
}


def write_config(base: Path, dest: Path, seed: int) -> None:
    """Copy ``base`` to ``dest`` with its solver and noise seeds shifted by ``seed``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(base)
    for section in ("solver", "noise"):
        if parser.has_option(section, "seed"):
            parser.set(section, "seed", str(parser.getint(section, "seed") + seed))
    with open(dest, "w") as fh:
        parser.write(fh)


def _reference_dir(cell: str) -> str:
    return cell.replace(":", "_")


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(got: Path, ref: Path, all_columns: bool) -> list[str]:
    """Problems found comparing CSV ``got`` with ``ref``.

    Both must have the same header, row count and empty cells.  Fixed
    columns (and with ``all_columns`` every column) must match within
    RTOL; the other numeric cells need only be finite.
    """
    if not got.is_file():
        return [f"{got} missing"]
    with open(got, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(ref, newline="") as fh:
        ref_rows = list(csv.reader(fh))
    if rows[:1] != ref_rows[:1]:
        return [f"{got.name}: header {rows[:1]} != {ref_rows[:1]}"]
    if len(rows) != len(ref_rows):
        return [f"{got.name}: {len(rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    fixed = FIXED_COLUMNS.get(got.name, set())
    problems = []
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        for column, text, ref_text in zip(rows[0], row, ref_row):
            value, ref_value = _number(text), _number(ref_text)
            if value is None or ref_value is None:
                ok = text == ref_text
            elif all_columns or column in fixed:
                ok = _close(value, ref_value)
            else:
                ok = math.isfinite(value)
            if not ok:
                problems.append(f"{got.name} row {r} {column}: {text!r}, "
                                f"reference {ref_text!r}")
    return problems[:5]


def read_bsgd(path: Path) -> np.ndarray:
    """Read a BSGD-ARRAY v1 file (header line, then float64 little-endian).

    Kept apart from bsgd.array_io so that a defect there cannot hide from
    the check of the program's own output.
    """
    with open(path, "rb") as fh:
        header = fh.readline().split()
        payload = fh.read()
    shape = tuple(int(d) for d in header[2:])
    return np.frombuffer(payload, dtype="<f8").reshape(shape)


def compare_array(got: Path, ref: Path, values: bool) -> list[str]:
    if not got.is_file():
        return [f"{got} missing"]
    a, b = read_bsgd(got), read_bsgd(ref)
    if a.shape != b.shape:
        return [f"{got.name}: shape {a.shape} != reference {b.shape}"]
    if not np.isfinite(a).all():
        return [f"{got.name}: non-finite entries"]
    if values and not np.allclose(a, b, rtol=RTOL, atol=RTOL * np.abs(b).max()):
        return [f"{got.name}: max deviation {np.abs(a - b).max():.3e} from reference"]
    return []


def _check_cell(out: Path, ref: Path, exact: bool) -> list[str]:
    manifest = configparser.ConfigParser(interpolation=None)
    if not manifest.read(out / "manifest.txt"):
        return [f"{out}/manifest.txt missing"]
    if manifest.get("result", "diverged", fallback=None) != "False":
        return [f"{out.name} diverged"]
    problems = compare_csv(out / "history.csv", ref / "history.csv", exact)
    for name in ARRAYS:
        problems += compare_array(out / name, ref / name, exact)
    if not problems:
        with open(out / "history.csv", newline="") as fh:
            errors = [float(row["rel_l2_err"]) for row in csv.DictReader(fh)]
        if not errors[-1] < errors[0]:
            problems.append(f"{out.name}: relative error rose from "
                            f"{errors[0]!r} to {errors[-1]!r}")
    return problems


def check_outputs(workload: Workload, out: Path, reference: Path,
                  seed: int) -> list[str]:
    """Everything wrong with one command's outputs; empty when they pass."""
    exact = seed == DEFAULT_SEED
    problems = []
    for table in workload.tables:
        problems += compare_csv(out / table, reference / table, exact)
    for cell in workload.cells:
        problems += _check_cell(out / cell, reference / _reference_dir(cell), exact)
    if workload.verb == "rates":
        summary = out / "rates_summary.txt"
        if not summary.is_file():
            return problems + [f"{summary} missing"]
        gates = json.loads(summary.read_text())
        if not (gates["exact_within_bound"] and gates["slope_within_20pct"]):
            problems.append("rate study outside its gates")
    return problems


def write_reference(workload: Workload, out: Path, reference: Path) -> None:
    """Store the outputs of one default-seed command as the reference."""
    shutil.rmtree(reference, ignore_errors=True)
    reference.mkdir(parents=True)
    for table in workload.tables:
        shutil.copyfile(out / table, reference / table)
    for cell in workload.cells:
        dest = reference / _reference_dir(cell)
        dest.mkdir(parents=True, exist_ok=True)
        for name in ("history.csv", *ARRAYS):
            shutil.copyfile(out / cell / name, dest / name)
