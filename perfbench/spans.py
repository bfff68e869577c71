"""Spans around calls into bsgd's public functions, and the metrics built from them.

The wrappers live here, not in bsgd: ``instrument`` rebinds the listed
functions and methods in every loaded ``bsgd`` module, so the program
itself is unchanged.  A span is aggregated in memory per (thread, path),
where the path is the chain of enclosing span names ending in the span's
own name; each entry keeps a call count, total time and self time (total
minus the time of child spans).  ``layer_metrics`` turns one traced
record into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

SOLVER = "solver.run"
CELL = "cli.execute_run"
VECTOR = "geometry.vector"

# (module, function) -> span name.  Functions sharing a span name are one
# operation: a call nested directly inside a span of the same name (the
# Schlieren problem's apply_block calling schlieren_apply) joins its parent.
FUNCTIONS = {
    ("cli", "execute_run"): CELL,
    ("config", "parse_config"): "config.parse",
    ("phantoms", "make_phantom"): "phantoms.make",
    ("radon", "build_radon"): "radon.build",
    ("forward", "build_schlieren_problem"): "forward.build_problem",
    ("forward", "build_benchmark"): "forward.build_problem",
    ("forward", "estimate_tcc_gamma"): "forward.estimate_gamma",
    ("forward", "estimate_lipschitz_Lmax"): "forward.estimate_lmax",
    ("forward", "schlieren_apply"): "forward.apply_block",
    ("forward", "schlieren_adjoint_apply"): "forward.adjoint_apply",
    ("forward", "schlieren_derivative_apply"): "forward.derivative_apply",
    ("geometry", "lr_norm"): "geometry.lr_norm",
    ("geometry", "duality_map"): "geometry.duality_map",
    ("geometry", "inverse_duality_map"): "geometry.inverse_duality_map",
    ("geometry", "bregman_distance"): "geometry.bregman_distance",
    ("noise", "apply_noise"): "noise.apply",
    ("noise", "noise_level"): "noise.level",
    ("solver", "run_sgd"): SOLVER,
    ("solver", "run_landweber"): SOLVER,
    ("solver", "relative_error"): "solver.relative_error",
    ("solver", "history_to_csv"): "solver.history_csv",
    ("rates", "noisy_rate_study"): "rates.noisy_study",
    ("array_io", "write_array"): "array_io.write",
}

# (module, class, method) -> span name
METHODS = {
    ("radon", "RadonSystem", "project"): "radon.project",
    ("radon", "RadonSystem", "back_project"): "radon.back_project",
    ("forward", "SchlierenProblem", "apply_block"): "forward.apply_block",
    ("forward", "SchlierenProblem", "adjoint_apply"): "forward.adjoint_apply",
    ("forward", "SchlierenProblem", "derivative_apply"): "forward.derivative_apply",
    ("forward", "BenchmarkProblem", "apply_block"): "forward.apply_block",
    ("forward", "BenchmarkProblem", "adjoint_apply"): "forward.adjoint_apply",
    ("forward", "BenchmarkProblem", "derivative_apply"): "forward.derivative_apply",
}

SOLVER_ENTRY_POINTS = (("solver", "run_sgd"), ("solver", "run_landweber"))


class SolverBoundary:
    """When the first solver call starts and the last one returns.

    Times are ``time.monotonic_ns`` readings, the clock the parent process
    reads around the command, so the two can be subtracted.
    """

    def __init__(self):
        self.first_ns = None
        self.last_ns = None
        self._lock = threading.Lock()

    def wrap(self, fn):
        @functools.wraps(fn)
        def bounded(*args, **kwargs):
            start = time.monotonic_ns()
            with self._lock:
                if self.first_ns is None:
                    self.first_ns = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                with self._lock:
                    self.last_ns = max(self.last_ns or end, end)
        return bounded

    def as_dict(self) -> dict:
        return {"solver_first_ns": self.first_ns, "solver_last_ns": self.last_ns}


class Tracer:
    """Per-thread span tables plus a few process-wide counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []           # (thread name, {path: [count, total_ns, child_ns]})
        self.counters = {}
        self.cell_seconds = []      # duration of each CELL span

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table = {}
            state = self._local.state = ([()], table)
            with self._lock:
                self._tables.append((threading.current_thread().name, table))
        return state

    def wrap(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = self._state()
            parent = stack[-1]
            if parent and parent[-1] == name:
                return fn(*args, **kwargs)
            path = parent + (name,)
            stack.append(path)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                stack.pop()
                row = table.get(path)
                if row is None:
                    row = table[path] = [0, 0, 0]
                row[0] += 1
                row[1] += elapsed
                if parent:
                    table.setdefault(parent, [0, 0, 0])[2] += elapsed
            if on_return is not None:
                on_return(self, elapsed, result, args, kwargs)
            return result
        return traced

    def count(self, name) -> None:
        """Count one event under the current span, without timing it."""
        stack, table = self._state()
        path = stack[-1] + (name,)
        row = table.get(path)
        if row is None:
            row = table[path] = [0, 0, 0]
        row[0] += 1

    def add(self, name, value) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def keep_max(self, name, value) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, value), value)

    def add_cell(self, seconds) -> None:
        with self._lock:
            self.cell_seconds.append(seconds)

    def as_dict(self) -> dict:
        spans = []
        with self._lock:
            tables = list(self._tables)
        for thread, table in tables:
            for path, (count, total_ns, child_ns) in table.items():
                spans.append({"thread": thread, "path": list(path), "count": count,
                              "total_s": total_ns / 1e9,
                              "self_s": (total_ns - child_ns) / 1e9})
        return {"spans": spans, "counters": dict(self.counters),
                "cell_seconds": list(self.cell_seconds)}


def _after_build_radon(tracer, elapsed, system, args, kwargs):
    tracer.keep_max("radon.nnz", sum(m.nnz for m in system.matrices))
    tracer.keep_max("radon.matrix_bytes", sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in system.matrices))


def _after_solver(tracer, elapsed, run, args, kwargs):
    tracer.add("solver.iterations", run.n_iterations)
    tracer.add("solver.records", len(run.history))


def _after_write_array(tracer, elapsed, result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tracer.add("array_io.bytes_written", os.path.getsize(path))


def _after_cell(tracer, elapsed, result, args, kwargs):
    tracer.add_cell(elapsed / 1e9)


_HOOKS = {
    ("radon", "build_radon"): _after_build_radon,
    ("solver", "run_sgd"): _after_solver,
    ("solver", "run_landweber"): _after_solver,
    ("array_io", "write_array"): _after_write_array,
    ("cli", "execute_run"): _after_cell,
}


def _rebind(modules, original, replacement) -> None:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(boundary: SolverBoundary, tracer: Tracer | None = None) -> None:
    """Wrap the solver entry points, and with a tracer every listed call.

    Call after ``import bsgd.cli``, which loads every bsgd module.  A
    listed function, method or class that bsgd no longer has is skipped,
    so its metrics read 0 rather than the traced run failing.
    """
    modules = [m for n, m in sys.modules.items()
               if n == "bsgd" or n.startswith("bsgd.")]
    pkg = sys.modules["bsgd"]
    if tracer is not None:
        for (mod, func), name in FUNCTIONS.items():
            original = getattr(getattr(pkg, mod), func, None)
            if original is not None:
                hook = _HOOKS.get((mod, func))
                _rebind(modules, original, tracer.wrap(name, original, hook))
        for (mod, cls_name, meth), name in METHODS.items():
            cls = getattr(getattr(pkg, mod), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is not None:
                setattr(cls, meth, tracer.wrap(name, original))
        vector = getattr(pkg.geometry, "_LebesgueVector", None)
        if vector is not None:
            init = vector.__init__

            def counted_init(self, values):
                tracer.count(VECTOR)
                init(self, values)

            vector.__init__ = counted_init
    for mod, func in SOLVER_ENTRY_POINTS:
        original = getattr(getattr(pkg, mod), func)
        _rebind(modules, original, boundary.wrap(original))


# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.sweep_cell_s.p50": "s",
    "cli.sweep_cell_s.max": "s",
    "config.parse_s": "s",
    "phantoms.make_s": "s",
    "radon.build_s": "s",
    "radon.nnz": "count",
    "radon.matrix_mb": "MB_computed",
    "radon.project_calls_per_iter": "1/iter",
    "radon.back_project_calls_per_iter": "1/iter",
    "radon.project_s": "s",
    "radon.back_project_s": "s",
    "forward.build_problem_s": "s",
    "forward.estimate_gamma_s": "s",
    "forward.estimate_lmax_s": "s",
    "forward.apply_block_calls_per_iter": "1/iter",
    "forward.adjoint_apply_calls_per_iter": "1/iter",
    "forward.apply_block_s": "s",
    "forward.adjoint_apply_s": "s",
    "geometry.duality_map_s": "s",
    "geometry.duality_map_calls": "count",
    "geometry.inverse_duality_map_s": "s",
    "geometry.inverse_duality_map_calls": "count",
    "geometry.lr_norm_s": "s",
    "geometry.lr_norm_calls": "count",
    "geometry.bregman_distance_s": "s",
    "geometry.bregman_distance_calls": "count",
    "geometry.vector_constructions_per_iter": "1/iter",
    "noise.apply_s": "s",
    "noise.level_s": "s",
    "solver.iterations": "count",
    "solver.records": "count",
    "solver.self_s": "s",
    "solver.us_per_iter": "us",
    "solver.us_per_iter.blas1": "us",
    "solver.relative_error_s": "s",
    "solver.relative_error_calls_per_iter": "1/iter",
    "solver.history_csv_s": "s",
    "rates.noisy_study_s": "s",
    "rates.cells": "count",
    "array_io.write_s": "s",
    "array_io.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class _Spans:
    def __init__(self, record):
        self.spans = record["spans"]

    def total(self, name, *, under=None, field="total_s"):
        """Sum of ``field`` over spans named ``name``, optionally only those
        with a span named ``under`` among their ancestors."""
        return sum(s[field] for s in self.spans
                   if s["path"][-1] == name
                   and (under is None or under in s["path"][:-1]))

    def calls(self, name, *, under=None):
        return self.total(name, under=under, field="count")


def us_per_iter(record) -> float:
    iters = record["counters"].get("solver.iterations", 0)
    return _Spans(record).total(SOLVER) / iters * 1e6 if iters else 0.0


def layer_metrics(record, blas1_record, overhead_s) -> dict:
    """Per-layer metrics of one traced command.

    Kernel metrics (Radon projections, forward/adjoint blocks, geometry
    maps, relative error) count only calls made inside solver runs, so
    setup-time calls from the constant estimators do not blur the
    per-iteration figures.  ``_s`` values are busy time summed over
    threads; forward and solver kernels report self time.
    """
    spans = _Spans(record)
    counters = record["counters"]
    iters = counters.get("solver.iterations", 0)

    def per_iter(n):
        return n / iters if iters else 0.0

    cells = record["cell_seconds"]
    values = {
        "cli.import_s": record["import_s"],
        "cli.sweep_cell_s.p50": statistics.median(cells) if cells else 0.0,
        "cli.sweep_cell_s.max": max(cells) if cells else 0.0,
        "config.parse_s": spans.total("config.parse"),
        "phantoms.make_s": spans.total("phantoms.make"),
        "radon.build_s": spans.total("radon.build"),
        "radon.nnz": counters.get("radon.nnz", 0),
        "radon.matrix_mb": counters.get("radon.matrix_bytes", 0) / 1e6,
        "radon.project_calls_per_iter": per_iter(spans.calls("radon.project", under=SOLVER)),
        "radon.back_project_calls_per_iter":
            per_iter(spans.calls("radon.back_project", under=SOLVER)),
        "radon.project_s": spans.total("radon.project", under=SOLVER),
        "radon.back_project_s": spans.total("radon.back_project", under=SOLVER),
        "forward.build_problem_s": spans.total("forward.build_problem"),
        "forward.estimate_gamma_s": spans.total("forward.estimate_gamma"),
        "forward.estimate_lmax_s": spans.total("forward.estimate_lmax"),
        "forward.apply_block_calls_per_iter":
            per_iter(spans.calls("forward.apply_block", under=SOLVER)),
        "forward.adjoint_apply_calls_per_iter":
            per_iter(spans.calls("forward.adjoint_apply", under=SOLVER)),
        "forward.apply_block_s":
            spans.total("forward.apply_block", under=SOLVER, field="self_s"),
        "forward.adjoint_apply_s":
            spans.total("forward.adjoint_apply", under=SOLVER, field="self_s"),
    }
    for op in ("duality_map", "inverse_duality_map", "lr_norm", "bregman_distance"):
        values[f"geometry.{op}_s"] = spans.total(f"geometry.{op}", under=SOLVER)
        values[f"geometry.{op}_calls"] = spans.calls(f"geometry.{op}", under=SOLVER)
    values.update({
        "geometry.vector_constructions_per_iter": per_iter(spans.calls(VECTOR, under=SOLVER)),
        "noise.apply_s": spans.total("noise.apply"),
        "noise.level_s": spans.total("noise.level"),
        "solver.iterations": iters,
        "solver.records": counters.get("solver.records", 0),
        "solver.self_s": spans.total(SOLVER, field="self_s"),
        "solver.us_per_iter": us_per_iter(record),
        "solver.us_per_iter.blas1": us_per_iter(blas1_record),
        "solver.relative_error_s": spans.total("solver.relative_error", under=SOLVER),
        "solver.relative_error_calls_per_iter":
            per_iter(spans.calls("solver.relative_error", under=SOLVER)),
        "solver.history_csv_s": spans.total("solver.history_csv"),
        "rates.noisy_study_s": spans.total("rates.noisy_study"),
        "rates.cells": spans.calls(SOLVER, under="rates.noisy_study"),
        "array_io.write_s": spans.total("array_io.write"),
        "array_io.bytes_written": counters.get("array_io.bytes_written", 0),
        "trace.overhead_s": overhead_s,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}
