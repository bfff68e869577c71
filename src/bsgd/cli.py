"""Command-line front end: run, sweep, rates, phantom.

All outputs land under ``--out``: history.csv, best.bsgd, final.bsgd,
manifest.txt (plus geometry.txt for tomography runs and summary.csv for
sweeps).  The manifest pins every resolved parameter and seed, so feeding
it back as the config reproduces the run bit for bit.

A sweep's Schlieren cells share one build (``_SharedSetup``): while the
config fields it reads stay the same (``_setup_inputs``), a cell takes the
previous cell's phantom, Radon system and L_max, and one gamma estimate
serves every r_Y of the cells that share a build.  Each cell still makes
its own problem over the shared system, so its exact data, and every
output byte, are those of a run built on its own.  A sweep value that
does not parse or that repeats, and a ``[phantom] path`` that cannot be
read, fail before ``--out`` is made.

Sweep cells run on n workers, one per usable CPU and at most one per cell
(``_worker_count``).  The first cell's shared build is made first; then
n - 1 workers are forked from the calling process, which is worker 0, and
worker w runs cells w, w + n, ... in order.  They are processes, not
threads: the cells' short numpy and sparse calls hand the interpreter lock
back and forth, and two worker threads made the 4-cell desk sweep nearly
twice as slow as one (2-core Xeon).  Forked after the build, a worker pays
neither the import nor the build again; a ``batch_size`` sweep, whose
cells share no build, holds one Radon system per worker.  Each worker
holds back its cells' ``bsgd`` log records, and the calling process
replays them in ``--values`` order once every worker has ended, so the
outputs and stderr do not depend on n.  A worker stops at its first
failing cell; the sweep then raises the failure of the lowest failing
cell and writes no summary, and cells after that one may already have
written their outputs.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import rates as rates_mod
from .array_io import read_array, write_array
from .config import RunConfig, parse_config, serialize_config
from .forward import (
    build_benchmark,
    build_schlieren_problem,
    estimate_lipschitz_Lmax,
    estimate_tcc_gamma,
)
from .radon import build_radon
from .noise import apply_noise, noise_level
from .phantoms import make_phantom
from .solver import (
    SolverConfig,
    StoppingRule,
    format_value,
    history_to_csv,
    run_sgd,
)

__all__ = ["main", "cmd_run", "cmd_sweep", "cmd_rates", "cmd_phantom"]

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _load_phantom(cfg: RunConfig):
    if not cfg.phantom_path:
        return make_phantom((cfg.rows, cfg.cols), cfg.n_blobs, cfg.amplitude,
                            cfg.phantom_seed)
    try:
        phantom = read_array(cfg.phantom_path)
    except OSError as exc:
        raise ValueError(f"[phantom] path {cfg.phantom_path} cannot be read: "
                         f"{exc.strerror or exc}") from exc
    if phantom.shape != (cfg.rows, cfg.cols):
        raise ValueError(f"[phantom] path {cfg.phantom_path} holds shape "
                         f"{phantom.shape}, not (rows, cols) = {(cfg.rows, cfg.cols)}")
    return phantom


def _setup_inputs(cfg: RunConfig) -> tuple:
    """The config fields a Schlieren build reads, other than r_Y: the
    phantom, the Radon system and L_max are functions of these alone."""
    return (cfg.rows, cfg.cols, cfg.n_angles, cfg.n_detectors, cfg.batch_size,
            cfg.phantom_path, cfg.n_blobs, cfg.amplitude, cfg.phantom_seed,
            cfg.gamma_ball_radius, cfg.gamma_samples, cfg.estimate_seed)


class _SharedSetup:
    """The Schlieren setup that one command's runs (``cells``) share: the
    phantom, the Radon system and L_max of the last build, kept while its
    ``_setup_inputs`` stay the same, and gamma for each r_Y of the cells
    built on them, from one estimate.  A new set of inputs drops the old
    setup before it builds, so one system is held at a time."""

    def __init__(self, cells):
        self.cells = tuple(cells)
        self.inputs = self.phantom = self.system = self.L_max = None
        self.gamma = {}  # r_Y -> gamma

    def problem(self, cfg: RunConfig):
        inputs = _setup_inputs(cfg)
        if inputs != self.inputs:
            self.phantom = self.system = None
            self.phantom = _load_phantom(cfg)
            self.system = build_radon((cfg.rows, cfg.cols), cfg.n_angles,
                                      cfg.n_detectors, cfg.batch_size)
            self.inputs, self.L_max, self.gamma = inputs, None, {}
        # each run applies its own blocks to the truth: the same bits
        problem = build_schlieren_problem(self.system, cfg.batch_size,
                                          self.phantom)
        if cfg.r_y not in self.gamma:
            r_ys = tuple(dict.fromkeys(
                c.r_y for c in self.cells + (cfg,) if _setup_inputs(c) == inputs))
            self.gamma.update(zip(r_ys, estimate_tcc_gamma(
                problem, self.phantom, cfg.gamma_ball_radius,
                cfg.gamma_samples, cfg.estimate_seed, r_Y=r_ys)))
        if self.L_max is None:
            self.L_max = estimate_lipschitz_Lmax(
                problem, self.phantom, cfg.gamma_ball_radius,
                max(1, cfg.gamma_samples // 4), cfg.estimate_seed,
                n_power_iter=20)
        problem.gamma, problem.L_max = self.gamma[cfg.r_y], self.L_max
        return problem


def _build_problem(cfg: RunConfig, shared: _SharedSetup | None = None):
    """Build the forward problem and set its operator constants; a
    Schlieren build takes what it can from ``shared``."""
    if cfg.experiment == "benchmark":
        return build_benchmark(cfg.dim, cfg.diag_min, cfg.diag_max, cfg.beta,
                               n_blocks=cfg.n_blocks, seed=cfg.problem_seed)
    if shared is None:
        shared = _SharedSetup([cfg])
    return shared.problem(cfg)


def _solver_config(cfg: RunConfig, delta: float, n_blocks: int) -> SolverConfig:
    if cfg.stopping == "a_priori":
        stopping = StoppingRule("a_priori", delta=delta,
                                gamma_budget=cfg.gamma_budget)
    else:
        stopping = StoppingRule(cfg.stopping)
    return SolverConfig(r_X=cfg.r_x, r_Y=cfg.r_y, mu0=cfg.mu0,
                        step_decay_exponent=cfg.decay, max_epochs=cfg.epochs,
                        seed=cfg.solver_seed, stopping=stopping, mode=cfg.mode,
                        record_every=cfg.record_every or n_blocks)


def _write_geometry_sidecar(problem, path: Path) -> None:
    lines = [
        f"n_angles = {problem.system.n_angles}",
        f"n_detectors = {problem.system.n_detectors}",
        "angles = " + ",".join(map(format_value, problem.system.angles)),
    ]
    for i, batch in enumerate(problem.batches):
        lines.append(f"batch_{i} = " + ",".join(str(a) for a in batch))
    path.write_text("\n".join(lines) + "\n")


def execute_run(cfg: RunConfig, out_dir, quiet: bool = False, *,
                shared: _SharedSetup | None = None) -> dict:
    """One full experiment: build, perturb, solve, write artifacts.  A
    sweep passes its cells one ``shared`` setup."""
    started = time.monotonic()
    problem = _build_problem(cfg, shared)
    y_obs = apply_noise(problem.y_exact, cfg.noise_kind, cfg.epsilon, cfg.kappa,
                        cfg.noise_seed)
    deltas, delta = noise_level(problem.y_exact, y_obs, cfg.r_y)

    # a drawn noise level of 0 fails a priori stopping before --out is made
    solver_cfg = _solver_config(cfg, delta, problem.n_blocks)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the noise in the outer-l^q product norm that history's residual takes
    q = solver_cfg.q
    noise_product_norm = float(np.sum(np.array(deltas) ** q) ** (1.0 / q))
    run = run_sgd(problem, y_obs, solver_cfg, x0=cfg.x0)

    history_to_csv(run.history, out / "history.csv", run.iters_per_epoch)
    write_array(out / "best.bsgd", run.best_x)
    write_array(out / "final.bsgd", run.final_x)
    if cfg.experiment == "schlieren":
        _write_geometry_sidecar(problem, out / "geometry.txt")

    result = {
        "gamma_hat": problem.gamma,
        "L_max_hat": problem.L_max,
        "delta": delta,
        "noise_product_norm": noise_product_norm,
        "k_delta": run.n_iterations if cfg.stopping == "a_priori" else "",
        "n_iterations": run.n_iterations,
        "best_iteration": run.best_k,
        "best_metric": run.best_metric,
        "metric_kind": "rel_l2_error",
        "diverged": run.diverged,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    (out / "manifest.txt").write_text(
        serialize_config(cfg, extra_sections={"result": result})
    )
    _say(quiet, f"run complete: {run.n_iterations} iterations, "
                f"best rel_l2_error {run.best_metric:.6g} "
                f"at iteration {run.best_k}")
    if run.diverged:
        raise RuntimeError(f"iterate diverged at iteration {run.diverged_at}")
    return result


def cmd_run(config_path, out_dir, *, seed: int | None = None,
            epochs: int | None = None, quiet: bool = False) -> int:
    cfg = parse_config(config_path)
    if seed is not None:
        cfg = replace(cfg, solver_seed=seed)
    if epochs is not None:
        cfg = replace(cfg, epochs=epochs)
    execute_run(cfg, out_dir, quiet)
    return 0


_SWEEP_AXES = ("noise_level", "batch_size", "space_exponent")


def _axis_numbers(axis: str, token: str) -> list:
    """The numbers one sweep value gives its axis: an integer for
    batch_size, a float for noise_level, rX or rX:rY for space_exponent."""
    parts = token.split(":") if axis == "space_exponent" else [token]
    convert = int if axis == "batch_size" else float
    try:
        numbers = [convert(part) for part in parts]
    except ValueError:
        numbers = []
    if not 1 <= len(numbers) <= 2:
        raise ValueError(f"sweep axis {axis} cannot read the value {token!r}")
    return numbers


def _apply_axis(cfg: RunConfig, axis: str, token: str) -> RunConfig:
    if axis == "noise_level":
        if cfg.noise_kind != "gaussian":
            raise ValueError(f"sweep axis noise_level sets epsilon, which "
                             f"{cfg.noise_kind!r} noise does not read")
        (epsilon,) = _axis_numbers(axis, token)
        return replace(cfg, epsilon=epsilon)
    if axis == "batch_size":
        if cfg.experiment != "schlieren":
            raise ValueError(f"sweep axis batch_size is not read by the "
                             f"{cfg.experiment} experiment (it reads n_blocks)")
        (batch_size,) = _axis_numbers(axis, token)
        return replace(cfg, batch_size=batch_size)
    if axis == "space_exponent":
        r_x, *r_y = _axis_numbers(axis, token)
        return replace(cfg, r_x=r_x, r_y=r_y[0] if r_y else cfg.r_y)
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")


def _worker_count(n_cells: int) -> int:
    """One sweep worker per usable CPU, at most one per cell; 1 where the
    platform cannot fork or report the CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(n_cells, len(os.sched_getaffinity(0)))


class _HeldRecords(logging.Handler):
    """Keeps log records, formatted into their messages so they pickle."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _run_worker(runs, w: int, n: int, shared: _SharedSetup) -> dict:
    """Run cells w, w + n, ... of ``runs`` in order, up to the first that
    fails, holding back each cell's ``bsgd`` log records.  Returns
    ``{"results": {i: result}, "records": {i: [record]}, "failure":
    (i, exception) or None}``."""
    log = logging.getLogger("bsgd")
    saved = log.handlers, log.propagate
    held = _HeldRecords()
    log.handlers, log.propagate = [held], False
    report = {"results": {}, "records": {}, "failure": None}
    try:
        for i in range(w, len(runs), n):
            held.records = report["records"][i] = []
            cfg, out = runs[i]
            try:
                report["results"][i] = execute_run(cfg, out, quiet=True,
                                                   shared=shared)
            except Exception as exc:  # noqa: BLE001 - reported in cell order
                report["failure"] = (i, exc)
                break
    finally:
        log.handlers, log.propagate = saved
    return report


def _fork_worker(runs, w: int, n: int, shared: _SharedSetup):
    """Fork worker w; return its pid and the read end of the pipe on which
    it sends its report.  The child leaves through ``os._exit``, so no
    ``finally``, atexit hook or buffered output it inherited runs in it."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns at any fork of a process with threads, and
        # OpenBLAS keeps a pool; OpenBLAS stops that pool in its own atfork
        # handler, and the child runs only bsgd code before os._exit.
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is "
                                "multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            report = _run_worker(runs, w, n, shared)
            with open(write_fd, "wb") as pipe:
                pickle.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_cells(runs, shared: _SharedSetup) -> list:
    """``execute_run`` on each (config, out dir) of ``runs`` on
    ``_worker_count`` workers, with the calling process as worker 0.  Once
    every worker has ended, replays the cells' log records in ``runs``
    order and raises the failure of the lowest failing cell, or returns
    the results in ``runs`` order."""
    n = _worker_count(len(runs))
    children, blobs, statuses = [], [], []
    try:
        for w in range(1, n):
            children.append(_fork_worker(runs, w, n, shared))
        reports = [_run_worker(runs, 0, n, shared)]
        blobs = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for w, (blob, status) in enumerate(zip(blobs, statuses), start=1):
        try:
            reports.append(pickle.loads(blob))
        except Exception:  # noqa: BLE001 - an empty or cut report
            code = os.waitstatus_to_exitcode(status)
            reports.append({"results": {}, "records": {}, "failure": (w, RuntimeError(
                f"sweep worker {w} sent no readable report (exit status {code})"))})

    failures = [r["failure"] for r in reports if r["failure"] is not None]
    failed, exc = min(failures, key=lambda f: f[0]) if failures else (None, None)
    records = {i: cell for r in reports for i, cell in r["records"].items()}
    for i in range(len(runs) if failed is None else failed + 1):
        for record in records.get(i, ()):
            logging.getLogger(record.name).handle(record)
    if exc is not None:
        raise exc
    results = {i: res for r in reports for i, res in r["results"].items()}
    return [results[i] for i in range(len(runs))]


def cmd_sweep(config_path, axis: str, values, out_dir, *,
              quiet: bool = False) -> int:
    cfg = parse_config(config_path)
    tokens = [v.strip() for v in values if str(v).strip()]
    if not tokens:
        raise ValueError("sweep needs at least one axis value")
    repeated = sorted({tok for tok in tokens if tokens.count(tok) > 1})
    if repeated:
        raise ValueError(f"--values repeats {', '.join(repeated)}: each value "
                         f"is one cell and one output directory")
    cells = [(tok, _apply_axis(cfg, axis, tok)) for tok in tokens]
    out = Path(out_dir)
    shared = _SharedSetup(cell_cfg for _, cell_cfg in cells)
    if cfg.experiment == "schlieren":
        # the workers fork after this build; each cell remakes its problem
        shared.problem(cells[0][1])
    results = _run_cells([(cell_cfg, out / f"{axis}={tok}")
                          for tok, cell_cfg in cells], shared)

    lines = ["axis,value,best_error,best_iteration,delta,metric"]
    for (tok, _), res in zip(cells, results):
        lines.append(",".join(map(format_value, (
            axis, tok, res["best_metric"], res["best_iteration"], res["delta"],
            res["metric_kind"]))))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    _say(quiet, f"sweep complete: {len(cells)} cells under {out}")
    return 0


def cmd_rates(config_path, out_dir, *, quiet: bool = False) -> int:
    cfg = parse_config(config_path)
    if cfg.experiment != "benchmark":
        raise ValueError("rate studies run on the benchmark experiment")
    deltas = cfg.rate_delta_list()
    # both studies run SGD from 0 and set their own stopping rules
    for key, value, want in (("x0", cfg.x0, 0.0),
                             ("stopping", cfg.stopping, "max_epochs")):
        if value != want:
            raise ValueError(f"rate studies need [solver] {key} = {want}, "
                             f"got {value}")
    problem = _build_problem(cfg)
    base = _solver_config(cfg, 0.0, problem.n_blocks)
    if base.geometry_x().G_pstar is None:
        raise ValueError(f"rate studies need the dual's smoothness constant, "
                         f"and [space] r_x = {cfg.r_x} with mode = {cfg.mode} "
                         f"has none (p = {base.p})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    histories = []
    for s in range(cfg.rate_seeds):
        run = run_sgd(problem, problem.y_exact,
                      replace(base, seed=cfg.solver_seed + s))
        histories.append(run.history)
    exact_fit = rates_mod.fit_exact_rate(histories, problem.stability.alpha)
    bound = rates_mod.theoretical_contraction_factor(
        base.mu0, gamma=problem.gamma, L_max=problem.L_max,
        G_pstar=base.geometry_x().G_pstar, p=base.p,
        C_alpha=problem.stability.C_alpha, n_blocks=problem.n_blocks)
    exact_ok = exact_fit.fitted_rate <= bound + 0.05 \
        and exact_fit.r_squared >= 0.95

    noisy_cfg = replace(
        base,
        stopping=StoppingRule("a_priori", delta=deltas[0],
                              gamma_budget=cfg.rate_gamma_budget),
    )
    study = rates_mod.noisy_rate_study(problem, problem.stability, deltas,
                                       noisy_cfg, cfg.rate_seeds)
    noisy_ok = study.slope_within(0.2) and study.fit.r_squared >= 0.9

    rates_mod.write_study_csv(study, out / "noisy_study.csv")
    rates_mod.write_study_summary(
        study, out / "rates_summary.txt",
        extra={
            "exact_contraction_factor": exact_fit.fitted_rate,
            "exact_theoretical_bound": bound,
            "exact_r_squared": exact_fit.r_squared,
            "exact_within_bound": exact_ok,
        })
    _say(quiet, f"exact fit: factor {exact_fit.fitted_rate:.4f} "
                f"(bound {bound:.4f}, r2 {exact_fit.r_squared:.3f})")
    _say(quiet, f"noisy fit: slope {study.fit.fitted_rate:.3f} "
                f"(target {study.target_slope:.1f}, r2 {study.fit.r_squared:.3f})")
    if not (exact_ok and noisy_ok):
        print("error: rate study outside acceptance tolerances",
              file=sys.stderr)
        return 1
    return 0


def cmd_phantom(shape: str, n_blobs: int, amplitude: float, seed: int,
                out_path, *, quiet: bool = False) -> int:
    rows, _, cols = shape.lower().partition("x")
    if not (rows.isdecimal() and cols.isdecimal() and min(int(rows), int(cols)) > 0):
        raise ValueError(f"--shape must be ROWSxCOLS, positive integers; got {shape!r}")
    rows, cols = int(rows), int(cols)
    if not math.isfinite(amplitude):
        raise ValueError(f"--amplitude must be finite, got {amplitude}")
    if n_blobs < 0:
        raise ValueError(f"--blobs must be >= 0, got {n_blobs}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    phantom = make_phantom((rows, cols), n_blobs, amplitude, seed)
    write_array(out_path, phantom)
    _say(quiet, f"wrote {rows}x{cols} phantom to {out_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsgd",
        description="Stochastic gradient descent for nonlinear inverse "
                    "problems in discrete Lebesgue spaces.",
    )
    parser.add_argument("--log-level", choices=_LOG_LEVELS, default="warning",
                        help="least severe solver log message printed to "
                             "stderr (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--epochs", type=int, default=None)
    run.add_argument("--quiet", action="store_true")

    sweep = sub.add_parser("sweep", help="run one config across an axis of values")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--axis", required=True, choices=_SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values (rX or rX:rY for "
                            "space_exponent)")
    sweep.add_argument("--quiet", action="store_true")

    rates = sub.add_parser("rates", help="run the convergence-rate studies")
    rates.add_argument("--config", required=True)
    rates.add_argument("--out", required=True)
    rates.add_argument("--quiet", action="store_true")

    phantom = sub.add_parser("phantom", help="write a sparse-blob phantom")
    phantom.add_argument("--shape", default="32x32")
    phantom.add_argument("--blobs", type=int, default=4)
    phantom.add_argument("--amplitude", type=float, default=1.0)
    phantom.add_argument("--seed", type=int, default=7)
    phantom.add_argument("--out", required=True)
    phantom.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # bare messages on stderr, as Python prints them with no logging set up
    handler = logging.StreamHandler(sys.stderr)
    log = logging.getLogger("bsgd")
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, seed=args.seed,
                           epochs=args.epochs, quiet=args.quiet)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.axis, args.values.split(","),
                             args.out, quiet=args.quiet)
        if args.command == "rates":
            return cmd_rates(args.config, args.out, quiet=args.quiet)
        return cmd_phantom(args.shape, args.blobs, args.amplitude, args.seed,
                           args.out, quiet=args.quiet)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
