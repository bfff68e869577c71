"""Benchmark of the bsgd CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It is a closed loop with one client: each command is one ``bsgd`` CLI
call in a fresh process, started after the previous one has ended (see
launch.py).  Workloads, their seeds and output checks are in
workloads.py; NOTES.md says why each workload is there.

Untraced (``--trace 0``), it repeats the workload's command, at least
MIN_COMMANDS times and otherwise while another command of typical length
fits in ``--seconds``, and reports the median over commands of

- ``wall_s``: process start to exit, timed by this process;
- ``setup_s``: process start to the entry of the first solver call;
- ``solve_s``: entry of the first solver call to return of the last;
- ``peak_rss_mb``: the command process's maximum resident set size.

Traced (``--trace 1``), it runs the command three times: untraced, traced,
and traced with OPENBLAS_NUM_THREADS=1, and reports the per-layer metrics
of spans.py, plus the tracing overhead (traced minus untraced ``wall_s``).

Every command's outputs are checked (workloads.check_outputs).  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` (commands) and ``metrics``; the failure share
``fail_frac = failed / attempted`` is printed above it with the
environment.  ``--write-reference`` runs one default-seed command and
stores its outputs as the reference.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, check_outputs, write_config, write_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
MIN_COMMANDS = 2
RUN_BUDGET_S = 150.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Command:
    """One CLI command: its timings, record and output problems."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    record: dict = field(default_factory=dict)
    setup_s: float = 0.0
    solve_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_command(workload, config: Path, seed: int, *, trace: bool = False,
                env_extra: dict | None = None, timeout: float = RUN_BUDGET_S,
                check: bool = True) -> Command:
    """Run one CLI command in a fresh process and check its outputs."""
    work = config.parent
    out, record_path = work / "out", work / "record.json"
    record_path.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, str(HERE / "launch.py"), "--record", str(record_path)]
    argv += ["--trace"] if trace else []
    argv += ["--", *workload.cli_args(config, out)]
    env = dict(os.environ)
    if workload.verb == "sweep":
        env["BSGD_THREADS"] = str(len(os.sched_getaffinity(0)))
    env.update(env_extra or {})

    with open(work / "command.log", "w") as log:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        exited = threading.Event()

        def kill_if_running():
            if not exited.is_set():
                proc.kill()

        timer = threading.Timer(timeout, kill_if_running)
        timer.start()
        try:
            # Wait without reaping, so a late kill hits a zombie, never a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end_ns = time.monotonic_ns()
            exited.set()
        finally:
            timer.cancel()
            if not exited.is_set():
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)

    cmd = Command(wall_s=(end_ns - start_ns) / 1e9, peak_rss_mb=usage.ru_maxrss / 1024,
                  returncode=proc.returncode)
    if cmd.returncode != 0:
        tail = (work / "command.log").read_text().strip().splitlines()[-1:]
        cmd.problems.append(f"exit code {cmd.returncode}: {' '.join(tail)}")
        return cmd
    cmd.record = json.loads(record_path.read_text())
    first, last = cmd.record["solver_first_ns"], cmd.record["solver_last_ns"]
    if first is None:
        cmd.problems.append("no solver call recorded")
        return cmd
    cmd.setup_s = (first - start_ns) / 1e9
    cmd.solve_s = (last - first) / 1e9
    if check:
        try:
            cmd.problems = check_outputs(workload, out, HERE / "reference" / workload.name,
                                         seed)
        except (OSError, ValueError, KeyError) as exc:
            cmd.problems.append(f"unreadable output: {exc!r}")
    return cmd


def median_metrics(commands) -> dict:
    ok = [c for c in commands if not c.failed] or commands
    return {name: {"value": statistics.median(getattr(c, name) for c in ok), "unit": unit}
            for name, unit in E2E_UNITS.items()}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": model,
        **_cache_sizes(),
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bsgd" / "cli.py").is_file():
        print(f"error: no bsgd sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.ini"
    write_config(HERE / "configs" / f"{workload.name}.ini", config, args.seed)

    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            parser.error("--write-reference needs the default seed")
        cmd = run_command(workload, config, args.seed, check=False)
        if cmd.failed:
            print(f"error: {cmd.problems[0]}", file=sys.stderr)
            return 1
        write_reference(workload, work / "out", HERE / "reference" / workload.name)
        print(f"wrote reference for {workload.name}")
        return 0

    started = time.monotonic()

    def remaining() -> float:
        return max(RUN_BUDGET_S - (time.monotonic() - started), 10.0)

    if args.trace:
        base = run_command(workload, config, args.seed, timeout=remaining())
        traced = run_command(workload, config, args.seed, trace=True, timeout=remaining())
        blas1 = run_command(workload, config, args.seed, trace=True, timeout=remaining(),
                            env_extra={"OPENBLAS_NUM_THREADS": "1"})
        commands = [base, traced, blas1]
        if any(c.failed for c in commands):
            metrics = {}
        else:
            metrics = layer_metrics(traced.record, blas1.record,
                                    traced.wall_s - base.wall_s)
    else:
        commands = []
        while True:
            elapsed = time.monotonic() - started
            typical = statistics.median(c.wall_s for c in commands) if commands else 0.0
            if len(commands) >= MIN_COMMANDS and elapsed + typical > args.seconds:
                break
            if commands and elapsed + max(c.wall_s for c in commands) > RUN_BUDGET_S:
                break
            commands.append(run_command(workload, config, args.seed, timeout=remaining()))
        metrics = median_metrics(commands)

    failed = sum(c.failed for c in commands)
    for i, c in enumerate(commands):
        print(f"command {i}: wall {c.wall_s:.3f} s, setup {c.setup_s:.3f} s, "
              f"solve {c.solve_s:.3f} s, rss {c.peak_rss_mb:.1f} MB"
              + (f", FAILED: {'; '.join(c.problems)}" if c.failed else ""))
    print("environment: " + json.dumps(environment()))
    print(f"{workload.name} seed {args.seed}: fail_frac {failed / len(commands)} ratio "
          f"({failed} of {len(commands)} commands failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(commands),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
