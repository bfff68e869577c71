"""Tests of the benchmark's own code:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import configparser
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_UNITS
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _seeds(path):
    parser = configparser.ConfigParser()
    parser.read(path)
    return {s: parser.get(s, "seed") for s in ("solver", "noise", "phantom", "estimates")
            if parser.has_option(s, "seed")}


def test_default_seed_reproduces_the_shipped_config_and_others_shift_it(tmp_path):
    base = HERE / "configs" / "full_slice.ini"
    shipped = HERE.parent / "configs" / "schlieren_full.ini"
    workloads.write_config(base, tmp_path / "s0.ini", workloads.DEFAULT_SEED)
    workloads.write_config(base, tmp_path / "s5.ini", 5)
    assert _seeds(tmp_path / "s0.ini") == _seeds(shipped)
    shifted = _seeds(tmp_path / "s5.ini")
    assert shifted["solver"] == str(int(_seeds(shipped)["solver"]) + 5)
    assert shifted["noise"] == str(int(_seeds(shipped)["noise"]) + 5)
    assert shifted["phantom"] == _seeds(shipped)["phantom"]


def _write_history(path, rel_errors):
    rows = ["epoch,iter,mu,batch,psi,residual,rel_l2_err,bregman"]
    for k, err in enumerate(rel_errors):
        mu, batch = ("", "") if k == 0 else ("1.0", "3")
        rows.append(f"0,{k},{mu},{batch},0.5,0.25,{err!r},0.125")
    path.write_text("\n".join(rows) + "\n")


def test_reference_comparison_tolerates_blas_thread_digits_only(tmp_path):
    """At 110x110 the history digits depend on the BLAS thread count.

    Between one OpenBLAS thread and the default, full_slice's history.csv
    differed by up to 4e-15 relative on a 2-core box while the final
    iterate was identical.  The reference comparison must absorb that
    (RTOL) and still reject a change in the numbers themselves.
    """
    ref, got = tmp_path / "ref.csv", tmp_path / "history.csv"
    _write_history(ref, [0.9, 0.8, 0.7])
    _write_history(got, [0.9, 0.8 * (1 + 4e-15), 0.7])
    assert workloads.compare_csv(got, ref, all_columns=True) == []
    _write_history(got, [0.9, 0.8 * (1 + 1e-4), 0.7])
    assert workloads.compare_csv(got, ref, all_columns=True)
    # Other seeds: only the seed-free columns (epoch, iter, mu) are compared.
    assert workloads.compare_csv(got, ref, all_columns=False) == []
    _write_history(got, [0.9, 0.8])
    assert "rows" in workloads.compare_csv(got, ref, all_columns=False)[0]


def test_tracer_aggregates_self_time_per_thread_and_joins_same_name_calls():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.02)

    leaf = tracer.wrap("radon.project", leaf)
    inner = tracer.wrap("forward.apply_block", lambda: leaf())
    outer = tracer.wrap("forward.apply_block", lambda: inner())
    solve = tracer.wrap(spans.SOLVER, lambda: (outer(), tracer.count(spans.VECTOR)))

    worker = threading.Thread(target=solve, name="worker")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    solve()

    rows = tracer.as_dict()["spans"]
    by_key = {(r["thread"], tuple(r["path"])): r for r in rows}
    for thread in ("worker", threading.current_thread().name):
        block = by_key[(thread, (spans.SOLVER, "forward.apply_block"))]
        assert block["count"] == 1          # the nested same-name call joined it
        assert block["total_s"] >= 0.02
        assert block["self_s"] < 0.01       # the sleep belongs to radon.project
        assert by_key[(thread, (spans.SOLVER, spans.VECTOR))]["count"] == 1


def test_layer_metrics_report_every_listed_metric():
    record = {"import_s": 0.3, "cell_seconds": [1.0, 3.0, 2.0],
              "counters": {"solver.iterations": 10, "solver.records": 3},
              "spans": [
                  {"thread": "t", "path": [spans.SOLVER], "count": 1,
                   "total_s": 1.0, "self_s": 0.4},
                  {"thread": "t", "path": [spans.SOLVER, "radon.project"], "count": 30,
                   "total_s": 0.6, "self_s": 0.6},
                  {"thread": "t", "path": ["forward.estimate_gamma", "radon.project"],
                   "count": 99, "total_s": 5.0, "self_s": 5.0},
              ]}
    metrics = spans.layer_metrics(record, record, 0.25)
    assert list(metrics) == list(spans.LAYER_UNITS)
    assert metrics["radon.project_calls_per_iter"]["value"] == 3.0
    assert metrics["radon.project_s"]["value"] == 0.6
    assert metrics["solver.us_per_iter"]["value"] == pytest.approx(1e5)
    assert metrics["cli.sweep_cell_s.p50"]["value"] == 2.0
    assert metrics["cli.sweep_cell_s.max"]["value"] == 3.0


def test_launch_traces_a_real_cli_command(tmp_path):
    config = tmp_path / "desk.ini"
    workloads.write_config(HERE / "configs" / "desk_sweep.ini", config, 0)
    record_path = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), "--record", str(record_path), "--trace",
         "--", "run", "--config", str(config), "--out", str(tmp_path / "out"),
         "--epochs", "2", "--quiet"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text())
    assert record["solver_first_ns"] < record["solver_last_ns"]
    assert record["counters"]["solver.iterations"] == 10
    metrics = spans.layer_metrics(record, record, 0.0)
    assert metrics["forward.adjoint_apply_calls_per_iter"]["value"] == 1.0
    assert metrics["radon.back_project_calls_per_iter"]["value"] == 6.0
    assert metrics["radon.build_s"]["value"] > 0
    assert metrics["array_io.bytes_written"]["value"] == 2 * (8 * 32 * 32 + len("BSGD 2 32 32\n"))
