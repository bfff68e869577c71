import configparser
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bsgd
from bsgd.array_io import read_array
from bsgd.cli import main
from bsgd.solver import a_priori_stop_index

SCHLIEREN_INI = """
[experiment]
kind = schlieren

[problem]
rows = 16
cols = 16
n_angles = 10
n_detectors = 23
batch_size = 2

[phantom]
n_blobs = 3
amplitude = 1.0
seed = 11

[space]
r_x = 1.5
r_y = 2.0
mode = practice

[noise]
kind = gaussian
epsilon = 1e-2
seed = 4

[solver]
mu0 = 5e-3
epochs = 10
seed = 1

[estimates]
ball_radius = 0.1
n_samples = 4
seed = 9
"""

BENCHMARK_INI = """
[experiment]
kind = benchmark

[problem]
dim = 40
diag_min = 0.9
diag_max = 1.1
n_blocks = 5

[space]
r_x = 2.0
r_y = 2.0
mode = theory

[solver]
mu0 = 0.5
epochs = 40
seed = 2
x0 = 0.0

[rates]
deltas = 1e-1,1e-2,3e-3
n_seeds = 2
gamma_budget = 0.5
"""


# Gaussian noise and a-priori stopping, to put before BENCHMARK_INI's solver keys
A_PRIORI_SECTIONS = """[noise]
kind = gaussian
epsilon = 1e-2
seed = 3

[solver]
stopping = a_priori
gamma_budget = 0.5
"""


@pytest.fixture
def schlieren_cfg(tmp_path):
    path = tmp_path / "schlieren.ini"
    path.write_text(SCHLIEREN_INI)
    return path


@pytest.fixture
def benchmark_cfg(tmp_path):
    path = tmp_path / "benchmark.ini"
    path.write_text(BENCHMARK_INI)
    return path


def run_artifacts(out):
    return [out / name for name in ("history.csv", "best.bsgd", "final.bsgd",
                                    "manifest.txt")]


class TestCmdRun:
    def test_writes_artifacts(self, schlieren_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(schlieren_cfg),
                     "--out", str(out), "--quiet"]) == 0
        for path in run_artifacts(out):
            assert path.exists()
        assert (out / "geometry.txt").exists()
        recon = read_array(out / "best.bsgd")
        assert recon.shape == (16, 16)

    def test_bitwise_deterministic_rerun(self, schlieren_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(schlieren_cfg), "--out",
                     str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(schlieren_cfg), "--out",
                     str(out2), "--quiet"]) == 0
        for name in ("history.csv", "best.bsgd", "final.bsgd"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_reproduces_run(self, schlieren_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(schlieren_cfg), "--out",
                     str(out1), "--quiet"]) == 0
        assert main(["run", "--config", str(out1 / "manifest.txt"), "--out",
                     str(out2), "--quiet"]) == 0
        assert (out1 / "history.csv").read_bytes() == \
            (out2 / "history.csv").read_bytes()
        assert (out1 / "best.bsgd").read_bytes() == \
            (out2 / "best.bsgd").read_bytes()

    def test_manifest_records_stochastic_choices(self, schlieren_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(schlieren_cfg), "--out", str(out),
              "--quiet"])
        manifest = (out / "manifest.txt").read_text()
        for needle in ("seed = 1", "seed = 4", "seed = 9", "gamma_hat",
                       "l_max_hat", "delta", "wall_time_s"):
            assert needle in manifest.lower()

    def test_seed_override_changes_run(self, schlieren_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(schlieren_cfg), "--out", str(out1),
              "--quiet"])
        main(["run", "--config", str(schlieren_cfg), "--out", str(out2),
              "--seed", "99", "--quiet"])
        assert (out1 / "history.csv").read_bytes() != \
            (out2 / "history.csv").read_bytes()

    def test_missing_config_fails(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o"), "--quiet"]) == 1

    @pytest.mark.parametrize("old, new", [
        ("kind = gaussian", "kind = gausian"),
        ("mode = practice", "mode = practise"),
        ("epsilon = 1e-2", "epsilon = -1e-2"),
        ("mu0 = 5e-3", "mu0 = -0.5"),
        ("[solver]\n", "[solver]\nrecord_every = -3\n"),
        ("mu0 = 5e-3", "mu0 = nan"),
        ("[solver]\n", "[solver]\ndecay = nan\n"),
        ("r_x = 1.5", "r_x = inf"),
        # practice mode at r_x = 1.5 needs p = 1.5
        ("mode = practice", "mode = practice\np = 2.0\nq = 2.0"),
        # kappa = 0 (the default) and 1 corrupt nothing or everything
        ("kind = gaussian", "kind = salt_pepper"),
        ("kind = gaussian", "kind = salt_pepper\nkappa = 1.0"),
        # the impulsive kind is deleted: a config written for it is rejected
        ("kind = gaussian", "kind = impulsive\nkappa = 1.0"),
        ("mu0 = 5e-3\n", ""),
        ("epochs = 10", "epochs = 0"),
        ("n_samples = 4", "n_samples = 0"),
        ("rows = 16", "rows = 0"),
        ("cols = 16", "cols = 0"),
        ("n_angles = 10", "n_angles = 0"),
        ("n_detectors = 23", "n_detectors = 0"),
        ("batch_size = 2", "batch_size = 0"),
        ("batch_size = 2", "batch_size = 3"),
        ("[problem]\n", "[problem]\ndim = 0\n"),
        ("[problem]\n", "[problem]\nn_blocks = 0\n"),
        ("[solver]\n", "[rates]\nn_seeds = 0\n\n[solver]\n"),
        ("[solver]\n", "[rates]\ndeltas = nan,1e-2,1e-3\n\n[solver]\n"),
        ("[phantom]\n", "[phantom]\nkind = checkerboard\n"),
        ("[phantom]\n", "[phantom]\nbackground = 1.0\n"),
    ])
    def test_bad_value_fails_before_out_exists(self, tmp_path, capsys, old,
                                               new):
        path = tmp_path / "bad.ini"
        path.write_text(SCHLIEREN_INI.replace(old, new))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_phantom_file_matches_generated_phantom(self, schlieren_cfg,
                                                    tmp_path):
        def run(cfg, name):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
            return [(out / f).read_bytes()
                    for f in ("history.csv", "best.bsgd", "final.bsgd")]

        def run_from_file(phantom_seed):
            # seed 11 writes the phantom SCHLIEREN_INI's [phantom] keys make
            phantom = tmp_path / f"phantom{phantom_seed}.bsgd"
            assert main(["phantom", "--shape", "16x16", "--blobs", "3",
                         "--amplitude", "1.0", "--seed", str(phantom_seed),
                         "--out", str(phantom), "--quiet"]) == 0
            path = tmp_path / f"file{phantom_seed}.ini"
            path.write_text(SCHLIEREN_INI.replace(
                "[phantom]\n", f"[phantom]\npath = {phantom}\n"))
            return run(path, f"file{phantom_seed}")

        generated = run(schlieren_cfg, "generated")
        assert run_from_file(11) == generated
        assert run_from_file(12)[0] != generated[0]

    def test_benchmark_run(self, benchmark_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(benchmark_cfg), "--out", str(out),
                     "--epochs", "10", "--quiet"]) == 0
        recon = read_array(out / "final.bsgd")
        assert recon.shape == (40,)

    def test_a_priori_run_stops_at_the_stop_index(self, tmp_path):
        path = tmp_path / "a_priori.ini"
        path.write_text(BENCHMARK_INI.replace("[solver]\n", A_PRIORI_SECTIONS))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.txt")
        result, solver = manifest["result"], manifest["solver"]
        k_stop = a_priori_stop_index(
            result.getfloat("delta"), solver.getfloat("mu0"),
            solver.getfloat("decay"), solver.getfloat("gamma_budget"),
            manifest["space"].getfloat("p"))
        assert k_stop > 0
        assert result.getint("k_delta") == result.getint("n_iterations") == k_stop

    def test_a_priori_run_without_noise_fails(self, tmp_path, capsys):
        path = tmp_path / "a_priori.ini"
        path.write_text(BENCHMARK_INI.replace(
            "[solver]\n", A_PRIORI_SECTIONS.replace("kind = gaussian", "kind = none")))
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 1
        assert "a_priori stopping needs a positive noise level" in \
            capsys.readouterr().err


class TestCmdSweep:
    def test_noise_sweep_summary(self, schlieren_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(schlieren_cfg), "--out",
                     str(out), "--axis", "noise_level",
                     "--values", "5e-2,1e-2", "--quiet"]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis", "value", "best_error", "best_iteration",
                           "delta", "metric"]
        assert len(rows) == 3
        assert (out / "noise_level=5e-2" / "history.csv").exists()
        assert (out / "noise_level=1e-2" / "history.csv").exists()

    def test_space_exponent_sweep_with_pairs(self, schlieren_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(schlieren_cfg), "--out",
                     str(out), "--axis", "space_exponent",
                     "--values", "2.0,1.1:1.1", "--quiet"]) == 0
        assert (out / "space_exponent=2.0").is_dir()
        assert (out / "space_exponent=1.1:1.1").is_dir()

    def _check_cells_match_manifest_runs(self, cfg, tmp_path, axis, tokens):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--axis", axis, "--values", ",".join(tokens),
                     "--quiet"]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["value"] for row in rows] == tokens
        for tok, row in zip(tokens, rows):
            cell = out / f"{axis}={tok}"
            manifest = (cell / "manifest.txt").read_text()
            assert f"best_metric = {row['best_error']}\n" in manifest
            assert f"best_iteration = {row['best_iteration']}\n" in manifest
            rerun = tmp_path / f"rerun={tok}"
            assert main(["run", "--config", str(cell / "manifest.txt"),
                         "--out", str(rerun), "--quiet"]) == 0
            for name in ("history.csv", "final.bsgd", "best.bsgd",
                         "geometry.txt"):
                assert (cell / name).read_bytes() == \
                    (rerun / name).read_bytes(), (tok, name)

    def test_sweep_cells_match_manifest_runs(self, schlieren_cfg, tmp_path):
        # not sorted: rows must keep this order
        self._check_cells_match_manifest_runs(schlieren_cfg, tmp_path,
                                              "space_exponent", ["2.0", "1.1:1.1"])

    def test_batch_size_sweep_cells_match_manifest_runs(self, schlieren_cfg,
                                                        tmp_path):
        # each cell builds its Radon system in its own batch layout
        self._check_cells_match_manifest_runs(schlieren_cfg, tmp_path,
                                              "batch_size", ["5", "2"])

    def test_batch_sweep_row_count(self, schlieren_cfg, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(schlieren_cfg), "--out",
                     str(out), "--axis", "batch_size",
                     "--values", "1,2,5", "--quiet"]) == 0
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert len(rows) == 4

    @pytest.mark.parametrize("text,axis,values,message", [
        (SCHLIEREN_INI.replace("kind = gaussian\nepsilon = 1e-2",
                               "kind = salt_pepper\nkappa = 0.1"),
         "noise_level", "1e-2,2e-1", "'salt_pepper' noise does not read"),
        (SCHLIEREN_INI.replace("kind = gaussian\nepsilon = 1e-2", "kind = none"),
         "noise_level", "1e-2,2e-1", "'none' noise does not read"),
        (BENCHMARK_INI, "batch_size", "1,5", "benchmark experiment"),
    ])
    def test_axis_the_config_never_reads_rejected(self, tmp_path, capsys, text,
                                                  axis, values, message):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--axis", axis, "--values", values, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"sweep axis {axis}" in err and message in err
        assert not out.exists()

    def test_bad_batch_size_fails_before_out_exists(self, schlieren_cfg,
                                                    tmp_path, capsys):
        # 5 divides the config's 10 angles, 3 does not
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(schlieren_cfg), "--out", str(out),
                     "--axis", "batch_size", "--values", "5,3", "--quiet"]) == 1
        assert "batch_size 3 must divide n_angles = 10" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_axis_rejected(self, schlieren_cfg, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(schlieren_cfg), "--out",
                  str(tmp_path / "s"), "--axis", "bogus", "--values", "1"])


class TestCmdRates:
    def test_rates_artifacts_and_gates(self, benchmark_cfg, tmp_path):
        out = tmp_path / "rates"
        code = main(["rates", "--config", str(benchmark_cfg), "--out",
                     str(out), "--quiet"])
        assert code == 0
        assert (out / "noisy_study.csv").exists()
        assert (out / "rates_summary.txt").exists()

    def test_empty_delta_list_usage_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(BENCHMARK_INI.replace("deltas = 1e-1,1e-2,3e-3",
                                              "deltas = "))
        assert main(["rates", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1
        assert not (tmp_path / "o").exists()

    def test_nan_delta_fails_before_out_exists(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(BENCHMARK_INI.replace("deltas = 1e-1,1e-2,3e-3",
                                              "deltas = nan,1e-2,1e-3"))
        out = tmp_path / "o"
        assert main(["rates", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert "[rates] deltas must list" in capsys.readouterr().err
        assert not out.exists()

    def test_schlieren_config_rejected(self, schlieren_cfg, tmp_path):
        assert main(["rates", "--config", str(schlieren_cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 1

    @pytest.mark.parametrize("old, new, message", [
        ("x0 = 0.0", "x0 = 0.5", "[solver] x0 = 0.0, got 0.5"),
        ("x0 = 0.0", "x0 = 0.0\nalgorithm = landweber",
         "[solver] algorithm = sgd, got landweber"),
        ("[solver]\n", A_PRIORI_SECTIONS,
         "[solver] stopping = max_epochs, got a_priori"),
    ])
    def test_solver_keys_the_study_ignores_rejected(self, tmp_path, capsys,
                                                    old, new, message):
        path = tmp_path / "bad.ini"
        path.write_text(BENCHMARK_INI.replace(old, new, 1))
        out = tmp_path / "o"
        assert main(["rates", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


# Runs one CLI command in a fresh interpreter, then prints its exit code and
# whether scipy and scipy.sparse were imported.
_MODULES_AFTER_COMMAND = """
import sys
from bsgd.cli import main
from bsgd.solver import a_priori_stop_index
code = main(sys.argv[1:])
print(code, "scipy" in sys.modules, "scipy.sparse" in sys.modules)
"""


def _modules_after_command(args):
    src = str(Path(bsgd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _MODULES_AFTER_COMMAND, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


class TestScipyImport:
    """These commands import no scipy package: a Radon system loads scipy's
    compiled kernels from their extension file alone, and the dual
    smoothness constant at p = r_X > 2 is a golden-section search."""

    def test_rates_loads_no_scipy(self, benchmark_cfg, tmp_path):
        assert _modules_after_command(
            ["rates", "--config", str(benchmark_cfg), "--out",
             str(tmp_path / "rates"), "--quiet"]) == ["0", "False", "False"]

    def test_run_at_r_x_above_2_loads_no_scipy(self, tmp_path):
        path = tmp_path / "benchmark.ini"
        path.write_text(BENCHMARK_INI.replace(
            "r_x = 2.0\nr_y = 2.0\nmode = theory",
            "r_x = 3.0\nr_y = 2.0\nmode = practice"))
        assert _modules_after_command(
            ["run", "--config", str(path), "--out", str(tmp_path / "run"),
             "--epochs", "2", "--quiet"]) == ["0", "False", "False"]

    def test_schlieren_run_and_sweep_load_no_scipy_sparse(self, schlieren_cfg,
                                                          tmp_path):
        assert _modules_after_command(
            ["run", "--config", str(schlieren_cfg), "--out",
             str(tmp_path / "run"), "--quiet"]) == ["0", "False", "False"]
        assert _modules_after_command(
            ["sweep", "--config", str(schlieren_cfg), "--out",
             str(tmp_path / "sweep"), "--axis", "space_exponent",
             "--values", "1.1:2,2:2,1.1:1.1,1.5:1.5", "--quiet"]) == \
            ["0", "False", "False"]


class TestCmdPhantom:
    def test_writes_readable_array(self, tmp_path):
        out = tmp_path / "ph.bsgd"
        assert main(["phantom", "--shape", "24x24", "--blobs", "3",
                     "--seed", "5", "--out", str(out), "--quiet"]) == 0
        arr = read_array(out)
        assert arr.shape == (24, 24)
        assert np.count_nonzero(arr.values) > 0

    def test_bad_shape_fails(self, tmp_path):
        assert main(["phantom", "--shape", "x", "--out",
                     str(tmp_path / "p.bsgd"), "--quiet"]) == 1


class TestLandweberAlgorithm:
    def test_landweber_run_from_config(self, schlieren_cfg, tmp_path):
        text = schlieren_cfg.read_text().replace(
            "[solver]\nmu0 = 5e-3", "[solver]\nalgorithm = landweber\nmu0 = 5e-3")
        cfg2 = tmp_path / "lw.ini"
        cfg2.write_text(text)
        out = tmp_path / "lw"
        assert main(["run", "--config", str(cfg2), "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "history.csv").read_text().strip().splitlines()
        # one Landweber iteration per epoch: 10 epochs + the k = 0 row
        assert len(rows) == 12
        assert ",," in rows[2]  # batch column empty for full-gradient steps


class TestLogLevel:
    """--log-level filters the solver's log lines on stderr."""

    def _stderr(self, tmp_path, capsys, text, *options):
        path = tmp_path / "benchmark.ini"
        path.write_text(text)
        out = tmp_path / ("out" + "".join(options))
        assert main([*options, "run", "--config", str(path), "--out",
                     str(out), "--quiet"]) == 0
        return capsys.readouterr().err

    def test_error_silences_the_inadmissible_schedule_warning(self, tmp_path,
                                                              capsys):
        # mu0 = 1.7 > 2 / L_max^2 on the Hilbert benchmark
        text = BENCHMARK_INI.replace("mu0 = 0.5\nepochs = 40",
                                     "mu0 = 1.7\nepochs = 4")
        assert "step schedule is inadmissible" in self._stderr(
            tmp_path, capsys, text)
        assert self._stderr(tmp_path, capsys, text,
                            "--log-level", "error") == ""

    def test_debug_shows_the_unchecked_admissibility(self, tmp_path, capsys):
        # practice mode at r_X = 1.5 has no known smoothness constant
        text = BENCHMARK_INI.replace("r_x = 2.0\nr_y = 2.0\nmode = theory",
                                     "r_x = 1.5\nr_y = 1.5\nmode = practice")
        line = "admissibility not checkable"
        assert line not in self._stderr(tmp_path, capsys, text)
        assert line in self._stderr(tmp_path, capsys, text,
                                    "--log-level", "debug")
