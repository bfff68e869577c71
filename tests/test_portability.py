"""Bits that hold across processes and numeric-library settings.

Each command runs in a fresh interpreter under one setting of the
environment, and its outputs are compared byte for byte with the same
command under the default setting:

- ``avx512_off``: numpy's AVX-512 kernels disabled (``NPY_DISABLE_CPU_FEATURES``);
- ``haswell``: OpenBLAS's Haswell kernels (``OPENBLAS_CORETYPE``);
- ``blas1``: one OpenBLAS thread (``OPENBLAS_NUM_THREADS``).

Only what holds today is asserted: the full-scale Radon arrays in every
setting, the desk run under one BLAS thread, and the rate study under
AVX-512 off and one BLAS thread.  The desk run's history changes under the
other two settings and the rate study's outputs under Haswell, so those
pairs are not asserted (README, "Reproducibility").
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import bsgd

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(bsgd.__file__).resolve().parents[1])

# numpy's AVX-512 dispatch targets on this CPU; empty where it has none
_AVX512 = [name for name in __cpu_dispatch__
           if (name == "X86_V4" or name.startswith("AVX512"))
           and __cpu_features__.get(name)]
_NO_AVX512 = pytest.mark.skipif(
    not _AVX512, reason="numpy dispatches no AVX-512 kernels on this CPU, so "
                        "the AVX-512-off setting is the default one; the "
                        "settings compared shrink to Haswell and one BLAS thread")

SETTINGS = {
    "default": {},
    "avx512_off": {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "blas1": {"OPENBLAS_NUM_THREADS": "1"},
}
_VARIABLES = {name for env in SETTINGS.values() for name in env}

_RADON_DIGEST = """
import hashlib
from bsgd.radon import build_radon
system = build_radon((110, 110), 180, 155, 18)
digest = hashlib.sha256(system.angles.tobytes() + system.detector_s.tobytes())
for m in system.batch_matrices:
    for array in (m.data, m.indices, m.indptr):
        digest.update(array.tobytes())
print(digest.hexdigest())
"""


def _python(setting, *args, cwd=None) -> str:
    """Run python with ``args`` under ``setting``; returns its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in _VARIABLES}
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(SETTINGS[setting], PYTHONPATH=path)
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cli_outputs(setting, tmp_path, command, config, names) -> list[bytes]:
    out = tmp_path / f"{command}_{setting}"
    _python(setting, "-m", "bsgd.cli", command, "--config", str(config),
            "--out", str(out), "--quiet")
    return [(out / name).read_bytes() for name in names]


@pytest.fixture(scope="module")
def radon_digest():
    return _python("default", "-c", _RADON_DIGEST)


@pytest.mark.parametrize("setting", [
    pytest.param("avx512_off", marks=_NO_AVX512), "haswell", "blas1"])
def test_full_scale_radon_arrays_are_identical(radon_digest, setting):
    assert _python(setting, "-c", _RADON_DIGEST) == radon_digest


def test_desk_run_is_identical_under_one_blas_thread(tmp_path):
    names = ("history.csv", "best.bsgd", "final.bsgd")
    config = ROOT / "configs" / "schlieren_desk.ini"
    assert _cli_outputs("blas1", tmp_path, "run", config, names) == \
        _cli_outputs("default", tmp_path, "run", config, names)


@pytest.fixture(scope="module")
def rates_config(tmp_path_factory):
    """``benchmark_rates.ini`` with 2 seeds in place of 20."""
    text = (ROOT / "configs" / "benchmark_rates.ini").read_text()
    assert "n_seeds = 20\n" in text
    path = tmp_path_factory.mktemp("rates") / "rates.ini"
    path.write_text(text.replace("n_seeds = 20\n", "n_seeds = 2\n"))
    return path


@pytest.mark.parametrize("setting", [
    pytest.param("avx512_off", marks=_NO_AVX512), "blas1"])
def test_rate_study_is_identical(rates_config, tmp_path, setting):
    names = ("noisy_study.csv", "rates_summary.txt")
    assert _cli_outputs(setting, tmp_path, "rates", rates_config, names) == \
        _cli_outputs("default", tmp_path, "rates", rates_config, names)
