import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import bsgd
from bsgd.radon import (
    _LENGTH_CUTOFF,
    build_radon,
    make_interleaved_batches,
)
from conftest import assert_same_arrays, scipy_csr

SRC = str(Path(bsgd.__file__).resolve().parents[1])


def compared_slab_interval(p0, direction, lo, hi):
    """Reference slab: t-interval where p0 + t*direction lies in [lo, hi),
    its ends ordered by comparing them."""
    if abs(direction) > 1e-15:
        t1 = (lo - p0) / direction
        t2 = (hi - p0) / direction
        return np.minimum(t1, t2), np.maximum(t1, t2)
    inside = (p0 >= lo) & (p0 < hi)
    return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)


def dense_angle_matrix(theta, detector_s, x_lo, x_hi, y_lo, y_hi):
    """Reference assembly: clip every (detector, pixel) pair of a dense table."""
    c, s = np.cos(theta), np.sin(theta)
    # ray: (detector_s*c, detector_s*s) + t*(-s, c); direction is unit length
    p0x = (detector_s * c)[:, None]
    p0y = (detector_s * s)[:, None]
    tx_lo, tx_hi = compared_slab_interval(p0x, -s, x_lo[None, :], x_hi[None, :])
    ty_lo, ty_hi = compared_slab_interval(p0y, c, y_lo[None, :], y_hi[None, :])
    lengths = np.minimum(tx_hi, ty_hi) - np.maximum(tx_lo, ty_lo)
    lengths = np.where(lengths > _LENGTH_CUTOFF, lengths, 0.0)
    mat = sparse.csr_matrix(lengths)
    mat.eliminate_zeros()
    return mat


def pixel_slabs(rows, cols):
    """Pixel slab bounds, formed with the same operations as build_radon."""
    dx, dy = 2.0 / cols, 2.0 / rows
    jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
    x_lo = -1.0 + jj.ravel() * dx
    y_hi = 1.0 - ii.ravel() * dy
    return x_lo, x_lo + dx, y_hi - dy, y_hi


def quadrature_ray_length(s, theta, xlo, xhi, ylo, yhi, n=400_000):
    """Independent oracle: fraction of a fine t-grid inside the pixel box."""
    c, sn = math.cos(theta), math.sin(theta)
    t = np.linspace(-1.8, 1.8, n)
    px = s * c - t * sn
    py = s * sn + t * c
    inside = (px >= xlo) & (px <= xhi) & (py >= ylo) & (py <= yhi)
    return inside.mean() * (t[-1] - t[0])


def pixel_box(rows, cols, i, j):
    dx, dy = 2.0 / cols, 2.0 / rows
    xlo = -1.0 + j * dx
    yhi = 1.0 - i * dy
    return xlo, xlo + dx, yhi - dy, yhi


def test_full_scale_discretization_shape():
    system = build_radon((110, 110), 180, 16)
    assert system.n_angles == 180
    np.testing.assert_allclose(system.angles,
                               np.arange(180) * math.pi / 180.0, atol=1e-15)
    for m in system.matrices:
        assert m.shape == (16, 110 * 110)


def test_constant_image_axis_aligned(desk_radon):
    image = np.ones(desk_radon.image_shape)
    for idx in (0, desk_radon.n_angles // 2):  # angles 0 and pi/2
        proj = desk_radon.project_batch(idx, image)
        np.testing.assert_allclose(proj, 2.0, rtol=0, atol=1e-12)


def test_impulse_support_and_lengths_against_clipping_oracle():
    rows = cols = 12
    system = build_radon((rows, cols), 7, 19)
    i, j = 4, 7
    image = np.zeros((rows, cols))
    image[i, j] = 1.0
    box = pixel_box(rows, cols, i, j)
    for angle_idx in (0, 2, 5):
        theta = system.angles[angle_idx]
        proj = system.project_batch(angle_idx, image)[0]
        for d, s in enumerate(system.detector_s):
            expected = quadrature_ray_length(s, theta, *box)
            assert proj[d] == pytest.approx(expected, abs=2e-4)
            if expected > 1e-3:
                assert proj[d] > 0.0


def test_entries_nonnegative_and_bounded(desk_radon):
    rows, cols = desk_radon.image_shape
    diag = math.hypot(2.0 / cols, 2.0 / rows)
    for m in desk_radon.matrices:
        if m.nnz:
            assert m.data.min() >= 0.0
            assert m.data.max() <= diag + 1e-12


def test_deterministic_assembly():
    a = build_radon((9, 9), 5, 11)
    b = build_radon((9, 9), 5, 11)
    for ma, mb in zip(a.matrices, b.matrices):
        assert_same_arrays(ma, mb)


def test_back_project_is_transpose(small_radon, rng):
    g = rng.standard_normal(small_radon.n_detectors)
    x = rng.standard_normal(small_radon.image_shape)
    lhs = np.dot(small_radon.project_batch(3, x)[0], g)
    rhs = np.dot(x.ravel(), small_radon.back_project(3, g))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_input_validation():
    with pytest.raises(ValueError, match="positive"):
        build_radon((0, 4), 3, 5)
    with pytest.raises(ValueError, match="at least one"):
        build_radon((4, 4), 0, 5)
    with pytest.raises(ValueError, match="at least one"):
        build_radon((4, 4), 3, 0)
    with pytest.raises(ValueError, match="divide"):
        build_radon((4, 4), 10, 5, 3)


@pytest.mark.parametrize("shape, n_angles, n_detectors, angle_indices", [
    ((9, 9), 5, 11, None),
    ((12, 12), 7, 19, None),
    ((16, 16), 10, 23, None),
    ((32, 32), 30, 45, None),
    ((20, 33), 13, 40, None),
    ((5, 5), 3, 1, None),
    # full scale: at theta = 0 and pi/2 five rays lie exactly on pixel edges
    ((110, 110), 180, 155, range(0, 180, 5)),
    # every detector lies on a pixel edge at theta = 0 and pi/2
    ((10, 10), 4, 5, None),
    # pixels far taller than a detector spacing: 34 candidate slots each
    ((3, 37), 9, 101, None),
])
def test_band_assembly_is_bitwise_the_dense_oracle(shape, n_angles, n_detectors,
                                                   angle_indices):
    system = build_radon(shape, n_angles, n_detectors)
    slabs = pixel_slabs(*shape)
    for a in angle_indices or range(n_angles):
        want = dense_angle_matrix(system.angles[a], system.detector_s, *slabs)
        assert_same_arrays(system.matrices[a], want)


def test_full_scale_assembly_peak_memory_near_matrix_size():
    # build_radon imports nothing (scipy's kernels load on the first product),
    # so the trace counts assembly alone.
    tracemalloc.start()
    try:
        system = build_radon((110, 110), 180, 155)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                    for m in system.matrices)
    assert sum(m.nnz for m in system.matrices) == 3_668_024
    assert peak <= 1.5 * csr_bytes, (peak, csr_bytes)


_BUILD_GROWTH = """
from bsgd.radon import build_radon


def high_water_mark():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024


build_radon((16, 16), 10, 23, 2)
before = high_water_mark()
system = build_radon((110, 110), 180, 155, 18)
csr_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                for m in system.batch_matrices)
print(high_water_mark() - before, csr_bytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_full_scale_assembly_resident_growth_near_matrix_size():
    # tracemalloc counts capacity that is never touched and misses freed
    # memory the allocator keeps resident; the peak resident set counts
    # neither.  A warm-up build loads what the first build would, in a
    # fresh process, so the growth is the full-scale build's own.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _BUILD_GROWTH],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    growth, csr_bytes = map(int, done.stdout.split())
    assert growth <= csr_bytes + 5 * 2**20, (growth, csr_bytes)


LAYOUTS = [((16, 16), 10, 23, b) for b in (1, 2, 5, 10)] + [
    ((32, 32), 30, 45, 6),
    ((110, 110), 180, 155, 18),
]


@pytest.mark.parametrize("shape, n_angles, n_detectors, batch_size", LAYOUTS)
def test_batch_layout_keeps_the_per_angle_matrices(shape, n_angles, n_detectors,
                                                   batch_size):
    system = build_radon(shape, n_angles, n_detectors, batch_size)
    single = build_radon(shape, n_angles, n_detectors)
    assert [list(b) for b in system.batches] == \
        make_interleaved_batches(n_angles, batch_size)
    x = np.random.default_rng(3).standard_normal(shape)
    assert system.matrices is system.matrices
    for k, (batch, bm) in enumerate(zip(system.batches, system.batch_matrices)):
        assert bm.shape == (len(batch) * n_detectors, shape[0] * shape[1])
        for a in batch:
            got = system.matrices[a]
            assert_same_arrays(got, single.matrices[a])
            assert np.shares_memory(got.data, bm.data)
            assert np.shares_memory(got.indices, bm.indices)
        stacked = np.concatenate([single.project_batch(a, x) for a in batch])
        assert system.project_batch(k, x).tobytes() == stacked.tobytes()


def test_full_scale_batched_assembly_peak_memory_near_matrix_size():
    # build_radon imports nothing, as in the batch-1 guard above.
    tracemalloc.start()
    try:
        system = build_radon((110, 110), 180, 155, 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csr_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                    for m in system.batch_matrices)
    assert len(system.batch_matrices) == 10
    assert sum(m.nnz for m in system.batch_matrices) == 3_668_024
    assert peak <= 1.5 * csr_bytes, (peak, csr_bytes)


@pytest.mark.parametrize("shape, n_angles, n_detectors, batch_size, batch_ids", [
    ((32, 32), 30, 45, 6, None),
    ((10, 10), 4, 5, 1, None),
    ((110, 110), 180, 155, 18, [0]),
    ((16, 16), 10, 23, 1, None),
])
def test_products_keep_the_bytes_of_scipy_matmul(shape, n_angles, n_detectors,
                                                 batch_size, batch_ids):
    system = build_radon(shape, n_angles, n_detectors, batch_size)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(shape)
    x_int = rng.integers(-9, 10, shape)
    g = rng.standard_normal(n_detectors)
    for k in batch_ids or range(len(system.batches)):
        bm = scipy_csr(system.batch_matrices[k])
        for image in (x, x_int):
            want = (bm @ image.ravel()).reshape(-1, n_detectors)
            got = system.project_batch(k, image)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        for a in system.batches[k]:
            want = scipy_csr(system.matrices[a]).T @ g
            assert system.back_project(a, g).tobytes() == want.tobytes()
    # the compiled kernels do not check lengths; the methods must
    with pytest.raises(ValueError, match="length"):
        system.project_batch(0, np.zeros(shape[0] * shape[1] + 1))
    with pytest.raises(ValueError, match="length"):
        system.project_batch(0, np.zeros(shape[0] * shape[1] - 1))
    with pytest.raises(ValueError, match="length"):
        system.back_project(0, np.zeros(n_detectors + 1))


@pytest.mark.parametrize("batch, angle", [(-1, -1), (5, 10)])
def test_index_out_of_range_rejected(batch, angle):
    # tuple indexing would wrap a negative index round to the last batch
    system = build_radon((16, 16), 10, 23, 2)
    with pytest.raises(IndexError, match="batch index"):
        system.project_batch(batch, np.ones((16, 16)))
    with pytest.raises(IndexError, match="angle index"):
        system.back_project(angle, np.ones(23))


def _with_entry(array, i, value):
    array = array.copy()
    array[i] = value
    return array


def _falling(indptr):
    i = int(np.flatnonzero(np.diff(indptr))[0])  # first non-empty row
    return _with_entry(indptr, i + 1, indptr[i] - 1)


MALFORMED = {
    "float32 data": (lambda m: replace(m, data=m.data.astype(np.float32)), "float64"),
    "int64 indices": (lambda m: replace(m, indices=m.indices.astype(np.int64)), "int32"),
    "int64 indptr": (lambda m: replace(m, indptr=m.indptr.astype(np.int64)), "int32"),
    "short indptr": (lambda m: replace(m, indptr=m.indptr[:-1]), "rows \\+ 1"),
    "indptr from 1": (lambda m: replace(m, indptr=_with_entry(m.indptr, 0, 1)), "from 0"),
    "falling indptr": (lambda m: replace(m, indptr=_falling(m.indptr)), "rising"),
    "indptr past the entries": (
        lambda m: replace(m, data=m.data[:-1], indices=m.indices[:-1]), "entry count"),
    "indices shorter than data": (
        lambda m: replace(m, indices=m.indices[:-1]), "entry count"),
    "negative index": (
        lambda m: replace(m, indices=_with_entry(m.indices, 0, -1)), "column index"),
    "index past the pixels": (
        lambda m: replace(m, indices=_with_entry(m.indices, -1, 256)), "column index"),
    "negative length": (
        lambda m: replace(m, data=_with_entry(m.data, 3, -0.5)), "nonnegative"),
    "wrong shape": (lambda m: replace(m, shape=(m.shape[0], 255)), "shape"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_csr_rejected(case):
    # the compiled kernels read out of bounds on such arrays, so the system
    # refuses them when it is made, before any product
    system = build_radon((16, 16), 10, 23, 2)
    corrupt, match = MALFORMED[case]
    bad = list(system.batch_matrices)
    bad[1] = corrupt(bad[1])
    with pytest.raises(ValueError, match=match):
        replace(system, batch_matrices=tuple(bad))
