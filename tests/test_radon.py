import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from bsgd.radon import (
    _LENGTH_CUTOFF,
    _slab_interval,
    build_radon,
    make_interleaved_batches,
)


def dense_angle_matrix(theta, detector_s, x_lo, x_hi, y_lo, y_hi):
    """Reference assembly: clip every (detector, pixel) pair of a dense table."""
    c, s = np.cos(theta), np.sin(theta)
    # ray: (detector_s*c, detector_s*s) + t*(-s, c); direction is unit length
    p0x = (detector_s * c)[:, None]
    p0y = (detector_s * s)[:, None]
    tx_lo, tx_hi = _slab_interval(p0x, -s, x_lo[None, :], x_hi[None, :])
    ty_lo, ty_hi = _slab_interval(p0y, c, y_lo[None, :], y_hi[None, :])
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
        proj = desk_radon.project(idx, image)
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
        proj = system.project(angle_idx, image)
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
        assert (ma != mb).nnz == 0


def test_back_project_is_transpose(small_radon, rng):
    g = rng.standard_normal(small_radon.n_detectors)
    x = rng.standard_normal(small_radon.image_shape)
    lhs = np.dot(small_radon.project(3, x), g)
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
])
def test_band_assembly_is_bitwise_the_dense_oracle(shape, n_angles, n_detectors,
                                                   angle_indices):
    system = build_radon(shape, n_angles, n_detectors)
    slabs = pixel_slabs(*shape)
    for a in angle_indices or range(n_angles):
        got = system.matrices[a]
        want = dense_angle_matrix(system.angles[a], system.detector_s, *slabs)
        assert got.indices.dtype == want.indices.dtype
        assert got.indptr.dtype == want.indptr.dtype
        assert got.indptr.tobytes() == want.indptr.tobytes()
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.data.tobytes() == want.data.tobytes()


def test_full_scale_assembly_peak_memory_near_matrix_size():
    # scipy must be imported before tracing starts (it is, at the top of this
    # module): build_radon imports it on first use, and a first import inside
    # the trace counts about 14 MB of module objects.
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


def test_back_project_uses_cached_transposes_sharing_the_matrices():
    system = build_radon((16, 16), 10, 23)
    v = np.random.default_rng(5).standard_normal(23)
    assert system.transposes is system.transposes
    for a in range(system.n_angles):
        mat, tr = system.matrices[a], system.transposes[a]
        assert system.back_project(a, v).tobytes() == (mat.T @ v).tobytes()
        assert np.shares_memory(tr.data, mat.data)
        assert np.shares_memory(tr.indices, mat.indices)
        assert np.shares_memory(tr.indptr, mat.indptr)


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
    for k, (batch, bm) in enumerate(zip(system.batches, system.batch_matrices)):
        assert bm.shape == (len(batch) * n_detectors, shape[0] * shape[1])
        for a in batch:
            got, want = system.matrices[a], single.matrices[a]
            for name in ("indptr", "indices", "data"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.dtype == w.dtype, (a, name)
                assert g.tobytes() == w.tobytes(), (a, name)
            tr = system.transposes[a]
            for arrays in (got, tr):
                assert np.shares_memory(arrays.data, bm.data)
                assert np.shares_memory(arrays.indices, bm.indices)
        stacked = np.stack([system.project(a, x) for a in batch])
        assert system.project_batch(k, x).tobytes() == stacked.tobytes()


def test_full_scale_batched_assembly_peak_memory_near_matrix_size():
    # scipy is imported before tracing starts, as in the batch-1 guard above.
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
])
def test_products_keep_the_bytes_of_scipy_matmul(shape, n_angles, n_detectors,
                                                 batch_size, batch_ids):
    system = build_radon(shape, n_angles, n_detectors, batch_size)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(shape)
    x_int = rng.integers(-9, 10, shape)
    g = rng.standard_normal(n_detectors)
    for k in batch_ids or range(len(system.batches)):
        bm = system.batch_matrices[k]
        for image in (x, x_int):
            want = (bm @ image.ravel()).reshape(-1, n_detectors)
            got = system.project_batch(k, image)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        for a in system.batches[k]:
            for image in (x, x_int):
                want = system.matrices[a] @ image.ravel()
                assert system.project(a, image).tobytes() == want.tobytes()
            want = system.transposes[a] @ g
            assert system.back_project(a, g).tobytes() == want.tobytes()
    # the compiled kernels do not check lengths; the methods must
    with pytest.raises(ValueError, match="length"):
        system.project_batch(0, np.zeros(shape[0] * shape[1] + 1))
    with pytest.raises(ValueError, match="length"):
        system.project(0, np.zeros(shape[0] * shape[1] - 1))
    with pytest.raises(ValueError, match="length"):
        system.back_project(0, np.zeros(n_detectors + 1))
