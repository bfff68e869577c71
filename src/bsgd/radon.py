"""Parallel-beam Radon projector with exact ray/pixel intersection lengths.

The image is mapped onto the square [-1, 1]^2 (row 0 at the top).  For each
projection angle theta the recording direction is sigma = (cos t, sin t) and
rays travel along sigma-perp = (-sin t, cos t), offset by the detector
coordinate s along sigma.  Detector centers are equispaced midpoints of a
uniform partition of [-1, 1].  Matrix entries are the exact lengths of the
ray segment inside each pixel, obtained by clipping the ray against the
pixel's axis-aligned slabs.

Assembly clips only the (detector, pixel) pairs whose detector lies in the
pixel's shadow on sigma, widened by a rounding margin of ``_BAND_MARGIN``
detector spacings (the argument is at ``_angle_entries``).  The length
cutoff still decides which entries exist, so the matrices equal those of
clipping every pair, and no dense detectors x pixels table is formed.
Each kept entry is written once, straight into its batch's final
``data``/``indices`` arrays, which are sized from a bound on the
candidates and shrunk in place when the batch is full (``build_radon``).

Products call scipy's compiled ``csr_matvec``/``csc_matvec`` directly, loaded
once from its ``_sparsetools`` extension file (``_sparsetools``).  ``@``'s
Python dispatch cost about as much as a desk-scale kernel, and importing
``scipy.sparse`` about 0.3 s and 14 MB per process for a package init that
no product uses, so the system is stored in plain arrays (``CSR``) and no
scipy package is imported.  ``csr_matrix @ v`` ends in the same kernel with
the same zeroed float64 output, so the bits are those of ``@``, and its
checks are kept (``_vector``): the input is made a contiguous float64
vector, and a wrong length raises ``ValueError``.  ``RadonSystem`` checks
the arrays, since the kernels read out of bounds on malformed ones.  The
products call the kernel themselves, with no helper between: at desk
scale each Python call around it costs a share of the product.

The system is stored in batch order: one CSR per batch of angles
(``make_interleaved_batches``), its angles' rows stacked in batch order, so
a batch projects with one sparse product, and that is the only projection
there is.  The per-angle matrices are zero-copy views into the batch
arrays: slices of ``data``/``indices`` with a rebased ``indptr``.  An angle
back-projects with ``csc_matvec`` on its CSR arrays, which are the CSC
arrays of its transpose.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

__all__ = ["CSR", "RadonSystem", "build_radon", "make_interleaved_batches"]

_LENGTH_CUTOFF = 1e-14
_BAND_MARGIN = 1e-6  # detector spacings added to each side of a pixel's shadow


def make_interleaved_batches(n_indices: int, batch_size: int) -> list[list[int]]:
    """Every (n/b)-th index starting from each offset: batch k holds
    {k, k + n/b, k + 2n/b, ...}, giving n/b batches of b indices each."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if n_indices % batch_size != 0:
        raise ValueError(f"batch size {batch_size} must divide {n_indices}")
    n_batches = n_indices // batch_size
    return [list(range(k, n_indices, n_batches)) for k in range(n_batches)]


@dataclass(frozen=True, eq=False)
class CSR:
    """A sparse matrix in compressed sparse rows: row i holds
    ``data[indptr[i]:indptr[i + 1]]`` at columns ``indices[...]``, the
    arrays scipy's ``csr_matrix`` keeps."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size


def _check_csr(m: CSR, shape: tuple[int, int]) -> None:
    """Reject arrays the compiled kernels would misread: float64 data, int32
    indices and indptr, one pointer per row plus one rising from 0 to the
    entry count, and every column index inside the matrix."""
    if m.shape != shape:
        raise ValueError(f"matrix shape {m.shape} inconsistent with system")
    if (m.data.dtype, m.indices.dtype, m.indptr.dtype) != (np.float64, np.int32, np.int32):
        raise ValueError("CSR arrays must be float64 data and int32 indices and indptr")
    ptr = m.indptr
    if ptr.shape != (shape[0] + 1,) or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]):
        raise ValueError("indptr must hold rows + 1 pointers rising from 0")
    if not m.data.shape == m.indices.shape == (ptr[-1],):
        raise ValueError("indptr must end at the entry count of data and indices")
    if m.nnz and (m.indices.min() < 0 or m.indices.max() >= shape[1]):
        raise ValueError(f"column index outside [0, {shape[1]})")
    if m.nnz and m.data.min() < 0:
        raise ValueError("intersection lengths must be nonnegative")


@dataclass(frozen=True)
class RadonSystem:
    """Sparse projection matrices for one discretization, one CSR per batch.

    ``batches`` partitions the angle indices; ``batch_matrices[k]`` holds
    the rows of ``batches[k]``'s angles in that order, so it is
    (len(batches[k]) * n_detectors) x (rows * cols).
    """

    image_shape: tuple[int, int]
    angles: np.ndarray
    n_detectors: int
    detector_s: np.ndarray
    batches: tuple[tuple[int, ...], ...]
    batch_matrices: tuple[CSR, ...]

    def __post_init__(self):
        rows, cols = self.image_shape
        if rows <= 0 or cols <= 0:
            raise ValueError(f"image shape must be positive, got {self.image_shape}")
        if self.angles.ndim != 1 or self.angles.size == 0:
            raise ValueError("need at least one projection angle")
        if np.any(np.diff(self.angles) <= 0):
            raise ValueError("angles must be strictly increasing")
        if self.angles[0] < 0 or self.angles[-1] >= np.pi:
            raise ValueError("angles must lie in [0, pi)")
        if sorted(a for b in self.batches for a in b) != list(range(self.angles.size)):
            raise ValueError("batches must partition the angles")
        if len(self.batch_matrices) != len(self.batches):
            raise ValueError("one matrix per batch required")
        for b, m in zip(self.batches, self.batch_matrices):
            _check_csr(m, (len(b) * self.n_detectors, rows * cols))

    @property
    def n_angles(self) -> int:
        return int(self.angles.size)

    def project_batch(self, k: int, image: np.ndarray) -> np.ndarray:
        """Line integrals at batch k's angles from one sparse product;
        returns (len(batches[k]), n_detectors)."""
        _check_index(k, len(self.batch_matrices), "batch")
        m = self.batch_matrices[k]
        n_row, n_col = m.shape
        out = np.zeros(n_row)
        _sparsetools().csr_matvec(n_row, n_col, m.indptr, m.indices, m.data,
                                  _vector(image, n_col), out)
        return out.reshape(-1, self.n_detectors)

    @cached_property
    def matrices(self) -> tuple[CSR, ...]:
        """Per-angle matrices, each a zero-copy view into its batch's arrays."""
        n_det = self.n_detectors
        views = [None] * self.n_angles
        for batch, m in zip(self.batches, self.batch_matrices):
            for row, a in enumerate(batch):
                ptr = m.indptr[row * n_det:(row + 1) * n_det + 1]
                lo, hi = ptr[0], ptr[-1]
                views[a] = CSR(m.data[lo:hi], m.indices[lo:hi], ptr - lo,
                               (n_det, m.shape[1]))
        return tuple(views)

    def back_project(self, angle_index: int, sino: np.ndarray) -> np.ndarray:
        """Transpose action at one angle; returns a flat image array."""
        views = self.matrices
        _check_index(angle_index, len(views), "angle")
        m = views[angle_index]
        # the CSC arrays of m.T are the CSR arrays of m
        n_col, n_row = m.shape
        out = np.zeros(n_row)
        _sparsetools().csc_matvec(n_row, n_col, m.indptr, m.indices, m.data,
                                  _vector(sino, n_col), out)
        return out


def _check_index(i: int, n: int, what: str) -> None:
    if not 0 <= i < n:
        raise IndexError(f"{what} index {i} out of range [0, {n})")


def _vector(v, n: int) -> np.ndarray:
    """``v`` as the contiguous float64 vector of length n that a product
    reads, as ``@`` makes it (module docstring)."""
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != n:
        raise ValueError(f"vector of length {v.size} for a matrix with {n} columns")
    return v


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, loaded from their extension file in
    scipy's package directory without importing any scipy package (module
    docstring).  Being a single-phase extension module, the interpreter
    records it in ``sys.modules`` under its own name, as any import would."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("bsgd.radon needs scipy's compiled sparse kernels; "
                          "scipy is not installed")
    folder = Path(spec.origin).parent / "sparse"
    for suffix in EXTENSION_SUFFIXES:
        path = folder / f"_sparsetools{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no _sparsetools extension file in {folder}")
    spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _clip_to_slab(p0, direction, lo, hi, t_in, t_out, end):
    """Narrow each ray's t-interval [t_in, t_out] to where p0 + t*direction
    lies in the slab [lo, hi) of one coordinate; ``end`` is scratch.

    Each end is ``(bound - p0) / direction``.  As lo < hi and rounding is
    monotone, the end from ``lo`` is where the ray enters the slab when
    direction > 0 and where it leaves when direction < 0, so the two ends
    need no comparison, and the interval has the bits of the intersection
    of the slabs' (minimum, maximum) intervals.

    The degenerate (edge-parallel) branch is half-open, but that does not make
    a ray lying on a shared pixel edge count in exactly one pixel: callers pass
    hi = lo + dx and lo = hi - dy, which differ from the neighbour's edge in
    floating point, so such a ray may count in both pixels or in neither.
    """
    if abs(direction) > 1e-15:
        for bound, enters in ((lo, direction > 0), (hi, direction < 0)):
            np.subtract(bound, p0, out=end)
            end /= direction
            if enters:
                np.maximum(t_in, end, out=t_in)
            else:
                np.minimum(t_out, end, out=t_out)
        return
    # a ray along the slab is inside it at every t or at none
    np.copyto(t_in, np.inf, where=(p0 < lo) | (p0 >= hi))


class _Scratch:
    """The arrays one angle's assembly works in, made once per build for a
    table of ``per_pixel`` candidate slots (rows) of ``n_pix`` pixels
    (columns).  Arrays made afresh at every angle are handed back to the
    system when freed and faulted in again at the next angle: at full
    scale, four times the page faults that the output arrays take."""

    def __init__(self, n_pix: int, per_pixel: int):
        shape, size = (per_pixel, n_pix), n_pix * per_pixel
        self.offsets = np.arange(per_pixel)[:, None]
        self.slots = np.arange(size)
        self.det = np.empty(shape, dtype=np.intp)
        self.real = np.empty(shape, dtype=bool)
        self.t = np.empty((4,) + shape)
        self.kept = np.empty((n_pix, per_pixel), dtype=bool)
        self.det_by_pixel = np.empty((n_pix, per_pixel), dtype=np.intp)
        self.places = np.empty(size, dtype=np.intp)
        self.kept_det = np.empty(size, dtype=np.intp)


def _angle_entries(theta, detector_s, pixels, work: _Scratch,
                   data, indices, row_counts) -> int:
    """Write one angle's CSR entries into the starts of ``data`` and
    ``indices`` and its per-detector entry counts into ``row_counts``;
    returns the entry count.  ``pixels`` holds the pixels' slab bounds
    (x_lo, x_hi, y_lo, y_hi), then x_lo + x_hi, y_lo + y_hi, x_hi - x_lo
    and y_hi - y_lo.

    Candidates are the detectors in the pixel's shadow [u - w, u + w] on
    sigma, widened by ``_BAND_MARGIN`` spacings.  No pair with an entry is
    left out: a ray a distance d off the shadow misses the pixel, and its
    x-slab and y-slab t-intervals are then at least d apart, while the slab
    arithmetic is accurate to about 1e-16/|direction|.  So a pair whose
    computed length exceeds ``_LENGTH_CUTOFF`` has its detector in the
    shadow up to about 1e-13 spacings, far inside the margin.  The margin
    also keeps a ray lying on a pixel edge, which ``_clip_to_slab`` may
    count in both pixels it separates.

    A pixel's candidates are the detectors first, first + 1, ..., last of
    its shadow: slot j of its column in the scratch table holds detector
    first + j, and the slots past last are not real (``build_radon``
    bounds the candidates by the column length).
    """
    (x_lo, x_hi, y_lo, y_hi), (x_sum, y_sum, x_width, y_width) = pixels
    n_det, (per_pixel, n_pix) = detector_s.size, work.det.shape
    c, s = np.cos(theta), np.sin(theta)
    ds = 2.0 / n_det
    t_in, t_out, p0, end = work.t
    u, w, lo = t_in[0], t_out[0], end[0]
    # u = 0.5 (x_sum c + y_sum s) and w = 0.5 (x_width |c| + y_width |s|)
    np.multiply(x_sum, c, out=u)
    u += np.multiply(y_sum, s, out=w)
    u *= 0.5
    np.multiply(x_width, abs(c), out=w)
    w += np.multiply(y_width, abs(s), out=lo)
    w *= 0.5
    # lo = (u - w - s_0)/ds - margin, and hi = (u + w - s_0)/ds + margin in u
    np.subtract(u, w, out=lo)
    lo -= detector_s[0]
    lo /= ds
    lo -= _BAND_MARGIN
    u += w
    u -= detector_s[0]
    u /= ds
    u += _BAND_MARGIN
    first = np.clip(np.ceil(lo, out=lo), 0, n_det, out=lo)
    last = np.clip(np.floor(u, out=u), -1, n_det - 1, out=u)
    det = np.add(first, work.offsets, out=work.det, casting="unsafe")
    real = np.less_equal(det, last, out=work.real)
    # ray: (detector_s*c, detector_s*s) + t*(-s, c); direction is unit length.
    # A slot past the detectors reads the last one; it is not real.
    t_in.fill(-np.inf)
    t_out.fill(np.inf)
    for p0_det, direction, bound_lo, bound_hi in ((detector_s * c, -s, x_lo, x_hi),
                                                  (detector_s * s, c, y_lo, y_hi)):
        np.take(p0_det, det, out=p0, mode="clip")
        _clip_to_slab(p0, direction, bound_lo, bound_hi, t_in, t_out, end)
    # the lengths in pixel order: slot j of pixel p at p * per_pixel + j
    lengths = end.reshape(n_pix, per_pixel)
    np.subtract(t_out, t_in, out=lengths.T)
    kept = np.greater(lengths, _LENGTH_CUTOFF, out=work.kept)
    kept &= real.T
    np.copyto(work.det_by_pixel.T, det)
    # the kept slots in pixel order, then stably by detector: CSR order
    # (detector, pixel).  numpy's stable sort is a radix sort for keys of
    # 16 bits or less.
    n = int(np.count_nonzero(kept))
    places = np.compress(kept.reshape(-1), work.slots, out=work.places[:n])
    kept_det = np.compress(kept.reshape(-1), work.det_by_pixel.reshape(-1),
                           out=work.kept_det[:n])
    row_counts[:] = np.bincount(kept_det, minlength=n_det)
    order = np.argsort(kept_det.astype(np.min_scalar_type(n_det - 1)), kind="stable")
    places = np.take(places, order, out=kept_det, mode="clip")
    # "clip" takes into ``out`` directly; every index is in range
    np.take(lengths.reshape(-1), places, out=data[:n], mode="clip")
    np.floor_divide(places, per_pixel, out=indices[:n])
    return n


def _assemble_batch(thetas, detector_s, pixels, work: _Scratch) -> CSR:
    """One CSR holding the angles' rows, stacked in the order given, each
    entry written once into the final arrays (``build_radon``)."""
    n_det, n_pix = detector_s.size, work.det.shape[1]
    capacity = thetas.size * work.det.size
    data = np.empty(capacity)
    indices = np.empty(capacity, dtype=np.int32)
    indptr = np.zeros(thetas.size * n_det + 1, dtype=np.int32)
    pos = 0
    for row, theta in enumerate(thetas):
        pos += _angle_entries(theta, detector_s, pixels, work,
                              data[pos:], indices[pos:],
                              indptr[1 + row * n_det:1 + (row + 1) * n_det])
    # no view of the two buffers is left, so they shrink in place
    data.resize(pos, refcheck=False)
    indices.resize(pos, refcheck=False)
    np.cumsum(indptr, out=indptr)
    return CSR(data, indices, indptr, (indptr.size - 1, n_pix))


def build_radon(image_shape, n_angles: int, n_detectors: int,
                batch_size: int = 1) -> RadonSystem:
    """Assemble the system for equidistant angles {0, pi/n, ...}, one CSR per
    batch of ``make_interleaved_batches(n_angles, batch_size)``.

    Batches are assembled one at a time and only candidate pairs are clipped
    (module docstring).  A batch's ``data`` and ``indices`` are allocated
    for ``per_pixel`` candidates per pixel and angle, filled angle by angle
    in CSR order, each entry written once, and shrunk in place to the
    entries kept: no per-angle parts are made and nothing is concatenated.
    Pages of the capacity that no entry reaches are never touched, and
    every angle works in one scratch table (``_Scratch``), so the resident
    peak stays near the size of the final CSR arrays, and the per-angle
    matrices are views into them.

    The bound is safe: a pixel's candidates are the integers in [lo, hi],
    clipped to the detectors, at most floor(hi) - ceil(lo) + 1 <=
    floor(hi - lo) + 1 of them.  hi - lo is the shadow's width
    dx |cos| + dy |sin| <= hypot(dx, dy) in detector spacings, plus the
    two margins; a third margin covers the rounding in lo and hi, about
    1e-16 times the detector count.  So ``per_pixel`` = floor(hypot(dx,
    dy)/ds + 3 margins) + 1 slots hold them: 2 at full scale.
    Deterministic given its inputs; matrices are assembled once and meant
    to be shared read-only afterwards.
    """
    rows, cols = int(image_shape[0]), int(image_shape[1])
    if rows <= 0 or cols <= 0:
        raise ValueError(f"image shape must be positive, got {image_shape}")
    if n_angles < 1 or n_detectors < 1:
        raise ValueError("need at least one angle and one detector")
    batches = make_interleaved_batches(n_angles, batch_size)

    angles = np.arange(n_angles) * (np.pi / n_angles)
    detector_s = -1.0 + (np.arange(n_detectors) + 0.5) * (2.0 / n_detectors)

    dx = 2.0 / cols
    dy = 2.0 / rows
    jj, ii = np.meshgrid(np.arange(cols), np.arange(rows))
    jj = jj.ravel()
    ii = ii.ravel()
    x_lo = -1.0 + jj * dx
    x_hi = x_lo + dx
    y_hi = 1.0 - ii * dy
    y_lo = y_hi - dy

    pixels = ((x_lo, x_hi, y_lo, y_hi),
              (x_lo + x_hi, y_lo + y_hi, x_hi - x_lo, y_hi - y_lo))
    ds = 2.0 / n_detectors
    per_pixel = int(math.hypot(dx, dy) / ds + 3 * _BAND_MARGIN) + 1  # (docstring)
    work = _Scratch(x_lo.size, per_pixel)
    batch_matrices = tuple(_assemble_batch(angles[b], detector_s, pixels, work)
                           for b in batches)
    angles.setflags(write=False)
    detector_s.setflags(write=False)
    return RadonSystem(
        image_shape=(rows, cols),
        angles=angles,
        n_detectors=n_detectors,
        detector_s=detector_s,
        batches=tuple(map(tuple, batches)),
        batch_matrices=batch_matrices,
    )
