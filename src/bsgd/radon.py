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

scipy is imported only where a system is built, viewed or applied, so
importing the package (and running the benchmark problem) loads no scipy.

Products call scipy's compiled ``csr_matvec``/``csc_matvec`` directly, not
through ``@``: a solver step makes one batch product and one back-projection
per angle, and on the desk problem ``@``'s Python dispatch cost about as
much as the kernel itself.  ``csr_matrix @ v`` ends in the same kernel with
the same zeroed float64 output for a 1-D float64 vector, so the bits are the
same.  The checks ``@`` made are kept (``_matvec``): the input is made a
contiguous float64 vector, and a wrong length raises ``ValueError``, since
the kernel itself would read out of bounds.

The system is stored in batch order: one CSR per batch of angles
(``make_interleaved_batches``), its angles' rows stacked in batch order, so
a batch projects with one sparse product.  Each row is summed on its own,
so that product has the bits of projecting angle by angle.  The per-angle
matrices and their transposes are zero-copy views into the batch arrays:
slices of ``data``/``indices`` with a rebased ``indptr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["RadonSystem", "build_radon", "make_interleaved_batches"]

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
    batch_matrices: tuple[sparse.csr_matrix, ...]

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
            if m.shape != (len(b) * self.n_detectors, rows * cols):
                raise ValueError(f"matrix shape {m.shape} inconsistent with system")
            if m.nnz and m.data.min() < 0:
                raise ValueError("intersection lengths must be nonnegative")

    @property
    def n_angles(self) -> int:
        return int(self.angles.size)

    @cached_property
    def batch_of(self) -> dict[tuple[int, ...], int]:
        """Batch index of each batch's angle tuple."""
        return {b: k for k, b in enumerate(self.batches)}

    def project_batch(self, k: int, image: np.ndarray) -> np.ndarray:
        """Line integrals at batch k's angles from one sparse product;
        returns (len(batches[k]), n_detectors)."""
        return _matvec(self.batch_matrices[k], image).reshape(-1, self.n_detectors)

    @cached_property
    def matrices(self) -> tuple[sparse.csr_matrix, ...]:
        """Per-angle matrices, each a zero-copy view into its batch's arrays."""
        from scipy import sparse

        n_det = self.n_detectors
        views = [None] * self.n_angles
        for batch, m in zip(self.batches, self.batch_matrices):
            for row, a in enumerate(batch):
                ptr = m.indptr[row * n_det:(row + 1) * n_det + 1]
                lo, hi = ptr[0], ptr[-1]
                views[a] = _compressed(sparse.csr_matrix, m.data[lo:hi],
                                       m.indices[lo:hi], ptr - lo,
                                       (n_det, m.shape[1]))
        return tuple(views)

    def project(self, angle_index: int, image: np.ndarray) -> np.ndarray:
        """Line integrals at one angle; returns (n_detectors,)."""
        return _matvec(self.matrices[angle_index], image)

    @cached_property
    def transposes(self) -> tuple[sparse.csc_matrix, ...]:
        """Per-angle transposes, built once; each shares its matrix's arrays."""
        from scipy import sparse

        return tuple(_compressed(sparse.csc_matrix, m.data, m.indices, m.indptr,
                                 m.shape[::-1]) for m in self.matrices)

    def back_project(self, angle_index: int, sino: np.ndarray) -> np.ndarray:
        """Transpose action at one angle; returns a flat image array."""
        return _matvec(self.transposes[angle_index], sino)


def _matvec(m, v) -> np.ndarray:
    """``m @ v`` for a CSR or CSC matrix of float64 entries, bit for bit,
    through scipy's compiled kernel (module docstring)."""
    n_row, n_col = m.shape
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size != n_col:
        raise ValueError(f"vector of length {v.size} for a matrix with {n_col} columns")
    out = np.zeros(n_row)
    _kernel(m.format)(n_row, n_col, m.indptr, m.indices, m.data, v, out)
    return out


@cache
def _kernel(fmt: str):
    """scipy's matrix-vector kernel for a "csr" or "csc" matrix."""
    from scipy.sparse import _sparsetools

    return getattr(_sparsetools, fmt + "_matvec")


def _compressed(cls, data, indices, indptr, shape):
    """A CSR or CSC matrix on exactly these arrays.

    scipy's (data, indices, indptr) constructor, and so ``.T``, prunes: it
    copies a ``data`` or ``indices`` view smaller than half its base, which
    would double the stored system.  Filling an empty matrix keeps views.
    """
    m = cls(shape)
    m.data, m.indices, m.indptr = data, indices, indptr
    return m


def _slab_interval(p0, direction, lo, hi):
    """t-interval where p0 + t*direction lies in [lo, hi) (one coordinate).

    The degenerate (edge-parallel) branch is half-open, but that does not make
    a ray lying on a shared pixel edge count in exactly one pixel: callers pass
    hi = lo + dx and lo = hi - dy, which differ from the neighbour's edge in
    floating point, so such a ray may count in both pixels or in neither.
    """
    if abs(direction) > 1e-15:
        t1 = (lo - p0) / direction
        t2 = (hi - p0) / direction
        return np.minimum(t1, t2), np.maximum(t1, t2)
    inside = (p0 >= lo) & (p0 < hi)
    tmin = np.where(inside, -np.inf, np.inf)
    tmax = np.where(inside, np.inf, -np.inf)
    return tmin, tmax


def _angle_entries(theta, detector_s, x_lo, x_hi, y_lo, y_hi):
    """One angle's CSR (data, indices) and its per-detector entry counts.

    Candidates are the detectors in the pixel's shadow [u - w, u + w] on
    sigma, widened by ``_BAND_MARGIN`` spacings.  No pair with an entry is
    left out: a ray a distance d off the shadow misses the pixel, and its
    x-slab and y-slab t-intervals are then at least d apart, while the slab
    arithmetic is accurate to about 1e-16/|direction|.  So a pair whose
    computed length exceeds ``_LENGTH_CUTOFF`` has its detector in the
    shadow up to about 1e-13 spacings, far inside the margin.  The margin
    also keeps a ray lying on a pixel edge, which ``_slab_interval`` may
    count in both pixels it separates.
    """
    c, s = np.cos(theta), np.sin(theta)
    n_det, n_pix = detector_s.size, x_lo.size
    ds = 2.0 / n_det
    u = 0.5 * ((x_lo + x_hi) * c + (y_lo + y_hi) * s)
    w = 0.5 * ((x_hi - x_lo) * abs(c) + (y_hi - y_lo) * abs(s))
    lo = (u - w - detector_s[0]) / ds - _BAND_MARGIN
    hi = (u + w - detector_s[0]) / ds + _BAND_MARGIN
    first = np.clip(np.ceil(lo), 0, n_det).astype(np.intp)
    last = np.clip(np.floor(hi), -1, n_det - 1).astype(np.intp)
    counts = np.maximum(last - first + 1, 0)
    pix = np.repeat(np.arange(n_pix), counts)
    det = np.arange(pix.size) - np.repeat(np.cumsum(counts) - counts - first, counts)
    # ray: (detector_s*c, detector_s*s) + t*(-s, c); direction is unit length
    tx_lo, tx_hi = _slab_interval((detector_s * c)[det], -s, x_lo[pix], x_hi[pix])
    ty_lo, ty_hi = _slab_interval((detector_s * s)[det], c, y_lo[pix], y_hi[pix])
    lengths = np.minimum(tx_hi, ty_hi) - np.maximum(tx_lo, ty_lo)
    keep = np.flatnonzero(lengths > _LENGTH_CUTOFF)
    kept_det = det[keep]
    # CSR order (detector, pixel).  A stable sort gives one permutation for
    # any key dtype, and numpy's is a radix sort for keys of 16 bits or less.
    key = kept_det.astype(np.min_scalar_type(n_det - 1))
    keep = keep[np.argsort(key, kind="stable")]
    return (lengths[keep], pix[keep].astype(np.int32),
            np.bincount(kept_det, minlength=n_det))


def _batch_matrix(thetas, detector_s, x_lo, x_hi, y_lo, y_hi) -> sparse.csr_matrix:
    """One CSR holding the angles' rows, stacked in the order given."""
    from scipy import sparse

    parts = [_angle_entries(t, detector_s, x_lo, x_hi, y_lo, y_hi) for t in thetas]
    indptr = np.zeros(len(parts) * detector_s.size + 1, dtype=np.int32)
    np.cumsum(np.concatenate([counts for _, _, counts in parts]), out=indptr[1:])
    data = np.concatenate([data for data, _, _ in parts])
    indices = np.concatenate([indices for _, indices, _ in parts])
    return sparse.csr_matrix((data, indices, indptr),
                             shape=(indptr.size - 1, x_lo.size))


def build_radon(image_shape, n_angles: int, n_detectors: int,
                batch_size: int = 1) -> RadonSystem:
    """Assemble the system for equidistant angles {0, pi/n, ...}, one CSR per
    batch of ``make_interleaved_batches(n_angles, batch_size)``.

    Batches are assembled one at a time and only candidate pairs are clipped
    (module docstring), so peak memory stays near the size of the final CSR
    arrays.  The per-angle matrices are views into the batch arrays, made
    without scipy's constructor (see ``_compressed``): built from views, it
    copied them and doubled the full-scale system at batch size 18 (88.4 MB
    traced against 44.4 MB).  Deterministic given its inputs; matrices are
    assembled once and meant to be shared read-only afterwards.
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

    batch_matrices = tuple(
        _batch_matrix(angles[b], detector_s, x_lo, x_hi, y_lo, y_hi) for b in batches
    )
    angles_ro = angles.copy()
    angles_ro.setflags(write=False)
    det_ro = detector_s.copy()
    det_ro.setflags(write=False)
    return RadonSystem(
        image_shape=(rows, cols),
        angles=angles_ro,
        n_detectors=n_detectors,
        detector_s=det_ro,
        batches=tuple(map(tuple, batches)),
        batch_matrices=batch_matrices,
    )
