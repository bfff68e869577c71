"""Piecewise-constant test images."""

from __future__ import annotations

import numpy as np

from .geometry import GridVector

__all__ = ["make_phantom"]

_RADIUS_RANGE = (0.08, 0.2)
_MAX_FILL = 0.2


def make_phantom(shape, n_blobs: int, amplitude: float, seed: int) -> GridVector:
    """Constant-amplitude disks on a zero background.

    The image covers [-1, 1]^2; blob centers and radii are drawn from a
    seeded counter-based stream, the radii uniform on ``_RADIUS_RANGE`` =
    (0.08, 0.2), and painted by ``_paint_disks``.
    """
    rows, cols = int(shape[0]), int(shape[1])
    if rows <= 0 or cols <= 0:
        raise ValueError(f"phantom shape must be positive, got {shape}")
    if n_blobs < 0:
        raise ValueError("number of blobs must be >= 0")
    gen = np.random.Generator(np.random.Philox(seed))
    centers = [tuple(gen.uniform(-0.8, 0.8, size=2)) for _ in range(n_blobs)]
    lo, hi = _RADIUS_RANGE
    radii = [float(gen.uniform(lo, hi)) for _ in range(n_blobs)]
    return _paint_disks((rows, cols), centers, radii, amplitude)


def _paint_disks(shape, centers, radii, amplitude: float) -> GridVector:
    """Disks of value ``amplitude`` at ``centers`` with ``radii`` on a zero
    image of ``shape`` covering [-1, 1]^2; disks reaching past the image
    bounds are clipped.  The phantom must stay sparse: painting fails if
    the painted fraction reaches ``_MAX_FILL`` = 0.2."""
    rows, cols = shape
    xs = -1.0 + (np.arange(cols) + 0.5) * (2.0 / cols)
    ys = 1.0 - (np.arange(rows) + 0.5) * (2.0 / rows)
    X, Y = np.meshgrid(xs, ys)
    vals = np.zeros((rows, cols))
    for (cx, cy), rad in zip(centers, radii):
        vals[(X - cx) ** 2 + (Y - cy) ** 2 <= rad * rad] = amplitude
    fill = np.count_nonzero(vals) / vals.size
    if fill >= _MAX_FILL:
        raise ValueError(
            f"phantom fills {fill:.1%} of the image; stay below {_MAX_FILL:.0%}"
        )
    return GridVector(vals)
