"""Seeded noise generators and noise-level computation.

All randomness comes from the counter-based Philox generator keyed by a
64-bit seed, with Gaussian variates produced by a Box-Muller transform of
uniform pairs.  Identical arguments give bitwise-identical noisy data on
one machine and numpy build.  The Philox uniforms are the same
everywhere, but numpy's vectorized log, cos and sin are not: with its
AVX-512 kernels disabled, 333 of 200,000 normals change their last bits
(README, "Reproducibility").
"""

from __future__ import annotations

import numpy as np

from .geometry import GridVector, lr_norm

__all__ = [
    "add_gaussian",
    "add_salt_pepper",
    "apply_noise",
    "noise_level",
]

_KINDS = ("none", "gaussian", "salt_pepper")
_TINY = np.finfo(np.float64).tiny


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller on uniform pairs from the counter-based stream."""
    m = (n + 1) // 2
    u1 = np.maximum(gen.random(m), _TINY)
    u2 = gen.random(m)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def _stacked(blocks) -> np.ndarray:
    return np.concatenate([b.values.ravel() for b in blocks])


def add_gaussian(y: list[GridVector], epsilon: float, seed: int) -> list[GridVector]:
    """y_i + epsilon * ||stacked y||_inf * xi_i with i.i.d. standard normals.

    The sup-norm scale is taken over the entire stacked data vector.
    """
    if epsilon < 0:
        raise ValueError(f"noise magnitude must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        return list(y)
    scale = epsilon * float(np.max(np.abs(_stacked(y))))
    gen = _generator(seed)
    out = []
    for block in y:
        xi = _standard_normals(gen, block.size).reshape(block.shape)
        out.append(GridVector(block.values + scale * xi))
    return out


def add_salt_pepper(y: list[GridVector], kappa: float, seed: int) -> list[GridVector]:
    """Each sample kept with probability 1-kappa, else set to the global
    max or min of the exact data (each with probability kappa/2)."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"corruption fraction must lie in (0, 1), got {kappa}")
    stacked = _stacked(y)
    y_max = float(np.max(stacked))
    y_min = float(np.min(stacked))
    gen = _generator(seed)
    out = []
    for block in y:
        u = gen.random(block.size).reshape(block.shape)
        vals = np.where(u < kappa / 2.0, y_max,
                        np.where(u < kappa, y_min, block.values))
        out.append(GridVector(vals))
    return out


def apply_noise(y: list[GridVector], kind: str, epsilon: float, kappa: float,
                seed: int) -> list[GridVector]:
    """Dispatch on the noise kind; 'none' returns the input blocks.  Each
    generator reads only its own parameters and checks them."""
    if kind == "none":
        return list(y)
    if kind == "gaussian":
        return add_gaussian(y, epsilon, seed)
    if kind == "salt_pepper":
        return add_salt_pepper(y, kappa, seed)
    raise ValueError(f"unknown noise kind {kind!r}; expected {_KINDS}")


def noise_level(y_exact: list[GridVector], y_noisy: list[GridVector],
                r_Y: float) -> tuple[list[float], float]:
    """Per-block L^r_Y norms of the perturbation and their maximum."""
    if len(y_exact) != len(y_noisy):
        raise ValueError(
            f"block count mismatch: {len(y_exact)} exact vs {len(y_noisy)} noisy"
        )
    deltas = []
    for exact, noisy in zip(y_exact, y_noisy):
        if exact.shape != noisy.shape:
            raise ValueError(f"block shape mismatch: {exact.shape} vs {noisy.shape}")
        deltas.append(lr_norm(noisy - exact, r_Y))
    return deltas, max(deltas)
