"""Seeded noise generators and noise-level computation.

All randomness comes from the counter-based Philox generator keyed by the
spec's 64-bit seed, with Gaussian variates produced by a Box-Muller
transform of uniform pairs.  Identical specs give bitwise-identical noisy
data on one machine and numpy build.  The Philox uniforms are the same
everywhere, but numpy's vectorized log, cos and sin are not: with its
AVX-512 kernels disabled, 333 of 200,000 normals change their last bits
(README, "Reproducibility").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GridVector, lr_norm

__all__ = [
    "NoiseSpec",
    "add_gaussian",
    "add_salt_pepper",
    "add_impulsive",
    "apply_noise",
    "noise_level",
]

_KINDS = ("none", "gaussian", "salt_pepper", "impulsive")
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    epsilon: float = 0.0
    kappa: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected {_KINDS}")
        if self.epsilon < 0:
            raise ValueError(f"noise magnitude must be >= 0, got {self.epsilon}")
        if self.kind in ("salt_pepper", "impulsive"):
            if self.kappa is None or not 0.0 < self.kappa < 1.0:
                raise ValueError(
                    f"{self.kind} noise needs a corruption fraction in (0, 1), "
                    f"got {self.kappa}"
                )


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


def add_impulsive(y: list[GridVector], kappa: float, epsilon: float,
                  seed: int) -> list[GridVector]:
    """Each block kept with probability 1-kappa, else perturbed by
    epsilon * max_i ||y_i||_inf * xi with i.i.d. standard normals."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"corruption fraction must lie in (0, 1), got {kappa}")
    if epsilon < 0:
        raise ValueError(f"noise magnitude must be >= 0, got {epsilon}")
    if epsilon == 0.0:
        return list(y)
    scale = epsilon * float(np.max(np.abs(_stacked(y))))
    gen = _generator(seed)
    corrupt = gen.random(len(y)) < kappa
    out = []
    for hit, block in zip(corrupt, y):
        if hit:
            xi = _standard_normals(gen, block.size).reshape(block.shape)
            out.append(GridVector(block.values + scale * xi))
        else:
            out.append(block)
    return out


def apply_noise(y: list[GridVector], spec: NoiseSpec) -> list[GridVector]:
    """Dispatch on the noise kind; 'none' returns the input blocks."""
    if spec.kind == "none":
        return list(y)
    if spec.kind == "gaussian":
        return add_gaussian(y, spec.epsilon, spec.seed)
    if spec.kind == "salt_pepper":
        return add_salt_pepper(y, spec.kappa, spec.seed)
    return add_impulsive(y, spec.kappa, spec.epsilon, spec.seed)


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
