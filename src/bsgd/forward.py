"""Block-decomposed nonlinear forward operators.

Two operators are provided: a discrete Schlieren operator (componentwise
square of parallel-beam line integrals) and a synthetic diagonal benchmark
with a quadratic nonlinearity whose derivative formulas are exact
polynomials, so finite-difference and rate checks are sharp.

Adjoints are plain matrix transposes: with the unit-cell duality pairing
<f, g> = sum f_j g_j the transpose is the exact adjoint between the discrete
L^r spaces and their duals.  A smoothed (Laplacian-preconditioned) adjoint
would be a preconditioner here, not an adjoint, and is not implemented.

Each problem has one raw-array kernel for the SGD step,
``block_residual_gradient``: a single forward pass gives the block residual,
and the gradient F_i'(x)* J_q(residual) reuses that pass.  The Schlieren
kernel hands its projections to ``schlieren_adjoint_apply``, so the step's
back-projection is the adjoint of the validated API, not a copy of it.  The
solver loop calls only the kernel, and its records call ``block_forward``,
the raw F_i(x) under ``apply_block``.  ``apply_block``, ``derivative_apply``
and ``adjoint_apply`` take and return validated ``GridVector``/``DualVector``
wrappers; the constant estimators use them.  ``linearization`` and
``normal_operator`` fix the linearisation point once for the two constant
estimators, so the Schlieren problem projects it once.

A Schlieren block is a batch of its Radon system, and the Schlieren
functions take that batch's index: every projection is one sparse product,
``RadonSystem.project_batch``.  ``build_schlieren_problem`` regroups a
system built in other batches once, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    DualVector,
    GeometryParams,
    GridVector,
    _duality_map_raw,
    _duality_map_rows,
    lr_norm,
)
from .radon import RadonSystem

__all__ = [
    "StabilityParams",
    "ForwardProblem",
    "SchlierenProblem",
    "BenchmarkProblem",
    "schlieren_apply",
    "schlieren_derivative_apply",
    "schlieren_adjoint_apply",
    "build_schlieren_problem",
    "build_benchmark",
    "estimate_tcc_gamma",
    "estimate_lipschitz_Lmax",
]

_DATA_CONSISTENCY_RTOL = 1e-10


@dataclass(frozen=True)
class StabilityParams:
    """Holder-type conditional stability: D(x, x~)^alpha <= ||F(x)-F(x~)||^p / C_alpha."""

    alpha: float
    C_alpha: float

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError(f"stability exponent must be >= 1, got {self.alpha}")
        if self.C_alpha <= 0:
            raise ValueError(f"stability constant must be positive, got {self.C_alpha}")


class ForwardProblem:
    """A nonlinear operator split into blocks F_1, ..., F_N.

    Subclasses implement the block actions; this base owns the batch map,
    exact data, optional ground truth, and the operator bounds ``L_max``
    (derivative norm) and ``gamma`` (tangential cone constant, exact where
    known and a sampled estimate otherwise).
    """

    kind = "abstract"

    def __init__(self, batches, y_exact, x_truth=None, L_max=None, gamma=None,
                 stability=None):
        batches = [list(map(int, b)) for b in batches]
        if not batches or any(len(b) == 0 for b in batches):
            raise ValueError("every batch must be nonempty")
        flat = sorted(i for b in batches for i in b)
        if flat != list(range(len(flat))):
            raise ValueError("batches must partition the full index set")
        self.batches = batches
        self.y_exact = list(y_exact)
        if len(self.y_exact) != len(batches):
            raise ValueError("need one exact data block per batch")
        self.x_truth = x_truth
        self.L_max = L_max
        self.gamma = gamma
        self.stability = stability
        if x_truth is not None:
            for i, y_i in enumerate(self.y_exact):
                diff = lr_norm(self.apply_block(i, x_truth) - y_i, 2.0)
                scale = max(lr_norm(y_i, 2.0), 1.0)
                if diff > _DATA_CONSISTENCY_RTOL * scale:
                    raise ValueError(
                        f"block {i}: operator at ground truth does not reproduce "
                        f"the exact data (relative mismatch {diff / scale:.3e})"
                    )

    @property
    def n_blocks(self) -> int:
        return len(self.batches)

    @property
    def domain_shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    def apply_block(self, i: int, x: GridVector) -> GridVector:
        raise NotImplementedError

    def block_forward(self, i: int, x: np.ndarray) -> np.ndarray:
        """Raw F_i(x), the array ``apply_block`` wraps: arrays in, arrays
        out, nothing validated."""
        raise NotImplementedError

    def derivative_apply(self, i: int, x: GridVector, h: GridVector) -> GridVector:
        raise NotImplementedError

    def adjoint_apply(self, i: int, x: GridVector, g) -> DualVector:
        raise NotImplementedError

    def linearization(self, i: int, x: GridVector):
        """F_i(x) and the map h -> F_i'(x) h, for a fixed x."""
        return self.apply_block(i, x), lambda h: self.derivative_apply(i, x, h)

    def normal_operator(self, i: int, x: GridVector):
        """The map v -> F_i'(x)* F_i'(x) v on raw arrays, for a fixed x."""
        return lambda v: self.adjoint_apply(
            i, x, self.derivative_apply(i, x, GridVector(v))).values

    def block_residual_gradient(self, i: int, x: np.ndarray, y_i: np.ndarray,
                                gy: GeometryParams) -> tuple[np.ndarray, np.ndarray]:
        """Raw (F_i(x) - y_i, F_i'(x)* J(F_i(x) - y_i)) from one forward pass.

        ``gy`` holds the data-space exponents (r, p) of the duality map J.
        Arrays in, arrays out: no wrapper is built and nothing is validated;
        the caller checks finiteness.
        """
        raise NotImplementedError

    def _check_block(self, i: int) -> None:
        if not 0 <= i < self.n_blocks:
            raise IndexError(f"block index {i} out of range [0, {self.n_blocks})")


def schlieren_apply(system: RadonSystem, k: int, x: GridVector) -> GridVector:
    """Componentwise square of batch k's stacked line integrals."""
    _check_batch(system, k)
    _check_image(system, x)
    return GridVector(_schlieren_forward(system, k, x.values))


def _schlieren_forward(system: RadonSystem, k: int, x: np.ndarray) -> np.ndarray:
    """Raw ``schlieren_apply``: arrays in, arrays out, nothing validated."""
    proj = system.project_batch(k, x)
    return proj * proj


def schlieren_derivative_apply(system: RadonSystem, k: int, x: GridVector,
                               h: GridVector, *,
                               px: np.ndarray | None = None) -> GridVector:
    """Derivative action: 2 * (R x) * (R h), stacked over batch k.

    ``px``, the stacked projections R x, spares projecting x, as in
    ``schlieren_adjoint_apply``.
    """
    _check_batch(system, k)
    _check_image(system, x)
    _check_image(system, h)
    if px is None:
        px = system.project_batch(k, x.values)
    return GridVector(2.0 * px * system.project_batch(k, h.values))


def schlieren_adjoint_apply(system: RadonSystem, k: int, x, g, *,
                            px: np.ndarray | None = None) -> DualVector:
    """Adjoint of the derivative on batch k: R^T (2 * (R x) * g).

    ``px``, the stacked projections R x of the batch, spares projecting x
    a second time when the caller has already made them; x is then only
    shape-checked and may be a raw array.
    """
    _check_batch(system, k)
    _check_image(system, x)
    batch = system.batches[k]
    gv = g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)
    if gv.shape != (len(batch), system.n_detectors):
        raise ValueError(
            f"data block shape {gv.shape} != {(len(batch), system.n_detectors)}"
        )
    if px is None:
        px = system.project_batch(k, x.values)
    # accumulated angle by angle in batch order
    out = np.zeros(system.image_shape[0] * system.image_shape[1])
    for a, row in zip(batch, 2.0 * px * gv):
        out += system.back_project(a, row)
    return DualVector(out.reshape(system.image_shape))


def _check_batch(system: RadonSystem, k: int) -> None:
    if not 0 <= k < len(system.batches):
        raise IndexError(f"batch index {k} out of range [0, {len(system.batches)})")


def _check_image(system: RadonSystem, x: GridVector) -> None:
    if x.shape != system.image_shape:
        raise ValueError(f"image shape {x.shape} != {system.image_shape}")


class SchlierenProblem(ForwardProblem):
    """The Schlieren operator with one block per batch of ``system``."""

    kind = "schlieren"

    def __init__(self, system: RadonSystem, y_exact, x_truth=None, L_max=None,
                 gamma=None):
        self.system = system
        super().__init__(system.batches, y_exact, x_truth, L_max, gamma)

    @property
    def domain_shape(self):
        return self.system.image_shape

    def apply_block(self, i, x):
        return schlieren_apply(self.system, i, x)

    def block_forward(self, i, x):
        return _schlieren_forward(self.system, i, x)

    def derivative_apply(self, i, x, h):
        return schlieren_derivative_apply(self.system, i, x, h)

    def adjoint_apply(self, i, x, g):
        return schlieren_adjoint_apply(self.system, i, x, g)

    def linearization(self, i, x):
        self._check_block(i)
        _check_image(self.system, x)
        px = self.system.project_batch(i, x.values)
        return GridVector(px * px), lambda h: schlieren_derivative_apply(
            self.system, i, x, h, px=px)

    def normal_operator(self, i, x):
        self._check_block(i)
        _check_image(self.system, x)
        px = self.system.project_batch(i, x.values)

        def apply(v):
            w = schlieren_derivative_apply(self.system, i, x, GridVector(v), px=px)
            return schlieren_adjoint_apply(self.system, i, x, w, px=px).values
        return apply

    def block_residual_gradient(self, i, x, y_i, gy):
        # schlieren_apply, then schlieren_adjoint_apply on its projections
        px = self.system.project_batch(i, x)
        resid = px * px - y_i
        w = _duality_map_raw(resid, gy.r, gy.p)
        return resid, schlieren_adjoint_apply(self.system, i, x, w, px=px).values


def build_schlieren_problem(system: RadonSystem, batch_size: int,
                            x_truth: GridVector) -> SchlierenProblem:
    """The problem on ``system`` regrouped into batches of ``batch_size``
    (``RadonSystem.regrouped``), with exact data from the ground truth."""
    system = system.regrouped(batch_size)
    y_exact = [schlieren_apply(system, k, x_truth) for k in range(len(system.batches))]
    return SchlierenProblem(system, y_exact, x_truth=x_truth)


class BenchmarkProblem(ForwardProblem):
    """Componentwise F_j(x) = a_j x_j + beta a_j x_j^2 on coordinate blocks."""

    kind = "benchmark"

    def __init__(self, diag, beta, batches, y_exact, x_truth=None, L_max=None,
                 gamma=None, stability=None):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.beta = float(beta)
        super().__init__(batches, y_exact, x_truth, L_max, gamma, stability)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def domain_shape(self):
        return (self.dim,)

    @cached_property
    def _blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(index array, diagonal entries) per block, built once."""
        idxs = [np.asarray(b, dtype=np.intp) for b in self.batches]
        return [(idx, self.diag[idx]) for idx in idxs]

    def _value(self, d, xv):
        return d * (xv + self.beta * xv * xv)

    def _slope(self, d, xv):
        return d * (1.0 + 2.0 * self.beta * xv)

    def apply_block(self, i, x):
        self._check_block(i)
        return GridVector(self.block_forward(i, x.values))

    def block_forward(self, i, x):
        idx, d = self._blocks[i]
        return self._value(d, x[idx])

    def derivative_apply(self, i, x, h):
        self._check_block(i)
        idx, d = self._blocks[i]
        return GridVector(self._slope(d, x.values[idx]) * h.values[idx])

    def adjoint_apply(self, i, x, g):
        self._check_block(i)
        idx, d = self._blocks[i]
        gv = g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)
        out = np.zeros(self.dim)
        out[idx] = self._slope(d, x.values[idx]) * gv
        return DualVector(out)

    def block_residual_gradient(self, i, x, y_i, gy):
        idx, d = self._blocks[i]
        xv = x[idx]
        resid = self._value(d, xv) - y_i
        grad = np.zeros(self.dim)
        grad[idx] = self._slope(d, xv) * _duality_map_raw(resid, gy.r, gy.p)
        return resid, grad

    def stacked_blocks(self, y_obs_rows):
        """The blocks as padded tables for a loop over stacked rows.

        Returns (N, B) coordinate indices and diagonal entries and the
        (S, N, B) data of the S rows of ``y_obs_rows``, B being the largest
        block.  Short blocks are padded with the scratch coordinate ``dim``,
        diagonal 0.0 and data 0.0, so a row's iterate has dim + 1 entries
        and its last one stays 0.0.
        """
        shape = (self.n_blocks, max(len(b) for b in self.batches))
        idx = np.full(shape, self.dim, dtype=np.intp)
        diag = np.zeros(shape)
        data = np.zeros((len(y_obs_rows),) + shape)
        for i, (ix, d) in enumerate(self._blocks):
            idx[i, :ix.size] = ix
            diag[i, :ix.size] = d
            for s, y_obs in enumerate(y_obs_rows):
                data[s, i, :ix.size] = y_obs[i].values
        return idx, diag, data

    def block_rows_residual_gradient(self, xv, d, y, gy):
        """``block_residual_gradient`` of stacked rows, for a data map with
        r_Y == q: row s of ``xv``, ``d`` and ``y`` holds one block's
        iterate, diagonal and data entries, then padding.  Returns the
        residual rows and the gradient at those entries, each entry the
        serial kernel's bits.
        """
        resid = self._value(d, xv) - y
        return resid, self._slope(d, xv) * _duality_map_rows(resid, gy.r)


def build_benchmark(dim: int, diag_min: float, diag_max: float,
                    nonlinearity_beta: float, *, n_blocks: int = 5,
                    seed: int = 0, truth_scale: float = 1.0,
                    gamma_ball_radius: float = 1.0,
                    gamma_samples: int = 50) -> BenchmarkProblem:
    """Synthetic diagonal benchmark with known constants.

    The diagonal is a linspace over [diag_min, diag_max] (so the extreme
    entries are exact), the ground truth is a seeded standard normal vector,
    and blocks are contiguous coordinate ranges.  For beta = 0 the
    tangential cone constant is exactly 0, the derivative bound is exactly
    diag_max, and (in the Hilbert setting r = p = q = 2) conditional
    stability holds with alpha = 1 and C_alpha = 2 diag_min^2.  For
    beta != 0 the constant gamma is estimated by sampling and construction
    fails if the estimate reaches 1/2.
    """
    if not (0 < diag_min <= diag_max):
        raise ValueError(f"need 0 < diag_min <= diag_max, got {diag_min}, {diag_max}")
    if dim < 1 or n_blocks < 1 or n_blocks > dim:
        raise ValueError(f"invalid dim={dim}, n_blocks={n_blocks}")
    diag = np.linspace(diag_min, diag_max, dim) if dim > 1 else np.array([diag_max])
    gen = np.random.Generator(np.random.Philox(seed))
    x_truth = GridVector(truth_scale * gen.standard_normal(dim))
    batches = [list(b) for b in np.array_split(np.arange(dim), n_blocks)]

    beta = float(nonlinearity_beta)
    probe = BenchmarkProblem(diag, beta, batches,
                             y_exact=[GridVector(diag[idx] * (x_truth.values[idx]
                                                              + beta * x_truth.values[idx] ** 2))
                                      for idx in batches],
                             x_truth=x_truth)
    if beta == 0.0:
        gamma = 0.0
        L_max = float(diag_max)
        stability = StabilityParams(alpha=1.0, C_alpha=2.0 * diag_min**2)
    else:
        gamma = estimate_tcc_gamma(probe, x_truth, gamma_ball_radius,
                                   gamma_samples, seed)
        if gamma >= 0.5:
            raise ValueError(
                f"benchmark nonlinearity too strong: estimated tangential cone "
                f"constant {gamma:.4f} >= 0.5 on the working ball"
            )
        reach = float(np.max(np.abs(x_truth.values))) + gamma_ball_radius
        L_max = float(diag_max) * (1.0 + 2.0 * abs(beta) * reach)
        stability = None
    return BenchmarkProblem(diag, beta, batches, probe.y_exact, x_truth=x_truth,
                            L_max=L_max, gamma=gamma, stability=stability)


def _ball_sample(gen, center: np.ndarray, radius: float) -> np.ndarray:
    """Uniform sample from the Euclidean ball of given radius around center."""
    direction = gen.standard_normal(center.shape)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return center.copy()
    scale = radius * gen.random() ** (1.0 / center.size)
    return center + (scale / norm) * direction


def estimate_tcc_gamma(problem: ForwardProblem, ball_center: GridVector,
                       ball_radius: float, n_samples: int, rng_seed: int,
                       *, r_Y: float = 2.0) -> float:
    """Largest observed ratio ||F_i(x)-F_i(x~)-F_i'(x)(x-x~)|| / ||F_i(x)-F_i(x~)||
    over sampled pairs in the ball; a lower bound on the true constant.

    Pairs with denominator below 1e-14 are skipped.  Deterministic given
    the seed.  Norms are taken with exponent ``r_Y`` (default 2).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    gen = np.random.Generator(np.random.Philox(rng_seed))
    center = ball_center.values
    worst = 0.0
    for _ in range(n_samples):
        x = GridVector(_ball_sample(gen, center, ball_radius))
        xt = GridVector(_ball_sample(gen, center, ball_radius))
        step = x - xt
        for i in range(problem.n_blocks):
            fx, derivative = problem.linearization(i, x)
            fxt = problem.apply_block(i, xt)
            den = lr_norm(fx - fxt, r_Y)
            if den < 1e-14:
                continue
            num = lr_norm(fx - fxt - derivative(step), r_Y)
            worst = max(worst, num / den)
    return worst


def estimate_lipschitz_Lmax(problem: ForwardProblem, ball_center: GridVector,
                            ball_radius: float, n_samples: int, rng_seed: int,
                            *, n_power_iter: int = 50) -> float:
    """Power-iteration estimate of max_i ||F_i'(x)|| over sampled x.

    Estimates the spectral (l^2 -> l^2) operator norm of each block
    derivative via power iteration on F'(x)* F'(x).  For solution-space
    exponents below 2 this upper-bounds the exponent-adapted operator norm,
    which keeps admissibility margins conservative.  Deterministic given
    the seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    gen = np.random.Generator(np.random.Philox(rng_seed))
    center = ball_center.values
    worst = 0.0
    for _ in range(n_samples):
        x = GridVector(_ball_sample(gen, center, ball_radius))
        for i in range(problem.n_blocks):
            v = gen.standard_normal(center.shape)
            vn = np.linalg.norm(v)
            if vn == 0.0:
                continue
            v /= vn
            normal = problem.normal_operator(i, x)
            sigma = 0.0
            for _ in range(n_power_iter):
                back = normal(v)
                bn = np.linalg.norm(back)
                if bn < 1e-300:
                    sigma = 0.0
                    break
                sigma = np.sqrt(bn)
                v = back / bn
            worst = max(worst, float(sigma))
    return worst
