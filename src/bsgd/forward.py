"""Block-decomposed nonlinear forward operators.

Two operators are provided: a discrete Schlieren operator (componentwise
square of parallel-beam line integrals) and a synthetic diagonal benchmark
with a quadratic nonlinearity whose derivative formulas are exact
polynomials, so finite-difference and rate checks are sharp.

Adjoints are plain matrix transposes: with the unit-cell duality pairing
<f, g> = sum f_j g_j the transpose is the exact adjoint between the discrete
L^r spaces and their duals.  A smoothed (Laplacian-preconditioned) adjoint
would be a preconditioner here, not an adjoint, and is not implemented.

Each problem class owns its operator.  A subclass defines the raw block
forward ``block_forward`` and the validated ``derivative_apply`` and
``adjoint_apply``; the base wraps ``block_forward`` as ``apply_block``,
checking the block index and the shape of x.  Exact data come from the
ground truth: a problem with ``x_truth`` applies its blocks to it, and only a
problem without one is given ``y_exact``, never both.

One raw-array kernel per problem serves the SGD step,
``block_residual_gradient``: a single forward pass gives the block residual,
and the gradient F_i'(x)* J_q(residual) reuses it (the Schlieren kernel
hands its projections to ``adjoint_apply``).  For the constant estimators,
``linearization`` gives the value, the derivative and the adjoint at one
point, so the Schlieren problem projects that point once.

A Schlieren block is a batch of its Radon system, so every projection is
one sparse product, ``RadonSystem.project_batch``.  ``build_schlieren_problem``
regroups a system built in other batches once, with the same bytes.
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
    "build_schlieren_problem",
    "build_benchmark",
    "estimate_tcc_gamma",
    "estimate_lipschitz_Lmax",
]

# the working ball of a nonlinear benchmark's sampled gamma
_GAMMA_BALL_RADIUS = 1.0
_GAMMA_SAMPLES = 50


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
    known and a sampled estimate otherwise), which the builders assign.
    The exact data are the blocks applied to ``x_truth``, or else given.
    """

    def __init__(self, batches, y_exact=None, x_truth=None):
        batches = [list(map(int, b)) for b in batches]
        if not batches or any(len(b) == 0 for b in batches):
            raise ValueError("every batch must be nonempty")
        flat = sorted(i for b in batches for i in b)
        if flat != list(range(len(flat))):
            raise ValueError("batches must partition the full index set")
        self.batches = batches
        self.x_truth = x_truth
        self.L_max = None
        self.gamma = None
        self.stability = None
        if (y_exact is None) == (x_truth is None):
            raise ValueError("need exactly one of a ground truth and exact data")
        if x_truth is not None:
            self.y_exact = [self.apply_block(i, x_truth) for i in range(len(batches))]
            return
        self.y_exact = list(y_exact)
        if len(self.y_exact) != len(batches):
            raise ValueError("need one exact data block per batch")

    @property
    def n_blocks(self) -> int:
        return len(self.batches)

    @property
    def domain_shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    def apply_block(self, i: int, x: GridVector) -> GridVector:
        """F_i(x), with the block index and the shape of x checked."""
        self._check_block(i)
        self._check_point(x)
        return GridVector(self.block_forward(i, x.values))

    def block_forward(self, i: int, x: np.ndarray) -> np.ndarray:
        """Raw F_i(x), the array ``apply_block`` wraps: arrays in, arrays
        out, nothing validated."""
        raise NotImplementedError

    def derivative_apply(self, i: int, x: GridVector, h: GridVector) -> GridVector:
        raise NotImplementedError

    def adjoint_apply(self, i: int, x: GridVector, g) -> DualVector:
        raise NotImplementedError

    def linearization(self, i: int, x: GridVector):
        """F_i(x) and the maps h -> F_i'(x) h and g -> F_i'(x)* g, for a
        fixed x."""
        return (self.apply_block(i, x),
                lambda h: self.derivative_apply(i, x, h),
                lambda g: self.adjoint_apply(i, x, g))

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

    def _check_point(self, x) -> None:
        if x.shape != self.domain_shape:
            raise ValueError(f"point shape {x.shape} != domain shape {self.domain_shape}")


class SchlierenProblem(ForwardProblem):
    """The Schlieren operator (R_k x)^2 with one block per batch k of ``system``."""

    def __init__(self, system: RadonSystem, y_exact=None, x_truth=None):
        self.system = system
        super().__init__(system.batches, y_exact, x_truth)

    @property
    def domain_shape(self):
        return self.system.image_shape

    def block_forward(self, i, x):
        proj = self.system.project_batch(i, x)
        return proj * proj

    def derivative_apply(self, i, x, h, *, px: np.ndarray | None = None):
        """Derivative action 2 * (R x) * (R h), stacked over batch i.

        ``px``, the stacked projections R x, spares projecting x, as in
        ``adjoint_apply``.
        """
        self._check_point(x)
        self._check_point(h)
        if px is None:
            px = self.system.project_batch(i, x.values)
        return GridVector(2.0 * px * self.system.project_batch(i, h.values))

    def adjoint_apply(self, i, x, g, *, px: np.ndarray | None = None):
        """Adjoint of the derivative on batch i: R^T (2 * (R x) * g).

        ``px``, the stacked projections R x of the batch, spares projecting x
        a second time when the caller has already made them; x is then only
        shape-checked and may be a raw array.
        """
        self._check_block(i)
        self._check_point(x)
        batch = self.system.batches[i]
        n_det = self.system.n_detectors
        gv = g.values if hasattr(g, "values") else np.asarray(g, dtype=np.float64)
        if gv.shape != (len(batch), n_det):
            raise ValueError(f"data block shape {gv.shape} != {(len(batch), n_det)}")
        if px is None:
            px = self.system.project_batch(i, x.values)
        # accumulated angle by angle in batch order
        out = np.zeros(self.domain_shape[0] * self.domain_shape[1])
        for a, row in zip(batch, 2.0 * px * gv):
            out += self.system.back_project(a, row)
        return DualVector(out.reshape(self.domain_shape))

    def linearization(self, i, x):
        self._check_point(x)
        px = self.system.project_batch(i, x.values)
        return (GridVector(px * px),
                lambda h: self.derivative_apply(i, x, h, px=px),
                lambda g: self.adjoint_apply(i, x, g, px=px))

    def block_residual_gradient(self, i, x, y_i, gy):
        # block_forward, then adjoint_apply on its projections
        px = self.system.project_batch(i, x)
        resid = px * px - y_i
        w = _duality_map_raw(resid, gy.r, gy.p)
        return resid, self.adjoint_apply(i, x, w, px=px).values


def build_schlieren_problem(system: RadonSystem, batch_size: int,
                            x_truth: GridVector) -> SchlierenProblem:
    """The problem on ``system`` regrouped into batches of ``batch_size``
    (``RadonSystem.regrouped``), with exact data from the ground truth."""
    return SchlierenProblem(system.regrouped(batch_size), x_truth=x_truth)


class BenchmarkProblem(ForwardProblem):
    """Componentwise F_j(x) = a_j x_j + beta a_j x_j^2 on coordinate blocks."""

    def __init__(self, diag, beta, batches, y_exact=None, x_truth=None):
        self.diag = np.asarray(diag, dtype=np.float64)
        self.beta = float(beta)
        super().__init__(batches, y_exact, x_truth)

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
                    seed: int = 0, truth_scale: float = 1.0) -> BenchmarkProblem:
    """Synthetic diagonal benchmark with known constants.

    The diagonal is a linspace over [diag_min, diag_max] (so the extreme
    entries are exact), the ground truth is a seeded standard normal vector,
    and blocks are contiguous coordinate ranges.  For beta = 0 the
    tangential cone constant is exactly 0, the derivative bound is exactly
    diag_max, and (in the Hilbert setting r = p = q = 2) conditional
    stability holds with alpha = 1 and C_alpha = 2 diag_min^2.  For
    beta != 0 the constant gamma is estimated from ``_GAMMA_SAMPLES`` pairs
    in the ball of radius ``_GAMMA_BALL_RADIUS`` around the truth, and
    construction fails if the estimate reaches 1/2.
    """
    if not (0 < diag_min <= diag_max):
        raise ValueError(f"need 0 < diag_min <= diag_max, got {diag_min}, {diag_max}")
    if dim < 1 or n_blocks < 1 or n_blocks > dim:
        raise ValueError(f"invalid dim={dim}, n_blocks={n_blocks}")
    diag = np.linspace(diag_min, diag_max, dim) if dim > 1 else np.array([diag_max])
    gen = np.random.Generator(np.random.Philox(seed))
    x_truth = GridVector(truth_scale * gen.standard_normal(dim))
    batches = [list(b) for b in np.array_split(np.arange(dim), n_blocks)]

    problem = BenchmarkProblem(diag, nonlinearity_beta, batches, x_truth=x_truth)
    if problem.beta == 0.0:
        problem.gamma = 0.0
        problem.L_max = float(diag_max)
        problem.stability = StabilityParams(alpha=1.0, C_alpha=2.0 * diag_min**2)
        return problem
    gamma = estimate_tcc_gamma(problem, x_truth, _GAMMA_BALL_RADIUS,
                               _GAMMA_SAMPLES, seed)
    if gamma >= 0.5:
        raise ValueError(
            f"benchmark nonlinearity too strong: estimated tangential cone "
            f"constant {gamma:.4f} >= 0.5 on the working ball"
        )
    reach = float(np.max(np.abs(x_truth.values))) + _GAMMA_BALL_RADIUS
    problem.gamma = gamma
    problem.L_max = float(diag_max) * (1.0 + 2.0 * abs(problem.beta) * reach)
    return problem


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
            fx, derivative, _ = problem.linearization(i, x)
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
            _, derivative, adjoint = problem.linearization(i, x)
            sigma = 0.0
            for _ in range(n_power_iter):
                back = adjoint(derivative(GridVector(v))).values
                bn = np.linalg.norm(back)
                if bn < 1e-300:
                    sigma = 0.0
                    break
                sigma = np.sqrt(bn)
                v = back / bn
            worst = max(worst, float(sigma))
    return worst
