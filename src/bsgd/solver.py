"""Stochastic gradient descent in dual coordinates, with a Landweber baseline.

The persistent iterate is the dual variable xi_k; the primal iterate is
recomputed from it after every update, which avoids a redundant forward
duality map per step.  Block sampling draws one uniform per iteration from
a counter-based Philox stream keyed by the run seed and maps it to
``min(int(u * N), N - 1)`` (``_draw_blocks``, which draws a chunk of steps
at a time: the same doubles as one draw per step); the protocol is fixed so
that independent reimplementations can follow the same path.

SGD and Landweber share one iteration loop, and it runs on plain float64
arrays: a step is one call of the problem's ``block_residual_gradient``
kernel (the mean over all blocks for Landweber), the dual update and the
inverse duality map, with raw finiteness checks in place of the wrappers'.
The history records are raw too: one ``stacked_forward`` call gives every
block's residual for the full objective (``_recorder``);
``GridVector``/``DualVector`` wrappers are built only for the snapshots
and the returned ``SGDRun``.

``run_seed_stack`` runs several seeds of one configuration as one
record-free loop over stacked chains of steps, on a problem with a stacked
row kernel (the separable benchmark).  When both duality maps act entry by
entry and the step size is constant, each (seed, block) pair is an
independent chain that applies one fixed map at every step, and a round
steps every chain that has a step left.  The loop ends when the longest
chain has no step left, or sooner, once every active chain's state repeats
bit for bit with period 2: each chain's final state then follows from the
parity of its remaining steps.  Each seed reproduces ``run_sgd``'s final
iterates bit for bit.  Any other configuration has no stacked result
(None), and its seeds run through ``run_sgd``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    DualVector,
    GeometryParams,
    GridVector,
    _bregman_raw,
    _duality_map_raw,
    _lr_norm_raw,
    _require_finite,
    _signed_power,
    duality_map,
)

__all__ = [
    "mode_exponents",
    "StoppingRule",
    "SolverConfig",
    "IterationRecord",
    "SGDRun",
    "stochastic_gradient",
    "step_schedule",
    "check_step_admissibility",
    "a_priori_stop_index",
    "run_sgd",
    "run_seed_stack",
    "run_landweber",
    "history_to_csv",
    "format_value",
]

logger = logging.getLogger(__name__)

_DIVERGENCE_FACTOR = 1e12
_STOP_INDEX_CAP = 10**8
# steps of block draws per Generator.random call while stepping
_DRAW_CHUNK = 256
# steps of block draws per Generator.random call when run_seed_stack only
# counts each chain's draws: the same stream, so the same counts; for 20
# seeds x 111,111 steps 31 ms against 108 ms in 256-step draws (2-core Xeon)
_COUNT_CHUNK = 8192
# rounds between run_seed_stack's tests for a period-2 state: it copies the
# state at rounds -2 and -1 (mod this) and compares at rounds 0 (mod this);
# at 3 (a copy or a compare every round) a stack that never cycles ran 12%
# slower, at 64 it runs as fast as with no test
_CYCLE_CHECK = 64


def mode_exponents(mode: str, r_X: float, r_Y: float) -> tuple[float, float]:
    """Gauge powers (p, q) of a mode: theory uses p = max(r_X, 2), q = p;
    practice uses p = r_X, q = r_Y.  The one place (p, q) come from."""
    if mode == "theory":
        p = max(r_X, 2.0)
        return p, p
    if mode == "practice":
        return r_X, r_Y
    raise ValueError(f"unknown mode {mode!r}; expected theory or practice")


@dataclass(frozen=True)
class StoppingRule:
    """max_epochs: fixed budget; a_priori: largest k with
    delta^p * sum of steps <= gamma_budget.  Either way the run also
    returns the best iterate along the trajectory."""

    kind: str = "max_epochs"
    delta: float | None = None
    gamma_budget: float | None = None

    def __post_init__(self):
        if self.kind not in ("max_epochs", "a_priori"):
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        if self.kind == "a_priori":
            if self.delta is None or self.delta <= 0:
                raise ValueError("a_priori stopping needs a positive noise level")
            if self.gamma_budget is None or self.gamma_budget <= 0:
                raise ValueError("a_priori stopping needs a positive step budget")


@dataclass(frozen=True)
class SolverConfig:
    """One run's solver settings.  The gauge powers ``p``, ``q`` are not
    arguments: they are ``mode_exponents(mode, r_X, r_Y)``."""

    r_X: float
    r_Y: float
    mu0: float
    step_decay_exponent: float = 0.0
    max_epochs: int = 100
    seed: int = 0
    stopping: StoppingRule = field(default_factory=StoppingRule)
    mode: str = "theory"
    record_every: int | None = 1
    p: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        # written so that NaN fails them
        if not self.mu0 > 0:
            raise ValueError(f"base step-size must be positive, got {self.mu0}")
        if not self.step_decay_exponent >= 0:
            raise ValueError("step decay exponent must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("need at least one epoch")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1 (or None for final only)")
        for name, e in (("r_X", self.r_X), ("r_Y", self.r_Y)):
            if not 1 < e < math.inf:
                raise ValueError(f"{name} must exceed 1 and be finite, got {e}")
        # also rejects an unknown mode
        p, q = mode_exponents(self.mode, self.r_X, self.r_Y)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def geometry_x(self) -> GeometryParams:
        return GeometryParams.for_lebesgue(self.r_X, self.p)

    def geometry_y(self) -> GeometryParams:
        return GeometryParams.for_lebesgue(self.r_Y, self.q)


@dataclass
class IterationRecord:
    """Diagnostics for iterate x_k and the step that produced it.

    ``mu``, ``batch_index`` and ``psi_batch_pre`` describe the step
    k-1 -> k (``psi_batch_pre`` is the sampled block's objective at the
    pre-step iterate); they are None on the k = 0 record.  ``rel_l2_error``
    and ``bregman_to_truth`` measure x_k against the problem's ground truth.
    """

    k: int
    mu: float | None
    batch_index: int | None
    psi: float
    residual: float
    rel_l2_error: float
    bregman_to_truth: float
    psi_batch_pre: float | None = None

    def __post_init__(self):
        if self.psi < 0 or self.residual < 0:
            raise ValueError("objective and residual must be nonnegative")


@dataclass
class SGDRun:
    history: list[IterationRecord]
    final_x: GridVector
    final_dual: DualVector
    best_x: GridVector
    best_k: int
    best_metric: float
    diverged: bool
    diverged_at: int | None
    iters_per_epoch: int
    n_iterations: int
    snapshots: list[tuple[int, GridVector, DualVector]] = field(default_factory=list)


def stochastic_gradient(problem, x: GridVector, y_obs, block_index: int,
                        q: float, r_Y: float) -> DualVector:
    """One-block gradient F_i'(x)* J_q(F_i(x) - y_i)."""
    problem._check_block(block_index)
    problem._check_point(x)
    resid, grad = problem.block_residual_gradient(
        block_index, x.values, y_obs[block_index].values,
        GeometryParams.for_lebesgue(r_Y, q))
    _require_finite(resid)
    return DualVector(grad)


def _mean_gradient(problem, x: np.ndarray, y: list, gy: GeometryParams) -> np.ndarray:
    acc = None
    for i in range(problem.n_blocks):
        resid, g = problem.block_residual_gradient(i, x, y[i], gy)
        _require_finite(resid)
        acc = g if acc is None else acc + g
    return acc / problem.n_blocks


def step_schedule(mu0: float, decay: float, k: int) -> float:
    """mu_k = mu0 * k**(-decay) for k >= 1; decay = 0 gives constant steps."""
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    if decay == 0.0:
        return mu0
    return mu0 * float(k) ** (-decay)


def check_step_admissibility(mu: float, gamma: float, L_max: float, G_pstar: float,
                             p_star: float, omega: float | None = None
                             ) -> tuple[bool, float]:
    """Descent margin 1 - gamma - L^p* (G/p*) mu^(p*-1) at step size mu;
    admissible iff it is positive.  The margin falls as mu grows, so a
    schedule's is the one at its largest step.

    With ``omega`` set, the noise-robust variant additionally subtracts
    omega**p* / p*, the Young-inequality weight absorbed by the residual
    term.
    """
    # a 0-d array: numpy's array power, whose bits a scalar ** may not have
    mu = np.asarray(mu, dtype=np.float64)
    if mu <= 0:
        raise ValueError("step-size must be positive")
    margin = 1.0 - gamma - L_max**p_star * (G_pstar / p_star) * mu ** (p_star - 1.0)
    if omega is not None:
        margin = margin - omega**p_star / p_star
    margin = float(margin)
    return margin > 0.0, margin


def a_priori_stop_index(delta: float, mu0: float, decay: float, Gamma: float,
                        p: float) -> int:
    """Largest k with delta^p * (mu_1 + ... + mu_k) <= Gamma.

    Monotone nonincreasing in delta and unbounded as delta -> 0; guarded at
    1e8 iterations.
    """
    if delta <= 0 or Gamma <= 0 or mu0 <= 0:
        raise ValueError("delta, Gamma, and mu0 must be positive")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    budget = Gamma / (delta**p * mu0)
    if budget < 1.0:
        return 0
    if decay == 0.0:
        k = int(math.floor(budget))
        if k > _STOP_INDEX_CAP:
            raise OverflowError(
                f"a-priori stop index {k} exceeds the {_STOP_INDEX_CAP} guard; "
                f"reduce the step budget or raise the noise level"
            )
        return k
    count = 0
    running = 0.0
    start = 1
    chunk = 1 << 16
    while True:
        ell = np.arange(start, start + chunk, dtype=np.float64)
        cums = running + np.cumsum(ell ** (-decay))
        idx = int(np.searchsorted(cums, budget, side="right"))
        count += idx
        if idx < chunk:
            return count
        if count >= _STOP_INDEX_CAP:
            raise OverflowError(
                f"a-priori stop index exceeds the {_STOP_INDEX_CAP} guard; "
                f"reduce the step budget or raise the noise level"
            )
        running = float(cums[-1])
        start += chunk


def _relative_error_raw(x: np.ndarray, truth: np.ndarray, denom: float) -> float:
    return _lr_norm_raw((truth - x).ravel(), 2.0) / denom


def _recorder(problem, y: list, q: float, r_Y: float, gx: GeometryParams):
    """The history record maker of one run on the raw data blocks y, with
    data-space exponents (q, r_Y) and solution-space geometry gx.

    The data are stacked once, in ``stacked_forward``'s layout, and a
    record takes every block's residual from one forward call and one
    subtraction, checks it once and takes each block's norm on its slice.
    The ground truth's L^r_X norm, which every Bregman distance reads, is
    taken once too.
    """
    y_all = np.concatenate([y_i.ravel() for y_i in y])
    ends = np.cumsum([y_i.size for y_i in y]).tolist()
    bounds = list(zip([0, *ends[:-1]], ends))
    n_blocks = problem.n_blocks
    truth_v = problem.x_truth.values
    truth_r_norm = _lr_norm_raw(truth_v.ravel(), gx.r)

    def record(x: np.ndarray, k, mu, batch, resid, rel) -> IterationRecord:
        """Record of the raw iterate x; ``resid`` is the sampled block's
        residual at the pre-step iterate (None on the k = 0 record and for
        Landweber) and ``rel`` the relative error of x.  ``psi`` is the full
        objective and ``residual`` the outer-l^q product norm of the
        residual."""
        resid_all = problem.stacked_forward(x) - y_all
        _require_finite(resid_all)
        norms = np.array([_lr_norm_raw(resid_all[lo:hi], r_Y) for lo, hi in bounds])
        total = np.sum(norms**q)
        psi_pre = None if resid is None else \
            _lr_norm_raw(resid.ravel(), r_Y) ** q / q
        breg = _bregman_raw(x, truth_v, truth_r_norm, gx)
        return IterationRecord(k=k, mu=mu, batch_index=batch,
                               psi=float(total) / (q * n_blocks),
                               residual=float(total ** (1.0 / q)),
                               rel_l2_error=rel, bregman_to_truth=breg,
                               psi_batch_pre=psi_pre)

    return record


def _total_iterations(config: SolverConfig, iters_per_epoch: int) -> int:
    if config.stopping.kind == "a_priori":
        return a_priori_stop_index(config.stopping.delta, config.mu0,
                                   config.step_decay_exponent,
                                   config.stopping.gamma_budget, config.p)
    return config.max_epochs * iters_per_epoch


def _warn_if_inadmissible(problem, config: SolverConfig) -> None:
    gx = config.geometry_x()
    gamma = problem.gamma
    if gamma is None or problem.L_max is None or gx.G_pstar is None:
        logger.debug("admissibility not checkable (missing gamma, L_max, or "
                     "smoothness constant); proceeding")
        return
    # the margin falls as mu grows, and mu_1 = mu0 is the largest step
    ok, margin = check_step_admissibility(config.mu0, gamma, problem.L_max,
                                          gx.G_pstar, gx.p_star)
    if not ok:
        logger.warning(
            "step schedule is inadmissible (margin %.3e); proceeding anyway "
            "- this configuration carries no descent guarantee", margin,
        )


def _run_iteration_loop(problem, y_obs, config: SolverConfig, x0,
                        sample_block, iters_per_epoch: int,
                        collect_snapshots: bool) -> SGDRun:
    if len(y_obs) != problem.n_blocks:
        raise ValueError(
            f"observation block count {len(y_obs)} != {problem.n_blocks}"
        )
    gx = config.geometry_x()
    gy = config.geometry_y()

    if x0 is None:
        x0 = GridVector(np.zeros(problem.domain_shape))
    elif not isinstance(x0, GridVector):
        x0 = GridVector(np.broadcast_to(np.asarray(x0, dtype=np.float64),
                                        problem.domain_shape).copy())
    xi0 = duality_map(x0, gx)
    guard = _DIVERGENCE_FACTOR * max(1.0, float(np.max(np.abs(xi0.values))))

    total = _total_iterations(config, iters_per_epoch)
    _warn_if_inadmissible(problem, config)

    # raw arrays from here on; rel is the relative error of the current x
    x, xi = x0.values, xi0.values
    y = [yi.values for yi in y_obs]
    truth_v = problem.x_truth.values
    truth_norm = _lr_norm_raw(truth_v.ravel(), 2.0)
    rel = _relative_error_raw(x, truth_v, truth_norm)
    record = _recorder(problem, y, config.q, config.r_Y, gx)
    history = [record(x, 0, None, None, None, rel)]
    best_metric, best_x, best_k = rel, x, 0
    snapshots = [(0, x0, xi0)] if collect_snapshots else []
    diverged = False
    diverged_at = None

    for k in range(1, total + 1):
        i = sample_block()
        mu = step_schedule(config.mu0, config.step_decay_exponent, k)
        if i is None:
            resid = None
            grad = _mean_gradient(problem, x, y, gy)
        else:
            resid, grad = problem.block_residual_gradient(i, x, y[i], gy)
            _require_finite(resid)
        _require_finite(grad)

        new_xi = xi - mu * grad
        peak = np.abs(new_xi).max()
        if not peak <= guard:  # NaN fails the test too
            diverged = True
            diverged_at = k
            history.append(record(x, k, mu, i, resid, rel))
            logger.warning("iterate diverged at iteration %d; aborting run", k)
            break
        xi = new_xi
        x = _duality_map_raw(xi, gx.r_star, gx.p_star, peak)
        _require_finite(x)

        rel = _relative_error_raw(x, truth_v, truth_norm)
        if rel < best_metric:
            best_metric, best_x, best_k = rel, x, k

        is_record = (config.record_every is not None
                     and k % config.record_every == 0) or k == total
        if is_record:
            history.append(record(x, k, mu, i, resid, rel))
            if collect_snapshots:
                snapshots.append((k, GridVector(x), DualVector(xi)))

    return SGDRun(history=history, final_x=GridVector(x),
                  final_dual=DualVector(xi), best_x=GridVector(best_x),
                  best_k=best_k, best_metric=best_metric, diverged=diverged,
                  diverged_at=diverged_at, iters_per_epoch=iters_per_epoch,
                  n_iterations=history[-1].k, snapshots=snapshots)


def _draw_blocks(gen: np.random.Generator, n: int, n_blocks: int) -> np.ndarray:
    """The next n block indices min(int(u * N), N - 1) of the stream."""
    return np.minimum((gen.random(n) * n_blocks).astype(np.intp), n_blocks - 1)


def _block_stream(seed: int, n_blocks: int):
    """Endless block indices of the Philox stream keyed by ``seed``."""
    gen = np.random.Generator(np.random.Philox(seed))
    while True:
        yield from _draw_blocks(gen, _DRAW_CHUNK, n_blocks).tolist()


def run_sgd(problem, y_obs, config: SolverConfig, x0=None,
            collect_snapshots: bool = False) -> SGDRun:
    """Run the dual-coordinate SGD iteration with uniform block sampling.

    Deterministic given the config seed.  One epoch is N block draws
    (N = number of blocks).  The best iterate, the one of least relative
    l^2 error to the problem's ground truth, is tracked every iteration.
    """
    N = problem.n_blocks
    return _run_iteration_loop(problem, y_obs, config, x0,
                               _block_stream(config.seed, N).__next__,
                               iters_per_epoch=N,
                               collect_snapshots=collect_snapshots)


def _block_chunks(seed: int, total: int, n_blocks: int):
    """The first ``total`` block indices of the stream keyed by ``seed``, in
    arrays of at most ``_COUNT_CHUNK``."""
    gen = np.random.Generator(np.random.Philox(seed))
    for start in range(0, total, _COUNT_CHUNK):
        yield _draw_blocks(gen, min(_COUNT_CHUNK, total - start), n_blocks)


def run_seed_stack(problem, y_obs_rows, configs) -> tuple[np.ndarray, np.ndarray] | None:
    """Run ``run_sgd(problem, y_obs_rows[s], configs[s])`` for every s as one
    record-free loop over stacked (seed, block) chains of steps.

    The configs must differ only in ``seed``, and the problem must have a
    stacked row kernel (``block_rows_residual_gradient``).  Every seed
    starts from x0 = 0 and draws its blocks from its own Philox stream.  A
    step changes only the drawn block's entries of x and xi: elsewhere the
    serial gradient is +0.0, so its update leaves xi as it was, inside the
    guard.  When the inverse duality map acts entry by entry (r* == p*),
    the data map too (r_Y == q) and the step size is constant (decay 0), no
    step reads another block or needs its global index, so each (seed,
    block) pair is an independent chain that applies one fixed map at every
    step.  The loop advances all chains in lockstep rounds, as many as the
    longest chain has steps, unless every active chain's state turns
    periodic with period 2 first; it then stops and gives each chain the
    state of its final step.  Each step is taken entry by entry as the
    serial loop takes it, with the same finiteness checks and divergence
    guard.  Any other config returns None before any step, check or log
    line: it has no stacked result, and ``run_sgd`` runs it seed by seed.

    Returns the final primal and dual iterates as (S, dim) arrays equal to
    the serial runs' ``final_x`` and ``final_dual`` bit for bit, or None as
    soon as any chain diverges or goes non-finite; ``run_sgd`` on the rows
    then tells which check failed, for which row and at which step.  A
    chain may run ahead of its seed's failing step, so None can come before
    the serial failure would, but only for a seed whose serial run fails.
    """
    if not configs:
        raise ValueError("need at least one config")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("stacked runs must differ only in their seed")
    if not hasattr(problem, "block_rows_residual_gradient"):
        raise ValueError(f"{type(problem).__name__} has no stacked row kernel")
    if len(y_obs_rows) != len(configs):
        raise ValueError(f"{len(y_obs_rows)} data rows for {len(configs)} configs")
    N = problem.n_blocks
    for y_obs in y_obs_rows:
        if len(y_obs) != N:
            raise ValueError(f"observation block count {len(y_obs)} != {N}")
    gx = config.geometry_x()
    gy = config.geometry_y()
    # With r* == p* the inverse map acts entry by entry: its norm factor is
    # 1.0, and a zero row maps to +0.0 entries, as the entrywise power maps
    # xi's zeros (xi starts at +0.0 and x - y is -0.0 only for x = -0.0).
    # With r_Y == q the data map of a block's residual is entrywise too
    # (_duality_map_rows), and with decay 0 no step needs its global index.
    if not (gx.r_star == gx.p_star and gy.r == gy.p
            and config.step_decay_exponent == 0.0):
        return None
    total = _total_iterations(config, N)
    _warn_if_inadmissible(problem, config)

    # idx, diag and data tables; a result row has one scratch entry (index
    # dim) for the padding of short blocks
    idx, diag, data = problem.stacked_blocks(y_obs_rows)
    counts = np.zeros((len(configs), N), dtype=np.intp)
    for s, c in enumerate(configs):
        for blocks in _block_chunks(c.seed, total, N):
            counts[s] += np.bincount(blocks, minlength=N)
    # Chain (s, b) takes the steps at which seed s drew block b, in order,
    # and its state row holds the block's entries (padded to the largest
    # block).  The chains are sorted by draw count, longest first, so the
    # chains of round j, those drawn more than j times, are a prefix of the
    # rows.
    order = np.argsort(-counts.ravel(), kind="stable")
    counts = counts.ravel()[order]
    seed, block = np.divmod(order, N)
    d, y = diag[block], data[seed, block]
    xi = np.zeros(d.shape)
    x = xi.copy()
    mu = config.mu0  # step_schedule's value at every step when decay = 0
    guard = _DIVERGENCE_FACTOR  # max(1, max|J(x0)|) = 1 at x0 = 0
    kernel = problem.block_rows_residual_gradient
    n, budget = len(order), int(counts[0])
    # A row's step reads only its own row, through the fixed mu and its own
    # d and y, and every check on it is a function of its values.  So once
    # round j leaves every active dual row as it was after round j - 2, bit
    # for bit (x is a function of xi), each active chain alternates between
    # its round j - 1 and round j states, and every later round would pass
    # the checks that these rounds passed.  The rounds then end, and each
    # active chain takes the state that the parity of its remaining steps,
    # counts - (j + 1), gives it; the chains that left the prefix earlier
    # already hold their final rows.
    for j in range(budget):
        while counts[n - 1] <= j:
            n -= 1
        resid, grad = kernel(x[:n], d[:n], y[:n], gy)
        if not (np.isfinite(resid).all() and np.isfinite(grad).all()):
            return None
        new_xi = xi[:n] - mu * grad
        if not np.abs(new_xi).max() <= guard:  # NaN fails the test too
            return None
        xi[:n] = new_xi
        new_x = _signed_power(new_xi, gx.r_star - 1.0)
        if not np.isfinite(new_x).all():
            return None
        x[:n] = new_x
        # copies: xi[:n] is a view that the next round overwrites
        phase = j % _CYCLE_CHECK
        if phase == _CYCLE_CHECK - 2:
            xi_back2 = xi[:n].copy()
        elif phase == _CYCLE_CHECK - 1:
            xi_back1, x_back1 = xi[:n].copy(), x[:n].copy()
        # bit patterns, as == takes -0.0 for +0.0; the prefix may have
        # shrunk since round j - 2, and its first n rows are these chains
        elif phase == 0 and j and np.array_equal(
                xi[:n].view(np.uint64), xi_back2[:n].view(np.uint64)):
            odd = (counts[:n] - (j + 1)) % 2 == 1
            xi[:n][odd] = xi_back1[:n][odd]
            x[:n][odd] = x_back1[:n][odd]
            logger.debug("seed stack: chains periodic at round %d of %d, "
                         "%d rounds skipped", j, budget, budget - j - 1)
            break
    S, dim = len(configs), problem.dim
    home = idx[block] + (seed * (dim + 1))[:, None]
    final = np.zeros((2, S, dim + 1))
    final[0].put(home, x)
    final[1].put(home, xi)
    return final[0, :, :dim].copy(), final[1, :, :dim].copy()


def run_landweber(problem, y_obs, config: SolverConfig, x0=None,
                  collect_snapshots: bool = False) -> SGDRun:
    """Deterministic full-gradient baseline with the same dual-space update.

    One iteration uses the mean of all block gradients and counts as one
    epoch.
    """
    return _run_iteration_loop(problem, y_obs, config, x0, lambda: None,
                               iters_per_epoch=1,
                               collect_snapshots=collect_snapshots)


def format_value(value) -> str:
    """Text form of a value in a CSV cell or an INI entry: empty for None,
    shortest round-trip repr for a float (numpy scalars print as plain
    floats), ``str`` otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def history_to_csv(records, path, iters_per_epoch: int) -> None:
    """Write `epoch,iter,mu,batch,psi,residual,rel_l2_err,bregman` rows.

    The k = 0 record's step fields become empty cells.  Floats use shortest
    round-trip formatting, so identical histories serialize byte-identically.
    """
    lines = ["epoch,iter,mu,batch,psi,residual,rel_l2_err,bregman"]
    for rec in records:
        epoch = rec.k // iters_per_epoch
        lines.append(",".join(map(format_value, (
            epoch, rec.k, rec.mu, rec.batch_index, rec.psi, rec.residual,
            rec.rel_l2_error, rec.bregman_to_truth))))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
