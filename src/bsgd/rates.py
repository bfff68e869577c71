"""Verification harness: descent margins, decay-bound sequences, and
empirical convergence-rate fits for exact and noisy data.

Expectations are approximated by seed averages (default 20 seeds).  Rate
fits exclude a burn-in window (the first 10% of records) because the
theoretical constants govern asymptotics, not transients.  Audits never
mutate histories and are bitwise-deterministic given identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .geometry import GridVector, bregman_distance, conjugate_exponent, lr_norm
from .solver import (
    SolverConfig,
    a_priori_stop_index,
    check_step_admissibility,
    format_value,
    run_seed_stack,
    run_sgd,
)

__all__ = [
    "RateFit",
    "PolyakReport",
    "verify_polyak",
    "fit_exact_rate",
    "theoretical_contraction_factor",
    "StudyRow",
    "NoisyRateStudy",
    "noisy_rate_study",
    "write_study_csv",
    "write_study_summary",
    "DescentConstants",
    "MarginAudit",
    "descent_margin_audit",
]

_BURN_IN_FRACTION = 0.10
_FLOOR = 1e-250
_POLYAK_RTOL = 1e-9


@dataclass(frozen=True)
class RateFit:
    """model: linear (contraction factor per iteration) or powerlaw_in_delta
    (log-log slope against the noise level)."""

    model: str
    fitted_rate: float
    r_squared: float

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")


@dataclass(frozen=True)
class PolyakReport:
    """verdict: ok | hypothesis_violated | bound_violated."""

    verdict: str
    bound_curve: np.ndarray


def verify_polyak(sequence, mu, excess_exponent: float) -> PolyakReport:
    """Check the decay bound for sequences with d[n+1] <= d[n] - mu[n] d[n]^(1+a).

    With a = ``excess_exponent`` > 0, any nonnegative sequence satisfying
    the recursion obeys d[N] <= d[0] (1 + a d[0]^a sum_{n<N} mu[n])^(-1/a).
    The hypothesis is checked first; if it fails anywhere the verdict is
    ``hypothesis_violated`` and the bound is not asserted.  Both checks
    allow a relative slack of ``_POLYAK_RTOL``.
    """
    d = np.asarray(sequence, dtype=np.float64)
    steps = np.asarray(mu, dtype=np.float64)
    a = float(excess_exponent)
    if a <= 0:
        raise ValueError(f"excess exponent must be positive, got {a}")
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need a sequence of at least two values")
    if steps.shape != (d.size - 1,):
        raise ValueError("need one step-size per transition")
    if np.any(d < 0) or np.any(steps <= 0):
        raise ValueError("sequence must be nonnegative and steps positive")

    bound = d[0] * (1.0 + a * d[0] ** a * np.concatenate(
        [[0.0], np.cumsum(steps)])) ** (-1.0 / a)

    rhs = d[:-1] - steps * d[:-1] ** (1.0 + a)
    if np.any(d[1:] > rhs + _POLYAK_RTOL * np.maximum(1.0, np.abs(d[:-1]))):
        return PolyakReport("hypothesis_violated", bound)
    if np.any(d > bound + _POLYAK_RTOL * np.maximum(1.0, bound)):
        return PolyakReport("bound_violated", bound)
    return PolyakReport("ok", bound)


def _r_squared(y, y_hat) -> float:
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return max(0.0, 1.0 - ss_res / ss_tot)


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), _r_squared(y, slope * x + intercept)


def _mean_bregman_curve(histories):
    ks = np.array([rec.k for rec in histories[0]])
    curves = []
    for hist in histories:
        if [rec.k for rec in hist] != ks.tolist():
            raise ValueError("seed histories must share the record cadence")
        curves.append([rec.bregman_to_truth for rec in hist])
    return ks, np.mean(np.asarray(curves), axis=0)


def fit_exact_rate(histories, alpha: float) -> RateFit:
    """Fit the seed-averaged Bregman decay of exact-data runs.

    Only stability exponent alpha = 1, the benchmark's, is fitted: the fit
    is log mean-distance against the iteration index and ``fitted_rate`` is
    the per-iteration contraction factor.
    """
    if alpha != 1:
        raise ValueError(f"only stability exponent 1 is fitted, got {alpha}")
    if len(histories) < 1:
        raise ValueError("need at least one history")
    ks, mean_curve = _mean_bregman_curve(histories)

    if mean_curve[0] < 1e-30 and np.all(mean_curve < 1e-30):
        return RateFit(model="linear", fitted_rate=0.0, r_squared=1.0)

    start = math.ceil(_BURN_IN_FRACTION * len(ks))
    usable = [(int(k), v) for k, v in zip(ks[start:], mean_curve[start:])
              if v > _FLOOR]
    if len(usable) < 3:
        raise ValueError(
            f"only {len(usable)} usable points after burn-in; need >= 3"
        )
    kk = np.array([k for k, _ in usable], dtype=np.float64)
    vv = np.array([v for _, v in usable])

    slope, r2 = _linear_fit(kk, np.log(vv))
    return RateFit(model="linear", fitted_rate=float(np.exp(slope)), r_squared=r2)


def theoretical_contraction_factor(mu0: float, *, gamma: float, L_max: float,
                                   G_pstar: float | None, p: float, C_alpha: float,
                                   n_blocks: int) -> float:
    """Per-iteration factor 1 - (C_alpha / N) * margin * mu0 bounding the
    expected Bregman decay under conditional stability with exponent 1.
    ``G_pstar`` None (a dual with no p*-smoothness constant) raises
    ``ValueError``: there is no margin and no bound."""
    if G_pstar is None:
        raise ValueError("no contraction bound: the dual space has no "
                         "p*-smoothness constant")
    _, margin = check_step_admissibility(mu0, gamma, L_max, G_pstar,
                                         conjugate_exponent(p))
    if margin <= 0:
        raise ValueError(f"step-size {mu0} is inadmissible (margin {margin:.3e})")
    return 1.0 - (C_alpha / n_blocks) * margin * mu0


@dataclass(frozen=True)
class StudyRow:
    delta: float
    k_delta: int
    mean_bregman: float
    std_bregman: float
    n_seeds: int


@dataclass(frozen=True)
class NoisyRateStudy:
    rows: tuple[StudyRow, ...]
    fit: RateFit
    target_slope: float

    def slope_within(self, rel_tol: float = 0.2) -> bool:
        return abs(self.fit.fitted_rate - self.target_slope) \
            <= rel_tol * abs(self.target_slope)


def _spawn_seed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _exact_norm_noise(y_exact, delta: float, r_Y: float, seed: int):
    """Perturb every block by a seeded random direction of exact norm delta."""
    gen = np.random.Generator(np.random.Philox(seed))
    noisy = []
    for block in y_exact:
        direction = gen.standard_normal(block.shape)
        norm = lr_norm(direction, r_Y)
        if norm == 0.0:
            direction = np.ones(block.shape)
            norm = lr_norm(direction, r_Y)
        noisy.append(GridVector(block.values + (delta / norm) * direction))
    return noisy


def _serial_final(problem, y_obs, cell: SolverConfig, delta: float,
                  s_idx: int) -> float:
    run = run_sgd(problem, y_obs, cell)
    if run.diverged:
        raise RuntimeError(
            f"run diverged at iteration {run.diverged_at} "
            f"(delta={delta}, seed index {s_idx})"
        )
    return run.history[-1].bregman_to_truth


def noisy_rate_study(problem, stability, delta_list, config: SolverConfig,
                     n_seeds: int) -> NoisyRateStudy:
    """Measure mean final Bregman distance at the a-priori stop index across
    a grid of noise levels and fit its log-log slope against the level.

    Each (seed, level) cell perturbs every exact data block by a random
    direction of exact L^r_Y norm delta, runs exactly k(delta) iterations,
    and records the final distance to the ground truth.  The target slope
    is p / alpha.

    The seeds of a level run as one ``run_seed_stack``, so the problem
    needs a stacked row kernel (the diagonal benchmark has one); any other
    problem raises ValueError.  The stack gives each cell's serial
    ``run_sgd`` iterate bit for bit.  A config that the stack does not run
    (decaying steps, r* != p* or r_Y != q) has no stacked result and runs
    seed by seed through ``run_sgd``, and so does a level where a seed
    diverges or goes non-finite, which raises the serial study's error for
    the first failing seed.
    """
    deltas = sorted(float(d) for d in delta_list)
    if len(deltas) < 2:
        raise ValueError("need at least two noise levels to fit a slope")
    if math.log10(deltas[-1] / deltas[0]) < 1.5:
        raise ValueError("noise levels must span at least 1.5 decades")
    if config.stopping.kind != "a_priori" or config.stopping.gamma_budget is None:
        raise ValueError("the study needs an a_priori stopping rule with a budget")
    if n_seeds < 1:
        raise ValueError("need at least one seed")

    Gamma = config.stopping.gamma_budget
    gx = config.geometry_x()
    rows = []
    for d_idx, delta in enumerate(deltas):
        k_delta = a_priori_stop_index(delta, config.mu0,
                                      config.step_decay_exponent, Gamma, config.p)
        y_rows = [_exact_norm_noise(problem.y_exact, delta, config.r_Y,
                                    _spawn_seed(config.seed, d_idx, s_idx, 0))
                  for s_idx in range(n_seeds)]
        cells = [replace(config,
                         seed=_spawn_seed(config.seed, d_idx, s_idx, 1),
                         stopping=replace(config.stopping, delta=delta),
                         record_every=None)
                 for s_idx in range(n_seeds)]
        stack = run_seed_stack(problem, y_rows, cells)
        if stack is None:
            finals = [_serial_final(problem, y_obs, cell, delta, s_idx)
                      for s_idx, (y_obs, cell) in enumerate(zip(y_rows, cells))]
        else:
            # the distance the serial run's final record computes
            finals = [bregman_distance(GridVector(x), problem.x_truth, gx)
                      for x in stack[0]]
        finals = np.asarray(finals)
        rows.append(StudyRow(delta=delta, k_delta=k_delta,
                             mean_bregman=float(np.mean(finals)),
                             std_bregman=float(np.std(finals)),
                             n_seeds=n_seeds))

    x = np.log(np.array([row.delta for row in rows]))
    y = np.log(np.maximum([row.mean_bregman for row in rows], _FLOOR))
    slope, r2 = _linear_fit(x, y)
    fit = RateFit(model="powerlaw_in_delta", fitted_rate=slope, r_squared=r2)
    return NoisyRateStudy(rows=tuple(rows), fit=fit,
                          target_slope=config.p / stability.alpha)


def write_study_csv(study: NoisyRateStudy, path) -> None:
    lines = ["delta,k_delta,mean_bregman,std_bregman,n_seeds"]
    for row in study.rows:
        lines.append(",".join(map(format_value, astuple(row))))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_study_summary(study: NoisyRateStudy, path, extra: dict | None = None) -> None:
    payload = {
        "model": study.fit.model,
        "fitted_slope": study.fit.fitted_rate,
        "target_slope": study.target_slope,
        "r_squared": study.fit.r_squared,
        "n_levels": len(study.rows),
        "slope_within_20pct": study.slope_within(0.2),
    }
    if extra:
        payload.update(extra)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class DescentConstants:
    """Constants entering the per-step descent inequality."""

    p: float
    gamma: float
    L_max: float
    G_pstar: float
    omega: float | None = None
    delta: float | None = None

    @property
    def p_star(self) -> float:
        return conjugate_exponent(self.p)


@dataclass(frozen=True)
class MarginAudit:
    n_steps: int
    min_slack: float
    min_margin: float
    violations: tuple[tuple[int, float], ...]

    @property
    def n_violations(self) -> int:
        return len(self.violations)


def descent_margin_audit(history, constants: DescentConstants,
                         tol: float = 1e-9) -> MarginAudit:
    """Realized slack of the per-step inequality
    D_k <= D_{k-1} - p * margin(mu_k) * mu_k * Psi_block(x_{k-1}) (+ noise term).

    Needs consecutive per-iteration records with sampled-block objectives.
    A step counts as a violation when its margin is nonpositive
    (inadmissible step) or its slack falls below -tol.  With
    ``omega`` and ``delta`` set, the margin subtracts omega^p*/p* and the
    bound gains the noise allowance (omega^-p/p)(1+gamma)^p delta^p mu_k.
    """
    records = list(history)
    if len(records) < 2:
        raise ValueError("need at least two records to audit a step")
    c = constants
    min_slack = math.inf
    min_margin = math.inf
    violations = []
    n_steps = 0
    for prev, cur in zip(records[:-1], records[1:]):
        if cur.k != prev.k + 1:
            raise ValueError(
                f"audit needs per-iteration records; gap {prev.k} -> {cur.k}"
            )
        if cur.psi_batch_pre is None or cur.mu is None:
            raise ValueError("audit needs per-step block objectives")
        n_steps += 1
        _, margin = check_step_admissibility(cur.mu, c.gamma, c.L_max,
                                             c.G_pstar, c.p_star, c.omega)
        allowance = 0.0
        if c.omega is not None and c.delta is not None:
            allowance = (c.omega ** (-c.p) / c.p) * (1.0 + c.gamma) ** c.p \
                * c.delta**c.p * cur.mu
        slack = prev.bregman_to_truth + allowance \
            - c.p * margin * cur.mu * cur.psi_batch_pre - cur.bregman_to_truth
        min_slack = min(min_slack, slack)
        min_margin = min(min_margin, margin)
        if margin <= 0.0 or slack < -tol:
            violations.append((cur.k, slack))
    return MarginAudit(n_steps=n_steps, min_slack=min_slack,
                       min_margin=min_margin, violations=tuple(violations))
