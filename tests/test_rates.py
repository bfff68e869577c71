import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bsgd.cli import _build_problem, _solver_config
from bsgd.config import parse_config
from bsgd.forward import (
    _BOX_MARGIN,
    BenchmarkProblem,
    StabilityParams,
    build_benchmark,
)
from bsgd.geometry import GridVector
from bsgd.rates import (
    DescentConstants,
    NoisyRateStudy,
    RateFit,
    StudyRow,
    _exact_norm_noise,
    _linear_fit,
    _spawn_seed,
    descent_margin_audit,
    fit_exact_rate,
    noisy_rate_study,
    theoretical_contraction_factor,
    verify_polyak,
    write_study_csv,
    write_study_summary,
)
from bsgd.solver import (
    IterationRecord,
    SolverConfig,
    StoppingRule,
    a_priori_stop_index,
    run_sgd,
)


def simulate_decay_recursion(d0, mu, excess):
    """Forward-simulate d[n+1] = d[n] - mu[n] d[n]^(1+excess) (equality)."""
    d = [d0]
    for m in mu:
        d.append(d[-1] - m * d[-1] ** (1.0 + excess))
    return np.array(d)


def make_history(bregmans, mu=0.1, psi_pre=None):
    records = []
    for k, b in enumerate(bregmans):
        records.append(IterationRecord(
            k=k, mu=None if k == 0 else mu, batch_index=None if k == 0 else 0,
            psi=1.0, residual=1.0, rel_l2_error=None, bregman_to_truth=float(b),
            psi_batch_pre=None if k == 0 else (psi_pre[k - 1] if psi_pre else 1.0)))
    return records


class TestVerifyPolyak:
    def test_zero_sequence(self):
        report = verify_polyak(np.zeros(10), np.full(9, 0.5), 1.0)
        assert report.verdict == "ok"
        assert np.all(report.bound_curve == 0.0)

    def test_equality_recursion_satisfies_bound(self):
        mu = np.full(50, 0.2)
        seq = simulate_decay_recursion(0.8, mu, 1.0)
        report = verify_polyak(seq, mu, 1.0)
        assert report.verdict == "ok"
        assert np.all(seq <= report.bound_curve * (1.0 + 1e-9))

    def test_fractional_excess_exponent(self):
        mu = 0.05 * np.arange(1, 80) ** -0.3
        seq = simulate_decay_recursion(0.5, mu, 0.7)
        assert verify_polyak(seq, mu, 0.7).verdict == "ok"

    def test_hypothesis_violation_flagged(self):
        mu = np.full(10, 0.2)
        seq = simulate_decay_recursion(0.8, mu, 1.0)
        seq[4] = seq[3] + 0.1  # ascent step breaks the recursion
        report = verify_polyak(seq, mu, 1.0)
        assert report.verdict == "hypothesis_violated"

    def test_bound_curve_formula(self):
        mu = np.array([0.3, 0.1])
        d0 = 0.5
        report = verify_polyak(simulate_decay_recursion(d0, mu, 2.0), mu, 2.0)
        expected_last = d0 * (1.0 + 2.0 * d0**2 * 0.4) ** -0.5
        assert report.bound_curve[-1] == pytest.approx(expected_last)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_polyak([1.0], [0.1], 1.0)
        with pytest.raises(ValueError):
            verify_polyak([1.0, 0.5], [0.1], 0.0)
        with pytest.raises(ValueError):
            verify_polyak([1.0, -0.5], [0.1], 1.0)


class TestFitExactRate:
    def test_recovers_geometric_contraction(self):
        rho = 0.93
        curve = 2.0 * rho ** np.arange(120)
        fit = fit_exact_rate([make_history(curve)], alpha=1.0)
        assert fit.model == "linear"
        assert fit.fitted_rate == pytest.approx(rho, rel=1e-10)
        assert fit.r_squared >= 0.999

    def test_seed_averaging(self):
        rho = 0.9
        ks = np.arange(100)
        gen = np.random.default_rng(3)
        histories = [make_history(2.0 * rho**ks * gen.uniform(0.8, 1.2))
                     for _ in range(10)]
        fit = fit_exact_rate(histories, alpha=1.0)
        assert fit.fitted_rate == pytest.approx(rho, rel=0.05)

    def test_already_converged(self):
        fit = fit_exact_rate([make_history(np.zeros(30))], alpha=1.0)
        assert (fit.model, fit.fitted_rate, fit.r_squared) == ("linear", 0.0, 1.0)

    def test_insufficient_points(self):
        with pytest.raises(ValueError, match="usable points"):
            fit_exact_rate([make_history([1.0, 0.5])], alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_only_stability_exponent_one_fitted(self, alpha):
        with pytest.raises(ValueError, match="stability exponent 1"):
            fit_exact_rate([make_history(2.0 * 0.9 ** np.arange(30))], alpha=alpha)

    def test_mismatched_cadence_rejected(self):
        h1 = make_history([1.0, 0.5, 0.25])
        h2 = make_history([1.0, 0.5, 0.25, 0.1])
        with pytest.raises(ValueError, match="cadence"):
            fit_exact_rate([h1, h2], alpha=1.0)


class TestTheoreticalContraction:
    def test_hand_formula(self):
        # margin = 1 - L^2 G mu / 2; factor = 1 - (C_a/N) margin mu
        factor = theoretical_contraction_factor(
            0.5, gamma=0.0, L_max=1.0, G_pstar=1.0, p=2.0, C_alpha=2.0,
            n_blocks=4)
        margin = 1.0 - 0.5 * 0.5
        assert factor == pytest.approx(1.0 - (2.0 / 4.0) * margin * 0.5)

    def test_inadmissible_step_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            theoretical_contraction_factor(10.0, gamma=0.0, L_max=1.0,
                                           G_pstar=1.0, p=2.0, C_alpha=2.0,
                                           n_blocks=4)

    def test_dual_without_smoothness_constant_rejected(self):
        # practice mode at r_X = 1.5: p = 1.5, and L^3 has no 3-smoothness
        # constant, so there is no margin to bound the factor with
        with pytest.raises(ValueError, match="smoothness constant"):
            theoretical_contraction_factor(0.5, gamma=0.0, L_max=1.0,
                                           G_pstar=None, p=1.5, C_alpha=2.0,
                                           n_blocks=4)


def study_config(seed=0, gamma_budget=0.6, mu0=0.5):
    return SolverConfig(r_X=2.0, r_Y=2.0, mu0=mu0,
                        mode="theory", max_epochs=10, seed=seed,
                        stopping=StoppingRule("a_priori", delta=1.0,
                                              gamma_budget=gamma_budget))


class TestNoisyRateStudy:
    def test_single_delta_rejected(self, hilbert_benchmark):
        with pytest.raises(ValueError, match="at least two"):
            noisy_rate_study(hilbert_benchmark, hilbert_benchmark.stability,
                             [0.1], study_config(), 2)

    def test_narrow_span_rejected(self, hilbert_benchmark):
        with pytest.raises(ValueError, match="decades"):
            noisy_rate_study(hilbert_benchmark, hilbert_benchmark.stability,
                             [0.1, 0.05], study_config(), 2)

    def test_hilbert_slope_near_two(self, hilbert_benchmark):
        # smoke-scale version of the acceptance study (3 seeds)
        study = noisy_rate_study(hilbert_benchmark,
                                 hilbert_benchmark.stability,
                                 [1e-1, 3e-2, 1e-2, 3e-3],
                                 study_config(), n_seeds=3)
        assert study.target_slope == pytest.approx(2.0)
        assert 1.5 <= study.fit.fitted_rate <= 2.5
        assert study.fit.r_squared >= 0.9

    def test_stability_constant_does_not_move_slope(self, hilbert_benchmark):
        deltas = [1e-1, 1e-2, 3e-3]
        s1 = noisy_rate_study(hilbert_benchmark, StabilityParams(1.0, 1.0),
                              deltas, study_config(gamma_budget=0.05), 3)
        s2 = noisy_rate_study(hilbert_benchmark, StabilityParams(1.0, 2.0),
                              deltas, study_config(gamma_budget=0.05), 3)
        assert s1.fit.fitted_rate == s2.fit.fitted_rate

    def test_rows_and_artifacts(self, hilbert_benchmark, tmp_path):
        study = noisy_rate_study(hilbert_benchmark,
                                 hilbert_benchmark.stability,
                                 [1e-1, 1e-2, 3e-3],
                                 study_config(gamma_budget=0.05), 3)
        assert [row.delta for row in study.rows] == [3e-3, 1e-2, 1e-1]
        assert all(row.k_delta > 0 for row in study.rows)
        csv_path = tmp_path / "study.csv"
        write_study_csv(study, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "delta,k_delta,mean_bregman,std_bregman,n_seeds"
        assert len(lines) == 1 + len(study.rows)
        summary_path = tmp_path / "summary.txt"
        write_study_summary(study, summary_path)
        import json
        payload = json.loads(summary_path.read_text())
        assert "fitted_slope" in payload and "r_squared" in payload


def serial_study(problem, stability, delta_list, config, n_seeds):
    """The study as one serial run_sgd per (seed, level) cell: the loop
    noisy_rate_study ran before it stacked a level's seeds."""
    deltas = sorted(float(d) for d in delta_list)
    Gamma = config.stopping.gamma_budget
    rows = []
    for d_idx, delta in enumerate(deltas):
        k_delta = a_priori_stop_index(delta, config.mu0,
                                      config.step_decay_exponent, Gamma, config.p)
        finals = []
        for s_idx in range(n_seeds):
            y_noisy = _exact_norm_noise(problem.y_exact, delta, config.r_Y,
                                        _spawn_seed(config.seed, d_idx, s_idx, 0))
            cell = dataclasses.replace(
                config, seed=_spawn_seed(config.seed, d_idx, s_idx, 1),
                stopping=dataclasses.replace(config.stopping, delta=delta),
                record_every=None)
            run = run_sgd(problem, y_noisy, cell)
            if run.diverged:
                raise RuntimeError(
                    f"run diverged at iteration {run.diverged_at} "
                    f"(delta={delta}, seed index {s_idx})"
                )
            finals.append(run.history[-1].bregman_to_truth)
        finals = np.asarray(finals)
        rows.append(StudyRow(delta=delta, k_delta=k_delta,
                             mean_bregman=float(np.mean(finals)),
                             std_bregman=float(np.std(finals)),
                             n_seeds=n_seeds))
    x = np.log(np.array([row.delta for row in rows]))
    y = np.log(np.maximum([row.mean_bregman for row in rows], 1e-250))
    slope, r2 = _linear_fit(x, y)
    fit = RateFit(model="powerlaw_in_delta", fitted_rate=slope, r_squared=r2)
    return NoisyRateStudy(rows=tuple(rows), fit=fit,
                          target_slope=config.p / stability.alpha)


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestStackedStudyMatchesSerial:
    """noisy_rate_study stacks each level's seeds; its rows, fit and errors
    are the serial study's."""

    @pytest.mark.parametrize("beta,mode,r_x,r_y,decay", [
        (0.0, "theory", 2.0, 2.0, 0.0),
        (0.05, "theory", 2.0, 2.0, 0.0),
        (0.0, "practice", 1.5, 1.5, 0.0),
        (0.0, "theory", 1.5, 2.0, 0.0),  # r* != p*: seed by seed
        (0.0, "practice", 1.5, 1.5, 0.1),  # decaying steps: seed by seed
    ], ids=["0.0-theory-2.0-2.0", "0.05-theory-2.0-2.0", "0.0-practice-1.5-1.5",
            "0.0-theory-1.5-2.0", "0.0-practice-1.5-1.5-decay-0.1"])
    def test_rows_and_fit_identical(self, beta, mode, r_x, r_y, decay):
        problem = build_benchmark(41, 0.9, 1.1, beta, n_blocks=5, seed=3)
        # delta = 1 stops at k = 0: its row is the distance of x0 = 0
        cfg = SolverConfig(mode=mode, r_X=r_x, r_Y=r_y, mu0=0.5, seed=5,
                           step_decay_exponent=decay,
                           stopping=StoppingRule("a_priori", delta=1.0,
                                                 gamma_budget=0.4))
        args = (problem, StabilityParams(1.0, 1.0), [1.0, 0.1, 0.03], cfg, 4)
        study = noisy_rate_study(*args)
        assert study.rows[-1].k_delta == 0
        assert repr(study) == repr(serial_study(*args))

    def test_diverging_level_raises_the_serial_error(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        cfg = study_config(mu0=1e8, gamma_budget=1e8 * 0.03**2 * 200)
        args = (problem, problem.stability, [1.0, 0.1, 0.03], cfg, 3)
        raised = _raised(noisy_rate_study, *args)
        assert raised == _raised(serial_study, *args)
        assert raised[0] is RuntimeError and "diverged" in raised[1]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_level_raises_the_serial_error(self):
        # r_X = 1.02: x = |xi|^50 overflows once |xi| > 1.5e6
        base = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        problem = BenchmarkProblem(base.diag, base.beta, base.batches,
                                   x_truth=GridVector(1e7 * base.x_truth.values))
        cfg = SolverConfig(mode="practice", r_X=1.02, r_Y=2.0, mu0=0.5,
                           stopping=StoppingRule("a_priori", delta=1.0,
                                                 gamma_budget=50.0))
        args = (problem, StabilityParams(1.0, 1.0), [1.0, 0.01], cfg, 2)
        raised = _raised(noisy_rate_study, *args)
        assert raised == _raised(serial_study, *args)
        assert raised[0] is ValueError and "finite" in raised[1]

    def test_the_shipped_study_stays_stacked(self, monkeypatch):
        # configs/benchmark_rates.ini's study with 2 seeds, configured as
        # cmd_rates configures it: every level must run as a seed stack
        cfg = parse_config(Path(__file__).parents[1] / "configs"
                           / "benchmark_rates.ini")
        problem = _build_problem(cfg)
        deltas = cfg.rate_delta_list()
        config = SolverConfig(r_X=cfg.r_x, r_Y=cfg.r_y, mu0=cfg.mu0,
                              step_decay_exponent=cfg.decay,
                              max_epochs=cfg.epochs, seed=cfg.solver_seed,
                              mode=cfg.mode, record_every=cfg.n_blocks,
                              stopping=StoppingRule(
                                  "a_priori", delta=deltas[0],
                                  gamma_budget=cfg.rate_gamma_budget))

        def serial(*args, **kwargs):
            raise AssertionError("a level ran seed by seed")

        monkeypatch.setattr("bsgd.rates.run_sgd", serial)
        study = noisy_rate_study(problem, problem.stability, deltas, config, 2)
        assert len(study.rows) == len(deltas)

    def test_problem_without_stacked_kernel_rejected(self, small_schlieren):
        cfg = study_config()
        with pytest.raises(ValueError, match="stacked row kernel"):
            noisy_rate_study(small_schlieren, StabilityParams(1.0, 1.0),
                             [1e-1, 1e-3], cfg, 2)

    def test_memory_peak_of_the_rates_config(self, hilbert_benchmark):
        # configs/benchmark_rates.ini with 2 seeds: 111,111 steps per seed at
        # its smallest level, whose block draws as one float64 array would
        # take 0.9 MB
        p = hilbert_benchmark
        cfg = study_config(gamma_budget=0.5)
        tracemalloc.start()
        try:
            noisy_rate_study(p, p.stability, [1e-1, 3e-2, 1e-2, 3e-3], cfg, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


def _nonlinear_rates_setup(beta):
    """configs/benchmark_rates.ini at nonlinearity ``beta``, as cmd_rates
    sets it up: the config, the problem, the exact-data solver config and
    the box |x_j| <= rho the problem's constants hold on."""
    cfg = dataclasses.replace(
        parse_config(Path(__file__).parents[1] / "configs"
                     / "benchmark_rates.ini"), beta=beta)
    problem = _build_problem(cfg)
    rho = np.max(np.abs(problem.x_truth.values)) + _BOX_MARGIN
    return cfg, problem, _solver_config(cfg, 0.0, problem.n_blocks), rho


def _peak(run):
    return max(np.max(np.abs(x.values)) for _, x, _ in run.snapshots)


@pytest.mark.parametrize("beta", [0.02, 0.05])
class TestNonlinearRates:
    """The shipped rate study at beta != 0 passes cmd_rates's gates with the
    closed-form constants, and its iterates stay in their box."""

    def test_exact_data_contraction_within_bound(self, beta):
        cfg, problem, base, rho = _nonlinear_rates_setup(beta)
        histories = []
        for s in range(cfg.rate_seeds):
            seeded = dataclasses.replace(base, seed=cfg.solver_seed + s)
            histories.append(run_sgd(problem, problem.y_exact, seeded).history)
            every = run_sgd(problem, problem.y_exact,
                            dataclasses.replace(seeded, record_every=1),
                            collect_snapshots=True)
            assert _peak(every) <= rho
        fit = fit_exact_rate(histories, problem.stability.alpha)
        bound = theoretical_contraction_factor(
            base.mu0, gamma=problem.gamma, L_max=problem.L_max,
            G_pstar=base.geometry_x().G_pstar, p=base.p,
            C_alpha=problem.stability.C_alpha, n_blocks=problem.n_blocks)
        assert fit.fitted_rate <= bound + 0.05
        assert fit.r_squared >= 0.95

    def test_noisy_data_slope(self, beta):
        cfg, problem, base, rho = _nonlinear_rates_setup(beta)
        deltas = cfg.rate_delta_list()
        config = dataclasses.replace(base, stopping=StoppingRule(
            "a_priori", delta=deltas[0], gamma_budget=cfg.rate_gamma_budget))
        study = noisy_rate_study(problem, problem.stability, deltas, config,
                                 cfg.rate_seeds)
        assert study.target_slope == base.p / problem.stability.alpha
        assert study.slope_within(0.2)
        assert study.fit.r_squared >= 0.9
        # the largest level's cells again (the study runs levels in
        # ascending order), every iterate kept
        d_idx, delta = len(deltas) - 1, max(deltas)
        finals = []
        for s in range(cfg.rate_seeds):
            y_noisy = _exact_norm_noise(problem.y_exact, delta, config.r_Y,
                                        _spawn_seed(config.seed, d_idx, s, 0))
            cell = dataclasses.replace(
                config, seed=_spawn_seed(config.seed, d_idx, s, 1),
                stopping=dataclasses.replace(config.stopping, delta=delta),
                record_every=1)
            run = run_sgd(problem, y_noisy, cell, collect_snapshots=True)
            assert _peak(run) <= rho
            finals.append(run.history[-1].bregman_to_truth)
        assert float(np.mean(finals)) == study.rows[-1].mean_bregman


class TestDescentMarginAudit:
    def test_zero_violations_on_linear_benchmark(self):
        problem = build_benchmark(30, 0.9, 1.1, 0.0, n_blocks=5, seed=4)
        cfg = SolverConfig(r_X=2.0, r_Y=2.0, mu0=0.5,
                           mode="theory", max_epochs=20, seed=0, record_every=1)
        constants = DescentConstants(p=2.0, gamma=0.0, L_max=problem.L_max,
                                     G_pstar=1.0)
        for seed in range(5):
            run = run_sgd(problem, problem.y_exact,
                          dataclasses.replace(cfg, seed=seed))
            audit = descent_margin_audit(run.history, constants, tol=1e-10)
            assert audit.n_violations == 0
            assert audit.min_slack >= -1e-10
            assert audit.min_margin > 0

    def test_inadmissible_step_detected(self):
        problem = build_benchmark(30, 0.9, 1.1, 0.0, n_blocks=5, seed=4)
        cfg = SolverConfig(r_X=2.0, r_Y=2.0, mu0=2.5,
                           mode="theory", max_epochs=5, seed=0, record_every=1)
        run = run_sgd(problem, problem.y_exact, cfg)
        constants = DescentConstants(p=2.0, gamma=0.0, L_max=problem.L_max,
                                     G_pstar=1.0)
        audit = descent_margin_audit(run.history, constants)
        assert audit.min_margin < 0
        assert audit.n_violations > 0

    def test_hilbert_slack_matches_euclidean_identity(self):
        # p = 2, G = 1: the dual update gives the exact expansion
        # D_k = D_{k-1} - mu <g, x_{k-1} - truth> + mu^2 ||g||^2 / 2,
        # so the audited slack equals
        # mu <g, x-truth> - mu^2 ||g||^2/2 - 2 margin mu psi_block exactly.
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        cfg = SolverConfig(r_X=2.0, r_Y=2.0, mu0=0.4,
                           mode="theory", max_epochs=4, seed=3, record_every=1)
        run = run_sgd(problem, problem.y_exact, cfg, collect_snapshots=True)
        constants = DescentConstants(p=2.0, gamma=0.0, L_max=problem.L_max,
                                     G_pstar=1.0)
        audit = descent_margin_audit(run.history, constants)
        from bsgd.solver import stochastic_gradient

        snaps = {k: x for k, x, _ in run.snapshots}
        slack_direct = []
        for prev, cur in zip(run.history[:-1], run.history[1:]):
            x_prev = snaps[prev.k]
            g = stochastic_gradient(problem, x_prev, problem.y_exact,
                                    cur.batch_index, 2.0, 2.0)
            margin = 1.0 - problem.L_max**2 * 0.5 * cur.mu
            ip = float(np.dot(g.values, (x_prev.values
                                         - problem.x_truth.values)))
            slack_direct.append(cur.mu * ip
                                - 0.5 * cur.mu**2 * np.sum(g.values**2)
                                - 2.0 * margin * cur.mu * cur.psi_batch_pre)
        assert audit.min_slack == pytest.approx(min(slack_direct), abs=1e-10)

    def test_cadence_and_field_validation(self):
        recs = make_history([1.0, 0.9, 0.8])
        sparse = [recs[0], recs[2]]
        with pytest.raises(ValueError, match="per-iteration"):
            descent_margin_audit(sparse, DescentConstants(2.0, 0.0, 1.0, 1.0))


class TestRateFitValidation:
    def test_r_squared_range_enforced(self):
        with pytest.raises(ValueError):
            RateFit(model="linear", fitted_rate=0.5, r_squared=1.5)


class TestSeedAverageConvergence:
    def test_decaying_steps_reach_one_percent(self):
        # divergent step-sum schedule: the seed-averaged distance at the
        # final epoch drops below 1% of its initial value
        problem = build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=3)
        cfg = SolverConfig(r_X=2.0, r_Y=2.0, mu0=0.5,
                           step_decay_exponent=0.2, mode="theory",
                           max_epochs=60, seed=0, record_every=None)
        finals, initials = [], []
        for seed in range(10):
            run = run_sgd(problem, problem.y_exact,
                          dataclasses.replace(cfg, seed=seed), x0=0.0)
            initials.append(run.history[0].bregman_to_truth)
            finals.append(run.history[-1].bregman_to_truth)
        assert np.mean(finals) < 0.01 * np.mean(initials)


class TestAuditPurity:
    def test_audit_does_not_mutate_and_is_reproducible(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        cfg = SolverConfig(r_X=2.0, r_Y=2.0, mu0=0.4,
                           mode="theory", max_epochs=5, seed=3, record_every=1)
        run = run_sgd(problem, problem.y_exact, cfg)
        before = [(rec.k, rec.psi, rec.bregman_to_truth) for rec in run.history]
        constants = DescentConstants(p=2.0, gamma=0.0, L_max=problem.L_max,
                                     G_pstar=1.0)
        a1 = descent_margin_audit(run.history, constants)
        a2 = descent_margin_audit(run.history, constants)
        assert a1 == a2
        assert [(rec.k, rec.psi, rec.bregman_to_truth)
                for rec in run.history] == before
