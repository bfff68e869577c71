import csv
import dataclasses
import logging
import math

import numpy as np
import pytest

from bsgd.forward import BenchmarkProblem, build_benchmark
from bsgd.geometry import (
    DualVector,
    GeometryParams,
    GridVector,
    bregman_distance,
    duality_map,
    inverse_duality_map,
    lr_norm,
    pairing,
)
from bsgd.noise import add_gaussian, noise_level
from bsgd.rates import _spawn_seed
from bsgd.solver import (
    IterationRecord,
    SGDRun,
    SolverConfig,
    StoppingRule,
    _mean_gradient,
    _recorder,
    _relative_error_raw,
    a_priori_stop_index,
    check_step_admissibility,
    history_to_csv,
    mode_exponents,
    run_landweber,
    run_seed_stack,
    run_sgd,
    step_schedule,
    stochastic_gradient,
)


def hilbert_config(**kwargs):
    defaults = dict(r_X=2.0, r_Y=2.0, mu0=0.5, mode="theory",
                    max_epochs=20, seed=0, record_every=1)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


def bregman_to_zero_start(problem):
    return 0.5 * float(np.sum(problem.x_truth.values**2))


def euclidean_sgd_trajectory(problem, y_obs, mu0, decay, seed, n_steps, x0):
    """Independent plain-numpy SGD loop on (1/2)||F_i(x) - y_i||^2."""
    gen = np.random.Generator(np.random.Philox(seed))
    x = np.array(x0, dtype=float)
    traj = [x.copy()]
    n = problem.n_blocks
    for k in range(1, n_steps + 1):
        i = min(int(gen.random() * n), n - 1)
        mu = mu0 if decay == 0.0 else mu0 * k ** (-decay)
        idx = problem.batches[i]
        xv = x[idx]
        resid = problem.diag[idx] * (xv + problem.beta * xv * xv) - y_obs[i].values
        slope = problem.diag[idx] * (1.0 + 2.0 * problem.beta * xv)
        grad = np.zeros_like(x)
        grad[idx] = slope * resid
        x = x - mu * grad
        traj.append(x.copy())
    return traj


def record_psi(problem, x, y, q, r_Y):
    """The full objective psi of a history record of the raw iterate x
    against the raw data blocks y."""
    record = _recorder(problem, y, q, r_Y, GeometryParams.for_lebesgue(2.0, 2.0))
    return record(x, 0, None, None, None, None).psi


class TestObjective:
    """The full objective psi that every history record reports."""

    def test_zero_at_solution(self, hilbert_benchmark):
        p = hilbert_benchmark
        y = [b.values for b in p.y_exact]
        assert record_psi(p, p.x_truth.values, y, 2.0, 2.0) == 0.0

    def test_single_block_value(self):
        problem = build_benchmark(4, 1.0, 1.0, 0.0, n_blocks=1, seed=0)
        x = np.array([2.0, 0.0, 0.0, 0.0])
        y = [np.zeros(4)]
        # one block, residual norm 2, q = 2: (1/1) * (1/2) * 4 = 2
        assert record_psi(problem, x, y, 2.0, 2.0) == pytest.approx(2.0)

    def test_matches_per_block_summation_oracle(self, hilbert_benchmark, rng):
        p = hilbert_benchmark
        x = GridVector(rng.standard_normal(40))
        q, r = 1.5, 2.0
        direct = sum(lr_norm(p.apply_block(i, x) - p.y_exact[i], r) ** q / q
                     for i in range(p.n_blocks)) / p.n_blocks
        y = [b.values for b in p.y_exact]
        assert record_psi(p, x.values, y, q, r) == pytest.approx(
            direct, rel=1e-12)


class TestStochasticGradient:
    def test_zero_when_block_solved(self, hilbert_benchmark):
        p = hilbert_benchmark
        g = stochastic_gradient(p, p.x_truth, p.y_exact, 0, 2.0, 2.0)
        assert np.all(g.values == 0.0)

    def test_hilbert_reduction_hand_computed(self, hilbert_benchmark, rng):
        p = hilbert_benchmark
        x = GridVector(rng.standard_normal(40))
        i = 2
        idx = p.batches[i]
        expected = np.zeros(40)
        expected[idx] = p.diag[idx] * (p.diag[idx] * x.values[idx]
                                       - p.y_exact[i].values)
        g = stochastic_gradient(p, x, p.y_exact, i, 2.0, 2.0)
        np.testing.assert_allclose(g.values, expected, rtol=1e-13)

    def test_invalid_block_index(self, hilbert_benchmark):
        p = hilbert_benchmark
        with pytest.raises(IndexError):
            stochastic_gradient(p, p.x_truth, p.y_exact, p.n_blocks, 2.0, 2.0)

    def test_directional_derivative(self, hilbert_benchmark, rng):
        p = hilbert_benchmark
        q = r = 2.0
        t = 1e-6
        for _ in range(20):
            x = GridVector(rng.standard_normal(40))
            h = GridVector(rng.standard_normal(40))
            h = (1.0 / lr_norm(h, 2.0)) * h
            i = int(rng.integers(p.n_blocks))
            g = stochastic_gradient(p, x, p.y_exact, i, q, r)
            psi0 = lr_norm(p.apply_block(i, x) - p.y_exact[i], r) ** q / q
            psi1 = lr_norm(p.apply_block(i, x + t * h) - p.y_exact[i], r) ** q / q
            fd = (psi1 - psi0) / t
            ip = pairing(g, h)
            assert abs(fd - ip) <= 1e-4 * max(abs(ip), 1e-8)

    def test_unbiasedness(self, hilbert_benchmark, rng):
        p = hilbert_benchmark
        x = GridVector(rng.standard_normal(40))
        mean = np.mean([stochastic_gradient(p, x, p.y_exact, i, 2.0, 2.0).values
                        for i in range(p.n_blocks)], axis=0)
        full = _mean_gradient(p, x.values, [y.values for y in p.y_exact],
                              GeometryParams.for_lebesgue(2.0, 2.0))
        np.testing.assert_allclose(mean, full, atol=1e-12)


class TestSchedule:
    def test_constant(self):
        assert [step_schedule(0.7, 0.0, k) for k in (1, 5, 900)] == [0.7] * 3

    def test_schlieren_decay_value(self):
        assert step_schedule(2.0, 0.2, 32) == pytest.approx(2.0 * 32 ** -0.2)

    def test_eit_decay_value(self):
        assert step_schedule(1.0, 0.05, 10) == pytest.approx(10.0 ** -0.05)

    def test_zero_index_rejected(self):
        with pytest.raises(ValueError):
            step_schedule(1.0, 0.2, 0)


class TestAdmissibility:
    def test_tiny_steps_full_margin(self):
        ok, margin = check_step_admissibility(1e-12, 0.0, 1.0, 1.0, 2.0)
        assert ok and margin == pytest.approx(1.0, abs=1e-10)

    def test_exact_half_margin_step(self):
        # mu^(p*-1) = p*(1-gamma) / (2 L^p* G): margin is exactly (1-gamma)/2
        gamma, L, G, p_star = 0.2, 1.5, 2.0, 2.0
        mu = (p_star * (1.0 - gamma) / (2.0 * L**p_star * G)) ** (1.0 / (p_star - 1.0))
        ok, margin = check_step_admissibility(mu, gamma, L, G, p_star)
        assert ok and margin == pytest.approx((1.0 - gamma) / 2.0, rel=1e-12)

    def test_large_gamma_inadmissible_in_noisy_mode(self):
        omega = (0.5 * 2.0) ** 0.5  # margin cost omega**2/2 = 0.5
        ok, margin = check_step_admissibility(1e-9, 0.6, 1.0, 1.0, 2.0,
                                              omega=omega)
        assert not ok and margin < 0

    def test_margin_at_the_largest_step(self):
        # a schedule's margin is the one at its largest step, here 0.5
        ok, margin = check_step_admissibility(0.5, 0.0, 1.0, 1.0, 2.0)
        assert ok and margin == pytest.approx(1.0 - 0.5 * 0.5)

    @pytest.mark.parametrize("mu", [0.0, -0.5])
    def test_nonpositive_step_rejected(self, mu):
        with pytest.raises(ValueError, match="positive"):
            check_step_admissibility(mu, 0.0, 1.0, 1.0, 2.0)


class TestAPrioriStopIndex:
    def test_constant_steps_closed_form(self):
        delta, mu0, Gamma = 0.1, 0.5, 2.0
        expected = math.floor(Gamma / (mu0 * delta**2))
        assert a_priori_stop_index(delta, mu0, 0.0, Gamma, 2.0) == expected

    def test_halving_delta_quadruples(self):
        # floor(4B) - 4 floor(B) lies in {0, 1, 2, 3}
        k1 = a_priori_stop_index(0.2, 0.3, 0.0, 5.0, 2.0)
        k2 = a_priori_stop_index(0.1, 0.3, 0.0, 5.0, 2.0)
        assert 0 <= k2 - 4 * k1 <= 3

    def test_decaying_steps_match_brute_force(self):
        def brute(delta, mu0, decay, Gamma, p):
            total, k = 0.0, 0
            while True:
                nxt = total + mu0 * (k + 1) ** (-decay)
                if delta**p * nxt > Gamma:
                    return k
                total, k = nxt, k + 1

        for delta, mu0, decay, Gamma, p in [
            (0.3, 0.7, 0.2, 4.0, 2.0),
            (0.08, 1.1, 0.5, 1.0, 2.0),
            (0.5, 0.2, 0.05, 2.0, 1.5),
        ]:
            assert a_priori_stop_index(delta, mu0, decay, Gamma, p) == \
                brute(delta, mu0, decay, Gamma, p)

    def test_monotone_in_delta(self):
        ks = [a_priori_stop_index(d, 0.4, 0.2, 3.0, 2.0)
              for d in (0.4, 0.2, 0.1, 0.05)]
        assert ks == sorted(ks)

    def test_zero_when_budget_too_small(self):
        assert a_priori_stop_index(10.0, 1.0, 0.0, 1e-3, 2.0) == 0


class TestRelativeError:
    """The solver's relative l^2 error, ||truth - x||_2 / ||truth||_2."""

    @staticmethod
    def relative_error(x, truth):
        return _relative_error_raw(x.values, truth.values,
                                   float(np.linalg.norm(truth.values)))

    def test_trivial_values(self):
        truth = GridVector([1.0, 2.0, 2.0])
        assert self.relative_error(truth, truth) == 0.0
        assert self.relative_error(GridVector(np.zeros(3)), truth) == 1.0
        assert self.relative_error(2.0 * truth, truth) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        # the error divides by the truth's norm, so no problem takes a zero
        # truth
        with pytest.raises(ValueError, match="ground truth must be nonzero"):
            BenchmarkProblem(np.ones(1), 0.0, [[0]], GridVector([0.0]))


class TestRunSgd:
    def test_stationary_at_truth(self, hilbert_benchmark):
        p = hilbert_benchmark
        run = run_sgd(p, p.y_exact, hilbert_config(max_epochs=3), x0=p.x_truth)
        assert all(rec.psi == 0.0 for rec in run.history)
        np.testing.assert_array_equal(run.final_x.values, p.x_truth.values)

    def test_deterministic_given_seed(self, hilbert_benchmark):
        p = hilbert_benchmark
        cfg = hilbert_config(max_epochs=5, seed=123)
        r1 = run_sgd(p, p.y_exact, cfg)
        r2 = run_sgd(p, p.y_exact, cfg)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a.psi == b.psi and a.bregman_to_truth == b.bregman_to_truth
        np.testing.assert_array_equal(r1.final_x.values, r2.final_x.values)

    def test_hilbert_trajectory_matches_independent_loop(self):
        problem = build_benchmark(30, 0.8, 1.2, 0.05, n_blocks=5, seed=2)
        x0 = np.zeros(30)
        cfg = hilbert_config(mu0=0.4, max_epochs=20, seed=77)
        run = run_sgd(problem, problem.y_exact, cfg,
                      x0=GridVector(x0), collect_snapshots=True)
        traj = euclidean_sgd_trajectory(problem, problem.y_exact, 0.4, 0.0,
                                        77, 100, x0)
        assert run.n_iterations == 100
        for (k, x, _), ref in zip(run.snapshots, traj):
            np.testing.assert_allclose(x.values, ref, rtol=1e-12, atol=1e-12)

    def test_exact_data_descent_monotone(self):
        problem = build_benchmark(30, 0.9, 1.1, 0.0, n_blocks=5, seed=4)
        for seed in range(3):
            run = run_sgd(problem, problem.y_exact,
                          hilbert_config(mu0=0.5, max_epochs=20, seed=seed))
            breg = [rec.bregman_to_truth for rec in run.history]
            assert all(b1 <= b0 + 1e-10 for b0, b1 in zip(breg, breg[1:]))

    def test_mean_objective_collapses_on_linear_benchmark(self):
        import dataclasses

        problem = build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=3)
        cfg = hilbert_config(mu0=0.5, max_epochs=50, record_every=None)
        finals = []
        for seed in range(20):
            run = run_sgd(problem, problem.y_exact,
                          dataclasses.replace(cfg, seed=seed))
            finals.append(run.history[-1].psi)
        psi0 = run.history[0].psi  # at x0 = 0, the same for every seed
        assert np.mean(finals) < 1e-6 * psi0

    def test_dual_primal_consistency(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        cfg = SolverConfig(r_X=1.5, r_Y=2.0, mu0=0.05,
                           mode="theory", max_epochs=10, seed=1, record_every=5)
        gx = cfg.geometry_x()
        run = run_sgd(problem, problem.y_exact, cfg, x0=0.01,
                      collect_snapshots=True)
        for k, x, xi in run.snapshots:
            np.testing.assert_allclose(duality_map(x, gx).values, xi.values,
                                       rtol=1e-9)

    def test_divergence_guard(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        run = run_sgd(problem, problem.y_exact,
                      hilbert_config(mu0=1e8, max_epochs=50))
        assert run.diverged and run.diverged_at is not None
        assert run.history[-1].k == run.diverged_at
        assert run.n_iterations == run.diverged_at

    def test_best_iterate_tracked_by_relative_error(self, hilbert_benchmark):
        p = hilbert_benchmark
        run = run_sgd(p, p.y_exact, hilbert_config(mu0=0.5, max_epochs=30))
        # every iteration is recorded: the best is the history's least error
        assert run.best_metric == min(rec.rel_l2_error for rec in run.history)
        assert run.history[run.best_k].rel_l2_error == run.best_metric
        assert run.best_metric <= run.history[0].rel_l2_error

    def test_noisy_perturbation_bound_per_step(self, hilbert_benchmark):
        p = hilbert_benchmark
        y_noisy = add_gaussian(p.y_exact, 0.05, seed=11)
        _, delta = noise_level(p.y_exact, y_noisy, 2.0)
        # Young weight with margin cost omega**2/2 = 0.25, and the radius
        # nu of the noisy-regime ball (p = 2)
        omega = (0.25 * 2.0) ** 0.5
        gamma_budget = 1.0
        nu = bregman_to_zero_start(p) \
            + omega ** -2.0 / 2.0 * (1.0 + p.gamma) ** 2.0 * gamma_budget
        cfg = hilbert_config(mu0=0.4, max_epochs=40, seed=5)
        ok, _ = check_step_admissibility(cfg.mu0, p.gamma, p.L_max, 1.0,
                                         2.0, omega=omega)
        assert ok
        run = run_sgd(p, y_noisy, cfg)
        allowance = omega**-2.0 / 2.0 * (1.0 + p.gamma) ** 2 * delta**2
        hist = run.history
        for prev, cur in zip(hist[:-1], hist[1:]):
            bound = prev.bregman_to_truth + allowance * cur.mu
            assert cur.bregman_to_truth <= bound + 1e-9
        # with an admissible schedule every iterate stays in the ball of
        # radius nu around the truth
        assert all(rec.bregman_to_truth <= nu + 1e-9 for rec in hist)

    def test_semi_convergence_interior_minimum(self):
        problem = build_benchmark(30, 0.05, 1.0, 0.0, n_blocks=5, seed=8)
        y_noisy = add_gaussian(problem.y_exact, 0.05, seed=21)
        cfg = hilbert_config(mu0=0.9, max_epochs=600, seed=2, record_every=5)
        run = run_sgd(problem, y_noisy, cfg, x0=0.0)
        errs = [rec.rel_l2_error for rec in run.history]
        argmin = int(np.argmin(errs))
        assert 0 < argmin < len(errs) - 1
        assert errs[argmin] < errs[0] and errs[argmin] < errs[-1]

    def test_a_priori_stopping_controls_length(self, hilbert_benchmark):
        p = hilbert_benchmark
        y_noisy = add_gaussian(p.y_exact, 0.05, seed=31)
        _, delta = noise_level(p.y_exact, y_noisy, 2.0)
        stop = StoppingRule("a_priori", delta=delta, gamma_budget=0.5)
        cfg = hilbert_config(mu0=0.4, stopping=stop, record_every=None)
        expected = a_priori_stop_index(delta, 0.4, 0.0, 0.5, 2.0)
        run = run_sgd(p, y_noisy, cfg)
        assert run.n_iterations == expected


class TestRunLandweber:
    def test_single_block_matches_sgd(self):
        problem = build_benchmark(12, 0.9, 1.1, 0.05, n_blocks=1, seed=9)
        cfg = hilbert_config(mu0=0.3, max_epochs=25)
        lw = run_landweber(problem, problem.y_exact, cfg, x0=0.0)
        sg = run_sgd(problem, problem.y_exact, cfg, x0=0.0)
        np.testing.assert_allclose(lw.final_x.values, sg.final_x.values,
                                   rtol=1e-13)

    def test_monotone_objective_descent(self, hilbert_benchmark):
        p = hilbert_benchmark
        run = run_landweber(p, p.y_exact, hilbert_config(mu0=0.5, max_epochs=40))
        psis = [rec.psi for rec in run.history]
        assert all(b <= a + 1e-12 for a, b in zip(psis, psis[1:]))

    def test_sgd_beats_landweber_epoch_for_epoch(self):
        # same epoch budget: stochastic updates reduce the objective faster
        problem = build_benchmark(40, 0.5, 1.5, 0.0, n_blocks=8, seed=12)
        cfg_sgd = hilbert_config(mu0=0.3, max_epochs=15, seed=3,
                                 record_every=None)
        cfg_lw = hilbert_config(mu0=0.3, max_epochs=15, record_every=None)
        sgd_final = run_sgd(problem, problem.y_exact, cfg_sgd).history[-1].psi
        lw_final = run_landweber(problem, problem.y_exact, cfg_lw).history[-1].psi
        assert sgd_final < lw_final


class TestHistoryCsv:
    def test_round_trips_and_constant_columns(self, hilbert_benchmark, tmp_path):
        p = hilbert_benchmark
        run = run_sgd(p, p.y_exact, hilbert_config(max_epochs=3, seed=7))
        path = tmp_path / "history.csv"
        history_to_csv(run.history, path, run.iters_per_epoch)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "iter", "mu", "batch", "psi", "residual",
                           "rel_l2_err", "bregman"]
        assert len(set(len(r) for r in rows)) == 1
        assert len(rows) == len(run.history) + 1
        assert rows[1][2] == ""  # no step produced the k = 0 iterate
        assert float(rows[2][4]) == run.history[1].psi

    def test_byte_identical_rewrites(self, hilbert_benchmark, tmp_path):
        p = hilbert_benchmark
        run = run_sgd(p, p.y_exact, hilbert_config(max_epochs=2, seed=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        history_to_csv(run.history, p1, run.iters_per_epoch)
        history_to_csv(run.history, p2, run.iters_per_epoch)
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigValidation:
    """The gauge powers come from the mode alone: no argument sets them."""

    def test_theory_mode_exponents_enforced(self):
        with pytest.raises(TypeError, match="'p'"):
            SolverConfig(r_X=1.5, r_Y=2.0, p=1.5, mu0=0.1, mode="theory")

    def test_practice_mode_exponents_enforced(self):
        with pytest.raises(TypeError, match="'q'"):
            SolverConfig(r_X=1.5, r_Y=2.0, q=2.0, mu0=0.1, mode="practice")

    @pytest.mark.parametrize("r_x", [1.1, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mode", ["theory", "practice"])
    def test_gauge_powers_follow_the_mode(self, mode, r_x):
        cfg = SolverConfig(mode=mode, r_X=r_x, r_Y=1.3, mu0=0.1)
        assert (cfg.p, cfg.q) == mode_exponents(mode, r_x, 1.3)
        # replace derives them again from the new exponents
        moved = dataclasses.replace(cfg, r_X=r_x + 1.0, r_Y=2.5)
        assert (moved.p, moved.q) == mode_exponents(mode, r_x + 1.0, 2.5)

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            SolverConfig(r_X=2.0, r_Y=2.0, mu0=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"mu0": math.nan}, "step-size must be positive"),
        ({"step_decay_exponent": math.nan}, "decay exponent"),
        ({"r_X": math.inf}, "r_X must exceed 1 and be finite"),
    ])
    def test_nonfinite_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**{"r_X": 2.0, "r_Y": 2.0, "mu0": 0.5, **kwargs})


class TestSchlierenDeskScale:
    def test_best_error_improves_on_initial(self, desk_radon, desk_phantom):
        from bsgd.forward import build_schlieren_problem
        from bsgd.noise import add_gaussian

        problem = build_schlieren_problem(desk_radon, 6, desk_phantom)
        y = add_gaussian(problem.y_exact, 1e-2, seed=13)
        cfg = SolverConfig(mode="practice", r_X=1.5, r_Y=2.0, mu0=1.0,
                           step_decay_exponent=0.2, max_epochs=50,
                           seed=0, record_every=None)
        run = run_sgd(problem, y, cfg, x0=0.01)
        assert not run.diverged
        assert run.best_metric < run.history[0].rel_l2_error


def first_draw_of_block(seed, n_blocks, block):
    """Iteration k at which run_sgd's sampler first draws ``block``."""
    gen = np.random.Generator(np.random.Philox(seed))
    k = 0
    while True:
        k += 1
        if min(int(gen.random() * n_blocks), n_blocks - 1) == block:
            return k


class TestNonFiniteAndDivergence:
    """A non-finite residual or primal iterate raises; a finite dual step
    above the guard ends the run on the divergence path."""

    def _spiked(self, problem, data, coord, value):
        """``data`` with one entry moved to ``value``; returns it and its block."""
        y = [v.values.copy() for v in data]
        for i, idx in enumerate(problem.batches):
            if coord in idx:
                y[i][idx.index(coord)] = value
                return [GridVector(v) for v in y], i
        raise AssertionError("coordinate not in any block")

    def _late_seed(self, n_blocks, block):
        """A sampler seed whose first draw of ``block`` comes after epoch 1."""
        return next(s for s in range(100)
                    if first_draw_of_block(s, n_blocks, block) > n_blocks)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_primal_overflow_mid_run_raises(self):
        # r_X = 1.02: x = |xi|^50 overflows once |xi| > 1.5e6, far below the
        # 1e12 guard; the spike pushes xi there on the first draw of its block
        base = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        problem = BenchmarkProblem(base.diag, 0.0, base.batches, base.x_truth)
        y, block = self._spiked(problem, [GridVector(np.zeros(5))] * 4, 7, 1e7)
        seed = self._late_seed(problem.n_blocks, block)
        cfg = SolverConfig(mode="practice", r_X=1.02, r_Y=2.0, mu0=0.5,
                           max_epochs=1, seed=seed, record_every=1)
        before = run_sgd(problem, y, cfg, x0=0.01)
        assert not before.diverged and len(before.history) == problem.n_blocks + 1
        with pytest.raises(ValueError, match="finite"):
            run_sgd(problem, y, dataclasses.replace(cfg, max_epochs=10), x0=0.01)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_residual_overflow_mid_run_raises(self):
        # beta > 0: the spike moves xi_j to ~2e3, far inside the guard, and
        # x_j = xi_j^50 ~ 1e165 is finite, but its square in F overflows
        base = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        problem = BenchmarkProblem(base.diag, 0.05, base.batches, base.x_truth)
        y, block = self._spiked(problem, [GridVector(np.zeros(5))] * 4, 7, 4.0e3)
        seed = self._late_seed(problem.n_blocks, block)
        cfg = SolverConfig(mode="practice", r_X=1.02, r_Y=2.0, mu0=0.5,
                           max_epochs=1, seed=seed, record_every=None)
        before = run_sgd(problem, y, cfg, x0=0.01)
        assert not before.diverged and np.isfinite(before.final_x.values).all()
        with pytest.raises(ValueError, match="finite"):
            run_sgd(problem, y, dataclasses.replace(cfg, max_epochs=10), x0=0.01)

    @pytest.mark.parametrize("record_every", [1, None])
    def test_finite_step_above_guard_diverges(self, record_every):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        y, block = self._spiked(problem, problem.y_exact, 12, 1e13)
        cfg = hilbert_config(max_epochs=10, seed=9, record_every=record_every)
        k = first_draw_of_block(9, problem.n_blocks, block)
        assert k > 1
        run = run_sgd(problem, y, cfg, x0=0.0)
        assert run.diverged and run.diverged_at == k
        assert run.n_iterations == k and run.history[-1].k == k
        assert run.history[-1].batch_index == block
        expected_ks = list(range(k + 1)) if record_every == 1 else [0, k]
        assert [rec.k for rec in run.history] == expected_ks
        # the run keeps the last iterate that passed the guard
        assert np.max(np.abs(run.final_dual.values)) < 1e12


# Oracle: the wrapper-based iteration loop as it stood before the loop moved
# to raw arrays, with the helpers it called.  Every vector is a validated
# GridVector/DualVector and every norm goes through np.linalg.norm; the raw
# loop must reproduce it bit for bit.

def _oracle_relative_error(x, x_truth):
    denom = float(np.linalg.norm(x_truth.values))
    return float(np.linalg.norm(x_truth.values - x.values)) / denom


def _oracle_full_diagnostics(problem, x, y_obs, q, r_Y):
    norms = np.array([lr_norm(problem.apply_block(i, x) - y_obs[i], r_Y)
                      for i in range(problem.n_blocks)])
    psi = float(np.sum(norms**q)) / (q * problem.n_blocks)
    residual = float(np.sum(norms**q) ** (1.0 / q))
    return psi, residual


def _oracle_make_record(problem, x, y_obs, config, k, mu, batch, psi_pre,
                        truth, gx):
    psi, residual = _oracle_full_diagnostics(problem, x, y_obs, config.q,
                                             config.r_Y)
    return IterationRecord(k=k, mu=mu, batch_index=batch, psi=psi,
                           residual=residual,
                           rel_l2_error=_oracle_relative_error(x, truth),
                           bregman_to_truth=bregman_distance(x, truth, gx),
                           psi_batch_pre=psi_pre)


def _oracle_stochastic_gradient(problem, x, y_obs, i, q, r_Y):
    gy = GeometryParams.for_lebesgue(r_Y, q)
    resid = problem.apply_block(i, x) - y_obs[i]
    return problem.adjoint_apply(i, x, duality_map(resid, gy))


def _oracle_full_gradient(problem, x, y_obs, q, r_Y):
    acc = None
    for i in range(problem.n_blocks):
        g = _oracle_stochastic_gradient(problem, x, y_obs, i, q, r_Y)
        acc = g.values.copy() if acc is None else acc + g.values
    return DualVector(acc / problem.n_blocks)


def _oracle_loop(problem, y_obs, config, x0, sample_block, iters_per_epoch,
                 collect_snapshots):
    gx = config.geometry_x()
    gy = config.geometry_y()
    truth = problem.x_truth
    if x0 is None:
        x = GridVector(np.zeros(problem.domain_shape))
    elif isinstance(x0, GridVector):
        x = x0
    else:
        x = GridVector(np.broadcast_to(np.asarray(x0, dtype=np.float64),
                                       problem.domain_shape).copy())
    xi = duality_map(x, gx)
    guard = 1e12 * max(1.0, float(np.max(np.abs(xi.values))))
    if config.stopping.kind == "a_priori":
        total = a_priori_stop_index(config.stopping.delta, config.mu0,
                                    config.step_decay_exponent,
                                    config.stopping.gamma_budget, config.p)
    else:
        total = config.max_epochs * iters_per_epoch

    best_metric = _oracle_relative_error(x, truth)
    best_x, best_k = x, 0
    history = [_oracle_make_record(problem, x, y_obs, config, 0, None, None,
                                   None, truth, gx)]
    snapshots = [(0, x, xi)] if collect_snapshots else []
    diverged = False
    diverged_at = None

    for k in range(1, total + 1):
        i = sample_block()
        mu = step_schedule(config.mu0, config.step_decay_exponent, k)
        if i is None:
            grad = _oracle_full_gradient(problem, x, y_obs, config.q, config.r_Y)
            psi_pre = None
        else:
            resid = problem.apply_block(i, x) - y_obs[i]
            psi_pre = lr_norm(resid, config.r_Y) ** config.q / config.q
            grad = problem.adjoint_apply(i, x, duality_map(resid, gy))

        new_vals = xi.values - mu * grad.values
        if not np.isfinite(new_vals).all() or np.max(np.abs(new_vals)) > guard:
            diverged = True
            diverged_at = k
            history.append(_oracle_make_record(problem, x, y_obs, config, k, mu,
                                               i, psi_pre, truth, gx))
            break
        xi = DualVector(new_vals)
        x = inverse_duality_map(xi, gx)

        metric = _oracle_relative_error(x, truth)
        if metric < best_metric:
            best_metric, best_x, best_k = metric, x, k

        is_record = (config.record_every is not None
                     and k % config.record_every == 0) or k == total
        if is_record:
            history.append(_oracle_make_record(problem, x, y_obs, config, k, mu,
                                               i, psi_pre, truth, gx))
            if collect_snapshots:
                snapshots.append((k, x, xi))

    return SGDRun(history=history, final_x=x, final_dual=xi, best_x=best_x,
                  best_k=best_k, best_metric=best_metric, diverged=diverged,
                  diverged_at=diverged_at, iters_per_epoch=iters_per_epoch,
                  n_iterations=history[-1].k, snapshots=snapshots)


def oracle_run(algorithm, problem, y_obs, config, x0=None,
               collect_snapshots=False):
    if algorithm == "landweber":
        return _oracle_loop(problem, y_obs, config, x0, lambda: None, 1,
                            collect_snapshots)
    gen = np.random.Generator(np.random.Philox(config.seed))
    n = problem.n_blocks
    return _oracle_loop(problem, y_obs, config, x0,
                        lambda: min(int(gen.random() * n), n - 1), n,
                        collect_snapshots)


def _record_key(rec):
    return tuple(repr(getattr(rec, f.name)) for f in dataclasses.fields(rec))


def _vector_bytes(v):
    return v.values.shape, v.values.tobytes()


def assert_runs_bitwise_equal(new, old):
    assert [_record_key(r) for r in new.history] == \
        [_record_key(r) for r in old.history]
    for name in ("final_x", "final_dual", "best_x"):
        assert _vector_bytes(getattr(new, name)) == _vector_bytes(getattr(old, name)), name
    for name in ("best_k", "diverged", "diverged_at",
                 "iters_per_epoch", "n_iterations"):
        assert getattr(new, name) == getattr(old, name), name
    assert repr(new.best_metric) == repr(old.best_metric)
    assert len(new.snapshots) == len(old.snapshots)
    for (k1, x1, xi1), (k2, x2, xi2) in zip(new.snapshots, old.snapshots):
        assert k1 == k2
        assert _vector_bytes(x1) == _vector_bytes(x2)
        assert _vector_bytes(xi1) == _vector_bytes(xi2)


RUNNERS = {"sgd": run_sgd, "landweber": run_landweber}


class TestRawLoopMatchesWrapperOracle:
    """The raw-array loop gives the old wrapper-based loop's bits."""

    def _check(self, algorithm, problem, y, cfg, x0, snapshots=True):
        new = RUNNERS[algorithm](problem, y, cfg, x0=x0,
                                 collect_snapshots=snapshots)
        old = oracle_run(algorithm, problem, y, cfg, x0=x0,
                         collect_snapshots=snapshots)
        assert_runs_bitwise_equal(new, old)
        return new

    @pytest.mark.parametrize("algorithm", ["sgd", "landweber"])
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("mode,r", [("theory", 2.0), ("practice", 1.5)])
    def test_benchmark(self, algorithm, beta, mode, r):
        problem = build_benchmark(40, 0.9, 1.1, beta, n_blocks=5, seed=3)
        y = add_gaussian(problem.y_exact, 0.02, seed=17)
        cfg = SolverConfig(mode=mode, r_X=r, r_Y=r, mu0=0.4,
                           step_decay_exponent=0.1, max_epochs=12,
                           seed=5, record_every=3)
        run = self._check(algorithm, problem, y, cfg, x0=0.01)
        assert not run.diverged and len(run.history) > 2

    @pytest.mark.parametrize("algorithm", ["sgd", "landweber"])
    @pytest.mark.parametrize("r_x,r_y", [(1.1, 2.0), (1.5, 1.5)])
    def test_schlieren(self, algorithm, r_x, r_y, small_schlieren):
        y = add_gaussian(small_schlieren.y_exact, 0.01, seed=23)
        cfg = SolverConfig(mode="practice", r_X=r_x, r_Y=r_y, mu0=0.3,
                           step_decay_exponent=0.2, max_epochs=6,
                           seed=2, record_every=2)
        run = self._check(algorithm, small_schlieren, y, cfg, x0=0.01)
        assert not run.diverged and run.n_iterations > 0

    def test_final_record_only_with_a_priori_stop(self, hilbert_benchmark):
        p = hilbert_benchmark
        y = add_gaussian(p.y_exact, 0.05, seed=31)
        _, delta = noise_level(p.y_exact, y, 2.0)
        stop = StoppingRule("a_priori", delta=delta, gamma_budget=0.5)
        cfg = hilbert_config(mu0=0.4, seed=8, stopping=stop, record_every=None)
        run = self._check("sgd", p, y, cfg, x0=None, snapshots=False)
        assert [rec.k for rec in run.history] == [0, run.n_iterations]

    def test_divergence_path(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        run = self._check("sgd", problem, problem.y_exact,
                          hilbert_config(mu0=1e8, max_epochs=50), x0=0.01)
        assert run.diverged


def test_gradients_reject_a_misshaped_iterate(small_schlieren):
    p = small_schlieren
    x = GridVector(np.ones((8, 32)))
    with pytest.raises(ValueError, match="shape"):
        stochastic_gradient(p, x, p.y_exact, 0, 2.0, 2.0)


def _chain_counts(configs, total, n_blocks):
    """Each (seed, block) pair's draw count over ``total`` steps."""
    counts = []
    for c in configs:
        u = np.random.Generator(np.random.Philox(c.seed)).random(total)
        blocks = np.minimum((u * n_blocks).astype(np.int64), n_blocks - 1)
        counts.extend(np.bincount(blocks, minlength=n_blocks))
    return np.array(counts)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = BenchmarkProblem.block_rows_residual_gradient

    def counted(self, *args):
        calls.append(None)
        return kernel(self, *args)

    monkeypatch.setattr(BenchmarkProblem, "block_rows_residual_gradient",
                        counted)
    return calls


def _stack_inputs(problem, cfg, n_rows):
    configs = [dataclasses.replace(cfg, seed=40 + s) for s in range(n_rows)]
    rows = [add_gaussian(problem.y_exact, 0.02, seed=70 + s)
            for s in range(n_rows)]
    return rows, configs


def _check_stack_against_serial(monkeypatch, dim, beta, mode, r_x, r_y,
                                n_rows, decay):
    """The stack gives each row's serial run_sgd iterates bit for bit when
    its chains are (seed, block) pairs (r_X == p, r_Y == q, decay 0); any
    other config gets None before any kernel call, which sends a study's
    rows to run_sgd one by one."""
    problem = build_benchmark(dim, 0.9, 1.1, beta, n_blocks=5, seed=3)
    cfg = SolverConfig(mode=mode, r_X=r_x, r_Y=r_y, mu0=0.4,
                       step_decay_exponent=decay, max_epochs=70,
                       record_every=None)
    rows, configs = _stack_inputs(problem, cfg, n_rows)
    calls = _count_kernel_calls(monkeypatch)
    stack = run_seed_stack(problem, rows, configs)
    if decay != 0.0 or cfg.r_X != cfg.p or cfg.r_Y != cfg.q:
        assert stack is None
        assert not calls
        return
    final_x, final_dual = stack
    assert final_x.shape == final_dual.shape == (n_rows, dim)
    for s, (y, c) in enumerate(zip(rows, configs)):
        run = run_sgd(problem, y, c)
        assert final_x[s].tobytes() == run.final_x.values.tobytes()
        assert final_dual[s].tobytes() == run.final_dual.values.tobytes()


class TestSeedStack:
    """run_seed_stack gives each row's serial run_sgd iterates bit for bit,
    or declines (None) a config whose chains are not (seed, block) pairs."""

    @pytest.mark.parametrize("n_rows", [2, 20])
    @pytest.mark.parametrize("dim,beta,mode,r_x,r_y", [
        (40, 0.0, "theory", 2.0, 2.0),
        (40, 0.05, "theory", 2.0, 2.0),
        (40, 0.0, "practice", 1.5, 1.5),
        (40, 0.0, "theory", 1.5, 2.0),
        (40, 0.0, "theory", 3.0, 3.0),
        (40, 0.05, "theory", 3.0, 2.0),
        (41, 0.05, "practice", 1.5, 1.5),
        (43, 0.0, "theory", 1.5, 2.0),
    ])
    def test_matches_serial_runs(self, monkeypatch, dim, beta, mode, r_x, r_y,
                                 n_rows):
        # decaying steps: no stacked result, so every row runs serially
        _check_stack_against_serial(monkeypatch, dim, beta, mode, r_x, r_y,
                                    n_rows, decay=0.1)

    @pytest.mark.parametrize("dim,beta,mode,r_x,r_y,decay", [
        (40, 0.0, "practice", 1.5, 1.5, 0.1),    # decaying steps
        (40, 0.0, "theory", 1.5, 2.0, 0.0),      # p = 2 != r_X: r* != p*
        (43, 0.05, "theory", 3.0, 2.0, 0.0),     # q = 3 != r_Y
    ])
    def test_other_configs_are_declined(self, monkeypatch, caplog, dim, beta,
                                        mode, r_x, r_y, decay):
        # mu0 = 2 is inadmissible or not checkable in every case, so the
        # serial route logs about it once per seed; the stack must not log
        # it too, nor take a step
        problem = build_benchmark(dim, 0.9, 1.1, beta, n_blocks=5, seed=3)
        cfg = SolverConfig(mode=mode, r_X=r_x, r_Y=r_y, mu0=2.0,
                           step_decay_exponent=decay, max_epochs=70,
                           record_every=None)
        rows, configs = _stack_inputs(problem, cfg, 3)
        calls = _count_kernel_calls(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="bsgd.solver")
        assert run_seed_stack(problem, rows, configs) is None
        assert not calls
        assert not caplog.records
        run_sgd(problem, rows[0], configs[0])
        assert "admissib" in caplog.records[0].getMessage()

    def test_a_priori_stop_and_zero_steps(self, hilbert_benchmark):
        p = hilbert_benchmark
        for budget, steps in ((0.4, 347), (1e-4, 0)):
            stop = StoppingRule("a_priori", delta=0.048, gamma_budget=budget)
            cfg = hilbert_config(mu0=0.5, stopping=stop, record_every=None)
            rows, configs = _stack_inputs(p, cfg, 3)
            final_x, final_dual = run_seed_stack(p, rows, configs)
            for s, (y, c) in enumerate(zip(rows, configs)):
                run = run_sgd(p, y, c)
                assert run.n_iterations == steps
                assert final_x[s].tobytes() == run.final_x.values.tobytes()
                assert final_dual[s].tobytes() == run.final_dual.values.tobytes()

    @pytest.mark.parametrize("n_rows", [2, 20])
    @pytest.mark.parametrize("dim,beta,mode,r_x,r_y", [
        (40, 0.0, "theory", 2.0, 2.0),
        (40, 0.05, "theory", 2.0, 2.0),
        (40, 0.0, "practice", 1.5, 1.5),
        (41, 0.05, "practice", 1.5, 1.5),
        (40, 0.0, "theory", 3.0, 3.0),
        (40, 0.0, "theory", 1.5, 2.0),   # r* != p*: declined
        (43, 0.05, "theory", 3.0, 2.0),  # r_Y != q: declined
    ])
    def test_matches_serial_runs_at_constant_steps(self, monkeypatch, dim,
                                                   beta, mode, r_x, r_y,
                                                   n_rows):
        _check_stack_against_serial(monkeypatch, dim, beta, mode, r_x, r_y,
                                    n_rows, decay=0.0)

    @pytest.mark.parametrize("mode,r_x,budget", [
        ("theory", 2.0, 0.0175),
        ("practice", 1.5, 0.05),
    ])
    def test_fewer_steps_than_blocks(self, mode, r_x, budget):
        # three a-priori steps on five blocks: every seed leaves at least
        # two of its (seed, block) chains undrawn
        problem = build_benchmark(41, 0.9, 1.1, 0.05, n_blocks=5, seed=3)
        stop = StoppingRule("a_priori", delta=0.1, gamma_budget=budget)
        cfg = SolverConfig(mode=mode, r_X=r_x, r_Y=r_x, mu0=0.5,
                           step_decay_exponent=0.0, stopping=stop,
                           record_every=None)
        rows, configs = _stack_inputs(problem, cfg, 4)
        final_x, final_dual = run_seed_stack(problem, rows, configs)
        for s, (y, c) in enumerate(zip(rows, configs)):
            run = run_sgd(problem, y, c)
            assert run.n_iterations == 3
            assert final_x[s].tobytes() == run.final_x.values.tobytes()
            assert final_dual[s].tobytes() == run.final_dual.values.tobytes()

    def test_one_kernel_call_per_draw_of_the_longest_chain(self, monkeypatch):
        # configs/benchmark_rates.ini with 2 seeds at its smallest noise
        # level: 111,111 steps per seed, split over five blocks
        problem = build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=3)
        stop = StoppingRule("a_priori", delta=3e-3, gamma_budget=0.5)
        cfg = hilbert_config(mu0=0.5, stopping=stop, record_every=None)
        configs = [dataclasses.replace(cfg, seed=_spawn_seed(0, 0, s, 1))
                   for s in range(2)]
        total = a_priori_stop_index(3e-3, 0.5, 0.0, 0.5, 2.0)
        longest = int(_chain_counts(configs, total, 5).max())
        calls = _count_kernel_calls(monkeypatch)
        assert run_seed_stack(problem, [problem.y_exact] * 2,
                              configs) is not None
        assert (total, longest) == (111_111, 22_364)
        # the chains repeat with period 2 by round 71, so the test at round
        # 128 ends the stack after 129 of its 22,364 rounds
        assert len(calls) == 129

    def test_periodic_chains_end_the_stack(self, caplog):
        # 12 chains of 117 to 150 steps, periodic by round 128; among the
        # chains that still flip, one has an odd and one an even number of
        # steps left, and the 128-step chain leaves the prefix between the
        # saved round 126 and the test at round 128
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=3)
        cfg = hilbert_config(max_epochs=133, record_every=None)
        rows, configs = _stack_inputs(problem, cfg, 3)
        counts = _chain_counts(configs, 4 * 133, 4)
        caplog.set_level(logging.DEBUG, logger="bsgd.solver")
        final_x, final_dual = run_seed_stack(problem, rows, configs)
        assert [r.getMessage() for r in caplog.records] == [
            "seed stack: chains periodic at round 128 of 150, "
            "21 rounds skipped"]
        assert set((counts[counts > 128] - 129) % 2) == {0, 1}
        assert ((counts > 126) & (counts <= 128)).any()
        for s, (y, c) in enumerate(zip(rows, configs)):
            run = run_sgd(problem, y, c)
            assert final_x[s].tobytes() == run.final_x.values.tobytes()
            assert final_dual[s].tobytes() == run.final_dual.values.tobytes()

    def test_chains_that_never_repeat_run_every_round(self, monkeypatch,
                                                      caplog):
        # mu0 = 0.002 still moves every chain at its last round
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=3)
        cfg = hilbert_config(mu0=0.002, max_epochs=200, record_every=None)
        rows, configs = _stack_inputs(problem, cfg, 2)
        calls = _count_kernel_calls(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="bsgd.solver")
        final_x, final_dual = run_seed_stack(problem, rows, configs)
        assert len(calls) == _chain_counts(configs, 800, 4).max()
        assert not caplog.records
        for s, (y, c) in enumerate(zip(rows, configs)):
            run = run_sgd(problem, y, c)
            assert final_x[s].tobytes() == run.final_x.values.tobytes()
            assert final_dual[s].tobytes() == run.final_dual.values.tobytes()

    def test_late_divergence_stops_the_stack(self):
        # mu0 a^2 > 2 on the largest diagonal entries: their chains grow by
        # a factor of up to 1.12 a round and pass the guard after the cycle
        # tests of rounds 64, 128 and 192, while the other chains settle
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=3)
        cfg = hilbert_config(mu0=1.75, max_epochs=400, record_every=None)
        rows, configs = _stack_inputs(problem, cfg, 2)
        run = run_sgd(problem, rows[0], configs[0])
        assert run.diverged and run.diverged_at > 4 * 192
        assert run_seed_stack(problem, rows, configs) is None

    def test_random_stacks_match_serial_runs(self, caplog):
        # theory mode with r_Y = q: r_X = 1.5 (r* != p*) has no stacked
        # result, r_X >= 2 runs chains, and six of these stacks end early
        rng = np.random.default_rng(2024)
        caplog.set_level(logging.DEBUG, logger="bsgd.solver")
        exits = 0
        for _ in range(16):
            n_blocks = int(rng.integers(1, 9))
            dim = int(rng.integers(max(3, n_blocks), 41))
            problem = build_benchmark(dim, 0.9, 1.1, rng.choice([0.0, 0.05]),
                                      n_blocks=n_blocks,
                                      seed=int(rng.integers(100)))
            r_x = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            cfg = SolverConfig(mode="theory", r_X=r_x, r_Y=max(r_x, 2.0),
                               mu0=float(rng.uniform(0.1, 1.2)),
                               max_epochs=int(rng.integers(1, 600)),
                               record_every=None)
            rows, configs = _stack_inputs(problem, cfg, int(rng.integers(1, 5)))
            caplog.clear()
            stack = run_seed_stack(problem, rows, configs)
            if r_x < 2.0:
                assert stack is None
                continue
            exits += "periodic" in caplog.text
            runs = [run_sgd(problem, y, c) for y, c in zip(rows, configs)]
            if stack is None:
                assert any(run.diverged for run in runs)
                continue
            for s, run in enumerate(runs):
                assert stack[0][s].tobytes() == run.final_x.values.tobytes()
                assert stack[1][s].tobytes() == run.final_dual.values.tobytes()
        assert exits >= 3

    @pytest.mark.parametrize("change", [
        {"mu0": 0.45}, {"max_epochs": 21}, {"record_every": 2},
        {"stopping": StoppingRule("a_priori", delta=0.1, gamma_budget=0.5)},
    ])
    def test_configs_must_differ_only_in_seed(self, hilbert_benchmark, change):
        rows, configs = _stack_inputs(hilbert_benchmark, hilbert_config(), 3)
        configs[2] = dataclasses.replace(configs[2], **change)
        with pytest.raises(ValueError, match="only in their seed"):
            run_seed_stack(hilbert_benchmark, rows, configs)

    def test_problem_without_stacked_kernel_rejected(self, small_schlieren):
        cfg = hilbert_config()
        with pytest.raises(ValueError, match="stacked row kernel"):
            run_seed_stack(small_schlieren, [small_schlieren.y_exact],
                           [cfg])

    def test_diverging_row_stops_the_stack(self):
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        rows = [problem.y_exact, problem.y_exact]
        rows[1] = [GridVector(np.full(5, 1e13))] + list(problem.y_exact[1:])
        configs = [hilbert_config(max_epochs=10, seed=s) for s in (3, 9)]
        assert run_sgd(problem, rows[1], configs[1]).diverged
        assert run_seed_stack(problem, rows[:1], configs[:1]) is not None
        assert run_seed_stack(problem, rows, configs) is None

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_row_stops_the_stack(self):
        # r_X = 1.02: x = |xi|^50 overflows once |xi| > 1.5e6
        problem = build_benchmark(20, 0.9, 1.1, 0.0, n_blocks=4, seed=6)
        rows = [problem.y_exact, [GridVector(np.full(5, 1e7))] * 4]
        cfg = SolverConfig(mode="practice", r_X=1.02, r_Y=2.0, mu0=0.5,
                           max_epochs=3, record_every=None)
        configs = [dataclasses.replace(cfg, seed=s) for s in (1, 2)]
        with pytest.raises(ValueError, match="finite"):
            run_sgd(problem, rows[1], configs[1])
        assert run_seed_stack(problem, rows, configs) is None


def test_chunked_block_draws_equal_single_draws():
    from bsgd.solver import _block_stream

    stream = _block_stream(11, 7)
    gen = np.random.Generator(np.random.Philox(11))
    drawn = [next(stream) for _ in range(1000)]
    assert drawn == [min(int(gen.random() * 7), 6) for _ in range(1000)]
