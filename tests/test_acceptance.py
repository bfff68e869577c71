"""Acceptance suite: one test per criterion, desk scale, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines and
timings.
"""

import dataclasses
import time

import numpy as np
import pytest

from bsgd.cli import main
from bsgd.forward import build_benchmark, build_schlieren_problem
from bsgd.geometry import (
    GeometryParams,
    GridVector,
    bregman_distance,
    conjugate_exponent,
    duality_map,
    inverse_duality_map,
    lr_norm,
    pairing,
)
from bsgd.noise import add_gaussian, add_salt_pepper
from bsgd.phantoms import make_phantom
from bsgd.radon import build_radon
from bsgd.rates import (
    DescentConstants,
    descent_margin_audit,
    fit_exact_rate,
    noisy_rate_study,
    theoretical_contraction_factor,
    verify_polyak,
)
from bsgd.solver import (
    SolverConfig,
    StoppingRule,
    run_sgd,
    stochastic_gradient,
)

EXPONENT_GRID = [(1.1, 2.0), (1.1, 1.1), (1.5, 2.0), (1.5, 1.5),
                 (2.0, 2.0), (3.0, 2.0), (3.0, 3.0)]


def _report(name, elapsed, budget, detail=""):
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget


@pytest.fixture(scope="module")
def linear_benchmark():
    return build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=3)


@pytest.fixture(scope="module")
def desk_schlieren():
    system = build_radon((32, 32), 30, 45)
    phantom = make_phantom((32, 32), 4, 1.0, seed=7)
    return build_schlieren_problem(system, 6, phantom)


def test_criterion_01_geometry_kernel():
    started = time.time()
    n_vectors = 1000
    rng = np.random.default_rng(101)
    for r, p in EXPONENT_GRID:
        g = GeometryParams(r=r, p=p, r_star=conjugate_exponent(r),
                           p_star=conjugate_exponent(p))
        calib = np.random.default_rng(7)
        ratios = []
        power = max(r, 2.0)
        for _ in range(2000):
            z = GridVector(calib.standard_normal(16))
            w = GridVector(calib.standard_normal(16))
            sep = lr_norm(w - z, r)
            if sep > 1e-8:
                ratios.append(bregman_distance(z, w, g) / sep**power)
        c_fit = 0.5 * min(ratios)
        assert c_fit > 0
        for _ in range(n_vectors):
            v = GridVector(rng.standard_normal(16) * rng.uniform(0.05, 20.0))
            # inverse composition
            back = inverse_duality_map(duality_map(v, g), g)
            np.testing.assert_allclose(back.values, v.values, rtol=1e-10)
            # pairing identities
            jv = duality_map(v, g)
            nv = lr_norm(v, r)
            assert pairing(jv, v) == pytest.approx(nv**p, rel=1e-10)
            assert lr_norm(jv, g.r_star) == pytest.approx(nv ** (p - 1),
                                                          rel=1e-10)
            # monotonicity
            w = GridVector(rng.standard_normal(16))
            assert pairing(duality_map(v, g) - duality_map(w, g), v - w) >= -1e-12
            # three-point identity on unit-scale vectors
            z3 = GridVector(rng.standard_normal(16))
            v3 = GridVector(rng.standard_normal(16))
            w3 = GridVector(rng.standard_normal(16))
            lhs = bregman_distance(z3, w3, g)
            rhs = bregman_distance(z3, v3, g) + bregman_distance(v3, w3, g) \
                + pairing(duality_map(v3, g) - duality_map(z3, g), w3 - v3)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            # convexity lower bound with the fitted constant
            sep = lr_norm(w3 - z3, r)
            if sep > 1e-8:
                assert lhs >= c_fit * sep**power - 1e-12
            # coercivity
            cap = bregman_distance(v, z3, g)
            bound = (2.0 * g.p_star) ** p * max(lr_norm(z3, r) ** p, cap)
            assert lr_norm(v, r) ** p <= bound + 1e-9 * (1.0 + bound)
    _report("criterion 1 (geometry kernel)", time.time() - started, 10,
            f"{n_vectors} vectors x {len(EXPONENT_GRID)} exponent pairs")


def test_criterion_02_hilbert_reduction():
    started = time.time()
    problem = build_benchmark(30, 0.8, 1.2, 0.05, n_blocks=5, seed=2)
    cfg = SolverConfig(r_X=2.0, r_Y=2.0, p=2.0, q=2.0, mu0=0.4, mode="theory",
                       max_epochs=20, seed=77, record_every=1)
    run = run_sgd(problem, problem.y_exact, cfg, x0=GridVector(np.zeros(30)),
                  collect_snapshots=True)
    assert run.n_iterations == 100

    # independently coded Euclidean SGD loop on (1/2)||F_i(x) - y_i||^2
    gen = np.random.Generator(np.random.Philox(77))
    x = np.zeros(30)
    reference = [x.copy()]
    for _ in range(100):
        i = min(int(gen.random() * 5), 4)
        idx = problem.batches[i]
        xv = x[idx]
        resid = problem.diag[idx] * (xv + problem.beta * xv * xv) \
            - problem.y_exact[i].values
        slope = problem.diag[idx] * (1.0 + 2.0 * problem.beta * xv)
        grad = np.zeros_like(x)
        grad[idx] = slope * resid
        x = x - 0.4 * grad
        reference.append(x.copy())
    for (k, xk, _), ref in zip(run.snapshots, reference):
        np.testing.assert_allclose(xk.values, ref, rtol=1e-12, atol=1e-12)
    _report("criterion 2 (Hilbert reduction)", time.time() - started, 5,
            "100 steps match the independent Euclidean loop to 1e-12")


def test_criterion_03_gradient_oracle(linear_benchmark, desk_schlieren):
    started = time.time()
    bench = build_benchmark(40, 0.9, 1.1, 0.05, n_blocks=5, seed=3)
    t = 1e-6
    rng = np.random.default_rng(2024)
    for problem, shape in ((bench, (40,)), (desk_schlieren, (32, 32))):
        for _ in range(50):
            x = GridVector(rng.standard_normal(shape))
            h = GridVector(rng.standard_normal(shape))
            h = (1.0 / lr_norm(h, 2.0)) * h
            i = int(rng.integers(problem.n_blocks))
            g = stochastic_gradient(problem, x, problem.y_exact, i, 2.0, 2.0)
            psi0 = lr_norm(problem.apply_block(i, x)
                           - problem.y_exact[i], 2.0) ** 2 / 2.0
            psi1 = lr_norm(problem.apply_block(i, x + t * h)
                           - problem.y_exact[i], 2.0) ** 2 / 2.0
            fd = (psi1 - psi0) / t
            ip = pairing(g, h)
            assert abs(fd - ip) <= 1e-4 * max(abs(ip), 1e-12)
    _report("criterion 3 (gradient oracle)", time.time() - started, 30,
            "50 finite-difference probes per operator, rel err <= 1e-4")


def test_criterion_04_exact_data_descent_audit(linear_benchmark):
    started = time.time()
    cfg = SolverConfig(r_X=2.0, r_Y=2.0, p=2.0, q=2.0, mu0=0.5, mode="theory",
                       max_epochs=100, seed=0, record_every=1)
    constants = DescentConstants(p=2.0, gamma=0.0,
                                 L_max=linear_benchmark.L_max, G_pstar=1.0)
    total_steps = 0
    for seed in range(20):
        run = run_sgd(linear_benchmark, linear_benchmark.y_exact,
                      dataclasses.replace(cfg, seed=seed), x0=0.0)
        audit = descent_margin_audit(run.history, constants, tol=1e-10)
        assert audit.n_violations == 0
        assert audit.min_margin > 0
        total_steps += audit.n_steps
    _report("criterion 4 (exact-data descent audit)", time.time() - started,
            60, f"zero violations over {total_steps} steps (20 seeds)")


def test_criterion_05_linear_rate(linear_benchmark):
    started = time.time()
    base = SolverConfig(r_X=2.0, r_Y=2.0, p=2.0, q=2.0, mu0=0.5, mode="theory",
                        max_epochs=30, seed=0, record_every=5)
    histories = []
    for seed in range(20):
        run = run_sgd(linear_benchmark, linear_benchmark.y_exact,
                      dataclasses.replace(base, seed=seed), x0=0.0)
        histories.append(run.history)
    fit = fit_exact_rate(histories, alpha=1.0)
    bound = theoretical_contraction_factor(
        0.5, gamma=0.0, L_max=linear_benchmark.L_max, G_pstar=1.0, p=2.0,
        C_alpha=linear_benchmark.stability.C_alpha, n_blocks=5)
    assert fit.fitted_rate <= bound + 0.05
    assert fit.r_squared >= 0.95
    _report("criterion 5 (linear rate)", time.time() - started, 120,
            f"contraction {fit.fitted_rate:.4f} <= bound {bound:.4f} + 0.05, "
            f"r2 {fit.r_squared:.3f}")


@pytest.fixture(scope="module")
def noisy_study(linear_benchmark):
    cfg = SolverConfig(r_X=2.0, r_Y=2.0, p=2.0, q=2.0, mu0=0.5, mode="theory",
                       max_epochs=10, seed=0,
                       stopping=StoppingRule("a_priori", delta=1.0,
                                             gamma_budget=0.5))
    started = time.time()
    study = noisy_rate_study(linear_benchmark, linear_benchmark.stability,
                             [1e-1, 3e-2, 1e-2, 3e-3], cfg, n_seeds=20)
    return study, time.time() - started


def test_criterion_06_noisy_rate(noisy_study):
    study, study_time = noisy_study
    assert study.target_slope == pytest.approx(2.0)
    assert study.slope_within(0.2)
    assert study.fit.r_squared >= 0.9
    _report("criterion 6 (noisy rate)", study_time, 600,
            f"slope {study.fit.fitted_rate:.4f} within 20% of 2.0, "
            f"r2 {study.fit.r_squared:.4f}")


def test_criterion_07_regularizing_trend(noisy_study):
    started = time.time()
    study, _ = noisy_study
    rows = sorted(study.rows, key=lambda r: r.delta, reverse=True)
    inversions = 0
    for hi, lo in zip(rows[:-1], rows[1:]):
        stderr = lo.std_bregman / np.sqrt(lo.n_seeds)
        if lo.mean_bregman > hi.mean_bregman + stderr:
            inversions += 1
    assert inversions <= 1
    means = [f"{r.mean_bregman:.2e}" for r in rows]
    _report("criterion 7 (regularizing trend)", time.time() - started, 60,
            f"mean distances {means} nonincreasing with delta "
            f"({inversions} inversions)")


def test_criterion_08_schlieren_exponent_ordering(desk_schlieren):
    started = time.time()
    medians = {}
    for r_x in (2.0, 1.1):
        bests = []
        for s in range(5):
            y = add_gaussian(desk_schlieren.y_exact, 1e-2, seed=100 + s)
            cfg = SolverConfig.make("practice", r_X=r_x, r_Y=2.0, mu0=1.0,
                                    step_decay_exponent=0.2, max_epochs=800,
                                    seed=s, record_every=None)
            run = run_sgd(desk_schlieren, y, cfg, x0=0.01)
            assert not run.diverged
            bests.append(run.best_metric)
        medians[r_x] = float(np.median(bests))
    assert medians[1.1] < medians[2.0]
    _report("criterion 8 (Schlieren exponent ordering)", time.time() - started,
            300, f"median best error {medians[1.1]:.3f} (r_X=1.1) < "
                 f"{medians[2.0]:.3f} (r_X=2)")


def test_criterion_09_salt_pepper_ordering(desk_schlieren):
    started = time.time()
    medians = {}
    for r_x, r_y in ((2.0, 2.0), (1.1, 1.1)):
        bests = []
        for s in range(5):
            y = add_salt_pepper(desk_schlieren.y_exact, 0.1, seed=200 + s)
            cfg = SolverConfig.make("practice", r_X=r_x, r_Y=r_y, mu0=0.3,
                                    step_decay_exponent=0.2, max_epochs=600,
                                    seed=s, record_every=None)
            run = run_sgd(desk_schlieren, y, cfg, x0=0.01)
            assert not run.diverged
            bests.append(run.best_metric)
        medians[(r_x, r_y)] = float(np.median(bests))
    assert medians[(1.1, 1.1)] < medians[(2.0, 2.0)]
    _report("criterion 9 (salt-and-pepper ordering)", time.time() - started,
            300, f"median best error {medians[(1.1, 1.1)]:.3f} (1.1,1.1) < "
                 f"{medians[(2.0, 2.0)]:.3f} (2,2)")


def test_criterion_10_polyak_verification():
    started = time.time()
    for excess, d0, steps in ((1.0, 0.8, np.full(60, 0.2)),
                              (0.5, 0.6, 0.1 * np.arange(1, 80) ** -0.3),
                              (2.0, 0.4, np.full(40, 0.25))):
        seq = [d0]
        for m in steps:
            seq.append(seq[-1] - m * seq[-1] ** (1.0 + excess))
        report = verify_polyak(seq, steps, excess)
        assert report.verdict == "ok"
        assert np.all(np.asarray(seq) <= report.bound_curve * (1 + 1e-9))
    # negative control: one ascent step must be flagged, not passed
    steps = np.full(20, 0.2)
    seq = [0.8]
    for m in steps:
        seq.append(seq[-1] - m * seq[-1] ** 2)
    seq[7] = seq[6] * 1.5
    assert verify_polyak(seq, steps, 1.0).verdict == "hypothesis_violated"
    _report("criterion 10 (decay-bound verification)", time.time() - started,
            1, "forward-simulated recursions bounded; negative control flagged")


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    cfg_text = """
[experiment]
kind = schlieren

[problem]
rows = 16
cols = 16
n_angles = 10
n_detectors = 23
batch_size = 2

[phantom]
n_blobs = 3
seed = 11

[space]
r_x = 1.5
r_y = 2.0
mode = practice

[noise]
kind = gaussian
epsilon = 1e-2
seed = 4

[solver]
mu0 = 1.0
decay = 0.2
epochs = 20
seed = 1

[estimates]
ball_radius = 0.1
n_samples = 4
seed = 9
"""
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(cfg_text)
    seed_run = tmp_path / "seed"
    assert main(["run", "--config", str(cfg_path), "--out", str(seed_run),
                 "--quiet"]) == 0
    manifest = seed_run / "manifest.txt"
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["run", "--config", str(manifest), "--out", str(out1),
                 "--quiet"]) == 0
    assert main(["run", "--config", str(manifest), "--out", str(out2),
                 "--quiet"]) == 0
    for name in ("history.csv", "best.bsgd", "final.bsgd"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report("criterion 11 (determinism)", time.time() - started, 60,
            "two manifest replays byte-identical (history + arrays)")
