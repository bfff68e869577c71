import importlib
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import bsgd
from bsgd.forward import (
    BenchmarkProblem,
    ForwardProblem,
    SchlierenProblem,
    _BOX_MARGIN,
    _ball_sample,
    build_benchmark,
    build_schlieren_problem,
    estimate_lipschitz_Lmax,
    estimate_tcc_gamma,
)
from bsgd.geometry import (
    DualVector,
    GeometryParams,
    GridVector,
    duality_map,
    lr_norm,
    pairing,
)
from bsgd.radon import RadonSystem, build_radon, make_interleaved_batches
from conftest import assert_same_arrays, scipy_csr


def dense_matrix(problem, k):
    system = problem.system
    return np.vstack([scipy_csr(system.matrices[a]).toarray()
                      for a in system.batches[k]])


def _operator(system):
    """The Schlieren problem on ``system``, its data made from a ones image."""
    return SchlierenProblem(system, x_truth=GridVector(np.ones(system.image_shape)))


@pytest.fixture(scope="module")
def small_pairs():
    """The operator on small_radon's geometry in batches of two angles,
    {k, k + 5}."""
    return _operator(build_radon((16, 16), 10, 23, 2))


@pytest.fixture(scope="module")
def small_angles(small_radon):
    """The operator on small_radon, one angle per block."""
    return _operator(small_radon)


class TestBatches:
    def test_interleaved_layout(self):
        batches = make_interleaved_batches(30, 6)
        assert len(batches) == 5
        assert batches[0] == [0, 5, 10, 15, 20, 25]
        assert batches[4] == [4, 9, 14, 19, 24, 29]
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(30))

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divide"):
            make_interleaved_batches(30, 7)


class TestSchlierenOps:
    def test_zero_image(self, small_pairs):
        out = small_pairs.apply_block(0, GridVector(np.zeros((16, 16))))
        assert np.all(out.values == 0.0)

    def test_degree_two_homogeneity(self, small_pairs, rng):
        x = GridVector(rng.standard_normal((16, 16)))
        base = small_pairs.apply_block(1, x)
        scaled = small_pairs.apply_block(1, 3.0 * x)
        np.testing.assert_allclose(scaled.values, 9.0 * base.values, rtol=1e-12)

    def test_matches_dense_matrix_oracle(self, small_pairs, rng):
        dense = dense_matrix(small_pairs, 3)
        x = rng.standard_normal((16, 16))
        expected = (dense @ x.ravel()) ** 2
        out = small_pairs.apply_block(3, GridVector(x))
        np.testing.assert_allclose(out.values.ravel(), expected, rtol=1e-12)

    def test_derivative_zero_direction(self, small_angles, rng):
        x = GridVector(rng.standard_normal((16, 16)))
        out = small_angles.derivative_apply(2, x, GridVector(np.zeros((16, 16))))
        assert np.all(out.values == 0.0)

    def test_derivative_linear_in_direction(self, small_pairs, rng):
        x = GridVector(rng.standard_normal((16, 16)))
        h1 = GridVector(rng.standard_normal((16, 16)))
        h2 = GridVector(rng.standard_normal((16, 16)))
        combo = small_pairs.derivative_apply(1, x, 2.0 * h1 + (-0.5) * h2)
        parts = (2.0 * small_pairs.derivative_apply(1, x, h1)
                 + (-0.5) * small_pairs.derivative_apply(1, x, h2))
        np.testing.assert_allclose(combo.values, parts.values, atol=1e-12)

    def test_finite_difference_slope(self, small_pairs, rng):
        # second difference of the quadratic map is exactly t * (R h)^2
        x = GridVector(rng.standard_normal((16, 16)))
        h = GridVector(rng.standard_normal((16, 16)))
        deriv = small_pairs.derivative_apply(4, x, h)
        ts = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        errs = []
        for t in ts:
            fd = (small_pairs.apply_block(4, x + t * h).values
                  - small_pairs.apply_block(4, x).values) / t
            errs.append(np.linalg.norm(fd - deriv.values))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_adjoint_zero(self, small_pairs, rng):
        x = GridVector(rng.standard_normal((16, 16)))
        out = small_pairs.adjoint_apply(0, x, DualVector(np.zeros((2, 23))))
        assert np.all(out.values == 0.0)

    def test_adjoint_pairing(self, small_pairs, rng):
        for _ in range(20):
            x = GridVector(rng.standard_normal((16, 16)))
            h = GridVector(rng.standard_normal((16, 16)))
            g = DualVector(rng.standard_normal((2, 23)))
            lhs = pairing(g, small_pairs.derivative_apply(2, x, h))
            rhs = pairing(small_pairs.adjoint_apply(2, x, g), h)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_adjoint_matches_dense_transpose(self, small_angles, rng):
        x = GridVector(np.full((16, 16), 0.7))
        g = rng.standard_normal((1, 23))
        dense = dense_matrix(small_angles, 3)
        expected = dense.T @ (2.0 * (dense @ x.values.ravel()) * g.ravel())
        out = small_angles.adjoint_apply(3, x, DualVector(g))
        np.testing.assert_allclose(out.values.ravel(), expected, rtol=1e-12)

    def test_adjoint_reuses_given_projections(self, small_radon, small_pairs, rng):
        x = GridVector(rng.standard_normal((16, 16)))
        g = rng.standard_normal((2, 23))
        # per-angle projections from the batch-1 system: the same bits
        px = np.concatenate([small_radon.project_batch(a, x.values)
                             for a in small_pairs.batches[1]])
        reused = small_pairs.adjoint_apply(1, x, g, px=px)
        fresh = small_pairs.adjoint_apply(1, x, g)
        assert reused.values.tobytes() == fresh.values.tobytes()

    def test_shape_mismatch_rejected(self, small_pairs):
        with pytest.raises(ValueError, match="shape"):
            small_pairs.apply_block(0, GridVector(np.zeros((4, 4))))

    @pytest.mark.parametrize("k", [-1, 5])
    def test_batch_index_out_of_range_rejected(self, small_pairs, k):
        x = GridVector(np.ones((16, 16)))
        g = np.ones((2, 23))
        # apply_block and adjoint_apply check the block index, the
        # derivative leaves it to RadonSystem.project_batch's batch index
        with pytest.raises(IndexError, match="(block|batch) index"):
            small_pairs.apply_block(k, x)
        with pytest.raises(IndexError, match="(block|batch) index"):
            small_pairs.derivative_apply(k, x, x)
        with pytest.raises(IndexError, match="(block|batch) index"):
            small_pairs.adjoint_apply(k, x, g)
        with pytest.raises(IndexError, match="(block|batch) index"):
            small_pairs.adjoint_apply(k, x, g, px=g)


class TestBenchmark:
    def test_linear_case_constants(self):
        problem = build_benchmark(20, 0.5, 1.5, 0.0, n_blocks=4, seed=1)
        assert problem.gamma == 0.0
        assert problem.L_max == 1.5
        assert problem.stability.alpha == 1.0
        assert problem.stability.C_alpha == pytest.approx(2.0 * 0.25)

    def test_identity_operator_stability_algebra(self, rng):
        # a_j = 1, beta = 0: D(x, x~) = ||x-x~||^2/2 <= ||F(x)-F(x~)||^2/2
        problem = build_benchmark(10, 1.0, 1.0, 0.0, n_blocks=2, seed=0)
        assert problem.stability.C_alpha == pytest.approx(2.0)
        for _ in range(20):
            x = GridVector(rng.standard_normal(10))
            xt = GridVector(rng.standard_normal(10))
            fdiff = np.concatenate(
                [(problem.apply_block(i, x) - problem.apply_block(i, xt)).values
                 for i in range(problem.n_blocks)])
            d = 0.5 * np.sum((x.values - xt.values) ** 2)
            assert problem.stability.C_alpha * d <= np.sum(fdiff**2) + 1e-12

    def test_stability_certificate_sampled(self, rng):
        # pairs in the ball of radius _BOX_MARGIN around the truth, which
        # lies in the box the constants hold on
        for beta in (0.0, 0.02, 0.05):
            problem = build_benchmark(30, 0.7, 1.3, beta, n_blocks=5, seed=2)
            c_alpha = problem.stability.C_alpha
            center = problem.x_truth.values
            for _ in range(50):
                x = GridVector(_ball_sample(rng, center, _BOX_MARGIN))
                xt = GridVector(_ball_sample(rng, center, _BOX_MARGIN))
                fdiff = np.concatenate(
                    [(problem.apply_block(i, x) - problem.apply_block(i, xt)).values
                     for i in range(problem.n_blocks)])
                d = 0.5 * np.sum((x.values - xt.values) ** 2)
                assert c_alpha * d <= np.sum(fdiff**2) * (1.0 + 1e-12)

    def test_quadratic_gamma_small_and_reproducible(self):
        p1 = build_benchmark(50, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        p2 = build_benchmark(50, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        assert 0.0 < p1.gamma < 0.5
        assert p1.gamma == p2.gamma
        # the closed forms on the box |x_j| <= max|x_truth| + _BOX_MARGIN
        t = 2.0 * 0.05 * (np.max(np.abs(p1.x_truth.values)) + _BOX_MARGIN)
        assert p1.gamma == t / (1.0 - t)
        assert p1.L_max == 1.1 * (1.0 + t)
        assert p1.stability.C_alpha == 2.0 * 0.9**2 * (1.0 - t)**2

    def test_strong_nonlinearity_rejected(self):
        with pytest.raises(ValueError, match="tangential cone"):
            build_benchmark(20, 0.9, 1.1, 5.0, n_blocks=4, seed=0)

    def test_truth_reproduces_data(self):
        problem = build_benchmark(12, 0.8, 1.2, 0.05, n_blocks=3, seed=6)
        for i in range(problem.n_blocks):
            diff = problem.apply_block(i, problem.x_truth) - problem.y_exact[i]
            assert lr_norm(diff, 2.0) <= 1e-12

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="partition"):
            BenchmarkProblem(np.ones(4), 0.0, [[0, 1], [1, 2]],
                             GridVector(np.ones(4)))

    def test_apply_block_rejects_misshaped_point(self):
        problem = build_benchmark(12, 0.8, 1.2, 0.0, n_blocks=3, seed=5)
        with pytest.raises(ValueError, match="shape"):
            problem.apply_block(0, GridVector(np.ones(13)))

    # on the 40-dim problem in 5 blocks, block 0 holds 8 entries
    @pytest.mark.parametrize("operator, x_dim, arg, message", [
        ("adjoint_apply", 40, np.ones(1), r"data block shape \(1,\) != \(8,\)"),
        ("adjoint_apply", 40, np.ones(9), r"data block shape \(9,\) != \(8,\)"),
        ("adjoint_apply", 50, np.ones(8), r"point shape \(50,\)"),
        ("derivative_apply", 50, GridVector(np.ones(40)), r"point shape \(50,\)"),
        ("derivative_apply", 40, GridVector(np.ones(50)), r"point shape \(50,\)"),
    ])
    def test_operators_reject_misshaped_points_and_data(self, operator, x_dim,
                                                         arg, message):
        problem = build_benchmark(40, 0.9, 1.1, 0.0, n_blocks=5, seed=0)
        with pytest.raises(ValueError, match=message):
            getattr(problem, operator)(0, GridVector(np.ones(x_dim)), arg)


@pytest.mark.parametrize("beta", [0.02, 0.05])
class TestBenchmarkCertificates:
    """The closed-form constants bound what sampling observes in the ball of
    radius _BOX_MARGIN around the truth, inside the box they hold on."""

    @pytest.mark.parametrize("r_y", [2.0, 1.1])
    def test_sampled_gamma_below_certified(self, beta, r_y):
        problem = build_benchmark(40, 0.9, 1.1, beta, n_blocks=5, seed=3)
        (sampled,) = estimate_tcc_gamma(problem, problem.x_truth, _BOX_MARGIN,
                                        200, 0, r_Y=(r_y,))
        assert 0.0 < sampled <= problem.gamma

    def test_sampled_lipschitz_below_certified(self, beta):
        problem = build_benchmark(40, 0.9, 1.1, beta, n_blocks=5, seed=3)
        sampled = estimate_lipschitz_Lmax(problem, problem.x_truth,
                                          _BOX_MARGIN, 50, 0)
        assert 1.1 < sampled <= problem.L_max


class TestDerivedData:
    """A problem built from its truth alone holds F_i(x_truth), byte for byte."""

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_benchmark(self, beta):
        problem = build_benchmark(30, 0.8, 1.2, beta, n_blocks=4, seed=2)
        for i, y_i in enumerate(problem.y_exact):
            want = problem.block_forward(i, problem.x_truth.values)
            assert y_i.values.tobytes() == want.tobytes()

    def test_schlieren(self, small_schlieren):
        p = small_schlieren
        for i, y_i in enumerate(p.y_exact):
            assert y_i.values.tobytes() == p.block_forward(i, p.x_truth.values).tobytes()


def test_every_export_resolves():
    for info in pkgutil.iter_modules(bsgd.__path__):
        module = importlib.import_module(f"bsgd.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"bsgd.{info.name}.{name}"


class _ZeroProblem(ForwardProblem):
    def __init__(self):
        super().__init__([[0]], GridVector(np.ones(3)))

    @property
    def domain_shape(self):
        return (3,)

    def block_forward(self, i, x):
        return np.zeros(3)

    def derivative_apply(self, i, x, h):
        return GridVector(np.zeros(3))

    def adjoint_apply(self, i, x, g):
        return DualVector(np.zeros(3))


def _lipschitz_oracle(problem, ball_center, ball_radius, n_samples, rng_seed,
                      n_power_iter):
    """Reference power iteration through the validated derivative and
    adjoint, which project x again in every call."""
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
            sigma = 0.0
            for _ in range(n_power_iter):
                w = problem.derivative_apply(i, x, GridVector(v))
                back = problem.adjoint_apply(i, x, w)
                bn = np.linalg.norm(back.values)
                if bn < 1e-300:
                    sigma = 0.0
                    break
                sigma = np.sqrt(bn)
                v = back.values / bn
            worst = max(worst, float(sigma))
    return worst


def _tcc_oracle(problem, ball_center, ball_radius, n_samples, rng_seed,
                r_Y=2.0):
    """Reference tangential-cone estimate through apply_block and
    derivative_apply, which project x again for the linear term."""
    gen = np.random.Generator(np.random.Philox(rng_seed))
    center = ball_center.values
    worst = 0.0
    for _ in range(n_samples):
        x = GridVector(_ball_sample(gen, center, ball_radius))
        xt = GridVector(_ball_sample(gen, center, ball_radius))
        step = x - xt
        for i in range(problem.n_blocks):
            fx = problem.apply_block(i, x)
            fxt = problem.apply_block(i, xt)
            den = lr_norm(fx - fxt, r_Y)
            if den < 1e-14:
                continue
            lin = problem.derivative_apply(i, x, step)
            num = lr_norm(fx - fxt - lin, r_Y)
            worst = max(worst, num / den)
    return worst


@pytest.fixture(scope="module")
def desk_schlieren(desk_radon, desk_phantom):
    """The acceptance layout: a batch-1 system, built again in batches of 6."""
    return build_schlieren_problem(desk_radon, 6, desk_phantom)


# the estimates cli._build_problem makes for configs/schlieren_desk.ini
DESK_LMAX_ARGS = (0.25, max(1, 10 // 4), 1234)
DESK_TCC_ARGS = (0.25, 10, 1234)


@pytest.fixture(scope="module")
def desk_batched(desk_phantom):
    """The desk problem in the CLI's layout: one matrix per batch of 6."""
    return build_schlieren_problem(build_radon((32, 32), 30, 45, 6), 6,
                                   desk_phantom)


def _count_projections(monkeypatch, method="project_batch"):
    """Record the first argument (batch or angle index) of each call."""
    calls = []
    original = getattr(RadonSystem, method)

    def counting(self, index, v):
        calls.append(index)
        return original(self, index, v)

    monkeypatch.setattr(RadonSystem, method, counting)
    return calls


class TestEstimators:
    def test_lipschitz_matches_oracle_desk(self, desk_schlieren):
        args = (desk_schlieren, desk_schlieren.x_truth) + DESK_LMAX_ARGS
        assert repr(estimate_lipschitz_Lmax(*args, n_power_iter=20)) == \
            repr(_lipschitz_oracle(*args, n_power_iter=20))

    def test_lipschitz_matches_oracle_benchmark(self):
        problem = build_benchmark(40, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        args = (problem, problem.x_truth, 0.5, 3, 8)
        assert repr(estimate_lipschitz_Lmax(*args, n_power_iter=50)) == \
            repr(_lipschitz_oracle(*args, n_power_iter=50))

    def test_lipschitz_projects_sample_once_per_block(self, desk_schlieren,
                                                      monkeypatch):
        calls = _count_projections(monkeypatch)
        estimate_lipschitz_Lmax(desk_schlieren, desk_schlieren.x_truth,
                                *DESK_LMAX_ARGS, n_power_iter=20)
        # 2 samples x 5 blocks: x once, then h in each of the 20 power
        # steps (the oracle also projects x twice per step: 600)
        assert len(calls) == 10 * (1 + 20) == 210

    def test_tcc_matches_oracle_desk(self, desk_schlieren):
        args = (desk_schlieren, desk_schlieren.x_truth) + DESK_TCC_ARGS
        assert repr(estimate_tcc_gamma(*args, r_Y=(2.0,))[0]) == \
            repr(_tcc_oracle(*args, r_Y=2.0))

    def test_tcc_exponents_in_one_pass_match_separate_calls(self, desk_batched):
        # the CLI's estimate for a desk sweep over r_Y in {2, 1.1, 1.5}
        args = (desk_batched, desk_batched.x_truth) + DESK_TCC_ARGS
        joint = estimate_tcc_gamma(*args, r_Y=(2.0, 1.1, 1.5))
        separate = [estimate_tcc_gamma(*args, r_Y=(r_y,))[0]
                    for r_y in (2.0, 1.1, 1.5)]
        assert isinstance(joint, tuple)
        assert list(map(repr, joint)) == list(map(repr, separate))

    @pytest.mark.parametrize("r_y", [2.0, 1.5])
    def test_tcc_matches_oracle_benchmark(self, r_y):
        problem = build_benchmark(40, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        args = (problem, problem.x_truth, 0.5, 30, 17)
        assert repr(estimate_tcc_gamma(*args, r_Y=(r_y,))[0]) == \
            repr(_tcc_oracle(*args, r_Y=r_y))

    def test_tcc_projects_sample_once_per_block(self, desk_schlieren,
                                                monkeypatch):
        calls = _count_projections(monkeypatch)
        estimate_tcc_gamma(desk_schlieren, desk_schlieren.x_truth,
                           *DESK_TCC_ARGS, r_Y=(2.0,))
        # 10 samples x 5 blocks: x, x~ and x - x~ once each (the oracle
        # projects x again for the linear term: 200)
        assert len(calls) == 50 * 3 == 150

    def test_tcc_zero_for_linear(self):
        problem = build_benchmark(20, 0.5, 1.5, 0.0, n_blocks=4, seed=1)
        center = GridVector(np.zeros(20))
        assert estimate_tcc_gamma(problem, center, 1.0, 25, 9)[0] <= 1e-14

    def test_tcc_positive_below_half_for_mild_quadratic(self):
        problem = build_benchmark(50, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        (g1,) = estimate_tcc_gamma(problem, problem.x_truth, 0.5, 30, 17)
        (g2,) = estimate_tcc_gamma(problem, problem.x_truth, 0.5, 30, 17)
        assert 0.0 < g1 < 0.5 and g1 == g2

    def test_tcc_schlieren_finite(self, small_schlieren):
        (gamma_hat,) = estimate_tcc_gamma(small_schlieren,
                                          small_schlieren.x_truth, 0.2, 10, 3)
        assert np.isfinite(gamma_hat) and gamma_hat >= 0.0

    def test_lipschitz_zero_operator(self):
        est = estimate_lipschitz_Lmax(_ZeroProblem(), GridVector(np.zeros(3)),
                                      1.0, 3, 0)
        assert est == 0.0

    def test_lipschitz_linear_diagonal(self):
        problem = build_benchmark(30, 0.5, 2.0, 0.0, n_blocks=3, seed=6)
        est = estimate_lipschitz_Lmax(problem, GridVector(np.zeros(30)), 1.0,
                                      2, 11, n_power_iter=50)
        assert est == pytest.approx(2.0, rel=1e-2)

    def test_schlieren_derivative_grows_with_amplitude(self, small_schlieren):
        truth = small_schlieren.x_truth
        small = estimate_lipschitz_Lmax(small_schlieren, truth, 0.05, 2, 21,
                                        n_power_iter=15)
        large = estimate_lipschitz_Lmax(small_schlieren, 3.0 * truth, 0.05, 2,
                                        21, n_power_iter=15)
        assert large > small

    def test_tcc_consequence_two_sided(self, rng):
        # (1-g)||F(x)-F(x~)|| <= ||F'(x)(x-x~)|| <= (1+g)||F(x)-F(x~)||
        problem = build_benchmark(40, 0.9, 1.1, 0.05, n_blocks=5, seed=4)
        (gamma_hat,) = estimate_tcc_gamma(problem, problem.x_truth, 0.5, 40, 23)
        gen = np.random.default_rng(5)
        for _ in range(30):
            x = GridVector(problem.x_truth.values
                           + 0.5 * gen.standard_normal(40) / np.sqrt(40))
            xt = GridVector(problem.x_truth.values
                            + 0.5 * gen.standard_normal(40) / np.sqrt(40))
            for i in range(problem.n_blocks):
                fgap = lr_norm(problem.apply_block(i, x)
                               - problem.apply_block(i, xt), 2.0)
                lin = lr_norm(problem.derivative_apply(i, x, x - xt), 2.0)
                assert (1.0 - gamma_hat) * fgap <= lin * (1.0 + 1e-9) + 1e-12
                assert lin <= (1.0 + gamma_hat) * fgap * (1.0 + 1e-9) + 1e-12


class TestBlockResidualGradient:
    """The raw kernel gives the bytes of apply_block followed by adjoint_apply."""

    def _check(self, problem, x, y, gy):
        for i in range(problem.n_blocks):
            resid, grad = problem.block_residual_gradient(i, x.values, y[i].values, gy)
            want_resid = problem.apply_block(i, x) - y[i]
            want_grad = problem.adjoint_apply(i, x, duality_map(want_resid, gy))
            assert resid.shape == want_resid.shape
            assert resid.tobytes() == want_resid.values.tobytes()
            assert grad.shape == want_grad.shape
            assert grad.tobytes() == want_grad.values.tobytes()

    @pytest.mark.parametrize("r_y,q", [(2.0, 2.0), (1.5, 1.5), (1.1, 2.0), (3.0, 2.0)])
    def test_schlieren(self, small_schlieren, rng, r_y, q):
        p = small_schlieren
        x = GridVector(p.x_truth.values + 0.1 * rng.standard_normal(p.domain_shape))
        y = [GridVector(b.values + 0.05 * rng.standard_normal(b.shape))
             for b in p.y_exact]
        self._check(p, x, y, GeometryParams.for_lebesgue(r_y, q))

    @pytest.mark.parametrize("beta", [0.0, 0.05])
    @pytest.mark.parametrize("r_y,q", [(2.0, 2.0), (1.5, 1.5), (1.1, 2.0)])
    def test_benchmark(self, rng, beta, r_y, q):
        p = build_benchmark(40, 0.9, 1.1, beta, n_blocks=5, seed=3)
        x = GridVector(rng.standard_normal(40))
        y = [GridVector(b.values + 0.05 * rng.standard_normal(b.shape))
             for b in p.y_exact]
        self._check(p, x, y, GeometryParams.for_lebesgue(r_y, q))

    def test_zero_residual_gives_zero_gradient(self, small_schlieren):
        p = small_schlieren
        gy = GeometryParams.for_lebesgue(1.5, 1.5)
        for i in range(p.n_blocks):
            resid, grad = p.block_residual_gradient(i, p.x_truth.values,
                                                    p.y_exact[i].values, gy)
            assert np.all(resid == 0.0) and np.all(grad == 0.0)


class TestBatchLayout:
    """A problem on a batch-1 system (the acceptance layout) projects each
    batch with one product, as on a system built in its batches."""

    def test_lipschitz_makes_one_product_per_batch(self, desk_schlieren,
                                                   monkeypatch):
        batch_calls = _count_projections(monkeypatch)
        estimate_lipschitz_Lmax(desk_schlieren, desk_schlieren.x_truth,
                                *DESK_LMAX_ARGS, n_power_iter=20)
        # 2 samples x 5 blocks: x once, then h in each of the 20 power steps
        assert batch_calls == [k for _ in range(2) for k in range(5)
                               for _ in range(1 + 20)]

    def test_step_makes_one_forward_product(self, desk_batched, desk_schlieren,
                                            monkeypatch):
        gy = GeometryParams.for_lebesgue(2.0, 2.0)
        x = desk_schlieren.x_truth.values + 0.01
        y = desk_schlieren.y_exact[2].values
        want = desk_batched.block_residual_gradient(2, x, y, gy)
        batch_calls = _count_projections(monkeypatch)
        back_calls = _count_projections(monkeypatch, "back_project")
        got = desk_schlieren.block_residual_gradient(2, x, y, gy)
        assert batch_calls == [2]
        # the adjoint still back-projects angle by angle, in batch order
        assert back_calls == list(desk_schlieren.batches[2]) == \
            make_interleaved_batches(30, 6)[2]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_step_makes_one_adjoint_call(self, desk_schlieren, monkeypatch):
        # Through the method, which perfbench/spans.py wraps to time the
        # step's back-projection as one span.
        calls = []
        original = SchlierenProblem.adjoint_apply

        def counting(problem, k, *args, **kwargs):
            calls.append(k)
            return original(problem, k, *args, **kwargs)

        monkeypatch.setattr(SchlierenProblem, "adjoint_apply", counting)
        gy = GeometryParams.for_lebesgue(2.0, 2.0)
        x = desk_schlieren.x_truth.values + 0.01
        desk_schlieren.block_residual_gradient(2, x, desk_schlieren.y_exact[2].values,
                                               gy)
        assert calls == [2]

    @pytest.mark.parametrize("shape, n_angles, n_detectors, built_at, batch_size", [
        ((32, 32), 30, 45, 1, 6),
        # every detector lies on a pixel edge at theta = 0 and pi/2
        ((10, 10), 4, 5, 1, 2),
        ((16, 16), 10, 23, 2, 5),
    ])
    def test_system_in_other_batches_is_built_in_the_blocks(
            self, shape, n_angles, n_detectors, built_at, batch_size):
        truth = GridVector(np.ones(shape))
        problem = build_schlieren_problem(
            build_radon(shape, n_angles, n_detectors, built_at), batch_size, truth)
        want = build_radon(shape, n_angles, n_detectors, batch_size)
        assert problem.system.batches == want.batches
        for got, ref in zip(problem.system.batch_matrices, want.batch_matrices):
            assert got.shape == ref.shape
            assert_same_arrays(got, ref)
        # a system already in those batches is kept as it is
        assert build_schlieren_problem(want, batch_size, truth).system is want

    @pytest.mark.parametrize("field", ["angles", "detector_s"])
    def test_hand_built_geometry_is_not_rebuilt(self, field):
        system = build_radon((10, 10), 4, 5)
        moved = replace(system, **{field: getattr(system, field) + 1e-3})
        with pytest.raises(ValueError, match="angles or detector centers"):
            build_schlieren_problem(moved, 2, GridVector(np.ones((10, 10))))

    def test_estimates_match_the_per_angle_layout(self, desk_batched,
                                                  desk_schlieren):
        # desk_schlieren is given a batch-1 system, desk_batched one built at 6
        def estimates(problem):
            return (estimate_lipschitz_Lmax(problem, problem.x_truth,
                                            *DESK_LMAX_ARGS, n_power_iter=20),
                    estimate_tcc_gamma(problem, problem.x_truth, *DESK_TCC_ARGS)[0])
        assert repr(estimates(desk_batched)) == repr(estimates(desk_schlieren))


class TestStackedForward:
    """A record's one forward call holds each block's ``block_forward`` bits."""

    def test_schlieren_makes_one_product_per_batch(self, desk_schlieren,
                                                   monkeypatch):
        x = desk_schlieren.x_truth.values + 0.01
        want = np.concatenate([desk_schlieren.block_forward(i, x).ravel()
                               for i in range(desk_schlieren.n_blocks)])
        batch_calls = _count_projections(monkeypatch)
        got = desk_schlieren.stacked_forward(x)
        assert batch_calls == list(range(desk_schlieren.n_blocks))
        assert got.shape == want.shape == (30 * 45,)
        assert got.tobytes() == want.tobytes()

    def test_default_concatenates_the_blocks(self, rng):
        problem = build_benchmark(11, 0.9, 1.1, 0.05, n_blocks=3, seed=4)
        x = rng.standard_normal(11)
        want = np.concatenate([problem.block_forward(i, x) for i in range(3)])
        assert problem.stacked_forward(x).tobytes() == want.tobytes()
