import numpy as np
import pytest

from bsgd.geometry import GridVector
from bsgd.noise import (
    add_gaussian,
    add_salt_pepper,
    apply_noise,
    noise_level,
)


def blocks_from(rng, n_blocks=4, size=50, scale=1.0):
    return [GridVector(scale * rng.standard_normal(size)) for _ in range(n_blocks)]


def stacked_diff(noisy, exact):
    return np.concatenate([(a - b).values.ravel() for a, b in zip(noisy, exact)])


class TestSpec:
    """apply_noise passes its parameters on; each generator checks its own."""

    def test_valid_kinds_only(self, rng):
        with pytest.raises(ValueError, match="unknown noise kind 'poisson'"):
            apply_noise(blocks_from(rng), "poisson", 0.1, 0.1, 0)

    def test_kappa_required_in_range(self, rng):
        y = blocks_from(rng)
        with pytest.raises(ValueError, match="fraction"):
            apply_noise(y, "salt_pepper", 0.0, 0.0, 0)
        with pytest.raises(ValueError, match="fraction"):
            apply_noise(y, "salt_pepper", 0.1, 1.5, 0)

    def test_negative_magnitude_rejected(self, rng):
        y = blocks_from(rng)
        with pytest.raises(ValueError, match="magnitude"):
            apply_noise(y, "gaussian", -1.0, 0.0, 0)


class TestGaussian:
    def test_zero_epsilon_is_identity(self, rng):
        y = blocks_from(rng)
        out = add_gaussian(y, 0.0, seed=5)
        for a, b in zip(out, y):
            assert np.array_equal(a.values, b.values)

    def test_deterministic(self, rng):
        y = blocks_from(rng)
        a = add_gaussian(y, 0.05, seed=42)
        b = add_gaussian(y, 0.05, seed=42)
        for x1, x2 in zip(a, b):
            assert np.array_equal(x1.values, x2.values)

    def test_doubling_epsilon_doubles_perturbation(self, rng):
        # the injected noise is exactly linear in epsilon; recovering it by
        # subtraction reintroduces one rounding of the data, so compare at
        # ulp scale
        y = blocks_from(rng)
        d1 = stacked_diff(add_gaussian(y, 0.01, seed=3), y)
        d2 = stacked_diff(add_gaussian(y, 0.02, seed=3), y)
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12, atol=1e-15)

    def test_five_percent_relative_scale(self, rng):
        # epsilon = 5e-2: perturbation scale is epsilon * sup-norm of the data
        y = blocks_from(rng, scale=3.0)
        sup = max(np.max(np.abs(b.values)) for b in y)
        diff = stacked_diff(add_gaussian(y, 5e-2, seed=1), y)
        assert np.max(np.abs(diff)) < 6 * 5e-2 * sup  # gaussians rarely exceed 6 sigma

    def test_empirical_unit_variance(self):
        rng = np.random.default_rng(0)
        y = [GridVector(rng.standard_normal(100_000))]
        eps = 1e-2
        sup = np.max(np.abs(y[0].values))
        diff = stacked_diff(add_gaussian(y, eps, seed=11), y)
        std = np.std(diff / (eps * sup))
        assert 0.99 <= std <= 1.01


class TestSaltPepper:
    def test_corrupted_fraction(self):
        rng = np.random.default_rng(1)
        y = [GridVector(rng.standard_normal(60_000)),
             GridVector(rng.standard_normal(60_000))]
        out = add_salt_pepper(y, kappa=0.1, seed=7)
        changed = stacked_diff(out, y) != 0.0
        frac = changed.mean()
        assert 0.09 <= frac <= 0.11

    def test_constant_data_two_values(self):
        y = [GridVector(np.full(5000, 2.5))]
        out = add_salt_pepper(y, kappa=0.5, seed=3)
        assert set(np.unique(out[0].values)) <= {2.5}
        # max = min = 2.5 for constant data, so corrupted entries keep the value
        y2 = [GridVector(np.concatenate([np.full(5000, 1.0), np.full(5000, -1.0)]))]
        out2 = add_salt_pepper(y2, kappa=0.9, seed=3)
        assert set(np.unique(out2[0].values)) <= {1.0, -1.0}

    def test_same_positions_same_seed(self, rng):
        y = blocks_from(rng)
        a = add_salt_pepper(y, kappa=0.2, seed=9)
        b = add_salt_pepper(y, kappa=0.2, seed=9)
        for x1, x2 in zip(a, b):
            assert np.array_equal(x1.values, x2.values)

    def test_extremes_are_global(self, rng):
        y = blocks_from(rng, n_blocks=3)
        stacked = np.concatenate([b.values for b in y])
        out = add_salt_pepper(y, kappa=0.6, seed=2)
        changed = stacked_diff(out, y)
        new_vals = np.concatenate([b.values for b in out])[changed != 0.0]
        assert set(np.unique(new_vals)) <= {stacked.max(), stacked.min()}


class TestNoiseLevel:
    def test_identical_blocks_zero(self, rng):
        y = blocks_from(rng)
        per_block, worst = noise_level(y, y, 2.0)
        assert per_block == [0.0] * len(y) and worst == 0.0

    def test_pythagorean_single_block(self):
        exact = [GridVector([0.0, 0.0])]
        noisy = [GridVector([3.0, 4.0])]
        per_block, worst = noise_level(exact, noisy, 2.0)
        assert worst == pytest.approx(5.0)

    def test_matches_direct_summation_oracle(self, rng):
        exact = blocks_from(rng)
        noisy = add_gaussian(exact, 0.1, seed=8)
        r = 1.5
        per_block, worst = noise_level(exact, noisy, r)
        for d, (a, b) in zip(per_block, zip(noisy, exact)):
            direct = float(np.sum(np.abs((a - b).values) ** r)) ** (1.0 / r)
            assert d == pytest.approx(direct, rel=1e-12)
        assert worst == max(per_block)

    def test_scaling_linear_in_epsilon(self, rng):
        exact = blocks_from(rng)
        _, d1 = noise_level(exact, add_gaussian(exact, 0.01, seed=4), 2.0)
        _, d2 = noise_level(exact, add_gaussian(exact, 0.03, seed=4), 2.0)
        assert d2 == pytest.approx(3.0 * d1, rel=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            noise_level([GridVector([1.0, 2.0])], [GridVector([1.0])], 2.0)


class TestDispatch:
    def test_none_kind_identity(self, rng):
        y = blocks_from(rng)
        out = apply_noise(y, "none", 0.0, 0.0, 0)
        for a, b in zip(out, y):
            assert a is b

    def test_dispatch_matches_direct_calls(self, rng):
        y = blocks_from(rng)
        direct = add_gaussian(y, 0.02, 31)
        via = apply_noise(y, "gaussian", 0.02, 0.0, 31)
        for a, b in zip(direct, via):
            assert np.array_equal(a.values, b.values)
