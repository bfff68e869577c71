import math

import numpy as np
import pytest

from bsgd.geometry import (
    DualVector,
    _duality_map_raw,
    _duality_map_rows,
    _lr_norm_raw,
    _signed_power,
    GeometryParams,
    GridVector,
    bregman_distance,
    conjugate_exponent,
    duality_map,
    inverse_duality_map,
    lr_norm,
    pairing,
    smoothness_constant,
)

EXPONENT_GRID = [(1.1, 2.0), (1.1, 1.1), (1.5, 2.0), (1.5, 1.5),
                 (2.0, 2.0), (3.0, 2.0), (3.0, 3.0)]


def geo(r, p):
    return GeometryParams(r=r, p=p, r_star=conjugate_exponent(r),
                          p_star=conjugate_exponent(p))


class TestLrNorm:
    def test_zero_vector(self):
        assert lr_norm(GridVector(np.zeros((3, 4))), 1.5) == 0.0

    def test_pythagorean(self):
        assert lr_norm(GridVector([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-15)

    def test_high_precision_oracle(self):
        # (1 + 2^1.5 + 3^1.5)^(2/3), evaluated with 60-digit arithmetic
        expected = 4.3346228721136097
        assert lr_norm(GridVector([1.0, -2.0, 3.0]), 1.5) == pytest.approx(
            expected, rel=1e-15)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(ValueError, match="finite"):
            lr_norm(GridVector([1.0, -7.0, 3.0]), math.inf)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            GridVector([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            lr_norm(np.array([1.0, np.inf]), 2.0)

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            lr_norm(GridVector([1.0]), 1.0)


class TestDualityMap:
    def test_hilbert_identity(self):
        g = geo(2.0, 2.0)
        v = GridVector([0.5, -1.2])
        np.testing.assert_allclose(duality_map(v, g).values, v.values, rtol=0,
                                   atol=0)

    def test_zero_maps_to_zero(self):
        for r, p in EXPONENT_GRID:
            out = duality_map(GridVector(np.zeros(4)), geo(r, p))
            assert np.all(out.values == 0.0)

    def test_pairing_identity_oracle(self):
        g = geo(1.5, 2.0)
        v = GridVector([1.0, -2.0])
        jv = duality_map(v, g)
        norm_sq = (abs(1.0) ** 1.5 + abs(-2.0) ** 1.5) ** (2.0 / 1.5)
        assert pairing(jv, v) == pytest.approx(norm_sq, rel=1e-12)

    def test_pairing_and_dual_norm_identities(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(50):
                v = GridVector(rng.standard_normal(8) * rng.uniform(0.1, 10))
                jv = duality_map(v, g)
                nv = lr_norm(v, r)
                assert pairing(jv, v) == pytest.approx(nv**p, rel=1e-10)
                assert lr_norm(jv, g.r_star) == pytest.approx(
                    nv ** (p - 1.0), rel=1e-10)

    def test_monotone(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(100):
                x = GridVector(rng.standard_normal(6))
                y = GridVector(rng.standard_normal(6))
                gap = pairing(duality_map(x, g) - duality_map(y, g), x - y)
                assert gap >= -1e-12

    @pytest.mark.parametrize("r", [1.5, 2.0, 11.0, 10.999999999999991])
    def test_r_equal_p_keeps_the_bytes_of_the_norm_formula(self, rng, r):
        def with_norm(vals):
            # the map with its norm always taken
            norm = _lr_norm_raw(vals.ravel(), r)
            if norm == 0.0:
                return np.zeros_like(vals)
            return norm ** 0.0 * _signed_power(vals, r - 1.0)

        edge = 2.0 ** (-1000.0 / r)
        rows = [rng.standard_normal(40) * 10.0 ** rng.uniform(-40, 40)
                for _ in range(30)]
        rows += [np.zeros(5), np.full(5, 1e-300), np.full(3, edge),
                 np.full(3, np.nextafter(edge, 0.0)), np.array([1e-320, -0.0]),
                 np.array([1.0, np.nan, -2.0]), np.array([np.inf, -1.0, 0.0]),
                 np.array([-np.inf, np.nan, 0.0])]
        padded = np.zeros((len(rows), max(v.size for v in rows)))
        for s, v in enumerate(rows):
            padded[s, :v.size] = v
        with np.errstate(all="ignore"):
            by_row = _duality_map_rows(padded, r)
            for s, v in enumerate(rows):
                want = with_norm(v)
                nan = np.isnan(want)
                for got in (_duality_map_raw(v, r, r), by_row[s, :v.size]):
                    assert np.array_equal(np.isnan(got), nan)
                    assert got[~nan].tobytes() == want[~nan].tobytes()
                assert not by_row[s, v.size:].any()


class TestInverseDualityMap:
    def test_zero(self):
        g = geo(1.5, 2.0)
        assert np.all(inverse_duality_map(DualVector(np.zeros(3)), g).values == 0)

    def test_hilbert_inverse_is_identity(self):
        g = geo(2.0, 2.0)
        w = DualVector([1.0, -2.0, 0.25])
        np.testing.assert_allclose(inverse_duality_map(w, g).values, w.values)

    def test_composition_identity(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(100):
                v = GridVector(rng.standard_normal(7) * rng.uniform(1e-2, 1e2))
                back = inverse_duality_map(duality_map(v, g), g)
                np.testing.assert_allclose(back.values, v.values, rtol=1e-10)


class TestBregmanDistance:
    def test_identical_inputs(self):
        g = geo(1.5, 2.0)
        z = GridVector([1.0, 2.0, 3.0])
        assert bregman_distance(z, z, g) == 0.0

    def test_hilbert_half_squared_norm(self, rng):
        g = geo(2.0, 2.0)
        for _ in range(50):
            z = GridVector(rng.standard_normal(5))
            w = GridVector(rng.standard_normal(5))
            expected = 0.5 * np.sum((z.values - w.values) ** 2)
            assert bregman_distance(z, w, g) == pytest.approx(expected, abs=1e-12)

    def test_direct_formula_oracle(self):
        g = geo(1.5, 2.0)
        # frozen 60-digit direct evaluations of the defining formula
        assert bregman_distance(GridVector([1.0, 0.0]), GridVector([0.0, 1.0]),
                                g) == pytest.approx(1.0, rel=1e-14)
        assert bregman_distance(GridVector([1.0, -2.0]),
                                GridVector([0.5, 1.0]),
                                g) == pytest.approx(5.173348843537535, rel=1e-14)

    def test_shape_mismatch(self):
        g = geo(2.0, 2.0)
        with pytest.raises(ValueError, match="shape"):
            bregman_distance(GridVector([1.0, 2.0]), GridVector([1.0]), g)

    def test_three_point_identity(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(60):
                z, v, w = (GridVector(rng.standard_normal(6)) for _ in range(3))
                lhs = bregman_distance(z, w, g)
                rhs = bregman_distance(z, v, g) + bregman_distance(v, w, g) \
                    + pairing(duality_map(v, g) - duality_map(z, g), w - v)
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nonnegative_and_definite(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(100):
                z = GridVector(rng.standard_normal(6))
                w = GridVector(rng.standard_normal(6))
                assert bregman_distance(z, w, g) >= -1e-12
            z = GridVector(rng.standard_normal(6))
            w = GridVector(z.values + 1e-9 * rng.standard_normal(6))
            if bregman_distance(z, w, g) < 1e-12:
                assert lr_norm(w - z, 2.0) < 1e-5

    def test_convexity_lower_bound_fitted(self, rng):
        # fit the constant on a calibration sample, then assert on fresh data;
        # the halved minimum absorbs the sampling noise of the min statistic
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            power = max(r, 2.0)
            calib = np.random.default_rng(7)
            ratios = []
            for _ in range(2000):
                z = GridVector(calib.standard_normal(6))
                w = GridVector(calib.standard_normal(6))
                sep = lr_norm(w - z, r)
                if sep > 1e-8:
                    ratios.append(bregman_distance(z, w, g) / sep**power)
            c_fit = 0.5 * min(ratios)
            assert c_fit > 0
            for _ in range(500):
                z = GridVector(rng.standard_normal(6))
                w = GridVector(rng.standard_normal(6))
                sep = lr_norm(w - z, r)
                if sep > 1e-8:
                    assert bregman_distance(z, w, g) >= c_fit * sep**power - 1e-12

    def test_coercivity(self, rng):
        for r, p in EXPONENT_GRID:
            g = geo(r, p)
            for _ in range(100):
                x = GridVector(rng.standard_normal(6) * rng.uniform(0.1, 20))
                truth = GridVector(rng.standard_normal(6))
                cap = bregman_distance(x, truth, g)
                bound = (2.0 * g.p_star) ** p * max(lr_norm(truth, r) ** p, cap)
                assert lr_norm(x, r) ** p <= bound + 1e-9 * (1.0 + bound)


class TestGeometryParams:
    def test_conjugacy_validated(self):
        with pytest.raises(ValueError, match="conjugate"):
            GeometryParams(r=1.5, p=2.0, r_star=2.9, p_star=2.0)
        with pytest.raises(ValueError, match="exceed 1"):
            GeometryParams(r=1.0, p=2.0, r_star=math.inf, p_star=2.0)

    @pytest.mark.parametrize("e", [math.inf, math.nan])
    def test_nonfinite_exponents_rejected(self, e):
        with pytest.raises(ValueError, match="finite"):
            conjugate_exponent(e)
        with pytest.raises(ValueError, match="finite"):
            GeometryParams.for_lebesgue(e, e)
        with pytest.raises(ValueError, match="finite"):
            GeometryParams(r=2.0, p=2.0, r_star=e, p_star=2.0)

    def test_practice_mode_flagged(self):
        g = GeometryParams.for_lebesgue(1.5, 1.5)
        assert g.G_pstar is None

    def test_known_constants(self):
        assert smoothness_constant(2.0, 2.0) == 1.0
        assert smoothness_constant(3.0, 2.0) == pytest.approx(2.0)
        assert smoothness_constant(1.5, 1.5) is not None

    @pytest.mark.parametrize("s", [1.05, 1.2, 1.5, 1.95])
    def test_separable_constant_is_the_dense_grid_maximum(self, s):
        # G = s * max_t D_s(t, t + 1); the maximum lies in (-0.5, 0) for s < 2
        t = np.linspace(-0.5, 0.0, 500_001)
        d = np.abs(t) ** s / conjugate_exponent(s) + np.abs(t + 1.0) ** s / s \
            - np.sign(t) * np.abs(t) ** (s - 1.0) * (t + 1.0)
        peak = smoothness_constant(s, s) / s
        assert d.max() <= peak <= d.max() * (1.0 + 1e-9)


class TestVectors:
    def test_immutability(self):
        v = GridVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_arithmetic(self):
        a = GridVector([1.0, 2.0])
        b = GridVector([0.5, -1.0])
        np.testing.assert_allclose((a + b).values, [1.5, 1.0])
        np.testing.assert_allclose((a - b).values, [0.5, 3.0])
        np.testing.assert_allclose((2.0 * a).values, [2.0, 4.0])
        np.testing.assert_allclose((-a).values, [-1.0, -2.0])

    def test_primal_dual_not_mixable(self):
        with pytest.raises(TypeError):
            GridVector([1.0]) + DualVector([1.0])

    def test_shape_product_matches_size(self):
        v = GridVector(np.zeros((3, 4)))
        assert v.size == 12 and int(np.prod(v.shape)) == v.size


@pytest.mark.parametrize("n", [1, 40, 2_790, 12_100])
def test_r2_norm_is_bitwise_numpy_norm(n):
    rng = np.random.default_rng(n)
    for scale in (1e-200, 1e-3, 1.0, 1e150):
        v = scale * rng.standard_normal(n)
        assert repr(_lr_norm_raw(v, 2.0)) == repr(float(np.linalg.norm(v)))
    if n == 12_100:
        image = GridVector(v.reshape(110, 110))
        assert repr(lr_norm(image, 2.0)) == repr(float(np.linalg.norm(image.values)))


def _masked_signed_power(vals, expnt):
    """The masked formula: powers of the nonzero entries only."""
    out = np.zeros_like(vals)
    nz = vals != 0.0
    out[nz] = np.sign(vals[nz]) * np.exp(expnt * np.log(np.abs(vals[nz])))
    return out


@pytest.mark.parametrize("expnt", [0.1, 0.5, 9.999999999999991])
def test_signed_power_without_zeros_keeps_the_masked_bytes(expnt):
    # Inputs from np.ldexp on uniforms, so they do not depend on the SIMD
    # dispatch level: mantissas in [0.5, 1), binary exponents from the
    # subnormal range up to near overflow.
    rng = np.random.default_rng(15)
    n_max, n_off = 70, 9
    size = 2 * (n_max + n_off)
    mant = np.ldexp(1.0 + rng.random(size), -1) * rng.choice([-1.0, 1.0], size)
    plain = np.ldexp(mant, rng.integers(-1074, 1000, size))
    special = plain.copy()
    special[::7] = np.nan
    special[3::11] = np.inf
    special[5::13] = -np.inf
    special[1::5] = np.ldexp(mant[1::5], -1060)  # subnormal
    zeros = special.copy()
    zeros[2::9] = 0.0
    zeros[4::17] = -0.0
    assert plain.all() and special.all() and not zeros.all()
    with np.errstate(all="ignore"):
        for buf in (plain, special, zeros):
            for n in range(1, n_max + 1):
                for off in range(n_off):
                    for vals in (buf[off:off + n], buf[off:off + 2 * n:2]):
                        got = _signed_power(vals, expnt)
                        want = _masked_signed_power(vals, expnt)
                        assert got.tobytes() == want.tobytes(), (n, off)
