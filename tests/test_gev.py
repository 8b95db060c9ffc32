"""Distribution-level tests: density, CDF, quantiles, sampling, return levels."""

import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from glme.gev import (
    GevParams,
    ReturnSpec,
    gev_cdf,
    gev_pdf,
    gev_quantile,
    gev_sample,
    gev_support,
    return_level,
)

from _oracles import gev_pdf_direct, gev_pdf_integral, quantile_by_bisection

XI_GRID = (-0.45, -0.2, 0.0, 0.2, 0.45)


class TestParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            GevParams(0.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="scale"):
            GevParams(0.0, -2.0, 0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GevParams(math.nan, 1.0, 0.0)

    def test_return_spec_derives_y(self):
        spec = ReturnSpec(100.0)
        assert spec.y == pytest.approx(-math.log(0.99), rel=1e-15)
        with pytest.raises(ValueError):
            ReturnSpec(1.0)


class TestPdf:
    def test_value_at_location(self):
        # base term is exactly 1 at x = mu, leaving exp(-1)/sigma
        assert gev_pdf(GevParams(0.0, 1.0, -0.3), 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_zero_outside_support(self):
        params = GevParams(0.0, 2.0, 0.4)  # upper endpoint at 5
        assert gev_pdf(params, 5.0) == 0.0
        assert gev_pdf(params, 7.3) == 0.0
        heavy = GevParams(0.0, 2.0, -0.4)  # lower endpoint at -5
        assert gev_pdf(heavy, -5.0) == 0.0
        assert gev_pdf(heavy, -6.1) == 0.0

    @pytest.mark.parametrize("xi", XI_GRID)
    def test_integrates_to_one(self, xi):
        params = GevParams(100.0, 30.0, xi)
        val, _ = gev_pdf_integral(100.0, 30.0, xi)
        assert val == pytest.approx(1.0, abs=1e-8)
        # and our vectorized pdf agrees with the direct scalar formula
        xs = np.linspace(*_probe_interval(params), 41)
        ours = gev_pdf(params, xs)
        direct = [gev_pdf_direct(100.0, 30.0, xi, t) for t in xs]
        np.testing.assert_allclose(ours, direct, rtol=1e-12, atol=1e-15)

    def test_gumbel_continuity(self):
        xs = np.linspace(-4.0, 8.0, 60)
        gumbel = gev_pdf(GevParams(0.0, 1.0, 0.0), xs)
        for xi in (1e-6, -1e-6):
            near = gev_pdf(GevParams(0.0, 1.0, xi), xs)
            assert np.max(np.abs(near - gumbel)) < 1e-6

    def test_rejects_non_finite_x(self):
        with pytest.raises(ValueError, match="finite"):
            gev_pdf(GevParams(0.0, 1.0, 0.1), math.inf)


class TestCdf:
    @pytest.mark.parametrize("xi", XI_GRID)
    def test_value_at_location(self, xi):
        assert gev_cdf(GevParams(0.0, 1.0, xi), 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    @pytest.mark.parametrize("xi", XI_GRID)
    def test_quantile_round_trip(self, xi):
        params = GevParams(10.0, 3.0, xi)
        for p in (0.01, 0.5, 0.99):
            assert gev_cdf(params, gev_quantile(params, p)) == pytest.approx(p, abs=1e-12)

    def test_clamps_at_bounded_endpoint(self):
        params = GevParams(0.0, 1.0, 0.1)
        assert gev_cdf(params, 10.0) == 1.0
        assert gev_cdf(params, 11.0) == 1.0
        heavy = GevParams(0.0, 1.0, -0.1)
        assert gev_cdf(heavy, -10.0) == 0.0
        assert gev_cdf(heavy, -12.0) == 0.0

    def test_monotone(self):
        params = GevParams(0.0, 2.0, -0.3)
        xs = np.linspace(-20.0, 60.0, 200)
        f = gev_cdf(params, xs)
        assert np.all(np.diff(f) >= 0)


class TestGumbelBand:
    """Density, CDF and support switch to the Gumbel form only at xi == 0,
    so nothing jumps where |xi| crosses XI_EPS = 1e-6."""

    XS = np.linspace(-3.0, 8.0, 201)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("fn", [gev_pdf, gev_cdf], ids=["pdf", "cdf"])
    def test_continuous_across_band_edge(self, fn, sign):
        inner = fn(GevParams(0.0, 1.0, sign * 0.999e-6), self.XS)
        outer = fn(GevParams(0.0, 1.0, sign * 1.001e-6), self.XS)
        assert np.max(np.abs(outer - inner)) < 1e-8

    @pytest.mark.parametrize("xi", [5e-7, -5e-7, 1e-12])
    def test_support_is_finite_inside_band(self, xi):
        lo, hi = gev_support(GevParams(0.0, 1.0, xi))
        assert (hi if xi > 0 else lo) == pytest.approx(1.0 / xi)
        assert math.isinf(lo if xi > 0 else hi)


class TestQuantile:
    def test_heavy_tail_high_quantile_matches_reported_fit(self, flood):
        # 0.99 quantile of the L-moment fit of the flood series
        q = gev_quantile(GevParams(129.89, 120.70, -0.377), 0.99)
        assert q == pytest.approx(1626.0, rel=5e-3)

    def test_gumbel_limit_at_unit_neglog(self):
        # -log p = 1 makes the quantile collapse to mu
        assert gev_quantile(GevParams(7.0, 3.0, 0.0), math.exp(-1.0)) == pytest.approx(
            7.0, abs=1e-12
        )

    def test_against_bisection_oracle(self):
        params = GevParams(100.0, 30.0, 0.2)
        got = gev_quantile(params, 0.99)
        lo, hi = 100.0, 100.0 + 30.0 / 0.2 - 1e-9
        want = quantile_by_bisection(lambda t: gev_cdf(params, t), 0.99, lo, hi, tol=1e-12)
        assert got == pytest.approx(want, abs=1e-10)

    def test_strictly_increasing(self):
        params = GevParams(0.0, 1.0, -0.45)
        ps = np.linspace(0.01, 0.99, 99)
        qs = gev_quantile(params, ps)
        assert np.all(np.diff(qs) > 0)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            gev_quantile(GevParams(0.0, 1.0, 0.1), p)


class TestSample:
    def test_deterministic(self):
        params = GevParams(100.0, 30.0, -0.2)
        a = gev_sample(params, 50, seed=11)
        b = gev_sample(params, 50, seed=11)
        np.testing.assert_array_equal(a, b)
        c = gev_sample(params, 50, seed=12)
        assert not np.array_equal(a, c)

    def test_mean_matches_population(self):
        mu, sigma, xi = 100.0, 30.0, -0.2
        n = 100_000
        x = gev_sample(GevParams(mu, sigma, xi), n, seed=4)
        pop_mean = mu + sigma * (1.0 - gamma_fn(1.0 + xi)) / xi
        pop_var = sigma**2 * (gamma_fn(1.0 + 2.0 * xi) - gamma_fn(1.0 + xi) ** 2) / xi**2
        assert abs(x.mean() - pop_mean) < 3.0 * math.sqrt(pop_var / n)

    def test_kolmogorov_smirnov(self):
        params = GevParams(100.0, 30.0, -0.2)
        n = 10_000
        x = np.sort(gev_sample(params, n, seed=9))
        f = gev_cdf(params, x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)  # 5% critical value

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            gev_sample(GevParams(0.0, 1.0, 0.0), 0, seed=1)


class TestReturnLevel:
    def test_heavy_tail_reported_fits(self, flood):
        # maximum-likelihood fit of the flood series, T = 100
        assert return_level(GevParams(119.17, 102.09, -0.608), 100.0) == pytest.approx(
            2709.0, rel=5e-3
        )
        # penalty-weighted fit, T = 200
        assert return_level(GevParams(116.99, 109.75, -0.453), 200.0) == pytest.approx(
            2546.0, rel=5e-3
        )

    def test_gumbel_two_year_level_is_median(self):
        mu, sigma = 12.0, 5.0
        want = mu - sigma * math.log(math.log(2.0))
        assert return_level(GevParams(mu, sigma, 0.0), 2.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("xi", XI_GRID)
    def test_equals_quantile(self, xi):
        params = GevParams(50.0, 10.0, xi)
        for T in (2.0, 10.0, 100.0, 1000.0):
            assert return_level(params, T) == pytest.approx(
                gev_quantile(params, 1.0 - 1.0 / T), rel=1e-12
            )

    def test_strictly_increasing_in_period(self):
        params = GevParams(100.0, 30.0, -0.3)
        ts = np.linspace(1.5, 500.0, 80)
        levels = [return_level(params, T) for T in ts]
        assert np.all(np.diff(levels) > 0)

    @pytest.mark.parametrize("T", [1.0, 0.5, -3.0])
    def test_rejects_bad_period(self, T):
        with pytest.raises(ValueError):
            return_level(GevParams(0.0, 1.0, 0.1), T)


def _probe_interval(params):
    lo, hi = gev_support(params)
    if math.isinf(lo):
        lo = gev_quantile(params, 1e-6)
    else:
        lo += 1e-9
    if math.isinf(hi):
        hi = gev_quantile(params, 1.0 - 1e-6)
    else:
        hi -= 1e-9
    return lo, hi
