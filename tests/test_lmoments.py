"""L-moment machinery: sample estimators, population values, covariance, distance."""

import inspect
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from glme.errors import DegenerateDataError, SampleSizeError
from glme.estimators import _GLME_GRID, _XI_HI, _XI_LO
from glme.gev import XI_EPS, GevParams, gev_sample
from glme.lmoments import (
    _GUMBEL_PWM_ZETA,
    COV_MIN_N,
    GUMBEL_LMOMENTS,
    CovMatrix3,
    _bootstrap_pwm_zeta,
    _exact_cov_matrix,
    _lmoment_coefs,
    _lmoments_from_sorted,
    _pwm_u_statistic_cov,
    _regularize,
    gev_population_lmoments,
    gld,
    gumbel_lmoment_cov,
    gumbel_population_lmoments,
    lmoment_cov,
    sample_lmoments,
)

from _oracles import (
    exact_cov_matrix_loops,
    gev_lmoment_coefs_reference,
    gev_population_lmoments_quadrature,
    gumbel_lmoment_cov_bootstrap,
    gumbel_max_cov_quadrature,
    lmoment_cov_bootstrap,
    lmoment_cov_enumerated,
    lmoments_brute_force,
)


class TestSampleLmoments:
    def test_tiny_sample_by_hand(self):
        lm = sample_lmoments([1.0, 2.0, 3.0])
        assert lm.l1 == pytest.approx(2.0, abs=1e-15)
        assert lm.l2 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert lm.l3 == pytest.approx(0.0, abs=1e-15)

    def test_constant_sample(self):
        lm = sample_lmoments([5.5] * 8)
        assert (lm.l1, lm.l2, lm.l3) == (5.5, 0.0, 0.0)

    def test_symmetric_sample_kills_l3(self):
        rng = np.random.default_rng(3)
        half = rng.normal(size=200)
        x = np.concatenate([7.0 + half, 7.0 - half])
        assert abs(sample_lmoments(x).l3) < 1e-12

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(trial)
        n = rng.integers(4, 13)
        x = rng.exponential(size=n) * 10.0
        lm = sample_lmoments(x, order=4)
        want = lmoments_brute_force(x, order=4)
        np.testing.assert_allclose([lm.l1, lm.l2, lm.l3, lm.l4], want, rtol=0, atol=1e-12)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.gumbel(size=60)
        a, b = 3.5, -12.0
        base = sample_lmoments(x)
        scaled = sample_lmoments(a * x + b)
        assert scaled.l1 == pytest.approx(a * base.l1 + b, rel=1e-12)
        assert scaled.l2 == pytest.approx(a * base.l2, rel=1e-12)
        assert scaled.l3 == pytest.approx(a * base.l3, rel=1e-12, abs=1e-14)

    def test_l2_nonnegative_and_ratio_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            x = rng.standard_t(3, size=rng.integers(5, 40))
            lm = sample_lmoments(x)
            assert lm.l2 >= 0
            assert abs(lm.l3) < lm.l2

    def test_order_four_only_on_request(self):
        x = np.arange(10.0)
        assert sample_lmoments(x).l4 is None
        assert sample_lmoments(x, order=4).l4 is not None

    def test_input_errors(self):
        with pytest.raises(ValueError, match="at least"):
            sample_lmoments([1.0, 2.0], order=3)
        with pytest.raises(ValueError, match="order"):
            sample_lmoments(np.arange(10.0), order=5)
        with pytest.raises(ValueError, match="finite"):
            sample_lmoments([1.0, math.nan, 2.0])


class TestPopulationLmoments:
    def test_gumbel_constants_match_quadrature(self):
        want = gev_population_lmoments_quadrature(0.0, 1.0, 0.0)
        np.testing.assert_allclose(GUMBEL_LMOMENTS, want, atol=5e-8)
        # the closed forms behind the frozen constants
        assert GUMBEL_LMOMENTS[1] == pytest.approx(math.log(2.0), rel=1e-15)
        assert GUMBEL_LMOMENTS[2] == pytest.approx(
            2.0 * math.log(3.0) - 3.0 * math.log(2.0), rel=1e-15
        )

    @pytest.mark.parametrize("xi", [-0.45, -0.2, 0.1, 0.45])
    def test_matches_quadrature(self, xi):
        lm = gev_population_lmoments(GevParams(0.0, 1.0, xi))
        want = gev_population_lmoments_quadrature(0.0, 1.0, xi)
        np.testing.assert_allclose(lm.as_array(), want, rtol=1e-6, atol=1e-7)

    def test_light_shape_mean(self):
        # lambda_1 = (1 - Gamma(1.1)) / 0.1 at (0, 1, 0.1)
        lm = gev_population_lmoments(GevParams(0.0, 1.0, 0.1))
        assert lm.l1 == pytest.approx(0.4864923, abs=1e-6)

    def test_matches_large_sample(self):
        params = GevParams(100.0, 30.0, -0.2)
        n, chunks = 1_000_000, 100
        x = gev_sample(params, n, seed=17)
        lm = sample_lmoments(x).as_array()
        pop = gev_population_lmoments(params).as_array()
        # chunk variance scales the 1/n variance of the full-sample estimate
        per_chunk = _lmoments_from_sorted(np.sort(x.reshape(chunks, -1), axis=1), 3)
        se = per_chunk.std(axis=0, ddof=1) / math.sqrt(chunks)
        assert np.all(np.abs(lm - pop) < 3.0 * se)

    def test_continuous_at_zero_shape(self):
        for xi in (1e-6, -1e-6):
            lm = gev_population_lmoments(GevParams(0.0, 1.0, xi)).as_array()
            assert np.max(np.abs(lm - np.array(GUMBEL_LMOMENTS))) < 1e-5

    def test_shape_domain(self):
        with pytest.raises(ValueError, match="xi > -1"):
            gev_population_lmoments(GevParams(0.0, 1.0, -1.0))


class TestCoefsAgainstScipyGamma:
    """``_lmoment_coefs`` computes Gamma(1 + xi) with ``math.gamma``;
    ``scipy.special.gamma`` is the oracle."""

    XI = np.concatenate([
        np.linspace(_XI_LO, _XI_HI, _GLME_GRID),
        [s * XI_EPS * (1.0 + d) for s in (-1.0, 1.0) for d in (-1e-3, 1e-3)],
        [-0.99, 0.99],
    ])

    def test_relative_error(self):
        got = np.array([_lmoment_coefs(xi) for xi in self.XI.tolist()])
        gumbel = np.abs(self.XI) < XI_EPS
        x = np.where(gumbel, 1.0, self.XI)
        g = gamma_fn(1.0 + x)
        e2 = np.expm1(-x * math.log(2.0))
        a2 = -e2 * g / x
        a3 = (2.0 * np.expm1(-x * math.log(3.0)) / e2 - 3.0) * a2
        ref = np.where(gumbel[:, None], GUMBEL_LMOMENTS, np.column_stack([(1.0 - g) / x, a2, a3]))
        np.testing.assert_allclose(got[:, 1], ref[:, 1], rtol=1e-14, atol=0.0)
        # a1 = (1 - g)/xi cancels as g nears 1 (xi near 0 and 1), so it is
        # checked through the gamma value it carries, g = 1 - xi a1
        np.testing.assert_allclose(np.where(gumbel, 1.0, 1.0 - x * got[:, 0]),
                                   np.where(gumbel, 1.0, g), rtol=1e-14, atol=0.0)
        # a3 = (2 r - 3) a2 with r near 3/2 cancels where tau3 crosses 0, so
        # it is checked against the size of its terms, 3 |a2|
        assert np.all(np.abs(got[:, 2] - ref[:, 2]) <= 1e-14 * 3.0 * np.abs(ref[:, 1]))
        assert np.all(got[gumbel] == GUMBEL_LMOMENTS)

    def test_scalar_and_array_agree(self):
        # the array form that the GLME profile's oracle keeps gives the
        # scalar coefficients bit for bit
        rows = gev_lmoment_coefs_reference(self.XI)
        scalars = np.array([_lmoment_coefs(xi) for xi in self.XI.tolist()])
        assert gev_lmoment_coefs_reference(-0.3).shape == (3,)
        np.testing.assert_array_equal(rows, scalars)


class TestGumbelPopulation:
    def test_equals_gev_at_standard_gumbel(self):
        assert gumbel_population_lmoments() == gev_population_lmoments(
            GevParams(0.0, 1.0, 0.0)
        )

    def test_l_skewness(self):
        lm = gumbel_population_lmoments()
        assert lm.t3 == pytest.approx(2.0 * math.log(3.0) / math.log(2.0) - 3.0, rel=1e-12)
        assert lm.t3 == pytest.approx(0.169925, abs=1e-6)


class TestLmomentCov:
    def test_deterministic(self):
        # repeatable and seed-free: the bootstrap is computed, not sampled
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 50, seed=1)
        a = lmoment_cov(x)
        b = lmoment_cov(x)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert list(inspect.signature(lmoment_cov).parameters) == ["x", "method"]

    def test_positive_diagonal_and_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=40)
        v = lmoment_cov(x)
        assert np.all(np.diag(v.entries) > 0)
        np.testing.assert_allclose(v.entries, v.entries.T, atol=1e-12)
        assert v.min_eigenvalue > 0

    def test_degenerate_and_small_inputs(self):
        with pytest.raises(DegenerateDataError):
            lmoment_cov([3.0] * 20)
        with pytest.raises(ValueError, match="at least 10"):
            lmoment_cov(np.arange(5.0))
        with pytest.raises(ValueError, match="method"):
            lmoment_cov(np.arange(20.0), method="jackknife")

    def test_small_samples_raise_the_typed_error(self):
        with pytest.raises(SampleSizeError, match="at least 10 values"):
            lmoment_cov(np.arange(9.0))
        with pytest.raises(SampleSizeError, match="n >= 10"):
            gumbel_lmoment_cov(9)
        assert lmoment_cov(np.arange(10.0)).entries.shape == (3, 3)

    def test_exact_estimator_is_calibrated(self):
        # mean of the closed-form estimate over many samples matches the
        # covariance of L-moment triples over independent samples
        params = GevParams(100.0, 30.0, -0.2)
        n = 50
        draws = np.stack([gev_sample(params, n, 90_000 + i) for i in range(4000)])
        oracle = np.cov(
            _lmoments_from_sorted(np.sort(draws, axis=1), 3), rowvar=False, ddof=1
        )
        acc = np.zeros((3, 3))
        m = 600
        for i in range(m):
            acc += lmoment_cov(gev_sample(params, n, i), method="exact").entries
        rel = np.abs(acc / m - oracle) / np.abs(oracle)
        assert rel.max() < 0.15

    def test_bootstrap_tracks_oracle_loosely(self):
        # the resampling estimator carries real finite-n bias for heavy
        # tails; in expectation it still tracks the oracle to ~1/3
        params = GevParams(100.0, 30.0, -0.2)
        n = 50
        draws = np.stack([gev_sample(params, n, 90_000 + i) for i in range(4000)])
        oracle = np.cov(
            _lmoments_from_sorted(np.sort(draws, axis=1), 3), rowvar=False, ddof=1
        )
        acc = np.zeros((3, 3))
        m = 300
        for i in range(m):
            acc += lmoment_cov(gev_sample(params, n, i)).entries
        rel = np.abs(acc / m - oracle) / np.abs(oracle)
        assert rel.max() < 0.35

    def test_exact_source_tag(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 66, seed=5)
        assert lmoment_cov(x, method="exact").source == "exact"

    def test_gumbel_cov_deterministic_and_positive(self):
        a = gumbel_lmoment_cov(40)
        b = gumbel_lmoment_cov(40)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert a.min_eigenvalue > 0


def _close(v, want, rel):
    """Every entry of ``v`` within ``rel`` times the largest entry of ``want``."""
    return np.max(np.abs(v - want)) <= rel * np.max(np.abs(want))


class TestBootstrapCov:
    """The exact bootstrap covariance: the Monte Carlo bootstrap's limit."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    def test_equals_full_enumeration(self, n, ties):
        # below COV_MIN_N, so the closed form is called directly
        x = np.random.default_rng(n).gumbel(size=n) * 3.0 + 10.0
        if ties:
            x = np.round(x)
        xs = np.sort(x)
        v = _pwm_u_statistic_cov(n, _bootstrap_pwm_zeta(xs))
        assert _close(v, lmoment_cov_enumerated(x), 1e-12)

    @pytest.mark.parametrize("n", [10, 30, 66])
    def test_matches_monte_carlo_bootstrap(self, n):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), n, seed=700 + n)
        boot, se = lmoment_cov_bootstrap(x, B=40_000, seed=n)
        v = lmoment_cov(x)
        assert v.source == "bootstrap"
        # every entry within 5 Monte Carlo standard errors of the bootstrap
        assert np.max(np.abs(v.entries - boot) / se) < 5.0

    def test_scale_and_shift(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 40, seed=3)
        v = lmoment_cov(x).entries
        assert _close(lmoment_cov(2.5 * x - 70.0).entries, 2.5 ** 2 * v, 1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(10, 201))
            x = rng.gumbel(size=n) * rng.uniform(0.1, 100.0)
            assert lmoment_cov(x).min_eigenvalue > 0, n
        for x in (np.array([0.0] * 10 + [1.0] * 6 + [2.0] * 4), np.round(rng.gumbel(size=60)),
                  np.array([0.0] * 19 + [1.0])):
            v = lmoment_cov(x)
            assert v.source == "bootstrap" and v.min_eigenvalue > 0

    def test_regularize_reports_the_smallest_eigenvalue(self):
        # unridged: the same matrix and the eigenvalue the positive-definite
        # check would compute; ridged: the ridged matrix's own eigenvalue
        v = _pwm_u_statistic_cov(30, _bootstrap_pwm_zeta(np.sort(gev_sample(
            GevParams(100.0, 30.0, -0.2), 30, seed=4))))
        same, ridged, smallest = _regularize(v)
        assert same is v and not ridged
        assert smallest == CovMatrix3(v, "bootstrap").min_eigenvalue
        singular = np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        out, ridged, smallest = _regularize(singular)
        assert ridged and 0 < smallest == CovMatrix3(out, "regularized").min_eigenvalue

    @pytest.mark.parametrize("entries,source", [
        (np.diag([1.0, 1.0, 1e-12]), "regularized"),  # ridged, then positive
        (np.diag([1.0, 1.0, -1.0]), None),  # ridged, still indefinite
        (np.zeros((3, 3)), None),  # not ridged (trace 0), singular
    ])
    def test_positive_definite_decision(self, monkeypatch, entries, source):
        monkeypatch.setattr("glme.lmoments._pwm_u_statistic_cov", lambda n, zeta: entries)
        x = np.arange(20.0)
        if source is None:
            with pytest.raises(DegenerateDataError, match="not positive definite"):
                lmoment_cov(x)
        else:
            assert lmoment_cov(x).source == source


def _loops_centred(xs):
    return exact_cov_matrix_loops(xs - xs.mean())


class TestExactCovMatrix:
    """The vectorised unbiased estimator equals its loop form on the same
    centred sample, and ignores a shift."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (100.0, 30.0)])
    def test_random_samples(self, seed, loc, scale):
        rng = np.random.default_rng(seed)
        xs = np.sort(loc + scale * rng.gumbel(size=int(rng.integers(10, 201))))
        assert _close(_exact_cov_matrix(xs), _loops_centred(xs), 1e-12)
        assert _close(_exact_cov_matrix(xs + 1000.0 * scale), _exact_cov_matrix(xs), 1e-12)

    def test_tied_sample(self):
        xs = np.sort(np.round(np.random.default_rng(4).gumbel(size=50)))
        assert _close(_exact_cov_matrix(xs), _loops_centred(xs), 1e-12)

    def test_flood_series(self, flood):
        xs = np.sort(flood.values)
        assert _close(_exact_cov_matrix(xs), _loops_centred(xs), 1e-12)


class TestGumbelLmomentCov:
    """The closed-form covariance of standard Gumbel sample L-moments."""

    @pytest.mark.parametrize("n", [10, 40, 66])
    def test_matches_parametric_bootstrap(self, n):
        boot, se = gumbel_lmoment_cov_bootstrap(n, B=40_000, seed=n)
        v = gumbel_lmoment_cov(n)
        assert v.source == "exact"
        # every entry within 5 Monte Carlo standard errors of the bootstrap
        assert np.max(np.abs(v.entries - boot) / se) < 5.0

    @pytest.mark.parametrize("k, m", list(_GUMBEL_PWM_ZETA))
    def test_constants_match_quadrature(self, k, m):
        a, b = k + 1, m + 1
        for c, zeta in enumerate(_GUMBEL_PWM_ZETA[k, m], start=1):
            assert abs(gumbel_max_cov_quadrature(a, b, c) / (a * b) - zeta) <= 1e-10

    def test_constants_with_known_closed_forms(self):
        # the variance of a Gumbel maximum is pi^2/6 whatever its size
        assert _GUMBEL_PWM_ZETA[0, 0][0] == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
        assert _GUMBEL_PWM_ZETA[1, 1][1] == pytest.approx(math.pi ** 2 / 24, rel=1e-15)
        assert _GUMBEL_PWM_ZETA[2, 2][2] == pytest.approx(math.pi ** 2 / 54, rel=1e-15)

    def test_positive_definite_for_every_size(self):
        for n in range(COV_MIN_N, 501):
            assert gumbel_lmoment_cov(n).min_eigenvalue > 0, n


class TestCovMatrix3:
    def test_validates_shape_and_symmetry(self):
        with pytest.raises(ValueError, match="3x3"):
            CovMatrix3(np.eye(2), "bootstrap")
        bad = np.eye(3)
        bad[0, 1] = 0.5
        # the same asymmetry on a matrix of tiny entries, as of data in small units
        tiny = 1e-14 * np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        for matrix in (bad, tiny):
            with pytest.raises(ValueError, match="symmetric"):
                CovMatrix3(matrix, "bootstrap")

    def test_log_det(self):
        v = CovMatrix3(np.diag([2.0, 3.0, 4.0]), "exact")
        assert v.log_det == pytest.approx(math.log(24.0), rel=1e-12)

    def test_solve_and_whiten_against_dense_algebra(self):
        x = np.random.default_rng(5).gumbel(size=40)
        v = lmoment_cov(x)
        r = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(v.solve(r), np.linalg.solve(v.entries, r), rtol=1e-12)
        np.testing.assert_allclose(v.solve(np.eye(3)), np.linalg.inv(v.entries), rtol=1e-12)
        w = v.whiten(r)
        assert w @ w == pytest.approx(r @ np.linalg.solve(v.entries, r), rel=1e-12)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            CovMatrix3(np.diag([1.0, -1.0, 1.0]), "exact").log_det


class TestGld:
    def test_zero_at_equal_triples(self):
        lm = sample_lmoments(np.arange(1.0, 21.0))
        v = CovMatrix3(np.eye(3), "exact")
        assert gld(lm, lm, v) == 0.0

    def test_identity_weight_is_squared_distance(self):
        a = sample_lmoments(np.arange(1.0, 21.0))
        shifted = type(a)(a.l1 + 1.0, a.l2 + 2.0, a.l3 + 3.0)
        v = CovMatrix3(np.eye(3), "exact")
        assert gld(shifted, a, v) == pytest.approx(14.0, rel=1e-12)

    def test_positive_and_symmetric(self):
        rng = np.random.default_rng(4)
        x = rng.exponential(size=30)
        v = lmoment_cov(x)
        a = sample_lmoments(x)
        b = sample_lmoments(x * 1.1 + 0.3)
        assert gld(a, b, v) > 0
        assert gld(a, b, v) == pytest.approx(gld(b, a, v), rel=1e-12)
