"""Covariate-model pipeline: regressions, transform, matching, return levels."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from glme.errors import ConvergenceError, DegenerateDataError, ShapeEdgeError, TransformError
from glme.estimators import _XI_LO, _feasible_scale, fit_lme
from glme.gev import GevParams, gev_sample, return_level
from glme.lmoments import GUMBEL_LMOMENTS, CovMatrix3, gumbel_lmoment_cov, sample_lmoments
from glme.methods import parse_method
from glme.nonstationary import (
    NsModel,
    _lmoment_system,
    _median,
    _newton,
    fit_ns_glme,
    fit_ns_lme,
    gev11_design,
    gumbel_transform,
    ns_gld,
    ns_return_level,
    ns_sample,
    robust_location_fit,
    scale_regression,
)
from glme.penalties import SENTINEL, AdaptiveBetaRequest, FixedBetaPenalty, FlatPenalty
from glme.simulation import SimCell
from test_methods import TREND_CORPUS


class TestNsModel:
    def test_scale_always_positive(self):
        model = NsModel([0.0, -5.0], [-3.0, -2.0], 0.1, gev11_design(10))
        assert np.all(model.sigma_values() > 0)

    def test_coefficient_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            NsModel([0.0], [1.0, 0.0], 0.1, gev11_design(5))

    def test_params_at_bounds(self):
        model = NsModel([0.0, 1.0], [0.0, 0.0], 0.1, gev11_design(5))
        assert model.params_at(4).mu == pytest.approx(5.0)
        with pytest.raises(ValueError, match="t_index"):
            model.params_at(5)


class TestRobustLocationFit:
    def test_noiseless_line_is_fixed_point(self):
        t = np.arange(1.0, 31.0)
        z = 2.0 + 0.5 * t
        coef = robust_location_fit(z, t.reshape(-1, 1))
        np.testing.assert_allclose(coef, [2.0, 0.5], atol=1e-10)

    def test_outlier_resistance(self):
        rng = np.random.default_rng(15)
        t = np.arange(1.0, 61.0)
        z = 10.0 + 0.3 * t + rng.normal(0.0, 1.0, size=60)
        z[45] += 400.0  # gross outlier
        X = t.reshape(-1, 1)
        robust = robust_location_fit(z, X)
        ols = robust_location_fit(z, X, method="ols")
        assert abs(robust[1] - 0.3) < abs(ols[1] - 0.3)

    def test_rank_deficiency(self):
        t = np.arange(1.0, 21.0)
        X = np.column_stack([t, 2.0 * t])
        with pytest.raises(ValueError, match="rank"):
            robust_location_fit(np.ones(20), X)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            robust_location_fit(np.arange(10.0), np.arange(10.0).reshape(-1, 1), method="huber")


class TestScaleRegression:
    def test_homoskedastic_slope_near_zero(self):
        X = np.linspace(1.0, 40.0, 2000).reshape(-1, 1)
        truth = NsModel([5.0, 0.2], [0.7, 0.0], -0.1, X)
        z = ns_sample(truth, seed=3)
        coef = scale_regression(z, X, np.array([5.0, 0.2]))
        design = np.column_stack([np.ones(z.size), X[:, 0]])
        resid = np.log(np.abs(z - design @ np.array([5.0, 0.2]))) - design @ coef
        se = math.sqrt(
            (resid @ resid / (z.size - 2)) / np.sum((X[:, 0] - X[:, 0].mean()) ** 2)
        )
        assert abs(coef[1]) < 2.0 * se

    def test_recovers_slope_on_wide_range(self):
        # the exponential scale trend spans dozens of orders of magnitude;
        # the log regression still sees it cleanly
        X = np.arange(1.0, 10_001.0).reshape(-1, 1)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.2, X)
        z = ns_sample(truth, seed=13)
        coef = scale_regression(z, X, np.array([0.0, -0.1]))
        assert coef[1] == pytest.approx(0.02, abs=0.005)

    def test_zero_residuals_rejected(self):
        t = np.arange(1.0, 21.0)
        z = 1.0 + 2.0 * t
        with pytest.raises(DegenerateDataError):
            scale_regression(z, t.reshape(-1, 1), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("z", [np.full(40, 3.0), 1.0 + 0.5 * np.arange(1.0, 41.0)],
                             ids=["constant", "linear"])
    def test_exact_location_fit_is_degenerate(self, z):
        # the location fit leaves rounding-level residuals, not exact zeros
        X = gev11_design(40)
        coef = robust_location_fit(z, X)
        eps = np.abs(z - coef[0] - coef[1] * X[:, 0])
        assert np.max(eps) <= 1e-12 * max(1.0, float(np.median(np.abs(z))))
        with pytest.raises(DegenerateDataError, match="residual"):
            scale_regression(z, X, coef)


class TestGumbelTransform:
    def test_true_parameters_give_gumbel_lmoments(self):
        X = np.zeros((100_000, 1))
        model = NsModel([5.0, 0.0], [0.5, 0.0], -0.25, X)
        zt = gumbel_transform(ns_sample(model, seed=1), model)
        lm = sample_lmoments(zt).as_array()
        np.testing.assert_allclose(lm, GUMBEL_LMOMENTS, rtol=0.01)

    def test_identity_at_zero_shape(self):
        X = gev11_design(50)
        model = NsModel([0.0, 0.0], [0.0, 0.0], 0.0, X)
        z = np.linspace(-2.0, 5.0, 50)
        np.testing.assert_allclose(gumbel_transform(z, model), z, rtol=1e-12)

    def test_strictly_decreasing_in_location_intercept(self):
        X = gev11_design(30)
        base = NsModel([10.0, 0.1], [1.0, 0.01], -0.3, X)
        z = ns_sample(base, seed=2)
        shifted = NsModel([10.5, 0.1], [1.0, 0.01], -0.3, X)
        assert np.all(gumbel_transform(z, shifted) < gumbel_transform(z, base))

    def test_support_violation_names_index(self):
        X = gev11_design(5)
        model = NsModel([0.0, 0.0], [0.0, 0.0], -0.5, X)
        z = np.array([0.0, 1.0, 2.5, 1.0, 0.0])  # support needs z > -2
        with pytest.raises(TransformError) as err:
            gumbel_transform(z - 3.0, model)
        assert err.value.index == 0


class TestNsGld:
    def test_zero_when_lmoments_match(self):
        X = gev11_design(40)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.2, X)
        z = ns_sample(truth, seed=7)
        fit = fit_ns_lme(z, X)
        zt = gumbel_transform(z, fit.model)
        v = CovMatrix3(np.eye(3), "exact")
        assert ns_gld(zt, v) < 1e-15

    def test_identity_weight_is_squared_distance(self):
        rng = np.random.default_rng(0)
        zt = rng.gumbel(size=200)
        v = CovMatrix3(np.eye(3), "exact")
        want = float(
            np.sum((sample_lmoments(zt).as_array() - np.array(GUMBEL_LMOMENTS)) ** 2)
        )
        assert ns_gld(zt, v) == pytest.approx(want, rel=1e-12)
        assert ns_gld(zt, v) >= 0


class TestFitNsLme:
    def test_converges_to_exact_match(self):
        X = gev11_design(40)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.2, X)
        fit = fit_ns_lme(ns_sample(truth, seed=7), X)
        assert fit.converged
        assert fit.objective_value < 1e-8

    def test_consistency_without_scale_trend(self):
        # location trend with constant scale: every coefficient is recovered
        X = np.linspace(1.0, 40.0, 4000).reshape(-1, 1)
        truth = NsModel([0.0, -0.1], [1.0, 0.0], -0.2, X)
        fit = fit_ns_lme(ns_sample(truth, seed=12), X)
        m = fit.model
        assert m.mu_coef[0] == pytest.approx(0.0, abs=0.3)
        assert m.mu_coef[1] == pytest.approx(-0.1, rel=0.07)
        assert m.sigma_coef[0] == pytest.approx(1.0, rel=0.07)
        assert m.sigma_coef[1] == pytest.approx(0.0, abs=0.005)
        assert m.xi == pytest.approx(-0.2, abs=0.05)

    def test_stationary_data_matches_stationary_fit(self):
        params = GevParams(50.0, 10.0, -0.15)
        z = gev_sample(params, 2000, seed=20)
        fit = fit_ns_lme(z, gev11_design(2000))
        stat = fit_lme(z).params
        m = fit.model
        assert abs(m.mu_coef[1]) < 0.01
        assert abs(m.sigma_coef[1]) < 1e-4
        assert m.mu_coef[0] == pytest.approx(stat.mu, rel=0.05)
        assert math.exp(m.sigma_coef[0]) == pytest.approx(stat.sigma, rel=0.05)
        assert m.xi == pytest.approx(stat.xi, abs=0.05)

    def test_slopes_are_stage_outputs(self):
        X = gev11_design(60)
        truth = NsModel([3.0, 0.2], [0.5, 0.01], -0.1, X)
        z = ns_sample(truth, seed=4)
        fit = fit_ns_lme(z, X)
        assert fit.model.mu_coef[1] == fit.stage_diagnostics.location_coef[1]
        assert fit.model.sigma_coef[1] == fit.stage_diagnostics.scale_coef[1]

    def test_shift_equivariance(self):
        X = gev11_design(60)
        truth = NsModel([3.0, 0.2], [0.5, 0.01], -0.1, X)
        z = ns_sample(truth, seed=4)
        a = fit_ns_lme(z, X).model
        b = fit_ns_lme(z + 100.0, X).model
        assert b.mu_coef[0] - a.mu_coef[0] == pytest.approx(100.0, abs=1e-6)
        assert b.mu_coef[1] == pytest.approx(a.mu_coef[1], abs=1e-6)
        assert b.sigma_coef[0] == pytest.approx(a.sigma_coef[0], abs=1e-6)
        assert b.xi == pytest.approx(a.xi, abs=1e-6)


class TestFitNsGlme:
    def test_flat_penalty_recovers_lme(self):
        X = gev11_design(50)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.2, X)
        z = ns_sample(truth, seed=9)
        lme = fit_ns_lme(z, X).model
        flat = fit_ns_glme(z, X, FlatPenalty()).model
        assert flat.mu_coef[0] == pytest.approx(lme.mu_coef[0], abs=1e-5)
        assert flat.sigma_coef[0] == pytest.approx(lme.sigma_coef[0], abs=1e-5)
        assert flat.xi == pytest.approx(lme.xi, abs=1e-5)

    def test_adaptive_penalty_moves_shape_down(self):
        X = gev11_design(40)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.3, X)
        z = ns_sample(truth, seed=18)
        lme = fit_ns_lme(z, X).model
        assert lme.xi < 0
        glme = fit_ns_glme(z, X, AdaptiveBetaRequest(5)).model
        assert glme.xi < lme.xi

    def test_objective_descends_from_lme_point(self):
        X = gev11_design(40)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.3, X)
        z = ns_sample(truth, seed=18)
        penalty = AdaptiveBetaRequest(5)
        glme = fit_ns_glme(z, X, penalty)
        lme = fit_ns_lme(z, X)
        built = penalty.build(lme.model.xi)
        # evaluate the glme objective at the lme solution
        vtilde = gumbel_lmoment_cov(z.size)
        const = 1.5 * math.log(2.0 * math.pi) + 0.5 * vtilde.log_det
        evaluate = _lmoment_system(
            z, X.astype(float), lme.model.mu_coef[1:], lme.model.sigma_coef[1:]
        )
        r = evaluate(np.array([lme.model.mu_coef[0], lme.model.sigma_coef[0], lme.model.xi]))[0]
        at_lme = 0.5 * float(r @ vtilde.solve(r)) + built.neg_log(lme.model.xi) + const
        assert glme.objective_value <= at_lme + 1e-10

    def test_slopes_bit_identical_to_lme(self):
        X = gev11_design(40)
        truth = NsModel([0.0, -0.1], [1.0, 0.02], -0.3, X)
        z = ns_sample(truth, seed=18)
        lme = fit_ns_lme(z, X).model
        glme = fit_ns_glme(z, X, AdaptiveBetaRequest(5)).model
        assert glme.mu_coef[1] == lme.mu_coef[1]
        assert glme.sigma_coef[1] == lme.sigma_coef[1]


def _assert_same_fit(a, b):
    """Field-by-field equality of two fit results, arrays included."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if dataclasses.is_dataclass(x):
            _assert_same_fit(x, y)
        elif isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


class TestGivenLmeFit:
    """``fit_ns_glme(..., lme=fit_ns_lme(...))`` is the fit without it."""

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("location", ["tukey", "ols"])
    @pytest.mark.parametrize("name", ["glme.b.c1", "glme.b.c5", "glme.n.c3", "glme"])
    def test_equal_to_own_lme_fit(self, name, location, refine):
        model = SimCell("gev11", -0.3, 40).truth_model()
        z, X = ns_sample(model, 18), model.covariates
        penalty = parse_method(name).penalty
        kw = dict(location_method=location, refine=refine)
        lme = fit_ns_lme(z, X, location_method=location, refine=refine)
        _assert_same_fit(fit_ns_glme(z, X, penalty, lme=lme, **kw),
                         fit_ns_glme(z, X, penalty, **kw))


class TestNsReturnLevel:
    def test_zero_slopes_match_stationary(self):
        X = gev11_design(30)
        model = NsModel([40.0, 0.0], [math.log(9.0), 0.0], -0.2, X)
        params = GevParams(40.0, 9.0, -0.2)
        for t in (0, 10, 29):
            assert ns_return_level(model, 100.0, t) == pytest.approx(
                return_level(params, 100.0), rel=1e-12
            )

    def test_rising_location_raises_levels(self):
        X = gev11_design(30)
        model = NsModel([40.0, 1.0], [math.log(9.0), 0.0], -0.2, X)
        levels = [ns_return_level(model, 100.0, t) for t in range(30)]
        assert np.all(np.diff(levels) > 0)

    def test_index_bounds(self):
        X = gev11_design(10)
        model = NsModel([0.0, 0.0], [0.0, 0.0], 0.0, X)
        with pytest.raises(ValueError, match="t_index"):
            ns_return_level(model, 100.0, 10)


class TestRainfallSeries:
    """Reference fits of the rainfall fixture; skip until it is installed."""

    def test_lme_row(self, phliu):
        fit = fit_ns_lme(phliu.values, phliu.time_design())
        m = fit.model
        assert m.mu_coef[0] == pytest.approx(121.26, rel=0.01)
        assert m.mu_coef[1] == pytest.approx(0.936, abs=0.02)
        assert m.sigma_coef[0] == pytest.approx(2.95, abs=0.05)
        assert m.sigma_coef[1] == pytest.approx(0.028, abs=0.005)
        assert m.xi == pytest.approx(-0.064, abs=0.02)
        assert ns_return_level(m, 100.0, m.n_obs - 1) == pytest.approx(478.0, rel=0.01)

    def test_adaptive_choice_five_row(self, phliu):
        fit = fit_ns_glme(phliu.values, phliu.time_design(), AdaptiveBetaRequest(5))
        m = fit.model
        assert m.xi == pytest.approx(-0.11, abs=0.015)
        assert ns_return_level(m, 100.0, m.n_obs - 1) == pytest.approx(517.0, rel=0.015)

    def test_per_year_series_exceeds_plain_fit(self, phliu):
        # a lower shape with identical slopes lifts the whole curve
        z, X = phliu.values, phliu.time_design()
        lme = fit_ns_lme(z, X).model
        glme = fit_ns_glme(z, X, AdaptiveBetaRequest(5)).model
        for t in range(lme.n_obs):
            assert ns_return_level(glme, 40.0, t) > ns_return_level(lme, 40.0, t)


class TestNsSample:
    def test_deterministic_and_obeys_trend(self):
        X = gev11_design(2000)
        model = NsModel([0.0, 0.5], [0.0, 0.0], -0.1, X)
        a = ns_sample(model, seed=6)
        b = ns_sample(model, seed=6)
        np.testing.assert_array_equal(a, b)
        first, last = a[:500], a[-500:]
        assert last.mean() - first.mean() == pytest.approx(0.5 * 1500.0, rel=0.05)

    @pytest.mark.parametrize("xi", [-0.45, -1e-3, 0.0, 5e-7, 0.3])
    def test_bit_identical_to_inverse_cdf_formula(self, xi):
        # the inverse-CDF draw ns_sample made before it shared the stationary quantile
        model = NsModel([50.0, 0.5], [2.0, 0.01], xi, gev11_design(300))
        rng = np.random.default_rng(11)
        y = -np.log(np.maximum(rng.random(model.n_obs), 1e-15))
        mu, sigma = model.mu_values(), model.sigma_values()
        if abs(xi) < 1e-6:
            want = mu - sigma * np.log(y)
        else:
            want = mu + sigma / xi * (-np.expm1(xi * np.log(y)))
        np.testing.assert_array_equal(ns_sample(model, seed=11), want)


class TestLmomentSystem:
    """The exact Jacobian of the final stage's equations."""

    @staticmethod
    def _system(xi, seed=3):
        X = gev11_design(40)
        z = ns_sample(NsModel([0.0, -0.1], [1.0, 0.02], xi, X), seed=seed)
        return z, _lmoment_system(z, X.astype(float), np.array([-0.1]), np.array([0.02]))

    @staticmethod
    def _central_differences(evaluate, theta, steps):
        jac = np.empty((3, 3))
        for j, h in enumerate(steps):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            jac[:, j] = (evaluate(up)[0] - evaluate(down)[0]) / (2.0 * h)
        return jac

    @pytest.mark.parametrize("xi", [-0.4, -1e-3, -1e-7, 1e-7, 1e-3, 0.4])
    def test_matches_central_differences(self, xi):
        _, evaluate = self._system(xi)
        theta = np.array([0.05, 0.95, xi])
        r, jac, kinks = evaluate(theta)
        # a mu0 step must not cross a kink, where the sort order changes;
        # a shape step leaves the Gumbel band |xi| < 1e-6 on both sides
        steps = [min(1e-6, 0.1 * np.min(np.abs(kinks()))), 1e-6, 1e-6 if abs(xi) > 1e-5 else 1e-4]
        want = self._central_differences(evaluate, theta, steps)
        np.testing.assert_allclose(jac, want, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_residual_continuous_across_band_edge(self, sign):
        _, evaluate = self._system(-0.2)

        def r(xi):
            return evaluate(np.array([0.05, 0.95, xi]))[0]

        assert np.max(np.abs(r(sign * 1.001e-6) - r(sign * 0.999e-6))) < 1e-8

    def test_residual_follows_the_shape_inside_band(self):
        # between 0 and 0.9e-6 the residual moves by its shape derivative
        # times the step; the sort order does not change with the shape
        _, evaluate = self._system(-0.2)
        theta = np.array([0.05, 0.95, 0.0])
        r0, jac, _ = evaluate(theta)
        r1 = evaluate(theta + np.array([0.0, 0.0, 0.9e-6]))[0]
        np.testing.assert_allclose(r1 - r0, 0.9e-6 * jac[:, 2], rtol=1e-4)

    def test_matches_central_differences_near_support_edge(self):
        xi = 0.4
        z, evaluate = self._system(xi)
        X = gev11_design(40)[:, 0]
        sigma = np.exp(0.95 + 0.02 * X)
        # mu0 that puts the closest observation at u = 1 - xi*w = 1e-3
        mu0 = float(np.max(z + 0.1 * X - sigma * (1.0 - 1e-3) / xi))
        theta = np.array([mu0, 0.95, xi])
        r, jac, kinks = evaluate(theta)
        assert evaluate(theta + np.array([0.0, 0.0, 0.01])) is None  # the edge is that close
        steps = [min(1e-9, 0.1 * np.min(np.abs(kinks()))), 1e-9, 1e-9]
        want = self._central_differences(evaluate, theta, steps)
        np.testing.assert_allclose(jac, want, rtol=1e-5, atol=1e-6)

    def test_kinks_are_the_mu0_shifts_that_swap_neighbours(self):
        z, evaluate = self._system(-0.2)
        kinks = evaluate(np.array([0.05, 0.95, -0.2]))[2]()
        t = kinks[np.argmin(np.abs(kinks))]

        def order(mu0):
            model = NsModel([mu0, -0.1], [0.95, 0.02], -0.2, gev11_design(40))
            return np.argsort(gumbel_transform(z, model))

        assert np.array_equal(order(0.05), order(0.05 + 0.99 * t))
        assert not np.array_equal(order(0.05), order(0.05 + 1.01 * t))

    def test_none_outside_support_and_shape_box(self):
        _, evaluate = self._system(-0.2)
        assert evaluate(np.array([0.05, 0.95, 1.0])) is None
        assert evaluate(np.array([50.0, 0.95, -0.2])) is None


# gev11 draws checked bit for bit against the reference copies: sizes,
# shapes (0 and the inside of the Gumbel band |xi| < 1e-6 included) and
# series seeds
BITWISE_CASES = [
    (n, xi, seed)
    for n in (40, 70)
    for xi in (-0.45, -0.15, -1e-7, 0.0, 1e-7, 0.15, 0.45)
    for seed in (1, 2, 3)
]


def _bitwise_slopes_and_points(z, X):
    """The final stage's slopes for a series and points to evaluate it at:
    the lme solution (or its best point, or the shape-0 start when it has
    none), small and large perturbations of it, shifts of the location
    intercept that leave the support for any shape but 0, and shapes at
    and beyond the box edges."""
    try:
        lme = fit_ns_lme(z, X)
    except ConvergenceError as err:
        lme = err.best
    except DegenerateDataError:
        lme = None
    if lme is None:
        mu_coef = robust_location_fit(z, X)
        try:
            scale_coef = scale_regression(z, X, mu_coef)
        except DegenerateDataError:
            scale_coef = np.zeros_like(mu_coef)
        centre = np.array([mu_coef[0], scale_coef[0], 0.0])
    else:
        mu_coef, scale_coef = lme.model.mu_coef, lme.model.sigma_coef
        centre = np.array([mu_coef[0], scale_coef[0], lme.model.xi])
    rng = np.random.default_rng(0)
    spread = 10.0 * max(np.ptp(z), 1.0)
    points = [centre, centre * np.array([1.0, 1.0, 0.0])]
    points += [centre + rng.normal(scale=h, size=3) for h in (1e-7, 1e-3, 0.1) for _ in range(4)]
    points += [centre + np.array([sign * spread, 0.0, 0.0]) for sign in (1.0, -1.0)]
    points += [np.array([centre[0], centre[1], xi]) for xi in (-1.0, -1.0 + 1e-8, 1.0, 1.5)]
    return mu_coef[1:], scale_coef[1:], points


def _assert_bitwise_same_system(z, X):
    """The final stage's equations and the location fit, new against the
    reference copies: equal arrays and the same Nones.  Returns the number
    of points where the equations are defined and where they are not."""
    from _oracles import lmoment_system_reference, robust_location_fit_reference

    for method in ("tukey", "ols"):
        assert np.array_equal(robust_location_fit(z, X, method),
                              robust_location_fit_reference(z, X, method))
    mu_slopes, sig_slopes, points = _bitwise_slopes_and_points(z, X)
    cov = X.astype(float)
    evaluate = _lmoment_system(z, cov, mu_slopes, sig_slopes)
    reference = lmoment_system_reference(z, cov, mu_slopes, sig_slopes)
    defined = 0
    for theta in points:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got, want = evaluate(theta), reference(theta)
            kinks = None if got is None else got[2]()
        if want is None:
            assert got is None, theta
            continue
        defined += 1
        assert got is not None, theta
        assert np.array_equal(got[0], want[0]), theta
        assert np.array_equal(got[1], want[1]), theta
        assert np.array_equal(kinks, want[2], equal_nan=True), theta
    return defined, len(points) - defined


class TestBitwiseAgainstReference:
    """The final stage's equations and the robust location fit give the
    same bits as the reference copies of their earlier versions."""

    @pytest.mark.parametrize("n,xi,seed", BITWISE_CASES)
    def test_gev11_draws(self, n, xi, seed):
        model = SimCell("gev11", xi, n).truth_model()
        defined, undefined = _assert_bitwise_same_system(
            ns_sample(model, seed), model.covariates)
        assert defined >= 10 and undefined >= 3

    @pytest.mark.parametrize("case", TREND_CORPUS)
    def test_trend_corpus(self, case):
        z = TREND_CORPUS[case][0]
        _assert_bitwise_same_system(z, gev11_design(z.size))

    def test_median_matches_numpy(self):
        rng = np.random.default_rng(5)
        for n in range(1, 80):
            for a in (rng.standard_normal(n), np.round(rng.standard_normal(n)),
                      np.abs(rng.standard_normal(n)) * 1e-300, np.zeros(n),
                      np.where(rng.random(n) < 0.5, -0.0, 0.0)):
                got, want = _median(a), np.median(a)
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), a


class TestZeroWeightLmeShape:
    """Series whose L-moment shape lies above the adaptive beta cap of 0.3,
    so the penalty gives the usual start shape zero weight."""

    @pytest.mark.parametrize("xi,seed", [(0.15, 23), (0.3, 9), (0.3, 13)])
    def test_fit_is_feasible(self, xi, seed):
        model = SimCell("gev11", xi, 40).truth_model()
        z = ns_sample(model, seed)
        assert fit_ns_lme(z, model.covariates).model.xi > 0.3
        fit = fit_ns_glme(z, model.covariates, AdaptiveBetaRequest(5))
        assert fit.converged
        assert fit.objective_value < SENTINEL
        assert fit.penalty.lower < fit.model.xi < fit.penalty.upper

    def test_mode_start_raises_the_scale(self):
        # at this penalty's mode (about -0.97) the lme intercepts put data
        # outside the transform's support; the raised scale intercept does not
        model = SimCell("gev11", 0.15, 40).truth_model()
        z = ns_sample(model, 23)
        fit = fit_ns_glme(z, model.covariates, FixedBetaPenalty(6.0, 6.0, -0.99, -0.95))
        assert fit.converged
        assert -0.99 < fit.model.xi < -0.95


class TestShapeZeroStart:
    """What the one start of ``fit_ns_lme`` is for: gev11 trial seeds of
    the xi=-0.45, n=40 cell, among seeds 0-29999."""

    MODEL = SimCell("gev11", -0.45, 40).truth_model()
    # every seed whose L-moment equations, once the slopes are fixed, have
    # their root below the shape box (shapes -1.003 to -1.076), so the solve
    # stalls at the box's lower edge
    EDGE_SEEDS = (3971, 7212, 11517, 12083, 13462, 13757, 15079, 17611, 22212,
                  23186, 25751, 28379, 28552)
    # roots at shapes near -0.8 to -0.97 that no start at the L-moment shape reaches
    FAR_ROOT_SEEDS = (3147, 3799, 3889, 4024, 4174)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_no_root_stalls_typed(self, seed):
        with pytest.raises(ShapeEdgeError, match="stalled") as info:
            fit_ns_lme(ns_sample(self.MODEL, seed), self.MODEL.covariates)
        best = info.value.best
        assert best is not None and not best.converged
        assert 0.0 <= best.model.xi - _XI_LO < 1e-10

    @pytest.mark.parametrize("name", ["glme.b.c1", "glme.n.c3"])
    def test_glme_starts_from_the_edge(self, name):
        # with or without the memo the glme methods start from lme's point at
        # the edge, and their own minima lie inside the box
        X = self.MODEL.covariates
        for seed in self.EDGE_SEEDS:
            z = ns_sample(self.MODEL, seed)
            fit = parse_method(name).fit_ns(z, X, memo={})
            assert fit.converged and -0.95 < fit.model.xi < -0.85
            alone = parse_method(name).fit_ns(z, X)
            assert (alone.model.xi, alone.objective_value) == (fit.model.xi, fit.objective_value)

    @pytest.mark.parametrize("seed", FAR_ROOT_SEEDS)
    def test_far_root_found(self, seed):
        z, X = ns_sample(self.MODEL, seed), self.MODEL.covariates
        fit = fit_ns_lme(z, X)
        assert fit.converged and fit.model.xi < -0.75
        # the same Newton run from the detrended residuals' L-moment shape,
        # with the scale raised until the data fit, stalls at the box edge
        mu_coef, scale_coef = fit.stage_diagnostics.location_coef, fit.stage_diagnostics.scale_coef
        detrended = (z - X @ mu_coef[1:] - mu_coef[0]) / np.exp(X @ scale_coef[1:])
        xi = fit_lme(detrended).params.xi
        sigma = _feasible_scale(detrended, 0.0, math.exp(scale_coef[0]), xi)
        theta = np.array([mu_coef[0], math.log(sigma), xi])
        evaluate = _lmoment_system(z, X, mu_coef[1:], scale_coef[1:])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, norm, _ = _newton(evaluate, theta, *evaluate(theta)[:2])
        assert norm > 0.1


# seeded reference corpus of the final stage: (n, shape) -> series seed
NS_REFERENCE_CELLS = {
    (n, xi): 7100 + i
    for i, (n, xi) in enumerate(
        (n, xi) for n in (40, 70) for xi in (-0.45, -0.3, -0.15, 0.0, 0.15, 0.3)
    )
}
NS_REFERENCE_METHODS = ("glme.b.c1", "glme.b.c5", "glme.n.c3")
# gev11 trial series, (n, shape, trial seed), whose glme minimum lies on a
# kink of the trend objective (glme.n.c3; a minimizer without the kink hook
# ends 1.0e-6 above the reference) or 1.3e-4 past one (glme.b.c1; one that
# stops on the kink it reaches ends 9.7e-6 above)
NS_KINK_SERIES = {"glme.b.c1": ((40, -0.45, 29),), "glme.n.c3": ((40, -0.15, 29),)}
NS_LME_EVALUATIONS = 20
NS_GLME_EVALUATIONS = 60


@functools.lru_cache(maxsize=None)
def _ns_reference_series(n, xi, seed=None):
    model = SimCell("gev11", xi, n).truth_model()
    seed = NS_REFERENCE_CELLS[(n, xi)] if seed is None else seed
    return ns_sample(model, seed), model.covariates


class TestFinalStageAgainstNelderMead:
    """The final stages against the former Nelder-Mead searches of the same
    equations and objective: ``fit_ns_lme``'s Newton root-finder, and
    ``fit_ns_glme`` on the damped Newton minimizer of
    :func:`glme._optim.damped_newton` with its kink hook."""

    @pytest.mark.parametrize("location", ["tukey", "ols"])
    def test_lme_corpus(self, location):
        from _oracles import ns_lme_nelder_mead

        problems = []
        for n, xi in NS_REFERENCE_CELLS:
            z, X = _ns_reference_series(n, xi)
            fit = fit_ns_lme(z, X, location_method=location)
            ref_theta, ref_norm = ns_lme_nelder_mead(z, X, location)
            theta = np.array([fit.model.mu_coef[0], fit.model.sigma_coef[0], fit.model.xi])
            gap = np.max(np.abs(theta - ref_theta) / (1.0 + np.abs(ref_theta)))
            case = f"n={n} xi={xi}"
            if not ref_norm < 1e-8:
                problems.append(f"{case}: reference residual norm {ref_norm:.3g}")
            if gap > 1e-8:
                problems.append(f"{case}: scaled parameter gap {gap:.3g}")
            if fit.iterations > NS_LME_EVALUATIONS:
                problems.append(f"{case}: {fit.iterations} evaluations")
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("location", ["tukey", "ols"])
    @pytest.mark.parametrize("name", NS_REFERENCE_METHODS)
    def test_glme_corpus(self, name, location):
        from _oracles import ns_glme_nelder_mead

        problems = []
        series = [(n, xi, None) for n, xi in NS_REFERENCE_CELLS] + list(NS_KINK_SERIES.get(name, ()))
        for n, xi, seed in series:
            z, X = _ns_reference_series(n, xi, seed)
            lme = fit_ns_lme(z, X, location_method=location)
            penalty = parse_method(name).penalty
            if isinstance(penalty, AdaptiveBetaRequest):
                penalty = penalty.build(lme.model.xi)
            fit = fit_ns_glme(z, X, penalty, location_method=location)
            _, ref_fun = ns_glme_nelder_mead(
                z, lme.model, penalty, 1.0, gumbel_lmoment_cov(n)
            )
            case = f"n={n} xi={xi}" + ("" if seed is None else f" seed={seed}")
            if ref_fun < SENTINEL and fit.objective_value > ref_fun + 1e-9:
                problems.append(f"{case}: objective {fit.objective_value!r} > {ref_fun!r}")
            if fit.iterations > NS_GLME_EVALUATIONS:
                problems.append(f"{case}: {fit.iterations} evaluations")
        assert not problems, "\n".join(problems)
