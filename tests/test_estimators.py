"""Stationary estimators: L-moment fit, likelihood fits, penalty-weighted fits."""

import functools
import math

import numpy as np
import pytest

from glme.errors import (
    ConvergenceError,
    DegenerateDataError,
    LSkewnessError,
    PenaltySupportError,
    SampleSizeError,
)
from glme import estimators
from glme._optim import _newton_steps
from glme.estimators import (
    _default_init,
    _nll_buffer,
    _nll_derivatives,
    _nll_value,
    _penalized_nll,
    fit_glme,
    fit_gmle,
    fit_lme,
    fit_mle,
    gev_neg_loglik,
    glme_objective,
    profile_xi,
)
from glme.gev import XI_EPS, GevParams, gev_sample, return_level
from glme.lmoments import lmoment_cov, sample_lmoments
from glme.methods import parse_method
from glme.penalties import (
    SENTINEL,
    AdaptiveBetaRequest,
    ColesDixonPenalty,
    FixedBetaPenalty,
    FlatPenalty,
    NormalPenalty,
)


class TestFitLme:
    def test_consistency_heavy_tail(self):
        truth = GevParams(100.0, 30.0, -0.2)
        fit = fit_lme(gev_sample(truth, 100_000, seed=2))
        assert fit.params.mu == pytest.approx(truth.mu, rel=0.02)
        assert fit.params.sigma == pytest.approx(truth.sigma, rel=0.02)
        assert fit.params.xi == pytest.approx(truth.xi, abs=0.02 * abs(truth.xi) + 0.004)
        assert fit.converged

    def test_gumbel_data_gives_near_zero_shape(self):
        rng = np.random.default_rng(6)
        x = rng.gumbel(0.0, 1.0, size=100_000)
        assert abs(fit_lme(x).params.xi) < 0.01

    def test_location_scale_equivariance(self):
        rng = np.random.default_rng(10)
        x = rng.exponential(size=60) * 40.0
        a, b = 2.5, 300.0
        base = fit_lme(x).params
        moved = fit_lme(a * x + b).params
        assert moved.mu == pytest.approx(a * base.mu + b, rel=1e-9)
        assert moved.sigma == pytest.approx(a * base.sigma, rel=1e-9)
        assert moved.xi == pytest.approx(base.xi, abs=1e-9)

    def test_matches_population_inversion(self):
        # the fitted parameters reproduce the sample L-moments exactly
        from glme.lmoments import gev_population_lmoments

        x = gev_sample(GevParams(50.0, 12.0, 0.15), 80, seed=3)
        fit = fit_lme(x)
        lm = sample_lmoments(x)
        pop = gev_population_lmoments(fit.params)
        np.testing.assert_allclose(pop.as_array(), lm.as_array(), rtol=1e-10)

    def test_skewness_domain_error(self):
        # L-skewness above the attainable range: force a huge t3
        x = np.array([1.0] * 29 + [2.0, 1e9])
        with pytest.raises(ValueError, match="L-skewness"):
            fit_lme(x)

    def test_small_and_degenerate_samples(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_lme([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateDataError):
            fit_lme([2.0] * 10)


class TestNegLoglik:
    def test_matches_hand_computation_gumbel(self):
        x = np.array([0.5, 1.0, 2.0])
        want = 0.0 + np.sum(x) + np.sum(np.exp(-x))
        assert gev_neg_loglik(x, 0.0, 1.0, 0.0) == pytest.approx(want, rel=1e-14)

    def test_support_violation_is_sentinel(self):
        x = np.array([0.0, 5.0, 10.0])
        assert gev_neg_loglik(x, 0.0, 1.0, 0.3) == SENTINEL  # upper endpoint 1/0.3
        assert gev_neg_loglik(x, 0.0, -1.0, 0.0) == SENTINEL


class TestFitMle:
    def test_consistency_light_tail(self):
        truth = GevParams(100.0, 30.0, 0.2)
        fit = fit_mle(gev_sample(truth, 10_000, seed=5))
        assert fit.params.mu == pytest.approx(truth.mu, rel=0.03)
        assert fit.params.sigma == pytest.approx(truth.sigma, rel=0.03)
        assert fit.params.xi == pytest.approx(truth.xi, abs=0.03)

    def test_descent_from_init(self):
        x = gev_sample(GevParams(0.0, 1.0, -0.3), 60, seed=1)
        init = fit_lme(x).params
        fit = fit_mle(x)
        assert fit.objective_value <= gev_neg_loglik(x, *init.as_tuple()) + 1e-12

    def test_deterministic(self):
        x = gev_sample(GevParams(10.0, 2.0, -0.1), 50, seed=9)
        a, b = fit_mle(x), fit_mle(x)
        assert a.params == b.params
        assert a.objective_value == b.objective_value

    def test_objective_value_is_the_objective_at_the_estimate(self):
        x = gev_sample(GevParams(100.0, 30.0, 0.2), 40, seed=8)
        fit = fit_mle(x)
        assert fit.objective_value == gev_neg_loglik(x, *fit.params.as_tuple())


class TestFitGmle:
    def test_flat_penalty_is_plain_mle(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 80, seed=12)
        a = fit_mle(x)
        b = fit_gmle(x, FlatPenalty())
        assert abs(a.objective_value - b.objective_value) < 1e-8
        assert a.params == b.params

    def test_exponential_penalty_pulls_shape_up(self):
        # the exponential family punishes heavy tails, so the penalized
        # shape cannot sit below the plain fit when that fit is negative
        x = gev_sample(GevParams(100.0, 30.0, -0.45), 40, seed=21)
        mle = fit_mle(x)
        assert mle.params.xi < 0
        gmle = fit_gmle(x, ColesDixonPenalty(1.0, 1.0))
        assert gmle.params.xi >= mle.params.xi - 1e-9

    def test_hard_support_respected(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.45), 40, seed=22)
        fit = fit_gmle(x, FixedBetaPenalty.from_preset("ms"))
        assert -0.5 < fit.params.xi < 0.5


class TestGlmeObjective:
    def test_constant_at_lme_point(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 60, seed=7)
        V = lmoment_cov(x)
        lme = fit_lme(x).params
        const = 1.5 * math.log(2.0 * math.pi) + 0.5 * V.log_det
        assert glme_objective(x, V, lme) == pytest.approx(const, abs=1e-8)

    def test_lower_bound(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 60, seed=7)
        V = lmoment_cov(x)
        const = 1.5 * math.log(2.0 * math.pi) + 0.5 * V.log_det
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = GevParams(rng.uniform(50, 150), rng.uniform(5, 60), rng.uniform(-0.9, 0.9))
            assert glme_objective(x, V, params) >= const - 1e-12

    def test_stationary_at_minimum_by_finite_differences(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 60, seed=7)
        V = lmoment_cov(x)
        lme = fit_lme(x).params
        h = 1e-5 * (abs(lme.mu) + 1.0)
        up = glme_objective(x, V, GevParams(lme.mu + h, lme.sigma, lme.xi))
        dn = glme_objective(x, V, GevParams(lme.mu - h, lme.sigma, lme.xi))
        assert abs(up - dn) / (2 * h) < 1e-4

    def test_sentinel_outside_box(self):
        x = gev_sample(GevParams(0.0, 1.0, 0.0), 30, seed=1)
        V = lmoment_cov(x)
        assert glme_objective(x, V, GevParams(0.0, 1.0, -0.9999999)) < SENTINEL
        assert glme_objective(x, V, GevParams(0.0, 1.0, 0.0)) < SENTINEL

    @pytest.mark.parametrize("alpha_n", [0.5, 1.0, 2.0])
    def test_zero_weight_shape_is_sentinel_for_any_weight(self, alpha_n):
        # below 1, alpha_n * SENTINEL alone would fall under SENTINEL
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 60, seed=7)
        V, penalty = lmoment_cov(x), FixedBetaPenalty.from_preset("ms")
        lme = fit_lme(x).params
        outside = GevParams(lme.mu, lme.sigma, -0.6)
        assert glme_objective(x, V, outside, penalty, alpha_n) == SENTINEL
        assert glme_objective(x, V, outside, penalty, 0.0) < SENTINEL


class TestFitGlme:
    def test_flat_penalty_recovers_lme(self):
        rng = np.random.default_rng(1)
        for xi in (-0.45, -0.2, 0.0, 0.2):
            x = gev_sample(GevParams(100.0, 30.0, xi), 60, seed=int(rng.integers(1e6)))
            lme = fit_lme(x).params
            flat = fit_glme(x).params
            assert flat.mu == pytest.approx(lme.mu, abs=1e-6 * (1 + abs(lme.mu)))
            assert flat.sigma == pytest.approx(lme.sigma, abs=1e-6 * (1 + lme.sigma))
            assert flat.xi == pytest.approx(lme.xi, abs=1e-6)

    def test_adaptive_beta_moves_shape_down(self, flood):
        lme = fit_lme(flood.values).params
        assert lme.xi < 0
        for choice in range(1, 7):
            fit = fit_glme(flood.values, AdaptiveBetaRequest(choice))
            assert fit.params.xi <= lme.xi + 1e-9

    def test_deterministic(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 50, seed=30)
        a = fit_glme(x, AdaptiveBetaRequest(1))
        b = fit_glme(x, AdaptiveBetaRequest(1))
        assert a.params == b.params

    def test_method_labels(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 50, seed=30)
        assert fit_glme(x).method == "glme"
        assert fit_glme(x, AdaptiveBetaRequest(2)).method == "glme.b.c2"
        assert fit_glme(x, NormalPenalty.from_choice(3)).method == "glme.n.c3"

    def test_exact_covariance_route(self, flood):
        fit = fit_glme(flood.values, AdaptiveBetaRequest(6), cov_method="exact")
        assert fit.params.xi == pytest.approx(-0.453, abs=0.01)
        assert return_level(fit.params, 100.0) == pytest.approx(1824.0, rel=0.01)


# (n, shape) cells of the seeded reference corpus, each with its sample seed
REFERENCE_CELLS = {
    (n, xi): 9100 + i
    for i, (n, xi) in enumerate((n, xi) for n in (30, 50, 70) for xi in (-0.45, -0.15, 0.15))
}
REFERENCE_METHODS = ("glme", "glme.b.c1", "glme.b.c6", "glme.n.c2", "glme.cd", "glme.cannon")


@functools.lru_cache(maxsize=None)
def _reference_sample(n, xi, cov):
    seed = REFERENCE_CELLS[(n, xi)]
    x = gev_sample(GevParams(100.0, 30.0, xi), n, seed=seed)
    return x, lmoment_cov(x, method=cov)


def _built_penalty(name, x):
    penalty = parse_method(name).penalty
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(fit_lme(x).params.xi)
    return penalty


@functools.lru_cache(maxsize=None)
def _reference_fit(n, xi, cov, name, alpha_n):
    from _oracles import glme_fit_nelder_mead

    x, V = _reference_sample(n, xi, cov)
    return glme_fit_nelder_mead(x, V, _built_penalty(name, x), alpha_n)


class TestGlmeMinimumSample:
    """The penalty-weighted fit and curve need the covariance's 10 values."""

    X7 = gev_sample(GevParams(100.0, 30.0, -0.3), 7, seed=5)

    def test_fit_glme_needs_ten(self):
        with pytest.raises(ValueError, match="at least 10 observations"):
            fit_glme(self.X7)

    @pytest.mark.parametrize("method", ["lme", "glme"])
    def test_profile_needs_ten(self, method):
        with pytest.raises(ValueError, match="at least 10 observations"):
            profile_xi(self.X7, method=method)

    def test_the_failure_is_typed(self):
        with pytest.raises(SampleSizeError):
            fit_glme(self.X7)
        with pytest.raises(SampleSizeError, match="at least 5 observations"):
            fit_mle(self.X7[:4])

    def test_likelihood_profile_takes_seven(self):
        assert len(profile_xi(self.X7, method="mle", grid=[-0.2, 0.0])) == 2


class TestGivenLmeFit:
    """``fit_glme``/``fit_gmle`` with ``lme=fit_lme(x)`` equal the fits without it."""

    @pytest.mark.parametrize("choice", [1, 5])
    @pytest.mark.parametrize("fitter", [
        fit_glme,
        fit_gmle,
    ], ids=["glme", "gmle"])
    def test_equal_to_own_lme_fit(self, fitter, choice):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 30, seed=8)
        penalty = AdaptiveBetaRequest(choice)
        assert fitter(x, penalty, lme=fit_lme(x)) == fitter(x, penalty)


    @pytest.mark.parametrize("fitter", [
        fit_mle, lambda x, **kw: fit_gmle(x, NormalPenalty.from_choice(2), **kw),
    ], ids=["mle", "gmle.n.c2"])
    def test_likelihood_start_equal_to_own_lme_fit(self, fitter):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 30, seed=8)
        assert fitter(x, lme=fit_lme(x)) == fitter(x)


class TestGlmeAgainstNelderMead:
    """The closed-form profile search against the former 3-D Nelder-Mead
    search of the same objective, on a seeded corpus."""

    @pytest.mark.parametrize("cov", ["bootstrap", "exact"])
    @pytest.mark.parametrize("name", REFERENCE_METHODS)
    def test_corpus(self, name, cov):
        problems = []
        for n, xi in REFERENCE_CELLS:
            x, V = _reference_sample(n, xi, cov)
            penalty = _built_penalty(name, x)
            for alpha_n in (0.0, 1.0):
                fit = fit_glme(x, penalty, alpha_n=alpha_n, V=V)
                # with alpha_n = 0 every penalty leaves the same objective
                ref_x, ref_fun = _reference_fit(n, xi, cov, name if alpha_n else "glme", alpha_n)
                case = f"n={n} xi={xi} alpha_n={alpha_n}"
                if fit.objective_value != glme_objective(x, V, fit.params, penalty, alpha_n):
                    problems.append(f"{case}: objective differs from glme_objective")
                if fit.objective_value > ref_fun + 1e-9:
                    problems.append(f"{case}: objective {fit.objective_value!r} > {ref_fun!r}")
                if fit.iterations > 120:
                    problems.append(f"{case}: {fit.iterations} profile evaluations")
                if ref_fun < SENTINEL:
                    scale = np.array([1.0 + abs(ref_x[0]), 1.0 + ref_x[1], 1.0])
                    gap = np.max(np.abs(np.array(fit.params.as_tuple()) - ref_x) / scale)
                    if gap > 1e-6:
                        problems.append(f"{case}: scaled parameter gap {gap:.3g}")
        assert not problems, "\n".join(problems)


class TestGlmeProfileAgainstReference:
    """The scalar GLME profile against its former array form, kept verbatim
    in ``_oracles``: shapes across the box and just outside it, the Gumbel
    band, reflected samples (whose profile scale turns nonpositive over
    part of the box), four penalty families and both covariances."""

    SHAPES = np.concatenate([
        np.linspace(-0.999, 0.999, 121),
        np.linspace(estimators._XI_LO, estimators._XI_HI, estimators._GLME_GRID),
        [s * XI_EPS * f for s in (-1.0, 1.0) for f in (0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3)],
        [0.0, -(1.0 - 1e-8), 1.0 - 1e-8, -1.0, 1.0, estimators._XI_LO_IN,
         estimators._XI_HI_IN],
    ])
    PENALTIES = [FlatPenalty(), FixedBetaPenalty.from_preset("ms"),
                 NormalPenalty.from_choice(2), ColesDixonPenalty()]

    @pytest.mark.parametrize("cov", ["bootstrap", "exact"])
    def test_corpus(self, cov):
        from _oracles import glme_profile_reference

        problems, n_feasible, n_nonpositive = [], 0, 0
        for xi0, seed, sign in [(-0.45, 9201, 1.0), (0.0, 9202, 1.0), (0.3, 9203, 1.0),
                                (-0.45, 9208, -1.0), (0.3, 9205, -1.0)]:
            x = sign * gev_sample(GevParams(100.0, 30.0, xi0), 30, seed=seed)
            V, l = lmoment_cov(x, method=cov), sample_lmoments(x)
            const = estimators._objective_const(V)
            for penalty in self.PENALTIES:
                for alpha_n in (0.0, 1.0):
                    profile = estimators._glme_profile(l, V, const, penalty, alpha_n)
                    ref_mu, ref_sigma, ref_value = glme_profile_reference(
                        l, V, const, penalty, alpha_n)(self.SHAPES)
                    inside = np.abs(self.SHAPES) < estimators._XI_HI
                    n_nonpositive += int(np.sum(inside & (ref_sigma <= 0)))
                    for i, xi in enumerate(self.SHAPES.tolist()):
                        mu, sigma, value = profile(xi)
                        case = f"xi0={xi0} sign={sign} {penalty.label} alpha_n={alpha_n} xi={xi}"
                        if (value >= SENTINEL) != (ref_value[i] >= SENTINEL):
                            problems.append(f"{case}: {value!r} vs {ref_value[i]!r}")
                            continue
                        if value >= SENTINEL:
                            continue
                        n_feasible += 1
                        # the scale comes from a dot product that cancels
                        # where it is small against the data's, l2
                        for name, got, want, size in [
                            ("value", value, ref_value[i], abs(ref_value[i])),
                            ("mu", mu, ref_mu[i], abs(ref_mu[i])),
                            ("sigma", sigma, ref_sigma[i], abs(ref_sigma[i]) + l.l2),
                        ]:
                            if not abs(got - want) <= 1e-13 * size:
                                problems.append(f"{case}: {name} {got!r} vs {want!r}")
        assert not problems, "\n".join(problems[:20])
        assert n_feasible > 1000 and n_nonpositive > 100


class TestZeroWeightStart:
    """Samples whose L-moment shape lies above the adaptive beta support
    cap of 0.3, so the penalty gives the usual start shape zero weight."""

    CASES = [
        (GevParams(100.0, 30.0, 0.3), 40, 0),  # L-moment shape 0.478
        (GevParams(100.0, 30.0, 0.3), 40, 3),  # 0.384
        (GevParams(100.0, 30.0, 0.3), 40, 5),  # 0.360
        (GevParams(100.0, 30.0, 0.15), 50, 309580411),  # 0.464
    ]

    @pytest.mark.parametrize("kind", ["glme", "gmle"])
    @pytest.mark.parametrize("truth,n,seed", CASES)
    def test_fit_is_feasible(self, kind, truth, n, seed):
        x = gev_sample(truth, n, seed=seed)
        assert fit_lme(x).params.xi > 0.3
        fit = parse_method(f"{kind}.b.c1").fit_stationary(x)
        assert fit.converged
        assert fit.objective_value < SENTINEL
        assert fit.penalty.lower < fit.params.xi < fit.penalty.upper

    def test_sentinel_plateau_is_not_convergence(self):
        # every simplex vertex near this start puts data outside the support
        x = gev_sample(GevParams(100.0, 30.0, -0.2), 40, seed=3)
        with pytest.raises(ConvergenceError) as err:
            fit_mle(x, init=GevParams(0.0, 1e-3, 0.5))
        assert not err.value.best.converged
        assert err.value.best.objective_value >= SENTINEL


def _nll_terms(x, mu, sigma, xi):
    """The negative log-likelihood with its gradient and Hessian at one
    point, as ``(value, gradient, hessian)`` arrays, from the fitting
    kernel; None outside the support or where any is not finite."""
    nll = _nll_value(x, mu, sigma, xi)
    if nll is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        derivatives = _nll_derivatives(nll, sigma, xi, _nll_buffer(x.size))
    if derivatives is None:
        return None
    return nll[0], np.array(derivatives[0]), np.array(derivatives[1])


def _shape_derivatives(z, u, y, xi):
    return estimators._shape_derivatives(z, u, y, xi, np.empty((2, z.size)))


def _central_differences(x, theta, rel=1e-7):
    """Gradient of the value and Hessian (from the gradient) of
    ``_nll_terms`` by central differences in (mu, sigma, xi)."""
    grad, hess = np.empty(3), np.empty((3, 3))
    for j in range(3):
        h = rel * (1.0 + abs(theta[j]))
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        v_up, g_up, _ = _nll_terms(x, *up)
        v_down, g_down, _ = _nll_terms(x, *down)
        grad[j] = (v_up - v_down) / (2.0 * h)
        hess[:, j] = (g_up - g_down) / (2.0 * h)
    return grad, hess


class TestLikelihoodDerivatives:
    X = gev_sample(GevParams(100.0, 30.0, 0.1), 40, seed=17)

    @pytest.mark.parametrize("xi", [1e-7, -1e-7, 1e-3, -1e-3, 0.4, -0.4])
    def test_match_central_differences(self, xi):
        theta = np.array([100.0, 60.0, xi])
        value, grad, hess = _nll_terms(self.X, *theta)
        assert value == gev_neg_loglik(self.X, *theta)
        num_grad, num_hess = _central_differences(self.X, theta)
        np.testing.assert_allclose(grad, num_grad, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(hess, num_hess, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(hess, hess.T, rtol=1e-12)

    @pytest.mark.parametrize("xi", [0.4, -0.4])
    def test_match_central_differences_near_the_support_edge(self, xi):
        # the extreme observation sits at u = 1e-3 from the support's end
        sigma = 60.0
        edge = self.X.max() if xi > 0 else self.X.min()
        mu = edge - sigma * (1.0 - 1e-3) / xi
        theta = np.array([mu, sigma, xi])
        u = 1.0 - xi * (self.X - mu) / sigma
        assert u.min() == pytest.approx(1e-3, rel=1e-9)
        _, grad, hess = _nll_terms(self.X, *theta)
        num_grad, num_hess = _central_differences(self.X, theta, rel=1e-9)
        np.testing.assert_allclose(grad, num_grad, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(hess, num_hess, rtol=1e-5, atol=1e-5)

    def test_series_meets_the_closed_forms(self):
        # either side of |xi z| = 0.1, where the series takes over
        z = np.array([1.0])
        sides = []
        for xi in (0.1 * (1.0 - 1e-12), 0.1 * (1.0 + 1e-12)):
            u = 1.0 - xi * z
            sides.append(_shape_derivatives(z, u, -np.log1p(-xi * z) / xi, xi))
        for a, b in zip(*sides):
            assert a[0] == pytest.approx(b[0], rel=1e-11)

    def test_gumbel_limit(self):
        z = np.array([-2.0, 0.5, 3.0])
        y1, y2 = _shape_derivatives(z, np.ones(3), z, 0.0)
        np.testing.assert_allclose(y1, z**2 / 2, rtol=1e-15)
        np.testing.assert_allclose(y2, 2 * z**3 / 3, rtol=1e-15)
        assert gev_neg_loglik(z, 0.0, 1.0, 0.0) == pytest.approx(
            np.sum(z) + np.sum(np.exp(-z)), rel=1e-15)

    def test_outside_support_is_none(self):
        assert _nll_terms(np.array([0.0, 5.0, 10.0]), 0.0, 1.0, 0.3) is None
        assert _nll_terms(np.array([0.0, 5.0]), 0.0, 0.0, 0.0) is None


def _kernel_corpus():
    """Points of the likelihood kernel's reference corpus, as ``(x, theta)``.

    Shapes at and near the Gumbel limit, on both sides of the series'
    threshold ``|xi z| = 0.1``, and near the ends of the shape box; samples
    of 5 to 200 values; for every nonzero shape, the sample's own location
    and points that put its extreme value at ``u`` = 1e-2 or 1e-6 from the
    support's end.
    """
    points = []
    for i, (n, xi) in enumerate((n, xi) for n in (5, 12, 50, 200)
                                for xi in (0.0, 1e-7, -1e-7, 0.05, -0.05, 0.45, -0.45, 0.95, -0.95)):
        x = gev_sample(GevParams(100.0, 30.0, float(np.clip(xi, -0.45, 0.45))), n, seed=9600 + i)
        points.append((x, np.array([100.0, 30.0, xi])))
        points.append((x, np.array([80.0, 45.0, xi])))
        if xi != 0.0:
            edge = x.max() if xi > 0 else x.min()
            for u_min in (1e-2, 1e-6):
                points.append((x, np.array([edge - 30.0 * (1.0 - u_min) / xi, 30.0, xi])))
    return points


def _unit_diagonal(hess):
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0] = 1.0
    return hess / np.outer(d, d)


def _solved_system(grad, hess, damping, last):
    """The scaled system that the reference Newton step solves, as
    ``(matrix, rhs, d)``: the unit-diagonal Hessian (its leading block when
    the last component is fixed at ``last``), damped and, where not
    positive definite, lifted, with the step ``-x / d`` for its solution
    ``x``."""
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0] = 1.0
    scaled, rhs = hess / np.outer(d, d), grad / d
    if last is not None:
        rhs = rhs[:-1] + scaled[:-1, -1] * last * d[-1]
        scaled, d = scaled[:-1, :-1], d[:-1]
    matrix = scaled + damping * np.eye(rhs.size)
    low = np.linalg.eigvalsh(matrix)[0]
    if low <= 1e-12:
        matrix += (max(1e-3, -low) - low) * np.eye(rhs.size)
    return matrix, rhs, d


class TestKernelAgainstReference:
    """The fused likelihood kernel and the scalar Newton step against their
    earlier forms, kept verbatim in ``_oracles``."""

    def test_value_gradient_and_hessian(self):
        from _oracles import nll_terms_reference

        problems, sides, n_none = [], set(), 0
        for x, theta in _kernel_corpus():
            got, want = _nll_terms(x, *theta), nll_terms_reference(x, *theta)
            case = f"n={x.size} theta={theta.tolist()}"
            if got is None or want is None:
                n_none += 1
                if (got is None) != (want is None):
                    problems.append(f"{case}: None differs")
                continue
            t = np.abs(theta[2] * (x - theta[0]) / theta[1])
            sides.update({"near"} if np.all(t < 0.1) else {"far"} if np.all(t >= 0.1) else
                         {"near", "far"})
            if got[0] != want[0]:
                problems.append(f"{case}: value {got[0]!r} != {want[0]!r}")
            for name, a, b in (("gradient", got[1], want[1]), ("hessian", got[2], want[2])):
                err = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))
                if err > 1e-12:
                    problems.append(f"{case}: {name} off by {err:.3g}")
        assert not problems, "\n".join(problems)
        assert sides == {"near", "far"} and n_none < 20

    def test_newton_steps(self):
        from _oracles import newton_steps_reference, nll_terms_reference

        # an indefinite Hessian whose two smaller eigenvalues nearly meet,
        # positive definite ones just above and below the lift threshold
        # (where the pivots' bound on the smallest eigenvalue is too weak to
        # decide), and the likelihood's own Hessians, 2x2 included
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))
        cases = [(np.array([0.3, -1.0, 2.0]), (q * eig) @ q.T)
                 for eig in ([-2e-3, -1.9e-3, 2.5], [2e-12, 1e-2, 3.0], [5e-13, 1e-2, 3.0])]
        for x, theta in _kernel_corpus():
            terms = nll_terms_reference(x, *theta)
            if terms is not None:
                cases += [terms[1:], (terms[1][:2], terms[2][:2, :2])]
        problems, lifted, compared, backward = [], 0, 0, 0
        for grad, hess in cases:
            step = _newton_steps(grad.tolist(), hess.tolist())
            reference = newton_steps_reference(grad, hess)
            for damping in (0.0, 1e-2):
                for last in (None, 0.0, 0.01)[:3 if grad.size == 3 else 1]:
                    got = np.array(step(damping, last))
                    case = f"damping={damping} last={last}\n{hess}"
                    if not np.all(np.isfinite(got)):
                        problems.append(f"{case}: not finite")
                        continue
                    matrix, rhs, d = _solved_system(grad, hess, damping, last)
                    eig = np.linalg.eigvalsh(matrix)
                    if eig[-1] / eig[0] <= 1e6:
                        # two backward-stable solves agree to about the
                        # condition number times the rounding unit
                        want = reference(damping, last)
                        err = np.max(np.abs(got - want)) / (1e-300 + np.max(np.abs(want)))
                        if not err <= 1e-9:
                            problems.append(f"{case}: off by {err:.3g}")
                        compared += 1
                    else:
                        # beyond that only the normwise backward error of
                        # the solve, in the system the reference solves,
                        # is small for both
                        x = -got[:d.size] * d
                        err = np.linalg.norm(matrix @ x - rhs) / (
                            np.linalg.norm(matrix, 2) * np.linalg.norm(x) + np.linalg.norm(rhs))
                        if not err <= 1e-14:
                            problems.append(f"{case}: backward error {err:.3g}")
                        backward += 1
            lifted += np.linalg.eigvalsh(_unit_diagonal(hess))[0] <= 1e-12
        assert not problems, "\n".join(problems)
        assert lifted >= 100 and compared >= 900 and backward >= 20


# (n, shape) cells of the likelihood reference corpus, each with its sample seed
LIKELIHOOD_CELLS = {
    (n, xi): 9300 + i
    for i, (n, xi) in enumerate((n, xi) for n in (10, 30, 70) for xi in (-0.45, 0.0, 0.45))
}
LIKELIHOOD_METHODS = ("mle", "gmle.b.c1", "gmle.b.c6", "gmle.n.c2", "gmle.ms", "gmle.cd")


def _check_against_nelder_mead(x, penalty, max_evals, case):
    """Problems of the Newton fit of ``x`` against the former Nelder-Mead
    search: a higher objective, a different estimate of the same minimum,
    too many evaluations, no convergence."""
    from _oracles import likelihood_fit_nelder_mead

    ref_x, ref_fun = likelihood_fit_nelder_mead(x, penalty)
    try:
        fit = fit_gmle(x, penalty)
    except ConvergenceError as err:
        return [f"{case}: no convergence ({err}), oracle objective {ref_fun!r}"]
    problems = []
    if fit.objective_value != _penalized_nll(x, penalty)(*fit.params.as_tuple())[0]:
        problems.append(f"{case}: objective differs from the objective at the estimate")
    if fit.objective_value > ref_fun + 1e-9:
        problems.append(f"{case}: objective {fit.objective_value!r} > {ref_fun!r}")
    if fit.iterations > max_evals:
        problems.append(f"{case}: {fit.iterations} evaluations")
    # a lower objective is another (better) minimum, with other parameters
    if ref_fun < SENTINEL and fit.objective_value >= ref_fun - 1e-9:
        scale = np.array([1.0 + abs(ref_x[0]), 1.0 + ref_x[1], 1.0])
        gap = np.max(np.abs(np.array(fit.params.as_tuple()) - ref_x) / scale)
        if gap > 1e-6:
            problems.append(f"{case}: scaled parameter gap {gap:.3g}")
    return problems


class TestLikelihoodAgainstNelderMead:
    """Newton steps on the exact derivatives against the former 3-D
    Nelder-Mead search of the same objective, on a seeded corpus."""

    @pytest.mark.parametrize("name", LIKELIHOOD_METHODS)
    def test_corpus(self, name):
        problems = []
        for (n, xi), seed in LIKELIHOOD_CELLS.items():
            x = gev_sample(GevParams(100.0, 30.0, xi), n, seed=seed)
            case = f"{name} n={n} xi={xi}"
            try:
                penalty = _built_penalty(name, x)
            except (LSkewnessError, PenaltySupportError) as err:
                with pytest.raises(type(err)):
                    parse_method(name).fit_stationary(x)
                continue
            problems += _check_against_nelder_mead(x, penalty, 40, case)
        assert not problems, "\n".join(problems)

    # n=10 samples whose likelihood falls all the way to an edge of the shape
    # box: the upper edge, where the largest observation ends up at the
    # support's end (xi -> 1), and the lower one
    EDGE_SAMPLES = [(0.45, 7086, 1.0), (0.0, 7026, 1.0), (0.45, 9205, 1.0), (-0.45, 9255, -1.0)]

    @pytest.mark.parametrize("name", LIKELIHOOD_METHODS)
    @pytest.mark.parametrize("xi,seed,edge", EDGE_SAMPLES)
    def test_shape_box_edges(self, name, xi, seed, edge):
        x = gev_sample(GevParams(100.0, 30.0, xi), 10, seed=seed)
        assert fit_mle(x).params.xi == pytest.approx(edge, abs=1e-7)
        penalty = _built_penalty(name, x)
        # a penalty with a well searches from two starts
        starts = 1 if penalty.well is None else 2
        problems = _check_against_nelder_mead(x, penalty, 40 * starts, name)
        assert not problems, "\n".join(problems)


class TestInfeasibleDefaultStart:
    """Samples whose L-moment estimate puts an observation outside its own
    support; the default start then widens the scale."""

    CASES = [(30, 0.45, 9403), (30, -0.45, 9548), (50, 0.3, 9407), (50, -0.15, 9578),
             (70, 0.15, 9523), (70, -0.3, 9578), (70, 0.45, 9403), (50, 0.45, 9403)]

    @pytest.mark.parametrize("n,xi,seed", CASES)
    def test_fit_converges_from_the_repaired_start(self, n, xi, seed):
        x = gev_sample(GevParams(100.0, 30.0, xi), n, seed=seed)
        start = _default_init(x)
        assert np.any(1.0 - start.xi * (x - start.mu) / start.sigma <= 0)
        problems = []
        for name in ("mle", "gmle.n.c2", "gmle.cd"):
            problems += _check_against_nelder_mead(x, _built_penalty(name, x), 40, name)
        assert not problems, "\n".join(problems)

    def test_given_init_is_not_repaired(self):
        x = gev_sample(GevParams(100.0, 30.0, 0.45), 30, seed=9403)
        start = _default_init(x)
        with pytest.raises(ConvergenceError, match="infeasible") as err:
            fit_mle(x, init=start)
        assert err.value.best.objective_value >= SENTINEL


class TestOutOfRangeSkewness:
    """A sample whose L-skewness lies below the range attainable for a GEV
    shape in (-1, 1)."""

    @pytest.fixture(scope="class")
    def sample(self):
        x = gev_sample(GevParams(100.0, 30.0, 0.2), 30, seed=11)
        x[np.argmin(x)] -= 400.0
        assert sample_lmoments(x).t3 < -1.0 / 3.0
        return x

    @pytest.mark.parametrize("name", ["lme", "gmle.b.c1", "glme.b.c1"])
    def test_estimators_needing_the_lmoment_shape_raise(self, sample, name):
        with pytest.raises(LSkewnessError, match="L-skewness"):
            parse_method(name).fit_stationary(sample)

    @pytest.mark.parametrize("name", ["mle", "gmle.ms", "gmle.n.c2", "gmle.cd"])
    def test_likelihood_fits_start_from_the_gumbel_fit(self, sample, name):
        problems = _check_against_nelder_mead(sample, _built_penalty(name, sample), 80, name)
        assert not problems, "\n".join(problems)

    @pytest.mark.parametrize("name", ["glme", "glme.ms"])
    def test_glme_needs_no_lmoment_shape(self, sample, name):
        fit = parse_method(name).fit_stationary(sample)
        assert fit.converged


class TestTiedSamples:
    """Fewer than 3 distinct values leave the likelihood unbounded (sigma -> 0);
    every stationary fitter rejects such a sample with the same typed error."""

    @pytest.mark.parametrize("x", [[0.0] * 20 + [1.0], [1.0] * 30 + [1e9]])
    @pytest.mark.parametrize("name", ["lme", "mle", "gmle.n.c2", "glme", "glme.b.c1"])
    def test_two_values_raise(self, x, name):
        with pytest.raises(DegenerateDataError, match="3 distinct"):
            parse_method(name).fit_stationary(x)

    @pytest.mark.parametrize("name", ["lme", "mle", "gmle.n.c2", "glme", "glme.b.c1"])
    def test_rounded_sample_fits(self, name):
        # 40 draws rounded to multiples of 20: 9 distinct values
        x = np.round(gev_sample(GevParams(100.0, 30.0, -0.1), 40, seed=3) / 20.0) * 20.0
        assert np.unique(x).size == 9
        fit = parse_method(name).fit_stationary(x)
        assert fit.converged and fit.params.sigma > 1.0

    # three distinct values: the likelihood still runs off to sigma -> 0 at
    # the lower edge of the shape box, so the unpenalized and normal-penalty
    # likelihood fits exhaust their evaluation caps, while the L-moment fits
    # and a beta penalty bounded away from -1 converge.  This pins the current
    # behaviour; which of these a fit should reject is still open (ROADMAP
    # item 4).
    THREE_VALUES = [0.0] * 10 + [1.0] * 6 + [2.0] * 4

    @pytest.mark.parametrize("name", ["mle", "gmle.n.c2"])
    def test_three_values_stall_the_likelihood(self, name):
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            parse_method(name).fit_stationary(self.THREE_VALUES)
        best = err.value.best
        assert best.params.xi == pytest.approx(-1.0, abs=1e-7)
        assert best.params.sigma < 1e-4

    @pytest.mark.parametrize("name", ["lme", "glme.b.c1", "gmle.b.c6"])
    def test_three_values_fit(self, name):
        fit = parse_method(name).fit_stationary(self.THREE_VALUES)
        assert fit.converged and 0.3 < fit.params.sigma < 0.6


class TestEquivariance:
    """A fit commutes with a change of units: the fit of ``a + c x`` is
    ``(a + c mu, c sigma, xi)``.  The error is the worst of ``|dxi|``,
    ``|dmu|/sigma`` and ``|dsigma|/sigma``; the trend fits are not covered
    (ROADMAP item 10)."""

    TOL = 1e-6
    SAMPLES = [gev_sample(GevParams(100.0, 30.0, xi), 30, seed=9700 + i)
               for i, xi in enumerate((-0.45, -0.3, -0.15, 0.0, 0.15, 0.3) * 2)]
    SCALES = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9)
    SPREADS = (1e5, 1e7)  # offsets, in units of the sample's range

    @pytest.mark.parametrize("name", ["mle", "gmle.b.c6", "gmle.n.c2", "lme", "glme",
                                      "glme.b.c1", "glme.n.c3", "glme.cd"])
    def test_units(self, name):
        method = parse_method(name)
        worst = 0.0
        for x in self.SAMPLES:
            base = method.fit_stationary(x).params
            changes = [(0.0, c) for c in self.SCALES] + [(k * np.ptp(x), 1.0) for k in self.SPREADS]
            for a, c in changes:
                fit = method.fit_stationary(a + c * x).params
                scale = c * base.sigma
                worst = max(worst, abs(fit.xi - base.xi), abs(fit.mu - (a + c * base.mu)) / scale,
                            abs(fit.sigma - scale) / scale)
        assert worst <= self.TOL


FLOOD_ROWS = [
    # method, mu, sigma, xi, r100
    ("mle", 119.17, 102.09, -0.608, 2709.0),
    ("lme", 129.89, 120.70, -0.377, 1626.0),
    ("glme.n.c1", 128.89, 120.03, -0.385, 1651.0),
    ("glme.n.c2", 126.06, 117.93, -0.405, 1710.0),
    ("glme.n.c3", 128.32, 119.63, -0.390, 1664.0),
    ("glme.n.c4", 125.75, 117.69, -0.407, 1716.0),
    ("glme.b.c1", 125.44, 117.43, -0.409, 1721.0),
    ("glme.b.c2", 121.89, 114.39, -0.429, 1774.0),
    ("glme.b.c3", 119.77, 112.44, -0.440, 1798.0),
    ("glme.b.c4", 124.09, 116.31, -0.417, 1743.0),
    ("glme.b.c5", 119.65, 112.33, -0.441, 1800.0),
    ("glme.b.c6", 116.99, 109.75, -0.453, 1824.0),
]


class TestFloodTable:
    """Reference fits of the bundled flood series, all twelve rows."""

    @pytest.mark.parametrize("name,mu,sigma,xi,r100", FLOOD_ROWS, ids=[r[0] for r in FLOOD_ROWS])
    def test_row(self, flood, name, mu, sigma, xi, r100):
        from glme.methods import parse_method

        fit = parse_method(name).fit_stationary(flood.values, cov_method="exact")
        assert fit.params.mu == pytest.approx(mu, rel=0.005)
        assert fit.params.sigma == pytest.approx(sigma, rel=0.005)
        assert fit.params.xi == pytest.approx(xi, abs=0.01)
        assert return_level(fit.params, 100.0) == pytest.approx(r100, rel=0.01)


class TestProfile:
    def test_argmax_matches_full_fit(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 60, seed=14)
        fit = fit_glme(x)
        grid = np.linspace(-0.7, 0.2, 46)
        points = profile_xi(x, method="glme", grid=grid)
        best = max(points, key=lambda p: p.value)
        spacing = grid[1] - grid[0]
        assert abs(best.xi - fit.params.xi) <= spacing + 1e-12

    def test_single_point_grid(self):
        x = gev_sample(GevParams(100.0, 30.0, -0.3), 40, seed=14)
        points = profile_xi(x, method="mle", grid=[-0.3])
        assert len(points) == 1
        assert points[0].converged

    def test_unimodal_on_flood_series(self, flood):
        grid = np.linspace(-0.9, 0.3, 121)
        points = profile_xi(flood.values, method="glme", grid=grid)
        values = np.array([p.value for p in points])
        k = int(np.argmax(values))
        assert np.all(np.diff(values[: k + 1]) > 0)
        assert np.all(np.diff(values[k:]) < 0)

    def test_grid_domain_checked(self):
        x = gev_sample(GevParams(0.0, 1.0, 0.0), 30, seed=1)
        with pytest.raises(ValueError, match="grid"):
            profile_xi(x, grid=[-1.2, 0.0])
        with pytest.raises(ValueError, match="method"):
            profile_xi(x, method="bayes", grid=[0.0])

    def test_glme_values_are_exact_maxima(self, flood):
        x = flood.values
        fit = fit_glme(x, AdaptiveBetaRequest(6))
        [point] = profile_xi(x, "glme", AdaptiveBetaRequest(6), [fit.params.xi])
        assert point.converged
        assert point.value == pytest.approx(-fit.objective_value, abs=1e-9)
        V = lmoment_cov(x)
        mu, sigma, xi = fit.params.as_tuple()
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = GevParams(mu * rng.uniform(0.95, 1.05), sigma * rng.uniform(0.95, 1.05), xi)
            assert -glme_objective(x, V, other, fit.penalty) <= point.value + 1e-12

    def test_mle_values_are_maxima(self, flood):
        x = flood.values
        fit = fit_mle(x)
        [point] = profile_xi(x, "mle", grid=[fit.params.xi])
        assert point.converged
        assert point.value == pytest.approx(-fit.objective_value, abs=1e-9)
        # shapes up to 0.3 put the largest flood loss outside the support of
        # the L-moment start; the start's scale is widened there
        points = profile_xi(x, "mle", grid=np.linspace(-0.9, 0.3, 13))
        assert all(p.converged for p in points)
        assert max(p.value for p in points) <= point.value + 1e-9
        rng = np.random.default_rng(1)
        for p in points:
            mu, sigma = rng.uniform(100.0, 140.0), rng.uniform(80.0, 140.0)
            assert -gev_neg_loglik(x, mu, sigma, p.xi) <= p.value

    def test_infeasible_points_flagged(self, flood):
        points = profile_xi(flood.values, "glme", FixedBetaPenalty.from_preset("ms"),
                            [-0.6, -0.3])
        assert [p.converged for p in points] == [False, True]
        assert points[0].value == -SENTINEL

    @pytest.mark.parametrize("alpha_n", [0.5, 1.0])
    def test_zero_weight_shapes_flagged_for_any_weight(self, flood, alpha_n):
        grid = np.linspace(-0.9, 0.3, 61)
        points = profile_xi(flood.values, "glme", parse_method("glme.ms").penalty, grid,
                            alpha_n=alpha_n)
        outside = [p for p in points if not -0.5 < p.xi < 0.5]
        assert len(outside) == 21
        assert all(not p.converged and p.value == -SENTINEL for p in outside)
        assert all(p.converged for p in points if -0.5 < p.xi < 0.5)

    def test_strong_penalty_narrows_curve(self, flood):
        # half-width of the profile at the 1.92 drop from its peak
        def halfwidth(points):
            xi = np.array([p.xi for p in points])
            v = np.array([p.value for p in points])
            above = xi[v >= v.max() - 1.92]
            return above.max() - above.min()

        grid = np.linspace(-0.75, -0.05, 141)
        flat = profile_xi(flood.values, "glme", FlatPenalty(), grid)
        strong = profile_xi(flood.values, "glme", AdaptiveBetaRequest(6), grid)
        assert halfwidth(strong) < halfwidth(flat)
