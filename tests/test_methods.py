"""Method strings: one parser for the dotted names and the --penalty spelling;
fits through a shared per-sample memo on edge-case samples."""

import math

import numpy as np
import pytest

from glme import nonstationary
from glme.errors import (
    FIT_FAILURES,
    ConvergenceError,
    DegenerateDataError,
    PenaltySupportError,
    SampleSizeError,
)
from glme.estimators import FIT_MIN_N
from glme.gev import GevParams, gev_sample, return_level
from glme.lmoments import COV_MIN_N
from glme.methods import MethodSpec, parse_method
from glme.nonstationary import NsModel, gev11_design, ns_return_level, ns_sample
from glme.penalties import FlatPenalty
from glme.simulation import DEFAULT_GEV11_METHODS, DEFAULT_STATIONARY_METHODS, SimCell


@pytest.mark.parametrize(
    "dotted,kind,penalty",
    [
        ("gmle.b.c6", "gmle", "beta_adaptive:choice=6"),
        ("glme.b.c1", "glme", "beta_adaptive:choice=1"),
        ("glme.n.c2", "glme", "normal:choice=2"),
        ("gmle.ms", "gmle", "ms"),
        ("glme.ms", "glme", "beta_fixed:preset=ms"),
        ("glme.cannon", "glme", "cannon"),
        ("gmle", "gmle", "flat"),
        ("glme", "glme", "flat"),
    ],
)
def test_both_spellings_give_equal_specs(dotted, kind, penalty):
    assert parse_method(kind, penalty) == parse_method(dotted)


def test_penalty_argument_applies_to_bare_names_only():
    assert parse_method("glme.n.c2", "ms") == parse_method("glme.n.c2")
    assert parse_method("lme", "ms") == MethodSpec("lme", FlatPenalty(), "lme")
    assert parse_method("mle", "normal:choice=1") == MethodSpec("mle", FlatPenalty(), "mle")


def test_full_penalty_grammar_names_the_method_by_label():
    spec = parse_method("gmle", "cd:alpha=2,lambda=0.5")
    assert spec.name == "gmle.cd:alpha=2,lambda=0.5"
    assert spec == parse_method("gmle.cd:alpha=2,lambda=0.5")


@pytest.mark.parametrize("text,penalty", [("bayes", "flat"), ("glme", "bogus"), ("", "flat"),
                                          ("lme.b.c1", "flat")])
def test_rejects_malformed(text, penalty):
    with pytest.raises(ValueError):
        parse_method(text, penalty)


def _trend_series(n, xi, seed):
    return ns_sample(NsModel([0.0, -0.1], [1.0, 0.02], xi, gev11_design(n)), seed)


_T40 = np.arange(1.0, 41.0)
_LINE_WITH_OUTLIER = 1.0 + 0.5 * _T40
_LINE_WITH_OUTLIER[7] += 5.0
_NEAR_LINE = 1.0 + 0.5 * _T40 + 1e-3 * np.random.default_rng(1).standard_normal(40)

# an L-moment shape above 0.6 leaves the adaptive beta no support
_NO_BETA = {"glme.b.c1": PenaltySupportError}

# trend series at the edges of what the staged fit handles, and the typed
# failure every trend method raises on it, or the methods that fail and
# how (the others converge)
TREND_CORPUS = {
    "n=10": (_trend_series(10, -0.2, 17), None),
    "n=11": (_trend_series(11, -0.2, 18), None),
    "n=12": (_trend_series(12, -0.2, 19), None),
    "two-valued": (np.where(np.arange(40) % 3 == 0, 1.0, 2.0), DegenerateDataError),
    "three-valued": (np.arange(40) % 3 * 1.0, None),
    "rounded": (np.round(_trend_series(40, -0.2, 3)), None),
    "constant": (np.full(40, 3.0), DegenerateDataError),
    "near-constant": (3.0 + 1e-13 * np.sin(_T40), DegenerateDataError),
    "near-constant-1e-6": (3.0 + 1e-6 * np.sin(_T40), _NO_BETA),
    "linear": (1.0 + 0.5 * _T40, DegenerateDataError),
    "linear+outlier": (_LINE_WITH_OUTLIER, DegenerateDataError),
    "near-linear": (_NEAR_LINE, None),
    "near-linear+outlier": (_NEAR_LINE + (_T40 == 8) * 5.0, None),
    "xi=-0.95": (_trend_series(40, -0.95, 11), None),
    "xi=0.95": (_trend_series(40, 0.95, 11), _NO_BETA),
}
TREND_METHODS = ("glme", *DEFAULT_GEV11_METHODS)

# stationary samples: a tie pattern, the smallest sample the covariance
# accepts, rounding and shapes near the box edges
STATIONARY_CORPUS = {
    "three values 10/6/4": np.array([0.0] * 10 + [1.0] * 6 + [2.0] * 4),
    "n=10": gev_sample(GevParams(100.0, 30.0, -0.3), 10, 5),
    "rounded": np.round(gev_sample(GevParams(10.0, 3.0, -0.3), 30, 5)),
    "xi=-0.95": gev_sample(GevParams(100.0, 30.0, -0.95), 30, 5),
    "xi=0.95": gev_sample(GevParams(100.0, 30.0, 0.95), 30, 5),
}
STATIONARY_METHODS = (*DEFAULT_STATIONARY_METHODS, "glme", "gmle.n.c2")


def _outcome(fit):
    """``fit()``'s return level, or the class of the typed failure it raised."""
    try:
        return fit()
    except FIT_FAILURES as failure:
        return type(failure)


def _outcomes(methods, fit):
    """Each method's outcome fitted alone, and fitted in order with one
    shared memo, as the simulation harness fits a trial."""
    alone = {name: _outcome(lambda: fit(parse_method(name), None)) for name in methods}
    memo = {}
    shared = {name: _outcome(lambda: fit(parse_method(name), memo)) for name in methods}
    return alone, shared


def _check(outcome):
    assert isinstance(outcome, type) or math.isfinite(outcome), outcome


@pytest.mark.filterwarnings("error")
class TestEdgeCorpus:
    """Every method converges to a finite return level or fails with a
    typed error, warns about nothing, and gives the same outcome whether or
    not it shares a memo with the other methods of the sample."""

    @pytest.mark.parametrize("case", TREND_CORPUS)
    def test_trend_methods(self, case):
        z, failures = TREND_CORPUS[case]
        X = gev11_design(z.size)

        def fit(spec, memo):
            model = spec.fit_ns(z, X, memo=memo).model
            return ns_return_level(model, 100.0, z.size - 1)

        alone, shared = _outcomes(TREND_METHODS, fit)
        assert shared == alone
        if not isinstance(failures, dict):
            failures = dict.fromkeys(TREND_METHODS, failures)
        for name, outcome in alone.items():
            _check(outcome)
            if failures.get(name) is None:
                assert not isinstance(outcome, type), (name, outcome)
            else:
                assert outcome is failures[name], (name, outcome)

    @pytest.mark.parametrize("case", STATIONARY_CORPUS)
    def test_stationary_methods(self, case):
        x = STATIONARY_CORPUS[case]

        def fit(spec, memo):
            return return_level(spec.fit_stationary(x, memo=memo).params, 100.0)

        alone, shared = _outcomes(STATIONARY_METHODS, fit)
        assert shared == alone
        for outcome in alone.values():
            _check(outcome)

    def test_three_value_split(self):
        # pinned: the likelihood fits fail on this tie pattern, the
        # L-moment fits converge
        x = STATIONARY_CORPUS["three values 10/6/4"]
        for name in ("mle", "gmle.n.c2"):
            with pytest.raises(ConvergenceError):
                parse_method(name).fit_stationary(x)
        for name in ("lme", "glme", "glme.b.c1"):
            assert parse_method(name).fit_stationary(x).converged


class TestMinimumSize:
    """``MethodSpec.min_n`` is the size below which every fit, stationary or
    trend, raises ``SampleSizeError``, and from which it fits."""

    @pytest.mark.parametrize("name, min_n", [
        ("lme", 5), ("mle", 5), ("gmle.b.c1", 5), ("gmle.n.c2", 5),
        ("glme", 10), ("glme.b.c1", 10), ("glme.n.c3", 10),
    ])
    def test_stationary(self, name, min_n):
        spec = parse_method(name)
        assert spec.min_n == min_n
        with pytest.raises(SampleSizeError):
            spec.fit_stationary(gev_sample(GevParams(100.0, 30.0, -0.2), min_n - 1, 4))
        fit = spec.fit_stationary(gev_sample(GevParams(100.0, 30.0, -0.2), min_n, 4))
        assert fit.converged

    @pytest.mark.parametrize("name", TREND_METHODS)
    def test_trend(self, name):
        spec = parse_method(name)

        def fit(n):
            X = gev11_design(n)
            return spec.fit_ns(ns_sample(NsModel([0.0, -0.1], [1.0, 0.02], -0.2, X), 3), X)

        with pytest.raises(SampleSizeError):
            fit(spec.min_n - 1)
        assert fit(spec.min_n).converged

    def test_trend_glme_checks_the_size_first(self, monkeypatch):
        """``fit_ns_glme`` refuses a 9-point series before any stage runs,
        naming itself and the covariance's minimum."""

        def must_not_run(*args, **kwargs):
            raise AssertionError("the trend L-moment fit ran")

        monkeypatch.setattr(nonstationary, "fit_ns_lme", must_not_run)
        model = SimCell("gev11", -0.3, 9).truth_model()
        with pytest.raises(SampleSizeError, match=f"fit_ns_glme needs at least {COV_MIN_N} "):
            parse_method("glme.n.c3").fit_ns(ns_sample(model, 3), model.covariates)

    def test_trend_lme_checks_the_size_first(self, monkeypatch):
        """``fit_ns_lme`` refuses a 4-point series before any stage runs,
        naming itself and the minimum."""

        def must_not_run(*args, **kwargs):
            raise AssertionError("the location regression ran")

        monkeypatch.setattr(nonstationary, "robust_location_fit", must_not_run)
        model = SimCell("gev11", -0.3, FIT_MIN_N - 1).truth_model()
        with pytest.raises(SampleSizeError, match=f"fit_ns_lme needs at least {FIT_MIN_N} "):
            parse_method("lme").fit_ns(ns_sample(model, 3), model.covariates)
