"""Penalty families: densities, normalization, adaptive construction, parsing."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from glme.errors import PenaltySupportError
from glme.penalties import (
    ADAPTIVE_CHOICES,
    BETA_PRESETS,
    NORMAL_CHOICES,
    SENTINEL,
    AdaptiveBetaRequest,
    ColesDixonPenalty,
    FixedBetaPenalty,
    FlatPenalty,
    NormalPenalty,
    build_beta_adaptive,
    parse_penalty,
)

# q values for the adaptive beta family, by (choice, initial shape estimate)
Q_TABLE = {
    (1, -0.4): 10.0, (1, -0.25): 8.5, (1, -0.1): 7.0,
    (2, -0.4): 13.0, (2, -0.25): 11.0, (2, -0.1): 8.0,
    (3, -0.4): 15.0, (3, -0.25): 13.5, (3, -0.1): 9.0,
    (4, -0.4): 6.0, (4, -0.25): 4.5, (4, -0.1): 3.0,
    (5, -0.4): 9.0, (5, -0.25): 7.0, (5, -0.1): 4.0,
    (6, -0.4): 11.0, (6, -0.25): 9.5, (6, -0.1): 5.0,
}


class TestColesDixon:
    def test_branches(self):
        pen = ColesDixonPenalty()
        assert pen.value(0.2) == 1.0
        assert pen.value(0.0) == 1.0
        assert pen.value(-1.0) == 0.0
        assert pen.value(-1.5) == 0.0

    def test_interior_value(self):
        # 1/(1 - 0.5) - 1 = 1 at xi = -0.5 with alpha = lambda = 1
        assert ColesDixonPenalty(1.0, 1.0).value(-0.5) == pytest.approx(
            math.exp(-1.0), rel=1e-14
        )

    def test_neg_log_sentinel_below_minus_one(self):
        pen = ColesDixonPenalty()
        assert pen.neg_log(-1.0) == SENTINEL
        assert pen.neg_log(-2.0) == SENTINEL
        assert pen.neg_log(0.3) == 0.0

    def test_rejects_negative_hyper(self):
        with pytest.raises(ValueError):
            ColesDixonPenalty(alpha=-1.0)


class TestFixedBeta:
    @pytest.mark.parametrize("p,q", [(6.0, 9.0), (2.5, 2.5), (2.0, 3.3)])
    def test_integrates_to_one(self, p, q):
        pen = FixedBetaPenalty(p, q)
        val, _ = quad(pen.value, -0.5, 0.5, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_choice_peaks_at_zero(self):
        pen = FixedBetaPenalty(2.5, 2.5)
        assert pen.mode == pytest.approx(0.0, abs=1e-15)
        grid = np.linspace(-0.49, 0.49, 197)
        vals = [pen.value(t) for t in grid]
        assert grid[int(np.argmax(vals))] == pytest.approx(0.0, abs=0.01)

    def test_asymmetric_mode(self):
        pen = FixedBetaPenalty(6.0, 9.0)
        assert pen.mode == pytest.approx(-0.5 + 5.0 / 13.0, rel=1e-12)

    def test_zero_outside_support(self):
        pen = FixedBetaPenalty(6.0, 9.0)
        assert pen.value(0.5) == 0.0
        assert pen.value(-0.7) == 0.0
        assert pen.neg_log(0.8) == SENTINEL

    def test_presets(self):
        assert FixedBetaPenalty.from_preset("ms") == FixedBetaPenalty(6.0, 9.0, preset="ms")
        assert FixedBetaPenalty.from_preset("cannon").q == 3.3
        assert FixedBetaPenalty.from_preset("park").p == 2.5
        with pytest.raises(ValueError, match="preset"):
            FixedBetaPenalty.from_preset("nope")


class TestNormal:
    def test_vanishes_far_away(self):
        pen = NormalPenalty.from_choice(1)
        assert pen.value(1e6) == pytest.approx(1.0, abs=1e-12)
        assert pen.value(-1e6) == pytest.approx(1.0, abs=1e-12)

    def test_peak_value(self):
        pen = NormalPenalty.from_choice(1)  # mean -0.5, sd 0.2
        want = 1.0 + 1.0 / (0.2 * math.sqrt(2.0 * math.pi))
        assert pen.value(-0.5) == pytest.approx(want, rel=1e-12)
        assert pen.value(-0.5) == pytest.approx(2.99471, abs=1e-5)

    def test_choice_catalog(self):
        assert NORMAL_CHOICES[4] == (-0.6, 0.1)
        pen = NormalPenalty.from_choice(4)
        assert (pen.mean, pen.sd) == (-0.6, 0.1)
        with pytest.raises(ValueError):
            NormalPenalty.from_choice(5)

    def test_strictly_above_one_so_never_a_hard_penalty(self):
        pen = NormalPenalty.from_choice(2)
        for xi in np.linspace(-3.0, 3.0, 101):
            assert pen.value(xi) >= 1.0
            assert pen.neg_log(xi) <= 0.0
        # strict within the range a double can resolve the added density
        for xi in np.linspace(pen.mean - 8 * pen.sd, pen.mean + 8 * pen.sd, 81):
            assert pen.value(xi) > 1.0
            assert pen.neg_log(xi) < 0.0


class TestAdaptiveBeta:
    def test_reference_construction(self):
        pen = build_beta_adaptive(5, -0.1)
        assert (pen.p, pen.q) == (2.0, 4.0)
        assert pen.lower == pytest.approx(-0.4)
        assert pen.upper == pytest.approx(0.2)

    @pytest.mark.parametrize("choice,xi_hat", sorted(Q_TABLE))
    def test_q_catalog(self, choice, xi_hat):
        pen = build_beta_adaptive(choice, xi_hat)
        assert pen.q == pytest.approx(Q_TABLE[(choice, xi_hat)], rel=1e-12)
        assert pen.p == ADAPTIVE_CHOICES[choice][0]

    def test_positive_estimate_gives_symmetric_exponents(self):
        for choice in range(1, 7):
            pen = build_beta_adaptive(choice, 0.2)
            assert pen.q == pen.p
            assert pen.upper == pytest.approx(0.3)  # clipped from above

    def test_support_clipping(self):
        pen = build_beta_adaptive(1, -0.9)
        assert pen.lower == pytest.approx(-1.0)
        assert pen.upper == pytest.approx(-0.6)

    def test_degenerate_support_rejected(self):
        with pytest.raises(PenaltySupportError, match="support"):
            build_beta_adaptive(1, -1.5)

    @pytest.mark.parametrize("choice,xi_hat", [(1, -0.4), (5, -0.1), (6, -0.25)])
    def test_integrates_to_one(self, choice, xi_hat):
        pen = build_beta_adaptive(choice, xi_hat)
        val, _ = quad(pen.value, pen.lower, pen.upper, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_mode_formula_and_grid_argmin(self):
        pen = build_beta_adaptive(5, -0.1)
        assert pen.mode == pytest.approx(-0.4 + 0.25 * 0.6, rel=1e-12)
        grid = np.linspace(pen.lower + 1e-6, pen.upper - 1e-6, 4001)
        neg = [pen.neg_log(t) for t in grid]
        assert grid[int(np.argmin(neg))] == pytest.approx(pen.mode, abs=1e-3)

    def test_mode_sits_below_negative_estimate(self):
        # q > p for negative estimates puts the mode left of the midpoint
        for choice in range(1, 7):
            pen = build_beta_adaptive(choice, -0.25)
            midpoint = 0.5 * (pen.lower + pen.upper)
            assert pen.q > pen.p
            assert pen.mode < midpoint

    def test_q_nondecreasing_in_choice_strength(self):
        for xi_hat in (-0.4, -0.25, -0.1):
            for a, b in ((1, 2), (2, 3), (4, 5), (5, 6)):
                qa = build_beta_adaptive(a, xi_hat).q
                qb = build_beta_adaptive(b, xi_hat).q
                assert qa <= qb

    def test_request_builds_lazily(self):
        req = AdaptiveBetaRequest(3)
        pen = req.build(-0.4)
        assert pen.q == 15.0
        with pytest.raises(ValueError):
            AdaptiveBetaRequest(7)


class TestBetaNorm:
    """The beta families' normalizer uses ``math.lgamma``;
    ``scipy.special.beta`` is the oracle."""

    @staticmethod
    def _check(penalty):
        ref = beta_fn(penalty.p, penalty.q) * (penalty.upper - penalty.lower) ** (
            penalty.p + penalty.q - 1.0)
        assert abs(penalty._norm / ref - 1.0) <= 1e-13

    @pytest.mark.parametrize("name", sorted(BETA_PRESETS))
    def test_presets(self, name):
        self._check(FixedBetaPenalty.from_preset(name))

    @pytest.mark.parametrize("xi_hat", [-0.45, -0.1, 0.2])
    @pytest.mark.parametrize("choice", sorted(ADAPTIVE_CHOICES))
    def test_adaptive_choices(self, choice, xi_hat):
        self._check(build_beta_adaptive(choice, xi_hat))


class TestFlat:
    def test_zero_neg_log_everywhere(self):
        pen = FlatPenalty()
        for xi in (-5.0, -1.0, 0.0, 2.0):
            assert pen.value(xi) == 1.0
            assert pen.neg_log(xi) == 0.0


class TestParsePenalty:
    def test_families(self):
        assert parse_penalty("flat") == FlatPenalty()
        assert parse_penalty("cd") == ColesDixonPenalty(1.0, 1.0)
        assert parse_penalty("cd:alpha=2,lambda=0.5") == ColesDixonPenalty(2.0, 0.5)
        assert parse_penalty("normal:choice=3") == NormalPenalty.from_choice(3)
        assert parse_penalty("normal:mu=-0.6,sd=0.1") == NormalPenalty(-0.6, 0.1)
        assert parse_penalty("beta_fixed:preset=ms") == FixedBetaPenalty.from_preset("ms")
        assert parse_penalty("beta_fixed:p=4,q=7") == FixedBetaPenalty(4.0, 7.0)
        assert parse_penalty("beta_adaptive:choice=5") == AdaptiveBetaRequest(5)
        assert parse_penalty("beta_adaptive:choice=2,c0=0.4") == AdaptiveBetaRequest(2, 0.4)
        assert parse_penalty("cannon") == FixedBetaPenalty.from_preset("cannon")

    @pytest.mark.parametrize(
        "bad",
        ["", "unknown", "normal", "normal:mu=1", "beta_fixed:p=2", "beta_adaptive",
         "cd:alpha", "beta_adaptive:choice=9",
         # misspelt or undocumented keys, which would otherwise fall back
         # to a default or be dropped
         "cd:lamda=5", "beta_fixed:p=2,q=3,lower=-0.9", "beta_adaptive:choice=2,c=0.5",
         "normal:choice=2,mu=0", "ms:p=1", "flat:x=1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_penalty(bad)

    @pytest.mark.parametrize("bad,key", [
        ("cd:lamda=5", "lamda"), ("beta_fixed:p=2,q=3,lower=-0.9", "lower"),
        ("beta_adaptive:choice=2,c=0.5", "'c'"), ("normal:choice=2,mu=0", "mu"),
        ("ms:p=1", "'p'"), ("flat:x=1", "'x'"),
    ])
    def test_unknown_key_is_named(self, bad, key):
        with pytest.raises(ValueError, match=key):
            parse_penalty(bad)

    def test_every_cataloged_density_normalizes(self):
        pens = [FixedBetaPenalty.from_preset(name) for name in BETA_PRESETS]
        pens += [build_beta_adaptive(c, x) for c in range(1, 7) for x in (-0.4, -0.25, -0.1)]
        for pen in pens:
            val, _ = quad(pen.value, pen.lower, pen.upper, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)
