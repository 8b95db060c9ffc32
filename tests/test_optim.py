"""Sanity checks of the derivative-free minimizers."""

import math

import numpy as np
import pytest

from glme._optim import brent, nelder_mead
from glme.penalties import SENTINEL


def quadratic(x):
    return float((x[0] - 3.0) ** 2 + 2.0 * (x[1] + 1.0) ** 2)


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestNelderMead:
    def test_quadratic_minimum(self):
        res = nelder_mead(quadratic, [0.0, 0.0], [1.0, 1.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [3.0, -1.0], atol=1e-6)

    def test_rosenbrock(self):
        res = nelder_mead(rosenbrock, [-1.2, 1.0], [0.5, 0.5], max_evals=4000)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_deterministic(self):
        a = nelder_mead(rosenbrock, [0.0, 0.0], [0.5, 0.5], seed=5)
        b = nelder_mead(rosenbrock, [0.0, 0.0], [0.5, 0.5], seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.fun == b.fun

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x0 = rng.uniform(-2, 2, size=2)
            res = nelder_mead(rosenbrock, x0, [0.3, 0.3], max_evals=200)
            assert res.fun <= rosenbrock(x0)

    def test_sentinel_wall(self):
        def walled(x):
            if x[0] <= 0:
                return SENTINEL
            return float((x[0] - 0.5) ** 2 + x[1] ** 2)

        res = nelder_mead(walled, [2.0, 1.0], [0.5, 0.5])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.5, 0.0], atol=1e-6)

    def test_f_target_stops_early(self):
        res = nelder_mead(quadratic, [0.1, 0.1], [1.0, 1.0], f_target=1e-3)
        assert res.converged
        assert res.fun <= 1e-3

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            nelder_mead(quadratic, [0.0, 0.0], [1.0, 0.0])


class TestBrent:
    def test_parabola_minimum_to_xtol(self):
        res = brent(lambda t: (t - 0.3) ** 2 + 1.0, -1.0, 2.0, xtol=1e-8)
        assert res.converged
        assert abs(res.x - 0.3) <= 1e-8
        assert res.fun == pytest.approx(1.0, abs=1e-15)

    def test_smooth_minimum_to_tolerance(self):
        # cos has no parabolic shortcut; the bracket tolerance governs
        res = brent(math.cos, 2.0, 5.0, xtol=1e-10)
        assert res.converged
        assert abs(res.x - math.pi) <= 2e-8

    def test_minimum_at_sentinel_wall(self):
        # decreasing up to a zero-weight plateau: the minimum sits at the wall
        def walled(t):
            return SENTINEL if t >= 0.7 else (t - 1.0) ** 2

        res = brent(walled, 0.0, 1.0, xtol=1e-10)
        assert res.converged
        assert 0.7 - 1e-7 < res.x < 0.7
        assert res.fun < SENTINEL

    def test_minimum_next_to_sentinel_plateau(self):
        def walled(t):
            return SENTINEL if t >= 0.65 else (t - 0.6) ** 2

        res = brent(walled, 0.0, 1.0, xtol=1e-10)
        assert res.converged
        assert abs(res.x - 0.6) <= 1e-8

    @pytest.mark.parametrize("fn", [
        lambda t: (t - 0.3) ** 2,
        lambda t: abs(t - 0.123456789),
        lambda t: -t,
        lambda t: t,
        lambda t: SENTINEL if t >= 0.7 else (t - 1.0) ** 2,
    ])
    def test_evaluations_stay_inside_bracket(self, fn):
        seen = []

        def recorded(t):
            seen.append(t)
            return fn(t)

        res = brent(recorded, 0.0, 1.0, xtol=1e-12)
        assert len(seen) == res.n_eval
        assert all(0.0 < t < 1.0 for t in seen)

    def test_deterministic(self):
        a = brent(lambda t: math.cosh(t - 0.25) + 0.1 * t**3, -1.0, 1.0)
        b = brent(lambda t: math.cosh(t - 0.25) + 0.1 * t**3, -1.0, 1.0)
        assert (a.x, a.fun, a.n_eval, a.converged) == (b.x, b.fun, b.n_eval, b.converged)

    def test_eval_budget(self):
        res = brent(math.cos, 2.0, 5.0, xtol=0.0, max_evals=5)
        assert res.n_eval == 5
        assert not res.converged

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            brent(math.cos, 1.0, 1.0)
