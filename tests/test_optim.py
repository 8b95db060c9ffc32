"""Sanity checks of the minimizers."""

import math

import numpy as np
import pytest

from glme._optim import brent, damped_newton, nelder_mead
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


def kinked(c, w, k0=0.5):
    """``(x - y - 1)**2 + (z - x)**2 + (y - c)**2 + w |y - k0|`` as a
    ``damped_newton`` objective of ``(x, z, y)``, its gradient and Hessian
    taken from the side ``y >= k0`` at the kink, and last the offset
    ``k0 - y`` of the kink, for the hook.  Its minimum has
    ``z = x = y + 1``, and in ``y`` it lies on the kink for
    ``c - w/2 < k0 < c + w/2``, and just past it for ``c + w/2`` just below
    ``k0``.  (The kink is in the last coordinate, and holding that leaves a
    system of two, the smallest the core solves.)"""

    def objective(theta):
        x, z, y = theta
        side = 1.0 if y >= k0 else -1.0
        r1, r2 = x - y - 1.0, z - x
        value = r1 * r1 + r2 * r2 + (y - c) ** 2 + w * abs(y - k0)
        grad = [2.0 * (r1 - r2), 2.0 * r2, -2.0 * r1 + 2.0 * (y - c) + w * side]
        hess = [[4.0, -2.0, -2.0], [-2.0, 2.0, 0.0], [-2.0, 0.0, 4.0]]
        return value, grad, hess, k0 - y

    return objective


class TestDampedNewton:
    @staticmethod
    def run(c, w, start):
        """Minimize :func:`kinked` from ``start`` with its kink hook, which
        records the kink offsets it returns."""
        objective = kinked(c, w)
        calls = []

        def kinks(current):
            calls.append(current[3])
            return [current[3]]

        theta, current, n_eval, converged = damped_newton(
            objective, list(start), objective(list(start)), kinks=kinks)
        return theta, current[0], n_eval, converged, calls

    def test_minimum_on_the_kink(self):
        # min over y of (y - 2)**2 + 4 |y - 0.5| is at the kink
        theta, value, n_eval, converged, calls = self.run(2.0, 4.0, (3.0, 3.0, 2.0))
        assert converged and n_eval <= 30 and calls
        np.testing.assert_allclose(theta, [1.5, 1.5, 0.5], rtol=0, atol=1e-9)
        assert value == pytest.approx(2.25, abs=1e-12)

    def test_minimum_just_past_the_kink(self):
        # the left piece's minimum, 1e-3 past the kink, is 1e-6 below the
        # kink's value: a search that stops on the kink misses it
        theta, value, n_eval, converged, calls = self.run(-0.001, 1.0, (1.6, 1.6, 0.6))
        assert converged and n_eval <= 30 and calls
        np.testing.assert_allclose(theta, [1.499, 1.499, 0.499], rtol=0, atol=1e-9)
        assert value == pytest.approx(0.251, abs=1e-12)

    def test_hook_only_after_a_rejected_step(self):
        # the start lies on the far side of the kink, where the objective
        # is one quadratic: the first Newton step is exact and accepted
        theta, value, n_eval, converged, calls = self.run(2.0, 0.5, (3.0, 3.0, 2.0))
        assert converged and not calls
        np.testing.assert_allclose(theta, [2.75, 2.75, 1.75], rtol=0, atol=1e-12)

    def test_stops_cut_the_step_and_hold_the_box_edge(self):
        # a stop at y = 1 is never crossed; the minimum over y <= 1 is on it
        objective = kinked(2.0, 0.0)
        seen = []

        def tracked(theta):
            seen.append(theta[2])
            return objective(theta)

        start = [0.0, 0.0, 0.0]
        theta, _, _, converged = damped_newton(tracked, start, tracked(start),
                                               stops=(-1.0, 1.0))
        assert converged and theta[2] == 1.0 and max(seen) == 1.0
        np.testing.assert_allclose(theta[:2], [2.0, 2.0], rtol=0, atol=1e-9)
