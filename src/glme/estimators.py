"""Stationary GEV fitting.

Four estimators share one interface:

* ``fit_lme``: classic L-moment matching, solved by inverting the
  L-skewness relation for the shape, then recovering scale and location in
  closed form.
* ``fit_mle``: minimizes the negative log-likelihood by damped Newton
  steps on its exact gradient and Hessian.
* ``fit_gmle``: likelihood plus a penalty on the shape; shares its
  objective and solver with ``fit_mle`` (a flat penalty adds exactly 0).
* ``fit_glme``: minimizes a quadratic L-moment distance, weighted by the
  bootstrap covariance of the sample L-moments and interpreted through a
  trivariate-normal approximation, plus a weighted penalty on the shape.
  For a fixed shape the GEV L-moments are linear in location and scale, so
  both are profiled out in closed form (a 2x2 weighted least-squares
  solve) and only the shape is searched: a fixed grid, then bounded Brent.

``profile_xi`` produces profile curves of any of these objectives over a
shape grid, maximized over location and scale: exactly, by the same closed
form, for ``lme``/``glme``; by the likelihood fits' Newton solver over
(location, scale) for ``mle``/``gmle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import brent
# unused here; perfbench/tracing.py patches glme.estimators.nelder_mead by name
from ._optim import nelder_mead  # noqa: F401
from .errors import ConvergenceError, DegenerateDataError, LSkewnessError
from .gev import XI_EPS, GevParams
from .lmoments import (
    EULER_GAMMA,
    CovMatrix3,
    LMomentTriple,
    gev_lmoment_coefs,
    gev_population_lmoments,
    gld,
    lmoment_cov,
    sample_lmoments,
)
from .penalties import SENTINEL, AdaptiveBetaRequest, FlatPenalty, _penalty_slopes

__all__ = [
    "FitResult",
    "ProfilePoint",
    "fit_lme",
    "fit_mle",
    "fit_gmle",
    "fit_glme",
    "gev_neg_loglik",
    "glme_objective",
    "profile_xi",
]

_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)

# shape search box shared by all optimizing estimators; L-moments and return
# levels exist for xi > -1, and fitted shapes are kept inside (-1, 1)
_XI_LO, _XI_HI = -1.0 + 1e-8, 1.0 - 1e-8
# the outermost shapes inside the box
_XI_LO_IN, _XI_HI_IN = math.nextafter(_XI_LO, 0.0), math.nextafter(_XI_HI, 0.0)

# fit_glme's shape search: grid size over the feasible interval, then the
# absolute tolerance of the Brent step around the best grid point
_GLME_GRID = 81
_GLME_XTOL = 1e-10

# the likelihood fits' damped Newton: relative-step and decrement
# tolerances; evaluation cap; the smallest eigenvalue (at unit diagonal)
# taken as positive definite, and the least a lower one is lifted to; the
# damping after a first rejected step; and the share of each observation's
# distance to the support's end that a step must keep
_NEWTON_XTOL, _NEWTON_FTOL = 1e-10, 1e-12
_NEWTON_MAX_EVAL = 200
_NEWTON_PD_TOL, _NEWTON_DAMPING = 1e-12, 1e-3
_NEWTON_DAMPING_MIN = 1e-2
_SUPPORT_TAU = 0.5

# the series of the reduced variate's shape derivatives in t = xi z: where
# it replaces the closed forms, and the coefficients of its first 20 terms
# (the truncation error is below 1e-16 there)
_SERIES_T = 0.1
_SERIES_K = np.arange(20.0)
_SERIES_COEFS = np.column_stack([
    (_SERIES_K + 1.0) / (_SERIES_K + 2.0),
    (_SERIES_K + 1.0) * (_SERIES_K + 2.0) / (_SERIES_K + 3.0),
])


@dataclass(frozen=True)
class FitResult:
    """Outcome of a stationary fit.

    ``iterations`` counts the work done: L-skewness inversion steps for
    ``lme``, evaluations of the negative log-likelihood with its gradient
    and Hessian for ``mle``/``gmle`` (over both searches when the penalty
    has a well), and shapes at which the closed-form location/scale profile
    was evaluated for ``glme``.
    """

    params: GevParams
    method: str
    objective_value: float
    converged: bool
    iterations: int
    penalty: object
    alpha_n: float = 1.0


@dataclass(frozen=True)
class ProfilePoint:
    xi: float
    value: float
    converged: bool


def _tau3(xi: float) -> float:
    """L-skewness of a GEV as a function of the shape; strictly decreasing."""
    if abs(xi) < XI_EPS:
        return 2.0 * _LOG3 / _LOG2 - 3.0
    return 2.0 * math.expm1(-xi * _LOG3) / math.expm1(-xi * _LOG2) - 3.0


def _invert_t3(t3: float) -> tuple[float, int]:
    """Solve tau3(xi) = t3 on the shape box; returns (xi, iterations)."""
    a, b = _XI_LO, _XI_HI
    fa, fb = _tau3(a) - t3, _tau3(b) - t3
    if fa <= 0 or fb >= 0:
        raise LSkewnessError(
            f"sample L-skewness {t3:.6g} outside the range ({_tau3(b):.6g}, {_tau3(a):.6g}) "
            "attainable for shape in (-1, 1)"
        )
    iters = 0

    # rational first guess, then bisection down to a narrow bracket
    z = 2.0 / (3.0 + t3) - _LOG2 / _LOG3
    xi = 7.8590 * z + 2.9554 * z * z
    if not a < xi < b:
        xi = 0.5 * (a + b)
    while b - a > 1e-6:
        f = _tau3(xi) - t3
        iters += 1
        if f == 0.0:
            return xi, iters
        if f > 0:
            a = xi
        else:
            b = xi
        xi = 0.5 * (a + b)

    # secant refinement inside the bracket
    x0, x1 = a, b
    f0, f1 = _tau3(x0) - t3, _tau3(x1) - t3
    for _ in range(100):
        if abs(f1) < 1e-12:
            return x1, iters
        step_ok = f1 != f0
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0) if step_ok else 0.5 * (a + b)
        if not a <= x2 <= b:
            x2 = 0.5 * (a + b)
        f2 = _tau3(x2) - t3
        iters += 1
        if f2 > 0:
            a = x2
        else:
            b = x2
        x0, f0, x1, f1 = x1, f1, x2, f2
    if abs(f1) < 1e-12:
        return x1, iters
    raise LSkewnessError(f"L-skewness inversion did not reach tolerance at t3={t3:.6g}")


def _params_from_lmoments(l: LMomentTriple) -> tuple[GevParams, int, float]:
    xi, iters = _invert_t3(l.t3)
    if abs(xi) < XI_EPS:
        xi = 0.0
    a1, a2, _ = gev_lmoment_coefs(xi).tolist()
    sigma = l.l2 / a2
    residual = abs(_tau3(xi) - l.t3)
    return GevParams(l.l1 - sigma * a1, sigma, xi), iters, residual


def _check_sample(x, min_n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if arr.size < min_n:
        raise ValueError(f"need at least {min_n} observations, got {arr.size}")
    if np.unique(arr).size < 3:
        # with only two distinct values the likelihood is unbounded (sigma -> 0)
        raise DegenerateDataError("sample has fewer than 3 distinct values")
    return arr


def fit_lme(x) -> FitResult:
    """L-moment estimate: population L-moments equal the sample ones."""
    arr = _check_sample(x, 5)
    l = sample_lmoments(arr)
    params, iters, residual = _params_from_lmoments(l)
    return FitResult(params, "lme", residual, True, iters, FlatPenalty())


def _nll_value(x: np.ndarray, mu: float, sigma: float, xi: float):
    """The negative log-likelihood ``n log sigma + (1 - xi) sum y +
    sum exp(-y)``, written through the reduced variate
    ``y = -log1p(-xi z)/xi`` (``y = z`` at ``xi = 0``) of
    ``z = (x - mu)/sigma``.

    Returns ``(value, z, u, y, exp(-y))`` with ``u = 1 - xi z``, or None
    outside the support or where the value is not finite.
    """
    if not 0.0 < sigma < math.inf:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - mu) / sigma
        t = xi * z
        u = 1.0 - t
        if (u <= 0).any():
            return None
        y = z if xi == 0.0 else -np.log1p(-t) / xi
        e = np.exp(-y)
        value = x.size * math.log(sigma) + (1.0 - xi) * float(y.sum()) + float(e.sum())
    return (value, z, u, y, e) if math.isfinite(value) else None


def _shape_derivatives(z: np.ndarray, u: np.ndarray, y: np.ndarray, xi: float):
    """First and second derivatives of the reduced variate in the shape.

    The closed forms ``dy/dxi = (z/u - y)/xi`` and
    ``d2y/dxi2 = ((z/u)**2 - 2 dy/dxi)/xi`` lose digits to cancellation as
    ``xi z`` nears 0, so where ``|xi z| < _SERIES_T`` the term-by-term
    derivatives of the series ``y = sum_k xi**k z**(k+1)/(k+1)`` are used
    instead (the Gumbel case ``xi = 0`` included).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        zu = z / u
        y1 = (zu - y) / xi
        y2 = (zu * zu - 2.0 * y1) / xi
    t = xi * z
    near = np.abs(t) < _SERIES_T
    if near.any():
        tn, zn = t[near], z[near]
        powers = np.empty((tn.size, _SERIES_COEFS.shape[0]))
        powers[:, 0] = 1.0
        powers[:, 1:] = tn[:, None]
        series = np.cumprod(powers, axis=1) @ _SERIES_COEFS
        y1[near] = zn * zn * series[:, 0]
        y2[near] = zn * zn * zn * series[:, 1]
    return y1, y2


def _nll_terms(x: np.ndarray, mu: float, sigma: float, xi: float):
    """Negative log-likelihood (see :func:`_nll_value`) with its gradient
    and Hessian in ``(mu, sigma, xi)`` (Prescott & Walden 1980).

    With ``u = 1 - xi z``, ``dy/dz = 1/u``, ``d2y/dz2 = xi/u**2`` and
    ``d2y/dz dxi = z/u**2``, so per observation

        dy/dmu = -1/(sigma u),  dy/dsigma = -z/(sigma u),
        d2y/dmu2 = xi/(sigma u)**2,  d2y/dmu dsigma = 1/(sigma u)**2,
        d2y/dsigma2 = z (1 + u)/(sigma u)**2,
        d2y/dmu dxi = -z/(sigma u**2),  d2y/dsigma dxi = -z**2/(sigma u**2),

    and the shape derivatives come from :func:`_shape_derivatives`.
    Returns ``(value, gradient, hessian)``, or None outside the support or
    where any of them is not finite.
    """
    nll = _nll_value(x, mu, sigma, xi)
    if nll is None:
        return None
    value, z, u, y, e = nll
    n = x.size
    y1, y2 = _shape_derivatives(z, u, y, xi)
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.stack([-1.0 / (sigma * u), -z / (sigma * u), y1])
        # d/dy and d2/dy2 of (1 - xi) y + exp(-y) are slope and e; d2/dy dxi is -1
        slope = (1.0 - xi) - e
        grad = first @ slope + np.array([0.0, n / sigma, -float(y.sum())])
        w = slope / (u * u)
        sw, swz, swzz = float(w.sum()), float(w @ z), float(w @ (z * z))
        ss = sigma * sigma
        hess = (first * e) @ first.T + np.array([
            [xi * sw / ss, sw / ss, -swz / sigma],
            [sw / ss, (swz + float(w @ (z * u)) - n) / ss, -swzz / sigma],
            [-swz / sigma, -swzz / sigma, float(slope @ y2)],
        ])
        cross = first.sum(axis=1)
        hess[2] -= cross
        hess[:, 2] -= cross
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        return None
    return value, grad, hess


def gev_neg_loglik(x: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """Negative log-likelihood; a large sentinel outside the feasible region."""
    nll = _nll_value(np.asarray(x, dtype=float), mu, sigma, xi)
    return SENTINEL if nll is None else nll[0]


def _default_init(arr: np.ndarray) -> GevParams:
    try:
        return fit_lme(arr).params
    except LSkewnessError:
        # L-skewness out of range; start from the Gumbel moment fit
        l = sample_lmoments(arr)
        sigma = max(l.l2 / _LOG2, 1e-12)
        return GevParams(l.l1 - sigma * EULER_GAMMA, sigma, 0.0)


def _feasible_scale(arr: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """``sigma``, or when some observation lies outside the support of
    (mu, sigma, xi), the scale that puts the farthest one at ``u = 1/2``."""
    reach = float(np.max(xi * (arr - mu)))
    return sigma if reach < sigma else 2.0 * reach


def _penalized_nll(arr: np.ndarray, penalty):
    """The one likelihood objective of ``fit_mle``, ``fit_gmle`` and the
    ``mle``/``gmle`` profile: negative log-likelihood plus -ln p(xi).

    Returns ``evaluate(mu, sigma, xi) -> (value, gradient, hessian)`` (see
    :func:`_nll_terms`; the penalty's slope and curvature by central
    differences), or None outside
    the shape box or the support, where the penalty gives zero weight, or
    where the value is not finite.
    """

    def evaluate(mu, sigma, xi):
        if not _XI_LO < xi < _XI_HI:
            return None
        neg_log = penalty.neg_log(xi)
        if neg_log >= SENTINEL:
            return None
        terms = _nll_terms(arr, mu, sigma, xi)
        if terms is None:
            return None
        value, grad, hess = terms
        slope, curvature = _penalty_slopes(penalty, xi)
        grad[2] += slope
        hess[2, 2] += curvature
        value += neg_log
        return (value, grad, hess) if math.isfinite(value) else None

    return evaluate


def _support_reach(arr: np.ndarray, xi: float | None = None):
    """``reach(theta, step)``: the largest fraction (at most 1) of ``step``
    that keeps every ``u = 1 - xi (x - mu)/sigma`` above ``_SUPPORT_TAU``
    times its value at ``theta``, to first order; ``theta`` is
    ``(mu, sigma, xi)``, or ``(mu, sigma)`` with the shape held at ``xi``."""

    def reach(theta, step):
        shape = theta[2] if xi is None else xi
        dxi = step[2] if xi is None else 0.0
        sigma = theta[1]
        z = (arr - theta[0]) / sigma
        u = 1.0 - shape * z
        du = -dxi * z + shape * (step[0] + z * step[1]) / sigma
        shrink = du < 0
        if not np.any(shrink):
            return 1.0
        return min(1.0, float(np.min((1.0 - _SUPPORT_TAU) * u[shrink] / -du[shrink])))

    return reach


def _shape_held(evaluate, xi: float):
    """``evaluate`` as a function of ``(mu, sigma)`` with the shape held at
    ``xi``."""

    def objective(theta):
        out = evaluate(theta[0], theta[1], xi)
        return None if out is None else (out[0], out[1][:2], out[2][:2, :2])

    return objective


def _newton_steps(grad: np.ndarray, hess: np.ndarray):
    """Damped Newton steps at one point, in coordinates scaled so that the
    Hessian has unit diagonal: ``step(damping)`` is
    ``-(H + damping I)^-1 g``, and ``step(damping, last)`` fixes the step's
    last component at ``last`` and takes the rest of that step given it.
    Where the matrix solved with is not positive definite, its smallest
    eigenvalue is first lifted to its own magnitude, or to
    ``_NEWTON_DAMPING`` if that is larger."""
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0] = 1.0
    scaled = hess / np.outer(d, d)
    g = grad / d

    def solve(matrix, rhs, damping):
        matrix = matrix + damping * np.eye(rhs.size)
        low = np.linalg.eigvalsh(matrix)[0]
        if low <= _NEWTON_PD_TOL:
            matrix += (max(_NEWTON_DAMPING, -low) - low) * np.eye(rhs.size)
        return np.linalg.solve(matrix, rhs)

    def step(damping, last=None):
        if last is None:
            return -solve(scaled, g, damping) / d
        fixed = last * d[-1]
        rest = -solve(scaled[:-1, :-1], g[:-1] + scaled[:-1, -1] * fixed, damping)
        return np.append(rest, fixed) / d

    return step


def _newton(objective, theta: np.ndarray, current, stops=(), reach=None):
    """Damped Newton minimization from a feasible point.

    ``objective(theta)`` returns ``(value, gradient, hessian)`` or None
    where infeasible; ``current`` is its output at ``theta``.  ``stops``
    are values of the last coordinate that a step may not cross (the edges
    of the shape box, and shapes where the penalty has a kink): a step that
    would is cut short with that coordinate exactly on the stop.  A step
    that fails to lower the value is retried, from a point on a stop, with
    the last coordinate held there, and otherwise with ten times the
    Levenberg damping (see :func:`_newton_steps`), which falls tenfold
    after each accepted step.  Stops, converged, when the relative step is
    at most ``_NEWTON_XTOL``, or after a step whose decrement
    ``-gradient . step`` was at most ``_NEWTON_FTOL * (1 + |f|)``; not
    converged at the evaluation cap.  Returns ``(theta, current,
    evaluations, converged)``, the start's evaluation counted.
    """
    n_eval, damping = 1, 0.0
    while n_eval < _NEWTON_MAX_EVAL:
        value, grad, hess = current
        newton_step = _newton_steps(grad, hess)
        last = theta[-1]

        def candidate(damping, held=False):
            if held:
                return newton_step(damping, 0.0), last
            step = newton_step(damping)
            ahead = [s for s in stops if 0.0 < (s - last) * np.sign(step[-1]) < abs(step[-1])]
            if ahead:
                target = min(ahead, key=lambda s: abs(s - last))
                step = newton_step(damping, target - last)
            else:
                target = None
            if reach is not None:
                fraction = reach(theta, step)
                if fraction < 1.0:
                    return fraction * step, None
            return step, target

        xtol = _NEWTON_XTOL * (1.0 + np.abs(theta))
        held = last in stops
        step, target = candidate(damping, held)
        if held and np.all(np.abs(step) <= xtol):
            # converged with the last coordinate on a stop: try leaving it,
            # unless that means leaving the box
            held = False
            step, target = candidate(damping)
            if (last == stops[0] and step[-1] < 0) or (last == stops[-1] and step[-1] > 0):
                return theta, current, n_eval, True
        while np.any(np.abs(step) > xtol):
            point = theta + step
            if target is not None:
                point[-1] = target
            trial = objective(point)
            n_eval += 1
            if trial is not None and trial[0] < value:
                break
            if n_eval >= _NEWTON_MAX_EVAL:
                return theta, current, n_eval, False
            damping = max(10.0 * damping, _NEWTON_DAMPING_MIN)
            step, target = candidate(damping, held)
        else:
            return theta, current, n_eval, True
        decrement = -float(grad @ step)
        theta, current = point, trial
        damping = damping / 10.0 if damping > _NEWTON_DAMPING_MIN else 0.0
        if decrement <= _NEWTON_FTOL * (1.0 + abs(current[0])) and theta[-1] not in stops:
            return theta, current, n_eval, True
    return theta, current, n_eval, False


def _fit_likelihood(arr: np.ndarray, penalty, init: GevParams | None) -> FitResult:
    method = "mle" if isinstance(penalty, FlatPenalty) else f"gmle.{penalty.label}"
    start = init if init is not None else _default_init(arr)
    # the penalty may exclude the start shape (only the beta families have
    # such gaps inside the box); then start at its mode instead
    shapes = [start.xi if penalty.neg_log(start.xi) < SENTINEL else penalty.mode]
    if init is None and penalty.well is not None:
        shapes.append(penalty.well)
    evaluate = _penalized_nll(arr, penalty)
    stops = (_XI_LO_IN, *sorted(k for k in penalty.kinks if _XI_LO < k < _XI_HI), _XI_HI_IN)
    runs, n_eval = [], 0
    for xi in shapes:
        sigma = start.sigma if init is not None else _feasible_scale(arr, start.mu, start.sigma, xi)
        theta = np.array([start.mu, sigma, xi])
        current = evaluate(*theta)
        n_eval += 1
        if current is None:
            continue
        theta, current, evals, converged = _newton(
            lambda theta: evaluate(*theta), theta, current, stops, _support_reach(arr))
        n_eval += evals - 1
        runs.append((not converged, current[0], theta))
    if not runs:
        best = FitResult(GevParams(start.mu, start.sigma, shapes[0]), method, SENTINEL, False,
                         n_eval, penalty)
        raise ConvergenceError(f"{method}: the starting point is infeasible", best=best)
    failed, value, theta = min(runs, key=lambda run: run[:2])
    result = FitResult(GevParams(*theta.tolist()), method, value, not failed, n_eval, penalty)
    if failed:
        raise ConvergenceError(f"{method} fit did not converge", best=result)
    return result


def fit_mle(x, init: GevParams | None = None, seed: int = 0) -> FitResult:
    """Maximum likelihood estimate by damped Newton steps on the exact
    derivatives of the log-likelihood.

    The default start is the L-moment estimate (the Gumbel moment fit when
    the L-skewness is out of range), with the scale raised, if some
    observation lies outside that start's support, until the farthest one
    sits halfway inside it.  A given ``init`` is used as it is; an
    infeasible one raises :class:`ConvergenceError`.  The solver is
    deterministic: ``seed`` has no effect and is accepted for a uniform
    interface.
    """
    return _fit_likelihood(_check_sample(x, 5), FlatPenalty(), init)


def fit_gmle(x, penalty, init: GevParams | None = None, seed: int = 0,
             lme: FitResult | None = None) -> FitResult:
    """Penalized maximum likelihood: adds -ln p(xi) to the likelihood objective.

    Solved like :func:`fit_mle`.  When the penalty gives the start shape
    zero weight, the search starts at the penalty's mode instead.  An
    :class:`AdaptiveBetaRequest` penalty is built from the shape of ``lme``,
    the :func:`fit_lme` fit of the same sample, which is computed here when
    not given.
    """
    arr = _check_sample(x, 5)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build((lme if lme is not None else fit_lme(arr)).params.xi)
    return _fit_likelihood(arr, penalty, init)


def _objective_const(V: CovMatrix3) -> float:
    return 1.5 * math.log(2.0 * math.pi) + 0.5 * V.log_det


def _glme_value(l: LMomentTriple, V: CovMatrix3, const, mu, sigma, xi, penalty, alpha_n):
    if sigma <= 0 or not _XI_LO < xi < _XI_HI:
        return SENTINEL
    lam = gev_population_lmoments(GevParams(mu, sigma, xi))
    val = 0.5 * gld(lam, l, V) + alpha_n * penalty.neg_log(xi) + const
    return val if math.isfinite(val) else SENTINEL


def glme_objective(x, V: CovMatrix3, params: GevParams, penalty=FlatPenalty(),
                   alpha_n: float = 1.0) -> float:
    """Penalized negative log of the normal approximation at ``params``.

    Equals ``gld/2 + alpha_n * (-ln p(xi)) + C`` where the constant
    ``C = 1.5*log(2*pi) + 0.5*log det V`` does not depend on the parameters.
    """
    l = sample_lmoments(np.asarray(x, dtype=float))
    return _glme_value(l, V, _objective_const(V), params.mu, params.sigma, params.xi,
                       penalty, alpha_n)


def _glme_profile(l: LMomentTriple, V: CovMatrix3, const: float, penalty, alpha_n: float):
    """Closed-form location/scale profile of the GLME objective.

    For a fixed shape the population L-moments are ``M(xi) @ (mu, sigma)``
    with ``M = [[1, a1], [0, a2], [0, a3]]``, so the distance minimized over
    (mu, sigma) is a weighted least-squares fit.  It is solved in the
    coordinates whitened by the cached Cholesky factor of ``V``, location
    direction first, so residuals (not their normal equations) are formed.

    Returns ``profile(xi) -> (mu, sigma, value)`` for an array of shapes.
    ``value`` follows the rules of :func:`_glme_value`: SENTINEL outside the
    shape box, where the scale comes out nonpositive, or where the value is
    not finite; a zero penalty weight adds ``alpha_n * SENTINEL``.
    """
    L_inv = V.whiten(np.eye(3))
    u = L_inv[:, 0]
    b = L_inv @ l.as_array()
    uu = u @ u
    ub = u @ b
    b_perp = b - (ub / uu) * u

    def profile(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        inside = (_XI_LO < xi) & (xi < _XI_HI)
        v = L_inv @ gev_lmoment_coefs(np.where(inside, xi, 0.0)).T
        uv = u @ v
        v_perp = v - np.outer(u, uv / uu)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sigma = (b_perp @ v_perp) / np.sum(v_perp * v_perp, axis=0)
            mu = (ub - sigma * uv) / uu
            r = b_perp[:, None] - sigma * v_perp
            penalty_term = np.array([penalty.neg_log(t) for t in xi.tolist()])
            value = 0.5 * np.sum(r * r, axis=0) + alpha_n * penalty_term + const
        value[~inside | ~(sigma > 0) | ~np.isfinite(value)] = SENTINEL
        return mu, sigma, value

    return profile


def fit_glme(
    x,
    penalty=FlatPenalty(),
    alpha_n: float = 1.0,
    cov_method: str = "bootstrap",
    B: int = 1000,
    seed: int = 0,
    V: CovMatrix3 | None = None,
    lme: FitResult | None = None,
) -> FitResult:
    """Penalty-weighted L-moment fit.

    The covariance ``V`` is estimated once from the observed sample, unless
    given, and held fixed.  An :class:`AdaptiveBetaRequest` penalty is built
    from the shape of ``lme``, the :func:`fit_lme` fit of the same sample,
    which is computed here when not given.  Location and scale are profiled
    out in closed form (see :func:`_glme_profile`); the shape is searched on a
    fixed grid of 81 points over the box (-1, 1), narrowed to the
    penalty's support when the penalty is in force, then refined by bounded
    Brent between the best grid point's neighbours.  ``iterations`` counts
    the shapes at which the profile was evaluated.
    """
    arr = _check_sample(x, 5)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build((lme if lme is not None else fit_lme(arr)).params.xi)
    if V is None:
        V = lmoment_cov(arr, method=cov_method, B=B, seed=seed)
    l = sample_lmoments(arr)
    const = _objective_const(V)
    profile = _glme_profile(l, V, const, penalty, alpha_n)
    method = "glme" if isinstance(penalty, FlatPenalty) else f"glme.{penalty.label}"

    lo, hi = _XI_LO, _XI_HI
    if alpha_n != 0:
        lo, hi = max(lo, penalty.support[0]), min(hi, penalty.support[1])
    grid = np.linspace(lo, hi, _GLME_GRID)
    values = profile(grid)[2]
    k = int(np.argmin(values))
    if values[k] >= SENTINEL:
        raise ConvergenceError(f"{method}: no feasible shape in ({lo:g}, {hi:g})")
    res = brent(lambda t: float(profile(t)[2][0]), grid[max(k - 1, 0)],
                grid[min(k + 1, grid.size - 1)], xtol=_GLME_XTOL)
    xi = float(res.x if res.fun <= values[k] else grid[k])
    mu, sigma, _ = profile(xi)
    params = GevParams(float(mu[0]), float(sigma[0]), xi)
    value = _glme_value(l, V, const, *params.as_tuple(), penalty, alpha_n)
    converged = bool(res.converged and value < SENTINEL)
    result = FitResult(params, method, value, converged, grid.size + res.n_eval, penalty,
                       alpha_n)
    if not converged:
        raise ConvergenceError(f"{method} fit did not converge", best=result)
    return result


def profile_xi(
    x,
    method: str = "glme",
    penalty=FlatPenalty(),
    grid=None,
    alpha_n: float = 1.0,
    B: int = 1000,
    seed: int = 0,
) -> list[ProfilePoint]:
    """Profile curve over the shape: the negated objective maximized over
    (location, scale) at each grid value.

    For ``lme``/``glme`` the maximum is exact: location and scale come from
    the closed-form weighted least-squares profile that ``fit_glme``
    searches, evaluated on the whole grid at once.  For ``mle``/``gmle``,
    whose (location, scale) profile has no closed form, the likelihood
    fits' damped Newton solver runs over (location, scale) at each grid
    value, from the default start with its scale widened until every
    observation lies inside the support.  Grid points that are infeasible,
    or where the inner search fails, are flagged, not fatal.
    """
    arr = _check_sample(x, 5)
    if grid is None:
        grid = np.linspace(-0.9, 0.3, 61)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= -1) or np.any(grid >= 1):
        raise ValueError("profile grid must lie inside (-1, 1)")
    if method not in ("mle", "gmle", "lme", "glme"):
        raise ValueError(f"unknown profile method {method!r}")
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(fit_lme(arr).params.xi)

    if method in ("lme", "glme"):
        V = lmoment_cov(arr, B=B, seed=seed)
        profile = _glme_profile(sample_lmoments(arr), V, _objective_const(V), penalty, alpha_n)
        values = profile(grid)[2]
        return [ProfilePoint(float(xi), -float(v), bool(v < SENTINEL))
                for xi, v in zip(grid, values)]

    evaluate = _penalized_nll(arr, penalty)
    init = _default_init(arr)
    out = []
    for xi in grid.tolist():
        objective = _shape_held(evaluate, xi)
        theta = np.array([init.mu, _feasible_scale(arr, init.mu, init.sigma, xi)])
        current = objective(theta)
        if current is None:
            out.append(ProfilePoint(xi, -SENTINEL, False))
            continue
        _, current, _, converged = _newton(objective, theta, current,
                                           reach=_support_reach(arr, xi))
        out.append(ProfilePoint(xi, -current[0], converged))
    return out
