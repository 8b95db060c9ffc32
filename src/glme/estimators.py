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
  exact bootstrap covariance of the sample L-moments (or the unbiased
  closed form) and interpreted through a trivariate-normal approximation,
  plus a weighted penalty on the shape.
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

from ._optim import brent, damped_newton
# unused here; perfbench/tracing.py patches glme.estimators.nelder_mead by name
from ._optim import nelder_mead  # noqa: F401
from .errors import ConvergenceError, DegenerateDataError, LSkewnessError, SampleSizeError
from .gev import XI_EPS, GevParams, _reduced_variate
from .lmoments import (
    COV_MIN_N,
    EULER_GAMMA,
    _LOG2,
    _LOG3,
    CovMatrix3,
    LMomentTriple,
    _lmoment_coefs,
    gev_population_lmoments,
    gld,
    lmoment_cov,
    sample_lmoments,
)
from .penalties import SENTINEL, AdaptiveBetaRequest, FlatPenalty, _penalty_slopes

__all__ = [
    "FIT_MIN_N",
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

# the smallest sample any fit accepts; fit_glme and the lme/glme profile
# need lmoments.COV_MIN_N, the covariance's minimum
FIT_MIN_N = 5

# shape search box shared by all optimizing estimators; L-moments and return
# levels exist for xi > -1, and fitted shapes are kept inside (-1, 1)
_XI_LO, _XI_HI = -1.0 + 1e-8, 1.0 - 1e-8
# the outermost shapes inside the box
_XI_LO_IN, _XI_HI_IN = math.nextafter(_XI_LO, 0.0), math.nextafter(_XI_HI, 0.0)

# fit_glme's shape search: grid size over the feasible interval, then the
# absolute tolerance of the Brent step around the best grid point
_GLME_GRID = 81
_GLME_XTOL = 1e-10

# the share of each observation's distance to the support's end that a
# likelihood fit's Newton step must keep
_SUPPORT_TAU = 0.5

# the series of the reduced variate's shape derivatives in t = xi z: where
# it replaces the closed forms, and the coefficients of its first 20 terms
# (the truncation error is below 1e-16 there)
_SERIES_T = 0.1
_SERIES_K = np.arange(20.0)
_SERIES_COEFS = np.array([
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
    a1, a2, _ = _lmoment_coefs(xi)
    sigma = l.l2 / a2
    residual = abs(_tau3(xi) - l.t3)
    return GevParams(l.l1 - sigma * a1, sigma, xi), iters, residual


def _check_distinct(arr: np.ndarray) -> None:
    """The rule on distinct values that every fitter, stationary or trend,
    applies.  The values are counted as a sort and its changes, which
    ``np.unique`` would count too, without loading ``numpy.ma``."""
    ordered = np.sort(arr)
    if np.count_nonzero(ordered[1:] != ordered[:-1]) + 1 < 3:
        # with only two distinct values the likelihood is unbounded (sigma -> 0)
        raise DegenerateDataError("sample has fewer than 3 distinct values")


def _check_sample(x, min_n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if arr.size < min_n:
        raise SampleSizeError(f"need at least {min_n} observations, got {arr.size}")
    _check_distinct(arr)
    return arr


def fit_lme(x) -> FitResult:
    """L-moment estimate: population L-moments equal the sample ones."""
    arr = _check_sample(x, FIT_MIN_N)
    l = sample_lmoments(arr)
    params, iters, residual = _params_from_lmoments(l)
    return FitResult(params, "lme", residual, True, iters, FlatPenalty())


def _nll_value(x: np.ndarray, mu: float, sigma: float, xi: float):
    """The negative log-likelihood ``n log sigma + (1 - xi) sum y +
    sum exp(-y)``, written through the reduced variate ``y`` of
    ``z = (x - mu)/sigma`` (see :func:`glme.gev._reduced_variate`).

    Returns ``(value, z, u, y, exp(-y))`` with ``u = 1 - xi z``, or None
    outside the support or where the value is not finite.
    """
    if not 0.0 < sigma < math.inf:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        z = (x - mu) / sigma
        y, u = _reduced_variate(z, xi)
        if (u <= 0).any():
            return None
        e = np.exp(-y)
        value = x.size * math.log(sigma) + (1.0 - xi) * float(y.sum()) + float(e.sum())
    return (value, z, u, y, e) if math.isfinite(value) else None


def _shape_derivatives(z: np.ndarray, u: np.ndarray, y: np.ndarray, xi: float,
                       out: np.ndarray) -> np.ndarray:
    """First and second derivatives of the reduced variate in the shape,
    written into the two rows of ``out``, which is returned.

    The closed forms ``dy/dxi = (z/u - y)/xi`` and
    ``d2y/dxi2 = ((z/u)**2 - 2 dy/dxi)/xi`` lose digits to cancellation as
    ``xi z`` nears 0, so where ``|xi z| < _SERIES_T`` the term-by-term
    derivatives of the series ``y = sum_k xi**k z**(k+1)/(k+1)`` are used
    instead (the Gumbel case ``xi = 0`` included; there the closed forms
    are never formed).
    """
    y1, y2 = out
    t = xi * z
    near = np.abs(t) < _SERIES_T
    n_near = int(np.count_nonzero(near))
    if n_near < z.size:
        zu = z / u
        np.subtract(zu, y, out=y1)
        y1 /= xi
        np.multiply(zu, zu, out=y2)
        y2 -= 2.0 * y1
        y2 /= xi
    if n_near:
        tn, zn = t[near], z[near]
        powers = np.empty((_SERIES_COEFS.shape[1], n_near))
        powers[0] = 1.0
        powers[1:] = tn
        np.multiply.accumulate(powers, axis=0, out=powers)
        series = _SERIES_COEFS @ powers
        series *= zn * zn
        series[1] *= zn
        out[:, near] = series
    return out


def _nll_buffer(n: int) -> np.ndarray:
    """The ``(11, n)`` work buffer of :func:`_nll_derivatives`, made once
    per fit: four per-observation rows, then seven weighted rows, the last
    of which holds ones."""
    buf = np.empty((11, n))
    buf[10] = 1.0
    return buf


def _nll_derivatives(nll, sigma: float, xi: float, buf: np.ndarray):
    """Gradient and Hessian of the negative log-likelihood in
    ``(mu, sigma, xi)`` (Prescott & Walden 1980), as a list and a list of
    rows of floats, from the output ``(value, z, u, y, exp(-y))`` of
    :func:`_nll_value` at that point; None where any is not finite.

    With ``u = 1 - xi z``, ``dy/dz = 1/u``, ``d2y/dz2 = xi/u**2`` and
    ``d2y/dz dxi = z/u**2``, so per observation

        dy/dmu = -1/(sigma u),  dy/dsigma = -z/(sigma u),
        d2y/dmu2 = xi/(sigma u)**2,  d2y/dmu dsigma = 1/(sigma u)**2,
        d2y/dsigma2 = z (1 + u)/(sigma u)**2,
        d2y/dmu dxi = -z/(sigma u**2),  d2y/dsigma dxi = -z**2/(sigma u**2),

    and the shape derivatives come from :func:`_shape_derivatives`.  Every
    sum over the observations comes out of one matrix product: the rows
    ``1/u``, ``z/u``, ``dy/dxi`` and ``d2y/dxi2`` (written into ``buf``, see
    :func:`_nll_buffer`) against the same rows weighted by ``exp(-y)``
    (the first three), by ``slope = (1 - xi) - exp(-y)`` (the first two),
    and by ``slope`` and 1 alone.
    """
    _, z, u, y, e = nll
    n = z.size
    rows, weighted = buf[:4], buf[4:]
    np.divide(1.0, u, out=rows[0])
    np.multiply(z, rows[0], out=rows[1])
    _shape_derivatives(z, u, y, xi, out=rows[2:])
    # d/dy and d2/dy2 of (1 - xi) y + exp(-y) are slope and e; d2/dy dxi is -1
    slope = weighted[5]
    np.subtract(1.0 - xi, e, out=slope)
    np.multiply(rows[:3], e, out=weighted[:3])
    np.multiply(rows[:2], slope, out=weighted[3:5])
    products = (weighted @ rows.T).tolist()
    e_gram, slope_gram, sums, totals = products[:3], products[3:5], products[5], products[6]
    sw, swz, swzz = slope_gram[0][0], slope_gram[0][1], slope_gram[1][1]
    ss = sigma * sigma
    grad = [-sums[0] / sigma, (n - sums[1]) / sigma, sums[2] - float(y.sum())]
    hess = [
        [(e_gram[0][0] + xi * sw) / ss, (e_gram[0][1] + sw) / ss,
         (totals[0] - e_gram[0][2] - swz) / sigma],
        [0.0, (e_gram[1][1] + swz + sums[1] - n) / ss, (totals[1] - e_gram[1][2] - swzz) / sigma],
        [0.0, 0.0, e_gram[2][2] + sums[3] - 2.0 * totals[2]],
    ]
    hess[1][0], hess[2][0], hess[2][1] = hess[0][1], hess[0][2], hess[1][2]
    if not all(map(math.isfinite, grad + hess[0] + hess[1] + hess[2])):
        return None
    return grad, hess


def gev_neg_loglik(x: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """Negative log-likelihood; a large sentinel outside the feasible region."""
    nll = _nll_value(np.asarray(x, dtype=float), mu, sigma, xi)
    return SENTINEL if nll is None else nll[0]


def _default_init(arr: np.ndarray, lme: FitResult | None = None) -> GevParams:
    """The L-moment fit ``lme`` of ``arr`` (computed here when not given),
    or where its L-skewness is out of range, the Gumbel moment fit."""
    try:
        return (lme if lme is not None else fit_lme(arr)).params
    except LSkewnessError:
        # L-skewness out of range; start from the Gumbel moment fit
        l = sample_lmoments(arr)
        sigma = max(l.l2 / _LOG2, 1e-12)
        return GevParams(l.l1 - sigma * EULER_GAMMA, sigma, 0.0)


def _feasible_scale(arr: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """``sigma``, or when some observation lies outside the support of
    (mu, sigma, xi), the scale that puts the farthest one at ``u = 1/2``.
    The one feasibility rule for starts that fix the shape, stationary or
    trend (``fit_ns_glme``'s start at a penalty's mode)."""
    reach = float(np.max(xi * (arr - mu)))
    return sigma if reach < sigma else 2.0 * reach


def _penalized_nll(arr: np.ndarray, penalty):
    """The one likelihood objective of ``fit_mle``, ``fit_gmle`` and the
    ``mle``/``gmle`` profile: negative log-likelihood plus -ln p(xi).

    Returns ``evaluate(mu, sigma, xi) -> (value, gradient, hessian, z, u)``
    (see :func:`_nll_value` and :func:`_nll_derivatives`, which fill one
    work buffer made here; the penalty's slope and curvature by central
    differences), with ``z`` and ``u`` the observations' standardized values
    and distances ``1 - xi z`` to the support's end, or None outside the
    shape box or the support, where the penalty gives zero weight, or where
    the value is not finite.  Callers evaluate under one ``np.errstate``
    that silences overflow and invalid operations.
    """
    buf = _nll_buffer(arr.size)

    def evaluate(mu, sigma, xi):
        if not _XI_LO < xi < _XI_HI:
            return None
        neg_log = penalty.neg_log(xi)
        if neg_log >= SENTINEL:
            return None
        nll = _nll_value(arr, mu, sigma, xi)
        if nll is None:
            return None
        derivatives = _nll_derivatives(nll, sigma, xi, buf)
        if derivatives is None:
            return None
        grad, hess = derivatives
        slope, curvature = _penalty_slopes(penalty, xi)
        grad[2] += slope
        hess[2][2] += curvature
        value = nll[0] + neg_log
        return (value, grad, hess, nll[1], nll[2]) if math.isfinite(value) else None

    return evaluate


def _support_reach(xi: float | None = None):
    """``reach(theta, step, current)``: the largest fraction (at most 1) of
    ``step`` that keeps every ``u = 1 - xi (x - mu)/sigma`` above
    ``_SUPPORT_TAU`` times its value at ``theta``, to first order; ``theta``
    is ``(mu, sigma, xi)``, or ``(mu, sigma)`` with the shape held at
    ``xi``, and ``current``, the evaluation at ``theta``, supplies ``z`` and
    ``u`` (see :func:`_penalized_nll`)."""

    def reach(theta, step, current):
        z, u = current[3], current[4]
        shape, dxi = (theta[2], step[2]) if xi is None else (xi, 0.0)
        # du = -dxi z + shape (dmu + z dsigma)/sigma, taken relative to u
        du = z * (shape * step[1] / theta[1] - dxi)
        du += shape * step[0] / theta[1]
        du /= u
        worst = float(du.min())
        return min(1.0, (1.0 - _SUPPORT_TAU) / -worst) if worst < 0 else 1.0

    return reach


def _shape_held(evaluate, xi: float):
    """``evaluate`` as a function of ``(mu, sigma)`` with the shape held at
    ``xi``."""

    def objective(theta):
        out = evaluate(theta[0], theta[1], xi)
        if out is None:
            return None
        value, grad, hess, z, u = out
        return value, grad[:2], [hess[0][:2], hess[1][:2]], z, u

    return objective


def _fit_likelihood(arr: np.ndarray, penalty, init: GevParams | None,
                    lme: FitResult | None) -> FitResult:
    method = "mle" if isinstance(penalty, FlatPenalty) else f"gmle.{penalty.label}"
    start = init if init is not None else _default_init(arr, lme)
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
        theta = [float(start.mu), float(sigma), float(xi)]
        with np.errstate(over="ignore", invalid="ignore"):
            current = evaluate(*theta)
            n_eval += 1
            if current is None:
                continue
            theta, current, evals, converged = damped_newton(
                lambda theta: evaluate(*theta), theta, current, stops, _support_reach())
        n_eval += evals - 1
        runs.append((not converged, current[0], theta))
    if not runs:
        best = FitResult(GevParams(start.mu, start.sigma, shapes[0]), method, SENTINEL, False,
                         n_eval, penalty)
        raise ConvergenceError(f"{method}: the starting point is infeasible", best=best)
    failed, value, theta = min(runs, key=lambda run: run[:2])
    result = FitResult(GevParams(*theta), method, value, not failed, n_eval, penalty)
    if failed:
        raise ConvergenceError(f"{method} fit did not converge", best=result)
    return result


def fit_mle(x, init: GevParams | None = None, lme: FitResult | None = None) -> FitResult:
    """Maximum likelihood estimate by damped Newton steps on the exact
    derivatives of the log-likelihood.

    The default start is the L-moment estimate ``lme``, the :func:`fit_lme`
    fit of the same sample, which is computed here when not given (the
    Gumbel moment fit when the L-skewness is out of range), with the scale
    raised, if some observation lies outside that start's support, until
    the farthest one sits halfway inside it.  A given ``init`` is used as
    it is; an infeasible one raises :class:`ConvergenceError`.
    """
    return _fit_likelihood(_check_sample(x, FIT_MIN_N), FlatPenalty(), init, lme)


def fit_gmle(x, penalty, init: GevParams | None = None,
             lme: FitResult | None = None) -> FitResult:
    """Penalized maximum likelihood: adds -ln p(xi) to the likelihood objective.

    Solved like :func:`fit_mle`, from the same default start.  When the
    penalty gives the start shape zero weight, the search starts at the
    penalty's mode instead.  An :class:`AdaptiveBetaRequest` penalty is
    built from the shape of ``lme``, which is computed here when not given.
    """
    arr = _check_sample(x, FIT_MIN_N)
    if isinstance(penalty, AdaptiveBetaRequest):
        lme = lme if lme is not None else fit_lme(arr)
        penalty = penalty.build(lme.params.xi)
    return _fit_likelihood(arr, penalty, init, lme)


def _objective_const(V: CovMatrix3) -> float:
    """The normal approximation's constant, in the stationary and the trend objective."""
    return 1.5 * math.log(2.0 * math.pi) + 0.5 * V.log_det


def _glme_value(l: LMomentTriple, V: CovMatrix3, const, mu, sigma, xi, penalty, alpha_n):
    neg_log = penalty.neg_log(xi) if alpha_n != 0 else 0.0
    if sigma <= 0 or not _XI_LO < xi < _XI_HI or neg_log >= SENTINEL:
        return SENTINEL
    lam = gev_population_lmoments(GevParams(mu, sigma, xi))
    val = 0.5 * gld(lam, l, V) + alpha_n * neg_log + const
    return val if math.isfinite(val) else SENTINEL


def glme_objective(x, V: CovMatrix3, params: GevParams, penalty=FlatPenalty(),
                   alpha_n: float = 1.0) -> float:
    """Penalized negative log of the normal approximation at ``params``.

    Equals ``gld/2 + alpha_n * (-ln p(xi)) + C`` where the constant
    ``C = 1.5*log(2*pi) + 0.5*log det V`` does not depend on the parameters;
    SENTINEL where the scale is not positive, the shape is outside the box,
    the value is not finite, or (with ``alpha_n != 0``) the penalty gives
    the shape zero weight.
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
    Everything that does not depend on the shape is taken out as floats
    here, once; each shape then costs :func:`_lmoment_coefs` and a few
    dozen float operations.

    Returns ``profile(xi) -> (mu, sigma, value)`` for one shape.  ``value``
    follows the rules of :func:`_glme_value`: SENTINEL outside the shape
    box, where ``alpha_n != 0`` and the penalty gives the shape zero weight,
    where the scale comes out nonpositive, or where the value is not
    finite; ``mu`` and ``sigma`` are nan where either of the first two
    applies.
    """
    (p00, _, _), (p10, p11, _), (p20, p21, p22) = V.whiten(np.eye(3)).tolist()
    b0, b1, b2 = p00 * l.l1, p10 * l.l1 + p11 * l.l2, p20 * l.l1 + p21 * l.l2 + p22 * l.l3
    # the whitened location direction u, and b with its u-component removed
    uu = p00 * p00 + p10 * p10 + p20 * p20
    ub = p00 * b0 + p10 * b1 + p20 * b2
    k = ub / uu
    c0, c1, c2 = b0 - k * p00, b1 - k * p10, b2 - k * p20

    def profile(xi):
        neg_log = penalty.neg_log(xi) if alpha_n != 0 else 0.0
        if not _XI_LO < xi < _XI_HI or neg_log >= SENTINEL:
            return math.nan, math.nan, SENTINEL
        a1, a2, a3 = _lmoment_coefs(xi)
        # the whitened scale direction v, and v with its u-component removed
        v0, v1, v2 = p00 * a1, p10 * a1 + p11 * a2, p20 * a1 + p21 * a2 + p22 * a3
        uv = p00 * v0 + p10 * v1 + p20 * v2
        k = uv / uu
        w0, w1, w2 = v0 - k * p00, v1 - k * p10, v2 - k * p20
        sigma = (c0 * w0 + c1 * w1 + c2 * w2) / (w0 * w0 + w1 * w1 + w2 * w2)
        mu = (ub - sigma * uv) / uu
        r0, r1, r2 = c0 - sigma * w0, c1 - sigma * w1, c2 - sigma * w2
        value = 0.5 * (r0 * r0 + r1 * r1 + r2 * r2) + alpha_n * neg_log + const
        if not (sigma > 0 and math.isfinite(value)):
            value = SENTINEL
        return mu, sigma, value

    return profile


def fit_glme(
    x,
    penalty=FlatPenalty(),
    alpha_n: float = 1.0,
    cov_method: str = "bootstrap",
    V: CovMatrix3 | None = None,
    lme: FitResult | None = None,
) -> FitResult:
    """Penalty-weighted L-moment fit.

    The covariance ``V`` is computed once from the observed sample by
    :func:`lmoment_cov` with ``cov_method``, unless given, and held fixed;
    it is deterministic, so the fit takes no seed.  An
    :class:`AdaptiveBetaRequest` penalty is built from the shape of ``lme``,
    the :func:`fit_lme` fit of the same sample, which is computed here when
    not given.  Location and scale are profiled
    out in closed form (see :func:`_glme_profile`); the shape is searched on
    the 79 inner points of a fixed grid of 81 over the box (-1, 1), narrowed
    to the penalty's support when the penalty is in force, then refined by
    bounded Brent between the best grid point's neighbours.  ``iterations``
    counts the shapes at which the profile was evaluated.
    """
    arr = _check_sample(x, COV_MIN_N)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build((lme if lme is not None else fit_lme(arr)).params.xi)
    if V is None:
        V = lmoment_cov(arr, method=cov_method)
    l = sample_lmoments(arr)
    const = _objective_const(V)
    profile = _glme_profile(l, V, const, penalty, alpha_n)
    method = "glme" if isinstance(penalty, FlatPenalty) else f"glme.{penalty.label}"

    lo, hi = _XI_LO, _XI_HI
    if alpha_n != 0:
        lo, hi = max(lo, penalty.support[0]), min(hi, penalty.support[1])
    # the ends of the open interval (lo, hi) are never feasible
    grid = np.linspace(lo, hi, _GLME_GRID).tolist()
    inner = grid[1:-1]
    values = [profile(t)[2] for t in inner]
    k = min(range(len(inner)), key=values.__getitem__)
    if values[k] >= SENTINEL:
        raise ConvergenceError(f"{method}: no feasible shape in ({lo:g}, {hi:g})")
    # Brent between the best shape's neighbours, grid[k] and grid[k + 2]
    res = brent(lambda t: profile(t)[2], grid[k], grid[k + 2], xtol=_GLME_XTOL)
    xi = res.x if res.fun <= values[k] else inner[k]
    mu, sigma, _ = profile(xi)
    params = GevParams(mu, sigma, xi)
    value = _glme_value(l, V, const, mu, sigma, xi, penalty, alpha_n)
    converged = res.converged and value < SENTINEL
    result = FitResult(params, method, value, converged, len(inner) + res.n_eval, penalty,
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
) -> list[ProfilePoint]:
    """Profile curve over the shape: the negated objective maximized over
    (location, scale) at each grid value.

    For ``lme``/``glme`` the maximum is exact: location and scale come from
    the closed-form weighted least-squares profile that ``fit_glme``
    searches, weighted by the default (exact bootstrap) covariance.  For
    ``mle``/``gmle``, whose (location, scale) profile has no closed form,
    the likelihood fits' damped Newton solver runs over (location, scale)
    at each grid value, from the default start with its scale widened until
    every observation lies inside the support.  Grid points that are infeasible,
    or where the inner search fails, are flagged, not fatal.
    """
    # the lme/glme curve needs the covariance
    arr = _check_sample(x, COV_MIN_N if method in ("lme", "glme") else FIT_MIN_N)
    if grid is None:
        grid = np.linspace(-0.9, 0.3, 61)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= -1) or np.any(grid >= 1):
        raise ValueError("profile grid must lie inside (-1, 1)")
    if method not in ("mle", "gmle", "lme", "glme"):
        raise ValueError(f"unknown profile method {method!r}")
    lme = None
    if isinstance(penalty, AdaptiveBetaRequest):
        lme = fit_lme(arr)
        penalty = penalty.build(lme.params.xi)

    if method in ("lme", "glme"):
        V = lmoment_cov(arr)
        profile = _glme_profile(sample_lmoments(arr), V, _objective_const(V), penalty, alpha_n)
        shapes = grid.tolist()
        values = [profile(xi)[2] for xi in shapes]
        return [ProfilePoint(xi, -v, v < SENTINEL) for xi, v in zip(shapes, values)]

    evaluate = _penalized_nll(arr, penalty)
    init = _default_init(arr, lme)
    out = []
    for xi in grid.tolist():
        objective = _shape_held(evaluate, xi)
        theta = [float(init.mu), float(_feasible_scale(arr, init.mu, init.sigma, xi))]
        with np.errstate(over="ignore", invalid="ignore"):
            current = objective(theta)
            if current is None:
                out.append(ProfilePoint(xi, -SENTINEL, False))
                continue
            _, current, _, converged = damped_newton(objective, theta, current,
                                                     reach=_support_reach(xi))
        out.append(ProfilePoint(xi, -current[0], converged))
    return out
