"""Stationary GEV fitting.

Four estimators share one interface:

* ``fit_lme``: classic L-moment matching, solved by inverting the
  L-skewness relation for the shape, then recovering scale and location in
  closed form.
* ``fit_mle``: minimizes the negative log-likelihood by Nelder-Mead.
* ``fit_gmle``: likelihood plus a penalty on the shape; shares its
  objective with ``fit_mle`` (a flat penalty adds exactly 0).
* ``fit_glme``: minimizes a quadratic L-moment distance, weighted by the
  bootstrap covariance of the sample L-moments and interpreted through a
  trivariate-normal approximation, plus a weighted penalty on the shape.
  For a fixed shape the GEV L-moments are linear in location and scale, so
  both are profiled out in closed form (a 2x2 weighted least-squares
  solve) and only the shape is searched: a fixed grid, then bounded Brent.

``profile_xi`` produces profile curves of any of these objectives over a
shape grid, maximized over location and scale: exactly, by the same closed
form, for ``lme``/``glme``; by an inner Nelder-Mead for ``mle``/``gmle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import brent, nelder_mead
from .errors import ConvergenceError, DegenerateDataError
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
from .penalties import SENTINEL, AdaptiveBetaRequest, FlatPenalty

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

# fit_glme's shape search: grid size over the feasible interval, then the
# absolute tolerance of the Brent step around the best grid point
_GLME_GRID = 81
_GLME_XTOL = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Outcome of a stationary fit.

    ``iterations`` counts the work done: L-skewness inversion steps for
    ``lme``, objective evaluations for ``mle``/``gmle``, and shapes at which
    the closed-form location/scale profile was evaluated for ``glme``.
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
        raise ValueError(
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
    raise ValueError(f"L-skewness inversion did not reach tolerance at t3={t3:.6g}")


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
    if np.ptp(arr) == 0:
        raise DegenerateDataError("sample is constant")
    return arr


def fit_lme(x) -> FitResult:
    """L-moment estimate: population L-moments equal the sample ones."""
    arr = _check_sample(x, 5)
    l = sample_lmoments(arr)
    params, iters, residual = _params_from_lmoments(l)
    return FitResult(params, "lme", residual, True, iters, FlatPenalty())


def gev_neg_loglik(x: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    """Negative log-likelihood; a large sentinel outside the feasible region."""
    if sigma <= 0:
        return SENTINEL
    z = (np.asarray(x, dtype=float) - mu) / sigma
    n = z.size
    if abs(xi) < XI_EPS:
        with np.errstate(over="ignore"):
            val = n * math.log(sigma) + np.sum(z) + np.sum(np.exp(-z))
    else:
        u = 1.0 - xi * z
        if np.any(u <= 0):
            return SENTINEL
        lu = np.log(u)
        with np.errstate(over="ignore"):
            val = n * math.log(sigma) + (1.0 - 1.0 / xi) * np.sum(lu) + np.sum(np.exp(lu / xi))
    return float(val) if math.isfinite(val) else SENTINEL


def _default_init(arr: np.ndarray) -> GevParams:
    try:
        return fit_lme(arr).params
    except ValueError:
        # L-skewness out of range; start from the Gumbel moment fit
        l = sample_lmoments(arr)
        sigma = max(l.l2 / _LOG2, 1e-12)
        return GevParams(l.l1 - sigma * EULER_GAMMA, sigma, 0.0)


def _simplex_scale(init: GevParams) -> np.ndarray:
    return np.array([0.1 * abs(init.mu) + 1.0, 0.1 * init.sigma, 0.05])


def _penalized_nll(arr: np.ndarray, penalty):
    """The one likelihood objective of ``fit_mle``, ``fit_gmle`` and the
    ``mle``/``gmle`` profile: negative log-likelihood plus -ln p(xi), and
    SENTINEL outside the shape box."""

    def objective(mu, sigma, xi):
        if not _XI_LO < xi < _XI_HI:
            return SENTINEL
        nll = gev_neg_loglik(arr, mu, sigma, xi)
        if nll >= SENTINEL:
            return SENTINEL
        val = nll + penalty.neg_log(xi)
        return val if math.isfinite(val) else SENTINEL

    return objective


def _fit_likelihood(arr: np.ndarray, penalty, init: GevParams | None, seed: int) -> FitResult:
    start = init if init is not None else _default_init(arr)
    if penalty.neg_log(start.xi) >= SENTINEL:
        # the penalty excludes the start shape (only the beta families have
        # such gaps inside the box); start at its mode instead
        start = GevParams(start.mu, start.sigma, penalty.mode)
    objective = _penalized_nll(arr, penalty)
    res = nelder_mead(lambda theta: objective(*theta), np.array(start.as_tuple()),
                      _simplex_scale(start), seed=seed)
    method = "mle" if isinstance(penalty, FlatPenalty) else f"gmle.{penalty.label}"
    # a simplex stalled on the sentinel plateau has not found a feasible fit
    converged = bool(res.converged and res.fun < SENTINEL)
    result = FitResult(GevParams(*res.x), method, res.fun, converged, res.n_eval, penalty)
    if not converged:
        raise ConvergenceError(f"{method} fit did not converge", best=result)
    return result


def fit_mle(x, init: GevParams | None = None, seed: int = 0) -> FitResult:
    """Maximum likelihood estimate via Nelder-Mead from the L-moment point."""
    return _fit_likelihood(_check_sample(x, 5), FlatPenalty(), init, seed)


def fit_gmle(x, penalty, init: GevParams | None = None, seed: int = 0) -> FitResult:
    """Penalized maximum likelihood: adds -ln p(xi) to the likelihood objective.

    When the penalty gives the start shape zero weight, the search starts
    at the penalty's mode instead.
    """
    arr = _check_sample(x, 5)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(fit_lme(arr).params.xi)
    return _fit_likelihood(arr, penalty, init, seed)


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
) -> FitResult:
    """Penalty-weighted L-moment fit.

    The covariance ``V`` is estimated once from the observed sample and held
    fixed.  An :class:`AdaptiveBetaRequest` penalty is built from the shape
    of the plain L-moment estimate.  Location and scale are profiled out in
    closed form (see :func:`_glme_profile`); the shape is searched on a
    fixed grid of 81 points over the box (-1, 1), narrowed to the
    penalty's support when the penalty is in force, then refined by bounded
    Brent between the best grid point's neighbours.  ``iterations`` counts
    the shapes at which the profile was evaluated.
    """
    arr = _check_sample(x, 5)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(fit_lme(arr).params.xi)
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
    whose (location, scale) profile has no closed form, an inner Nelder-Mead
    search runs at each grid value.  Grid points that are infeasible, or
    where the inner search fails, are flagged, not fatal.
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

    objective = _penalized_nll(arr, penalty)
    init = _default_init(arr)
    start = np.array([init.mu, init.sigma])
    scale = np.array([0.1 * abs(init.mu) + 1.0, 0.1 * init.sigma])
    out = []
    for xi in grid:
        res = nelder_mead(lambda v, xi=xi: objective(v[0], v[1], xi), start, scale, seed=seed)
        out.append(ProfilePoint(float(xi), -res.fun, res.converged and res.fun < SENTINEL))
    return out
