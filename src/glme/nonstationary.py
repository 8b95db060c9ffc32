"""Fitting GEV models whose location and log-scale are linear in covariates.

The pipeline estimates the trend slopes first and the remaining three
parameters last:

1. robust linear regression of the observations on the covariates gives
   the location coefficients;
2. absolute residuals from that fit become scale pseudo-residuals;
3. an ordinary log-linear regression of the pseudo-residuals gives the
   scale slopes (its intercept is discarded as biased);
4. with all slopes held fixed, the intercepts and the shape are chosen so
   that the shape-standardizing transform of the data has the L-moments of
   a standard Gumbel distribution -- either exactly (L-moment matching) or
   by minimizing a penalized quadratic distance in those L-moments.

The covariance weighting the quadratic distance is the parametric
bootstrap covariance of standard-Gumbel sample L-moments, which depends
only on the sample size and therefore stays fixed during optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# unused here; perfbench/tracing.py patches glme.nonstationary.nelder_mead by name
from ._optim import nelder_mead  # noqa: F401
from .errors import ConvergenceError, DegenerateDataError, LSkewnessError, TransformError
from .estimators import fit_lme
from .gev import XI_EPS, GevParams, _sample, return_level
from .lmoments import (
    CovMatrix3,
    _lmoment_weights,
    gld,
    gumbel_lmoment_cov,
    gumbel_population_lmoments,
    sample_lmoments,
)
from .penalties import SENTINEL, AdaptiveBetaRequest, FlatPenalty, _penalty_slopes

__all__ = [
    "NsModel",
    "NsFitResult",
    "StageDiagnostics",
    "gev11_design",
    "robust_location_fit",
    "scale_regression",
    "gumbel_transform",
    "ns_gld",
    "fit_ns_lme",
    "fit_ns_glme",
    "ns_return_level",
    "ns_sample",
]

_XI_LO, _XI_HI = -1.0 + 1e-8, 1.0 - 1e-8
_GUMBEL_LAMBDA = gumbel_population_lmoments().as_array()

# fit_ns_lme's Newton solve: residual norm at which it stops, iteration cap,
# and step halvings tried per iteration
_ROOT_TOL = 1e-12
_NEWTON_ITER = 50
_HALVINGS = 30

# fit_ns_glme's Levenberg-Marquardt search: initial and smallest damping,
# relative-step and objective-decrease tolerances, and evaluation cap
_LM_DAMPING, _LM_DAMPING_MIN = 1e-3, 1e-12
_LM_XTOL, _LM_FTOL = 1e-10, 1e-15
_LM_MAX_EVAL = 200


@dataclass(frozen=True)
class NsModel:
    """Covariate design with one coefficient vector per parameter.

    ``mu_coef`` and ``sigma_coef`` hold (intercept, slope_1, ..., slope_k);
    the scale is ``exp(sigma_coef . (1, X))`` so it is positive for any
    coefficients.  The shape is constant across observations.
    """

    mu_coef: np.ndarray
    sigma_coef: np.ndarray
    xi: float
    covariates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu_coef", np.asarray(self.mu_coef, dtype=float))
        object.__setattr__(self, "sigma_coef", np.asarray(self.sigma_coef, dtype=float))
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov.reshape(-1, 1)
        object.__setattr__(self, "covariates", cov)
        k = cov.shape[1]
        if self.mu_coef.shape != (k + 1,) or self.sigma_coef.shape != (k + 1,):
            raise ValueError(f"coefficient vectors must have length {k + 1}")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_obs(self) -> int:
        return self.covariates.shape[0]

    def mu_values(self) -> np.ndarray:
        return self.mu_coef[0] + self.covariates @ self.mu_coef[1:]

    def sigma_values(self) -> np.ndarray:
        return np.exp(self.sigma_coef[0] + self.covariates @ self.sigma_coef[1:])

    def params_at(self, t_index: int) -> GevParams:
        if not 0 <= t_index < self.n_obs:
            raise ValueError(f"t_index must be in [0, {self.n_obs - 1}], got {t_index}")
        return GevParams(
            float(self.mu_values()[t_index]), float(self.sigma_values()[t_index]), self.xi
        )


@dataclass(frozen=True)
class StageDiagnostics:
    """Regression-stage outputs kept for reporting."""

    location_coef: np.ndarray
    scale_coef: np.ndarray
    residual_median: float
    residual_max: float


@dataclass(frozen=True)
class NsFitResult:
    model: NsModel
    method: str
    objective_value: float
    converged: bool
    iterations: int
    stage_diagnostics: StageDiagnostics
    penalty: object = field(default_factory=FlatPenalty)
    alpha_n: float = 1.0


def gev11_design(n: int) -> np.ndarray:
    """The time design t = 1..n as a single covariate column."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.arange(1.0, n + 1.0).reshape(-1, 1)


def _design_matrix(X: np.ndarray, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.shape[0] != n:
        raise ValueError(f"design has {X.shape[0]} rows, data has {n}")
    if not np.all(np.isfinite(X)):
        raise ValueError("covariates must be finite")
    return np.column_stack([np.ones(n), X])


def robust_location_fit(z, X, method: str = "tukey") -> np.ndarray:
    """Location regression coefficients (intercept first).

    ``tukey`` (default) is an M-estimator: iteratively reweighted least
    squares with bisquare weights (tuning 4.685) and scale fixed at the
    normalized median absolute deviation of the initial least-squares
    residuals.  ``ols`` returns the plain least-squares fit.
    """
    z = np.asarray(z, dtype=float)
    design = _design_matrix(X, z.size)
    if z.size <= design.shape[1]:
        raise ValueError("need more observations than coefficients")
    # lstsq's rank uses matrix_rank's default cutoff, eps * max(m, n) * s_max
    coef, _, rank, _ = np.linalg.lstsq(design, z, rcond=None)
    if rank < design.shape[1]:
        raise ValueError("design matrix is rank deficient")
    if method == "ols":
        return coef
    if method != "tukey":
        raise ValueError(f"unknown location method {method!r}")

    resid = z - design @ coef
    mad = np.median(np.abs(resid - np.median(resid)))
    scale = 1.4826 * mad
    if scale <= 1e-12 * max(1.0, float(np.median(np.abs(z)))):
        return coef  # (near-)exact fit; nothing to reweight

    c = 4.685
    for _ in range(50):
        u = resid / (c * scale)
        w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)
        if np.count_nonzero(w) <= design.shape[1]:
            break
        wd = design * w[:, None]
        new = np.linalg.solve(design.T @ wd, wd.T @ z)
        done = np.max(np.abs(new - coef)) <= 1e-10 * (1.0 + np.max(np.abs(new)))
        coef = new
        resid = z - design @ coef
        if done:
            break
    return coef


def scale_regression(z, X, mu_coef) -> np.ndarray:
    """Log-linear regression of absolute location residuals on the covariates.

    Returns all coefficients; only the slopes are meaningful downstream
    (the intercept absorbs the mean of the log absolute residuals).  Exact
    zeros, which a robust location fit can produce by interpolation, are
    floored at 1e-8 times the median positive residual; nonzero residuals
    enter the log untouched so a wide dynamic range stays intact.  Raises
    :class:`DegenerateDataError` when every residual is at most
    ``1e-12 * max(1, median |z|)``, the tolerance under which
    :func:`robust_location_fit` takes the fit as exact (a constant or
    exactly linear series).
    """
    z = np.asarray(z, dtype=float)
    design = _design_matrix(X, z.size)
    mu_coef = np.asarray(mu_coef, dtype=float)
    eps = np.abs(z - design @ mu_coef)
    if np.all(eps <= 1e-12 * max(1.0, float(np.median(np.abs(z))))):
        raise DegenerateDataError(
            "every location residual is (numerically) zero; no scale information"
        )
    positive = eps[eps > 0]
    floor = 1e-8 * float(np.median(positive))
    coef, *_ = np.linalg.lstsq(design, np.log(np.where(eps > 0, eps, floor)), rcond=None)
    return coef


def _to_gumbel(d, sigma, xi: float):
    """The shape-standardizing transform of deviations ``d`` from the location.

    Returns ``(zt, w, u)`` with ``w = d / sigma``, ``u = 1 - xi * w`` and
    ``zt = -log(u) / xi``; in the Gumbel limit ``|xi| < XI_EPS``, ``zt = w``
    and ``u = 1``.  Raises :class:`TransformError` naming the first
    observation outside the support (``u <= 0``).
    """
    w = d / sigma
    if abs(xi) < XI_EPS:
        return w, w, 1.0
    u = 1.0 - xi * w
    bad = np.flatnonzero(u <= 0)
    if bad.size:
        raise TransformError(
            f"observation {bad[0]} outside the support implied by the parameters",
            index=int(bad[0]),
        )
    return -np.log1p(-xi * w) / xi, w, u


def gumbel_transform(z, model: NsModel) -> np.ndarray:
    """Map observations to standard Gumbel under the model's parameters.

    Raises :class:`TransformError` (naming the first offending index) if
    any observation falls outside the implied support.
    """
    d = np.asarray(z, dtype=float) - model.mu_values()
    return _to_gumbel(d, model.sigma_values(), model.xi)[0]


def ns_gld(ztilde, Vtilde: CovMatrix3) -> float:
    """Quadratic distance of the transformed sample's L-moments from the
    standard Gumbel L-moments."""
    return gld(gumbel_population_lmoments(), sample_lmoments(ztilde), Vtilde)


def _lmoment_system(z, cov, mu_slopes, sig_slopes):
    """The final stage's equations with the slopes held fixed.

    Returns ``evaluate(theta) -> (r, J, kinks)`` for ``theta = (mu0, log
    sigma0, xi)``, or None outside the shape box, outside the transform's
    support, or where ``r`` or ``J`` is not finite.  ``r`` is the residual
    of the transformed sample's L-moments from the Gumbel constants and
    ``J = dr/dtheta`` its exact Jacobian.  With the sort permutation of the
    transformed sample held fixed the L-moments are ``W @ zt[order]`` for
    the fixed weight matrix ``W``, so ``J = W @ (dzt/dtheta)[order]``; per
    observation

        dzt/dmu0 = -1/(sigma u),  dzt/dlog sigma0 = -w/u,
        dzt/dxi = (w/u - zt)/xi   (Gumbel limit w**2 / 2).

    The transform is increasing in ``w = (z - mu)/sigma`` and the common
    factor ``exp(log sigma0)`` leaves the order of ``w`` alone, so only
    ``mu0`` can change the permutation.  ``kinks`` holds, for each pair of
    neighbours in the current order, the change of ``mu0`` at which they
    swap (infinite or nan when they never do); ``r`` is smooth in ``theta``
    except across those values.
    """
    d = z - cov @ mu_slopes
    log_scale = cov @ sig_slopes
    weights = _lmoment_weights(z.size)

    def evaluate(theta):
        mu0, sig0, xi = theta
        if not _XI_LO < xi < _XI_HI:
            return None
        # non-finite results are rejected below, so their warnings are noise
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sigma = np.exp(sig0 + log_scale)
            try:
                zt, w, u = _to_gumbel(d - mu0, sigma, xi)
            except TransformError:
                return None
            dxi = 0.5 * w * w if abs(xi) < XI_EPS else (w / u - zt) / xi
            order = np.argsort(zt)
            columns = np.column_stack([zt, -1.0 / (sigma * u), -w / u, dxi])
            out = weights @ columns[order]
            if not np.all(np.isfinite(out)):
                return None
            kinks = np.diff(w[order]) / np.diff(1.0 / sigma[order])
        return out[:, 0] - _GUMBEL_LAMBDA, out[:, 1:], kinks

    return evaluate


def _stages(z, X, location_method, mu_coef=None):
    """Regression stages: location coefficients (unless given), scale
    regression, and their diagnostics."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("observations must be finite")
    if mu_coef is None:
        mu_coef = robust_location_fit(z, X, method=location_method)
    scale_coef = scale_regression(z, X, mu_coef)
    design = _design_matrix(X, z.size)
    eps = np.abs(z - design @ mu_coef)
    diag = StageDiagnostics(
        location_coef=mu_coef,
        scale_coef=scale_coef,
        residual_median=float(np.median(eps)),
        residual_max=float(np.max(eps)),
    )
    return mu_coef, scale_coef, diag


def _init_candidates(z, cov, mu_coef, scale_coef):
    """Starting points for the final-stage search, in preference order.

    The first is (robust location intercept, log-regression intercept,
    L-moment shape of the detrended residuals).  Because the log-regression
    intercept is biased low it can start outside the transform's support,
    so fallbacks re-derive the scale intercept from the detrended
    residuals' L-moment fit and, last, pull the shape to 0, where the
    transform is support-free.
    """
    detrended = (z - cov @ mu_coef[1:] - mu_coef[0]) / np.exp(cov @ scale_coef[1:])
    xi0 = 0.0
    log_scale = None
    try:
        fit = fit_lme(detrended).params
        xi0 = float(np.clip(fit.xi, -0.9, 0.9))
        log_scale = math.log(fit.sigma)
    except (LSkewnessError, DegenerateDataError):
        pass
    candidates = [np.array([mu_coef[0], scale_coef[0], xi0])]
    if log_scale is not None:
        candidates.append(np.array([mu_coef[0], log_scale, xi0]))
        candidates.append(np.array([mu_coef[0], log_scale, 0.0]))
    candidates.append(np.array([mu_coef[0], scale_coef[0], 0.0]))
    return candidates


def _newton(evaluate, theta, r, jac):
    """Damped Newton on ``r(theta) = 0`` from a feasible point.

    Each step is halved until the point is feasible and the residual norm
    decreases; stops below ``_ROOT_TOL``, on a singular Jacobian, or when
    no halving helps.  Returns ``(theta, norm, evaluations)``.
    """
    norm = float(np.linalg.norm(r))
    n_eval = 0
    for _ in range(_NEWTON_ITER):
        if norm < _ROOT_TOL:
            break
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        for _ in range(_HALVINGS):
            trial = evaluate(theta + step)
            n_eval += 1
            if trial is not None and np.linalg.norm(trial[0]) < norm:
                theta = theta + step
                r, jac = trial[:2]
                norm = float(np.linalg.norm(r))
                break
            step = 0.5 * step
        else:
            break
    return theta, norm, n_eval


def fit_ns_lme(
    z, X, location_method: str = "tukey", seed: int = 0, refine: bool = False
) -> NsFitResult:
    """Fit by matching transformed-sample L-moments to the Gumbel constants.

    Slopes come from the regression stages and stay fixed; the intercepts
    and shape solve the three L-moment equations by damped Newton with the
    exact Jacobian (see :func:`_lmoment_system`), from each start of
    :func:`_init_candidates` in turn until one reaches a residual norm
    below 1e-8, which counts as converged.  ``iterations`` counts the
    evaluations of the equations.  The solver is deterministic: ``seed``
    has no effect and is accepted for a uniform interface.  With
    ``refine`` the scale regression and the matching stage run a second
    time using the location intercept found by the first pass.
    """
    result = _fit_ns_lme_once(z, X, location_method, None)
    if refine:
        result = _fit_ns_lme_once(z, X, location_method, result.model.mu_coef.copy())
    return result


def _fit_ns_lme_once(z, X, location_method, mu_coef) -> NsFitResult:
    z = np.asarray(z, dtype=float)
    mu_coef, scale_coef, diag = _stages(z, X, location_method, mu_coef)
    cov = _design_matrix(X, z.size)[:, 1:]
    mu_slopes, sig_slopes = mu_coef[1:], scale_coef[1:]
    evaluate = _lmoment_system(z, cov, mu_slopes, sig_slopes)

    best_theta, best_norm, evals = None, math.inf, 0
    for theta0 in _init_candidates(z, cov, mu_coef, scale_coef):
        start = evaluate(theta0)
        evals += 1
        if start is None:
            continue
        theta, norm, n_eval = _newton(evaluate, theta0, *start[:2])
        evals += n_eval
        if norm < best_norm:
            best_theta, best_norm = theta, norm
        if best_norm < 1e-8:
            break
    if best_theta is None:
        raise ConvergenceError("no feasible starting point for the L-moment system")

    model = NsModel(
        np.concatenate([[best_theta[0]], mu_slopes]),
        np.concatenate([[best_theta[1]], sig_slopes]),
        float(best_theta[2]),
        cov,
    )
    result = NsFitResult(model, "lme", best_norm, best_norm < 1e-8, evals, diag)
    if not result.converged:
        raise ConvergenceError(
            f"L-moment matching stalled at residual norm {best_norm:.3g}", best=result
        )
    return result


def _pinned_step(lhs, grad, mu0_step: float) -> np.ndarray:
    """Damped Gauss-Newton step with its ``mu0`` component fixed at ``mu0_step``."""
    rest = np.linalg.solve(lhs[1:, 1:], -(grad[1:] + lhs[1:, 0] * mu0_step))
    return np.concatenate([[mu0_step], rest])


def _levenberg_marquardt(objective, theta, current, penalty, alpha_n: float):
    """Levenberg-Marquardt on ``0.5 |e|**2 + alpha_n * (-ln p(xi))`` from a
    feasible point.

    ``objective(theta)`` returns ``(value, e, de/dtheta, kinks)`` (see
    :func:`_lmoment_system`) or None where infeasible; ``penalty`` is None
    when it is not in force.  The gradient and Gauss-Newton matrix use the
    exact Jacobian plus the penalty's slope and (nonnegative part of its)
    curvature by central differences.  Stops when the relative step is at
    most ``_LM_XTOL`` or the objective falls by at most
    ``_LM_FTOL * (1 + |f|)``; converged is False when the evaluation cap
    is hit first.  Returns ``(theta, objective(theta), evaluations,
    converged)``.
    """
    n_eval = 1
    damping, converged = _LM_DAMPING, False
    while n_eval < _LM_MAX_EVAL:
        value, e, a, kinks = current
        grad = a.T @ e
        hess = a.T @ a
        if penalty is not None:
            slope, curvature = _penalty_slopes(penalty, theta[2])
            grad[2] += alpha_n * slope
            hess[2, 2] += max(alpha_n * curvature, 0.0)
        lhs = hess + damping * np.diag(np.diag(hess))
        xtol = _LM_XTOL * (1.0 + np.abs(theta))
        try:
            step = np.linalg.solve(lhs, -grad)
        except np.linalg.LinAlgError:
            break
        if np.all(np.abs(step) <= xtol):
            converged = True
            break
        trial = objective(theta + step)
        n_eval += 1
        if trial is not None and trial[0] < value:
            theta, current = theta + step, trial
            damping = max(damping / 10.0, _LM_DAMPING_MIN)
            if value - trial[0] <= _LM_FTOL * (1.0 + abs(trial[0])):
                converged = True
                break
            continue
        damping *= 10.0
        # Across a kink the Jacobian of one side misjudges the other, and
        # minima often sit on a kink: retry with mu0 held on the kink the
        # point is on, else with the step stopped at the first kink ahead.
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = kinks / step[0]
        ahead = fractions[(fractions > 0) & (fractions < 1.0)]
        if np.any(np.abs(kinks) <= xtol[0]) or ahead.size:
            on_kink = np.any(np.abs(kinks) <= xtol[0])
            step = _pinned_step(lhs, grad, 0.0 if on_kink else ahead.min() * step[0])
            if np.any(np.abs(step) > xtol):
                trial = objective(theta + step)
                n_eval += 1
                if trial is not None and trial[0] < value:
                    theta, current = theta + step, trial
    return theta, current, n_eval, converged


def fit_ns_glme(
    z,
    X,
    penalty=FlatPenalty(),
    alpha_n: float = 1.0,
    B: int = 1000,
    seed: int = 0,
    location_method: str = "tukey",
    refine: bool = False,
    lme: NsFitResult | None = None,
) -> NsFitResult:
    """Penalty-weighted fit: minimizes the normal-approximation objective of
    the transformed sample's L-moment distance plus the shape penalty.

    Starts from ``lme``, the :func:`fit_ns_lme` fit of the same series with
    the same ``location_method`` and ``refine`` (computed here when not
    given), and reuses its slopes; an :class:`AdaptiveBetaRequest` penalty
    is built from that fit's shape.
    When the penalty gives that shape zero weight, the search starts at
    the penalty's mode instead.  The objective
    ``0.5 * |L^-1 r|**2 + alpha_n * (-ln p(xi)) + C``, with ``V = L L'`` the
    Gumbel L-moment covariance, is minimized by Levenberg-Marquardt steps
    (see :func:`_levenberg_marquardt`); ``iterations`` counts the
    evaluations of the equations.
    """
    z = np.asarray(z, dtype=float)
    if lme is None:
        lme = fit_ns_lme(z, X, location_method=location_method, refine=refine)
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(lme.model.xi)
    method = "glme" if isinstance(penalty, FlatPenalty) else f"glme.{penalty.label}"
    penalized = alpha_n != 0

    cov = lme.model.covariates
    mu_slopes, sig_slopes = lme.model.mu_coef[1:], lme.model.sigma_coef[1:]
    evaluate = _lmoment_system(z, cov, mu_slopes, sig_slopes)
    vtilde = gumbel_lmoment_cov(z.size, B=B, seed=seed)
    const = 1.5 * math.log(2.0 * math.pi) + 0.5 * vtilde.log_det
    l_inv = vtilde.whiten(np.eye(3))

    def objective(theta):
        """(value, whitened residual, whitened Jacobian, kinks), or None if infeasible."""
        system = evaluate(theta)
        if system is None:
            return None
        neg_log = penalty.neg_log(theta[2]) if penalized else 0.0
        if neg_log >= SENTINEL:
            return None
        r, jac, kinks = system
        e, a = l_inv @ r, l_inv @ jac
        value = 0.5 * float(e @ e) + alpha_n * neg_log + const
        return (value, e, a, kinks) if math.isfinite(value) else None

    theta = np.array([lme.model.mu_coef[0], lme.model.sigma_coef[0], lme.model.xi])
    if penalized and penalty.neg_log(theta[2]) >= SENTINEL:
        theta[2] = penalty.mode
    current = objective(theta)
    if current is None:
        raise ConvergenceError(f"{method}: the starting point is infeasible")

    theta, current, n_eval, converged = _levenberg_marquardt(
        objective, theta, current, penalty if penalized else None, alpha_n
    )
    model = NsModel(
        np.concatenate([[theta[0]], mu_slopes]),
        np.concatenate([[theta[1]], sig_slopes]),
        float(theta[2]),
        cov,
    )
    result = NsFitResult(
        model, method, current[0], converged, n_eval, lme.stage_diagnostics, penalty, alpha_n,
    )
    if not converged:
        raise ConvergenceError(f"{method} fit did not converge", best=result)
    return result


def ns_return_level(model: NsModel, T: float, t_index: int) -> float:
    """T-year return level at one design row (0-based index)."""
    return return_level(model.params_at(t_index), T)


def ns_sample(model: NsModel, seed: int) -> np.ndarray:
    """One observation per design row by inverse-CDF sampling."""
    return _sample(model.mu_values(), model.sigma_values(), model.xi, model.n_obs, seed)
