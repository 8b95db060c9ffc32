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

The covariance weighting the quadratic distance is the exact covariance
of standard-Gumbel sample L-moments, which depends only on the sample size
and therefore stays fixed during optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._optim import damped_newton
# unused here; perfbench/tracing.py patches glme.nonstationary.nelder_mead by name
from ._optim import nelder_mead  # noqa: F401
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    SampleSizeError,
    ShapeEdgeError,
    TransformError,
)
from .estimators import (
    _XI_HI,
    _XI_LO,
    FIT_MIN_N,
    _check_distinct,
    _feasible_scale,
    _objective_const,
)

# unused here; perfbench/tracing.py patches glme.nonstationary.fit_lme by name
from .estimators import fit_lme  # noqa: F401
from .gev import XI_EPS, GevParams, _reduced_variate, _sample, return_level
from .lmoments import (
    COV_MIN_N,
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

_GUMBEL_LAMBDA = gumbel_population_lmoments().as_array()

# fit_ns_lme's Newton solve: residual norm at which it stops, iteration cap,
# step halvings tried per iteration, and the distance from the lower shape
# edge within which a stall counts as stopped by the edge (the stalls seen
# on gev11 trials stop within 1e-10 of it)
_ROOT_TOL = 1e-12
_NEWTON_ITER = 50
_HALVINGS = 30
_EDGE_TOL = 1e-9
# robust_location_fit's step cap; its fits take at most about 20 steps
_LOCATION_ITER = 50

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
    if not np.isfinite(X).all():
        raise ValueError("covariates must be finite")
    design = np.empty((n, X.shape[1] + 1))
    design[:, 0] = 1.0
    design[:, 1:] = X
    return design


def _median(a: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array, bit for bit: the same partition
    and the same ``mean`` of the middle one or two values, without its
    generic axis and nan handling, which costs several times as much on a
    short series."""
    half, odd = divmod(a.size, 2)
    kth = half if odd else (half - 1, half)
    return float(np.partition(a, kth)[half - 1 + odd : half + 1].mean())


def _positive_definite_solve(m, b):
    """``x`` with ``m x = b`` for a symmetric ``m`` (a list of rows of
    floats) by Gaussian elimination without pivoting, in floats.  Its
    pivots are those of ``m = L D L'``, so it returns None where one is not
    positive: unless ``m`` is positive definite."""
    rows = [[*row, value] for row, value in zip(m, b)]
    for k, top in enumerate(rows):
        if not top[k] > 0.0:
            return None
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / top[k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], top)]
    x = []
    for k in range(len(rows) - 1, -1, -1):
        row = rows[k]
        x.insert(0, (row[-1] - sum([r * v for r, v in zip(row[k + 1:], x)])) / row[k])
    return x


def _bisquare(resid, c):
    """``(u, a, total)`` at the residuals ``resid``: ``u = resid / c``, ``a =
    1 - u**2`` inside ``|u| < 1`` and 0 outside (and where ``u`` is nan),
    and ``total = sum(a**3)``.  The bisquare objective is ``sum(rho(u))``
    with ``rho = (1 - a**3) / 6``, so a larger total is a lower objective;
    ``rho' = u a**2`` and ``rho'' = a (5 a - 4)``."""
    u = resid / c
    a = 1.0 - u * u
    a[~(abs(u) < 1.0)] = 0.0
    return u, a, float(a @ (a * a))


def robust_location_fit(z, X, method: str = "tukey") -> np.ndarray:
    """Location regression coefficients (intercept first).

    ``tukey`` (default) is an M-estimator: it minimizes the Tukey bisquare
    objective ``sum(rho(r / (4.685 s)))`` of the residuals ``r``, with the
    scale ``s`` fixed at the normalized median absolute deviation of the
    initial least-squares residuals, from the least-squares fit.  Each step
    is the Newton step where its matrix ``X' diag(rho''(u)) X`` is positive
    definite and the step does not raise the objective; otherwise it is the
    iteratively reweighted least-squares step, which never raises it
    (Holland & Welsch 1977).  The fit stops when a step moves the fitted
    values by at most ``1e-10 s``, or returns the current coefficients
    when at most as many observations as coefficients keep a nonzero
    weight or the reweighted system is not positive definite; after
    ``_LOCATION_ITER`` steps it returns the last one's coefficients.
    ``ols`` returns the plain least-squares fit.
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
    mad = _median(np.abs(resid - _median(resid)))
    scale = 1.4826 * mad
    if scale <= 1e-12 * max(1.0, _median(np.abs(z))):
        return coef  # (near-)exact fit; nothing to reweight

    c = 4.685 * scale
    k = design.shape[1]
    # per observation: the design row times rho'' and times the weight a**2,
    # and rho', so that one product gives both matrices and the gradient
    columns = np.empty((z.size, 2 * k + 1))
    u, a, total = _bisquare(resid, c)
    for _ in range(_LOCATION_ITER):
        weight = a * a
        if np.count_nonzero(weight) <= k:
            break
        np.multiply(design, (a * (5.0 * a - 4.0))[:, None], out=columns[:, :k])
        np.multiply(design, weight[:, None], out=columns[:, k:-1])
        np.multiply(u, weight, out=columns[:, -1])
        sums = (design.T @ columns).tolist()
        rhs = [c * row[-1] for row in sums]  # so that the step is in units of coef
        trial = None
        step = _positive_definite_solve([row[:k] for row in sums], rhs)
        if step is not None:
            change = design @ step
            trial = _bisquare(resid - change, c)
            if trial[2] < total:
                trial = None
        if trial is None:
            step = _positive_definite_solve([row[k:-1] for row in sums], rhs)
            if step is None:
                break
            change = design @ step
            trial = _bisquare(resid - change, c)
        coef = coef + step
        resid = resid - change
        u, a, total = trial
        if abs(change).max() <= 1e-10 * scale:
            break
    return coef


def scale_regression(z, X, mu_coef) -> np.ndarray:
    """Log-linear regression of absolute location residuals on the covariates.

    Returns all coefficients; only the slopes are meaningful downstream
    (the intercept absorbs the mean of the log absolute residuals).  Exact
    zeros, which a robust location fit can produce by interpolation, are
    floored at 1e-8 times the median positive residual; nonzero residuals
    enter the log untouched so a wide dynamic range stays intact.  Raises
    :class:`DegenerateDataError` when at least half the residuals are at
    most ``1e-12 * max(1, median |z|)``, the tolerance under which
    :func:`robust_location_fit` takes the fit as exact: a constant or
    exactly linear series, or one with a few outliers, whose log residuals
    would be mostly rounding noise.
    """
    z = np.asarray(z, dtype=float)
    design = _design_matrix(X, z.size)
    mu_coef = np.asarray(mu_coef, dtype=float)
    eps = np.abs(z - design @ mu_coef)
    n_exact = np.count_nonzero(eps <= 1e-12 * max(1.0, _median(np.abs(z))))
    if 2 * n_exact >= eps.size:
        raise DegenerateDataError(
            f"{n_exact} of {eps.size} location residuals are (numerically) zero; "
            "no scale information"
        )
    positive = eps[eps > 0]
    floor = 1e-8 * _median(positive)
    coef, *_ = np.linalg.lstsq(design, np.log(np.where(eps > 0, eps, floor)), rcond=None)
    return coef


def gumbel_transform(z, model: NsModel) -> np.ndarray:
    """Map observations to standard Gumbel under the model's parameters.

    Raises :class:`TransformError` (naming the first offending index) if
    any observation falls outside the implied support.
    """
    w = (np.asarray(z, dtype=float) - model.mu_values()) / model.sigma_values()
    zt, u = _reduced_variate(w, model.xi)
    bad = np.flatnonzero(u <= 0)
    if bad.size:
        raise TransformError(
            f"observation {bad[0]} outside the support implied by the parameters",
            index=int(bad[0]),
        )
    return zt


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
        dzt/dxi = (w/u - zt)/xi   (0/0 at 0: w**2 / 2 where |xi| < XI_EPS).

    The transform is increasing in ``w = (z - mu)/sigma`` and the common
    factor ``exp(log sigma0)`` leaves the order of ``w`` alone, so only
    ``mu0`` can change the permutation.  ``kinks()`` returns, for each pair
    of neighbours in the current order, the change of ``mu0`` at which they
    swap (infinite or nan when they never do); ``r`` is smooth in ``theta``
    except across those values.  ``kinks`` is a callable because only a
    rejected search step needs it.  Non-finite intermediates are rejected,
    so callers evaluate under ``np.errstate`` that ignores divide, invalid
    and overflow warnings.
    """
    d = z - cov @ mu_slopes
    log_scale = cov @ sig_slopes
    weights = _lmoment_weights(z.size)
    columns = np.empty((z.size, 4))

    def evaluate(theta):
        mu0, sig0, xi = theta
        if not _XI_LO < xi < _XI_HI:
            return None
        sigma = np.exp(sig0 + log_scale)
        w = (d - mu0) / sigma
        zt, u = _reduced_variate(w, xi, errstate=False)
        if u.min() <= 0:  # a nan u leaves zt non-finite, rejected below
            return None
        columns[:, 0] = zt
        columns[:, 1] = -1.0 / (sigma * u)
        columns[:, 2] = -w / u
        columns[:, 3] = 0.5 * w * w if abs(xi) < XI_EPS else (w / u - zt) / xi
        order = np.argsort(zt)
        out = weights @ columns[order]
        if not np.isfinite(out).all():
            return None
        return (out[:, 0] - _GUMBEL_LAMBDA, out[:, 1:],
                lambda: np.diff(w[order]) / np.diff(1.0 / sigma[order]))

    return evaluate


def _stages(z, X, location_method, mu_coef=None):
    """Regression stages: location coefficients (unless given), scale
    regression, and their diagnostics."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("observations must be finite")
    _check_distinct(z)
    if mu_coef is None:
        mu_coef = robust_location_fit(z, X, method=location_method)
    scale_coef = scale_regression(z, X, mu_coef)
    design = _design_matrix(X, z.size)
    eps = np.abs(z - design @ mu_coef)
    diag = StageDiagnostics(
        location_coef=mu_coef,
        scale_coef=scale_coef,
        residual_median=_median(eps),
        residual_max=float(np.max(eps)),
    )
    return mu_coef, scale_coef, diag


def _solve3(a, b):
    """``x`` with ``a x = b`` for a 3x3 ``a`` (a list of rows of floats) by
    Gaussian elimination with partial pivoting, in floats; None on a zero
    pivot, where ``a`` is singular."""
    r0, r1, r2 = [[*row, value] for row, value in zip(a, b)]
    if abs(r1[0]) > abs(r0[0]):
        r0, r1 = r1, r0
    if abs(r2[0]) > abs(r0[0]):
        r0, r2 = r2, r0
    p0 = r0[0]
    if p0 == 0.0:
        return None
    f1, f2 = r1[0] / p0, r2[0] / p0
    r1 = [r1[1] - f1 * r0[1], r1[2] - f1 * r0[2], r1[3] - f1 * r0[3]]
    r2 = [r2[1] - f2 * r0[1], r2[2] - f2 * r0[2], r2[3] - f2 * r0[3]]
    if abs(r2[0]) > abs(r1[0]):
        r1, r2 = r2, r1
    p1 = r1[0]
    if p1 == 0.0:
        return None
    f = r2[0] / p1
    p2 = r2[1] - f * r1[1]
    if p2 == 0.0:
        return None
    x2 = (r2[2] - f * r1[2]) / p2
    x1 = (r1[2] - r1[1] * x2) / p1
    return [(r0[3] - r0[1] * x1 - r0[2] * x2) / p0, x1, x2]


def _newton(evaluate, theta, r, jac):
    """Damped Newton on ``r(theta) = 0`` from a feasible point, ``theta`` a
    list of floats.

    Each step solves the Jacobian system by :func:`_solve3` and is halved
    until the point is feasible and the residual norm decreases; stops
    below ``_ROOT_TOL``, on a singular Jacobian, or when no halving helps.
    Returns ``(theta, norm, evaluations)``.
    """
    norm = math.sqrt(r @ r)
    n_eval = 0
    for _ in range(_NEWTON_ITER):
        if norm < _ROOT_TOL:
            break
        step = _solve3(jac.tolist(), (-r).tolist())
        if step is None:
            break
        for _ in range(_HALVINGS):
            point = [t + s for t, s in zip(theta, step)]
            trial = evaluate(point)
            n_eval += 1
            trial_norm = math.inf if trial is None else math.sqrt(trial[0] @ trial[0])
            if trial_norm < norm:
                theta = point
                r, jac = trial[:2]
                norm = trial_norm
                break
            step = [0.5 * s for s in step]
        else:
            break
    return theta, norm, n_eval


def fit_ns_lme(z, X, location_method: str = "tukey", refine: bool = False) -> NsFitResult:
    """Fit by matching transformed-sample L-moments to the Gumbel constants.

    Slopes come from the regression stages and stay fixed; the intercepts
    and shape solve the three L-moment equations by damped Newton with the
    exact Jacobian (see :func:`_lmoment_system`) from one start: the
    location intercept, the log-scale regression intercept and shape 0,
    where the transform has no support bound, so the start is feasible for
    every series.  A residual norm below 1e-8 counts as converged; a solve
    that stalls with its shape at the box's lower edge raises
    :class:`~glme.errors.ShapeEdgeError`, any other stall
    :class:`~glme.errors.ConvergenceError`.
    ``iterations`` counts the evaluations of the equations.  With
    ``refine`` the scale regression and the matching stage run a second
    time using the location intercept found by the first pass.  The fit
    needs at least ``FIT_MIN_N`` observations.
    """
    z = np.asarray(z, dtype=float)
    if z.size < FIT_MIN_N:
        raise SampleSizeError(
            f"fit_ns_lme needs at least {FIT_MIN_N} observations, got {z.size}")
    result = _fit_ns_lme_once(z, X, location_method, None)
    if refine:
        result = _fit_ns_lme_once(z, X, location_method, result.model.mu_coef.copy())
    return result


def _fit_ns_lme_once(z, X, location_method, mu_coef) -> NsFitResult:
    mu_coef, scale_coef, diag = _stages(z, X, location_method, mu_coef)
    cov = _design_matrix(X, z.size)[:, 1:]
    mu_slopes, sig_slopes = mu_coef[1:], scale_coef[1:]
    evaluate = _lmoment_system(z, cov, mu_slopes, sig_slopes)

    theta = [float(mu_coef[0]), float(scale_coef[0]), 0.0]
    # see _lmoment_system for the warnings this silences
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        start = evaluate(theta)
        if start is None:
            raise ConvergenceError("no feasible starting point for the L-moment system")
        theta, norm, n_eval = _newton(evaluate, theta, *start[:2])

    model = NsModel(
        np.concatenate([[theta[0]], mu_slopes]),
        np.concatenate([[theta[1]], sig_slopes]),
        float(theta[2]),
        cov,
    )
    result = NsFitResult(model, "lme", norm, norm < 1e-8, 1 + n_eval, diag)
    if result.converged:
        return result
    message = f"L-moment matching stalled at residual norm {norm:.3g}"
    if theta[2] - _XI_LO < _EDGE_TOL:
        raise ShapeEdgeError(f"{message} with the shape at the box's lower edge", best=result)
    raise ConvergenceError(message, best=result)


def fit_ns_glme(
    z,
    X,
    penalty=FlatPenalty(),
    alpha_n: float = 1.0,
    location_method: str = "tukey",
    refine: bool = False,
    lme: NsFitResult | None = None,
) -> NsFitResult:
    """Penalty-weighted fit: minimizes the normal-approximation objective of
    the transformed sample's L-moment distance plus the shape penalty.

    Starts from ``lme``, the :func:`fit_ns_lme` fit of the same series with
    the same ``location_method`` and ``refine`` (computed here when not
    given), and reuses its slopes; an :class:`AdaptiveBetaRequest` penalty
    is built from that fit's shape.  Where that fit stalls at the shape
    box's lower edge (:class:`~glme.errors.ShapeEdgeError`), the point it
    stopped at serves as ``lme`` instead.
    When the penalty gives that shape zero weight, the search starts at
    the penalty's mode instead, with the scale intercept raised where
    needed so that every observation lies inside the transform's support
    (the rule of :func:`~glme.estimators._feasible_scale`).  The objective
    ``0.5 * |L^-1 r|**2 + alpha_n * (-ln p(xi)) + C``, with ``V = L L'`` the
    exact covariance of standard-Gumbel sample L-moments at the series'
    length (:func:`~glme.lmoments.gumbel_lmoment_cov`), is minimized by
    :func:`glme._optim.damped_newton` on the gradient ``J'e`` and
    Gauss-Newton matrix ``J'J`` of ``e = L^-1 r``, plus the penalty's slope
    and nonnegative curvature (central differences); the kinks of ``r`` in
    ``mu0`` (see :func:`_lmoment_system`) reach it through its kink hook.
    ``iterations`` counts the evaluations of the equations.  The fit is
    deterministic, and it needs at least ``COV_MIN_N`` observations.
    """
    z = np.asarray(z, dtype=float)
    if z.size < COV_MIN_N:
        raise SampleSizeError(
            f"fit_ns_glme needs at least {COV_MIN_N} observations for the Gumbel "
            f"L-moment covariance, got {z.size}")
    if lme is None:
        try:
            lme = fit_ns_lme(z, X, location_method=location_method, refine=refine)
        except ShapeEdgeError as stall:
            lme = stall.best
    if isinstance(penalty, AdaptiveBetaRequest):
        penalty = penalty.build(lme.model.xi)
    method = "glme" if isinstance(penalty, FlatPenalty) else f"glme.{penalty.label}"
    penalized = alpha_n != 0

    cov = lme.model.covariates
    mu_slopes, sig_slopes = lme.model.mu_coef[1:], lme.model.sigma_coef[1:]
    evaluate = _lmoment_system(z, cov, mu_slopes, sig_slopes)
    vtilde = gumbel_lmoment_cov(z.size)
    const = _objective_const(vtilde)
    l_inv = vtilde.whiten(np.eye(3))

    def objective(theta):
        """(value, gradient, Gauss-Newton matrix, kinks) at ``theta = (log
        sigma0, xi, mu0)``, mu0 last for the kink hook; None if infeasible."""
        system = evaluate((theta[2], theta[0], theta[1]))
        if system is None:
            return None
        xi = theta[1]
        neg_log = penalty.neg_log(xi) if penalized else 0.0
        if neg_log >= SENTINEL:
            return None
        r, jac, kinks = system
        e, a = l_inv @ r, l_inv @ jac[:, [1, 2, 0]]
        value = 0.5 * float(e @ e) + alpha_n * neg_log + const
        if not math.isfinite(value):
            return None
        grad, hess = (a.T @ e).tolist(), (a.T @ a).tolist()
        if penalized:
            slope, curvature = _penalty_slopes(penalty, xi)
            grad[1] += alpha_n * slope
            hess[1][1] += max(alpha_n * curvature, 0.0)
        return value, grad, hess, kinks

    mu0, sig0, xi = lme.model.mu_coef[0], lme.model.sigma_coef[0], lme.model.xi
    if penalized and penalty.neg_log(xi) >= SENTINEL:
        # the mode may put data outside the transform's support at the lme
        # intercepts; raise the scale intercept until it does not
        xi = penalty.mode
        detrended = (z - cov @ mu_slopes - mu0) / np.exp(cov @ sig_slopes)
        sigma0 = math.exp(sig0)
        sig0 += math.log(_feasible_scale(detrended, 0.0, sigma0, xi) / sigma0)
    theta = [float(sig0), float(xi), float(mu0)]
    # see _lmoment_system for the warnings this silences
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        current = objective(theta)
        if current is None:
            raise ConvergenceError(f"{method}: the starting point is infeasible")
        (sig0, xi, mu0), current, n_eval, converged = damped_newton(
            objective, theta, current, kinks=lambda current: current[3]().tolist())
    model = NsModel(
        np.concatenate([[mu0], mu_slopes]),
        np.concatenate([[sig0], sig_slopes]),
        xi,
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
