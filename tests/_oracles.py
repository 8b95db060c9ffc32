"""Independent slow oracles the fast library code is checked against.

Everything here evaluates definitions directly (subset enumeration,
adaptive quadrature, bisection) and deliberately shares no code with the
package internals.  The exceptions are ``glme_fit_nelder_mead``,
``ns_lme_nelder_mead`` and ``ns_glme_nelder_mead``, references for the
*searches* of the penalty-weighted L-moment fit and of the trend model's
final stage: they minimize the package's own objectives, by brute force.
"""

import math
from itertools import combinations
from math import comb

import numpy as np
from scipy.integrate import quad


def lmoments_brute_force(x, order=3):
    """Sample L-moments by enumerating every order-statistic subset.

    l_r = (1/r) * C(n,r)^{-1} * sum over r-subsets of the alternating
    binomial combination of the subset's order statistics.
    """
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    out = []
    for r in range(1, order + 1):
        total = 0.0
        for subset in combinations(range(n), r):
            inner = 0.0
            for k in range(r):
                # subset is ascending; element r-k (1-based) is subset[r-k-1]
                inner += (-1) ** k * comb(r - 1, k) * xs[subset[r - 1 - k]]
            total += inner
        out.append(total / (r * comb(n, r)))
    return np.array(out)


def gev_pdf_direct(mu, sigma, xi, x):
    """Density evaluated straight from its formula (scalar, no guards)."""
    with np.errstate(over="ignore"):
        if abs(xi) < 1e-12:
            z = (x - mu) / sigma
            return np.exp(-z - np.exp(-z)) / sigma
        u = 1.0 - xi * (x - mu) / sigma
        if u <= 0:
            return 0.0
        return u ** (1.0 / xi - 1.0) * np.exp(-(u ** (1.0 / xi))) / sigma


def gev_pdf_integral(mu, sigma, xi):
    """Adaptive quadrature of the density over its support."""
    if xi < -1e-12:
        lo, hi = mu + sigma / xi, np.inf
    elif xi > 1e-12:
        lo, hi = -np.inf, mu + sigma / xi
    else:
        lo, hi = -np.inf, np.inf
    val, err = quad(lambda t: gev_pdf_direct(mu, sigma, xi, t), lo, hi, limit=300)
    return val, err


def gev_order_statistic_mean(mu, sigma, xi, k, n):
    """E[X_{k:n}] by quadrature (k-th smallest of n)."""
    from math import factorial

    c = factorial(n) / (factorial(k - 1) * factorial(n - k))

    def cdf(t):
        with np.errstate(over="ignore"):
            if abs(xi) < 1e-12:
                return np.exp(-np.exp(-(t - mu) / sigma))
            u = 1.0 - xi * (t - mu) / sigma
            if u <= 0:
                return 0.0 if xi < 0 else 1.0
            return np.exp(-(u ** (1.0 / xi)))

    def integrand(t):
        f = gev_pdf_direct(mu, sigma, xi, t)
        F = cdf(t)
        return t * c * F ** (k - 1) * (1.0 - F) ** (n - k) * f

    if xi < -1e-12:
        lo, hi = mu + sigma / xi, np.inf
    elif xi > 1e-12:
        lo, hi = -np.inf, mu + sigma / xi
    else:
        lo, hi = -np.inf, np.inf
    val, _ = quad(integrand, lo, hi, limit=400)
    return val


def gev_population_lmoments_quadrature(mu, sigma, xi):
    """First three population L-moments from order-statistic means."""
    e11 = gev_order_statistic_mean(mu, sigma, xi, 1, 1)
    e12 = gev_order_statistic_mean(mu, sigma, xi, 1, 2)
    e22 = gev_order_statistic_mean(mu, sigma, xi, 2, 2)
    e13 = gev_order_statistic_mean(mu, sigma, xi, 1, 3)
    e23 = gev_order_statistic_mean(mu, sigma, xi, 2, 3)
    e33 = gev_order_statistic_mean(mu, sigma, xi, 3, 3)
    return np.array([e11, (e22 - e12) / 2.0, (e33 - 2.0 * e23 + e13) / 3.0])


def quantile_by_bisection(cdf, p, lo, hi, tol=1e-12, max_iter=200):
    """Invert a monotone CDF by plain bisection."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def glme_fit_nelder_mead(x, V, penalty, alpha_n, seed=0):
    """Penalty-weighted L-moment fit by 3-D Nelder-Mead over (mu, sigma, xi).

    The search ``fit_glme`` ran before location and scale were profiled out
    in closed form: from the L-moment estimate, with the package's seeded
    jittered restarts, on the same objective and shape box.  ``penalty``
    must already be built.  Returns ``(params array, objective value)``; the
    value is at least SENTINEL when the simplex never left a zero-weight
    plateau.
    """
    from glme._optim import nelder_mead
    from glme.estimators import _glme_value, _objective_const, fit_lme
    from glme.lmoments import sample_lmoments

    start = fit_lme(x).params
    l = sample_lmoments(x)
    const = _objective_const(V)

    def objective(theta):
        return _glme_value(l, V, const, *theta, penalty, alpha_n)

    scale = [0.1 * abs(start.mu) + 1.0, 0.1 * start.sigma, 0.05]
    res = nelder_mead(objective, start.as_tuple(), scale, seed=seed)
    return res.x, res.fun


def _newton_polish(residual_fn, theta, max_iter=12):
    """Damped finite-difference Newton steps on the 3-equation system."""
    r = residual_fn(theta)
    if r is None:
        return theta, None
    for _ in range(max_iter):
        norm = np.linalg.norm(r)
        if norm < 1e-12:
            break
        jac = np.empty((3, 3))
        ok = True
        for j in range(3):
            h = 1e-6 * (1.0 + abs(theta[j]))
            stepped = theta.copy()
            stepped[j] += h
            rj = residual_fn(stepped)
            if rj is None:
                ok = False
                break
            jac[:, j] = (rj - r) / h
        if not ok:
            break
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        improved = False
        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            cand = theta + damp * delta
            rc = residual_fn(cand)
            if rc is not None and np.linalg.norm(rc) < norm:
                theta, r = cand, rc
                improved = True
                break
        if not improved:
            break
    return theta, r


def _ns_system(z, X, mu_coef, scale_coef):
    from glme.nonstationary import _design_matrix, _lmoment_system

    cov = _design_matrix(X, z.size)[:, 1:]
    evaluate = _lmoment_system(z, cov, mu_coef[1:], scale_coef[1:])
    return cov, evaluate


def ns_lme_nelder_mead(z, X, location_method="tukey", seed=0):
    """The trend model's L-moment matching stage by Nelder-Mead.

    The search ``fit_ns_lme`` ran before it used the exact Jacobian: over
    the package's starting points in order, the seeded Nelder-Mead on the
    squared residual norm, then finite-difference Newton steps, until one
    start reaches a residual norm below 1e-8.  Slopes come from the
    package's regression stages.  Returns ``(theta, residual norm)`` with
    ``theta = (mu0, log sigma0, xi)``.
    """
    from glme._optim import nelder_mead
    from glme.nonstationary import _init_candidates, _stages
    from glme.penalties import SENTINEL

    z = np.asarray(z, dtype=float)
    mu_coef, scale_coef, _ = _stages(z, X, location_method)
    cov, evaluate = _ns_system(z, X, mu_coef, scale_coef)

    def residual(theta):
        out = evaluate(theta)
        return None if out is None else out[0]

    def objective(theta):
        r = residual(theta)
        return SENTINEL if r is None else float(r @ r)

    best_theta, best_norm = None, math.inf
    for theta0 in _init_candidates(z, cov, mu_coef, scale_coef):
        if objective(theta0) >= SENTINEL:
            continue
        scale = np.array([0.1 * abs(theta0[0]) + 1.0, 0.1 * abs(theta0[1]) + 0.05, 0.05])
        res = nelder_mead(objective, theta0, scale, seed=seed, f_target=1e-20, tol=1e-10)
        theta, r = _newton_polish(residual, res.x)
        norm = float(np.linalg.norm(r)) if r is not None else math.sqrt(res.fun)
        if norm < best_norm:
            best_theta, best_norm = theta, norm
        if best_norm < 1e-8:
            break
    return best_theta, best_norm


def ns_glme_nelder_mead(z, lme_model, penalty, alpha_n, V, seed=0):
    """The trend model's penalized stage by Nelder-Mead.

    The search ``fit_ns_glme`` ran before it used the exact Jacobian: the
    seeded Nelder-Mead over ``(mu0, log sigma0, xi)`` from the L-moment fit
    ``lme_model``, whose slopes stay fixed, on the objective
    ``0.5 r' V^-1 r + alpha_n * (-ln p(xi)) + C``.  ``penalty`` must already
    be built.  Returns ``(theta, objective value)``; the value is at least
    SENTINEL when the simplex never left a zero-weight plateau.
    """
    from glme._optim import nelder_mead
    from glme.penalties import SENTINEL

    z = np.asarray(z, dtype=float)
    _, evaluate = _ns_system(z, lme_model.covariates, lme_model.mu_coef, lme_model.sigma_coef)
    const = 1.5 * math.log(2.0 * math.pi) + 0.5 * V.log_det

    def objective(theta):
        out = evaluate(theta)
        if out is None:
            return SENTINEL
        r = out[0]
        val = 0.5 * float(r @ V.solve(r)) + alpha_n * penalty.neg_log(theta[2]) + const
        return val if math.isfinite(val) else SENTINEL

    theta0 = np.array([lme_model.mu_coef[0], lme_model.sigma_coef[0], lme_model.xi])
    scale = np.array([0.1 * abs(theta0[0]) + 1.0, 0.1 * abs(theta0[1]) + 0.05, 0.05])
    res = nelder_mead(objective, theta0, scale, seed=seed)
    return res.x, res.fun
