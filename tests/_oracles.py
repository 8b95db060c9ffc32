"""Independent slow oracles the fast library code is checked against.

Everything here evaluates definitions directly (subset enumeration,
adaptive quadrature, bisection) and deliberately shares no code with the
package internals.  The one exception is ``glme_fit_nelder_mead``, a
reference for the *search* of the penalty-weighted L-moment fit: it
minimizes the package's own objective, by brute force.
"""

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
