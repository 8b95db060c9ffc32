"""Independent slow oracles the fast library code is checked against.

Everything here evaluates definitions directly (subset enumeration,
adaptive quadrature, bisection, plain Monte Carlo) and deliberately shares no code with the
package internals.  The exceptions are ``likelihood_fit_nelder_mead``,
``glme_fit_nelder_mead``, ``ns_lme_nelder_mead`` and
``ns_glme_nelder_mead``, references for the *searches* of the
(penalized) likelihood fit, of the penalty-weighted L-moment fit and of the
trend model's final stage: they minimize the package's own objectives, by
brute force; ``lmoment_system_reference``, ``nll_terms_reference``,
``newton_steps_reference``, ``gev_lmoment_coefs_reference`` and
``glme_profile_reference``, earlier versions of package functions kept
verbatim so their rewrites can be checked against them, bit for bit or to
a stated tolerance; and ``robust_location_fit_irls``, the robust location
fit by the plain IRLS it used to run, taken to convergence.
"""

import math
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
from scipy.integrate import dblquad, quad


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


def _lmoment_triples(xs):
    """(l1, l2, l3) of each sorted row of ``xs`` from the order statistics'
    PWM weights."""
    n = xs.shape[-1]
    i = np.arange(n, dtype=float)
    b0 = xs.mean(axis=-1)
    b1 = xs @ (i / (n - 1)) / n
    b2 = xs @ (i * (i - 1) / ((n - 1) * (n - 2))) / n
    return np.stack([b0, 2.0 * b1 - b0, 6.0 * b2 - 6.0 * b1 + b0], axis=-1)


def _cov_and_se(triples):
    """Empirical covariance (ddof 1) of the rows of ``triples`` and the
    Monte Carlo standard error of each entry: the standard deviation of
    the centred products over sqrt(B)."""
    B = triples.shape[0]
    d = triples - triples.mean(axis=0)
    products = d[:, :, None] * d[:, None, :]
    return products.sum(axis=0) / (B - 1), products.std(axis=0) / math.sqrt(B)


def gumbel_lmoment_cov_bootstrap(n, B, seed):
    """Covariance of the sample L-moments (l1, l2, l3) of standard Gumbel
    samples of size n by parametric bootstrap, and its Monte Carlo standard
    error, entry by entry: B seeded samples, one L-moment triple each.
    """
    rng = np.random.default_rng(seed)
    u = np.maximum(rng.random((B, n)), 1e-15)
    return _cov_and_se(_lmoment_triples(np.sort(-np.log(-np.log(u)), axis=1)))


def lmoment_cov_bootstrap(x, B, seed):
    """Covariance of the sample L-moments of ``x`` by Monte Carlo bootstrap,
    and its standard error entry by entry: B seeded resamples with
    replacement, one L-moment triple each."""
    x = np.asarray(x, dtype=float)
    idx = np.random.default_rng(seed).integers(0, x.size, size=(B, x.size))
    return _cov_and_se(_lmoment_triples(np.sort(x[idx], axis=1)))


def lmoment_cov_enumerated(x):
    """The bootstrap covariance of the sample L-moments of ``x`` over every
    one of the n**n equally likely resamples, enumerated as the multisets of
    indices weighted by their multinomial counts."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    rows, weights = [], []
    for multiset in combinations_with_replacement(range(n), n):
        rows.append(x[list(multiset)])
        counts = np.bincount(multiset, minlength=n)
        weights.append(math.factorial(n) / math.prod(math.factorial(c) for c in counts))
    t = _lmoment_triples(np.array(rows))
    w = np.array(weights) / n ** n
    d = t - w @ t
    return (w[:, None] * d).T @ d


def exact_cov_matrix_loops(xs):
    """The distribution-free unbiased L-moment covariance of a sorted
    sample, one falling-factorial loop per pair sum (see
    ``glme.lmoments._exact_cov_matrix`` for the formula)."""
    n = xs.size
    i = np.arange(1, n + 1)

    def falling(a, b):
        a = np.asarray(a, dtype=float)
        out = np.ones_like(a)
        if b == 0:
            return out
        for t in range(b):
            out = out * (a - t)
        out[a < b] = 0.0
        return out

    def pair_sum(k, m):
        f = falling(i - 1, k) * xs
        g = falling(i - 2 - k, m) * xs
        below = np.concatenate(([0.0], np.cumsum(f)[:-1]))
        return float(np.sum(g * below))

    b = [xs @ falling(i - 1, k) / (n * math.perm(n - 1, k)) for k in range(3)]
    cov_b = np.empty((3, 3))
    for k in range(3):
        for m in range(k, 3):
            scale = 1.0
            for t in range(k + m + 2):
                scale *= n - t
            theta = (pair_sum(k, m) + pair_sum(m, k)) / scale
            cov_b[k, m] = cov_b[m, k] = b[k] * b[m] - theta
    A = np.array([[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0], [1.0, -6.0, 6.0]])
    v = A @ cov_b @ A.T
    return (v + v.T) / 2.0


def gumbel_max_cov_quadrature(a, b, c, eps=1e-12):
    """Cov(M_a, M_b) for the maxima of a and b standard Gumbel variables
    that share c of them, by 2-D quadrature of Hoeffding's identity
    ``Cov = int int P(M_a <= x, M_b <= y) - P(M_a <= x) P(M_b <= y) dx dy``.

    In the uniform coordinates ``u = G(x)``, ``v = G(y)`` of the Gumbel CDF
    ``G`` the joint CDF is ``min(u, v)^c u^(a-c) v^(b-c)`` and
    ``dx = du / (-u log u)``; the integral is split at the kink u = v.
    """
    def integrand(v, u):
        joint = min(u, v) ** c * u ** (a - c) * v ** (b - c)
        return (joint - u ** a * v ** b) / (u * math.log(u) * v * math.log(v))

    below, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda u: u, epsabs=eps, epsrel=10 * eps)
    above, _ = dblquad(integrand, 0.0, 1.0, lambda u: u, 1.0, epsabs=eps, epsrel=10 * eps)
    return below + above


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


def likelihood_fit_nelder_mead(x, penalty, init=None, seed=0):
    """(Penalized) likelihood fit by 3-D Nelder-Mead over (mu, sigma, xi).

    The search ``fit_mle``/``fit_gmle`` ran before they took Newton steps
    on the exact derivatives: from ``init`` or else the package's default
    start (without its feasibility repair), moved to the penalty's mode
    when the penalty gives the start shape zero weight, with the package's
    seeded jittered restarts, on the same objective and shape box.
    ``penalty`` must already be built.  Returns ``(params array, objective
    value)``; the value is at least SENTINEL when the simplex never left the
    infeasible region.
    """
    from glme._optim import nelder_mead
    from glme.estimators import _XI_HI, _XI_LO, _default_init, gev_neg_loglik
    from glme.gev import GevParams
    from glme.penalties import SENTINEL

    x = np.asarray(x, dtype=float)
    start = init if init is not None else _default_init(x)
    if penalty.neg_log(start.xi) >= SENTINEL:
        start = GevParams(start.mu, start.sigma, penalty.mode)

    def objective(theta):
        mu, sigma, xi = theta
        if not _XI_LO < xi < _XI_HI:
            return SENTINEL
        neg_log = penalty.neg_log(xi)
        nll = gev_neg_loglik(x, mu, sigma, xi)
        if neg_log >= SENTINEL or nll >= SENTINEL:
            return SENTINEL
        value = nll + neg_log
        return value if math.isfinite(value) else SENTINEL

    scale = [0.1 * abs(start.mu) + 1.0, 0.1 * start.sigma, 0.05]
    res = nelder_mead(objective, start.as_tuple(), scale, seed=seed)
    return res.x, res.fun


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

    def quiet(theta):
        # the package's solvers evaluate under the same errstate
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return evaluate(theta)

    return cov, quiet


def ns_lme_nelder_mead(z, X, location_method="tukey", seed=0):
    """The trend model's L-moment matching stage by Nelder-Mead.

    The search ``fit_ns_lme`` ran before it used the exact Jacobian, from
    the package's one start (location intercept, log-scale regression
    intercept, shape 0): the seeded Nelder-Mead on the squared residual
    norm, then finite-difference Newton steps.  Slopes come from the
    package's regression stages.  Returns ``(theta, residual norm)`` with
    ``theta = (mu0, log sigma0, xi)``.
    """
    from glme._optim import nelder_mead
    from glme.nonstationary import _stages
    from glme.penalties import SENTINEL

    z = np.asarray(z, dtype=float)
    mu_coef, scale_coef, _ = _stages(z, X, location_method)
    _, evaluate = _ns_system(z, X, mu_coef, scale_coef)

    def residual(theta):
        out = evaluate(theta)
        return None if out is None else out[0]

    def objective(theta):
        r = residual(theta)
        return SENTINEL if r is None else float(r @ r)

    theta0 = np.array([mu_coef[0], scale_coef[0], 0.0])
    scale = np.array([0.1 * abs(theta0[0]) + 1.0, 0.1 * abs(theta0[1]) + 0.05, 0.05])
    res = nelder_mead(objective, theta0, scale, seed=seed, f_target=1e-20, tol=1e-10)
    theta, r = _newton_polish(residual, res.x)
    return theta, float(np.linalg.norm(r)) if r is not None else math.sqrt(res.fun)


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


def lmoment_system_reference(z, cov, mu_slopes, sig_slopes):
    """``glme.nonstationary._lmoment_system`` as it stood before its
    evaluation was streamlined, kept verbatim as a bitwise reference: the
    same ``(r, J, kinks)`` or None, with ``kinks`` an array."""
    from glme.errors import TransformError
    from glme.estimators import _XI_HI, _XI_LO
    from glme.gev import XI_EPS, _reduced_variate
    from glme.lmoments import _lmoment_weights, gumbel_population_lmoments

    gumbel_lambda = gumbel_population_lmoments().as_array()

    def to_gumbel(d, sigma, xi):
        w = d / sigma
        zt, u = _reduced_variate(w, xi)
        bad = np.flatnonzero(u <= 0)
        if bad.size:
            raise TransformError(
                f"observation {bad[0]} outside the support implied by the parameters",
                index=int(bad[0]),
            )
        return zt, w, u

    d = z - cov @ mu_slopes
    log_scale = cov @ sig_slopes
    weights = _lmoment_weights(z.size)

    def evaluate(theta):
        mu0, sig0, xi = theta
        if not _XI_LO < xi < _XI_HI:
            return None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sigma = np.exp(sig0 + log_scale)
            try:
                zt, w, u = to_gumbel(d - mu0, sigma, xi)
            except TransformError:
                return None
            dxi = 0.5 * w * w if abs(xi) < XI_EPS else (w / u - zt) / xi
            order = np.argsort(zt)
            columns = np.column_stack([zt, -1.0 / (sigma * u), -w / u, dxi])
            out = weights @ columns[order]
            if not np.all(np.isfinite(out)):
                return None
            kinks = np.diff(w[order]) / np.diff(1.0 / sigma[order])
        return out[:, 0] - gumbel_lambda, out[:, 1:], kinks

    return evaluate


def robust_location_fit_irls(z, X):
    """The ``tukey`` fit of ``glme.nonstationary.robust_location_fit`` by
    plain iteratively reweighted least squares, run to convergence: its
    earlier IRLS loop, with each step solved for the change of the
    coefficients, and the stop at 1e-10 of the coefficients' size within 50
    steps replaced by one at 1e-14 of the scale in the fitted values within
    10000 steps.  Returns ``(coef, scale)``, ``scale`` the bisquare fit's
    MAD scale, or 0 where the least-squares fit is taken as exact."""
    from glme.nonstationary import _design_matrix

    z = np.asarray(z, dtype=float)
    design = _design_matrix(X, z.size)
    coef = np.linalg.lstsq(design, z, rcond=None)[0]
    resid = z - design @ coef
    scale = 1.4826 * np.median(np.abs(resid - np.median(resid)))
    if scale <= 1e-12 * max(1.0, float(np.median(np.abs(z)))):
        return coef, 0.0
    for _ in range(10000):
        u = resid / (4.685 * scale)
        w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)
        if np.count_nonzero(w) <= design.shape[1]:
            break
        wd = design * w[:, None]
        step = np.linalg.solve(design.T @ wd, wd.T @ resid)
        coef = coef + step
        change = design @ step
        resid = resid - change
        if np.max(np.abs(change)) <= 1e-14 * scale:
            break
    return coef, scale


# the series of the reduced variate's shape derivatives in t = xi z: where
# it replaces the closed forms, and the coefficients of its first 20 terms
_SERIES_T = 0.1
_SERIES_K = np.arange(20.0)
_SERIES_COEFS = np.column_stack([
    (_SERIES_K + 1.0) / (_SERIES_K + 2.0),
    (_SERIES_K + 1.0) * (_SERIES_K + 2.0) / (_SERIES_K + 3.0),
])


def _shape_derivatives_reference(z, u, y, xi):
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


def nll_terms_reference(x, mu, sigma, xi):
    """``glme.estimators._nll_terms`` (with ``_shape_derivatives``) as it
    stood before its reductions were fused, kept verbatim: the negative
    log-likelihood with its gradient and Hessian in (mu, sigma, xi), or
    None outside the support or where any of them is not finite."""
    from glme.estimators import _nll_value

    nll = _nll_value(x, mu, sigma, xi)
    if nll is None:
        return None
    value, z, u, y, e = nll
    n = x.size
    y1, y2 = _shape_derivatives_reference(z, u, y, xi)
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


def newton_steps_reference(grad, hess):
    """``_newton_steps`` (now ``glme._optim._newton_steps``) as it stood
    in ``glme.estimators`` before its solves moved to scalar floats, kept
    verbatim: ``step(damping, last=None)``,
    the damped Newton step in coordinates scaled to a unit-diagonal
    Hessian, solved by ``eigvalsh`` and ``solve``."""
    pd_tol, lift = 1e-12, 1e-3
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0] = 1.0
    scaled = hess / np.outer(d, d)
    g = grad / d

    def solve(matrix, rhs, damping):
        matrix = matrix + damping * np.eye(rhs.size)
        low = np.linalg.eigvalsh(matrix)[0]
        if low <= pd_tol:
            matrix += (max(lift, -low) - low) * np.eye(rhs.size)
        return np.linalg.solve(matrix, rhs)

    def step(damping, last=None):
        if last is None:
            return -solve(scaled, g, damping) / d
        fixed = last * d[-1]
        rest = -solve(scaled[:-1, :-1], g[:-1] + scaled[:-1, -1] * fixed, damping)
        return np.append(rest, fixed) / d

    return step


def gev_lmoment_coefs_reference(xi) -> np.ndarray:
    """``glme.lmoments.gev_lmoment_coefs`` as it stood before the GLME
    profile moved to scalar floats, kept verbatim: the coefficients
    ``(a1, a2, a3)`` of ``_lmoment_coefs``, one row per shape."""
    from glme.lmoments import _lmoment_coefs

    xi = np.asarray(xi, dtype=float)
    return np.array([_lmoment_coefs(x) for x in xi.ravel().tolist()]).reshape(*xi.shape, 3)


def glme_profile_reference(l, V, const, penalty, alpha_n):
    """``glme.estimators._glme_profile`` as it stood before it moved to
    scalar floats, kept verbatim: ``profile(xi) -> (mu, sigma, value)`` for
    an array of shapes, with a zero penalty weight adding
    ``alpha_n * SENTINEL``."""
    from glme.estimators import _XI_HI, _XI_LO
    from glme.penalties import SENTINEL

    L_inv = V.whiten(np.eye(3))
    u = L_inv[:, 0]
    b = L_inv @ l.as_array()
    uu = u @ u
    ub = u @ b
    b_perp = b - (ub / uu) * u

    def profile(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        inside = (_XI_LO < xi) & (xi < _XI_HI)
        v = L_inv @ gev_lmoment_coefs_reference(np.where(inside, xi, 0.0)).T
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
