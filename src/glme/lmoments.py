"""Sample and population L-moments, their sampling covariance, and the
generalized L-moment distance.

Sample L-moments are the direct unbiased estimators, computed through
probability-weighted moments of the order statistics in O(n log n).  Two
estimators of the covariance matrix of the first three sample L-moments
of a data sample are provided: the nonparametric bootstrap (the default),
computed exactly as its limit over infinitely many resamples, and the
distribution-free unbiased closed form, which falls back to the bootstrap
on the rare samples where it is not positive definite.  Near-singular
estimates are ridge-regularized so the quadratic distance below is always
well defined.  For standard Gumbel samples, which the trend model's
objective uses, the covariance is known exactly for every sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, SampleSizeError
from .gev import XI_EPS, GevParams

__all__ = [
    "COV_MIN_N",
    "EULER_GAMMA",
    "GUMBEL_LMOMENTS",
    "LMomentTriple",
    "CovMatrix3",
    "sample_lmoments",
    "gev_population_lmoments",
    "gumbel_population_lmoments",
    "lmoment_cov",
    "gumbel_lmoment_cov",
    "gld",
]

EULER_GAMMA = 0.5772156649015329
_LOG2 = math.log(2.0)
_LOG3 = math.log(3.0)

# the smallest sample whose L-moment covariance is estimated
COV_MIN_N = 10

# First three L-moments of the standard Gumbel distribution:
# (gamma, log 2, 2*log 3 - 3*log 2)
GUMBEL_LMOMENTS = (EULER_GAMMA, _LOG2, 2.0 * _LOG3 - 3.0 * _LOG2)

# (l1, l2, l3) = _PWM_TO_LMOMENTS @ (b0, b1, b2)
_PWM_TO_LMOMENTS = np.array([[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0], [1.0, -6.0, 6.0]])

# For k <= m, _GUMBEL_PWM_ZETA[k, m][c - 1] = Cov(M_a, M_b) / (a b), where
# M_a and M_b are the maxima of a = k + 1 and b = m + 1 standard Gumbel
# variables that share c of them.  By Hoeffding's covariance identity,
# Cov(M_a, M_b) = Li2(-(b-c)/a) - Li2(-b/a) + Li2(-(a-c)/b) - Li2(-a/b)
# (Li2 the dilogarithm); the values are those sums to double precision.
_GUMBEL_PWM_ZETA = {
    (0, 0): (1.6449340668482264,),  # pi^2/6
    (0, 1): (0.5313467701916069,),
    (0, 2): (0.27055406012361216,),
    (1, 1): (0.1870264132502335, 0.4112335167120566),  # c = 2: pi^2/24
    (1, 2): (0.09927248064714791, 0.21312013947852715),
    (2, 2): (0.05393614444552774, 0.11409642376362328, 0.18277045187202515),  # c = 3: pi^2/54
}


@dataclass(frozen=True)
class LMomentTriple:
    """First three L-moments; ``l4`` is populated only when requested."""

    l1: float
    l2: float
    l3: float
    l4: float | None = None

    def as_array(self) -> np.ndarray:
        return np.array([self.l1, self.l2, self.l3])

    @property
    def t3(self) -> float:
        """L-skewness l3/l2."""
        return self.l3 / self.l2


def _pwm_from_sorted(xs: np.ndarray, nmom: int) -> list[np.ndarray]:
    """Probability-weighted moments b_0..b_{nmom-1} of sorted rows.

    ``xs`` is sorted along the last axis; returns one array per moment with
    the row shape of ``xs``.
    """
    n = xs.shape[-1]
    i = np.arange(1, n + 1, dtype=float)
    out = [xs.mean(axis=-1)]
    w = np.ones(n)
    for r in range(1, nmom):
        w = w * (i - r) / (n - r)
        out.append(xs @ w / n)
    return out


def _lmoment_weights(n: int) -> np.ndarray:
    """The 3 x n matrix ``W`` with ``(l1, l2, l3) = W @ xs`` for a sorted sample
    ``xs`` of size n >= 3: the probability-weighted-moment weights of
    :func:`_pwm_from_sorted` combined into L-moments."""
    i = np.arange(n, dtype=float)
    w1 = i / (n - 1)
    pwm = np.array([np.ones(n), w1, w1 * (i - 1) / (n - 2)]) / n
    return _PWM_TO_LMOMENTS @ pwm


def _lmoments_from_sorted(xs: np.ndarray, order: int) -> np.ndarray:
    """Stack of l_1..l_order for sorted rows ``xs`` (last axis is the sample)."""
    b = _pwm_from_sorted(xs, order)
    cols = [b[0]]
    if order >= 2:
        cols.append(2 * b[1] - b[0])
    if order >= 3:
        cols.append(6 * b[2] - 6 * b[1] + b[0])
    if order >= 4:
        cols.append(20 * b[3] - 30 * b[2] + 12 * b[1] - b[0])
    return np.stack(cols, axis=-1)


def sample_lmoments(x, order: int = 3) -> LMomentTriple:
    """Unbiased sample L-moments of a univariate sample.

    Parameters
    ----------
    x : array_like
        Sample values, all finite.
    order : int
        3 (default) or 4; 4 additionally fills ``l4`` for diagnostics.
    """
    if order not in (3, 4):
        raise ValueError(f"order must be 3 or 4, got {order}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("x must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if arr.size < order:
        raise ValueError(f"need at least {order} values, got {arr.size}")
    lm = _lmoments_from_sorted(np.sort(arr), order)
    if order == 4:
        return LMomentTriple(float(lm[0]), float(lm[1]), float(lm[2]), float(lm[3]))
    return LMomentTriple(float(lm[0]), float(lm[1]), float(lm[2]))


def _lmoment_coefs(xi: float) -> tuple[float, float, float]:
    """Scale coefficients ``(a1, a2, a3)`` of the GEV L-moments at one shape.

    For fixed shape the first three L-moments are linear in location and
    scale: ``lambda = mu * (1, 0, 0) + sigma * (a1, a2, a3)`` (Hosking 1990),
    with ``a1 = (1 - g)/xi``, ``a2 = (1 - 2**-xi) g/xi``, ``a3 = tau3 * a2``
    and ``g = Gamma(1 + xi)``; shapes with ``|xi| < XI_EPS`` take the Gumbel
    limit.  ``xi`` is a float above -1; math.gamma and plain float
    arithmetic, with no array overhead.
    """
    if abs(xi) < XI_EPS:
        return GUMBEL_LMOMENTS
    g = math.gamma(1.0 + xi)
    e2 = math.expm1(-xi * _LOG2)
    a2 = -e2 * g / xi
    tau3 = 2.0 * math.expm1(-xi * _LOG3) / e2 - 3.0
    return (1.0 - g) / xi, a2, tau3 * a2


def gev_population_lmoments(params: GevParams) -> LMomentTriple:
    """Population L-moments of a GEV distribution (exist for xi > -1)."""
    mu, sigma, xi = params.as_tuple()
    if xi <= -1:
        raise ValueError(f"population L-moments require xi > -1, got {xi}")
    a1, a2, a3 = _lmoment_coefs(xi)
    return LMomentTriple(mu + sigma * a1, sigma * a2, sigma * a3)


def gumbel_population_lmoments() -> LMomentTriple:
    """L-moments of the standard Gumbel distribution (GEV with mu=0, sigma=1, xi=0)."""
    return LMomentTriple(*GUMBEL_LMOMENTS)


@dataclass
class CovMatrix3:
    """3x3 covariance of sample L-moments with its factorization cached.

    ``source`` records how the matrix was obtained: "bootstrap", "exact",
    or "regularized" (a ridge was applied to a near-singular estimate).
    """

    entries: np.ndarray
    source: str
    _chol: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        if self.entries.shape != (3, 3):
            raise ValueError("covariance must be 3x3")
        atol = 1e-12 * np.abs(self.entries).max()  # relative to the matrix's size
        if not np.allclose(self.entries, self.entries.T, atol=atol):
            raise ValueError("covariance must be symmetric")

    def _factor(self) -> np.ndarray:
        """The lower Cholesky factor ``L`` of ``V = L L'``."""
        if self._chol is None:
            self._chol = np.linalg.cholesky(self.entries)
        return self._chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``V^{-1} rhs``: :meth:`whiten`, then back substitution through ``L'``."""
        c = self._factor()
        out = self.whiten(rhs)
        for i in (2, 1, 0):
            out[i] = (out[i] - c[i + 1:, i] @ out[i + 1:]) / c[i, i]
        return out

    def whiten(self, rhs: np.ndarray) -> np.ndarray:
        """``L^{-1} rhs`` for the Cholesky factor ``V = L L'``, so that
        ``r' V^{-1} r`` is the squared norm of ``whiten(r)``.

        Forward substitution over the three rows; ``rhs`` has shape (3,) or
        (3, k).
        """
        c = self._factor()
        out = np.array(rhs, dtype=float)
        for i in range(3):
            out[i] = (out[i] - c[i, :i] @ out[:i]) / c[i, i]
        return out

    @property
    def log_det(self) -> float:
        c = self._factor()
        return float(2.0 * np.sum(np.log(np.diag(c))))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def _regularize(v: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """Ridge a near-singular covariance estimate.

    Adds ``delta * I`` with ``delta = 1e-8 * trace/3`` whenever the smallest
    eigenvalue is below ``1e-10 * trace/3``.  Returns the matrix, whether it
    was ridged, and its smallest eigenvalue (recomputed after a ridge).
    """
    scale = np.trace(v) / 3.0
    smallest = np.linalg.eigvalsh(v)[0]
    if smallest < 1e-10 * scale:
        v = v + (1e-8 * scale) * np.eye(3)
        return v, True, np.linalg.eigvalsh(v)[0]
    return v, False, smallest


def _exact_cov_matrix(xs: np.ndarray) -> np.ndarray:
    """Distribution-free unbiased estimate of Cov(l_r, l_s), r, s <= 3.

    L-moments are linear in the probability-weighted moments b_k, and an
    unbiased estimator of Cov(b_k, b_m) is ``b_k*b_m - theta_km`` where
    theta_km estimates the product of the population moments through a
    U-statistic over pairs of distinct order statistics:

        theta_km = sum_{i<j} x_(i) x_(j) [ (i-1)_k (j-2-k)_m
                                         + (i-1)_m (j-2-m)_k ] / (n)_{k+m+2}

    with (a)_b the falling factorial, 0 when a < b: one cumulative sum and
    one stacked matrix product.  The estimate does not change when the
    sample is shifted, so it is computed on the centred sample, where
    ``b_k*b_m - theta_km`` cancels least.  The result is unbiased but not
    guaranteed positive definite in finite samples.
    """
    n = xs.size
    xs = xs - xs.mean()
    # fall[b, s, r] = (r - s)_b for ranks r = i - 1 = 0..n-1: a product of
    # factors clipped at 0, which vanishes when r - s < b
    shifted = np.maximum(np.arange(n, dtype=float) - np.arange(4.0)[:, None], 0.0)
    fall = np.stack([np.ones_like(shifted), shifted, shifted * np.maximum(shifted - 1.0, 0.0)])
    f = fall[:, 0] * xs  # f[k, i] = (i-1)_k x_(i)
    below = np.zeros_like(f)
    np.cumsum(f[:, :-1], axis=1, out=below[:, 1:])  # below[k, j] = sum_{i<j} f[k, i]
    # pair[k, m] = sum_j (j-2-k)_m x_(j) below[k, j]
    pair = (fall[:, 1:].transpose(1, 0, 2) @ (below * xs)[:, :, None])[..., 0]
    scale = np.array([[math.perm(n, k + m + 2) for m in range(3)] for k in range(3)], dtype=float)
    b = np.array(_pwm_from_sorted(xs, 3))
    cov_b = np.outer(b, b) - (pair + pair.T) / scale
    v = _PWM_TO_LMOMENTS @ cov_b @ _PWM_TO_LMOMENTS.T
    return (v + v.T) / 2.0


def _bootstrap_pwm_zeta(xs: np.ndarray) -> dict:
    """The counterpart of ``_GUMBEL_PWM_ZETA`` under the empirical
    distribution F_n of the sorted sample ``xs``.

    F_n is p_i = i/n on the gap d_i = x_(i+1) - x_(i), so by Hoeffding's
    identity the maxima of a and b draws from F_n that share c of them have
    Cov(M_a, M_b) = sum_{i<=j} d_i d_j p_i^a p_j^(b-c)
    + sum_{j<i} d_i d_j p_i^(a-c) p_j^b - (sum_i d_i p_i^a)(sum_j d_j p_j^b),
    whose double sums are cumulative sums: O(n) in all.
    """
    n = xs.size
    w = np.diff(xs) * (np.arange(1, n) / n) ** np.arange(4)[:, None]  # w[e, i] = d_i p_i^e
    cum = np.zeros((3, n))
    np.cumsum(w[1:], axis=1, out=cum[:, 1:])  # cum[a-1, j] = sum_{i<j} d_i p_i^a
    upto = (w @ cum[:, 1:].T).tolist()  # upto[e][a-1] = sum_{i<=j} d_i p_i^a d_j p_j^e
    before = (w @ cum[:, :-1].T).tolist()  # before[e][b-1] = sum_{j<i} d_j p_j^b d_i p_i^e
    total = cum[:, -1].tolist()
    return {(k, m): tuple((upto[m + 1 - c][k] + before[k + 1 - c][m] - total[k] * total[m])
                          / ((k + 1) * (m + 1)) for c in range(1, k + 2))
            for k, m in _GUMBEL_PWM_ZETA}


def _pwm_u_statistic_cov(n: int, zeta: dict) -> np.ndarray:
    """Covariance of the first three sample L-moments of n iid draws.

    The sample PWM ``b_k`` is a U-statistic of degree ``a = k + 1`` with
    kernel ``max(X_1..X_a) / a``, so Hoeffding's (1948) covariance of
    U-statistics gives, for ``a <= b = m + 1``, ``Cov(b_k, b_m) = sum_{c=1..a}
    C(b, c) C(n-b, a-c) / C(n, a) * zeta[k, m][c - 1]``, where ``zeta[k, m][c - 1]``
    is ``Cov(M_a, M_b) / (a b)`` for maxima of a and b draws that share c.
    The L-moment covariance is ``A Cov(b) A'`` (Elamir & Seheult 2004).
    """
    cov_b = np.empty((3, 3))
    for (k, m), z in zeta.items():
        a, b = k + 1, m + 1
        total = sum(math.comb(b, c) * math.comb(n - b, a - c) * zc for c, zc in enumerate(z, 1))
        cov_b[k, m] = cov_b[m, k] = total / math.comb(n, a)
    v = _PWM_TO_LMOMENTS @ cov_b @ _PWM_TO_LMOMENTS.T
    return (v + v.T) / 2.0


def lmoment_cov(x, method: str = "bootstrap") -> CovMatrix3:
    """Covariance matrix of the first three sample L-moments.

    ``method="bootstrap"`` (default): the covariance of the L-moments of a
    resample drawn with replacement from ``x``, computed exactly (the limit
    of a Monte Carlo bootstrap as the number of resamples grows; Hutson &
    Ernst 2000), so it is deterministic and carries no resampling noise.
    ``method="exact"``: the closed-form unbiased estimator; on the rare
    samples where it is not positive definite the bootstrap is used
    instead.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < COV_MIN_N:
        raise SampleSizeError(
            f"need at least {COV_MIN_N} values to estimate the covariance, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.ptp(arr) == 0:
        raise DegenerateDataError("all sample values are equal; covariance is degenerate")
    if method not in ("bootstrap", "exact"):
        raise ValueError(f"unknown covariance method {method!r}")

    xs = np.sort(arr)
    if method == "exact":
        v = _exact_cov_matrix(xs)
        if np.linalg.eigvalsh(v)[0] > 1e-10 * np.trace(v) / 3.0:
            return CovMatrix3(v, "exact")
        # fall through to the bootstrap when the unbiased estimate is
        # numerically singular or indefinite

    v, ridged, smallest = _regularize(_pwm_u_statistic_cov(n, _bootstrap_pwm_zeta(xs)))
    cov = CovMatrix3(v, "regularized" if ridged else "bootstrap")
    if smallest <= 0:
        raise DegenerateDataError("covariance of bootstrap L-moments is not positive definite")
    return cov


def gumbel_lmoment_cov(n: int) -> CovMatrix3:
    """Exact covariance of the first three sample L-moments of a standard
    Gumbel sample of size n.

    Parameter-free, so it is held fixed while a transformed sample is fitted
    toward the Gumbel L-moments: :func:`_pwm_u_statistic_cov` of the
    constants ``_GUMBEL_PWM_ZETA``.
    """
    if n < COV_MIN_N:
        raise SampleSizeError(f"need n >= {COV_MIN_N}, got {n}")
    return CovMatrix3(_pwm_u_statistic_cov(n, _GUMBEL_PWM_ZETA), "exact")


def gld(lam: LMomentTriple, l: LMomentTriple, V: CovMatrix3) -> float:
    """Generalized L-moment distance (lam - l)' V^{-1} (lam - l).

    The squared norm of the residual whitened by the cached Cholesky factor
    of ``V``; the matrix is never inverted explicitly.
    """
    e = V.whiten(lam.as_array() - l.as_array())
    return float(e @ e)
