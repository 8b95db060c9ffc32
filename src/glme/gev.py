"""Generalized extreme value distribution: density, CDF, quantiles, sampling.

The shape parameter follows the Hosking sign convention throughout this
package: the distribution is heavy-tailed for ``xi < 0``, reduces to the
Gumbel distribution as ``xi -> 0``, and has a bounded upper tail for
``xi > 0``.  Density and CDF are

    f(x) = (1/sigma) * u**(1/xi - 1) * exp(-u**(1/xi)),   u = 1 - xi*(x - mu)/sigma
    F(x) = exp(-u**(1/xi)),

defined where ``u > 0``, and computed as ``F = exp(-exp(-y))`` through the
reduced variate ``y = -log(u)/xi``.  Outside the support the density is 0
and the CDF clamps to 0 or 1 according to the sign of ``xi``, so
likelihood code can treat support violations smoothly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# loaded here, once, rather than lazily on the first default_rng call
# (_sample), so a forked worker does not pay for it
from numpy.random import default_rng

__all__ = [
    "XI_EPS",
    "GevParams",
    "ReturnSpec",
    "gev_pdf",
    "gev_cdf",
    "gev_quantile",
    "gev_sample",
    "gev_support",
    "return_level",
]

# Below this |xi| three formulas take their Gumbel limits, as their xi != 0
# forms cancel near 0: the quantile (1 - y**xi)/xi behind the sampler; the
# L-moment coefficients (1 - Gamma(1 + xi))/xi, with the L-skewness and its
# inverse; and the trend Jacobian's shape column (w/u - zt)/xi, 0/0 at 0.
# The reduced variate keeps its precision through log1p and switches only
# at xi == 0.
XI_EPS = 1e-6


@dataclass(frozen=True)
class GevParams:
    """Location, scale and shape of a GEV distribution.

    Heavy tail for ``xi < 0`` (Hosking convention).  Estimators in this
    package constrain fitted ``xi`` to (-1, 1); the distribution itself is
    evaluable for any finite shape.
    """

    mu: float
    sigma: float
    xi: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and math.isfinite(self.xi)):
            raise ValueError("GEV parameters must be finite")
        if self.sigma <= 0:
            raise ValueError(f"scale must be positive, got {self.sigma}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mu, self.sigma, self.xi)


@dataclass(frozen=True)
class ReturnSpec:
    """A return period ``T`` (years) with its Gumbel variate ``y``.

    ``y = -log(1 - 1/T)`` is always derived from ``T``, never stored.
    """

    T: float

    def __post_init__(self):
        if not math.isfinite(self.T) or self.T <= 1:
            raise ValueError(f"return period must be > 1, got {self.T}")

    @property
    def y(self) -> float:
        return -math.log1p(-1.0 / self.T)


def _check_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    return arr


def _maybe_scalar(arr: np.ndarray, scalar_in: bool):
    return float(arr[0]) if scalar_in else arr


def _reduced_variate(z, xi: float, errstate: bool = True):
    """``(y, u)`` for standardized values ``z = (x - mu)/sigma``: ``u = 1 -
    xi z`` and ``y = -log1p(-xi z)/xi`` (``y = z`` at ``xi == 0``).  ``y``
    is not finite where ``u <= 0``, outside the support; each caller decides
    what that means.  The log's divide and invalid warnings are silenced,
    by an ``np.errstate`` of its own unless ``errstate`` is False, for
    callers that already hold one."""
    t = xi * z
    u = 1.0 - t
    if xi == 0.0:
        return z, u
    if not errstate:
        return -np.log1p(-t) / xi, u
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.log1p(-t) / xi, u


def gev_pdf(params: GevParams, x) -> float | np.ndarray:
    """Density of the GEV distribution; 0 outside the support."""
    arr = _check_x(x)
    mu, sigma, xi = params.as_tuple()
    y, u = _reduced_variate((np.atleast_1d(arr) - mu) / sigma, xi)
    out = np.zeros_like(y)
    inside = u > 0
    with np.errstate(over="ignore"):
        # log f = -log sigma - (1 - xi) y - exp(-y)
        out[inside] = np.exp(-(1.0 - xi) * y[inside] - np.exp(-y[inside])) / sigma
    return _maybe_scalar(out, arr.ndim == 0)


def gev_cdf(params: GevParams, x) -> float | np.ndarray:
    """CDF of the GEV distribution, clamped to 0/1 at the support endpoints."""
    arr = _check_x(x)
    mu, sigma, xi = params.as_tuple()
    y, u = _reduced_variate((np.atleast_1d(arr) - mu) / sigma, xi)
    # u <= 0 lies below the lower endpoint when xi < 0 (F = 0) and above the
    # upper endpoint when xi > 0 (F = 1).
    out = np.full_like(y, 0.0 if xi < 0 else 1.0)
    inside = u > 0
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-np.exp(-y[inside]))
    return _maybe_scalar(out, arr.ndim == 0)


def _quantile_from_y(mu, sigma, xi: float, y) -> np.ndarray:
    """Quantile written in terms of y = -log(p); y > 0.

    ``mu`` and ``sigma`` may be arrays broadcasting against ``y`` (one
    location and scale per observation of a trend model).
    """
    y = np.asarray(y, dtype=float)
    if abs(xi) < XI_EPS:
        return mu - sigma * np.log(y)
    # 1 - y**xi computed as -expm1(xi*log(y)) to keep precision near xi = 0
    return mu + sigma / xi * (-np.expm1(xi * np.log(y)))


def gev_quantile(params: GevParams, p) -> float | np.ndarray:
    """Quantile function, the inverse of :func:`gev_cdf` on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0) or np.any(arr >= 1):
        raise ValueError("p must lie in the open interval (0, 1)")
    out = _quantile_from_y(*params.as_tuple(), -np.log(np.atleast_1d(arr)))
    return _maybe_scalar(out, arr.ndim == 0)


def gev_support(params: GevParams) -> tuple[float, float]:
    """Support interval: the whole line at xi == 0, else bounded on one side."""
    mu, sigma, xi = params.as_tuple()
    if xi == 0.0:
        return (-math.inf, math.inf)
    endpoint = mu + sigma / xi
    return (endpoint, math.inf) if xi < 0 else (-math.inf, endpoint)


def gev_sample(params: GevParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values by inverse-CDF sampling; deterministic given seed."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return _sample(*params.as_tuple(), n, seed)


def _sample(mu, sigma, xi: float, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws of ``n`` values; ``mu``/``sigma`` scalars or length-n arrays."""
    rng = default_rng(seed)
    u = np.maximum(rng.random(n), 1e-15)
    return _quantile_from_y(mu, sigma, xi, -np.log(u))


def return_level(params: GevParams, T: float) -> float:
    """T-year return level, the 1 - 1/T quantile.

    Computed as ``mu + sigma/xi * (1 - y**xi)`` with ``y = -log(1 - 1/T)``,
    the form consistent with inverting the CDF above.
    """
    spec = ReturnSpec(float(T))
    return float(_quantile_from_y(*params.as_tuple(), spec.y))
