"""Mann-Kendall monotone trend test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TrendResult", "mann_kendall"]


@dataclass(frozen=True)
class TrendResult:
    tau: float
    p_value: float
    s: float
    var_s: float
    z: float
    n: int


def mann_kendall(x) -> TrendResult:
    """Kendall's tau of the values against their time order.

    Two-sided p-value from the normal approximation with tie and
    continuity corrections; requires at least 8 observations for the
    approximation to be usable.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.size
    if n < 8:
        raise ValueError(f"trend test needs at least 8 observations, got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")

    sign = np.sign(arr[None, :] - arr[:, None])
    s = float(np.sum(np.triu(sign, k=1)))

    # the sizes of the groups of equal values, from the changes of a sort
    # (as np.unique counts them, without loading numpy.ma)
    ordered = np.sort(arr)
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    counts = np.diff(starts)
    ties = counts[counts > 1]
    var_s = (n * (n - 1) * (2 * n + 5) - np.sum(ties * (ties - 1) * (2 * ties + 5))) / 18.0

    if s == 0:
        z = 0.0
    else:
        z = (s - math.copysign(1.0, s)) / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))

    # tie-corrected tau (time order carries no ties)
    d0 = n * (n - 1) / 2.0
    d1 = float(np.sum(ties * (ties - 1) / 2.0))
    tau = s / math.sqrt((d0 - d1) * d0)
    return TrendResult(tau, p, s, float(var_s), z, n)
