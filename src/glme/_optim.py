"""Derivative-free minimizers.

* ``brent``: bounded scalar search (golden section with parabolic steps),
  for ``fit_glme``'s one-dimensional shape search.
* ``nelder_mead``: seeded simplex search with jittered restarts.  No fit
  calls it any more: the likelihood fits and the trend model's final stage
  take Newton-type steps on exact derivatives.  It stays as the search of
  the reference fits in ``tests/_oracles.py``, and the estimator modules
  keep the name imported for the benchmark's trace hook.

Both are deterministic (``nelder_mead`` given its seed) and accept
objectives that score infeasible points with a large finite sentinel
rather than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptimResult", "brent", "nelder_mead"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


@dataclass
class OptimResult:
    x: np.ndarray  # a float for the scalar ``brent``
    fun: float
    n_eval: int
    converged: bool


def _diameter(simplex: np.ndarray, best: np.ndarray) -> float:
    """Largest coordinate spread of the simplex, relative to the best vertex."""
    spread = simplex.max(axis=0) - simplex.min(axis=0)
    return float(np.max(spread / (1.0 + np.abs(best))))


def _run(fn, x0, scale, tol, max_evals, f_target):
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    for j in range(dim):
        simplex[j + 1, j] += scale[j]
    values = np.array([fn(v) for v in simplex])
    n_eval = dim + 1

    while n_eval < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        if f_target is not None and values[0] <= f_target:
            return OptimResult(simplex[0], values[0], n_eval, True)
        if _diameter(simplex, simplex[0]) < tol:
            return OptimResult(simplex[0], values[0], n_eval, True)

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]

        reflected = centroid + (centroid - worst)
        f_r = fn(reflected)
        n_eval += 1
        if values[0] <= f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
            continue

        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = fn(expanded)
            n_eval += 1
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
            continue

        if f_r < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_c = fn(contracted)
            n_eval += 1
            if f_c <= f_r:
                simplex[-1], values[-1] = contracted, f_c
                continue
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = fn(contracted)
            n_eval += 1
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
                continue

        # shrink toward the best vertex
        for i in range(1, dim + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = fn(simplex[i])
        n_eval += dim

    order = np.argsort(values, kind="stable")
    return OptimResult(simplex[order[0]], values[order[0]], n_eval, False)


def nelder_mead(
    fn,
    x0,
    scale,
    tol: float = 1e-8,
    max_evals: int = 5000,
    restarts: int = 3,
    jitter: float = 0.05,
    seed: int = 0,
    f_target: float | None = None,
) -> OptimResult:
    """Minimize ``fn`` from ``x0`` with jittered restarts.

    Parameters
    ----------
    fn : callable
        Objective mapping a 1-D array to a float; may return a large
        sentinel for infeasible points but never raise.
    x0 : array_like
        Starting point.
    scale : array_like
        Per-coordinate edge lengths of the initial simplex.
    tol : float
        Relative simplex-diameter stopping tolerance.
    max_evals : int
        Evaluation budget per restart.
    restarts : int
        Additional runs started from the incumbent best point, displaced
        by ``jitter * scale`` (seeded, hence reproducible).
    f_target : float, optional
        Stop as soon as the best value reaches this level.
    """
    x0 = np.asarray(x0, dtype=float)
    scale = np.broadcast_to(np.asarray(scale, dtype=float), x0.shape).copy()
    if np.any(scale <= 0):
        raise ValueError("simplex scale must be positive")

    best = _run(fn, x0, scale, tol, max_evals, f_target)
    total = best.n_eval
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        if f_target is not None and best.fun <= f_target:
            break
        start = best.x + jitter * scale * rng.uniform(-1.0, 1.0, size=x0.size)
        result = _run(fn, start, scale, tol, max_evals, f_target)
        total += result.n_eval
        if result.fun < best.fun or (result.fun == best.fun and result.converged):
            best = OptimResult(result.x, result.fun, total, result.converged)
    return OptimResult(best.x, best.fun, total, best.converged)


def brent(fn, a: float, b: float, xtol: float = 1e-10, max_evals: int = 100) -> OptimResult:
    """Minimize a scalar function on ``[a, b]`` by Brent's method.

    Golden-section steps with parabolic interpolation (Brent 1973, ch. 5);
    every evaluation lies strictly inside ``(a, b)``.  Stops when the
    bracket around the best point has shrunk to about
    ``2 * (sqrt(eps) * |x| + xtol / 3)`` on each side; ``converged`` is
    False when ``max_evals`` runs out first.  ``fn`` may return a large
    sentinel for infeasible points but never raise.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = fn(x)
    n_eval = 1
    d = e = 0.0
    while n_eval < max_evals:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return OptimResult(x, fx, n_eval, True)
        parabolic = False
        if abs(e) > tol1:
            # vertex of the parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accept only a step inside the bracket and under half the one before last
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        n_eval += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return OptimResult(x, fx, n_eval, False)
