"""Minimizers.

* ``damped_newton``: damped Newton steps in scalar floats on an exact
  gradient and Hessian (or Gauss-Newton matrix), for the likelihood fits,
  the ``mle``/``gmle`` profile and the trend model's ``fit_ns_glme``.
* ``brent``: bounded scalar search (golden section with parabolic steps),
  for ``fit_glme``'s one-dimensional shape search.
* ``nelder_mead``: seeded simplex search with jittered restarts.  No fit
  calls it; it stays as the search of the reference fits in
  ``tests/_oracles.py``, and the estimator modules keep the name imported
  for the benchmark's trace hook.

All are deterministic.  ``damped_newton`` takes objectives that return
None at infeasible points, the others ones that score them with a large
finite sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptimResult", "brent", "damped_newton", "nelder_mead"]

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# damped_newton: relative-step and decrement tolerances; evaluation cap;
# the smallest eigenvalue (at unit diagonal) taken as positive definite,
# and the least a lower one is lifted to; the damping after a first
# rejected step
_NEWTON_XTOL, _NEWTON_FTOL = 1e-10, 1e-12
_NEWTON_MAX_EVAL = 200
_NEWTON_PD_TOL, _NEWTON_DAMPING = 1e-12, 1e-3
_NEWTON_DAMPING_MIN = 1e-2


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


def _ldl(m, shift: float):
    """``m + shift I = L D L^T`` for a symmetric 2x2 or 3x3 ``m`` (rows as
    lists of floats), in floats: ``(pivots, below)``, the diagonal of ``D``
    and the entries of ``L`` below its diagonal, row by row.  A pivot is
    kept at least ``_NEWTON_PD_TOL``, so one that is not positive leaves
    the factor finite and shows as that floor."""
    if len(m) == 2:
        (a, b), (_, c) = m
        p0 = max(a + shift, _NEWTON_PD_TOL)
        l10 = b / p0
        return [p0, max(c + shift - l10 * b, _NEWTON_PD_TOL)], [l10]
    (a, d, e), (_, b, f), (_, _, c) = m
    p0 = max(a + shift, _NEWTON_PD_TOL)
    l10, l20 = d / p0, e / p0
    p1 = max(b + shift - l10 * d, _NEWTON_PD_TOL)
    l21 = (f - l20 * d) / p1
    return [p0, p1, max(c + shift - l20 * e - l21 * l21 * p1, _NEWTON_PD_TOL)], [l10, l20, l21]


def _ldl_solve(factor, rhs):
    """``x`` with ``L D L^T x = rhs`` for the ``factor`` of :func:`_ldl`."""
    pivots, below = factor
    if len(rhs) == 2:
        y1 = rhs[1] - below[0] * rhs[0]
        x1 = y1 / pivots[1]
        return [rhs[0] / pivots[0] - below[0] * x1, x1]
    l10, l20, l21 = below
    y1 = rhs[1] - l10 * rhs[0]
    x2 = (rhs[2] - l20 * rhs[0] - l21 * y1) / pivots[2]
    x1 = y1 / pivots[1] - l21 * x2
    return [rhs[0] / pivots[0] - l10 * x1 - l20 * x2, x1, x2]


def _newton_steps(grad, hess):
    """Damped Newton steps at one point, in floats, in coordinates scaled
    so that the Hessian has unit diagonal: ``step(damping)`` is
    ``-(H + damping I)^-1 g``, and ``step(damping, last)`` fixes the step's
    last component at ``last`` and takes the rest of that step given it.
    ``grad`` and ``hess`` are a list and a list of rows, of size 2 or 3.
    Where the matrix solved with is not positive definite (its smallest
    eigenvalue at most ``_NEWTON_PD_TOL``), that eigenvalue is first lifted
    to its own magnitude, or to ``_NEWTON_DAMPING`` if that is larger.

    The system is solved by :func:`_ldl`.  Where every pivot is positive
    the matrix is positive definite, and the product of its other ``k - 1``
    eigenvalues is at most ``(trace / (k - 1))**(k - 1)``, so the smallest
    is at least the determinant, the product of the pivots, over that: when
    this bound exceeds ``_NEWTON_PD_TOL`` no lift is needed, and only
    otherwise is the eigenvalue taken from ``np.linalg.eigvalsh``.
    """
    d = [math.sqrt(abs(row[i])) or 1.0 for i, row in enumerate(hess)]
    g = [gi / di for gi, di in zip(grad, d)]
    scaled = [[hij / (di * dj) for hij, dj in zip(row, d)] for row, di in zip(hess, d)]
    lowest = {}  # smallest eigenvalue of each system, without damping

    def solve(m, rhs, damping):
        size = len(rhs)
        factor = _ldl(m, damping)
        pivots = factor[0]
        spread = (sum(row[i] for i, row in enumerate(m)) + size * damping) / (size - 1)
        if not (min(pivots) > _NEWTON_PD_TOL
                and math.prod(pivots) > _NEWTON_PD_TOL * spread ** (size - 1)):
            if size not in lowest:
                lowest[size] = float(np.linalg.eigvalsh(m)[0])
            low = lowest[size] + damping
            if low <= _NEWTON_PD_TOL:
                factor = _ldl(m, damping + max(_NEWTON_DAMPING, -low) - low)
        return _ldl_solve(factor, rhs)

    def step(damping, last=None):
        if last is None:
            return [-x / di for x, di in zip(solve(scaled, g, damping), d)]
        fixed = last * d[-1]
        held = [row[:-1] for row in scaled[:-1]]
        rhs = [gi + row[-1] * fixed for gi, row in zip(g[:-1], scaled)]
        return [-x / di for x, di in zip(solve(held, rhs, damping), d)] + [last]

    return step


def damped_newton(objective, theta: list, current, stops=(), reach=None, kinks=None):
    """Damped Newton minimization from a feasible point, in floats.

    ``theta`` is a list of floats; ``objective(theta)`` returns ``(value,
    gradient, hessian, ...)`` or None where infeasible, and ``current`` is
    its output at ``theta``.  A rejected step is retried with ten times the
    Levenberg damping (see :func:`_newton_steps`), which falls tenfold after
    each accepted step.  Kinks in the last coordinate come two ways:
    ``stops``, sorted values that no step may cross (the shape box's edges,
    a penalty's kinks), and ``kinks(current)``, called only after a rejected
    step, the offsets of the coordinate's kinks from ``theta``.  A step that
    would cross a stop, or after a rejection a kink, is cut short on it.
    From a stop the steps hold the coordinate, and once that held step is
    below the tolerance leave it, unless that leaves the box.  A point on a
    kink (within the tolerance), once a step has ended there or a rejection
    has found it there, is held alike, except that it is left by free steps
    with more damping.  ``reach(theta, step, current)`` shortens a step to
    the fraction it returns.  Stops, converged, when the relative step is at
    most ``_NEWTON_XTOL``, or after a step that ends off every stop and kink
    with a decrement ``-gradient . step`` of at most
    ``_NEWTON_FTOL * (1 + |f|)``; not converged at the evaluation cap.
    Returns ``(theta, current, evaluations, converged)``, the start's
    evaluation counted.
    """
    n_eval, damping, on_kink = 1, 0.0, False
    while n_eval < _NEWTON_MAX_EVAL:
        value, grad = current[0], current[1]
        newton_step = _newton_steps(grad, current[2])
        last = theta[-1]
        xtol = [_NEWTON_XTOL * (1.0 + abs(t)) for t in theta]
        cuts, offsets = stops, None

        def small(step):
            return all(abs(s) <= t for s, t in zip(step, xtol))

        def candidate(damping, held=False):
            if held:
                return newton_step(damping, 0.0), last
            step = newton_step(damping)
            ahead = [s for s in cuts
                     if 0.0 < (s - last) * math.copysign(1.0, step[-1]) < abs(step[-1])]
            if ahead:
                target = min(ahead, key=lambda s: abs(s - last))
                step = newton_step(damping, target - last)
            else:
                target = None
            if reach is not None:
                fraction = reach(theta, step, current)
                if fraction < 1.0:
                    return [fraction * s for s in step], None
            return step, target

        held = on_kink or last in stops
        step, target = candidate(damping, held)
        if held and small(step):
            # converged with the last coordinate on a stop or kink: try
            # leaving it, unless that means leaving the box
            held = on_kink = False
            step, target = candidate(damping)
            if stops and ((last == stops[0] and step[-1] < 0)
                          or (last == stops[-1] and step[-1] > 0)):
                return theta, current, n_eval, True
        while not small(step):
            point = [t + s for t, s in zip(theta, step)]
            if target is not None:
                point[-1] = target
            trial = objective(point)
            n_eval += 1
            if trial is not None and trial[0] < value:
                break
            if n_eval >= _NEWTON_MAX_EVAL:
                return theta, current, n_eval, False
            damping = max(10.0 * damping, _NEWTON_DAMPING_MIN)
            if kinks is not None and offsets is None and not held:
                offsets = kinks(current)
                on_kink = held = any(abs(k) <= xtol[-1] for k in offsets)
                if not on_kink:
                    cuts = (*stops, *(last + k for k in offsets))
            step, target = candidate(damping, held)
            if on_kink and small(step):
                on_kink = held = False
                step, target = candidate(damping)
        else:
            return theta, current, n_eval, True
        decrement = -sum(gi * si for gi, si in zip(grad, step))
        theta, current = point, trial
        damping = damping / 10.0 if damping > _NEWTON_DAMPING_MIN else 0.0
        on_kink = target is not None and target not in stops
        if decrement <= _NEWTON_FTOL * (1.0 + abs(current[0])) and target is None:
            return theta, current, n_eval, True
    return theta, current, n_eval, False
