"""Monte Carlo comparison of return-level estimators.

A cell fixes a scenario (stationary or linear-trend "gev11"), a true shape,
a sample size and a list of estimators; each of N trials draws one sample
(seeded as base_seed + trial, so any single trial is reproducible in
isolation) and every estimator produces a T-year return level.  Bias, SE
and RMSE use 1/N normalization throughout, which makes
``rmse**2 == bias**2 + se**2`` an exact identity.  Trials where a fit
fails with one of the typed errors the fitters raise on purpose are
excluded from the metrics and counted; any other exception propagates.  A
method failing more than 20% of its trials is flagged unreliable.

Trials are independent, so a grid's trials can be spread across worker
processes; per-trial seeding and merging each cell's trials back in trial
order guarantee identical output for any degree of parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FIT_FAILURES, SampleSizeError
from .gev import GevParams, gev_sample, return_level
from .methods import MethodSpec, parse_method
from .nonstationary import NsModel, gev11_design, ns_return_level, ns_sample

__all__ = [
    "SimCell",
    "MethodReport",
    "SimReport",
    "metrics",
    "run_cell",
    "run_grid",
    "STATIONARY_XI_GRID",
    "STATIONARY_N_GRID",
    "GEV11_N_GRID",
    "DEFAULT_STATIONARY_METHODS",
    "DEFAULT_GEV11_METHODS",
]

STATIONARY_XI_GRID = (-0.45, -0.3, -0.15, 0.0, 0.15, 0.3, 0.45)
STATIONARY_N_GRID = (30, 50, 70)
GEV11_N_GRID = (40, 70)
DEFAULT_STATIONARY_METHODS = ("mle", "lme", "glme.n.c3", "glme.b.c1")
DEFAULT_GEV11_METHODS = ("lme", "glme.n.c3", "glme.b.c1")

# each cell of a grid offsets its trial seeds by this stride
_CELL_SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class SimCell:
    """One (scenario, shape, sample size) simulation configuration."""

    scenario: str
    xi: float
    n: int
    methods: tuple = DEFAULT_STATIONARY_METHODS
    N: int = 1000
    base_seed: int = 0
    T: float = 100.0
    mu: float = 100.0
    sigma: float = 30.0
    ns_coef: tuple = (0.0, -0.1, 1.0, 0.02)
    # the stationary covariance; gev11 cells weight by the exact Gumbel one
    cov_method: str = "bootstrap"

    def __post_init__(self):
        if self.scenario not in ("stationary", "gev11"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.N < 1:
            raise ValueError("N must be >= 1")

    def truth_model(self) -> NsModel:
        mu0, mu1, sig0, sig1 = self.ns_coef
        return NsModel([mu0, mu1], [sig0, sig1], self.xi, gev11_design(self.n))

    def true_return_level(self) -> float:
        if self.scenario == "stationary":
            return return_level(GevParams(self.mu, self.sigma, self.xi), self.T)
        return ns_return_level(self.truth_model(), self.T, self.n - 1)


@dataclass(frozen=True)
class MethodReport:
    scenario: str
    xi: float
    n: int
    method: str
    bias: float
    se: float
    rmse: float
    n_failures: int
    n_trials: int
    truth: float
    unreliable: bool


@dataclass(frozen=True)
class SimReport:
    cell: SimCell
    methods: tuple[MethodReport, ...]


def metrics(estimates, truth: float) -> tuple[float, float, float]:
    """(bias, se, rmse) with 1/N normalization in both SE and RMSE."""
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("metrics need at least one estimate")
    mean = float(est.mean())
    bias = mean - truth
    se = float(np.sqrt(np.mean((est - mean) ** 2)))
    rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
    return bias, se, rmse


def _estimate_stationary(spec: MethodSpec, x, cell: SimCell, memo: dict) -> float:
    fit = spec.fit_stationary(x, cov_method=cell.cov_method, memo=memo)
    return return_level(fit.params, cell.T)


def _estimate_ns(spec: MethodSpec, z, X, cell: SimCell, memo: dict) -> float:
    fit = spec.fit_ns(z, X, memo=memo)
    return ns_return_level(fit.model, cell.T, cell.n - 1)


def _run_trials(cell: SimCell, lo: int, hi: int) -> tuple[dict, dict]:
    """Run trials ``lo..hi-1`` of a cell: each method's estimates in trial
    order and its failure count, keyed by method name.

    Methods may be strings for :func:`glme.methods.parse_method` or
    ``(name, callable)`` pairs where the callable maps (data, seed) to a
    return-level estimate; data is the sample for the stationary scenario
    and a (z, X) pair otherwise.  The parsed methods of one trial share a
    memo, so the pieces they have in common (the L-moment fit, the
    covariance) are computed once per trial.
    """
    specs = []
    for m in cell.methods:
        if isinstance(m, str):
            specs.append((m, parse_method(m), None))
        else:
            name, fn = m
            specs.append((name, None, fn))

    truth_model = cell.truth_model() if cell.scenario == "gev11" else None
    estimates = {name: [] for name, _, _ in specs}
    failures = {name: 0 for name, _, _ in specs}

    for trial in range(lo, hi):
        seed = cell.base_seed + trial
        if cell.scenario == "stationary":
            data = gev_sample(GevParams(cell.mu, cell.sigma, cell.xi), cell.n, seed)
            args = (data,)
        else:
            data = ns_sample(truth_model, seed)
            args = (data, truth_model.covariates)
        memo = {}
        for name, spec, fn in specs:
            try:
                if fn is not None:
                    r = fn(data if cell.scenario == "stationary" else args, seed)
                else:
                    r = (
                        _estimate_stationary(spec, data, cell, memo)
                        if cell.scenario == "stationary"
                        else _estimate_ns(spec, *args, cell, memo)
                    )
                estimates[name].append(r)
            except FIT_FAILURES:
                failures[name] += 1
    return estimates, failures


def _summarize(cell: SimCell, estimates: dict, failures: dict) -> SimReport:
    """Score each method's estimates over all N trials of a cell."""
    truth = cell.true_return_level()
    reports = []
    for m in cell.methods:
        name = m if isinstance(m, str) else m[0]
        est = estimates[name]
        n_fail = failures[name]
        if est:
            bias, se, rmse = metrics(est, truth)
        else:
            bias = se = rmse = float("nan")
        reports.append(
            MethodReport(
                cell.scenario,
                cell.xi,
                cell.n,
                name,
                bias,
                se,
                rmse,
                n_fail,
                cell.N,
                truth,
                n_fail > 0.2 * cell.N,
            )
        )
    return SimReport(cell, tuple(reports))


def run_cell(cell: SimCell) -> SimReport:
    """Run every trial of a cell and summarize each method (see
    :func:`_run_trials` for the forms a method may take)."""
    return _summarize(cell, *_run_trials(cell, 0, cell.N))


def build_grid(
    scenario: str = "stationary",
    xis=None,
    ns=None,
    methods=None,
    N: int = 1000,
    base_seed: int = 0,
    T: float = 100.0,
    cov_method: str = "bootstrap",
) -> list[SimCell]:
    if xis is None:
        xis = STATIONARY_XI_GRID
    if ns is None:
        ns = STATIONARY_N_GRID if scenario == "stationary" else GEV11_N_GRID
    if methods is None:
        methods = (
            DEFAULT_STATIONARY_METHODS if scenario == "stationary" else DEFAULT_GEV11_METHODS
        )
    _check_methods(scenario, methods, ns)
    cells = []
    index = 0
    for xi in xis:
        for n in ns:
            cells.append(
                SimCell(
                    scenario,
                    float(xi),
                    int(n),
                    tuple(methods),
                    N,
                    base_seed + _CELL_SEED_STRIDE * index,
                    T,
                    cov_method=cov_method,
                )
            )
            index += 1
    return cells


def _check_methods(scenario: str, methods, ns) -> None:
    """Reject, before any trial runs, a method name that does not parse, a
    trend scenario for a stationary-only method, and a sample size below a
    method's minimum; every trial would fail alike."""
    for m in methods:
        if not isinstance(m, str):
            continue
        spec = parse_method(m)
        if scenario == "gev11" and not spec.supports_nonstationary:
            raise ValueError(f"method {m!r} is not available for covariate models")
        short = [n for n in ns if n < spec.min_n]
        if short:
            raise SampleSizeError(f"method {m!r} needs n >= {spec.min_n}, got n={short[0]}")


def _spread_trials(cells: list[SimCell], jobs: int):
    """Yield each cell's report in cell order, its trials cut into at most
    ``jobs`` contiguous ranges that run across ``jobs`` worker processes."""
    parts = [min(jobs, cell.N) for cell in cells]
    tasks = []  # (cell, lo, hi), each cell's ranges adjacent and in trial order
    for cell, k in zip(cells, parts):
        bounds = [cell.N * j // k for j in range(k + 1)]
        tasks += [(cell, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if not tasks:
        return
    # imported here, as only --jobs > 1 reaches it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        results = pool.map(_run_trials, *zip(*tasks))
        for cell, k in zip(cells, parts):
            estimates, failures = next(results)
            for _ in range(k - 1):
                more, more_failures = next(results)
                for name, est in more.items():
                    estimates[name] += est
                    failures[name] += more_failures[name]
            yield _summarize(cell, estimates, failures)


def run_grid(
    scenario: str = "stationary",
    xis=None,
    ns=None,
    methods=None,
    N: int = 1000,
    base_seed: int = 0,
    T: float = 100.0,
    cov_method: str = "bootstrap",
    jobs: int = 1,
    progress=None,
) -> list[SimReport]:
    """Run a (xi, n) grid of cells; output order is deterministic and
    independent of ``jobs``.

    With ``jobs > 1`` each cell's trials are cut into at most ``jobs``
    contiguous ranges that run across worker processes; a cell's ranges are
    merged in trial order, so every report equals the serial one.
    ``progress(done, total, cell)`` is called once per cell, in cell order.
    """
    cells = build_grid(scenario, xis, ns, methods, N, base_seed, T, cov_method)
    reports = []
    for report in map(run_cell, cells) if jobs <= 1 else _spread_trials(cells, jobs):
        reports.append(report)
        if progress is not None:
            progress(len(reports), len(cells), report.cell)
    return reports
