"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see the lines as they happen).

The Monte Carlo ordering criterion runs N trials per cell; N defaults to
300 for CI and can be raised with the GLME_ACCEPT_N environment variable
(1000 reproduces the full desk-scale study).
"""

import csv
import io
import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from glme.cli import main as cli_main
from glme.estimators import fit_glme, fit_gmle, fit_lme, fit_mle
from glme.gev import GevParams, gev_sample, return_level
from glme.lmoments import _lmoments_from_sorted, gev_population_lmoments, sample_lmoments
from glme.nonstationary import fit_ns_glme, fit_ns_lme, ns_return_level
from glme.penalties import (
    AdaptiveBetaRequest,
    FixedBetaPenalty,
    FlatPenalty,
    NormalPenalty,
    build_beta_adaptive,
)
from glme.simulation import SimCell, run_cell
from glme.trend import mann_kendall

from _oracles import lmoments_brute_force

ACCEPT_N = int(os.environ.get("GLME_ACCEPT_N", "300"))


def report(number: int, name: str, checks: list[tuple[str, bool]]):
    ok = all(passed for _, passed in checks)
    print(f"\n[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    for label, passed in checks:
        if not passed:
            print(f"[acceptance]   failed: {label}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(
        label for label, passed in checks if not passed
    )


def test_criterion_1_lmoment_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        scale = 10.0 ** rng.integers(-2, 3)
        x = rng.exponential(size=n) * scale
        lm = sample_lmoments(x, order=4)
        want = lmoments_brute_force(x, order=4)
        worst = max(worst, float(np.max(np.abs(np.array(
            [lm.l1, lm.l2, lm.l3, lm.l4]) - want) / max(scale, 1.0))))
    elapsed = time.perf_counter() - start
    report(1, "sample L-moments match subset enumeration", [
        (f"max scaled deviation {worst:.3g} <= 1e-12", worst <= 1e-12),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


def test_criterion_2_population_vs_empirical():
    start = time.perf_counter()
    checks = []
    n, chunks = 1_000_000, 100
    for i, xi in enumerate((-0.45, -0.2, 0.0, 0.2, 0.45)):
        params = GevParams(100.0, 30.0, xi)
        x = gev_sample(params, n, seed=500 + i)
        lm = sample_lmoments(x).as_array()
        pop = gev_population_lmoments(params).as_array()
        per_chunk = _lmoments_from_sorted(np.sort(x.reshape(chunks, -1), axis=1), 3)
        se = per_chunk.std(axis=0, ddof=1) / math.sqrt(chunks)
        z = np.abs(lm - pop) / se
        checks.append((f"xi={xi}: max |z| {z.max():.2f} < 3", bool(np.all(z < 3.0))))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0))
    report(2, "population vs 1e6-sample L-moments", checks)


def test_criterion_3_flood_table_reproduction(flood):
    x = flood.values
    checks = []

    mle = fit_mle(x).params
    checks += [
        (f"mle xi {mle.xi:.4f} = -0.608 +-0.01", abs(mle.xi - (-0.608)) <= 0.01),
        (f"mle mu {mle.mu:.2f} = 119.17 +-0.5%", abs(mle.mu / 119.17 - 1) <= 0.005),
        (f"mle sigma {mle.sigma:.2f} = 102.09 +-0.5%", abs(mle.sigma / 102.09 - 1) <= 0.005),
    ]

    lme = fit_lme(x).params
    checks += [
        (f"lme xi {lme.xi:.4f} = -0.377 +-0.01", abs(lme.xi - (-0.377)) <= 0.01),
        (f"lme mu {lme.mu:.2f} = 129.89 +-0.5%", abs(lme.mu / 129.89 - 1) <= 0.005),
        (f"lme sigma {lme.sigma:.2f} = 120.70 +-0.5%", abs(lme.sigma / 120.70 - 1) <= 0.005),
    ]

    b6 = fit_glme(x, AdaptiveBetaRequest(6), cov_method="exact").params
    r100 = return_level(b6, 100.0)
    checks += [
        (f"glme.b.c6 xi {b6.xi:.4f} = -0.453 +-0.01", abs(b6.xi - (-0.453)) <= 0.01),
        (f"glme.b.c6 r100 {r100:.0f} = 1824 +-1%", abs(r100 / 1824.0 - 1) <= 0.01),
    ]

    n2 = fit_glme(x, NormalPenalty.from_choice(2), cov_method="exact").params
    checks.append(
        (f"glme.n.c2 xi {n2.xi:.4f} = -0.405 +-0.01", abs(n2.xi - (-0.405)) <= 0.01)
    )
    report(3, "flood-series table rows", checks)


def test_criterion_4_rainfall_table_reproduction(phliu):
    z = phliu.values
    X = phliu.time_design()
    checks = []

    lme = fit_ns_lme(z, X).model
    checks += [
        (f"lme mu1 {lme.mu_coef[1]:.3f} = 0.936 +-0.02",
         abs(lme.mu_coef[1] - 0.936) <= 0.02),
        (f"lme sigma1 {lme.sigma_coef[1]:.4f} = 0.028 +-0.02",
         abs(lme.sigma_coef[1] - 0.028) <= 0.02),
        (f"lme xi {lme.xi:.4f} = -0.064 +-0.02", abs(lme.xi - (-0.064)) <= 0.02),
    ]

    b5 = fit_ns_glme(z, X, AdaptiveBetaRequest(5)).model
    r100 = ns_return_level(b5, 100.0, b5.n_obs - 1)
    checks += [
        (f"glme.b.c5 xi {b5.xi:.4f} = -0.11 +-0.015", abs(b5.xi - (-0.11)) <= 0.015),
        (f"glme.b.c5 r100 {r100:.0f} = 517 +-1.5%", abs(r100 / 517.0 - 1) <= 0.015),
    ]
    report(4, "rainfall-series table rows", checks)


def test_criterion_5_flat_penalty_collapse():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_param, worst_obj = 0.0, 0.0
    for i in range(50):
        xi = rng.choice([-0.45, -0.2, 0.0, 0.2])
        truth = GevParams(rng.uniform(-50, 150), rng.uniform(5, 60), float(xi))
        x = gev_sample(truth, int(rng.integers(40, 90)), seed=7000 + i)

        lme = fit_lme(x).params
        flat = fit_glme(x, FlatPenalty()).params
        scale = np.array([1.0 + abs(lme.mu), 1.0 + lme.sigma, 1.0])
        gap = np.max(np.abs(np.array(flat.as_tuple()) - np.array(lme.as_tuple())) / scale)
        worst_param = max(worst_param, float(gap))

        mle = fit_mle(x)
        gmle = fit_gmle(x, FlatPenalty())
        worst_obj = max(worst_obj, abs(mle.objective_value - gmle.objective_value))
    elapsed = time.perf_counter() - start
    report(5, "flat penalty collapses to unpenalized fits", [
        (f"max scaled parameter gap {worst_param:.3g} <= 1e-6", worst_param <= 1e-6),
        (f"max objective gap {worst_obj:.3g} <= 1e-8", worst_obj <= 1e-8),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0),
    ])


def _ordering_checks(tag, lme, glme):
    return [
        (f"{tag}: bias_lme {lme.bias:+.2f} < 0", lme.bias < 0),
        (f"{tag}: |bias_glme.b.c1| {abs(glme.bias):.2f} < |bias_lme| {abs(lme.bias):.2f}",
         abs(glme.bias) < abs(lme.bias)),
        (f"{tag}: se_glme.b.c1 {glme.se:.2f} >= se_lme {lme.se:.2f}", glme.se >= lme.se),
    ]


def test_criterion_6_stationary_bias_ordering():
    start = time.perf_counter()
    cell = SimCell(
        "stationary", -0.45, 30, ("lme", "glme.b.c1"), N=ACCEPT_N, base_seed=0,
        cov_method="exact",
    )
    rep = run_cell(cell)
    lme, glme = rep.methods
    checks = _ordering_checks(f"stationary n=30 xi=-0.45 N={ACCEPT_N}", lme, glme)
    checks.append(("no unreliable methods", not (lme.unreliable or glme.unreliable)))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.0f}s < 600s", elapsed < 600.0))
    report(6, "bias ordering, stationary scenario", checks)


def test_criterion_6_trend_bias_ordering():
    """The printed final-stage estimator is close to unbiased in the shape
    for the trend scenario, so the adaptive correction pushes the return
    level past the truth here; the first two orderings are known not to
    hold for this implementation (see the shipped simulation numbers).
    The criterion is asserted as stated regardless.
    """
    start = time.perf_counter()
    cell = SimCell("gev11", -0.45, 40, ("lme", "glme.b.c1"), N=ACCEPT_N, base_seed=0)
    rep = run_cell(cell)
    lme, glme = rep.methods
    checks = _ordering_checks(f"gev11 n=40 xi=-0.45 N={ACCEPT_N}", lme, glme)
    checks.append(("no unreliable methods", not (lme.unreliable or glme.unreliable)))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime {elapsed:.0f}s < 600s", elapsed < 600.0))
    report(6, "bias ordering, trend scenario", checks)


def test_criterion_7_error_decomposition_identity():
    checks = []
    for scenario, xi, n in (
        ("stationary", -0.45, 30),
        ("stationary", 0.15, 50),
        ("gev11", -0.3, 40),
    ):
        cell = SimCell(scenario, xi, n, ("lme", "glme.b.c1"), N=60, base_seed=11)
        for m in run_cell(cell).methods:
            gap = abs(m.rmse**2 - (m.bias**2 + m.se**2)) / max(m.rmse**2, 1e-300)
            checks.append(
                (f"{scenario} xi={xi} n={n} {m.method}: relative gap {gap:.2e} <= 1e-9",
                 gap <= 1e-9)
            )
    report(7, "rmse^2 = bias^2 + se^2 on every cell", checks)


def test_criterion_8_trend_tests(flood):
    checks = []
    res = mann_kendall(flood.values)
    checks += [
        (f"flood tau {res.tau:.4f} = -0.058 +-0.002", abs(res.tau - (-0.058)) <= 0.002),
        (f"flood p {res.p_value:.4f} = 0.493 +-0.01", abs(res.p_value - 0.493) <= 0.01),
    ]
    from glme.dataio import load_fixture

    rain = load_fixture("phliu.csv")
    if rain is not None:
        res = mann_kendall(rain.values)
        checks += [
            (f"rain tau {res.tau:.4f} = 0.234 +-0.002", abs(res.tau - 0.234) <= 0.002),
            (f"rain p {res.p_value:.4f} = 0.034 +-0.005", abs(res.p_value - 0.034) <= 0.005),
        ]
    else:
        print("\n[acceptance] criterion 8: rainfall series not shipped; flood only")
    report(8, "trend test statistics", checks)


def test_criterion_9_penalty_catalog():
    checks = []
    densities = [FixedBetaPenalty.from_preset(p) for p in ("ms", "park", "cannon")]
    densities += [
        build_beta_adaptive(c, xh) for c in range(1, 7) for xh in (-0.4, -0.25, -0.1)
    ]
    for pen in densities:
        val, _ = quad(pen.value, pen.lower, pen.upper, limit=200)
        checks.append((f"{pen.label} integral {val:.12f}", abs(val - 1.0) <= 1e-10))

    q_table = {
        (1, -0.4): 10.0, (1, -0.25): 8.5, (1, -0.1): 7.0,
        (2, -0.4): 13.0, (2, -0.25): 11.0, (2, -0.1): 8.0,
        (3, -0.4): 15.0, (3, -0.25): 13.5, (3, -0.1): 9.0,
        (4, -0.4): 6.0, (4, -0.25): 4.5, (4, -0.1): 3.0,
        (5, -0.4): 9.0, (5, -0.25): 7.0, (5, -0.1): 4.0,
        (6, -0.4): 11.0, (6, -0.25): 9.5, (6, -0.1): 5.0,
    }
    bad = [
        (c, xh)
        for (c, xh), want in q_table.items()
        if abs(build_beta_adaptive(c, xh).q - want) > 1e-9
    ]
    checks.append((f"all 18 q values reproduced, mismatches: {bad}", not bad))
    report(9, "penalty normalization and hyperparameter catalog", checks)


def test_criterion_10_simulation_determinism(capsys):
    args = [
        "simulate", "--xi=-0.3,-0.15", "--n", "30", "--methods", "lme,glme.b.c1",
        "--trials", "10", "--seed", "3", "--cov", "exact",
    ]

    def run(extra):
        code = cli_main(args + extra)
        out = capsys.readouterr().out
        assert code == 0
        return out

    first = run([])
    second = run([])
    parallel = run(["--jobs", "2"])
    rows = list(csv.DictReader(io.StringIO(first)))
    identity_ok = all(
        abs(float(r["rmse"]) ** 2 - (float(r["bias"]) ** 2 + float(r["se"]) ** 2))
        <= 1e-9 * float(r["rmse"]) ** 2
        for r in rows
    )
    report(10, "simulation output is byte-deterministic", [
        ("repeat run byte-identical", first == second),
        ("--jobs 2 byte-identical", first == parallel),
        (f"{len(rows)} rows emitted", len(rows) == 4),
        ("error identity holds in emitted rows", identity_ok),
    ])
