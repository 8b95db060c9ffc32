"""Monte Carlo harness: metrics, cells, grids, determinism, failure policy."""

import numpy as np
import pytest

from glme import estimators, nonstationary
from glme.errors import ConvergenceError, LSkewnessError
from glme.gev import GevParams, return_level
from glme.simulation import (
    DEFAULT_GEV11_METHODS,
    DEFAULT_STATIONARY_METHODS,
    STATIONARY_N_GRID,
    STATIONARY_XI_GRID,
    SimCell,
    build_grid,
    metrics,
    run_cell,
    run_grid,
)


def truth_teller(data, seed):
    """Stub estimator that always returns the true level of the test cell."""
    return return_level(GevParams(100.0, 30.0, -0.3), 100.0)


def flaky(data, seed):
    if seed % 3 == 0:
        raise ConvergenceError("refuses this trial")
    return 123.0


def always_fails(data, seed):
    raise ConvergenceError("no")


def buggy(data, seed):
    raise TypeError("a bug inside a worker")


class TestMetrics:
    def test_hand_example(self):
        bias, se, rmse = metrics([4.0, 6.0], 5.0)
        assert bias == pytest.approx(0.0, abs=1e-15)
        assert se == pytest.approx(1.0, rel=1e-15)
        assert rmse == pytest.approx(1.0, rel=1e-15)

    def test_constant_truth(self):
        assert metrics([7.0, 7.0, 7.0], 7.0) == (0.0, 0.0, 0.0)

    def test_single_estimate(self):
        bias, se, rmse = metrics([9.0], 5.0)
        assert (bias, se, rmse) == (4.0, 0.0, 4.0)

    def test_identity(self):
        rng = np.random.default_rng(1)
        est = rng.normal(50.0, 10.0, size=500)
        bias, se, rmse = metrics(est, 48.0)
        assert rmse**2 == pytest.approx(bias**2 + se**2, rel=1e-9)

    def test_empty(self):
        with pytest.raises(ValueError):
            metrics([], 1.0)


class TestRunCell:
    def test_constant_truth_estimator_scores_zero(self):
        cell = SimCell(
            "stationary", -0.3, 30, (("oracle", truth_teller),), N=20, base_seed=0
        )
        rep = run_cell(cell).methods[0]
        assert rep.bias == pytest.approx(0.0, abs=1e-9)
        assert rep.se == pytest.approx(0.0, abs=1e-9)
        assert rep.rmse == pytest.approx(0.0, abs=1e-9)
        assert rep.n_failures == 0

    def test_identity_holds_on_real_cell(self):
        cell = SimCell("stationary", -0.3, 30, ("lme",), N=40, base_seed=3)
        rep = run_cell(cell).methods[0]
        assert rep.rmse**2 == pytest.approx(rep.bias**2 + rep.se**2, rel=1e-9)

    def test_failures_counted_and_flagged(self):
        cell = SimCell("stationary", -0.3, 30, (("flaky", flaky),), N=30, base_seed=0)
        rep = run_cell(cell).methods[0]
        assert rep.n_failures == 10  # seeds 0,3,...,27
        assert rep.unreliable  # 10/30 > 20%
        ok = SimCell("stationary", -0.3, 30, (("flaky", flaky),), N=30, base_seed=1)
        rep2 = run_cell(ok).methods[0]
        assert rep2.n_failures == 10 and rep2.unreliable

    def test_total_failure_yields_nan_metrics(self):
        cell = SimCell("stationary", -0.3, 30, (("dud", always_fails),), N=5, base_seed=0)
        rep = run_cell(cell).methods[0]
        assert rep.n_failures == 5
        assert np.isnan(rep.bias) and np.isnan(rep.rmse)

    def test_deterministic(self):
        cell = SimCell("stationary", -0.45, 30, ("lme", "glme.b.c1"), N=15, base_seed=9)
        a, b = run_cell(cell), run_cell(cell)
        assert a == b

    def test_one_method_failure_does_not_affect_others(self):
        cell = SimCell(
            "stationary", -0.3, 30, ("lme", ("dud", always_fails)), N=10, base_seed=2
        )
        rep = run_cell(cell)
        assert rep.methods[0].n_failures == 0
        assert rep.methods[1].n_failures == 10

    @pytest.mark.parametrize("error", [TypeError, ValueError, ArithmeticError])
    def test_programming_errors_propagate(self, error):
        # only the typed failures the fitters raise on purpose count as failed trials
        def broken(data, seed):
            raise error("a bug, not a failed fit")

        cell = SimCell("stationary", -0.3, 30, (("broken", broken),), N=3, base_seed=0)
        with pytest.raises(error, match="a bug"):
            run_cell(cell)

    def test_gev11_scenario_runs(self):
        cell = SimCell("gev11", -0.2, 40, ("lme",), N=5, base_seed=0, B=200)
        rep = run_cell(cell).methods[0]
        assert rep.n_failures == 0
        assert np.isfinite(rep.rmse)
        assert rep.truth == pytest.approx(cell.true_return_level())

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            SimCell("weird", -0.3, 30)


class TestTruth:
    def test_stationary_truth(self):
        cell = SimCell("stationary", -0.45, 30)
        want = return_level(GevParams(100.0, 30.0, -0.45), 100.0)
        assert cell.true_return_level() == pytest.approx(want, rel=1e-12)

    def test_gev11_truth_uses_end_of_sample(self):
        cell = SimCell("gev11", -0.2, 40)
        model = cell.truth_model()
        assert model.mu_values()[-1] == pytest.approx(0.0 - 0.1 * 40.0)
        assert model.sigma_values()[-1] == pytest.approx(np.exp(1.0 + 0.02 * 40.0))


class TestGrid:
    def test_default_grids(self):
        cells = build_grid("stationary", N=10)
        assert len(cells) == len(STATIONARY_XI_GRID) * len(STATIONARY_N_GRID)
        assert cells[0].methods == DEFAULT_STATIONARY_METHODS
        ns_cells = build_grid("gev11", N=10)
        assert len(ns_cells) == len(STATIONARY_XI_GRID) * 2
        assert ns_cells[0].methods == DEFAULT_GEV11_METHODS

    def test_cells_get_distinct_seed_blocks(self):
        cells = build_grid("stationary", N=10, base_seed=5)
        seeds = [c.base_seed for c in cells]
        assert len(set(seeds)) == len(seeds)
        assert min(np.diff(sorted(seeds))) >= 10

    def test_run_grid_deterministic_and_ordered(self):
        kw = dict(
            scenario="stationary",
            xis=(-0.3, 0.0),
            ns=(30,),
            methods=("lme",),
            N=8,
            base_seed=1,
        )
        a = run_grid(**kw)
        b = run_grid(**kw)
        assert a == b
        assert [r.cell.xi for r in a] == [-0.3, 0.0]

    def test_sample_size_shrinks_error(self):
        # fixed shape: both spread and bias magnitude fall from n=30 to n=70
        reports = {}
        for n in (30, 70):
            cell = SimCell("stationary", -0.3, n, ("lme",), N=600, base_seed=0,
                           cov_method="exact")
            reports[n] = run_cell(cell).methods[0]
        assert reports[70].se < reports[30].se
        assert abs(reports[70].bias) <= abs(reports[30].bias)


class TestTrialSpread:
    """``jobs > 1`` spreads each cell's trials across worker processes; the
    reports must equal the serial ones."""

    @pytest.mark.parametrize("N", [7, 1])
    @pytest.mark.parametrize("methods", [(("flaky", flaky),), ("lme",)], ids=["flaky", "lme"])
    def test_reports_do_not_depend_on_jobs(self, N, methods):
        kw = dict(scenario="stationary", xis=(-0.3, 0.15), ns=(30,), methods=methods,
                  N=N, base_seed=3, B=100)
        # reprs, since an all-failed method's NaN metrics never compare equal
        serial = repr(run_grid(**kw))
        assert repr(run_grid(jobs=2, **kw)) == serial
        assert repr(run_grid(jobs=3, **kw)) == serial

    def test_progress_once_per_cell_in_order(self):
        calls = []
        run_grid(xis=(-0.3, 0.0, 0.3), ns=(30,), methods=("lme",), N=5, jobs=2,
                 progress=lambda done, total, cell: calls.append((done, total, cell.xi)))
        assert calls == [(1, 3, -0.3), (2, 3, 0.0), (3, 3, 0.3)]

    def test_programming_error_in_a_worker_propagates(self):
        with pytest.raises(TypeError, match="inside a worker"):
            run_grid(xis=(-0.3,), ns=(30,), methods=(("buggy", buggy),), N=4, jobs=2)


def _counting(monkeypatch, module, name, fail=lambda *args: False):
    """Replace ``module.name`` by a wrapper that counts its calls and raises
    ConvergenceError where ``fail(*args)`` is true; returns the call list."""
    original, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if fail(*args):
            raise ConvergenceError("stub refuses this sample")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSharedPieces:
    """The methods of one trial share its L-moment fit and covariance."""

    def test_one_trend_lme_fit_per_trial(self, monkeypatch):
        calls = _counting(monkeypatch, nonstationary, "fit_ns_lme")
        cell = SimCell("gev11", -0.45, 40, ("lme", "glme.b.c1", "glme.n.c3"), N=4, B=100)
        assert all(m.n_failures == 0 for m in run_cell(cell).methods)
        assert len(calls) == 4

    def test_one_covariance_per_trial(self, monkeypatch):
        calls = _counting(monkeypatch, estimators, "lmoment_cov")
        cell = SimCell("stationary", -0.3, 30, ("glme.n.c3", "glme.b.c1"), N=4, B=100)
        assert all(m.n_failures == 0 for m in run_cell(cell).methods)
        assert len(calls) == 4

    def test_a_failed_trend_lme_fit_fails_every_method_needing_it(self, monkeypatch):
        N = 12
        cell = SimCell("gev11", -0.45, 40, ("lme", "glme.b.c1", "glme.n.c3"), N=N, B=100)
        refused = sum(nonstationary.ns_sample(cell.truth_model(), seed)[0] < 0 for seed in range(N))
        assert 0 < refused < N
        calls = _counting(monkeypatch, nonstationary, "fit_ns_lme", lambda z, X: z[0] < 0)
        assert [m.n_failures for m in run_cell(cell).methods] == [refused] * 3
        assert len(calls) == N

    def test_a_failed_lme_fit_spares_methods_not_needing_it(self, monkeypatch):
        def refuse(x):
            raise LSkewnessError("stub refuses every sample")

        monkeypatch.setattr(estimators, "fit_lme", refuse)
        cell = SimCell("stationary", -0.3, 30, ("glme.n.c3", "lme", "glme.b.c1"), N=3, B=100)
        assert [m.n_failures for m in run_cell(cell).methods] == [0, 3, 3]
