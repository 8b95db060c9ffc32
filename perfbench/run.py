"""The glme benchmark: closed-loop CLI requests on seeded inputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload stationary-fit --seed 1 --seconds 25 --trace 0

Every request goes in-process through ``glme.cli.main(argv)`` with stdout
and stderr captured, so argument parsing, CSV reading and output formatting
are inside each timed request.  The loop is closed: one client, the next
request is sent when the previous one returns.  Interpreter start-up is
measured apart, as ``setup_s``: the median wall time of fresh interpreters
that ``import glme.cli``.

With ``--trace 0`` the loop repeats passes over the workload's requests
until ``--seconds`` have elapsed (and at least ``MIN_REQUESTS`` timed
requests have completed) and prints the end-to-end metrics, the same names
on every workload:

* ``latency_p50_ms``, ``latency_p90_ms``: per-request latency of the ``fit``
  requests (stationary-fit), the ``fit-ns`` requests (trend-fit), or of one
  batch job of two ``simulate`` invocations (simulate; a few samples only);
* ``heavy_p50_ms``: median latency of the workload's slowest request kind:
  ``profile`` (stationary-fit), ``fit-ns --method glme.b.c5`` (trend-fit),
  the gev11 invocation (simulate);
* ``ops_per_s``: requests completed per second of request time, or
  simulated trials per second on simulate;
* ``success_ratio``: 1 - failed / attempted, where a request that exits
  nonzero or raises fails, and on simulate each trial x method counts, a
  trial failing when the harness reports it in ``n_failures``.

Sample counts and raw (uncalibrated) figures go to the line before the
result.  Request times are calibrated against a reference kernel that a
SIGALRM handler times every ``SAMPLE_PERIOD_S`` on the CPUs where the work
runs (see ``REFERENCE_MS``).  The fit workloads run pinned to one CPU;
simulate spreads over worker processes and runs on every CPU.

With ``--trace 1`` it runs exactly one pass untraced and the same pass traced
(see ``tracing.py``) and prints the per-layer metrics, so every count in a
traced run repeats exactly for a given seed.  Spans go to
``.bench_out/trace-<workload>-<seed>.csv``.  Per-layer ``self_ms`` names
are total self time over the pass; other names ending in ``ms`` or ``.s``
are medians per call; ``calls``, ``evals`` and ``nm_calls`` (Nelder-Mead
runs) are totals over the pass.  A module that does not run on a workload
reports 0.

Metric names, units and directions come from ``BENCHMARK.json``.  Before
the result, one stdout line records the environment.  The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread everywhere: in this process, in the pool workers it forks
# and in the set-up interpreters.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FLOOD = SRC / "glme" / "data" / "losspw.csv"

# Wall times are calibrated: each is scaled by REFERENCE_MS over the time of
# a fixed reference kernel measured during and around it on the CPUs the
# work runs on, so they read as times on a machine where the kernel takes
# REFERENCE_MS.  A vCPU of a shared VM can run at half speed for seconds at
# a time while its neighbours are busy; the kernel slows with it.
REFERENCE_MS = 1.0
SAMPLE_PERIOD_S = 0.05  # reference samples during the timed loop
MIN_REQUESTS = 100  # timed requests per run, so ten lie beyond p90
MIN_BATCHES = 2  # batch jobs per run: simulate has far fewer than 100 samples
SETUP_REPEATS = 5
SIM_TRIALS = 20  # trials per simulate invocation
SIM_METHODS = "lme,glme.b.c1"
SIM_JOBS = 2  # nproc of the reference machine
GEV_MU, GEV_SIGMA = 100.0, 30.0  # location and scale of the stationary samples

# criterion-3 reference rows on the flood series: (method argv, checks),
# each check (field, reference, tolerance, relative?)
FLOOD_REFERENCE = {
    ("mle",): (("xi", -0.608, 0.01, False), ("mu", 119.17, 0.005, True),
               ("sigma", 102.09, 0.005, True)),
    ("lme",): (("xi", -0.377, 0.01, False), ("mu", 129.89, 0.005, True),
               ("sigma", 120.70, 0.005, True)),
    ("glme.b.c6", "--cov", "exact"): (("xi", -0.453, 0.01, False),
                                      ("r100", 1824.0, 0.01, True)),
    ("glme.n.c2", "--cov", "exact"): (("xi", -0.405, 0.01, False),),
}


@dataclass
class Request:
    """One CLI call and the metrics its latency feeds."""

    argv: list
    check: object  # callable(stdout) -> list of problems
    timed: bool = True  # feeds latency_p50_ms / latency_p90_ms
    heavy: bool = False  # feeds heavy_p50_ms
    trials: int = 0  # simulated trials x methods, for simulate invocations


@dataclass
class Record:
    request: Request
    start: float  # perf_counter time the request was sent
    ms: float  # wall time of the request, less reference samples taken in it
    code: int
    stdout: str


@dataclass
class Workload:
    name: str
    passes: object  # callable(k) -> the requests of pass k
    warmup: list  # untimed requests run first, so first-call costs stay out
    # A batch job: latency is per pass, not per request, and its requests
    # fan out to worker processes, so it runs on every CPU, not pinned.
    batch: bool = False


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _write_series(path, values, years=None):
    years = range(1, len(values) + 1) if years is None else years
    with open(path, "w") as fh:
        fh.write("year,value\n")
        fh.writelines(f"{int(y)},{float(v)!r}\n" for y, v in zip(years, values))


# ---------------------------------------------------------------- checks


def _check_fit(expect=None):
    def check(out):
        rows = _rows(out)
        if len(rows) != 1:
            return [f"fit printed {len(rows)} rows"]
        row = rows[0]
        problems = []
        if row["converged"] != "True":
            problems.append(f"{row['method']} not converged")
        for key in ("mu", "sigma", "xi", "r50", "r100", "r200"):
            if not math.isfinite(float(row[key])):
                problems.append(f"{row['method']} {key}={row[key]}")
        for key, ref, tol, relative in expect or ():
            value = float(row[key])
            miss = abs(value / ref - 1) if relative else abs(value - ref)
            if miss > tol:
                problems.append(f"flood {row['method']} {key}={value:.6g}, reference {ref}")
        return problems
    return check


def _check_fit_ns(out):
    rows = _rows(out)
    if len(rows) != 1:
        return [f"fit-ns printed {len(rows)} rows"]
    row = rows[0]
    problems = [] if row["converged"] == "True" else [f"{row['method']} not converged"]
    for key in ("r50", "r100", "r200"):
        if not math.isfinite(float(row[key])):
            problems.append(f"{row['method']} {key}={row[key]}")
    return problems


def _check_trend(n):
    def check(out):
        rows = _rows(out)
        if len(rows) != 1 or int(rows[0]["n"]) != n or not -1 <= float(rows[0]["tau"]) <= 1:
            return [f"trend output wrong for n={n}: {out!r}"]
        return []
    return check


def _check_profile(out):
    rows = _rows(out)
    if len(rows) != 61 or not all(math.isfinite(float(r["value"])) for r in rows):
        return [f"profile printed {len(rows)} rows, expected 61 finite ones"]
    return []


def _check_simulate(methods):
    def check(out):
        rows = _rows(out)
        if len(rows) != methods:
            return [f"simulate printed {len(rows)} rows, expected {methods}"]
        problems = []
        for row in rows:
            bias, se, rmse = (float(row[k]) for k in ("bias", "se", "rmse"))
            if not math.isclose(rmse**2, bias**2 + se**2, rel_tol=1e-9, abs_tol=0.0):
                problems.append(f"{row['method']}: rmse^2 != bias^2 + se^2 ({rmse}, {bias}, {se})")
        return problems
    return check


# ------------------------------------------------------------- workloads


def stationary_fit(seed, workdir) -> Workload:
    # Loads the stationary estimators (optimizer, both covariance methods,
    # penalties) and leaves the trend pipeline idle: a nonstationary change
    # should leave it unchanged.
    import numpy as np
    from glme.gev import GevParams, gev_sample

    rng = np.random.default_rng(seed)
    series = [(str(FLOOD), 66, True)]
    for n in (30, 50, 70):
        for xi in (-0.45, -0.15, 0.15):
            path = workdir / f"gev_n{n}_xi{xi}.csv"
            x = gev_sample(GevParams(GEV_MU, GEV_SIGMA, xi), n, int(rng.integers(2**31)))
            _write_series(path, x)
            series.append((str(path), n, False))
    methods = (("lme",), ("mle",), ("gmle.b.c6",), ("glme.b.c6",),
               ("glme.b.c6", "--cov", "exact"), ("glme.n.c2", "--cov", "exact"))
    requests = []
    for path, n, is_flood in series:
        for m in methods:
            expect = FLOOD_REFERENCE.get(m) if is_flood else None
            argv = ["fit", path, "--format", "csv", "--method", *m]
            requests.append(Request(argv, _check_fit(expect)))
        requests.append(Request(["trend", path, "--format", "csv"], _check_trend(n), False))
    requests.append(Request(["profile", str(FLOOD), "--methods", "glme.b.c6", "--format", "csv"],
                            _check_profile, False, True))
    return Workload("stationary-fit", lambda k: requests, requests[:len(methods) + 1])


def trend_fit(seed, workdir) -> Workload:
    # Spends its time in the trend pipeline (IRLS, scale regression, the
    # final Nelder-Mead and Newton polish) and in gumbel_lmoment_cov; the only
    # stationary work is fit_lme for start points, so a fit_glme change
    # should leave it unchanged.
    import numpy as np
    from glme.nonstationary import ns_sample
    from glme.simulation import SimCell

    rng = np.random.default_rng(seed)
    paths = [str(FLOOD)]
    for n in (40, 70):
        for xi in (-0.45, -0.15, 0.15):
            model = SimCell("gev11", xi, n).truth_model()
            path = workdir / f"gev11_n{n}_xi{xi}.csv"
            _write_series(path, ns_sample(model, int(rng.integers(2**31))),
                          years=range(1981, 1981 + n))
            paths.append(str(path))
    # glme.b.c5 --refine is not one of the four headline requests; with
    # it, three of five requests are the slow glme fits, so the median
    # falls inside that cluster instead of in the gap below it.
    methods = (("lme",), ("lme", "--refine"), ("glme.b.c5",), ("glme.b.c5", "--refine"),
               ("glme.n.c3", "--location", "ols"))
    requests = [Request(["fit-ns", p, "--format", "csv", "--method", *m], _check_fit_ns,
                        heavy=m == ("glme.b.c5",))
                for p in paths for m in methods]
    return Workload("trend-fit", lambda k: requests, requests[:len(methods)])


def simulate(seed, workdir) -> Workload:
    # The only workload that runs the simulation harness, its process pool
    # and the samplers, and it uses the estimators differently: many fits
    # at small n, with a fixed cost for every trial.  Each invocation is one
    # cell, and the pool spreads cells, not trials, so --jobs 2 is pure
    # overhead today; spreading trials would show only here.
    methods = SIM_METHODS.split(",")

    def batch(k, trials=SIM_TRIALS):
        common = ["--methods", SIM_METHODS, "--jobs", str(SIM_JOBS), "--trials", str(trials),
                  "--seed", str(seed * 1000 + k), "--format", "csv"]
        check = _check_simulate(len(methods))
        return [
            Request(["simulate", "--scenario", "stationary", "--xi=-0.45", "--n", "30", *common],
                    check, trials=trials * len(methods)),
            Request(["simulate", "--scenario", "gev11", "--xi=-0.45", "--n", "40", *common],
                    check, heavy=True, trials=trials * len(methods)),
        ]

    return Workload("simulate", batch, batch(0, trials=1), batch=True)


WORKLOADS = {"stationary-fit": stationary_fit, "trend-fit": trend_fit, "simulate": simulate}


# ------------------------------------------------------------ measuring


def call(argv):
    """Run one CLI request in-process; returns (exit code, stdout)."""
    import glme.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = glme.cli.main(argv)
    except Exception:  # a raising request counts as failed; keep the loop going
        traceback.print_exc()
        code = -1
    if code != 0:
        print(f"request {argv} exited {code}: {err.getvalue()}", file=sys.stderr)
    return code, out.getvalue()


def reference_ms() -> float:
    """Time in ms of a fixed kernel that does not touch glme: Python calls
    and small numpy operations, the mix the fitting loops are made of."""
    import numpy as np

    x, w = np.linspace(0.0, 1.0, 48), np.linspace(1.0, 2.0, 48)
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += math.log(float(np.sort(x * (1.0 + i * 1e-3))[::-1] @ w) + 1.0)
    return 1e3 * (time.perf_counter() - start)


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and the processes it starts, to one CPU, so the
    reference kernel runs where the measured work runs."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _worker_cpus() -> set:
    """CPUs on which child processes of this process are running now."""
    cpus = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            pids = Path(path).read_text().split()
        except OSError:  # the thread exited meanwhile
            continue
        for pid in pids:
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:  # the process exited meanwhile
                continue
            if fields[0] == "R":
                cpus.add(int(fields[36]))
    return cpus


class Sampler:
    """Runs the reference kernel from SIGALRM every SAMPLE_PERIOD_S while
    active, so a long request is calibrated by samples taken during it.

    Each sample is the mean kernel time over the CPUs where the work runs:
    those of running worker processes, else those this process may use.
    """

    def __init__(self):
        self.samples = []  # (perf_counter time, reference ms)
        self.spent = 0.0  # seconds spent in the handler, kept out of latencies
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        home = os.sched_getaffinity(0)
        start = time.perf_counter()
        try:
            refs = []
            for cpu in sorted(_worker_cpus() or home):
                os.sched_setaffinity(0, {cpu})
                refs.append(reference_ms())
            self.samples.append((start, statistics.mean(refs)))
        finally:
            os.sched_setaffinity(0, home)
            self.spent += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def calibrate(spans, samples):
    """Calibrated durations of ``spans`` ((start s, duration ms) pairs): each
    is scaled by REFERENCE_MS over the median of the reference samples
    ((time s, ms) pairs) taken during it and the two on either side."""
    samples = sorted(samples)
    times = [t for t, _ in samples]
    out = []
    for start, ms in spans:
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, start + ms / 1e3)
        window = [ref for _, ref in samples[max(0, lo - 2):hi + 2]]
        out.append(ms * REFERENCE_MS / statistics.median(window))
    return out


def run_pass(requests, sampler=None):
    records = []
    for req in requests:
        spent = sampler.spent if sampler else 0.0
        start = time.perf_counter()
        code, stdout = call(req.argv)
        seconds = time.perf_counter() - start - (sampler.spent - spent if sampler else 0.0)
        records.append(Record(req, start, 1e3 * seconds, code, stdout))
    return records


def measure_setup():
    """Calibrated and raw wall times (s) of fresh interpreters importing
    glme.cli; the first import compiles bytecode and is dropped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    spans, samples = [], []
    for _ in range(SETUP_REPEATS + 1):
        samples.append((time.perf_counter(), reference_ms()))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import glme.cli"], env=env, cwd=ROOT, check=True)
        spans.append((start, 1e3 * (time.perf_counter() - start)))
    samples.append((time.perf_counter(), reference_ms()))
    scaled = [ms / 1e3 for ms in calibrate(spans, samples)]
    return scaled[1:], [ms / 1e3 for _, ms in spans[1:]]


def outcome(records):
    """(attempted, failed, problems) over a list of records."""
    attempted = failed = 0
    problems = []
    for rec in records:
        weight = rec.request.trials or 1
        attempted += weight
        if rec.code != 0:
            failed += weight
            continue
        problems += rec.request.check(rec.stdout)
        if rec.request.trials:
            failed += sum(int(r["n_failures"]) for r in _rows(rec.stdout))
    return attempted, failed, problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(workload: Workload, seconds: float):
    run_pass(workload.warmup)
    passes = []
    start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            passes.append(run_pass(workload.passes(len(passes)), sampler))
            timed = sum(r.request.timed for p in passes for r in p)
            enough = len(passes) >= MIN_BATCHES if workload.batch else timed >= MIN_REQUESTS
            if enough and time.perf_counter() - start >= seconds:
                break
    wall = time.perf_counter() - start
    records = [r for p in passes for r in p]
    raw = [r.ms for r in records]
    refs = [ref for _, ref in sampler.samples]
    ms = calibrate([(r.start, r.ms) for r in records], sampler.samples)
    if workload.batch:
        size = len(passes[0])
        latencies = [sum(ms[i:i + size]) for i in range(0, len(ms), size)]
        ops = sum(r.request.trials for r in records) / len(SIM_METHODS.split(","))
    else:
        latencies = [v for v, r in zip(ms, records) if r.request.timed]
        ops = len(records)
    heavy = [v for v, r in zip(ms, records) if r.request.heavy]
    attempted, failed, problems = outcome(records)
    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 90),
        "heavy_p50_ms": statistics.median(heavy),
        "ops_per_s": 1e3 * ops / sum(ms),
        "success_ratio": (attempted - failed) / attempted,
    }
    samples = {"passes": len(passes), "latency_samples": len(latencies),
               "heavy_samples": len(heavy), "wall_s": wall,
               "raw_ops_per_s": 1e3 * ops / sum(raw),
               "reference_ms": {"median": statistics.median(refs), "min": min(refs),
                                "max": max(refs)}}
    return metrics, samples, attempted, failed, problems


def traced_run(workload: Workload, seed: int):
    from tracing import Tracer, TraceSummary

    run_pass(workload.warmup)
    requests = workload.passes(0)
    parallel = None
    if workload.batch:
        # determinism: the traced --jobs 1 run must print what --jobs 2 prints
        parallel = run_pass(requests)
        for req in requests:
            req.argv[req.argv.index("--jobs") + 1] = "1"
    with Sampler() as untraced_samples:
        untraced = run_pass(requests, untraced_samples)
    tracer = Tracer()
    tracer.install()
    try:
        with Sampler() as traced_samples:
            traced = run_pass(requests, traced_samples)
    finally:
        tracer.restore()

    attempted, failed, problems = outcome(traced)
    problems += outcome(untraced)[2]
    for i, rec in enumerate(traced):
        if rec.stdout != untraced[i].stdout:
            problems.append(f"traced output differs from untraced: {rec.request.argv}")
        if parallel is not None and rec.stdout != parallel[i].stdout:
            problems.append(f"--jobs 1 output differs from --jobs {SIM_JOBS}: "
                            f"{rec.request.argv}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-{seed}.csv")
    traced_ms = sum(calibrate([(r.start, r.ms) for r in traced], traced_samples.samples))
    untraced_ms = sum(calibrate([(r.start, r.ms) for r in untraced], untraced_samples.samples))
    metrics = layer_metrics(TraceSummary(tracer.spans), traced_ms / untraced_ms)
    # span times take the calibration of the whole traced pass; they include
    # the reference samples taken inside them
    scale = traced_ms / sum(r.ms for r in traced)
    for name in metrics:
        if name.endswith(("ms", ".s")):
            metrics[name] *= scale
    samples = {"spans": len(tracer.spans), "traced_ms": traced_ms, "untraced_ms": untraced_ms,
               "span_scale": scale}
    return metrics, samples, attempted, failed, problems


def layer_metrics(t, overhead) -> dict:
    m = {
        "cli.main.self_ms": t.self_ms("cli.main"),
        "dataio.read_dataset.ms": t.median_ms("dataio.read_dataset"),
        "estimators.fit_lme.calls": t.calls("estimators.fit_lme"),
        "estimators.profile_xi.ms": t.median_ms("estimators.profile_xi"),
        "optim.nelder_mead.calls": t.calls("optim.nelder_mead"),
        "optim.nelder_mead.self_ms": t.self_ms("optim.nelder_mead"),
        "optim.objective.self_ms": t.self_ms("optim.objective"),
        "lmoments.gumbel_lmoment_cov.ms": t.median_ms("lmoments.gumbel_lmoment_cov"),
        "lmoments.self_ms": t.self_ms("lmoments."),
        "penalties.build.ms": t.median_ms("penalties.build"),
        "penalties.neg_log.calls": t.calls("penalties.neg_log"),
        "penalties.self_ms": t.self_ms("penalties."),
        "gev.gev_sample.ms": t.median_ms("gev.gev_sample"),
        "gev.return_level.calls": t.calls("gev.return_level"),
        "trend.mann_kendall.ms": t.median_ms("trend.mann_kendall"),
        "trace.overhead_ratio": overhead,
    }
    runs = [run for owner in t.optimizer_runs.values() for run in owner]
    m["optim.nelder_mead.evals"] = sum(n for n, _ in runs)
    m["optim.nelder_mead.converged_ratio"] = (
        sum(ok for _, ok in runs) / len(runs) if runs else 0.0)
    for name in ("sample_lmoments", "gev_population_lmoments", "gld"):
        m[f"lmoments.{name}.calls"] = t.calls(f"lmoments.{name}")
    for name in ("robust_location_fit", "scale_regression", "ns_sample"):
        m[f"nonstationary.{name}.ms"] = t.median_ms(f"nonstationary.{name}")

    # objective evaluations per estimator: from the fit result where it
    # reports them, from the optimizer runs otherwise (profile_xi)
    for qualified in ("estimators.fit_mle", "estimators.fit_gmle", "estimators.fit_glme",
                      "estimators.profile_xi", "nonstationary.fit_ns_lme",
                      "nonstationary.fit_ns_glme"):
        runs = t.optimizer_runs[qualified]
        if qualified != "estimators.profile_xi":
            m[f"{qualified}.ms"] = t.median_ms(qualified)
            m[f"{qualified}.evals"] = sum(t.notes[qualified])
        else:
            m[f"{qualified}.evals"] = sum(n for n, _ in runs)
        m[f"{qualified}.nm_calls"] = len(runs)

    cov = t.notes["lmoments.lmoment_cov"]
    by_method = {"bootstrap": [], "exact": []}
    for (method, _), seconds in zip(cov, t.durations["lmoments.lmoment_cov"]):
        by_method[method].append(seconds)
    for method, values in by_method.items():
        m[f"lmoments.lmoment_cov.{method}_ms"] = 1e3 * statistics.median(values) if values else 0.0
    m["lmoments.lmoment_cov.bootstrap_results"] = sum(s == "bootstrap" for _, s in cov)
    m["lmoments.lmoment_cov.exact_results"] = sum(s == "exact" for _, s in cov)
    m["lmoments.lmoment_cov.regularized"] = sum(s == "regularized" for _, s in cov)
    m["lmoments.lmoment_cov.exact_fallbacks"] = sum(
        method == "exact" and s != "exact" for method, s in cov)

    cells = list(zip(t.notes["simulation.run_cell"], t.durations["simulation.run_cell"]))
    for scenario in ("stationary", "gev11"):
        times = [s for (sc, _), s in cells if sc == scenario]
        m[f"simulation.run_cell.{scenario}.s"] = statistics.median(times) if times else 0.0
    times = [s for _, s in cells]
    m["simulation.cell_imbalance"] = max(times) / statistics.mean(times) if times else 0.0
    m["simulation.trials_failed"] = sum(failed for (_, failed), _ in cells)
    return m


# ----------------------------------------------------------- environment


def environment(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # the benchmark may run in a checkout that is not a repository
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            commit = proc.stdout.strip() or commit
        except OSError:  # no git
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "glme").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glme" / "cli.py").is_file():
        print(f"error: glme sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import glme

    if Path(glme.__file__).resolve().parent != SRC / "glme":
        print(f"error: imported glme from {glme.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = environment(args)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            with one_cpu():
                values, samples, attempted, failed, problems = traced_run(workload, args.seed)
            wanted = spec["per_layer"]
        else:
            with one_cpu():
                setup, raw_setup = measure_setup()
            with contextlib.nullcontext() if workload.batch else one_cpu():
                values, samples, attempted, failed, problems = timed_run(workload, args.seconds)
            values["setup_s"] = statistics.median(setup)
            samples["setup_samples"] = len(setup)
            samples["raw_setup_s"] = statistics.median(raw_setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"env": env, "samples": samples}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
