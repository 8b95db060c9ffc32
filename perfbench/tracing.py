"""Span tracing for the benchmark's traced run, installed from outside glme.

Wrappers replace glme functions at the names their callers look them up
(``glme.estimators.nelder_mead``, ``glme.nonstationary.fit_lme``, ...), so
the library itself is unchanged.  Every wrapped call records one span:
name, start, end, the index of the enclosing span, and a small note taken
from the result (objective evaluations, covariance source, ...).  Spans
stay in memory until :meth:`Tracer.write`.  Self time is a span's
duration minus the durations of its direct children.

The ``nelder_mead`` wrapper also wraps the objective it is passed, so time
in the objective is split from the simplex bookkeeping around it.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# Estimators that drive the optimizer; each Nelder-Mead run is credited to
# the nearest enclosing one.
OPTIMIZING = (
    "estimators.fit_mle",
    "estimators.fit_gmle",
    "estimators.fit_glme",
    "estimators.profile_xi",
    "nonstationary.fit_ns_lme",
    "nonstationary.fit_ns_glme",
)


def _iterations(result, args, kwargs):
    return result.iterations


def _optim_note(result, args, kwargs):
    return (result.n_eval, result.converged)


def _cov_note(result, args, kwargs):
    return (kwargs.get("method", args[1] if len(args) > 1 else "bootstrap"), result.source)


def _cell_note(result, args, kwargs):
    return (args[0].scenario, sum(m.n_failures for m in result.methods))


# (module, attribute, span name, note taken from the result)
FUNCTIONS = (
    ("glme.cli", "main", "cli.main", None),
    ("glme.cli", "read_dataset", "dataio.read_dataset", None),
    ("glme.cli", "profile_xi", "estimators.profile_xi", None),
    ("glme.cli", "mann_kendall", "trend.mann_kendall", None),
    ("glme.cli", "return_level", "gev.return_level", None),
    ("glme.estimators", "fit_lme", "estimators.fit_lme", None),
    ("glme.estimators", "fit_mle", "estimators.fit_mle", _iterations),
    ("glme.estimators", "fit_gmle", "estimators.fit_gmle", _iterations),
    ("glme.estimators", "fit_glme", "estimators.fit_glme", _iterations),
    ("glme.estimators", "lmoment_cov", "lmoments.lmoment_cov", _cov_note),
    ("glme.estimators", "sample_lmoments", "lmoments.sample_lmoments", None),
    ("glme.estimators", "gev_population_lmoments", "lmoments.gev_population_lmoments", None),
    ("glme.estimators", "gld", "lmoments.gld", None),
    ("glme.nonstationary", "fit_lme", "estimators.fit_lme", None),
    ("glme.nonstationary", "fit_ns_lme", "nonstationary.fit_ns_lme", _iterations),
    ("glme.nonstationary", "fit_ns_glme", "nonstationary.fit_ns_glme", _iterations),
    ("glme.nonstationary", "robust_location_fit", "nonstationary.robust_location_fit", None),
    ("glme.nonstationary", "scale_regression", "nonstationary.scale_regression", None),
    ("glme.nonstationary", "gumbel_lmoment_cov", "lmoments.gumbel_lmoment_cov", None),
    ("glme.nonstationary", "sample_lmoments", "lmoments.sample_lmoments", None),
    ("glme.nonstationary", "gld", "lmoments.gld", None),
    ("glme.nonstationary", "return_level", "gev.return_level", None),
    ("glme.simulation", "run_cell", "simulation.run_cell", _cell_note),
    ("glme.simulation", "gev_sample", "gev.gev_sample", None),
    ("glme.simulation", "ns_sample", "nonstationary.ns_sample", None),
    ("glme.simulation", "return_level", "gev.return_level", None),
)
OPTIMIZER_USERS = ("glme.estimators", "glme.nonstationary")


class Tracer:
    """Records spans of wrapped glme calls; :meth:`install` and
    :meth:`restore` bracket the traced region."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, note]
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[4] = note(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for module_name, attr, name, note in FUNCTIONS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), note))

        for module_name in OPTIMIZER_USERS:
            module = importlib.import_module(module_name)
            optimize = self.wrap("optim.nelder_mead", module.nelder_mead, _optim_note)

            def nelder_mead(fn, *args, _optimize=optimize, **kwargs):
                return _optimize(self.wrap("optim.objective", fn), *args, **kwargs)

            self._patch(module, "nelder_mead", nelder_mead)

        penalties = importlib.import_module("glme.penalties")
        for cls in vars(penalties).values():
            if isinstance(cls, type) and "neg_log" in cls.__dict__:
                self._patch(cls, "neg_log", self.wrap("penalties.neg_log", cls.neg_log))
        request = penalties.AdaptiveBetaRequest
        self._patch(request, "build", self.wrap("penalties.build", request.build))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one CSV row: index, name, start, end, parent, note."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "note"])
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent,
                              "" if note is None else repr(note)])


class TraceSummary:
    """Per-name aggregates of a span list."""

    def __init__(self, spans):
        durations = [end - start for _, start, end, _, _ in spans]
        child = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += durations[i]
        self.durations = defaultdict(list)
        self.self_time = Counter()
        self.notes = defaultdict(list)
        # Nelder-Mead (n_eval, converged) notes grouped by the enclosing estimator
        self.optimizer_runs = defaultdict(list)
        for i, (name, _, _, parent, note) in enumerate(spans):
            self.durations[name].append(durations[i])
            self.self_time[name] += durations[i] - child[i]
            if note is not None:
                self.notes[name].append(note)
            if name == "optim.nelder_mead" and note is not None:
                while parent >= 0 and spans[parent][0] not in OPTIMIZING:
                    parent = spans[parent][3]
                owner = spans[parent][0] if parent >= 0 else "(none)"
                self.optimizer_runs[owner].append(note)

    def calls(self, name) -> int:
        return len(self.durations[name])

    def median_ms(self, name) -> float:
        """Median duration per call in ms; 0.0 when the name was never called."""
        values = self.durations[name]
        return 1e3 * statistics.median(values) if values else 0.0

    def self_ms(self, *prefixes) -> float:
        """Total self time in ms of every span whose name starts with a prefix."""
        return 1e3 * sum(v for k, v in self.self_time.items() if k.startswith(prefixes))
