"""Estimator selection by short method strings.

The grammar mirrors the row labels of comparison tables:

* ``lme``, ``mle``, ``glme`` (flat penalty)
* ``glme.b.cK`` -- adaptive beta penalty, choice K (1..6)
* ``glme.n.cK`` -- normal penalty, choice K (1..4)
* ``glme.ms`` / ``glme.park`` / ``glme.cannon`` -- fixed beta presets
* ``glme.cd`` -- exponential penalty with default hyperparameters
* ``glme.<family>:<k=v,...>`` -- anything the penalty grammar accepts
* ``gmle.<...>`` -- same penalty forms on the likelihood objective
* ``glme`` / ``gmle`` with a separate penalty description (the CLI's
  ``--penalty``), named by the penalty's label
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import estimators, nonstationary
from .errors import FIT_FAILURES, LSkewnessError, ShapeEdgeError
from .estimators import FIT_MIN_N
from .lmoments import COV_MIN_N
from .penalties import (
    AdaptiveBetaRequest,
    FlatPenalty,
    NormalPenalty,
    parse_penalty,
)

__all__ = ["MethodSpec", "parse_method"]

_SHORT_CHOICE = re.compile(r"^(b|n)\.c(\d+)$")


@dataclass(frozen=True)
class MethodSpec:
    """A parsed estimator name: the objective kind plus its penalty."""

    kind: str  # lme | mle | gmle | glme
    penalty: object
    name: str

    @property
    def supports_nonstationary(self) -> bool:
        return self.kind in ("lme", "glme")

    @property
    def min_n(self) -> int:
        """The smallest sample this method fits, stationary or trend:
        ``COV_MIN_N`` for glme, which estimates an L-moment covariance, and
        ``FIT_MIN_N`` for the others."""
        return COV_MIN_N if self.kind == "glme" else FIT_MIN_N

    def fit_stationary(self, x, cov_method: str = "bootstrap", alpha_n: float = 1.0,
                       memo: dict | None = None):
        """Fit the sample ``x``.

        ``memo`` is a dict shared by the methods fitted to the same sample.
        It keeps what they have in common, the L-moment fit and the
        covariance per ``cov_method``, so each is computed at
        most once, and only by a method that needs it.
        """

        def lme():
            return _shared(memo, "lme", lambda: estimators.fit_lme(x))

        if self.kind == "lme":
            return lme()
        if self.kind in ("mle", "gmle"):
            # the shared L-moment fit is the likelihood fits' start; where
            # its L-skewness is out of range they find their own start
            start = None
            if memo is not None:
                try:
                    start = lme()
                except LSkewnessError:
                    pass
            if self.kind == "mle":
                return estimators.fit_mle(x, lme=start)
            return estimators.fit_gmle(x, self.penalty, lme=start)
        needs_lme = memo is not None and isinstance(self.penalty, AdaptiveBetaRequest)
        shared_lme = lme() if needs_lme else None
        V = None
        if memo is not None:
            V = _shared(memo, ("cov", cov_method),
                        lambda: estimators.lmoment_cov(x, method=cov_method))
        return estimators.fit_glme(x, self.penalty, alpha_n=alpha_n, cov_method=cov_method, V=V,
                                   lme=shared_lme)

    def fit_ns(self, z, X, location_method: str = "tukey", refine: bool = False,
               alpha_n: float = 1.0, memo: dict | None = None):
        """Fit the trend model to ``z`` on covariates ``X``; ``memo`` keeps
        the trend L-moment fit per ``(location_method, refine)`` as in
        :meth:`fit_stationary`.  glme starts from that fit, or, where it
        stalls at the shape box's lower edge, from the point it stopped at."""
        if not self.supports_nonstationary:
            raise ValueError(f"method {self.name!r} is not available for covariate models")

        def lme():
            return _shared(memo, ("ns-lme", location_method, refine),
                           lambda: nonstationary.fit_ns_lme(
                               z, X, location_method=location_method, refine=refine))

        if self.kind == "lme":
            return lme()
        start = None
        if memo is not None:
            try:
                start = lme()
            except ShapeEdgeError as stall:
                start = stall.best
        return nonstationary.fit_ns_glme(
            z, X, self.penalty, alpha_n=alpha_n, location_method=location_method, refine=refine,
            lme=start,
        )


def _shared(memo: dict | None, key, compute):
    """``compute()``, at most once per ``key`` of ``memo``: later lookups
    return the kept value, or raise the kept failure again.  Without a memo,
    ``compute()`` every time."""
    if memo is None:
        return compute()
    if key not in memo:
        try:
            memo[key] = (compute(), None)
        except FIT_FAILURES as failure:
            memo[key] = (None, failure)
    value, failure = memo[key]
    if failure is not None:
        raise failure
    return value


def _penalty_from_suffix(suffix: str):
    m = _SHORT_CHOICE.match(suffix)
    if m:
        family, choice = m.group(1), int(m.group(2))
        if family == "b":
            return AdaptiveBetaRequest(choice)
        return NormalPenalty.from_choice(choice)
    return parse_penalty(suffix)


def parse_method(text: str, penalty: str = "flat") -> MethodSpec:
    """Parse a method name; ``penalty`` (the penalty grammar of
    :func:`glme.penalties.parse_penalty`) applies to a bare ``gmle`` or
    ``glme`` only, so ``parse_method("glme", "normal:choice=2")`` equals
    ``parse_method("glme.n.c2")``."""
    name = text.strip()
    if not name:
        raise ValueError("empty method name")
    head, dot, rest = name.partition(".")
    head = head.lower()
    if head == "lme":
        if rest:
            raise ValueError(f"method {name!r} takes no penalty suffix")
        return MethodSpec("lme", FlatPenalty(), "lme")
    if head == "mle":
        if rest:
            raise ValueError(f"method {name!r} takes no penalty suffix")
        return MethodSpec("mle", FlatPenalty(), "mle")
    if head in ("glme", "gmle"):
        if dot:
            return MethodSpec(head, _penalty_from_suffix(rest) if rest else FlatPenalty(), name)
        parsed = parse_penalty(penalty)
        label = head if penalty.strip() == "flat" else f"{head}.{parsed.label}"
        return MethodSpec(head, parsed, label)
    raise ValueError(f"unknown method {text!r}")
