"""Penalty families on the GEV shape parameter.

Five families are provided, each evaluable as a nonnegative weight p(xi)
and as -ln p(xi):

* flat: no penalty.
* Coles-Dixon exponential: 1 for xi >= 0, a smooth penalty on (-1, 0),
  hard exclusion of xi <= -1.
* fixed beta: a beta density on (-0.5, 0.5); ships with the classic
  (6, 9), (2.5, 2.5) and (2, 3.3) hyperparameter presets.
* normal: one plus a normal density, a weak attractor that never excludes.
* data-adaptive beta: a beta density whose support and right shape
  parameter derive from an initial shape estimate, designed to favor
  values below that estimate.

Where a family assigns zero weight, -ln p is represented by a large finite
sentinel so derivative-free optimizers can still rank points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import PenaltySupportError

__all__ = [
    "SENTINEL",
    "ADAPTIVE_CHOICES",
    "NORMAL_CHOICES",
    "BETA_PRESETS",
    "FlatPenalty",
    "ColesDixonPenalty",
    "NormalPenalty",
    "FixedBetaPenalty",
    "AdaptiveBetaPenalty",
    "AdaptiveBetaRequest",
    "build_beta_adaptive",
    "parse_penalty",
]

SENTINEL = 1e300

# central-difference step of the penalty derivatives the solvers use
_PENALTY_STEP = 1e-5

# choice -> (p, c1, c2); q = p + min(|xi_hat| * c1, c2) for xi_hat <= 0
ADAPTIVE_CHOICES = {
    1: (6.0, 10.0, 5.0),
    2: (6.0, 20.0, 7.0),
    3: (6.0, 30.0, 9.0),
    4: (2.0, 10.0, 5.0),
    5: (2.0, 20.0, 7.0),
    6: (2.0, 30.0, 9.0),
}

# choice -> (mean, sd) of the attracting normal density
NORMAL_CHOICES = {
    1: (-0.5, 0.2),
    2: (-0.5, 0.1),
    3: (-0.6, 0.2),
    4: (-0.6, 0.1),
}

# named (p, q) presets for the fixed beta family on (-0.5, 0.5)
BETA_PRESETS = {
    "ms": (6.0, 9.0),
    "park": (2.5, 2.5),
    "cannon": (2.0, 3.3),
}


class _PenaltyBase:
    # open interval outside which the weight is 0
    support = (-math.inf, math.inf)
    # shapes where -ln p is continuous but its slope may jump
    kinks = ()
    # a shape around which -ln p dips and away from which it is flat, so that
    # a penalized objective can have a second minimum there; None when -ln p
    # has no such well
    well = None

    def value(self, xi: float) -> float:
        raise NotImplementedError

    def neg_log(self, xi: float) -> float:
        v = self.value(xi)
        if v <= 0.0:
            return SENTINEL
        return -math.log(v)


class _BetaBase(_PenaltyBase):
    """Shared behaviour of the beta families (fields p, q, lower, upper)."""

    @property
    def mode(self) -> float:
        return self.lower + (self.p - 1.0) / (self.p + self.q - 2.0) * (self.upper - self.lower)

    @property
    def support(self) -> tuple[float, float]:
        return (self.lower, self.upper)

    @cached_property
    def _norm(self) -> float:
        """``B(p, q) (upper - lower)**(p + q - 1)``, the beta function through
        log-gamma so that it stays finite for any p and q."""
        log_beta = math.lgamma(self.p) + math.lgamma(self.q) - math.lgamma(self.p + self.q)
        return math.exp(log_beta) * (self.upper - self.lower) ** (self.p + self.q - 1.0)

    def value(self, xi: float) -> float:
        """Beta density rescaled to the interval (lower, upper); 0 outside."""
        if not self.lower < xi < self.upper:
            return 0.0
        density = (xi - self.lower) ** (self.p - 1.0) * (self.upper - xi) ** (self.q - 1.0)
        return density / self._norm


@dataclass(frozen=True)
class FlatPenalty(_PenaltyBase):
    family = "flat"
    label = "flat"

    def value(self, xi: float) -> float:
        return 1.0

    def neg_log(self, xi: float) -> float:
        return 0.0


@dataclass(frozen=True)
class ColesDixonPenalty(_PenaltyBase):
    """exp{-lam * (1/(1+xi) - 1)**alpha} on (-1, 0); 1 above, 0 below."""

    alpha: float = 1.0
    lam: float = 1.0
    family = "cd"
    support = (-1.0, math.inf)
    kinks = (0.0,)

    def __post_init__(self):
        if self.alpha < 0 or self.lam < 0:
            raise ValueError("alpha and lambda must be nonnegative")

    @property
    def label(self) -> str:
        return f"cd:alpha={self.alpha:g},lambda={self.lam:g}"

    def value(self, xi: float) -> float:
        if xi >= 0:
            return 1.0
        if xi <= -1:
            return 0.0
        return math.exp(-self.lam * (1.0 / (1.0 + xi) - 1.0) ** self.alpha)


@dataclass(frozen=True)
class NormalPenalty(_PenaltyBase):
    """1 + normal density: attracts toward ``mean`` without excluding anything."""

    mean: float
    sd: float
    choice: int | None = None
    family = "normal"

    def __post_init__(self):
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    @classmethod
    def from_choice(cls, choice: int) -> "NormalPenalty":
        if choice not in NORMAL_CHOICES:
            raise ValueError(f"normal penalty choice must be 1..4, got {choice}")
        mean, sd = NORMAL_CHOICES[choice]
        return cls(mean, sd, choice=choice)

    @property
    def well(self) -> float:
        return self.mean

    @property
    def label(self) -> str:
        if self.choice is not None:
            return f"n.c{self.choice}"
        return f"normal:mu={self.mean:g},sd={self.sd:g}"

    def value(self, xi: float) -> float:
        z = (xi - self.mean) / self.sd
        return 1.0 + math.exp(-0.5 * z * z) / (self.sd * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class FixedBetaPenalty(_BetaBase):
    """Beta density with fixed support, (-0.5, 0.5) by default."""

    p: float
    q: float
    lower: float = -0.5
    upper: float = 0.5
    preset: str | None = None
    family = "beta_fixed"

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if self.lower >= self.upper:
            raise ValueError("lower must be below upper")

    @classmethod
    def from_preset(cls, name: str) -> "FixedBetaPenalty":
        key = name.lower()
        if key not in BETA_PRESETS:
            raise ValueError(f"unknown beta preset {name!r}; options: {sorted(BETA_PRESETS)}")
        p, q = BETA_PRESETS[key]
        return cls(p, q, preset=key)

    @property
    def label(self) -> str:
        if self.preset is not None:
            return self.preset
        return f"beta_fixed:p={self.p:g},q={self.q:g}"


@dataclass(frozen=True)
class AdaptiveBetaPenalty(_BetaBase):
    """Beta density centered by an initial shape estimate.

    Support is (xi_hat - c0, xi_hat + c0) clipped to (-1, 0.3); the right
    shape parameter grows with |xi_hat| so the density mode sits below
    xi_hat whenever xi_hat is negative.
    """

    choice: int
    xi_hat: float
    c0: float
    p: float
    q: float
    lower: float
    upper: float
    family = "beta_adaptive"

    @property
    def label(self) -> str:
        return f"b.c{self.choice}"


def build_beta_adaptive(choice: int, xi_hat: float, c0: float = 0.3) -> AdaptiveBetaPenalty:
    """Construct the data-adaptive beta penalty for a given shape estimate."""
    if choice not in ADAPTIVE_CHOICES:
        raise ValueError(f"adaptive beta choice must be 1..6, got {choice}")
    if not math.isfinite(xi_hat):
        raise ValueError("xi_hat must be finite")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    p, c1, c2 = ADAPTIVE_CHOICES[choice]
    a = min(abs(xi_hat) * c1, c2) if xi_hat <= 0 else 0.0
    lower = max(-1.0, xi_hat - c0)
    upper = min(0.3, xi_hat + c0)
    if lower >= upper:
        raise PenaltySupportError(
            f"degenerate support ({lower:g}, {upper:g}) for xi_hat={xi_hat:g}, c0={c0:g}"
        )
    return AdaptiveBetaPenalty(choice, xi_hat, c0, p, p + a, lower, upper)


def _penalty_slopes(penalty, xi: float) -> tuple[float, float]:
    """First and second derivative of ``penalty.neg_log`` at ``xi`` by
    central differences, with the step kept inside the penalty's support."""
    lo, hi = penalty.support
    h = min(_PENALTY_STEP, 0.25 * (xi - lo), 0.25 * (hi - xi))
    mid, up, down = penalty.neg_log(xi), penalty.neg_log(xi + h), penalty.neg_log(xi - h)
    return (up - down) / (2.0 * h), (up - 2.0 * mid + down) / (h * h)


@dataclass(frozen=True)
class AdaptiveBetaRequest:
    """An adaptive beta penalty before the shape estimate is known.

    Estimators accept this in place of a built penalty and call
    :meth:`build` with their initial L-moment shape estimate.
    """

    choice: int
    c0: float = 0.3
    family = "beta_adaptive"

    def __post_init__(self):
        if self.choice not in ADAPTIVE_CHOICES:
            raise ValueError(f"adaptive beta choice must be 1..6, got {self.choice}")

    @property
    def label(self) -> str:
        return f"b.c{self.choice}"

    def build(self, xi_hat: float) -> AdaptiveBetaPenalty:
        return build_beta_adaptive(self.choice, xi_hat, self.c0)


def _parse_kv(body: str, spec_name: str) -> dict[str, str]:
    out = {}
    for part in body.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {spec_name} option {part!r}; expected key=value")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_penalty(text: str):
    """Parse a penalty description like ``beta_adaptive:choice=5``.

    Grammar: ``family`` or ``family:key=value,...``.  Families: flat, cd,
    normal, beta_fixed (preset= or p=,q=), beta_adaptive (choice=, c0=).
    The named presets ms, park and cannon are accepted as shorthand.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty penalty description")
    family, _, body = text.partition(":")
    family = family.lower()

    if family in BETA_PRESETS:
        return FixedBetaPenalty.from_preset(family)
    if family == "flat":
        return FlatPenalty()
    if family == "cd":
        kv = _parse_kv(body, "cd")
        return ColesDixonPenalty(
            alpha=float(kv.pop("alpha", 1.0)), lam=float(kv.pop("lambda", 1.0))
        )
    if family == "normal":
        kv = _parse_kv(body, "normal")
        if "choice" in kv:
            return NormalPenalty.from_choice(int(kv["choice"]))
        if "mu" in kv and "sd" in kv:
            return NormalPenalty(float(kv["mu"]), float(kv["sd"]))
        raise ValueError("normal penalty needs choice=N or mu=..,sd=..")
    if family == "beta_fixed":
        kv = _parse_kv(body, "beta_fixed")
        if "preset" in kv:
            return FixedBetaPenalty.from_preset(kv["preset"])
        if "p" in kv and "q" in kv:
            return FixedBetaPenalty(float(kv["p"]), float(kv["q"]))
        raise ValueError("beta_fixed penalty needs preset=NAME or p=..,q=..")
    if family == "beta_adaptive":
        kv = _parse_kv(body, "beta_adaptive")
        if "choice" not in kv:
            raise ValueError("beta_adaptive penalty needs choice=1..6")
        return AdaptiveBetaRequest(int(kv["choice"]), c0=float(kv.get("c0", 0.3)))
    raise ValueError(f"unknown penalty family {family!r}")
