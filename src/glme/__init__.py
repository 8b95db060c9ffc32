"""GEV fitting by penalty-weighted L-moment distance, for stationary and
trend-bearing annual-maximum series, with a Monte Carlo comparison harness
and a command-line interface."""

from .errors import (
    ConvergenceError,
    DegenerateDataError,
    LSkewnessError,
    PenaltySupportError,
    TransformError,
)
from .estimators import FitResult, fit_glme, fit_gmle, fit_lme, fit_mle, profile_xi
from .gev import (
    GevParams,
    ReturnSpec,
    gev_cdf,
    gev_pdf,
    gev_quantile,
    gev_sample,
    gev_support,
    return_level,
)
from .lmoments import (
    GUMBEL_LMOMENTS,
    CovMatrix3,
    LMomentTriple,
    gev_population_lmoments,
    gld,
    gumbel_lmoment_cov,
    gumbel_population_lmoments,
    lmoment_cov,
    sample_lmoments,
)
from .penalties import (
    AdaptiveBetaPenalty,
    AdaptiveBetaRequest,
    ColesDixonPenalty,
    FixedBetaPenalty,
    FlatPenalty,
    NormalPenalty,
    build_beta_adaptive,
    parse_penalty,
)

__version__ = "0.1.0"
