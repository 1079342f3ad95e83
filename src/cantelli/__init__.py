"""cantelli: does this event sequence occur infinitely often?

Exact window-probability backends (independent, finite Markov, latent-uniform
threshold), convergence criteria over marginal and complement-window series,
a first-occurrence characterization of P(infinitely often), Monte Carlo
cross-validation, and a brute-force enumeration oracle.
"""

__version__ = "0.1.0"

from .criteria import (
    Conclusion,
    CriterionResult,
    SweepResult,
    Verdict,
    VerdictLabel,
    classify_series,
    series_terms,
    sweep_prefix_len,
)
from .families import Constant, ExplicitList, LogPower, ModelValueError, PowerLaw, SequenceFamily
from .limsup import LimsupEstimate, TailUnionEstimate, limsup_estimate, tail_union
from .models import (
    DecayVerdict,
    EventSchedule,
    EventSequenceModel,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    NumericFaultError,
    PerLatentThresholds,
    marginal_decay_check,
)
from .montecarlo import (
    FrequencyEstimate,
    estimate_frequencies,
    estimate_tail_union,
    estimate_window_prob,
    wilson_interval,
)
from .oracle import (
    HorizonExceededError,
    TruncatedOutcomeSpace,
    build_outcome_space,
    oracle_union_prob,
    oracle_window_prob,
)
from .specfile import AnalysisDefaults, ModelSpec, SpecError, build_model, load_spec
from .windows import WindowPattern, all_complement, first_occurrence

__all__ = [
    "__version__",
    # windows
    "WindowPattern",
    "first_occurrence",
    "all_complement",
    # families
    "SequenceFamily",
    "Constant",
    "PowerLaw",
    "LogPower",
    "ExplicitList",
    "ModelValueError",
    # models
    "EventSequenceModel",
    "IndependentModel",
    "MarkovModel",
    "EventSchedule",
    "LatentUniformModel",
    "GlobalThresholds",
    "PerLatentThresholds",
    "DecayVerdict",
    "marginal_decay_check",
    "NumericFaultError",
    # criteria
    "Verdict",
    "VerdictLabel",
    "Conclusion",
    "CriterionResult",
    "SweepResult",
    "series_terms",
    "classify_series",
    "sweep_prefix_len",
    # limsup
    "TailUnionEstimate",
    "LimsupEstimate",
    "tail_union",
    "limsup_estimate",
    # montecarlo
    "FrequencyEstimate",
    "wilson_interval",
    "estimate_frequencies",
    "estimate_window_prob",
    "estimate_tail_union",
    # oracle
    "TruncatedOutcomeSpace",
    "build_outcome_space",
    "oracle_window_prob",
    "oracle_union_prob",
    "HorizonExceededError",
    # spec files
    "ModelSpec",
    "AnalysisDefaults",
    "SpecError",
    "load_spec",
    "build_model",
]
