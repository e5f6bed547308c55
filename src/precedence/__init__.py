"""Exact-arithmetic toolkit for stochastic precedence and its paradoxes.

The package models which of m components fails first, exactly: permutation
distributions of failure orders and their winning probabilities, ranking
patterns and concordance, order-dependent load-sharing models (including
the inversion of any distribution into one, and the construction of a
model concordant with any tie-free ranking pattern), voting situations,
probability signatures of coherent systems, and a reproducible Monte
Carlo cross-check. All probabilities are arbitrary-precision rationals.
"""

from .construction import (
    ConcordanceCertificate,
    EpsilonConditionReport,
    build_ls_epsilon,
    certify_concordance,
    check_epsilon_condition,
    epsilon_schedule,
    invert_to_ls,
)
from .core import (
    SubsetMask,
    enumerate_d,
    rational_format,
    rational_parse,
)
from .errors import (
    DomainError,
    InfeasibleTargetError,
    InputFormatError,
    InvalidModelError,
    PrecedenceError,
    RationalParseError,
    ScheduleError,
    SimulationError,
)
from .loadsharing import (
    EpsilonSchedule,
    OrderDependentLSModel,
    PrefixBoundsReport,
    SetInvariantLSModel,
    alpha_family_ls,
    beta_gamma_split,
    check_prefix_bounds,
    distribution_of,
    prefix_probability,
    total_rate,
)
from .montecarlo import (
    SimulationSummary,
    Trajectory,
    estimate_alphas,
    sample_trajectories,
)
from .permdist import (
    PermutationDistribution,
    WinningProbabilityFamily,
    alpha_family,
    alpha_family_bruteforce,
)
from .ranking import (
    ConcordanceReport,
    RankingFunction,
    RankingPattern,
    check_p_concordance,
    enumerate_patterns,
    induced_pattern,
    pattern_count,
    pattern_cyclic,
    pattern_very_paradox,
)
from .signature import (
    ProbabilitySignature,
    StructureFunction,
    failure_step,
    ls_for_target_signature,
    probability_signature,
    signature_from_ls,
)
from .voting import (
    TallyTable,
    VotingSituation,
    check_n_concordance,
    synthesize_voting_situation,
    tally,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
