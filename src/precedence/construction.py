"""Constructing load-sharing models: inversion and concordance synthesis.

Two constructions live here.

:func:`invert_to_ls` turns an arbitrary failure-order distribution into an
order-dependent load-sharing model realizing it exactly. With w(prefix)
the prefix marginal of the target distribution, the rates are

    mu_j(empty)               = w(j),
    mu_j(i_1, ..., i_k)       = w(i_1, ..., i_k, j) / w(i_1, ..., i_k)
                                for k = 1..m-2, with 0/0 := 0,
    mu_j(any length-(m-1) prefix) = 1.

Every total then telescopes to 1 on the support and the prefix products
reproduce the target weights bit-for-bit. Off-support prefixes get rate 0;
the last level is irrelevant to the induced law and fixed to 1.

:func:`build_ls_epsilon` realizes any tie-free ranking pattern: with a
schedule eps the survivor set A gets rates

    mu_i([m] \\ A) = 1 - (sigma(A, i) - 1) * eps(|A|),

so better-ranked members fail marginally faster, uniformly in A. The
universal schedule eps(l) = (17 * m * m!)^(1-l) satisfies the sufficient
condition

    (m-l)! (l-1)! / (2 m!) * eps(l)  >  8 l * eps(l+1),   l = 1..m-1,

under which the built model's winning probabilities are provably
concordant with the pattern; :func:`certify_concordance` checks the claim
by exact computation and bundles the evidence into a machine-checkable
certificate. It builds one rate row per subset size, and keeps the winning
probabilities as integer numerators over one scale from the set DP to the
printed certificate: the concordance check compares ints.

Note on level 1: stored schedules have eps(1) = 0 (singleton survivor
sets always get rate 1), yet the l = 1 inequality above would then be
unsatisfiable. The universal schedule's formula value at l = 1 is 1, and
that is what the level-1 check uses; it amounts to eps(2) < 1/(16 m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import ONE, ZERO, Checked, check_dimension, plain_json, rational_format
from .core import subsets_of_size_at_least
from .errors import DomainError
from .loadsharing import (
    EpsilonSchedule,
    OrderDependentLSModel,
    SetInvariantLSModel,
    alpha_family_ls,
)
from .permdist import PermutationDistribution, WinningProbabilityFamily
from .ranking import ConcordanceReport, RankingPattern, check_p_concordance

def invert_to_ls(rho: PermutationDistribution) -> OrderDependentLSModel:
    """Order-dependent model whose failure-order law is exactly ``rho``.

    The rates are handed over as ``Checked`` rows: each key is a prefix of
    one of the law's checked permutations, or an (m-1)-permutation, and each
    row is complete, its numerators w(prefix + j) over the scale w(prefix),
    which is also their total. No Fraction or gcd is computed, and the
    model checks no entry again. The m! last-level rows share one row per
    last survivor.
    """
    m = rho.m
    if m < 2:
        raise DomainError(f"inversion needs m >= 2, got m={m}")
    w = rho.prefix_marginals()
    marginal = w.numerators.get
    rows = {}
    # integer marginals over the law's scale, all of it at the empty prefix
    for prefix, mass in itertools.chain([((), w.scale)], w.numerators.items()):
        if len(prefix) <= m - 2:
            survivors = (j for j in range(1, m + 1) if j not in prefix)
            rows[prefix] = ({j: marginal(prefix + (j,), 0) for j in survivors}, mass, mass)
    last = {j: ({j: 1}, 1, 1) for j in range(1, m + 1)}
    ground_sum = m * (m + 1) // 2
    for prefix in itertools.permutations(range(1, m + 1), m - 1):
        rows[prefix] = last[ground_sum - sum(prefix)]
    return OrderDependentLSModel(m, Checked(rows), default=ZERO)


def epsilon_schedule(m: int) -> EpsilonSchedule:
    """The universal schedule eps(l) = (17 * m * m!)^(1-l), eps(1) = 0."""
    check_dimension(m)
    if m < 2:
        raise DomainError(f"schedule needs m >= 2, got m={m}")
    base = 17 * m * math.factorial(m)
    eps = [ZERO] + [Fraction(1, base ** (level - 1)) for level in range(2, m + 1)]
    return EpsilonSchedule(m, tuple(eps))


@dataclass(frozen=True)
class EpsilonLevelCheck:
    level: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs > self.rhs

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "lhs": rational_format(self.lhs),
            "rhs": rational_format(self.rhs),
            "slack": rational_format(self.slack),
            "verdict": "PASS" if self.passed else "FAIL",
        }


@dataclass(frozen=True)
class EpsilonConditionReport:
    m: int
    levels: tuple[EpsilonLevelCheck, ...]
    eps2_small: bool
    decay_holds: bool

    @property
    def passed(self) -> bool:
        return self.eps2_small and self.decay_holds and all(c.passed for c in self.levels)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "verdict": self.verdict,
            "levels": [c.to_json_dict() for c in self.levels],
            "eps2_below_quarter": self.eps2_small,
            "rho_decay": self.decay_holds,
        }


def check_epsilon_condition(eps: EpsilonSchedule) -> EpsilonConditionReport:
    """Exactly evaluate the separation inequality at every level.

    Levels l = 1..m-1 require (m-l)!(l-1)!/(2 m!) * eps(l) > 8 l * eps(l+1),
    with eps(1) read as 1 (see the module note). Also verified: the two
    conditions of :meth:`EpsilonSchedule.decay_conditions`, eps(2) < 1/4 and
    the rho decay, which the separation inequality is meant to imply.
    """
    m = eps.m
    levels = []
    for level in range(1, m):
        e = ONE if level == 1 else eps.value(level)
        lhs = Fraction(
            math.factorial(m - level) * math.factorial(level - 1), 2 * math.factorial(m)
        ) * e
        rhs = 8 * level * eps.value(level + 1)
        levels.append(EpsilonLevelCheck(level, lhs, rhs))
    return EpsilonConditionReport(m, tuple(levels), *eps.decay_conditions())


def build_ls_epsilon(sigma: RankingPattern, eps: EpsilonSchedule) -> SetInvariantLSModel:
    """The set-invariant model with rates 1 - (sigma(A, i) - 1) * eps(|A|).

    Requires a tie-free pattern: a tied subset would need two survivors
    with identical rates, which destroys the strict concordance the
    construction exists to produce. Singleton survivor sets get rate 1.
    """
    if sigma.m != eps.m:
        raise DomainError(f"pattern has m={sigma.m} but schedule has m={eps.m}")
    if sigma.is_weak:
        raise DomainError(
            f"pattern has tied ranks on subset {sigma.weak_subsets()[0]}; "
            "the schedule construction needs a tie-free pattern"
        )
    m = sigma.m
    rows = {(i,): ({i: 1}, 1, 1) for i in range(1, m + 1)}
    # by size l: the numerators of the ranks r = 1..l, q - (r - 1) p over the scale q of
    # eps(l) = p / q, positive by the schedule's check, and their total
    sizes = {}
    for level in range(2, m + 1):
        p, q = eps.value(level).as_integer_ratio()
        numerators = [q - r * p for r in range(level)]
        sizes[level] = numerators, sum(numerators), q
    # sigma.functions follows the lexicographic order of the subsets with |A| >= 2
    for members, fn in zip(subsets_of_size_at_least(m, 2), sigma.functions):
        numerators, total, scale = sizes[len(members)]
        rows[members] = ({i: numerators[rank - 1] for i, rank in fn.ranks}, total, scale)
    return SetInvariantLSModel(m, Checked(rows), epsilon=eps)  # keys: the cached subset tuples


@dataclass(frozen=True)
class ConcordanceCertificate:
    """Machine-checkable evidence that a built model realizes a pattern;
    the schedule is the model's ``epsilon``."""

    sigma: RankingPattern
    model: SetInvariantLSModel
    alphas: WinningProbabilityFamily
    report: ConcordanceReport

    @property
    def verdict(self) -> str:
        return self.report.verdict

    @property
    def passed(self) -> bool:
        return self.report.passed

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its tables as :class:`~precedence.core.JsonRows`."""
        return {
            "m": self.sigma.m,
            "verdict": self.verdict,
            "pattern": self.sigma._json_doc(),
            "epsilon": self.model.epsilon.to_json_list(),
            "model": self.model._json_doc(),
            "alpha": self.alphas._json_rows(),
            "violations": [v.to_json_dict() for v in self.report.violations],
        }


def certify_concordance(
    sigma: RankingPattern, eps: EpsilonSchedule | None = None
) -> ConcordanceCertificate:
    """Build the schedule model for ``sigma`` and verify concordance exactly.

    Uses the universal schedule by default, which passes the sufficient
    condition of :func:`check_epsilon_condition`. Any other valid schedule
    is accepted too and the exact verdict decides: a schedule that fails
    that condition may still realize the pattern.
    """
    if eps is None:
        eps = epsilon_schedule(sigma.m)
    model = build_ls_epsilon(sigma, eps)
    alphas = alpha_family_ls(model)
    report = check_p_concordance(sigma, alphas)
    return ConcordanceCertificate(sigma, model, alphas, report)
