"""Ranking patterns: one (possibly tied) ranking per subset of [m].

A ranking function on a subset A maps each member to a rank so that the
image is exactly {1, ..., w} for some w <= |A| (dense ranks: ties share a
rank and the next rank is consecutive). A ranking pattern assigns one
ranking function to every subset with at least two members; it is *weak*
when any of its functions has a tie. Patterns generalize majority graphs:
the pair functions are exactly the arcs ((i, j) iff i's rank on {i, j} is
at most j's, so a tie keeps both), and :func:`induced_pattern` carries them.

This module derives patterns from winning probabilities, checks
concordance (ranks must strictly mirror the probability order, ties
included), generates the classic paradoxical patterns, and enumerates or
samples pattern space for exhaustive testing.

Every generator is one per-subset rule: given the members of a subset, it
returns their ranks, and one builder applies it to each subset in order.
The subsets a paradox leaves unconstrained get one filler rule, ascending
by element index, which keeps the output non-weak and deterministic. A
pattern, built by hand or loaded, refuses a second function for one set.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .core import Checked, SubsetMask, check_dimension, checked_entries, subset_members
from .core import decimal_int, json_dimension, json_entries, subsets_of_size_at_least
from .errors import DomainError, InputFormatError
from .permdist import WinningProbabilityFamily


@dataclass(frozen=True)
class RankingFunction:
    """Dense ranks of the members of one subset; hashable and immutable.

    ``ranks`` is stored as ((element, rank), ...) sorted by element.
    """

    members: tuple[int, ...]
    ranks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if type(self.ranks) is Checked:  # from the loader: members and integer ranks checked
            pairs = self.ranks.entries
        else:
            if any(type(x) is not int for x in members):
                raise DomainError(f"subset {members} has a member that is not an integer")
            if len(members) < 2 or list(members) != sorted(set(members)):
                raise DomainError(f"invalid subset {members} for a ranking function")
            pairs = tuple(sorted(self.ranks))
            if tuple(e for e, _ in pairs) != members:
                raise DomainError(f"ranks {pairs} do not cover subset {members} exactly")
            for e, r in pairs:
                if type(r) is not int:
                    raise DomainError(
                        f"rank {r!r} of member {e} in subset {members} is not an integer"
                    )
        image = {r for _, r in pairs}
        w = max(image)
        if image != set(range(1, w + 1)):
            raise DomainError(
                f"rank image {sorted(image)} over {members} is not dense {{1..w}}"
            )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "ranks", pairs)

    @classmethod
    def of(cls, members: Iterable[int], ranks: Mapping[int, int]) -> "RankingFunction":
        members = tuple(sorted(members))
        missing = [e for e in members if e not in ranks]
        if missing:
            raise DomainError(f"no rank assigned to {missing} in subset {members}")
        return cls(members, tuple((e, ranks[e]) for e in members))

    def rank(self, j: int) -> int:
        for e, r in self.ranks:
            if e == j and type(j) is int:  # True == 1, but not an element
                return r
        raise DomainError(f"element {j!r} not in subset {self.members}")

    @property
    def is_weak(self) -> bool:
        return len({r for _, r in self.ranks}) < len(self.members)


@dataclass(frozen=True)
class RankingPattern:
    """One ranking function for every subset of [m] with >= 2 members."""

    m: int
    functions: tuple[RankingFunction, ...]
    _by_set: Mapping[tuple[int, ...], RankingFunction] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_dimension(self.m)
        expected = subsets_of_size_at_least(self.m, 2)
        if type(self.functions) is Checked:  # one function per set of [m], checked
            by_set = self.functions.entries
        else:
            pairs = ((fn.members, fn) for fn in self.functions)
            by_set = checked_entries(pairs, functools.partial(_function_entry, self.m))
        # every key is a subset of [m] with >= 2 members, so none can be extra
        missing = [s for s in expected if s not in by_set]
        if missing:
            raise DomainError(f"pattern is missing subsets, first: {missing[0]}")
        object.__setattr__(self, "functions", tuple(by_set[s] for s in expected))
        object.__setattr__(self, "_by_set", by_set)

    def function(self, subset: SubsetMask | Iterable[int]) -> RankingFunction:
        members = subset_members(self.m, subset)
        try:
            return self._by_set[members]
        except KeyError:
            raise DomainError(f"no ranking function for subset {members}") from None

    def rank(self, subset: SubsetMask | Iterable[int], j: int) -> int:
        return self.function(subset).rank(j)

    @property
    def is_weak(self) -> bool:
        return any(fn.is_weak for fn in self.functions)

    def weak_subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(fn.members for fn in self.functions if fn.is_weak)

    # --- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "functions": [
                {
                    "set": list(fn.members),
                    "ranks": {str(e): r for e, r in fn.ranks},
                }
                for fn in self.functions
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RankingPattern":
        """The pattern of a document: ``m`` checked against the cap first, then
        each entry's members and ranks once, where they enter."""
        m = json_dimension(doc)
        check = functools.partial(_function_entry, m)
        fns = json_entries(doc, "functions", ("set", "ranks"), check)
        try:
            return cls(m, Checked(fns))
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


def _function_entry(m: int, subset: object, ranks: object) -> tuple:
    """``(members, fn)``: a subset of [m] of size >= 2, then a :class:`RankingFunction`
    on it, or a loaded object of integer ranks keyed by the members as decimals."""
    members = subset_members(m, subset)
    if len(members) < 2:
        raise DomainError(f"invalid subset {members} for a ranking function")
    if type(ranks) is RankingFunction:  # built by hand: its members are ``subset``
        return members, ranks
    if not isinstance(ranks, dict) or any(type(r) is not int for r in ranks.values()):
        raise InputFormatError(f"ranks: {ranks!r} is not an object of integers")
    keys = [decimal_int(k, "ranks") for k in ranks]
    if sorted(keys) != list(members):
        raise InputFormatError(f"ranks: keys {list(ranks)} are not the members {list(members)}")
    return members, RankingFunction(members, Checked(tuple(sorted(zip(keys, ranks.values())))))


@dataclass(frozen=True)
class ConcordanceViolation:
    subset: tuple[int, ...]
    i: int
    j: int
    rank_relation: str
    score_relation: str

    def to_json_dict(self) -> dict:
        return {
            "set": list(self.subset),
            "i": self.i,
            "j": self.j,
            "ranks": f"sigma(A,{self.i}) {self.rank_relation} sigma(A,{self.j})",
            "scores": f"score({self.i}) {self.score_relation} score({self.j})",
        }


@dataclass(frozen=True)
class ConcordanceReport:
    violations: tuple[ConcordanceViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [v.to_json_dict() for v in self.violations],
        }


def _relation(a, b) -> str:
    return "<" if a < b else (">" if a > b else "=")


_OPPOSITE = {"<": ">", ">": "<", "=": "="}


def score_concordance(
    sigma: RankingPattern, score: Mapping[tuple[tuple[int, ...], int], object]
) -> ConcordanceReport:
    """Check that lower rank means strictly higher score, ties matching ties.

    ``score`` is a per-subset table keyed by ``(members, j)`` of totally
    ordered values (a family's numerators over one scale, a tally's votes),
    read once per member of each subset.
    """
    violations = []
    for fn in sigma.functions:
        members = fn.members
        rank = dict(fn.ranks)
        value = {j: score[(members, j)] for j in members}
        for i, j in itertools.combinations(members, 2):
            rank_rel = _relation(rank[i], rank[j])
            score_rel = _relation(value[i], value[j])
            if score_rel != _OPPOSITE[rank_rel]:
                violations.append(
                    ConcordanceViolation(members, i, j, rank_rel, score_rel)
                )
    return ConcordanceReport(tuple(violations))


def induced_pattern(fam: WinningProbabilityFamily) -> RankingPattern:
    """The ranking pattern read off a complete winning-probability family.

    Within each subset, members are ranked by descending alpha with dense
    ranks: exact ties share a rank, and rank values form {1, ..., w}.
    """
    if not fam.is_complete():
        raise DomainError("winning-probability family does not cover every subset")
    return _pattern(
        fam.m,
        lambda members: _dense_ranks(
            {j: fam.numerators[(members, j)] for j in members}, best_first=True
        ),
    )


def check_p_concordance(
    sigma: RankingPattern, fam: WinningProbabilityFamily
) -> ConcordanceReport:
    """PASS iff ranks strictly mirror winning probabilities on every subset."""
    if sigma.m != fam.m:
        raise DomainError(f"pattern has m={sigma.m} but family has m={fam.m}")
    if not fam.is_complete():
        raise DomainError("winning-probability family does not cover every subset")
    return score_concordance(sigma, fam.numerators)


def _pattern(m: int, ranks_of: Callable[[tuple[int, ...]], Mapping[int, int]]) -> RankingPattern:
    """The pattern ranking every subset of [m] with >= 2 members by ``ranks_of``.

    ``ranks_of`` is called once per subset, in the cached subset order, and
    the functions are handed over ``Checked``, keyed by those subsets.
    """
    subsets = subsets_of_size_at_least(m, 2)
    return RankingPattern(m, Checked({s: RankingFunction.of(s, ranks_of(s)) for s in subsets}))


def _ascending_ranks(order: Iterable) -> dict:
    """The rank of each element of ``order``: its position, counted from 1."""
    return {x: pos for pos, x in enumerate(order, start=1)}


def _dense_ranks(values: Mapping[int, object], best_first: bool) -> dict[int, int]:
    """Dense ranks of the keys of ``values``: equal values share a rank, and
    rank 1 goes to the largest value if ``best_first``, else the smallest."""
    rank_of_value = _ascending_ranks(sorted(set(values.values()), reverse=best_first))
    return {j: rank_of_value[v] for j, v in values.items()}


def pattern_very_paradox(m: int) -> RankingPattern:
    """Element 1 wins every pairwise comparison yet comes last in every
    larger subset containing it.

    Subsets not containing 1 are ranked ascending by index (filler rule).
    """
    check_dimension(m)
    if m < 3:
        raise DomainError(f"the paradox needs m >= 3, got {m}")
    return _pattern(
        m,
        lambda members: _ascending_ranks(
            members[1:] + members[:1] if members[0] == 1 and len(members) > 2 else members
        ),
    )


def pattern_cyclic(m: int) -> RankingPattern:
    """Pairwise precedence forms the cycle 1 < 2, 2 < 3, ..., m < 1.

    Only the pair {1, m} is ranked against the filler rule, ascending by
    index, which already makes i beat i + 1.
    """
    check_dimension(m)
    if m < 3:
        raise DomainError(f"a precedence cycle needs m >= 3, got {m}")
    return _pattern(
        m, lambda members: _ascending_ranks(members[::-1] if members == (1, m) else members)
    )


def fubini(n: int) -> int:
    """Number of ordered set partitions of n elements (= ranking functions)."""
    a = [1] + [0] * n
    for k in range(1, n + 1):
        a[k] = sum(math.comb(k, i) * a[k - i] for i in range(1, k + 1))
    return a[n]


def pattern_count(m: int, non_weak_only: bool) -> int:
    """How many ranking patterns exist over [m]."""
    total = 1
    for size in range(2, m + 1):
        per_subset = math.factorial(size) if non_weak_only else fubini(size)
        total *= per_subset ** math.comb(m, size)
    return total


def _ranking_functions_of(members: tuple[int, ...], non_weak_only: bool):
    """All ranking functions on one subset, in lexicographic rank-tuple order.

    A rank tuple is dense when it takes max(values) distinct values, and
    strict when it takes len(members) of them.
    """
    size = len(members)
    return [
        RankingFunction(members, tuple(zip(members, values)))
        for values in itertools.product(range(1, size + 1), repeat=size)
        if len(set(values)) == (size if non_weak_only else max(values))
    ]


def enumerate_patterns(
    m: int,
    non_weak_only: bool = False,
    *,
    seed: int | None = None,
    limit: int | None = None,
) -> Iterator[RankingPattern]:
    """Exhaustive pattern stream for m <= 3, or a seeded sampling stream.

    Without ``seed``: yields every pattern exactly once (refused for
    m >= 4, where the count is astronomical; the error reports it).
    With ``seed``: an endless deterministic stream of patterns; strict
    rankings are drawn uniformly per subset when ``non_weak_only``. Pass
    ``limit`` to stop after that many.
    """
    check_dimension(m)
    if m < 2:
        raise DomainError("patterns need m >= 2")
    if limit is not None and (type(limit) is not int or limit < 0):
        raise DomainError(f"limit must be a non-negative integer, got {limit!r}")
    if seed is not None and type(seed) is not int:
        raise DomainError(f"seed must be an int, got {seed!r}")
    if seed is not None and seed < 0:  # random.Random would seed from its absolute value
        raise DomainError(f"seed must be non-negative, got {seed}")

    if seed is None:
        if m > 3:
            raise DomainError(
                f"exhaustive enumeration refused for m={m}: "
                f"{pattern_count(m, non_weak_only)} patterns; use a sampling seed"
            )
        choices = [
            _ranking_functions_of(members, non_weak_only)
            for members in subsets_of_size_at_least(m, 2)
        ]
        stream = (RankingPattern(m, combo) for combo in itertools.product(*choices))
    else:
        rng = random.Random(seed)

        def ranks_of(members: tuple[int, ...]) -> dict[int, int]:
            if non_weak_only:
                return _ascending_ranks(rng.sample(members, len(members)))
            # Dense-compressed random ranks: a valid, deterministic stream;
            # the distribution over weak patterns is unspecified.
            draws = {x: rng.randint(1, len(members)) for x in members}
            return _dense_ranks(draws, best_first=False)

        stream = (_pattern(m, ranks_of) for _ in itertools.count())
    yield from itertools.islice(stream, limit)
