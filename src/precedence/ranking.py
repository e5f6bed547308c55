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

A pattern is stored as one rank table, a tuple of int ranks per subset in
member order, which its builders make and its readers (``ranks`` and
:meth:`RankingPattern.rank`) read; a :class:`RankingFunction` only enters a
pattern, as the checked type a hand-built pattern is given. Every
generator is one per-subset rule: given the members of a subset, it
returns their ranks, and one builder applies it to each subset in order.
The subsets a paradox leaves unconstrained get one filler rule, ascending
by element index, which keeps the output non-weak and deterministic. A
pattern, built by hand or loaded, refuses a second function for one set.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .core import Checked, SubsetMask, check_dimension, checked_entries, subset_members
from .core import decimal_int, json_dimension, json_entries, plain_json, subset_rows
from .core import _INT_ONLY, subsets_of_size_at_least
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
        if any(type(x) is not int for x in members):
            raise DomainError(f"subset {members} has a member that is not an integer")
        if len(members) < 2 or list(members) != sorted(set(members)):
            raise DomainError(f"invalid subset {members} for a ranking function")
        pairs = tuple(sorted(self.ranks))
        if tuple(e for e, _ in pairs) != members:
            raise DomainError(f"ranks {pairs} do not cover subset {members} exactly")
        for e, r in pairs:
            if type(r) is not int:
                raise DomainError(f"rank {r!r} of member {e} in subset {members} is not an integer")
        _dense(members, tuple(r for _, r in pairs))
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


def _dense(members: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[int, ...]:
    """``ranks``, int ranks of ``members`` in member order, if their image is
    {1, ..., w}: the one check of that, for hand-built functions and loaded
    entries alike (the package's own rules make dense ranks)."""
    image = set(ranks)
    if min(image) != 1 or max(image) != len(image):
        raise DomainError(f"rank image {sorted(image)} over {members} is not dense {{1..w}}")
    return ranks


@dataclass(frozen=True)
class RankingPattern:
    """One ranking function for every subset of [m] with >= 2 members.

    ``ranks`` is one tuple of int ranks per subset, in member order, over the
    cached subset order. It is given as :class:`RankingFunction` objects, each
    checked, or handed over ``Checked``, as rank tuples keyed by subset.
    """

    m: int
    ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if type(self.ranks) is Checked:  # rank tuples keyed by the subsets of [m], checked
            by_set = self.ranks.entries
        else:
            pairs = ((fn.members, fn) for fn in self.ranks)
            by_set = checked_entries(pairs, functools.partial(_function_entry, self.m, {}))
        expected = subsets_of_size_at_least(self.m, 2)
        if len(by_set) < len(expected):  # every key is one of them, so one is missing
            missing = next(s for s in expected if s not in by_set)
            raise DomainError(f"pattern is missing subsets, first: {missing}")
        object.__setattr__(self, "ranks", tuple(map(by_set.__getitem__, expected)))

    def rank(self, subset: SubsetMask | Iterable[int], j: int) -> int:
        members = subset_members(self.m, subset)
        subsets = subsets_of_size_at_least(self.m, 2)  # sorted
        at = bisect.bisect_left(subsets, members)
        if at == len(subsets) or subsets[at] != members:
            raise DomainError(f"no ranking function for subset {members}")
        if type(j) is int and j in members:  # True == 1, but not an element
            return self.ranks[at][members.index(j)]
        raise DomainError(f"element {j!r} not in subset {members}")

    @property
    def is_weak(self) -> bool:
        return bool(self.weak_subsets())

    def weak_subsets(self) -> tuple[tuple[int, ...], ...]:
        subsets = subsets_of_size_at_least(self.m, 2)
        return tuple(s for s, ranks in zip(subsets, self.ranks) if len(set(ranks)) < len(ranks))

    # --- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its functions as :class:`~precedence.core.JsonRows`."""
        rows = zip(subsets_of_size_at_least(self.m, 2), self.ranks)
        return {"m": self.m, "functions": subset_rows("ranks", rows)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RankingPattern":
        """The pattern of a document: ``m`` checked against the cap first, then
        each entry's members and ranks once, where they enter, an entry in
        canonical form by a lookup of its set (see :func:`_function_entry`)."""
        m = json_dimension(doc)
        check = functools.partial(_function_entry, m, _canonical_names(m))
        by_set = json_entries(doc, "functions", ("set", "ranks"), check)
        try:
            return cls(m, Checked(by_set))
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


def _function_entry(m: int, names: dict, subset: object, ranks: object) -> tuple:
    """``(members, ranks)``: a subset of [m] of size >= 2, then its dense int
    ranks in member order, read off a :class:`RankingFunction` on it or a loaded
    object of integer ranks keyed by the members as decimals.

    A loaded entry in canonical form, a list of ints that is a key of ``names``
    (see :func:`_canonical_names`) and ranks keyed by exactly its names, is read
    by name; any other spelling, or a hand-built entry (``names`` is empty),
    runs the checks below."""
    try:
        named = names.get(tuple(subset)) if type(subset) is list and type(ranks) is dict else None
    except TypeError:  # an unhashable element
        named = None
    if named is not None and len(ranks) == len(named) and _INT_ONLY.issuperset(map(type, subset)):
        values = tuple(map(ranks.get, named))  # None for a name it lacks
        if _INT_ONLY.issuperset(map(type, values)):
            return tuple(subset), _dense(tuple(subset), values)
    members = subset_members(m, subset)
    if len(members) < 2:
        raise DomainError(f"invalid subset {members} for a ranking function")
    if type(ranks) is RankingFunction:  # checked when built: its members are ``subset``
        return members, tuple(r for _, r in ranks.ranks)
    if not isinstance(ranks, dict) or any(type(r) is not int for r in ranks.values()):
        raise InputFormatError(f"ranks: {ranks!r} is not an object of integers")
    keys = [decimal_int(k, "ranks") for k in ranks]
    if sorted(keys) != list(members):
        raise InputFormatError(f"ranks: keys {list(ranks)} are not the members {list(members)}")
    return members, _dense(members, tuple(r for _, r in sorted(zip(keys, ranks.values()))))


def _canonical_names(m: int) -> dict[tuple[int, ...], tuple[str, ...]]:
    """Each subset of [m] with >= 2 members, as sorted ints, to its members'
    decimal names, as a document in canonical form keys their ranks."""
    ground, sizes = range(1, m + 1), range(2, m + 1)
    names = tuple(map(str, ground))
    chain, combinations = itertools.chain.from_iterable, itertools.combinations
    sets = chain(combinations(ground, n) for n in sizes)
    return dict(zip(sets, chain(combinations(names, n) for n in sizes)))  # in step, size by size


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


def score_concordance(
    sigma: RankingPattern, score: Mapping[tuple[tuple[int, ...], int], object]
) -> ConcordanceReport:
    """Check that lower rank means strictly higher score, ties matching ties.

    ``score`` is a per-subset table keyed by ``(members, j)`` of totally
    ordered values (a family's numerators over one scale, a tally's votes),
    read once per member of each subset. One pass in rank order decides a
    subset: tied neighbours need equal scores, and the lower-ranked of two a
    strictly higher one. Only a failing subset lists its violating pairs.
    """
    violations = []
    for members, ranks in zip(subsets_of_size_at_least(sigma.m, 2), sigma.ranks):
        values = [score[(members, j)] for j in members]
        ordered = sorted(zip(ranks, values))
        if all(v == w if r == s else v > w for (r, v), (s, w) in itertools.pairwise(ordered)):
            continue
        for (i, r, v), (j, s, w) in itertools.combinations(zip(members, ranks, values), 2):
            if _relation(r, s) != _relation(w, v):  # scores must order the pair the other way
                violations.append(ConcordanceViolation(members, i, j, _relation(r, s), _relation(v, w)))
    return ConcordanceReport(tuple(violations))


def induced_pattern(fam: WinningProbabilityFamily) -> RankingPattern:
    """The ranking pattern read off a complete winning-probability family.

    Within each subset, members are ranked by descending alpha with dense
    ranks: exact ties share a rank, and rank values form {1, ..., w}.
    """
    if not fam.is_complete():
        raise DomainError("winning-probability family does not cover every subset")
    alpha = fam.numerators
    return _pattern(fam.m, lambda a: _dense_ranks([alpha[(a, j)] for j in a], best_first=True))


def check_p_concordance(
    sigma: RankingPattern, fam: WinningProbabilityFamily
) -> ConcordanceReport:
    """PASS iff ranks strictly mirror winning probabilities on every subset."""
    if sigma.m != fam.m:
        raise DomainError(f"pattern has m={sigma.m} but family has m={fam.m}")
    if not fam.is_complete():
        raise DomainError("winning-probability family does not cover every subset")
    return score_concordance(sigma, fam.numerators)


def _pattern(m: int, ranks_of: Callable[[tuple[int, ...]], tuple[int, ...]]) -> RankingPattern:
    """The pattern ranking each subset of [m] with >= 2 members, in the cached
    order, by ``ranks_of``: their ranks in member order, handed over ``Checked``."""
    return RankingPattern(m, Checked({s: ranks_of(s) for s in subsets_of_size_at_least(m, 2)}))


def _ascending_ranks(members: tuple[int, ...], order: Iterable[int]) -> tuple[int, ...]:
    """The ranks of ``members``, in member order: each one's position in
    ``order``, a permutation of them, counted from 1."""
    position = {x: pos for pos, x in enumerate(order, start=1)}
    return tuple(map(position.__getitem__, members))


def _dense_ranks(values: list, best_first: bool) -> tuple[int, ...]:
    """Dense ranks of ``values``, in their order: equal values share a rank, and
    rank 1 goes to the largest value if ``best_first``, else the smallest."""
    rank_of_value = {v: r for r, v in enumerate(sorted(set(values), reverse=best_first), start=1)}
    return tuple(map(rank_of_value.__getitem__, values))


def pattern_very_paradox(m: int) -> RankingPattern:
    """Element 1 wins every pairwise comparison yet comes last in every
    larger subset containing it.

    Subsets not containing 1 are ranked ascending by index (filler rule).
    """
    check_dimension(m)
    if m < 3:
        raise DomainError(f"the paradox needs m >= 3, got {m}")
    return _pattern(m, lambda a: _ascending_ranks(a, a[1:] + a[:1] if a[0] == 1 and len(a) > 2 else a))


def pattern_cyclic(m: int) -> RankingPattern:
    """Pairwise precedence forms the cycle 1 < 2, 2 < 3, ..., m < 1.

    Only the pair {1, m} is ranked against the filler rule, ascending by
    index, which already makes i beat i + 1.
    """
    check_dimension(m)
    if m < 3:
        raise DomainError(f"a precedence cycle needs m >= 3, got {m}")
    return _pattern(m, lambda a: _ascending_ranks(a, a[::-1] if a == (1, m) else a))


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


@functools.cache
def _rank_tuples(size: int, non_weak_only: bool) -> tuple[tuple[int, ...], ...]:
    """The rank tuples of every ranking function on ``size`` members, in
    lexicographic order: dense ones take max(values) distinct values, strict
    ones ``size``."""
    values = itertools.product(range(1, size + 1), repeat=size)
    return tuple(v for v in values if len(set(v)) == (size if non_weak_only else max(v)))


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
        subsets = subsets_of_size_at_least(m, 2)
        tables = itertools.product(*[_rank_tuples(len(s), non_weak_only) for s in subsets])
        stream = (RankingPattern(m, Checked(dict(zip(subsets, table)))) for table in tables)
    else:
        rng = random.Random(seed)

        def ranks_of(members: tuple[int, ...]) -> tuple[int, ...]:
            if non_weak_only:
                return _ascending_ranks(members, rng.sample(members, len(members)))
            # Dense-compressed random ranks: a valid, deterministic stream;
            # the distribution over weak patterns is unspecified.
            return _dense_ranks([rng.randint(1, len(members)) for _ in members], best_first=False)

        stream = (_pattern(m, ranks_of) for _ in itertools.count())
    yield from itertools.islice(stream, limit)
