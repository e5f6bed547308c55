"""Distributions over failure orders and the winning probabilities they induce.

A :class:`PermutationDistribution` is the joint law of the failure-order
indices (J_1, ..., J_m) over the permutations of [m]: J_r = i exactly when
component i is the r-th to fail. From it everything else follows exactly:

* prefix marginals  p_k(j_1, ..., j_k) = P(J_1 = j_1, ..., J_k = j_k),
* conditional next-failure probabilities,
* the family of winning probabilities  alpha_j(A) = P(component j fails
  first among A), for every subset A with |A| >= 2,
* the majority digraph of pairwise precedence.

Every winner count in the package (laws, voter counts, Monte Carlo counts,
load-sharing rates) sums one failed-set table: h[(S, j)] is the weight of
the orders that fail exactly the set S first and j next, and alpha_j(A)
sums h[(S, j)] over the subsets S of [m] \\ A. The table holds ints only:
counts as they are, and probabilities as integer numerators over one
common scale (:func:`integer_weights`), which every exact route
(:func:`alpha_family` and ``loadsharing.alpha_family_ls``) turns into one
Fraction per entry only at the end (:func:`family_from_table`), so no
Fraction gcd runs inside the subset sums. ``alpha_family_bruteforce``
instead scans every support permutation directly. The two take genuinely
different routes and must agree bit-for-bit; the brute-force scanner is
kept as the cross-checking oracle (CLI ``oracle``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    ONE,
    ZERO,
    SubsetMask,
    all_permutations,
    check_dimension,
    json_entries,
    json_int,
    rational_format,
    rational_parse,
    subset_members,
    subsets_of_size_at_least,
    validate_permutation,
    validate_prefix,
)
from .errors import DomainError, InputFormatError


@dataclass(frozen=True)
class PermutationDistribution:
    """Probability weights over the permutations of [m]; weights sum exactly to 1.

    Zero-weight permutations are not stored; a missing permutation means
    weight 0. Instances are immutable and safe to share.
    """

    m: int
    weights: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self) -> None:
        check_dimension(self.m)
        clean: dict[tuple[int, ...], Fraction] = {}
        for perm, value in self.weights.items():
            perm = validate_permutation(self.m, perm)
            q = value if type(value) is Fraction else Fraction(value)
            if q < 0:
                raise DomainError(f"negative weight {q} for permutation {perm}")
            if q:
                clean[perm] = q
        total = sum(clean.values(), ZERO)
        if total != 1:
            raise DomainError(f"weights sum to {total}, expected exactly 1")
        object.__setattr__(self, "weights", clean)

    def weight(self, perm: Iterable[int]) -> Fraction:
        return self.weights.get(validate_permutation(self.m, perm), ZERO)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.weights))

    @classmethod
    def uniform(cls, m: int) -> "PermutationDistribution":
        check_dimension(m)
        w = Fraction(1, math.factorial(m))
        return cls(m, {perm: w for perm in all_permutations(m)})

    @classmethod
    def point_mass(cls, perm: Iterable[int]) -> "PermutationDistribution":
        perm = tuple(perm)
        return cls(len(perm), {perm: ONE})

    def prefix_marginals(self) -> dict[tuple[int, ...], Fraction]:
        """p_k for every prefix of every support permutation, k = 1..m."""
        numerators, scale = integer_weights(self.weights)
        table: dict[tuple[int, ...], int] = {}
        for perm, n in numerators.items():
            for k in range(1, self.m + 1):
                key = perm[:k]
                table[key] = table.get(key, 0) + n
        return {key: Fraction(n, scale) for key, n in table.items()}

    # --- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "weights": [
                {"perm": list(perm), "p": rational_format(self.weights[perm])}
                for perm in self.support()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PermutationDistribution":
        m = json_int(doc, "m")
        weights = json_entries(
            doc,
            "weights",
            {"perm", "p"},
            lambda e: (validate_permutation(m, e["perm"]), rational_parse(e["p"])),
        )
        try:
            return cls(m, weights)
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


@dataclass(frozen=True)
class WinningProbabilityFamily:
    """The winning probabilities alpha_j(A), keyed by (sorted subset, j).

    Not required to cover every subset of [m]: hand-built families over a
    few pairs are legal. For every subset that is present, all of its
    members must be present and their alphas must sum exactly to 1.
    """

    m: int
    alphas: Mapping[tuple[tuple[int, ...], int], Fraction]

    def __post_init__(self) -> None:
        check_dimension(self.m)
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        groups: dict[tuple[int, ...], Fraction] = {}
        seen: dict[tuple[int, ...], set[int]] = {}
        for (subset, j), value in self.alphas.items():
            members = subset_members(self.m, subset)
            if len(members) < 2:
                raise DomainError(f"subset {members} has fewer than two members")
            if j not in members:
                raise DomainError(f"index {j} not in subset {members}")
            q = value if type(value) is Fraction else Fraction(value)
            if not 0 <= q <= 1:
                raise DomainError(f"alpha_{j}({members}) = {q} outside [0, 1]")
            clean[(members, j)] = q
            groups[members] = groups.get(members, ZERO) + q
            seen.setdefault(members, set()).add(j)
        for members, total in groups.items():
            if seen[members] != set(members):
                raise DomainError(f"incomplete entries for subset {members}")
            if total != 1:
                raise DomainError(f"alphas over {members} sum to {total}, expected 1")
        object.__setattr__(self, "alphas", clean)

    def alpha(self, subset: SubsetMask | Iterable[int], j: int) -> Fraction:
        members = subset_members(self.m, subset)
        try:
            return self.alphas[(members, j)]
        except KeyError:
            raise DomainError(f"no entry for alpha_{j}({members})") from None

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({members for members, _ in self.alphas}))

    def is_complete(self) -> bool:
        # every subset present has all of its members, so counting entries suffices
        return len(self.alphas) == sum(map(len, subsets_of_size_at_least(self.m, 2)))

    def to_json_list(self) -> list[dict]:
        return [
            {
                "set": list(members),
                "alpha": {str(j): rational_format(self.alphas[(members, j)]) for j in members},
            }
            for members in self.sets()
        ]


@dataclass(frozen=True)
class MajorityDigraph:
    """Digraph on [m] with arc (i, j) when i beats-or-ties j pairwise."""

    m: int
    edges: frozenset[tuple[int, int]]

    def to_json_dict(self) -> dict:
        return {"m": self.m, "edges": [list(e) for e in sorted(self.edges)]}


def pk_marginal(rho: PermutationDistribution, prefix: Iterable[int]) -> Fraction:
    """Probability that the failure order starts with exactly ``prefix``."""
    prefix = validate_prefix(rho.m, prefix)
    if not prefix:
        raise DomainError("prefix must be non-empty")
    k = len(prefix)
    total = ZERO
    for perm, p in rho.weights.items():
        if perm[:k] == prefix:
            total += p
    return total


def conditional_next(
    rho: PermutationDistribution, prefix: Iterable[int], j: int
) -> Fraction:
    """P(J_{k+1} = j | the first k failures were ``prefix``), with 0/0 := 0."""
    prefix = validate_prefix(rho.m, prefix)
    if j in prefix:
        raise DomainError(f"index {j} already in prefix {prefix}")
    validate_prefix(rho.m, prefix + (j,))
    denom = pk_marginal(rho, prefix) if prefix else ONE
    if denom == 0:
        return ZERO
    return pk_marginal(rho, prefix + (j,)) / denom


def integer_weights(
    weights: Mapping[tuple[int, ...], Fraction]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Numerators of ``weights`` over the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(w.denominator for w in weights.values()))
    return {k: w.numerator * (scale // w.denominator) for k, w in weights.items()}, scale


def failed_set_table(
    orders: Iterable[tuple[tuple[int, ...], int]]
) -> dict[tuple[int, int], int]:
    """h[(S, j)]: total weight of the orders that fail exactly S first and j next.

    S is a bit mask (bit i-1 for component i). Only the first m-1 positions
    of an order are read: a set S of m-1 failures leaves no subset of two
    members to win, so :func:`winner_sums` never asks for it.
    """
    h: dict[tuple[int, int], int] = {}
    for perm, w in orders:
        failed = 0
        for j in perm[:-1]:
            h[(failed, j)] = h.get((failed, j), 0) + w
            failed |= 1 << (j - 1)
    return h


def winner_sums(
    m: int, h: Mapping[tuple[int, int], int]
) -> dict[tuple[tuple[int, ...], int], int]:
    """Sum h[(S, j)] over the subsets S of [m] \\ A, for every |A| >= 2 and j in A.

    With h from :func:`failed_set_table` this is the weight of the orders in
    which j fails first among A; an entry no order reaches is 0.
    """
    out: dict[tuple[tuple[int, ...], int], int] = {}
    full = (1 << m) - 1
    for members in subsets_of_size_at_least(m, 2):
        outside = full ^ sum(1 << (j - 1) for j in members)
        for j in members:
            total = 0
            s = outside
            while True:
                total += h.get((s, j), 0)
                if s == 0:
                    break
                s = (s - 1) & outside
            out[(members, j)] = total
    return out


def family_from_table(
    m: int, h: Mapping[tuple[int, int], int], scale: int
) -> WinningProbabilityFamily:
    """The winning probabilities of a failed-set table of numerators over ``scale``.

    The subset sums run on ints; each entry becomes a Fraction only here.
    """
    sums = winner_sums(m, h)
    return WinningProbabilityFamily(m, {key: Fraction(n, scale) for key, n in sums.items()})


def alpha_family(rho: PermutationDistribution) -> WinningProbabilityFamily:
    """All winning probabilities of ``rho``, from its failed-set table.

    Integer numerators over the lcm of the weight denominators throughout.
    """
    numerators, scale = integer_weights(rho.weights)
    return family_from_table(rho.m, failed_set_table(numerators.items()), scale)


def alpha_family_bruteforce(rho: PermutationDistribution) -> WinningProbabilityFamily:
    """Winning probabilities by scanning every support permutation directly.

    Independent oracle for :func:`alpha_family`: for each permutation the
    winner in A is simply the earliest-listed member of A.
    """
    m = rho.m
    subsets = subsets_of_size_at_least(m, 2)
    alphas: dict[tuple[tuple[int, ...], int], Fraction] = {
        (members, j): ZERO for members in subsets for j in members
    }
    for perm, p in rho.weights.items():
        for members in subsets:
            inside = set(members)
            winner = next(x for x in perm if x in inside)
            alphas[(members, winner)] += p
    return WinningProbabilityFamily(m, alphas)


def majority_digraph(fam: WinningProbabilityFamily) -> MajorityDigraph:
    """Arcs (i, j) with alpha_i({i,j}) >= alpha_j({i,j}); ties keep both arcs."""
    edges = set()
    for i in range(1, fam.m + 1):
        for j in range(i + 1, fam.m + 1):
            ai = fam.alpha((i, j), i)
            aj = fam.alpha((i, j), j)
            if ai >= aj:
                edges.add((i, j))
            if aj >= ai:
                edges.add((j, i))
    return MajorityDigraph(fam.m, frozenset(edges))
