"""Distributions over failure orders and the winning probabilities they induce.

A :class:`PermutationDistribution` is the joint law of the failure-order
indices (J_1, ..., J_m) over the permutations of [m]: J_r = i exactly when
component i is the r-th to fail. From it everything else follows exactly:

* prefix marginals  p_k(j_1, ..., j_k) = P(J_1 = j_1, ..., J_k = j_k); the
  conditional next-failure probabilities are ratios of two of them, and
  they are the rates ``construction.invert_to_ls`` returns,
* the family of winning probabilities  alpha_j(A) = P(component j fails
  first among A), for every subset A with |A| >= 2.

Every winner count in the package (laws, voter counts, Monte Carlo counts,
load-sharing rates) sums one failed-set table: h[(S, j)] is the weight of
the orders that fail exactly the set S first and j next, and alpha_j(A)
sums h[(S, j)] over the subsets S of [m] \\ A: one subset-sum (zeta)
transform per j (:func:`winner_sums`), run with Python int adds on a plain
list, so no exact route needs numpy. The table holds ints only: counts
as they are, and probabilities as the integer numerators over one scale
that both value classes, a law and a family, store in one form and every
reader takes: a value built from fractions lifts them to the lcm of their
reduced denominators (``_over_one_scale``), one from numerators keeps them.
So every exact route (:func:`alpha_family` and
``loadsharing.alpha_family_ls``) runs on ints from a law's numerators to its
family's (:func:`family_from_table`). The cross-checking oracle (CLI
``oracle``), ``alpha_family_bruteforce``, shares no code with the table: an
order credits each member x with its integer numerator in every subset
{x} | T, T a non-empty bit submask of the members failing after x. The two
routes must agree bit-for-bit.

The value classes check numerators: signs, 0 <= n <= scale for an alpha,
and each sum to the scale. Each runs its one entry check on every entry,
built by hand or loaded (``core.checked_entries``), and refuses two keys
that name one entry. A law read from a document checks ``m`` against the
cap first, then each permutation once, and reads each weight once into the
integers it spells; the same lift keeps their numerators over the scale of
the law built from the same Fractions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add

from .core import (
    ONE,
    ZERO,
    Checked,
    JsonRows,
    SubsetMask,
    _literal_ints,
    _too_many_digits,
    as_fraction,
    bit_mask,
    check_dimension,
    checked_entries,
    json_dimension,
    json_entries,
    rational_format,
    subset_members,
    subset_rows,
    subsets_of_size_at_least,
    validate_permutation,
)
from .errors import DomainError, InputFormatError


@dataclass(frozen=True, eq=False)
class PermutationDistribution:
    """Probability weights over the permutations of [m]; weights sum exactly to 1.

    Zero-weight permutations are not stored; a missing permutation means
    weight 0. Instances are immutable and safe to share. Readers take
    integer ``numerators`` over one ``scale``, kept as a family keeps its
    own (see :class:`WinningProbabilityFamily`): ``weights`` is their
    ``_OverScale`` view, lifted from the caller's Fractions or handed over
    checked, and builds each Fraction when it is read.
    """

    m: int
    weights: Mapping[tuple[int, ...], Fraction]
    numerators: Mapping[tuple[int, ...], int] = field(init=False, repr=False)
    scale: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if type(self.weights) is Checked:  # over a scale: keys permutations, numerators positive
            view = self.weights.entries
        else:
            view = _law_view(checked_entries(self.weights.items(), partial(_weight_entry, self.m, None)))
        object.__setattr__(self, "weights", view)
        numerators, scale = view.numerators, view.scale
        total = sum(numerators.values())
        if total != scale:
            raise DomainError(f"weights sum to {Fraction(total, scale)}, expected exactly 1")
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "scale", scale)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.numerators, other.numerators
        return self.m == other.m and mine.keys() == theirs.keys() and all(
            n * other.scale == theirs[key] * self.scale for key, n in mine.items()
        )

    def weight(self, perm: Iterable[int]) -> Fraction:
        return self.weights.get(validate_permutation(self.m, perm), ZERO)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.weights))

    @classmethod
    def uniform(cls, m: int) -> "PermutationDistribution":
        check_dimension(m)
        perms = itertools.permutations(range(1, m + 1))
        return cls(m, Checked(_OverScale(dict.fromkeys(perms, 1), math.factorial(m))))

    @classmethod
    def point_mass(cls, perm: Iterable[int]) -> "PermutationDistribution":
        perm = tuple(perm)
        return cls(len(perm), {perm: ONE})

    def prefix_marginals(self) -> _OverScale:
        """p_k of every prefix of a support permutation, k = 1..m, as numerators over the scale."""
        table: dict[tuple[int, ...], int] = {}
        for perm, n in self.numerators.items():
            for k in range(1, self.m + 1):
                key = perm[:k]
                table[key] = table.get(key, 0) + n
        return _OverScale(table, self.scale)

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
        """The law of a document, as numerators over one scale: no Fraction is
        built, and nothing is checked twice (see the module docstring)."""
        m = json_dimension(doc)
        check = partial(_weight_entry, m, _literal_ints)
        terms = json_entries(doc, "weights", ("perm", "p"), check)
        try:
            return cls(m, Checked(_law_view(terms)))
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


def _weight_entry(m: int, read: Callable | None, perm: object, value: object) -> tuple:
    """``(perm, (n, d))``: a permutation of [m], then a weight n/d >= 0, exact or ``read``."""
    perm = validate_permutation(m, perm)
    q = value if read or type(value) is Fraction else as_fraction(value, f"weight of {perm}")
    n, d = read(q) if read else q.as_integer_ratio()
    if n < 0:
        raise DomainError(f"negative weight {Fraction(n, d)} for permutation {perm}")
    return perm, (n, d)


def _law_view(terms: Mapping[tuple[int, ...], tuple[int, int]]) -> _OverScale:
    """The weights ``n / d`` of ``terms`` but the zeros, over one scale."""
    return _OverScale(*_over_one_scale({perm: t for perm, t in terms.items() if t[0]}))


class _OverScale(Mapping):
    """The Fractions ``n / scale`` of a dict of integer numerators, each built
    when it is read: the ``weights`` of every law, the ``alphas`` of every
    family, and a law's prefix marginals."""

    def __init__(self, numerators: dict, scale: int):
        self.numerators, self.scale = numerators, scale

    def __getitem__(self, key: object) -> Fraction:
        return Fraction(self.numerators[key], self.scale)

    def __iter__(self) -> Iterator:
        return iter(self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)


@dataclass(frozen=True, eq=False)
class WinningProbabilityFamily:
    """The winning probabilities alpha_j(A), keyed by (sorted subset, j).

    Not required to cover every subset of [m]: hand-built families over a
    few pairs are legal. For every subset that is present, all of its
    members must be present and their alphas must sum exactly to 1.

    Comparisons and printing read integer ``numerators`` over one ``scale``.
    ``alphas`` is their ``_OverScale`` view, as a law's ``weights`` is: a
    hand-built family lifts the caller's Fractions to the lcm of their
    denominators, one from :func:`family_from_table` keeps the table's
    numerators. Equal alphas make equal families, whatever the scales.
    """

    m: int
    alphas: Mapping[tuple[tuple[int, ...], int], Fraction]
    numerators: Mapping[tuple[tuple[int, ...], int], int] = field(init=False, repr=False)
    scale: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if type(self.alphas) is Checked:  # over a scale: keys from the cached subset order
            view = self.alphas.entries
        else:
            terms = checked_entries(self.alphas.items(), partial(_alpha_entry, self.m))
            view = _OverScale(*_over_one_scale(terms))
        object.__setattr__(self, "alphas", view)
        numerators, scale = view.numerators, view.scale
        groups: dict[tuple[int, ...], list[int]] = {}
        for (members, j), n in numerators.items():
            if not 0 <= n <= scale:
                raise DomainError(f"alpha_{j}({members}) = {Fraction(n, scale)} outside [0, 1]")
            groups.setdefault(members, []).append(n)
        for members, group in groups.items():
            if len(group) != len(members):  # every key's index is a member of its subset
                raise DomainError(f"incomplete entries for subset {members}")
            if sum(group) != scale:
                total = Fraction(sum(group), scale)
                raise DomainError(f"alphas over {members} sum to {total}, expected 1")
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "scale", scale)

    __eq__ = PermutationDistribution.__eq__

    def _key(self, subset: SubsetMask | Iterable[int], j: int) -> tuple[tuple[int, ...], int]:
        key = (subset_members(self.m, subset), j)
        if type(j) is not int or key not in self.numerators:  # True == 1, but not an index
            raise DomainError(f"no entry for alpha_{j!r}({key[0]})")
        return key

    def alpha(self, subset: SubsetMask | Iterable[int], j: int) -> Fraction:
        return self.alphas[self._key(subset, j)]

    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted({members for members, _ in self.numerators}))

    def is_complete(self) -> bool:
        # every subset present has all of its members, so counting entries suffices
        return len(self.numerators) == sum(map(len, subsets_of_size_at_least(self.m, 2)))

    def to_json_list(self) -> list[dict]:
        return self._json_rows().dicts()

    def _json_rows(self) -> JsonRows:
        """The printed family, one row per subset, as :class:`~precedence.core.JsonRows`:
        each alpha in lowest terms by one gcd g, ``scale // g`` formatted once per
        distinct g. DomainError if one is too long to print."""
        numerators, scale = self.numerators, self.scale
        over: dict[int, str] = {}

        def text(n: int) -> str:
            g = math.gcd(n, scale)
            if g not in over:
                over[g] = "" if g == scale else f"/{scale // g}"
            return f"{n // g}{over[g]}"

        try:
            return subset_rows("alpha", [(s, [text(numerators[s, j]) for j in s]) for s in self.sets()])
        except ValueError:  # more digits than str() converts
            raise _too_many_digits("alpha") from None


def _alpha_entry(m: int, key: tuple, value: object) -> tuple:
    """``((members, j), (n, d))``: a subset of [m] of size >= 2, an int of it, an exact n/d."""
    subset, j = key
    members = subset_members(m, subset)
    if len(members) < 2:
        raise DomainError(f"subset {members} has fewer than two members")
    if type(j) is not int or j not in members:
        raise DomainError(f"index {j!r} not in subset {members}")
    q = value if type(value) is Fraction else as_fraction(value, f"alpha_{j}({members})")
    return (members, j), q.as_integer_ratio()


def _over_one_scale(fractions: Mapping[object, tuple[int, int]]) -> tuple[dict[object, int], int]:
    """Numerators of the fractions ``n / d`` over the lcm of their reduced denominators.

    The reduced denominators of the fractions sharing one d have the lcm
    d // g, g the gcd of d and their numerators: one gcd chain per distinct d.
    """
    cut: dict[int, int] = {}
    for n, d in fractions.values():
        cut[d] = math.gcd(cut.get(d, d), n)
    scale = math.lcm(*(d // g for d, g in cut.items()))
    lift = {d: scale // (d // g) for d, g in cut.items()}
    return {key: n // cut[d] * lift[d] for key, (n, d) in fractions.items()}, scale


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
    which j fails first among A; an entry no order reaches is 0. For each j
    one subset-sum (zeta) transform over the subsets of [m] \\ {j} gives the
    sums for every A holding j. The m transforms run together on one flat
    list of m * 2^(m-1) Python ints, row j-1 holding those of j: m - 1
    passes, one per bit of a column, each adding the half of the list
    without the bit into the half with it, slice by slice.
    """
    size = 1 << (m - 1)
    lows = [(1 << (j - 1)) - 1 for j in range(1, m + 1)]
    # row j-1, column t: h[(S, j)], S the subset of [m] \ {j} whose mask is t
    # with a 0 put in at bit j-1, the bit of j
    sums = [h.get(((t & low) | (t & ~low) << 1, j), 0)
            for j, low in enumerate(lows, 1) for t in range(size)]
    n = len(sums)
    for bit in range(m - 1):  # add each column without the bit into the column with it
        step = 1 << bit
        block = step << 1
        # a row is a whole number of blocks, so the rows are walked as one list,
        # one strided slice pair per offset in the lower half of a block
        for i in range(step):
            sums[step + i::block] = map(add, sums[step + i::block], sums[i::block])
    rows = [sums[i:i + size] for i in range(0, n, size)]
    full = (1 << m) - 1
    out: dict[tuple[tuple[int, ...], int], int] = {}
    for members in subsets_of_size_at_least(m, 2):
        outside = full ^ bit_mask(members)
        for j in members:
            low = lows[j - 1]
            out[(members, j)] = rows[j - 1][(outside & low) | (outside >> 1 & ~low)]
    return out


def family_from_table(
    m: int, h: Mapping[tuple[int, int], int], scale: int
) -> WinningProbabilityFamily:
    """The winning probabilities of a failed-set table of numerators over ``scale``.

    The family keeps the subset sums as its numerators over ``scale``;
    no Fraction is built until an alpha is read.
    """
    return WinningProbabilityFamily(m, Checked(_OverScale(winner_sums(m, h), scale)))


def alpha_family(rho: PermutationDistribution) -> WinningProbabilityFamily:
    """All winning probabilities of ``rho``, from its failed-set table.

    Integer numerators over the law's scale throughout.
    """
    return family_from_table(rho.m, failed_set_table(rho.numerators.items()), rho.scale)


def alpha_family_bruteforce(rho: PermutationDistribution) -> WinningProbabilityFamily:
    """Winning probabilities by scanning every support permutation directly.

    Independent oracle for :func:`alpha_family`, sharing no code with the
    failed-set table: walked from its last failure back to its first, an order
    credits each member x with its integer numerator in every subset {x} | T,
    T a non-empty bit submask of the members that fail after x.
    """
    m = rho.m
    sums = [0] * (m << m)  # mask * m + x - 1: the weight of the orders in which x wins mask
    cells: list = [None] * (m << m)  # later * m + x - 1: the cells x wins, listed once a call
    for perm, n in rho.numerators.items():
        later = 0
        for x in reversed(perm):
            key = later * m + x - 1
            if cells[key] is None:  # the cell of {x} | T for each non-empty submask T of later
                cells[key], t = [], later
                while t:
                    cells[key].append((t | 1 << (x - 1)) * m + x - 1)
                    t = (t - 1) & later
            for i in cells[key]:
                sums[i] += n
            later |= 1 << (x - 1)
    subsets = subsets_of_size_at_least(m, 2)
    numerators = {(s, j): sums[bit_mask(s) * m + j - 1] for s in subsets for j in s}
    return WinningProbabilityFamily(m, Checked(_OverScale(numerators, rho.scale)))
