"""Exact arithmetic and combinatorial primitives.

Everything downstream runs on arbitrary-precision rationals
(``fractions.Fraction``) and three small encodings over the ground set
[m] = {1, ..., m}:

* permutations of [m] as tuples of ints,
* ordered failure prefixes (i_1, ..., i_k) as tuples of distinct ints,
* subsets of [m] as sorted member tuples, in one cached lexicographic
  order (:func:`subsets_of_size_at_least`). Int bit masks index the
  package's own tables: the failed-set table, a set-invariant model's rows
  and the oracle's cells, each whole set's mask built by :func:`bit_mask`; a
  :class:`SubsetMask` is accepted where a public function takes a subset
  from its caller, and checked as every subset is (:func:`subset_members`).

Indices are 1-based throughout, including every file format. Enumeration
order is always lexicographic so that outputs are reproducible
byte-for-byte. The dimension m is capped at 8 by default (8! = 40320
permutations); the cap can be raised with the ``PRECEDENCE_MAX_M``
environment variable, with a warning above 8.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, InputFormatError, PrecedenceError, RationalParseError

DEFAULT_MAX_M = 8

ZERO = Fraction(0)
ONE = Fraction(1)

# Grammar: "<int>" or "<int>/<posint>" in ASCII digits. Stricter than
# Fraction(str), which would also accept decimals, exponents, underscores,
# surrounding whitespace and non-ASCII digits.
RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?\Z")


def _literal_ints(text: str) -> tuple[int, int]:
    """The numerator and positive denominator a rational literal spells, unreduced.

    Refusals, in this order: not ``RATIONAL_RE``, a zero denominator, a side
    of more digits than ``int()`` converts.
    """
    if not isinstance(text, str) or not RATIONAL_RE.match(text):
        raise RationalParseError(f"not a rational literal: {text!r}")
    num, slash, den = text.partition("/")
    if slash and not den.lstrip("0"):
        raise RationalParseError(f"zero denominator: {text!r}")
    try:
        return int(num), (int(den) if slash else 1)
    except ValueError:  # more digits than int() converts
        raise RationalParseError(f"literal of {len(text)} characters is too long") from None


def rational_parse(text: str) -> Fraction:
    """Parse ``"n"`` or ``"n/d"`` into an exact rational in lowest terms.

    The literal is matched once against ``RATIONAL_RE``; ``int()`` converts
    each side, and ``Fraction`` reduces the pair with one gcd.
    """
    return Fraction(*_literal_ints(text))


def decimal_int(value: object, where: str) -> int:
    """A non-negative int, or the int that an ASCII decimal string ``[0-9]+`` spells."""
    if type(value) is int:
        if value < 0:
            raise InputFormatError(f"{where}: must be a non-negative integer, got {value}")
        return value
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # more digits than int() converts, 4300 by default
            limit = sys.get_int_max_str_digits()
            raise InputFormatError(f"{where}: decimal string of more than {limit} digits") from None
    raise InputFormatError(f"{where}: {value!r} is not an integer or a decimal string")


def as_fraction(value: object, name: str) -> Fraction:
    """``value`` as a Fraction: a Fraction, or an int that is not a bool;
    anything else is a DomainError naming ``name``. A hot loop tests
    ``type(value) is Fraction`` first itself, so it builds ``name`` only if not."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{name} = {value!r} is not an int or a Fraction")


def json_dimension(doc: object, field: str = "m") -> int:
    """The dimension ``doc[field]`` of a JSON object: an integer (not a bool,
    float or string), checked against the cap where the document enters,
    before any entry is read; errors name ``field``. It does not warn above
    8: the value built from the document does."""
    if not isinstance(doc, dict):
        raise InputFormatError(f"document must be a JSON object, not {type(doc).__name__}")
    m = doc.get(field)
    if type(m) is not int:
        raise InputFormatError(f"{field}: must be an integer, got {m!r}")
    try:
        return check_dimension(m, warn=False)
    except DomainError as ex:
        raise InputFormatError(f"{field}: {ex}") from None


def checked_entries(pairs: Iterable[tuple], check: Callable) -> dict:
    """The dict of ``check(key, value)`` over ``pairs``, for every value class, by
    hand or loaded: a checked key seen twice, as (2, 1) after (1, 2), is refused."""
    out: dict = {}
    for key, value in pairs:
        key, value = check(key, value)
        if key in out:
            raise DomainError(f"duplicate entry {key}")
        out[key] = value
    return out


def json_entries(doc: dict, field: str, names: tuple[str, ...], check: Callable) -> dict:
    """The list ``doc[field]`` of objects run through :func:`checked_entries`.

    ``doc`` is a JSON object, as :func:`json_dimension` checks first. Each entry
    must be an object holding the fields ``names``; ``check`` gets its key, the
    first field or a tuple of all but the last, and its value, the last field.
    Errors name the entry: ``field[i]: ...``, or ``field[i].sub: ...`` when
    ``check`` raises ``InputFormatError("sub: ...")``. A loader may first try
    :func:`permutation_column`, which refuses nothing; this loop alone refuses.
    """
    entries = doc.get(field)
    if not isinstance(entries, list):
        raise InputFormatError(f"{field}: must be a list")
    *keys, value = names
    key_of, required = operator.itemgetter(*keys), set(names)
    at = 0

    def pairs() -> Iterator[tuple]:
        nonlocal at
        for at, entry in enumerate(entries):
            if not isinstance(entry, dict) or not entry.keys() >= required:
                raise DomainError(f"needs the fields {', '.join(sorted(required))}")
            yield key_of(entry), entry[value]

    try:
        return checked_entries(pairs(), check)
    except InputFormatError as ex:
        raise InputFormatError(f"{field}[{at}].{ex}") from ex
    except (PrecedenceError, TypeError, ValueError) as ex:
        raise InputFormatError(f"{field}[{at}]: {ex}") from ex


@dataclass(frozen=True)
class Checked:
    """Entries checked before a value class gets them: by a loader, one by one
    where they entered, against a dimension it checked first
    (:func:`json_dimension`), or built by the package from checked values. A
    value class handed one in place of its mapping or tuple stores
    ``entries``, not the wrapper, and runs only its checks of the whole
    value; one built by hand, even from another value's field, runs them all."""

    entries: object


_STR_ONLY = frozenset([str])


@dataclass(frozen=True)
class JsonRows:
    """A JSON list of objects that share one key order, kept as row tuples.

    ``rows`` is a sequence of tuples, one value per key of ``keys``. The
    values of one column are of one kind: ints, strs, floats, tuples of ints,
    which JSON writes as lists, or flat objects, dicts of str keys whose
    values are together ints, strs or floats. No int is a bool, as in the
    checked keys of every value class; the writer checks the types, so a
    bool, a float in a tuple or a column of two kinds is a TypeError. A
    document holding one is written by the CLI straight from the tuples,
    with no dict per row (``cli._write_json``); :meth:`dicts` is the same
    list as plain JSON, and :func:`plain_json` puts it in place in a document.
    """

    keys: tuple[str, ...]
    rows: Sequence[tuple]

    def __post_init__(self) -> None:
        keys = tuple(self.keys)
        if not _STR_ONLY.issuperset(map(type, keys)) or len(set(keys)) < len(keys):
            raise TypeError(f"keys must be distinct strs, got {keys!r}")
        if not {len(keys)}.issuperset(map(len, self.rows)):
            raise ValueError(f"each row needs {len(keys)} values, one per key")
        object.__setattr__(self, "keys", keys)

    def dicts(self) -> list[dict]:
        """One dict per row, each tuple of ints as a list."""
        keys = self.keys
        return [{k: list(v) if type(v) is tuple else v for k, v in zip(keys, row)} for row in self.rows]


def plain_json(node):
    """``node`` with each :class:`JsonRows` in it, at any depth of objects and
    lists, as its dicts."""
    if type(node) is JsonRows:
        return node.dicts()
    if type(node) is dict:
        return {key: plain_json(value) for key, value in node.items()}
    if type(node) is list:
        return list(map(plain_json, node))
    return node


def int_format(value: int, field: str) -> str:
    """Decimal text of an output integer; DomainError naming ``field`` if too long."""
    try:
        return str(value)
    except ValueError:  # more digits than str() converts, 4300 by default
        raise _too_many_digits(field) from None


def _too_many_digits(field: str) -> DomainError:
    limit = sys.get_int_max_str_digits()
    return DomainError(f"{field}: integer has more than {limit} digits to print")


def ratio_format(n: int, d: int, field: str = "rational") -> str:
    """Canonical text of ``n / d``, d > 0, reduced by one gcd; DomainError
    naming ``field`` if too long to print."""
    g = math.gcd(n, d)
    text = int_format(n // g, field)
    return text if g == d else f"{text}/{int_format(d // g, field)}"


def rational_format(value: Fraction | int) -> str:
    """Canonical text form: lowest terms, ``"n/d"``, plain ``"n"`` for integers."""
    return ratio_format(*value.as_integer_ratio())


def max_dimension() -> int:
    """Current cap on m, from ``PRECEDENCE_MAX_M`` or the default of 8."""
    raw = os.environ.get("PRECEDENCE_MAX_M")
    if raw is None:
        return DEFAULT_MAX_M
    try:
        cap = decimal_int(raw, "PRECEDENCE_MAX_M")
    except InputFormatError:  # not [0-9]+, or more digits than int() converts
        raise DomainError(f"PRECEDENCE_MAX_M must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DomainError(f"PRECEDENCE_MAX_M must be >= 1, got {cap}")
    return cap


def check_dimension(m: int, warn: bool = True) -> int:
    """Validate a dimension m against the cap; warn when running above 8, if ``warn``."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise DomainError(f"dimension must be a positive integer, got {m!r}")
    cap = max_dimension()
    if m > cap:
        raise DomainError(
            f"dimension m={m} exceeds the cap of {cap}; "
            "set PRECEDENCE_MAX_M to raise it"
        )
    if warn and m > DEFAULT_MAX_M:
        warnings.warn(
            f"dimension m={m} above {DEFAULT_MAX_M}: exhaustive operations "
            f"touch up to {m}! permutations",
            RuntimeWarning,  # reported from this line: the default filter shows it once
        )
    return m


def bit_mask(members: Iterable[int]) -> int:
    """The bit mask of checked members of [m], bit i-1 set iff i is one: the one
    builder of a whole set's mask (a walk adding one member shifts its own bit)."""
    mask = 0
    for i in members:
        mask |= 1 << (i - 1)
    return mask


@dataclass(frozen=True)
class SubsetMask:
    """A subset of [m] encoded as an m-bit mask (bit i-1 set iff i is a member)."""

    m: int
    mask: int

    def __post_init__(self) -> None:
        for name, value in (("dimension", self.m), ("mask", self.mask)):
            if type(value) is not int:  # True == 1, but not a dimension or a mask
                raise DomainError(f"{name} must be an int, got {value!r}")
        if self.m < 1:
            raise DomainError(f"dimension must be >= 1, got {self.m}")
        if not 0 <= self.mask < (1 << self.m):
            raise DomainError(f"mask {self.mask:#x} out of range for m={self.m}")

    @classmethod
    def of(cls, m: int, members: Iterable[int]) -> "SubsetMask":
        return cls(m, bit_mask(subset_members(m, members)))

    @classmethod
    def empty(cls, m: int) -> "SubsetMask":
        return cls(m, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.m + 1) if self.mask >> (i - 1) & 1)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.m, self.mask ^ ((1 << self.m) - 1))

    def __contains__(self, x: int) -> bool:
        return type(x) is int and 1 <= x <= self.m and bool(self.mask >> (x - 1) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())


def subset_members(m: int, subset: "SubsetMask | Iterable[int]") -> tuple[int, ...]:
    """Coerce a subset of [m] given as a mask or iterable into a sorted member tuple."""
    if isinstance(subset, SubsetMask):
        if subset.m != m:
            raise DomainError(f"subset over [{subset.m}] used with m={m}")
        return subset.members()
    members = tuple(subset)
    for x in members:
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= m:
            raise DomainError(f"element {x!r} outside [{m}]")
    members = tuple(sorted(members))
    if len(set(members)) != len(members):
        raise DomainError(f"repeated elements in subset {members}")
    return members


@functools.cache
def subsets_of_size_at_least(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All subsets of [m] with at least k members, as sorted member tuples.

    Lexicographic order; built once per (m, k) and shared by every caller.
    """
    ground = range(1, m + 1)
    return tuple(sorted(c for n in range(k, m + 1) for c in itertools.combinations(ground, n)))


def subset_rows(field: str, rows: Iterable[tuple[tuple[int, ...], Iterable]]) -> JsonRows:
    """The printed form of a per-subset table: one row ``(members, {"j": value})``
    per ``(members, values)`` of ``rows``, in that order, the values in member
    order, under the keys ``"set"`` and ``field``."""
    return JsonRows(("set", field), [(s, dict(zip(map(str, s), values))) for s, values in rows])


_INT_ONLY = frozenset([int])
_DICT_ONLY = frozenset([dict])
_INT_OR_STR = frozenset([int, str])


@functools.cache
def _ground_set(m: int) -> frozenset[int]:
    return frozenset(range(1, m + 1))


def validate_permutation(m: int, seq: Iterable[int]) -> tuple[int, ...]:
    perm = tuple(seq)
    if len(perm) != m or not _INT_ONLY.issuperset(map(type, perm)) or _ground_set(m) != set(perm):
        raise DomainError(f"{perm} is not a permutation of [{m}]")
    return perm


def permutation_column(m: int, read: Callable, entries: object, names: tuple[str, str]) -> dict | None:
    """``{perm: value read}`` of the entries of a law or a vote file, in document
    order, checked a column at a time, or None.

    None unless ``entries`` is a list, each entry an object holding the fields
    ``names``, each perm is a permutation of [m] of ints (not bools), no perm
    repeats, each value is an int or a str, as JSON spells a scalar, and
    ``read``, given the value column, returns what the entry check reads from
    each value, in order, raising a ValueError where that check refuses one. On
    None, the loader runs :func:`json_entries`, whose entry check names the
    entry it refuses.
    """
    perm_field, value_field = names
    if type(entries) is not list or not _DICT_ONLY.issuperset(map(type, entries)):
        return None
    try:
        perms = list(map(tuple, map(operator.itemgetter(perm_field), entries)))
        values = list(map(operator.itemgetter(value_field), entries))
    except (KeyError, TypeError):  # a missing field, or a perm that is not iterable
        return None
    if not (
        {m}.issuperset(map(len, perms))
        and _INT_ONLY.issuperset(map(type, itertools.chain.from_iterable(perms)))
        and {_ground_set(m)}.issuperset(map(frozenset, perms))
        and len(set(perms)) == len(perms)
        and _INT_OR_STR.issuperset(map(type, values))
    ):
        return None
    try:
        return dict(zip(perms, read(values)))
    except ValueError:  # each refusal of a weight or a count, PrecedenceErrors included
        return None


def validate_prefix(m: int, seq: Iterable[int]) -> tuple[int, ...]:
    prefix = tuple(seq)
    try:
        valid = (
            _ground_set(m).issuperset(prefix)
            and len(set(prefix)) == len(prefix)
            and _INT_ONLY.issuperset(map(type, prefix))
        )
    except TypeError:  # an unhashable element, which the loop below names
        valid = False
    if valid:
        return prefix
    seen = set()
    for x in prefix:
        if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= m:
            raise DomainError(f"prefix element {x!r} outside [{m}]")
        if x in seen:
            raise DomainError(f"repeated element {x} in prefix {prefix}")
        seen.add(x)
    return prefix


def enumerate_d(b: SubsetMask, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered samples, without replacement, of size k drawn outside ``b``.

    Yields exactly (m-|b|)!/(m-|b|-k)! tuples, each disjoint from ``b``,
    in lexicographic order. With ``b`` empty and k = m this is the set of
    all permutations of [m].
    """
    free = b.m - len(b)
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= free:
        raise DomainError(
            f"sample size k={k!r} out of range [0, {free}] for |B|={len(b)}, m={b.m}"
        )
    return itertools.permutations(b.complement().members(), k)
