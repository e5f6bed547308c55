"""Order-dependent load-sharing models over exact rational rates.

A load-sharing model assigns each surviving component j a constant failure
rate that depends only on which components have already failed and, in the
order-dependent variant, in which order: ``mu_j(i_1, ..., i_k)`` for every
ordered failure prefix. The failure-order law then factorizes into a
product of rate ratios,

    P(J_1 = i_1, ..., J_k = i_k)
        = prod_r  mu_{i_r}(i_1, ..., i_{r-1}) / M(i_1, ..., i_{r-1}),

where M(prefix) is the total rate of the survivors, with the convention
0/0 := 0 so that prefixes with zero-mass ancestors get probability 0
instead of raising. The probability of a full permutation equals that of
its (m-1)-prefix: the last surviving component's rate never matters.

Two representations are provided:

* :class:`OrderDependentLSModel`: sparse ``(prefix, j) -> rate`` table
  with a default-value slot, the rate of every prefix the table omits: the
  off-support prefixes of ``construction.invert_to_ls`` and the file
  format's ``default`` field.
* :class:`SetInvariantLSModel`: rates keyed by the *survivor set*, i.e.
  order-independent by construction.

Both store their rates as integer rows, built once where the rates enter:
a row is its survivors' numerators, ascending by survivor, their total and
their scale, mu_j = numerators[j] / scale. An order-dependent model keeps
one row per prefix over the survivors it lists; a set-invariant one keeps
one complete row per failed set. ``rates`` and ``mu_by_survivors`` are
read-only views that build a Fraction when an entry is read. The walker,
the set DP, the sampler, ``rate(prefix, j)`` and :func:`total_rate` read
the stored rows (``_row``); an order-dependent row that omits survivors is
merged with the default rate as it is read. ``rates_after(prefix)`` is the
Fraction row behind :func:`prefix_probability`, a reference route.

The exact kernels run on ints and build a Fraction only for a value they
return. :func:`distribution_of`, :func:`alpha_family_ls` and :func:`beta_gamma_split`
reduce one walker of the reachable failure prefixes, which carries each
prefix's probability as an unreduced numerator and denominator; the law
keeps the orders' numerators over one scale, as its readers take them. Winning
probabilities are the zeta-transformed subset sums of the failed-set table
of :mod:`precedence.permdist`, which set-invariant models build by a DP
over failed sets, one scale per size, expanding each set once, not each of
its k! orderings. :func:`alpha_family_ls` returns them as numerators over
the table's scale, with no Fraction built; both routes must agree exactly
with the two-step route through :func:`distribution_of`.

For models built from an epsilon schedule the total rate of h survivors
closes to h - h*(h-1)/2 * eps(h) when the subset's ranking is tie-free:
the per-survivor discounts (rank - 1) * eps(h) sum over a full rank
permutation. Totals are nevertheless always computed by direct summation,
never from that closed form, so tied or hand-built rate tables need no
special casing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .core import (
    ONE,
    ZERO,
    Checked,
    JsonRows,
    SubsetMask,
    _literal_ints,
    as_fraction,
    bit_mask,
    check_dimension,
    checked_entries,
    json_dimension,
    json_entries,
    plain_json,
    ratio_format,
    rational_format,
    rational_parse,
    subset_members,
    subsets_of_size_at_least,
    validate_prefix,
)
from .errors import DomainError, InputFormatError, InvalidModelError, ScheduleError
from .errors import RationalParseError
from .permdist import (
    PermutationDistribution,
    WinningProbabilityFamily,
    _OverScale,
    _over_one_scale,
    failed_set_table,
    family_from_table,
)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Per-cardinality tie-breaking magnitudes eps(1), ..., eps(m).

    eps(1) is identically 0 (singleton survivor sets always get rate 1).
    Positivity of all rates built from the schedule requires
    (l - 1) * eps(l) < 1 for every l.
    """

    m: int
    eps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        check_dimension(self.m, warn=False)  # m values: the model built on them warns
        values = tuple(as_fraction(e, f"eps({level})") for level, e in enumerate(self.eps, 1))
        if len(values) != self.m:
            raise ScheduleError(f"schedule needs {self.m} entries, got {len(values)}")
        if values[0] != 0:
            raise ScheduleError(f"eps(1) must be 0, got {values[0]}")
        for level, e in enumerate(values[1:], start=2):
            if e <= 0:
                raise ScheduleError(f"eps({level}) must be positive, got {e}")
            if (level - 1) * e >= 1:
                raise ScheduleError(
                    f"(l-1)*eps(l) must stay below 1; eps({level}) = {e} breaks it"
                )
        object.__setattr__(self, "eps", values)

    def value(self, level: int) -> Fraction:
        if type(level) is not int or not 1 <= level <= self.m:  # True == 1, but not a level
            raise DomainError(f"level {level!r} is not an int in [1, {self.m}]")
        return self.eps[level - 1]

    def rho(self, level: int) -> Fraction:
        """Reparametrized magnitude rho(u) = eps(u) * (u - 1) / 2."""
        return self.value(level) * (level - 1) / 2

    def decay_conditions(self) -> tuple[bool, bool]:
        """(rho(2) < 1/8, 2*rho(u) < rho(u-1) for u = 3..m).

        In eps terms: eps(2) < 1/4, and 2(u-1) eps(u) < (u-2) eps(u-1).
        Together they imply sum_{u=k..m} rho(u) < 2*rho(k), the
        geometric-domination fact behind the prefix-probability bounds.
        """
        small = self.m < 2 or self.rho(2) < Fraction(1, 8)
        return small, all(2 * self.rho(u) < self.rho(u - 1) for u in range(3, self.m + 1))

    def to_json_list(self) -> list[str]:
        return [rational_format(e) for e in self.eps]


Row = tuple[dict[int, int], int, int]  # (numerator by survivor, ascending; their total; scale)


@dataclass(frozen=True, eq=False)
class OrderDependentLSModel:
    """Sparse rate table ``(prefix, j) -> mu`` plus a default rate.

    The table is complete by construction: any (prefix, j) pair not stored
    explicitly has the default rate. All rates are non-negative exact
    rationals; prefixes run up to length m-1. ``rows`` holds one integer row
    per prefix, over the survivors it lists; ``rates`` is their read-only
    view. Rows handed over as :class:`~precedence.core.Checked` (by the
    loader, or by :func:`~precedence.construction.invert_to_ls`) are stored
    as they come, and only the dimension and the default rate are checked; a
    mapping built by hand runs the loader's check on each entry, refuses a
    repeated one, and is lifted to rows once. Equal rates make equal models,
    whatever the scales of their rows.
    """

    m: int
    rates: Mapping[tuple[tuple[int, ...], int], Fraction]
    default: Fraction = ZERO
    rows: Mapping[tuple[int, ...], Row] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        default = as_fraction(self.default, "default rate")
        if default < 0:
            raise DomainError(f"negative default rate {default}")
        object.__setattr__(self, "default", default)
        if type(self.rates) is Checked:  # each row built from checked entries
            rows = self.rates.entries
        else:
            check = functools.partial(_rate_entry, self.m, None)
            rows = _rows_of(checked_entries(self.rates.items(), check))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rates", _RateView(rows))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = self.m == other.m and self.default == other.default
        return same and _same_rows(self.rows, other.rows)

    def rate(self, prefix: Iterable[int], j: int) -> Fraction:
        """mu_j after ``prefix``, a failure prefix of [m], if ``j`` is an int survivor."""
        prefix = validate_prefix(self.m, prefix)
        numerators, _, scale = self._row(prefix)
        if type(j) is not int or j not in numerators:  # True == 1, but not a component
            raise DomainError(f"{j!r} is not a survivor after prefix {prefix}")
        return Fraction(numerators[j], scale)

    def rates_after(self, prefix: tuple[int, ...]) -> dict[int, Fraction]:
        """Each survivor's rate after the failure order ``prefix``, ascending."""
        numerators, _, scale = self._row(prefix)
        return {j: Fraction(n, scale) for j, n in numerators.items()}

    def _row(self, prefix: tuple[int, ...]) -> Row:
        """The integer row of every survivor after ``prefix``: the stored row,
        or the stored survivors' and the default's rates over one scale."""
        row = self.rows.get(prefix)
        if row is not None and len(row[0]) + len(prefix) == self.m:
            return row
        failed = set(prefix)
        survivors = [j for j in range(1, self.m + 1) if j not in failed]
        p, q = self.default.as_integer_ratio()
        if row is None:
            return dict.fromkeys(survivors, p), p * len(survivors), q
        stored, _, scale = row
        common = math.lcm(scale, q)
        lift, fill = common // scale, p * (common // q)
        numerators = {j: stored[j] * lift if j in stored else fill for j in survivors}
        return numerators, sum(numerators.values()), common

    @classmethod
    def constant(cls, m: int, rate: Fraction | int = 1) -> "OrderDependentLSModel":
        """All rates equal; induces the uniform failure-order law."""
        return cls(m, {}, rate)

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its rate table as :class:`~precedence.core.JsonRows`."""
        return {
            "m": self.m,
            "rates": _rate_table(("prefix", "j", "mu"), sorted(self.rows), self.rows),
            "default": rational_format(self.default),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OrderDependentLSModel":
        m = json_dimension(doc)
        check = functools.partial(_rate_entry, m, _literal_reader())
        rates = json_entries(doc, "rates", ("prefix", "j", "mu"), check)
        try:
            return cls(m, Checked(_rows_of(rates)), rational_parse(doc.get("default", "0")))
        except RationalParseError as ex:
            raise InputFormatError(f"default: {ex}") from ex
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


class _RateView(Mapping):
    """The rates of integer rows keyed ``(k, j)``, k a row's prefix or survivor
    set and j one of its survivors: each Fraction is built when it is read."""

    def __init__(self, rows: Mapping[tuple[int, ...], Row]):
        self.rows = rows

    def __getitem__(self, key: object) -> Fraction:
        try:
            k, j = key
            numerators, _, scale = self.rows[k]
            return Fraction(numerators[j], scale)
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return ((k, j) for k, (numerators, _, _) in self.rows.items() for j in numerators)

    def __len__(self) -> int:
        return sum(len(numerators) for numerators, _, _ in self.rows.values())


def _same_rows(mine: Mapping[object, Row], theirs: Mapping[object, Row]) -> bool:
    """Whether two row tables hold the same rates: cross-multiplied, whatever the scales."""
    if mine.keys() != theirs.keys():
        return False
    for k, (numerators, _, scale) in mine.items():
        other, _, other_scale = theirs[k]
        if numerators.keys() != other.keys() or any(
            n * other_scale != other[j] * scale for j, n in numerators.items()
        ):
            return False
    return True


def _rows_of(entries: Mapping[tuple, tuple[int, int]]) -> dict[tuple[int, ...], Row]:
    """One row per k of checked rates ``(k, j) -> (n, d)``, ascending by j, over the
    lcm of the d; a lone survivor's row, as after most prefixes of an inversion,
    is shared per (j, (n, d)). A mapping is lifted once, where its rates enter."""
    grouped: dict[tuple[int, ...], list] = {}
    for (k, j), term in entries.items():
        grouped.setdefault(k, []).append((j, term))
    rows, lone = {}, {}
    for k, terms in grouped.items():
        if len(terms) == 1:
            [(j, (n, d))] = terms
            rows[k] = lone.setdefault(terms[0], ({j: n}, n, d))
        else:
            terms.sort()
            scale = math.lcm(*[d for _, (_, d) in terms])
            numerators = {j: n * (scale // d) for j, (n, d) in terms}
            rows[k] = numerators, sum(numerators.values()), scale
    return rows


def _rate_table(names: tuple[str, ...], keys: Iterable[tuple[int, ...]], rows: Mapping) -> JsonRows:
    """The printed rate table of the rows of ``keys``, in that order: each entry
    reduced by one gcd, each distinct (numerator, scale) formatted once."""
    text = functools.cache(ratio_format)
    return JsonRows(names, [
        (k, j, text(n, scale)) for k in keys for numerators, _, scale in (rows[k],)
        for j, n in numerators.items()
    ])


def _literal_reader() -> Callable[[object], tuple[int, int]]:
    """The lowest terms (n, d) of a rational literal, for the entries of one
    document: each distinct str is read once by :func:`~precedence.core._literal_ints`
    and reduced by one gcd, so a row is over the scale of the same rates built
    by hand; a bad one, or a value that is not a str, is refused again at
    each entry that holds it."""

    @functools.cache
    def read(text: str) -> tuple[int, int]:
        n, d = _literal_ints(text)
        g = math.gcd(n, d)
        return n // g, d // g

    return lambda text: read(text) if type(text) is str else _literal_ints(text)


def _rate_entry(m: int, read: Callable | None, key: tuple, value: object) -> tuple:
    """``((prefix, j), (n, d))``: a failure prefix shorter than m, an int of [m]
    outside it, and a rate n/d >= 0, exact or ``read`` (read once the prefix is checked)."""
    prefix, j = key
    prefix = validate_prefix(m, prefix)
    if read is not None:
        value = read(value)
    if len(prefix) >= m:
        raise DomainError(f"prefix {prefix} too long for m={m}")
    if type(j) is not int or not 1 <= j <= m or j in prefix:
        raise DomainError(f"invalid survivor {j} for prefix {prefix}")
    if read is None:
        q = value if type(value) is Fraction else as_fraction(value, f"mu_{j}{prefix}")
        value = q.as_integer_ratio()
    if value[0] < 0:
        raise DomainError(f"negative rate {Fraction(*value)} for mu_{j}{prefix}")
    return (prefix, j), value


@dataclass(frozen=True, eq=False)
class SetInvariantLSModel:
    """Rates keyed by survivor set: ``mu_j([m] \\ A)`` stored under (A, j).

    Order-independence is structural. When built from an epsilon schedule
    the schedule travels with the model (``epsilon``, over the model's m)
    so that bound checks and certificates read it; equality ignores it.
    ``rows[S]`` is the complete integer row of the survivors of the failed
    set S, a bit mask (bit i-1 for component i); ``mu_by_survivors`` is the
    read-only view of the rows by survivor set. Rows handed over as
    :class:`~precedence.core.Checked`, by survivor set, are stored as they
    come, and only completeness and the zero totals are checked; a mapping
    built by hand runs the loader's check on each entry, refuses a repeated
    one, and is lifted to rows once.
    """

    m: int
    mu_by_survivors: Mapping[tuple[tuple[int, ...], int], Fraction]
    epsilon: EpsilonSchedule | None = None
    rows: list[Row] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if self.epsilon is not None and self.epsilon.m != self.m:
            raise DomainError(f"schedule has m={self.epsilon.m} but model has m={self.m}")
        if type(self.mu_by_survivors) is Checked:  # each row built from checked entries
            by_set = self.mu_by_survivors.entries
        else:
            check = functools.partial(_survivor_rate_entry, self.m, None)
            by_set = _rows_of(checked_entries(self.mu_by_survivors.items(), check))
        full = (1 << self.m) - 1
        rows: list[Row] = [({}, 0, 1)] * (full + 1)  # the full set leaves no survivor
        for members in subsets_of_size_at_least(self.m, 1):
            row = by_set.get(members)
            if row is None or len(row[0]) < len(members):
                j = next(j for j in members if row is None or j not in row[0])
                raise DomainError(f"missing rate for survivor {j} of set {members}")
            if not row[1]:  # all rates are >= 0
                raise DomainError(f"survivor set {members} has zero total rate")
            rows[full ^ bit_mask(members)] = row
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "mu_by_survivors", _RateView(by_set))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.mu_by_survivors.rows, other.mu_by_survivors.rows
        return self.m == other.m and _same_rows(mine, theirs)

    rate = OrderDependentLSModel.rate
    rates_after = OrderDependentLSModel.rates_after

    def _row(self, prefix: tuple[int, ...]) -> Row:
        """The stored row of the survivors after ``prefix``."""
        failed = 0
        for i in prefix:
            failed |= 1 << (i - 1)
        return self.rows[failed]

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its rate table as :class:`~precedence.core.JsonRows`."""
        sets, rows = subsets_of_size_at_least(self.m, 1), self.mu_by_survivors.rows
        doc = {"m": self.m, "rates": _rate_table(("survivors", "j", "mu"), sets, rows)}
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon.to_json_list()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SetInvariantLSModel":
        m = json_dimension(doc)
        check = functools.partial(_survivor_rate_entry, m, _literal_reader())
        mu = json_entries(doc, "rates", ("survivors", "j", "mu"), check)
        eps = None
        if "epsilon" in doc:
            if not isinstance(doc["epsilon"], list):
                raise InputFormatError("epsilon: must be a list")
            try:
                eps = EpsilonSchedule(m, tuple(map(rational_parse, doc["epsilon"])))
            except (RationalParseError, ScheduleError, TypeError) as ex:
                raise InputFormatError(f"epsilon: {ex}") from ex
        try:
            return cls(m, Checked(_rows_of(mu)), eps)
        except DomainError as ex:  # completeness or a zero total
            raise InputFormatError(f"rates: {ex}") from ex


def _survivor_rate_entry(m: int, read: Callable | None, key: tuple, value: object) -> tuple:
    """``((members, j), (n, d))``: a subset of [m], an int of it, and a rate n/d >= 0,
    exact or ``read`` (read once the set is checked)."""
    survivors, j = key
    members = subset_members(m, survivors)
    if read is not None:
        value = read(value)
    if type(j) is not int or j not in members:
        raise DomainError(f"survivor {j!r} not in survivor set {members}")
    if read is None:
        q = value if type(value) is Fraction else as_fraction(value, f"mu_{j} of {members}")
        value = q.as_integer_ratio()
    if value[0] < 0:
        raise DomainError(f"negative rate {Fraction(*value)} for mu_{j} with survivors {members}")
    return (members, j), value


LoadSharingModel = OrderDependentLSModel | SetInvariantLSModel


def model_from_json_dict(doc: dict) -> LoadSharingModel:
    """Load either model flavor, sniffing the rate-entry key."""
    entries = doc.get("rates") if isinstance(doc, dict) else None
    first = entries[0] if isinstance(entries, list) and entries else None
    if isinstance(first, dict) and "survivors" in first:
        return SetInvariantLSModel.from_json_dict(doc)
    return OrderDependentLSModel.from_json_dict(doc)


def total_rate(model: LoadSharingModel, prefix: Iterable[int]) -> Fraction:
    """M(prefix): total rate of the components still alive after ``prefix``."""
    _, total, scale = model._row(validate_prefix(model.m, prefix))
    return Fraction(total, scale)


def prefix_probability(model: LoadSharingModel, prefix: Iterable[int]) -> Fraction:
    """P(the failure order starts with ``prefix``), as a product of rate ratios."""
    prefix = validate_prefix(model.m, prefix)
    prob = ONE
    for r, victim in enumerate(prefix):
        row = model.rates_after(prefix[:r])
        total = sum(row.values(), ZERO)
        if total == 0:
            return ZERO
        prob *= row[victim] / total
        if prob == 0:
            return ZERO
    return prob


def _walk(
    model: LoadSharingModel, pool: Iterable[int], depth: int
) -> Iterator[tuple[tuple[int, ...], int, int, dict[int, int]]]:
    """(prefix, num, den, row) of each reachable prefix drawn from ``pool``.

    ``row`` holds the integer rates of the prefix's stored row, and survivor j
    fails next with probability ``num * row[j] / den``, unreduced. Depth
    first, up to length ``depth``; prefixes with total rate 0 are skipped.
    The stack holds ``depth`` levels of siblings, never the tree.
    """
    pool, read = frozenset(pool), model._row
    stack = [((), 1, 1)]
    while stack:
        prefix, num, den = stack.pop()
        row, total, _ = read(prefix)
        if total == 0:
            continue
        den *= total
        yield prefix, num, den, row
        if len(prefix) < depth:
            children = [(prefix + (j,), num * r, den) for j, r in row.items() if r and j in pool]
            stack.extend(reversed(children))


def _failure_law(model: LoadSharingModel) -> tuple[dict[tuple[int, ...], int], int]:
    """Integer numerators of the reachable failure orders' probabilities, and their scale.

    A permutation's probability is that of its (m-1)-prefix: the last
    survivor fails with certainty, so its rate is never read. Raises
    InvalidModelError when a reachable prefix has zero total rate, since
    the numerators then sum below the scale.
    """
    m = model.m
    orders = {(1,): (1, 1)} if m == 1 else {}  # at m = 1 no prefix has length m - 2
    for prefix, num, den, row in _walk(model, range(1, m + 1), m - 2):
        if len(prefix) == m - 2:
            (a, r_a), (b, r_b) = row.items()
            for order, r in ((prefix + (a, b), r_a), (prefix + (b, a), r_b)):
                if r:
                    orders[order] = num * r, den
    numerators, scale = _over_one_scale(orders)
    mass = sum(numerators.values())
    if mass != scale:
        raise InvalidModelError(
            "reachable total rate vanished before exhaustion: "
            f"mass {Fraction(mass, scale)} != 1"
        )
    return numerators, scale


def distribution_of(model: LoadSharingModel) -> PermutationDistribution:
    """The exact failure-order law of the rate table, as :func:`_failure_law` gives it."""
    return PermutationDistribution(model.m, Checked(_OverScale(*_failure_law(model))))


def _set_invariant_table(model: SetInvariantLSModel) -> tuple[dict[tuple[int, int], int], int]:
    """The failed-set table of a set-invariant model, expanding each failed set once.

    h[(S, j)] = P(S fails first) * mu_j(S) / M(S), and P(S + j) sums them,
    mu_j(S) / M(S) read from the stored row of S. The sets of one size carry
    numerators over one scale, the last scale times the lcm of their row
    totals (one total per size in a schedule model); at the end every entry
    is lifted in place to the last scale.
    """
    m, rows = model.m, model.rows
    h: dict[tuple[int, int], int] = {}
    scales = []  # scales[k]: the scale of the entries whose failed set has k members
    level, scale = {0: 1}, 1
    for _ in range(m - 1):
        step = math.lcm(*{rows[mask][1] for mask in level})  # each total is positive
        scale *= step
        scales.append(scale)
        reached: dict[int, int] = {}
        for mask, n in level.items():
            row, total, _ = rows[mask]
            n *= step // total
            for j, r in row.items():
                if r:
                    h[(mask, j)] = n * r
                    grown = mask | 1 << (j - 1)
                    reached[grown] = reached.get(grown, 0) + n * r
        level = reached
    lifts = [scale // level_scale for level_scale in scales]
    for key, n in h.items():
        h[key] = n * lifts[key[0].bit_count()]
    return h, scale


def _model_table(model: LoadSharingModel) -> tuple[dict[tuple[int, int], int], int]:
    """The failed-set table of integer numerators, and their scale: by the set DP
    or from the reachable failure orders (InvalidModelError if their rates vanish)."""
    if isinstance(model, SetInvariantLSModel):
        return _set_invariant_table(model)
    numerators, scale = _failure_law(model)
    return failed_set_table(numerators.items()), scale


def alpha_family_ls(model: LoadSharingModel) -> WinningProbabilityFamily:
    """Winning probabilities straight from the rates, no distribution detour;
    equals ``alpha_family(distribution_of(model))`` exactly."""
    return family_from_table(model.m, *_model_table(model))


def beta_gamma_split(
    model: LoadSharingModel, subset: SubsetMask | Iterable[int], i: int
) -> tuple[Fraction, Fraction]:
    """Split alpha_i(A) by whether the whole complement fails before i.

    beta collects the orderings in which i wins A while some member of the
    complement is still alive (complement prefixes of length < m - |A|);
    gamma collects the orderings where every element outside A fails
    first. beta + gamma = alpha_i(A) exactly. Defined for 2 <= |A| <= m-1.
    """
    members = subset_members(model.m, subset)
    ell = len(members)
    if type(i) is not int or i not in members:
        raise DomainError(f"index {i!r} not in subset {members}")
    if ell < 2 or ell > model.m - 1:
        raise DomainError(
            f"split defined for 2 <= |A| <= m-1, got |A|={ell} with m={model.m}"
        )
    outside = tuple(x for x in range(1, model.m + 1) if x not in members)
    depth = model.m - ell
    terms = {prefix: (num * row[i], den) for prefix, num, den, row in _walk(model, outside, depth)}
    numerators, scale = _over_one_scale(terms)
    beta = sum(n for prefix, n in numerators.items() if len(prefix) < depth)
    return Fraction(beta, scale), Fraction(sum(numerators.values()) - beta, scale)


@dataclass(frozen=True)
class PrefixBoundsReport:
    """Exact two-sided envelope for one prefix probability."""

    prefix: tuple[int, ...]
    probability: Fraction
    lower: Fraction
    upper: Fraction

    @property
    def passed(self) -> bool:
        return self.lower <= self.probability <= self.upper


def check_prefix_bounds(model: LoadSharingModel, prefix: Iterable[int]) -> PrefixBoundsReport:
    """Verify the near-uniformity envelope of a schedule-built model.

    For a model with rates 1 - (rank - 1) * eps(|A|) and a schedule whose
    rho magnitudes decay geometrically, every length-k prefix probability
    lies within

        (m-k)!/m! * (1 -/+ 2 * sum_{u=m-k+1..m} rho(u)).

    The schedule is the model's own ``epsilon``.
    """
    prefix = validate_prefix(model.m, prefix)
    eps = getattr(model, "epsilon", None)  # an order-dependent model carries none
    if eps is None:
        raise DomainError("model carries no epsilon schedule")
    if not all(eps.decay_conditions()):
        raise ScheduleError("epsilon schedule violates the rho decay conditions")
    m, k = model.m, len(prefix)
    if k < 1:
        raise DomainError("prefix must be non-empty")
    spread = 2 * sum((eps.rho(u) for u in range(max(2, m - k + 1), m + 1)), ZERO)
    base = Fraction(math.factorial(m - k), math.factorial(m))
    return PrefixBoundsReport(
        prefix=prefix,
        probability=prefix_probability(model, prefix),
        lower=base * (1 - spread),
        upper=base * (1 + spread),
    )
