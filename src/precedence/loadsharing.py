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

Both answer ``rates_after(prefix)``: the row of every survivor's rate
after a failure prefix, ascending by survivor. Every reader of more than
one rate (:func:`total_rate`, :func:`prefix_probability`, the walker and
the sampler) takes whole rows; ``rate(prefix, j)`` is the single-entry
lookup. The walker and the sampler read rows through :func:`_row_reader`,
which builds a set-invariant row once per failed set, not once per order.

The exact kernels run on ints, each row as integer numerators over its
lcm, and build a Fraction only for a value they return.
:func:`distribution_of`, :func:`alpha_family_ls` and :func:`beta_gamma_split`
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
    as_fraction,
    check_dimension,
    json_dimension,
    json_entries,
    plain_json,
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
        if not 1 <= level <= self.m:
            raise DomainError(f"level {level} outside [1, {self.m}]")
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


@dataclass(frozen=True)
class OrderDependentLSModel:
    """Sparse rate table ``(prefix, j) -> mu`` plus a default rate.

    The table is complete by construction: any (prefix, j) pair not stored
    explicitly has the default rate. All rates are non-negative exact
    rationals; prefixes run up to length m-1. Rates handed over as
    :class:`~precedence.core.Checked` (by the loader, or by
    :func:`~precedence.construction.invert_to_ls`) are stored as they come,
    and only the dimension and the default rate are checked; a mapping
    built by hand, even another model's ``rates``, has every entry checked.
    """

    m: int
    rates: Mapping[tuple[tuple[int, ...], int], Fraction]
    default: Fraction = ZERO

    def __post_init__(self) -> None:
        check_dimension(self.m)
        default = as_fraction(self.default, "default rate")
        if default < 0:
            raise DomainError(f"negative default rate {default}")
        object.__setattr__(self, "default", default)
        if type(self.rates) is Checked:  # each entry checked where it entered
            object.__setattr__(self, "rates", self.rates.entries)
            return
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        raw = prefix = None
        for (key, j), value in self.rates.items():
            if key is not raw:  # the entries of one prefix object are checked once
                raw, prefix = key, validate_prefix(self.m, key)
            entry, q = _rate_entry(self.m, prefix, j, value)
            clean[entry] = q
        object.__setattr__(self, "rates", clean)

    def rate(self, prefix: tuple[int, ...], j: int) -> Fraction:
        return self.rates.get((prefix, j), self.default)

    def rates_after(self, prefix: tuple[int, ...]) -> dict[int, Fraction]:
        """Each survivor's rate after the failure order ``prefix``, ascending."""
        failed = set(prefix)
        return {
            j: self.rates.get((prefix, j), self.default)
            for j in range(1, self.m + 1)
            if j not in failed
        }

    @classmethod
    def constant(cls, m: int, rate: Fraction | int = 1) -> "OrderDependentLSModel":
        """All rates equal; induces the uniform failure-order law."""
        return cls(m, {}, Fraction(rate))

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its rate table as :class:`~precedence.core.JsonRows`."""
        rows = [(p, j, rational_format(mu)) for (p, j), mu in sorted(self.rates.items())]
        return {
            "m": self.m,
            "rates": JsonRows(("prefix", "j", "mu"), rows),
            "default": rational_format(self.default),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OrderDependentLSModel":
        m = json_dimension(doc)
        mu = _literal_reader()
        rates = json_entries(
            doc,
            "rates",
            {"prefix", "j", "mu"},
            lambda e: _rate_entry(m, validate_prefix(m, e["prefix"]), e["j"], mu(e["mu"])),
        )
        try:
            return cls(m, Checked(rates), rational_parse(doc.get("default", "0")))
        except RationalParseError as ex:
            raise InputFormatError(f"default: {ex}") from ex
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


def _literal_reader() -> Callable[[object], Fraction]:
    """:func:`~precedence.core.rational_parse` for the entries of one document,
    parsing each distinct str once; a bad one, or a value that is not a str,
    is refused again at each entry that holds it."""
    parsed = functools.cache(rational_parse)
    return lambda text: parsed(text) if type(text) is str else rational_parse(text)


def _rate_entry(
    m: int, prefix: tuple[int, ...], j: object, value: object
) -> tuple[tuple[tuple[int, ...], int], Fraction]:
    """The entry ``((prefix, j), mu_j(prefix))`` after a checked ``prefix``. Refused:
    a prefix longer than m-1, a ``j`` that is not an int of [m] outside it, and a
    rate that is not an int or a Fraction, or is negative."""
    if len(prefix) >= m:
        raise DomainError(f"prefix {prefix} too long for m={m}")
    if type(j) is not int or not 1 <= j <= m or j in prefix:
        raise DomainError(f"invalid survivor {j} for prefix {prefix}")
    q = value if type(value) is Fraction else as_fraction(value, f"mu_{j}{prefix}")
    if q.numerator < 0:
        raise DomainError(f"negative rate {q} for mu_{j}{prefix}")
    return (prefix, j), q


@dataclass(frozen=True)
class SetInvariantLSModel:
    """Rates keyed by survivor set: ``mu_j([m] \\ A)`` stored under (A, j).

    Order-independence is structural. When built from an epsilon schedule
    the schedule travels with the model (``epsilon``, over the model's m)
    so that bound checks and certificates read it; equality ignores it.
    Rates handed over as :class:`~precedence.core.Checked` are stored as they
    come, and only completeness and the zero totals are checked; a mapping
    built by hand has every entry checked.
    """

    m: int
    mu_by_survivors: Mapping[tuple[tuple[int, ...], int], Fraction]
    epsilon: EpsilonSchedule | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        if self.epsilon is not None and self.epsilon.m != self.m:
            raise DomainError(f"schedule has m={self.epsilon.m} but model has m={self.m}")
        if type(self.mu_by_survivors) is Checked:  # each entry checked where it entered
            clean = self.mu_by_survivors.entries
        else:
            clean = {}
            raw = members = None
            for (survivors, j), value in self.mu_by_survivors.items():
                if survivors is not raw:  # the entries of one subset object are checked once
                    raw, members = survivors, subset_members(self.m, survivors)
                entry, q = _survivor_rate_entry(members, j, value)
                if entry in clean:  # two orders of one subset
                    raise DomainError(f"duplicate entry {entry}")
                clean[entry] = q
        for members in subsets_of_size_at_least(self.m, 1):
            for j in members:
                if (members, j) not in clean:
                    raise DomainError(f"missing rate for survivor {j} of set {members}")
            if not any(clean[(members, j)].numerator for j in members):  # all rates are >= 0
                raise DomainError(f"survivor set {members} has zero total rate")
        object.__setattr__(self, "mu_by_survivors", clean)

    def rate(self, prefix: tuple[int, ...], j: int) -> Fraction:
        row = self.rates_after(prefix)
        if j not in row:
            raise DomainError(f"{j} is not a survivor after prefix {prefix}")
        return row[j]

    def rates_after(self, prefix: tuple[int, ...]) -> dict[int, Fraction]:
        """Each survivor's rate after the failure order ``prefix``, ascending."""
        failed = set(prefix)
        survivors = tuple(i for i in range(1, self.m + 1) if i not in failed)
        return {j: self.mu_by_survivors[(survivors, j)] for j in survivors}

    def to_json_dict(self) -> dict:
        return plain_json(self._json_doc())

    def _json_doc(self) -> dict:
        """The document, its rate table as :class:`~precedence.core.JsonRows`."""
        rows = [(s, j, rational_format(mu)) for (s, j), mu in sorted(self.mu_by_survivors.items())]
        doc = {"m": self.m, "rates": JsonRows(("survivors", "j", "mu"), rows)}
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon.to_json_list()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SetInvariantLSModel":
        m = json_dimension(doc)
        read = _literal_reader()
        mu = json_entries(
            doc,
            "rates",
            {"survivors", "j", "mu"},
            lambda e: _survivor_rate_entry(subset_members(m, e["survivors"]), e["j"], read(e["mu"])),
        )
        eps = None
        if "epsilon" in doc:
            if not isinstance(doc["epsilon"], list):
                raise InputFormatError("epsilon: must be a list")
            try:
                eps = EpsilonSchedule(m, tuple(map(rational_parse, doc["epsilon"])))
            except (RationalParseError, ScheduleError, TypeError) as ex:
                raise InputFormatError(f"epsilon: {ex}") from ex
        try:
            return cls(m, Checked(mu), eps)
        except DomainError as ex:  # completeness or a zero total
            raise InputFormatError(f"rates: {ex}") from ex


def _survivor_rate_entry(
    members: tuple[int, ...], j: object, value: object
) -> tuple[tuple[tuple[int, ...], int], Fraction]:
    """The entry ``((members, j), mu_j)`` after a checked survivor set. Refused: a
    ``j`` that is not an int of ``members``, and a rate that is not an int or a
    Fraction, or is negative."""
    if type(j) is not int or j not in members:
        raise DomainError(f"survivor {j!r} not in survivor set {members}")
    q = value if type(value) is Fraction else as_fraction(value, f"mu_{j} of {members}")
    if q.numerator < 0:
        raise DomainError(f"negative rate {q} for mu_{j} with survivors {members}")
    return (members, j), q


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
    return sum(model.rates_after(validate_prefix(model.m, prefix)).values(), ZERO)


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


def _integer_row(model: LoadSharingModel, prefix: tuple) -> tuple[dict[int, int], int, int]:
    """``model.rates_after(prefix)`` as integer numerators over the lcm of its
    denominators: (numerator by survivor, their total, that lcm)."""
    row = model.rates_after(prefix)
    scale = math.lcm(*(q.denominator for q in row.values()))
    numerators = {j: q.numerator * (scale // q.denominator) for j, q in row.items()}
    return numerators, sum(numerators.values()), scale


def _row_reader(model: LoadSharingModel, build: Callable = _integer_row) -> Callable[[tuple], tuple]:
    """``build(model, prefix)`` as a function of ``prefix``; a set-invariant model's row is
    built once per failed set and kept while the reader lives."""
    if not isinstance(model, SetInvariantLSModel):
        return functools.partial(build, model)
    rows: dict[frozenset[int], tuple] = {}

    def read(prefix: tuple) -> tuple:
        if (failed := frozenset(prefix)) not in rows:
            rows[failed] = build(model, prefix)
        return rows[failed]

    return read


def _walk(
    model: LoadSharingModel, pool: Iterable[int], depth: int
) -> Iterator[tuple[tuple[int, ...], int, int, dict[int, int]]]:
    """(prefix, num, den, row) of each reachable prefix drawn from ``pool``.

    ``row`` holds the integer rates of :func:`_integer_row`, and survivor j
    fails next with probability ``num * row[j] / den``, unreduced. Depth
    first, up to length ``depth``; prefixes with total rate 0 are skipped.
    The stack holds ``depth`` levels of siblings, never the tree.
    """
    pool, read = frozenset(pool), _row_reader(model)
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

    h[(S, j)] = P(S fails first) * mu_j(S) / M(S), and P(S + j) sums them.
    The sets of one size carry numerators over one scale, the last scale
    times the lcm of their row totals (one total per size in a schedule
    model); at the end every entry is lifted in place to the last scale.
    """
    m = model.m
    h: dict[tuple[int, int], int] = {}
    scales = []  # scales[k]: the scale of the entries whose failed set has k members
    level, scale = {0: 1}, 1
    for _ in range(m - 1):
        rows = {
            mask: _integer_row(model, tuple(i for i in range(1, m + 1) if mask >> (i - 1) & 1))
            for mask in level
        }
        step = math.lcm(*{total for _, total, _ in rows.values()})  # each total is positive
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
