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
  with a default-value slot (needed because set-invariant models assign
  one rate to exponentially many prefixes).
* :class:`SetInvariantLSModel`: rates keyed by the *survivor set*, i.e.
  order-independent by construction. These embed losslessly into the
  order-dependent representation via :func:`as_order_dependent`.

Both answer ``rates_after(prefix)``: the row of every survivor's rate
after a failure prefix, ascending by survivor. Every reader of more than
one rate (:func:`total_rate`, :func:`prefix_probability`, the walker, the
embedding and the sampler) takes whole rows; ``rate(prefix, j)`` is the
single-entry lookup.

:func:`distribution_of`, :func:`alpha_family_ls` and :func:`beta_gamma_split`
are reductions over one walker of the reachable failure prefixes, which
reads one row per prefix. Winning
probabilities sum the failed-set table of :mod:`precedence.permdist`, which
set-invariant models build by a DP that expands each failed set once, not
each of its k! orderings; they must agree exactly with the two-step route
through :func:`distribution_of`. On both routes the table is turned into
integer numerators over one scale before the subset sums, so it holds ints
only and each alpha becomes a Fraction once, as in ``alpha_family``.

For models built from an epsilon schedule the total rate of h survivors
closes to h - h*(h-1)/2 * eps(h) when the subset's ranking is tie-free:
the per-survivor discounts (rank - 1) * eps(h) sum over a full rank
permutation. Totals are nevertheless always computed by direct summation,
never from that closed form, so tied or hand-built rate tables need no
special casing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .core import (
    ONE,
    ZERO,
    SubsetMask,
    check_dimension,
    json_entries,
    json_int,
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
    failed_set_table,
    family_from_table,
    integer_weights,
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
        check_dimension(self.m)
        values = tuple(Fraction(e) for e in self.eps)
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
    rationals; prefixes run up to length m-1.
    """

    m: int
    rates: Mapping[tuple[tuple[int, ...], int], Fraction]
    default: Fraction = ZERO

    def __post_init__(self) -> None:
        check_dimension(self.m)
        default = Fraction(self.default)
        if default < 0:
            raise DomainError(f"negative default rate {default}")
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (prefix, j), value in self.rates.items():
            prefix = validate_prefix(self.m, prefix)
            if len(prefix) > self.m - 1:
                raise DomainError(f"prefix {prefix} too long for m={self.m}")
            if type(j) is not int or not 1 <= j <= self.m or j in prefix:
                raise DomainError(f"invalid survivor {j} for prefix {prefix}")
            q = value if type(value) is Fraction else Fraction(value)
            if q < 0:
                raise DomainError(f"negative rate {q} for mu_{j}{prefix}")
            clean[(prefix, j)] = q
        object.__setattr__(self, "rates", clean)
        object.__setattr__(self, "default", default)

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
        entries = sorted(self.rates)
        return {
            "m": self.m,
            "rates": [
                {"prefix": list(p), "j": j, "mu": rational_format(self.rates[(p, j)])}
                for p, j in entries
            ],
            "default": rational_format(self.default),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OrderDependentLSModel":
        m = json_int(doc, "m")
        rates = json_entries(
            doc,
            "rates",
            {"prefix", "j", "mu"},
            lambda e: ((tuple(e["prefix"]), e["j"]), rational_parse(e["mu"])),
        )
        try:
            return cls(m, rates, rational_parse(doc.get("default", "0")))
        except RationalParseError as ex:
            raise InputFormatError(f"default: {ex}") from ex
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


@dataclass(frozen=True)
class SetInvariantLSModel:
    """Rates keyed by survivor set: ``mu_j([m] \\ A)`` stored under (A, j).

    Order-independence is structural. When built from an epsilon schedule
    the schedule travels with the model (``epsilon``) so that bound checks
    can recover the rho magnitudes; equality ignores it.
    """

    m: int
    mu_by_survivors: Mapping[tuple[tuple[int, ...], int], Fraction]
    epsilon: EpsilonSchedule | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_dimension(self.m)
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for (survivors, j), value in self.mu_by_survivors.items():
            members = subset_members(self.m, survivors)
            if type(j) is not int or j not in members:
                raise DomainError(f"survivor {j!r} not in survivor set {members}")
            q = value if type(value) is Fraction else Fraction(value)
            if q < 0:
                raise DomainError(f"negative rate {q} for mu_{j} with survivors {members}")
            clean[(members, j)] = q
        for members in subsets_of_size_at_least(self.m, 1):
            total = ZERO
            for j in members:
                if (members, j) not in clean:
                    raise DomainError(f"missing rate for survivor {j} of set {members}")
                total += clean[(members, j)]
            if total <= 0:
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
        entries = sorted(self.mu_by_survivors)
        doc = {
            "m": self.m,
            "rates": [
                {
                    "survivors": list(s),
                    "j": j,
                    "mu": rational_format(self.mu_by_survivors[(s, j)]),
                }
                for s, j in entries
            ],
        }
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon.to_json_list()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SetInvariantLSModel":
        m = json_int(doc, "m")
        mu = json_entries(
            doc,
            "rates",
            {"survivors", "j", "mu"},
            lambda e: ((tuple(sorted(e["survivors"])), e["j"]), rational_parse(e["mu"])),
        )
        eps = None
        if "epsilon" in doc:
            try:
                eps = EpsilonSchedule(m, tuple(map(rational_parse, doc["epsilon"])))
            except (RationalParseError, ScheduleError, TypeError) as ex:
                raise InputFormatError(f"epsilon: {ex}") from ex
        try:
            return cls(m, mu, eps)
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


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


def _walk(
    model: LoadSharingModel, pool: Iterable[int], depth: int
) -> Iterator[tuple[tuple[int, ...], Fraction, dict[int, Fraction]]]:
    """(prefix, share, row) of each reachable prefix drawn from ``pool``.

    ``row`` is ``model.rates_after(prefix)`` and ``share`` is P(prefix) / M(prefix),
    so survivor j fails next with probability ``share * row[j]``. Depth
    first, up to length ``depth``; prefixes with total rate 0 are skipped.
    The stack holds ``depth`` levels of siblings, never the tree.
    """
    pool = frozenset(pool)
    stack = [((), ONE)]
    while stack:
        prefix, prob = stack.pop()
        row = model.rates_after(prefix)
        total = sum(row.values(), ZERO)
        if total == 0:
            continue
        share = prob / total
        yield prefix, share, row
        if len(prefix) < depth:
            children = [
                (prefix + (j,), share * mu) for j, mu in row.items() if mu and j in pool
            ]
            stack.extend(reversed(children))


def _failure_law(model: LoadSharingModel) -> dict[tuple[int, ...], Fraction]:
    """The probability of each reachable failure order.

    A permutation's probability is that of its (m-1)-prefix: the last
    survivor fails with certainty, so its rate is never read. Raises
    InvalidModelError when a reachable prefix has zero total rate, since
    the collected weights then sum below 1.
    """
    m = model.m
    weights = {(1,): ONE} if m == 1 else {}  # at m = 1 no prefix has length m - 2
    for prefix, share, row in _walk(model, range(1, m + 1), m - 2):
        if len(prefix) == m - 2:
            (a, mu_a), (b, mu_b) = row.items()
            if mu_a:
                weights[prefix + (a, b)] = share * mu_a
            if mu_b:
                weights[prefix + (b, a)] = share * mu_b
    mass = sum(weights.values(), ZERO)
    if mass != 1:
        raise InvalidModelError(
            f"reachable total rate vanished before exhaustion: mass {mass} != 1"
        )
    return weights


def distribution_of(model: LoadSharingModel) -> PermutationDistribution:
    """The exact failure-order law induced by the rate table (see :func:`_failure_law`)."""
    return PermutationDistribution(model.m, _failure_law(model))


def _set_invariant_table(model: SetInvariantLSModel) -> dict[tuple[int, int], Fraction]:
    """The failed-set table of a set-invariant model, expanding each failed set once.

    h[(S, j)] = P(S fails first) * mu_j(S) / M(S), and P(S + j) sums them.
    The rates of each survivor set are read once, and M(S) is their sum.
    """
    m = model.m
    rates = model.mu_by_survivors
    h: dict[tuple[int, int], Fraction] = {}
    level = {0: ONE}
    for _ in range(m - 1):
        reached: dict[int, Fraction] = {}
        for mask, prob in level.items():
            survivors = tuple(i for i in range(1, m + 1) if not mask >> (i - 1) & 1)
            mus = [rates[(survivors, j)] for j in survivors]
            share = prob / sum(mus, ZERO)  # the model guarantees a positive total
            for j, mu in zip(survivors, mus):
                if mu:
                    step = share * mu
                    h[(mask, j)] = step
                    grown = mask | 1 << (j - 1)
                    reached[grown] = reached.get(grown, ZERO) + step
        level = reached
    return h


def alpha_family_ls(model: LoadSharingModel) -> WinningProbabilityFamily:
    """Winning probabilities straight from the rates, no distribution detour.

    The failed-set table comes from a DP over failed sets for set-invariant
    models and from the reachable failure orders otherwise; either way its
    subset sums run on integer numerators over one scale. Equals
    ``alpha_family(distribution_of(model))`` exactly, and raises the same
    InvalidModelError on a model whose reachable rates vanish.
    """
    if isinstance(model, SetInvariantLSModel):
        h, scale = integer_weights(_set_invariant_table(model))
    else:
        numerators, scale = integer_weights(_failure_law(model))
        h = failed_set_table(numerators.items())
    return family_from_table(model.m, h, scale)


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
    if i not in members:
        raise DomainError(f"index {i} not in subset {members}")
    if ell < 2 or ell > model.m - 1:
        raise DomainError(
            f"split defined for 2 <= |A| <= m-1, got |A|={ell} with m={model.m}"
        )
    outside = tuple(x for x in range(1, model.m + 1) if x not in members)
    depth = model.m - ell
    beta = gamma = ZERO
    for prefix, share, row in _walk(model, outside, depth):
        term = share * row[i]
        if len(prefix) == depth:
            gamma += term
        else:
            beta += term
    return beta, gamma


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


def check_prefix_bounds(
    model: SetInvariantLSModel,
    prefix: Iterable[int],
    eps: EpsilonSchedule | None = None,
) -> PrefixBoundsReport:
    """Verify the near-uniformity envelope of a schedule-built model.

    For a model with rates 1 - (rank - 1) * eps(|A|) and a schedule whose
    rho magnitudes decay geometrically, every length-k prefix probability
    lies within

        (m-k)!/m! * (1 -/+ 2 * sum_{u=m-k+1..m} rho(u)).

    The schedule is taken from the model when not supplied explicitly.
    """
    prefix = validate_prefix(model.m, prefix)
    if eps is None:
        eps = model.epsilon
    if eps is None:
        raise DomainError("model carries no epsilon schedule; pass one explicitly")
    if eps.m != model.m:
        raise DomainError(f"schedule has m={eps.m} but model has m={model.m}")
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


def as_order_dependent(model: SetInvariantLSModel) -> OrderDependentLSModel:
    """Canonical injection: spell out the set-keyed rates for every prefix."""
    m = model.m
    rates = {
        (prefix, j): mu
        for k in range(m)
        for prefix in itertools.permutations(range(1, m + 1), k)
        for j, mu in model.rates_after(prefix).items()
    }
    return OrderDependentLSModel(m, rates)
