"""Probability signatures of coherent binary systems.

A coherent system on r components is given by its minimal path sets: the
system works exactly when some path set is fully working, every component
appears in some path set, and no path set contains another. Such a system
can only fail at the instant one of its components fails, so along a
failure order (J_1, ..., J_r) there is a well-defined step
:func:`failure_step` at which the system dies.

The probability signature is the law of that step: p_k is the probability
that the system lifetime equals the k-th order statistic of the component
lifetimes. It depends on the joint lifetime law only through the
failure-order distribution, which makes it exactly computable here and
lets :func:`ls_for_target_signature` manufacture a load-sharing model
hitting any feasible target signature (mass is spread uniformly over each
step's fiber of permutations - the simplest witness among many).

Time is deliberately absent: the conditional survival factors multiplying
p_k in the total-probability decomposition of system survival are not
modeled, only the failure orders are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .construction import invert_to_ls
from .core import ZERO, check_dimension, json_int, rational_format, rational_parse
from .core import validate_permutation
from .errors import DomainError, InfeasibleTargetError, InputFormatError
from .loadsharing import LoadSharingModel, OrderDependentLSModel, distribution_of
from .permdist import PermutationDistribution


@dataclass(frozen=True)
class StructureFunction:
    """A coherent structure given by its minimal path sets."""

    r: int
    path_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        check_dimension(self.r)
        sets = tuple(frozenset(ps) for ps in self.path_sets)
        if not sets:
            raise DomainError("at least one path set is required")
        covered: set[int] = set()
        for ps in sets:
            if not ps:
                raise DomainError("path sets must be non-empty")
            for x in ps:
                if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.r:
                    raise DomainError(f"component {x!r} outside [{self.r}]")
            covered |= ps
        # before the pairwise loop, which would be quadratic in the copies
        if len(set(sets)) != len(sets):
            raise DomainError("duplicate path sets")
        for a, b in itertools.permutations(sets, 2):
            if a < b:
                raise DomainError(
                    f"path set {sorted(b)} contains {sorted(a)}; sets must be minimal"
                )
        if covered != set(range(1, self.r + 1)):
            missing = sorted(set(range(1, self.r + 1)) - covered)
            raise DomainError(f"components {missing} appear in no path set (irrelevant)")
        object.__setattr__(
            self, "path_sets", tuple(sorted(sets, key=lambda s: sorted(s)))
        )

    def works(self, working: Iterable[int]) -> bool:
        alive = set(working)
        return any(ps <= alive for ps in self.path_sets)

    @classmethod
    def series(cls, r: int) -> "StructureFunction":
        return cls(r, (frozenset(range(1, r + 1)),))

    @classmethod
    def parallel(cls, r: int) -> "StructureFunction":
        return cls(r, tuple(frozenset({i}) for i in range(1, r + 1)))

    @classmethod
    def k_out_of_n(cls, r: int, k: int) -> "StructureFunction":
        """Works while at least k of the r components work."""
        if not 1 <= k <= r:
            raise DomainError(f"need 1 <= k <= r, got k={k}, r={r}")
        return cls(r, tuple(frozenset(c) for c in itertools.combinations(range(1, r + 1), k)))

    @classmethod
    def from_truth_table(
        cls, r: int, table: Mapping[tuple[int, ...], int]
    ) -> "StructureFunction":
        """Validate a full monotone truth table and extract minimal path sets.

        ``table`` maps every 0/1 state vector (component i working iff
        position i-1 is 1) to the system state. Monotonicity and the
        relevance of every component are checked before conversion.
        """
        check_dimension(r)
        states = list(itertools.product((0, 1), repeat=r))
        if set(table) != set(states):
            raise DomainError(f"truth table must cover all {2 ** r} states exactly")
        phi = {s: int(bool(table[s])) for s in states}
        if phi[(0,) * r] != 0 or phi[(1,) * r] != 1:
            raise DomainError("structure must fail with no components and work with all")
        for s in states:
            for i in range(r):
                if s[i] == 0:
                    up = s[:i] + (1,) + s[i + 1 :]
                    if phi[s] > phi[up]:
                        raise DomainError(f"structure is not monotone at state {s}")
        for i in range(r):
            if not any(
                s[i] == 0 and phi[s] != phi[s[:i] + (1,) + s[i + 1 :]] for s in states
            ):
                raise DomainError(f"component {i + 1} is irrelevant")
        working_sets = [
            frozenset(i + 1 for i in range(r) if s[i]) for s in states if phi[s]
        ]
        minimal = [
            ws for ws in working_sets if not any(other < ws for other in working_sets)
        ]
        return cls(r, tuple(set(minimal)))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "path_sets": [sorted(ps) for ps in self.path_sets]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StructureFunction":
        r = json_int(doc, "r")
        try:
            return cls(r, tuple(frozenset(ps) for ps in doc["path_sets"]))
        except (KeyError, TypeError) as ex:
            raise InputFormatError("path_sets: must be a list of lists of components") from ex
        except DomainError as ex:
            raise InputFormatError(str(ex)) from ex


@dataclass(frozen=True)
class ProbabilitySignature:
    """The law of the failure step: p_k = P(system dies at the k-th failure)."""

    p: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(Fraction(x) for x in self.p)
        if any(x < 0 for x in values):
            raise DomainError("signature entries must be non-negative")
        if sum(values, ZERO) != 1:
            raise DomainError(f"signature sums to {sum(values, ZERO)}, expected 1")
        object.__setattr__(self, "p", values)

    @property
    def r(self) -> int:
        return len(self.p)

    def to_json_list(self) -> list[str]:
        return [rational_format(x) for x in self.p]

    @classmethod
    def parse(cls, entries: Sequence) -> "ProbabilitySignature":
        return cls(tuple(rational_parse(e) if isinstance(e, str) else Fraction(e) for e in entries))


def failure_step(phi: StructureFunction, perm: Iterable[int]) -> int:
    """The failure count at which the system dies along order ``perm``.

    A path set is broken from its first member's failure on, and the
    system dies when the last of its path sets breaks.
    """
    position = {x: k for k, x in enumerate(validate_permutation(phi.r, perm), start=1)}
    return max(min(position[x] for x in ps) for ps in phi.path_sets)


def probability_signature(
    phi: StructureFunction, rho: PermutationDistribution
) -> ProbabilitySignature:
    """p_k = total weight of the failure orders that kill the system at step k."""
    if phi.r != rho.m:
        raise DomainError(f"structure has r={phi.r} but distribution has m={rho.m}")
    p = [ZERO] * phi.r
    for perm, weight in rho.weights.items():
        p[failure_step(phi, perm) - 1] += weight
    return ProbabilitySignature(tuple(p))


def signature_from_ls(
    phi: StructureFunction, model: LoadSharingModel
) -> ProbabilitySignature:
    """Signature of the system under a load-sharing failure-order law."""
    if phi.r != model.m:
        raise DomainError(f"structure has r={phi.r} but model has m={model.m}")
    return probability_signature(phi, distribution_of(model))


def step_fibers(phi: StructureFunction) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Partition of all r! permutations by the step at which the system dies."""
    fibers: dict[int, list[tuple[int, ...]]] = {k: [] for k in range(1, phi.r + 1)}
    for perm in itertools.permutations(range(1, phi.r + 1)):
        fibers[failure_step(phi, perm)].append(perm)
    return {k: tuple(v) for k, v in fibers.items()}


def survival_decomposition_terms(
    phi: StructureFunction, rho: PermutationDistribution
) -> list[tuple[Fraction, tuple[tuple[int, ...], ...]]]:
    """Per step k: the exact p_k and the full fiber of orders dying at k.

    The fibers partition all r! permutations regardless of the support of
    ``rho``. Conditional survival-time factors are out of scope: failure
    orders are modeled, time marginals are not.
    """
    sig = probability_signature(phi, rho)
    fibers = step_fibers(phi)
    return [(sig.p[k - 1], fibers[k]) for k in range(1, phi.r + 1)]


def ls_for_target_signature(
    phi: StructureFunction, target: ProbabilitySignature
) -> OrderDependentLSModel:
    """A load-sharing model realizing ``target`` exactly.

    Each step's mass is spread uniformly over its fiber of failure orders
    and the resulting distribution is inverted into rates. A target is
    feasible iff it puts no mass on a step whose fiber is empty.
    """
    if target.r != phi.r:
        raise DomainError(f"target has r={target.r} but structure has r={phi.r}")
    fibers = step_fibers(phi)
    weights: dict[tuple[int, ...], Fraction] = {}
    for k in range(1, phi.r + 1):
        mass = target.p[k - 1]
        if mass == 0:
            continue
        fiber = fibers[k]
        if not fiber:
            raise InfeasibleTargetError(
                f"target puts mass {mass} on step {k}, but no failure order "
                f"kills this structure at step {k}"
            )
        share = mass / len(fiber)
        for perm in fiber:
            weights[perm] = share
    rho = PermutationDistribution(phi.r, weights)
    return invert_to_ls(rho)
