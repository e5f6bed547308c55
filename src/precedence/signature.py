"""Probability signatures of coherent binary systems.

A coherent system on r components is given by its minimal path sets: the
system works exactly when some path set is fully working, every component
appears in some path set, and no path set contains another. Such a system
can only fail at the instant one of its components fails, so along a
failure order (J_1, ..., J_r) there is a well-defined step
:func:`failure_step` at which the system dies.

The probability signature is the law of that step: p_k is the probability
that the system lifetime equals the k-th order statistic of the component
lifetimes. The step depends only on which components have failed, so p_k
sums the failed-set table that the winning probabilities sum
(:mod:`precedence.permdist`), built from a law or from a model's rates;
no route enumerates permutations, and :func:`failure_step` is the oracle.

Time is deliberately absent: the conditional survival factors multiplying
p_k in the total-probability decomposition of system survival are not
modeled, only the failure orders are.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .core import ZERO, Checked, as_fraction, bit_mask, check_dimension, json_dimension
from .core import rational_format, subsets_of_size_at_least, validate_permutation
from .errors import DomainError, InfeasibleTargetError, InputFormatError
from .loadsharing import LoadSharingModel, SetInvariantLSModel, _model_table
from .permdist import PermutationDistribution, failed_set_table


@dataclass(frozen=True)
class StructureFunction:
    """A coherent structure given by its minimal path sets."""

    r: int
    path_sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        check_dimension(self.r)
        given = tuple(self.path_sets)
        sets = tuple(frozenset(ps) for ps in given)
        if not sets:
            raise DomainError("at least one path set is required")
        covered: set[int] = set()
        for raw, ps in zip(given, sets):
            # each raw member before the repeat check: frozenset({1, True}) has one member
            for x in raw:
                if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= self.r:
                    raise DomainError(f"component {x!r} outside [{self.r}]")
            if not ps:
                raise DomainError("path sets must be non-empty")
            if len(ps) != len(raw):
                raise DomainError(f"path set {list(raw)} repeats a component")
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
        object.__setattr__(self, "path_sets", tuple(sorted(sets, key=sorted)))

    @classmethod
    def series(cls, r: int) -> "StructureFunction":
        return cls(r, (frozenset(range(1, check_dimension(r, warn=False) + 1)),))

    @classmethod
    def parallel(cls, r: int) -> "StructureFunction":
        return cls(r, tuple(frozenset({i}) for i in range(1, check_dimension(r, warn=False) + 1)))

    @classmethod
    def k_out_of_n(cls, r: int, k: int) -> "StructureFunction":
        """Works while at least k of the r components work."""
        components = range(1, check_dimension(r, warn=False) + 1)  # r first, as series does
        if type(k) is not int:
            raise DomainError(f"k must be an int, got {k!r}")
        if not 1 <= k <= r:
            raise DomainError(f"need 1 <= k <= r, got k={k}, r={r}")
        return cls(r, tuple(frozenset(c) for c in itertools.combinations(components, k)))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "path_sets": [sorted(ps) for ps in self.path_sets]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StructureFunction":
        r = json_dimension(doc, "r")
        try:
            return cls(r, tuple(doc["path_sets"]))
        except (KeyError, TypeError) as ex:
            raise InputFormatError("path_sets: must be a list of lists of components") from ex
        except DomainError as ex:
            raise InputFormatError(f"path_sets: {ex}") from ex


@dataclass(frozen=True)
class ProbabilitySignature:
    """The law of the failure step: p_k = P(system dies at the k-th failure)."""

    p: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(as_fraction(x, f"signature entry p_{k}") for k, x in enumerate(self.p, 1))
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


def failure_step(phi: StructureFunction, perm: Iterable[int]) -> int:
    """The failure count at which the system dies along order ``perm``.

    A path set is broken from its first member's failure on, and the
    system dies when the last of its path sets breaks.
    """
    position = {x: k for k, x in enumerate(validate_permutation(phi.r, perm), start=1)}
    return max(min(position[x] for x in ps) for ps in phi.path_sets)


def _cut_test(phi: StructureFunction) -> Callable[[int], bool]:
    """``cut(S)``: the failed set S (a bit mask) meets every path set; cached per S."""
    paths = [bit_mask(ps) for ps in phi.path_sets]
    return functools.cache(lambda failed: all(failed & ps for ps in paths))


def _step_law(phi: StructureFunction, h: Mapping, scale: int) -> ProbabilitySignature:
    """The signature of a failed-set table of numerators over ``scale``: p_k sums
    h[(S, j)] over the sets S of k-1 failures that are not cut while S + j is.
    The table stops before the last failure, so p_r is what is left of ``scale``."""
    cut = _cut_test(phi)
    p = [0] * phi.r
    for (failed, j), n in h.items():
        if cut(failed | 1 << (j - 1)) and not cut(failed):
            p[failed.bit_count()] += n
    p[-1] = scale - sum(p)
    return ProbabilitySignature(tuple(Fraction(n, scale) for n in p))


def probability_signature(
    phi: StructureFunction, rho: PermutationDistribution
) -> ProbabilitySignature:
    """p_k = total weight of the failure orders that kill the system at step k."""
    if phi.r != rho.m:
        raise DomainError(f"structure has r={phi.r} but distribution has m={rho.m}")
    return _step_law(phi, failed_set_table(rho.numerators.items()), rho.scale)


def signature_from_ls(phi: StructureFunction, model: LoadSharingModel) -> ProbabilitySignature:
    """Signature of the system under a load-sharing failure-order law."""
    if phi.r != model.m:
        raise DomainError(f"structure has r={phi.r} but model has m={model.m}")
    return _step_law(phi, *_model_table(model))


def ls_for_target_signature(
    phi: StructureFunction, target: ProbabilitySignature
) -> SetInvariantLSModel:
    """A set-invariant load-sharing model realizing ``target`` exactly.

    Sets that are not cut are closed under taking subsets, so the system can
    die at step k iff some such set W of k-1 members has a cut child W + c.
    Mass p_k flows along the first such W in the subset order, ascending,
    then to its smallest such c. The flow is carried as int numerators over
    the lcm of the target's denominators, and each row is built from them: a
    survivor's rate is the flow out of its failed set, over that scale; a set
    no flow leaves gives every survivor rate 1, over scale 1.
    """
    if target.r != phi.r:
        raise DomainError(f"target has r={target.r} but structure has r={phi.r}")
    r, cut = phi.r, _cut_test(phi)
    scale = math.lcm(*(mass.denominator for mass in target.p))
    flow: dict[tuple[int, ...], dict[int, int]] = {}  # survivors -> next failure -> numerator
    for k, mass in enumerate(target.p, start=1):
        if mass == 0:
            continue
        sets = (w for w in itertools.combinations(range(1, r + 1), k - 1) if not cut(bit_mask(w)))
        dying = (w + (c,) for w in sets for c in range(1, r + 1) if c not in w)
        chain = next((w for w in dying if cut(bit_mask(w))), None)
        if chain is None:
            raise InfeasibleTargetError(
                f"target puts mass {mass} on step {k}, but no failure order "
                f"kills this structure at step {k}"
            )
        n = mass.numerator * (scale // mass.denominator)
        alive = tuple(range(1, r + 1))
        for j in chain:
            flow.setdefault(alive, dict.fromkeys(alive, 0))[j] += n
            alive = tuple(x for x in alive if x != j)
    # the rows' keys are the cached subset tuples
    rows = {alive: (dict.fromkeys(alive, 1), len(alive), 1) for alive in subsets_of_size_at_least(r, 1)}
    rows.update((alive, (out, sum(out.values()), scale)) for alive, out in flow.items())
    return SetInvariantLSModel(r, Checked(rows))
