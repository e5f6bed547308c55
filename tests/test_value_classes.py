"""Value semantics of the data classes: equality by content, never hashable."""

import re
from fractions import Fraction

import pytest

from precedence import (
    EpsilonSchedule,
    OrderDependentLSModel,
    PermutationDistribution,
    ProbabilitySignature,
    SetInvariantLSModel,
    VotingSituation,
    WinningProbabilityFamily,
    tally,
)
from precedence.core import Checked
from precedence.errors import DomainError
from precedence.permdist import _OverScale


def set_invariant(x, epsilon=None):
    one = Fraction(1)
    rates = {((1, 2), 1): x, ((1, 2), 2): one, ((1,), 1): one, ((2,), 2): one}
    return SetInvariantLSModel(2, rates, epsilon)


# each builds one instance from a Fraction x in (0, 1), stored under the key given
VALUE_CLASSES = {
    "PermutationDistribution": (
        lambda x: PermutationDistribution(2, {(1, 2): x, (2, 1): 1 - x}),
        lambda obj: obj.weights[(1, 2)],
    ),
    "WinningProbabilityFamily": (
        lambda x: WinningProbabilityFamily(2, {((1, 2), 1): x, ((1, 2), 2): 1 - x}),
        lambda obj: obj.alphas[((1, 2), 1)],
    ),
    "OrderDependentLSModel": (
        lambda x: OrderDependentLSModel(2, {((), 1): x}, default=Fraction(1)),
        lambda obj: obj.rates[((), 1)],
    ),
    "SetInvariantLSModel": (set_invariant, lambda obj: obj.mu_by_survivors[((1, 2), 1)]),
    "VotingSituation": (
        lambda x: VotingSituation(2, {(1, 2): x.numerator, (2, 1): x.denominator}),
        None,
    ),
    "TallyTable": (
        lambda x: tally(VotingSituation(2, {(1, 2): x.numerator, (2, 1): x.denominator})),
        None,
    ),
}


@pytest.mark.parametrize("build, _", VALUE_CLASSES.values(), ids=VALUE_CLASSES.keys())
def test_equal_data_compares_equal_and_is_unhashable(build, _):
    a, b, changed = build(Fraction(1, 3)), build(Fraction(1, 3)), build(Fraction(1, 4))
    assert a is not b
    assert a == b and not a != b
    assert a != changed and not a == changed
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize(
    "name, build, stored",
    [(name, *pair) for name, pair in VALUE_CLASSES.items() if pair[1] is not None],
    ids=[name for name, pair in VALUE_CLASSES.items() if pair[1] is not None],
)
def test_a_fraction_value_is_kept_not_copied(name, build, stored):
    x = Fraction(1, 3)
    if name in ("PermutationDistribution", "WinningProbabilityFamily"):
        # stored as numerators over a scale: a read builds an equal Fraction
        value = stored(build(x))
        assert type(value) is Fraction and value == x
    else:
        assert stored(build(x)) is x


def test_a_law_from_numerators_compares_by_value_whatever_its_scale():
    halves = PermutationDistribution(2, Checked(_OverScale({(1, 2): 2, (2, 1): 2}, 4)))
    assert halves.scale == 4
    assert halves == PermutationDistribution(2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)})
    assert halves != PermutationDistribution(2, {(1, 2): Fraction(1, 4), (2, 1): Fraction(3, 4)})
    with pytest.raises(TypeError):
        hash(halves)


def test_set_invariant_equality_ignores_the_schedule():
    x = Fraction(1, 3)
    with_schedule = set_invariant(x, EpsilonSchedule(2, (Fraction(0), Fraction(1, 4))))
    assert with_schedule == set_invariant(x)
    assert with_schedule != set_invariant(Fraction(1, 2))


HALF = Fraction(1, 2)
# each gives one class a float or a bool where an exact rational belongs
INEXACT_VALUES = {
    "PermutationDistribution": (
        lambda: PermutationDistribution(2, {(1, 2): 0.5, (2, 1): 0.5}),
        "weight of (1, 2) = 0.5",
    ),
    "PermutationDistribution-bool": (
        lambda: PermutationDistribution(2, {(1, 2): True, (2, 1): False}),
        "weight of (1, 2) = True",
    ),
    "WinningProbabilityFamily": (
        lambda: WinningProbabilityFamily(2, {((1, 2), 1): HALF, ((1, 2), 2): 0.5}),
        "alpha_2((1, 2)) = 0.5",
    ),
    "OrderDependentLSModel": (
        lambda: OrderDependentLSModel(2, {((), 1): True}, default=Fraction(1)),
        "mu_1() = True",
    ),
    "OrderDependentLSModel-default": (
        lambda: OrderDependentLSModel(2, {}, default=1.5),
        "default rate = 1.5",
    ),
    "SetInvariantLSModel": (lambda: set_invariant(0.5), "mu_1 of (1, 2) = 0.5"),
    "EpsilonSchedule": (lambda: EpsilonSchedule(3, (0, 0.125, 0.0625)), "eps(2) = 0.125"),
    "ProbabilitySignature": (lambda: ProbabilitySignature((True, False)), "p_1 = True"),
}


@pytest.mark.parametrize("build, name", INEXACT_VALUES.values(), ids=INEXACT_VALUES.keys())
def test_a_float_or_bool_value_is_refused_by_name(build, name):
    with pytest.raises(DomainError, match=re.escape(f"{name} is not an int or a Fraction")):
        build()
