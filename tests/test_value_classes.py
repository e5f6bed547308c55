"""Value semantics of the data classes: equality by content, never hashable."""

from fractions import Fraction

import pytest

from precedence import (
    EpsilonSchedule,
    OrderDependentLSModel,
    PermutationDistribution,
    SetInvariantLSModel,
    VotingSituation,
    WinningProbabilityFamily,
    tally,
)


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
    "build, stored",
    [pair for pair in VALUE_CLASSES.values() if pair[1] is not None],
    ids=[name for name, pair in VALUE_CLASSES.items() if pair[1] is not None],
)
def test_a_fraction_value_is_kept_not_copied(build, stored):
    x = Fraction(1, 3)
    assert stored(build(x)) is x


def test_set_invariant_equality_ignores_the_schedule():
    x = Fraction(1, 3)
    with_schedule = set_invariant(x, EpsilonSchedule(2, (Fraction(0), Fraction(1, 4))))
    assert with_schedule == set_invariant(x)
    assert with_schedule != set_invariant(Fraction(1, 2))
