"""The cached subset order of ``core`` and the lookups that take a caller's subset."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    PermutationDistribution,
    SetInvariantLSModel,
    SubsetMask,
    WinningProbabilityFamily,
    alpha_family,
    enumerate_patterns,
)
from precedence.core import subset_members, subsets_of_size_at_least


@given(m=st.integers(1, 6), k=st.integers(0, 7))
def test_subset_order_is_the_sorted_combinations(m, k):
    ground = range(1, m + 1)
    expected = sorted(c for n in range(k, m + 1) for c in itertools.combinations(ground, n))
    got = subsets_of_size_at_least(m, k)
    assert isinstance(got, tuple) and list(got) == expected
    assert subsets_of_size_at_least(m, k) is got


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pattern_lookups_take_every_subset_form(m, seed, data):
    sigma = next(enumerate_patterns(m, seed=seed, limit=1))
    members = data.draw(st.sampled_from(subsets_of_size_at_least(m, 2)))
    ranks = sigma.ranks[subsets_of_size_at_least(m, 2).index(members)]
    shuffled = data.draw(st.permutations(members))
    j = data.draw(st.sampled_from(members))
    for subset in (members, iter(shuffled), SubsetMask.of(m, shuffled)):
        assert sigma.rank(subset, j) == ranks[members.index(j)]
    for bad in (SubsetMask.of(m + 1, members), members[:-1] + (m + 1,), members[:1]):
        with pytest.raises(DomainError):
            sigma.rank(bad, j)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 6), data=st.data())
def test_family_is_complete_only_with_every_subset(m, data):
    full = alpha_family(PermutationDistribution.uniform(m))
    assert full.is_complete()
    dropped = data.draw(st.sampled_from(subsets_of_size_at_least(m, 2)))
    partial = {key: a for key, a in full.alphas.items() if key[0] != dropped}
    assert not WinningProbabilityFamily(m, partial).is_complete()
    pairs = [s for s in subsets_of_size_at_least(m, 2) if len(s) == 2]
    some = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    only_pairs = {key: a for key, a in full.alphas.items() if key[0] in some}
    assert WinningProbabilityFamily(m, only_pairs).is_complete() == (m == 2)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_cached_tuples_pass_through_and_others_are_checked(m):
    order = subsets_of_size_at_least(m, 1)
    assert set(subsets_of_size_at_least(m, 2)) <= set(order)
    for s in order:
        assert subset_members(m, s) == s
    if m < 2:
        return
    built = tuple(range(1, m + 1))
    assert subset_members(m, built) == built
    assert subset_members(m, reversed(built)) == built
    assert subset_members(m, SubsetMask.of(m, built)) == built
    assert subset_members(m + 1, order[-1]) == order[-1]
    for dim, bad, message in [
        (m, (True, 2), f"element True outside [{m}]"),
        (m, (1, 1), "repeated elements in subset (1, 1)"),
        (m, ("a", 1), f"element 'a' outside [{m}]"),  # checked before sorting, which would raise
        (m, (1, m + 1), f"element {m + 1} outside [{m}]"),
        (m - 1, order[-1], f"element {m} outside [{m - 1}]"),  # a cached tuple, another m
    ]:
        for subset in (bad, tuple(list(bad))):  # the object, and an equal fresh one
            with pytest.raises(DomainError) as info:
                subset_members(dim, subset)
            assert str(info.value) == message
    with pytest.raises(DomainError) as info:
        subset_members(m, SubsetMask.of(m + 1, [1]))
    assert str(info.value) == f"subset over [{m + 1}] used with m={m}"


@pytest.mark.parametrize("build", [SetInvariantLSModel, WinningProbabilityFamily])
def test_constructors_check_every_subset_object(build):
    half = Fraction(1, 2)
    # (True, 2) == (1, 2) with the same hash, so a check remembered by value would pass it
    with pytest.raises(DomainError) as info:
        build(2, {((1, 2), 1): half, ((True, 2), 2): half})
    assert str(info.value) == "element True outside [2]"
    bad = (1, 3)
    for again in (bad, tuple(list(bad))):  # the same object under two entries, or an equal one
        with pytest.raises(DomainError) as info:
            build(2, {((1, 2), 1): half, ((1, 2), 2): half, (bad, 1): half, (again, 3): half})
        assert str(info.value) == "element 3 outside [2]"


@pytest.mark.parametrize("build", [SetInvariantLSModel, WinningProbabilityFamily])
def test_constructors_refuse_one_subset_under_two_keys(build):
    half = Fraction(1, 2)
    for other in ((2, 1), SubsetMask.of(2, [1, 2])):  # a reordered tuple, a mask beside its tuple
        with pytest.raises(DomainError) as info:
            build(2, {((1, 2), 1): half, ((1, 2), 2): half, (other, 1): half, (other, 2): half})
        assert str(info.value) == "duplicate entry ((1, 2), 1)"
