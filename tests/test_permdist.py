import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    InputFormatError,
    PermutationDistribution,
    WinningProbabilityFamily,
    alpha_family,
    alpha_family_bruteforce,
    build_ls_epsilon,
    distribution_of,
    epsilon_schedule,
    induced_pattern,
    invert_to_ls,
    pattern_cyclic,
)
from precedence import permdist
from precedence.core import ZERO, Checked, rational_format, subsets_of_size_at_least
from precedence.permdist import _OverScale, _over_one_scale, winner_sums
from tests.conftest import EXAMPLE_LAW_ALPHAS, majority_arcs, random_distribution


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle must not call the failed-set table code")


def reference_oracle(rho: PermutationDistribution) -> dict:
    """The oracle's numerators by a literal scan: per (order, subset), the
    winner is ``min(members, key=position)``."""
    subsets = subsets_of_size_at_least(rho.m, 2)
    sums = {(members, j): 0 for members in subsets for j in members}
    for perm, n in rho.numerators.items():
        position = {x: r for r, x in enumerate(perm)}.__getitem__
        for members in subsets:
            sums[(members, min(members, key=position))] += n
    return sums


def seeded_law(m: int, seed: int, kind: str) -> PermutationDistribution:
    """A law on [m]: dense or sparse small weights, zero weights kept in the
    caller's dict, or weights of ~640 bits over their total."""
    rng = random.Random(seed)
    perms = list(itertools.permutations(range(1, m + 1)))
    if kind == "sparse":
        perms = rng.sample(perms, rng.randint(1, len(perms)))
    raw = {perm: rng.getrandbits(640) if kind == "wide" else rng.randint(0, 3) for perm in perms}
    raw[perms[0]] += 1  # a positive total
    total = sum(raw.values())
    return PermutationDistribution(m, {perm: Fraction(v, total) for perm, v in raw.items()})


@st.composite
def distributions(draw, min_m=2, max_m=4):
    m = draw(st.integers(min_m, max_m))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_distribution(m, random.Random(seed))


class TestPermutationDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            PermutationDistribution(2, {(1, 2): Fraction(1, 2)})

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            PermutationDistribution(
                2, {(1, 2): Fraction(3, 2), (2, 1): Fraction(-1, 2)}
            )

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({(1, 2): Fraction(1, 2)}, "weights sum to 1/2, expected exactly 1"),
            (
                {(1, 2): Fraction(1, 2), (2, 1): Fraction(5, 6)},
                "weights sum to 4/3, expected exactly 1",
            ),
            (
                {(1, 2): Fraction(3, 2), (2, 1): Fraction(-1, 2)},
                "negative weight -1/2 for permutation (2, 1)",
            ),
            (
                Checked(_OverScale({(1, 2): 1, (2, 1): 2}, 4)),
                "weights sum to 3/4, expected exactly 1",
            ),
        ],
        ids=["short-sum", "long-sum", "negative", "short-sum-of-numerators"],
    )
    def test_rejects_by_name(self, weights, message):
        with pytest.raises(DomainError) as info:
            PermutationDistribution(2, weights)
        assert str(info.value) == message

    def test_zero_weights_dropped(self):
        rho = PermutationDistribution(2, {(1, 2): Fraction(1), (2, 1): Fraction(0)})
        assert rho.support() == ((1, 2),)
        assert rho.weight((2, 1)) == 0

    def test_loader_rejects_duplicates_and_bad_sums(self):
        with pytest.raises(InputFormatError, match="duplicate"):
            PermutationDistribution.from_json_dict(
                {"m": 2, "weights": [
                    {"perm": [1, 2], "p": "1/2"},
                    {"perm": [1, 2], "p": "1/2"},
                ]}
            )
        with pytest.raises(InputFormatError, match="sum"):
            PermutationDistribution.from_json_dict(
                {"m": 2, "weights": [{"perm": [1, 2], "p": "1/3"}]}
            )

    def test_json_roundtrip(self, example_law):
        assert PermutationDistribution.from_json_dict(example_law.to_json_dict()) == example_law


class TestWinningProbabilityFamily:
    @pytest.mark.parametrize(
        "alphas, message",
        [
            ({((1,), 1): Fraction(1)}, "subset (1,) has fewer than two members"),
            ({((1, 2), 3): Fraction(1)}, "index 3 not in subset (1, 2)"),
            # True == 1, and True in (1, 2), but an index is an int
            (
                {((1, 2), True): Fraction(1, 2), ((1, 2), 2): Fraction(1, 2)},
                "index True not in subset (1, 2)",
            ),
            (
                {((1, 2), 1): Fraction(3, 2), ((1, 2), 2): Fraction(-1, 2)},
                "alpha_1((1, 2)) = 3/2 outside [0, 1]",
            ),
            ({((1, 2), 1): Fraction(1)}, "incomplete entries for subset (1, 2)"),
            (
                {((1, 2), 1): Fraction(1, 2), ((1, 2), 2): Fraction(1, 3)},
                "alphas over (1, 2) sum to 5/6, expected 1",
            ),
            (
                # (2, 1) names the subset (1, 2) again: its entry is refused, not dropped
                {((1, 2), 1): Fraction(1, 2), ((2, 1), 1): Fraction(1, 2),
                 ((1, 2), 2): Fraction(0)},
                "duplicate entry ((1, 2), 1)",
            ),
        ],
        ids=[
            "singleton", "index-outside", "bool-index", "value-outside", "incomplete", "bad-sum",
            "renamed",
        ],
    )
    def test_rejects_by_name(self, alphas, message):
        with pytest.raises(DomainError) as info:
            WinningProbabilityFamily(3, alphas)
        assert str(info.value) == message

    def test_table_family_equals_the_hand_built_one(self, example_law):
        fam = alpha_family(example_law)
        assert fam == WinningProbabilityFamily(3, EXAMPLE_LAW_ALPHAS)
        changed = dict(EXAMPLE_LAW_ALPHAS)
        changed[((1, 2), 1)], changed[((1, 2), 2)] = Fraction(2, 3), Fraction(1, 3)
        assert fam != WinningProbabilityFamily(3, changed)
        with pytest.raises(TypeError):
            hash(fam)

    @settings(max_examples=30)
    @given(rho=distributions(max_m=5))
    def test_table_and_hand_built_families_agree_and_print_alike(self, rho):
        # the table keeps numerators over the weights' lcm; by hand, the
        # Fractions are lifted to the lcm of their own denominators
        fam = alpha_family(rho)
        by_hand = WinningProbabilityFamily(rho.m, dict(fam.alphas))
        assert fam == by_hand and by_hand == fam
        assert fam.to_json_list() == by_hand.to_json_list()
        assert all(
            fam.alpha_text(members, j) == rational_format(fam.alpha(members, j))
            for members, j in fam.alphas
        )


class TestOverOneScale:
    # unreduced pairs: few distinct denominators, so many pairs share one,
    # numerators with common factors, and zeros
    PAIRS = st.dictionaries(
        st.integers(0, 30),
        st.tuples(st.integers(-60, 60) | st.just(0), st.sampled_from([1, 2, 4, 6, 12, 30, 2**70])),
        max_size=12,
    )

    @example({"a": (2, 6), "b": (1, 6), "c": (3, 6)})
    @example({"a": (0, 12), "b": (4, 12), "c": (0, 5)})
    @example({})
    @given(PAIRS)
    def test_lifts_to_the_lcm_of_the_reduced_denominators(self, pairs):
        numerators, scale = _over_one_scale(pairs)
        assert list(numerators) == list(pairs)
        for key, (n, d) in pairs.items():
            assert Fraction(numerators[key], scale) == Fraction(n, d)
        assert scale == math.lcm(*(Fraction(n, d).denominator for n, d in pairs.values()))


def direct_winner_sums(m, h):
    """For each |A| >= 2 and j in A, the total of h[(S, j)] over the masks S
    inside [m] that miss every member of A, read entry by entry."""
    out = {}
    for size in range(2, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            for j in members:
                out[(members, j)] = sum(
                    w
                    for (s, i), w in h.items()
                    if i == j and s < 1 << m and not any(s >> (x - 1) & 1 for x in members)
                )
    return out


@st.composite
def sparse_tables(draw, max_m=6):
    """A table over [m] with missing keys, zero entries, entries past 1000
    bits, and keys (S, j) with j in S, which no subset sum reads."""
    m = draw(st.integers(1, max_m))
    keys = st.tuples(st.integers(0, (1 << m) - 1), st.integers(1, m))
    values = st.just(0) | st.integers(1, 1000) | st.integers(2**1000, 2**1100)
    return m, draw(st.dictionaries(keys, values, max_size=3 * m))


class TestWinnerSums:
    @settings(max_examples=60)
    @given(table=sparse_tables())
    def test_zeta_transform_equals_the_direct_submask_sums(self, table):
        m, h = table
        sums = winner_sums(m, h)
        direct = direct_winner_sums(m, h)
        assert sums == direct
        assert sorted(sums) == list(sums)  # subsets in the cached lexicographic order

    @pytest.mark.parametrize("m", range(1, 10))
    def test_wide_weights_against_the_definition(self, m):
        """Every (A, j) is the sum of h[(S, j)] over the subsets S of [m] \\ A,
        read submask by submask, on weights of 300 to 3000 bits."""
        rng = random.Random(m)
        full = (1 << m) - 1
        h = {
            (s, j): rng.getrandbits(rng.randint(300, 3000))
            for s in range(full + 1) for j in range(1, m + 1)
            if not s >> (j - 1) & 1 and rng.random() < 0.8
        }
        sums = winner_sums(m, h)
        assert list(sums) == [
            (members, j) for members in subsets_of_size_at_least(m, 2) for j in members
        ]
        for (members, j), total in sums.items():
            outside = full ^ sum(1 << (x - 1) for x in members)
            direct, s = 0, outside
            while True:
                direct += h.get((s, j), 0)
                if s == 0:
                    break
                s = (s - 1) & outside
            assert total == direct, (members, j)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_each_pass_adds_half_the_entries(self, m):
        """m - 1 passes, each adding half of the m * 2^(m-1) table entries: at
        m = 1 none and the family is empty, at m = 2 one pass of two adds."""
        adds = []

        class Counted(int):
            def __add__(self, other):
                adds.append(1)
                return Counted(int(self) + int(other))

        h = {
            (s, j): Counted(s * m + j)
            for s in range(1 << m) for j in range(1, m + 1) if not s >> (j - 1) & 1
        }
        sums = winner_sums(m, h)
        assert len(adds) == (m - 1) * m * (1 << (m - 1)) // 2
        if m == 1:
            assert sums == {}
        if m == 2:
            assert len(adds) == 2
            assert sums == {((1, 2), 1): h[(0, 1)], ((1, 2), 2): h[(0, 2)]}


def conditional(marginals, prefix, j):
    """P(J_{k+1} = j | the first k failures were ``prefix``): a ratio of two
    prefix marginals, with 0/0 := 0."""
    denominator = marginals.get(prefix, ZERO) if prefix else 1
    return marginals.get(prefix + (j,), ZERO) / denominator if denominator else ZERO


class TestMarginals:
    def test_worked_example_first_failure(self, example_law):
        marginals = example_law.prefix_marginals()
        assert marginals[(1,)] == Fraction(1, 3)
        assert marginals[(3,)] == Fraction(4, 9)

    def test_uniform_pair_prefix(self):
        assert PermutationDistribution.uniform(3).prefix_marginals()[(2, 3)] == Fraction(1, 6)

    def test_full_prefix_equals_stored_weight(self, example_law):
        marginals = example_law.prefix_marginals()
        for perm, w in example_law.weights.items():
            assert marginals[perm] == w

    @settings(max_examples=40)
    @given(rho=distributions())
    def test_monotone_consistency(self, rho):
        # p_k(prefix) decomposes over the possible next failures
        marginals = rho.prefix_marginals()
        for prefix in {perm[:k] for perm in rho.support() for k in (1, rho.m - 1)}:
            total = sum(
                marginals.get(prefix + (j,), ZERO)
                for j in range(1, rho.m + 1)
                if j not in prefix
            )
            assert marginals[prefix] == total


class TestConditionalNext:
    def test_worked_example(self, example_law):
        assert conditional(example_law.prefix_marginals(), (2,), 1) == Fraction(1, 2)

    def test_uniform_symmetry(self):
        marginals = PermutationDistribution.uniform(3).prefix_marginals()
        assert conditional(marginals, (1,), 2) == Fraction(1, 2)

    def test_zero_over_zero_convention(self):
        marginals = PermutationDistribution.point_mass((1, 2, 3)).prefix_marginals()
        assert conditional(marginals, (3, 1), 2) == 0

    @settings(max_examples=40, deadline=None)
    @given(rho=distributions(min_m=3, max_m=5))
    def test_the_inversion_rates_are_the_ratios(self, rho):
        # up to length m-2; after m-1 failures the inversion fixes the last rate to 1
        marginals, model = rho.prefix_marginals(), invert_to_ls(rho)
        ground = range(1, rho.m + 1)
        for k in range(rho.m - 1):
            for prefix in itertools.permutations(ground, k):
                for j in ground:
                    if j not in prefix:
                        assert model.rate(prefix, j) == conditional(marginals, prefix, j)


class TestAlphaFamily:
    def test_worked_example_values(self, example_law):
        fam = alpha_family(example_law)
        for (members, j), expected in EXAMPLE_LAW_ALPHAS.items():
            assert fam.alpha(members, j) == expected

    def test_uniform_is_exchangeable(self):
        for m in (2, 3, 4):
            fam = alpha_family(PermutationDistribution.uniform(m))
            for members in fam.sets():
                for j in members:
                    assert fam.alpha(members, j) == Fraction(1, len(members))

    @settings(max_examples=60)
    @given(rho=distributions())
    def test_matches_bruteforce_oracle(self, rho):
        assert alpha_family(rho) == alpha_family_bruteforce(rho)

    def test_matches_bruteforce_oracle_m5(self):
        rng = random.Random(505)
        for _ in range(5):
            rho = random_distribution(5, rng)
            fam = alpha_family(rho)
            assert fam == alpha_family_bruteforce(rho)
            for i, j in [(1, 2), (2, 5), (3, 4)]:
                direct = sum(
                    w for perm, w in rho.weights.items()
                    if perm.index(i) < perm.index(j)
                )
                assert fam.alpha((i, j), i) == direct

    @pytest.mark.parametrize("kind", ["dense", "sparse", "wide"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_oracle_equals_the_literal_scan(self, m, kind):
        for seed in range(3 if m < 6 else 1):
            rho = seeded_law(m, 10 * m + seed, kind)
            fam = alpha_family_bruteforce(rho)
            assert list(fam.numerators.items()) == list(reference_oracle(rho).items())
            assert fam.scale == rho.scale
        if kind == "wide" and m > 1:  # a law on [1] is a point mass, whatever its weight
            assert max(fam.numerators.values()).bit_length() > 600

    def test_oracle_at_m7_matches_alpha_family(self):
        dense = random_distribution(7, random.Random(7), sparse=False)
        cyclic = distribution_of(build_ls_epsilon(pattern_cyclic(7), epsilon_schedule(7)))
        assert len(cyclic.numerators) == 5040
        for rho in (dense, cyclic):
            assert alpha_family(rho) == alpha_family_bruteforce(rho)

    @settings(max_examples=30)
    @given(rho=distributions(max_m=5))
    def test_oracle_shares_no_table_code(self, rho):
        expected = alpha_family(rho)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("failed_set_table", "winner_sums", "family_from_table"):
                patch.setattr(permdist, name, _refuse)
            assert alpha_family_bruteforce(rho) == expected

    @settings(max_examples=40)
    @given(rho=distributions())
    def test_per_subset_normalization(self, rho):
        fam = alpha_family(rho)
        for members in fam.sets():
            assert sum(fam.alpha(members, j) for j in members) == 1

    @settings(max_examples=40)
    @given(rho=distributions(max_m=4))
    def test_pairwise_alpha_counts_precedence(self, rho):
        # alpha_i({i,j}) is the total weight of orders listing i before j
        fam = alpha_family(rho)
        m = rho.m
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                direct = sum(
                    w
                    for perm, w in rho.weights.items()
                    if perm.index(i) < perm.index(j)
                )
                assert fam.alpha((i, j), i) == direct


class TestMajorityDigraph:
    """The majority graph is read off the induced pattern's pair functions."""

    def test_worked_example(self, example_law):
        arcs = majority_arcs(induced_pattern(alpha_family(example_law)))
        assert arcs == {(1, 2), (2, 1), (3, 1), (3, 2)}

    def test_uniform_keeps_all_arcs(self):
        arcs = majority_arcs(induced_pattern(alpha_family(PermutationDistribution.uniform(3))))
        assert len(arcs) == 6

    def test_strict_inequality_single_arc(self):
        fam = WinningProbabilityFamily(
            2, {((1, 2), 1): Fraction(3, 5), ((1, 2), 2): Fraction(2, 5)}
        )
        assert majority_arcs(induced_pattern(fam)) == {(1, 2)}

    def test_missing_pair_is_an_error(self):
        fam = WinningProbabilityFamily(
            3, {((1, 2), 1): Fraction(1, 2), ((1, 2), 2): Fraction(1, 2)}
        )
        with pytest.raises(DomainError):
            induced_pattern(fam)
