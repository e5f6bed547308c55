import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from precedence import (
    DomainError,
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    WinningProbabilityFamily,
    alpha_family,
    check_p_concordance,
    enumerate_patterns,
    induced_pattern,
    pattern_count,
    pattern_cyclic,
    pattern_very_paradox,
)
from precedence.ranking import fubini, score_concordance
from tests.conftest import random_distribution


class TestRankingFunction:
    def test_dense_image_required(self):
        with pytest.raises(DomainError):
            RankingFunction.of((1, 2, 3), {1: 1, 2: 3, 3: 3})  # skips rank 2

    def test_weak_flag(self):
        tied = RankingFunction.of((1, 2), {1: 1, 2: 1})
        strict = RankingFunction.of((1, 2), {1: 1, 2: 2})
        assert tied.is_weak and not strict.is_weak

    def test_must_cover_subset(self):
        with pytest.raises(DomainError):
            RankingFunction.of((1, 2, 3), {1: 1, 2: 2})

    @pytest.mark.parametrize(
        "members, ranks",
        [
            ((1.5, 2), ((1.5, 1), (2, 2))),
            ((1.0, 2), ((1, 1), (2, 2))),
            ((True, 2), ((1, 1), (2, 2))),
        ],
        ids=["fractional", "float-valued-int", "bool"],
    )
    def test_members_must_be_ints(self, members, ranks):
        with pytest.raises(DomainError, match="not an integer"):
            RankingFunction(members, ranks)

    @pytest.mark.parametrize(
        "ranks, bad",
        [
            (((1, 1.0), (2, 2)), "rank 1.0 of member 1"),
            (((1, 1), (2, True)), "rank True of member 2"),
        ],
        ids=["float", "bool"],
    )
    def test_ranks_must_be_ints(self, ranks, bad):
        # {1.0, 2} and {1, True} both equal the dense image {1, 2}
        with pytest.raises(DomainError) as info:
            RankingFunction((1, 2), ranks)
        assert str(info.value) == f"{bad} in subset (1, 2) is not an integer"


class TestRankingPattern:
    def test_requires_every_subset(self):
        fn = RankingFunction.of((1, 2), {1: 1, 2: 2})
        with pytest.raises(DomainError, match="missing"):
            RankingPattern(3, (fn,))

    def test_json_roundtrip(self, example_pattern):
        doc = example_pattern.to_json_dict()
        assert RankingPattern.from_json_dict(doc) == example_pattern

    def test_weak_detection(self, example_pattern):
        assert example_pattern.is_weak
        assert example_pattern.weak_subsets() == ((1, 2),)

    def test_rejects_a_duplicate_function(self):
        fn = RankingFunction.of((1, 2), {1: 1, 2: 2})
        with pytest.raises(DomainError) as info:
            RankingPattern(2, (fn, fn))
        assert str(info.value) == "duplicate ranking function for subset (1, 2)"

    def test_rejects_an_element_outside_m(self):
        fn = RankingFunction.of((1, 3), {1: 1, 3: 2})
        with pytest.raises(DomainError) as info:
            RankingPattern(2, (fn,))
        assert str(info.value) == "element 3 outside [2]"


class TestInducedPattern:
    def test_worked_example(self, example_law, example_pattern):
        assert induced_pattern(alpha_family(example_law)) == example_pattern

    def test_uniform_all_ties(self):
        fam = alpha_family(PermutationDistribution.uniform(3))
        sigma = induced_pattern(fam)
        for fn in sigma.functions:
            assert all(r == 1 for _, r in fn.ranks)

    def test_strictly_sorted_alphas(self):
        fam = WinningProbabilityFamily(
            4,
            {
                ((1, 2, 3, 4), j): Fraction(5 - j, 10)
                for j in (1, 2, 3, 4)
            }
            | {
                (pair, j): Fraction(1, 2)
                for pair in itertools.combinations(range(1, 5), 2)
                for j in pair
            }
            | {
                (triple, j): Fraction(1, 3)
                for triple in itertools.combinations(range(1, 5), 3)
                for j in triple
            },
        )
        sigma = induced_pattern(fam)
        assert [sigma.rank((1, 2, 3, 4), j) for j in (1, 2, 3, 4)] == [1, 2, 3, 4]

    def test_self_consistency_on_random_laws(self):
        rng = random.Random(17)
        for m in (2, 3, 4):
            for _ in range(10):
                fam = alpha_family(random_distribution(m, rng))
                sigma = induced_pattern(fam)
                assert check_p_concordance(sigma, fam).passed


class TestPConcordance:
    def test_worked_example_passes(self, example_law, example_pattern):
        report = check_p_concordance(example_pattern, alpha_family(example_law))
        assert report.passed and report.verdict == "PASS"

    def test_all_ties_pattern_matches_uniform_law(self):
        fam = alpha_family(PermutationDistribution.uniform(3))
        all_ties = RankingPattern(
            3,
            tuple(
                RankingFunction.of(members, {j: 1 for j in members})
                for members in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]
            ),
        )
        assert check_p_concordance(all_ties, fam).passed

    def test_perturbed_rank_fails_at_the_right_subset(self, example_law, example_pattern):
        fns = [
            RankingFunction.of((1, 2, 3), {3: 2, 1: 1, 2: 3})
            if fn.members == (1, 2, 3)
            else fn
            for fn in example_pattern.functions
        ]
        report = check_p_concordance(RankingPattern(3, tuple(fns)), alpha_family(example_law))
        assert not report.passed
        assert all(v.subset == (1, 2, 3) for v in report.violations)

    @pytest.mark.parametrize("sign, verdict", [(-1, "PASS"), (1, "FAIL")])
    def test_verdict_is_read_off_the_violations(self, example_pattern, sign, verdict):
        # a score falling with the rank is concordant; one rising with it is not
        ranks = {fn.members: dict(fn.ranks) for fn in example_pattern.functions}
        report = score_concordance(example_pattern, lambda members, j: sign * ranks[members][j])
        assert report.verdict == verdict
        assert report.passed is (verdict == "PASS") is (not report.violations)

    def test_dimension_mismatch(self, example_pattern):
        fam = alpha_family(PermutationDistribution.uniform(4))
        with pytest.raises(DomainError):
            check_p_concordance(example_pattern, fam)


class TestGenerators:
    def test_very_paradox_m3(self):
        sigma = pattern_very_paradox(3)
        assert sigma.rank((1, 2), 1) == 1
        assert sigma.rank((1, 3), 1) == 1
        assert sigma.rank((1, 2, 3), 1) == 3

    def test_very_paradox_m4(self):
        sigma = pattern_very_paradox(4)
        assert sigma.rank((1, 2, 3), 1) == 3
        # subsets without element 1 fall back to ascending-by-index filler
        assert [sigma.rank((2, 3, 4), j) for j in (2, 3, 4)] == [1, 2, 3]
        assert not sigma.is_weak

    def test_cyclic_m3(self):
        sigma = pattern_cyclic(3)
        assert sigma.rank((1, 2), 1) == 1
        assert sigma.rank((2, 3), 2) == 1
        assert sigma.rank((1, 3), 3) == 1
        assert [sigma.rank((1, 2, 3), j) for j in (1, 2, 3)] == [1, 2, 3]

    def test_cyclic_m4_wraparound(self):
        sigma = pattern_cyclic(4)
        assert sigma.rank((1, 4), 4) == 1
        assert not sigma.is_weak

    @pytest.mark.parametrize("gen", [pattern_very_paradox, pattern_cyclic])
    def test_generators_need_m3(self, gen):
        with pytest.raises(DomainError):
            gen(2)

    @pytest.mark.parametrize("gen", [pattern_very_paradox, pattern_cyclic])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_generators_are_never_weak(self, gen, m):
        assert not gen(m).is_weak


class TestEnumeration:
    def test_m3_strict_count(self):
        # independent count: 2 strict orders per pair (3 pairs), 6 per triple
        expected = 2 * 2 * 2 * 6
        assert expected == 48
        got = list(enumerate_patterns(3, non_weak_only=True))
        assert len(got) == expected
        assert len({p.to_json_dict().__str__() for p in got}) == expected
        assert all(not p.is_weak for p in got)

    def test_m2_strict_count(self):
        assert len(list(enumerate_patterns(2, non_weak_only=True))) == 2

    def test_m3_full_count(self):
        # per subset of size s there are as many ranking functions as
        # surjections onto {1..w}; brute-count them independently
        def dense_count(s):
            count = 0
            for values in itertools.product(range(1, s + 1), repeat=s):
                image = set(values)
                if image == set(range(1, max(image) + 1)):
                    count += 1
            return count

        assert dense_count(2) == 3 and dense_count(3) == 13
        expected = 3 * 3 * 3 * 13  # = 351
        got = list(enumerate_patterns(3))
        assert len(got) == expected
        assert pattern_count(3, non_weak_only=False) == expected
        assert fubini(3) == 13

    def test_exhaustive_refused_for_m4_with_count(self):
        with pytest.raises(DomainError) as err:
            list(enumerate_patterns(4, non_weak_only=True))
        assert str(pattern_count(4, non_weak_only=True)) in str(err.value)

    @pytest.mark.parametrize("seed", [None, 4], ids=["exhaustive", "seeded"])
    @pytest.mark.parametrize("limit", [-1, 1.5, True])
    def test_bad_limit_is_domain_error(self, seed, limit):
        with pytest.raises(DomainError) as err:
            list(enumerate_patterns(3, True, seed=seed, limit=limit))
        assert str(err.value) == f"limit must be a non-negative integer, got {limit!r}"

    def test_zero_limit_yields_nothing(self):
        assert list(enumerate_patterns(3, seed=4, limit=0)) == []
        assert list(enumerate_patterns(3, limit=0)) == []

    def test_sampling_is_deterministic(self):
        a = [p.to_json_dict() for p in enumerate_patterns(4, True, seed=9, limit=5)]
        b = [p.to_json_dict() for p in enumerate_patterns(4, True, seed=9, limit=5)]
        c = [p.to_json_dict() for p in enumerate_patterns(4, True, seed=10, limit=5)]
        assert a == b
        assert a != c

    # sha256 of the JSON list of the stream's documents, pinned at the
    # commit before the generators shared one per-subset builder
    @pytest.mark.parametrize(
        "non_weak_only, limit, digest",
        [
            (False, None, "fac54b286880cc19d86d60f67994de33dcfa4f1defd17fc9580937dfdd8dd722"),
            (False, 5, "a03bd63db48dbb129830cb38b777e8d144c638bace3fd9b0c9fc5f2d9090ad0b"),
            (True, None, "2210923e8ab8be337867fe208d35080cf2985b8ff347981060c1d8d50f5e32fb"),
            (True, 5, "fab4f20a00748bff88f93e208e3a1e11889ac17eda93a21fbc9fdccb646095b8"),
        ],
    )
    def test_exhaustive_stream_is_pinned(self, non_weak_only, limit, digest):
        docs = [p.to_json_dict() for p in enumerate_patterns(3, non_weak_only, limit=limit)]
        assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == digest

    def test_sampled_weak_patterns_are_valid(self):
        for sigma in enumerate_patterns(3, non_weak_only=False, seed=3, limit=20):
            RankingPattern(3, sigma.functions)  # revalidates dense images
