import math
import random
from fractions import Fraction

import pytest

from precedence import (
    DomainError,
    InputFormatError,
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    VotingSituation,
    alpha_family,
    alpha_family_bruteforce,
    check_n_concordance,
    enumerate_patterns,
    induced_pattern,
    pattern_cyclic,
    pattern_very_paradox,
    rho_from_voting,
    synthesize_voting_situation,
    tally,
)
from tests.conftest import EXAMPLE_LAW_WEIGHTS, random_distribution


@pytest.fixture
def example_votes() -> VotingSituation:
    """18 voters realizing the worked-example law exactly."""
    return VotingSituation(
        3, {perm: int(w * 18) for perm, w in EXAMPLE_LAW_WEIGHTS.items()}
    )


def random_situation(m: int, rng: random.Random) -> VotingSituation:
    rho = random_distribution(m, rng)
    scale = math.lcm(*(w.denominator for w in rho.weights.values()))
    return VotingSituation(
        m, {perm: int(w * scale) for perm, w in rho.weights.items()}
    )


class TestVotingSituation:
    def test_needs_a_voter(self):
        with pytest.raises(DomainError):
            VotingSituation(2, {(1, 2): 0})

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            VotingSituation(2, {(1, 2): -1, (2, 1): 2})

    def test_json_roundtrip_with_big_counts(self):
        vs = VotingSituation(2, {(1, 2): 10**40 + 1, (2, 1): 3})
        assert VotingSituation.from_json_dict(vs.to_json_dict()) == vs

    def test_loader_points_at_bad_field(self):
        with pytest.raises(InputFormatError, match=r"counts\[0\]"):
            VotingSituation.from_json_dict({"m": 2, "counts": [{"perm": [1, 2]}]})


class TestRhoFromVoting:
    def test_scaled_worked_example(self, example_law, example_votes):
        assert rho_from_voting(example_votes) == example_law

    def test_single_voter_point_mass(self):
        vs = VotingSituation(3, {(1, 2, 3): 1})
        assert rho_from_voting(vs) == PermutationDistribution.point_mass((1, 2, 3))

    def test_two_opposite_voters(self):
        vs = VotingSituation(3, {(1, 2, 3): 1, (3, 2, 1): 1})
        rho = rho_from_voting(vs)
        assert rho.weight((1, 2, 3)) == Fraction(1, 2)
        assert rho.weight((3, 2, 1)) == Fraction(1, 2)


class TestTally:
    def test_worked_example_pair(self, example_votes):
        table = tally(example_votes)
        assert table.votes((2, 3), 3) == 12
        assert table.votes((2, 3), 2) == 6

    def test_single_voter_sweeps_every_election(self):
        table = tally(VotingSituation(3, {(1, 2, 3): 1}))
        for members in [(1, 2), (1, 3), (1, 2, 3)]:
            assert table.votes(members, 1) == 1
        assert table.votes((2, 3), 2) == 1

    def test_two_opposite_voters_split_pairs(self):
        table = tally(VotingSituation(3, {(1, 2, 3): 1, (3, 2, 1): 1}))
        assert table.votes((1, 3), 1) == 1
        assert table.votes((1, 3), 3) == 1

    def test_totals_per_election(self, example_votes):
        table = tally(example_votes)
        sets = {members for members, _ in table.tallies}
        for members in sets:
            assert sum(table.votes(members, i) for i in members) == example_votes.n

    def test_tallies_are_scaled_winning_probabilities(self):
        # n_i(A) = n * alpha_i(A): plurality support is exactly the
        # winning probability of the associated failure-order law
        rng = random.Random(21)
        for m in (2, 3, 4, 5):
            vs = random_situation(m, rng)
            fam = alpha_family(rho_from_voting(vs))
            oracle = alpha_family_bruteforce(rho_from_voting(vs))
            table = tally(vs)
            for members in fam.sets():
                for j in members:
                    assert table.votes(members, j) == vs.n * fam.alpha(members, j)
                    assert table.votes(members, j) == vs.n * oracle.alpha(members, j)


class TestNConcordance:
    def test_induced_pattern_matches_scaled_law(self, example_law, example_votes):
        tau = induced_pattern(alpha_family(example_law))
        assert check_n_concordance(tau, example_votes).passed

    def test_symmetric_situation_matches_all_ties(self):
        vs = VotingSituation(2, {(1, 2): 3, (2, 1): 3})
        tau = RankingPattern(2, (RankingFunction.of((1, 2), {1: 1, 2: 1}),))
        assert check_n_concordance(tau, vs).passed

    def test_flipped_pair_fails(self, example_votes):
        tau = RankingPattern(
            3,
            (
                RankingFunction.of((1, 2), {1: 1, 2: 1}),
                RankingFunction.of((1, 3), {1: 1, 3: 2}),  # flipped: 3 outpolls 1
                RankingFunction.of((2, 3), {3: 1, 2: 2}),
                RankingFunction.of((1, 2, 3), {3: 1, 1: 2, 2: 3}),
            ),
        )
        report = check_n_concordance(tau, example_votes)
        assert not report.passed
        assert {v.subset for v in report.violations} == {(1, 3)}


class TestSynthesis:
    def test_cyclic_pattern_yields_condorcet_cycle(self):
        sigma = pattern_cyclic(3)
        vs = synthesize_voting_situation(sigma)
        assert check_n_concordance(sigma, vs).passed
        table = tally(vs)
        assert table.votes((1, 2), 1) > table.votes((1, 2), 2)
        assert table.votes((2, 3), 2) > table.votes((2, 3), 3)
        assert table.votes((1, 3), 3) > table.votes((1, 3), 1)

    def test_two_candidate_majority(self):
        sigma = RankingPattern(2, (RankingFunction.of((1, 2), {1: 1, 2: 2}),))
        vs = synthesize_voting_situation(sigma)
        table = tally(vs)
        assert table.votes((1, 2), 1) > table.votes((1, 2), 2)

    def test_very_paradox_electorate(self):
        sigma = pattern_very_paradox(4)
        vs = synthesize_voting_situation(sigma)
        assert check_n_concordance(sigma, vs).passed
        table = tally(vs)
        for j in (2, 3, 4):
            assert table.votes((1, j), 1) > table.votes((1, j), j)
        for members in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)]:
            for j in members:
                if j != 1:
                    assert table.votes(members, 1) < table.votes(members, j)

    def test_sampled_patterns_all_concordant(self):
        for sigma in enumerate_patterns(3, non_weak_only=True, seed=2, limit=6):
            vs = synthesize_voting_situation(sigma)
            assert check_n_concordance(sigma, vs).passed
