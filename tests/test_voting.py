import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    InputFormatError,
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    VotingSituation,
    alpha_family,
    alpha_family_bruteforce,
    build_ls_epsilon,
    check_n_concordance,
    distribution_of,
    enumerate_patterns,
    epsilon_schedule,
    induced_pattern,
    pattern_cyclic,
    pattern_very_paradox,
    rho_from_voting,
    synthesize_voting_situation,
    tally,
)
from tests.conftest import EXAMPLE_LAW_WEIGHTS


@pytest.fixture
def example_votes() -> VotingSituation:
    """18 voters realizing the worked-example law exactly."""
    return VotingSituation(
        3, {perm: int(w * 18) for perm, w in EXAMPLE_LAW_WEIGHTS.items()}
    )


@st.composite
def situations(draw, max_m=5):
    """A few rankings of [m] with counts that may share a factor."""
    m = draw(st.integers(2, max_m))
    perms = draw(
        st.lists(st.permutations(range(1, m + 1)), min_size=1, max_size=12, unique_by=tuple)
    )
    counts = draw(st.lists(st.integers(1, 30), min_size=len(perms), max_size=len(perms)))
    return VotingSituation(m, {tuple(p): c for p, c in zip(perms, counts)})


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

    @settings(max_examples=30, deadline=None)
    @given(vs=situations())
    def test_tallies_are_scaled_winning_probabilities(self, vs):
        # n_i(A) = n * alpha_i(A): plurality support is exactly the
        # winning probability of the associated failure-order law
        rho = rho_from_voting(vs)
        tallies = tally(vs).tallies
        for fam in (alpha_family(rho), alpha_family_bruteforce(rho)):
            assert {key: vs.n * alpha for key, alpha in fam.alphas.items()} == tallies


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

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_counts_are_the_cleared_law(self, m, seed):
        sigma = next(enumerate_patterns(m, True, seed=seed, limit=1))
        law = distribution_of(build_ls_epsilon(sigma, epsilon_schedule(m)))
        weights = {perm: law.weight(perm) for perm in law.support()}
        scale = math.lcm(*(w.denominator for w in weights.values()))
        cleared = {perm: w.numerator * (scale // w.denominator) for perm, w in weights.items()}
        assert synthesize_voting_situation(sigma).counts == cleared

    def test_sampled_patterns_all_concordant(self):
        for sigma in enumerate_patterns(3, non_weak_only=True, seed=2, limit=6):
            vs = synthesize_voting_situation(sigma)
            assert check_n_concordance(sigma, vs).passed
