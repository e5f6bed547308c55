import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    EpsilonSchedule,
    OrderDependentLSModel,
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    ScheduleError,
    build_ls_epsilon,
    certify_concordance,
    check_epsilon_condition,
    distribution_of,
    enumerate_patterns,
    epsilon_schedule,
    induced_pattern,
    invert_to_ls,
    pattern_cyclic,
    pattern_very_paradox,
)
from tests.conftest import majority_arcs, random_distribution


class TestInvertToLS:
    def test_worked_example_rates(self, example_model):
        assert example_model.rate((2,), 1) == Fraction(1, 2)
        assert example_model.rate((3,), 1) == Fraction(3, 8)
        assert example_model.rate((1,), 2) == Fraction(1, 3)
        assert example_model.rate((3,), 2) == Fraction(5, 8)
        assert example_model.rate((1,), 3) == Fraction(2, 3)
        assert example_model.rate((2,), 3) == Fraction(1, 2)

    def test_initial_rates_are_first_failure_marginals(self, example_model):
        assert example_model.rate((), 1) == Fraction(1, 3)
        assert example_model.rate((), 2) == Fraction(2, 9)
        assert example_model.rate((), 3) == Fraction(4, 9)

    def test_last_level_rates_are_one(self, example_model):
        import itertools

        for prefix in itertools.permutations((1, 2, 3), 2):
            (last,) = set((1, 2, 3)) - set(prefix)
            assert example_model.rate(prefix, last) == 1

    def test_uniform_distribution(self):
        model = invert_to_ls(PermutationDistribution.uniform(3))
        for j in (1, 2, 3):
            assert model.rate((), j) == Fraction(1, 3)
        assert model.rate((1,), 2) == Fraction(1, 2)

    def test_point_mass(self):
        model = invert_to_ls(PermutationDistribution.point_mass((2, 1, 3)))
        assert model.rate((), 2) == 1
        assert model.rate((), 1) == 0
        assert model.rate((2,), 1) == 1
        assert model.rate((2,), 3) == 0
        assert distribution_of(model) == PermutationDistribution.point_mass((2, 1, 3))

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, m, seed):
        rho = random_distribution(m, random.Random(seed))
        assert distribution_of(invert_to_ls(rho)) == rho

    def test_last_level_is_irrelevant(self, example_law, example_model):
        import itertools

        rewired = dict(example_model.rates)
        for prefix in itertools.permutations((1, 2, 3), 2):
            (last,) = set((1, 2, 3)) - set(prefix)
            rewired[(prefix, last)] = Fraction(7, 3)
        assert distribution_of(OrderDependentLSModel(3, rewired)) == example_law

    def test_needs_two_components(self):
        with pytest.raises(DomainError):
            invert_to_ls(PermutationDistribution.point_mass((1,)))


class TestEpsilonSchedule:
    def test_universal_values_m3(self):
        eps = epsilon_schedule(3)
        assert eps.eps == (0, Fraction(1, 306), Fraction(1, 93636))

    def test_universal_values_m2_m4(self):
        assert epsilon_schedule(2).value(2) == Fraction(1, 68)
        assert epsilon_schedule(4).value(2) == Fraction(1, 1632)

    def test_invariants_enforced(self):
        with pytest.raises(ScheduleError):
            EpsilonSchedule(2, (Fraction(1), Fraction(1, 68)))  # eps(1) != 0
        with pytest.raises(ScheduleError):
            EpsilonSchedule(3, (Fraction(0), Fraction(1, 4), Fraction(1, 2)))  # 2*eps(3) >= 1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_condition_passes_for_universal_schedule(self, m):
        report = check_epsilon_condition(epsilon_schedule(m))
        assert report.passed
        assert all(check.slack > 0 for check in report.levels)

    def test_condition_fails_for_flat_schedule(self):
        # eps(l) = 1/2 violates the separation at every level (and the
        # rate-positivity invariant, so build the report by hand parts)
        eps = EpsilonSchedule(3, (Fraction(0), Fraction(2, 9), Fraction(2, 9)))
        report = check_epsilon_condition(eps)
        assert not report.passed
        assert all(not check.passed for check in report.levels)

    @pytest.mark.parametrize(
        "eps",
        [("0",), ("0", "1/4"), ("0", "1/5"), ("0", "1/5", "1/20"), ("0", "1/5", "1/21"),
         ("0", "1/3", "1/21"), ("0", "1/5", "1/21", "1/63"), ("0", "1/5", "1/21", "1/64")],
    )
    def test_report_flags_are_the_eps_forms_of_the_decay_conditions(self, eps):
        schedule = EpsilonSchedule(len(eps), tuple(map(Fraction, eps)))
        e, m = schedule.value, schedule.m
        report = check_epsilon_condition(schedule)
        assert report.eps2_small == (m < 2 or e(2) < Fraction(1, 4))
        assert report.decay_holds == all(
            2 * (u - 1) * e(u) < (u - 2) * e(u - 1) for u in range(3, m + 1)
        )
        assert (report.eps2_small, report.decay_holds) == schedule.decay_conditions()

    def test_level_one_constrains_eps2(self):
        # level 1 reads eps(1) as 1: the inequality is eps(2) < 1/(16 m)
        m = 5
        report = check_epsilon_condition(epsilon_schedule(m))
        level1 = report.levels[0]
        assert level1.lhs == Fraction(1, 2 * m)
        assert level1.rhs == 8 * epsilon_schedule(m).value(2)


class TestBuildLSEpsilon:
    def test_rates_follow_the_ranks(self):
        fns = {
            (1, 2): {1: 1, 2: 2},
            (1, 3): {1: 1, 3: 2},
            (2, 3): {2: 1, 3: 2},
            (1, 2, 3): {1: 2, 2: 3, 3: 1},
        }
        sigma = RankingPattern(
            3, tuple(RankingFunction.of(mem, r) for mem, r in fns.items())
        )
        eps = epsilon_schedule(3)
        model = build_ls_epsilon(sigma, eps)
        e3 = eps.value(3)
        assert model.rate((), 1) == 1 - e3
        assert model.rate((), 2) == 1 - 2 * e3
        assert model.rate((), 3) == 1
        # singleton survivor sets always get rate 1
        assert model.rate((2, 3), 1) == 1

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_paradox_rates(self, m):
        base = 17 * m * math.factorial(m)
        model = build_ls_epsilon(pattern_very_paradox(m), epsilon_schedule(m))
        for j in range(2, m + 1):
            pair = (1, j)
            survivors_to_prefix = tuple(x for x in range(1, m + 1) if x not in pair)
            assert model.rate(survivors_to_prefix, 1) == 1
            assert model.rate(survivors_to_prefix, j) == 1 - Fraction(1, base)
        for size in range(3, m + 1):
            members = tuple(range(1, size + 1))
            prefix = tuple(range(size + 1, m + 1))
            assert model.rate(prefix, 1) == 1 - (size - 1) * Fraction(1, base ** (size - 1))

    def test_weak_pattern_rejected_with_pointer(self, example_pattern):
        with pytest.raises(DomainError, match=r"\(1, 2\); the schedule construction needs a tie-free"):
            build_ls_epsilon(example_pattern, epsilon_schedule(3))

    def test_oversized_epsilon_rejected(self):
        # a bottom-ranked member of a full-size subset would get rate
        # 1 - (m-1) * eps(m) <= 0; the schedule invariant blocks it
        with pytest.raises(ScheduleError):
            EpsilonSchedule(3, (Fraction(0), Fraction(1, 3), Fraction(1, 2)))


class TestCertifyConcordance:
    def test_all_m3_patterns_pass(self):
        count = 0
        for sigma in enumerate_patterns(3, non_weak_only=True):
            cert = certify_concordance(sigma)
            assert cert.passed, sigma.to_json_dict()
            count += 1
        assert count == 48

    def test_very_paradox_certificate_structure(self):
        cert = certify_concordance(pattern_very_paradox(4))
        assert cert.passed
        fam = cert.alphas
        for j in range(2, 5):
            assert fam.alpha((1, j), 1) > fam.alpha((1, j), j)
        for members in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 3, 4)]:
            for j in members:
                if j != 1:
                    assert fam.alpha(members, 1) < fam.alpha(members, j)

    @pytest.mark.parametrize(
        "build, m",
        [(pattern_very_paradox, 10), (pattern_very_paradox, 12), (pattern_cyclic, 12)],
        ids=["very-paradox-m10", "very-paradox-m12", "cyclic-m12"],
    )
    def test_generated_family_certifies_past_the_default_cap(self, monkeypatch, build, m):
        # the set-invariant route touches 2^m failed sets, never the m! orders
        monkeypatch.setenv("PRECEDENCE_MAX_M", str(m))
        with pytest.warns(RuntimeWarning):
            cert = certify_concordance(build(m))
        assert cert.passed and cert.verdict == "PASS"
        assert len(cert.alphas.sets()) == 2**m - m - 1

    def test_cyclic_certificate_has_the_cycle(self):
        cert = certify_concordance(pattern_cyclic(3))
        assert cert.passed
        edges = majority_arcs(induced_pattern(cert.alphas))
        assert {(1, 2), (2, 3), (3, 1)} <= edges
        assert not {(2, 1), (3, 2), (1, 3)} & edges

    @pytest.mark.parametrize("build", [pattern_cyclic, pattern_very_paradox])
    @pytest.mark.parametrize("c, verdict", [(6, "PASS"), (5, "FAIL")])
    def test_schedule_failing_the_sufficient_condition_gets_the_exact_verdict(
        self, build, c, verdict
    ):
        # the geometric schedule eps(l) = c^(1-l) fails the separation condition
        eps = EpsilonSchedule(4, (Fraction(0),) + tuple(Fraction(1, c ** (l - 1)) for l in (2, 3, 4)))
        assert not check_epsilon_condition(eps).passed
        cert = certify_concordance(build(4), eps)
        assert cert.model.epsilon is eps and cert.verdict == verdict
        assert bool(cert.report.violations) == (verdict == "FAIL")

    def test_certificate_json_is_self_contained(self):
        cert = certify_concordance(pattern_cyclic(3))
        doc = cert.to_json_dict()
        assert doc["verdict"] == "PASS"
        assert RankingPattern.from_json_dict(doc["pattern"]) == cert.sigma
        from precedence.loadsharing import model_from_json_dict

        assert model_from_json_dict(doc["model"]) == cert.model

    def test_schedule_weights_stay_rational(self):
        # the induced law must be all-rational so electorates can scale it
        model = build_ls_epsilon(pattern_cyclic(4), epsilon_schedule(4))
        rho = distribution_of(model)
        assert all(isinstance(w, Fraction) for w in rho.weights.values())
        assert sum(rho.weights.values()) == 1
