"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every comparison is exact rational arithmetic unless a criterion states a
statistical tolerance (the Monte Carlo one uses a 4-sigma budget).
"""

import itertools
import math
import random
import time
from fractions import Fraction

from precedence import (
    PermutationDistribution,
    alpha_family,
    alpha_family_ls,
    beta_gamma_split,
    build_ls_epsilon,
    certify_concordance,
    check_epsilon_condition,
    check_n_concordance,
    check_prefix_bounds,
    distribution_of,
    enumerate_patterns,
    epsilon_schedule,
    estimate_alphas,
    invert_to_ls,
    pattern_cyclic,
    pattern_very_paradox,
    probability_signature,
    synthesize_voting_situation,
)
from precedence.signature import StructureFunction, failure_step
from tests.conftest import random_distribution


def report(number: int, label: str, budget_s: float):
    """Context manager printing '[criterion N] PASS/FAIL (elapsed)'."""

    class _Reporter:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[criterion {number:02d}] {verdict} ({elapsed:6.2f}s <= {budget_s}s) {label}")
            if exc_type is None:
                assert elapsed < budget_s, f"criterion {number} blew its {budget_s}s budget"
            return False

    return _Reporter()


def test_criterion_01_worked_example_alphas(example_law):
    expected = {
        ((1, 2, 3), 1): Fraction(1, 3),
        ((1, 2), 1): Fraction(1, 2),
        ((1, 3), 1): Fraction(4, 9),
        ((1, 2, 3), 2): Fraction(2, 9),
        ((2, 3), 2): Fraction(1, 3),
        ((1, 2, 3), 3): Fraction(4, 9),
        ((1, 3), 3): Fraction(5, 9),
        ((2, 3), 3): Fraction(2, 3),
    }
    with report(1, "worked-example winning probabilities, bit-exact", 1.0):
        fam = alpha_family(example_law)
        for (members, j), value in expected.items():
            assert fam.alpha(members, j) == value


def test_criterion_02_worked_example_inversion(example_law):
    expected_rates = {
        ((2,), 1): Fraction(1, 2),
        ((3,), 1): Fraction(3, 8),
        ((1,), 2): Fraction(1, 3),
        ((3,), 2): Fraction(5, 8),
        ((1,), 3): Fraction(2, 3),
        ((2,), 3): Fraction(1, 2),
    }
    with report(2, "worked-example inversion rates, bit-exact", 1.0):
        model = invert_to_ls(example_law)
        for (prefix, j), value in expected_rates.items():
            assert model.rate(prefix, j) == value
        for prefix in itertools.permutations((1, 2, 3), 2):
            (last,) = set((1, 2, 3)) - set(prefix)
            assert model.rate(prefix, last) == 1


def test_criterion_03_inversion_roundtrip():
    with report(3, "inversion roundtrip, 100 seeded laws per m in 2..5", 30.0):
        for m in (2, 3, 4, 5):
            rng = random.Random(1000 + m)
            for _ in range(100):
                rho = random_distribution(m, rng)
                assert distribution_of(invert_to_ls(rho)) == rho


def test_criterion_04_exhaustive_m3_concordance():
    with report(4, "all 48 tie-free patterns at m=3 certify", 10.0):
        count = 0
        for sigma in enumerate_patterns(3, non_weak_only=True):
            assert certify_concordance(sigma).passed
            count += 1
        assert count == 48


def _assert_paradox_structure(cert):
    m = cert.sigma.m
    fam = cert.alphas
    for j in range(2, m + 1):
        assert fam.alpha((1, j), 1) > fam.alpha((1, j), j)
    for size in range(3, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            if 1 not in members:
                continue
            for j in members:
                if j != 1:
                    assert fam.alpha(members, 1) < fam.alpha(members, j)


def test_criterion_05_sampled_concordance_m4_m5():
    with report(5, "sampled certification: 500 at m=4, 50 at m=5, paradoxes", 600.0):
        for sigma in enumerate_patterns(4, non_weak_only=True, seed=44, limit=500):
            assert certify_concordance(sigma).passed
        for sigma in enumerate_patterns(5, non_weak_only=True, seed=55, limit=50):
            assert certify_concordance(sigma).passed
        for m in (4, 5):
            cert = certify_concordance(pattern_very_paradox(m))
            assert cert.passed
            _assert_paradox_structure(cert)
            assert certify_concordance(pattern_cyclic(m)).passed


def test_criterion_06_epsilon_condition_all_m():
    with report(6, "universal schedule satisfies the separation, m <= 8", 1.0):
        for m in range(2, 9):
            rep = check_epsilon_condition(epsilon_schedule(m))
            assert rep.passed
            assert all(level.slack > 0 for level in rep.levels)


def test_criterion_07_prefix_probability_envelope():
    with report(7, "prefix-probability envelope, 20 patterns per m in 3..5", 60.0):
        for m in (3, 4, 5):
            eps = epsilon_schedule(m)
            for sigma in enumerate_patterns(m, non_weak_only=True, seed=700 + m, limit=20):
                model = build_ls_epsilon(sigma, eps)
                for k in range(1, m + 1):
                    for prefix in itertools.permutations(range(1, m + 1), k):
                        assert check_prefix_bounds(model, prefix).passed


def test_criterion_08_beta_gamma_bounds():
    with report(8, "empirical beta/gamma separation bounds, same samples", 60.0):
        for m in (3, 4, 5):
            eps = epsilon_schedule(m)
            # empirical extrema over the sample: witnesses only, not the
            # true extrema over all patterns (those are out of reach)
            beta_witness: dict[int, Fraction] = {}
            gamma_witness: dict[int, Fraction] = {}
            for sigma in enumerate_patterns(m, non_weak_only=True, seed=700 + m, limit=20):
                model = build_ls_epsilon(sigma, eps)
                for size in range(2, m):
                    beta_cap = 8 * size * eps.value(size + 1)
                    gamma_floor = Fraction(
                        math.factorial(m - size) * math.factorial(size - 1),
                        2 * math.factorial(m),
                    ) * eps.value(size)
                    for members in itertools.combinations(range(1, m + 1), size):
                        split = {i: beta_gamma_split(model, members, i) for i in members}
                        for i, j in itertools.permutations(members, 2):
                            beta_diff = split[i][0] - split[j][0]
                            assert beta_diff <= beta_cap
                            if beta_diff > beta_witness.get(size, Fraction(-1)):
                                beta_witness[size] = beta_diff
                            if sigma.rank(members, i) < sigma.rank(members, j):
                                gamma_diff = split[i][1] - split[j][1]
                                assert gamma_diff >= gamma_floor
                                if gamma_diff < gamma_witness.get(size, Fraction(2)):
                                    gamma_witness[size] = gamma_diff
            for size in sorted(beta_witness):
                cap = 8 * size * eps.value(size + 1)
                floor = Fraction(
                    math.factorial(m - size) * math.factorial(size - 1),
                    2 * math.factorial(m),
                ) * eps.value(size)
                print(
                    f"    m={m} |A|={size}: max beta diff (lower witness) "
                    f"{float(beta_witness[size]):.3e} <= cap {float(cap):.3e}; "
                    f"min concordant gamma diff (upper witness) "
                    f"{float(gamma_witness[size]):.3e} >= floor {float(floor):.3e}"
                )


def test_criterion_09_voting_synthesis_m3():
    with report(9, "48 electorates at m=3, integer tallies concordant", 30.0):
        for sigma in enumerate_patterns(3, non_weak_only=True):
            vs = synthesize_voting_situation(sigma)
            assert all(isinstance(c, int) for c in vs.counts.values())
            assert check_n_concordance(sigma, vs).passed


def test_criterion_10_signature_suite():
    with report(10, "signature suite: series, parallel, 2oo3, mixed, bridge", 5.0):
        for r in (2, 3, 4, 5):
            uniform = PermutationDistribution.uniform(r)
            series = probability_signature(StructureFunction.series(r), uniform)
            parallel = probability_signature(StructureFunction.parallel(r), uniform)
            assert series.p == (1,) + (0,) * (r - 1)
            assert parallel.p == (0,) * (r - 1) + (1,)
        two_of_three = StructureFunction.k_out_of_n(3, 2)
        assert probability_signature(
            two_of_three, PermutationDistribution.uniform(3)
        ).p == (0, 1, 0)
        mixed = StructureFunction(3, (frozenset({1, 2}), frozenset({1, 3})))
        assert probability_signature(
            mixed, PermutationDistribution.uniform(3)
        ).p == (Fraction(1, 3), Fraction(2, 3), 0)
        bridge = StructureFunction(
            5,
            (frozenset({1, 4}), frozenset({2, 5}), frozenset({1, 3, 5}),
             frozenset({2, 3, 4})),
        )
        counts = [0] * 5
        for perm in itertools.permutations(range(1, 6)):
            counts[failure_step(bridge, perm) - 1] += 1
        expected = tuple(Fraction(c, 120) for c in counts)
        assert probability_signature(
            bridge, PermutationDistribution.uniform(5)
        ).p == expected


def test_criterion_11_monte_carlo_consistency(example_law):
    with report(11, "Monte Carlo at N=200000: 4-sigma agreement, reproducible", 30.0):
        model = invert_to_ls(example_law)
        n = 200_000
        summary = estimate_alphas(model, n, seed=7)
        exact = alpha_family_ls(model)
        for (members, j), freq in summary.empirical_alpha.items():
            target = float(exact.alpha(members, j))
            tolerance = 4 * math.sqrt(target * (1 - target) / n)
            assert abs(freq - target) < tolerance, (members, j)
        rerun = estimate_alphas(model, n, seed=7)
        assert rerun == summary
        assert rerun.empirical_alpha == summary.empirical_alpha
        assert rerun.empirical_rho == summary.empirical_rho
