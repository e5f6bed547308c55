import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    InfeasibleTargetError,
    PermutationDistribution,
    ProbabilitySignature,
    StructureFunction,
    failure_step,
    ls_for_target_signature,
    probability_signature,
    signature_from_ls,
    survival_decomposition_terms,
)
from tests.conftest import random_distribution

BRIDGE = StructureFunction(
    5, (frozenset({1, 4}), frozenset({2, 5}), frozenset({1, 3, 5}), frozenset({2, 3, 4}))
)

ONE_SERIES_PARALLEL = StructureFunction(3, (frozenset({1, 2}), frozenset({1, 3})))


def oracle_failure_step(path_sets, r, perm):
    """Independent re-derivation: evaluate the structure on explicit
    working sets instead of using StructureFunction.works."""
    for k in range(1, r + 1):
        alive = set(range(1, r + 1)) - set(perm[:k])
        if not any(set(ps) <= alive for ps in path_sets):
            return k
    raise AssertionError("coherent structures must fail")


@st.composite
def structures_with_orders(draw, max_r=6):
    """A random coherent structure (minimal sets, relabelled to cover [r]) and an order."""
    r = draw(st.integers(1, max_r))
    raw = draw(st.lists(st.frozensets(st.integers(1, r), min_size=1), min_size=1, max_size=8))
    minimal = {a for a in raw if not any(b < a for b in raw)}
    label = {x: i for i, x in enumerate(sorted(set().union(*minimal)), start=1)}
    phi = StructureFunction(len(label), tuple(frozenset(label[x] for x in ps) for ps in minimal))
    return phi, tuple(draw(st.permutations(range(1, phi.r + 1))))


class TestStructureFunction:
    def test_rejects_nested_path_sets(self):
        with pytest.raises(DomainError, match="minimal"):
            StructureFunction(3, (frozenset({1}), frozenset({1, 2}), frozenset({3})))

    def test_rejects_irrelevant_component(self):
        with pytest.raises(DomainError, match="no path set"):
            StructureFunction(3, (frozenset({1}), frozenset({2})))

    def test_rejects_no_path_sets(self):
        with pytest.raises(DomainError) as info:
            StructureFunction(2, ())
        assert str(info.value) == "at least one path set is required"

    def test_rejects_empty_path_set(self):
        with pytest.raises(DomainError):
            StructureFunction(2, (frozenset(), frozenset({1, 2})))

    def test_json_roundtrip(self):
        assert StructureFunction.from_json_dict(BRIDGE.to_json_dict()) == BRIDGE

    def test_truth_table_import_matches_path_sets(self):
        table = {}
        for state in itertools.product((0, 1), repeat=3):
            alive = {i + 1 for i in range(3) if state[i]}
            table[state] = 1 if ONE_SERIES_PARALLEL.works(alive) else 0
        rebuilt = StructureFunction.from_truth_table(3, table)
        assert rebuilt == ONE_SERIES_PARALLEL

    def test_truth_table_rejects_non_monotone(self):
        table = {s: 0 for s in itertools.product((0, 1), repeat=2)}
        table[(1, 0)] = 1
        table[(1, 1)] = 0
        with pytest.raises(DomainError):
            StructureFunction.from_truth_table(2, table)

    def test_truth_table_rejects_irrelevant(self):
        # phi ignores component 2 entirely
        table = {s: s[0] for s in itertools.product((0, 1), repeat=2)}
        with pytest.raises(DomainError, match="irrelevant"):
            StructureFunction.from_truth_table(2, table)


class TestFailureStep:
    def test_series_fails_first(self):
        phi = StructureFunction.series(3)
        for perm in itertools.permutations((1, 2, 3)):
            assert failure_step(phi, perm) == 1

    def test_parallel_fails_last(self):
        phi = StructureFunction.parallel(3)
        for perm in itertools.permutations((1, 2, 3)):
            assert failure_step(phi, perm) == 3

    def test_two_out_of_three_fails_second(self):
        phi = StructureFunction.k_out_of_n(3, 2)
        for perm in itertools.permutations((1, 2, 3)):
            assert failure_step(phi, perm) == 2

    @settings(max_examples=200, deadline=None)
    @given(case=structures_with_orders())
    def test_matches_the_step_by_step_scan(self, case):
        phi, perm = case
        assert failure_step(phi, perm) == oracle_failure_step(phi.path_sets, phi.r, perm)

    def test_bridge_matches_oracle(self):
        for perm in itertools.permutations(range(1, 6)):
            assert failure_step(BRIDGE, perm) == oracle_failure_step(
                BRIDGE.path_sets, 5, perm
            )


class TestProbabilitySignature:
    def test_two_out_of_three_is_degenerate(self, example_law):
        phi = StructureFunction.k_out_of_n(3, 2)
        assert probability_signature(phi, example_law).p == (0, 1, 0)

    def test_one_series_parallel_uniform(self):
        sig = probability_signature(
            ONE_SERIES_PARALLEL, PermutationDistribution.uniform(3)
        )
        assert sig.p == (Fraction(1, 3), Fraction(2, 3), 0)

    def test_bridge_uniform_matches_enumeration(self):
        # brute-force oracle: count fiber sizes over all 120 orders
        counts = [0] * 5
        for perm in itertools.permutations(range(1, 6)):
            counts[oracle_failure_step(BRIDGE.path_sets, 5, perm) - 1] += 1
        assert sum(counts) == 120
        expected = tuple(Fraction(c, 120) for c in counts)
        sig = probability_signature(BRIDGE, PermutationDistribution.uniform(5))
        assert sig.p == expected

    def test_series_parallel_duality(self):
        for r in (2, 3, 4, 5):
            rho = PermutationDistribution.uniform(r)
            series = probability_signature(StructureFunction.series(r), rho).p
            parallel = probability_signature(StructureFunction.parallel(r), rho).p
            assert series == tuple(reversed(parallel))
            assert series == (1,) + (0,) * (r - 1)

    def test_signature_sums_to_one_on_random_laws(self):
        rng = random.Random(6)
        for _ in range(10):
            rho = random_distribution(4, rng)
            phi = StructureFunction.k_out_of_n(4, 2)
            assert sum(probability_signature(phi, rho).p) == 1

    def test_uniform_law_gives_structural_signature(self):
        # exchangeable components: p_k = |fiber(k)| / r!
        import math

        for phi in (BRIDGE, ONE_SERIES_PARALLEL, StructureFunction.k_out_of_n(4, 3)):
            r = phi.r
            sig = probability_signature(phi, PermutationDistribution.uniform(r))
            fibers = [0] * r
            for perm in itertools.permutations(range(1, r + 1)):
                fibers[failure_step(phi, perm) - 1] += 1
            assert sig.p == tuple(Fraction(c, math.factorial(r)) for c in fibers)

    def test_dimension_mismatch(self, example_law):
        with pytest.raises(DomainError):
            probability_signature(BRIDGE, example_law)


class TestSignatureFromLS:
    def test_series_under_worked_example_model(self, example_model):
        phi = StructureFunction.series(3)
        assert signature_from_ls(phi, example_model).p == (1, 0, 0)

    def test_parallel_under_any_model(self, example_model):
        phi = StructureFunction.parallel(3)
        assert signature_from_ls(phi, example_model).p == (0, 0, 1)

    def test_one_series_parallel_under_worked_example(self, example_model):
        # dies at the first failure exactly when component 1 fails first
        sig = signature_from_ls(ONE_SERIES_PARALLEL, example_model)
        assert sig.p == (Fraction(1, 3), Fraction(2, 3), 0)


class TestTargetInversion:
    def test_two_out_of_three_only_feasible_target(self):
        phi = StructureFunction.k_out_of_n(3, 2)
        model = ls_for_target_signature(phi, ProbabilitySignature((0, 1, 0)))
        assert signature_from_ls(phi, model).p == (0, 1, 0)

    def test_series_uniform_target(self):
        phi = StructureFunction.series(3)
        model = ls_for_target_signature(phi, ProbabilitySignature((1, 0, 0)))
        from precedence import distribution_of

        assert distribution_of(model) == PermutationDistribution.uniform(3)

    def test_split_target_roundtrip(self):
        phi = ONE_SERIES_PARALLEL
        target = ProbabilitySignature((Fraction(1, 2), Fraction(1, 2), 0))
        model = ls_for_target_signature(phi, target)
        assert signature_from_ls(phi, model).p == target.p

    def test_infeasible_mass_is_named(self):
        phi = StructureFunction.k_out_of_n(3, 2)
        with pytest.raises(InfeasibleTargetError, match="step 1"):
            ls_for_target_signature(phi, ProbabilitySignature((1, 0, 0)))

    def test_inversion_then_signature_is_identity_on_feasible_targets(self):
        phi = BRIDGE
        fibers_nonempty = probability_signature(
            phi, PermutationDistribution.uniform(5)
        ).p
        target = ProbabilitySignature(
            tuple(
                Fraction(1, 3) if p else Fraction(0) for p in fibers_nonempty
            )
        )
        model = ls_for_target_signature(phi, target)
        assert signature_from_ls(phi, model).p == target.p


class TestDecomposition:
    def test_series_fiber_is_everything(self):
        phi = StructureFunction.series(3)
        terms = survival_decomposition_terms(phi, PermutationDistribution.uniform(3))
        assert terms[0][0] == 1 and len(terms[0][1]) == 6
        assert terms[1][1] == () and terms[2][1] == ()

    def test_two_out_of_three_fiber(self, example_law):
        phi = StructureFunction.k_out_of_n(3, 2)
        terms = survival_decomposition_terms(phi, example_law)
        assert len(terms[1][1]) == 6

    def test_bridge_fibers_partition_all_orders(self):
        terms = survival_decomposition_terms(BRIDGE, PermutationDistribution.uniform(5))
        sizes = [len(fiber) for _, fiber in terms]
        assert sum(sizes) == 120
        everything = [perm for _, fiber in terms for perm in fiber]
        assert len(set(everything)) == 120
