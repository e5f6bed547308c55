import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    InfeasibleTargetError,
    InputFormatError,
    PermutationDistribution,
    ProbabilitySignature,
    SetInvariantLSModel,
    StructureFunction,
    build_ls_epsilon,
    distribution_of,
    epsilon_schedule,
    failure_step,
    invert_to_ls,
    ls_for_target_signature,
    pattern_very_paradox,
    probability_signature,
    signature_from_ls,
)
from precedence.cli import run
from precedence.loadsharing import model_from_json_dict
from tests.conftest import random_distribution

BRIDGE = StructureFunction(
    5, (frozenset({1, 4}), frozenset({2, 5}), frozenset({1, 3, 5}), frozenset({2, 3, 4}))
)

ONE_SERIES_PARALLEL = StructureFunction(3, (frozenset({1, 2}), frozenset({1, 3})))


def oracle_failure_step(path_sets, r, perm):
    """Independent re-derivation: evaluate the structure on the explicit
    working set after each failure, instead of taking failure_step's
    min-max over the path sets."""
    for k in range(1, r + 1):
        alive = set(range(1, r + 1)) - set(perm[:k])
        if not any(set(ps) <= alive for ps in path_sets):
            return k
    raise AssertionError("coherent structures must fail")


@st.composite
def structures(draw, max_r=6):
    """A random coherent structure: minimal sets, relabelled to cover [r]."""
    r = draw(st.integers(1, max_r))
    raw = draw(st.lists(st.frozensets(st.integers(1, r), min_size=1), min_size=1, max_size=8))
    minimal = {a for a in raw if not any(b < a for b in raw)}
    label = {x: i for i, x in enumerate(sorted(set().union(*minimal)), start=1)}
    return StructureFunction(len(label), tuple(frozenset(label[x] for x in ps) for ps in minimal))


@st.composite
def structures_with_orders(draw, max_r=6):
    """A random coherent structure and an order of its components."""
    phi = draw(structures(max_r))
    return phi, tuple(draw(st.permutations(range(1, phi.r + 1))))


def scanned_signature(phi, weights):
    """The signature by scanning every order of a law with failure_step."""
    p = [Fraction(0)] * phi.r
    for perm, w in weights.items():
        p[failure_step(phi, perm) - 1] += w
    return tuple(p)


def random_set_invariant(r, rng):
    """Rates 0..3 per survivor; a survivor set whose rates all come out 0 gets 1 for its first."""
    mu = {}
    for n in range(1, r + 1):
        for alive in itertools.combinations(range(1, r + 1), n):
            rates = [rng.randint(0, 3) for _ in alive]
            if not any(rates):
                rates[0] = 1
            mu.update({(alive, j): Fraction(v) for j, v in zip(alive, rates)})
    return SetInvariantLSModel(r, mu)


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


class TestTableRouteMatchesScan:
    @settings(max_examples=60, deadline=None)
    @given(
        phi=structures(),
        kind=st.sampled_from(["law", "inverted", "set"]),
        seed=st.integers(0, 2**32),
    )
    def test_random_structures_laws_and_models(self, phi, kind, seed):
        rng = random.Random(seed)
        if kind == "set":
            model = random_set_invariant(phi.r, rng)
            assert signature_from_ls(phi, model).p == scanned_signature(
                phi, distribution_of(model).weights
            )
            return
        rho = random_distribution(phi.r, rng)
        assert probability_signature(phi, rho).p == scanned_signature(phi, rho.weights)
        if kind == "inverted" and phi.r >= 2:  # inversion needs m >= 2
            assert signature_from_ls(phi, invert_to_ls(rho)).p == scanned_signature(
                phi, rho.weights
            )


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

    def test_k_out_of_12_under_the_m12_very_paradox_model(self, monkeypatch):
        # the 2^m set DP, with no m! route behind it
        monkeypatch.setenv("PRECEDENCE_MAX_M", "12")
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning):
            model = build_ls_epsilon(pattern_very_paradox(12), epsilon_schedule(12))
            sig = signature_from_ls(StructureFunction.k_out_of_n(12, 5), model)
        assert time.perf_counter() - start < 5
        assert sig.p == tuple(int(k == 8) for k in range(1, 13))


class TestTargetInversion:
    def test_two_out_of_three_only_feasible_target(self):
        phi = StructureFunction.k_out_of_n(3, 2)
        model = ls_for_target_signature(phi, ProbabilitySignature((0, 1, 0)))
        assert signature_from_ls(phi, model).p == (0, 1, 0)

    def test_series_uniform_target(self):
        # the witness fails component 1 first, then the survivors at rate 1 each
        phi = StructureFunction.series(3)
        model = ls_for_target_signature(phi, ProbabilitySignature((1, 0, 0)))
        assert isinstance(model, SetInvariantLSModel)
        assert distribution_of(model) == PermutationDistribution(
            3, {(1, 2, 3): Fraction(1, 2), (1, 3, 2): Fraction(1, 2)}
        )

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


    def test_single_component(self):
        phi = StructureFunction.series(1)
        model = ls_for_target_signature(phi, ProbabilitySignature((1,)))
        assert signature_from_ls(phi, model).p == (1,)

    @settings(max_examples=60, deadline=None)
    @given(phi=structures(), seed=st.integers(0, 2**32))
    def test_random_feasible_targets_are_hit_exactly(self, phi, seed):
        rng = random.Random(seed)
        steps = {failure_step(phi, perm) for perm in itertools.permutations(range(1, phi.r + 1))}
        chosen = rng.sample(sorted(steps), rng.randint(1, len(steps)))
        raw = {k: rng.randint(1, 9) for k in chosen}
        target = ProbabilitySignature(
            tuple(Fraction(raw.get(k, 0), sum(raw.values())) for k in range(1, phi.r + 1))
        )
        model = ls_for_target_signature(phi, target)
        assert isinstance(model, SetInvariantLSModel)
        assert signature_from_ls(phi, model).p == target.p
        assert model_from_json_dict(model.to_json_dict()) == model
        assert SetInvariantLSModel(phi.r, dict(model.mu_by_survivors)) == model
        infeasible = [k for k in range(1, phi.r + 1) if k not in steps]
        if infeasible:
            k = rng.choice(infeasible)
            bad = ProbabilitySignature(tuple(Fraction(int(i == k)) for i in range(1, phi.r + 1)))
            with pytest.raises(InfeasibleTargetError, match=f"step {k}"):
                ls_for_target_signature(phi, bad)


class TestNoSilentCoercion:
    @pytest.mark.parametrize("entries", [(True, False, False), (0.5, 0.5, 0)])
    def test_signature_refuses_bool_and_float_entries(self, entries):
        with pytest.raises(DomainError, match="not an int or a Fraction"):
            ProbabilitySignature(entries)

    def test_repeated_component_in_a_path_set_is_refused(self, tmp_path):
        with pytest.raises(DomainError, match="repeats a component"):
            StructureFunction(3, ([1, 1, 2], [3]))
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"r": 3, "path_sets": [[1, 1, 2], [3]]}))
        result = run(["signature", "invert", "--structure", str(path), "--target", "0,0,1"])
        assert result.exit_code == 2
        assert result.diagnostics == ["path_sets: path set [1, 1, 2] repeats a component"]

    @pytest.mark.parametrize("path_sets", [[[1, True]], [[True, 1]]])
    def test_bool_component_is_named_not_called_a_repeat(self, tmp_path, path_sets):
        # {1, True} has one member, so a repeat check run first would report a repeat
        with pytest.raises(DomainError) as info:
            StructureFunction(2, path_sets)
        assert str(info.value) == "component True outside [2]"
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"r": 2, "path_sets": path_sets}))
        result = run(["signature", "invert", "--structure", str(path), "--target", "0,1"])
        assert result.exit_code == 2
        assert result.diagnostics == ["path_sets: component True outside [2]"]

    @pytest.mark.parametrize("k", [True, 1.0, "1"])
    def test_k_out_of_n_refuses_a_k_that_is_not_an_int(self, k):
        with pytest.raises(DomainError) as info:
            StructureFunction.k_out_of_n(3, k)
        assert str(info.value) == f"k must be an int, got {k!r}"

    @pytest.mark.parametrize(
        "build",
        [
            lambda r: StructureFunction.series(r),
            lambda r: StructureFunction.parallel(r),
            lambda r: StructureFunction.k_out_of_n(r, 1),
        ],
        ids=["series", "parallel", "k-out-of-n"],
    )
    @pytest.mark.parametrize("r", [2.0, 2.5, "2", True, 0])
    def test_a_named_system_refuses_a_dimension_that_is_not_one(self, build, r):
        with pytest.raises(DomainError) as info:
            build(r)
        assert str(info.value) == f"dimension must be a positive integer, got {r!r}"

    def test_loader_errors_name_the_field(self):
        with pytest.raises(InputFormatError) as info:
            StructureFunction.from_json_dict({"r": 3, "path_sets": [["1"], [2, 3]]})
        assert str(info.value) == "path_sets: component '1' outside [3]"
        with pytest.raises(InputFormatError, match="^r: dimension"):
            StructureFunction.from_json_dict({"r": 0, "path_sets": [[1]]})
