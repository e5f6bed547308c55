import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    EpsilonSchedule,
    InputFormatError,
    InvalidModelError,
    OrderDependentLSModel,
    PermutationDistribution,
    ScheduleError,
    SetInvariantLSModel,
    alpha_family,
    alpha_family_bruteforce,
    alpha_family_ls,
    beta_gamma_split,
    build_ls_epsilon,
    check_prefix_bounds,
    distribution_of,
    epsilon_schedule,
    enumerate_patterns,
    invert_to_ls,
    prefix_probability,
    total_rate,
)
from precedence.loadsharing import _failure_law, _RateView, model_from_json_dict
from tests.conftest import random_distribution


def random_model(m: int, rng: random.Random) -> OrderDependentLSModel:
    """A random strictly positive order-dependent rate table."""
    rates = {}
    for k in range(m):
        for prefix in itertools.permutations(range(1, m + 1), k):
            for j in range(1, m + 1):
                if j not in prefix:
                    rates[(prefix, j)] = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    return OrderDependentLSModel(m, rates)


def random_set_invariant_model(m: int, rng: random.Random) -> SetInvariantLSModel:
    """Random survivor-set rates, some of them 0, with every set's total positive."""
    mu = {}
    for size in range(1, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            nums = [rng.randint(0, 6) for _ in members]
            nums[rng.randrange(size)] = rng.randint(1, 6)
            for j, num in zip(members, nums):
                mu[(members, j)] = Fraction(num, rng.randint(1, 9))
    return SetInvariantLSModel(m, mu)


@st.composite
def sparse_laws(draw, min_m=5, max_m=6):
    """A law on a few permutations of [m], with small integer weight ratios."""
    m = draw(st.integers(min_m, max_m))
    perms = draw(
        st.lists(st.permutations(range(1, m + 1)), min_size=1, max_size=8, unique_by=tuple)
    )
    raw = draw(st.lists(st.integers(1, 20), min_size=len(perms), max_size=len(perms)))
    return PermutationDistribution(
        m, {tuple(p): Fraction(w, sum(raw)) for p, w in zip(perms, raw)}
    )


@st.composite
def set_invariant_models(draw, min_m=2, max_m=6):
    """Random survivor-set rates, some of them 0, with every set's total positive."""
    m = draw(st.integers(min_m, max_m))
    mu = {}
    for size in range(1, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            nums = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
            if not any(nums):
                nums[draw(st.integers(0, size - 1))] = draw(st.integers(1, 6))
            for j, num in zip(members, nums):
                mu[(members, j)] = Fraction(num, draw(st.integers(1, 9)))
    return SetInvariantLSModel(m, mu)


@st.composite
def law_models(draw, max_m=5):
    """The inverted model of a random law, or the schedule model of a random tie-free pattern."""
    m = draw(st.integers(2, max_m))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return invert_to_ls(random_distribution(m, random.Random(seed)))
    sigma = next(enumerate_patterns(m, True, seed=seed, limit=1))
    return build_ls_epsilon(sigma, epsilon_schedule(m))


@st.composite
def order_dependent_models(draw, min_m=1, max_m=5):
    """A nonzero default rate, overridden (sometimes by 0) on a few prefixes."""
    m = draw(st.integers(min_m, max_m))
    keys = [
        (prefix, j)
        for k in range(m)
        for prefix in itertools.permutations(range(1, m + 1), k)
        for j in range(1, m + 1)
        if j not in prefix
    ]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=12, unique=True))
    rates = {
        key: Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 9))) for key in chosen
    }
    return OrderDependentLSModel(m, rates, Fraction(draw(st.integers(1, 5)), 3))


class TestRateTables:
    def test_totals_of_inverted_worked_example(self, example_model):
        assert total_rate(example_model, (1,)) == 1  # 1/3 + 2/3
        assert total_rate(example_model, (3,)) == 1  # 3/8 + 5/8
        assert total_rate(example_model, ()) == 1    # w(1) + w(2) + w(3)

    def test_constant_model_total(self):
        assert total_rate(OrderDependentLSModel.constant(4), ()) == 4

    @pytest.mark.parametrize("rate", [True, 0.5, "1/2", 1e-400])
    def test_constant_refuses_a_rate_that_is_not_exact(self, rate):
        # Fraction(rate) would read these as 1, 1/2, 1/2 and 0
        with pytest.raises(DomainError) as info:
            OrderDependentLSModel.constant(3, rate)
        assert str(info.value) == f"default rate = {rate!r} is not an int or a Fraction"

    @pytest.mark.parametrize(
        "rates, default, message",
        [
            ({((), 1): Fraction(-1)}, Fraction(0), "negative rate -1 for mu_1()"),
            ({((1,), 2): Fraction(-1, 3)}, Fraction(0), "negative rate -1/3 for mu_2(1,)"),
            ({}, Fraction(-2, 5), "negative default rate -2/5"),
        ],
        ids=["empty-prefix", "prefix", "default"],
    )
    def test_rejects_negative_rate_by_name(self, rates, default, message):
        with pytest.raises(DomainError) as info:
            OrderDependentLSModel(3, rates, default)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "key, message",
        [
            (((1, 2, 3, 4), 1), "prefix (1, 2, 3, 4) too long for m=4"),
            (((True,), 2), "prefix element True outside [4]"),
            (((1, 1), 2), "repeated element 1 in prefix (1, 1)"),
            (((1,), True), "invalid survivor True for prefix (1,)"),
            (((1, 2), 2), "invalid survivor 2 for prefix (1, 2)"),
        ],
    )
    def test_rejects_bad_keys_by_name(self, key, message):
        with pytest.raises(DomainError) as info:
            OrderDependentLSModel(4, {key: Fraction(1)})
        assert str(info.value) == message

    def test_checks_a_prefix_equal_to_one_already_checked(self):
        # (True,) == (1,) with the same hash, so a check remembered by value would pass it
        with pytest.raises(DomainError) as info:
            OrderDependentLSModel(4, {((1,), 2): Fraction(1), ((True,), 3): Fraction(1)})
        assert str(info.value) == "prefix element True outside [4]"

    @pytest.mark.parametrize(
        "rates, message",
        [
            ({((1,), 2): Fraction(1)}, "survivor 2 not in survivor set (1,)"),
            ({((1, 2), 1): Fraction(-1)}, "negative rate -1 for mu_1 with survivors (1, 2)"),
            (
                {((1,), 1): Fraction(1), ((2,), 2): Fraction(1),
                 ((1, 2), 1): Fraction(0), ((1, 2), 2): Fraction(0)},
                "survivor set (1, 2) has zero total rate",
            ),
        ],
        ids=["survivor-outside", "negative", "zero-total"],
    )
    def test_set_invariant_rejects_by_name(self, rates, message):
        with pytest.raises(DomainError) as info:
            SetInvariantLSModel(2, rates)
        assert str(info.value) == message

    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(order_dependent_models(), set_invariant_models(min_m=1, max_m=5)))
    def test_rows_match_single_rates_and_totals(self, model):
        ground = range(1, model.m + 1)
        for k in range(model.m):
            for prefix in itertools.permutations(ground, k):
                numerators, total, scale = model._row(prefix)
                assert list(numerators) == [j for j in ground if j not in prefix]
                assert total == sum(numerators.values())
                for j, n in numerators.items():
                    assert model.rate(prefix, j) == Fraction(n, scale)
                assert total_rate(model, prefix) == sum(model.rate(prefix, j) for j in numerators)

    def test_a_view_compares_rates_whatever_the_scale_and_as_a_mapping_with_a_dict(self):
        halves = _RateView({(): ({1: 1, 2: 1}, 2, 2)})
        assert halves == _RateView({(): ({1: 2, 2: 2}, 4, 4)})
        assert halves != _RateView({(): ({1: 1, 2: 3}, 4, 4)})
        assert halves != _RateView({(): ({1: 1, 3: 1}, 2, 2)})
        assert halves != _RateView({(1,): ({1: 1, 2: 1}, 2, 2)})
        as_dict = {((), 1): Fraction(1, 2), ((), 2): Fraction(1, 2)}
        assert halves == as_dict and as_dict == halves
        assert halves != {((), 1): Fraction(1, 2)}
        assert halves != {((), 1): Fraction(1, 2), ((), 2): Fraction(1, 3)}
        assert halves != list(as_dict)  # not a mapping

    def test_json_roundtrip_both_flavors(self, example_model):
        assert model_from_json_dict(example_model.to_json_dict()) == example_model
        si = build_ls_epsilon(
            next(enumerate_patterns(3, True, seed=1, limit=1)), epsilon_schedule(3)
        )
        loaded = model_from_json_dict(si.to_json_dict())
        assert loaded == si
        assert loaded.epsilon == si.epsilon

    def test_a_loaded_inversion_shares_its_lone_survivor_rows(self):
        # 720 prefixes of length 5 leave one survivor each, of rate 1, as invert_to_ls builds them
        model = invert_to_ls(PermutationDistribution.uniform(6))
        loaded = model_from_json_dict(model.to_json_dict())
        lone = [row for row in loaded.rows.values() if len(row[0]) == 1]
        assert len(lone) == 720 and len(set(map(id, lone))) == 6
        assert loaded == model

    @pytest.mark.parametrize(
        "rates, message",
        [
            ([{"survivors": ["a", 1], "j": 1, "mu": "1"}], "rates[0]: element 'a' outside [2]"),
            (
                [{"survivors": [1, 2], "j": 1, "mu": "1"}, {"survivors": [2, 1], "j": 1, "mu": "1"}],
                "rates[1]: duplicate entry ((1, 2), 1)",
            ),
        ],
        ids=["element-not-an-int", "set-repeated-in-another-order"],
    )
    def test_set_invariant_document_names_the_bad_entry(self, rates, message):
        with pytest.raises(InputFormatError) as info:
            model_from_json_dict({"m": 2, "rates": rates})
        assert str(info.value) == message


class TestPrefixProbability:
    def test_worked_example_full_prefix(self, example_model):
        assert prefix_probability(example_model, (3, 2, 1)) == Fraction(5, 18)

    def test_worked_example_partial_prefix(self, example_model):
        assert prefix_probability(example_model, (1, 3)) == Fraction(1, 3) * Fraction(2, 3)

    def test_uniform_model(self):
        model = OrderDependentLSModel.constant(3)
        for perm in itertools.permutations((1, 2, 3)):
            assert prefix_probability(model, perm) == Fraction(1, 6)

    def test_zero_mass_ancestor_gives_zero(self):
        model = invert_to_ls(PermutationDistribution.point_mass((2, 1, 3)))
        assert prefix_probability(model, (1, 2)) == 0
        assert prefix_probability(model, (2, 1)) == 1


class TestDistributionOf:
    def test_inverts_back_to_worked_example(self, example_law, example_model):
        assert distribution_of(example_model) == example_law

    @settings(max_examples=60, deadline=None)
    @given(model=st.one_of(order_dependent_models(min_m=2, max_m=5), set_invariant_models(max_m=5)))
    def test_weights_are_the_prefix_products(self, model):
        # prefix_probability multiplies Fractions, independent of the integer walker;
        # an order weighs what its (m-1)-prefix does, as the last rate is never read
        perms = list(itertools.permutations(range(1, model.m + 1)))
        products = {perm: prefix_probability(model, perm[:-1]) for perm in perms}
        if sum(products.values()) != 1:
            with pytest.raises(InvalidModelError):
                distribution_of(model)
            return
        rho = distribution_of(model)
        for perm in perms:
            assert rho.weight(perm) == products[perm]

    @settings(max_examples=30, deadline=None)
    @given(model=law_models())
    def test_law_keeps_the_walker_numerators(self, model):
        numerators, scale = _failure_law(model)
        rho = distribution_of(model)
        assert (rho.numerators, rho.scale) == (numerators, scale)
        by_hand = PermutationDistribution(
            model.m, {perm: Fraction(n, scale) for perm, n in numerators.items()}
        )
        assert rho == by_hand and by_hand == rho
        assert rho.to_json_dict() == by_hand.to_json_dict()
        assert alpha_family(rho) == alpha_family(by_hand)
        assert dict(rho.prefix_marginals()) == dict(by_hand.prefix_marginals())

    def test_constant_rates_give_uniform(self):
        for m in (2, 3, 4):
            assert distribution_of(
                OrderDependentLSModel.constant(m)
            ) == PermutationDistribution.uniform(m)

    def test_mass_is_exactly_one_for_random_models(self):
        rng = random.Random(4)
        for m in (2, 3, 4, 5):
            rho = distribution_of(random_model(m, rng))
            assert sum(rho.weights.values()) == 1

    def test_vanishing_reachable_total_is_invalid(self):
        # from prefix (1,) everything has rate 0: mass escapes
        model = OrderDependentLSModel(
            3,
            {((), 1): Fraction(1), ((), 2): Fraction(1), ((), 3): Fraction(0)},
            default=Fraction(0),
        )
        with pytest.raises(InvalidModelError):
            distribution_of(model)


class TestAlphaFamilyLS:
    def test_worked_example_values(self, example_model):
        fam = alpha_family_ls(example_model)
        assert fam.alpha((1, 3), 3) == Fraction(5, 9)
        assert fam.alpha((2, 3), 2) == Fraction(1, 3)

    def test_vanishing_reachable_total_is_invalid(self):
        # 1 fails first, then 2, then no survivor of (1, 2) has a rate
        model = OrderDependentLSModel(
            4, {((), 1): Fraction(1), ((1,), 2): Fraction(1)}, default=Fraction(0)
        )
        with pytest.raises(InvalidModelError):
            distribution_of(model)
        with pytest.raises(InvalidModelError):
            alpha_family_ls(model)

    @pytest.mark.parametrize(
        "rates, mass",
        [
            ({((), 1): Fraction(1), ((1,), 2): Fraction(1)}, "0"),
            (
                {((), 1): Fraction(1), ((), 2): Fraction(2),
                 ((2,), 1): Fraction(1), ((2, 1), 3): Fraction(1)},
                "2/3",
            ),
        ],
        ids=["all-lost", "one-third-lost"],
    )
    def test_lost_mass_named_by_both_routes(self, rates, mass):
        model = OrderDependentLSModel(4, rates, default=Fraction(0))
        message = f"reachable total rate vanished before exhaustion: mass {mass} != 1"
        for route in (distribution_of, alpha_family_ls):
            with pytest.raises(InvalidModelError) as info:
                route(model)
            assert str(info.value) == message

    def test_constant_model_exchangeable(self):
        fam = alpha_family_ls(OrderDependentLSModel.constant(4))
        for members in fam.sets():
            for j in members:
                assert fam.alpha(members, j) == Fraction(1, len(members))

    def test_equals_distribution_route_random_models(self):
        rng = random.Random(99)
        for m in (2, 3, 4, 5, 6):
            model = random_model(m, rng)
            fam = alpha_family_ls(model)
            assert fam == alpha_family(distribution_of(model))
            assert fam == alpha_family_bruteforce(distribution_of(model))

    @settings(max_examples=25, deadline=None)
    @given(rho=sparse_laws())
    def test_every_route_matches_the_oracle_on_sparse_laws(self, rho):
        oracle = alpha_family_bruteforce(rho)
        assert alpha_family(rho) == oracle
        model = invert_to_ls(rho)
        assert alpha_family_ls(model) == oracle
        for members in oracle.sets():
            if len(members) < rho.m:
                for i in members:
                    beta, gamma = beta_gamma_split(model, members, i)
                    assert beta + gamma == oracle.alpha(members, i)

    def test_set_invariant_memoized_path_equals_oracles(self):
        for seed in range(5):
            sigma = next(enumerate_patterns(4, True, seed=seed, limit=1))
            model = build_ls_epsilon(sigma, epsilon_schedule(4))
            fast = alpha_family_ls(model)
            assert fast == alpha_family_bruteforce(distribution_of(model))

    def test_set_invariant_path_on_arbitrary_rate_tables(self):
        # hand-built survivor-set rates, ties and all, not schedule-shaped
        rng = random.Random(31)
        for m in (2, 3, 4, 5):
            mu = {}
            for size in range(1, m + 1):
                for members in itertools.combinations(range(1, m + 1), size):
                    for j in members:
                        mu[(members, j)] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            model = SetInvariantLSModel(m, mu)
            fast = alpha_family_ls(model)
            assert fast == alpha_family(distribution_of(model))

    @settings(max_examples=30, deadline=None)
    @given(model=set_invariant_models())
    def test_integer_kernel_matches_both_routes_on_random_rate_tables(self, model):
        fast = alpha_family_ls(model)
        assert fast == alpha_family_bruteforce(distribution_of(model))

    def test_locality_in_the_complement(self):
        # rates at prefixes stepping inside A never move alpha_j(A)
        rng = random.Random(12)
        model = random_model(4, rng)
        members = (1, 2)
        base = {j: alpha_family_ls(model).alpha(members, j) for j in members}
        bumped = dict(model.rates)
        bumped[((1,), 3)] = bumped[((1,), 3)] + 7  # prefix touches A
        bumped[((3, 1), 2)] = bumped[((3, 1), 2)] + 5
        model2 = OrderDependentLSModel(4, bumped)
        after = {j: alpha_family_ls(model2).alpha(members, j) for j in members}
        assert base == after

    def test_perturbing_complement_prefix_does_move_alpha(self):
        rng = random.Random(13)
        model = random_model(4, rng)
        members = (1, 2)
        base = alpha_family_ls(model).alpha(members, 1)
        bumped = dict(model.rates)
        bumped[((3,), 1)] = bumped[((3,), 1)] + 9  # prefix inside complement
        assert alpha_family_ls(OrderDependentLSModel(4, bumped)).alpha(members, 1) != base


def brute_beta_gamma(model, members, i):
    """Partition alpha_i(A) by scanning permutations: gamma collects orders
    where every element outside A fails before i."""
    rho = distribution_of(model)
    outside = set(range(1, model.m + 1)) - set(members)
    beta = Fraction(0)
    gamma = Fraction(0)
    for perm, w in rho.weights.items():
        winner = next(x for x in perm if x in set(members))
        if winner != i:
            continue
        if all(perm.index(x) < perm.index(i) for x in outside):
            gamma += w
        else:
            beta += w
    return beta, gamma


class TestBetaGammaSplit:
    def test_constant_model_values(self):
        model = OrderDependentLSModel.constant(3)
        beta, gamma = beta_gamma_split(model, (1, 2), 1)
        assert beta == Fraction(1, 3)
        assert gamma == Fraction(1, 6)
        assert beta + gamma == Fraction(1, 2)

    def test_worked_example_split(self, example_model):
        beta, gamma = beta_gamma_split(example_model, (1, 3), 1)
        assert beta == Fraction(1, 3)          # P(first failure is 1)
        assert gamma == Fraction(1, 9)         # order starts (2, 1)
        assert beta + gamma == Fraction(4, 9)  # alpha_1({1,3})

    def test_matches_bruteforce_partition(self):
        rng = random.Random(3)
        for m in (3, 4, 5):
            sigma = next(enumerate_patterns(m, True, seed=m, limit=1))
            models = random_model(m, rng), random_set_invariant_model(m, rng)
            for model in models + (build_ls_epsilon(sigma, epsilon_schedule(m)),):
                for members in itertools.combinations(range(1, m + 1), 2):
                    for i in members:
                        assert beta_gamma_split(model, members, i) == brute_beta_gamma(
                            model, members, i
                        )

    def test_identity_beta_plus_gamma_is_alpha(self):
        rng = random.Random(8)
        model = random_model(5, rng)
        fam = alpha_family_ls(model)
        for size in (2, 3, 4):
            for members in itertools.combinations(range(1, 6), size):
                for i in members:
                    beta, gamma = beta_gamma_split(model, members, i)
                    assert beta + gamma == fam.alpha(members, i)

    def test_full_set_is_rejected(self, example_model):
        with pytest.raises(DomainError):
            beta_gamma_split(example_model, (1, 2, 3), 1)

    def test_bool_index_is_rejected(self):
        with pytest.raises(DomainError) as info:
            beta_gamma_split(OrderDependentLSModel.constant(3), (1, 2), True)
        assert str(info.value) == "index True not in subset (1, 2)"


class TestPrefixBounds:
    @pytest.mark.parametrize("m,patterns", [(3, 4), (4, 2), (5, 1), (6, 1)])
    def test_schedule_model_bounds_hold_everywhere(self, m, patterns):
        for sigma in enumerate_patterns(m, True, seed=m, limit=patterns):
            model = build_ls_epsilon(sigma, epsilon_schedule(m))
            for k in range(1, m + 1):
                for prefix in itertools.permutations(range(1, m + 1), k):
                    report = check_prefix_bounds(model, prefix)
                    assert report.passed, report

    def test_first_failure_bounds_form(self):
        m = 3
        eps = epsilon_schedule(m)
        model = build_ls_epsilon(next(enumerate_patterns(3, True, seed=0, limit=1)), eps)
        report = check_prefix_bounds(model, (1,))
        spread = 2 * eps.rho(3)
        assert report.lower == Fraction(1, 3) * (1 - spread)
        assert report.upper == Fraction(1, 3) * (1 + spread)

    def test_degenerate_uniform_model_sits_at_the_collapsed_bound(self):
        # with every rate 1 the envelope collapses to (m-k)!/m! exactly
        model = OrderDependentLSModel.constant(3)
        for k in (1, 2, 3):
            for prefix in itertools.permutations((1, 2, 3), k):
                expected = Fraction(math.factorial(3 - k), 6)
                assert prefix_probability(model, prefix) == expected

    def test_requires_a_schedule(self):
        sigma = next(enumerate_patterns(3, True, seed=5, limit=1))
        model = build_ls_epsilon(sigma, epsilon_schedule(3))
        stripped = SetInvariantLSModel(3, dict(model.mu_by_survivors))
        for model in (stripped, OrderDependentLSModel.constant(3)):
            with pytest.raises(DomainError) as info:
                check_prefix_bounds(model, (1,))
            assert str(info.value) == "model carries no epsilon schedule"

    def test_decaying_schedule_required(self):
        sigma = next(enumerate_patterns(3, True, seed=6, limit=1))
        flat = EpsilonSchedule(3, (Fraction(0), Fraction(1, 5), Fraction(1, 5)))
        model = build_ls_epsilon(sigma, flat)
        with pytest.raises(ScheduleError):
            check_prefix_bounds(model, (1,))


class TestEpsilonSchedule:
    @pytest.mark.parametrize("level", [True, 1.5, 2.0, "2", 0, 4])
    def test_a_level_that_is_not_an_int_of_the_range_is_refused_by_name(self, level):
        eps = epsilon_schedule(3)
        for read in (eps.value, eps.rho):
            with pytest.raises(DomainError) as info:
                read(level)
            assert str(info.value) == f"level {level!r} is not an int in [1, 3]"
        assert eps.value(1) == 0 and eps.value(2) == Fraction(1, 17 * 3 * 6)


class TestSetInvariantModel:
    def test_missing_survivor_entry_rejected(self):
        with pytest.raises(DomainError, match="missing"):
            SetInvariantLSModel(2, {((1, 2), 1): Fraction(1), ((1,), 1): Fraction(1)})

    def test_schedule_of_another_m_rejected(self):
        sigma = next(enumerate_patterns(3, True, seed=5, limit=1))
        rates = build_ls_epsilon(sigma, epsilon_schedule(3)).mu_by_survivors
        with pytest.raises(DomainError) as info:
            SetInvariantLSModel(3, rates, epsilon_schedule(4))
        assert str(info.value) == "schedule has m=4 but model has m=3"
