import gc
import itertools
import math
import random
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from precedence import (
    DomainError,
    OrderDependentLSModel,
    PermutationDistribution,
    SetInvariantLSModel,
    SimulationError,
    Trajectory,
    WinningProbabilityFamily,
    alpha_family_ls,
    beta_gamma_split,
    build_ls_epsilon,
    distribution_of,
    enumerate_patterns,
    epsilon_schedule,
    estimate_alphas,
    invert_to_ls,
    pattern_cyclic,
    sample_trajectories,
    total_rate,
)
from precedence.loadsharing import model_from_json_dict
from precedence import montecarlo
from precedence.montecarlo import CHUNK_TRAJECTORIES, _SamplerTables
from tests.conftest import random_distribution
from tests.test_loadsharing import order_dependent_models, set_invariant_models


def four_sigma(p: float, n: int) -> float:
    return 4 * math.sqrt(p * (1 - p) / n)


def loop_trajectories(model, n_samples, seed):
    """Reference: the same Philox blocks, walked one sample and one failure at a time."""
    words = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    key = int(words[0]) | (int(words[1]) << 64)
    for index, start in enumerate(range(0, n_samples, CHUNK_TRAJECTORIES)):
        rng = np.random.Generator(np.random.Philox(key=key, counter=index << 128))
        size = min(CHUNK_TRAJECTORIES, n_samples - start)
        uniforms = rng.random((size, model.m))
        exponentials = rng.standard_exponential((size, model.m))
        for u, e in zip(uniforms, exponentials):
            prefix, t, times = (), 0.0, []
            for step in range(model.m):
                survivors = [j for j in range(1, model.m + 1) if j not in prefix]
                total = total_rate(model, prefix)
                cum = np.cumsum([float(model.rate(prefix, j) / total) for j in survivors])
                cum[-1] = 1.0
                idx = int(np.searchsorted(cum, u[step], side="right"))
                t += e[step] / float(total)
                times.append(t)
                prefix += (survivors[min(idx, len(survivors) - 1)],)
            yield Trajectory(prefix, tuple(times))


def incomplete_rows(m: int, rng: random.Random) -> OrderDependentLSModel:
    """Rates on some survivors of a few prefixes, and a positive default for every
    other survivor; a rate is 0 only in a row the default completes."""
    rates = {}
    for k in range(m):
        for prefix in itertools.permutations(range(1, m + 1), k):
            if rng.random() < 0.3:
                listed = rng.randint(1, m - k)
                survivors = [j for j in range(1, m + 1) if j not in prefix]
                for j in rng.sample(survivors, listed):
                    rates[(prefix, j)] = Fraction(rng.randint(listed == m - k, 5), rng.randint(1, 4))
    return OrderDependentLSModel(m, rates, Fraction(rng.randint(1, 3), rng.randint(1, 3)))


class TestSampleTrajectory:
    def test_trajectory_shape(self, example_model):
        tr = next(sample_trajectories(example_model, 1, seed=1))
        assert sorted(tr.order) == [1, 2, 3]
        assert list(tr.times) == sorted(tr.times)
        assert all(t > 0 for t in tr.times)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_block_walk_equals_the_per_sample_loop(self, m):
        rng = random.Random(m)
        models = [OrderDependentLSModel.constant(1)]
        if m >= 2:  # dense and sparse order-dependent, set-invariant, and rows the default fills
            sigma = next(enumerate_patterns(m, non_weak_only=True, seed=m, limit=1))
            models = [invert_to_ls(random_distribution(m, rng, sparse=s)) for s in (False, True)]
            models.append(build_ls_epsilon(sigma, epsilon_schedule(m)))
            models.append(incomplete_rows(m, rng))
        # each model again, as its own document loads it
        models += [model_from_json_dict(model.to_json_dict()) for model in models]
        n = CHUNK_TRAJECTORIES + 50 if m == 3 else 300  # m = 3 spans two blocks
        for model in models:
            expected = list(loop_trajectories(model, n, seed=m))
            assert list(sample_trajectories(model, n, seed=m)) == expected
            assert estimate_alphas(model, n, seed=m).order_counts == Counter(
                t.order for t in expected
            )

    @pytest.mark.parametrize("u, first", [(0.0, 2), (0.5, 3)])
    def test_uniform_on_a_bin_boundary_skips_zero_rate_survivors(self, u, first):
        # a uniform exactly on a CDF entry, which Philox rarely hits; first-step
        # CDFs: (0, 1/2, 1) with 1 dead, (1/2, 1/2, 1) with 2 dead
        dead = 1 if u == 0.0 else 2
        model = OrderDependentLSModel(3, {((), dead): Fraction(0)}, default=1)
        tables = _SamplerTables(model)
        leaf, _ = tables.walk(np.full((1, 3), u), np.ones((1, 3)))
        assert tables.order(int(leaf[0]))[0] == first

    def test_point_mass_model_is_deterministic(self):
        model = invert_to_ls(PermutationDistribution.point_mass((2, 3, 1)))
        for tr in sample_trajectories(model, 20, seed=7):
            assert tr.order == (2, 3, 1)

    def test_zero_total_rate_raises(self):
        model = OrderDependentLSModel(3, {}, default=0)
        with pytest.raises(SimulationError):
            sample_trajectories(model, 1, seed=0)


class TestSamplerRows:
    @settings(max_examples=40, deadline=None)
    @given(model=st.one_of(order_dependent_models(), set_invariant_models(min_m=1, max_m=5)))
    def test_rows_are_the_rounded_rate_ratios(self, model):
        assume(total_rate(model, ()) > 0)
        read = _SamplerTables(model).read
        for k in range(model.m):
            for prefix in itertools.permutations(range(1, model.m + 1), k):
                if total_rate(model, prefix) == 0 and k < model.m - 1:
                    with pytest.raises(SimulationError):
                        read(prefix)
                    continue
                survivors, cum, float_total = read(prefix)
                rates = model.rates_after(prefix)
                total = sum(rates.values())
                assert survivors == list(rates)
                assert float_total == float(total)
                if k < model.m - 1:
                    expected = np.cumsum([float(mu / total) for mu in rates.values()])
                    expected[-1] = 1.0
                    assert cum == expected.tolist()

    def test_each_reached_failed_set_reads_its_stored_row_once(self, monkeypatch):
        reads = Counter()
        stored = SetInvariantLSModel._row

        def counted(model, prefix):
            reads[frozenset(prefix)] += 1
            return stored(model, prefix)

        monkeypatch.setattr(SetInvariantLSModel, "_row", counted)
        tables = _SamplerTables(build_ls_epsilon(pattern_cyclic(6), epsilon_schedule(6)))
        tables.walk(np.random.default_rng(0).random((CHUNK_TRAJECTORIES, 6)))
        reached = [prefix for level in tables.levels for prefix in level.prefixes]
        assert set(reads) == {frozenset(prefix) for prefix in reached} and set(reads.values()) == {1}
        assert len(reached) > len(reads)

    def test_a_set_invariant_model_builds_one_float_row_per_failed_set(self, monkeypatch):
        # the m = 6 schedule model: 3000 samples reach 1,227 prefixes over 63 failed sets
        built = []

        def counted(times, model, prefix, float_row=montecarlo._float_row):
            built.append(prefix)
            return float_row(times, model, prefix)

        monkeypatch.setattr(montecarlo, "_float_row", counted)
        tables = _SamplerTables(build_ls_epsilon(pattern_cyclic(6), epsilon_schedule(6)))
        for uniforms, _ in montecarlo._blocks(3000, 0, 6, times=False):
            tables.walk(uniforms)
        reached = [prefix for level in tables.levels for prefix in level.prefixes]
        assert (len(built), len(reached)) == (63, 1227)
        assert len({frozenset(prefix) for prefix in built}) == 63

    @pytest.mark.parametrize("kind", ["inversion", "schedule", "incomplete-rows"])
    def test_the_walker_the_set_dp_and_the_sampler_read_no_fraction_row(self, monkeypatch, kind):
        rng = random.Random(2)
        model = {
            "inversion": lambda: invert_to_ls(random_distribution(5, rng)),
            "schedule": lambda: build_ls_epsilon(pattern_cyclic(5), epsilon_schedule(5)),
            "incomplete-rows": lambda: incomplete_rows(5, rng),
        }[kind]()
        calls = []

        def counted(self, prefix, rates_after=OrderDependentLSModel.rates_after):
            calls.append(prefix)
            return rates_after(self, prefix)

        for cls in (OrderDependentLSModel, SetInvariantLSModel):
            monkeypatch.setattr(cls, "rates_after", counted)
        distribution_of(model)
        alpha_family_ls(model)  # the set DP, for the schedule model
        beta_gamma_split(model, (1, 2), 1)
        estimate_alphas(model, 500, seed=1)
        list(sample_trajectories(model, 500, seed=1))
        for prefix in [(), (1,), (2, 1), (3, 1, 2)]:
            model.rate(prefix, 5)
            total_rate(model, prefix)
        assert calls == []

    @pytest.mark.parametrize("model", [
        OrderDependentLSModel.constant(4), build_ls_epsilon(pattern_cyclic(4), epsilon_schedule(4))
    ])
    def test_tables_are_freed_without_a_collection(self, model):
        # a row reader bound to the tables would make them a reference cycle
        gc.disable()
        try:
            tables = weakref.ref(_SamplerTables(model))
            assert tables() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("kind", ["order-dependent", "set-invariant"])
    def test_totals_past_the_float_range_give_zero_sojourns(self, kind):
        big = Fraction(10**400)
        if kind == "order-dependent":
            model = OrderDependentLSModel(2, {((), 1): big, ((), 2): big}, default=1)
        else:
            rates = {((1,), 1): big, ((2,), 2): big, ((1, 2), 1): big, ((1, 2), 2): big}
            model = SetInvariantLSModel(2, rates)
        read = _SamplerTables(model).read
        assert read(())[1:] == ([0.5, 1.0], math.inf)
        for trajectory in sample_trajectories(model, 50, seed=1):
            assert trajectory.times[0] == 0.0
            assert list(trajectory.times) == sorted(trajectory.times)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["order-dependent", "set-invariant"])
    def test_positive_totals_below_the_float_range_give_infinite_sojourns(self, kind):
        tiny = Fraction(1, 10**400)
        if kind == "order-dependent":
            model = OrderDependentLSModel(3, {((), 1): 2 * tiny, ((1,), 3): 5 * tiny}, default=tiny)
        else:
            rates = {((1,), 1): tiny, ((2,), 2): tiny, ((1, 2), 1): tiny, ((1, 2), 2): 3 * tiny}
            model = SetInvariantLSModel(2, rates)
        read = _SamplerTables(model).read
        assert read(())[2] == 0.0  # the float of a positive total
        trajectories = list(sample_trajectories(model, 500, seed=2))
        counts = estimate_alphas(model, 500, seed=2).order_counts
        assert Counter(t.order for t in trajectories) == counts
        assert all(time == math.inf for t in trajectories for time in t.times)


class TestEstimateAlphas:
    def test_reproducible_for_fixed_seed(self, example_model):
        a = estimate_alphas(example_model, 5000, seed=42)
        b = estimate_alphas(example_model, 5000, seed=42)
        assert a == b
        assert a.empirical_alpha == b.empirical_alpha

    def test_different_seeds_differ(self, example_model):
        a = estimate_alphas(example_model, 5000, seed=1)
        b = estimate_alphas(example_model, 5000, seed=2)
        assert a.order_counts != b.order_counts

    def test_draws_are_pinned(self, example_model):
        # a seed fixes the Philox block layout, hence every order and time
        summary = estimate_alphas(example_model, 5000, seed=42)
        assert summary.order_counts == {
            (1, 2, 3): 575, (1, 3, 2): 1100, (2, 1, 3): 552,
            (2, 3, 1): 534, (3, 1, 2): 820, (3, 2, 1): 1419,
        }
        first, second = sample_trajectories(example_model, 2, seed=9)
        assert first == Trajectory(
            (2, 1, 3), (0.18081636404909973, 1.2691386814461914, 1.9537022829376902)
        )
        assert second == Trajectory(
            (3, 2, 1), (0.34211484032489553, 0.5857789015050255, 0.855849978600272)
        )

    @pytest.mark.parametrize("n", [0, -3])
    def test_sample_count_below_one_is_domain_error(self, example_model, n):
        with pytest.raises(DomainError):
            estimate_alphas(example_model, n, seed=0)
        with pytest.raises(DomainError):
            sample_trajectories(example_model, n, seed=0)

    def test_negative_seed_is_domain_error(self, example_model):
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            estimate_alphas(example_model, 10, seed=-1)
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            sample_trajectories(example_model, 10, seed=-1)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (True, 0, "n_samples must be an int, got True"),
            (2.5, 0, "n_samples must be an int, got 2.5"),
            (10, True, "seed must be an int, got True"),
            (10, 1.5, "seed must be an int, got 1.5"),
        ],
        ids=["bool-count", "float-count", "bool-seed", "float-seed"],
    )
    def test_a_count_or_seed_that_is_not_an_int_is_domain_error(self, example_model, n, seed, message):
        with pytest.raises(DomainError) as info:
            estimate_alphas(example_model, n, seed=seed)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            sample_trajectories(example_model, n, seed=seed)
        assert str(info.value) == message

    def test_zero_total_rate_at_a_reached_prefix_raises(self):
        # every sample fails 1 first, and nothing survives prefix (1,)
        model = OrderDependentLSModel(3, {((), 1): Fraction(1)}, default=0)
        with pytest.raises(SimulationError):
            estimate_alphas(model, 5000, seed=0)
        with pytest.raises(SimulationError):
            list(sample_trajectories(model, 5000, seed=0))

    @pytest.mark.filterwarnings("error")
    def test_zero_rate_last_survivor_still_fails_last(self):
        # after every 2-prefix the lone survivor has rate 0; the exact law is uniform
        rates = {
            (prefix, last): Fraction(0)
            for prefix in itertools.permutations((1, 2, 3), 2)
            for last in {1, 2, 3} - set(prefix)
        }
        model = OrderDependentLSModel(3, rates, default=1)
        assert distribution_of(model) == PermutationDistribution.uniform(3)
        # the last rate never steers an order, so the draws are the constant model's
        summary = estimate_alphas(model, 5000, seed=4)
        assert summary == estimate_alphas(OrderDependentLSModel.constant(3), 5000, seed=4)
        exact = alpha_family_ls(model)
        for (members, j), p in summary.empirical_alpha.items():
            target = float(exact.alpha(members, j))
            assert abs(p - target) <= four_sigma(target, 5000)
        # but the lone survivor's failure time is undefined
        with pytest.raises(SimulationError):
            list(sample_trajectories(model, 5000, seed=4))

    def test_zero_total_rate_at_an_unreached_prefix_is_fine(self):
        # component 3 never fails first, so the dead prefix (3,) is never reached
        model = OrderDependentLSModel(
            3, {((), 3): Fraction(0), ((3,), 1): Fraction(0), ((3,), 2): Fraction(0)},
            default=1,
        )
        summary = estimate_alphas(model, 5000, seed=0)
        assert all(perm[0] != 3 for perm in summary.order_counts)

    def test_single_sample_is_indicator_valued(self, example_model):
        summary = estimate_alphas(example_model, 1, seed=3)
        assert set(summary.empirical_alpha.values()) <= {0.0, 1.0}
        assert sum(summary.order_counts.values()) == 1

    def test_uniform_model_frequencies(self):
        model = OrderDependentLSModel.constant(3)
        n = 60000
        summary = estimate_alphas(model, n, seed=11)
        for perm, freq in summary.empirical_rho.items():
            assert abs(freq - 1 / 6) < four_sigma(1 / 6, n)
        for (members, j), freq in summary.empirical_alpha.items():
            assert abs(freq - 1 / len(members)) < four_sigma(1 / len(members), n)

    def test_worked_example_four_sigma(self, example_model):
        n = 200_000
        summary = estimate_alphas(example_model, n, seed=7)
        exact = alpha_family_ls(example_model)
        for (members, j), freq in summary.empirical_alpha.items():
            target = float(exact.alpha(members, j))
            assert abs(freq - target) < four_sigma(target, n), (members, j)

    def test_empirical_rho_tracks_exact_law(self, example_model):
        # total-variation sanity at moderate n
        n = 100_000
        summary = estimate_alphas(example_model, n, seed=13)
        rho = distribution_of(example_model)
        tv = 0.5 * sum(
            abs(summary.empirical_rho.get(perm, 0.0) - float(w))
            for perm, w in rho.weights.items()
        )
        assert tv < 0.01

    def test_empirical_rho_tracks_exact_law_m4(self):
        import random

        from precedence import invert_to_ls as make_model
        from tests.conftest import random_distribution

        rho = random_distribution(4, random.Random(40), sparse=False)
        model = make_model(rho)
        n = 100_000
        summary = estimate_alphas(model, n, seed=14)
        tv = 0.5 * (
            sum(
                abs(summary.empirical_rho.get(perm, 0.0) - float(w))
                for perm, w in rho.weights.items()
            )
            + sum(
                freq
                for perm, freq in summary.empirical_rho.items()
                if perm not in rho.weights
            )
        )
        assert tv < 0.01

    def test_orders_and_times_tell_the_same_story(self, example_model):
        n = 4000
        summary = estimate_alphas(example_model, n, seed=9)
        trajectories = list(sample_trajectories(example_model, n, seed=9))
        for tr in trajectories:  # sorting the failure times gives back the order
            assert tuple(c for _, c in sorted(zip(tr.times, tr.order))) == tr.order
        assert Counter(tr.order for tr in trajectories) == summary.order_counts
        # and both match a plain winner scan of the order counts
        subsets = [s for size in (2, 3) for s in itertools.combinations((1, 2, 3), size)]
        wins = {(members, j): 0 for members in subsets for j in members}
        for perm, c in summary.order_counts.items():
            for members in subsets:
                wins[(members, next(x for x in perm if x in members))] += c
        assert summary.empirical_alpha == {key: w / n for key, w in wins.items()}

    def test_json_includes_exact_targets_when_asked(self, example_model):
        summary = estimate_alphas(example_model, 100, seed=0)
        doc = summary.to_json_dict(alpha_family_ls(example_model))
        by_set = {tuple(row["set"]): row for row in doc["alpha"]}
        assert by_set[(2, 3)]["exact"]["3"] == "2/3"
        assert 0 <= by_set[(2, 3)]["empirical"]["3"] <= 1
        pairs_only = {key: a for key, a in alpha_family_ls(example_model).alphas.items()
                      if len(key[0]) == 2}
        other_m = alpha_family_ls(OrderDependentLSModel.constant(4))
        for exact in (WinningProbabilityFamily(3, pairs_only), other_m):
            with pytest.raises(DomainError) as info:
                summary.to_json_dict(exact)
            assert str(info.value) == "exact targets need a complete family over [3]"
