import itertools
import math

import numpy as np
import pytest

from precedence import (
    OrderDependentLSModel,
    PermutationDistribution,
    SimulationError,
    alpha_family_ls,
    distribution_of,
    estimate_alphas,
    invert_to_ls,
    sample_trajectories,
    sample_trajectory,
)
from precedence.montecarlo import empirical_alpha_from_times


def four_sigma(p: float, n: int) -> float:
    return 4 * math.sqrt(p * (1 - p) / n)


class TestSampleTrajectory:
    def test_trajectory_shape(self, example_model):
        rng = np.random.default_rng(1)
        tr = sample_trajectory(example_model, rng)
        assert sorted(tr.order) == [1, 2, 3]
        assert list(tr.times) == sorted(tr.times)
        assert all(t > 0 for t in tr.times)

    def test_point_mass_model_is_deterministic(self):
        model = invert_to_ls(PermutationDistribution.point_mass((2, 3, 1)))
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert sample_trajectory(model, rng).order == (2, 3, 1)

    def test_zero_total_rate_raises(self):
        model = OrderDependentLSModel(3, {}, default=0)
        with pytest.raises(SimulationError):
            sample_trajectory(model, np.random.default_rng(0))


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

    def test_worker_count_does_not_change_counts(self, example_model):
        serial = estimate_alphas(example_model, 6000, seed=5, workers=1)
        parallel = estimate_alphas(example_model, 6000, seed=5, workers=2)
        assert serial.order_counts == parallel.order_counts
        assert parallel.workers == 2

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
        from_times = empirical_alpha_from_times(
            sample_trajectories(example_model, n, seed=9), 3
        )
        assert summary.empirical_alpha == from_times
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
