"""Shared fixtures: the three-component worked example and random generators."""

import io
import json
import random
from fractions import Fraction

import pytest

from precedence import (
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    invert_to_ls,
)
from precedence.cli import _write_json

# A three-component failure-order law exhibiting a reversal: component 3
# wins every head-to-head involving it, 1 and 2 tie head-to-head, and yet
# the full-triple ranking is 3, 1, 2. All downstream exact values for
# this distribution are pinned in the tests from first principles.
EXAMPLE_LAW_WEIGHTS = {
    (1, 2, 3): Fraction(2, 18),
    (2, 1, 3): Fraction(2, 18),
    (3, 2, 1): Fraction(5, 18),
    (3, 1, 2): Fraction(3, 18),
    (2, 3, 1): Fraction(2, 18),
    (1, 3, 2): Fraction(4, 18),
}

# Winning probabilities of that law, worked out by hand: e.g.
# alpha_1({1,3}) = p(1,2,3) + p(2,1,3) + p(1,3,2) = (2+2+4)/18 = 4/9.
EXAMPLE_LAW_ALPHAS = {
    ((1, 2, 3), 1): Fraction(1, 3),
    ((1, 2, 3), 2): Fraction(2, 9),
    ((1, 2, 3), 3): Fraction(4, 9),
    ((1, 2), 1): Fraction(1, 2),
    ((1, 2), 2): Fraction(1, 2),
    ((1, 3), 1): Fraction(4, 9),
    ((1, 3), 3): Fraction(5, 9),
    ((2, 3), 2): Fraction(1, 3),
    ((2, 3), 3): Fraction(2, 3),
}

# The ranking pattern that law induces (ties share rank 1 on {1,2}).
EXAMPLE_PATTERN_RANKS = {
    (1, 2, 3): {3: 1, 1: 2, 2: 3},
    (1, 3): {3: 1, 1: 2},
    (2, 3): {3: 1, 2: 2},
    (1, 2): {1: 1, 2: 1},
}


@pytest.fixture
def example_law() -> PermutationDistribution:
    return PermutationDistribution(3, EXAMPLE_LAW_WEIGHTS)


@pytest.fixture
def example_model(example_law):
    """The inverted load-sharing model realizing the worked-example law."""
    return invert_to_ls(example_law)


@pytest.fixture
def example_pattern() -> RankingPattern:
    return RankingPattern(
        3,
        tuple(
            RankingFunction.of(members, ranks)
            for members, ranks in EXAMPLE_PATTERN_RANKS.items()
        ),
    )


def random_distribution(m: int, rng: random.Random, sparse: bool = True):
    """A random exact rational distribution over the permutations of [m]."""
    import itertools

    perms = list(itertools.permutations(range(1, m + 1)))
    if sparse and len(perms) > 2 and rng.random() < 0.5:
        support = rng.sample(perms, rng.randint(1, len(perms)))
    else:
        support = perms
    raw = {perm: rng.randint(0, 20) for perm in support}
    if not any(raw.values()):
        raw[support[0]] = 1
    total = sum(raw.values())
    return PermutationDistribution(
        m, {perm: Fraction(v, total) for perm, v in raw.items() if v}
    )


def printed(result) -> object:
    """The document the CLI prints for a ``cli.run`` result, read back from its text."""
    out = io.StringIO()
    _write_json(result.payload, out)
    return json.loads(out.getvalue())
