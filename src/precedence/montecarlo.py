"""Monte Carlo simulation of the load-sharing failure process.

The process is a sequence of exponential races: given the current failure
prefix, the next victim is drawn with probability mu_j(prefix) / M(prefix)
and the sojourn time is exponential with rate M(prefix). Sojourn times
never influence which component wins a race, so the failure order sampled
here follows the model's exact permutation law; the empirical statistics
exist to cross-check the exact machinery, with explicit statistical
tolerances (exact targets are never replaced).

Reproducibility: a counter-based generator (Philox) is keyed once from
the seed, and trajectories are laid out in fixed blocks of
``CHUNK_TRAJECTORIES`` regardless of how many workers consume them.
Reductions sum integer counts only. Summaries are therefore bit-identical
for a fixed seed, whatever the worker count; rates are converted to
floating point only inside the sampler.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .core import rational_format
from .errors import DomainError, SimulationError
from .loadsharing import LoadSharingModel, total_rate
from .permdist import WinningProbabilityFamily, failed_set_table, winner_sums

CHUNK_TRAJECTORIES = 4096


@dataclass(frozen=True)
class Trajectory:
    """One simulated failure history: identities in order, times ascending."""

    order: tuple[int, ...]
    times: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class SimulationSummary:
    """Empirical failure-order statistics from ``samples`` trajectories."""

    m: int
    samples: int
    seed: int
    workers: int
    order_counts: Mapping[tuple[int, ...], int]
    empirical_rho: Mapping[tuple[int, ...], float]
    empirical_alpha: Mapping[tuple[tuple[int, ...], int], float]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimulationSummary):
            return NotImplemented
        return (
            self.m == other.m
            and self.samples == other.samples
            and self.seed == other.seed
            and dict(self.order_counts) == dict(other.order_counts)
        )

    def to_json_dict(self, exact: WinningProbabilityFamily | None = None) -> dict:
        alpha_rows = []
        sets = sorted({members for members, _ in self.empirical_alpha})
        for members in sets:
            row: dict = {"set": list(members), "empirical": {}}
            for j in members:
                row["empirical"][str(j)] = self.empirical_alpha[(members, j)]
            if exact is not None:
                row["exact"] = {
                    str(j): rational_format(exact.alpha(members, j)) for j in members
                }
            alpha_rows.append(row)
        return {
            "m": self.m,
            "samples": self.samples,
            "seed": self.seed,
            "workers": self.workers,
            "orders": [
                {
                    "perm": list(perm),
                    "count": self.order_counts[perm],
                    "frequency": self.empirical_rho[perm],
                }
                for perm in sorted(self.order_counts)
            ],
            "alpha": alpha_rows,
        }


class _SamplerTables:
    """Float transition tables, built lazily per visited prefix."""

    def __init__(self, model: LoadSharingModel):
        self.model = model
        self.m = model.m
        self._cache: dict[tuple[int, ...], tuple[tuple[int, ...], np.ndarray, float]] = {}

    def at(self, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray, float]:
        hit = self._cache.get(prefix)
        if hit is not None:
            return hit
        total = total_rate(self.model, prefix)
        if total <= 0:
            raise SimulationError(
                f"zero total rate at reached prefix {prefix}; model invalid on support"
            )
        failed = set(prefix)
        survivors = tuple(j for j in range(1, self.m + 1) if j not in failed)
        cum = np.cumsum(
            [float(self.model.rate(prefix, j) / total) for j in survivors]
        )
        cum[-1] = 1.0  # guard against float round-off in the last bin
        entry = (survivors, cum, float(total))
        self._cache[prefix] = entry
        return entry


def _walk(
    tables: _SamplerTables, uniforms: np.ndarray, exponentials: np.ndarray
) -> tuple[tuple[int, ...], tuple[float, ...]]:
    prefix: tuple[int, ...] = ()
    t = 0.0
    times = []
    for step in range(tables.m):
        survivors, cum, total = tables.at(prefix)
        # side="right" keeps zero-probability survivors unreachable even
        # when the uniform lands exactly on a bin boundary
        idx = int(np.searchsorted(cum, uniforms[step], side="right"))
        victim = survivors[min(idx, len(survivors) - 1)]
        t += exponentials[step] / total
        times.append(t)
        prefix = prefix + (victim,)
    return prefix, tuple(times)


def sample_trajectory(model: LoadSharingModel, rng: np.random.Generator) -> Trajectory:
    """Draw one failure history from ``rng`` (two draws per failure)."""
    tables = _SamplerTables(model)
    uniforms = rng.random(model.m)
    exponentials = rng.standard_exponential(model.m)
    order, times = _walk(tables, uniforms, exponentials)
    return Trajectory(order, times)


def _philox_key(seed: int) -> int:
    words = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def _chunk_generator(key: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key, counter=chunk_index << 128))


def _iter_chunk(
    tables: _SamplerTables, key: int, chunk_index: int, size: int
) -> Iterator[tuple[tuple[int, ...], tuple[float, ...]]]:
    rng = _chunk_generator(key, chunk_index)
    uniforms = rng.random((size, tables.m))
    exponentials = rng.standard_exponential((size, tables.m))
    for row in range(size):
        yield _walk(tables, uniforms[row], exponentials[row])


def sample_trajectories(
    model: LoadSharingModel, n_samples: int, seed: int
) -> Iterator[Trajectory]:
    """The exact trajectory stream :func:`estimate_alphas` consumes."""
    tables = _SamplerTables(model)
    key = _philox_key(seed)
    produced = 0
    chunk_index = 0
    while produced < n_samples:
        size = min(CHUNK_TRAJECTORIES, n_samples - produced)
        for order, times in _iter_chunk(tables, key, chunk_index, size):
            yield Trajectory(order, times)
        produced += size
        chunk_index += 1


def _chunk_order_counts(
    model: LoadSharingModel, seed: int, chunk_index: int, size: int
) -> Counter:
    tables = _SamplerTables(model)
    key = _philox_key(seed)
    counts: Counter = Counter()
    for order, _ in _iter_chunk(tables, key, chunk_index, size):
        counts[order] += 1
    return counts


def estimate_alphas(
    model: LoadSharingModel, n_samples: int, seed: int = 0, workers: int = 1
) -> SimulationSummary:
    """Empirical failure-order frequencies and winning-probability estimates.

    Deterministic for a fixed seed: trajectory i always comes from the
    same substream block, so the counts do not depend on ``workers``, which
    the CPU count caps (the pool starts every worker at its first submit).
    """
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise DomainError(f"workers must be <= the CPU count {cpus}, got {workers}")
    chunks = []
    produced = 0
    index = 0
    while produced < n_samples:
        size = min(CHUNK_TRAJECTORIES, n_samples - produced)
        chunks.append((index, size))
        produced += size
        index += 1

    counts: Counter = Counter()
    if workers == 1:
        tables = _SamplerTables(model)
        key = _philox_key(seed)
        for chunk_index, size in chunks:
            for order, _ in _iter_chunk(tables, key, chunk_index, size):
                counts[order] += 1
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_chunk_order_counts, model, seed, chunk_index, size)
                for chunk_index, size in chunks
            ]
            for future in futures:
                counts.update(future.result())

    empirical_rho = {perm: c / n_samples for perm, c in counts.items()}
    wins = winner_sums(model.m, failed_set_table(counts.items()))
    return SimulationSummary(
        m=model.m,
        samples=n_samples,
        seed=seed,
        workers=workers,
        order_counts=dict(counts),
        empirical_rho=empirical_rho,
        empirical_alpha={key: c / n_samples for key, c in wins.items()},
    )


def empirical_alpha_from_times(
    trajectories: Iterator[Trajectory], m: int
) -> dict[tuple[tuple[int, ...], int], float]:
    """Recompute winning-probability estimates from failure *times* alone.

    Internal consistency check: sorting each trajectory's times must give
    back its stored order, so the estimates must match the order-based
    ones exactly.
    """
    counts: Counter = Counter()
    n = 0
    for tr in trajectories:
        order_from_times = tuple(
            component for _, component in sorted(zip(tr.times, tr.order))
        )
        counts[order_from_times] += 1
        n += 1
    wins = winner_sums(m, failed_set_table(counts.items()))
    return {key: c / n for key, c in wins.items()}
