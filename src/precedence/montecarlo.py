"""Monte Carlo simulation of the load-sharing failure process.

The process is a sequence of exponential races: given the current failure
prefix, the next victim is drawn with probability mu_j(prefix) / M(prefix)
and the sojourn time is exponential with rate M(prefix). Sojourn times
never influence which component wins a race, so the failure order sampled
here follows the model's exact permutation law; the empirical statistics
exist to cross-check the exact machinery, with explicit statistical
tolerances (exact targets are never replaced).

Sampling is level-synchronous: each block of ``CHUNK_TRAJECTORIES``
samples takes one numpy step per failure, every sample reading the float
CDF row of its current prefix. Rows are built in plain Python from the
model's stored integer rows when a sample first reaches their prefix, so a
prefix with zero total rate raises only then; a set-invariant model's row
is built once per failed set, and the prefixes of one set share it. A
step's new rows join their level's arrays in one batch. A lone last survivor fails last whatever its
rate, as in the exact law; :func:`sample_trajectories` refuses a rate of 0
there when a sample first reaches it, since no failure time exists. A positive
total below the float range rounds to 0.0, and its sojourns to inf.

Reproducibility: a counter-based generator (Philox) is keyed once from
the seed, and block i always draws from counter i, its uniforms before
its exponentials. Reductions sum integer counts only, so summaries are
bit-identical for a fixed seed. A row turns the integer rate numerators
of its prefix's stored row into floats, each rounded once: r / total is
float(mu / M), whatever the row's scale, and the CDF adds them left to
right, as ``np.cumsum`` would.

numpy is needed by the sampler alone: the functions that draw, build
arrays or walk them import it when they run, so importing this module, as
the package and the CLI do, loads no numpy until the first draw.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, count
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple

from .core import JsonRows, plain_json, subset_rows
from .errors import DomainError, SimulationError
from .loadsharing import LoadSharingModel, SetInvariantLSModel
from .permdist import WinningProbabilityFamily, failed_set_table, winner_sums

if TYPE_CHECKING:
    import numpy as np

CHUNK_TRAJECTORIES = 4096


class Trajectory(NamedTuple):
    """One simulated failure history: identities in order, times ascending."""

    order: tuple[int, ...]
    times: tuple[float, ...]


@dataclass(frozen=True)
class SimulationSummary:
    """Empirical failure-order statistics from ``samples`` trajectories.

    The estimates derive from the order counts alone, so two summaries of
    the same counts are equal.
    """

    m: int
    samples: int
    seed: int
    order_counts: Mapping[tuple[int, ...], int]
    empirical_rho: Mapping[tuple[int, ...], float]
    empirical_alpha: Mapping[tuple[tuple[int, ...], int], float]

    def to_json_dict(self, exact: WinningProbabilityFamily | None = None) -> dict:
        return plain_json(self._json_doc(exact))

    def _json_doc(self, exact: WinningProbabilityFamily | None = None) -> dict:
        """The document, its order and alpha tables as :class:`~precedence.core.JsonRows`."""
        sets = sorted({members for members, _ in self.empirical_alpha})
        alpha = self.empirical_alpha
        alpha_rows = subset_rows("empirical", ((s, [alpha[s, j] for j in s]) for s in sets))
        if exact is not None:  # the family's own rows, paired in subset order
            if exact.m != self.m or not exact.is_complete():
                raise DomainError(f"exact targets need a complete family over [{self.m}]")
            alpha_rows = JsonRows(("set", "empirical", "exact"), [
                (*row, exact_alphas)
                for row, (_, exact_alphas) in zip(alpha_rows.rows, exact._json_rows().rows, strict=True)
            ])
        return {
            "m": self.m,
            "samples": self.samples,
            "seed": self.seed,
            "orders": JsonRows(("perm", "count", "frequency"), [
                (perm, self.order_counts[perm], self.empirical_rho[perm])
                for perm in sorted(self.order_counts)
            ]),
            "alpha": alpha_rows,
        }


class _Level:
    """The reached prefixes of one length, one row each.

    A row holds the prefix's survivors, the float CDF of the next victim,
    the float total rate, and each child's row in the next level (-1 until
    a sample takes that branch).
    """

    def __init__(self, k: int):
        import numpy as np

        self.prefixes: list[tuple[int, ...]] = []
        self.survivors = np.empty((0, k), np.intp)
        self.cum = np.empty((0, k))
        self.total = np.empty(0)
        self.child = np.empty((0, k), np.intp)


def _float_row(model: LoadSharingModel, prefix: tuple) -> tuple[list[int], list[float], float]:
    """The survivors, float CDF of the next victim and float total rate after ``prefix``."""
    row, total, scale = model._row(prefix)
    survivors = list(row)
    try:  # int true division rounds correctly: total / scale is float(M), r / total float(mu / M)
        float_total = total / scale  # an M below the float range rounds to 0.0: sojourns inf
    except OverflowError:  # an M past the float range rounds to inf: its sojourns are 0.0
        float_total = float("inf")
    if len(survivors) == 1:  # it fails last at any rate
        return survivors, [1.0], float_total
    if total == 0:
        raise SimulationError(f"zero total rate at reached prefix {prefix}; model invalid on support")
    cum = list(accumulate(r / total for r in row.values()))  # left to right, as np.cumsum
    cum[-1] = 1.0  # guard against float round-off in the last bin
    return survivors, cum, float_total


def _row_reader(model: LoadSharingModel) -> Callable[[tuple], tuple]:
    """:func:`_float_row` of each prefix; a set-invariant model's rows are kept by
    failed set for the life of the reader, which refers to no sampler table."""
    read = functools.partial(_float_row, model)
    if not isinstance(model, SetInvariantLSModel):
        return read
    rows: dict[frozenset[int], tuple] = {}

    def by_failed_set(prefix: tuple) -> tuple:
        failed = frozenset(prefix)
        row = rows.get(failed)
        if row is None:  # a row that raises is never kept: each prefix reports itself
            row = rows[failed] = read(prefix)
        return row

    return by_failed_set


class _SamplerTables:
    """Float transition tables, built lazily per reached prefix, one level per step."""

    def __init__(self, model: LoadSharingModel):
        self.m = model.m
        self.levels = [_Level(self.m - r) for r in range(self.m)]
        self.read = _row_reader(model)
        self._extend(0, [()])

    def _extend(self, r: int, prefixes: list[tuple[int, ...]]) -> None:
        import numpy as np

        survivors, cum, total = zip(*map(self.read, prefixes))
        level, shape = self.levels[r], (len(prefixes), self.m - r)
        level.prefixes += prefixes
        survivors = np.fromiter(chain.from_iterable(survivors), np.intp, shape[0] * shape[1])
        cum = np.fromiter(chain.from_iterable(cum), float, shape[0] * shape[1])
        level.survivors = np.vstack([level.survivors, survivors.reshape(shape)])
        level.cum = np.vstack([level.cum, cum.reshape(shape)])
        level.total = np.concatenate([level.total, np.array(total)])
        level.child = np.vstack([level.child, np.full(shape, -1)])

    def walk(
        self, uniforms: np.ndarray, exponentials: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Walk every sample of a block at once, one failure step at a time.

        Returns each sample's row in the last level, whose prefix and lone
        survivor spell its failure order, and the failure times when
        ``exponentials`` are given.
        """
        import numpy as np

        node = np.zeros(len(uniforms), np.intp)
        sojourns = []
        for r, level in enumerate(self.levels):
            if exponentials is not None:  # a total of 0.0 is a positive M: its sojourns are inf
                with np.errstate(divide="ignore"):
                    sojourns.append(exponentials[:, r] / level.total[node])
            if r == self.m - 1:
                break
            # the count of CDF entries <= u is searchsorted(side="right"): it
            # keeps zero-probability survivors unreachable even when u lands
            # exactly on a bin boundary
            idx = np.count_nonzero(level.cum[node] <= uniforms[:, r, None], axis=1)
            np.minimum(idx, self.m - r - 1, out=idx)
            new = level.child[node, idx] < 0
            if new.any():
                branches = np.unique(node[new] * (self.m - r) + idx[new])
                parents, picks = np.divmod(branches, self.m - r)
                start = len(self.levels[r + 1].prefixes)
                victims = level.survivors[parents, picks].tolist()
                self._extend(r + 1, [
                    level.prefixes[p] + (j,) for p, j in zip(parents.tolist(), victims)
                ])
                level.child[parents, picks] = np.arange(start, start + len(branches))
            node = level.child[node, idx]
        # add.accumulate sums left to right, as a running clock would
        return node, np.cumsum(sojourns, axis=0).T if sojourns else None

    def order(self, leaf: int) -> tuple[int, ...]:
        last = self.levels[-1]
        return last.prefixes[leaf] + (int(last.survivors[leaf, 0]),)


def _blocks(n_samples: int, seed: int, m: int) -> Iterator[tuple[np.ndarray, np.random.Generator]]:
    """The uniforms of each sample block, and the block's generator, which draws
    its exponentials next."""
    for name, value in (("n_samples", n_samples), ("seed", seed)):
        if type(value) is not int:  # a bool, a float or a numpy int is refused, not coerced
            raise DomainError(f"{name} must be an int, got {value!r}")
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    import numpy as np

    words = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    key = int(words[0]) | (int(words[1]) << 64)
    starts = range(0, n_samples, CHUNK_TRAJECTORIES)
    rngs = (np.random.Generator(np.random.Philox(key=key, counter=i << 128)) for i in count())
    sizes = (min(CHUNK_TRAJECTORIES, n_samples - start) for start in starts)
    return ((rng.random((size, m)), rng) for size, rng in zip(sizes, rngs))


def sample_trajectories(
    model: LoadSharingModel, n_samples: int, seed: int
) -> Iterator[Trajectory]:
    """The exact trajectory stream :func:`estimate_alphas` consumes."""
    blocks = _blocks(n_samples, seed, model.m)
    tables = _SamplerTables(model)

    @functools.cache  # one tuple per leaf, shared by its samples
    def order(leaf: int) -> tuple[int, ...]:
        prefix = tables.levels[-1].prefixes[leaf]
        if not model._row(prefix)[1]:  # the last survivor's rate: no failure time exists
            raise SimulationError(f"zero total rate at reached prefix {prefix}; no failure time exists")
        return tables.order(leaf)

    walks = (tables.walk(u, rng.standard_exponential(u.shape)) for u, rng in blocks)
    return chain.from_iterable(  # one map per block: no generator frame resumed per sample
        map(Trajectory, map(order, leaves.tolist()), map(tuple, times.tolist()))
        for leaves, times in walks
    )


def estimate_alphas(
    model: LoadSharingModel, n_samples: int, seed: int = 0
) -> SimulationSummary:
    """Empirical failure-order frequencies and winning-probability estimates.

    Deterministic for a fixed seed: trajectory i always comes from the
    same substream block. The exponentials are not drawn; they come after
    the uniforms in each block, so the counts are those of
    :func:`sample_trajectories`.
    """
    blocks = _blocks(n_samples, seed, model.m)
    tables = _SamplerTables(model)
    hits: Counter = Counter()  # samples per row of the last level
    for uniforms, _ in blocks:
        hits.update(tables.walk(uniforms)[0].tolist())
    counts = {tables.order(leaf): c for leaf, c in hits.items()}
    wins = winner_sums(model.m, failed_set_table(counts.items()))
    return SimulationSummary(
        m=model.m,
        samples=n_samples,
        seed=seed,
        order_counts=counts,
        empirical_rho={perm: c / n_samples for perm, c in counts.items()},
        empirical_alpha={key: c / n_samples for key, c in wins.items()},
    )

