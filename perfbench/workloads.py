"""Seeded inputs and request chains of the benchmark's three workloads.

A workload is a fixed list of jobs built from the seed. A job is one input
instance (a law, a pattern or a model) with its whole chain of requests.
A request is an in-process CLI call (``precedence.cli.main`` with stdout
captured, so JSON in and out is included) or a direct library call. Only
requests are timed; the checks that follow them are not.

Every library call goes through the package module ``P`` at call time, so
the tracer's wrappers are reached. The checks use no library code: they
compare twin routes to one quantity and recompute what they need from the
JSON text with ``fractions`` alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from time import perf_counter
from typing import Callable

from reference import SpeedLog, request_clock

SMALL_MAX_M = 5

# Small jobs per m. Latency grows with m, so these proportions put the
# median in the middle of the m=4 jobs and the 90th percentile inside the
# m=5 jobs, away from a class boundary.
SMALL_MIX = ((3, 30), (4, 40), (5, 30))

# Support sizes of the sparse laws, per m.
SPARSE_SUPPORT = {3: 3, 4: 8, 5: 20, 7: 40, 8: 60}

SAMPLES_SMALL = 500
SAMPLES_LARGE = 3_000

# A run compares at most ~1e5 Monte Carlo estimates with exact values. The
# tolerance is Bernstein's bound at a per-estimate false-alarm rate of
# P(|Z| > 4) / 1e5, so a whole run raises a false alarm no more often than
# one 4-sigma test does, and small-p estimates are covered without a
# normal approximation.
_MC_LOG = math.log(2 / (2 * NormalDist().cdf(-4.0) / 1e5))


def mc_tolerance(p: float, n: int) -> float:
    """Allowed |empirical - exact| for a frequency estimated from n draws."""
    return math.sqrt(2 * p * (1 - p) * _MC_LOG / n) + 2 * _MC_LOG / (3 * n)


def fmt(q: Fraction) -> str:
    """The canonical rational text of the file formats."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def alpha_entries(m: int) -> int:
    """Number of alpha_j(A) values over all subsets A of [m] with |A| >= 2."""
    return m * 2 ** (m - 1) - m


def den_bits(text: str) -> int:
    return int(text.partition("/")[2] or "1").bit_length()


@dataclass
class Job:
    id: str
    m: int
    cls: str  # "small", "medium" or "large"
    seed_free: bool  # inputs do not depend on the seed
    pinned: bool  # stdout of its exact requests has a pinned digest
    body: Callable[["Ctx"], None]


@dataclass
class JobResult:
    id: str
    cls: str
    latencies: list[float]  # one per request, in order
    spans: list[tuple[float, float]]  # wall-clock start and end of each request
    attempted: int
    failed: int
    exact_digest: str
    all_digest: str
    work: Counter
    errors: list[str]


class Ctx:
    """Runs the requests of one job: times them and records failures."""

    def __init__(self, P, job: Job, speed: SpeedLog):
        self.P = P
        self.job = job
        self.speed = speed
        self.latencies: list[float] = []  # one per request
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self.exact = hashlib.sha256()
        self.all = hashlib.sha256()
        self.work: Counter = Counter()

    def cli(self, *argv, exact: bool = True) -> str:
        """One CLI request, expected to exit 0; returns its stdout."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with self.timed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.P.cli.main(argv)
        text = out.getvalue()
        # input files enter the digest by name only: the checkout moves
        shown = " ".join(Path(a).name if os.sep in a else a for a in argv)
        record = shown.encode() + b"\0" + text.encode() + b"\0"
        self.all.update(record)
        if exact:
            self.exact.update(record)
        self.work["output_bytes"] += len(text.encode())
        self.check(code == 0, f"{argv[0]} exited {code}: {err.getvalue()[:200]}")
        return text

    def lib(self, call: Callable[[], object]):
        """One library request."""
        self.attempted += 1
        with self.timed():
            return call()

    @contextlib.contextmanager
    def timed(self):
        """CPU time of the block, and when it ran, for scaling once the run ends."""
        wall = perf_counter()
        start = request_clock()
        try:
            yield
        finally:
            elapsed = request_clock() - start
            self.latencies.append(elapsed)
            self.spans.append((wall, perf_counter()))
            self.speed.after(elapsed)

    def check(self, ok: bool, what: str) -> None:
        """A failed check fails the latest request."""
        if not ok:
            self.failed.add(self.attempted)
            self.errors.append(f"{self.job.id}: {what}")


def run_job(P, job: Job, speed: SpeedLog) -> JobResult:
    ctx = Ctx(P, job, speed)
    try:
        job.body(ctx)
    except Exception:  # a request that raises fails; the run goes on
        ctx.failed.add(ctx.attempted)
        ctx.errors.append(f"{job.id}: request {ctx.attempted} raised\n{traceback.format_exc()}")
    return JobResult(
        job.id,
        job.cls,
        ctx.latencies,
        ctx.spans,
        ctx.attempted,
        len(ctx.failed),
        ctx.exact.hexdigest(),
        ctx.all.hexdigest(),
        ctx.work,
        ctx.errors,
    )


def size_class(m: int, large_min: int) -> str:
    if m <= SMALL_MAX_M:
        return "small"
    return "large" if m >= large_min else "medium"


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def families(text: str) -> dict[tuple[tuple[int, ...], int], str]:
    """alpha_j(A) strings from a CLI ``alpha`` / ``oracle`` document."""
    return {
        (tuple(row["set"]), int(j)): value
        for row in json.loads(text)["families"]
        for j, value in row["alpha"].items()
    }


def random_law(rng: random.Random, m: int, support: int | None) -> dict:
    """A distribution document with weights w / sum(w), w uniform in 1..9."""
    perms = list(itertools.permutations(range(1, m + 1)))
    if support is not None:
        perms = sorted(rng.sample(perms, support))
    weights = [rng.randint(1, 9) for _ in perms]
    total = sum(weights)
    return {
        "m": m,
        "weights": [
            {"perm": list(p), "p": fmt(Fraction(w, total))} for p, w in zip(perms, weights)
        ],
    }


def subsets(m: int) -> list[tuple[int, ...]]:
    return [c for size in range(2, m + 1) for c in itertools.combinations(range(1, m + 1), size)]


def pattern_doc(m: int, orders) -> dict:
    """A tie-free pattern document; ``orders[A]`` lists A from rank 1 down."""
    return {
        "m": m,
        "functions": [
            {"set": list(a), "ranks": {str(x): orders[a].index(x) + 1 for x in a}}
            for a in sorted(subsets(m))
        ],
    }


def random_tie_free(rng: random.Random, m: int) -> dict:
    return pattern_doc(m, {a: rng.sample(a, len(a)) for a in subsets(m)})


def all_tie_free_m3() -> list[dict]:
    """The 2 * 2 * 2 * 6 = 48 tie-free patterns over [3]."""
    sets = sorted(subsets(3))
    return [
        pattern_doc(3, dict(zip(sets, orders)))
        for orders in itertools.product(*(itertools.permutations(a) for a in sets))
    ]


# --- laws -------------------------------------------------------------------


def build_laws(P, rng: random.Random, workdir: Path) -> list[Job]:
    """Analyse a given failure-order law: m! prefix trees, large JSON documents."""
    specs = [(m, kind) for m, count in SMALL_MIX for kind in ("dense", "sparse") * (count // 2)]
    # Dense laws stop at m=6: at m=7 the oracle alone takes ~2.5 s and at
    # m=8 one chain ~20 s, which would leave too few rounds in a run.
    # Two m=7 laws and one m=8 law: large_p50_s is then the slower m=7 job,
    # whose short requests are timed far more steadily than the m=8 job's
    # ~1 s ones; the m=8 job counts in round_s.
    specs += [(6, "dense"), (7, "sparse"), (7, "sparse"), (8, "sparse")]
    jobs = []
    for index, (m, kind) in enumerate(specs):
        doc = random_law(rng, m, SPARSE_SUPPORT[m] if kind == "sparse" else None)
        k = (m + 1) // 2  # the system works while at least k of m work
        structure = {"r": m, "path_sets": [list(c) for c in itertools.combinations(range(1, m + 1), k)]}
        splits = []
        for _ in range(2):
            size = rng.randint(2, m - 1)
            members = tuple(sorted(rng.sample(range(1, m + 1), size)))
            splits.append((members, rng.choice(members)))
        jid = f"laws/{index:03d}-m{m}-{kind}"
        law = {
            "m": m,
            "k": k,
            "path": write_json(workdir / f"law{index}.json", doc),
            "structure": write_json(workdir / f"kofm{index}.json", structure),
            "rho": P.PermutationDistribution.from_json_dict(doc),
            "splits": splits,
        }
        jobs.append(
            Job(jid, m, size_class(m, 7), False, True, lambda ctx, law=law: law_chain(ctx, law))
        )
    return jobs


def law_chain(ctx: Ctx, law: dict) -> None:
    P, m, path = ctx.P, law["m"], law["path"]
    support = len(law["rho"].weights)

    alpha = ctx.cli("alpha", "--dist", path)
    exact = families(alpha)
    ctx.work["alpha_entries"] += alpha_entries(m)
    if m <= 7:  # at m=8 the scan costs ~10x the other routes
        oracle = ctx.cli("oracle", "--dist", path)
        ctx.check(oracle == alpha, "oracle stdout differs from alpha stdout")
        ctx.work["alpha_entries"] += alpha_entries(m)
        ctx.work["perms_scanned"] += support

    induced = ctx.cli("pattern", "induce", "--dist", path)
    ctx.work["alpha_entries"] += alpha_entries(m)
    for fn in json.loads(induced)["functions"]:
        values = {int(j): Fraction(exact[(tuple(fn["set"]), int(j))]) for j in fn["ranks"]}
        levels = sorted(set(values.values()), reverse=True)
        want = {str(j): levels.index(v) + 1 for j, v in values.items()}
        ctx.check(fn["ranks"] == want, f"induced ranks of {fn['set']} do not follow alpha")

    inverted = json.loads(ctx.cli("ls", "invert", "--dist", path))

    sig = json.loads(ctx.cli("signature", "compute", "--decimal", "--structure", law["structure"], "--dist", path))
    ctx.work["perms_scanned"] += support
    # a k-out-of-m system dies exactly at failure m-k+1, whatever the law
    want = ["1" if step == m - law["k"] + 1 else "0" for step in range(1, m + 1)]
    ctx.check([e["exact"] for e in sig["signature"]] == want, "k-out-of-m signature is not a point mass")

    def round_trip():
        model = P.invert_to_ls(law["rho"])
        return model, P.distribution_of(model)

    model, back = ctx.lib(round_trip)
    ctx.check(back == law["rho"], "distribution_of(invert_to_ls(rho)) != rho")
    rates = {(tuple(e["prefix"]), e["j"]): e["mu"] for e in inverted["rates"]}
    ctx.check(
        rates == {key: fmt(mu) for key, mu in model.rates.items()} and inverted["default"] == "0",
        "ls invert stdout differs from invert_to_ls",
    )

    fam = ctx.lib(lambda: P.alpha_family_ls(model))
    ctx.work["alpha_entries"] += alpha_entries(m)
    ctx.check({key: fmt(q) for key, q in fam.alphas.items()} == exact, "alpha_family_ls != alpha")
    ctx.work["max_den_bits"] = max(q.denominator.bit_length() for q in fam.alphas.values())

    for members, i in law["splits"]:
        beta, gamma = ctx.lib(lambda: P.beta_gamma_split(model, members, i))
        ctx.check(beta + gamma == fam.alphas[(members, i)], f"beta + gamma != alpha_{i}{members}")


# --- paradoxes --------------------------------------------------------------


def build_paradoxes(P, rng: random.Random, workdir: Path) -> list[Job]:
    """Realise ranking paradoxes: 2^m set-invariant DP, ~1k-bit rationals."""
    named = {"very-paradox": P.pattern_very_paradox, "cyclic": P.pattern_cyclic}
    specs = [(3, f"tie-free{n:02d}", True, doc) for n, doc in enumerate(all_tie_free_m3())]
    for m, count in ((4, 40), (5, 40)):  # with the 48 at m=3, as SMALL_MIX does
        specs += [(m, kind, True, named[kind](m).to_json_dict()) for kind in named]
        specs += [(m, "random", False, random_tie_free(rng, m)) for _ in range(count - 2)]
    # Large: three patterns at m=8, so that large_p50_s is the middle of
    # three like jobs rather than one job, and one each at m=7 and m=9.
    for m, kind in ((6, "very-paradox"), (6, "cyclic"), (7, "very-paradox"), (8, "cyclic"), (8, "very-paradox"), (9, "very-paradox")):
        specs.append((m, kind, True, named[kind](m).to_json_dict()))
    specs.append((8, "random", False, random_tie_free(rng, 8)))
    jobs = []
    for index, (m, kind, seed_free, doc) in enumerate(specs):
        prefixes = [tuple(rng.sample(range(1, m + 1), k)) for k in (1, 2, m - 1)]
        item = {
            "m": m,
            "path": write_json(workdir / f"pattern{index}.json", doc),
            "votes": str(workdir / f"votes{index}.json"),
            "sigma": P.RankingPattern.from_json_dict(doc),
            "ranks": {tuple(fn["set"]): fn["ranks"] for fn in doc["functions"]},
            "prefixes": prefixes,
        }
        jid = f"paradoxes/{index:03d}-m{m}-{kind}"
        jobs.append(
            Job(jid, m, size_class(m, 7), seed_free, True, lambda ctx, p=item: paradox_chain(ctx, p))
        )
    return jobs


def concordant(ranks: dict[str, int], scores: dict[str, Fraction]) -> bool:
    """Lower rank means strictly higher score, for every pair."""
    return all(
        (ranks[a] < ranks[b]) == (scores[a] > scores[b])
        for a, b in itertools.permutations(ranks, 2)
    )


def paradox_chain(ctx: Ctx, p: dict) -> None:
    P, m, path, ranks = ctx.P, p["m"], p["path"], p["ranks"]

    cert = json.loads(ctx.cli("concord", "certify", "--pattern", path))
    ctx.work["alpha_entries"] += alpha_entries(m)
    ctx.check(cert["verdict"] == "PASS" and not cert["violations"], "certificate verdict is not PASS")
    ctx.check(
        all(
            concordant(ranks[tuple(row["set"])], {j: Fraction(v) for j, v in row["alpha"].items()})
            for row in cert["alpha"]
        )
        and len(cert["alpha"]) == len(ranks),
        "certificate alphas are not concordant with the pattern",
    )
    ctx.work["max_den_bits"] = max(den_bits(v) for row in cert["alpha"] for v in row["alpha"].values())

    eps = json.loads(ctx.cli("ls", "check-eps", "--m", m))
    ctx.check(eps["verdict"] == "PASS", "universal schedule fails check-eps")

    def bounds():
        model = P.build_ls_epsilon(p["sigma"], P.epsilon_schedule(m))
        return [P.check_prefix_bounds(model, prefix) for prefix in p["prefixes"]]

    reports = ctx.lib(bounds)
    ctx.check(all(r.lower <= r.probability <= r.upper for r in reports), "prefix probability outside its envelope")

    if m <= 6:  # tally takes ~1 s at m=7 and ~7 s at m=8
        votes = ctx.cli("vote", "synth", "--pattern", path)
        Path(p["votes"]).write_text(votes, encoding="utf-8")
        support = len(json.loads(votes)["counts"])
        table = json.loads(ctx.cli("vote", "tally", "--votes", p["votes"]))
        ctx.check(
            all(
                sum(int(v) for v in row["votes"].values()) == int(table["n"])
                and concordant(ranks[tuple(row["set"])], {j: int(v) for j, v in row["votes"].items()})
                for row in table["tallies"]
            ),
            "tallies do not sum to n or do not follow the pattern",
        )
        check = json.loads(ctx.cli("vote", "check", "--pattern", path, "--votes", p["votes"]))
        ctx.check(check["verdict"] == "PASS", "vote check verdict is not PASS")
        ctx.work["perms_scanned"] += 2 * support


# --- sampler ----------------------------------------------------------------


def build_sampler(P, rng: random.Random, workdir: Path) -> list[Job]:
    """Monte Carlo cross-check: the per-trajectory loop, exact layers bypassed."""
    specs = [(m, kind) for m, count in SMALL_MIX for kind in ("od", "si") * (count // 2)]
    # nine large jobs, so that large_p50_s is the middle of many like jobs
    specs += [(6, kind) for kind in ("od", "si") * 4 + ("od",)]
    jobs = []
    for index, (m, kind) in enumerate(specs):
        if kind == "od":  # order-dependent: the inversion of a random dense law
            rho = P.PermutationDistribution.from_json_dict(random_law(rng, m, None))
            model = P.invert_to_ls(rho)
        else:  # set-invariant: the schedule model of a random tie-free pattern
            sigma = P.RankingPattern.from_json_dict(random_tie_free(rng, m))
            model = P.build_ls_epsilon(sigma, P.epsilon_schedule(m))
        item = {
            "m": m,
            "path": write_json(workdir / f"model{index}.json", model.to_json_dict()),
            "model": model,
            "samples": SAMPLES_SMALL if m <= SMALL_MAX_M else SAMPLES_LARGE,
            "seed": rng.randrange(2**31),
        }
        jid = f"sampler/{index:03d}-m{m}-{kind}"
        # the large class is m=6: the per-sample loop makes m=7 jobs too slow
        jobs.append(
            Job(jid, m, size_class(m, 6), False, False, lambda ctx, s=item: sampler_chain(ctx, s))
        )
    return jobs


def sampler_chain(ctx: Ctx, s: dict) -> None:
    P, m, n, seed = ctx.P, s["m"], s["samples"], s["seed"]
    # sampler stdout is compared between runs but not pinned: a new sampler
    # may draw other orders from the same seed
    doc = json.loads(
        ctx.cli("simulate", "--model", s["path"], "--samples", n, "--seed", seed,
                "--reference", s["path"], exact=False)
    )
    ctx.work["samples"] += n
    ctx.work["alpha_entries"] += alpha_entries(m)
    counts = {tuple(row["perm"]): row["count"] for row in doc["orders"]}
    ctx.check(doc["samples"] == n and sum(counts.values()) == n, "order counts do not add up to the sample size")
    for row in doc["alpha"]:
        for j, value in row["exact"].items():
            p = float(Fraction(value))
            ctx.check(
                abs(row["empirical"][j] - p) <= mc_tolerance(p, n),
                f"estimate of alpha_{j}{row['set']} = {row['empirical'][j]} is far from {value}",
            )
    ctx.work["max_den_bits"] = max(den_bits(v) for row in doc["alpha"] for v in row["exact"].values())

    if m <= SMALL_MAX_M:  # same-seed repeat through the library
        summary = ctx.lib(lambda: P.estimate_alphas(s["model"], n, seed))
        ctx.check(dict(summary.order_counts) == counts, "same-seed estimate_alphas differs from the CLI")
    else:  # the trajectory stream behind those counts
        paths = ctx.lib(lambda: list(P.sample_trajectories(s["model"], n, seed)))
        ctx.check(Counter(t.order for t in paths) == counts, "sample_trajectories differs from the CLI counts")
        ctx.check(all(list(t.times) == sorted(t.times) for t in paths), "failure times out of order")
    ctx.work["samples"] += n


JOB_LISTS = {"laws": build_laws, "paradoxes": build_paradoxes, "sampler": build_sampler}
