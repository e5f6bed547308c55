"""Benchmark of the ``precedence`` toolkit: one workload per run.

    python3 perfbench/run.py --workload laws --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one child each

A run is a closed loop with one client in this process: it starts no pool,
and only the cold-start probe starts a child, one at a time. With
``--trace 0`` it repeats set-up, one round of the whole job list and two
cold-start probes until ``--seconds`` have passed, and at least three
times, then reports the end-to-end metrics. With ``--trace 1`` it sets up
once, runs one plain round and one traced round, and reports the per-layer
metrics. Every output is checked; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory. Without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import workloads
from reference import request_clock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = tuple(workloads.JOB_LISTS)
DEFAULT_SEED = 0
MIN_ROUNDS = 3
COLD_PER_ROUND = 2
SETUPS_PER_ROUND = 3
KERNELS_AROUND = 2  # reference kernels just before and after a set-up
COLD_ARGV = ["pattern", "gen", "--kind", "cyclic", "--m", "3"]

# Counts that must repeat bit-for-bit for one seed and one version of the code.
EXACT_COUNTS = (
    "cli.requests",
    "cli.output_bytes",
    "core.rational_parse.calls",
    "core.rational_format.calls",
    "loadsharing.total_rate.calls",
    "loadsharing.rate.calls",
    "montecarlo.samples",
    "work.max_den_bits",
    "work.perms_scanned",
    "work.alpha_entries",
    "trace.spans",
)

# Per-layer times reported from the traced round: layer -> traced functions.
LAYER_FUNCTIONS = {
    "permdist": ("alpha_family", "prefix_marginals", "alpha_family_bruteforce"),
    "loadsharing": ("alpha_family_ls", "distribution_of", "beta_gamma_split"),
    "construction": ("invert_to_ls", "certify_concordance"),
    "ranking": ("check_p_concordance", "induced_pattern"),
    "voting": ("synthesize_voting_situation", "tally"),
    "signature": ("probability_signature",),
    "montecarlo": ("estimate_alphas",),
}


class Report:
    """Metrics in the order they are added, each with unit and sample count."""

    def __init__(self):
        self.rows: dict[str, tuple[float, str, int]] = {}

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.rows[name] = (value, unit, samples)

    def print(self, heading: str) -> None:
        print(heading)
        for name, (value, unit, samples) in self.rows.items():
            print(f"  {name:42s} {value!r:>24} {unit:6s} n={samples}")

    def metrics(self) -> dict:
        return {name: {"value": v, "unit": u} for name, (v, u, _) in self.rows.items()}


def import_package():
    """A fresh import of ``precedence`` from ``src/``, dropping any earlier one."""
    for name in [n for n in sys.modules if n == "precedence" or n.startswith("precedence.")]:
        del sys.modules[name]
    package = importlib.import_module("precedence")
    importlib.import_module("precedence.cli")
    if Path(package.__file__).resolve().parent != SRC / "precedence":
        raise SystemExit(f"perfbench: imported precedence from {package.__file__}, not {SRC}")
    return package


def call_cli(P, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = P.cli.main(argv)
    return code, out.getvalue()


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs, write them, make one warm-up request."""
    os.environ["PRECEDENCE_MAX_M"] = "9"  # the paradoxes workload certifies at m=9
    warnings.filterwarnings("ignore", message=r"dimension m=\d+ above", category=RuntimeWarning)
    P = import_package()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    jobs = workloads.JOB_LISTS[workload](P, random.Random(f"{workload}:{seed}"), workdir)
    random.Random(seed).shuffle(jobs)
    code, _ = call_cli(P, COLD_ARGV)
    if code != 0:
        raise SystemExit(f"perfbench: warm-up request exited {code}")
    return P, jobs


def child_cpu(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python argv`` with the package on its path; its CPU time (user + system).

    The time is read from the usage of waited-for children, so the child
    must be the only one alive.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    before = usage.ru_utime + usage.ru_stime
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime - before, proc


def cold_start(expected: str) -> tuple[float, bool]:
    """One fresh ``python -m precedence.cli`` process, as a shell user runs it.

    Its CPU time is scaled by that of the reference child run just before
    it, which starts the interpreter the same way without the package.
    """
    ref, ref_proc = child_cpu(reference.CHILD_ARGV)
    elapsed, proc = child_cpu(["-m", "precedence.cli", *COLD_ARGV])
    ok = ref_proc.returncode == 0 and proc.returncode == 0 and proc.stdout == expected
    return elapsed * reference.CHILD_S / ref, ok


def run_round(
    P, jobs, tracer: Tracer | None = None, speed: reference.SpeedLog | None = None
) -> list[workloads.JobResult]:
    """Every job once, in order; the tracer, if any, learns which job runs.

    A reference kernel runs between jobs (and, in ``run_job``, after every
    long request). Request times stay unscaled until ``scale_rounds``.
    """
    results = []
    speed = speed or reference.SpeedLog()
    speed.sample()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        results.append(workloads.run_job(P, job, speed))
        speed.sample()
    return results


def scale_rounds(rounds, speed: reference.SpeedLog) -> None:
    """Scale every request time to the reference speed, once the run's kernels are in."""
    for results in rounds:
        for r in results:
            r.latencies = [speed.scale(t, *span) for t, span in zip(r.latencies, r.spans)]


def job_latencies(rounds) -> dict[str, float]:
    """Each job's latency: the sum over its requests of each one's median round.

    A request's median over the rounds, which are spread across the run,
    is steadier than one round or the fastest, and taking it per request
    lets each request's slow rounds drop out on their own.
    """
    return {
        r.id: sum(statistics.median(each) for each in zip(*(rnd[i].latencies for rnd in rounds)))
        for i, r in enumerate(rounds[0])
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def work_totals(results) -> Counter:
    total: Counter = Counter()
    for r in results:
        for key, value in r.work.items():
            total[key] = max(total[key], value) if key == "max_den_bits" else total[key] + value
    return total


class Verdict:
    """Attempted and failed requests of a run, with the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add_round(self, results) -> None:
        for r in results:
            self.attempted += r.attempted
            self.failed += r.failed
            self.messages += r.errors

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def check_same_output(self, first, other, what: str) -> None:
        for a, b in zip(first, other):
            if a.all_digest != b.all_digest:
                self.fail(f"{a.id}: stdout of the {what} differs from the first round")

    def check_pins(self, workload: str, seed: int, jobs, results) -> None:
        pins = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
        for job, r in zip(jobs, results):
            if job.pinned and (seed == DEFAULT_SEED or job.seed_free):
                if pins.get(job.id) != r.exact_digest:
                    self.fail(f"{job.id}: stdout digest {r.exact_digest[:12]} is not the pinned one")


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Report, Verdict]:
    workdir = WORK / f"{workload}-{seed}"
    verdict = Verdict()
    setups, colds, rounds = [], [], []  # a set-up is (cpu, wall start, wall end)
    speed = reference.SpeedLog()
    P = jobs = None
    start = perf_counter()
    # set-ups, rounds and cold starts alternate, so each is sampled across
    # the whole run rather than in one stretch of it
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        for _ in range(SETUPS_PER_ROUND):
            # the previous set-up's package and inputs hold reference cycles:
            # free them here rather than inside a timed set-up or request
            P = jobs = None
            gc.collect()
            speed.sample(KERNELS_AROUND)
            wall, begin = perf_counter(), request_clock()
            P, jobs = setup(workload, seed, workdir)
            setups.append((request_clock() - begin, wall, perf_counter()))
            speed.sample(KERNELS_AROUND)
        rounds.append(run_round(P, jobs, speed=speed))
        if len(rounds) == 1:
            # this process so far has set up and run the workload once; later
            # set-ups and rounds would only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict.add_round(rounds[-1])
        verdict.check_same_output(rounds[0], rounds[-1], "round")
        _, expected = call_cli(P, COLD_ARGV)
        for _ in range(COLD_PER_ROUND):
            elapsed, ok = cold_start(expected)
            colds.append(elapsed)
            verdict.attempted += 1
            if not ok:
                verdict.fail("cold-start process failed or printed other output")
    verdict.check_pins(workload, seed, jobs, rounds[0])
    shutil.rmtree(workdir)

    scale_rounds(rounds, speed)
    setups = [speed.scale(*interval) for interval in setups]
    latency = job_latencies(rounds)
    small = [latency[r.id] for r in rounds[0] if r.cls == "small"]
    large = [latency[r.id] for r in rounds[0] if r.cls == "large"]
    report = Report()
    report.add("round_s", sum(latency.values()), "s", len(rounds))
    report.add("small_p50_ms", statistics.median(small) * 1e3, "ms", len(small) * len(rounds))
    report.add("small_p90_ms", percentile(small, 0.9) * 1e3, "ms", len(small) * len(rounds))
    report.add("large_p50_s", statistics.median(large), "s", len(large) * len(rounds))
    report.add("cold_start_s", statistics.median(colds), "s", len(colds))
    report.add("peak_rss_mb", peak_rss_mb, "MB", 1)
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    return report, verdict


def code_digest() -> str:
    """Identifies the package and benchmark sources a count record belongs to."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def per_layer(workload: str, seed: int) -> tuple[Report, Verdict]:
    workdir = WORK / f"{workload}-{seed}"
    P, jobs = setup(workload, seed, workdir)
    verdict = Verdict()
    speed = reference.SpeedLog()
    plain = run_round(P, jobs, speed=speed)
    tracer = Tracer()
    tracer.install(P)
    try:
        traced = run_round(P, jobs, tracer, speed)
    finally:
        tracer.uninstall()
    shutil.rmtree(workdir)
    scale_rounds([plain, traced], speed)
    for name in tracer.missing:
        print(f"perfbench: trace target {name} not found in the package", file=sys.stderr)
    verdict.add_round(plain)
    verdict.add_round(traced)
    verdict.check_same_output(plain, traced, "traced round")
    verdict.check_pins(workload, seed, jobs, plain)
    work = work_totals(traced)
    if work != work_totals(plain):
        verdict.fail("work counts of the traced round differ from the plain round")

    round_plain = sum(job_latencies([plain]).values())
    round_traced = sum(job_latencies([traced]).values())
    mc_time = tracer.group_time.get("montecarlo", 0.0)
    report = Report()
    report.add("cli.requests", tracer.calls("cli.main"), "count", 1)
    report.add("cli.self_s", tracer.self_time("cli.main"), "s", 1)
    report.add("cli.parse_s", tracer.group_time.get("parse", 0.0), "s", 1)
    report.add("cli.format_s", tracer.group_time.get("format", 0.0), "s", 1)
    report.add("cli.output_bytes", work["output_bytes"], "bytes", 1)
    report.add("core.rational_parse.calls", tracer.calls("core.rational_parse"), "count", 1)
    report.add("core.rational_format.calls", tracer.calls("core.rational_format"), "count", 1)
    report.add("core.self_s", tracer.module_self_time("core"), "s", 1)
    for layer, functions in LAYER_FUNCTIONS.items():
        report.add(f"{layer}.self_s", tracer.module_self_time(layer), "s", 1)
        for fn in functions:
            report.add(f"{layer}.{fn}.self_s", tracer.self_time(f"{layer}.{fn}"), "s", 1)
        if layer == "loadsharing":
            report.add("loadsharing.total_rate.calls", tracer.calls("loadsharing.total_rate"), "count", 1)
            report.add("loadsharing.rate.calls", tracer.calls("loadsharing.rate"), "count", 1)
    report.add("montecarlo.samples", work["samples"], "count", 1)
    report.add("montecarlo.samples_per_s", work["samples"] / mc_time if mc_time else 0.0, "1/s", 1)
    report.add("work.max_den_bits", work["max_den_bits"], "bits", len(traced))
    report.add("work.perms_scanned", work["perms_scanned"], "count", len(traced))
    report.add("work.alpha_entries", work["alpha_entries"], "count", len(traced))
    report.add("trace.overhead_s", round_traced - round_plain, "s", 1)
    report.add("trace.spans", len(tracer.spans), "count", 1)

    WORK.mkdir(exist_ok=True)
    tracer.write_spans(WORK / f"spans-{workload}-{seed}.jsonl")
    counts = {name: report.rows[name][0] for name in EXACT_COUNTS}
    record = WORK / f"counts-{workload}-{seed}-{code_digest()}.json"
    if record.exists() and json.loads(record.read_text()) != counts:
        verdict.fail(f"exact counts differ from an earlier run of the same code ({record.name})")
    record.write_text(json.dumps(counts, indent=1))
    return report, verdict


def pin_digests(names) -> int:
    """Rewrite the stdout digests of the pinned jobs of ``names`` at the default seed."""
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in names:
        workdir = WORK / f"{workload}-pin"
        P, jobs = setup(workload, DEFAULT_SEED, workdir)
        results = run_round(P, jobs)
        shutil.rmtree(workdir)
        failures = [msg for r in results for msg in r.errors]
        if failures:
            print("\n".join(failures[:10]), file=sys.stderr)
            return 1
        pins[workload] = {j.id: r.exact_digest for j, r in zip(jobs, results) if j.pinned}
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Every workload in a fresh child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the workload's pinned digests at the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "precedence" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'precedence'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.pin:
        return pin_digests(WORKLOADS if args.workload == "all" else [args.workload])
    if args.workload == "all":
        return run_all(args)
    measure = per_layer(args.workload, args.seed) if args.trace else end_to_end(args.workload, args.seed, args.seconds)
    report, verdict = measure
    for message in verdict.messages[:20]:
        print(f"perfbench: FAIL {message}", file=sys.stderr)
    heading = f"{args.workload} seed={args.seed} trace={args.trace}"
    report.print(heading)
    error_rate = verdict.failed / max(verdict.attempted, 1)
    print(f"  {'error_rate':42s} {error_rate!r:>24} {'ratio':6s} n={verdict.attempted}")
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": report.metrics(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
