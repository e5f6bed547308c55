"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def small_jobs(workload: str, seed: int, workdir: Path):
    P, jobs = run.setup(workload, seed, workdir)
    return P, [job for job in jobs if job.cls == "small"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_class_runs_clean(workload, tmp_path):
    P, jobs = small_jobs(workload, 0, tmp_path)
    assert len(jobs) >= 100
    results = run.run_round(P, jobs)
    assert [msg for r in results for msg in r.errors] == []
    verdict = run.Verdict()
    verdict.check_pins(workload, run.DEFAULT_SEED, jobs, results)
    assert verdict.messages == []


def bindings(P) -> dict:
    """Every attribute of the package's modules and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == P.__name__ or name.startswith(P.__name__ + "."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        found[(name, value.__name__, cattr)] = cvalue
    return found


def test_tracer_restores_every_binding(tmp_path):
    P, _ = small_jobs("paradoxes", 0, tmp_path)
    before = bindings(P)
    tracer = Tracer()
    tracer.install(P)
    during = bindings(P)
    changed = [key for key in before if during[key] is not before[key]]
    assert ("precedence", "alpha_family_ls") in changed
    assert ("precedence.construction", "alpha_family_ls") in changed
    assert ("precedence.core", "SubsetMask", "__post_init__") in changed
    assert tracer.missing == []
    tracer.uninstall()
    after = bindings(P)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_other_seed_changes_inputs_not_verdicts(tmp_path):
    for workload in ("laws", "sampler"):
        digests = []
        for seed in (1, 2):
            P, jobs = small_jobs(workload, seed, tmp_path / f"{workload}{seed}")
            results = run.run_round(P, jobs[:20])
            assert [msg for r in results for msg in r.errors] == []
            digests.append(sorted(r.all_digest for r in results))
        assert digests[0] != digests[1]


def test_changed_output_byte_trips_the_pin(tmp_path, monkeypatch):
    P, jobs = small_jobs("paradoxes", 5, tmp_path)
    jobs = [job for job in jobs if job.seed_free][:3]
    real = P.cli.main

    def tampered(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real(argv)
        text = out.getvalue()
        if argv[:2] == ["ls", "check-eps"]:
            text = text[:-1] + " "  # one byte changed; still the same JSON
        sys.stdout.write(text)
        return code

    verdict = run.Verdict()
    verdict.check_pins("paradoxes", 5, jobs, run.run_round(P, jobs))
    assert verdict.failed == 0
    monkeypatch.setattr(P.cli, "main", tampered)
    results = run.run_round(P, jobs)
    assert [msg for r in results for msg in r.errors] == []
    verdict.check_pins("paradoxes", 5, jobs, results)
    assert verdict.failed == len(jobs)


def test_exact_counts_repeat(tmp_path):
    counts = []
    for attempt in range(2):
        P, jobs = small_jobs("laws", 3, tmp_path / str(attempt))
        tracer = Tracer()
        tracer.install(P)
        try:
            results = run.run_round(P, jobs[:30], tracer)
        finally:
            tracer.uninstall()
        counts.append(
            (
                {name: stats[0] for name, stats in tracer.stats.items()},
                len(tracer.spans),
                run.work_totals(results),
            )
        )
    assert counts[0] == counts[1]


def test_mc_tolerance_covers_four_sigma():
    for p in (0.01, 0.2, 0.5):
        for n in (500, 10_000):
            sigma = (p * (1 - p) / n) ** 0.5
            assert workloads.mc_tolerance(p, n) > 4 * sigma


def test_speed_log_scales_by_nearby_kernels():
    ref = reference.REFERENCE_S
    speed = reference.SpeedLog()
    # a slow stretch (kernels at twice the reference time) then a fast one,
    # far enough apart in wall time that their windows do not overlap
    speed.times = [float(t) for t in range(10)] + [100.0 + t for t in range(10)]
    speed.kernels = [2 * ref] * 10 + [ref / 2] * 10
    assert speed.scale(1.0, 4.2, 4.4) == pytest.approx(0.5)
    assert speed.scale(1.0, 104.2, 104.4) == pytest.approx(2.0)
    # no kernel within the window: the nearest ones on both sides are taken
    assert speed.scale(1.0, 50.0, 50.1) == pytest.approx(1 / 1.25)
