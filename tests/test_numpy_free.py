"""Commands that do not sample start and run without numpy.

numpy is needed by the sampler alone: ``montecarlo`` imports it on its
first draw, and every exact route runs on Python ints. Each check starts a
fresh interpreter, since the test process itself has loaded numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from precedence import (
    StructureFunction,
    build_ls_epsilon,
    epsilon_schedule,
    pattern_cyclic,
    synthesize_voting_situation,
)
from precedence.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs each argv of argv[1] through cli.main with numpy blocked (``import
# numpy`` raises ImportError), then the argv of argv[2], which must need it.
CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from precedence.cli import main
calls = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    calls.append([code, out.getvalue()])
try:
    main(json.loads(sys.argv[2]))
    blocked = False
except ImportError:
    blocked = True
loaded = sorted(name for name in sys.modules if name.startswith("numpy."))
print(json.dumps({"calls": calls, "simulate_blocked": blocked, "loaded": loaded}))
"""


def python(*args: str) -> subprocess.CompletedProcess:
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_pattern_gen_imports_no_numpy():
    # the cold-start probe of the benchmark, run as a shell user runs it
    proc = python("-X", "importtime", "-m", "precedence.cli", "pattern", "gen", "--kind", "cyclic", "--m", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["m"] == 3
    assert "precedence.permdist" in proc.stderr  # the import log is there
    assert [line for line in proc.stderr.splitlines() if "numpy" in line] == []


def test_every_exact_command_runs_with_numpy_blocked(tmp_path, example_law, capsys):
    pattern = pattern_cyclic(3)
    documents = {
        "law": example_law.to_json_dict(),
        "pattern": pattern.to_json_dict(),
        "model": build_ls_epsilon(pattern, epsilon_schedule(3)).to_json_dict(),
        "votes": synthesize_voting_situation(pattern).to_json_dict(),
        "structure": StructureFunction.k_out_of_n(3, 2).to_json_dict(),
    }
    path = {}
    for name, doc in documents.items():
        path[name] = str(tmp_path / f"{name}.json")
        Path(path[name]).write_text(json.dumps(doc))
    calls = [
        ["alpha", "--dist", path["law"]],
        ["alpha", "--dist", path["law"], "--set", "1,3", "--decimal"],
        ["oracle", "--dist", path["law"]],
        ["pattern", "induce", "--dist", path["law"]],
        ["pattern", "gen", "--kind", "cyclic", "--m", "4"],
        ["ls", "invert", "--dist", path["law"], "--decimal"],
        ["ls", "build", "--pattern", path["pattern"]],
        ["ls", "check-eps", "--m", "4"],
        ["concord", "certify", "--pattern", path["pattern"]],
        ["vote", "synth", "--pattern", path["pattern"]],
        ["vote", "tally", "--votes", path["votes"]],
        ["vote", "check", "--pattern", path["pattern"], "--votes", path["votes"]],
        ["signature", "compute", "--structure", path["structure"], "--dist", path["law"]],
        ["signature", "compute", "--structure", path["structure"], "--model", path["model"]],
        ["signature", "invert", "--structure", path["structure"], "--target", "0,1,0"],
    ]
    expected = []
    for argv in calls:
        code = main(argv)
        expected.append([code, capsys.readouterr().out])
    simulate = ["simulate", "--model", path["model"], "--samples", "10"]
    proc = python("-c", CHILD, json.dumps(calls), json.dumps(simulate))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["calls"] == expected
    assert {code for code, _ in expected} == {0}
    assert child["simulate_blocked"]  # the blocker works: the sampler needs numpy
    assert child["loaded"] == []
