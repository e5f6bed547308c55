"""Fuzz gate: no JSON document makes a loading subcommand leak an exception.

Every subcommand that reads a JSON file gets a valid document of the
kind it expects with one node replaced by arbitrary JSON (the whole
document, a field, an entry or a value inside one) or one key deleted.
The call must end with exit code 0, 1 or 2, and a payload must be
written as ``json.dumps(payload, indent=2)`` writes it, each ``JsonRows``
in it as its dicts. Examples are
derandomized and small, and ``PRECEDENCE_MAX_M`` is lowered to 4 so that
a document that turns out valid stays cheap.
"""

import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from precedence import (
    PermutationDistribution,
    StructureFunction,
    build_ls_epsilon,
    epsilon_schedule,
    invert_to_ls,
    pattern_cyclic,
    synthesize_voting_situation,
)
from precedence.cli import _write_json, run
from precedence.core import plain_json

LAW = PermutationDistribution.uniform(3)
PATTERN = pattern_cyclic(3)
# Valid documents of each kind; the first one of a kind fills "@kind" slots.
VALID = {
    "dist": [LAW.to_json_dict()],
    "pattern": [PATTERN.to_json_dict()],
    "model": [
        invert_to_ls(LAW).to_json_dict(),
        build_ls_epsilon(PATTERN, epsilon_schedule(3)).to_json_dict(),
    ],
    "votes": [synthesize_voting_situation(PATTERN).to_json_dict()],
    "structure": [StructureFunction.k_out_of_n(3, 2).to_json_dict()],
}

# "@kind" is a file holding a valid document; "?kind" holds the fuzzed one.
COMMANDS = [
    ["alpha", "--dist", "?dist"],
    ["oracle", "--dist", "?dist"],
    ["pattern", "induce", "--dist", "?dist"],
    ["ls", "invert", "--dist", "?dist"],
    ["ls", "build", "--pattern", "?pattern"],
    ["concord", "certify", "--pattern", "?pattern"],
    ["vote", "tally", "--votes", "?votes"],
    ["vote", "check", "--pattern", "?pattern", "--votes", "@votes"],
    ["vote", "check", "--pattern", "@pattern", "--votes", "?votes"],
    ["vote", "synth", "--pattern", "?pattern"],
    ["signature", "compute", "--structure", "?structure", "--dist", "@dist"],
    ["signature", "compute", "--structure", "@structure", "--dist", "?dist"],
    ["signature", "compute", "--structure", "@structure", "--model", "?model"],
    ["signature", "invert", "--structure", "?structure", "--target", "0,1,0"],
    ["simulate", "--samples", "5", "--model", "?model"],
]

FIELD_NAMES = sorted(
    {"m", "r", "weights", "perm", "p", "functions", "set", "ranks", "rates", "prefix",
     "survivors", "j", "mu", "default", "epsilon", "counts", "n", "path_sets"}
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.integers()
    | st.floats()
    | st.sampled_from(["0", "1", "2", "1/2", "1/0", "-1", "01", " 1", "+1", "x"])
    | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10,
)


def _paths(node, path=()):
    """Every node's path; of a list only the first entry, as entries share a schema."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list) and node:
        yield from _paths(node[0], path + (0,))


@st.composite
def mutated_documents(draw, kind):
    """A valid document of ``kind`` with one node replaced or one key deleted.

    The depth is drawn first, so the root (replaced by arbitrary JSON), the
    top-level fields, the entries and their fields are all hit often.
    """
    doc = copy.deepcopy(draw(st.sampled_from(VALID[kind])))
    paths = list(_paths(doc))
    depth = draw(st.integers(0, max(len(p) for p in paths)))
    path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
    if not path:
        return draw(JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return doc


@pytest.mark.parametrize("command", COMMANDS, ids=[" ".join(c) for c in COMMANDS])
@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_document_exits_zero_one_or_two(tmp_path, monkeypatch, command, data):
    monkeypatch.setenv("PRECEDENCE_MAX_M", "4")
    argv = []
    for token in command:
        if token[0] in "@?":
            kind = token[1:]
            doc = VALID[kind][0] if token[0] == "@" else data.draw(mutated_documents(kind))
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            token = str(path)
        argv.append(token)
    result = run(argv)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.diagnostics
    if result.payload is not None:
        out = io.StringIO()
        _write_json(result.payload, out)
        assert out.getvalue() == json.dumps(plain_json(result.payload), indent=2) + "\n"
