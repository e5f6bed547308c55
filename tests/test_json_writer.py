"""The CLI's JSON writer: byte-identical to ``json.dump(indent=2)`` and a newline."""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence.cli import _write_json


def written(doc) -> str:
    out = io.StringIO()
    _write_json(doc, out)
    return out.getvalue()


class Text(str):
    def __repr__(self):
        return "Text()"


class Count(int):
    def __repr__(self):
        return "Count()"


class Real(float):
    def __repr__(self):
        return "Real()"


STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f4a1", 'a"b\\c\n']
)
FLOATS = st.floats() | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf])
# up to 4300 digits, the most that int.__repr__ writes by default
INTS = st.integers() | st.integers(1, 4300).map(lambda digits: 10**digits - 1).flatmap(
    lambda n: st.sampled_from([n, -n])
)
LEAVES = (
    STRINGS
    | FLOATS
    | INTS
    | st.booleans()
    | st.none()
    | st.builds(Text, STRINGS)
    | st.builds(Count, st.integers())
    | st.builds(Real, FLOATS)
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(STRINGS | st.builds(Text, STRINGS), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=TREES)
def test_text_equals_json_dump_with_indent_two(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{}, [], (), "", 0, None, {"a": {}}, [[], {}, ()]])
def test_empty_containers_and_bare_leaves(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc", [{1: "a"}, {"a": {2: "b"}}, Fraction(1, 2), [Fraction(1, 2)], {"a": [1, {3}]}]
)
def test_refuses_what_json_cannot_write_as_given(doc):
    with pytest.raises(TypeError):
        written(doc)


class Recorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize(
    "doc",
    [
        {"rates": [{"prefix": [i % 7, i % 5], "mu": f"{i}/7"} for i in range(10**5)]},
        list(range(10**5)),
        {str(i): i for i in range(10**5)},
    ],
    ids=["rates", "list", "object"],
)
def test_a_large_document_is_written_in_bounded_pieces(doc):
    out = Recorder()
    _write_json(doc, out)
    assert "".join(out.chunks) == json.dumps(doc, indent=2) + "\n"
    assert len(out.chunks) > 10
    # a flush every few thousand pieces, each piece here under 20 characters
    assert max(map(len, out.chunks)) < 100_000
    assert out.chunks[-1][-2:] in ("]\n", "}\n")  # the newline rides on the last write
