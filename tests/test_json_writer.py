"""The CLI's JSON writer: byte-identical to ``json.dump(indent=2)`` and a newline.

A ``JsonRows`` table is written as ``json.dump`` writes its dicts, and a
value's CLI document, its tables kept as rows, as ``json.dump`` writes the
value's ``to_json_dict()``.
"""

import io
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import EpsilonSchedule, OrderDependentLSModel, PermutationDistribution, SetInvariantLSModel
from precedence import VotingSituation, alpha_family, enumerate_patterns, tally
from precedence.cli import _doc, _write_json
from precedence.core import JsonRows, plain_json


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
    "doc, message",
    [
        ({1: "a"}, "must be a string, not int"),
        ({"a": {2: "b"}}, "must be a string, not int"),
        (Fraction(1, 2), "Object of type Fraction is not JSON serializable"),
        ([Fraction(1, 2)], "Object of type Fraction is not JSON serializable"),
        ({"a": [1, {3}]}, "Object of type set is not JSON serializable"),
    ],
)
def test_refuses_what_json_cannot_write_as_given(doc, message):
    with pytest.raises(TypeError, match=message):
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


# --- tables written from row tuples ------------------------------------------


ROW_INTS = st.integers() | st.integers(1, 4300).map(lambda digits: 10**digits - 1)
SCALARS = {
    "int": ROW_INTS | st.builds(Count, st.integers()),
    "str": STRINGS | st.builds(Text, STRINGS),
    "float": FLOATS | st.builds(Real, FLOATS),
}
ROW_VALUES = {
    **SCALARS,
    "tuple": st.lists(ROW_INTS | st.builds(Count, st.integers()), max_size=4).map(tuple),
    "object": st.dictionaries(STRINGS | st.builds(Text, STRINGS), st.one_of(*SCALARS.values()), max_size=4),
}
ROW_VALUES["mixed"] = st.one_of(*ROW_VALUES.values())


@st.composite
def json_rows(draw):
    """A JsonRows with keys that need escapes, each column of one kind of value or mixed."""
    keys = STRINGS | st.sampled_from(["%", "%s", "a%%b"])
    keys = tuple(draw(st.lists(keys, max_size=4, unique=True)))
    kinds = [ROW_VALUES[draw(st.sampled_from(sorted(ROW_VALUES)))] for _ in keys]
    return JsonRows(keys, draw(st.lists(st.tuples(*kinds), max_size=6)))


@st.composite
def documents_with_rows(draw):
    """A JsonRows alone or inside objects and lists, next to other members, up
    to three levels deep."""
    doc = draw(json_rows())
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            doc = {"before": draw(LEAVES), draw(STRINGS): doc, "after": draw(json_rows())}
        else:
            doc = [draw(LEAVES), doc, (1, "x")]
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=documents_with_rows())
def test_rows_are_written_as_json_dump_writes_their_plain_json(doc):
    assert written(doc) == json.dumps(plain_json(doc), indent=2) + "\n"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [((),), ((1,),), ((1, 2, 3),), ((),)],
        [({},), ({"1": "1/3"},), ({"a": 1, "b": 2.5, "c": "x"},), ({},)],
        [((1, 2), {"1": 1, "2": 2}), ((1, 2, 3), {"1": 3, "2": 1, "3": 2})],
        [(math.inf,), (-math.inf,), (math.nan,), ({"x": math.nan, "y": -math.inf},)],
    ],
    ids=["empty", "tuple-lengths", "object-sizes", "subset-rows", "non-finite"],
)
def test_tables_of_each_shape_are_written_as_json_dump_writes_them(rows):
    keys = ("a", "b")[: len(rows[0])] if rows else ("a",)
    table = JsonRows(keys, rows)
    for doc in (table, {"t": table}, {"x": [{"y": table, "z": []}]}):
        assert written(doc) == json.dumps(plain_json(doc), indent=2) + "\n"


def test_dicts_hold_lists_where_the_rows_hold_tuples():
    rows = JsonRows(("p", "n", "x"), [((), 1, "a"), ((2, 3), 4, (5,))])
    assert rows.dicts() == [{"p": [], "n": 1, "x": "a"}, {"p": [2, 3], "n": 4, "x": [5]}]
    assert all(type(row["p"]) is list for row in rows.dicts())
    assert JsonRows(("a",), [(1,), ("b",)]).dicts() == [{"a": 1}, {"a": "b"}]
    assert JsonRows(("a", "b", "c", "d"), [(1, 2, 3, (4,))]).dicts() == [
        {"a": 1, "b": 2, "c": 3, "d": [4]}
    ]
    assert JsonRows((), [(), ()]).dicts() == [{}, {}]
    assert JsonRows(("a",), []).dicts() == []


@pytest.mark.parametrize(
    "keys, rows, error",
    [
        (("a", "a"), [], TypeError),
        ((1,), [], TypeError),
        (("a", "b"), [(1, 2), (3,)], ValueError),
        (("a",), [(1, 2)], ValueError),
    ],
    ids=["repeated-key", "int-key", "short-row", "long-row"],
)
def test_rows_must_fit_their_keys(keys, rows, error):
    with pytest.raises(error):
        JsonRows(keys, rows)


@pytest.mark.parametrize(
    "column",
    [
        [1.5],
        [0.1, 1e300, -0.0, 5e-324, float("inf"), float("-inf"), float("nan")],
        [2.5, 3, "x", (4,)],
    ],
    ids=["one", "edges", "mixed"],
)
def test_a_float_column_is_written_as_json_dump_writes_it(column):
    rows = JsonRows(("frequency",), [(value,) for value in column])
    assert written(rows) == json.dumps(rows.dicts(), indent=2) + "\n"


@pytest.mark.parametrize(
    "value, message",
    [
        (None, "not NoneType"),
        (True, "not bool"),
        ([1], "not list"),
        (Fraction(1, 2), "not Fraction"),
        (("a",), "holds ints only"),
        ((1.5,), "holds ints only"),
        ((True,), "holds ints only"),
        ((1, Fraction(1, 2)), "holds ints only"),
        ({"a": None}, "not NoneType"),
        ({"a": True}, "not bool"),
        ({"a": [1]}, "not list"),
        ({"a": (1,)}, "not tuple"),
        ({"a": {"b": 1}}, "not dict"),
        ({1: "a"}, "must be a string, not int"),
    ],
)
def test_a_value_that_is_not_a_scalar_a_tuple_of_ints_or_an_object_of_scalars_is_refused(
    value, message
):
    with pytest.raises(TypeError, match=message):
        written(JsonRows(("a",), [(value,)]))
    with pytest.raises(TypeError, match=message):
        written(JsonRows(("a",), [("text",), (value,)]))


def test_a_large_table_is_written_in_bounded_pieces():
    rows = JsonRows(("j", "n"), [(i % 7, i) for i in range(10**5)])
    out = Recorder()
    _write_json(rows, out)
    assert "".join(out.chunks) == json.dumps(rows.dicts(), indent=2) + "\n"
    assert len(out.chunks) > 10
    assert max(map(len, out.chunks)) < 100_000
    assert out.chunks[-1][-2:] == "]\n"  # the newline rides on the last write


BIG_PARTS = st.sampled_from([0, 1]) | st.integers(0, 2**1100)


@st.composite
def order_dependent_models(draw):
    """A few rates, some 0 and some with parts over 1000 bits, the empty prefix included."""
    m = draw(st.integers(1, 5))
    keys = [
        (prefix, j)
        for k in range(m)
        for prefix in itertools.permutations(range(1, m + 1), k)
        for j in range(1, m + 1)
        if j not in prefix
    ]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=16, unique=True))
    chosen += [((), j) for j in range(1, m + 1) if draw(st.booleans()) and ((), j) not in chosen]
    rates = {key: Fraction(draw(BIG_PARTS), draw(BIG_PARTS.map(lambda d: d + 1))) for key in chosen}
    return OrderDependentLSModel(m, rates, Fraction(draw(st.integers(0, 5)), 3))


@st.composite
def set_invariant_models(draw):
    """Rates per survivor set with every total positive, with or without a schedule."""
    m = draw(st.integers(1, 5))
    mu = {}
    for size in range(1, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            nums = draw(st.lists(BIG_PARTS, min_size=size, max_size=size))
            nums[-1] += not any(nums)
            for j, num in zip(members, nums):
                mu[(members, j)] = Fraction(num, draw(BIG_PARTS.map(lambda d: d + 1)))
    epsilon = None
    if draw(st.booleans()):  # (l - 1) * eps(l) < 1 holds for eps(l) = 1/k, k >= l
        eps = [Fraction(1, draw(st.integers(level, 2**1100))) for level in range(2, m + 1)]
        epsilon = EpsilonSchedule(m, (Fraction(0), *eps))
    return SetInvariantLSModel(m, mu, epsilon)


@st.composite
def voting_situations(draw):
    """Counts of a few rankings, some past 10^300."""
    m = draw(st.integers(1, 5))
    perms = draw(
        st.lists(st.permutations(range(1, m + 1)), min_size=1, max_size=12, unique_by=tuple)
    )
    counts = st.integers(0, 30) | st.integers(10**300, 10**320)
    counts = draw(st.lists(counts, min_size=len(perms), max_size=len(perms)))
    counts[0] += not any(counts)
    return VotingSituation(m, {tuple(p): n for p, n in zip(perms, counts)})


@st.composite
def ranking_patterns(draw):
    """A sampled pattern, weak or tie-free."""
    m, seed = draw(st.integers(2, 5)), draw(st.integers(0, 10**6))
    return next(enumerate_patterns(m, non_weak_only=draw(st.booleans()), seed=seed, limit=1))


@settings(max_examples=150, deadline=None)
@given(
    value=order_dependent_models()
    | set_invariant_models()
    | voting_situations()
    | voting_situations().map(tally)
    | ranking_patterns()
)
def test_a_table_document_prints_as_json_dump_of_to_json_dict(value):
    assert written(_doc(value).payload) == json.dumps(value.to_json_dict(), indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(votes=voting_situations())
def test_a_family_prints_as_json_dump_of_to_json_list(votes):
    law = PermutationDistribution(votes.m, {p: Fraction(n, votes.n) for p, n in votes.counts.items()})
    family = alpha_family(law)
    assert written({"families": family._json_rows()}) == json.dumps(
        {"families": family.to_json_list()}, indent=2
    ) + "\n"
