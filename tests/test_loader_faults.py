"""Loaders take a document in canonical form a column at a time, and refuse as the entry check does.

For each loader (law, vote file, pattern, order-dependent model), over random
documents with m <= 6: the loaded value equals the one built by hand from the
same entries, field for field and in the same order; and one fault put in at
a random entry is refused with the text that names that entry, as the entry
check words it.
"""

import copy
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from precedence import (
    OrderDependentLSModel,
    PermutationDistribution,
    RankingFunction,
    RankingPattern,
    VotingSituation,
    invert_to_ls,
)
from precedence.cli import run
from precedence.core import rational_format
from precedence.errors import InputFormatError
from precedence.loadsharing import model_from_json_dict
from tests.test_loadsharing import order_dependent_models, random_distribution

MEMBER_FAULTS = {  # a member of a perm, set or prefix, replaced
    "bool": lambda x: True,
    "float": float,
    "nested": lambda x: [x],
    "out-of-range": lambda x: 7,
}
# "twice": a member put in for another; "extra": a member put in once more, at the end
IN_MEMBERS = [*MEMBER_FAULTS, "twice", "extra", "str", "dict"]
REPEATS = ("twice", "extra")
FAULTS = [*IN_MEMBERS, "repeat", "bad-value", "negative", "missing", "not-object"]


def refusal(load, doc) -> str:
    try:
        load(doc)
    except InputFormatError as ex:
        return str(ex)
    raise AssertionError("the document was taken")


def perms_of(m: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, m + 1)))


@st.composite
def law_documents(draw):
    """A law document as the package writes one, and the Fraction of each entry."""
    m = draw(st.integers(1, 6))
    support = draw(st.lists(st.sampled_from(perms_of(m)), min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(support), max_size=len(support)))
    weights[0] += sum(weights) == 0  # at least one weight is positive
    fractions = {perm: Fraction(w, sum(weights)) for perm, w in zip(support, weights)}
    entries = [{"perm": list(perm), "p": rational_format(q)} for perm, q in fractions.items()]
    return {"m": m, "weights": entries}, fractions


@st.composite
def vote_documents(draw):
    """A vote file, counts as JSON integers or decimal strings, and the int of each entry."""
    m = draw(st.integers(1, 6))
    support = draw(st.lists(st.sampled_from(perms_of(m)), min_size=1, max_size=40, unique=True))
    counts = {perm: draw(st.integers(0, 10**30)) for perm in support}
    assume(any(counts.values()))
    entries = [{"perm": list(perm), "n": n if draw(st.booleans()) else str(n)} for perm, n in counts.items()]
    return {"m": m, "counts": entries}, counts


@st.composite
def pattern_documents(draw):
    """A pattern document, some functions weak, its entries and their rank keys in
    a random order, and the pattern built by hand from the same ranks."""
    m = draw(st.integers(2, 6))
    functions = []
    for size in range(2, m + 1):
        for members in itertools.combinations(range(1, m + 1), size):
            raw = draw(st.lists(st.integers(0, size), min_size=size, max_size=size))
            dense = {r: at for at, r in enumerate(sorted(set(raw)), 1)}
            functions.append(RankingFunction.of(members, {x: dense[r] for x, r in zip(members, raw)}))
    order = draw(st.permutations(range(len(functions))))
    entries = []
    for at in order:
        ranks = dict(functions[at].ranks)
        keys = draw(st.permutations(sorted(ranks)))
        entries.append({"set": list(functions[at].members), "ranks": {str(x): ranks[x] for x in keys}})
    return {"m": m, "functions": entries}, RankingPattern(m, functions)


@st.composite
def model_documents(draw):
    """An order-dependent model document: an inversion of a random law, or a
    default rate overridden on a few prefixes."""
    if draw(st.booleans()):
        m, seed = draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1))
        model = invert_to_ls(random_distribution(m, random.Random(seed)))
    else:
        model = draw(order_dependent_models(max_m=6))
    return json.loads(json.dumps(model.to_json_dict()))


# --- a loaded value is the value built by hand -----------------------------


@settings(max_examples=60, deadline=None)
@given(law_documents())
def test_a_loaded_law_is_the_law_built_by_hand(case):
    doc, fractions = case
    loaded = PermutationDistribution.from_json_dict(doc)
    by_hand = PermutationDistribution(doc["m"], fractions)
    assert loaded == by_hand
    assert loaded.scale == by_hand.scale
    assert list(loaded.numerators.items()) == list(by_hand.numerators.items())


@settings(max_examples=60, deadline=None)
@given(vote_documents())
def test_a_loaded_vote_file_is_the_situation_built_by_hand(case):
    doc, counts = case
    loaded, by_hand = VotingSituation.from_json_dict(doc), VotingSituation(doc["m"], counts)
    assert list(loaded.counts.items()) == list(by_hand.counts.items())
    assert all(type(n) is int for n in loaded.counts.values())


@settings(max_examples=40, deadline=None)
@given(pattern_documents())
def test_a_loaded_pattern_is_the_pattern_built_by_hand(case):
    doc, by_hand = case
    loaded = RankingPattern.from_json_dict(doc)
    assert loaded == by_hand and loaded.ranks == by_hand.ranks


@settings(max_examples=60, deadline=None)
@given(model_documents())
def test_a_loaded_order_dependent_model_is_the_model_built_by_hand(doc):
    loaded = model_from_json_dict(doc)
    rates = {(tuple(e["prefix"]), e["j"]): Fraction(e["mu"]) for e in doc["rates"]}
    by_hand = OrderDependentLSModel(doc["m"], rates, Fraction(doc["default"]))
    assert loaded == by_hand
    assert list(loaded.rows.items()) == list(by_hand.rows.items())
    # a lone survivor's row is shared per rate, loaded or built by hand
    shared = [len(set(map(id, model.rows.values()))) for model in (loaded, by_hand)]
    assert shared[0] == shared[1]


# --- one fault at a random entry -------------------------------------------


def member_fault(data, members: list, fault: str) -> tuple[object, object]:
    """``members`` with the fault put in, and the element the check names first."""
    if fault == "str":
        return "".join(map(str, members)), str(members[0])
    if fault == "dict":  # iterated as its keys
        return {str(x): 0 for x in members}, str(members[0])
    if fault == "extra":
        bad = data.draw(st.sampled_from(members))
        return members + [bad], bad
    at = data.draw(st.integers(0, len(members) - 1))
    if fault == "twice":
        bad = members[data.draw(st.sampled_from([k for k in range(len(members)) if k != at]))]
    else:
        bad = MEMBER_FAULTS[fault](members[at])
    return members[:at] + [bad] + members[at + 1:], bad


def entry_fault(data, doc, field: str, names: tuple[str, ...], fault: str, usable=lambda entry: True):
    """The index of the entry that takes ``fault``, put in place in ``doc``, and
    the text of the refusals every loader shares; None where it is the loader's own."""
    entries = doc[field]
    candidates = [i for i, entry in enumerate(entries) if usable(entry)]
    if fault == "repeat":
        candidates = [i for i in candidates if i > 0]
    assume(candidates)
    i = data.draw(st.sampled_from(candidates))
    if fault == "missing":
        del entries[i][data.draw(st.sampled_from(names))]
        return i, f"{field}[{i}]: needs the fields {', '.join(sorted(names))}"
    if fault == "not-object":
        entries[i] = data.draw(st.sampled_from([list(entries[i].values()), "entry", 7, None]))
        return i, f"{field}[{i}]: needs the fields {', '.join(sorted(names))}"
    return i, None


@settings(max_examples=150, deadline=None)
@given(law_documents(), st.sampled_from(FAULTS), st.data())
def test_one_fault_in_a_law_is_refused_at_its_entry(case, fault, data):
    doc = copy.deepcopy(case[0])
    i, message = entry_fault(data, doc, "weights", ("perm", "p"), fault)
    entry, m = doc["weights"][i], doc["m"]
    if fault in IN_MEMBERS:
        assume(fault != "twice" or m > 1)
        entry["perm"], _ = member_fault(data, entry["perm"], fault)
        message = f"weights[{i}]: {tuple(entry['perm'])} is not a permutation of [{m}]"
    elif fault == "repeat":
        entry["perm"] = list(doc["weights"][data.draw(st.integers(0, i - 1))]["perm"])
        message = f"weights[{i}]: duplicate entry {tuple(entry['perm'])}"
    elif fault == "bad-value":
        entry["p"] = data.draw(st.sampled_from(["1/0", "0.5", "1/-2", " 1", "", 1]))
        reason = "zero denominator" if entry["p"] == "1/0" else "not a rational literal"
        message = f"weights[{i}]: {reason}: {entry['p']!r}"
    elif fault == "negative":
        entry["p"] = "-2/6"
        message = f"weights[{i}]: negative weight -1/3 for permutation {tuple(entry['perm'])}"
    assert refusal(PermutationDistribution.from_json_dict, doc) == message


@settings(max_examples=150, deadline=None)
@given(vote_documents(), st.sampled_from(FAULTS), st.data())
def test_one_fault_in_a_vote_file_is_refused_at_its_entry(case, fault, data):
    doc = copy.deepcopy(case[0])
    i, message = entry_fault(data, doc, "counts", ("perm", "n"), fault)
    entry, m = doc["counts"][i], doc["m"]
    if fault in IN_MEMBERS:
        assume(fault != "twice" or m > 1)
        entry["perm"], _ = member_fault(data, entry["perm"], fault)
        message = f"counts[{i}]: {tuple(entry['perm'])} is not a permutation of [{m}]"
    elif fault == "repeat":
        entry["perm"] = list(doc["counts"][data.draw(st.integers(0, i - 1))]["perm"])
        message = f"counts[{i}]: duplicate entry {tuple(entry['perm'])}"
    elif fault == "bad-value":
        bad = ["1.5", "+1", " 1", "", "1/1", "\u0661", "\u00b2", 2.0, True, None]  # \u0661: int() reads 1
        entry["n"] = data.draw(st.sampled_from(bad))
        message = f"counts[{i}].n: {entry['n']!r} is not an integer or a decimal string"
    elif fault == "negative":
        entry["n"] = data.draw(st.sampled_from([-3, "-3"]))
        message = f"counts[{i}].n: " + (
            "must be a non-negative integer, got -3" if entry["n"] == -3
            else "'-3' is not an integer or a decimal string"
        )
    assert refusal(VotingSituation.from_json_dict, doc) == message


@settings(max_examples=150, deadline=None)
@given(pattern_documents(), st.sampled_from(FAULTS), st.data())
def test_one_fault_in_a_pattern_is_refused_at_its_entry(case, fault, data):
    doc = copy.deepcopy(case[0])
    i, message = entry_fault(data, doc, "functions", ("set", "ranks"), fault)
    entry, m = doc["functions"][i], doc["m"]
    if fault in IN_MEMBERS:
        entry["set"], bad = member_fault(data, entry["set"], fault)
        message = f"functions[{i}]: element {bad!r} outside [{m}]"
        if fault in REPEATS:
            message = f"functions[{i}]: repeated elements in subset {tuple(sorted(entry['set']))}"
    elif fault == "repeat":
        entry.update(copy.deepcopy(doc["functions"][data.draw(st.integers(0, i - 1))]))
        message = f"functions[{i}]: duplicate entry {tuple(entry['set'])}"
    elif fault == "bad-value":  # a key that is not a member's decimal, or a rank that is not an int
        name = data.draw(st.sampled_from(sorted(entry["ranks"])))
        if data.draw(st.booleans()):
            ranks = entry["ranks"]
            entry["ranks"] = {("+" + k if k == name else k): r for k, r in ranks.items()}
            message = f"functions[{i}].ranks: '+{name}' is not an integer or a decimal string"
        else:
            entry["ranks"][name] = data.draw(st.sampled_from([True, 1.0, "1", None]))
            message = f"functions[{i}].ranks: {entry['ranks']!r} is not an object of integers"
    elif fault == "negative":
        name = data.draw(st.sampled_from(sorted(entry["ranks"])))
        entry["ranks"][name] = -1
        image, members = sorted(set(entry["ranks"].values())), tuple(entry["set"])
        message = f"functions[{i}]: rank image {image} over {members} is not dense {{1..w}}"
    assert refusal(RankingPattern.from_json_dict, doc) == message


@settings(max_examples=150, deadline=None)
@given(model_documents(), st.sampled_from(FAULTS), st.data())
def test_one_fault_in_an_order_dependent_model_is_refused_at_its_entry(doc, fault, data):
    doc = copy.deepcopy(doc)
    least = {"twice": 2}.get(fault, 1) if fault in IN_MEMBERS else 0  # members the fault needs
    names = ("prefix", "j", "mu")
    i, message = entry_fault(data, doc, "rates", names, fault, lambda e: len(e["prefix"]) >= least)
    entry, m = doc["rates"][i], doc["m"]
    if fault in IN_MEMBERS:
        entry["prefix"], bad = member_fault(data, entry["prefix"], fault)
        message = f"rates[{i}]: prefix element {bad!r} outside [{m}]"
        if fault in REPEATS:
            message = f"rates[{i}]: repeated element {bad} in prefix {tuple(entry['prefix'])}"
    elif fault == "repeat":
        entry.update(copy.deepcopy(doc["rates"][data.draw(st.integers(0, i - 1))]))
        message = f"rates[{i}]: duplicate entry {(tuple(entry['prefix']), entry['j'])}"
    elif fault == "bad-value":
        entry["mu"] = data.draw(st.sampled_from(["1/0", "0.5", " 1", 1]))
        reason = "zero denominator" if entry["mu"] == "1/0" else "not a rational literal"
        message = f"rates[{i}]: {reason}: {entry['mu']!r}"
    elif fault == "negative":
        entry["mu"] = "-2/4"
        message = f"rates[{i}]: negative rate -1/2 for mu_{entry['j']}{tuple(entry['prefix'])}"
    assert refusal(model_from_json_dict, doc) == message


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["alpha", "--dist"], {"m": 2, "weights": [{"perm": ["1", "2"], "p": "1"}]},
         "weights[0]: ('1', '2') is not a permutation of [2]"),
        (["vote", "tally", "--votes"], {"m": 2, "counts": [{"perm": [1.0, 2], "n": 1}]},
         "counts[0]: (1.0, 2) is not a permutation of [2]"),
        (["concord", "certify", "--pattern"],
         {"m": 2, "functions": [{"set": "12", "ranks": {"1": 1, "2": 2}}]},
         "functions[0]: element '1' outside [2]"),
        (["simulate", "--samples", "1", "--model"], {"m": 2, "rates": [{"prefix": [[1]], "j": 2, "mu": "1"}]},
         "rates[0]: prefix element [1] outside [2]"),
    ],
    ids=["law", "votes", "pattern", "model"],
)
def test_a_fault_exits_two_with_the_text_of_its_entry(tmp_path, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    result = run([*argv, str(path)])
    assert (result.exit_code, result.diagnostics) == (2, [message])
