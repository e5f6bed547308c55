"""Document loaders: the dimension is checked first, each entry once, where it enters.

A law read from a file keeps its weights as integer numerators over one
scale, parsed once from each literal; it equals, and prints as, the law
built by hand from the same Fractions. A value built by hand keeps every
check of its constructor.
"""

import io
import itertools
import json
import warnings
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precedence import (
    OrderDependentLSModel,
    PermutationDistribution,
    ProbabilitySignature,
    RankingPattern,
    SetInvariantLSModel,
    StructureFunction,
    VotingSituation,
    WinningProbabilityFamily,
    alpha_family,
    build_ls_epsilon,
    distribution_of,
    epsilon_schedule,
    invert_to_ls,
    ls_for_target_signature,
    pattern_cyclic,
    signature_from_ls,
    synthesize_voting_situation,
)
from precedence import loadsharing, permdist, ranking, voting
from precedence.cli import _write_json, run
from precedence.core import _literal_ints, rational_parse, subset_members, validate_permutation
from precedence.core import validate_prefix
from precedence.errors import DomainError, InputFormatError
from precedence.loadsharing import model_from_json_dict
from tests.test_loadsharing import law_models, order_dependent_models, set_invariant_models

LOADERS = {
    "law": PermutationDistribution.from_json_dict,
    "votes": VotingSituation.from_json_dict,
    "model": model_from_json_dict,
    "pattern": RankingPattern.from_json_dict,
}


def counting(monkeypatch, module, name, check):
    """Replace ``module.name`` by ``check`` behind a call counter."""
    calls = Counter()

    def counted(*args, **kwargs):
        calls[name] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def schedule_model(m: int) -> SetInvariantLSModel:
    return build_ls_epsilon(pattern_cyclic(m), epsilon_schedule(m))


class TestEachEntryIsCheckedOnce:
    def test_a_law_checks_each_permutation_once(self, monkeypatch):
        law = PermutationDistribution.uniform(4)
        doc = law.to_json_dict()
        calls = counting(monkeypatch, permdist, "validate_permutation", validate_permutation)
        assert PermutationDistribution.from_json_dict(doc) == law
        assert calls["validate_permutation"] == len(doc["weights"]) == 24

    def test_a_vote_file_checks_each_row_once(self, monkeypatch):
        counts = {perm: n for n, perm in enumerate(itertools.permutations((1, 2, 3, 4)))}
        by_hand = VotingSituation(4, counts)
        doc = by_hand.to_json_dict()
        calls = counting(monkeypatch, voting, "validate_permutation", validate_permutation)
        assert VotingSituation.from_json_dict(doc) == by_hand
        assert calls["validate_permutation"] == len(doc["counts"]) == 23  # one count is 0

    def test_a_set_invariant_model_checks_each_survivor_set_once(self, monkeypatch):
        model = build_ls_epsilon(pattern_cyclic(5), epsilon_schedule(5))
        doc = model.to_json_dict()
        calls = counting(monkeypatch, loadsharing, "subset_members", subset_members)
        assert model_from_json_dict(doc) == model
        assert calls["subset_members"] == len(doc["rates"]) == 5 * 2**4

    def test_a_model_built_by_hand_checks_each_entry_once(self, monkeypatch):
        model = build_ls_epsilon(pattern_cyclic(5), epsilon_schedule(5))
        calls = counting(monkeypatch, loadsharing, "subset_members", subset_members)
        # one check per entry, as a loaded table gets, even where entries share a tuple
        assert SetInvariantLSModel(5, dict(model.mu_by_survivors), model.epsilon) == model
        assert calls["subset_members"] == len(model.mu_by_survivors) == 5 * 2**4

    def test_a_checked_set_invariant_table_is_not_checked_entry_by_entry(self, monkeypatch):
        check = loadsharing._survivor_rate_entry
        calls = counting(monkeypatch, loadsharing, "_survivor_rate_entry", check)
        model = schedule_model(5)
        phi, target = StructureFunction.k_out_of_n(5, 3), ProbabilitySignature((0, 0, 1, 0, 0))
        realized = ls_for_target_signature(phi, target)
        assert calls["_survivor_rate_entry"] == 0
        assert signature_from_ls(phi, realized) == target
        assert {type(q) for q in realized.mu_by_survivors.values()} == {Fraction}
        # loaded, or built by hand from its field, every entry is checked once
        assert model_from_json_dict(model.to_json_dict()) == model
        assert SetInvariantLSModel(5, dict(model.mu_by_survivors), model.epsilon) == model
        assert calls["_survivor_rate_entry"] == 2 * len(model.mu_by_survivors) == 2 * 5 * 2**4

    def test_an_order_dependent_model_checks_each_prefix_once(self, monkeypatch):
        model = invert_to_ls(PermutationDistribution.uniform(4))
        doc = model.to_json_dict()
        calls = counting(monkeypatch, loadsharing, "validate_prefix", validate_prefix)
        assert model_from_json_dict(doc) == model
        assert calls["validate_prefix"] == len(doc["rates"]) == 4 + 12 + 24 + 24

    def test_inversion_hands_its_rates_over_checked(self, monkeypatch):
        rho = PermutationDistribution.uniform(4)
        calls = counting(monkeypatch, loadsharing, "validate_prefix", validate_prefix)
        model = invert_to_ls(rho)
        assert calls["validate_prefix"] == 0
        # built by hand from its field, each entry is checked once
        assert OrderDependentLSModel(4, dict(model.rates)) == model
        assert calls["validate_prefix"] == len(model.rates) == 4 + 12 + 24 + 24

    def test_synthesis_hands_its_counts_over_checked(self, monkeypatch):
        calls = counting(monkeypatch, voting, "validate_permutation", validate_permutation)
        vs = synthesize_voting_situation(pattern_cyclic(5))
        assert len(vs.counts) == 120 and calls["validate_permutation"] == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: invert_to_ls(distribution_of(schedule_model(6))),
            lambda: schedule_model(5),
        ],
        ids=["dense-inversion-m6", "schedule-model-m5"],
    )
    def test_a_model_document_parses_each_distinct_literal_once(self, monkeypatch, build):
        model = build()
        doc = model.to_json_dict()
        literals = Counter(entry["mu"] for entry in doc["rates"])
        calls = counting(monkeypatch, loadsharing, "rational_parse", rational_parse)
        read = counting(monkeypatch, loadsharing, "_literal_ints", _literal_ints)
        assert model_from_json_dict(doc) == model
        # the rates are read into ints, with no Fraction; the default rate and
        # the schedule's entries are parsed on their own
        assert read["_literal_ints"] == len(literals) < len(doc["rates"])
        assert calls["rational_parse"] == ("default" in doc) + len(doc.get("epsilon", ()))

    def test_a_pattern_checks_each_set_once(self, monkeypatch):
        pattern = pattern_cyclic(5)
        doc = pattern.to_json_dict()
        calls = counting(monkeypatch, ranking, "subset_members", subset_members)
        assert RankingPattern.from_json_dict(doc) == pattern
        assert calls["subset_members"] == len(doc["functions"]) == 2**5 - 5 - 1


# Each document repeats an all-int key with ``true`` in place of a 1, which
# compares and hashes equal to it: the second entry must still be refused.
TRUE_AFTER_AN_EQUAL_ENTRY = [
    (
        "law",
        {"m": 2, "weights": [{"perm": [1, 2], "p": "1/2"}, {"perm": [True, 2], "p": "1/2"}]},
        "weights[1]: (True, 2) is not a permutation of [2]",
    ),
    (
        "votes",
        {"m": 2, "counts": [{"perm": [1, 2], "n": 1}, {"perm": [True, 2], "n": 1}]},
        "counts[1]: (True, 2) is not a permutation of [2]",
    ),
    (
        "model",
        {"m": 3, "rates": [{"prefix": [1], "j": 2, "mu": "1"},
                           {"prefix": [True], "j": 3, "mu": "1"}], "default": "1"},
        "rates[1]: prefix element True outside [3]",
    ),
    (
        "model",
        {"m": 2, "rates": [{"survivors": [1, 2], "j": 1, "mu": "1"},
                           {"survivors": [True, 2], "j": 2, "mu": "1"}]},
        "rates[1]: element True outside [2]",
    ),
    (
        "pattern",
        {"m": 3, "functions": [{"set": [1, 2], "ranks": {"1": 1, "2": 2}},
                               {"set": [True, 2], "ranks": {"1": 1, "2": 2}}]},
        "functions[1]: element True outside [3]",
    ),
]


@pytest.mark.parametrize(
    "kind, doc, message",
    TRUE_AFTER_AN_EQUAL_ENTRY,
    ids=["perm", "vote-perm", "prefix", "survivor-set", "set"],
)
def test_true_after_an_equal_entry_is_refused(kind, doc, message):
    with pytest.raises(InputFormatError) as info:
        LOADERS[kind](doc)
    assert str(info.value) == message


# Each refusal of a pattern document, with its text: the CLI exits 2 and prints it.
PATTERN_REFUSALS = [
    ({"1": 1.9, "2": 2}, "functions[0].ranks: {'1': 1.9, '2': 2} is not an object of integers"),
    ({"1": True, "2": 2}, "functions[0].ranks: {'1': True, '2': 2} is not an object of integers"),
    ([1, 2], "functions[0].ranks: [1, 2] is not an object of integers"),
    ({"1": 1, "3": 2}, "functions[0].ranks: keys ['1', '3'] are not the members [1, 2]"),
    ({"1": 1, "01": 2, "2": 2}, "functions[0].ranks: keys ['1', '01', '2'] are not the members [1, 2]"),
    ({}, "functions[0].ranks: keys [] are not the members [1, 2]"),
    ({" 1": 1, "2": 2}, "functions[0].ranks: ' 1' is not an integer or a decimal string"),
    ({"1": 1, "2": 3}, "functions[0]: rank image [1, 3] over (1, 2) is not dense {1..w}"),
    ({"1": 0, "2": 1}, "functions[0]: rank image [0, 1] over (1, 2) is not dense {1..w}"),
]


@pytest.mark.parametrize(
    "doc, message",
    [
        *(({"m": 2, "functions": [{"set": [1, 2], "ranks": ranks}]}, message)
          for ranks, message in PATTERN_REFUSALS),
        ({"m": 2, "functions": [{"set": [1, 2], "ranks": {"1": 1, "2": 2}},
                                {"set": [2, 1], "ranks": {"1": 2, "2": 1}}]},
         "functions[1]: duplicate entry (1, 2)"),
        ({"m": 3, "functions": [{"set": [1, 2], "ranks": {"1": 1, "2": 2}}]},
         "pattern is missing subsets, first: (1, 2, 3)"),
        ({"m": 2, "functions": [{"set": [1], "ranks": {"1": 1}}]},
         "functions[0]: invalid subset (1,) for a ranking function"),
    ],
    ids=["float-rank", "bool-rank", "ranks-a-list", "keys-not-the-members", "key-twice",
         "no-keys", "key-not-decimal", "image-not-dense", "rank-zero", "repeated-set",
         "missing-subset", "one-member-set"],
)
def test_a_pattern_refusal_exits_two_with_its_text(tmp_path, doc, message):
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps(doc))
    result = run(["concord", "certify", "--pattern", str(path)])
    assert (result.exit_code, result.diagnostics) == (2, [message])


SCHEDULE_MODEL_2 = [
    {"survivors": s, "j": j, "mu": "1"} for s in ([1], [2], [1, 2]) for j in s
]


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"m": 3, "rates": [{"prefix": [[1]], "j": 2, "mu": "1"}]},
            "rates[0]: prefix element [1] outside [3]",
        ),
        (
            {"m": 3, "rates": [{"prefix": [1], "j": 1, "mu": "1"}]},
            "rates[0]: invalid survivor 1 for prefix (1,)",
        ),
        (
            {"m": 1, "rates": [{"survivors": [1], "j": 1, "mu": "1"}], "epsilon": "0"},
            "epsilon: must be a list",
        ),
        (
            {"m": 2, "rates": SCHEDULE_MODEL_2, "epsilon": {"0": None, "1/3": None}},
            "epsilon: must be a list",
        ),
        (
            {"m": 2, "rates": [{"prefix": [], "j": j, "mu": mu} for j, mu in ((1, "1"), (2, [1]))]},
            "rates[1]: not a rational literal: [1]",
        ),
        (
            {"m": 3, "rates": [{"prefix": [], "j": j, "mu": "1/0"} for j in (1, 2)]},
            "rates[0]: zero denominator: '1/0'",
        ),
        (
            {"m": 2, "rates": [{"survivors": [j], "j": j, "mu": "x"} for j in (1, 2)]},
            "rates[0]: not a rational literal: 'x'",
        ),
        (
            {"m": 2, "rates": [{"survivors": [1, 2], "j": 3, "mu": "1"}]},
            "rates[0]: survivor 3 not in survivor set (1, 2)",
        ),
        (
            {"m": 2, "rates": [{"survivors": [1, 2], "j": 1, "mu": "-1"}]},
            "rates[0]: negative rate -1 for mu_1 with survivors (1, 2)",
        ),
        (
            {"m": 2, "rates": [{"survivors": [1, 2], "j": j, "mu": "1"} for j in (1, 2)]},
            "rates: missing rate for survivor 1 of set (1,)",
        ),
    ],
    ids=["prefix-element-a-list", "survivor-in-its-prefix", "epsilon-a-string",
         "epsilon-an-object",
         "mu-a-list-after-a-literal", "mu-with-a-zero-denominator", "survivor-mu-not-a-literal",
         "survivor-outside-its-set", "survivor-mu-negative", "survivor-set-missing"],
)
def test_a_model_document_names_the_bad_field(doc, message):
    with pytest.raises(InputFormatError) as info:
        model_from_json_dict(doc)
    assert str(info.value) == message


def test_a_negative_count_is_refused_where_it_enters():
    for load, doc, message in [
        (
            VotingSituation.from_json_dict,
            {"m": 2, "counts": [{"perm": [1, 2], "n": -1}]},
            "counts[0].n: must be a non-negative integer, got -1",
        ),
        (  # a law's negative weight, before a later entry that is not a literal
            PermutationDistribution.from_json_dict,
            {"m": 2, "weights": [{"perm": [1, 2], "p": "-1"}, {"perm": [2, 1], "p": "x"}]},
            "weights[0]: negative weight -1 for permutation (1, 2)",
        ),
    ]:
        with pytest.raises(InputFormatError) as info:
            load(doc)
        assert str(info.value) == message
    with pytest.raises(DomainError) as info:  # a value built by hand keeps its own text
        VotingSituation(2, {(1, 2): -1})
    assert str(info.value) == "count for (1, 2) must be a non-negative integer"


class TestDimensionFirst:
    # every entry is bad for m = 12, so an entry read first would be reported
    OVER_CAP = {
        "law": {"m": 12, "weights": [{"perm": [1, 2], "p": "1"}]},
        "votes": {"m": 12, "counts": [{"perm": [1, 2], "n": 1}]},
        "model": {"m": 12, "rates": [{"prefix": [1, 2, 3], "j": 1, "mu": "x"}]},
        "set-invariant model": {"m": 12, "rates": [{"survivors": [13], "j": 1, "mu": "1"}]},
        "pattern": {"m": 12, "functions": [{"set": [1], "ranks": {"1": 1}}]},
    }

    @pytest.mark.parametrize("kind", OVER_CAP)
    def test_the_cap_is_checked_before_any_entry(self, monkeypatch, kind):
        monkeypatch.delenv("PRECEDENCE_MAX_M", raising=False)
        with pytest.raises(InputFormatError) as info:
            LOADERS[kind.split()[-1]](self.OVER_CAP[kind])
        assert str(info.value) == (
            "m: dimension m=12 exceeds the cap of 8; set PRECEDENCE_MAX_M to raise it"
        )

    @pytest.mark.parametrize("kind", OVER_CAP)
    def test_a_non_positive_dimension_is_refused_first(self, kind):
        with pytest.raises(InputFormatError) as info:
            LOADERS[kind.split()[-1]](dict(self.OVER_CAP[kind], m=0))
        assert str(info.value) == "m: dimension must be a positive integer, got 0"

    @pytest.mark.parametrize(
        "kind, build",
        [
            ("law", lambda m: PermutationDistribution.point_mass(range(1, m + 1))),
            ("votes", lambda m: VotingSituation(m, {tuple(range(m, 0, -1)): 2})),
            ("model", lambda m: OrderDependentLSModel.constant(m)),
            ("model", lambda m: build_ls_epsilon(pattern_cyclic(m), epsilon_schedule(m))),
            ("pattern", pattern_cyclic),
        ],
        ids=["law", "votes", "order-dependent-model", "schedule-model", "pattern"],
    )
    def test_one_warning_per_document_above_eight(self, monkeypatch, kind, build):
        monkeypatch.setenv("PRECEDENCE_MAX_M", "9")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc = json.loads(json.dumps(build(9).to_json_dict()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            LOADERS[kind](doc)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message).startswith("dimension m=9 above 8")


def printed(doc) -> str:
    out = io.StringIO()
    _write_json(doc, out)
    return out.getvalue()


@st.composite
def law_documents(draw, min_m=1):
    """A law document over m <= 5, with zero weights and literals not in lowest
    terms, and the Fractions its literals spell."""
    m = draw(st.integers(min_m, 5))
    perms = list(itertools.permutations(range(1, m + 1)))
    support = draw(st.lists(st.sampled_from(perms), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(0, 6), min_size=len(support), max_size=len(support)))
    weights[0] += sum(weights) == 0  # at least one weight is positive
    total = sum(weights)
    entries, fractions = [], {}
    for perm, w in zip(support, weights):
        k = draw(st.integers(1, 4))  # a common factor the loader must reduce
        literal = draw(st.sampled_from(["0", "-0", f"0/{total * k}"])) if w == 0 else (
            f"{w * k}/{total * k}"
        )
        entries.append({"perm": list(perm), "p": literal})
        fractions[perm] = Fraction(literal)
    return {"m": m, "weights": entries}, fractions


@settings(max_examples=60)
@given(law_documents())
def test_a_loaded_law_equals_and_prints_as_the_law_built_by_hand(case):
    doc, fractions = case
    loaded = PermutationDistribution.from_json_dict(doc)
    by_hand = PermutationDistribution(doc["m"], fractions)
    assert loaded == by_hand
    assert type(loaded.weights) is type(by_hand.weights) is permdist._OverScale
    assert (loaded.numerators, loaded.scale) == (by_hand.numerators, by_hand.scale)
    assert dict(loaded.weights) == by_hand.weights
    assert printed(loaded.to_json_dict()) == printed(by_hand.to_json_dict())
    assert printed(alpha_family(loaded).to_json_list()) == printed(
        alpha_family(by_hand).to_json_list()
    )


@settings(max_examples=40, deadline=None)
@given(law_documents(min_m=2))
def test_a_loaded_inversion_equals_and_prints_as_the_inversion(case):
    rho = PermutationDistribution.from_json_dict(case[0])
    model = invert_to_ls(rho)
    text = printed(model.to_json_dict())
    loaded = model_from_json_dict(json.loads(text))
    assert loaded == model
    assert printed(loaded.to_json_dict()) == text
    assert OrderDependentLSModel(rho.m, dict(loaded.rates), loaded.default) == loaded


@settings(max_examples=60, deadline=None)
@given(
    model=st.one_of(law_models(), order_dependent_models(), set_invariant_models(min_m=1, max_m=4)),
    k=st.integers(1, 3),
)
def test_a_model_by_hand_loaded_or_produced_is_one_value(model, k):
    # produced by invert_to_ls or build_ls_epsilon, or built by hand from random rates
    text = printed(model.to_json_dict())
    if isinstance(model, OrderDependentLSModel):
        by_hand = OrderDependentLSModel(model.m, dict(model.rates), model.default)
    else:
        by_hand = SetInvariantLSModel(model.m, dict(model.mu_by_survivors), model.epsilon)
    doc = json.loads(text)
    for entry in doc["rates"]:  # each literal times k/k: the loader reduces it
        n, _, d = entry["mu"].partition("/")
        entry["mu"] = f"{int(n) * k}/{int(d or 1) * k}"
    loaded = model_from_json_dict(doc)
    assert loaded.rows == by_hand.rows  # the lowest terms of the same rates, over one scale
    for other in (by_hand, loaded):
        assert other == model and model == other
        assert printed(other.to_json_dict()) == text


def test_a_value_built_by_hand_stores_the_form_of_a_loaded_or_computed_one():
    doc = {"m": 2, "weights": [{"perm": [1, 2], "p": "1/3"}, {"perm": [2, 1], "p": "2/3"}]}
    loaded = PermutationDistribution.from_json_dict(doc)
    by_hand = PermutationDistribution(2, {(1, 2): Fraction(1, 3), (2, 1): Fraction(2, 3)})
    for law in (loaded, by_hand):
        assert type(law.weights) is permdist._OverScale
        assert (law.weights.numerators, law.weights.scale) == ({(1, 2): 1, (2, 1): 2}, 3)
    law = distribution_of(build_ls_epsilon(pattern_cyclic(3), epsilon_schedule(3)))
    computed = alpha_family(law)
    by_hand = WinningProbabilityFamily(3, {key: computed.alpha(*key) for key in computed.numerators})
    assert type(by_hand.alphas) is type(computed.alphas) is permdist._OverScale
    assert (by_hand.alphas.numerators, by_hand.alphas.scale) == (computed.numerators, computed.scale)


def test_weights_over_one_denominator_load_over_the_lcm_of_their_reduced_forms():
    weights = {(1, 2, 3): "2/6", (2, 3, 1): "1/6", (3, 1, 2): "3/6"}
    doc = {"m": 3, "weights": [{"perm": list(perm), "p": p} for perm, p in weights.items()]}
    loaded = PermutationDistribution.from_json_dict(doc)
    by_hand = PermutationDistribution(3, {perm: Fraction(p) for perm, p in weights.items()})
    assert loaded.scale == by_hand.scale == 6
    assert loaded.numerators == by_hand.numerators == {(1, 2, 3): 2, (2, 3, 1): 1, (3, 1, 2): 3}
    assert loaded == by_hand


def test_a_negative_weight_keeps_its_text():
    doc = {"m": 2, "weights": [{"perm": [1, 2], "p": "3/2"}, {"perm": [2, 1], "p": "-2/4"}]}
    with pytest.raises(InputFormatError) as info:
        PermutationDistribution.from_json_dict(doc)
    assert str(info.value) == "weights[1]: negative weight -1/2 for permutation (2, 1)"
    with pytest.raises(DomainError) as info:
        PermutationDistribution(2, {(1, 2): Fraction(3, 2), (2, 1): Fraction(-1, 2)})
    assert str(info.value) == "negative weight -1/2 for permutation (2, 1)"


def test_a_value_built_from_another_values_field_is_checked_again():
    doc = PermutationDistribution.uniform(2).to_json_dict()
    loaded = PermutationDistribution.from_json_dict(doc)
    assert PermutationDistribution(2, loaded.weights) == loaded
    with pytest.raises(DomainError) as info:
        PermutationDistribution(3, loaded.weights)
    assert str(info.value) == "(1, 2) is not a permutation of [3]"
    family = alpha_family(loaded)
    assert WinningProbabilityFamily(2, family.alphas) == family
    with pytest.raises(DomainError) as info:
        WinningProbabilityFamily(1, family.alphas)
    assert str(info.value) == "element 2 outside [1]"
