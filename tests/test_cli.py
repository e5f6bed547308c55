import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from precedence import (
    OrderDependentLSModel,
    PermutationDistribution,
    RankingPattern,
    StructureFunction,
    VotingSituation,
    alpha_family_ls,
    build_ls_epsilon,
    enumerate_patterns,
    epsilon_schedule,
    invert_to_ls,
    pattern_cyclic,
    pattern_very_paradox,
)
from precedence import loadsharing, permdist
from precedence.cli import _DOCUMENTS, _INTEGERS, _decimalize, build_parser, main, run
from precedence.core import RATIONAL_RE, JsonRows
from precedence.loadsharing import model_from_json_dict
from tests.conftest import EXAMPLE_LAW_WEIGHTS, printed, random_distribution


@pytest.fixture
def law_file(tmp_path, example_law):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(example_law.to_json_dict()))
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(pattern_cyclic(3).to_json_dict()))
    return str(path)


class TestAlphaCommands:
    def test_alpha_on_subset(self, law_file):
        result = run(["alpha", "--dist", law_file, "--set", "1,3"])
        assert result.exit_code == 0
        assert result.payload["alpha"] == {"1": "4/9", "3": "5/9"}

    def test_alpha_full_family_is_deterministic(self, law_file):
        a = printed(run(["alpha", "--dist", law_file]))
        b = printed(run(["alpha", "--dist", law_file]))
        assert a == b
        assert [row["set"] for row in a["families"]] == [
            [1, 2], [1, 2, 3], [1, 3], [2, 3]
        ]

    @pytest.mark.parametrize(
        "text", [" 1,+3", "1,\u0663", "1,3.0", pytest.param("1," + "9" * 5000, id="1,9...9")]
    )
    def test_set_takes_decimal_integers_only(self, law_file, text):
        result = run(["alpha", "--dist", law_file, "--set", text])
        assert result.exit_code == 2
        assert "--set" in result.diagnostics[0]

    def test_oracle_agrees_with_alpha(self, law_file):
        fast = run(["alpha", "--dist", law_file]).payload
        brute = run(["oracle", "--dist", law_file]).payload
        assert fast == brute

    def test_oracle_stdout_is_alpha_stdout_on_a_dense_m7_law(self, tmp_path, capsys):
        path = tmp_path / "dense7.json"
        rho = random_distribution(7, random.Random(7), sparse=False)
        path.write_text(json.dumps(rho.to_json_dict()))
        outs = []
        for command in ("alpha", "oracle"):
            assert main([command, "--dist", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].count('"set"') == 120

    def test_decimal_flag_annotates_without_replacing(self, law_file):
        payload = run(["alpha", "--dist", law_file, "--set", "1,3", "--decimal"]).payload
        assert payload["alpha"]["1"] == {"exact": "4/9", "decimal": 0.444444444444}


def per_leaf_decimalize(node):
    """``--decimal`` read leaf by leaf: every rational literal is parsed where it stands."""
    if type(node) is JsonRows:
        node = node.dicts()
    if isinstance(node, dict):
        return {k: per_leaf_decimalize(v) for k, v in node.items()}
    if isinstance(node, list):
        return [per_leaf_decimalize(v) for v in node]
    if isinstance(node, str) and RATIONAL_RE.match(node):
        try:
            return {"exact": node, "decimal": float(f"{float(Fraction(node)):.12g}")}
        except OverflowError:
            return node
    return node


def annotated_leaves(node):
    if isinstance(node, dict):
        if set(node) == {"exact", "decimal"}:
            return [node]
        node = list(node.values())
    return [leaf for item in node for leaf in annotated_leaves(item)] if isinstance(node, list) else []


class TestDecimalize:
    def test_matches_the_per_leaf_rule_and_shares_no_leaf(self):
        huge = "1" + "0" * 400  # a rational too large for a float stays a plain string
        rows = [((1,), 2, "1/3"), ((1, 2), 3, "1"), ((2,), 1, "1/3"), ((2, 1), 3, "1"), ((), 1, huge)]
        doc = {
            "m": 3,
            "rates": JsonRows(("prefix", "j", "mu"), rows),
            "alpha": [
                {"set": [1, 2], "alpha": {"1": "1/3", "2": "2/3"}},
                {"set": [1, 3], "alpha": {"1": "1/3", "3": "2/3"}},
            ],
            "verdict": "PASS",
            "notes": ["PASS", "1/3", huge, "-2/7", "+4", "1/3x", "", True, None, 0.5, 7, [1, "1"]],
        }
        decimalized = _decimalize(doc)
        assert decimalized == per_leaf_decimalize(doc)
        assert decimalized["notes"][:4] == [
            "PASS", {"exact": "1/3", "decimal": 0.333333333333}, huge,
            {"exact": "-2/7", "decimal": -0.285714285714},
        ]
        leaves = annotated_leaves(decimalized)
        assert len(leaves) == 12
        assert len({id(leaf) for leaf in leaves}) == len(leaves)


class TestPatternCommands:
    def test_induce_roundtrips_through_loader(self, law_file):
        payload = printed(run(["pattern", "induce", "--dist", law_file]))
        sigma = RankingPattern.from_json_dict(payload)
        assert sigma.rank((1, 2, 3), 3) == 1
        assert sigma.rank((1, 2), 1) == sigma.rank((1, 2), 2) == 1

    def test_gen_kinds(self):
        vp = printed(run(["pattern", "gen", "--kind", "very-paradox", "--m", "4"]))
        assert RankingPattern.from_json_dict(vp) == pattern_very_paradox(4)
        cyc = printed(run(["pattern", "gen", "--kind", "cyclic", "--m", "3"]))
        assert RankingPattern.from_json_dict(cyc) == pattern_cyclic(3)

    def test_gen_random_is_seed_deterministic(self):
        a = printed(run(["pattern", "gen", "--kind", "random", "--m", "4", "--seed", "5",
                         "--count", "3"]))
        b = printed(run(["pattern", "gen", "--kind", "random", "--m", "4", "--seed", "5",
                         "--count", "3"]))
        assert a == b
        for doc in a["patterns"]:
            RankingPattern.from_json_dict(doc)

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_gen_count_below_one_is_input_error(self, count):
        result = run(["pattern", "gen", "--kind", "random", "--m", "3", "--count", count])
        assert result.exit_code == 2
        assert "--count" in result.diagnostics[0]


class TestModelCommands:
    def test_invert_roundtrips(self, law_file, example_law):
        payload = printed(run(["ls", "invert", "--dist", law_file]))
        model = model_from_json_dict(payload)
        from precedence import distribution_of

        assert distribution_of(model) == example_law

    def test_build_emits_loadable_model(self, cyclic_file):
        payload = printed(run(["ls", "build", "--pattern", cyclic_file]))
        model = model_from_json_dict(payload)
        assert model.epsilon is not None

    def test_check_eps_pass_and_slack(self):
        result = run(["ls", "check-eps", "--m", "5"])
        assert result.exit_code == 0
        assert result.payload["verdict"] == "PASS"
        assert len(result.payload["levels"]) == 4

    def test_check_eps_failure_exits_one(self):
        result = run(["ls", "check-eps", "--eps", "0,1/5,1/6"])
        assert result.exit_code == 1
        assert result.payload["verdict"] == "FAIL"

    def test_check_eps_needs_an_argument(self):
        assert run(["ls", "check-eps"]).exit_code == 2


class TestCertifyCommand:
    def test_certificate_pass(self, cyclic_file):
        result = run(["concord", "certify", "--pattern", cyclic_file])
        assert result.exit_code == 0
        assert result.payload["verdict"] == "PASS"
        assert result.payload["violations"] == []
        RankingPattern.from_json_dict(printed(result)["pattern"])
        model_from_json_dict(printed(result)["model"])

    def test_weak_pattern_is_input_error(self, tmp_path, example_pattern):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(example_pattern.to_json_dict()))
        result = run(["concord", "certify", "--pattern", str(path)])
        assert result.exit_code == 2

    def test_one_warning_per_command_above_eight(self, tmp_path, monkeypatch):
        # the pattern, the schedule, the model and the family are each built at m = 9
        monkeypatch.setenv("PRECEDENCE_MAX_M", "9")
        path = tmp_path / "cyclic9.json"
        with pytest.warns(RuntimeWarning):
            path.write_text(json.dumps(pattern_cyclic(9).to_json_dict()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-W", "default", "-m", "precedence.cli", "concord", "certify"]
        result = subprocess.run(
            [*argv, "--pattern", str(path)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env
        )
        assert result.returncode == 0
        warned = [line for line in result.stderr.decode().splitlines() if "RuntimeWarning" in line]
        assert len(warned) == 1 and "RuntimeWarning: dimension m=9 above 8" in warned[0]


class TestVoteCommands:
    @pytest.fixture
    def votes_file(self, tmp_path):
        vs = VotingSituation(3, {p: int(w * 18) for p, w in EXAMPLE_LAW_WEIGHTS.items()})
        path = tmp_path / "votes.json"
        path.write_text(json.dumps(vs.to_json_dict()))
        return str(path)

    def test_tally(self, votes_file):
        payload = printed(run(["vote", "tally", "--votes", votes_file]))
        by_set = {tuple(row["set"]): row["votes"] for row in payload["tallies"]}
        assert by_set[(2, 3)] == {"2": "6", "3": "12"}
        assert payload["n"] == "18"

    def test_check_pass_and_fail(self, votes_file, law_file, cyclic_file):
        induced = printed(run(["pattern", "induce", "--dist", law_file]))
        ok_file = votes_file.replace("votes.json", "induced.json")
        with open(ok_file, "w") as fh:
            json.dump(induced, fh)
        assert run(["vote", "check", "--pattern", ok_file, "--votes", votes_file]).exit_code == 0
        result = run(["vote", "check", "--pattern", cyclic_file, "--votes", votes_file])
        assert result.exit_code == 1
        assert result.payload["verdict"] == "FAIL"

    def test_decimal_keeps_a_count_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(VotingSituation(2, {(1, 2): 10**400}).to_json_dict()))
        payload = run(["vote", "tally", "--votes", str(path), "--decimal"]).payload
        assert payload["n"] == str(10**400)

    def test_synth_roundtrips(self, cyclic_file):
        payload = printed(run(["vote", "synth", "--pattern", cyclic_file]))
        vs = VotingSituation.from_json_dict(payload)
        assert vs.n > 0


class TestSignatureCommands:
    @pytest.fixture
    def structure_file(self, tmp_path):
        phi = StructureFunction(3, (frozenset({1, 2}), frozenset({1, 3})))
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(phi.to_json_dict()))
        return str(path)

    def test_compute_from_distribution(self, structure_file, tmp_path):
        uniform = tmp_path / "u3.json"
        uniform.write_text(json.dumps(PermutationDistribution.uniform(3).to_json_dict()))
        payload = run(
            ["signature", "compute", "--structure", structure_file, "--dist", str(uniform)]
        ).payload
        assert payload["signature"] == ["1/3", "2/3", "0"]

    def test_compute_needs_exactly_one_source(self, structure_file):
        assert run(["signature", "compute", "--structure", structure_file]).exit_code == 2

    def test_invert_emits_loadable_model(self, structure_file):
        payload = printed(run(
            ["signature", "invert", "--structure", structure_file,
             "--target", "1/2,1/2,0"]
        ))
        model = model_from_json_dict(payload)
        assert model.m == 3

    def test_many_duplicate_path_sets_are_rejected_quickly(self, tmp_path, law_file):
        path = tmp_path / "dups.json"
        path.write_text(json.dumps({"r": 3, "path_sets": [[1, 2, 3]] * 30_000}))
        start = time.perf_counter()
        result = run(["signature", "compute", "--structure", str(path), "--dist", law_file])
        assert time.perf_counter() - start < 5
        assert result.exit_code == 2
        assert "duplicate path sets" in result.diagnostics[0]

    def test_infeasible_target_is_input_error(self, tmp_path):
        phi = StructureFunction.k_out_of_n(3, 2)
        path = tmp_path / "koon.json"
        path.write_text(json.dumps(phi.to_json_dict()))
        result = run(
            ["signature", "invert", "--structure", str(path), "--target", "1,0,0"]
        )
        assert result.exit_code == 2
        assert "step 1" in result.diagnostics[0]


class TestSimulateCommand:
    def test_simulate_with_reference(self, law_file, tmp_path):
        model_doc = printed(run(["ls", "invert", "--dist", law_file]))
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model_doc))
        result = run(
            ["simulate", "--model", str(model_file), "--samples", "2000",
             "--seed", "3", "--reference", str(model_file)]
        )
        assert result.exit_code == 0
        doc = printed(result)
        assert doc["samples"] == 2000 and doc["seed"] == 3
        assert set(doc) == {"m", "samples", "seed", "orders", "alpha"}
        by_set = {tuple(r["set"]): r for r in doc["alpha"]}
        assert by_set[(2, 3)]["exact"]["3"] == "2/3"
        rerun = run(
            ["simulate", "--model", str(model_file), "--samples", "2000",
             "--seed", "3", "--reference", str(model_file)]
        )
        assert printed(rerun) == doc

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["set-invariant", "order-dependent"])
    def test_exact_rows_are_the_reference_family_rows(self, tmp_path, m, kind):
        if kind == "set-invariant":
            sigma = next(enumerate_patterns(m, non_weak_only=True, seed=m, limit=1))
            reference = build_ls_epsilon(sigma, epsilon_schedule(m))
        else:
            reference = invert_to_ls(random_distribution(m, random.Random(m)))
        model_file, reference_file = tmp_path / "model.json", tmp_path / "reference.json"
        model_file.write_text(json.dumps(OrderDependentLSModel.constant(m).to_json_dict()))
        reference_file.write_text(json.dumps(reference.to_json_dict()))
        result = run(
            ["simulate", "--model", str(model_file), "--samples", "50",
             "--reference", str(reference_file)]
        )
        assert result.exit_code == 0
        expected = alpha_family_ls(reference).to_json_list()
        alpha = printed(result)["alpha"]
        assert [r["set"] for r in alpha] == [r["set"] for r in expected]
        for row, family_row in zip(alpha, expected):
            assert row["exact"] == family_row["alpha"]

    @pytest.mark.parametrize("model_m, reference_m", [(3, 4), (4, 3)])
    def test_reference_of_another_dimension_exits_two(self, tmp_path, model_m, reference_m):
        paths = {}
        for m in (model_m, reference_m):
            paths[m] = tmp_path / f"model{m}.json"
            paths[m].write_text(json.dumps(OrderDependentLSModel.constant(m).to_json_dict()))
        result = run(
            ["simulate", "--model", str(paths[model_m]), "--samples", "10",
             "--reference", str(paths[reference_m])]
        )
        assert result.exit_code == 2
        assert result.diagnostics == [
            f"--reference model has m={reference_m} but --model has m={model_m}"
        ]

    def test_a_file_named_twice_is_loaded_once(self, law_file, tmp_path, monkeypatch, capsys):
        model_file, copy = tmp_path / "model.json", tmp_path / "copy.json"
        model_file.write_text(json.dumps(printed(run(["ls", "invert", "--dist", law_file]))))
        copy.write_bytes(model_file.read_bytes())
        loads = []

        def counted(doc):
            loads.append(doc)
            return model_from_json_dict(doc)

        monkeypatch.setattr(loadsharing, "model_from_json_dict", counted)
        argv = ["simulate", "--model", str(model_file), "--samples", "300", "--seed", "3"]
        assert main(argv + ["--reference", str(model_file)]) == 0
        assert len(loads) == 1
        once = capsys.readouterr()
        assert main(argv + ["--reference", str(copy)]) == 0
        assert len(loads) == 3
        assert capsys.readouterr() == once
        model_file.write_text(json.dumps({"m": 3, "rates": 5}))
        result = run(argv + ["--reference", str(model_file)])
        assert (result.exit_code, result.diagnostics) == (2, ["rates: must be a list"])

    @pytest.mark.parametrize("kind", ["order-dependent", "set-invariant"])
    def test_rates_past_the_float_range_simulate(self, tmp_path, kind):
        # a total rate of 2 * 10**400 rounds to inf as a float; each r / total is
        # still 1/2, as in the model with every rate 1
        files = []
        for mu in ("1" + "0" * 400, "1"):
            if kind == "order-dependent":
                rates = [{"prefix": [], "j": j, "mu": mu} for j in (1, 2)]
                doc = {"m": 2, "rates": rates, "default": "1"}
            else:
                sets = ([1], [2], [1, 2])
                rates = [{"survivors": s, "j": j, "mu": mu} for s in sets for j in s]
                doc = {"m": 2, "rates": rates}
            files.append(tmp_path / f"{kind}-{len(mu)}.json")
            files[-1].write_text(json.dumps(doc))
        argv = ["simulate", "--samples", "5", "--seed", "2", "--model"]
        big, ones = (run(argv + [str(f)]) for f in files)
        assert big.exit_code == 0
        assert big.payload == ones.payload

    def test_negative_seed_exits_two(self, law_file, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(printed(run(["ls", "invert", "--dist", law_file]))))
        result = run(["simulate", "--model", str(model_file), "--samples", "10", "--seed", "-1"])
        assert result.exit_code == 2
        assert "seed" in result.diagnostics[0]


class TestErrorPaths:
    def test_missing_file_exits_two(self):
        result = run(["alpha", "--dist", "/nonexistent.json"])
        assert result.exit_code == 2
        assert result.diagnostics

    def test_malformed_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["alpha", "--dist", str(bad)]).exit_code == 2

    def test_schema_violation_names_the_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "weights": [{"perm": [1, 2]}]}))
        result = run(["alpha", "--dist", str(bad)])
        assert result.exit_code == 2
        assert "weights[0]" in result.diagnostics[0]

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            (["simulate", "--samples", "10", "--model"], {"m": 3, "rates": 5}, "rates"),
            (["vote", "tally", "--votes"], {"m": 3, "counts": 3}, "counts"),
            (
                ["concord", "certify", "--pattern"],
                {"m": 2, "functions": [{"set": [1, 2], "ranks": [1, 2]}]},
                "functions[0].ranks",
            ),
            (
                ["vote", "tally", "--votes"],
                {"m": 2, "counts": [{"perm": [1, 2], "n": 1.5}]},
                "counts[0].n",
            ),
            (
                ["vote", "tally", "--votes"],
                {"m": 2, "counts": [{"perm": [1, 2], "n": True}]},
                "counts[0].n",
            ),
            (
                ["concord", "certify", "--pattern"],
                {"m": 2, "functions": [{"set": [1, 2], "ranks": {"1": 1.9, "2": 2}}]},
                "functions[0].ranks",
            ),
            (
                ["vote", "tally", "--votes"],
                {"m": 2, "counts": [{"perm": [1.0, 2], "n": "3"}]},
                "counts[0]",
            ),
            (
                ["simulate", "--samples", "10", "--model"],
                {"m": 2, "rates": [{"prefix": [], "j": 1.5, "mu": "1"}], "default": "1"},
                "1.5",
            ),
            *(
                (["alpha", "--dist"], {"m": m, "weights": [{"perm": [1, 2, 3], "p": "1"}]},
                 "m:")
                for m in ("3", 3.0, [3])
            ),
            (["alpha", "--dist"], {"m": 3, "weights": [{"perm": 5, "p": "1"}]}, "weights[0]"),
            (["simulate", "--samples", "10", "--model"], {"m": 3, "rates": [5]}, "rates[0]"),
            (
                ["concord", "certify", "--pattern"],
                {"m": 2, "functions": [{"set": [1, 2], "ranks": {"1": 1, "2": 2, "7": 9}}]},
                "functions[0].ranks",
            ),
            (
                ["simulate", "--samples", "10", "--model"],
                {"m": 2, "rates": [], "default": "1" * 5000},
                "default",
            ),
            (
                ["vote", "tally", "--votes"],
                {"m": 2, "counts": [{"perm": p, "n": "9" * 4300} for p in ([1, 2], [2, 1])]},
                "n: integer has more than 4300 digits",
            ),
            *(
                (["concord", "certify", "--pattern"],
                 {"m": 2, "functions": [{"set": [member, 2], "ranks": {"1": 1, "2": 2}}]},
                 "functions[0]")
                for member in (1.0, True)
            ),
        ],
        ids=["rates-not-list", "counts-not-list", "ranks-not-object", "float-count",
             "bool-count", "float-rank", "float-perm", "float-survivor", "string-m",
             "float-m", "list-m", "int-perm", "int-rate-entry", "rank-key-outside-set",
             "default-too-long", "total-too-long", "float-set-member", "bool-set-member"],
    )
    def test_wrongly_typed_field_exits_two(self, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run(command + [str(path)])
        assert result.exit_code == 2
        assert field in result.diagnostics[0]

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            *(
                (["vote", "tally", "--votes"],
                 {"m": 2, "counts": [{"perm": [1, 2], "n": n}]},
                 "counts[0].n")
                for n in ("1_000", " 5", "+5", "\u0663")
            ),
            *(
                (["concord", "certify", "--pattern"],
                 {"m": 2, "functions": [{"set": [1, 2], "ranks": {key: 1, "2": 2}}]},
                 "functions[0].ranks")
                for key in (" 1", "+1", "\u0661")
            ),
            (
                ["concord", "certify", "--pattern"],
                {"m": 2, "functions": [{"set": [1, 2], "ranks": {"1": 1, "01": 2, "2": 2}}]},
                "functions[0].ranks",
            ),
        ],
        ids=["count-underscore", "count-space", "count-plus", "count-arabic-digit",
             "rank-key-space", "rank-key-plus", "rank-key-arabic-digit", "rank-key-twice"],
    )
    def test_non_decimal_integer_exits_two(self, tmp_path, command, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run(command + [str(path)])
        assert result.exit_code == 2
        assert field in result.diagnostics[0]

    @pytest.mark.parametrize(
        "content",
        [None, b"\xff\xfe{", b"[" * 100000, b"1" * 5000],
        ids=["directory", "not-utf8", "nested-too-deeply", "integer-too-long"],
    )
    def test_unreadable_input_exits_two(self, tmp_path, content):
        path = tmp_path / "doc.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        result = run(["alpha", "--dist", str(path)])
        assert result.exit_code == 2
        assert str(path) in result.diagnostics[0]

    @pytest.mark.parametrize(
        "argv",
        [["pattern", "gen", "--kind", "cyclic", "--m"], ["ls", "check-eps", "--m"]],
        ids=["pattern-gen", "ls-check-eps"],
    )
    def test_integer_option_past_the_digit_limit_exits_two(self, argv):
        result = run(argv + ["9" * 5000])
        assert (result.exit_code, result.diagnostics) == (
            2, [f"--m: decimal string of more than {sys.get_int_max_str_digits()} digits"]
        )

    def test_workers_flag_is_gone(self, capsys):
        result = run(["simulate", "--model", "m.json", "--samples", "1", "--workers", "2"])
        assert result.diagnostics == ["argument parsing failed"]
        assert "--workers" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["alpha", "--nope"]).exit_code == 2
        capsys.readouterr()  # swallow argparse noise

    def test_help_exits_zero_without_a_diagnostic(self, capsys):
        assert main(["simulate", "--help"]) == 0
        out, err = capsys.readouterr()
        assert "--reference" in out and err == ""
        assert main(["simulate", "--nope"]) == 2
        assert capsys.readouterr().err.endswith("\nargument parsing failed\n")

    def test_alpha_past_the_digit_limit_exits_two_naming_the_field(self, tmp_path):
        # alpha_1({1, 2}) = 1/a + 1/b has a denominator of 6001 digits, though
        # no weight has more than 3002
        a, b = 10**3000 + 1, 10**3000 + 3
        half = Fraction(1, 2)
        weights = {(1, 2, 3): Fraction(1, a), (1, 3, 2): Fraction(1, b),
                   (2, 1, 3): half - Fraction(1, a), (2, 3, 1): half - Fraction(1, b)}
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(PermutationDistribution(3, weights).to_json_dict()))
        for command in (["alpha"], ["oracle"], ["alpha", "--set", "1,2"]):
            result = run(command + ["--dist", str(path)])
            assert (result.exit_code, result.diagnostics) == (
                2, ["alpha: integer has more than 4300 digits to print"]
            )


class TestClosedStdout:
    def test_a_reader_that_leaves_early_gets_exit_141_and_no_traceback(self, tmp_path):
        # the inverted uniform law on [6]: 1,956 rates, past a 64 KiB pipe buffer
        path = tmp_path / "law.json"
        path.write_text(json.dumps(PermutationDistribution.uniform(6).to_json_dict()))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "precedence.cli", "ls", "invert", "--dist", str(path)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            try:
                assert proc.stdout.read(10) == b'{\n  "m": 6'  # as `head -c 10` reads it
                proc.stdout.close()
                err = proc.stderr.read().decode()
                assert proc.wait(timeout=120) == 141
            finally:
                proc.kill()
        assert err == ""


class TestCachedParser:
    def test_consecutive_calls_share_no_state(self, law_file, capsys):
        calls = [
            ["alpha", "--dist", law_file, "--set", "1,3", "--decimal"],
            ["alpha", "--dist", law_file, "--set", "1,3"],
            ["alpha", "--dist", law_file, "--nope"],
            ["alpha", "--dist", law_file],
            ["pattern", "gen", "--kind", "random", "--m", "4", "--seed", "5",
             "--count", "2", "--allow-weak"],
            ["pattern", "gen", "--kind", "random", "--m", "4"],
        ]

        def call(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        alone = []
        for argv in calls:
            build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(call(argv))
        parser = build_parser()
        assert [call(argv) for argv in calls] == alone
        assert build_parser() is parser
        assert [code for code, _, _ in alone] == [0, 0, 2, 0, 0, 0]
        assert '"decimal"' in alone[0][1] and '"decimal"' not in alone[1][1]


# One fault per call, pinned to (exit code, diagnostics) for all 14 subcommands.
# "{d}" stands for the directory holding the documents below.
PIN_DOCS = {
    "dist.json": PermutationDistribution.uniform(3).to_json_dict(),
    "pattern.json": pattern_cyclic(3).to_json_dict(),
    "votes.json": VotingSituation(3, {(1, 2, 3): 1, (3, 2, 1): 2}).to_json_dict(),
    "structure.json": StructureFunction.k_out_of_n(3, 2).to_json_dict(),
    "model.json": OrderDependentLSModel.constant(3).to_json_dict(),
    "model4.json": OrderDependentLSModel.constant(4).to_json_dict(),
    "no-list-m.json": {"m": 3},
    "no-list-r.json": {"r": 3},
    "negative-count.json": {"m": 2, "counts": [{"perm": [1, 2], "n": -1}]},
    # m past the default cap, with entries that are bad for any m: m is read first
    "m12.json": {"m": 12, "weights": [{"perm": [1, 2], "p": "1"}],
                 "counts": [{"perm": [1, 2], "n": 1}], "rates": [{"prefix": [1, 1]}],
                 "functions": [{"set": [1], "ranks": {}}]},
}
# (subcommand, the option given a bad file, the other arguments, the schema error)
FILE_SLOTS = [
    (["alpha"], "--dist", [], "weights: must be a list"),
    (["oracle"], "--dist", [], "weights: must be a list"),
    (["pattern", "induce"], "--dist", [], "weights: must be a list"),
    (["ls", "invert"], "--dist", [], "weights: must be a list"),
    (["ls", "build"], "--pattern", [], "functions: must be a list"),
    (["concord", "certify"], "--pattern", [], "functions: must be a list"),
    (["vote", "tally"], "--votes", [], "counts: must be a list"),
    (["vote", "check"], "--pattern", ["--votes", "{d}/votes.json"], "functions: must be a list"),
    (["vote", "check"], "--votes", ["--pattern", "{d}/pattern.json"], "counts: must be a list"),
    (["vote", "synth"], "--pattern", [], "functions: must be a list"),
    (["signature", "compute"], "--structure", ["--dist", "{d}/dist.json"],
     "path_sets: must be a list of lists of components"),
    (["signature", "compute"], "--dist", ["--structure", "{d}/structure.json"],
     "weights: must be a list"),
    (["signature", "compute"], "--model", ["--structure", "{d}/structure.json"],
     "rates: must be a list"),
    (["signature", "invert"], "--structure", ["--target", "0,1,0"],
     "path_sets: must be a list of lists of components"),
    (["simulate"], "--model", ["--samples", "10"], "rates: must be a list"),
    (["simulate"], "--reference", ["--samples", "10", "--model", "{d}/model.json"],
     "rates: must be a list"),
]
ONE_FAULT_CALLS = [
    *(
        (cmd + rest + [option, path], 2, [diagnostic])
        for cmd, option, rest, schema_error in FILE_SLOTS
        for path, diagnostic in [
            ("{d}/missing.json", "cannot read {d}/missing.json: No such file or directory"),
            ("{d}/not-json.json",
             "{d}/not-json.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("{d}/no-list-r.json" if option == "--structure" else "{d}/no-list-m.json",
             schema_error),
        ]
    ),
    (["pattern", "gen", "--kind", "random", "--m", "3", "--count", "0"], 2,
     ["--count must be >= 1, got 0"]),
    (["ls", "check-eps"], 2, ["ls check-eps needs --m or --eps"]),
    (["ls", "check-eps", "--m", "1"], 2, ["schedule needs m >= 2, got m=1"]),
    (["signature", "compute", "--structure", "{d}/structure.json"], 2,
     ["provide exactly one of --dist or --model"]),
    (["signature", "compute", "--structure", "{d}/structure.json", "--dist", "{d}/dist.json",
      "--model", "{d}/model.json"], 2, ["provide exactly one of --dist or --model"]),
    (["simulate", "--model", "{d}/model.json", "--samples", "0"], 2,
     ["need at least one sample, got 0"]),
    (["simulate", "--model", "{d}/model.json", "--samples", "10",
      "--reference", "{d}/model4.json"], 2, ["--reference model has m=4 but --model has m=3"]),
    (["pattern", "gen", "--kind", "cyclic", "--m", "\u0663"], 2,
     ["--m: '\u0663' is not an integer or a decimal string"]),
    (["pattern", "gen", "--kind", "cyclic", "--m", "+3"], 2,
     ["--m: '+3' is not an integer or a decimal string"]),
    (["pattern", "gen", "--kind", "random", "--m", "3", "--seed", "1_0"], 2,
     ["--seed: '1_0' is not an integer or a decimal string"]),
    (["pattern", "gen", "--kind", "random", "--m", "3", "--count", " 2"], 2,
     ["--count: ' 2' is not an integer or a decimal string"]),
    (["ls", "check-eps", "--m", "3.0"], 2, ["--m: '3.0' is not an integer or a decimal string"]),
    (["simulate", "--model", "{d}/model.json", "--samples", "1e3"], 2,
     ["--samples: '1e3' is not an integer or a decimal string"]),
    (["vote", "tally", "--votes", "{d}/negative-count.json"], 2,
     ["counts[0].n: must be a non-negative integer, got -1"]),
    *(
        (argv, 2, ["m: dimension m=12 exceeds the cap of 8; set PRECEDENCE_MAX_M to raise it"])
        for argv in (
            ["alpha", "--dist", "{d}/m12.json"],
            ["vote", "tally", "--votes", "{d}/m12.json"],
            ["simulate", "--model", "{d}/m12.json", "--samples", "10"],
            ["concord", "certify", "--pattern", "{d}/m12.json"],
        )
    ),
    (["alpha", "--dist", "{d}/dist.json", "--set", ","], 2, ["--set: empty entry in ','"]),
    (["alpha", "--dist", "{d}/dist.json", "--set", "1"], 2,
     ["--set: needs at least two distinct members of [3]"]),
    (["alpha", "--dist", "{d}/dist.json", "--set", "1,2,"], 2, ["--set: empty entry in '1,2,'"]),
    (["ls", "check-eps", "--eps", "0,x"], 2, ["--eps: not a rational literal: 'x'"]),
    (["ls", "check-eps", "--m", "5", "--eps", "0,1/10"], 2,
     ["ls check-eps takes --m or --eps, not both"]),
    (["signature", "invert", "--structure", "{d}/structure.json", "--target", "1,x,0"], 2,
     ["--target: not a rational literal: 'x'"]),
]


@pytest.mark.parametrize(
    "argv, exit_code, diagnostics",
    ONE_FAULT_CALLS,
    ids=[" ".join(argv).replace("{d}/", "") for argv, _, _ in ONE_FAULT_CALLS],
)
def test_one_fault_call_is_pinned(tmp_path, monkeypatch, argv, exit_code, diagnostics):
    monkeypatch.delenv("PRECEDENCE_MAX_M", raising=False)
    for name, doc in PIN_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "not-json.json").write_text("not json")
    result = run([arg.format(d=tmp_path) for arg in argv])
    assert (result.exit_code, result.diagnostics) == (
        exit_code,
        [line.format(d=tmp_path) for line in diagnostics],
    )


# --set, --eps and --target: entries are stripped, none may be empty, and
# every error the text causes starts with the option's name.
COMMA_LIST_ERRORS = [
    (["alpha", "--set", ""], "--set: empty entry in ''"),
    (["alpha", "--set", "1,1"], "--set: repeated elements in subset (1, 1)"),
    (["alpha", "--set", "1,4"], "--set: element 4 outside [3]"),
    (["alpha", "--set", "1,3.0"], "--set: member: '3.0' is not an integer or a decimal string"),
    (["oracle", "--set", "2"], "--set: needs at least two distinct members of [3]"),
    (["oracle", "--set", "2,2"], "--set: repeated elements in subset (2, 2)"),
    (["ls", "check-eps", "--eps", ""], "--eps: empty entry in ''"),
    (["ls", "check-eps", "--m", "3", "--eps", "0,1/5,"], "--eps: empty entry in '0,1/5,'"),
    (["ls", "check-eps", "--eps", "1,1/5"], "--eps: eps(1) must be 0, got 1"),
    (["signature", "invert", "--target", "0,1,0,"], "--target: empty entry in '0,1,0,'"),
    (["signature", "invert", "--target", "1,1,0"], "--target: signature sums to 2, expected 1"),
]


def _with_files(argv: list[str], tmp_path) -> list[str]:
    """``argv`` with the document option its subcommand needs, files written."""
    for name, doc in PIN_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    needs = {"alpha": "--dist", "oracle": "--dist", "signature": "--structure"}.get(argv[0])
    return argv if needs is None else argv + [needs, str(tmp_path / f"{needs[2:]}.json")]


@pytest.mark.parametrize(
    "argv, diagnostic", COMMA_LIST_ERRORS, ids=[" ".join(a) for a, _ in COMMA_LIST_ERRORS]
)
def test_comma_list_error_names_its_option(tmp_path, monkeypatch, argv, diagnostic):
    def refuse(rho):
        raise AssertionError("--set must be checked before the family is computed")

    monkeypatch.setattr(permdist, "alpha_family", refuse)
    monkeypatch.setattr(permdist, "alpha_family_bruteforce", refuse)
    result = run(_with_files(argv, tmp_path))
    assert (result.exit_code, result.diagnostics) == (2, [diagnostic])


def test_comma_list_entries_are_stripped(tmp_path):
    alpha = run(_with_files(["alpha", "--set", " 3 , 1"], tmp_path))
    assert alpha.payload == {"m": 3, "set": [1, 3], "alpha": {"1": "1/2", "3": "1/2"}}
    eps = run(["ls", "check-eps", "--eps", "0 , 1/5,1/6 "])
    assert eps.exit_code == 1 and eps.payload["verdict"] == "FAIL"
    invert = run(_with_files(["signature", "invert", "--target", " 0, 1 ,0"], tmp_path))
    assert invert.exit_code == 0 and model_from_json_dict(printed(invert)).m == 3


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def leaf_parsers(parser=None, words=()):
    """Each leaf subparser of the CLI, with the command words that reach it."""
    parser = parser or build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(words), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, words + (name,))


def test_every_leaf_parser_names_its_handler():
    leaves = dict(leaf_parsers())
    assert len(leaves) == 14
    for words, parser in leaves.items():
        assert callable(parser.get_default("handler")), words


def test_integer_table_covers_exactly_the_integer_options():
    declared = {
        (action.dest, action.metavar)
        for _, parser in leaf_parsers()
        for action in parser._actions
        if action.metavar == "N" or action.dest in _INTEGERS
    }
    assert declared == {(dest, "N") for dest in _INTEGERS}


def test_document_table_covers_exactly_the_file_options():
    declared = {
        (action.dest, action.metavar)
        for _, parser in leaf_parsers()
        for action in parser._actions
        if action.metavar == "FILE" or action.dest in _DOCUMENTS
    }
    assert declared == {(dest, "FILE") for dest in _DOCUMENTS}


def readme_commands():
    """README's ``precedence ...`` lines, continuations joined, comments dropped."""
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["precedence"]:
                yield argv[1:]


def test_readme_cli_lines_parse():
    commands = list(readme_commands())
    assert len(commands) >= 15
    for argv in commands:
        build_parser().parse_args(argv)  # SystemExit on a line that does not parse


def test_readme_library_quick_start_runs():
    (code,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})
