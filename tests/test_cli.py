import json
import time

import pytest

from precedence import (
    PermutationDistribution,
    RankingPattern,
    StructureFunction,
    VotingSituation,
    pattern_cyclic,
    pattern_very_paradox,
)
from precedence.cli import build_parser, main, run
from precedence.loadsharing import model_from_json_dict
from tests.conftest import EXAMPLE_LAW_WEIGHTS


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
        a = run(["alpha", "--dist", law_file]).payload
        b = run(["alpha", "--dist", law_file]).payload
        assert a == b
        assert [row["set"] for row in a["families"]] == [
            [1, 2], [1, 2, 3], [1, 3], [2, 3]
        ]

    @pytest.mark.parametrize("text", [" 1,+3", "1,\u0663", "1,3.0"])
    def test_set_takes_decimal_integers_only(self, law_file, text):
        result = run(["alpha", "--dist", law_file, "--set", text])
        assert result.exit_code == 2
        assert "--set" in result.diagnostics[0]

    def test_oracle_agrees_with_alpha(self, law_file):
        fast = run(["alpha", "--dist", law_file]).payload
        brute = run(["oracle", "--dist", law_file]).payload
        assert fast == brute

    def test_decimal_flag_annotates_without_replacing(self, law_file):
        payload = run(["alpha", "--dist", law_file, "--set", "1,3", "--decimal"]).payload
        assert payload["alpha"]["1"] == {"exact": "4/9", "decimal": 0.444444444444}


class TestPatternCommands:
    def test_induce_roundtrips_through_loader(self, law_file):
        payload = run(["pattern", "induce", "--dist", law_file]).payload
        sigma = RankingPattern.from_json_dict(payload)
        assert sigma.rank((1, 2, 3), 3) == 1
        assert sigma.rank((1, 2), 1) == sigma.rank((1, 2), 2) == 1

    def test_gen_kinds(self):
        vp = run(["pattern", "gen", "--kind", "very-paradox", "--m", "4"]).payload
        assert RankingPattern.from_json_dict(vp) == pattern_very_paradox(4)
        cyc = run(["pattern", "gen", "--kind", "cyclic", "--m", "3"]).payload
        assert RankingPattern.from_json_dict(cyc) == pattern_cyclic(3)

    def test_gen_random_is_seed_deterministic(self):
        a = run(["pattern", "gen", "--kind", "random", "--m", "4", "--seed", "5",
                 "--count", "3"]).payload
        b = run(["pattern", "gen", "--kind", "random", "--m", "4", "--seed", "5",
                 "--count", "3"]).payload
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
        payload = run(["ls", "invert", "--dist", law_file]).payload
        model = model_from_json_dict(payload)
        from precedence import distribution_of

        assert distribution_of(model) == example_law

    def test_build_emits_loadable_model(self, cyclic_file):
        payload = run(["ls", "build", "--pattern", cyclic_file]).payload
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
        RankingPattern.from_json_dict(result.payload["pattern"])
        model_from_json_dict(result.payload["model"])

    def test_weak_pattern_is_input_error(self, tmp_path, example_pattern):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(example_pattern.to_json_dict()))
        result = run(["concord", "certify", "--pattern", str(path)])
        assert result.exit_code == 2


class TestVoteCommands:
    @pytest.fixture
    def votes_file(self, tmp_path):
        vs = VotingSituation(3, {p: int(w * 18) for p, w in EXAMPLE_LAW_WEIGHTS.items()})
        path = tmp_path / "votes.json"
        path.write_text(json.dumps(vs.to_json_dict()))
        return str(path)

    def test_tally(self, votes_file):
        payload = run(["vote", "tally", "--votes", votes_file]).payload
        by_set = {tuple(row["set"]): row["votes"] for row in payload["tallies"]}
        assert by_set[(2, 3)] == {"2": "6", "3": "12"}
        assert payload["n"] == "18"

    def test_check_pass_and_fail(self, votes_file, law_file, cyclic_file):
        induced = run(["pattern", "induce", "--dist", law_file]).payload
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
        payload = run(["vote", "synth", "--pattern", cyclic_file]).payload
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
        payload = run(
            ["signature", "invert", "--structure", structure_file,
             "--target", "1/2,1/2,0"]
        ).payload
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
        model_doc = run(["ls", "invert", "--dist", law_file]).payload
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model_doc))
        result = run(
            ["simulate", "--model", str(model_file), "--samples", "2000",
             "--seed", "3", "--reference", str(model_file)]
        )
        assert result.exit_code == 0
        doc = result.payload
        assert doc["samples"] == 2000 and doc["seed"] == 3
        assert set(doc) == {"m", "samples", "seed", "orders", "alpha"}
        by_set = {tuple(r["set"]): r for r in doc["alpha"]}
        assert by_set[(2, 3)]["exact"]["3"] == "2/3"
        rerun = run(
            ["simulate", "--model", str(model_file), "--samples", "2000",
             "--seed", "3", "--reference", str(model_file)]
        )
        assert rerun.payload == doc

    def test_negative_seed_exits_two(self, law_file, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(run(["ls", "invert", "--dist", law_file]).payload))
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

    def test_workers_flag_is_gone(self, capsys):
        result = run(["simulate", "--model", "m.json", "--samples", "1", "--workers", "2"])
        assert result.diagnostics == ["argument parsing failed"]
        assert "--workers" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["alpha", "--nope"]).exit_code == 2
        capsys.readouterr()  # swallow argparse noise


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
