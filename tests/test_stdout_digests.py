"""Byte-identity gate: the stdout of representative CLI calls, pinned by sha256.

Stdout is promised to be byte-reproducible: the same input gives the same
bytes, whatever the hash seed, and a change to the internals that keeps
the results leaves every byte in place. Each case writes its input
documents, runs ``cli.main`` and compares the exit code and the sha256 of
everything it printed with the pinned values. CI runs this file again
under two fixed ``PYTHONHASHSEED`` values.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from precedence import (
    OrderDependentLSModel,
    PermutationDistribution,
    RankingPattern,
    SetInvariantLSModel,
    StructureFunction,
    TallyTable,
    VotingSituation,
    WinningProbabilityFamily,
    build_ls_epsilon,
    epsilon_schedule,
    pattern_cyclic,
    pattern_very_paradox,
    synthesize_voting_situation,
)
from precedence.cli import main
from precedence.core import JsonRows

PATTERNS = {"very-paradox": pattern_very_paradox, "cyclic": pattern_cyclic}
BRIDGE = {"r": 5, "path_sets": [[1, 4], [2, 5], [1, 3, 5], [2, 3, 4]]}


def law(m: int) -> PermutationDistribution:
    """A fixed law on [m] whose support skips every eleventh order or so."""
    perms = itertools.permutations(range(1, m + 1))
    raw = {perm: (7 * idx + 3) % 11 for idx, perm in enumerate(perms)}
    total = sum(raw.values())
    return PermutationDistribution(m, {p: Fraction(w, total) for p, w in raw.items() if w})


def documents(name: str, m: int) -> dict:
    """The input documents of one case, by the flag that reads them."""
    if name.startswith("pattern-gen"):
        return {}
    if name.startswith("certify-"):
        return {"--pattern": PATTERNS[name[len("certify-"):]](m).to_json_dict()}
    if name.startswith("vote-synth"):
        return {"--pattern": pattern_cyclic(m).to_json_dict()}
    if name.startswith("vote-"):
        docs = {"--votes": synthesize_voting_situation(pattern_cyclic(m)).to_json_dict()}
        if name != "vote-tally":
            against = pattern_very_paradox if name == "vote-check-fail" else pattern_cyclic
            docs["--pattern"] = against(m).to_json_dict()
        return docs
    if name == "signature-dist":
        return {
            "--structure": StructureFunction.k_out_of_n(m, m // 2).to_json_dict(),
            "--dist": law(m).to_json_dict(),
        }
    if name == "signature-dist-bridge":
        return {"--structure": BRIDGE, "--dist": law(m).to_json_dict()}
    if name == "signature-invert":
        return {"--structure": BRIDGE}
    if name == "signature-model":
        model = build_ls_epsilon(pattern_cyclic(m), epsilon_schedule(m))
        return {"--structure": BRIDGE, "--model": model.to_json_dict()}
    return {"--dist": law(m).to_json_dict()}


COMMANDS = {
    "certify-very-paradox": ["concord", "certify"],
    "certify-cyclic": ["concord", "certify"],
    "vote-synth": ["vote", "synth"],
    "vote-synth-decimal": ["vote", "synth", "--decimal"],
    "vote-tally": ["vote", "tally"],
    "vote-check-pass": ["vote", "check"],
    "vote-check-fail": ["vote", "check"],
    "alpha": ["alpha"],
    "alpha-set": ["alpha", "--set", "1,3", "--decimal"],
    "oracle": ["oracle"],
    "pattern-induce": ["pattern", "induce"],
    "ls-invert": ["ls", "invert"],
    "ls-invert-decimal": ["ls", "invert", "--decimal"],
    "pattern-gen": ["pattern", "gen", "--kind", "random", "--seed", "7", "--count", "3"],
    "pattern-gen-weak": [
        "pattern", "gen", "--kind", "random", "--seed", "7", "--count", "3", "--allow-weak"
    ],
    "pattern-gen-seed0": ["pattern", "gen", "--kind", "random", "--seed", "0"],
    "signature-dist": ["signature", "compute"],
    "signature-dist-bridge": ["signature", "compute"],
    "signature-model": ["signature", "compute"],
    "signature-invert": ["signature", "invert", "--target", "0,1/3,1/3,1/3,0"],
}

# (exit code, sha256 of stdout) per case. A new value here is a change of
# output, which the file formats in README.md do not allow silently.
DIGESTS = {
    "certify-very-paradox-m3": (0, "ebe9ed4ed2efff5d3e7adef1c65c2fc1879209650e8b1cfbe2f13ceff2242296"),
    "certify-cyclic-m3": (0, "2d57b7bb271ca05560f63f48e42bbd3a9d35b325495ffe2e0492724248529ecc"),
    "certify-very-paradox-m5": (0, "55f0cb3ff969d6ee1927573bfd321529ed2ce462daa2365e5c0ae0c3ba3b80c3"),
    "certify-cyclic-m5": (0, "c27da1f730ecbeb82395ebabf7a87001803f6ceea848d03e4c67d4e588bc30bc"),
    "certify-very-paradox-m7": (0, "07b827f6b7c69c4466252472e77c5e56ae9b712b8ce756c88302bfa997525f4d"),
    "certify-cyclic-m7": (0, "6e59b834793f38f5f181363f7ae315c32a3822ff885a17ebc3dd84fedce78836"),
    "certify-very-paradox-m9": (0, "25e8a0ef49777d03b43143342bb4a7d3561af595a89c161f6d42be6586c01f5b"),
    "certify-cyclic-m9": (0, "80d71270153afaff198d9b46313b98dcae5fdde53b582b2523a3393f09123311"),
    "certify-very-paradox-m10": (0, "664cfe8d6c9cac0ecf227b77c8d569815294cf3395da89db4b02b4d9a8c62d0b"),
    "certify-cyclic-m10": (0, "37685d7fa97e2035bd248c058a2b8676be9ddf55cd9dbb576fc69f1fb7b55b5b"),
    "vote-synth-m3": (0, "9db661ff1ddb600f2523e52d338b7ef680210f7ef45c889f55cfccd2b0cbe191"),
    "vote-synth-m6": (0, "37e1caeb05c45f9d539b51e679252cb197c73ba1bcac4c26a3f4a444fdf2ac60"),
    "vote-synth-m7": (0, "2c3ec8aa4987f999e84cbf17b3accfc86dea7b7a8e0557a6808ac3c86d3fff55"),
    "vote-synth-decimal-m4": (0, "bfe534623504c59089c1cd22b76912157d3444011ba499de6a6f69b5d519c21d"),
    "vote-tally-m3": (0, "c30896b32f1e78ede8b655b9efa0b3bb4814e71cb000e1d1ab81525c9502281e"),
    "vote-tally-m6": (0, "6cdba109cfde689df89ba0411dab248fdb308f42f5e68a292891d0c9ed56d3e5"),
    "vote-check-pass-m3": (0, "b58d3fdd5088ea219896b9d0a76ee2e65a4d9113eb0baa846aeb5be3d62f6ee2"),
    "vote-check-pass-m6": (0, "b58d3fdd5088ea219896b9d0a76ee2e65a4d9113eb0baa846aeb5be3d62f6ee2"),
    "vote-check-fail-m3": (1, "fe1854b7a226be328cf0f0fe3b03c0c305d9c80e3b4cb29cb1f2b8ecb0b81e73"),
    "vote-check-fail-m6": (1, "84f08284b1c1ad870ce7cc0c8eebf2b148a0b301a5d6fdb64323d8a3460b05ce"),
    "alpha-m4": (0, "32cce253082cf2cf203a43aa4871954f3d01b3dbf02e50630f92a3dd85da9ddd"),
    "alpha-m6": (0, "3e3b4718321d4d9db407503129ce9dae4d87ca8d6782d0627cbe84a171c9295c"),
    "alpha-set-m4": (0, "0f1bae5bb242c0db589562e636ca0ef398f773a1170898bd5b501d7479f0b695"),
    "alpha-set-m6": (0, "6ef7f956afb59a44059b3e6dd9e5a9be4b45b46968cd8574c8e30b61dedc555a"),
    "oracle-m4": (0, "32cce253082cf2cf203a43aa4871954f3d01b3dbf02e50630f92a3dd85da9ddd"),
    "oracle-m6": (0, "3e3b4718321d4d9db407503129ce9dae4d87ca8d6782d0627cbe84a171c9295c"),
    "pattern-induce-m4": (0, "e2239cfbd56dee3bb953160b37bef4732f20ed26c998291195f154cac1034a56"),
    "pattern-induce-m6": (0, "2a8dbd783632c66bc793e71c5dec2a7ae6369155ef3a8109c82bcf1cbf2f9560"),
    "ls-invert-m4": (0, "d042c76ec158e40bff1522720717bfc327aff99cb58b8b98262ca0c31d4ef1e5"),
    "ls-invert-m6": (0, "0e48cd74d5ae4df8631099e31abb4367c57145c14e2aedac44cdb8bba476d83e"),
    "ls-invert-m7": (0, "061164450f0267e6123aa8a754e8ed38c4fd5a1f23591e813b3841e8494f348e"),
    "ls-invert-decimal-m4": (0, "1cb3f4a48e77ec30411f061e32e4f714334496313323ff5780f040d36e4f2aaa"),
    "pattern-gen-m4": (0, "502920191720ff41c67d8c7b18b784bfe44d02f75c4b71064752398741ba1611"),
    "pattern-gen-weak-m4": (0, "134ec4835cb68f09593b5d1d1a96600b9159f6ada268effc661edaf25d5dcf03"),
    "pattern-gen-seed0-m5": (0, "40e70273fe29e96c84b54f7a27b388397e0dc1b9c17cf34fa69c1cb000da7a7b"),
    "signature-dist-m4": (0, "50a916a2683137062b22ced35d7bdd74c46b9ff93fbf7c37e97e8b7356bda07a"),
    "signature-dist-m6": (0, "4dc8f4b4d20311765dd8c0752df98a89f179d3732a6952727003cea21ac9aa32"),
    "signature-dist-bridge-m5": (0, "028049d592cbabaafa16a7166924431477d79b710dec2a3812a812fb15bf450c"),
    "signature-model-m5": (0, "9335aed4468d7526f994adcb241637edae9b24011490697e096bf8594684fbc2"),
    "signature-invert-m5": (0, "d78cfb045ce9d5160938020a8f666442717342785f8a726a0801679f1247c4aa"),
}


def cases():
    for m in (3, 5, 7, 9, 10):
        yield "certify-very-paradox", m
        yield "certify-cyclic", m
    for name in ("vote-synth", "vote-tally", "vote-check-pass", "vote-check-fail"):
        for m in (3, 6):
            yield name, m
    yield "vote-synth", 7
    yield "vote-synth-decimal", 4
    for name in ("alpha", "alpha-set", "oracle", "pattern-induce", "ls-invert"):
        for m in (4, 6):
            yield name, m
    yield "ls-invert", 7
    yield "ls-invert-decimal", 4
    yield "pattern-gen", 4
    yield "pattern-gen-weak", 4
    yield "pattern-gen-seed0", 5
    for m in (4, 6):
        yield "signature-dist", m
    yield "signature-dist-bridge", 5
    yield "signature-model", 5
    yield "signature-invert", 5


def case_argv(name: str, m: int, tmp_path) -> list[str]:
    """The arguments of one case, its input documents written to ``tmp_path``."""
    argv = list(COMMANDS[name])
    if name.startswith("pattern-gen"):
        argv += ["--m", str(m)]
    for flag, doc in documents(name, m).items():
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    return argv


def run_argv(argv: list[str], capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def run_case(name: str, m: int, tmp_path, capsys) -> tuple[int, str]:
    return run_argv(case_argv(name, m, tmp_path), capsys)


@pytest.mark.filterwarnings("ignore:dimension m=(9|10):RuntimeWarning")
@pytest.mark.parametrize("name, m", list(cases()), ids=[f"{n}-m{m}" for n, m in cases()])
def test_stdout_is_pinned(name, m, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRECEDENCE_MAX_M", "10")
    assert run_case(name, m, tmp_path, capsys) == DIGESTS[f"{name}-m{m}"]


@pytest.mark.parametrize(
    "name, m",
    [
        ("ls-invert", 4), ("ls-invert", 7), ("vote-synth", 6), ("certify-cyclic", 5),
        ("alpha", 6), ("oracle", 6), ("pattern-induce", 6), ("pattern-gen", 4), ("vote-tally", 6),
    ],
)
def test_tables_are_printed_with_no_dict_per_row(name, m, tmp_path, capsys, monkeypatch):
    """The model, vote, tally, family and pattern tables go from row tuples to
    text: no ``to_json_dict`` or ``to_json_list`` of theirs runs, and no
    ``JsonRows`` is turned into dicts."""

    def refuse(*args):
        raise AssertionError("a table was built as one dict per row")

    argv = case_argv(name, m, tmp_path)
    for owner in (OrderDependentLSModel, SetInvariantLSModel, VotingSituation, TallyTable, RankingPattern):
        monkeypatch.setattr(owner, "to_json_dict", refuse)
    monkeypatch.setattr(WinningProbabilityFamily, "to_json_list", refuse)
    monkeypatch.setattr(JsonRows, "dicts", refuse)
    assert run_argv(argv, capsys) == DIGESTS[f"{name}-m{m}"]
