"""Command-line interface.

Every subcommand is a thin wrapper over exactly one library operation and
prints a single JSON document to stdout, followed by a newline: ASCII
only, indented by two spaces, byte-identical to what
``json.dump(doc, sys.stdout, indent=2)`` writes. Diagnostics go to
stderr. Exit codes: 0 success, 1 verification failure (a FAIL verdict),
2 input error.
All probabilities are exact rational strings; ``--decimal`` additionally
annotates each rational leaf with a 12-significant-digit float, never
replacing the exact field. Output ordering is deterministic
(lexicographic by subset, then by index) so certificates diff cleanly.

The dimension cap (default 8) honors the PRECEDENCE_MAX_M environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import INFINITY, encode_basestring_ascii

from . import construction, loadsharing, montecarlo, permdist, ranking, signature, voting
from .core import RATIONAL_RE, decimal_int, rational_format, rational_parse
from .errors import DomainError, PrecedenceError


@dataclass
class CommandResult:
    exit_code: int
    payload: dict | None = None
    diagnostics: list[str] = field(default_factory=list)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:  # missing, unreadable, a directory, ...
        raise PrecedenceError(f"cannot read {path}: {ex.strerror or ex}")
    except UnicodeDecodeError as ex:
        raise PrecedenceError(f"{path} is not UTF-8 text: {ex}")
    except ValueError as ex:  # bad syntax, or an integer past int()'s digit limit
        raise PrecedenceError(f"{path} is not valid JSON: {ex}")
    except RecursionError:
        raise PrecedenceError(f"{path} nests arrays or objects too deeply")


def _load_distribution(path: str) -> permdist.PermutationDistribution:
    return permdist.PermutationDistribution.from_json_dict(_load_json(path))


def _load_pattern(path: str) -> ranking.RankingPattern:
    return ranking.RankingPattern.from_json_dict(_load_json(path))


def _load_model(path: str) -> loadsharing.LoadSharingModel:
    return loadsharing.model_from_json_dict(_load_json(path))


def _parse_index_set(text: str) -> tuple[int, ...]:
    return tuple(sorted(decimal_int(tok, "--set") for tok in text.split(",") if tok.strip()))


def _decimalize(node):
    """Annotate rational-string leaves with a 12-significant-digit float."""
    if isinstance(node, dict):
        return {k: _decimalize(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_decimalize(v) for v in node]
    if isinstance(node, str) and RATIONAL_RE.match(node):
        try:
            approx = float(f"{float(Fraction(node)):.12g}")
        except OverflowError:
            return node
        return {"exact": node, "decimal": approx}
    return node


def _alpha_payload(fam: permdist.WinningProbabilityFamily, members: tuple[int, ...] | None):
    if members is not None:
        return {
            "m": fam.m,
            "set": list(members),
            "alpha": {str(j): rational_format(fam.alpha(members, j)) for j in members},
        }
    return {"m": fam.m, "families": fam.to_json_list()}


def _cmd_alpha(args, brute: bool) -> CommandResult:
    rho = _load_distribution(args.dist)
    fam = (
        permdist.alpha_family_bruteforce(rho) if brute else permdist.alpha_family(rho)
    )
    members = _parse_index_set(args.set) if args.set else None
    return CommandResult(0, _alpha_payload(fam, members))


def _cmd_pattern_induce(args) -> CommandResult:
    rho = _load_distribution(args.dist)
    sigma = ranking.induced_pattern(permdist.alpha_family(rho))
    return CommandResult(0, sigma.to_json_dict())


def _cmd_pattern_gen(args) -> CommandResult:
    if args.count < 1:
        raise PrecedenceError(f"--count must be >= 1, got {args.count}")
    if args.kind == "very-paradox":
        return CommandResult(0, ranking.pattern_very_paradox(args.m).to_json_dict())
    if args.kind == "cyclic":
        return CommandResult(0, ranking.pattern_cyclic(args.m).to_json_dict())
    stream = ranking.enumerate_patterns(
        args.m, non_weak_only=not args.allow_weak, seed=args.seed, limit=args.count
    )
    patterns = [sigma.to_json_dict() for sigma in stream]
    if args.count == 1:
        return CommandResult(0, patterns[0])
    return CommandResult(0, {"m": args.m, "patterns": patterns})


def _cmd_ls_invert(args) -> CommandResult:
    rho = _load_distribution(args.dist)
    model = construction.invert_to_ls(rho)
    return CommandResult(0, model.to_json_dict())


def _cmd_ls_build(args) -> CommandResult:
    sigma = _load_pattern(args.pattern)
    eps = construction.epsilon_schedule(sigma.m)
    model = construction.build_ls_epsilon(sigma, eps)
    return CommandResult(0, model.to_json_dict())


def _cmd_ls_check_eps(args) -> CommandResult:
    if args.eps:
        entries = [tok.strip() for tok in args.eps.split(",")]
        eps = loadsharing.EpsilonSchedule(len(entries), tuple(rational_parse(e) for e in entries))
    else:
        eps = construction.epsilon_schedule(args.m)
    report = construction.check_epsilon_condition(eps)
    return CommandResult(0 if report.passed else 1, report.to_json_dict())


def _cmd_concord_certify(args) -> CommandResult:
    sigma = _load_pattern(args.pattern)
    cert = construction.certify_concordance(sigma)
    return CommandResult(0 if cert.passed else 1, cert.to_json_dict())


def _cmd_vote_tally(args) -> CommandResult:
    vs = voting.VotingSituation.from_json_dict(_load_json(args.votes))
    return CommandResult(0, voting.tally(vs).to_json_dict())


def _cmd_vote_check(args) -> CommandResult:
    tau = _load_pattern(args.pattern)
    vs = voting.VotingSituation.from_json_dict(_load_json(args.votes))
    report = voting.check_n_concordance(tau, vs)
    return CommandResult(0 if report.passed else 1, report.to_json_dict())


def _cmd_vote_synth(args) -> CommandResult:
    sigma = _load_pattern(args.pattern)
    vs = voting.synthesize_voting_situation(sigma)
    return CommandResult(0, vs.to_json_dict())


def _cmd_signature_compute(args) -> CommandResult:
    phi = signature.StructureFunction.from_json_dict(_load_json(args.structure))
    if bool(args.dist) == bool(args.model):
        raise PrecedenceError("provide exactly one of --dist or --model")
    if args.dist:
        sig = signature.probability_signature(phi, _load_distribution(args.dist))
    else:
        sig = signature.signature_from_ls(phi, _load_model(args.model))
    return CommandResult(0, {"r": phi.r, "signature": sig.to_json_list()})


def _cmd_signature_invert(args) -> CommandResult:
    phi = signature.StructureFunction.from_json_dict(_load_json(args.structure))
    target = signature.ProbabilitySignature.parse(
        [tok.strip() for tok in args.target.split(",")]
    )
    model = signature.ls_for_target_signature(phi, target)
    return CommandResult(0, model.to_json_dict())


def _cmd_simulate(args) -> CommandResult:
    model = _load_model(args.model)
    reference = _load_model(args.reference) if args.reference else None
    if reference is not None and reference.m != model.m:
        raise DomainError(f"--reference model has m={reference.m} but --model has m={model.m}")
    summary = montecarlo.estimate_alphas(model, n_samples=args.samples, seed=args.seed)
    exact = None if reference is None else loadsharing.alpha_family_ls(reference)
    return CommandResult(0, summary.to_json_dict(exact))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing never mutates it: each ``parse_args`` call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="precedence",
        description="Exact stochastic-precedence toolkit: winning probabilities, "
        "ranking paradoxes, load-sharing constructions, voting situations, "
        "system signatures, and Monte Carlo cross-checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--decimal",
        action="store_true",
        help="annotate exact rationals with 12-significant-digit floats",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", parents=[common], help="winning probabilities of a distribution")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--set", help="comma-separated subset, e.g. 1,3")

    p = sub.add_parser("oracle", parents=[common], help="brute-force winning probabilities")
    p.add_argument("--dist", required=True)
    p.add_argument("--set")

    pattern = sub.add_parser("pattern", help="ranking-pattern operations")
    psub = pattern.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("induce", parents=[common], help="pattern induced by a distribution")
    p.add_argument("--dist", required=True)
    p = psub.add_parser("gen", parents=[common], help="generate ranking patterns")
    p.add_argument("--kind", choices=["very-paradox", "cyclic", "random"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--allow-weak", action="store_true")

    ls = sub.add_parser("ls", help="load-sharing model operations")
    lsub = ls.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("invert", parents=[common], help="rates realizing a distribution")
    p.add_argument("--dist", required=True)
    p = lsub.add_parser("build", parents=[common], help="schedule model for a pattern")
    p.add_argument("--pattern", required=True)
    p = lsub.add_parser("check-eps", parents=[common], help="verify a schedule's separation condition")
    p.add_argument("--m", type=int)
    p.add_argument("--eps", help="comma-separated rationals, overriding the universal schedule")

    concord = sub.add_parser("concord", help="concordance certification")
    csub = concord.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("certify", parents=[common], help="build and verify a concordant model")
    p.add_argument("--pattern", required=True)

    vote = sub.add_parser("vote", help="voting-situation operations")
    vsub = vote.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("tally", parents=[common], help="plurality tallies per election subset")
    p.add_argument("--votes", required=True)
    p = vsub.add_parser("check", parents=[common], help="check N-concordance of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--votes", required=True)
    p = vsub.add_parser("synth", parents=[common], help="synthesize a concordant electorate")
    p.add_argument("--pattern", required=True)

    sig = sub.add_parser("signature", help="system-signature operations")
    ssub = sig.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("compute", parents=[common], help="probability signature of a system")
    p.add_argument("--structure", required=True)
    p.add_argument("--dist")
    p.add_argument("--model")
    p = ssub.add_parser("invert", parents=[common], help="model realizing a target signature")
    p.add_argument("--structure", required=True)
    p.add_argument("--target", required=True, help="comma-separated rationals, e.g. 1/3,2/3,0")

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo failure-order sampling")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reference", help="model file whose exact alphas are shown side-by-side")

    return parser


_DISPATCH = {
    ("alpha", None): lambda a: _cmd_alpha(a, brute=False),
    ("oracle", None): lambda a: _cmd_alpha(a, brute=True),
    ("pattern", "induce"): _cmd_pattern_induce,
    ("pattern", "gen"): _cmd_pattern_gen,
    ("ls", "invert"): _cmd_ls_invert,
    ("ls", "build"): _cmd_ls_build,
    ("ls", "check-eps"): _cmd_ls_check_eps,
    ("concord", "certify"): _cmd_concord_certify,
    ("vote", "tally"): _cmd_vote_tally,
    ("vote", "check"): _cmd_vote_check,
    ("vote", "synth"): _cmd_vote_synth,
    ("signature", "compute"): _cmd_signature_compute,
    ("signature", "invert"): _cmd_signature_invert,
    ("simulate", None): _cmd_simulate,
}


def run(argv: list[str]) -> CommandResult:
    """Execute one CLI invocation without touching the process."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return CommandResult(2 if ex.code else 0, None, ["argument parsing failed"])
    if getattr(args, "command", None) == "ls" and args.subcommand == "check-eps":
        if args.m is None and not args.eps:
            return CommandResult(2, None, ["ls check-eps needs --m or --eps"])
    handler = _DISPATCH[(args.command, getattr(args, "subcommand", None))]
    try:
        result = handler(args)
    except PrecedenceError as ex:
        return CommandResult(2, None, [str(ex)])
    if result.payload is not None and getattr(args, "decimal", False):
        result.payload = _decimalize(result.payload)
    return result


_FLUSH_PIECES = 4096


def _write_json(doc, out) -> None:
    """Write ``doc`` and a newline to ``out``, byte for byte as
    ``json.dump(doc, out, indent=2)`` followed by ``print()`` would.

    One walk appends text pieces to a list, written out whenever it holds
    _FLUSH_PIECES pieces, so a document of many megabytes is never joined
    whole. Tuples are written as lists; a key that is not a string, or a
    value of any type ``json.dump`` cannot write, raises TypeError.
    """
    pieces: list[str] = []
    append = pieces.append
    text = encode_basestring_ascii
    integer = int.__repr__

    def flush() -> None:
        out.write("".join(pieces))
        pieces.clear()

    def leaf(node) -> str:
        if isinstance(node, str):
            return text(node)
        if node is None:
            return "null"
        if node is True:
            return "true"
        if node is False:
            return "false"
        if isinstance(node, int):
            return integer(node)
        if isinstance(node, float):
            if node != node:
                return "NaN"
            if node == INFINITY:
                return "Infinity"
            if node == -INFINITY:
                return "-Infinity"
            return float.__repr__(node)
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")

    def walk(node, pad: str) -> None:
        if isinstance(node, (list, tuple)):
            if not node:
                append("[]")
                return
            inner = pad + "  "
            lead, sep = "[\n" + inner, ",\n" + inner
            for item in node:
                append(lead)
                lead = sep
                if type(item) is str:
                    append(text(item))
                elif type(item) is int:
                    append(integer(item))
                else:
                    walk(item, inner)
                if len(pieces) >= _FLUSH_PIECES:
                    flush()
            append("\n" + pad + "]")
        elif isinstance(node, dict):
            if not node:
                append("{}")
                return
            inner = pad + "  "
            lead, sep = "{\n" + inner, ",\n" + inner
            for key, item in node.items():
                append(lead)
                lead = sep
                append(text(key))  # TypeError unless the key is a str
                append(": ")
                if type(item) is str:
                    append(text(item))
                elif type(item) is int:
                    append(integer(item))
                else:
                    walk(item, inner)
                if len(pieces) >= _FLUSH_PIECES:
                    flush()
            append("\n" + pad + "}")
        else:
            append(leaf(node))

    walk(doc, "")
    append("\n")
    flush()


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    if result.payload is not None:
        _write_json(result.payload, sys.stdout)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
