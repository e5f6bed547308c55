"""Command-line interface.

Every subcommand is a thin wrapper over exactly one library operation and
prints a single JSON document to stdout, followed by a newline: ASCII
only, indented by two spaces, byte-identical to what
``json.dump(doc, sys.stdout, indent=2)`` writes. Diagnostics go to
stderr. Exit codes: 0 success, 1 verification failure (a FAIL verdict),
2 input error, 141 (128 + SIGPIPE) when stdout closes before the document
is written, with no traceback.
All probabilities are exact rational strings; ``--decimal`` additionally
annotates each rational leaf with a 12-significant-digit float, never
replacing the exact field. Output ordering is deterministic
(lexicographic by subset, then by index) so certificates diff cleanly.

Every table is written from row tuples (``core.JsonRows``), one block of
rows at a time, never as one dict per row: the rate tables of ``ls
invert``, ``ls build``, ``signature invert`` and of the model in ``concord
certify``; the alpha tables of ``alpha``, ``oracle`` and the certificate;
the functions of each pattern of ``pattern gen``, ``pattern induce`` and the
certificate; the count table of ``vote synth`` and the tally table of ``vote
tally``; the order and alpha tables of ``simulate``. Each row shape has one
cached row template (``_write_json``); ``--decimal`` turns the tables
into dicts first.

Integer options take ASCII decimal digits only. They are read first; then
the document of every file option given loads before the handler runs, in
the fixed order of ``_DOCUMENTS``; of several bad files, the first is
reported, and a file named by two options of one loader is read once.

The dimension cap (default 8) honors the PRECEDENCE_MAX_M environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from json.encoder import INFINITY, encode_basestring_ascii

from . import construction, loadsharing, montecarlo, permdist, ranking, signature, voting
from .core import JsonRows, decimal_int, ratio_format, rational_parse, subset_members
from .errors import DomainError, InputFormatError, PrecedenceError, RationalParseError


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


def _model(doc: dict):
    return loadsharing.model_from_json_dict(doc)


# The loader of each file option (by dest), in loading order. Each looks its
# library function up when called, so a wrapper installed later is reached.
# Options that share a loader share what it loaded from one path.
_DOCUMENTS = {
    "structure": lambda doc: signature.StructureFunction.from_json_dict(doc),
    "pattern": lambda doc: ranking.RankingPattern.from_json_dict(doc),
    "votes": lambda doc: voting.VotingSituation.from_json_dict(doc),
    "dist": lambda doc: permdist.PermutationDistribution.from_json_dict(doc),
    "model": _model,
    "reference": _model,
}

# The integer options (by dest, metavar N), read as ASCII decimal digits.
_INTEGERS = ("m", "seed", "count", "samples")


def _comma_list(text: str, option: str, parse, build):
    """``build`` of ``option``'s comma-separated entries, each stripped, non-empty
    and read by ``parse``. Every error the text causes starts with ``option``."""
    entries = [tok.strip() for tok in text.split(",")]
    try:
        if "" in entries:
            raise InputFormatError(f"empty entry in {text!r}")
        return build(tuple(map(parse, entries)))
    except PrecedenceError as ex:
        raise InputFormatError(f"{option}: {ex}") from None


def _approx(text: str) -> float | None:
    """The 12-significant-digit float of a rational literal; None for any other
    string, and for a rational too large for a float."""
    try:
        return float(f"{float(rational_parse(text)):.12g}")
    except (RationalParseError, OverflowError):
        return None


def _decimalize(doc):
    """Annotate rational-string leaves with a 12-significant-digit float; a
    ``JsonRows`` becomes its dicts. Each distinct string is read once per
    call; each leaf still gets a dict of its own, so no two places share one."""
    approx = functools.cache(_approx)

    def walk(node):
        if type(node) is JsonRows:
            node = node.dicts()
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, list):  # the ints of a prefix or a set are kept as they are
            return [v if type(v) is int else walk(v) for v in node]
        if isinstance(node, str) and (value := approx(node)) is not None:
            return {"exact": node, "decimal": value}
        return node

    return walk(doc)


def _doc(value) -> CommandResult:
    """``value``'s document, its tables kept as ``JsonRows`` where the value has
    them; exit code 1 if it is a report whose verdict is FAIL."""
    document = getattr(value, "_json_doc", value.to_json_dict)
    return CommandResult(0 if getattr(value, "passed", True) else 1, document())


def _cmd_alpha(args, brute: bool) -> CommandResult:
    m = args.dist.m
    if args.set is not None:  # checked before the family is computed
        member = functools.partial(decimal_int, where="member")
        members = _comma_list(args.set, "--set", member, functools.partial(subset_members, m))
        if len(members) < 2:
            raise InputFormatError(f"--set: needs at least two distinct members of [{m}]")
    fam = (permdist.alpha_family_bruteforce if brute else permdist.alpha_family)(args.dist)
    if args.set is None:
        return CommandResult(0, {"m": m, "families": fam._json_rows()})
    alpha = {str(j): ratio_format(fam.numerators[members, j], fam.scale, "alpha") for j in members}
    return CommandResult(0, {"m": m, "set": list(members), "alpha": alpha})


def _cmd_pattern_gen(args) -> CommandResult:
    if args.count < 1:
        raise PrecedenceError(f"--count must be >= 1, got {args.count}")
    if args.kind != "random":
        build = ranking.pattern_cyclic if args.kind == "cyclic" else ranking.pattern_very_paradox
        return _doc(build(args.m))
    stream = ranking.enumerate_patterns(
        args.m, non_weak_only=not args.allow_weak, seed=args.seed, limit=args.count
    )
    patterns = [sigma._json_doc() for sigma in stream]
    return CommandResult(0, patterns[0] if args.count == 1 else {"m": args.m, "patterns": patterns})


def _cmd_ls_check_eps(args) -> CommandResult:
    if args.eps is not None:
        eps = _comma_list(
            args.eps, "--eps", rational_parse, lambda e: loadsharing.EpsilonSchedule(len(e), e)
        )
        if args.m is not None:
            raise PrecedenceError("ls check-eps takes --m or --eps, not both")
    elif args.m is not None:
        eps = construction.epsilon_schedule(args.m)
    else:
        raise PrecedenceError("ls check-eps needs --m or --eps")
    return _doc(construction.check_epsilon_condition(eps))


def _cmd_signature_compute(args) -> CommandResult:
    if (args.dist is None) == (args.model is None):
        raise PrecedenceError("provide exactly one of --dist or --model")
    if args.dist is not None:
        sig = signature.probability_signature(args.structure, args.dist)
    else:
        sig = signature.signature_from_ls(args.structure, args.model)
    return CommandResult(0, {"r": args.structure.r, "signature": sig.to_json_list()})


def _cmd_signature_invert(args) -> CommandResult:
    target = _comma_list(args.target, "--target", rational_parse, signature.ProbabilitySignature)
    return _doc(signature.ls_for_target_signature(args.structure, target))


def _cmd_simulate(args) -> CommandResult:
    model, reference = args.model, args.reference
    if reference is not None and reference.m != model.m:
        raise DomainError(f"--reference model has m={reference.m} but --model has m={model.m}")
    summary = montecarlo.estimate_alphas(model, n_samples=args.samples, seed=args.seed)
    exact = None if reference is None else loadsharing.alpha_family_ls(reference)
    return CommandResult(0, summary._json_doc(exact))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing never mutates it: each ``parse_args`` call fills a fresh namespace.
    Each leaf parser names its handler; ``_DOCUMENTS`` loads its FILE options,
    and ``run`` reads its N options as integers.
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
    p.add_argument("--dist", required=True, metavar="FILE", help="distribution JSON file")
    p.add_argument("--set", help="comma-separated subset, e.g. 1,3")
    p.set_defaults(handler=functools.partial(_cmd_alpha, brute=False))

    p = sub.add_parser("oracle", parents=[common], help="brute-force winning probabilities")
    p.add_argument("--dist", required=True, metavar="FILE")
    p.add_argument("--set")
    p.set_defaults(handler=functools.partial(_cmd_alpha, brute=True))

    pattern = sub.add_parser("pattern", help="ranking-pattern operations")
    psub = pattern.add_subparsers(dest="subcommand", required=True)
    p = psub.add_parser("induce", parents=[common], help="pattern induced by a distribution")
    p.add_argument("--dist", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(ranking.induced_pattern(permdist.alpha_family(a.dist))))
    p = psub.add_parser("gen", parents=[common], help="generate ranking patterns")
    p.add_argument("--kind", choices=["very-paradox", "cyclic", "random"], required=True)
    p.add_argument("--m", required=True, metavar="N")
    p.add_argument("--seed", default=0, metavar="N")
    p.add_argument("--count", default=1, metavar="N")
    p.add_argument("--allow-weak", action="store_true")
    p.set_defaults(handler=_cmd_pattern_gen)

    ls = sub.add_parser("ls", help="load-sharing model operations")
    lsub = ls.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("invert", parents=[common], help="rates realizing a distribution")
    p.add_argument("--dist", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(construction.invert_to_ls(a.dist)))
    p = lsub.add_parser("build", parents=[common], help="schedule model for a pattern")
    p.add_argument("--pattern", required=True, metavar="FILE")
    p.set_defaults(
        handler=lambda a: _doc(
            construction.build_ls_epsilon(a.pattern, construction.epsilon_schedule(a.pattern.m))
        )
    )
    p = lsub.add_parser("check-eps", parents=[common], help="verify a schedule's separation condition")
    p.add_argument("--m", metavar="N")
    p.add_argument("--eps", help="comma-separated rationals, in place of --m's universal schedule")
    p.set_defaults(handler=_cmd_ls_check_eps)

    concord = sub.add_parser("concord", help="concordance certification")
    csub = concord.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("certify", parents=[common], help="build and verify a concordant model")
    p.add_argument("--pattern", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(construction.certify_concordance(a.pattern)))

    vote = sub.add_parser("vote", help="voting-situation operations")
    vsub = vote.add_subparsers(dest="subcommand", required=True)
    p = vsub.add_parser("tally", parents=[common], help="plurality tallies per election subset")
    p.add_argument("--votes", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(voting.tally(a.votes)))
    p = vsub.add_parser("check", parents=[common], help="check N-concordance of a pattern")
    p.add_argument("--pattern", required=True, metavar="FILE")
    p.add_argument("--votes", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(voting.check_n_concordance(a.pattern, a.votes)))
    p = vsub.add_parser("synth", parents=[common], help="synthesize a concordant electorate")
    p.add_argument("--pattern", required=True, metavar="FILE")
    p.set_defaults(handler=lambda a: _doc(voting.synthesize_voting_situation(a.pattern)))

    sig = sub.add_parser("signature", help="system-signature operations")
    ssub = sig.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("compute", parents=[common], help="probability signature of a system")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--dist", metavar="FILE")
    p.add_argument("--model", metavar="FILE")
    p.set_defaults(handler=_cmd_signature_compute)
    p = ssub.add_parser("invert", parents=[common], help="model realizing a target signature")
    p.add_argument("--structure", required=True, metavar="FILE")
    p.add_argument("--target", required=True, help="comma-separated rationals, e.g. 1/3,2/3,0")
    p.set_defaults(handler=_cmd_signature_invert)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo failure-order sampling")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--samples", required=True, metavar="N")
    p.add_argument("--seed", default=0, metavar="N")
    p.add_argument("--reference", metavar="FILE", help="model whose exact alphas are shown too")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Execute one CLI invocation without touching the process."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:  # --help exits 0 after printing its text; an error exits 2
        return CommandResult(2, None, ["argument parsing failed"]) if ex.code else CommandResult(0)
    try:
        for dest in _INTEGERS:
            value = getattr(args, dest, None)
            if value is not None:
                setattr(args, dest, decimal_int(value, f"--{dest}"))
        # by (loader, path): a file named twice is read once
        document = functools.cache(lambda load, path: load(_load_json(path)))
        for dest, load in _DOCUMENTS.items():
            path = getattr(args, dest, None)
            if path is not None:
                setattr(args, dest, document(load, path))
        result = args.handler(args)
    except PrecedenceError as ex:
        return CommandResult(2, None, [str(ex)])
    if result.payload is not None and args.decimal:
        result.payload = _decimalize(result.payload)
    return result


_FLUSH_PIECES = 4096


def _float_text(x: float) -> str:
    """A float as ``json.dump`` writes it."""
    if x != x:
        return "NaN"
    if x == INFINITY:
        return "Infinity"
    if x == -INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _leaf_text(kind: type) -> Callable[[object], str]:
    """The text function of the values of one JsonRows scalar type: a str, an
    int that is not a bool, or a float; TypeError for any other type."""
    for base, text in ((str, encode_basestring_ascii), (float, _float_text), (int, int.__repr__)):
        if issubclass(kind, base) and not issubclass(kind, bool):
            return text
    raise TypeError(f"a JsonRows value is an int, a str, a float, a tuple or a dict, not {kind.__name__}")


# the characters json.dump writes as they are: printable ASCII but " and \
_UNESCAPED = bytes(range(32, 127)).translate(None, b'"\\')


def _scalar_slot(values: Iterable) -> tuple[str, Callable | None]:
    """The slot of a row template that writes each of ``values``, scalars of one
    kind, and the function that makes its fill, None if the value fills it as it is.

    Strs that json.dump writes as they are fill a ``"%s"``, ints a ``%d``, and
    any other value's text a ``%s``. Scalars of two kinds are a TypeError.
    """
    kinds = set(map(type, values))
    texts = set(map(_leaf_text, kinds))
    if len(texts) > 1:
        raise TypeError("a JsonRows column, or the values of its objects, hold scalars of one kind")
    if kinds == {str}:
        joined = "".join(values)
        if joined.isascii() and not joined.encode("ascii").translate(None, _UNESCAPED):
            return '"%s"', None
    elif texts == {int.__repr__}:
        return "%d", None
    return "%s", texts.pop() if texts else None


def _cells(column: tuple) -> tuple[str, Iterable | None, Iterable]:
    """The slot, the shapes and the fills of the values of a JsonRows column.

    The values are of one kind: scalars, tuples of ints or objects of scalars;
    a column of two kinds is a TypeError, after any value that is none of them.
    The slot writes a scalar, an int of a tuple (``%d``) or a member of an
    object (key slot, ``": "``, value slot), as :func:`_scalar_slot` gives
    them. A value's shape is n for a tuple of n ints and ~n for an object of
    n members; a column of scalars has no shapes (None). A value's fills are
    its one fill for a scalar, its ints for a tuple, and a key fill and a
    value fill per member for an object.
    """
    kinds = set(map(type, column))
    tuples = {kind for kind in kinds if issubclass(kind, tuple)}
    objects = {kind for kind in kinds if issubclass(kind, dict)}
    if (tuples or objects) and kinds not in (tuples, objects):
        for part in filter(None, (tuples, objects, kinds - tuples - objects)):
            _cells(tuple(value for value in column if type(value) in part))
        raise TypeError("a JsonRows column holds values of one kind: scalars, tuples or objects")
    if tuples:
        if not all(issubclass(k, int) and not issubclass(k, bool)
                   for k in set(map(type, itertools.chain.from_iterable(column)))):
            raise TypeError("a tuple in a JsonRows holds ints only")  # %d would print 1.5 as 1
        return "%d", map(len, column), column
    if objects:
        keys = list(itertools.chain.from_iterable(column))
        if not all(issubclass(k, str) for k in set(map(type, keys))):
            encode_basestring_ascii(next(k for k in keys if not isinstance(k, str)))  # its TypeError
        key_slot, key = _scalar_slot(keys)
        value_slot, value = _scalar_slot(list(itertools.chain.from_iterable(map(dict.values, column))))
        key = iter if key is None else functools.partial(map, key)
        value = iter if value is None else functools.partial(map, value)
        pairs = map(zip, map(key, column), map(value, map(dict.values, column)))
        fills = map(itertools.chain.from_iterable, pairs)
        return f"{key_slot}: {value_slot}", map(operator.inv, map(len, column)), fills
    slot, text = _scalar_slot(column)
    return slot, None, column if text is None else map(text, column)


@functools.lru_cache(maxsize=1024)
def _row_template(names: tuple[str, ...], pad: str, slots: tuple, shapes: tuple) -> str:
    """The text of one row of a JsonRows written at indent ``pad``: each
    column's slot (:func:`_cells`), once per int of a tuple and per member of
    an object of the row's ``shapes``, (column, shape) pairs. Cached: the
    tables of one kind share their templates."""
    if not names:
        return "{}"
    field = pad + "    "
    item = ",\n" + field + "  "
    parts = []
    sizes = dict(shapes)
    for column, (name, slot) in enumerate(zip(names, slots)):
        size = sizes.get(column)
        if size is not None:
            count, ends = (size, "[]") if size >= 0 else (~size, "{}")
            slot = ends[0] + item[1:] + item.join([slot] * count) + "\n" + field + ends[1] if count else ends
        parts.append(f"\n{field}{name}: {slot}")
    return "{" + ",".join(parts) + "\n" + pad + "  }"


def _write_json(doc, out) -> None:
    """Write ``doc`` and a newline to ``out``, byte for byte as
    ``json.dump(doc, out, indent=2)`` followed by ``print()`` would, with each
    ``JsonRows`` written as its list of dicts.

    One walk appends text pieces to a list, written out whenever it holds
    _FLUSH_PIECES pieces, so a document of many megabytes is never joined
    whole. Tuples are written as lists; a key that is not a string, or a
    value of any type ``json.dump`` cannot write, raises TypeError.

    A ``JsonRows`` is written from its row tuples, with no dict per row: the
    rate tables of the models, the count table of ``vote synth``, the tally
    table of ``vote tally``, the order and alpha tables of ``simulate``, the
    alpha table of a family and the functions of a pattern. Each row shape's
    cached template (:func:`_row_template`) is filled from the row's
    flattened values (:func:`_cells`): a scalar, each int of a tuple, a key
    and a value per member of an object. The rows go out in
    blocks of at most _FLUSH_PIECES such values, as many rows as fit if each
    were as wide as the widest, and each full block is written out. A value
    of no JsonRows kind, or a column of two kinds, raises TypeError.
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
            return _float_text(node)
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")

    def table(node: JsonRows, pad: str) -> None:
        rows, keys = node.rows, node.keys
        if not rows:
            append("[]")
            return
        names = tuple(text(key).replace("%", "%%") for key in keys)
        columns = list(zip(*rows))
        widest = sum(
            max(map(operator.length_hint, column)) * (1 + isinstance(column[0], dict))
            if isinstance(column[0], (tuple, dict)) else 1
            for column in columns
        )
        size = max(_FLUSH_PIECES // (widest or 1), 1)  # rows per block
        lead, sep = "[\n" + pad + "  ", ",\n" + pad + "  "
        for first in range(0, len(rows), size):
            count = min(size, len(rows) - first)
            block = [column[first : first + size] for column in columns]
            slots, shapes, fills = zip(*map(_cells, block)) if keys else ((), (), ())
            shaped = tuple(i for i, column in enumerate(shapes) if column is not None)
            row_shapes = list(zip(*[shapes[i] for i in shaped])) if shaped else [()] * count
            known = {shape: _row_template(names, pad, slots, tuple(zip(shaped, shape)))
                     for shape in set(row_shapes)}
            # each row's fills, those of a run of scalar columns in one tuple
            parts: list[Iterable] = []
            for scalar, run in itertools.groupby(zip(shapes, fills), lambda column: column[0] is None):
                cells = [cells for _, cells in run]
                parts += [zip(*cells)] if scalar else cells
            values = itertools.chain.from_iterable(itertools.chain.from_iterable(zip(*parts)))
            append(lead)
            append(sep.join(map(known.__getitem__, row_shapes)) % tuple(values))
            lead = sep
            if count == size:
                flush()
        append("\n" + pad + "]")

    def walk(node, pad: str) -> None:
        if isinstance(node, (list, tuple, dict)):
            mapping = isinstance(node, dict)
            opening, closing = "{}" if mapping else "[]"
            if not node:
                append(opening + closing)
                return
            inner = pad + "  "
            lead, sep = opening + "\n" + inner, ",\n" + inner
            for item in node.items() if mapping else node:
                append(lead)
                lead = sep
                if mapping:
                    key, item = item
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
            append("\n" + pad + closing)
        elif type(node) is JsonRows:
            table(node, pad)
        else:
            append(leaf(node))

    walk(doc, "")
    append("\n")
    flush()


# the exit code of a process whose stdout closed early: 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    try:
        if result.payload is not None:
            _write_json(result.payload, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: the rest, and the flush at exit, go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
