"""
Command line front end. Every command prints one JSON document on stdout.

Exit codes: 0 on success, 1 when a verification-style command finds a
failure (unequal words, a relation that does not hold, a failed fuzz
trial), 2 on usage or parse errors.

Caps are read from CAPS; a value over its cap is a usage error. Every
command's strand count is capped at MAX_MATRIX_STRANDS, the size at which
closure and plat still print their n x n linking matrix in under a second;
fuzz caps --n-max there. hilden-verify caps its --n at MAX_HILDEN_N, since
its relation count grows with n. fuzz also caps --len-max at
MAX_FUZZ_LETTERS and --trials at MAX_FUZZ_TRIALS, since its cost grows
with both.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hilden
from .closure import BLACKBOARD, INTEGER, closure_signature
from .framed import FramedBraid, normalize, framed_equal
from .fuzz import DEFAULT_MIX, FuzzConfig, run_fuzz
from .moves import (FIELD_VALUES, MoveDescriptor, apply_move, descriptor_from_json,
                    solve_framing_transfer)
from .parser import WordParseError, format_word, parse, signed_decimal
from .plat import plat_signature
from .words import Permutation

MAX_MATRIX_STRANDS = 1024
MAX_FUZZ_LETTERS = 100_000  # 3 default-mix trials at this length take about 1 s
MAX_FUZZ_TRIALS = 20_000  # default-size trials: about 2.5 s
MAX_HILDEN_N = 10  # the slowest built-in suite at this --n: about 7 s

_STRANDS = f"works on at most {MAX_MATRIX_STRANDS} strands"
# command -> [(dest, largest, why)], checked in order; a larger value is
# refused with "{command} {why}, so {flag} is at most {largest}, got {value}".
CAPS = {
    **dict.fromkeys(("nf", "eq", "move"), [("n", MAX_MATRIX_STRANDS, _STRANDS)]),
    **dict.fromkeys(("closure", "plat"), [("n", MAX_MATRIX_STRANDS, "prints an n x n matrix")]),
    "hilden-verify": [("n", MAX_HILDEN_N, "checks more relations as n grows")],
    "fuzz": [  # fuzz draws n up to --n-max
        ("n_max", MAX_MATRIX_STRANDS, _STRANDS),
        ("len_max", MAX_FUZZ_LETTERS, f"works on words of at most {MAX_FUZZ_LETTERS} letters"),
        ("trials", MAX_FUZZ_TRIALS, f"runs at most {MAX_FUZZ_TRIALS} trials"),
    ],
}


def _read_json(path: str | None):
    """The JSON document in the file at path, or on stdin without one; an
    empty path names no file, so it fails to open rather than read stdin."""
    if path is None:
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _framed_json(b: FramedBraid) -> dict:
    return {"n": b.n, "framings": list(b.framings), "beta": format_word(b.beta)}


def _signature_json(sig, matrix_name: str) -> dict:
    """Every component field by name, plus the named linking matrix."""
    return {
        "components": [{name: getattr(c, name) for name in c._fields} for c in sig.components],
        matrix_name: [list(row) for row in getattr(sig, matrix_name)],
    }


def _integer(text: str) -> int:
    """signed_decimal for argparse, whose own message for a ValueError
    would echo the whole argument."""
    try:
        return signed_decimal(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors, like all bad input, print an error JSON and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stdout.write(json.dumps({"error": {"message": message}}) + "\n")
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="fbk", description="exact computation with framed braids"
    )
    top.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = top.add_subparsers(dest="command", required=True)
    # argparse lists missing required arguments in declaration order, parents first
    strands = argparse.ArgumentParser(add_help=False)
    strands.add_argument("--n", type=_integer, required=True)

    nf = sub.add_parser("nf", parents=[strands], help="framed normal form of a word")
    nf.add_argument("word")

    eq = sub.add_parser("eq", parents=[strands], help="decide equality of two words in RB_n")
    eq.add_argument("word1")
    eq.add_argument("word2")

    closure = sub.add_parser("closure", parents=[strands], help="standard closure invariants")
    closure.add_argument("--integer-framing", action="store_true")
    closure.add_argument("word")

    plat = sub.add_parser("plat", parents=[strands], help="plat closure invariants")
    plat.add_argument("word")

    # A flag not given stays out of args, so MoveDescriptor's defaults apply.
    move = sub.add_parser("move", parents=[strands], help="apply one move to a word",
                          argument_default=argparse.SUPPRESS)
    move.add_argument("--kind", required=True)
    for name in MoveDescriptor._fields[1:-1]:  # split, index, sign, k
        move.add_argument(f"--{name}", type=_integer, choices=FIELD_VALUES.get(name))
    move.add_argument("--conjugator", help="word for Conjugation moves")
    move.add_argument("word")

    hv = sub.add_parser("hilden-verify", help="verify a relation suite")
    hv.add_argument("--suite", required=True, choices=hilden.SUITES)
    hv.add_argument("--n", type=_integer, required=True)
    hv.add_argument("--dict", dest="dict_path", default=None,
                    help="JSON file of extra generator words in the DSL")

    transfer = sub.add_parser("transfer", help="solve the framing transfer system")
    transfer.add_argument("--input", default=None,
                          help="JSON file with permutation, delta, kappa (default stdin)")

    fuzz = sub.add_parser("fuzz", help="randomized move-invariance trials")
    fuzz.add_argument("--seed", type=_integer, default=0)
    fuzz.add_argument("--trials", type=_integer, default=100)
    fuzz.add_argument("--n-min", type=_integer, default=1)
    fuzz.add_argument("--n-max", type=_integer, default=5)
    fuzz.add_argument("--len-min", type=_integer, default=0)
    fuzz.add_argument("--len-max", type=_integer, default=12)
    fuzz.add_argument("--moves", default=None,
                      help="comma list kind=weight; default mixes the framed moves")
    return top


def _run(args) -> tuple[object, int]:
    """The command's JSON document and exit code; bad input raises."""
    for dest, largest, why in CAPS.get(args.command, ()):
        value = getattr(args, dest)
        if value > largest:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{args.command} {why}, so {flag} is at most {largest}, got {value}")
    if args.command in ("nf", "eq", "closure", "plat", "move") and args.n < 1:
        raise ValueError(f"strand count must be >= 1, got {args.n}")
    if args.command == "nf":
        return _framed_json(normalize(parse(args.word, args.n))), 0
    if args.command == "eq":
        a = normalize(parse(args.word1, args.n))
        b = normalize(parse(args.word2, args.n))
        equal = framed_equal(a, b)
        return {"equal": equal}, 0 if equal else 1
    if args.command == "closure":
        convention = INTEGER if args.integer_framing else BLACKBOARD
        sig = closure_signature(normalize(parse(args.word, args.n)), convention)
        return _signature_json(sig, "linking"), 0
    if args.command == "plat":
        sig = plat_signature(normalize(parse(args.word, args.n)))
        return _signature_json(sig, "abs_linking"), 0
    if args.command == "move":
        braid = normalize(parse(args.word, args.n))
        data = {k: v for k, v in vars(args).items() if k not in ("pretty", "command", "n", "word")}
        result = apply_move(braid, descriptor_from_json(data, args.n))
        return dict(_framed_json(result), kind=args.kind), 0
    if args.command == "hilden-verify":
        dictionary = hilden.GeneratorDictionary.builtin(args.suite, args.n)
        if args.dict_path is not None:  # an empty path fails to open, never passes
            raw = _read_json(args.dict_path)
            if not (isinstance(raw, dict) and all(isinstance(v, str) for v in raw.values())):
                raise ValueError("--dict needs a JSON object mapping names to words")
            dictionary = dictionary.with_entries(
                {name: normalize(parse(text, 2 * args.n)) for name, text in raw.items()})
            # a name no relation reads, say a misspelling, would pass vacuously
            read = {name for inst in hilden.suite_instances(args.suite, args.n)
                    for name, _ in inst.lhs + inst.rhs}
            unread = ", ".join(repr(k) for k in raw if hilden.canonical_name(k) not in read)
            if unread:
                raise ValueError(f"no {args.suite} relation at n={args.n} reads --dict {unread}")
        reports = hilden.verify_relation_suite(dictionary, args.suite)
        fields = ("relation_id", "holds", "skipped", "note")
        failed = any(not r.holds and not r.skipped for r in reports)
        return [{name: getattr(r, name) for name in fields} for r in reports], 1 if failed else 0
    if args.command == "transfer":
        data = _read_json(args.input)
        keys = ("permutation", "delta", "kappa")
        # bool is an int subclass, so test the exact type
        if not (isinstance(data, dict) and all(
            isinstance(data.get(k), list) and all(type(x) is int for x in data[k])
            for k in keys
        )):
            raise ValueError("transfer needs a JSON object with integer lists " + ", ".join(keys))
        p, delta, kappa = (tuple(data[k]) for k in keys)
        r = solve_framing_transfer(Permutation(p), delta, kappa)
        return {"solvable": r is not None, "r": list(r) if r is not None else None}, 0
    if args.command == "fuzz":
        if args.moves is not None:
            mix = []
            for chunk in args.moves.split(","):
                kind, equals, weight = chunk.partition("=")
                mix.append((kind.strip(), signed_decimal(weight) if equals else 1))
            move_mix = tuple(mix)
        else:
            move_mix = DEFAULT_MIX
        config = FuzzConfig(
            seed=args.seed,
            trials=args.trials,
            n_range=(args.n_min, args.n_max),
            word_length_range=(args.len_min, args.len_max),
            move_mix=move_mix,
        )
        report = run_fuzz(config)
        return report, 1 if report["failed"] else 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its JSON document, the one print site of
    every answer and every error but argparse's."""
    args = _build_parser().parse_args(argv)
    try:
        document, code = _run(args)
    except WordParseError as err:
        document, code = {"error": {"message": str(err), "offset": err.offset}}, 2
    except (ValueError, KeyError, OSError) as err:
        document, code = {"error": {"message": str(err)}}, 2
    indent = 2 if args.pretty else None
    sys.stdout.write(json.dumps(document, indent=indent, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
