"""
Command line front end. Every command prints one JSON document on stdout.

Exit codes: 0 on success, 1 when a verification-style command finds a
failure (unequal words, a relation that does not hold, a failed fuzz
trial), 2 on usage or parse errors.

closure and plat print an n x n linking matrix, so their --n is capped at
MAX_MATRIX_STRANDS; a larger strand count is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import hilden
from .closure import closure_signature
from .framed import FramedBraid, normalize, framed_equal
from .fuzz import DEFAULT_MIX, FuzzConfig, run_fuzz
from .moves import MoveDescriptor, apply_move, solve_framing_transfer
from .parser import WordParseError, format_word, parse, signed_decimal
from .plat import PlatComponent, plat_signature
from .words import Permutation

MAX_MATRIX_STRANDS = 1024


def _emit(payload, pretty: bool) -> None:
    if pretty:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _framed_json(b: FramedBraid) -> dict:
    return {"n": b.n, "framings": list(b.framings), "beta": format_word(b.beta)}


def _component_json(c) -> dict:
    out = {"strands": c.strands, "framing": c.framing}
    if isinstance(c, PlatComponent):
        out["traversal"] = c.traversal
    return out


def _signature_json(sig, matrix_name: str) -> dict:
    """Components by field name, plus the named linking matrix."""
    return {
        "components": [_component_json(c) for c in sig.components],
        matrix_name: [list(row) for row in getattr(sig, matrix_name)],
    }


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors, like all bad input, print an error JSON and exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _emit({"error": {"message": message}}, False)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="fbk", description="exact computation with framed braids"
    )
    top.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    nf = sub.add_parser("nf", help="framed normal form of a word")
    nf.add_argument("--n", type=signed_decimal, required=True)
    nf.add_argument("word")

    eq = sub.add_parser("eq", help="decide equality of two words in RB_n")
    eq.add_argument("--n", type=signed_decimal, required=True)
    eq.add_argument("word1")
    eq.add_argument("word2")

    closure = sub.add_parser("closure", help="standard closure invariants")
    closure.add_argument("--n", type=signed_decimal, required=True)
    closure.add_argument("--integer-framing", action="store_true")
    closure.add_argument("word")

    plat = sub.add_parser("plat", help="plat closure invariants")
    plat.add_argument("--n", type=signed_decimal, required=True)
    plat.add_argument("word")

    move = sub.add_parser("move", help="apply one move to a word")
    move.add_argument("--n", type=signed_decimal, required=True)
    move.add_argument("--kind", required=True)
    move.add_argument("--split", type=signed_decimal, default=0)
    move.add_argument("--index", type=signed_decimal, default=1)
    move.add_argument("--sign", type=signed_decimal, default=1, choices=(-1, 1))
    move.add_argument("--k", type=signed_decimal, default=0, choices=(-1, 0, 1))
    move.add_argument("--conjugator", default=None, help="word for Conjugation moves")
    move.add_argument("word")

    hv = sub.add_parser("hilden-verify", help="verify a relation suite")
    hv.add_argument("--suite", required=True, choices=hilden.SUITES)
    hv.add_argument("--n", type=signed_decimal, required=True)
    hv.add_argument("--dict", dest="dict_path", default=None,
                    help="JSON file of extra generator words in the DSL")

    transfer = sub.add_parser("transfer", help="solve the framing transfer system")
    transfer.add_argument("--input", default=None,
                          help="JSON file with permutation, delta, kappa (default stdin)")

    fuzz = sub.add_parser("fuzz", help="randomized move-invariance trials")
    fuzz.add_argument("--seed", type=signed_decimal, default=0)
    fuzz.add_argument("--trials", type=signed_decimal, default=100)
    fuzz.add_argument("--n-min", type=signed_decimal, default=1)
    fuzz.add_argument("--n-max", type=signed_decimal, default=5)
    fuzz.add_argument("--len-min", type=signed_decimal, default=0)
    fuzz.add_argument("--len-max", type=signed_decimal, default=12)
    fuzz.add_argument("--moves", default=None,
                      help="comma list kind=weight; default mixes the framed moves")
    return top


def _run(args) -> int:
    pretty = args.pretty
    if args.command in ("closure", "plat") and args.n > MAX_MATRIX_STRANDS:
        raise ValueError(f"{args.command} prints an n x n matrix, so --n is at most "
                         f"{MAX_MATRIX_STRANDS}, got {args.n}")
    if args.command == "nf":
        _emit(_framed_json(normalize(parse(args.word, args.n))), pretty)
        return 0
    if args.command == "eq":
        a = normalize(parse(args.word1, args.n))
        b = normalize(parse(args.word2, args.n))
        equal = framed_equal(a, b)
        _emit({"equal": equal}, pretty)
        return 0 if equal else 1
    if args.command == "closure":
        convention = "integer" if args.integer_framing else "blackboard"
        sig = closure_signature(normalize(parse(args.word, args.n)), convention)
        _emit(_signature_json(sig, "linking"), pretty)
        return 0
    if args.command == "plat":
        sig = plat_signature(normalize(parse(args.word, args.n)))
        _emit(_signature_json(sig, "abs_linking"), pretty)
        return 0
    if args.command == "move":
        braid = normalize(parse(args.word, args.n))
        factors = ()
        if args.conjugator is not None:
            factors = (normalize(parse(args.conjugator, args.n)),)
        descriptor = MoveDescriptor(
            args.kind, split=args.split, index=args.index,
            sign=args.sign, k=args.k, factors=factors,
        )
        result = apply_move(braid, descriptor)
        _emit(dict(_framed_json(result), kind=args.kind), pretty)
        return 0
    if args.command == "hilden-verify":
        dictionary = hilden.GeneratorDictionary.builtin(args.suite, args.n)
        if args.dict_path:
            with open(args.dict_path, encoding="utf-8") as handle:
                raw = json.load(handle)
            if not (isinstance(raw, dict) and all(isinstance(v, str) for v in raw.values())):
                raise ValueError("--dict needs a JSON object mapping names to words")
            extra = {
                name: normalize(parse(text, 2 * args.n)) for name, text in raw.items()
            }
            dictionary = dictionary.with_entries(extra)
        reports = hilden.verify_relation_suite(dictionary, args.suite)
        payload = [
            {
                "relation_id": r.relation_id,
                "holds": r.holds,
                "skipped": r.skipped,
                "note": r.note,
            }
            for r in reports
        ]
        _emit(payload, pretty)
        failed = any(not r.holds and not r.skipped for r in reports)
        return 1 if failed else 0
    if args.command == "transfer":
        if args.input:
            with open(args.input, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(sys.stdin)
        keys = ("permutation", "delta", "kappa")
        # bool is an int subclass, so test the exact type
        if not (isinstance(data, dict) and all(
            isinstance(data.get(k), list) and all(type(x) is int for x in data[k])
            for k in keys
        )):
            raise ValueError("transfer needs a JSON object with integer lists " + ", ".join(keys))
        p, delta, kappa = (tuple(data[k]) for k in keys)
        r = solve_framing_transfer(Permutation(p), delta, kappa)
        _emit({"solvable": r is not None, "r": list(r) if r is not None else None}, pretty)
        return 0
    if args.command == "fuzz":
        seed = args.seed
        env_seed = os.environ.get("FBK_SEED")
        if env_seed is not None:
            seed = signed_decimal(env_seed)
        if args.moves:
            mix = []
            for chunk in args.moves.split(","):
                kind, _, weight = chunk.partition("=")
                mix.append((kind.strip(), signed_decimal(weight) if weight else 1))
            move_mix = tuple(mix)
        else:
            move_mix = DEFAULT_MIX
        config = FuzzConfig(
            seed=seed,
            trials=args.trials,
            n_range=(args.n_min, args.n_max),
            word_length_range=(args.len_min, args.len_max),
            move_mix=move_mix,
        )
        report = run_fuzz(config)
        _emit(report, pretty)
        return 1 if report["failed"] else 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except WordParseError as err:
        _emit({"error": {"message": str(err), "offset": err.offset}}, args.pretty)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        _emit({"error": {"message": str(err)}}, args.pretty)
        return 2


if __name__ == "__main__":
    sys.exit(main())
