"""
The benchmark's four op families and the two workloads that mix them:
seeded inputs, the timed op, and answer checks.

Every op family is a fixed round of grid cells, and a workload's round is
one or more rounds of each of its families in turn. A run repeats whole
rounds, so each run sees the same mix of cells and its medians stay
comparable across seeds. Inputs come from the workload seed only; no input
repeats inside a run. Answers are checked against facts known from how each
input was built (word_problem, invariants) or against laws the engine must
obey (hilden_suites, fuzz_moves), never against the engine's own output.

The op calls the library through module attributes (``parser.parse``,
``framed.normalize``, ...) so that the traced run sees every call.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from framedbraids import closure, framed, fuzz, hilden, parser, plat
from framedbraids.words import BraidWord, sigma, tau

Token = tuple[str, int, int]  # ("s" | "t", index, exponent)


@dataclass(frozen=True)
class Case:
    """One op's input, its identity for de-duplication, and what to expect."""

    key: Any
    args: tuple
    expected: Any


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Callable[[bool], list]          # tiny -> one round of grid cells
    make: Callable[[random.Random, Any, int], Case]
    op: Callable[..., Any]
    check: Callable[[Case, Any], bool]
    record: Callable[[Any], Any]           # JSON-able answer for the digests
    trace_rounds: int                      # rounds in the traced op list


# ---------------------------------------------------------------- words


def _text(tokens: list[Token]) -> str:
    return " ".join(
        f"{kind}{index}" + ("" if exp == 1 else f"^{exp}") for kind, index, exp in tokens
    )


def _permutation(tokens: list[Token], n: int) -> list[int]:
    """images[j-1] = bottom position of the strand entering at top j.

    Computed here rather than by words.permutation_of so that the checks do
    not trust the code under test.
    """
    pos2strand = list(range(n + 1))
    for kind, i, exp in tokens:
        if kind == "s" and exp % 2:
            pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
    images = [0] * n
    for pos in range(1, n + 1):
        images[pos2strand[pos] - 1] = pos
    return images


def _cycles(images: list[int]) -> set[frozenset[int]]:
    seen: set[int] = set()
    out = set()
    for start in range(1, len(images) + 1):
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = images[j - 1]
        if cycle:
            out.add(frozenset(cycle))
    return out


def _plat_components(images: list[int]) -> set[frozenset[int]]:
    """Top endpoints joined by strands, top caps and bottom caps."""
    n = len(images)
    parent = list(range(2 * n))  # 0..n-1 top endpoints, n..2n-1 bottom

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for j in range(n):
        union(j, n + images[j] - 1)
    for j in range(0, n, 2):
        union(j, j + 1)
        union(n + j, n + j + 1)
    groups: dict[int, set[int]] = {}
    for j in range(n):
        groups.setdefault(find(j), set()).add(j + 1)
    return {frozenset(g) for g in groups.values()}


def _random_sigma_word(rng: random.Random, n: int, crossings: int) -> list[Token]:
    tokens: list[Token] = []
    while len(tokens) < crossings:
        i, e = rng.randint(1, n - 1), rng.choice((1, -1))
        if tokens and tokens[-1] == ("s", i, -e):
            continue
        tokens.append(("s", i, e))
    return tokens


# ---------------------------------------------------------- word_problem


def _slide(x: Token, y: Token) -> tuple[Token, Token] | None:
    """Swap two adjacent letters when a defining relation of RB_n allows it."""
    if x[0] == "s" and y[0] == "s":
        return (y, x) if abs(x[1] - y[1]) >= 2 else None
    if x[0] == "t" and y[0] == "t":
        return y, x
    # s_i^e t_j = t_(s_i(j)) s_i^e and t_j s_i^e = s_i^e t_(s_i(j)): the
    # twist follows its ribbon through an odd run.
    s, t = (x, y) if x[0] == "s" else (y, x)
    j = t[1]
    if s[2] % 2 and j in (s[1], s[1] + 1):
        j = 2 * s[1] + 1 - j
    moved = ("t", j, t[2])
    return (moved, s) if x is s else (s, moved)


def _rewrite(rng: random.Random, tokens: list[Token], n: int, crossings: int) -> list[Token]:
    """An equal word: a fixed mix of relation moves, applied in random order.

    The mix depends only on the size, so b's length, and with it the op's
    cost, varies little between inputs of one cell. Needs n >= 3.
    """
    inserts = max(1, crossings // 20)
    moves = (["relator"] * inserts + ["pair"] * inserts
             + ["slide"] * (crossings // 5) + ["braid"] * (crossings // 10))
    rng.shuffle(moves)
    tokens = list(tokens)
    for move in moves:
        if move == "slide":
            p = rng.randrange(len(tokens) - 1)
            swapped = _slide(tokens[p], tokens[p + 1])
            if swapped:
                tokens[p:p + 2] = swapped
        elif move == "relator":
            # s_i s_j s_i (s_j s_i s_j)^-1 with j = i + 1
            i, a = rng.randint(1, n - 2), rng.choice((1, -1))
            p = rng.randint(0, len(tokens))
            tokens[p:p] = [("s", i, a), ("s", i + 1, a), ("s", i, a),
                           ("s", i + 1, -a), ("s", i, -a), ("s", i + 1, -a)]
        elif move == "braid":
            # s_i s_j s_i -> s_j s_i s_j with |i - j| = 1, at the first match
            # after a random start
            start = rng.randrange(len(tokens) - 2)
            for q in range(len(tokens) - 2):
                p = (start + q) % (len(tokens) - 2)
                x, y, z = tokens[p:p + 3]
                if (x == z and x[0] == y[0] == "s" and abs(x[2]) == 1
                        and y[2] == x[2] and abs(x[1] - y[1]) == 1):
                    tokens[p:p + 3] = [y, x, y]
                    break
        else:
            i, a = rng.randint(1, n - 1), rng.choice((1, -1))
            p = rng.randint(0, len(tokens))
            tokens[p:p] = [("s", i, a), ("s", i, -a)]
    return tokens


def _wp_cells(tiny: bool) -> list:
    if tiny:
        return [(3, 8), (4, 12), (3, 16)]
    return [(4, 100), (4, 150), (8, 60), (8, 80), (16, 40)]


def _wp_make(rng: random.Random, cell, slot: int) -> Case:
    n, crossings = cell
    a = _random_sigma_word(rng, n, crossings)
    for _ in range(max(1, crossings // 10)):
        a.insert(rng.randint(0, len(a)), ("t", rng.randint(1, n), rng.choice((1, -1))))
    equal = slot % 2 == 0
    b = list(a)
    if not equal:
        i, j = rng.sample(range(1, n), 2)
        p = rng.randint(0, len(b))
        b[p:p] = [("s", i, 2), ("s", j, -2)]
    b = _rewrite(rng, b, n, crossings)
    text_a, text_b = _text(a), _text(b)
    return Case((n, text_a, text_b), (text_a, text_b, n), equal)


def _wp_op(text_a: str, text_b: str, n: int) -> bool:
    return framed.framed_equal(
        framed.normalize(parser.parse(text_a, n)),
        framed.normalize(parser.parse(text_b, n)),
    )


# ------------------------------------------------------------ invariants


def _sig_json(sig) -> dict:
    """The answer as `fbk closure` / `fbk plat` would print it."""
    if isinstance(sig, plat.PlatSignature):
        return {
            "components": [
                {"strands": list(c.strands), "framing": c.framing,
                 "traversal": [list(step) for step in c.traversal]}
                for c in sig.components
            ],
            "abs_linking": [list(row) for row in sig.abs_linking],
        }
    return {
        "components": [
            {"strands": list(c.strands), "framing": c.framing} for c in sig.components
        ],
        "linking": [list(row) for row in sig.linking],
    }


def _with_twists(rng: random.Random, sigmas: list[Token], twists: list[int]) -> list[Token]:
    """Interleave t_j^f_j into a word whose sigma syllables all have even exponent.

    Even syllables never move a strand, so every twist lands on ribbon j
    wherever it sits.
    """
    tokens = list(sigmas)
    for j, f in enumerate(twists, start=1):
        if f:
            tokens.insert(rng.randint(0, len(tokens)), ("t", j, f))
    return tokens


def _exponent(rng: random.Random, level: int) -> int:
    e = 2 * round(level * rng.uniform(0.8, 1.2) / 2)
    return e * rng.choice((1, -1))


def _inv_cells(tiny: bool) -> list:
    levels = (100, 300, 1000) if tiny else (1_000, 10_000, 100_000)
    ties = (4, 5, 6) if tiny else (7, 8, 9)
    cells: list = []
    for level in levels:
        cells += [("torus", level), ("chain", level), ("platchain", level)]
    for size in ties:
        cells += [("tie", size), ("plattie", size)]
    cells += [("random", k) for k in range(6 if tiny else 30)]
    return cells


def _inv_make(rng: random.Random, cell, slot: int) -> Case:
    """Case args: (text, n, kind, convention). Expected: ("closed", framing by
    component, linking by component pair) or ("laws", components, total)."""
    family, size = cell
    convention = "integer" if slot % 2 else "blackboard"
    if family == "torus":
        # T(p, q) with q coprime to p, then a large even run on s1: one
        # component whose blackboard framing is the exponent sum.
        p = rng.randint(3, 5)
        q = rng.choice([q for q in range(2, 8) if math.gcd(p, q) == 1])
        e = _exponent(rng, size)
        twists = [rng.randint(-3, 3) for _ in range(p)]
        tokens = [("s", i, 1) for _ in range(q) for i in range(1, p)] + [("s", 1, e)]
        tokens = [("t", j, f) for j, f in enumerate(twists, start=1) if f] + tokens
        twist_sum = sum(twists)
        framing = twist_sum + (q * (p - 1) + e if convention == "blackboard" else 0)
        expected = ("closed", {frozenset(range(1, p + 1)): framing}, {})
        return Case(_text(tokens), (_text(tokens), p, "closure", convention), expected)
    if family in ("chain", "tie"):
        # Every syllable s_i^e has e even, so each strand is its own component,
        # carries its twist as framing, and links its neighbour e/2 times.
        if family == "chain":
            n = rng.randint(4, 6)
            exps = [_exponent(rng, size) for _ in range(n - 1)]
            twists = [rng.randint(-3, 3) for _ in range(n)]
        else:
            n = size
            k = rng.randint(1, 3) * rng.choice((1, -1))
            exps = [2 * k] * (n - 1)
            twists = [rng.randint(-5, 5)] * n
            convention = "blackboard"
        order = list(range(1, n))
        rng.shuffle(order)
        tokens = _with_twists(rng, [("s", i, exps[i - 1]) for i in order], twists)
        frames = {frozenset({j}): twists[j - 1] for j in range(1, n + 1)}
        links = {frozenset({frozenset({i}), frozenset({i + 1})}): exps[i - 1] // 2
                 for i in range(1, n)}
        return Case(_text(tokens), (_text(tokens), n, "closure", convention),
                    ("closed", frames, links))
    if family in ("platchain", "plattie"):
        # Crossings only between neighbouring cap pairs (s_2i, even
        # exponents): cap pair i is component i, framing is the pair's twist
        # sum, and |linking| with the next pair is |e|/2.
        if family == "platchain":
            m = rng.randint(3, 4)
            exps = [_exponent(rng, size) for _ in range(m - 1)]
            twists = [rng.randint(-3, 3) for _ in range(2 * m)]
        else:
            m = size
            k = rng.randint(1, 3) * rng.choice((1, -1))
            exps = [2 * k] * (m - 1)
            twists = [rng.randint(-5, 5)] * (2 * m)
        order = list(range(1, m))
        rng.shuffle(order)
        tokens = _with_twists(rng, [("s", 2 * i, exps[i - 1]) for i in order], twists)
        comps = [frozenset({2 * i - 1, 2 * i}) for i in range(1, m + 1)]
        frames = {c: twists[2 * i] + twists[2 * i + 1] for i, c in enumerate(comps)}
        links = {frozenset({comps[i - 1], comps[i]}): abs(exps[i - 1]) // 2
                 for i in range(1, m)}
        return Case(_text(tokens), (_text(tokens), 2 * m, "plat", None),
                    ("closed", frames, links))
    # random framed word: closure (either convention) or plat, checked by laws
    kind = "plat" if slot % 3 == 0 else "closure"
    n = 2 * rng.randint(1, 4) if kind == "plat" else rng.randint(2, 8)
    tokens: list[Token] = []
    for _ in range(rng.randint(20, 40)):
        if rng.random() < 0.2:
            tokens.append(("t", rng.randint(1, n), rng.choice((-2, -1, 1, 2))))
        else:
            tokens.append(("s", rng.randint(1, n - 1), rng.choice((-3, -2, -1, 1, 2, 3))))
    images = _permutation(tokens, n)
    if kind == "plat":
        expected = ("laws", _plat_components(images), None)
        return Case(_text(tokens), (_text(tokens), n, "plat", None), expected)
    twist_sum = sum(e for kind_, _, e in tokens if kind_ == "t")
    exp_sum = sum(e for _, _, e in tokens)
    total = exp_sum if convention == "blackboard" else twist_sum
    expected = ("laws", _cycles(images), total)
    return Case(_text(tokens), (_text(tokens), n, "closure", convention), expected)


def _inv_op(text: str, n: int, kind: str, convention: str | None):
    braid = framed.normalize(parser.parse(text, n))
    if kind == "plat":
        return plat.plat_signature(braid)
    return closure.closure_signature(braid, convention)


def _inv_check(case: Case, sig) -> bool:
    is_plat = case.args[2] == "plat"
    matrix = sig.abs_linking if is_plat else sig.linking
    comps = [frozenset(c.strands) for c in sig.components]
    k = len(comps)
    if sig.component_count != k or any(
        matrix[a][b] != matrix[b][a] or matrix[a][a] != 0
        for a in range(k) for b in range(k)
    ):
        return False
    if case.expected[0] == "laws":
        _, components, total = case.expected
        if set(comps) != components:
            return False
        if is_plat:
            return all(v >= 0 for row in matrix for v in row)
        # Every crossing is a self crossing or half a unit of linking.
        framings = sum(c.framing for c in sig.components)
        if case.args[3] == "blackboard":
            framings += sum(matrix[a][b] for a in range(k) for b in range(k) if a != b)
        return framings == total
    _, frames, links = case.expected
    if set(comps) != set(frames):
        return False
    where = {c: idx for idx, c in enumerate(comps)}
    if any(sig.components[where[c]].framing != f for c, f in frames.items()):
        return False
    return all(
        matrix[where[a]][where[b]] == links.get(frozenset({a, b}), 0)
        for a in comps for b in comps if a != b
    )


# --------------------------------------------------------- hilden_suites


def _hs_cells(tiny: bool) -> list:
    if tiny:
        return [("hilden_1", 2, 2), ("framed_hilden", 2, 3), ("framed_hilden", 2, 4)]
    # (suite, n, letters in g). n=3 comes twice per g length so that the
    # median falls inside the n=3 ops, not between the n=3 and n=4 clusters;
    # n=4 stops at 3 letters, where one op already takes ~0.2 s.
    return [(suite, n, length)
            for n, lengths in ((3, (2, 3, 4)), (3, (2, 3, 4)), (4, (2, 3)))
            for length in lengths
            for suite in ("hilden_1", "framed_hilden")]


def _hs_make(rng: random.Random, cell, slot: int) -> Case:
    """Conjugate the built-in dictionary by a seeded framed braid g.

    g has one twist and length-1 unit crossings, in random order. The op's
    cost grows with the crossings and above all with the negative ones: at
    n=4 with two crossings it is about 130, 270 and 450 ms for 0, 1 and 2
    negative ones. So the crossings' signs are fixed per cell, alternating
    +, -, +, which keeps the cost of one cell's inputs steady.
    """
    suite, n, length = cell
    strands = 2 * n
    while True:
        letters = [tau(rng.randint(1, strands), rng.choice((1, -1)))]
        letters += [sigma(rng.randint(1, strands - 1), (-1) ** k)
                    for k in range(length - 1)]
        rng.shuffle(letters)
        word = BraidWord(strands, tuple(letters))
        if len(word.letters) == length:
            break
    base = (hilden.GeneratorDictionary.classical(n) if suite == "hilden_1"
            else hilden.GeneratorDictionary.framed(n))
    g = framed.normalize(word)
    g_inv = framed.inverse(g)
    entries = {name: framed.multiply(framed.multiply(g_inv, h), g)
               for name, h in base.entries.items()}
    dictionary = hilden.GeneratorDictionary(n, entries)
    return Case((suite, n, word.letters), (dictionary, suite), None)


def _hs_op(dictionary, suite: str):
    return hilden.verify_relation_suite(dictionary, suite)


def _hs_check(case: Case, reports) -> bool:
    # Conjugation is an automorphism: every relation must still hold, and
    # the built-in dictionaries name every generator these suites use.
    return bool(reports) and all(r.holds and not r.skipped for r in reports)


def _hs_record(reports) -> list:
    return [[r.relation_id, r.holds, r.skipped] for r in reports]


# ------------------------------------------------------------ fuzz_moves


def _fm_cells(tiny: bool) -> list:
    return [5 if tiny else 50]


def _fm_make(rng: random.Random, trials, slot: int) -> Case:
    seed = rng.randrange(2**31)
    return Case(seed, (seed, trials), trials)


def _fm_op(seed: int, trials: int) -> dict:
    return fuzz.run_fuzz(fuzz.FuzzConfig(seed=seed, trials=trials))


def _fm_check(case: Case, report: dict) -> bool:
    return report["failed"] == 0 and report["passed"] == case.expected


WORKLOADS = {
    w.name: w
    for w in (
        Workload("word_problem", _wp_cells, _wp_make, _wp_op,
                 lambda case, out: out is case.expected, lambda out: out, 2),
        Workload("invariants", _inv_cells, _inv_make, _inv_op,
                 _inv_check, _sig_json, 4),
        Workload("hilden_suites", _hs_cells, _hs_make, _hs_op,
                 _hs_check, _hs_record, 1),
        Workload("fuzz_moves", _fm_cells, _fm_make, _fm_op,
                 _fm_check, lambda out: json.dumps(out, sort_keys=True), 150),
    )
}


def cases(workload: Workload, seed: str, tiny: bool):
    """Endless stream of (cell index, Case), whole rounds, no repeated input."""
    rng = random.Random(f"{workload.name}:{seed}")
    cells = workload.cells(tiny)
    seen: set = set()
    slot = 0
    while True:
        for index, cell in enumerate(cells):
            while True:
                case = workload.make(rng, cell, slot)
                if case.key not in seen:
                    break
            seen.add(case.key)
            slot += 1
            yield index, case


# workload -> (op family, rounds of its grid per round of the workload).
# Each pair shares one engine path: Garside for equality, the crossing
# scans and _canon for signatures. The fuzz_moves share gives it about as
# much time per round as invariants.
MIXES: dict[str, tuple[tuple[str, int], ...]] = {
    "equality": (("word_problem", 1), ("hilden_suites", 1)),
    "signatures": (("invariants", 1), ("fuzz_moves", 30)),
}


def parts(mix: str) -> list[Workload]:
    return [WORKLOADS[name] for name, _ in MIXES[mix]]


def round_size(mix: str, tiny: bool) -> int:
    return sum(rounds * len(WORKLOADS[name].cells(tiny)) for name, rounds in MIXES[mix])


def mix_cases(mix: str, seed: str, tiny: bool):
    """Endless stream of (op family, Case), in whole rounds of the workload;
    each family draws from its own seeded stream."""
    streams = [(WORKLOADS[name], rounds, cases(WORKLOADS[name], seed, tiny))
               for name, rounds in MIXES[mix]]
    while True:
        for family, rounds, stream in streams:
            for _ in range(rounds * len(family.cells(tiny))):
                yield family, next(stream)[1]
