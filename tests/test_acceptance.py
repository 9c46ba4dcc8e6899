"""
End-to-end acceptance suite. Each test prints a single PASS/FAIL line so
the run reads as a checklist; every tolerance is exact.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from framedbraids.closure import (
    INTEGER,
    closure_signature,
    knot_framing,
    signatures_match,
    with_adjusted_framing,
)
from framedbraids.framed import FramedBraid, framed_equal, normalize, spell
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.garside import are_equal
from framedbraids.hilden import (
    CLASSICAL_SUITE,
    FRAMED_SUITE,
    PURE_SUITE,
    GeneratorDictionary,
    plat_trivializes,
    verify_relation_suite,
)
from framedbraids.moves import (
    MoveDescriptor,
    apply_move,
    conjugate,
    solve_framing_transfer,
    tau_conjugation_as_RL_sequence,
)
from framedbraids.parser import parse
from framedbraids.plat import (
    double_coset_move,
    framed_stabilization,
    plat_signature,
)
from framedbraids.words import BraidWord, Permutation, sigma

from oracles import bfs_equal, brute_transfer, burau_equal, free_reduce, relation_rewrites
from test_framed import _relation_instances


def report(number: int, title: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {title}: {status}{suffix}", flush=True)
    assert not failures, failures[:5]


def test_criterion_01_word_problem_oracles():
    started = time.time()
    rng = random.Random(20260810)

    def random_signed() -> tuple[int, ...]:
        return free_reduce(
            tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 6)))
        )

    def rewritten(word: tuple[int, ...]) -> tuple[int, ...]:
        for _ in range(rng.randint(1, 4)):
            options = relation_rewrites(word, 3)
            if not options:
                break
            word = rng.choice(options)
        return word

    def as_word(signed: tuple[int, ...]) -> BraidWord:
        return BraidWord(3, tuple(sigma(abs(g), 1 if g > 0 else -1) for g in signed))

    failures = []
    positives = 0
    for index in range(10_000):
        a = random_signed()
        b = rewritten(a) if index % 3 == 0 else random_signed()
        decided = are_equal(as_word(a), as_word(b))
        certified = burau_equal(a, b)
        if decided != certified:
            failures.append((a, b, decided, certified))
            continue
        if decided:
            positives += 1
            if not bfs_equal(a, b, 3):
                failures.append(("bfs unconfirmed", a, b))
    elapsed = time.time() - started
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(1, "word problem vs rewriting and Burau oracles", failures,
           f"10000 pairs, {positives} positives, {elapsed:.1f}s")


def test_criterion_02_presentations():
    started = time.time()
    failures = []
    for n in range(2, 7):
        for i in range(1, n - 1):
            if not are_equal(
                BraidWord(n, (sigma(i), sigma(i + 1), sigma(i))),
                BraidWord(n, (sigma(i + 1), sigma(i), sigma(i + 1))),
            ):
                failures.append(("artin braid", n, i))
        for i in range(1, n):
            for j in range(i + 2, n):
                if not are_equal(
                    BraidWord(n, (sigma(i), sigma(j))),
                    BraidWord(n, (sigma(j), sigma(i))),
                ):
                    failures.append(("artin far", n, i, j))
    for n in range(2, 6):
        for lhs, rhs in _relation_instances(n):
            if not framed_equal(normalize(BraidWord(n, lhs)), normalize(BraidWord(n, rhs))):
                failures.append(("framed relation", n, lhs, rhs))
    suites = (
        (CLASSICAL_SUITE, GeneratorDictionary.classical),
        (FRAMED_SUITE, GeneratorDictionary.framed),
        (PURE_SUITE, GeneratorDictionary.pure),
    )
    total = 0
    for n in range(2, 6):
        for suite, builder in suites:
            for r in verify_relation_suite(builder(n), suite):
                if r.skipped:
                    continue
                total += 1
                if not r.holds:
                    failures.append((suite, n, r.relation_id))
    elapsed = time.time() - started
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    report(2, "presentation relations verify as identities", failures,
           f"{total} group relation instances, {elapsed:.1f}s")


def test_criterion_03_framed_trefoil():
    failures = []
    braid = normalize(parse("t1^-1 s1^-3", 2))
    sig = closure_signature(braid)
    if sig.component_count != 1:
        failures.append(f"component count {sig.component_count}")
    elif sig.components[0].framing != -4:
        failures.append(f"framing {sig.components[0].framing}")
    if knot_framing(braid) != -4:
        failures.append("knot framing disagrees")
    report(3, "one-component closure with framing -4", failures)


def test_criterion_04_framed_L_equivalence():
    started = time.time()
    rng = random.Random(41)
    failures = []
    for index in range(1000):
        n = rng.randint(1, 5)
        braid = sample_framed_braid(rng, n, rng.randint(0, 15))
        word_len = len(spell(braid).letters)
        base = dict(
            split=rng.randint(0, word_len),
            index=rng.randint(1, n),
            sign=rng.choice([-1, 1]),
        )
        if index % 2 == 0:
            d = MoveDescriptor(rng.choice(["RL_over", "RL_under"]), **base)
            before = closure_signature(braid)
            after = closure_signature(apply_move(braid, d))
            if not signatures_match(before, after):
                failures.append(("RL", index, d))
        else:
            d = MoveDescriptor(
                rng.choice(["IntRL_over", "IntRL_under"]), k=rng.choice([-1, 0, 1]), **base
            )
            before = closure_signature(braid, INTEGER)
            after = closure_signature(apply_move(braid, d), INTEGER)
            if not signatures_match(before, after):
                failures.append(("IntRL", index, d))
        # negative controls: the uncompensated moves drift by exactly the sign
        before = closure_signature(braid)
        control = MoveDescriptor(rng.choice(["L_over", "L_under"]), **base)
        after = closure_signature(apply_move(braid, control))
        adjusted = with_adjusted_framing(after, base["index"] + 1, -base["sign"])
        if signatures_match(before, after) or not signatures_match(before, adjusted):
            failures.append(("L control", index, control))
        after = closure_signature(apply_move(braid, MoveDescriptor("M", sign=base["sign"])))
        adjusted = with_adjusted_framing(after, n + 1, -base["sign"])
        if signatures_match(before, after) or not signatures_match(before, adjusted):
            failures.append(("M control", index))
    report(4, "framed L-moves preserve closure signatures", failures,
           f"1000 trials + controls, {time.time() - started:.1f}s")


def test_criterion_05_framed_markov_moves():
    started = time.time()
    rng = random.Random(51)
    failures = []
    for index in range(500):
        n = rng.randint(1, 5)
        braid = sample_framed_braid(rng, n, rng.randint(0, 12))
        before = closure_signature(braid)
        g = sample_framed_braid(rng, n, rng.randint(0, 12))
        if not signatures_match(before, closure_signature(conjugate(braid, g))):
            failures.append(("conjugation", index))
        if not signatures_match(
            before,
            closure_signature(apply_move(braid, MoveDescriptor("RM", sign=rng.choice([-1, 1])))),
        ):
            failures.append(("RM", index))
    report(5, "conjugation and framed stabilization preserve closures", failures,
           f"500 + 500 trials, {time.time() - started:.1f}s")


def test_criterion_06_twist_conjugation_chain():
    started = time.time()
    rng = random.Random(61)
    failures = []
    for index in range(200):
        n = rng.randint(1, 5)
        braid = sample_framed_braid(rng, n, rng.randint(0, 10))
        i = rng.randint(1, n)
        exp = rng.choice([-1, 1])
        before = closure_signature(braid)
        steps = tau_conjugation_as_RL_sequence(braid, i, exp)
        for element in steps:
            if not signatures_match(before, closure_signature(element)):
                failures.append(("signature", index, i, exp))
                break
        twist = FramedBraid(
            n, tuple(exp if j == i - 1 else 0 for j in range(n)), BraidWord(n)
        )
        if not framed_equal(steps[-1], conjugate(braid, twist)):
            failures.append(("final element", index, i, exp))
    report(6, "twist conjugation realized by framed L-moves", failures,
           f"200 chains, {time.time() - started:.1f}s")


def test_criterion_07_framing_transfer_solver():
    started = time.time()
    rng = random.Random(71)
    failures = []
    checked = 0
    for m in range(1, 5):
        for images in itertools.permutations(range(1, m + 1)):
            p = Permutation(images)
            for trial in range(100):
                if trial % 2 == 0:
                    delta = tuple(rng.randint(-1, 1) for _ in range(m))
                    kappa = tuple(rng.randint(-1, 1) for _ in range(m))
                else:
                    delta = tuple(rng.randint(-1, 1) for _ in range(m))
                    r0 = tuple(rng.randint(-1, 1) for _ in range(m))
                    kappa = tuple(
                        delta[i] - r0[i] + r0[p.apply(i + 1) - 1] for i in range(m)
                    )
                solved = solve_framing_transfer(p, delta, kappa)
                brute = brute_transfer(images, delta, kappa)
                checked += 1
                if (solved is None) != (brute is None):
                    failures.append(("solvability", images, delta, kappa))
                    continue
                cycle_sums_agree = all(
                    sum(delta[i - 1] for i in cycle) == sum(kappa[i - 1] for i in cycle)
                    for cycle in p.cycles()
                )
                if (solved is not None) != cycle_sums_agree:
                    failures.append(("cycle-sum law", images, delta, kappa))
                if solved is not None:
                    if not all(
                        delta[i] - solved[i] == kappa[i] - solved[p.apply(i + 1) - 1]
                        for i in range(m)
                    ):
                        failures.append(("substitution", images, delta, kappa, solved))
                    if any(solved[cycle[0] - 1] != 0 for cycle in p.cycles()):
                        failures.append(("normalization", images, solved))
    report(7, "framing transfer solver matches brute force", failures,
           f"{checked} instances, {time.time() - started:.1f}s")


def test_criterion_08_framed_birman_moves():
    started = time.time()
    rng = random.Random(81)
    failures = []
    for index in range(500):
        half = rng.randint(2, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 12))
        before = plat_signature(braid)
        h1 = sample_hilden_product(rng, half, 6)
        h2 = sample_hilden_product(rng, half, 6)
        if not signatures_match(before, plat_signature(double_coset_move(braid, h1, h2))):
            failures.append(("double coset", index))
    for index in range(200):
        half = rng.randint(1, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 12))
        moved = framed_stabilization(braid, rng.choice([-1, 1]))
        if not signatures_match(plat_signature(braid), plat_signature(moved)):
            failures.append(("stabilization", index))
    for n in range(1, 9):
        sig = plat_signature(FramedBraid.identity(2 * n))
        if sig.component_count != n or any(c.framing != 0 for c in sig.components):
            failures.append(("identity plat", n))
        if any(v != 0 for row in sig.abs_linking for v in row):
            failures.append(("identity plat linking", n))
    report(8, "double coset and framed stabilization preserve plats", failures,
           f"500 + 200 trials, {time.time() - started:.1f}s")


def test_criterion_09_cap_stabilizer_sanity():
    failures = []
    for n in range(2, 6):
        entries = (
            GeneratorDictionary.framed(n).entries | GeneratorDictionary.pure(n).entries
        )
        for name, generator in entries.items():
            if not plat_trivializes(generator):
                failures.append((name, n))
    capped = normalize(parse("s1 s2 s3 s1^-1 s2^-1", 4))
    if not plat_trivializes(capped):
        sig = plat_signature(capped)
        failures.append(
            (
                "s1 s2 s3 s1^-1 s2^-1",
                f"components={sig.component_count}",
                f"framings={sorted(sig.framings())}",
            )
        )
    if plat_trivializes(normalize(parse("s2", 4))):
        failures.append("s2 reported trivial")
    report(9, "cap stabilizer membership sanity checks", failures)


def test_criterion_10_cli_contract():
    failures = []
    cli = [sys.executable, "-m", "framedbraids"]

    proc = subprocess.run(
        cli + ["closure", "--n", "2", "t1^-1 s1^-3"], capture_output=True, text=True
    )
    payload = json.loads(proc.stdout) if proc.stdout else {}
    if proc.returncode != 0 or payload.get("components") != [
        {"strands": [1, 2], "framing": -4}
    ] or payload.get("linking") != [[0]]:
        failures.append(("closure", proc.returncode, proc.stdout))

    proc = subprocess.run(
        cli + ["hilden-verify", "--suite", "hilden_1", "--n", "3"],
        capture_output=True, text=True,
    )
    payload = json.loads(proc.stdout) if proc.stdout else []
    if proc.returncode != 0 or not payload or not all(
        r["holds"] and not r["skipped"] for r in payload
    ):
        failures.append(("hilden-verify", proc.returncode))

    proc = subprocess.run(
        cli + ["eq", "--n", "3", "s1 s2 s1", "s2 s1 s2"], capture_output=True, text=True
    )
    if proc.returncode != 0 or json.loads(proc.stdout) != {"equal": True}:
        failures.append(("eq", proc.returncode, proc.stdout))

    runs = [
        subprocess.run(
            cli + ["fuzz", "--seed", "17", "--trials", "60"],
            capture_output=True, text=True,
        )
        for _ in range(2)
    ]
    if runs[0].stdout != runs[1].stdout:
        failures.append("fuzz reports differ across identical seeds")
    if any(r.returncode != 0 for r in runs):
        failures.append("fuzz run failed")

    report(10, "command line contract", failures)
