"""
The ROADMAP baseline table as named one-shot cases, with machine details.

Library cases run in this process; `fbk` cases run `python -m framedbraids`
in a fresh interpreter and time the whole command. Cases under one second
report the median of five runs, longer ones a single run. Two rows of the
table are skipped on purpose (see SKIPPED); the invariants ops of the
benchmark's signatures workload keep their families covered at sizes that
finish.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from framedbraids import closure, framed, garside, parser
from framedbraids.words import BraidWord, sigma

SKIPPED = {
    "closure_s1^100000000_n2": "runs > 10 s: the closure scan walks every unit "
        "crossing; invariants covers the family at |e| <= 1e5",
    "closure_chain_n12": "runs ~113 s: factorial tie search in _canon; invariants "
        "covers tie-heavy chains at n <= 9",
}


def _random_braid(n: int, crossings: int, seed: int) -> BraidWord:
    """Random unit crossings, never a letter next to its inverse, so free
    reduction keeps all of them."""
    rng = random.Random(seed)
    letters: list = []
    while len(letters) < crossings:
        letter = sigma(rng.randint(1, n - 1), rng.choice((1, -1)))
        if not letters or letters[-1] != letter.inverse():
            letters.append(letter)
    return BraidWord(n, tuple(letters))


def _library(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _command(src: Path, *argv: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=600, check=True)
    return time.perf_counter() - start


def _cases(src: Path) -> dict:
    def nf(n: int, crossings: int):
        # the fixed seed makes every case the same word on every machine
        word = _random_braid(n, crossings, seed=n * 1000 + crossings)
        kept = sum(abs(letter.exponent) for letter in word.letters)
        return lambda: garside.to_normal_form(word), kept

    chain11 = " ".join(f"s{i}^2" for i in range(1, 11))
    fbk = ("-m", "framedbraids")
    cases = {}
    for n, crossings in ((4, 142), (8, 184), (16, 94), (16, 390)):
        fn, kept = nf(n, crossings)
        cases[f"garside_nf_n{n}_{crossings}"] = (lambda fn=fn: _library(fn),
                                                f"{kept} unit crossings after free reduction")
    cases.update({
        "hilden_verify_framed_hilden_n6": (
            lambda: _command(src, *fbk, "hilden-verify", "--suite", "framed_hilden", "--n", "6"),
            "whole fbk command"),
        "hilden_verify_hilden_1_n6": (
            lambda: _command(src, *fbk, "hilden-verify", "--suite", "hilden_1", "--n", "6"),
            "whole fbk command"),
        "fbk_fuzz_500": (lambda: _command(src, *fbk, "fuzz", "--trials", "500"),
                         "whole fbk command, default mix, seed 0"),
        "fbk_nf_cold_start": (lambda: _command(src, *fbk, "nf", "--n", "2", "s1^-1 t1 s1^2"),
                              "whole fbk command"),
        "python_pass": (lambda: _command(src, "-c", "pass"), "bare interpreter start"),
        "closure_chain_n11": (
            lambda: _library(lambda: closure.closure_signature(
                framed.normalize(parser.parse(chain11, 11)))),
            "s1^2 ... s10^2"),
    })
    return cases


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main(out: Path, src: Path) -> None:
    rows = {}
    for name, (timed, note) in _cases(src).items():
        first = timed()
        samples = [first] + ([timed() for _ in range(4)] if first < 1.0 else [])
        rows[name] = {"seconds": statistics.median(samples), "runs": len(samples), "note": note}
        print(f"{name:34} {rows[name]['seconds']:10.4f} s  ({len(samples)} runs)", flush=True)
    for name, why in SKIPPED.items():
        print(f"{name:34} skipped: {why}")
    out.write_text(json.dumps(
        {"machine": _machine(), "cases": rows, "skipped": SKIPPED}, indent=2) + "\n")
