"""
Randomized move-invariance trials with deterministic, diffable reports.

Each trial samples a framed braid, applies one admissible move, and checks
the signature law that move promises: blackboard closure signatures for RL,
RM, conjugation and twist-conjugation moves, integer-framing signatures for
the integer RL moves, plat signatures for double coset and framed
stabilization moves. The uncompensated M and L moves are negative controls:
their trials pass exactly when the affected component's framing drifts by
the crossing sign and nothing else changes.

Every trial derives its own RNG from (seed, trial index), so reports are
byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import hilden
from .closure import (
    INTEGER,
    closure_signature,
    signatures_match,
    with_adjusted_framing,
)
from .framed import FramedBraid, framed_equal, inverse, multiply
from .moves import MoveDescriptor, apply_move, conjugate, tau_conjugation_as_RL_sequence
from .parser import format_word
from .plat import (
    classical_stabilization,
    double_coset_move,
    framed_stabilization,
    plat_signature,
    plat_signatures_match,
)
from .words import BraidWord, sigma

CLOSURE_KINDS = ("RL_over", "RL_under", "IntRL_over", "IntRL_under", "RM", "Conjugation", "TauConjugation")
CONTROL_KINDS = ("M", "L_over", "L_under")
PLAT_KINDS = ("DoubleCoset", "FramedStabilization", "ClassicalStabilization")
ALL_KINDS = CLOSURE_KINDS + CONTROL_KINDS + PLAT_KINDS

DEFAULT_MIX = tuple((kind, 1) for kind in CLOSURE_KINDS + ("DoubleCoset", "FramedStabilization"))


@dataclass(frozen=True)
class FuzzConfig:
    seed: int
    trials: int
    n_range: tuple[int, int] = (1, 5)
    word_length_range: tuple[int, int] = (0, 12)
    move_mix: tuple[tuple[str, int], ...] = DEFAULT_MIX

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_range[0] > self.n_range[1] or self.n_range[0] < 1:
            raise ValueError(f"bad strand range {self.n_range}")
        if self.word_length_range[0] > self.word_length_range[1]:
            raise ValueError(f"bad length range {self.word_length_range}")
        for kind, weight in self.move_mix:
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown move kind {kind!r}")
            if weight < 0:
                raise ValueError("move weights must be >= 0")
        if not any(w > 0 for _, w in self.move_mix):
            raise ValueError("move mix has no positive weight")


def sample_framed_braid(rng: random.Random, n: int, length: int) -> FramedBraid:
    """Twist vector in [-3,3]^n plus a sigma word with exponents in +-[1,3]."""
    framings = tuple(rng.randint(-3, 3) for _ in range(n))
    letters = []
    for _ in range(length if n >= 2 else 0):
        exponent = rng.choice([-3, -2, -1, 1, 2, 3])
        letters.append(sigma(rng.randint(1, n - 1), exponent))
    return FramedBraid(n, framings, BraidWord(n, tuple(letters)))


def sample_hilden_product(rng: random.Random, half: int, max_factors: int) -> FramedBraid:
    """A short product of built-in framed Hilden generators and inverses."""
    names = ["theta", "omega"]
    if half >= 2:
        names += ["p", "s"]
    out = FramedBraid.identity(2 * half)
    for _ in range(rng.randint(0, max_factors)):
        name = rng.choice(names)
        top = half if name in ("theta", "omega") else half - 1
        factor = hilden.framed_hilden_generator(name, rng.randint(1, top), half)
        if rng.random() < 0.5:
            factor = inverse(factor)
        out = multiply(out, factor)
    return out


def _trial(kind: str, rng: random.Random, config: FuzzConfig) -> tuple[bool, dict]:
    lo, hi = config.n_range
    llo, lhi = config.word_length_range
    detail: dict = {"kind": kind}
    if kind in PLAT_KINDS:
        half = max(2, rng.randint(max(1, lo // 2), max(2, hi // 2)))
        braid = sample_framed_braid(rng, 2 * half, rng.randint(llo, lhi))
        before = plat_signature(braid)
        if kind == "DoubleCoset":
            h1 = sample_hilden_product(rng, half, 6)
            h2 = sample_hilden_product(rng, half, 6)
            after = plat_signature(double_coset_move(braid, h1, h2))
            ok = plat_signatures_match(before, after)
        elif kind == "FramedStabilization":
            sign = rng.choice([-1, 1])
            after = plat_signature(framed_stabilization(braid, sign))
            ok = plat_signatures_match(before, after)
        else:
            sign = rng.choice([-1, 1])
            detail["drift"] = sign
            moved = classical_stabilization(braid, sign)
            after = plat_signature(moved)
            adjusted = with_adjusted_framing(after, braid.n + 1, -sign)
            ok = (not plat_signatures_match(before, after)) and plat_signatures_match(
                before, adjusted
            )
        detail.update(n=braid.n, framings=list(braid.framings), beta=format_word(braid.beta))
        return ok, detail

    n = rng.randint(lo, hi)
    braid = sample_framed_braid(rng, n, rng.randint(llo, lhi))
    detail.update(n=n, framings=list(braid.framings), beta=format_word(braid.beta))
    word_len = len(braid.beta.letters) + sum(1 for f in braid.framings if f != 0)
    if kind in ("RL_over", "RL_under", "IntRL_over", "IntRL_under", "L_over", "L_under"):
        descriptor = MoveDescriptor(
            kind,
            split=rng.randint(0, word_len),
            index=rng.randint(1, n),
            sign=rng.choice([-1, 1]),
            k=rng.choice([-1, 0, 1]) if kind.startswith("IntRL") else 0,
        )
        detail["descriptor"] = {
            "kind": kind, "split": descriptor.split, "index": descriptor.index,
            "sign": descriptor.sign, "k": descriptor.k,
        }
        convention = INTEGER if kind.startswith("IntRL") else "blackboard"
        before = closure_signature(braid, convention)
        moved = apply_move(braid, descriptor)
        after = closure_signature(moved, convention)
        if kind.startswith(("RL", "IntRL")):
            return signatures_match(before, after), detail
        # Plain L-move control: the new strand enters at position index+1 in
        # the dragged word, and its component absorbs the uncompensated kink.
        detail["drift"] = descriptor.sign
        adjusted = with_adjusted_framing(after, descriptor.index + 1, -descriptor.sign)
        ok = (not signatures_match(before, after)) and signatures_match(before, adjusted)
        return ok, detail
    if kind == "M":
        sign = rng.choice([-1, 1])
        detail["descriptor"] = {"kind": kind, "sign": sign}
        detail["drift"] = sign
        before = closure_signature(braid)
        after = closure_signature(apply_move(braid, MoveDescriptor("M", sign=sign)))
        adjusted = with_adjusted_framing(after, n + 1, -sign)
        ok = (not signatures_match(before, after)) and signatures_match(before, adjusted)
        return ok, detail
    if kind == "RM":
        sign = rng.choice([-1, 1])
        detail["descriptor"] = {"kind": kind, "sign": sign}
        before = closure_signature(braid)
        after = closure_signature(apply_move(braid, MoveDescriptor("RM", sign=sign)))
        return signatures_match(before, after), detail
    if kind == "Conjugation":
        g = sample_framed_braid(rng, n, rng.randint(llo, lhi))
        detail["descriptor"] = {
            "kind": kind, "conjugator_framings": list(g.framings),
            "conjugator_beta": format_word(g.beta),
        }
        before = closure_signature(braid)
        after = closure_signature(conjugate(braid, g))
        return signatures_match(before, after), detail
    if kind == "TauConjugation":
        i = rng.randint(1, n)
        exp = rng.choice([-1, 1])
        detail["descriptor"] = {"kind": kind, "index": i, "sign": exp}
        before = closure_signature(braid)
        steps = tau_conjugation_as_RL_sequence(braid, i, exp)
        for _, element in steps:
            if not signatures_match(before, closure_signature(element)):
                return False, detail
        twist = FramedBraid(n, tuple(exp if j == i - 1 else 0 for j in range(n)), BraidWord.identity(n))
        return framed_equal(steps[-1][1], conjugate(braid, twist)), detail
    raise ValueError(f"unknown move kind {kind!r}")


def run_fuzz(config: FuzzConfig) -> dict:
    """Execute the configured trials; the report is JSON-serializable."""
    kinds = [k for k, w in config.move_mix for _ in range(w)]
    per_kind: dict[str, dict[str, int]] = {}
    first_failure = None
    passed = 0
    for index in range(config.trials):
        rng = random.Random(f"{config.seed}:{index}")
        kind = rng.choice(kinds)
        ok, detail = _trial(kind, rng, config)
        bucket = per_kind.setdefault(kind, {"trials": 0, "passed": 0})
        bucket["trials"] += 1
        if "drift" in detail:
            key = "drift_+1" if detail["drift"] > 0 else "drift_-1"
            bucket[key] = bucket.get(key, 0) + 1
        if ok:
            passed += 1
            bucket["passed"] += 1
        elif first_failure is None:
            first_failure = dict(detail, trial=index, seed=config.seed)
    return {
        "config": {
            "seed": config.seed,
            "trials": config.trials,
            "n_range": list(config.n_range),
            "word_length_range": list(config.word_length_range),
            "move_mix": {k: w for k, w in sorted(config.move_mix)},
        },
        "trials": config.trials,
        "passed": passed,
        "failed": config.trials - passed,
        "per_kind": {k: per_kind[k] for k in sorted(per_kind)},
        "first_failure": first_failure,
    }
