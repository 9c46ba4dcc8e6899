"""
Randomized move-invariance trials with deterministic, diffable reports.

Each trial samples a framed braid and a MoveDescriptor, applies it with
moves.apply_move, and checks the signature law that move promises:
blackboard closure signatures for RL, RM, conjugation and twist-conjugation
moves, integer-framing signatures for the integer RL moves, plat signatures
for double coset and framed stabilization moves. The uncompensated M, L and
classical stabilization moves are negative controls: their trials pass
exactly when the affected component's framing drifts by the crossing sign
and nothing else changes. Plat trials use an even strand count of at least
4 inside the configured range; a configuration that gives a plat move
weight over a range without one is rejected, and so is a seed, trial
count, range bound or weight that is not an int. The move mix names each
kind at most once, and a trial draws its kind in proportion to the
weights, at a cost that does not grow with them. A failed trial's report
records the descriptor as moves.descriptor_json writes it: its kind, each
field that kind reads and each factor under its name as one DSL word.
That is the form moves.descriptor_from_json and the flags of `fbk move`
read back, so the failure replays.

Every trial reseeds one generator from (seed, trial index) and draws as
its randint would, so reports are byte-identical across runs with the same
configuration. A default trial takes 0.09-0.15 ms in process (2000-trial
runs, seeds 0-5, twice each, in five rounds), and `fbk fuzz --trials 500`
0.14-0.16 s for the whole process with its bytecode cached, most of it
interpreter start-up (ten runs; 2-vCPU Xeon VM, Python 3.11).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from . import hilden
from .closure import (
    BLACKBOARD,
    INTEGER,
    closure_signature,
    signatures_match,
    with_adjusted_framing,
)
from .framed import FramedBraid, _framed, _normal_form
from .moves import (FACTOR_NAMES, FIELD_VALUES, FIELDS_READ, INT_RL_KINDS, L_FAMILY_KINDS,
                    MOVE_KINDS, PLAT_KINDS, MoveDescriptor, apply_move, descriptor_json,
                    tau_conjugation_as_RL_sequence)
from .parser import format_word
from .plat import plat_signature
from .words import BraidWord, Letter, _Record, sigma

CONTROL_KINDS = ("M", "L_over", "L_under")
CLOSURE_KINDS = tuple(k for k in MOVE_KINDS if k not in CONTROL_KINDS + PLAT_KINDS)
ALL_KINDS = CLOSURE_KINDS + CONTROL_KINDS + PLAT_KINDS

DEFAULT_MIX = tuple((kind, 1) for kind in CLOSURE_KINDS + ("DoubleCoset", "FramedStabilization"))


class FuzzConfig(_Record):
    __slots__ = ("seed", "trials", "n_range", "word_length_range", "move_mix")

    def __init__(self, seed: int, trials: int, n_range: tuple[int, int] = (1, 5),
                 word_length_range: tuple[int, int] = (0, 12),
                 move_mix: tuple[tuple[str, int], ...] = DEFAULT_MIX):
        # bool is an int subclass, so test the exact type; a bool or float
        # seed would seed another stream, any other float would reach
        # run_fuzz and fail there
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        if type(trials) is not int:
            raise ValueError(f"trials must be an int, got {trials!r}")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        for name, pair in (("n_range", n_range), ("word_length_range", word_length_range)):
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and type(pair[0]) is type(pair[1]) is int):
                raise ValueError(f"{name} must be a pair of ints, got {pair!r}")
        if n_range[0] > n_range[1] or n_range[0] < 1:
            raise ValueError(f"bad strand range {n_range}")
        if word_length_range[0] > word_length_range[1] or word_length_range[0] < 0:
            raise ValueError(f"bad length range {word_length_range}")
        for i, (kind, weight) in enumerate(move_mix):
            if kind not in ALL_KINDS:
                raise ValueError(f"unknown move kind {kind!r}")
            if any(kind == other for other, _ in move_mix[:i]):
                raise ValueError(f"move kind {kind!r} is listed twice")
            if type(weight) is not int:
                raise ValueError(f"move_mix weights must be ints, got {weight!r} for {kind!r}")
            if weight < 0:
                raise ValueError("move weights must be >= 0")
        if not any(w > 0 for _, w in move_mix):
            raise ValueError("move mix has no positive weight")
        lo_half, hi_half = _plat_halves(n_range)
        if lo_half > hi_half and any(k in PLAT_KINDS and w > 0 for k, w in move_mix):
            raise ValueError(f"plat moves need an even strand count >= 4 in {n_range}")
        self._store(seed, trials, n_range, word_length_range,
                    tuple([(kind, weight) for kind, weight in move_mix]))


def _plat_halves(n_range: tuple[int, int]) -> tuple[int, int]:
    """Bounds on the half strand count of a plat trial: 2h in n_range, h >= 2."""
    lo, hi = n_range
    return max(2, -(-lo // 2)), hi // 2


_EXPONENTS = (-3, -2, -1, 1, 2, 3)


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """Random.randint(lo, hi), also behind choice and randrange, by the same
    getrandbits calls: the same value and next state, without its checks."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def sample_framed_braid(rng: random.Random, n: int, length: int) -> FramedBraid:
    """Twist vector in [-3,3]^n plus a sigma word with exponents in +-[1,3]."""
    framings = tuple([_randint(rng, -3, 3) for _ in range(n)])
    letters = []
    for _ in range(length if n >= 2 else 0):
        exponent = _EXPONENTS[_randint(rng, 0, 5)]
        letters.append(sigma(_randint(rng, 1, n - 1), exponent))
    return _framed(n, framings, BraidWord(n, tuple(letters)))


_Letters = tuple[Letter, ...]


@lru_cache(maxsize=64)
def _hilden_letters(half: int) -> tuple[tuple[tuple[_Letters, _Letters], ...], ...]:
    """Per framed Hilden name that exists in RB_2half, in table order, the
    letters of name_i, its hilden.GENERATORS row, and that row reversed and
    inverted, for each index i; tuples, as the memo hands the same value to
    every caller."""
    out = []
    for name in hilden.SUITE_GENERATORS[hilden.FRAMED_SUITE]:
        rows = [hilden.GENERATORS[name][1](i) for i in range(1, hilden.top_index(name, half) + 1)]
        if rows:
            out.append(tuple([(row, tuple([letter.inverse() for letter in reversed(row)]))
                              for row in rows]))
    return tuple(out)


def sample_hilden_product(rng: random.Random, half: int, max_factors: int) -> FramedBraid:
    """A short product of built-in framed Hilden generators and inverses.
    Each factor draws its name, index and side alike from a memo of the
    generators' letters: a choice draws on the length of its list alone."""
    names = _hilden_letters(half)
    letters: list[Letter] = []
    for _ in range(_randint(rng, 0, max_factors)):
        indices = names[_randint(rng, 0, len(names) - 1)]
        word, inverted = indices[_randint(rng, 0, len(indices) - 1)]
        letters += inverted if rng.random() < 0.5 else word
    return _normal_form(2 * half, letters)


def _control_passes(detail: dict, before, after, strand: int, sign: int) -> bool:
    """Record the drift and check the negative-control law: the move changes
    the signature, and lowering the framing of the component through strand
    by sign restores it."""
    detail["drift"] = sign
    return not signatures_match(before, after) and signatures_match(
        before, with_adjusted_framing(after, strand, -sign)
    )


def _draw(name: str, rng: random.Random, braid: FramedBraid, config: FuzzConfig):
    """A random value of one descriptor field or factor of a move on braid."""
    n = braid.n
    if name == "split":
        return _randint(rng, 0, len(braid.beta.letters) + n - braid.framings.count(0))
    if name == "index":
        return _randint(rng, 1, n)
    if name in FIELD_VALUES:
        return FIELD_VALUES[name][_randint(rng, 0, len(FIELD_VALUES[name]) - 1)]
    if name == "conjugator":
        return sample_framed_braid(rng, n, _randint(rng, *config.word_length_range))
    return sample_hilden_product(rng, n // 2, 6)  # h1 or h2


def _trial(kind: str, rng: random.Random, config: FuzzConfig) -> tuple[bool, dict]:
    lo, hi = config.n_range
    if kind in PLAT_KINDS:
        lo_half, hi_half = _plat_halves(config.n_range)
        n = 2 * max(lo_half, _randint(rng, max(1, lo // 2), hi_half))
    else:
        n = _randint(rng, lo, hi)
    braid = sample_framed_braid(rng, n, _randint(rng, *config.word_length_range))
    # The kind's fields, then its factors, in table order: the order of the
    # draws fixes every report byte.
    fields = {name: _draw(name, rng, braid, config)
              for name in FIELDS_READ[kind] if name != "factors"}
    factors = tuple([_draw(name, rng, braid, config) for name in FACTOR_NAMES.get(kind, ())])
    d = MoveDescriptor(kind, factors=factors, **fields)
    detail = {"kind": kind, "n": n, "framings": list(braid.framings), "beta": braid.beta,
              "descriptor": d}
    moved = apply_move(braid, d)
    if kind in PLAT_KINDS:
        before, after = plat_signature(braid), plat_signature(moved)
    else:
        convention = INTEGER if kind in INT_RL_KINDS else BLACKBOARD
        before = closure_signature(braid, convention)
        after = closure_signature(moved, convention)
    if kind in CONTROL_KINDS or kind == "ClassicalStabilization":
        # An L-move's new strand enters at position index+1 in the dragged
        # word; in the plain control its component absorbs the kink. A
        # stabilization's new strand is n+1.
        strand = d.index + 1 if kind in L_FAMILY_KINDS else n + 1
        return _control_passes(detail, before, after, strand, d.sign), detail
    ok = signatures_match(before, after)
    if ok and kind == "TauConjugation":
        # The move is also the endpoint of its RL chain, whose two RL words
        # spell one element with the signature of braid.
        e1, e2, e3 = tau_conjugation_as_RL_sequence(braid, d.index, d.sign)
        ok = e1 == e2 and e3 == moved and signatures_match(before, closure_signature(e1))
    return ok, detail


def run_fuzz(config: FuzzConfig) -> dict:
    """Execute the configured trials; the report is JSON-serializable."""
    # A draw below the total over the cumulative weights is the draw that
    # Random.choice makes over a list holding each kind weight times.
    kinds = [k for k, _ in config.move_mix]
    bounds = list(accumulate(w for _, w in config.move_mix))
    per_kind: dict[str, dict[str, int]] = {}
    first_failure = None
    passed = 0
    rng = random.Random()
    for index in range(config.trials):
        rng.seed(f"{config.seed}:{index}")  # as random.Random(...) would seed it
        kind = kinds[bisect_right(bounds, _randint(rng, 0, bounds[-1] - 1))]
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
            first_failure = dict(detail, beta=format_word(detail["beta"]),
                                 descriptor=descriptor_json(detail["descriptor"]),
                                 trial=index, seed=config.seed)
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
