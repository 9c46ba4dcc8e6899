"""
Plat closure invariants of framed braids on an even number of ribbons, the
plat-triviality test, and the framed Birman moves as calls of
moves.apply_move, which the benchmark traces under these names.

The plat closure caps adjacent endpoint pairs (2i-1, 2i) at the top and the
bottom of a 2n-ribbon braid. Each component is found by walking the cap
incidences from its smallest unvisited top endpoint, entering the braid
downward, which assigns every strand an up or down direction. The walk
reads the permutation off words.crossing_sums, the one strand scan, and
applies those directions to its strand pair totals itself, before
closure.component_sums adds them up: a crossing keeps its letter sign when
its strands run the same way and flips it otherwise. Self-crossings
accumulate into a component's self-writhe, and cross-component sums halve
into linking numbers, exposed as absolute values because a plat closure
carries no preferred orientation. A component's framing is the twist
total plus the self-writhe, invariant under reversing its traversal.

is_plat_trivial reads the plat signature: n/2 components, every framing 0
and every |linking| 0.

The cap tangle itself is never materialized; only the pairing rule exists.
Like the closure signatures, PlatSignature is a necessary invariant family
and is only ever used in the sound direction.
"""

from __future__ import annotations

from . import moves
# with_adjusted_framing is unused here: bench/tracing.py wraps it by name.
from .closure import (
    LinkComponent, _canonical, _Signature, component_sums, with_adjusted_framing,
)
from .framed import FramedBraid
from .words import crossing_sums


class PlatComponent(LinkComponent):
    __slots__ = ("traversal",)

    def __init__(self, strands: tuple[int, ...], framing: int,
                 traversal: tuple[tuple[int, str], ...]):
        set_strands, set_framing, set_traversal = self._setters
        set_strands(self, strands)
        set_framing(self, framing)
        set_traversal(self, traversal)


class PlatSignature(_Signature):
    __slots__ = ()

    @property
    def abs_linking(self) -> tuple[tuple[int, ...], ...]:
        """|linking| matrix in component order, stored once in the key."""
        return self.canonical_key[2]


def plat_signature(b: FramedBraid) -> PlatSignature:
    """Components, framings and |linking| of the plat closure of b."""
    if b.n % 2 != 0:
        raise ValueError(f"plat closure needs an even ribbon count, got {b.n}")
    pos2strand, pairs = crossing_sums(b.beta)
    exit_of = sorted(range(b.n + 1), key=pos2strand.__getitem__)  # the inverse map
    # Walk every component from its smallest top endpoint: down a strand,
    # across the bottom cap at its exit, up the strand entering there,
    # across a top cap. The cap partner of endpoint e is ((e - 1) ^ 1) + 1.
    comp_of = [-1] * (b.n + 1)
    direction = [0] * (b.n + 1)
    traversals: list[tuple[tuple[int, str], ...]] = []
    twists: list[int] = []
    for start in range(1, b.n + 1):
        if comp_of[start] >= 0:
            continue
        walk: list[tuple[int, str]] = []
        strand, total = start, 0
        while True:
            up = pos2strand[((exit_of[strand] - 1) ^ 1) + 1]
            walk += [(strand, "down"), (up, "up")]
            comp_of[strand] = comp_of[up] = len(traversals)
            direction[strand], direction[up] = 1, -1
            total += b.framings[strand - 1] + b.framings[up - 1]
            strand = ((up - 1) ^ 1) + 1
            if strand == start:
                break
        traversals.append(tuple(walk))
        twists.append(total)
    for pair in pairs:  # a crossing of strands run opposite ways flips sign
        if direction[pair[0]] != direction[pair[1]]:
            pairs[pair] = -pairs[pair]
    self_writhe, linking = component_sums(pairs, comp_of, len(traversals))
    framings = [t + w for t, w in zip(twists, self_writhe)]
    order, key = _canonical(framings, {pair: abs(v) for pair, v in linking.items()})
    components = tuple([
        PlatComponent(tuple(sorted([strand for strand, _ in traversals[c]])), framings[c],
                      traversals[c])
        for c in order
    ])
    return PlatSignature(components, ("plat",) + key)


def is_plat_trivial(b: FramedBraid) -> bool:
    """Necessary condition for the ribbon cap stabilizer: the plat closure
    is an unlink pattern of n zero-framed, pairwise unlinked components.

    It reads plat_signature(b): n/2 components, every framing 0 and every
    |linking| 0. The condition is not sufficient, so a True here never
    certifies membership; a False refutes it. Odd ribbon counts raise
    ValueError.
    """
    sig = plat_signature(b)
    return (sig.component_count == b.n // 2 and not any(sig.framings())
            and not any(map(any, sig.abs_linking)))


def double_coset_move(b: FramedBraid, h1: FramedBraid, h2: FramedBraid) -> FramedBraid:
    """b -> h1 b h2 for h1, h2 in the framed cap stabilizer; see apply_move."""
    return moves.apply_move(b, moves.MoveDescriptor("DoubleCoset", factors=(h1, h2)))


def framed_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """b -> b t_2n^-sign sigma_2n^sign from RB_2n into RB_(2n+2)."""
    return moves.apply_move(b, moves.MoveDescriptor("FramedStabilization", sign=sign))


def classical_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """b -> b sigma_2n^sign without the twist, the negative control."""
    return moves.apply_move(b, moves.MoveDescriptor("ClassicalStabilization", sign=sign))
