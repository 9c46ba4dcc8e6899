"""
Plat closure invariants of framed braids on an even number of ribbons, the
plat-triviality test, and the framed Birman moves as calls of
moves.apply_move, which the benchmark traces under these names.

The plat closure caps adjacent endpoint pairs (2i-1, 2i) at the top and the
bottom of a 2n-ribbon braid. Each component is found by walking the cap
incidences from its smallest unvisited top endpoint, entering the braid
downward, which assigns every strand an up or down direction. The walk
reads the permutation off the closure module's crossing scan, whose strand
pair totals then count with those directions: a crossing keeps its letter
sign when the two strands are traversed the same way and flips it
otherwise; self-crossings accumulate into a component's self-writhe, and
cross-component sums halve into linking numbers, exposed as absolute values
because a plat closure carries no preferred orientation. Per-component
framing is the twist total plus the self-writhe, which is invariant under
reversing any component's traversal.

The cap tangle itself is never materialized; only the pairing rule exists.
Like the closure signatures, PlatSignature is a necessary invariant family
and is only ever used in the sound direction.
"""

from __future__ import annotations

from . import moves
from ._canon import canonical_order
# Unused here: bench/tracing.py wraps plat.with_adjusted_framing by name.
from .closure import component_sums, crossing_sums, with_adjusted_framing
from .framed import FramedBraid
from .words import _Record


class PlatComponent(_Record):
    __slots__ = ("strands", "framing", "traversal")

    def __init__(self, strands: tuple[int, ...], framing: int,
                 traversal: tuple[tuple[int, str], ...]):
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "framing", framing)
        object.__setattr__(self, "traversal", traversal)


class PlatSignature(_Record):
    __slots__ = ("component_count", "components", "canonical_key")

    def __init__(self, component_count: int, components: tuple[PlatComponent, ...],
                 canonical_key: tuple):
        object.__setattr__(self, "component_count", component_count)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "canonical_key", canonical_key)

    @property
    def abs_linking(self) -> tuple[tuple[int, ...], ...]:
        """|linking| matrix in component order, stored once in the key."""
        return self.canonical_key[2]

    def framings(self) -> tuple[int, ...]:
        return tuple(c.framing for c in self.components)


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
    self_writhe, linking = component_sums(pairs, comp_of, direction, len(traversals))
    abs_linking = [[abs(v) for v in row] for row in linking]
    framings = [t + w for t, w in zip(twists, self_writhe)]
    order, key = canonical_order(framings, abs_linking)
    components = tuple([
        PlatComponent(
            tuple(sorted([strand for strand, _ in traversals[c]])),
            framings[c],
            traversals[c],
        )
        for c in order
    ])
    return PlatSignature(len(traversals), components, ("plat",) + key)


def is_plat_trivial(b: FramedBraid) -> bool:
    """Necessary condition for the ribbon cap stabilizer: the plat closure
    is an unlink pattern of n zero-framed, pairwise unlinked components.

    The condition is not sufficient, so a True here never certifies
    membership; a False refutes it. Odd ribbon counts raise ValueError.
    """
    sig = plat_signature(b)
    return (
        sig.component_count == b.n // 2
        and all(c.framing == 0 for c in sig.components)
        and all(v == 0 for row in sig.abs_linking for v in row)
    )


def double_coset_move(b: FramedBraid, h1: FramedBraid, h2: FramedBraid) -> FramedBraid:
    """b -> h1 b h2 for h1, h2 in the framed cap stabilizer; see apply_move."""
    return moves.apply_move(b, moves.MoveDescriptor("DoubleCoset", factors=(h1, h2)))


def framed_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """b -> b t_2n^-sign sigma_2n^sign from RB_2n into RB_(2n+2)."""
    return moves.apply_move(b, moves.MoveDescriptor("FramedStabilization", sign=sign))


def classical_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """b -> b sigma_2n^sign without the twist, the negative control."""
    return moves.apply_move(b, moves.MoveDescriptor("ClassicalStabilization", sign=sign))
