"""
Plat closure invariants of framed braids on an even number of ribbons, and
the framed Birman move set.

The plat closure caps adjacent endpoint pairs (2i-1, 2i) at the top and the
bottom of a 2n-ribbon braid. Each component is found by walking the cap
incidences from its smallest unvisited top endpoint, entering the braid
downward, which assigns every strand an up or down direction. The crossing
scan of the closure module then runs with those directions, one syllable
at a time: a crossing keeps its letter sign when the two strands are
traversed the same way and flips it otherwise; self-crossings accumulate
into a component's self-writhe, and cross-component sums halve into linking
numbers, exposed as absolute values because a plat closure carries no
preferred orientation. Per-component framing is the twist total plus the
self-writhe, which is invariant under reversing any component's traversal.

The cap tangle itself is never materialized; only the pairing rule exists.
Like the closure signatures, PlatSignature is a necessary invariant family
and is only ever used in the sound direction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._canon import canonical_order
from .closure import crossing_sums, with_adjusted_framing
from .closure import signatures_match as plat_signatures_match
from .framed import FramedBraid, multiply
from .moves import stabilize
from .words import permutation_of


@dataclass(frozen=True)
class PlatComponent:
    strands: tuple[int, ...]
    framing: int
    traversal: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class PlatSignature:
    component_count: int
    components: tuple[PlatComponent, ...]
    canonical_key: tuple

    @property
    def abs_linking(self) -> tuple[tuple[int, ...], ...]:
        """|linking| matrix in component order, stored once in the key."""
        return self.canonical_key[2]

    def framings(self) -> tuple[int, ...]:
        return tuple(c.framing for c in self.components)


def _components_and_directions(
    b: FramedBraid, reverse: bool = False
) -> tuple[list[list[tuple[int, str]]], dict[int, int]]:
    """Traverse every plat component; reverse flips all traversals (tests)."""
    perm = permutation_of(b.beta)
    inv = perm.inverse()

    def partner(e: int) -> int:
        return e + 1 if e % 2 == 1 else e - 1

    traversals: list[list[tuple[int, str]]] = []
    direction: dict[int, int] = {}
    for start in range(1, b.n + 1):
        if start in direction:
            continue
        walk: list[tuple[int, str]] = []
        strand, down = start, True
        while True:
            walk.append((strand, "down" if down else "up"))
            direction[strand] = (1 if down else -1) * (-1 if reverse else 1)
            if down:
                exit_end = perm.apply(strand)
                strand = inv.apply(partner(exit_end))
                down = False
            else:
                strand = partner(strand)
                down = True
            if strand == start and down:
                break
        traversals.append(walk)
    return traversals, direction


def plat_signature(b: FramedBraid, _reverse: bool = False) -> PlatSignature:
    """Components, framings and |linking| of the plat closure of b."""
    if b.n % 2 != 0:
        raise ValueError(f"plat closure needs an even ribbon count, got {b.n}")
    traversals, direction = _components_and_directions(b, reverse=_reverse)
    comp_of = {
        strand: c for c, walk in enumerate(traversals) for strand, _ in walk
    }
    self_writhe, linking = crossing_sums(b.beta, comp_of, direction)
    abs_linking = [[abs(v) for v in row] for row in linking]
    framings = [
        sum(b.framings[strand - 1] for strand, _ in walk) + w
        for walk, w in zip(traversals, self_writhe)
    ]
    order, key = canonical_order(framings, abs_linking)
    components = tuple(
        PlatComponent(
            tuple(sorted(strand for strand, _ in traversals[c])),
            framings[c],
            tuple(traversals[c]),
        )
        for c in order
    )
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


def double_coset_move(
    b: FramedBraid, h1: FramedBraid, h2: FramedBraid, unchecked: bool = False
) -> FramedBraid:
    """The move b -> h1 b h2 for h1, h2 in the framed cap stabilizer.

    Unless unchecked is set, both factors must pass the plat-triviality
    test, which every product of the built-in framed Hilden generators
    does; arbitrary elements can change the plat closure and are only
    admitted explicitly.
    """
    if not (b.n == h1.n == h2.n):
        raise ValueError("double coset move needs equal ribbon counts")
    if not unchecked:
        for name, h in (("h1", h1), ("h2", h2)):
            if not is_plat_trivial(h):
                raise ValueError(
                    f"{name} does not look like a cap stabilizer element; "
                    "pass unchecked=True to force the move"
                )
    return multiply(multiply(h1, b), h2)


def framed_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """The move b -> b t_2n^-sign sigma_2n^sign from RB_2n into RB_(2n+2)."""
    if b.n % 2 != 0:
        raise ValueError(f"framed stabilization needs an even ribbon count, got {b.n}")
    return stabilize(b, 2, sign, framed=True)


def classical_stabilization(b: FramedBraid, sign: int) -> FramedBraid:
    """b -> b sigma_2n^sign without the twist, the negative control."""
    if b.n % 2 != 0:
        raise ValueError(f"stabilization needs an even ribbon count, got {b.n}")
    return stabilize(b, 2, sign, framed=False)
