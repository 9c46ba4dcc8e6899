"""
Invariants of the standard closure of a framed braid.

Closing a braid joins each bottom position to the matching top position, so
the link components are the cycles of the braid permutation. Both come
from one words.crossing_sums scan: the strands left at the bottom positions
give the components, and each strand pair's signed crossing total goes to
the self-writhe of the component owning both strands or to the crossing
count of the component pair, whose half is the linking number.
component_sums adds these counts up in a dict keyed by component pair, so
its cost follows the strand pairs that cross. The dense matrix the
canonical order reads is filled once from it, and only when some pair sums
to nonzero: an unlinked closure is ordered by its framings alone.
Closure strands all run downward, so the crossing sign is the letter sign;
plat applies its strands' directions to the pair totals before it calls
component_sums, which never sees a direction.
closure_signature of a 10-letter word on 4 strands takes 16-28 us,
canonical order included (500 random words timed in process 21 times,
fastest run to upper quartile, in five rounds; 2-vCPU VM, Python 3.11).

A component's framing is the sum of its ribbons' twists plus, under the
default blackboard convention, its self-writhe. The integer convention
keeps the twist sum alone; that is the invariant preserved by the
integer-framed move set, where a new crossing does not count against the
framing of the strand it sits on.

The resulting LinkSignature is a necessary invariant family, not a complete
one: matching signatures never prove isotopy, and all theorem-facing checks
here use them only in that sound direction.
"""

from __future__ import annotations

from ._canon import canonical_order, unlinked_order
from .framed import FramedBraid
from .words import _Record, crossing_sums, exponent_sum

BLACKBOARD = "blackboard"
INTEGER = "integer"


class LinkComponent(_Record):
    __slots__ = ("strands", "framing")

    def __init__(self, strands: tuple[int, ...], framing: int):
        set_strands, set_framing = self._setters
        set_strands(self, strands)
        set_framing(self, framing)


class _Signature(_Record):
    """Fields of closure and plat signatures; each subclass names the matrix
    the key holds, so a plat signature never hands out |lk| as linking."""

    __slots__ = ("components", "canonical_key")

    def __init__(self, components: tuple[LinkComponent, ...], canonical_key: tuple):
        set_components, set_canonical_key = self._setters
        set_components(self, components)
        set_canonical_key(self, canonical_key)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def framings(self) -> tuple[int, ...]:
        return tuple(c.framing for c in self.components)


class LinkSignature(_Signature):
    __slots__ = ()

    @property
    def linking(self) -> tuple[tuple[int, ...], ...]:
        """Linking matrix in component order, stored once in the key."""
        return self.canonical_key[2]


def component_sums(
    pairs: dict[tuple[int, int], int], comp_of: list[int], k: int,
) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Self-writhe per component and the linking number of each component
    pair (c, d), c < d, that shares a crossing, from the signed strand pair
    totals."""
    self_writhe = [0] * k
    between: dict[tuple[int, int], int] = {}
    for (u, v), total in pairs.items():
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            self_writhe[cu] += total
        else:
            key = (cu, cv) if cu < cv else (cv, cu)
            between[key] = between.get(key, 0) + total
    for key, total in between.items():
        if total % 2:
            raise RuntimeError("odd inter-component crossing sum; crossing scan is buggy")
        between[key] = total // 2
    return self_writhe, between


def closure_signature(a: FramedBraid, convention: str = BLACKBOARD) -> LinkSignature:
    """Component partition, per-component framing and linking matrix."""
    if convention not in (BLACKBOARD, INTEGER):
        raise ValueError(f"unknown framing convention {convention!r}")
    pos2strand, pairs = crossing_sums(a.beta)
    # The cycles of the bottom-to-top map are those of the permutation.
    ribbon_twists = a.framings
    comp_of = [-1] * (a.n + 1)
    cycles: list[tuple[int, ...]] = []
    framings: list[int] = []
    for start in range(1, a.n + 1):
        if comp_of[start] < 0:
            c, cycle, twists, strand = len(cycles), [], 0, start
            while comp_of[strand] < 0:
                comp_of[strand] = c
                cycle.append(strand)
                twists += ribbon_twists[strand - 1]
                strand = pos2strand[strand]
            cycles.append(tuple(sorted(cycle)))
            framings.append(twists)
    k = len(cycles)
    self_writhe, linking = component_sums(pairs, comp_of, k)
    if convention == BLACKBOARD:
        framings = [f + w for f, w in zip(framings, self_writhe)]
    order, key = _canonical(framings, linking)
    components = tuple([LinkComponent(cycles[c], framings[c]) for c in order])
    return LinkSignature(components, (convention,) + key)


def _canonical(framings: list[int], entries: dict[tuple[int, int], int]) -> tuple[tuple, tuple]:
    """canonical_order of the framings and the symmetric matrix of the pair
    entries, zero elsewhere; with every entry 0 no matrix is built."""
    if not any(entries.values()):
        return unlinked_order(framings)
    matrix = [[0] * len(framings) for _ in framings]
    for (c, d), value in entries.items():
        matrix[c][d] = matrix[d][c] = value
    return canonical_order(framings, matrix)


def knot_framing(a: FramedBraid) -> int:
    """Framing of a one-component closure: the twist total plus the
    exponent sum of beta, which is the exponent sum of the spelled word.

    For a knot every crossing is a self-crossing, so that sum equals twist
    total plus writhe; the cross-check below guards the bookkeeping.
    """
    sig = closure_signature(a)
    if sig.component_count != 1:
        raise ValueError(
            f"closure has {sig.component_count} components, not a knot"
        )
    total = sum(a.framings) + exponent_sum(a.beta)
    if total != sig.components[0].framing:
        raise RuntimeError(
            "exponent sum differs from the closure framing; closure scan is buggy"
        )
    return total


def signatures_match(x, y) -> bool:
    """True when some component bijection matches framings and linking.

    Serves closure and plat signatures; the first key entry names the
    closure, so signatures of different closures never match.
    """
    return x.canonical_key == y.canonical_key


def with_adjusted_framing(sig, strand: int, delta: int):
    """Copy of a closure or plat signature with the framing of the component
    owning strand shifted.

    Used by the negative-control checks: an uncompensated stabilization
    should match the original signature after exactly this adjustment.
    """
    for target, component in enumerate(sig.components):
        if strand in component.strands:
            break
    else:
        raise ValueError(f"no component contains strand {strand}")
    components = list(sig.components)
    components[target] = component._replace(framing=component.framing + delta)
    order, key = canonical_order([c.framing for c in components], sig.canonical_key[2])
    return type(sig)(tuple([components[c] for c in order]), sig.canonical_key[:1] + key)
