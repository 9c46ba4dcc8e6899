"""
Invariants of the standard closure of a framed braid.

Closing a braid joins each bottom position to the matching top position, so
the link components are the cycles of the braid permutation. The braid part
is scanned once, one syllable s_i^e at a time: every crossing of the run
meets the same two strands, so the run adds e times its sign either to the
self-writhe of the component owning both strands or to the running signed
crossing count of the component pair, and swaps the two strands only when
e is odd. Linking numbers are half those counts. All closure strands are
coherently oriented downward, so the crossing sign is the letter sign
directly; the plat closure reuses the same scan with its own directions.

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

from dataclasses import dataclass, replace

from ._canon import canonical_order
from .framed import FramedBraid, spell
from .words import SIGMA, BraidWord, exponent_sum, permutation_of

BLACKBOARD = "blackboard"
INTEGER = "integer"


@dataclass(frozen=True)
class LinkComponent:
    strands: tuple[int, ...]
    framing: int


@dataclass(frozen=True)
class LinkSignature:
    component_count: int
    components: tuple[LinkComponent, ...]
    canonical_key: tuple

    @property
    def linking(self) -> tuple[tuple[int, ...], ...]:
        """Linking matrix in component order, stored once in the key."""
        return self.canonical_key[2]

    def framings(self) -> tuple[int, ...]:
        return tuple(c.framing for c in self.components)


def crossing_sums(
    beta: BraidWord, comp_of: dict[int, int], direction: dict[int, int]
) -> tuple[list[int], list[list[int]]]:
    """Self-writhe per component and signed linking matrix of a braid part;
    a crossing counts with its letter sign times its strands' directions."""
    k = len(set(comp_of.values()))
    self_writhe = [0] * k
    cross = [[0] * k for _ in range(k)]
    pos2strand = list(range(beta.n + 1))
    for letter in beta.letters:
        if letter.kind != SIGMA:
            continue
        i, e = letter.index, letter.exponent
        u, v = pos2strand[i], pos2strand[i + 1]
        adjusted = e * direction[u] * direction[v]
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv:
            self_writhe[cu] += adjusted
        else:
            cross[cu][cv] += adjusted
            cross[cv][cu] += adjusted
        if e % 2 != 0:
            pos2strand[i], pos2strand[i + 1] = v, u
    if any(total % 2 != 0 for row in cross for total in row):
        raise RuntimeError("odd inter-component crossing sum; crossing scan is buggy")
    return self_writhe, [[total // 2 for total in row] for row in cross]


def closure_signature(a: FramedBraid, convention: str = BLACKBOARD) -> LinkSignature:
    """Component partition, per-component framing and linking matrix."""
    if convention not in (BLACKBOARD, INTEGER):
        raise ValueError(f"unknown framing convention {convention!r}")
    cycles = permutation_of(a.beta).cycles()
    comp_of = {s: c for c, cycle in enumerate(cycles) for s in cycle}
    self_writhe, linking = crossing_sums(a.beta, comp_of, dict.fromkeys(comp_of, 1))
    framings = [sum(a.framings[s - 1] for s in cycle) for cycle in cycles]
    if convention == BLACKBOARD:
        framings = [f + w for f, w in zip(framings, self_writhe)]
    order, key = canonical_order(framings, linking)
    components = tuple(
        LinkComponent(tuple(sorted(cycles[c])), framings[c]) for c in order
    )
    return LinkSignature(len(cycles), components, (convention,) + key)


def knot_framing(a: FramedBraid) -> int:
    """Framing of a one-component closure: the spelled exponent sum.

    For a knot every crossing is a self-crossing, so the exponent sum of
    the spelled word equals twist total plus writhe; the cross-check below
    guards the bookkeeping.
    """
    sig = closure_signature(a)
    if sig.component_count != 1:
        raise ValueError(
            f"closure has {sig.component_count} components, not a knot"
        )
    total = exponent_sum(spell(a))
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
    target = None
    for idx, component in enumerate(sig.components):
        if strand in component.strands:
            target = idx
            break
    if target is None:
        raise ValueError(f"no component contains strand {strand}")
    framings = [c.framing for c in sig.components]
    framings[target] += delta
    order, key = canonical_order(framings, sig.canonical_key[2])
    components = tuple(
        replace(sig.components[c], framing=framings[c]) for c in order
    )
    return replace(sig, components=components, canonical_key=sig.canonical_key[:1] + key)
