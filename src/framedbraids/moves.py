"""
The braid-level moves: inclusions, L-moves and their framed and integer
variants, (R)M-moves, conjugations, and the framing-transfer solver.

All cut-and-reroute moves are applied through their fully right-dragged
word forms. Writing iota for the natural inclusion into B_(n+1) and s for
the crossing sign, the classical over and under L-moves at position i on a
split a = a1 a2 are

  over:  s(i+1..n)^-1  iota(a1)  s(i..n-1)^-1       sn^s  s(n-1..i)    iota(a2)  s(n..i+1)
  under: s(i+1..n)     iota(a1)  s(i..n-1)          sn^s  s(n-1..i)^-1 iota(a2)  s(n..i+1)^-1

where s(a..b) is the ascending or descending run of crossings. The framed
RL variants insert a compensating twist of exponent -s on the cut ribbon
immediately before the new crossing, so the spelled exponent sum is
unchanged and the blackboard framing of the cut component survives the new
kink. The integer variants
instead wrap the word in t_(i+1)^k ... t_(i+1)^-k with k in {-1, 0, 1};
they preserve the integer-framing signature, not the blackboard one.

The general over and under inclusions o_i, u_i realize "insert a strand at
position i passing entirely over (under) everything" by dragging the new
rightmost strand of the natural inclusion across: a strand moving sideways
as the over strand crosses positively leftward and negatively rightward
under the sign convention fixed in the words module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .framed import FramedBraid, include_natural as include_framed, inverse, multiply, normalize, spell
from .words import BraidWord, Letter, Permutation, concat, include_natural, sigma, tau

L_KINDS = ("L_over", "L_under")
RL_KINDS = ("RL_over", "RL_under")
INT_RL_KINDS = ("IntRL_over", "IntRL_under")
MOVE_KINDS = L_KINDS + RL_KINDS + INT_RL_KINDS + (
    "M",
    "RM",
    "Conjugation",
    "TauConjugation",
)


@dataclass(frozen=True)
class MoveDescriptor:
    """Parameters of one move, enough to apply it or to undo it.

    split and index parametrize the L family (cut point in the word and
    insertion position of the new strand); sign is the new crossing sign;
    k is the integer-framing pair of the integer moves; conjugator is used
    by the Conjugation kind. form selects between the two word variants of
    an (R)L-move (1 inserts right of the cut column, 2 left); inverse marks
    a step that undoes the move, as emitted in move sequences.
    """

    kind: str
    split: int = 0
    index: int = 1
    sign: int = 1
    k: int = 0
    conjugator: FramedBraid | None = None
    form: int = 1
    inverse: bool = False

    def __post_init__(self):
        if self.kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.k not in (-1, 0, 1):
            raise ValueError(f"k must lie in {{-1, 0, 1}}, got {self.k}")
        if self.split < 0:
            raise ValueError(f"split must be >= 0, got {self.split}")
        if self.index < 1:
            raise ValueError(f"index must be >= 1, got {self.index}")
        if self.form not in (1, 2):
            raise ValueError(f"form must be 1 or 2, got {self.form}")


def _run(lo: int, hi: int, exponent: int) -> list[Letter]:
    """Ascending crossing run sigma_lo ... sigma_hi; empty when lo > hi."""
    return [sigma(i, exponent) for i in range(lo, hi + 1)]


def over_inclusion(a: BraidWord, i: int) -> BraidWord:
    """o_i: insert a strand at position i that passes over the whole braid."""
    return _dragged_inclusion(a, i, over=True)


def under_inclusion(a: BraidWord, i: int) -> BraidWord:
    """u_i: insert a strand at position i that passes under the whole braid."""
    return _dragged_inclusion(a, i, over=False)


def _dragged_inclusion(a: BraidWord, i: int, over: bool) -> BraidWord:
    n = a.n
    if not 1 <= i <= n + 1:
        raise ValueError(f"insertion position {i} out of range for n={n}")
    drag = -1 if over else 1
    letters = (
        tuple(_run(i, n, drag))
        + a.letters
        + tuple(reversed(_run(i, n, -drag)))
    )
    return BraidWord(n + 1, letters)


def _split(a: BraidWord, split: int) -> tuple[BraidWord, BraidWord]:
    if not 0 <= split <= len(a.letters):
        raise ValueError(
            f"split {split} out of range for a word of {len(a.letters)} letters"
        )
    return BraidWord(a.n, a.letters[:split]), BraidWord(a.n, a.letters[split:])


def _l_move_letters(
    a1: BraidWord, a2: BraidWord, i: int, sign: int, over: bool, twist: int
) -> BraidWord:
    """The dragged word shared by the L, RL and integer RL families.

    twist is the exponent of the compensating twist inserted before the new
    crossing; 0 gives the classical word. In the un-dragged form that twist
    is t_i, sitting on the cut ribbon; sliding it right through the run
    sigma_i^-1 ... sigma_(n-1)^-1 relabels it letter by letter up to t_n,
    which is where the cut ribbon lives when the new crossing happens. The
    index must follow the ribbon or the compensation lands on a bystander
    component and the framed closure changes.
    """
    n = a1.n
    if not 1 <= i <= n:
        raise ValueError(f"L-move position {i} out of range for n={n}")
    conj = -1 if over else 1
    middle: list[Letter] = []
    if twist != 0:
        middle.append(tau(n, twist))
    middle.append(sigma(n, sign))
    letters = (
        tuple(_run(i + 1, n, conj))
        + include_natural(a1, 1).letters
        + tuple(_run(i, n - 1, conj))
        + tuple(middle)
        + tuple(reversed(_run(i, n - 1, -conj)))
        + include_natural(a2, 1).letters
        + tuple(reversed(_run(i + 1, n, -conj)))
    )
    return BraidWord(n + 1, letters)


def apply_L_move(a: BraidWord, d: MoveDescriptor) -> BraidWord:
    """Classical L-move: cut a at d.split, reroute through strand d.index.

    The result lies in B_(n+1) and closes to the same link; with coherent
    downward orientation the writhe changes by exactly d.sign, which is why
    the framed variant exists.
    """
    if d.kind not in L_KINDS:
        raise ValueError(f"apply_L_move cannot apply kind {d.kind!r}")
    a1, a2 = _split(a, d.split)
    return _l_move_letters(a1, a2, d.index, d.sign, d.kind == "L_over", twist=0)


def apply_RL_move(a: FramedBraid, d: MoveDescriptor) -> FramedBraid:
    """Framed L-move: the new crossing arrives with an opposite twist.

    The compensating t_d.index^-sign neutralizes the kink the crossing adds
    to the cut component, so the blackboard closure signature is preserved.
    """
    if d.kind not in RL_KINDS:
        raise ValueError(f"apply_RL_move cannot apply kind {d.kind!r}")
    word = spell(a)
    a1, a2 = _split(word, d.split)
    moved = _l_move_letters(
        a1, a2, d.index, d.sign, d.kind == "RL_over", twist=-d.sign
    )
    return normalize(moved)


def apply_integer_RL_move(a: FramedBraid, d: MoveDescriptor) -> FramedBraid:
    """Integer framed L-move: wrap in t_(i+1)^k ... t_(i+1)^-k, k in {-1,0,1}."""
    if d.kind not in INT_RL_KINDS:
        raise ValueError(f"apply_integer_RL_move cannot apply kind {d.kind!r}")
    word = spell(a)
    a1, a2 = _split(word, d.split)
    core = _l_move_letters(
        a1, a2, d.index, d.sign, d.kind == "IntRL_over", twist=0
    )
    wrapped: tuple[Letter, ...] = core.letters
    if d.k != 0:
        wrapped = (tau(d.index + 1, d.k),) + wrapped + (tau(d.index + 1, -d.k),)
    return normalize(BraidWord(core.n, wrapped))


def stabilize(a: FramedBraid, m: int, sign: int, framed: bool) -> FramedBraid:
    """Widen a by m ribbons, then append sigma_n^sign, preceded by the
    compensating twist t_n^-sign when framed is set."""
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +-1, got {sign}")
    wide = include_framed(a, m)
    twist = (tau(a.n, -sign),) if framed else ()
    step = BraidWord(wide.n, twist + (sigma(a.n, sign),))
    return normalize(concat(spell(wide), step))


def apply_M_move(a: FramedBraid, sign: int) -> FramedBraid:
    """Plain stabilization a sigma_n^sign, the unframed negative control."""
    return stabilize(a, 1, sign, framed=False)


def apply_RM_move(a: FramedBraid, sign: int) -> FramedBraid:
    """Framed stabilization a t_n^-sign sigma_n^sign into RB_(n+1)."""
    return stabilize(a, 1, sign, framed=True)


def conjugate(a: FramedBraid, g: FramedBraid) -> FramedBraid:
    """g^-1 a g in RB_n."""
    if a.n != g.n:
        raise ValueError(f"cannot conjugate across RB_{a.n} and RB_{g.n}")
    return multiply(multiply(inverse(g), a), g)


def tau_conjugation_as_RL_sequence(
    a: FramedBraid, i: int, exp: int
) -> tuple[tuple[MoveDescriptor, FramedBraid], ...]:
    """Realize conjugation by t_i^exp as explicit RL-move steps.

    The chain goes up to RB_(n+1) and back: first an RL-move on the split
    (a, 1) inserting at position i, then a framed isotopy rewriting the
    same element as the other RL word on the split (t_i^-exp, a t_i^exp),
    whose inverse move lands on the conjugated element. Conjugating by a
    positive twist uses over-moves, by a negative twist the mirrored
    under-moves. Every step has the closure signature of a.
    """
    if exp not in (-1, 1):
        raise ValueError(f"exp must be +-1, got {exp}")
    if not 1 <= i <= a.n:
        raise ValueError(f"twist index {i} out of range for n={a.n}")
    n = a.n
    s = -exp
    over = exp == 1
    kind = "RL_over" if over else "RL_under"
    inc = over_inclusion if over else under_inclusion
    word = spell(a)

    step1_word = concat(
        inc(word, i), BraidWord(n + 1, (tau(i + 1, exp), sigma(i, s)))
    )
    d1 = MoveDescriptor(kind, split=len(word.letters), index=i, sign=s, form=2)
    e1 = normalize(step1_word)

    left = BraidWord(n, (tau(i, -exp),))
    right = concat(word, BraidWord(n, (tau(i, exp),)))
    step2_word = concat(
        concat(inc(left, i + 1), BraidWord(n + 1, (tau(i, exp), sigma(i, s)))),
        inc(right, i + 1),
    )
    d2 = MoveDescriptor("TauConjugation", index=i, sign=exp)
    e2 = normalize(step2_word)

    d3 = MoveDescriptor(kind, split=len(left.letters), index=i, sign=s, form=1, inverse=True)
    e3 = normalize(concat(left, right))

    return ((d1, e1), (d2, e2), (d3, e3))


def solve_framing_transfer(
    p: Permutation, delta: tuple[int, ...], kappa: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Solve delta_i - r_i == kappa_i - r_p(i) for an integer vector r.

    Walking each cycle of p turns the system into a telescoping recurrence,
    solvable exactly when the cycle sums of delta and kappa agree; the
    solutions then form a coset of the cycle-constant lattice, pinned here
    by r = 0 at the smallest index of every cycle. Returns None when some
    cycle sum differs.
    """
    m = p.n
    if len(delta) != m or len(kappa) != m:
        raise ValueError(
            f"vectors of length {len(delta)}, {len(kappa)} against a permutation of {m}"
        )
    r = [0] * m
    for cycle in p.cycles():
        value = 0
        current = cycle[0]
        for _ in cycle:
            nxt = p.apply(current)
            value += kappa[current - 1] - delta[current - 1]
            if nxt == cycle[0]:
                if value != 0:
                    return None
            else:
                r[nxt - 1] = value
            current = nxt
    return tuple(r)


def apply_move(a: FramedBraid, d: MoveDescriptor) -> FramedBraid:
    """Dispatch a descriptor against a framed braid (CLI and fuzz entry)."""
    if d.kind in L_KINDS:
        return normalize(apply_L_move(spell(a), d))
    if d.kind in RL_KINDS:
        return apply_RL_move(a, d)
    if d.kind in INT_RL_KINDS:
        return apply_integer_RL_move(a, d)
    if d.kind == "M":
        return apply_M_move(a, d.sign)
    if d.kind == "RM":
        return apply_RM_move(a, d.sign)
    if d.kind == "Conjugation":
        if d.conjugator is None:
            raise ValueError("Conjugation move needs a conjugator")
        return conjugate(a, d.conjugator)
    if d.kind == "TauConjugation":
        steps = tau_conjugation_as_RL_sequence(a, d.index, d.sign)
        return steps[-1][1]
    raise ValueError(f"unknown move kind {d.kind!r}")
