"""
The braid-level moves: inclusions, L-moves and their framed and integer
variants, (R)M-moves, conjugations, the framed Birman moves of plats, and
the framing-transfer solver.

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

from . import plat
from .framed import FramedBraid, include_natural as include_framed, inverse, multiply, normalize, spell
from .words import BraidWord, Letter, Permutation, _Record, concat, sigma, tau

RL_KINDS = ("RL_over", "RL_under")
INT_RL_KINDS = ("IntRL_over", "IntRL_under")
L_FAMILY_KINDS = ("L_over", "L_under") + RL_KINDS + INT_RL_KINDS
PLAT_KINDS = ("DoubleCoset", "FramedStabilization", "ClassicalStabilization")
MOVE_KINDS = L_FAMILY_KINDS + ("M", "RM", "Conjugation", "TauConjugation") + PLAT_KINDS

# The stabilizations: kind -> (ribbons added, compensating twist or not).
_STABILIZATIONS = {"M": (1, False), "RM": (1, True),
                   "ClassicalStabilization": (2, False), "FramedStabilization": (2, True)}
_FACTOR_COUNT = {"Conjugation": 1, "DoubleCoset": 2}
# The fields after kind that each kind reads; every other one must keep its
# default. The L family also carries form and inverse, which move sequences
# emit and apply_move refuses.
_L_FIELDS = ("split", "index", "sign", "form", "inverse")
_FIELDS_READ = {
    **dict.fromkeys(L_FAMILY_KINDS, _L_FIELDS),
    **dict.fromkeys(INT_RL_KINDS, _L_FIELDS + ("k",)),
    **dict.fromkeys(_STABILIZATIONS, ("sign",)),
    **dict.fromkeys(_FACTOR_COUNT, ("factors",)),
    "TauConjugation": ("index", "sign"),
}


class MoveDescriptor(_Record):
    """Parameters of one move, enough to apply it or to undo it.

    The fields after kind that each kind reads:

      L_over, L_under, RL_over, RL_under   split, index, sign, form, inverse
      IntRL_over, IntRL_under              the same and k
      M, RM, FramedStabilization,
      ClassicalStabilization               sign
      TauConjugation                       index, sign (the twist exponent)
      Conjugation, DoubleCoset             factors: (g,) and (h1, h2)

    split and index are the cut point in the word and the insertion position
    of the new strand; sign is the new crossing sign; k is the integer-framing
    pair. form selects between the two word variants of an (R)L-move (1
    inserts right of the cut column, 2 left); inverse marks a step that undoes
    the move, as emitted in move sequences. The constructor raises ValueError
    for a field the kind never reads that is not at its default, and for a
    factor count other than the kind's.
    """

    __slots__ = ("kind", "split", "index", "sign", "k", "factors", "form", "inverse")

    def __init__(self, kind: str, split: int = 0, index: int = 1, sign: int = 1, k: int = 0,
                 factors: tuple[FramedBraid, ...] = (), form: int = 1, inverse: bool = False):
        if kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {kind!r}")
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {sign}")
        if k not in (-1, 0, 1):
            raise ValueError(f"k must lie in {{-1, 0, 1}}, got {k}")
        if split < 0:
            raise ValueError(f"split must be >= 0, got {split}")
        if index < 1:
            raise ValueError(f"index must be >= 1, got {index}")
        if form not in (1, 2):
            raise ValueError(f"form must be 1 or 2, got {form}")
        values = (split, index, sign, k, factors, form, inverse)
        read, defaults = _FIELDS_READ[kind], MoveDescriptor.__init__.__defaults__
        for name, value, default in zip(self.__slots__[1:], values, defaults):
            if value != default and name not in read:
                raise ValueError(f"{kind} moves do not use {name}")
        count = _FACTOR_COUNT.get(kind, 0)
        if len(factors) != count:
            plural = "s" * (count > 1)
            raise ValueError(f"{kind} moves need {count} factor{plural}, got {len(factors)}")
        for name, value in zip(self.__slots__, (kind, *values)):
            object.__setattr__(self, name, value)


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


def _l_move_letters(
    a: BraidWord, split: int, i: int, sign: int, over: bool, twist: int
) -> tuple[Letter, ...]:
    """The dragged word on n+1 strands shared by the L, RL and integer RL
    families, for a cut after the first split letters of a.

    twist is the exponent of the compensating twist inserted before the new
    crossing; 0 gives the classical word. In the un-dragged form that twist
    is t_i, sitting on the cut ribbon; sliding it right through the run
    sigma_i^-1 ... sigma_(n-1)^-1 relabels it letter by letter up to t_n,
    which is where the cut ribbon lives when the new crossing happens. The
    index must follow the ribbon or the compensation lands on a bystander
    component and the framed closure changes.
    """
    n = a.n
    if not 0 <= split <= len(a.letters):
        raise ValueError(f"split {split} out of range for a word of {len(a.letters)} letters")
    if not 1 <= i <= n:
        raise ValueError(f"L-move position {i} out of range for n={n}")
    conj = -1 if over else 1
    middle: list[Letter] = []
    if twist != 0:
        middle.append(tau(n, twist))
    middle.append(sigma(n, sign))
    return (
        tuple(_run(i + 1, n, conj))
        + a.letters[:split]
        + tuple(_run(i, n - 1, conj))
        + tuple(middle)
        + tuple(reversed(_run(i, n - 1, -conj)))
        + a.letters[split:]
        + tuple(reversed(_run(i + 1, n, -conj)))
    )


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
    """Apply one move to a framed braid; the only move applier.

    The L family cuts a at d.split and reroutes it through strand d.index
    into RB_(n+1). The classical L-move changes the writhe by d.sign; the RL
    variants compensate with the twist t^-sign on the cut ribbon, so the
    blackboard closure signature survives, and the integer variants wrap
    the word in t_(index+1)^k ... t_(index+1)^-k, which preserves the
    integer-framing signature. Only forward form-1 L-family steps are
    implemented; any other raises ValueError. The stabilizations widen a by
    one ribbon (M, RM) or, on an even ribbon count, by two (Classical- and
    FramedStabilization) and append sigma_n^sign, after t_n^-sign for RM and
    FramedStabilization.
    Conjugation returns g^-1 a g; TauConjugation conjugates by t_index^sign,
    the element its RL chain lands on. DoubleCoset returns h1 a h2, and
    refuses a factor that fails the plat-triviality test, as an arbitrary
    factor can change the plat closure.
    """
    if d.kind in L_FAMILY_KINDS:
        if d.form != 1 or d.inverse:
            raise ValueError(f"apply_move applies only forward form-1 L-family moves, got {d}")
        letters = _l_move_letters(
            spell(a), d.split, d.index, d.sign, d.kind.endswith("_over"),
            twist=-d.sign if d.kind in RL_KINDS else 0,
        )
        if d.kind in INT_RL_KINDS and d.k != 0:
            letters = (tau(d.index + 1, d.k),) + letters + (tau(d.index + 1, -d.k),)
        return normalize(BraidWord(a.n + 1, letters))
    if d.kind in _STABILIZATIONS:
        ribbons, framed = _STABILIZATIONS[d.kind]
        if ribbons == 2 and a.n % 2 != 0:
            raise ValueError(f"{d.kind} needs an even ribbon count, got {a.n}")
        wide = include_framed(a, ribbons)
        twist = (tau(a.n, -d.sign),) if framed else ()
        step = BraidWord(wide.n, twist + (sigma(a.n, d.sign),))
        return normalize(concat(spell(wide), step))
    if d.kind == "Conjugation":
        return conjugate(a, d.factors[0])
    if d.kind == "DoubleCoset":
        h1, h2 = d.factors
        if not (a.n == h1.n == h2.n):
            raise ValueError("double coset move needs equal ribbon counts")
        for name, h in (("h1", h1), ("h2", h2)):
            if not plat.is_plat_trivial(h):
                raise ValueError(f"{name} does not look like a cap stabilizer element")
        return multiply(multiply(h1, a), h2)
    # TauConjugation, the one kind left
    if not 1 <= d.index <= a.n:
        raise ValueError(f"twist index {d.index} out of range for n={a.n}")
    return conjugate(a, normalize(BraidWord(a.n, (tau(d.index, d.sign),))))
