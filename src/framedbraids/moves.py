"""
The braid-level moves: inclusions, L-moves and their framed and integer
variants, (R)M-moves, conjugations, the framed Birman moves of plats, and
the framing-transfer solver.

All cut-and-reroute moves are applied through their fully right-dragged
word forms, and every one of them is built from one strand drag. Writing
iota for the natural inclusion into B_(n+1), s(a..b) for the ascending or
descending run of crossings and

  drag_d[lo..hi](w) = s(lo..hi)^d  w  s(hi..lo)^-d

for a strand dragged across positions lo..hi+1 and back, with d = -1 over
everything and d = 1 under it, the classical over and under L-moves at
position i with crossing sign s on a split a = a1 a2 are

  over:  drag_-1[i+1..n]( iota(a1)  drag_-1[i..n-1](sn^s)  iota(a2) )
  under: drag_1[i+1..n]( iota(a1)  drag_1[i..n-1](sn^s)  iota(a2) )

The framed RL variants insert a compensating twist of exponent -s on the
cut ribbon immediately before the new crossing, so the spelled exponent sum
is unchanged and the blackboard framing of the cut component survives the
new kink. The integer variants instead wrap the word in
t_(i+1)^k ... t_(i+1)^-k with k in {-1, 0, 1}; they preserve the
integer-framing signature, not the blackboard one.

The general over and under inclusions o_i, u_i realize "insert a strand at
position i passing entirely over (under) everything" as the one drag
drag_-1[i..n](iota(a)) and drag_1[i..n](iota(a)): a strand moving sideways
as the over strand crosses positively leftward and negatively rightward
under the sign convention fixed in the words module.
"""

from __future__ import annotations

from . import plat
from .framed import FramedBraid, _framed, _normal_form, _spelled_letters, normalize, spell
from .parser import format_word, parse
from .words import BraidWord, Letter, Permutation, _Record, crossing_sums, invert, sigma, tau

RL_KINDS = ("RL_over", "RL_under")
INT_RL_KINDS = ("IntRL_over", "IntRL_under")
L_FAMILY_KINDS = ("L_over", "L_under") + RL_KINDS + INT_RL_KINDS
PLAT_KINDS = ("DoubleCoset", "FramedStabilization", "ClassicalStabilization")
MOVE_KINDS = L_FAMILY_KINDS + ("M", "RM", "Conjugation", "TauConjugation") + PLAT_KINDS

# The stabilizations: kind -> (ribbons added, compensating twist or not).
_STABILIZATIONS = {"M": (1, False), "RM": (1, True),
                   "ClassicalStabilization": (2, False), "FramedStabilization": (2, True)}
# The one statement of what each kind takes: its factor names, the values of
# sign and k, and the fields after kind it reads (the rest keep their default).
FACTOR_NAMES = {"Conjugation": ("conjugator",), "DoubleCoset": ("h1", "h2")}
FIELD_VALUES = {"sign": (-1, 1), "k": (-1, 0, 1)}
_L_FIELDS = ("split", "index", "sign")
FIELDS_READ = {
    **dict.fromkeys(L_FAMILY_KINDS, _L_FIELDS),
    **dict.fromkeys(INT_RL_KINDS, _L_FIELDS + ("k",)),
    **dict.fromkeys(_STABILIZATIONS, ("sign",)),
    **dict.fromkeys(FACTOR_NAMES, ("factors",)),
    "TauConjugation": ("index", "sign"),
}


class MoveDescriptor(_Record):
    """Parameters of one move, enough to apply it.

    The fields after kind that each kind reads:

      L_over, L_under, RL_over, RL_under   split, index, sign
      IntRL_over, IntRL_under              the same and k
      M, RM, FramedStabilization,
      ClassicalStabilization               sign
      TauConjugation                       index, sign (the twist exponent)
      Conjugation, DoubleCoset             factors: (conjugator,) and (h1, h2)

    split and index are the cut point in the word and the insertion position
    of the new strand; sign is the new crossing sign; k is the integer-framing
    pair; FIELDS_READ, FACTOR_NAMES and FIELD_VALUES hold this table. The
    constructor raises ValueError for a split, index, sign or k that is not
    an int, for a field the kind never reads that is not at its default, and
    for a factor count other than the kind's.
    """

    __slots__ = ("kind", "split", "index", "sign", "k", "factors")

    def __init__(self, kind: str, split: int = 0, index: int = 1, sign: int = 1, k: int = 0,
                 factors: tuple[FramedBraid, ...] = ()):
        if kind not in MOVE_KINDS:
            raise ValueError(f"unknown move kind {kind!r}")
        # bool is an int subclass, so test the exact type
        for name, value in zip(self.__slots__[1:-1], (split, index, sign, k)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if sign not in FIELD_VALUES["sign"]:
            raise ValueError(f"sign must be +-1, got {sign}")
        if k not in FIELD_VALUES["k"]:
            raise ValueError(f"k must lie in {{-1, 0, 1}}, got {k}")
        if split < 0:
            raise ValueError(f"split must be >= 0, got {split}")
        if index < 1:
            raise ValueError(f"index must be >= 1, got {index}")
        if not (isinstance(factors, tuple) and all([isinstance(f, FramedBraid) for f in factors])):
            raise ValueError("factors must be a tuple of FramedBraid")
        values = (split, index, sign, k, factors)
        for i, (name, default) in _UNREAD[kind]:
            if values[i] != default:
                raise ValueError(f"{kind} moves do not use {name}")
        count = len(FACTOR_NAMES.get(kind, ()))
        if len(factors) != count:
            plural = "s" * (count > 1)
            raise ValueError(f"{kind} moves need {count} factor{plural}, got {len(factors)}")
        self._store(kind, split, index, sign, k, factors)


# kind -> (position, (name, default)) of each field after kind that it never reads
_UNREAD = {kind: tuple([(i, field) for i, field in enumerate(zip(
    MoveDescriptor._fields[1:], MoveDescriptor.__init__.__defaults__))
    if field[0] not in FIELDS_READ[kind]]) for kind in MOVE_KINDS}


def descriptor_json(d: MoveDescriptor) -> dict:
    """The outside form of d, enough to replay it: its kind, each field the
    kind reads, and each factor under its name as one DSL word."""
    out = {name: getattr(d, name) for name in ("kind", *FIELDS_READ[d.kind]) if name != "factors"}
    out.update(zip(FACTOR_NAMES.get(d.kind, ()), [format_word(spell(h)) for h in d.factors]))
    return out


def descriptor_from_json(data: dict, n: int) -> MoveDescriptor:
    """The inverse of descriptor_json, for factors on n ribbons. It refuses
    data that is not an object, a kind that is missing, not a string or
    unknown, a factor that is not a string and a name that is no field or
    factor of the kind; MoveDescriptor the rest."""
    if not isinstance(data, dict):
        raise ValueError(f"a move descriptor is an object, got {type(data).__name__}")
    if "kind" not in data:
        raise ValueError("a move descriptor needs a kind")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    names = FACTOR_NAMES.get(kind, ())
    for name in data:
        if name not in MoveDescriptor._fields[:-1] + names:
            raise ValueError(f"{kind} moves do not use {name}")
    factors = []
    for name in names:
        if name in data:
            if not isinstance(data[name], str):
                raise ValueError(f"{name} must be a word, got {data[name]!r}")
            factors.append(normalize(parse(data[name], n)))
    fields = {name: value for name, value in data.items() if name not in names}
    return MoveDescriptor(factors=tuple(factors), **fields)


def _drag(letters: tuple[Letter, ...], lo: int, hi: int, d: int) -> tuple[Letter, ...]:
    """drag_d[lo..hi](letters) of the module docstring, not freely reduced."""
    run = range(lo, hi + 1)
    return (tuple([sigma(j, d) for j in run]) + letters
            + tuple([sigma(j, -d) for j in reversed(run)]))


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
    return BraidWord(n + 1, _drag(a.letters, i, n, -1 if over else 1))


def _l_move_letters(
    n: int, letters: tuple[Letter, ...], split: int, i: int, sign: int, over: bool, twist: int
) -> tuple[Letter, ...]:
    """The dragged word on n+1 strands shared by the L, RL and integer RL
    families, for a cut after the first split of the letters of a word on n
    strands: sigma_n^sign, after its compensating twist, dragged into the
    cut, and then the whole word dragged, as in the module docstring.

    twist is the exponent of the compensating twist inserted before the new
    crossing; 0 gives the classical word. In the un-dragged form that twist
    is t_i, sitting on the cut ribbon; sliding it right through the run
    sigma_i^-1 ... sigma_(n-1)^-1 relabels it letter by letter up to t_n,
    which is where the cut ribbon lives when the new crossing happens. The
    index must follow the ribbon or the compensation lands on a bystander
    component and the framed closure changes.
    """
    if not 0 <= split <= len(letters):
        raise ValueError(f"split {split} out of range for a word of {len(letters)} letters")
    if not 1 <= i <= n:
        raise ValueError(f"L-move position {i} out of range for n={n}")
    d = -1 if over else 1
    crossing = ((tau(n, twist),) if twist else ()) + (sigma(n, sign),)
    cut = letters[:split] + _drag(crossing, i, n - 1, d) + letters[split:]
    return _drag(cut, i + 1, n, d)


def conjugate(a: FramedBraid, g: FramedBraid) -> FramedBraid:
    """g^-1 a g in RB_n, one letter pass over the three spellings."""
    if a.n != g.n:
        raise ValueError(f"cannot conjugate across RB_{a.n} and RB_{g.n}")
    return _normal_form(a.n, invert(spell(g)).letters + _spelled_letters(a) + _spelled_letters(g))


def tau_conjugation_as_RL_sequence(
    a: FramedBraid, i: int, exp: int
) -> tuple[FramedBraid, FramedBraid, FramedBraid]:
    """Realize conjugation by t_i^exp as a chain of RL words; return its
    three elements (e1, e2, e3).

    The chain goes up to RB_(n+1) and back: e1 is the RL word on the split
    (a, 1) inserting a strand at position i, e2 the other RL word on the
    split (t_i^-exp, a t_i^exp), and e3 the product of that split in RB_n.
    Conjugating by a positive twist uses over-words, by a negative twist the
    mirrored under-words. Every element has the closure signature of a, and
    exactly:

      e1 == e2, as records: one element of RB_(n+1) spelled as two RL words;
      e3 == apply_move(a, MoveDescriptor("TauConjugation", index=i, sign=exp)).
    """
    if exp not in FIELD_VALUES["sign"]:
        raise ValueError(f"exp must be +-1, got {exp}")
    if not 1 <= i <= a.n:
        raise ValueError(f"twist index {i} out of range for n={a.n}")
    n, s = a.n, -exp  # s is also the drag: over for exp = 1, under for exp = -1
    word = _spelled_letters(a)
    left, right = (tau(i, -exp),), word + (tau(i, exp),)
    e1 = _drag(word, i, n, s) + (tau(i + 1, exp), sigma(i, s))
    e2 = _drag(left, i + 1, n, s) + (tau(i, exp), sigma(i, s)) + _drag(right, i + 1, n, s)
    return _normal_form(n + 1, e1), _normal_form(n + 1, e2), _normal_form(n, left + right)


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
        # the last step returns to cycle[0], whose r stays 0 exactly when
        # the cycle sums agree
        for current, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            value += kappa[current - 1] - delta[current - 1]
            r[nxt - 1] = value
        if value != 0:
            return None
    return tuple(r)


def apply_move(a: FramedBraid, d: MoveDescriptor) -> FramedBraid:
    """Apply one move to a framed braid; the only move applier.

    The L family cuts a at d.split and reroutes it through strand d.index
    into RB_(n+1). The classical L-move changes the writhe by d.sign; the RL
    variants compensate with the twist t^-sign on the cut ribbon, so the
    blackboard closure signature survives, and the integer variants wrap
    the word in t_(index+1)^k ... t_(index+1)^-k, which preserves the
    integer-framing signature. The stabilizations widen a by one ribbon (M,
    RM) or, on an even ribbon count, by two (Classical- and
    FramedStabilization) and append sigma_n^sign, after t_n^-sign for RM and
    FramedStabilization. Conjugation returns g^-1 a g; TauConjugation
    conjugates by t_index^sign, the element its RL chain lands on.
    DoubleCoset returns h1 a h2, and refuses a factor that fails the
    plat-triviality test, as an arbitrary factor can change the plat
    closure.
    """
    if d.kind in L_FAMILY_KINDS:
        letters = _l_move_letters(
            a.n, _spelled_letters(a), d.split, d.index, d.sign, d.kind.endswith("_over"),
            twist=-d.sign if d.kind in RL_KINDS else 0,
        )
        if d.kind in INT_RL_KINDS and d.k != 0:
            letters = (tau(d.index + 1, d.k),) + letters + (tau(d.index + 1, -d.k),)
        return _normal_form(a.n + 1, letters)
    if d.kind in _STABILIZATIONS:
        ribbons, framed = _STABILIZATIONS[d.kind]
        if ribbons == 2 and a.n % 2 != 0:
            raise ValueError(f"{d.kind} needs an even ribbon count, got {a.n}")
        step = ((tau(a.n, -d.sign),) if framed else ()) + (sigma(a.n, d.sign),)
        return _normal_form(a.n + ribbons, _spelled_letters(a) + step)
    if d.kind == "Conjugation":
        return conjugate(a, d.factors[0])
    if d.kind == "DoubleCoset":
        h1, h2 = d.factors
        if not (a.n == h1.n == h2.n):
            raise ValueError("double coset move needs equal ribbon counts")
        for name, h in (("h1", h1), ("h2", h2)):
            if not plat.is_plat_trivial(h):
                raise ValueError(f"{name} does not look like a cap stabilizer element")
        return _normal_form(a.n, _spelled_letters(h1) + _spelled_letters(a) + _spelled_letters(h2))
    # TauConjugation, the one kind left: in t_i^-s a t_i^s the last twist
    # slides onto the strand beta leaves at i, so only two framings move.
    i, s = d.index, d.sign
    if not 1 <= i <= a.n:
        raise ValueError(f"twist index {i} out of range for n={a.n}")
    framings = list(a.framings)
    framings[i - 1] -= s
    framings[crossing_sums(a.beta)[0][i] - 1] += s
    return _framed(a.n, tuple(framings), a.beta)
