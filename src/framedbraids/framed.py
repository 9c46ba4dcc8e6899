"""
Arithmetic in the framed braid group RB_n, the semidirect product of Z^n
(twist vectors) by B_n.

Every element has a unique normal form t1^f1 ... tn^fn beta with beta a
plain braid: the twist relation sigma_i t_j = t_(s_i j) sigma_i lets every
tau letter slide to the far left, relabeling its index by the strand motion
it passes through. A FramedBraid stores that form as the pair (framings,
beta). Equality is exact on the vector and, on the braid part, Garside on
the middles that remain once the shared prefix and suffix are cancelled.

Every word built from letters reaches its normal form through one pass,
_normal_form, which slides the twists and hands the sigma letters left
behind to BraidWord, the one free reduction; so does every composition
(multiply, inverse, moves.conjugate, TauConjugation, DoubleCoset). Only
permutation_of and the closure and plat signatures read words.crossing_sums.
"""

from __future__ import annotations

from . import garside
from .words import SIGMA, TAU, BraidWord, Letter, _Record, _word, invert, tau


class FramedBraid(_Record):
    """Normal form of an element of RB_n: twist vector followed by a braid."""

    __slots__ = ("n", "framings", "beta")

    def __init__(self, n: int, framings: tuple[int, ...], beta: BraidWord):
        # bool is an int subclass, so test the exact type
        if type(n) is not int:
            raise ValueError(f"strand count must be an int, got {n!r}")
        for f in framings:
            if type(f) is not int:
                raise ValueError(f"framings must be ints, got {f!r}")
        if len(framings) != n:
            raise ValueError(
                f"framing vector has length {len(framings)}, expected {n}"
            )
        if beta.n != n:
            raise ValueError(
                f"braid part on {beta.n} strands inside RB_{n}"
            )
        if beta.has_tau():
            raise ValueError("braid part of a normal form must be tau-free")
        set_n, set_framings, set_beta = self._setters
        set_n(self, n)
        set_framings(self, tuple(framings))
        set_beta(self, beta)

    @classmethod
    def identity(cls, n: int) -> FramedBraid:
        return cls(n, (0,) * n, BraidWord(n))


def _framed(n: int, framings: tuple[int, ...], beta: BraidWord) -> FramedBraid:
    """FramedBraid(n, framings, beta) for parts known to fit, unchecked."""
    a = object.__new__(FramedBraid)
    set_n, set_framings, set_beta = FramedBraid._setters
    set_n(a, n)
    set_framings(a, framings)
    set_beta(a, beta)
    return a


def _normal_form(n: int, letters) -> FramedBraid:
    """normalize(BraidWord(n, letters)) in one pass over the letters: each
    twist slides onto its ribbon and BraidWord freely reduces the sigma
    letters. The first letter out of range for n is refused as BraidWord
    refuses it. Reducing the sigma letters apart from the twists between
    them gives the same braid as reducing the mixed word first, since a
    twist only relabels ribbons."""
    framings = [0] * n
    pos2strand = list(range(n + 1))
    sigmas: list[Letter] = []
    for letter in letters:
        i = letter.index
        if i >= n and (i > n or letter.kind == SIGMA):
            BraidWord(n, (letter,))  # raises BraidWord's error for this letter
        if letter.kind == TAU:
            framings[pos2strand[i] - 1] += letter.exponent
        else:
            if letter.exponent % 2:
                pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
            sigmas.append(letter)
    return _framed(n, tuple(framings), BraidWord(n, tuple(sigmas)))


def normalize(w: BraidWord) -> FramedBraid:
    """Push every tau letter to the far left of a mixed word.

    A twist t_j sitting below a braid prefix acts on the ribbon that
    currently occupies position j, which is the ribbon that entered at top
    position p^-1(j) for p the prefix permutation; sliding the letter to the
    top therefore adds its exponent to that ribbon's framing. Applied
    letterwise this is exactly the defining relation of RB_n, so the result
    represents the same element.
    """
    return _normal_form(w.n, w.letters)


def _spelled_letters(a: FramedBraid) -> tuple[Letter, ...]:
    """The letters of spell(a), with no BraidWord built around them."""
    prefix = tuple([tau(j, e) for j, e in enumerate(a.framings, start=1) if e])
    return prefix + a.beta.letters


def spell(a: FramedBraid) -> BraidWord:
    """The word t1^f1 ... tn^fn beta spelling the normal form; twists of
    distinct ribbons and a reduced beta make it reduced as it stands."""
    return _word(a.n, _spelled_letters(a))


def multiply(a: FramedBraid, b: FramedBraid) -> FramedBraid:
    """Semidirect product: b's twist at p lands on the strand a leaves at p."""
    if a.n != b.n:
        raise ValueError(f"cannot multiply elements of RB_{a.n} and RB_{b.n}")
    return _normal_form(a.n, _spelled_letters(a) + _spelled_letters(b))


def inverse(a: FramedBraid) -> FramedBraid:
    """Group inverse beta^-1 t^-f: one letter pass over spell(a) inverted."""
    return _normal_form(a.n, invert(spell(a)).letters)


def framed_equal(a: FramedBraid, b: FramedBraid) -> bool:
    """Equality in RB_n: exact twist vectors, Garside-equal braid parts."""
    if a.n != b.n:
        raise ValueError(f"cannot compare elements of RB_{a.n} and RB_{b.n}")
    return a.framings == b.framings and garside.are_equal(a.beta, b.beta)
