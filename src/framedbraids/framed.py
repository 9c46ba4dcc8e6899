"""
Arithmetic in the framed braid group RB_n, the semidirect product of Z^n
(twist vectors) by B_n.

Every element has a unique normal form t1^f1 ... tn^fn beta with beta a
plain braid: the twist relation sigma_i t_j = t_(s_i j) sigma_i lets every
tau letter slide to the far left, relabeling its index by the strand motion
it passes through. A FramedBraid stores that form as the pair (framings,
beta). Equality is exact on the vector and, on the braid part, Garside on
the middles that remain once the shared prefix and suffix are cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import garside
from .words import TAU, BraidWord, Letter, concat, invert, permutation_of, tau
from .words import include_natural as include_word


@dataclass(frozen=True)
class FramedBraid:
    """Normal form of an element of RB_n: twist vector followed by a braid."""

    n: int
    framings: tuple[int, ...]
    beta: BraidWord

    def __post_init__(self):
        if len(self.framings) != self.n:
            raise ValueError(
                f"framing vector has length {len(self.framings)}, expected {self.n}"
            )
        if self.beta.n != self.n:
            raise ValueError(
                f"braid part on {self.beta.n} strands inside RB_{self.n}"
            )
        if self.beta.has_tau():
            raise ValueError("braid part of a normal form must be tau-free")

    @classmethod
    def identity(cls, n: int) -> FramedBraid:
        return cls(n, (0,) * n, BraidWord.identity(n))

    def __mul__(self, other: FramedBraid) -> FramedBraid:
        if isinstance(other, FramedBraid):
            return multiply(self, other)
        return NotImplemented


def normalize(w: BraidWord) -> FramedBraid:
    """Push every tau letter to the far left of a mixed word.

    A twist t_j sitting below a braid prefix acts on the ribbon that
    currently occupies position j, which is the ribbon that entered at top
    position p^-1(j) for p the prefix permutation; sliding the letter to the
    top therefore adds its exponent to that ribbon's framing. Applied
    letterwise this is exactly the defining relation of RB_n, so the result
    represents the same element.
    """
    framings = [0] * w.n
    pos2strand = list(range(w.n + 1))
    sigmas: list[Letter] = []
    for letter in w.letters:
        if letter.kind == TAU:
            framings[pos2strand[letter.index] - 1] += letter.exponent
        else:
            sigmas.append(letter)
            if letter.exponent % 2 != 0:
                i = letter.index
                pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
    return FramedBraid(w.n, tuple(framings), BraidWord(w.n, tuple(sigmas)))


def spell(a: FramedBraid) -> BraidWord:
    """The word t1^f1 ... tn^fn beta spelling the normal form."""
    prefix = tuple(tau(j, e) for j, e in enumerate(a.framings, start=1) if e != 0)
    return BraidWord(a.n, prefix + a.beta.letters)


def multiply(a: FramedBraid, b: FramedBraid) -> FramedBraid:
    """Semidirect product: b's twists slide left through a's braid part."""
    if a.n != b.n:
        raise ValueError(f"cannot multiply elements of RB_{a.n} and RB_{b.n}")
    p = permutation_of(a.beta)
    framings = tuple(
        a.framings[i] + b.framings[p.apply(i + 1) - 1] for i in range(a.n)
    )
    return FramedBraid(a.n, framings, concat(a.beta, b.beta))


def inverse(a: FramedBraid) -> FramedBraid:
    """Group inverse, computed by normalizing the inverted spelled word."""
    return normalize(invert(spell(a)))


def framed_equal(a: FramedBraid, b: FramedBraid) -> bool:
    """Equality in RB_n: exact twist vectors, Garside-equal braid parts."""
    if a.n != b.n:
        raise ValueError(f"cannot compare elements of RB_{a.n} and RB_{b.n}")
    return a.framings == b.framings and garside.are_equal(a.beta, b.beta)


def project_pi(a: FramedBraid) -> BraidWord:
    """The projection RB_n -> B_n that forgets all framing."""
    return a.beta


def include_natural(a: FramedBraid, m: int) -> FramedBraid:
    """Widen to RB_(n+m): new untouched zero-framed ribbons on the right."""
    return FramedBraid(a.n + m, a.framings + (0,) * m, include_word(a.beta, m))
