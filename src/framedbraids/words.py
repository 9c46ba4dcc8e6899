"""
Words in the generators of the framed braid groups, stored exactly.

A braid on n strands is spelled in the Artin generators s1, ..., s(n-1)
(the sigma_i of the literature); a framed braid additionally uses the twist
generators t1, ..., tn. Words are stored as run-length syllables:
Letter("sigma", 2, -3) means three negative crossings of the strands at
positions 2 and 3, Letter("tau", 1, 5) means five positive full twists of
ribbon 1.

Conventions, fixed here once and relied on everywhere else:

- Words read left to right, braids stack top to bottom. The permutation of
  a word sends the top position of a strand to its bottom position.
- Strands are oriented downward. A sigma letter with positive exponent is a
  positive crossing in the linking-number sense; concretely the strand
  entering the crossing at position i+1 passes over the one entering at
  position i.
- All indices are 1-based, matching the usual subscripts.

Storage is freely reduced: adjacent letters with equal kind and index merge,
and letters whose exponent cancels to 0 are dropped. That is the only
normalization done at this layer; deciding genuine braid equality is the
job of the garside module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

SIGMA = "sigma"
TAU = "tau"


@dataclass(frozen=True)
class Letter:
    """One run-length syllable: kind is "sigma" or "tau", exponent is nonzero."""

    kind: str
    index: int
    exponent: int

    def __post_init__(self):
        if self.kind not in (SIGMA, TAU):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"letter index must be >= 1, got {self.index}")
        if self.exponent == 0:
            raise ValueError("letters with exponent 0 are never stored")

    def inverse(self) -> Letter:
        return Letter(self.kind, self.index, -self.exponent)

    @property
    def sign(self) -> int:
        return 1 if self.exponent > 0 else -1


def sigma(i: int, exponent: int = 1) -> Letter:
    """The crossing generator of strands i and i+1, to the given power."""
    return Letter(SIGMA, i, exponent)


def tau(j: int, exponent: int = 1) -> Letter:
    """The full-twist generator of ribbon j, to the given power."""
    return Letter(TAU, j, exponent)


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce: merge adjacent equal (kind, index) runs, drop zeros.

    One stack pass suffices: out is reduced after every step, so a
    cancellation exposes a top that the next letter is merged with in turn.
    """
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1].kind == letter.kind and out[-1].index == letter.index:
            total = out[-1].exponent + letter.exponent
            out.pop()
            if total != 0:
                out.append(Letter(letter.kind, letter.index, total))
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class BraidWord:
    """A freely reduced word over the sigma and tau letters of RB_n.

    The constructor reduces its input, so two words that agree after free
    reduction compare equal. Empty words are the identity.
    """

    n: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        reduced = _reduce(self.letters)
        for letter in reduced:
            bound = self.n - 1 if letter.kind == SIGMA else self.n
            if letter.index > bound:
                raise ValueError(
                    f"{letter.kind} index {letter.index} out of range for n={self.n}"
                )
        object.__setattr__(self, "letters", reduced)

    @classmethod
    def identity(cls, n: int) -> BraidWord:
        return cls(n, ())

    def is_empty(self) -> bool:
        return not self.letters

    def unit_letters(self) -> Iterator[Letter]:
        """Expand run-length syllables into unit (exponent +-1) letters."""
        for letter in self.letters:
            unit = Letter(letter.kind, letter.index, letter.sign)
            for _ in range(abs(letter.exponent)):
                yield unit

    def has_tau(self) -> bool:
        return any(letter.kind == TAU for letter in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        if isinstance(other, BraidWord):
            return concat(self, other)
        return NotImplemented


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    """Product of words: b hung below a, freely reduced."""
    if a.n != b.n:
        raise ValueError(f"cannot concatenate words on {a.n} and {b.n} strands")
    return BraidWord(a.n, a.letters + b.letters)


def include_natural(a: BraidWord, m: int) -> BraidWord:
    """The natural inclusion of B_n into B_(n+m): same letters, wider braid."""
    if m < 0:
        raise ValueError(f"cannot include by a negative number of strands: {m}")
    return BraidWord(a.n + m, a.letters)


def invert(a: BraidWord) -> BraidWord:
    """Group inverse: reversed word with negated exponents."""
    return BraidWord(a.n, tuple(letter.inverse() for letter in reversed(a.letters)))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}; images[j-1] is where top position j lands.

    Composition is written so that compose(q, p) applies p first, matching
    the top-to-bottom stacking of braid words: the permutation of a product
    word ab is permutation_of(b).compose(permutation_of(a)).
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> Permutation:
        """The adjacent transposition (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index {i} out of range for n={n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    def apply(self, j: int) -> int:
        return self.images[j - 1]

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self.compose(other))(j) == self(other(j))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.images[i - 1] for i in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for j, image in enumerate(self.images, start=1):
            inv[image - 1] = j
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(image == j for j, image in enumerate(self.images, start=1))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest element, sorted."""
        seen = [False] * self.n
        out: list[tuple[int, ...]] = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cycle = []
            j = start
            while not seen[j - 1]:
                seen[j - 1] = True
                cycle.append(j)
                j = self.apply(j)
            out.append(tuple(cycle))
        return tuple(out)


def permutation_of(a: BraidWord) -> Permutation:
    """Projection to S_n: sigma_i maps to (i, i+1), tau letters to nothing.

    Only exponent parity matters per syllable: an even run of crossings
    returns both strands to their positions.
    """
    pos2strand = list(range(a.n + 1))  # pos2strand[p] is the strand at position p
    for letter in a.letters:
        if letter.kind == SIGMA and letter.exponent % 2 != 0:
            i = letter.index
            pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
    images = [0] * a.n
    for pos in range(1, a.n + 1):
        images[pos2strand[pos] - 1] = pos
    return Permutation(tuple(images))


def exponent_sum(a: BraidWord) -> int:
    """Total signed exponent over all letters, sigma and tau alike."""
    return sum(letter.exponent for letter in a.letters)
