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

Storage is freely reduced by BraidWord's constructor, the package's one free
reduction: adjacent letters with equal kind and index merge, and letters
whose exponent cancels to 0 are dropped. That is the only normalization
done at this layer; deciding genuine braid equality is the job of the
garside module.

crossing_sums is the one strand scan, read only by permutation_of and the
closure and plat signatures; the framed compositions are letter passes
(framed module). A syllable s_i^e meets the same two strands e times, so
it adds e to that pair's signed total and swaps them only when e is odd;
tau letters are skipped.

Letter, BraidWord, Permutation and the package's other value types are
records: slotted classes on the private _Record base below. A record's
constructor validates its arguments (ValueError) and stores them once. It
then guarantees: its fields never change (assigning or deleting one raises
AttributeError); two records are equal exactly when they have the same type
and equal fields, and equal records hash alike (hilden.GeneratorDictionary
holds a dict, so hashing it raises TypeError); repr shows every field by
name; copy, deepcopy and pickle rebuild it through its constructor. A
record may extend another: the subclass's own fields follow its base's in
the constructor, repr, equality, hash and pickle, and a record still equals
only records of its exact type (plat.PlatComponent is closure.LinkComponent
plus its traversal). _word here and framed._framed build a BraidWord and a
FramedBraid without their constructors' checks, for parts already reduced
and in range.

Letters are interned: sigma, tau, Letter.inverse and free reduction take
them from one 256-entry memo, and the parser keeps its own.
Identity is not part of the contract: compare letters with ==, never is.
"""

from __future__ import annotations

import operator
from functools import lru_cache

SIGMA = "sigma"
TAU = "tau"


class _Record:
    """Base of the frozen value records; a subclass lists its own fields in
    __slots__, in constructor order after its base's, and stores them through
    _setters. _fields holds every field name along the chain, and _setters
    the __set__ of each field's slot, in the same order: the record's own
    __setattr__ refuses, and the slot's __set__ stores in about 60% of the
    time object.__setattr__ takes. The records built on every word or every
    signature unpack _setters: BraidWord, FramedBraid, words._word,
    framed._framed, closure.LinkComponent, closure._Signature and
    plat.PlatComponent. _store, a loop that costs about 0.5 us more per
    record, serves the rest (Letter, Permutation, MoveDescriptor, ...)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def _store(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)

    def _replace(self, **changes):
        """A copy built by the constructor, with the named fields changed."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


class Letter(_Record):
    """One run-length syllable: kind is "sigma" or "tau", exponent is nonzero."""

    __slots__ = ("kind", "index", "exponent")

    def __init__(self, kind: str, index: int, exponent: int):
        if kind not in (SIGMA, TAU):
            raise ValueError(f"unknown letter kind {kind!r}")
        # bool is an int subclass, so test the exact type
        for name, value in (("index", index), ("exponent", exponent)):
            if type(value) is not int:
                raise ValueError(f"letter {name} must be an int, got {value!r}")
        if index < 1:
            raise ValueError(f"letter index must be >= 1, got {index}")
        if exponent == 0:
            raise ValueError("letters with exponent 0 are never stored")
        self._store(kind, index, exponent)

    def inverse(self) -> Letter:
        return _letter(self.kind, self.index, -self.exponent)


@lru_cache(maxsize=256, typed=True)
def _letter(kind: str, index: int, exponent: int) -> Letter:
    """Letter(kind, index, exponent), built once; typed keeps 1.0 and True
    apart from 1, so they reach Letter's check instead of the cached int letter."""
    return Letter(kind, index, exponent)


def sigma(i: int, exponent: int = 1) -> Letter:
    """The crossing generator of strands i and i+1, to the given power."""
    return _letter(SIGMA, i, exponent)


def tau(j: int, exponent: int = 1) -> Letter:
    """The full-twist generator of ribbon j, to the given power."""
    return _letter(TAU, j, exponent)


class BraidWord(_Record):
    """A freely reduced word over the sigma and tau letters of RB_n.

    The constructor reduces its input, so two words that agree after free
    reduction compare equal, and refuses every letter out of range for n as
    it reads it, by the rule parse applies, even one that would cancel.
    Empty words are the identity.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[Letter, ...] = ()):
        if type(n) is not int:
            raise ValueError(f"strand count must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"strand count must be >= 1, got {n}")
        # One stack pass checks and reduces: out is reduced after every
        # step, so a cancellation exposes a top that the next letter is
        # merged with in turn.
        out: list[Letter] = []
        top = None  # out[-1], or None when out is empty
        for letter in letters:
            i = letter.index
            # sigma_i needs i <= n - 1, tau_j needs j <= n
            if i >= n and (i > n or letter.kind == SIGMA):
                raise ValueError(f"{letter.kind} index {i} out of range for n={n}")
            if top is not None and top.index == i and top.kind == letter.kind:
                total = top.exponent + letter.exponent
                if total:
                    top = out[-1] = _letter(letter.kind, i, total)
                else:
                    out.pop()
                    top = out[-1] if out else None
            else:
                out.append(letter)
                top = letter
        set_n, set_letters = self._setters
        set_n(self, n)
        set_letters(self, tuple(out))

    def has_tau(self) -> bool:
        for letter in self.letters:
            if letter.kind == TAU:
                return True
        return False


def _word(n: int, letters: tuple[Letter, ...]) -> BraidWord:
    """The BraidWord of letters that are already freely reduced and in range
    for n, built without a second reduction or bound check."""
    word = object.__new__(BraidWord)
    set_n, set_letters = BraidWord._setters
    set_n(word, n)
    set_letters(word, letters)
    return word


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
    """Group inverse: reversed word with negated exponents, reduced as a is."""
    return _word(a.n, tuple([letter.inverse() for letter in reversed(a.letters)]))


class Permutation(_Record):
    """A permutation of {1..n}; images[j-1] is where top position j lands.

    Braid words stack top to bottom, so the permutation of a product word ab
    sends j to p_b(p_a(j)), where p_a and p_b are the permutations of a and b.
    """

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self._store(tuple(images))

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, j: int) -> int:
        return self.images[j - 1]

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


def crossing_sums(beta: BraidWord) -> tuple[list[int], dict[tuple[int, int], int]]:
    """The one strand scan: the strand at each bottom position (index 0
    unused), and the signed crossing total of each strand pair (u, v), u the
    strand entering the syllable at its left position. Tau letters are skipped."""
    pos2strand = list(range(beta.n + 1))
    pairs: dict[tuple[int, int], int] = {}
    for letter in beta.letters:
        if letter.kind == SIGMA:
            i, e = letter.index, letter.exponent
            u, v = pair = pos2strand[i], pos2strand[i + 1]
            pairs[pair] = pairs.get(pair, 0) + e
            if e % 2:
                pos2strand[i], pos2strand[i + 1] = v, u
    return pos2strand, pairs


def permutation_of(a: BraidWord) -> Permutation:
    """Projection to S_n: sigma_i maps to (i, i+1), tau letters to nothing;
    the inverse of the scan's bottom positions."""
    pos2strand = crossing_sums(a)[0]
    return Permutation(tuple(sorted(range(1, a.n + 1), key=pos2strand.__getitem__)))


def exponent_sum(a: BraidWord) -> int:
    """Total signed exponent over all letters, sigma and tau alike."""
    return sum(letter.exponent for letter in a.letters)
