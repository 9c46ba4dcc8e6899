"""
Left-greedy Garside normal form, deciding the word problem in B_n.

Every braid is written uniquely as Delta^p x1 x2 ... xk where Delta is the
half twist, each xi is a permutation braid (a positive braid in which any
two strands cross at most once) other than the identity or Delta, and each
consecutive pair is left-weighted: the starting set of x(i+1) is contained
in the finishing set of xi. Two words are equal in B_n exactly when they
have identical normal forms. are_equal normalizes only what is left once
the syllables both words share at their two ends are cancelled.

Internally a permutation braid is the one-line tuple of its permutation,
0-based, with the product composed left to right like the words themselves
(apply the left factor first). In that convention:

- the starting set of x (generators dividing x on the left) is the descent
  set of the one-line word of x,
- the finishing set is the descent set of the inverse word,
- a negative crossing rewrites as Delta^-1 (Delta sigma_i^-1) with the
  parenthesized part a permutation braid, and Delta powers are carried to
  the front through the flip automorphism Delta^-1 x Delta.

Tables are never built, so the engine works for any n, but the cost grows
faster than quadratically in the crossing count. Measured on a 2-vCPU Xeon
under CPython 3.11 (bench/baseline.json): 142 crossings on 4 strands take
85 ms, 184 crossings on 8 strands 0.63 s, and 94 and 390 crossings on 16
strands 1.1 s and 13 s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import BraidWord, Letter, Permutation, sigma

Perm = tuple[int, ...]


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _w0(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def _mul(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[x] for x in p)


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _flip(p: Perm) -> Perm:
    """Conjugation by Delta: w0 p w0, the index-reversing automorphism."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def _swap_positions(p: Perm, i: int) -> Perm:
    """Left multiply by s_i (0-based): swap entries at positions i, i+1."""
    q = list(p)
    q[i], q[i + 1] = q[i + 1], q[i]
    return tuple(q)


def _swap_values(p: Perm, i: int) -> Perm:
    """Right multiply by s_i (0-based): swap the values i, i+1."""
    q = list(p)
    a, b = q.index(i), q.index(i + 1)
    q[a], q[b] = q[b], q[a]
    return tuple(q)


def _starting_set(p: Perm) -> set[int]:
    """0-based i with sigma_(i+1) a left divisor: descents of the word."""
    return {i for i in range(len(p) - 1) if p[i] > p[i + 1]}


def _finishing_set(p: Perm) -> set[int]:
    """0-based i with sigma_(i+1) a right divisor: descents of the inverse."""
    return _starting_set(_inv(p))


def _left_weight_pair(x: Perm, y: Perm) -> tuple[Perm, Perm]:
    """Slide head generators of y into x until the pair is left-weighted."""
    while True:
        movable = _starting_set(y) - _finishing_set(x)
        if not movable:
            return x, y
        i = min(movable)
        x = _swap_values(x, i)
        y = _swap_positions(y, i)


def _normalize_factors(factors: list[Perm], n: int) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight an arbitrary factor sequence; return (Delta shift, factors)."""
    ident = _identity(n)
    w0 = _w0(n)
    factors = [f for f in factors if f != ident]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y = _left_weight_pair(factors[i], factors[i + 1])
            if (x, y) != (factors[i], factors[i + 1]):
                factors[i], factors[i + 1] = x, y
                changed = True
    lo = 0
    hi = len(factors)
    while lo < hi and factors[lo] == w0:
        lo += 1
    while lo < hi and factors[hi - 1] == ident:
        hi -= 1
    return lo, tuple(factors[lo:hi])


def _reduced_word(p: Perm) -> list[int]:
    """A reduced expression for p, pulling the smallest starting letter each time."""
    word: list[int] = []
    q = p
    while True:
        descents = _starting_set(q)
        if not descents:
            return word
        i = min(descents)
        word.append(i)
        q = _swap_positions(q, i)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Canonical form Delta^inf f1 ... fk; equal forms mean equal braids."""

    n: int
    inf: int
    factors: tuple[Permutation, ...]

    def to_word(self) -> BraidWord:
        """Spell the normal form back as a braid word (Delta power first)."""
        delta = _reduced_word(_w0(self.n))
        letters: list[Letter] = []
        if self.inf >= 0:
            letters.extend(sigma(i + 1) for _ in range(self.inf) for i in delta)
        else:
            letters.extend(
                sigma(i + 1, -1) for _ in range(-self.inf) for i in reversed(delta)
            )
        for factor in self.factors:
            perm0 = tuple(x - 1 for x in factor.images)
            letters.extend(sigma(i + 1) for i in _reduced_word(perm0))
        return BraidWord(self.n, tuple(letters))


def to_normal_form(a: BraidWord) -> GarsideNormalForm:
    """Left-greedy normal form of a sigma-only word.

    Raises ValueError on tau letters; framed words are normalized in the
    framed module, which strips the twist prefix first.
    """
    if a.has_tau():
        raise ValueError("word contains tau letters; only B_n words have a Garside form")
    n = a.n
    w0 = _w0(n)
    factors: list[Perm] = []
    shifts: list[int] = []
    for unit in a.unit_letters():
        i = unit.index - 1
        s_i = _swap_positions(_identity(n), i)
        if unit.exponent > 0:
            factors.append(s_i)
            shifts.append(0)
        else:
            factors.append(_mul(w0, s_i))
            shifts.append(-1)
    # Carry each Delta^-1 to the front; a factor is flipped once for every
    # Delta passing it from the right, and Delta^2 is central so only parity
    # matters.
    carried = 0
    for k in range(len(factors) - 1, -1, -1):
        if carried % 2 != 0:
            factors[k] = _flip(factors[k])
        carried += shifts[k]
    shift, normal = _normalize_factors(factors, n)
    return GarsideNormalForm(
        n,
        carried + shift,
        tuple(Permutation(tuple(x + 1 for x in f)) for f in normal),
    )


def are_equal(a: BraidWord, b: BraidWord) -> bool:
    """Decide equality in B_n on the unshared middles: B_n is a group, so
    p x s = p y s exactly when x = y, and identical words are never normalized."""
    if a.n != b.n:
        raise ValueError(f"cannot compare words on {a.n} and {b.n} strands")
    # checked here because shared ends never reach to_normal_form
    if a.has_tau() or b.has_tau():
        raise ValueError("word contains tau letters; only B_n words have a Garside form")
    x, y = a.letters, b.letters
    lo = hi = 0
    while lo < min(len(x), len(y)) and x[lo] == y[lo]:
        lo += 1
    while lo + hi < min(len(x), len(y)) and x[-1 - hi] == y[-1 - hi]:
        hi += 1
    x, y = x[lo : len(x) - hi], y[lo : len(y) - hi]
    if not x and not y:
        return True
    return to_normal_form(BraidWord(a.n, x)) == to_normal_form(BraidWord(b.n, y))


def is_identity(a: BraidWord) -> bool:
    nf = to_normal_form(a)
    return nf.inf == 0 and not nf.factors


def delta_word(n: int) -> BraidWord:
    """The half twist Delta_n as an explicit positive word."""
    return BraidWord(n, tuple(sigma(i + 1) for i in _reduced_word(_w0(n))))
