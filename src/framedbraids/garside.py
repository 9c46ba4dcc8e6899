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

to_normal_form refuses, with ValueError, work over two caps, but the caps
bound work, not time. MAX_UNIT_CROSSINGS caps the crossings before they
are expanded: 2000 is 5x the 390 above, and 1002 crossings on 4 strands
(s2^-500 s1 s3^-1 s2^500) take 1.3-2.2 s. MAX_WORK caps n x (unit
crossings + left-weighting steps), a step being one pair visit or one
generator moved: the 390-crossing case costs 36.0 M, and the budget of
40 M stops a negative crossing on 1024 strands, whose Delta complement
moves one generator at a time, after about 12 s. A step costs about
4 us + 0.3 us x n, yet the budget charges n for it, so at small n more
time fits under it: eq --n 4 "s1^1000 s3^1000" "s3^1000 s1^1000" sits
under both caps (12.0 M work, 2000 crossings a side) and takes 19-23 s.
"""

from __future__ import annotations

from .words import BraidWord, Permutation, _Record

Perm = tuple[int, ...]

MAX_UNIT_CROSSINGS = 2000  # checked before expansion
MAX_WORK = 40_000_000  # n x (unit crossings + left-weighting steps)


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


def _left_weight_pair(x: Perm, y: Perm, budget: int) -> tuple[Perm, Perm, int]:
    """Slide head generators of y into x until the pair is left-weighted;
    the visit and each move spend one step of the budget, which is returned."""
    while True:
        budget -= 1
        if budget < 0:
            raise ValueError(f"Garside normal form exceeds its work budget: n x (unit "
                             f"crossings + left-weighting steps) is over {MAX_WORK} at n={len(x)}")
        movable = _starting_set(y) - _finishing_set(x)
        if not movable:
            return x, y, budget
        i = min(movable)
        x = _swap_values(x, i)
        y = _swap_positions(y, i)


def _normalize_factors(factors: list[Perm], n: int, budget: int) -> tuple[int, tuple[Perm, ...]]:
    """Left-weight an arbitrary factor sequence within budget steps; return
    (Delta shift, factors)."""
    ident = _identity(n)
    w0 = _w0(n)
    factors = [f for f in factors if f != ident]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            x, y, budget = _left_weight_pair(factors[i], factors[i + 1], budget)
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


class GarsideNormalForm(_Record):
    """Canonical form Delta^inf f1 ... fk; equal forms mean equal braids."""

    __slots__ = ("n", "inf", "factors")

    def __init__(self, n: int, inf: int, factors: tuple[Permutation, ...]):
        self._store(n, inf, factors)


def to_normal_form(a: BraidWord) -> GarsideNormalForm:
    """Left-greedy normal form of a sigma-only word.

    Raises ValueError on tau letters; framed words are normalized in the
    framed module, which strips the twist prefix first.
    """
    if a.has_tau():
        raise ValueError("word contains tau letters; only B_n words have a Garside form")
    units = sum([abs(letter.exponent) for letter in a.letters])
    if units > MAX_UNIT_CROSSINGS:
        raise ValueError(f"Garside normal form takes at most {MAX_UNIT_CROSSINGS} "
                         f"unit crossings, got {units}")
    n = a.n
    w0 = _w0(n)
    factors: list[Perm] = []
    # Walk the crossings right to left, carrying each Delta^-1 to the front:
    # a factor is flipped once for every Delta passing it from the right,
    # that is for every negative crossing to its right, and Delta^2 is
    # central so only the parity of that count matters. The crossings of
    # one syllable share their factor, built once with its flip.
    carried = 0
    for letter in reversed(a.letters):
        e = letter.exponent
        s_i = _swap_positions(_identity(n), letter.index - 1)
        factor = s_i if e > 0 else _mul(w0, s_i)
        by_parity = (factor, _flip(factor))
        for _ in range(abs(e)):
            factors.append(by_parity[carried % 2])
            if e < 0:
                carried -= 1
    factors.reverse()
    shift, normal = _normalize_factors(factors, n, MAX_WORK // n - units)
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
