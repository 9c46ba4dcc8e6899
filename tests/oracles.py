"""
Independent oracles used by the tests, kept deliberately free of the
package's normal-form machinery.

- Words here are tuples of signed generator numbers (2 means the second
  crossing generator, -2 its inverse), always freely reduced.
- bfs_equal decides equality by breadth-first search over free reduction,
  free insertion, and the signed consequences of the braid relations.
- Reduced Burau matrices over exact integer Laurent polynomials certify
  inequality in B_3, where the representation is faithful.
- brute_transfer searches an integer box for framing-transfer solutions.
- brute_canonical_order tries every tie-group permutation of a signature's
  components and keeps the lexicographically least reordered matrix.
- two_pass_closure and two_pass_plat compute closure and plat signatures
  the way the package did before its single crossing scan: the permutation
  first, then the components, then a crossing scan that already knows every
  strand's component and direction.
- plat_trivial reads plat-triviality off two_pass_plat's signature, as the
  package reads it off plat_signature.
- scan_parse parses the word DSL one character at a time, the way the
  package did before its one-regex tokenizer.
- h4_member decides membership in the Hilden subgroup H_4 of B_4 through
  an integer image in SL2(Z).
- bridge turns a framed braid into one whose plat closure is its standard
  closure; it multiplies with the package's framed group operations.
- scan_multiply, scan_inverse and scan_tau_conjugate are the semidirect
  product, the inverse and the twist conjugation move the way the package
  computed them before they became letter passes: the framings read off the
  strand scan, the braids concatenated, inverted or kept.
- word_normalize, spelled_inverse and product_conjugate build the normal
  form, the inverse and a conjugate the way the package did before its one
  pass over a letter tuple: the mixed word freely reduced, its sigma letters
  reduced again, the inverse as spell -> invert -> normalize, and the
  conjugate as two scan_multiply products.
- run_l_move_letters, run_inclusion_letters, concat_tau_chain,
  product_evaluate and product_hilden_sample build the move words, relation
  sides and Hilden samples the way the package did before it spelled each
  as one letter tuple normalized once: from crossing runs, and through
  chains of inclusions, concat, scan_multiply and scan_inverse.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Sequence

from framedbraids import framed, hilden
from framedbraids.parser import WordParseError
from framedbraids.words import (SIGMA, TAU, BraidWord, Letter, concat, crossing_sums,
                                include_natural, invert, sigma, tau)


# --- signed-word utilities -------------------------------------------------

def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def word_inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def relation_rewrites(word: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """All single applications of a signed braid-relation consequence.

    For adjacent generators i, j the usable length-preserving identities are
    (a b a) = (b a b) for equal signs, (a b a^-1) = (b^-1 a b) for the mixed
    patterns; far generators commute. Free reduction is applied afterwards.
    """
    results = []
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if abs(abs(a) - abs(b)) >= 2:
            results.append(free_reduce(word[:p] + (b, a) + word[p + 2:]))
    for p in range(len(word) - 2):
        a, b, c = word[p], word[p + 1], word[p + 2]
        if abs(abs(a) - abs(b)) != 1:
            continue
        same = (a > 0) == (b > 0)
        repl = None
        if c == a and same:
            repl = (b, a, b)
        elif c == -a and same:
            repl = (-b, a, b)
        elif c == -a and not same:
            repl = (b, -a, -b)
        if repl is not None:
            results.append(free_reduce(word[:p] + repl + word[p + 3:]))
    return results


def expansion_rewrites(word: tuple[int, ...], n: int, cap: int) -> list[tuple[int, ...]]:
    """Length-increasing moves: insert a cancelling pair, then immediately
    rewrite a relation pattern that straddles it.

    A bare insertion cancels right back under free reduction, so the only
    productive insertions are those composed with one relation application;
    enumerating the composites keeps every state freely reduced.
    """
    results = []
    if len(word) + 2 > cap:
        return results
    gens = [g for i in range(1, n) for g in (i, -i)]
    for p in range(len(word) + 1):
        for g in gens:
            raw = word[:p] + (g, -g) + word[p:]
            for candidate in relation_rewrites(raw, n):
                if free_reduce(candidate) != word and len(candidate) <= cap:
                    results.append(candidate)
    return results


def bfs_equal(
    a: tuple[int, ...],
    b: tuple[int, ...],
    n: int,
    extra: int = 4,
    budget: int = 200_000,
) -> bool:
    """Bidirectional BFS between freely reduced words over the relations."""
    a, b = free_reduce(a), free_reduce(b)
    if a == b:
        return True
    cap = max(len(a), len(b)) + extra
    sides = [{a}, {b}]
    frontiers = [deque([a]), deque([b])]
    explored = 2
    while frontiers[0] or frontiers[1]:
        if frontiers[0] and (not frontiers[1] or len(sides[0]) <= len(sides[1])):
            side = 0
        else:
            side = 1
        queue = frontiers[side]
        for _ in range(len(queue)):
            word = queue.popleft()
            neighbors = relation_rewrites(word, n) + expansion_rewrites(word, n, cap)
            for nxt in neighbors:
                if len(nxt) > cap or nxt in sides[side]:
                    continue
                if nxt in sides[1 - side]:
                    return True
                sides[side].add(nxt)
                queue.append(nxt)
                explored += 1
                if explored > budget:
                    raise RuntimeError("BFS oracle budget exhausted")
    return False


# --- exact Laurent polynomials and the reduced Burau of B_3 ----------------

class Laurent:
    """Integer Laurent polynomial as a sparse exponent-to-coefficient map."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def const(c: int) -> "Laurent":
        return Laurent({0: c})

    @staticmethod
    def t(power: int = 1, coeff: int = 1) -> "Laurent":
        return Laurent({power: coeff})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"Laurent({self.coeffs})"


Matrix = tuple[tuple[Laurent, Laurent], tuple[Laurent, Laurent]]

_ZERO = Laurent()
_ONE = Laurent.const(1)

_BURAU: dict[int, Matrix] = {
    1: ((Laurent.t(1, -1), _ONE), (_ZERO, _ONE)),
    -1: ((Laurent.t(-1, -1), Laurent.t(-1)), (_ZERO, _ONE)),
    2: ((_ONE, _ZERO), (Laurent.t(1), Laurent.t(1, -1))),
    -2: ((_ONE, _ZERO), (_ONE, Laurent.t(-1, -1))),
}


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            a[r][0] * b[0][c] + a[r][1] * b[1][c]
            for c in range(2)
        )
        for r in range(2)
    )  # type: ignore[return-value]


def burau_matrix(word: tuple[int, ...]) -> Matrix:
    """Reduced Burau matrix of a B_3 word, an exact complete invariant."""
    out: Matrix = ((_ONE, _ZERO), (_ZERO, _ONE))
    for g in word:
        out = _mat_mul(out, _BURAU[g])
    return out


def burau_equal(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return burau_matrix(a) == burau_matrix(b)


# --- brute-force framing transfer ------------------------------------------

def brute_transfer(
    images: tuple[int, ...],
    delta: tuple[int, ...],
    kappa: tuple[int, ...],
    box: int = 3,
) -> tuple[int, ...] | None:
    """First r in [-box, box]^m solving delta_i - r_i == kappa_i - r_p(i)."""
    m = len(images)
    for r in itertools.product(range(-box, box + 1), repeat=m):
        if all(
            delta[i] - r[i] == kappa[i] - r[images[i] - 1] for i in range(m)
        ):
            return r
    return None


# --- brute-force canonical component order ---------------------------------

def brute_canonical_order(
    framings: Sequence[int], matrix: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple]:
    """The (order, key) of the least (reordered matrix, order) among all
    orders that keep the base-key groups in sorted order, found by trying
    every permutation of every tied group."""
    k = len(framings)
    base: list[tuple[int, tuple[int, ...]]] = [
        (
            framings[c],
            tuple(sorted(abs(matrix[c][d]) for d in range(k) if d != c)),
        )
        for c in range(k)
    ]
    order = sorted(range(k), key=lambda c: (base[c], c))
    groups: list[list[int]] = []
    for c in order:
        if groups and base[groups[-1][0]] == base[c]:
            groups[-1].append(c)
        else:
            groups.append([c])

    def reordered(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(matrix[a][b] for b in perm) for a in perm)

    trivial_ties = all(len(g) == 1 for g in groups)
    zero_matrix = all(
        matrix[a][b] == 0 for a in range(k) for b in range(k) if a != b
    )
    if trivial_ties or zero_matrix:
        best = tuple(order)
    else:
        best = None
        best_mat = None
        for choice in itertools.product(*(itertools.permutations(g) for g in groups)):
            candidate = tuple(c for group in choice for c in group)
            mat = reordered(candidate)
            if best_mat is None or (mat, candidate) < (best_mat, best):
                best, best_mat = candidate, mat
    key = (tuple(base[c] for c in best), reordered(best))
    return best, key


# --- two-pass closure and plat signatures ----------------------------------

def _images(n: int, letters) -> list[int]:
    """images[j-1]: the bottom position of the strand entering at top j."""
    pos2strand = list(range(n + 1))
    for letter in letters:
        if letter.kind == "sigma" and letter.exponent % 2:
            i = letter.index
            pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
    images = [0] * n
    for pos in range(1, n + 1):
        images[pos2strand[pos] - 1] = pos
    return images


def _component_crossings(n, letters, comp_of: dict, direction: dict):
    """Self-writhe per component and signed linking matrix; each crossing
    counts with its letter sign times its strands' directions."""
    k = len(set(comp_of.values()))
    self_writhe = [0] * k
    cross = [[0] * k for _ in range(k)]
    pos2strand = list(range(n + 1))
    for letter in letters:
        if letter.kind != "sigma":
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
    assert all(total % 2 == 0 for row in cross for total in row)
    return self_writhe, [[total // 2 for total in row] for row in cross]


def two_pass_closure(b, convention: str):
    """(component count, ((sorted strands, framing), ...), canonical key) of
    the standard closure of a framed braid b."""
    images = _images(b.n, b.beta.letters)
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in range(1, b.n + 1):
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = images[j - 1]
        if cycle:
            cycles.append(tuple(cycle))
    comp_of = {s: c for c, cycle in enumerate(cycles) for s in cycle}
    self_writhe, linking = _component_crossings(
        b.n, b.beta.letters, comp_of, dict.fromkeys(comp_of, 1))
    framings = [sum(b.framings[s - 1] for s in cycle) for cycle in cycles]
    if convention == "blackboard":
        framings = [f + w for f, w in zip(framings, self_writhe)]
    order, key = brute_canonical_order(framings, linking)
    components = tuple((tuple(sorted(cycles[c])), framings[c]) for c in order)
    return len(cycles), components, (convention,) + key


def two_pass_plat(b):
    """(component count, ((sorted strands, framing, traversal), ...),
    canonical key) of the plat closure of a framed braid b on 2n ribbons."""
    images = _images(b.n, b.beta.letters)
    strand_at = {pos: j for j, pos in enumerate(images, start=1)}

    def partner(e: int) -> int:
        return e + 1 if e % 2 == 1 else e - 1

    traversals: list[list[tuple[int, str]]] = []
    direction: dict[int, int] = {}
    for start in range(1, b.n + 1):
        if start in direction:
            continue
        walk: list[tuple[int, str]] = []
        strand, down = start, True
        while True:
            walk.append((strand, "down" if down else "up"))
            direction[strand] = 1 if down else -1
            if down:
                strand = strand_at[partner(images[strand - 1])]
                down = False
            else:
                strand = partner(strand)
                down = True
            if strand == start and down:
                break
        traversals.append(walk)
    comp_of = {strand: c for c, walk in enumerate(traversals) for strand, _ in walk}
    self_writhe, linking = _component_crossings(b.n, b.beta.letters, comp_of, direction)
    abs_linking = [[abs(v) for v in row] for row in linking]
    framings = [
        sum(b.framings[strand - 1] for strand, _ in walk) + w
        for walk, w in zip(traversals, self_writhe)
    ]
    order, key = brute_canonical_order(framings, abs_linking)
    components = tuple(
        (tuple(sorted(strand for strand, _ in traversals[c])), framings[c], tuple(traversals[c]))
        for c in order
    )
    return len(traversals), components, ("plat",) + key


def plat_trivial(b) -> bool:
    """n/2 components, every framing 0 and every |linking| 0, read off the
    plat signature of b on 2n ribbons."""
    count, components, key = two_pass_plat(b)
    return (count == b.n // 2 and all(framing == 0 for _, framing, _ in components)
            and all(v == 0 for row in key[2] for v in row))


# --- character-scan parser -------------------------------------------------

def scan_parse(text: str, n: int) -> BraidWord:
    """The word DSL parsed by a character-at-a-time scan."""
    letters: list[Letter] = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch in " \t":
            pos += 1
            continue
        if ch not in "st":
            raise WordParseError(f"expected 's' or 't', found {ch!r}", pos)
        start = pos
        kind = SIGMA if ch == "s" else "tau"
        pos += 1
        index_start = pos
        while pos < end and text[pos] in "0123456789":
            pos += 1
        if pos == index_start:
            raise WordParseError("generator needs a decimal index", pos)
        index = int(text[index_start:pos])
        if index == 0:
            raise WordParseError("generator index must be nonzero", index_start)
        exponent = 1
        if pos < end and text[pos] == "^":
            pos += 1
            exp_start = pos
            if pos < end and text[pos] in "+-":
                pos += 1
            digits_start = pos
            while pos < end and text[pos] in "0123456789":
                pos += 1
            if pos == digits_start:
                raise WordParseError("exponent needs decimal digits", exp_start)
            exponent = int(text[exp_start:pos])
            if exponent == 0:
                raise WordParseError("exponent must be nonzero", exp_start)
        bound = n - 1 if kind == SIGMA else n
        if index > bound:
            raise WordParseError(
                f"{'s' if kind == SIGMA else 't'}{index} out of range for n={n}",
                start,
            )
        letters.append(Letter(kind, index, exponent))
    return BraidWord(n, tuple(letters))


# --- H_4 membership through SL2(Z) ------------------------------------------

Matrix2 = tuple[tuple[int, int], tuple[int, int]]


def h4_image(beta: BraidWord) -> Matrix2:
    """The image of a 4-strand braid in SL2(Z), with sigma_1 and sigma_3 sent
    to [[1, 1], [0, 1]] and sigma_2 to [[1, 0], [-1, 1]], multiplied in word
    order; tau letters carry framing only and are skipped."""
    if beta.n != 4:
        raise ValueError(f"H_4 lives in B_4, got a braid on {beta.n} strands")
    (a, b), (c, d) = (1, 0), (0, 1)
    for letter in beta.letters:
        if letter.kind != SIGMA:
            continue
        e = letter.exponent
        if letter.index == 2:  # right multiplication by [[1, 0], [-e, 1]]
            a, b, c, d = a - e * b, b, c - e * d, d
        else:  # right multiplication by [[1, e], [0, 1]]
            a, b, c, d = a, b + e * a, c, d + e * c
    return (a, b), (c, d)


def h4_member(beta: BraidWord) -> bool:
    """beta lies in H_4 exactly when the lower-left entry of its image is 0."""
    return h4_image(beta)[1][0] == 0


# --- closure as plat -------------------------------------------------------

def bridge(b):
    """N . iota_n(b) . N^-1 in RB_2n, whose plat closure is the standard
    closure of b on n ribbons (Birman, Canad. J. Math. 28, 1976).

    N is the positive permutation braid that sends strand 2k-1 to position k
    and strand 2k to position 2n+1-k, spelled by bubble sort: cap k of the
    plat joins strand k of b to the untouched return strand 2n+1-k.
    """
    n = b.n
    target = [(j + 1) // 2 if j % 2 else 2 * n + 1 - j // 2 for j in range(1, 2 * n + 1)]
    letters = []
    for end in range(2 * n - 1, 0, -1):
        for p in range(end):
            if target[p] > target[p + 1]:
                target[p], target[p + 1] = target[p + 1], target[p]
                letters.append(Letter(SIGMA, p + 1, 1))
    wide = framed.FramedBraid(2 * n, b.framings + (0,) * n, include_natural(b.beta, n))
    N = framed.normalize(BraidWord(2 * n, tuple(letters)))
    return framed.multiply(framed.multiply(N, wide), framed.inverse(N))


# --- the framed group operations off the strand scan ----------------------

def scan_multiply(a, b):
    """Semidirect product: b's framing at position p goes to the strand a leaves at p."""
    framings = list(a.framings)
    for strand, f in zip(crossing_sums(a.beta)[0][1:], b.framings):
        framings[strand - 1] += f
    return framed.FramedBraid(a.n, tuple(framings), concat(a.beta, b.beta))


def scan_inverse(a):
    """Group inverse beta^-1 t^-f: the twist t_p^-f_p below beta^-1 sits on
    the strand that beta leaves at bottom position p, so the framing at top
    position q is -f at the strand beta leaves at q."""
    pos2strand = crossing_sums(a.beta)[0]
    return framed.FramedBraid(
        a.n, tuple([-a.framings[pos2strand[q] - 1] for q in range(1, a.n + 1)]), invert(a.beta))


def scan_tau_conjugate(a, i, s):
    """t_i^-s a t_i^s: the last twist slides onto the strand beta leaves at
    i, so only two framings move."""
    framings = list(a.framings)
    framings[i - 1] -= s
    framings[crossing_sums(a.beta)[0][i] - 1] += s
    return framed.FramedBraid(a.n, tuple(framings), a.beta)


# --- the normal form, inverse and conjugate through whole words ------------

def word_normalize(w: BraidWord):
    """The framed normal form of w: each tau letter of the reduced mixed
    word slides onto its ribbon, and the sigma letters left are reduced as a
    BraidWord of their own."""
    framings = [0] * w.n
    pos2strand = list(range(w.n + 1))
    sigmas = []
    for letter in w.letters:
        if letter.kind == TAU:
            framings[pos2strand[letter.index] - 1] += letter.exponent
        else:
            sigmas.append(letter)
            if letter.exponent % 2:
                i = letter.index
                pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]
    return framed.FramedBraid(w.n, tuple(framings), BraidWord(w.n, tuple(sigmas)))


def spelled_inverse(a):
    """a^-1 as the normal form of the inverted spelled word."""
    return word_normalize(invert(BraidWord(a.n, framed.spell(a).letters)))


def product_conjugate(a, g):
    """g^-1 a g as two scan products around spelled_inverse(g)."""
    return scan_multiply(scan_multiply(spelled_inverse(g), a), g)


# --- move words, relation sides and samples from runs and products ---------

def _run(lo: int, hi: int, exponent: int) -> list[Letter]:
    """Ascending crossing run sigma_lo ... sigma_hi; empty when lo > hi."""
    return [sigma(i, exponent) for i in range(lo, hi + 1)]


def run_inclusion_letters(a: BraidWord, i: int, over: bool) -> tuple[Letter, ...]:
    """The unreduced letters of the over (under) inclusion o_i(a) (u_i(a))."""
    drag = -1 if over else 1
    return tuple(_run(i, a.n, drag)) + a.letters + tuple(reversed(_run(i, a.n, -drag)))


def run_l_move_letters(a: BraidWord, split: int, i: int, sign: int, over: bool,
                       twist: int) -> tuple[Letter, ...]:
    """The unreduced dragged word of an L, RL or integer RL move on a."""
    n = a.n
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


def _inclusion(a: BraidWord, i: int, over: bool) -> BraidWord:
    return BraidWord(a.n + 1, run_inclusion_letters(a, i, over))


def concat_tau_chain(a, i: int, exp: int):
    """(e1, e2, e3) of the twist-conjugation chain, through inclusions and concat."""
    n = a.n
    s = -exp
    word = framed.spell(a)
    over = exp == 1
    e1 = framed.normalize(concat(_inclusion(word, i, over),
                                 BraidWord(n + 1, (tau(i + 1, exp), sigma(i, s)))))
    left = BraidWord(n, (tau(i, -exp),))
    right = concat(word, BraidWord(n, (tau(i, exp),)))
    e2 = framed.normalize(concat(
        concat(_inclusion(left, i + 1, over), BraidWord(n + 1, (tau(i, exp), sigma(i, s)))),
        _inclusion(right, i + 1, over),
    ))
    return e1, e2, framed.normalize(concat(left, right))


def product_evaluate(word, dictionary):
    """A relation side as the product of its entries, one scan product per power."""
    out = framed.FramedBraid.identity(2 * dictionary.n)
    for name, exp in word:
        entry = dictionary.entries[name]
        if exp < 0:
            entry = scan_inverse(entry)
        for _ in range(abs(exp)):
            out = scan_multiply(out, entry)
    return out


def product_hilden_sample(rng: random.Random, half: int, max_factors: int):
    """fuzz.sample_hilden_product as a scan product chain, making the same draws."""
    names = [name for name in hilden.SUITE_GENERATORS[hilden.FRAMED_SUITE]
             if hilden.top_index(name, half) >= 1]
    out = framed.FramedBraid.identity(2 * half)
    for _ in range(rng.randint(0, max_factors)):
        name = rng.choice(names)
        index = rng.randint(1, hilden.top_index(name, half))
        factor = hilden.framed_hilden_generator(name, index, half)
        if rng.random() < 0.5:
            factor = scan_inverse(factor)
        out = scan_multiply(out, factor)
    return out
