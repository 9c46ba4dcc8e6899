import random

import pytest

from framedbraids.framed import (
    FramedBraid,
    framed_equal,
    inverse,
    multiply,
    normalize,
    spell,
)
from framedbraids.garside import are_equal
from framedbraids.parser import parse
from framedbraids.words import BraidWord, concat, exponent_sum, sigma, tau


def random_framed(rng: random.Random, n: int, length: int) -> FramedBraid:
    framings = tuple(rng.randint(-3, 3) for _ in range(n))
    letters = tuple(
        sigma(rng.randint(1, n - 1), rng.choice([-2, -1, 1, 2]))
        for _ in range(length if n >= 2 else 0)
    )
    return FramedBraid(n, framings, BraidWord(n, letters))


def test_normal_form_validation():
    with pytest.raises(ValueError):
        FramedBraid(2, (0,), BraidWord(2))
    with pytest.raises(ValueError):
        FramedBraid(2, (0, 0), BraidWord(2, (tau(1),)))


def test_normalize_examples():
    a = normalize(parse("s1^-1 t1 s1^2", 2))
    assert a.framings == (0, 1) and a.beta == parse("s1", 2)

    b = normalize(parse("t1 t2 t1", 2))
    assert b.framings == (2, 1) and not b.beta.letters

    c = normalize(parse("s1 t1", 2))
    assert c.framings == (0, 1) and c.beta == parse("s1", 2)


def test_framed_equal_examples():
    assert framed_equal(normalize(parse("s1^-1 t1 s1^2", 2)), normalize(parse("t2 s1", 2)))
    assert not framed_equal(
        FramedBraid(2, (1, 0), BraidWord(2)), FramedBraid(2, (0, 1), BraidWord(2))
    )
    assert framed_equal(normalize(parse("t1 s1", 2)), normalize(parse("s1 t2", 2)))


def test_multiply_examples():
    a = FramedBraid(2, (1, 0), BraidWord(2))
    b = FramedBraid(2, (0, 2), BraidWord(2))
    assert multiply(a, b).framings == (1, 2)

    x = FramedBraid(2, (0, 0), parse("s1", 2))
    y = FramedBraid(2, (1, 0), BraidWord(2))
    prod = multiply(x, y)
    assert prod.framings == (0, 1) and prod.beta == parse("s1", 2)
    assert framed_equal(prod, normalize(parse("s1 t1", 2)))


def test_inverse_examples():
    a = FramedBraid(2, (1, 0), BraidWord(2))
    assert inverse(a).framings == (-1, 0)
    b = FramedBraid(2, (0, 0), parse("s1", 2))
    assert inverse(b).beta == parse("s1^-1", 2)
    c = FramedBraid(2, (1, 0), parse("s1", 2))
    prod = multiply(c, inverse(c))
    assert framed_equal(prod, FramedBraid.identity(2))
    assert framed_equal(multiply(inverse(c), c), FramedBraid.identity(2))


def test_project_pi():
    # the projection RB_n -> B_n forgets the twists: it is the beta field
    assert normalize(parse("t1 s1 t2^-1", 2)).beta == parse("s1", 2)
    assert not normalize(parse("t1 t3^-2", 3)).beta.letters


def test_multiply_mismatch():
    # RB_2's letters fit RB_3, so the letter pass alone would answer there
    two, three = normalize(parse("t1 s1", 2)), normalize(parse("t3 s1 s2", 3))
    with pytest.raises(ValueError, match=r"^cannot multiply elements of RB_2 and RB_3$"):
        multiply(two, three)
    with pytest.raises(ValueError, match=r"^cannot multiply elements of RB_3 and RB_2$"):
        multiply(three, two)


def test_spell_round_trip():
    rng = random.Random(20)
    for _ in range(60):
        a = random_framed(rng, rng.randint(1, 5), rng.randint(0, 10))
        assert normalize(spell(a)) == a


def test_normalize_is_element_preserving():
    # mixed words and their normal forms multiply consistently; both sides
    # keep the sigma letters in order, so the records agree exactly
    rng = random.Random(21)
    exponents = [-3, -2, -1, 1, 2, 3]

    def letter(n):
        if n == 1 or rng.random() < 0.4:
            return tau(rng.randint(1, n), rng.choice(exponents))
        return sigma(rng.randint(1, n - 1), rng.choice(exponents))

    for _ in range(2400):
        n = rng.randint(1, 6)
        w = BraidWord(n, tuple([letter(n) for _ in range(rng.randint(0, 10))]))
        wp = BraidWord(n, tuple([letter(n) for _ in range(rng.randint(0, 10))]))
        assert normalize(concat(w, wp)) == multiply(normalize(w), normalize(wp)), (w, wp)


def _relation_instances(n: int):
    """One word pair per instance of the four framed presentation families."""
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                yield (sigma(i), sigma(j), sigma(i)), (sigma(j), sigma(i), sigma(j))
            elif abs(i - j) >= 2 and i < j:
                yield (sigma(i), sigma(j)), (sigma(j), sigma(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield (tau(i), tau(j)), (tau(j), tau(i))
    for i in range(1, n):
        for j in range(1, n + 1):
            s_i_j = j if j not in (i, i + 1) else (i + 1 if j == i else i)
            yield (sigma(i), tau(j)), (tau(s_i_j), sigma(i))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_presentation_relations_round_trip(n):
    for lhs, rhs in _relation_instances(n):
        a = normalize(BraidWord(n, lhs))
        b = normalize(BraidWord(n, rhs))
        assert framed_equal(a, b), (lhs, rhs)


def test_sum_invariance():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_framed(rng, n, rng.randint(0, 8))
        b = random_framed(rng, n, rng.randint(0, 8))
        total = exponent_sum(spell(a)) + exponent_sum(spell(b))
        assert exponent_sum(spell(multiply(a, b))) == total


def test_project_pi_homomorphism():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = random_framed(rng, n, rng.randint(0, 8))
        b = random_framed(rng, n, rng.randint(0, 8))
        assert are_equal(multiply(a, b).beta, concat(a.beta, b.beta))
