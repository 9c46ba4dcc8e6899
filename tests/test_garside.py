import random

import pytest

from framedbraids import garside
from framedbraids.garside import (
    GarsideNormalForm,
    _finishing_set,
    _starting_set,
    _w0,
    are_equal,
    to_normal_form,
)
from framedbraids.parser import parse
from framedbraids.words import (
    BraidWord,
    Permutation,
    concat,
    exponent_sum,
    invert,
    permutation_of,
    sigma,
    tau,
)

from oracles import bfs_equal, burau_equal


def random_word(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = tuple(
        sigma(rng.randint(1, n - 1), rng.choice([-1, 1])) for _ in range(length)
    )
    return BraidWord(n, letters)


def half_twist(n: int) -> BraidWord:
    """Delta_n spelled sigma_1 (sigma_2 sigma_1) ... (sigma_(n-1) ... sigma_1)."""
    return BraidWord(n, tuple(sigma(i) for k in range(1, n) for i in range(k, 0, -1)))


def unit_letters(word: BraidWord) -> tuple:
    """The sigma syllables of word expanded into unit (exponent +-1) letters."""
    return tuple(sigma(x.index, 1 if x.exponent > 0 else -1)
                 for x in word.letters for _ in range(abs(x.exponent)))


def as_signed(word: BraidWord) -> tuple[int, ...]:
    return tuple(u.index * u.exponent for u in unit_letters(word))


def test_artin_relations():
    assert are_equal(parse("s1 s2 s1", 3), parse("s2 s1 s2", 3))
    assert are_equal(parse("s1 s3", 4), parse("s3 s1", 4))


def test_identity_form():
    nf = to_normal_form(BraidWord(3))
    assert nf.inf == 0 and nf.factors == ()


def test_tau_rejected():
    with pytest.raises(ValueError):
        to_normal_form(BraidWord(2, (tau(1),)))
    with pytest.raises(ValueError):
        are_equal(BraidWord(2, (tau(1),)), BraidWord(2))
    with pytest.raises(ValueError):
        are_equal(BraidWord(2, (tau(1),)), BraidWord(2, (tau(1),)))


def test_strand_mismatch():
    with pytest.raises(ValueError):
        are_equal(BraidWord(2), BraidWord(3))


def test_are_equal_examples():
    assert not are_equal(parse("s1", 3), parse("s2", 3))
    assert are_equal(parse("s1 s1^-1", 3), BraidWord(3))


def test_is_identity_examples():
    # a braid-relation consequence, confirmed by the rewriting oracle
    word = parse("s2 s1 s2 s1^-1 s2^-1 s1^-1", 3)
    assert are_equal(word, BraidWord(3))
    assert bfs_equal(as_signed(word), (), 3)
    assert not are_equal(parse("s1^2", 3), BraidWord(3))
    assert to_normal_form(BraidWord(4)) == GarsideNormalForm(4, 0, ())


def test_normal_form_structure():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 5)
        nf = to_normal_form(random_word(rng, n, rng.randint(0, 12)))
        w0 = _w0(n)
        ident = tuple(range(n))
        for factor in nf.factors:
            perm0 = tuple(x - 1 for x in factor.images)
            assert perm0 != w0 and perm0 != ident
        for left, right in zip(nf.factors, nf.factors[1:]):
            left0 = tuple(x - 1 for x in left.images)
            right0 = tuple(x - 1 for x in right.images)
            assert _starting_set(right0) <= _finishing_set(left0)


def test_congruence():
    rng = random.Random(7)
    for _ in range(40):
        a = random_word(rng, 3, rng.randint(0, 6))
        b = BraidWord(3, a.letters[:-1]) if a.letters else a
        c = random_word(rng, 3, rng.randint(0, 6))
        if are_equal(a, b):
            assert are_equal(concat(c, a), concat(c, b))


def test_delta_squared_central():
    rng = random.Random(8)
    for n in (2, 3, 4):
        delta2 = concat(half_twist(n), half_twist(n))
        assert to_normal_form(invert(delta2)) == GarsideNormalForm(n, -2, ())
        for _ in range(15):
            w = random_word(rng, n, rng.randint(0, 8))
            assert are_equal(concat(delta2, w), concat(w, delta2))


def test_class_invariants():
    rng = random.Random(9)
    for _ in range(60):
        a = random_word(rng, 3, rng.randint(0, 6))
        b = random_word(rng, 3, rng.randint(0, 6))
        if are_equal(a, b):
            assert exponent_sum(a) == exponent_sum(b)
            assert permutation_of(a) == permutation_of(b)


def test_oracle_agreement_sample():
    # small-scale version of the acceptance check: Garside equality agrees
    # with the faithful reduced Burau on B_3, and BFS confirms positives
    rng = random.Random(10)
    for _ in range(300):
        a = random_word(rng, 3, rng.randint(0, 6))
        b = random_word(rng, 3, rng.randint(0, 6))
        expected = burau_equal(as_signed(a), as_signed(b))
        assert are_equal(a, b) == expected
        if expected:
            assert bfs_equal(as_signed(a), as_signed(b), 3)


def test_negative_powers_normalize():
    nf = to_normal_form(parse("s1^-1", 2))
    assert nf.inf == -1 and nf.factors == ()
    nf = to_normal_form(parse("s1^-2 s2^-1 s1", 3))
    assert nf == GarsideNormalForm(3, -2, tuple(
        Permutation(images) for images in ((2, 3, 1), (2, 1, 3), (2, 1, 3))))


def _relator(rng: random.Random, n: int) -> tuple:
    """A word that is the identity in B_n but not freely trivial."""
    i = rng.randint(1, n - 1)
    far = [j for j in range(1, n) if abs(i - j) >= 2]
    if far and rng.random() < 0.5:
        j = rng.choice(far)
        return (sigma(i), sigma(j), sigma(i, -1), sigma(j, -1))
    if n >= 3:
        j = i + 1 if i < n - 1 else i - 1
        return (sigma(i), sigma(j), sigma(i), sigma(j, -1), sigma(i, -1), sigma(j, -1))
    return (sigma(i), sigma(i, -1))


def _middles(rng: random.Random, n: int, kind: int) -> tuple[BraidWord, BraidWord]:
    """Middles x, y: equal in B_n for kinds 0-3 and 5 (both empty), unequal
    for 4, and either way for 6 (one side empty) and 7 (independent words)."""
    i = rng.randint(1, n - 1)
    x = random_word(rng, n, rng.randint(1, 8))
    if not x.letters:
        x = BraidWord(n, (sigma(i),))
    units = unit_letters(x)
    cut = rng.randint(0, len(units))
    u, v = units[:cut], units[cut:]
    if kind == 0:
        return x, BraidWord(n, units)
    if kind == 1:
        return x, BraidWord(n, u + _relator(rng, n) + v)
    if kind == 2:
        e = rng.choice((1, -1))
        return x, BraidWord(n, u + (sigma(i, e), sigma(i, -e)) + v)
    if kind == 3:
        i = rng.randint(1, n - 2) if n >= 3 else 1
        j = i + 1 if n >= 3 else i
        return (BraidWord(n, u + (sigma(i), sigma(j), sigma(i)) + v),
                BraidWord(n, u + (sigma(j), sigma(i), sigma(j)) + v))
    if kind == 4:
        k = rng.randrange(len(units))
        flipped = units[:k] + (units[k].inverse(),) + units[k + 1:]
        return x, BraidWord(n, flipped)
    if kind == 5:
        return BraidWord(n), BraidWord(n)
    if kind == 6:
        return BraidWord(n), rng.choice((BraidWord(n, _relator(rng, n)), x))
    return x, random_word(rng, n, rng.randint(0, 8))


def test_are_equal_matches_full_normal_forms_on_shared_ends():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for trial in range(3200):
        n = rng.randint(2, 6)
        p = random_word(rng, n, rng.randint(0, 6))
        s = random_word(rng, n, rng.randint(0, 6))
        x, y = _middles(rng, n, trial % 8)
        if rng.random() < 0.5:
            x, y = y, x
        a, b = concat(concat(p, x), s), concat(concat(p, y), s)
        expected = to_normal_form(a) == to_normal_form(b)
        assert are_equal(a, b) == expected, (a, b)
        seen[expected] += 1
    assert min(seen.values()) > 800


def test_are_equal_normalizes_only_the_unshared_middles(monkeypatch):
    recorded = []
    full = garside.to_normal_form

    def spy(word):
        recorded.append(word)
        return full(word)

    monkeypatch.setattr(garside, "to_normal_form", spy)
    p, s = parse("s1^2 s3 s2^-1", 5), parse("s1 s2^3", 5)
    x, y = parse("s4 s3 s4", 5), parse("s3 s4 s3", 5)
    assert garside.are_equal(concat(concat(p, x), s), concat(concat(p, y), s))
    assert recorded == [x, y]

    recorded.clear()
    assert not garside.are_equal(concat(p, s), concat(concat(p, y), s))
    assert recorded == [BraidWord(5), y]

    recorded.clear()
    word = concat(concat(p, x), s)
    assert garside.are_equal(word, BraidWord(5, word.letters))
    assert recorded == []


def test_unit_crossing_cap_is_checked_before_expansion():
    assert garside.MAX_UNIT_CROSSINGS == 2000
    assert to_normal_form(BraidWord(2, (sigma(1, 2000),))).inf == 2000
    for exponent in (2001, -(10 ** 12)):
        with pytest.raises(ValueError) as err:
            to_normal_form(BraidWord(2, (sigma(1, exponent),)))
        message = f"Garside normal form takes at most 2000 unit crossings, got {abs(exponent)}"
        assert str(err.value) == message
    # the cap counts every syllable of the word, not only the largest
    word = parse("s2^-1000 s1 s2^1000", 3)
    with pytest.raises(ValueError, match="got 2001"):
        to_normal_form(word)
    assert are_equal(parse("s2^-1998 s1 s2", 3), parse("s1 s2 s1^-1998", 3))


def test_work_budget_counts_crossings_pair_visits_and_moves(monkeypatch):
    # n x (5 unit crossings + 99 left-weighting steps) = 8 x 104
    word = parse("s1^-1 s2 s1^-1 s5 s6^-1", 8)
    expected = to_normal_form(word)
    monkeypatch.setattr(garside, "MAX_WORK", 8 * 104)
    assert to_normal_form(word) == expected
    monkeypatch.setattr(garside, "MAX_WORK", 8 * 104 - 1)
    with pytest.raises(ValueError) as err:
        to_normal_form(word)
    assert str(err.value) == ("Garside normal form exceeds its work budget: n x (unit crossings "
                              "+ left-weighting steps) is over 831 at n=8")


@pytest.mark.parametrize("n, crossings", [(16, 58), (4, 192)])
def test_largest_word_problem_inputs_answer_under_both_limits(n, crossings):
    # the equality benchmark's largest words at n=16 and n=4
    rng = random.Random(n * 1000 + crossings)
    letters: list = []
    while len(letters) < crossings:
        letter = sigma(rng.randint(1, n - 1), rng.choice((1, -1)))
        if not letters or letters[-1] != letter.inverse():
            letters.append(letter)
    word = BraidWord(n, tuple(letters))
    assert sum(abs(letter.exponent) for letter in word.letters) == crossings
    nf = to_normal_form(word)
    # the exponent sum is a class invariant: Delta has n(n-1)/2 crossings
    # and each factor as many as its permutation has inversions
    lengths = [sum(a > b for k, a in enumerate(f.images) for b in f.images[k + 1:])
               for f in nf.factors]
    assert exponent_sum(word) == nf.inf * n * (n - 1) // 2 + sum(lengths)
