"""Differential tests: every move word, relation side and Hilden sample that
the package spells as one letter tuple normalized once agrees with the same
object built from crossing runs and product chains; the one letter pass,
the inverse and twist conjugation agree with the normal form, inverse and
conjugate built through whole words; and multiply, inverse, conjugate and
the twist conjugation and double coset moves agree with the strand-scan
formulas they replaced (tests/oracles.py). parse, BraidWord and the letter
pass refuse the same words, at the same letter."""

import random

import pytest

from framedbraids import hilden, moves
from framedbraids.framed import FramedBraid, _normal_form, inverse, multiply, spell
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.parser import WordParseError, parse
from framedbraids.words import SIGMA, BraidWord, sigma, tau

from oracles import (
    concat_tau_chain,
    product_conjugate,
    product_evaluate,
    product_hilden_sample,
    run_inclusion_letters,
    run_l_move_letters,
    scan_inverse,
    scan_multiply,
    scan_tau_conjugate,
    spelled_inverse,
    word_normalize,
)

DRAWS = 2000


def test_move_words_match_the_run_built_words():
    rng = random.Random(18)
    for _ in range(DRAWS):
        n = rng.randint(1, 5)
        a = sample_framed_braid(rng, n, rng.randint(0, 12))
        word = spell(a)
        split = rng.randint(0, len(word.letters))
        i = rng.randint(1, n)
        sign, over, twist = rng.choice((-1, 1)), rng.random() < 0.5, rng.choice((-1, 0, 1))
        assert moves._l_move_letters(
            n, word.letters, split, i, sign, over, twist) == run_l_move_letters(
            word, split, i, sign, over, twist)
        j = rng.randint(1, n + 1)
        over_letters = run_inclusion_letters(word, j, over=True)
        under_letters = run_inclusion_letters(word, j, over=False)
        assert moves._drag(word.letters, j, n, -1) == over_letters
        assert moves._drag(word.letters, j, n, 1) == under_letters
        assert moves.over_inclusion(word, j) == BraidWord(n + 1, over_letters)
        assert moves.under_inclusion(word, j) == BraidWord(n + 1, under_letters)
        exp = rng.choice((-1, 1))
        assert moves.tau_conjugation_as_RL_sequence(a, i, exp) == concat_tau_chain(a, i, exp)


def _conjugated_dictionary(rng, suite, n):
    """The suite's built-in dictionary conjugated by a random element, with a
    random element for every name of the suite's relations it lacks."""
    g = sample_framed_braid(rng, 2 * n, 6)
    base = hilden.GeneratorDictionary.builtin(suite, n)
    entries = {name: moves.conjugate(h, g) for name, h in base.entries.items()}
    for inst in hilden.suite_instances(suite, n):
        for name, _ in inst.lhs + inst.rhs:
            if name not in entries:
                entries[name] = sample_framed_braid(rng, 2 * n, rng.randint(0, 6))
    return hilden.GeneratorDictionary(n, entries)


def test_relation_sides_match_the_product_of_their_entries():
    rng = random.Random(18)
    sides = 0
    for suite in hilden.SUITES:
        for n in (1, 1, 2, 2, 3, 3, 4, 4):
            dictionary = _conjugated_dictionary(rng, suite, n)
            for inst in hilden.suite_instances(suite, n):
                # the third side adds a power below -1
                for side in (inst.lhs, inst.rhs, inst.lhs + ((inst.lhs[0][0], -2),)):
                    assert hilden._evaluate(side, dictionary) == product_evaluate(side, dictionary)
                    sides += 1
    assert sides >= DRAWS


def test_hilden_samples_match_the_multiply_chain_and_draw_alike():
    for seed in range(DRAWS):
        half, max_factors = 2 + seed % 3, seed % 9
        ours, theirs = random.Random(seed), random.Random(seed)
        sample = sample_hilden_product(ours, half, max_factors)
        assert sample == product_hilden_sample(theirs, half, max_factors)
        assert ours.getstate() == theirs.getstate()


def _normal_form_or_error(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


def test_the_letter_pass_matches_the_mixed_word_normal_form():
    rng = random.Random(24)
    cases = [
        (2, (sigma(1), tau(1), sigma(1, -1))),  # a twist between cancelling sigmas
        (3, (sigma(2, 3), tau(3, 2), sigma(2, -1), tau(2, -2), sigma(2, -2))),
        (3, (sigma(5), sigma(5, -1))),  # out of range: refused, though it cancels
        (3, (sigma(5), tau(1), sigma(5, -1))),  # a twist keeps it from cancelling
        (3, (tau(4), tau(4, -1), sigma(1))),
        (3, (sigma(1), tau(4), sigma(3))),
        (1, (tau(1, 2), sigma(1))),
    ]

    def letter(n):
        bump = rng.random() < 0.03  # one past the range, so some words are refused
        e = rng.choice((-2, -1, 1, 2))
        if n == 1 or rng.random() < 0.3:
            return tau(rng.randint(1, n + bump), e)
        return sigma(rng.randint(1, n - 1 + bump), e)

    for _ in range(DRAWS):
        n = rng.randint(1, 5)
        cases.append((n, tuple([letter(n) for _ in range(rng.randint(0, 12))])))
    refused = 0
    for n, letters in cases:
        ours = _normal_form_or_error(lambda: _normal_form(n, letters))
        assert ours == _normal_form_or_error(lambda: word_normalize(BraidWord(n, letters)))
        refused += isinstance(ours, str)
    assert 50 <= refused <= DRAWS // 10  # most words are accepted
    # s1 t1 s1^-1: the twist sits on the ribbon that s1 brought to position 1
    assert _normal_form(2, cases[0][1]) == FramedBraid(2, (0, 1), BraidWord(2))
    assert _normal_form_or_error(lambda: _normal_form(3, cases[3][1])) == (
        "sigma index 5 out of range for n=3")
    with pytest.raises(ValueError, match="strand count must be >= 1, got 0"):
        _normal_form(0, ())


def test_parse_braidword_and_the_letter_pass_share_one_bounds_rule():
    rng = random.Random(25)
    cases = [(3, (sigma(5), sigma(5, -1))),
             (3, (sigma(2), tau(4), tau(4, -1), sigma(2, -1)))]

    def letter(n):  # indices 1..n+1, so some letters are out of range
        e = rng.choice((-2, -1, 1, 2))
        if n == 1 or rng.random() < 0.3:
            return tau(rng.randint(1, n + 1), e)
        return sigma(rng.randint(1, n), e)

    for _ in range(DRAWS):
        n = rng.randint(1, 5)
        letters = [letter(n) for _ in range(rng.randint(0, 6))]
        # a nest of cancelling pairs, such as s2 t4 t4^-1 s2^-1
        nest = [letter(n) for _ in range(rng.randint(0, 2))]
        at = rng.randint(0, len(letters))
        letters[at:at] = nest + [x.inverse() for x in reversed(nest)]
        cases.append((n, tuple(letters)))
    refused = 0
    for n, letters in cases:
        text = " ".join(f"{'s' if x.kind == SIGMA else 't'}{x.index}^{x.exponent}"
                        for x in letters)
        ours = _normal_form_or_error(lambda: _normal_form(n, letters))
        try:
            word = BraidWord(n, letters)
        except ValueError as err:
            assert ours == str(err)
            kind, _, index = str(err).split()[:3]
            with pytest.raises(WordParseError, match=f"^{kind[0]}{index} out of range"):
                parse(text, n)
            refused += 1
        else:
            assert parse(text, n) == word
            assert ours == word_normalize(word)
    assert DRAWS // 10 <= refused <= DRAWS * 9 // 10  # both answers are drawn often
    assert _normal_form_or_error(lambda: _normal_form(*cases[0])) == (
        "sigma index 5 out of range for n=3")
    assert _normal_form_or_error(lambda: _normal_form(*cases[1])) == (
        "tau index 4 out of range for n=3")


def test_inverse_and_twist_conjugation_match_the_whole_word_forms():
    rng = random.Random(24)
    for _ in range(DRAWS):
        n = rng.randint(1, 6)
        a = sample_framed_braid(rng, n, rng.randint(0, 12))
        g = sample_framed_braid(rng, n, rng.randint(0, 6))
        assert inverse(a) == spelled_inverse(a)
        assert moves.conjugate(a, g) == product_conjugate(a, g)
        i, s = rng.randint(1, n), rng.choice((-1, 1))
        twist = word_normalize(BraidWord(n, (tau(i, s),)))
        d = moves.MoveDescriptor("TauConjugation", index=i, sign=s)
        assert moves.apply_move(a, d) == product_conjugate(a, twist)


def test_compositions_match_the_strand_scan_formulas():
    rng = random.Random(25)
    for _ in range(DRAWS):
        n = rng.randint(1, 8)
        a, b, g = [sample_framed_braid(rng, n, rng.randint(0, 20)) for _ in range(3)]
        assert multiply(a, b) == scan_multiply(a, b), (a, b)
        assert inverse(a) == scan_inverse(a), a
        assert moves.conjugate(a, g) == scan_multiply(scan_multiply(scan_inverse(g), a), g)
        i, s = rng.randint(1, n), rng.choice((-1, 1))
        twisted = moves.apply_move(a, moves.MoveDescriptor("TauConjugation", index=i, sign=s))
        assert twisted == scan_tau_conjugate(a, i, s), (a, i, s)
        half = rng.randint(1, 4)
        a = sample_framed_braid(rng, 2 * half, rng.randint(0, 20))
        h1, h2 = sample_hilden_product(rng, half, 4), sample_hilden_product(rng, half, 4)
        moved = moves.apply_move(a, moves.MoveDescriptor("DoubleCoset", factors=(h1, h2)))
        assert moved == scan_multiply(scan_multiply(h1, a), h2), (a, h1, h2)
