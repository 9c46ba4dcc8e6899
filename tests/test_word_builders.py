"""Differential tests: every move word, relation side and Hilden sample that
the package spells as one letter tuple normalized once agrees with the same
object built from crossing runs and multiply chains (tests/oracles.py)."""

import random

from framedbraids import hilden, moves
from framedbraids.framed import spell
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.words import BraidWord

from oracles import (
    concat_tau_chain,
    product_evaluate,
    product_hilden_sample,
    run_inclusion_letters,
    run_l_move_letters,
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
        assert moves._l_move_letters(word, split, i, sign, over, twist) == run_l_move_letters(
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
