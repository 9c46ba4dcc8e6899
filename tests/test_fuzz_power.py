"""The fuzz harness catches broken moves: a standing mutant suite.

Each mutant replaces one move kind's word with a plausible wrong one, and
run_fuzz, restricted to that mutant's kinds, must fail at seed 0 within 200
trials. fuzz binds apply_move at import, so the mutants are patched into
framedbraids.fuzz, not framedbraids.moves. The same configurations pass
with the true applier, so each failure is the mutant's.

Two mutants the harness cannot see: an IntRL move without its
t_(i+1)^k ... t_(i+1)^-k wrap, and Conjugation by g^-1 in place of g. Each
changes the braid only by a conjugation, which no closure signature sees.
Laws on the moved element itself catch them instead, over fuzz-shaped
draws: the same draws pass every law with the true applier.
"""

import random

import pytest

from framedbraids import fuzz
from framedbraids.framed import (_normal_form, _spelled_letters, framed_equal, inverse,
                                multiply)
from framedbraids.fuzz import FuzzConfig, run_fuzz
from framedbraids.moves import (FACTOR_NAMES, FIELDS_READ, INT_RL_KINDS, RL_KINDS,
                                MoveDescriptor, _drag, apply_move)
from framedbraids.words import sigma, tau


def _rl_letters(a, d, twist_sign=-1, follow_ribbon=True):
    """The dragged RL word of moves._l_move_letters; its compensating twist
    is t^(twist_sign x sign) on ribbon n, or on ribbon index when it does
    not follow the cut ribbon. The defaults give the true move."""
    n, i = a.n, d.index
    drag = -1 if d.kind.endswith("_over") else 1
    crossing = (tau(n if follow_ribbon else i, twist_sign * d.sign), sigma(n, d.sign))
    letters = _spelled_letters(a)
    cut = letters[:d.split] + _drag(crossing, i, n - 1, drag) + letters[d.split:]
    return _normal_form(n + 1, _drag(cut, i + 1, n, drag))


# name -> (the kinds it breaks, the broken applier of those kinds)
MUTANTS = {
    "RL compensation with the wrong sign": (
        RL_KINDS, lambda a, d: _rl_letters(a, d, twist_sign=1)),
    # the failure the _l_move_letters docstring warns of: the twist lands
    # on a bystander ribbon instead of following the cut ribbon to n
    "RL compensation left at index i": (
        RL_KINDS, lambda a, d: _rl_letters(a, d, follow_ribbon=False)),
    "RM without its twist": (
        ("RM",), lambda a, d: apply_move(a, MoveDescriptor("M", sign=d.sign))),
    "FramedStabilization without its twist": (
        ("FramedStabilization",),
        lambda a, d: apply_move(a, MoveDescriptor("ClassicalStabilization", sign=d.sign))),
    "TauConjugation with the sign flipped": (
        ("TauConjugation",),
        lambda a, d: apply_move(a, MoveDescriptor("TauConjugation", index=d.index,
                                                  sign=-d.sign))),
}


def _config(kinds):
    return FuzzConfig(seed=0, trials=200, move_mix=tuple([(kind, 1) for kind in kinds]))


def test_the_rl_mutants_differ_from_the_true_word_only_in_the_twist():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = fuzz.sample_framed_braid(rng, n, rng.randint(0, 6))
        d = MoveDescriptor(rng.choice(RL_KINDS), split=rng.randint(0, len(_spelled_letters(a))),
                           index=rng.randint(1, n), sign=rng.choice((-1, 1)))
        assert _rl_letters(a, d) == apply_move(a, d)


@pytest.mark.parametrize("name", MUTANTS)
def test_the_true_moves_pass_where_the_mutants_run(name):
    report = run_fuzz(_config(MUTANTS[name][0]))
    assert report["failed"] == 0, report["first_failure"]


@pytest.mark.parametrize("name", MUTANTS)
def test_run_fuzz_catches_the_mutant(name, monkeypatch):
    kinds, broken = MUTANTS[name]

    def mutant(a, d):
        return broken(a, d) if d.kind in kinds else apply_move(a, d)

    monkeypatch.setattr(fuzz, "apply_move", mutant)
    report = run_fuzz(_config(kinds))
    assert report["failed"] > 0, name
    assert report["first_failure"]["descriptor"]["kind"] in kinds


def _int_rl_law(a, d, apply):
    """IntRL with k = +-1 is IntRL with k = 0, then conjugation by t_(index+1)^k."""
    plain = apply(a, d._replace(k=0))
    twist = MoveDescriptor("TauConjugation", index=d.index + 1, sign=-d.k)
    return apply(a, d) == apply(plain, twist)


def _conjugation_law(a, d, apply):
    """The moved element is g^-1 a g: g times it is a times g."""
    g, = d.factors
    return framed_equal(multiply(g, apply(a, d)), multiply(a, g))


# name -> (the kinds it breaks, the broken applier of those kinds, the law
# on the moved element that sees it)
LAW_MUTANTS = {
    "IntRL without its wrap": (
        INT_RL_KINDS, lambda a, d: apply_move(a, d._replace(k=0)), _int_rl_law),
    "Conjugation by g^-1": (
        ("Conjugation",),
        lambda a, d: apply_move(a, d._replace(factors=(inverse(d.factors[0]),))),
        _conjugation_law),
}
LAW_DRAWS = 200
LAW_CONFIG = FuzzConfig(seed=0, trials=1)


def _law_draws(kinds, seed):
    """Braids and descriptors of the kinds as fuzz draws them, n = 1-5;
    an IntRL draw's k is +-1, as the law needs a twist to conjugate by."""
    rng = random.Random(seed)
    for _ in range(LAW_DRAWS):
        kind = rng.choice(kinds)
        n = rng.randint(1, 5)
        a = fuzz.sample_framed_braid(rng, n, rng.randint(0, 12))
        fields = {name: fuzz._draw(name, rng, a, LAW_CONFIG)
                  for name in FIELDS_READ[kind] if name != "factors"}
        if kind in INT_RL_KINDS:
            fields["k"] = rng.choice((-1, 1))
        factors = tuple([fuzz._draw(name, rng, a, LAW_CONFIG)
                         for name in FACTOR_NAMES.get(kind, ())])
        yield a, MoveDescriptor(kind, factors=factors, **fields)


@pytest.mark.parametrize("name", LAW_MUTANTS)
def test_the_true_moves_keep_the_moved_element_laws(name):
    kinds, _, law = LAW_MUTANTS[name]
    for a, d in _law_draws(kinds, name):
        assert law(a, d, apply_move), (a, d)


@pytest.mark.parametrize("name", LAW_MUTANTS)
def test_the_moved_element_laws_catch_the_mutant(name):
    kinds, broken, law = LAW_MUTANTS[name]

    def mutant(a, d):
        return broken(a, d) if d.kind in kinds else apply_move(a, d)

    caught = sum(not law(a, d, mutant) for a, d in _law_draws(kinds, name))
    assert caught > 0, name
