"""The package exports one name per idea; aliases that only restated another
name are gone, apply_move is the one move applier, and the names the
benchmark and acceptance checks 08 and 09 bind stay."""

import inspect

import pytest

import framedbraids
from framedbraids import closure, framed, hilden, moves, plat, words

EXPORTS = [
    "BraidWord", "FramedBraid", "GarsideNormalForm", "GeneratorDictionary",
    "Letter", "LinkSignature", "MoveDescriptor", "Permutation", "PlatSignature",
    "RelationReport", "WordParseError", "apply_move", "are_equal", "closure",
    "closure_signature", "concat", "conjugate", "delta_word", "double_coset_move",
    "exponent_sum", "format_word", "framed", "framed_equal",
    "framed_hilden_generator", "framed_stabilization", "garside", "hilden",
    "hilden_generator", "include_natural", "inverse", "invert", "is_identity",
    "knot_framing", "moves", "multiply", "normalize", "over_inclusion", "parse",
    "parser", "permutation_of", "plat", "plat_signature", "plat_trivializes",
    "sigma", "signatures_match", "solve_framing_transfer", "spell", "tau",
    "tau_conjugation_as_RL_sequence", "to_normal_form", "under_inclusion",
    "verify_relation_suite", "words",
]


def test_exports_are_pinned():
    assert sorted(framedbraids.__all__) == EXPORTS
    assert len(EXPORTS) == 53
    assert framedbraids.apply_move is moves.apply_move
    assert framedbraids.include_natural is words.include_natural


@pytest.mark.parametrize("owner, name", [
    (plat, "plat_signatures_match"),      # closure.signatures_match
    (hilden, "pure_framed_generator"),    # builtin_generator(PURE_SUITE, ...)
    (framed, "project_pi"),               # FramedBraid.beta
    (words.BraidWord, "__mul__"),         # concat
    (framed.FramedBraid, "__mul__"),      # multiply
    (words.Permutation, "transposition"),
    (moves, "apply_L_move"),              # apply_move(a, MoveDescriptor(...))
    (moves, "apply_RL_move"),
    (moves, "apply_integer_RL_move"),
    (moves, "apply_M_move"),
    (moves, "apply_RM_move"),
    (moves, "_check_applicable"),
])
def test_alias_is_gone(owner, name):
    assert name not in vars(owner)


def test_test_only_options_are_gone():
    assert list(inspect.signature(plat.double_coset_move).parameters) == ["b", "h1", "h2"]
    assert list(inspect.signature(plat.plat_signature).parameters) == ["b"]


def test_names_bound_by_the_benchmark_and_check_09_stay():
    assert plat.with_adjusted_framing is closure.with_adjusted_framing
    assert plat.is_plat_trivial is hilden.plat_trivializes
    for name in ("hilden_generator", "framed_hilden_generator", "builtin_generator"):
        assert callable(getattr(hilden, name))
    for name in ("builtin", "classical", "framed", "pure"):
        assert callable(getattr(hilden.GeneratorDictionary, name))


def test_plat_moves_bound_by_the_benchmark_and_check_08_stay():
    # bench/tracing.py wraps these by name, and check 08 calls the first two;
    # each is one call of apply_move.
    signatures = {
        "double_coset_move": ["b", "h1", "h2"],
        "framed_stabilization": ["b", "sign"],
        "classical_stabilization": ["b", "sign"],
    }
    for name, parameters in signatures.items():
        assert list(inspect.signature(getattr(plat, name)).parameters) == parameters
    assert framedbraids.double_coset_move is plat.double_coset_move
    assert framedbraids.framed_stabilization is plat.framed_stabilization
