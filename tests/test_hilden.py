import random
import re
import sys
import unicodedata

import pytest

from framedbraids.framed import FramedBraid, framed_equal, inverse, multiply, normalize
from framedbraids.hilden import (
    CLASSICAL_SUITE,
    FRAMED_SUITE,
    GENERATORS,
    PURE_SUITE,
    SUITE_GENERATORS,
    SUITES,
    GeneratorDictionary,
    builtin_generator,
    canonical_name,
    framed_hilden_generator,
    hilden_generator,
    plat_trivializes,
    suite_instances,
    top_index,
    verify_relation_suite,
)
from framedbraids.hilden import _NAME_ALIASES, _hilden_family, _omega_family, _pure_family
from framedbraids.cli import MAX_HILDEN_N
from framedbraids.parser import parse
from framedbraids.words import Permutation, exponent_sum, permutation_of
from framedbraids.framed import spell
from framedbraids.garside import are_equal
from framedbraids.fuzz import sample_hilden_product
from framedbraids.plat import is_plat_trivial

from oracles import h4_image, h4_member


def test_classical_generator_words():
    assert hilden_generator("Theta", 1, 2).beta == parse("s1", 4)
    assert hilden_generator("P", 1, 2).beta == parse("s2 s1 s3^-1 s2^-1", 4)
    assert hilden_generator("S", 1, 2).beta == parse("s2 s1 s3 s2", 4)
    assert hilden_generator("P", 1, 2).framings == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        hilden_generator("P", 2, 2)
    with pytest.raises(ValueError):
        hilden_generator("Theta", 3, 2)


def test_framed_generator_words():
    omega = framed_hilden_generator("omega", 1, 2)
    assert omega.framings == (1, -1, 0, 0) and not omega.beta.letters
    theta = framed_hilden_generator("theta", 1, 2)
    assert framed_equal(theta, normalize(parse("t1 s1", 4)))
    for name in ("p", "s"):
        framed = framed_hilden_generator(name, 1, 3)
        classical = hilden_generator(name.upper(), 1, 3)
        assert are_equal(framed.beta, classical.beta)


def test_pure_generator_words():
    g = builtin_generator(PURE_SUITE, "g", 1, 2)
    assert g.framings == (1, 1, 0, 0) and g.beta == parse("s1^2", 4)
    assert permutation_of(g.beta) == Permutation((1, 2, 3, 4))
    assert exponent_sum(spell(g)) == 4


def test_every_builtin_generator_spells_its_table_row():
    # fuzz samples Hilden factors from the rows as they stand, and their
    # inverses from the rows reversed and inverted
    checked = 0
    for suite in SUITES:
        for n in range(1, 9):
            for name in SUITE_GENERATORS[suite]:
                for i in range(1, top_index(name, n) + 1):
                    spelled = spell(builtin_generator(suite, name, i, n)).letters
                    assert spelled == GENERATORS[name][1](i), (suite, name, i, n)
                    checked += 1
    assert checked == 292


def test_canonical_name():
    assert canonical_name("θ_3") == "theta_3"
    assert canonical_name("ω_1") == "omega_1"
    assert canonical_name("x_{3,1}") == "x_{1,3}"
    assert canonical_name(" P_2 ") == "P_2"
    assert canonical_name("θ_1") == "theta_1"
    assert canonical_name("Θ_1") == "Theta_1"
    assert canonical_name("ω_2") == "omega_2"
    assert canonical_name("\u03a9_1") == "omega_1"  # GREEK CAPITAL LETTER OMEGA
    assert canonical_name("\u2126_1") == "omega_1"  # OHM SIGN
    assert canonical_name(" theta_1 ") == "theta_1"
    for bad in ("x_{١,2}", "x_{1_0,2}"):  # pair indices take ASCII digits only
        with pytest.raises(ValueError, match="expected a signed decimal integer"):
            canonical_name(bad)
    for bad, count in (("x_{1}", 1), ("x_{1,2,3}", 3), ("p_{}", 1)):
        with pytest.raises(ValueError) as err:
            canonical_name(bad)
        assert str(err.value) == f"generator name {bad!r} needs two indices, got {count}"


def test_the_aliases_cover_every_nfc_spelling_of_a_name_letter():
    # canonical_name applies no Unicode normalization: the one code point
    # whose NFC form is a letter of some generator name or alias is the ohm
    # sign, and the alias table maps it as NFC would have
    letters = set(_NAME_ALIASES) | {
        char for suite in SUITES for inst in suite_instances(suite, 4)
        for name, _ in inst.lhs + inst.rhs for char in name
    }
    composed = {}
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        nfc = unicodedata.normalize("NFC", char)
        if nfc != char and set(nfc) <= letters:
            composed[char] = nfc
    assert composed == {"\u2126": "\u03a9"}
    assert canonical_name("\u2126_1") == canonical_name("\u03a9_1") == "omega_1"
    # KELVIN SIGN, whose NFC form is K, no longer collides with K: no
    # generator name holds a K, so hilden-verify refuses both as unread
    one, two = normalize(parse("s1", 4)), normalize(parse("s3", 4))
    kelvin = GeneratorDictionary(2, {"K_1": one, "\u212a_1": two})
    assert sorted(kelvin.entries) == ["K_1", "\u212a_1"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "suite,builder",
    [
        (CLASSICAL_SUITE, GeneratorDictionary.classical),
        (FRAMED_SUITE, GeneratorDictionary.framed),
        (PURE_SUITE, GeneratorDictionary.pure),
    ],
)
def test_builtin_suites_hold(n, suite, builder):
    reports = verify_relation_suite(builder(n), suite)
    failed = [r.relation_id for r in reports if not r.holds and not r.skipped]
    assert failed == []
    assert all(r.lhs is None and r.rhs is None for r in reports if r.skipped)
    if suite != PURE_SUITE:  # a mistyped name in a relation side would be skipped
        assert [r.relation_id for r in reports if r.skipped] == []


def test_pure_suite_skips_pair_generators():
    reports = verify_relation_suite(GeneratorDictionary.pure(3), PURE_SUITE)
    skipped = [r for r in reports if r.skipped]
    assert skipped, "pair generators have no built-in words"
    assert all(r.missing for r in skipped)
    held = [r for r in reports if not r.skipped]
    assert any(r.relation_id.startswith("PFH.gg-comm") for r in held)
    assert any(r.relation_id.startswith("PFH.omega-g") for r in held)


def test_pure_suite_with_identity_stub_entries():
    # engine smoke test: identity entries instantiate the whole schema;
    # the four-index relations need n >= 4 to produce instances
    n = 4
    ident = FramedBraid.identity(2 * n)
    extra = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for name in ("p", "x", "y"):
                extra[f"{name}_{{{i},{j}}}"] = ident
    d = GeneratorDictionary.pure(n).with_entries(extra)
    reports = verify_relation_suite(d, PURE_SUITE)
    assert all(not r.skipped for r in reports)
    assert all(r.holds for r in reports)
    assert any("conj-comm" in r.relation_id and r.note for r in reports)
    assert any("triple" in r.relation_id for r in reports)


def test_corrupted_entry_fails_suite():
    n = 3
    d = GeneratorDictionary.framed(n)

    # twisting the wrong pair of ribbons breaks the omega commutations
    broken = dict(d.entries)
    broken["theta_1"] = normalize(parse("t1 s2", 2 * n))
    reports = verify_relation_suite(GeneratorDictionary(n, broken), FRAMED_SUITE)
    failed = {r.relation_id for r in reports if not r.holds and not r.skipped}
    assert any(rid.startswith("FH.theta-omega") for rid in failed)

    # merely dropping the twist is NOT caught by the twist-inversion
    # relation: conjugating omega_j through the bare crossing already
    # inverts it, so that relation only sees theta's permutation part
    lhs = multiply(normalize(parse("s1", 2 * n)), d.entries["omega_1"])
    from framedbraids.framed import inverse

    rhs = multiply(inverse(d.entries["omega_1"]), normalize(parse("s1", 2 * n)))
    assert framed_equal(lhs, rhs)


@pytest.mark.parametrize(
    "suite,builder,name,wrong",
    [
        # Theta_1 on the wrong pair of strands, theta_1 twisting it there
        (CLASSICAL_SUITE, GeneratorDictionary.classical, "Theta_1", "s2"),
        (FRAMED_SUITE, GeneratorDictionary.framed, "theta_1", "t1 s2"),
    ],
)
def test_conjugated_suite_holds_and_catches_a_corrupted_entry(suite, builder, name, wrong):
    # g^-1 L g = g^-1 R g shares g at both ends; a decision that cancelled
    # more than the shared ends would pass the corrupted dictionary too
    n = 3
    rng = random.Random(71)
    for _ in range(3):
        word = " ".join(
            [f"t{rng.randint(1, 2 * n)}^{rng.choice((1, -1))}"]
            + [f"s{rng.randint(1, 2 * n - 1)}^{rng.choice((1, -1))}" for _ in range(3)]
        )
        g = normalize(parse(word, 2 * n))
        g_inv = inverse(g)
        entries = {k: multiply(multiply(g_inv, h), g) for k, h in builder(n).entries.items()}
        reports = verify_relation_suite(GeneratorDictionary(n, entries), suite)
        assert reports and all(r.holds and not r.skipped for r in reports), word

        entries[name] = multiply(multiply(g_inv, normalize(parse(wrong, 2 * n))), g)
        reports = verify_relation_suite(GeneratorDictionary(n, entries), suite)
        # some relation must fail on the braid part alone, with its two
        # sides still sharing the first syllable that g contributes
        assert any(
            not r.holds and r.lhs.framings == r.rhs.framings
            and r.lhs.beta.letters[0] == r.rhs.beta.letters[0]
            for r in reports
        ), word


# suite -> its relation families, in the order suite_instances joins them
FAMILIES = {
    CLASSICAL_SUITE: lambda n: [*_hilden_family(n, "P", "S", "Theta", "H1")],
    FRAMED_SUITE: lambda n: [*_hilden_family(n, "p", "s", "theta", "FH"), *_omega_family(n)],
    PURE_SUITE: lambda n: [*_pure_family(n)],
}


@pytest.mark.parametrize("suite", SUITES)
def test_each_family_emits_each_relation_once(suite):
    # suite_instances keeps no dedupe of its own, so a relation a family
    # emits twice would be decided twice
    for n in range(1, MAX_HILDEN_N + 1):
        instances = FAMILIES[suite](n)
        sides = [frozenset((inst.lhs, inst.rhs)) for inst in instances]
        assert len(set(sides)) == len(sides), (suite, n)
        # _evaluate reads each atom as one factor
        assert all(abs(e) == 1 for inst in instances for _, e in inst.lhs + inst.rhs)
        assert tuple(instances) == suite_instances(suite, n)


@pytest.mark.parametrize("build, message", [
    (lambda: suite_instances("bogus", 2), f"unknown suite 'bogus'; choose from {SUITES}"),
    (lambda: GeneratorDictionary.builtin("bogus", 2),
     f"unknown suite 'bogus'; choose from {SUITES}"),
    (lambda: builtin_generator("bogus", "P", 1, 2),
     f"unknown suite 'bogus'; choose from {SUITES}"),
    (lambda: hilden_generator("omega", 1, 2), "unknown hilden_1 generator 'omega'"),
], ids=["suite_instances", "builtin", "builtin_generator", "hilden_generator"])
def test_unknown_suites_and_generators_are_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("n", range(2, 7))
def test_pure_relation_ids_name_only_generators_their_sides_read(n):
    instances = suite_instances(PURE_SUITE, n)
    ids = [inst.relation_id for inst in instances]
    assert len(set(ids)) == len(ids)
    named_any = False
    for inst in instances:
        named = set(re.findall(r"[pxy]_\{\d+,\d+\}", inst.relation_id))
        assert named <= {name for name, _ in inst.lhs + inst.rhs}, inst.relation_id
        named_any = named_any or bool(named)
    assert named_any


def test_omega_kernel_law():
    rng = random.Random(70)
    for _ in range(30):
        n = rng.randint(2, 5)
        product = FramedBraid.identity(2 * n)
        for _ in range(rng.randint(0, 6)):
            factor = framed_hilden_generator("omega", rng.randint(1, n), n)
            if rng.random() < 0.5:
                factor = normalize(spell(factor))  # no-op, keep sampling honest
            if rng.random() < 0.5:
                from framedbraids.framed import inverse

                factor = inverse(factor)
            product = multiply(product, factor)
        assert not product.beta.letters
        for i in range(n):
            assert product.framings[2 * i] + product.framings[2 * i + 1] == 0
        assert plat_trivializes(product)


def test_plat_trivializes_examples():
    for n in range(2, 6):
        d = GeneratorDictionary.framed(n).entries | GeneratorDictionary.pure(n).entries
        for name, g in d.items():
            assert plat_trivializes(g), name
    assert not plat_trivializes(normalize(parse("s2", 4)))
    with pytest.raises(ValueError):
        plat_trivializes(FramedBraid.identity(3))


def test_builtin_generators_and_their_products_lie_in_h4():
    # H_4 is the preimage of the upper triangular matrices under the
    # SL2(Z) image of tests/oracles.py, an oracle independent of the plats
    for suite in SUITES:
        for name in SUITE_GENERATORS[suite]:
            for i in range(1, top_index(name, 2) + 1):
                g = builtin_generator(suite, name, i, 2)
                assert h4_member(g.beta) and h4_member(inverse(g).beta), (suite, name, i)
    rng = random.Random(4)
    for _ in range(2000):
        assert h4_member(sample_hilden_product(rng, 2, 6).beta)


def test_plat_triviality_is_necessary_but_not_sufficient_for_h4():
    assert not h4_member(parse("s2", 4))
    b = normalize(parse("s1 s2^-1 s1 s2^-1 s1 s2^-1", 4))
    assert is_plat_trivial(b)
    assert h4_image(b.beta) == ((13, 8), (8, 5))
    assert not h4_member(b.beta)


def test_projection_identity_on_generators():
    for n in (2, 3):
        for i in range(1, n):
            assert are_equal(
                framed_hilden_generator("p", i, n).beta,
                hilden_generator("P", i, n).beta,
            )
            assert are_equal(
                framed_hilden_generator("s", i, n).beta,
                hilden_generator("S", i, n).beta,
            )
        for k in range(1, n + 1):
            assert are_equal(
                framed_hilden_generator("theta", k, n).beta,
                hilden_generator("Theta", k, n).beta,
            )


def test_dictionary_validation():
    with pytest.raises(ValueError):
        GeneratorDictionary(2, {"p_1": FramedBraid.identity(2)})


def test_dictionary_refuses_names_that_collide():
    one, two = normalize(parse("t1 s1", 4)), normalize(parse("s1", 4))
    with pytest.raises(ValueError, match="both mean 'theta_1'"):
        GeneratorDictionary(2, {"theta_1": one, "θ_1": two})
    with pytest.raises(ValueError, match=re.escape("both mean 'x_{1,2}'")):
        GeneratorDictionary(2, {"x_{1,2}": one, "x_{2, 1}": two})
    framed = GeneratorDictionary.builtin(FRAMED_SUITE, 2)
    with pytest.raises(ValueError):
        framed.with_entries({"theta_1": one, "θ_1": two})
    # replacing a built-in entry stays allowed
    assert framed.with_entries({"θ_1": two}).entries["theta_1"] == two
