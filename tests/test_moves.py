import random
import re

import pytest

from framedbraids.closure import INTEGER, closure_signature, signatures_match, with_adjusted_framing
from framedbraids.framed import FramedBraid, framed_equal, inverse, multiply, normalize, spell
from framedbraids.garside import are_equal
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.moves import (
    L_FAMILY_KINDS,
    MOVE_KINDS,
    PLAT_KINDS,
    MoveDescriptor,
    apply_move,
    conjugate,
    descriptor_from_json,
    over_inclusion,
    solve_framing_transfer,
    tau_conjugation_as_RL_sequence,
    under_inclusion,
)
from framedbraids.parser import parse
from framedbraids.plat import (
    classical_stabilization,
    double_coset_move,
    framed_stabilization,
    plat_signature,
)
from framedbraids.words import (
    BraidWord,
    Permutation,
    concat,
    exponent_sum,
    include_natural,
    permutation_of,
    sigma,
)

from oracles import brute_transfer
from test_framed import random_framed


def random_perm(rng: random.Random, m: int) -> Permutation:
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        MoveDescriptor("bogus")
    with pytest.raises(ValueError):
        MoveDescriptor("RL_over", sign=2)
    with pytest.raises(ValueError):
        MoveDescriptor("IntRL_over", k=3)


def test_include_natural():
    a = parse("s1", 2)
    assert include_natural(a, 1) == BraidWord(3, (sigma(1),))
    assert include_natural(BraidWord(2), 3).n == 5
    with pytest.raises(ValueError):
        include_natural(a, -1)


def test_inclusion_edge_cases():
    a = parse("s1 s2^-1", 3)
    assert over_inclusion(a, 4) == include_natural(a, 1)
    assert under_inclusion(a, 4) == include_natural(a, 1)
    assert are_equal(over_inclusion(a, 1), under_inclusion(a, 1))
    assert not over_inclusion(BraidWord(3), 2).letters


def _crossing_positions(word: BraidWord, n_plus: int, new_top: int):
    """Yield (letter sign, over_entrant, under_entrant) for unit crossings."""
    pos2strand = list(range(n_plus + 1))
    for unit in word.unit_letters():
        if unit.kind != "sigma":
            continue
        i = unit.index
        lower, upper = pos2strand[i], pos2strand[i + 1]
        over = upper if unit.exponent > 0 else lower
        under = lower if unit.exponent > 0 else upper
        yield over, under
        pos2strand[i], pos2strand[i + 1] = pos2strand[i + 1], pos2strand[i]


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_inclusion_postconditions(i):
    rng = random.Random(40 + i)
    for _ in range(20):
        n = 3
        word = BraidWord(
            n, tuple(sigma(rng.randint(1, n - 1), rng.choice([-1, 1])) for _ in range(6))
        )
        for builder, wants_over in ((over_inclusion, True), (under_inclusion, False)):
            wide = builder(word, i)
            perm = permutation_of(wide)
            assert perm.apply(i) == i
            base = permutation_of(word)
            for j in range(1, n + 2):
                if j == i:
                    continue
                old = j if j < i else j - 1
                image = base.apply(old)
                assert perm.apply(j) == (image if image < i else image + 1)
            for over, under in _crossing_positions(wide, n + 1, i):
                if i in (over, under):
                    assert (over == i) == wants_over


def test_L_move_matches_inclusion_form():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 5)
        word = BraidWord(
            n,
            tuple(
                sigma(rng.randint(1, n - 1), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(0, 7) if n >= 2 else 0)
            ),
        )
        split = rng.randint(0, len(word.letters))
        i = rng.randint(1, n)
        sign = rng.choice([-1, 1])
        a1 = BraidWord(n, word.letters[:split])
        a2 = BraidWord(n, word.letters[split:])
        crossing = BraidWord(n + 1, (sigma(i, sign),))
        for kind, inc in (("L_over", over_inclusion), ("L_under", under_inclusion)):
            d = MoveDescriptor(kind, split=split, index=i, sign=sign)
            moved = apply_move(normalize(word), d).beta
            assert are_equal(moved, concat(concat(inc(a1, i + 1), crossing), inc(a2, i + 1)))


def test_L_move_trivial_instance():
    d = MoveDescriptor("L_over", split=0, index=1, sign=1)
    moved = apply_move(normalize(BraidWord(1)), d).beta
    assert moved == BraidWord(2, (sigma(1),))
    sig = closure_signature(normalize(moved))
    assert sig.component_count == 1 and sig.components[0].framing == 1


def test_L_move_unframed_closure_and_writhe():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 5)
        word = BraidWord(
            n, tuple(sigma(rng.randint(1, n - 1), rng.choice([-1, 1])) for _ in range(8))
        )
        split = rng.randint(0, len(word.letters))
        i = rng.randint(1, n)
        sign = rng.choice([-1, 1])
        kind = rng.choice(["L_over", "L_under"])
        d = MoveDescriptor(kind, split=split, index=i, sign=sign)
        moved = apply_move(normalize(word), d).beta
        assert exponent_sum(moved) == exponent_sum(word) + sign
        before = closure_signature(normalize(word))
        after = closure_signature(normalize(moved))
        assert after.component_count == before.component_count
        adjusted = with_adjusted_framing(after, i + 1, -sign)
        assert signatures_match(before, adjusted)


def test_RL_move_examples():
    moved = apply_move(
        FramedBraid.identity(1), MoveDescriptor("RL_over", split=0, index=1, sign=1)
    )
    assert framed_equal(moved, normalize(parse("t1^-1 s1", 2)))
    sig = closure_signature(moved)
    assert sig.component_count == 1 and sig.components[0].framing == 0


def test_RL_move_signature_and_exponent_sum():
    rng = random.Random(43)
    for _ in range(120):
        n = rng.randint(1, 5)
        braid = random_framed(rng, n, rng.randint(0, 10))
        word_len = len(spell(braid).letters)
        d = MoveDescriptor(
            rng.choice(["RL_over", "RL_under"]),
            split=rng.randint(0, word_len),
            index=rng.randint(1, n),
            sign=rng.choice([-1, 1]),
        )
        moved = apply_move(braid, d)
        assert signatures_match(closure_signature(braid), closure_signature(moved))
        assert exponent_sum(spell(moved)) == exponent_sum(spell(braid))


def test_integer_RL_move():
    rng = random.Random(44)
    # k = 0 reduces to the classical L-move word
    braid = normalize(parse("t1 s1^2", 2))
    d0 = MoveDescriptor("IntRL_over", split=1, index=1, sign=1, k=0)
    dl = MoveDescriptor("L_over", split=1, index=1, sign=1)
    assert framed_equal(apply_move(braid, d0), apply_move(braid, dl))
    for _ in range(120):
        n = rng.randint(1, 5)
        braid = random_framed(rng, n, rng.randint(0, 10))
        word_len = len(spell(braid).letters)
        d = MoveDescriptor(
            rng.choice(["IntRL_over", "IntRL_under"]),
            split=rng.randint(0, word_len),
            index=rng.randint(1, n),
            sign=rng.choice([-1, 1]),
            k=rng.choice([-1, 0, 1]),
        )
        moved = apply_move(braid, d)
        assert signatures_match(
            closure_signature(braid, INTEGER), closure_signature(moved, INTEGER)
        )
    # applying the move word then its inverse word is the identity
    moved = apply_move(braid, d)
    assert framed_equal(multiply(moved, inverse(moved)), FramedBraid.identity(moved.n))


def test_RM_move():
    moved = apply_move(FramedBraid.identity(1), MoveDescriptor("RM", sign=1))
    assert framed_equal(moved, normalize(parse("t1^-1 s1", 2)))
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(1, 5)
        braid = random_framed(rng, n, rng.randint(0, 10))
        sign = rng.choice([-1, 1])
        assert signatures_match(
            closure_signature(braid),
            closure_signature(apply_move(braid, MoveDescriptor("RM", sign=sign))),
        )
        # negative control: the plain M-move shifts the new strand's component
        plain = apply_move(braid, MoveDescriptor("M", sign=sign))
        after = closure_signature(plain)
        assert not signatures_match(closure_signature(braid), after)
        assert signatures_match(
            closure_signature(braid), with_adjusted_framing(after, n + 1, -sign)
        )


def test_conjugation():
    rng = random.Random(46)
    a = normalize(parse("t1 s1", 2))
    assert framed_equal(conjugate(a, FramedBraid.identity(2)), a)
    assert framed_equal(conjugate(a, normalize(parse("s1", 2))), normalize(parse("t2 s1", 2)))
    # the narrower element's letters fit RB_3, so the letter pass alone would answer there
    three = normalize(parse("t3 s1 s2", 3))
    for x, y in ((a, three), (three, a)):
        with pytest.raises(ValueError, match=f"^cannot conjugate across RB_{x.n} and RB_{y.n}$"):
            conjugate(x, y)
    for _ in range(60):
        n = rng.randint(1, 4)
        braid = random_framed(rng, n, rng.randint(0, 8))
        g = random_framed(rng, n, rng.randint(0, 8))
        assert signatures_match(
            closure_signature(braid), closure_signature(conjugate(braid, g))
        )


def test_tau_conjugation_sequence():
    rng = random.Random(47)
    steps = tau_conjugation_as_RL_sequence(FramedBraid.identity(2), 1, 1)
    assert framed_equal(steps[-1], FramedBraid.identity(2))

    a = normalize(parse("t1 s1", 2))
    twist = FramedBraid(2, (1, 0), BraidWord(2))
    steps = tau_conjugation_as_RL_sequence(a, 1, 1)
    assert framed_equal(steps[-1], conjugate(a, twist))

    for _ in range(60):
        n = rng.randint(1, 4)
        braid = random_framed(rng, n, rng.randint(0, 8))
        i = rng.randint(1, n)
        exp = rng.choice([-1, 1])
        before = closure_signature(braid)
        steps = tau_conjugation_as_RL_sequence(braid, i, exp)
        assert len(steps) == 3 and all(isinstance(e, FramedBraid) for e in steps)
        for element in steps:
            assert signatures_match(before, closure_signature(element))
        twist = FramedBraid(n, tuple(exp if j == i - 1 else 0 for j in range(n)), BraidWord(n))
        assert framed_equal(steps[-1], conjugate(braid, twist))
        # the two RL words spell the same element, record for record
        assert steps[0] == steps[1]


@pytest.mark.parametrize(
    "kind", ["L_over", "L_under", "RL_over", "RL_under", "IntRL_over", "IntRL_under"]
)
def test_apply_move_refuses_unimplemented_descriptors(kind):
    # only the forward, right-of-the-cut step is implemented, and a
    # descriptor has no field that could ask for another one
    assert MoveDescriptor._fields == ("kind", "split", "index", "sign", "k", "factors")
    braid = normalize(parse("t1 s1 s2^-1", 3))
    for unhonoured in ({"form": 2}, {"inverse": True}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            MoveDescriptor(kind, split=1, index=2, **unhonoured)
    assert apply_move(braid, MoveDescriptor(kind, split=1, index=2)).n == 4


NON_DEFAULT = {"split": 1, "index": 2, "sign": -1, "k": 1}
FACTOR_COUNT = {"Conjugation": 1, "DoubleCoset": 2}


@pytest.mark.parametrize("kind, field", [
    ("RM", "split"),
    ("M", "index"),
    ("Conjugation", "sign"),
    ("RL_over", "k"),
    ("TauConjugation", "factors"),
    ("FramedStabilization", "index"),
    ("ClassicalStabilization", "k"),
    ("DoubleCoset", "sign"),
])
def test_descriptor_refuses_a_field_its_kind_never_reads(kind, field):
    value = (FramedBraid.identity(2),) if field == "factors" else NON_DEFAULT[field]
    factors = (FramedBraid.identity(2),) * FACTOR_COUNT.get(kind, 0)
    with pytest.raises(ValueError, match=f"^{kind} moves do not use {field}$"):
        MoveDescriptor(kind, **{"factors": factors, field: value})


def test_descriptor_accepts_exactly_the_fields_each_kind_reads():
    l_fields = {"split", "index", "sign"}
    reads = {
        "L_over": l_fields, "L_under": l_fields, "RL_over": l_fields, "RL_under": l_fields,
        "IntRL_over": l_fields | {"k"}, "IntRL_under": l_fields | {"k"},
        "M": {"sign"}, "RM": {"sign"}, "Conjugation": set(),
        "TauConjugation": {"index", "sign"}, "DoubleCoset": set(),
        "FramedStabilization": {"sign"}, "ClassicalStabilization": {"sign"},
    }
    assert set(reads) == set(MOVE_KINDS)
    for kind, expected in reads.items():
        factors = (FramedBraid.identity(2),) * FACTOR_COUNT.get(kind, 0)
        accepted = set()
        for field, value in NON_DEFAULT.items():
            try:
                MoveDescriptor(kind, factors=factors, **{field: value})
                accepted.add(field)
            except ValueError:
                pass
        assert accepted == expected, kind


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_descriptor_checks_the_factor_count_when_built(kind):
    needed = FACTOR_COUNT.get(kind, 0)
    for count in range(4):
        factors = (FramedBraid.identity(2),) * count
        if count == needed:
            assert MoveDescriptor(kind, factors=factors).factors == factors
        elif needed == 0:
            with pytest.raises(ValueError, match=f"^{kind} moves do not use factors$"):
                MoveDescriptor(kind, factors=factors)
        else:
            plural = "s" if needed > 1 else ""
            message = f"^{kind} moves need {needed} factor{plural}, got {count}$"
            with pytest.raises(ValueError, match=message):
                MoveDescriptor(kind, factors=factors)


@pytest.mark.parametrize("factors", [[FramedBraid.identity(3)], None, (BraidWord(3),)],
                         ids=["list", "None", "BraidWord"])
@pytest.mark.parametrize("kind", ["Conjugation", "RM"])
def test_descriptor_takes_factors_only_as_a_tuple_of_framed_braids(kind, factors):
    # a list was stored and then made hash() raise TypeError
    with pytest.raises(ValueError, match="^factors must be a tuple of FramedBraid$"):
        MoveDescriptor(kind, factors=factors)


@pytest.mark.parametrize("data, message", [
    (["RM"], "a move descriptor is an object, got list"),
    ("RM", "a move descriptor is an object, got str"),
    ({"sign": 1}, "a move descriptor needs a kind"),
    ({"kind": ["RM"]}, "unknown move kind ['RM']"),
    ({"kind": 5}, "unknown move kind 5"),
    ({"kind": "Twist"}, "unknown move kind 'Twist'"),
    ({"kind": "Conjugation", "conjugator": 5}, "conjugator must be a word, got 5"),
    ({"kind": "DoubleCoset", "h1": "", "h2": ["s1"]}, "h2 must be a word, got ['s1']"),
], ids=["list", "string", "no-kind", "list-kind", "int-kind", "unknown-kind",
        "int-factor", "list-factor"])
def test_the_decoder_refuses_data_of_the_wrong_shape(data, message):
    with pytest.raises(ValueError) as err:
        descriptor_from_json(data, 2)
    assert str(err.value) == message


def test_solve_framing_transfer_examples():
    p = Permutation((1, 2, 3))
    assert solve_framing_transfer(p, (1, 2, 3), (1, 2, 3)) == (0, 0, 0)

    swap = Permutation((2, 1))
    r = solve_framing_transfer(swap, (2, 0), (1, 1))
    assert r is not None
    assert all(2 - r[0] == 1 - r[swap.apply(1) - 1] for _ in (0,))
    brute = brute_transfer((2, 1), (2, 0), (1, 1))
    assert brute is not None
    assert r == (0, -1)

    assert solve_framing_transfer(swap, (2, 0), (0, 0)) is None
    assert brute_transfer((2, 1), (2, 0), (0, 0)) is None


def test_solve_framing_transfer_against_brute_force():
    rng = random.Random(48)
    for _ in range(150):
        m = rng.randint(1, 3)
        p = random_perm(rng, m)
        delta = tuple(rng.randint(-1, 1) for _ in range(m))
        kappa = tuple(rng.randint(-1, 1) for _ in range(m))
        r = solve_framing_transfer(p, delta, kappa)
        brute = brute_transfer(p.images, delta, kappa)
        assert (r is None) == (brute is None)
        if r is not None:
            assert all(
                delta[i] - r[i] == kappa[i] - r[p.apply(i + 1) - 1] for i in range(m)
            )
            assert all(r[cycle[0] - 1] == 0 for cycle in p.cycles())


def test_solve_framing_transfer_length_mismatch():
    with pytest.raises(ValueError):
        solve_framing_transfer(Permutation((1, 2)), (1,), (1, 2))


def test_apply_move_dispatch():
    braid = normalize(parse("t1 s1", 2))
    result = apply_move(braid, MoveDescriptor("Conjugation", factors=(normalize(parse("s1", 2)),)))
    assert framed_equal(result, normalize(parse("t2 s1", 2)))
    final = apply_move(braid, MoveDescriptor("TauConjugation", index=1, sign=1))
    assert framed_equal(final, conjugate(braid, FramedBraid(2, (1, 0), BraidWord(2))))


def _descriptor(kind: str, rng: random.Random, braid: FramedBraid) -> MoveDescriptor:
    """A seeded descriptor of kind that applies to braid, which has an even
    ribbon count of at least 4."""
    n = braid.n
    if kind == "DoubleCoset":
        return MoveDescriptor(kind, factors=(sample_hilden_product(rng, n // 2, 4),
                                             sample_hilden_product(rng, n // 2, 4)))
    if kind == "Conjugation":
        return MoveDescriptor(kind, factors=(random_framed(rng, n, 5),))
    if kind == "TauConjugation":
        return MoveDescriptor(kind, index=rng.randint(1, n), sign=rng.choice([-1, 1]))
    if kind in L_FAMILY_KINDS:
        return MoveDescriptor(kind, split=rng.randint(0, len(spell(braid).letters)),
                              index=rng.randint(1, n), sign=rng.choice([-1, 1]),
                              k=rng.choice([-1, 0, 1]) if kind.startswith("IntRL") else 0)
    return MoveDescriptor(kind, sign=rng.choice([-1, 1]))


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_apply_move_applies_every_kind(kind):
    rng = random.Random(f"apply:{kind}")
    for _ in range(20):
        braid = random_framed(rng, 2 * rng.randint(2, 3), rng.randint(0, 8))
        d = _descriptor(kind, rng, braid)
        moved = apply_move(braid, d)
        width = {"M": 1, "RM": 1, "FramedStabilization": 2, "ClassicalStabilization": 2}
        grows = 1 if kind in L_FAMILY_KINDS else width.get(kind, 0)
        assert moved.n == braid.n + grows
        if kind in PLAT_KINDS:
            before, after = plat_signature(braid), plat_signature(moved)
        else:
            convention = INTEGER if kind.startswith("IntRL") else "blackboard"
            before = closure_signature(braid, convention)
            after = closure_signature(moved, convention)
        controls = ("L_over", "L_under", "M", "ClassicalStabilization")
        assert signatures_match(before, after) == (kind not in controls), d


def test_double_coset_membership_is_checked_in_apply_move():
    b = normalize(parse("t1 s2 s1^-1", 4))
    rogue, ident = normalize(parse("s2", 4)), FramedBraid.identity(4)
    for factors, name in (((rogue, ident), "h1"), ((ident, rogue), "h2")):
        with pytest.raises(ValueError, match=f"^{name} does not look like a cap stabilizer"):
            apply_move(b, MoveDescriptor("DoubleCoset", factors=factors))
    for other in (normalize(parse("t1 s1", 2)), FramedBraid.identity(6)):
        for factors in ((other, ident), (ident, other)):
            with pytest.raises(ValueError, match="^double coset move needs equal ribbon counts$"):
                apply_move(b, MoveDescriptor("DoubleCoset", factors=factors))
    for kind in ("FramedStabilization", "ClassicalStabilization"):
        with pytest.raises(ValueError, match=f"^{kind} needs an even ribbon count, got 3$"):
            apply_move(FramedBraid.identity(3), MoveDescriptor(kind))


def test_plat_moves_are_apply_move():
    rng = random.Random(50)
    for _ in range(40):
        half = rng.randint(1, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 10))
        sign = rng.choice([-1, 1])
        for kind, one_liner in (("FramedStabilization", framed_stabilization),
                                ("ClassicalStabilization", classical_stabilization)):
            assert one_liner(braid, sign) == apply_move(braid, MoveDescriptor(kind, sign=sign))
        if half >= 2:
            h1 = sample_hilden_product(rng, half, 6)
            h2 = sample_hilden_product(rng, half, 6)
            d = MoveDescriptor("DoubleCoset", factors=(h1, h2))
            assert double_coset_move(braid, h1, h2) == apply_move(braid, d)


def test_tau_conjugation_move_is_the_chain_endpoint():
    rng = random.Random(49)
    for _ in range(300):
        n = rng.randint(1, 7)
        braid = random_framed(rng, n, rng.randint(0, 15))
        i = rng.randint(1, n)
        exp = rng.choice([-1, 1])
        direct = apply_move(braid, MoveDescriptor("TauConjugation", index=i, sign=exp))
        assert direct == tau_conjugation_as_RL_sequence(braid, i, exp)[-1]
    with pytest.raises(ValueError, match="out of range"):
        apply_move(FramedBraid.identity(2), MoveDescriptor("TauConjugation", index=3))


_ONE = (FramedBraid.identity(2),)


@pytest.mark.parametrize("kind, fields, message", [
    ("bogus", {"sign": 0}, "unknown move kind 'bogus'"),
    ("RL_over", {"split": True, "sign": 0}, "split must be an int, got True"),
    ("RL_over", {"index": "1", "split": -1}, "index must be an int, got '1'"),
    ("TauConjugation", {"sign": 1.0, "index": 0}, "sign must be an int, got 1.0"),
    ("IntRL_under", {"k": None, "sign": 0}, "k must be an int, got None"),
    ("RM", {"sign": 0, "index": 2}, "sign must be +-1, got 0"),
    ("IntRL_over", {"sign": 2, "k": 3}, "sign must be +-1, got 2"),
    ("FramedStabilization", {"k": -1, "sign": 5}, "sign must be +-1, got 5"),
    ("IntRL_over", {"k": 2, "split": -1}, "k must lie in {-1, 0, 1}, got 2"),
    ("RM", {"split": -1, "k": 1}, "split must be >= 0, got -1"),
    ("L_over", {"split": -1, "index": 0}, "split must be >= 0, got -1"),
    ("L_over", {"index": 0, "k": 1}, "index must be >= 1, got 0"),
    ("DoubleCoset", {"factors": list(_ONE * 2), "index": 0}, "index must be >= 1, got 0"),
    ("RM", {"split": 1, "factors": list(_ONE)}, "factors must be a tuple of FramedBraid"),
    ("TauConjugation", {"split": 1, "k": 1}, "TauConjugation moves do not use split"),
    ("M", {"k": 1, "factors": _ONE}, "M moves do not use k"),
    ("ClassicalStabilization", {"index": 3, "factors": _ONE},
     "ClassicalStabilization moves do not use index"),
    ("Conjugation", {"sign": -1, "factors": ()}, "Conjugation moves do not use sign"),
    ("Conjugation", {"index": 2, "factors": _ONE * 2}, "Conjugation moves do not use index"),
    ("DoubleCoset", {"factors": _ONE, "split": 2}, "DoubleCoset moves do not use split"),
])
def test_descriptor_reports_the_first_of_two_faults(kind, fields, message):
    # the order of the checks: kind, the four int types, the sign and k
    # values, split and index bounds, the factor type, the fields the kind
    # never reads, the factor count
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MoveDescriptor(kind, **fields)
