import itertools
import json
import random

import pytest

from framedbraids._canon import canonical_order
from framedbraids.closure import closure_signature, signatures_match, with_adjusted_framing
from framedbraids import hilden
from framedbraids.framed import FramedBraid, framed_equal, inverse, multiply, normalize, spell
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.moves import MoveDescriptor, apply_move, conjugate
from framedbraids.parser import parse
from framedbraids.words import BraidWord, sigma, tau
from framedbraids.plat import (
    classical_stabilization,
    double_coset_move,
    framed_stabilization,
    is_plat_trivial,
    plat_signature,
)

from oracles import bridge, h4_member, plat_trivial, two_bridge_key
from test_cli import run_cli


def test_identity_unlinks():
    for n in range(1, 9):
        sig = plat_signature(FramedBraid.identity(2 * n))
        assert sig.component_count == n
        assert all(c.framing == 0 for c in sig.components)
        assert all(v == 0 for row in sig.abs_linking for v in row)


def test_odd_ribbon_count_rejected():
    with pytest.raises(ValueError):
        plat_signature(FramedBraid.identity(3))


def test_large_exponent_answers_at_syllable_cost():
    for e in (101, 100000001):
        proc = run_cli("plat", "--n", "2", f"s1^{e}", timeout=10)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["abs_linking"] == [[0]]
        assert [c["framing"] for c in payload["components"]] == [-e]


def test_single_crossing_merges_caps():
    sig = plat_signature(normalize(parse("s2", 4)))
    assert sig.component_count == 1
    assert abs(sig.components[0].framing) == 1
    assert sig.components[0].framing == 1  # pinned by the sign conventions


def test_omega_twists_cancel():
    sig = plat_signature(normalize(parse("t1 t2^-1", 4)))
    assert sig.component_count == 2
    assert sig.framings() == (0, 0)


def test_capped_crossing_with_compensation():
    sig = plat_signature(normalize(parse("t1 s1", 4)))
    assert sig.component_count == 2 and sig.framings() == (0, 0)


def test_two_cap_pass_braid():
    # plat closure is a two-component unlink pattern up to one curl: the
    # component capped through the first pair keeps a writhe of -1
    sig = plat_signature(normalize(parse("s1 s2 s3 s1^-1 s2^-1", 4)))
    assert sig.component_count == 2
    assert sorted(sig.framings()) == [-1, 0]
    assert all(v == 0 for row in sig.abs_linking for v in row)


def test_traversal_shape():
    sig = plat_signature(normalize(parse("s2", 4)))
    walk = sig.components[0].traversal
    assert walk[0] == (1, "down")
    assert {strand for strand, _ in walk} == {1, 2, 3, 4}


def test_double_coset_move():
    b = normalize(parse("t1 s2 s1^-1", 4))
    ident = FramedBraid.identity(4)
    assert double_coset_move(b, ident, ident) == b
    rng = random.Random(61)
    for _ in range(60):
        half = rng.randint(2, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 10))
        h1 = sample_hilden_product(rng, half, 6)
        h2 = sample_hilden_product(rng, half, 6)
        moved = double_coset_move(braid, h1, h2)
        assert signatures_match(plat_signature(braid), plat_signature(moved))


def test_double_coset_rejects_non_stabilizer():
    b = FramedBraid.identity(4)
    rogue = normalize(parse("s2", 4))
    with pytest.raises(ValueError):
        double_coset_move(b, rogue, b)
    moved = multiply(multiply(rogue, b), b)
    assert not signatures_match(plat_signature(b), plat_signature(moved))


def test_framed_stabilization():
    stab = framed_stabilization(FramedBraid.identity(2), 1)
    sig = plat_signature(stab)
    assert stab.n == 4
    assert sig.component_count == 1 and sig.components[0].framing == 0
    rng = random.Random(62)
    for _ in range(60):
        half = rng.randint(1, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 10))
        sign = rng.choice([-1, 1])
        moved = framed_stabilization(braid, sign)
        assert moved.n == braid.n + 2
        assert signatures_match(plat_signature(braid), plat_signature(moved))
        # negative control: without the twist the merged component drifts
        plain = classical_stabilization(braid, sign)
        after = plat_signature(plain)
        assert not signatures_match(plat_signature(braid), after)
        adjusted = with_adjusted_framing(after, braid.n + 1, -sign)
        assert signatures_match(plat_signature(braid), adjusted)


def test_is_plat_trivial():
    assert is_plat_trivial(FramedBraid.identity(6))
    assert not is_plat_trivial(normalize(parse("s2", 4)))
    assert not is_plat_trivial(normalize(parse("t1", 2)))


def _random_letter(rng, n):
    """sigma_i^e or tau_j^e on n ribbons, e in +-1..+-4."""
    e = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
    if rng.random() < 0.75:
        return sigma(rng.randint(1, n - 1), e)
    return tau(rng.randint(1, n), e)


def test_is_plat_trivial_matches_the_signature_predicate():
    # The walk-and-pair-totals decision answers as the signature would, on
    # random framed words, Hilden products and one-letter perturbations of
    # them.
    rng = random.Random("plat-trivial")
    braids = []
    for _ in range(1600):
        n = 2 * rng.randint(1, 5)
        letters = [_random_letter(rng, n) for _ in range(rng.randint(0, 8))]
        braids.append(normalize(BraidWord(n, tuple(letters))))
    for _ in range(800):
        h = sample_hilden_product(rng, rng.randint(1, 5), 6)
        letters = list(spell(h).letters)
        letters.insert(rng.randint(0, len(letters)), _random_letter(rng, h.n))
        braids += [h, normalize(BraidWord(h.n, tuple(letters)))]
    # The test is only necessary (not sufficient) for membership, so this
    # braid passes it.
    braids.append(normalize(parse("s1 s2^-1 s1 s2^-1 s1 s2^-1", 4)))
    verdicts = [is_plat_trivial(b) for b in braids]
    assert verdicts == [plat_trivial(b) for b in braids]
    assert verdicts[-1]
    assert 800 <= sum(verdicts) <= len(braids) - 1600
    for n in (1, 3, 5):
        with pytest.raises(ValueError, match=f"^plat closure needs an even ribbon count, got {n}$"):
            is_plat_trivial(FramedBraid.identity(n))
    assert hilden.plat_trivializes is is_plat_trivial


def test_classical_double_coset_preserves_unframed_plat():
    # products of the classical cap stabilizer generators fix the plat as an
    # unoriented link (components and |lk|); framings may drift because the
    # bare crossing generator carries an uncompensated curl
    from framedbraids.framed import inverse
    from framedbraids.hilden import hilden_generator

    def unframed_key(sig):
        zeroed = [0] * sig.component_count
        _, key = canonical_order(zeroed, sig.abs_linking)
        return (sig.component_count, key)

    rng = random.Random(63)
    for _ in range(60):
        half = rng.randint(2, 4)
        braid = sample_framed_braid(rng, 2 * half, rng.randint(0, 10))
        product = FramedBraid.identity(2 * half)
        for _ in range(rng.randint(0, 6)):
            name = rng.choice(["P", "S", "Theta"])
            top = half if name == "Theta" else half - 1
            factor = hilden_generator(name, rng.randint(1, top), half)
            if rng.random() < 0.5:
                factor = inverse(factor)
            product = multiply(product, factor)
        moved = multiply(multiply(product, braid), product)
        assert unframed_key(plat_signature(moved)) == unframed_key(plat_signature(braid))


def test_the_plat_of_a_bridge_is_the_closure():
    # The two scans agree: the framed plat closure of bridge(b) is the framed
    # standard closure of b, compared as framings and |lk|.
    rng = random.Random(1)
    linked = 0
    for _ in range(1200):
        b = sample_framed_braid(rng, rng.randint(1, 6), rng.randint(0, 12))
        sig = closure_signature(b)
        abs_linking = [[abs(x) for x in row] for row in sig.linking]
        _, key = canonical_order(sig.framings(), abs_linking)
        assert plat_signature(bridge(b)).canonical_key[1:] == key, b
        linked += any(map(any, abs_linking))
    assert linked > 300  # the law sees linked closures, not only unlinks


def lift(n, letters):
    """g-hat in RH_2n of the word g on n ribbons, letter by letter:
    sigma_k -> p_k and t_k -> omega_k, a homomorphism RB_n -> RH_2n."""
    lifted = FramedBraid.identity(2 * n)
    for letter in letters:
        name = "p" if letter.kind == "sigma" else "omega"
        h = hilden.builtin_generator(hilden.FRAMED_SUITE, name, letter.index, n)
        for _ in range(abs(letter.exponent)):
            lifted = multiply(lifted, h if letter.exponent > 0 else inverse(h))
    return lifted


def test_conjugations_lift_to_plat_conjugations_of_the_bridge():
    # bridge(g^-1 b g) = g-hat^-1 bridge(b) g-hat with g-hat in the framed
    # Hilden group, so the closure moves Conjugation and TauConjugation are
    # the plat move DoubleCoset(g-hat^-1, g-hat) on the bridge: the paper's
    # two theorems checked as one law, exactly.
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(2, 4)
        b = sample_framed_braid(rng, n, rng.randint(0, 6))
        if trial % 3:
            letters = [sigma(rng.randint(1, n - 1), rng.choice((-2, -1, 1, 2)))
                       if rng.random() < 0.5 else tau(rng.randint(1, n), rng.choice((-1, 1)))
                       for _ in range(rng.randint(1, 3))]
            d = MoveDescriptor("Conjugation", factors=(normalize(BraidWord(n, tuple(letters))),))
        else:
            i, s = rng.randint(1, n), rng.choice((-1, 1))
            letters = [tau(i, s)]
            d = MoveDescriptor("TauConjugation", index=i, sign=s)
        g_hat = lift(n, letters)
        assert is_plat_trivial(g_hat), letters
        assert framed_equal(bridge(apply_move(b, d)), conjugate(bridge(b), g_hat)), (b, d)


# --- the exact 4-plat key ----------------------------------------------------
# A 4-plat is a 2-bridge link S(p, q), read exactly off the SL2(Z) image of
# the braid (tests/oracles.two_bridge_key); the plat signature compares only
# components, framings and linking, which cannot tell these links apart.

def test_double_coset_moves_keep_the_two_bridge_key():
    rng = random.Random(24)
    for _ in range(1000):
        braid = sample_framed_braid(rng, 4, rng.randint(0, 12))
        h1 = sample_hilden_product(rng, 2, 6)
        h2 = sample_hilden_product(rng, 2, 6)
        moved = double_coset_move(braid, h1, h2)
        assert two_bridge_key(moved.beta) == two_bridge_key(braid.beta), (braid, h1, h2)
        assert plat_signature(moved).canonical_key == plat_signature(braid).canonical_key


def test_two_bridge_key_worked_values():
    # the torus links T(2, k) and the mirror trefoil, as plats of bridges
    for k in range(2, 6):
        assert two_bridge_key(bridge(normalize(parse(f"s1^{k}", 2))).beta) == (k, k - 1)
    assert two_bridge_key(bridge(normalize(parse("s1^-3", 2))).beta) == (3, 1)
    # a plat-trivial non-member of H_4: the plat is S(8, 5), not the unlink
    assert two_bridge_key(parse("s1 s2^-1 s1 s2^-1 s1 s2^-1", 4)) == (8, 5)
    assert two_bridge_key(BraidWord(4, ())) == (0, 0)


def test_plat_trivial_non_members_of_h4_are_all_s_8():
    # The exact negative control for DoubleCoset's factor check, which asks
    # only for plat-triviality: every short factor that passes it but is not
    # in H_4 moves the identity, whose plat is the unlink S(0, 0), to h, whose
    # plat is a nontrivial 2-bridge link with p = 8.
    letters = [sigma(i, e) for i in (1, 2, 3) for e in (1, -1)]
    words = [w for length in range(1, 7) for w in itertools.product(letters, repeat=length)
             if all(b != sigma(a.index, -a.exponent) for a, b in zip(w, w[1:]))]
    assert len(words) == 23436
    trivial = [h for h in (normalize(BraidWord(4, w)) for w in words) if is_plat_trivial(h)]
    assert len(trivial) == 360
    outside = [h for h in trivial if not h4_member(h.beta)]
    assert len(outside) == 40
    assert {two_bridge_key(h.beta)[0] for h in outside} == {8}
