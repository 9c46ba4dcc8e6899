import json
import random

import pytest

from framedbraids.framed import FramedBraid, normalize
from framedbraids.fuzz import sample_framed_braid, sample_hilden_product
from framedbraids.parser import parse
from framedbraids.plat import (
    classical_stabilization,
    double_coset_move,
    framed_stabilization,
    is_plat_trivial,
    plat_signature,
    plat_signatures_match,
    with_adjusted_framing,
)

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


def test_self_writhe_orientation_independent():
    rng = random.Random(60)
    for _ in range(40):
        braid = sample_framed_braid(rng, 2 * rng.randint(1, 4), rng.randint(0, 10))
        forward = plat_signature(braid)
        backward = plat_signature(braid, _reverse=True)
        assert forward.framings() == backward.framings()
        assert forward.abs_linking == backward.abs_linking


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
        assert plat_signatures_match(plat_signature(braid), plat_signature(moved))


def test_double_coset_rejects_non_stabilizer():
    b = FramedBraid.identity(4)
    rogue = normalize(parse("s2", 4))
    with pytest.raises(ValueError):
        double_coset_move(b, rogue, b)
    moved = double_coset_move(b, rogue, b, unchecked=True)
    assert not plat_signatures_match(plat_signature(b), plat_signature(moved))


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
        assert plat_signatures_match(plat_signature(braid), plat_signature(moved))
        # negative control: without the twist the merged component drifts
        plain = classical_stabilization(braid, sign)
        after = plat_signature(plain)
        assert not plat_signatures_match(plat_signature(braid), after)
        adjusted = with_adjusted_framing(after, braid.n + 1, -sign)
        assert plat_signatures_match(plat_signature(braid), adjusted)


def test_is_plat_trivial():
    assert is_plat_trivial(FramedBraid.identity(6))
    assert not is_plat_trivial(normalize(parse("s2", 4)))
    assert not is_plat_trivial(normalize(parse("t1", 2)))


def test_classical_double_coset_preserves_unframed_plat():
    # products of the classical cap stabilizer generators fix the plat as an
    # unoriented link (components and |lk|); framings may drift because the
    # bare crossing generator carries an uncompensated curl
    from framedbraids._canon import canonical_order
    from framedbraids.framed import inverse, multiply
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
        h1, h2 = product, product
        moved = double_coset_move(braid, h1, h2, unchecked=True)
        assert unframed_key(plat_signature(moved)) == unframed_key(plat_signature(braid))
