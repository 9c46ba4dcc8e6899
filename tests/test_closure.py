import json
import random

import pytest

from framedbraids import closure
from framedbraids.closure import (
    INTEGER,
    closure_signature,
    knot_framing,
    signatures_match,
    with_adjusted_framing,
)
from framedbraids.framed import FramedBraid, normalize, spell
from framedbraids.moves import conjugate
from framedbraids.parser import parse
from framedbraids.plat import plat_signature
from framedbraids.words import BraidWord, exponent_sum, sigma, tau

from oracles import two_pass_closure, two_pass_plat
from test_cli import run_cli
from test_framed import _relation_instances, random_framed
from test_garside import half_twist


def test_trefoil_with_one_negative_twist():
    sig = closure_signature(normalize(parse("t1^-1 s1^-3", 2)))
    assert sig.component_count == 1
    assert sig.components[0].framing == -4
    assert sig.components[0].strands == (1, 2)


def test_identity_unlink():
    for n in (1, 3, 6):
        sig = closure_signature(FramedBraid.identity(n))
        assert sig.component_count == n
        assert all(c.framing == 0 for c in sig.components)
        assert all(v == 0 for row in sig.linking for v in row)


def test_hopf_link():
    sig = closure_signature(normalize(parse("s1^2", 2)))
    assert sig.component_count == 2
    assert sig.framings() == (0, 0)
    assert sig.linking == ((0, 1), (1, 0))


def test_integer_convention_drops_writhe():
    braid = normalize(parse("t1^-1 s1^-3", 2))
    assert closure_signature(braid, INTEGER).components[0].framing == -1
    with pytest.raises(ValueError):
        closure_signature(braid, "chalkboard")


def test_knot_framing_examples():
    assert knot_framing(normalize(parse("t1^-1 s1^-3", 2))) == -4
    assert knot_framing(normalize(parse("s1", 2))) == 1
    assert knot_framing(FramedBraid.identity(1)) == 0
    with pytest.raises(ValueError):
        knot_framing(FramedBraid.identity(2))


def test_knot_framing_cross_check_raises(monkeypatch):
    braid = normalize(parse("t1 s1^3", 2))
    assert knot_framing(braid) == 4
    monkeypatch.setattr(closure, "exponent_sum", lambda word: exponent_sum(word) + 1)
    with pytest.raises(RuntimeError):
        knot_framing(braid)


def test_large_exponent_answers_at_syllable_cost():
    # The scan handles s1^e in one step; unit by unit it ran for over 10 s.
    for e, linking in ((100, 50), (100000000, 50000000)):
        proc = run_cli("closure", "--n", "2", f"s1^{e}", timeout=10)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {
            "components": [{"framing": 0, "strands": [1]}, {"framing": 0, "strands": [2]}],
            "linking": [[0, linking], [linking, 0]],
        }


def _components_and_links(proc):
    """Framing per strand set, and the strand-set pairs with their linking."""
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    strands = [tuple(c["strands"]) for c in out["components"]]
    framings = {s: c["framing"] for s, c in zip(strands, out["components"])}
    links = {
        tuple(sorted((strands[a], strands[b]))): v
        for a, row in enumerate(out["linking"])
        for b, v in enumerate(row)
        if a < b and v
    }
    return framings, links


def test_tie_heavy_links_answer_without_factorial_search():
    # Every inner component ties with every other, which a search over all
    # permutations of the tied group took minutes (n=12) or longer to order.
    chain = " ".join(f"s{i}^2" for i in range(1, 12))
    framings, links = _components_and_links(run_cli("closure", "--n", "12", chain, timeout=10))
    assert framings == {(j,): 0 for j in range(1, 13)}
    assert links == {((i,), (i + 1,)): 1 for i in range(1, 12)}

    full_twist = " ".join(f"s{i}" for _ in range(10) for i in range(1, 10))
    framings, links = _components_and_links(
        run_cli("closure", "--n", "10", full_twist, timeout=10))
    assert framings == {(j,): 0 for j in range(1, 11)}
    assert links == {((i,), (j,)): 1 for i in range(1, 11) for j in range(i + 1, 11)}


def test_signatures_match_examples():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = random_framed(rng, n, rng.randint(0, 8))
        g = random_framed(rng, n, rng.randint(0, 8))
        assert signatures_match(
            closure_signature(a), closure_signature(conjugate(a, g))
        )
    one = closure_signature(normalize(parse("t1^-4 s1", 2)))
    other = closure_signature(normalize(parse("t1^-3 s1", 2)))
    assert not signatures_match(one, other)
    assert signatures_match(
        closure_signature(normalize(parse("t1 s1", 2))),
        closure_signature(normalize(parse("t2 s1", 2))),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_presentation_relations_preserve_signature(n):
    for lhs, rhs in _relation_instances(n):
        a = closure_signature(normalize(BraidWord(n, lhs)))
        b = closure_signature(normalize(BraidWord(n, rhs)))
        assert signatures_match(a, b), (lhs, rhs)


def test_sum_rule():
    rng = random.Random(32)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = random_framed(rng, n, rng.randint(0, 10))
        sig = closure_signature(a)
        total = sum(c.framing for c in sig.components)
        k = sig.component_count
        total += 2 * sum(
            sig.linking[i][j] for i in range(k) for j in range(i + 1, k)
        )
        assert total == exponent_sum(spell(a))


def test_relabeling_invariance():
    # conjugating by the half twist reverses the strand order entirely
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(2, 5)
        a = random_framed(rng, n, rng.randint(0, 8))
        g = normalize(half_twist(n))
        assert signatures_match(closure_signature(a), closure_signature(conjugate(a, g)))


def test_adjusted_framing_helper():
    sig = closure_signature(normalize(parse("s1^2 t1", 2)))
    shifted = with_adjusted_framing(sig, 1, 5)
    assert not signatures_match(sig, shifted)
    back = with_adjusted_framing(shifted, 1, -5)
    assert signatures_match(sig, back)
    with pytest.raises(ValueError):
        with_adjusted_framing(sig, 99, 1)


def test_split_unknot_changes_signature():
    a = normalize(parse("s1", 2))
    wide = FramedBraid(3, (0, 0, 0), BraidWord(3, a.beta.letters))
    assert closure_signature(a).component_count == 1
    assert closure_signature(wide).component_count == 2
    assert not signatures_match(closure_signature(a), closure_signature(wide))


def _oracle_word(rng: random.Random, n: int) -> FramedBraid:
    """Up to 14 letters, a fifth of them twists, with exponents from +-1 to
    +-10^6, odd and even."""
    letters = []
    for _ in range(rng.randint(0, 14)):
        size = rng.choice((1, 2, 3, rng.randint(4, 10**6), 10**6 - rng.randint(0, 1)))
        exponent = size * rng.choice((1, -1))
        if n == 1 or rng.random() < 0.2:
            letters.append(tau(rng.randint(1, n), exponent))
        else:
            letters.append(sigma(rng.randint(1, n - 1), exponent))
    return normalize(BraidWord(n, tuple(letters)))


def _closure_record(sig) -> tuple:
    """A closure signature in the form two_pass_closure returns."""
    return (sig.component_count, tuple((c.strands, c.framing) for c in sig.components),
            sig.canonical_key)


def _plat_record(sig) -> tuple:
    """A plat signature in the form two_pass_plat returns."""
    return (sig.component_count,
            tuple((c.strands, c.framing, c.traversal) for c in sig.components),
            sig.canonical_key)


@pytest.mark.parametrize("n", range(1, 10))
def test_single_scan_matches_two_pass_oracle(n):
    rng = random.Random(f"scan-oracle-{n}")
    for _ in range(340):
        b = _oracle_word(rng, n)
        for convention in ("blackboard", INTEGER):
            assert _closure_record(closure_signature(b, convention)) == two_pass_closure(
                b, convention)
        if n % 2 == 0:
            assert _plat_record(plat_signature(b)) == two_pass_plat(b)


@pytest.mark.parametrize("n, word", [
    (3, "s1^2 s2^2 s1^-2 s2^-2"),
    (3, "t1 t2^-1 s1^2 s2^2 s1^-2 s2^-2"),
    (4, "s2^2 s1^2 s2^-2 s1^-2 t4^2"),
    (4, "s2 s1^2 s2^-1 s3^2 s2 s1^-2 s2^-1 s3^-2"),
    (6, "s2^2 s4^2 s2^-2 s4^-2 t1 t3^-1"),
])
def test_pairs_that_cross_but_sum_to_zero_are_unlinked(n, word):
    # Components cross each other, so their pairs are entries of the sparse
    # sums, but every entry is 0: the signature is the unlinked one.
    b = normalize(parse(word, n))
    for convention in ("blackboard", INTEGER):
        sig = closure_signature(b, convention)
        assert sig.component_count > 1 and not any(map(any, sig.linking))
        assert _closure_record(sig) == two_pass_closure(b, convention)
    if n % 2 == 0:
        sig = plat_signature(b)
        assert sig.component_count > 1 and not any(map(any, sig.abs_linking))
        assert _plat_record(sig) == two_pass_plat(b)


def test_adjusting_an_unlinked_signature_matches_the_twisted_braid():
    rng = random.Random("unlinked-adjust")
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        b = random_framed(rng, n, rng.randint(0, 4))
        signatures = [closure_signature(b)]
        if n % 2 == 0:
            signatures.append(plat_signature(b))
        for sig in signatures:
            matrix = sig.canonical_key[2]
            if any(map(any, matrix)):
                continue
            checked += 1
            strand, delta = rng.randint(1, n), rng.choice((-2, -1, 1, 3))
            framings = list(b.framings)
            framings[strand - 1] += delta
            twisted = FramedBraid(n, tuple(framings), b.beta)
            fresh = (closure_signature if sig.canonical_key[0] != "plat" else plat_signature)(
                twisted)
            shifted = with_adjusted_framing(sig, strand, delta)
            assert type(shifted) is type(fresh)
            assert shifted.canonical_key == fresh.canonical_key
            assert sorted(shifted.components, key=repr) == sorted(fresh.components, key=repr)
