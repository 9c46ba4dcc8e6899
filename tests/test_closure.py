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
from framedbraids.garside import delta_word
from framedbraids.moves import conjugate
from framedbraids.parser import parse
from framedbraids.words import BraidWord, exponent_sum

from test_cli import run_cli
from test_framed import _relation_instances, random_framed


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
        g = normalize(delta_word(n))
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
