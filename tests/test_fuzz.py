import json
import random

import pytest

from framedbraids import cli, fuzz, moves
from framedbraids.framed import FramedBraid, spell
from framedbraids.fuzz import (
    CLOSURE_KINDS,
    CONTROL_KINDS,
    PLAT_KINDS,
    FuzzConfig,
    run_fuzz,
)
from framedbraids.moves import (FACTOR_NAMES, FIELDS_READ, MOVE_KINDS, apply_move,
                                descriptor_from_json, descriptor_json)
from framedbraids.parser import format_word, parse


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, n_range=(4, 2))
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, move_mix=(("Nonsense", 1),))
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, move_mix=(("RM", 0),))
    with pytest.raises(ValueError, match="bad length range"):
        FuzzConfig(seed=0, trials=5, word_length_range=(-5, -1))
    with pytest.raises(ValueError, match="'RM' is listed twice"):
        FuzzConfig(seed=0, trials=5, move_mix=(("RM", 1), ("M", 1), ("RM", 2)))
    # plat moves need an even strand count >= 4 inside n_range
    for n_range in ((1, 1), (1, 3), (5, 5)):
        for kind in PLAT_KINDS:
            with pytest.raises(ValueError, match="even strand count"):
                FuzzConfig(seed=0, trials=5, n_range=n_range, move_mix=((kind, 1),))
    FuzzConfig(seed=0, trials=5, n_range=(1, 1), move_mix=(("RM", 1), ("DoubleCoset", 0)))


def test_default_mix_passes():
    report = run_fuzz(FuzzConfig(seed=7, trials=120))
    assert report["failed"] == 0
    assert report["first_failure"] is None
    assert sum(b["trials"] for b in report["per_kind"].values()) == 120


def test_reports_are_reproducible():
    config = FuzzConfig(seed=99, trials=60)
    a = json.dumps(run_fuzz(config), sort_keys=True)
    b = json.dumps(run_fuzz(config), sort_keys=True)
    assert a == b
    other = json.dumps(run_fuzz(FuzzConfig(seed=100, trials=60)), sort_keys=True)
    assert a != other


def test_negative_controls_pass_as_controls():
    # control trials assert the drift is exactly the crossing sign
    report = run_fuzz(
        FuzzConfig(seed=3, trials=80, move_mix=tuple((k, 1) for k in CONTROL_KINDS))
    )
    assert report["failed"] == 0


@pytest.mark.parametrize("kind", CLOSURE_KINDS)
def test_each_closure_kind(kind):
    report = run_fuzz(FuzzConfig(seed=11, trials=30, move_mix=((kind, 1),)))
    assert report["failed"] == 0, report["first_failure"]


def test_plat_kinds():
    report = run_fuzz(
        FuzzConfig(
            seed=13,
            trials=60,
            n_range=(4, 8),
            move_mix=(("DoubleCoset", 1), ("FramedStabilization", 1), ("ClassicalStabilization", 1)),
        )
    )
    assert report["failed"] == 0, report["first_failure"]
    # The DoubleCoset draws share one memo entry per half: no caller can change it.
    for half in (2, 3, 4):
        names = fuzz._hilden_letters(half)
        assert type(names) is tuple and all(type(indices) is tuple for indices in names)
        assert all(type(sides) is tuple for indices in names for sides in indices)


def test_plat_kinds_respect_strand_range(monkeypatch):
    seen = []
    original = fuzz.plat_signature

    def recording(b):
        seen.append(b.n)
        return original(b)

    monkeypatch.setattr(fuzz, "plat_signature", recording)
    report = run_fuzz(
        FuzzConfig(seed=17, trials=40, n_range=(5, 9), move_mix=(("DoubleCoset", 1),))
    )
    assert report["failed"] == 0, report["first_failure"]
    assert set(seen) == {6, 8}


def test_kind_lists_come_from_moves():
    assert PLAT_KINDS is moves.PLAT_KINDS
    assert set(CLOSURE_KINDS) | set(CONTROL_KINDS) | set(PLAT_KINDS) == set(moves.MOVE_KINDS)


def _framed(record: dict, n: int) -> FramedBraid:
    return FramedBraid(n, tuple(record["framings"]), parse(record["beta"], n))


def test_weighted_draws_match_the_expanded_list():
    # The kind draw is the one rng.choice makes over each kind repeated
    # weight times, without building that list.
    mix = (("RM", 3), ("M", 0), ("Conjugation", 2), ("RL_over", 5))
    expanded = [kind for kind, weight in mix for _ in range(weight)]
    report = run_fuzz(FuzzConfig(seed=4, trials=60, move_mix=mix))
    expected: dict[str, int] = {}
    for index in range(60):
        kind = random.Random(f"4:{index}").choice(expanded)
        expected[kind] = expected.get(kind, 0) + 1
    assert {k: b["trials"] for k, b in report["per_kind"].items()} == expected


@pytest.mark.parametrize("lo, hi", [
    (0, 0), (5, 5), (-3, 3), (0, 5), (1, 1), (1, 4), (0, 12), (2, 4), (0, 40), (0, 2),
    (0, 3), (1, 1023), (-(2**70), 2**70), (0, 2**64), (7, 2**100 + 7),
])
def test_the_draw_helper_is_randint_randrange_and_choice(lo, hi):
    # n = 1, the ranges fuzz draws from and large n; each draw must also
    # leave both generators in the same state, which the next random() shows
    seed = f"draw-{lo}-{hi}"
    mine, theirs = random.Random(seed), random.Random(seed)
    span = range(lo, hi + 1) if hi - lo < 64 else None
    for _ in range(300):
        assert fuzz._randint(mine, lo, hi) == theirs.randint(lo, hi)
        assert fuzz._randint(mine, 0, hi - lo) == theirs.randrange(hi - lo + 1)
        if span is not None:
            assert span[fuzz._randint(mine, 0, len(span) - 1)] == theirs.choice(span)
    assert mine.random() == theirs.random()
    assert mine.getstate() == theirs.getstate()


def _forced_failure(kind, monkeypatch) -> tuple[dict, FramedBraid]:
    """The first failure of a run in which every trial fails, and the braid
    that its trial's move produced."""
    moved = []

    def recording(braid, d):
        moved.append(apply_move(braid, d))
        return moved[-1]

    monkeypatch.setattr(fuzz, "apply_move", recording)
    monkeypatch.setattr(fuzz, "signatures_match", lambda before, after: False)
    report = run_fuzz(FuzzConfig(seed=5, trials=3, n_range=(4, 8), move_mix=((kind, 1),)))
    assert report["failed"] == 3 and report["first_failure"]["trial"] == 0
    return report["first_failure"], moved[0]


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_a_failure_replays_from_its_report(kind, monkeypatch):
    failure, moved = _forced_failure(kind, monkeypatch)
    n = failure["n"]
    shown = failure["descriptor"]
    # The kind, each field it reads, then each factor under its own name.
    fields = [name for name in FIELDS_READ[kind] if name != "factors"]
    assert list(shown) == ["kind"] + fields + list(FACTOR_NAMES.get(kind, ()))
    assert shown["kind"] == kind
    assert all(type(shown[name]) is str for name in FACTOR_NAMES.get(kind, ()))  # DSL words
    assert apply_move(_framed(failure, n), descriptor_from_json(shown, n)) == moved


# fbk move has no flags for the two factors of a DoubleCoset yet
@pytest.mark.parametrize("kind", [k for k in MOVE_KINDS if k != "DoubleCoset"])
def test_a_failure_replays_through_fbk_move(kind, monkeypatch, capsys):
    failure, moved = _forced_failure(kind, monkeypatch)
    n = failure["n"]
    flags = [arg for name, value in failure["descriptor"].items()
             for arg in (f"--{name}", str(value))]
    word = format_word(spell(_framed(failure, n)))
    assert cli.main(["move", "--n", str(n), *flags, word]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {"n": moved.n, "framings": list(moved.framings),
                       "beta": format_word(moved.beta), "kind": kind}


@pytest.mark.parametrize("kind", MOVE_KINDS)
def test_descriptors_round_trip_through_json(kind, monkeypatch):
    # Descriptors drawn as fuzz draws them, over every strand count the
    # kind takes in 1..8: plat kinds get an even count of at least 4.
    drawn = []

    def recording(braid, d):
        drawn.append((braid.n, d))
        return apply_move(braid, d)

    monkeypatch.setattr(fuzz, "apply_move", recording)
    run_fuzz(FuzzConfig(seed=21, trials=40, n_range=(1, 8), move_mix=((kind, 1),)))
    assert len(drawn) == 40
    for n, d in drawn:
        assert descriptor_from_json(json.loads(json.dumps(descriptor_json(d))), n) == d


def test_the_decoder_refuses_names_the_kind_does_not_use():
    for data, name in (({"kind": "RM", "conjugator": "s1"}, "conjugator"),
                       ({"kind": "Conjugation", "h1": ""}, "h1"),
                       ({"kind": "L_over", "factors": []}, "factors"),
                       ({"kind": "M", "splt": 1}, "splt")):
        with pytest.raises(ValueError) as err:
            descriptor_from_json(data, 2)
        assert str(err.value) == f"{data['kind']} moves do not use {name}"
    # a field the kind does not read is refused by the descriptor, in the same words
    with pytest.raises(ValueError, match="^RM moves do not use index$"):
        descriptor_from_json({"kind": "RM", "index": 2}, 2)
