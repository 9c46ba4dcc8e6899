import json

import pytest

from framedbraids import fuzz, moves
from framedbraids.framed import FramedBraid
from framedbraids.fuzz import (
    CLOSURE_KINDS,
    CONTROL_KINDS,
    PLAT_KINDS,
    FuzzConfig,
    run_fuzz,
)
from framedbraids.moves import MoveDescriptor, apply_move
from framedbraids.parser import parse


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, n_range=(4, 2))
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, move_mix=(("Nonsense", 1),))
    with pytest.raises(ValueError):
        FuzzConfig(seed=0, trials=5, move_mix=(("RM", 0),))
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


@pytest.mark.parametrize("kind", PLAT_KINDS)
def test_a_plat_failure_replays_from_its_report(kind, monkeypatch):
    moved = []

    def recording(braid, d):
        moved.append(apply_move(braid, d))
        return moved[-1]

    monkeypatch.setattr(fuzz, "apply_move", recording)
    monkeypatch.setattr(fuzz, "signatures_match", lambda before, after: False)
    report = run_fuzz(FuzzConfig(seed=5, trials=3, n_range=(4, 8), move_mix=((kind, 1),)))
    failure = report["first_failure"]
    assert report["failed"] == 3 and failure["trial"] == 0
    n = failure["n"]
    shown = failure["descriptor"]
    if kind == "DoubleCoset":
        assert set(shown) == {"kind", "h1", "h2"}
        d = MoveDescriptor(kind, factors=(_framed(shown["h1"], n), _framed(shown["h2"], n)))
    else:
        assert set(shown) == {"kind", "sign"}
        d = MoveDescriptor(kind, sign=shown["sign"])
    assert shown["kind"] == kind
    assert apply_move(_framed(failure, n), d) == moved[0]
