"""The value-record contract of the fourteen record types: equality and
hash by value and type (GeneratorDictionary holds a dict, so it is
unhashable), frozen fields, copy/deepcopy/pickle round trips, the
dataclass-style repr, the constructors' ValueError messages, and a record
extending another."""

import copy
import pickle

import pytest

from framedbraids.closure import LinkComponent, LinkSignature
from framedbraids.framed import FramedBraid, framed_equal
from framedbraids.fuzz import FuzzConfig
from framedbraids.garside import GarsideNormalForm
from framedbraids.hilden import GeneratorDictionary, RelationInstance, RelationReport
from framedbraids.moves import MoveDescriptor
from framedbraids.plat import PlatComponent, PlatSignature
from framedbraids.words import BraidWord, Letter, Permutation, _Record, sigma, tau

S1 = Letter(kind="sigma", index=1, exponent=1)
B = FramedBraid(n=2, framings=(1, 0), beta=BraidWord(n=2, letters=(S1,)))
B_REPR = ("FramedBraid(n=2, framings=(1, 0), beta=BraidWord(n=2, "
          "letters=(Letter(kind='sigma', index=1, exponent=1),)))")

# (type, every field as a keyword in declaration order, repr at the time the
# records were dataclasses); the keyword order is the repr's field order.
SAMPLES = [
    (Letter, dict(kind="sigma", index=1, exponent=1),
     "Letter(kind='sigma', index=1, exponent=1)"),
    (BraidWord, dict(n=2, letters=(Letter("sigma", 1, -2), Letter("tau", 2, 3))),
     "BraidWord(n=2, letters=(Letter(kind='sigma', index=1, exponent=-2), "
     "Letter(kind='tau', index=2, exponent=3)))"),
    (Permutation, dict(images=(2, 1)), "Permutation(images=(2, 1))"),
    (FramedBraid, dict(n=2, framings=(1, 0), beta=BraidWord(2, (S1,))), B_REPR),
    (GarsideNormalForm, dict(n=2, inf=-1, factors=(Permutation((2, 1)),)),
     "GarsideNormalForm(n=2, inf=-1, factors=(Permutation(images=(2, 1)),))"),
    (LinkComponent, dict(strands=(1, 2), framing=3),
     "LinkComponent(strands=(1, 2), framing=3)"),
    (LinkSignature, dict(components=(LinkComponent((1, 2), 3),),
                         canonical_key=((3,), (0,), ((0,),))),
     "LinkSignature(components=(LinkComponent(strands=(1, 2), "
     "framing=3),), canonical_key=((3,), (0,), ((0,),)))"),
    (PlatComponent, dict(strands=(1, 2), framing=0, traversal=((1, "down"), (2, "up"))),
     "PlatComponent(strands=(1, 2), framing=0, traversal=((1, 'down'), (2, 'up')))"),
    (PlatSignature, dict(components=(PlatComponent((1, 2), 0, ((1, "down"), (2, "up"))),),
                         canonical_key=((0,), (0,), ((0,),))),
     "PlatSignature(components=(PlatComponent(strands=(1, 2), "
     "framing=0, traversal=((1, 'down'), (2, 'up'))),), canonical_key=((0,), (0,), ((0,),)))"),
    (MoveDescriptor, dict(kind="RL_over", split=1, index=2, sign=-1, k=0, factors=()),
     "MoveDescriptor(kind='RL_over', split=1, index=2, sign=-1, k=0, factors=())"),
    (MoveDescriptor, dict(kind="Conjugation", split=0, index=1, sign=1, k=0, factors=(B,)),
     "MoveDescriptor(kind='Conjugation', split=0, index=1, sign=1, k=0, "
     f"factors=({B_REPR},))"),
    (FuzzConfig, dict(seed=3, trials=5, n_range=(1, 5), word_length_range=(0, 12),
                      move_mix=(("RM", 1),)),
     "FuzzConfig(seed=3, trials=5, n_range=(1, 5), word_length_range=(0, 12), "
     "move_mix=(('RM', 1),))"),
    (RelationInstance, dict(relation_id="r1", lhs=(("a_1", 1),), rhs=(("a_1", -1),),
                            note=None),
     "RelationInstance(relation_id='r1', lhs=(('a_1', 1),), rhs=(('a_1', -1),), note=None)"),
    (RelationReport, dict(relation_id="r1", lhs=None, rhs=B, holds=False, skipped=True,
                          missing=("x_1",), note="n"),
     f"RelationReport(relation_id='r1', lhs=None, rhs={B_REPR}, holds=False, "
     "skipped=True, missing=('x_1',), note='n')"),
    (GeneratorDictionary, dict(n=1, entries={"x_1": FramedBraid.identity(2)}),
     "GeneratorDictionary(n=1, entries={'x_1': FramedBraid(n=2, framings=(0, 0), "
     "beta=BraidWord(n=2, letters=()))})"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(SAMPLES)]


def _record_types(base=_Record):
    """The public record types of the package, walking private bases too."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("framedbraids.") and not cls.__name__.startswith("_"):
            yield cls
        yield from _record_types(cls)


def test_every_record_type_is_sampled():
    sampled = {cls for cls, _, _ in SAMPLES}
    assert len(sampled) == 14
    assert set(_record_types()) == sampled


def test_a_record_extends_its_base_fields():
    assert PlatComponent._fields == LinkComponent._fields + ("traversal",)
    assert LinkSignature._fields == PlatSignature._fields
    assert LinkComponent((1, 2), 0) != PlatComponent((1, 2), 0, ())
    assert PlatComponent((1, 2), 0, ())._replace(framing=3) == PlatComponent((1, 2), 3, ())


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, fields, text):
    assert repr(cls(**fields)) == text
    positional = cls(*fields.values())
    assert repr(positional) == text and positional == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_equality_is_by_type_and_value(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    twin_type = type(f"Twin{cls.__name__}", (cls,), {})
    twin = twin_type(**fields)
    assert a != twin and twin != a
    assert a != tuple(fields.values())
    if cls is GeneratorDictionary:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_signatures_of_different_closures_never_compare_equal():
    fields = ((), ((0,), (0,), ((0,),)))
    assert LinkSignature(*fields) != PlatSignature(*fields)
    assert LinkSignature(*fields) == LinkSignature(*fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_fields_are_frozen(cls, fields, text):
    value = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, fields, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and repr(twin) == text


@pytest.mark.parametrize("build, message", [
    (lambda: Letter("rho", 1, 1), "unknown letter kind 'rho'"),
    (lambda: Letter("sigma", 0, 1), "letter index must be >= 1, got 0"),
    (lambda: Letter("tau", 1, 0), "letters with exponent 0 are never stored"),
    # every stored integer is exactly an int: bool is an int subclass, and
    # a float used to reach the answers (a framing of 1.5)
    (lambda: Letter("sigma", 1.0, 1), "letter index must be an int, got 1.0"),
    (lambda: Letter("tau", True, 1), "letter index must be an int, got True"),
    (lambda: Letter("sigma", 1, 1.5), "letter exponent must be an int, got 1.5"),
    (lambda: Letter("tau", 1, False), "letter exponent must be an int, got False"),
    (lambda: BraidWord(2.5, (sigma(2),)), "strand count must be an int, got 2.5"),
    (lambda: BraidWord(True), "strand count must be an int, got True"),
    (lambda: BraidWord(0), "strand count must be >= 1, got 0"),
    (lambda: BraidWord(2, (sigma(2),)), "sigma index 2 out of range for n=2"),
    (lambda: BraidWord(2, (tau(3),)), "tau index 3 out of range for n=2"),
    (lambda: Permutation((1, 1)), "not a permutation of 1..2: (1, 1)"),
    (lambda: FramedBraid(2.0, (0, 0), BraidWord(2)), "strand count must be an int, got 2.0"),
    (lambda: FramedBraid(2, (0, 1.5), BraidWord(2)), "framings must be ints, got 1.5"),
    (lambda: FramedBraid(2, (True, 0), BraidWord(2)), "framings must be ints, got True"),
    (lambda: FramedBraid(2, (0,), BraidWord(2)), "framing vector has length 1, expected 2"),
    (lambda: FramedBraid(2, (0, 0), BraidWord(3)), "braid part on 3 strands inside RB_2"),
    (lambda: FramedBraid(2, (0, 0), BraidWord(2, (tau(1),))),
     "braid part of a normal form must be tau-free"),
    (lambda: MoveDescriptor("bogus"), "unknown move kind 'bogus'"),
    (lambda: MoveDescriptor("M", sign=0), "sign must be +-1, got 0"),
    (lambda: MoveDescriptor("IntRL_over", k=2), "k must lie in {-1, 0, 1}, got 2"),
    (lambda: MoveDescriptor("L_over", split=-1), "split must be >= 0, got -1"),
    (lambda: MoveDescriptor("L_over", index=0), "index must be >= 1, got 0"),
    # bool is an int subclass; a float would reach apply_move and fail there
    (lambda: MoveDescriptor("RM", sign=True), "sign must be an int, got True"),
    (lambda: MoveDescriptor("L_over", split=1.0), "split must be an int, got 1.0"),
    (lambda: MoveDescriptor("L_over", index=2.0), "index must be an int, got 2.0"),
    (lambda: MoveDescriptor("IntRL_over", k="1"), "k must be an int, got '1'"),
    (lambda: FuzzConfig(True, 1), "seed must be an int, got True"),
    (lambda: FuzzConfig(0, 0), "trials must be >= 1"),
    (lambda: FuzzConfig(0, 1, n_range=(3, 2)), "bad strand range (3, 2)"),
    (lambda: FuzzConfig(0, 1, n_range=(0, 2)), "bad strand range (0, 2)"),
    (lambda: FuzzConfig(0, 1, word_length_range=(3, 2)), "bad length range (3, 2)"),
    (lambda: FuzzConfig(0, 1, move_mix=(("bogus", 1),)), "unknown move kind 'bogus'"),
    (lambda: FuzzConfig(0, 1, move_mix=(("RM", -1),)), "move weights must be >= 0"),
    (lambda: FuzzConfig(0, 1, move_mix=(("RM", 0),)), "move mix has no positive weight"),
    (lambda: FuzzConfig(0, 1, n_range=(1, 3)),
     "plat moves need an even strand count >= 4 in (1, 3)"),
    (lambda: GeneratorDictionary(1, {"x_{1,2}": B, "x_{2,1}": B}),
     "names 'x_{1,2}' and 'x_{2,1}' both mean 'x_{1,2}'"),
    (lambda: GeneratorDictionary(1, {"x_1": FramedBraid.identity(3)}),
     "entry 'x_1' lives in RB_3, expected RB_2"),
])
def test_constructor_refusals_keep_their_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_list_inputs_are_stored_as_tuples():
    pairs = [
        (FramedBraid(2, [1, 0], BraidWord(2)), FramedBraid(2, (1, 0), BraidWord(2))),
        (Permutation([2, 1]), Permutation((2, 1))),
        (FuzzConfig(0, 2, move_mix=[["RM", 1]]), FuzzConfig(0, 2, move_mix=(("RM", 1),))),
    ]
    for from_list, from_tuple in pairs:
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)
    assert framed_equal(*pairs[0])
