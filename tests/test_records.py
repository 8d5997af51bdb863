"""The engine's record classes: constructor signatures, fresh mutable
defaults, immutability of the frozen records, and which records compare by
value."""

import importlib
import inspect

import pytest

from noetherform.core import FormObject

# Each record's constructor parameters in order; "=" marks an optional one.
SIGNATURES = {
    "core.Subobject": "owner key",
    "slominski.SlominskiAlgebra": "name zero p d",
    "slominski.Congruence": "algebra classes",
    "zigzag.Edge": "morphism direction",
    "zigzag.Zigzag": "nodes edges form=",
    "diagram.Assertion": "kind args",
    "diagram.Diagram": "form objects= arrows= assertions= name=",
    "diagram.CheckLine": "status name witness=",
    "diagram.LemmaReport": "lemma hypotheses= conclusions=",
    "lemmas.Shape": "objects arrows commutes",
    "lemmas.SnakeResult": "objects morphisms report",
    "lemmas.UndefinedMarker": "guard",
    "lemmas.HomologyObject": "object embedding projection upper lower",
    "lemmas.LemmaSpec": "shape hyps= parts= construct=",
    "pyramid.Pyramid": "base form node arrow",
    "pyramid.ChaseFailure": "condition node subobject",
    "pyramid.InductionVerdict": "induces morphism failures=",
    "pyramid.IsoVerdict": "holds forward backward failures=",
    "pyramid.QuotientIsoResult": "w_normal_to_x fw_normal_to_fx iso zigzag",
    "parser.ZigzagSpec": "name nodes edges line",
    "parser.DiagramSpec": "name over uses asserts line",
    "parser.FormSpec": "name objects= orders= morphisms=",
    "axioms.AxiomCheck": "name passed witness= mode= cases=",
    "axioms.AxiomReport": "form checks=",
}


def record(path):
    module, name = path.split(".")
    return getattr(importlib.import_module(f"noetherform.{module}"), name)


def algebra(name="Z2", zero=0, p=((0, 1), (1, 0)), d=((0, 1), (1, 0))):
    # fresh tables each call, so equal algebras share no table object
    fresh = tuple([tuple([*row]) for row in p]), tuple([tuple([*row]) for row in d])
    return record("slominski.SlominskiAlgebra")(name, zero, *fresh)


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_constructor_parameters_are_pinned(path):
    params = inspect.signature(record(path)).parameters.values()
    got = " ".join(p.name + ("=" if p.default is not p.empty else "") for p in params)
    assert got == SIGNATURES[path]


@pytest.mark.parametrize("path,args", [
    ("diagram.Diagram", (None,)),
    ("diagram.LemmaReport", ("four",)),
    ("axioms.AxiomReport", ("form",)),
    ("parser.FormSpec", ("main",)),
    ("pyramid.InductionVerdict", (True, None)),
    ("pyramid.IsoVerdict", (True, None, None)),
    ("lemmas.LemmaSpec", (None,)),
])
def test_default_built_records_share_no_mutable_default(path, args):
    cls = record(path)
    a, b = cls(*args), cls(*args)
    mutable = [n for n, v in vars(a).items() if isinstance(v, (list, dict))]
    assert mutable
    for n in mutable:
        assert getattr(a, n) is not getattr(b, n), n
        assert getattr(a, n) == ({None: ((), ())} if n == "parts" else type(getattr(a, n))())


X = FormObject("X", None)
# One instance of each immutable record, by constructor arguments.
FROZEN = {
    "core.Subobject": (X, 0),
    "slominski.SlominskiAlgebra": ("Z1", 0, ((0,),), ((0,),)),
    "slominski.Congruence": (None, ((0,),)),
    "zigzag.Edge": (None, "right"),
    "zigzag.Zigzag": ((X,), ()),
    "diagram.Assertion": ("iso", ("f",)),
    "lemmas.Shape": ((), {}, ()),
    "lemmas.UndefinedMarker": ("guard",),
    "lemmas.LemmaSpec": (None,),
    "pyramid.ChaseFailure": ("forward-bottom", "X", 0),
}


@pytest.mark.parametrize("path", sorted(FROZEN))
def test_frozen_record_refuses_setting_and_deleting_any_field(path):
    cls = record(path)
    inst = cls(*FROZEN[path])
    for name in inspect.signature(cls).parameters:
        before = getattr(inst, name)
        with pytest.raises(AttributeError):
            setattr(inst, name, 1)
        with pytest.raises(AttributeError):
            delattr(inst, name)
        assert getattr(inst, name) is before
    with pytest.raises(AttributeError):
        inst.extra = 1


@pytest.mark.parametrize("build,changes", [
    (algebra, [{"name": "Z2'"}, {"zero": 1}, {"p": ((1, 0), (0, 1))},
               {"d": ((1, 0), (0, 1))}]),
    (lambda kind="exact", args=("f", "g"): record("diagram.Assertion")(kind, args),
     [{"kind": "short-exact"}, {"args": ("g", "f")}]),
])
def test_algebras_and_assertions_compare_by_value(build, changes):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    for change in changes:
        c = build(**change)
        assert a != c and not a == c, change
    assert a != object()


@pytest.mark.parametrize("path", sorted(set(FROZEN) - {
    "core.Subobject", "slominski.SlominskiAlgebra", "diagram.Assertion"}))
def test_other_frozen_records_compare_by_identity(path):
    cls = record(path)
    a, b = cls(*FROZEN[path]), cls(*FROZEN[path])
    assert a == a and a != b
