"""Workspace files: parsing, resolution, round-trips, error reporting."""

import importlib.resources as resources

import pytest

import noetherform.parser as parser
import noetherform.slominski as slominski
from noetherform.errors import ParseError
from noetherform.groups import cyclic
from noetherform.parser import Workspace, dump, merge, parse

FIXTURES = resources.files("noetherform") / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


ALGEBRA_SRC = """
algebra A size 2 zero 0
p 0 1 / 1 0
d 0 1 / 1 0
hom idA A -> A map 0 1
"""


def test_parse_algebra_and_hom():
    ws = parse(ALGEBRA_SRC)
    assert set(ws.algebras) == {"A"}
    assert ws.algebras["A"].p == ((0, 1), (1, 0))
    assert ws.homs["idA"] == (ws.algebras["A"], ws.algebras["A"], (0, 1))


def test_parse_group_derives_subtraction():
    ws = parse("group G size 4 id 0\ntable 0 1 2 3 / 1 2 3 0 / 2 3 0 1 / 3 0 1 2\n")
    alg = ws.algebras["G"]
    assert alg.d[1][3] == 2


def test_parse_rejects_ragged_table():
    with pytest.raises(ParseError):
        parse("group G size 2 id 0\ntable 0 1 / 1\n")


def test_parse_rejects_non_hom():
    src = ALGEBRA_SRC + "hom bad A -> A map 1 1\n"
    with pytest.raises(ParseError):
        parse(src)


def test_parse_comments_and_blank_lines():
    ws = parse("# leading comment\n\n" + ALGEBRA_SRC + "\n# trailing\n")
    assert "A" in ws.algebras


def test_zigzag_direction_token_order():
    base = ALGEBRA_SRC + "algebra B size 2 zero 0\np 0 1 / 1 0\nd 0 1 / 1 0\n"
    base += "hom h A -> B map 0 1\n"
    ws1 = parse(base + "zigzag z : A > h B\n")
    ws2 = parse(base + "zigzag z : A h > B\n")
    z1, z2 = ws1.zigzag("z"), ws2.zigzag("z")
    assert z1.edges[0].direction == z2.edges[0].direction == "right"
    ws3 = parse(base + "zigzag z : B < h A\n")
    assert ws3.zigzag("z").edges[0].direction == "left"


def test_zigzag_unknown_hom_is_parse_error():
    with pytest.raises(ParseError):
        parse(ALGEBRA_SRC + "zigzag z : A > nope A\n").zigzag("z")


def test_form_parsing_and_lattice():
    ws = parse(fixture_text("tiny_form.nf"))
    form = ws.data_form("tinyform")
    T = form.objects["T"]
    assert T.lattice.bottom == "bot" and T.lattice.top == "top"
    assert len(form.morphisms) == 1


def test_form_morphism_missing_image_line():
    src = """
form f1
object T subobjects bot top
morphism m T -> T
  dimg bot -> bot
  iimg bot -> bot
  iimg top -> top
"""
    ws = parse(src)
    with pytest.raises(ParseError, match="dimg missing"):
        ws.data_form("f1")


def test_diagram_resolution_over_slominski():
    ws = parse(fixture_text("z4_stack.nf"))
    d = ws.diagram("shortfive")
    assert set(d.arrows) == {"f", "g", "x", "y", "s", "t", "u"}
    assert d.objects["B"].order == 4


def test_diagram_unknown_entity():
    src = ALGEBRA_SRC + "diagram d over main\nuse nope as A\n"
    ws = parse(src)
    with pytest.raises(ParseError, match="unknown entity"):
        ws.diagram("d")


def test_workspace_closure_is_automatic():
    # declared homs are closed with identities and composites on demand
    ws = parse(fixture_text("d8_snake.nf"))
    form = ws.slominski_form()
    assert len(form.objects) == 5
    names = {m.name for m in form.morphisms}
    assert {"f", "i", "g", "j", "h"} <= names


@pytest.mark.parametrize("name", ["d8_snake.nf", "z4_stack.nf"])
def test_main_checks_no_table_its_hom_lines_checked(monkeypatch, name):
    # each table is checked once, at its hom line; main's identities and
    # composites are homs by construction
    calls, real = [], slominski.check_hom

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(slominski, "check_hom", counting)
    monkeypatch.setattr(parser, "check_hom", counting)
    text = fixture_text(name)
    ws = parse(text)
    assert len(calls) == len(ws.homs) == sum(ln.startswith("hom ") for ln in text.splitlines())
    form = ws.slominski_form()
    assert len(calls) == len(ws.homs) < len(form.morphisms)


@pytest.mark.parametrize("name", ["d8_snake.nf", "groups_le8.nf", "z4_stack.nf",
                                  "tiny_form.nf"])
def test_fixture_roundtrip(name):
    ws1 = parse(fixture_text(name))
    ws2 = parse(dump(ws1))
    assert ws1.algebras == ws2.algebras
    assert ws1.homs == ws2.homs
    assert set(ws1.form_specs) == set(ws2.form_specs)
    assert {n: (s.nodes, s.edges) for n, s in ws1.zigzag_specs.items()} == {
        n: (s.nodes, s.edges) for n, s in ws2.zigzag_specs.items()
    }
    # a use and an assertion keep their lines, which the dump moves
    assert {n: (s.over, [u[:2] for u in s.uses], [a for a, _ in s.asserts])
            for n, s in ws1.diagram_specs.items()} == {
        n: (s.over, [u[:2] for u in s.uses], [a for a, _ in s.asserts])
        for n, s in ws2.diagram_specs.items()
    }


def test_merge_workspaces():
    ws1 = parse(ALGEBRA_SRC)
    ws2 = parse("group G size 2 id 0\ntable 0 1 / 1 0\n")
    ws = merge(ws1, ws2)
    assert set(ws.algebras) == {"A", "G"}


def test_names_unique_per_kind():
    dup = ALGEBRA_SRC + "algebra A size 2 zero 0\np 0 1 / 1 0\nd 0 1 / 1 0\n"
    with pytest.raises(ParseError, match="duplicate algebra"):
        parse(dup)
    with pytest.raises(ParseError, match="duplicate algebra name 'A' across files"):
        merge(parse(ALGEBRA_SRC), parse(ALGEBRA_SRC))


def test_assert_parsing_and_arity():
    src = ALGEBRA_SRC + """
diagram d over main
use A as X
use idA as m
assert injective m
assert exact m m
assert zero m.m
"""
    ws = parse(src)
    spec = ws.diagram_specs["d"]
    assert [(a.kind, ln) for a, ln in spec.asserts] == [
        ("injective", 10), ("exact", 11), ("zero", 12)]
    with pytest.raises(ParseError):
        parse(ALGEBRA_SRC + "diagram d over main\nassert exact onlyone\n")


def test_unknown_keyword_is_parse_error():
    with pytest.raises(ParseError):
        parse("banana split\n")


# Every parse error of every block, with its exact text and line.  Blank and
# comment lines come before each failing line, so the line numbers count them.
HEAD = "# pinned errors\n\n"  # lines 1-2
ALG = HEAD + "algebra A size 2 zero 0\n\np 0 1 / 1 0\n# d next\nd 0 1 / 1 0\n"  # lines 1-7
GRP = HEAD + "group G size 2 id 0\n\ntable 0 1 / 1 0\n"  # lines 1-5
FORM = HEAD + "form F\n\nobject T subobjects bot top\n"  # lines 1-5
DIAG = ALG + "\ndiagram d over main\n# body\n"  # lines 1-10

PINNED_ERRORS = [
    # algebra and group headers
    (HEAD + "algebra A size 2\n", "line 3: expected: algebra <name> size <n> zero <i>"),
    (HEAD + "algebra A size 2 id 0\n", "line 3: expected: algebra <name> size <n> zero <i>"),
    (HEAD + "algebra A size two zero 0\n", "line 3: size must be an integer, not 'two'"),
    (HEAD + "algebra A size 2 zero z\n", "line 3: zero must be an integer, not 'z'"),
    (ALG + "\nalgebra A size x zero 0\n", "line 9: duplicate algebra name 'A'"),
    (HEAD + "group G size 2 zero 0\n", "line 3: expected: group <name> size <n> id <i>"),
    (HEAD + "group G size 2 id e\n", "line 3: id must be an integer, not 'e'"),
    (HEAD + "group G size 2.0 id 0\n", "line 3: size must be an integer, not '2.0'"),
    (ALG + "# again\ngroup A size y id 0\n", "line 9: duplicate algebra name 'A'"),
    (GRP + "\ngroup G size 1 id 0\ntable 0\n", "line 7: duplicate algebra name 'G'"),
    # algebra and group bodies
    (HEAD + "algebra A size 2 zero 0\n\np 0 x / 1 0\n", "line 5: table entries must be integers"),
    (HEAD + "algebra A size 2 zero 0\n\np 0 1 / 1 0\n#\nd 0 1 / 1\n",
     "line 7: expected 2 rows of 2 entries"),
    (HEAD + "algebra A size 2 zero 0\n\np 0 1 1 / 1 0\n", "line 5: expected 2 rows of 2 entries"),
    (HEAD + "algebra A size 2 zero 0\n# only p\np 0 1 / 1 0\n",
     "line 3: algebra A: missing p or d table"),
    (HEAD + "algebra A size 2 zero 0\np 0 1 / 1 0\n\np 0 1 / 1 0\nd 0 1 / 1 0\n",
     "line 3: algebra A: missing p or d table"),
    (ALG + "\np 0 1 / 1 0\n", "line 9: unexpected keyword 'p'"),
    (HEAD + "algebra A size 2 zero 0\n\nhom f A -> A map 0 1\n",
     "line 3: algebra A: missing p or d table"),
    (HEAD + "algebra A size 2 zero 0\np 0 1 / 1 0\nd 1 1 / 1 1\n", "line 3: A: d(0,0) != 0"),
    (HEAD + "group G size 2 id 0\n\ntable 0 1 / 1\n", "line 5: expected 2 rows of 2 entries"),
    (HEAD + "group G size 2 id 0\n# rows\ntable 0 1 / 1 z\n", "line 5: table entries must be integers"),
    (HEAD + "group G size 2 id 0\n\n# no table\nhom f G -> G map 0 0\n",
     "line 3: group G: missing Cayley table"),
    (HEAD + "group G size 2 id 0\n", "line 3: group G: missing Cayley table"),
    (GRP + "\ntable 0 1 / 1 0\n", "line 7: unexpected keyword 'table'"),
    (HEAD + "group G size 2 id 0\n\ntable 0 1 / 1 1\n", "line 5: group G: element 1 has no inverse"),
    (HEAD + "group G size 3 id 0\n\ntable 0 1 2 / 1 0 2 / 2 2 0\n",
     "line 3: G: multiplication is not associative"),
    # hom
    (GRP + "# bad\nhom f G G map 0 1\n", "line 7: expected: hom <f> <A> -> <B> map <i0> ..."),
    (GRP + "hom f G -> G\n", "line 6: expected: hom <f> <A> -> <B> map <i0> ..."),
    (GRP + "\nhom f G -> H map 0 1\n", "line 7: hom f: unknown algebra 'H'"),
    (GRP + "\nhom f H -> G map 0 1\n", "line 7: hom f: unknown algebra 'H'"),
    (GRP + "hom f G -> G map 0 1\n\nhom f G -> G map 0 1\n", "line 8: duplicate hom name 'f'"),
    (GRP + "\n# not a hom\nhom f G -> G map 1 1\n", "line 8: hom f: does not preserve 0"),
    (GRP + "\nhom f G -> G map 0\n", "line 7: hom f: table does not match carriers"),
    (GRP + "\nhom f G -> G map 0 7\n", "line 7: hom f: table does not match carriers"),
    (GRP + "\nhom f G -> G map 0 x\n", "line 7: map entry must be an integer, not 'x'"),
    # form
    (HEAD + "form\n", "line 3: expected: form <name>"),
    (HEAD + "form F G\n", "line 3: expected: form <name>"),
    (FORM + "\nform F\n", "line 7: duplicate form name 'F'"),
    (FORM + "# next\nobject U bot top\n", "line 7: expected: object <name> subobjects <k1> ..."),
    (FORM + "\nobject U subobjects\n", "line 7: expected: object <name> subobjects <k1> ..."),
    (FORM + "\norder T bot top\n", "line 7: expected: order <obj> <ki> <= <kj>"),
    (FORM + "\norder T bot <= top extra\n", "line 7: expected: order <obj> <ki> <= <kj>"),
    (FORM + "\nmorphism m T T\n", "line 7: expected: morphism <f> <dom> -> <cod>"),
    (FORM + "morphism m T -> T\n\n  dimg bot bot\n", "line 8: expected: dimg <k> -> <k>"),
    (FORM + "morphism m T -> T\n#\n  iimg bot -> bot top\n", "line 8: expected: iimg <k> -> <k>"),
    (FORM + "\ndimg bot -> bot\n", "line 7: dimg outside a morphism block"),
    (FORM + "morphism m T -> T\n  dimg bot -> bot\norder T bot <= top\n\niimg bot -> bot\n",
     "line 10: iimg outside a morphism block"),
    (FORM + "morphism m T -> T\n  dimg bot -> bot\nobject U subobjects u\n\ndimg u -> u\n",
     "line 10: dimg outside a morphism block"),
    (FORM + "morphism m T -> T\n  dimg bot -> bot\n\n  dimg bot -> top\n",
     "line 9: morphism m: second dimg line for 'bot'"),
    (FORM + "morphism m T -> T\n  iimg top -> top\n#\n  iimg top -> bot\n",
     "line 9: morphism m: second iimg line for 'top'"),
    # zigzag
    (ALG + "\nzigzag z A > f A\n", "line 9: expected: zigzag <name> : <X0> ..."),
    (ALG + "\nzigzag z :\n", "line 9: expected: zigzag <name> : <X0> ..."),
    (ALG + "\nzigzag z : A > f\n", "line 9: zigzag needs node (dir name | name dir) node ..."),
    (ALG + "#\nzigzag z : A f g A\n", "line 9: zigzag z: expected a direction near 'f'"),
    (ALG + "zigzag z : A\n\nzigzag z : A\n", "line 10: duplicate zigzag name 'z'"),
    # diagram
    (ALG + "\ndiagram d main\n", "line 9: expected: diagram <name> over <form>"),
    (DIAG + "\ndiagram d over main\n", "line 12: duplicate diagram name 'd'"),
    (DIAG + "use A X\n", "line 11: expected: use <entity> as <role>"),
    (DIAG + "use A as X\n\ncommute f g\n", "line 13: expected: commute <p1> = <p2>"),
    (DIAG + "\nassert\n", "line 12: empty assertion"),
    (DIAG + "\nassert mono f\n", "line 12: unknown assertion kind 'mono'"),
    (DIAG + "\nassert commute f = g\n", "line 12: unknown assertion kind 'commute'"),
    (DIAG + "\nassert exact f\n", "line 12: assertion exact takes 2 argument(s)"),
    (DIAG + "\nassert zero f g\n", "line 12: assertion zero takes 1 argument(s)"),
    (DIAG + "\nassert short-exact f g h\n", "line 12: assertion short-exact takes 2 argument(s)"),
    # top level
    (HEAD + "banana split\n", "line 3: unexpected keyword 'banana'"),
    (DIAG + "use A as X\n\ndimg a -> a\n", "line 13: unexpected keyword 'dimg'"),
    (FORM + "\nuse T as X\n", "line 7: unexpected keyword 'use'"),
]


@pytest.mark.parametrize("text, message", PINNED_ERRORS, ids=[m for _, m in PINNED_ERRORS])
def test_parse_errors_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


# Input that parsed or resolved silently before, now located errors.  An
# order line may come before its object line, so the order and image-key
# checks run where the form resolves.
LOCATED = [
    (FORM + "\norder U bot <= top\n", "F", "line 7: form F: order on unknown object 'U'"),
    (FORM + "\norder T bot <= mid\n", "F", "line 7: form F: order 'mid' is not a subobject of T"),
    (FORM + "order T top <= top\n#\norder T low <= top\n", "F",
     "line 8: form F: order 'low' is not a subobject of T"),
    (FORM + "morphism m T -> T\n  dimg bot -> bot\n  dimg top -> top\n  dimg mid -> top\n"
     "  iimg bot -> bot\n  iimg top -> top\n", "F", "line 9: morphism m: dimg 'mid' is not a subobject of T"),
    (FORM + "object U subobjects u\nmorphism m T -> U\n  dimg bot -> u\n  dimg top -> u\n"
     "\n  iimg u -> top\n  iimg bot -> bot\n", "F", "line 12: morphism m: iimg 'bot' is not a subobject of U"),
    (FORM + "order T bot <= top\n\nobject T subobjects top\n", None, "line 8: duplicate object name 'T'"),
    (GRP + "\nhom f G -> G map 0 1.5\n", None, "line 7: map entry must be an integer, not '1.5'"),
]


@pytest.mark.parametrize("text, form, message", LOCATED, ids=[m for _, _, m in LOCATED])
def test_input_dropped_before_raises_a_located_error(text, form, message):
    with pytest.raises(ParseError) as info:
        parse(text).data_form(form)
    assert str(info.value) == message


# An unknown entity is reported at its use line, over a data form and over
# the Slominski form main.
UNKNOWN_USES = [
    (FORM + "\ndiagram d over F\nuse T as X\n\nuse nope as f\n",
     "line 10: diagram d: unknown entity 'nope'"),
    (DIAG + "use A as X\n\n\nuse nope as f\n", "line 14: diagram d: unknown entity 'nope'"),
]


@pytest.mark.parametrize("text, message", UNKNOWN_USES, ids=["data form", "main"])
def test_unknown_entity_is_reported_at_its_use_line(text, message):
    with pytest.raises(ParseError) as info:
        parse(text).diagram("d")
    assert str(info.value) == message


def test_order_line_may_precede_its_object():
    ws = parse("form F\norder T bot <= top\nobject T subobjects bot top\n")
    assert ws.data_form("F").objects["T"].lattice.leq("bot", "top")


def test_dump_writes_workspace_names():
    ws = Workspace()
    ws.algebras["A0"], ws.algebras["A1"] = cyclic(4), cyclic(2)
    ws.homs["q"] = (ws.algebras["A0"], ws.algebras["A1"], (0, 1, 0, 1))
    text = dump(ws)
    assert "hom q A0 -> A1 map 0 1 0 1" in text
    back = parse(text)
    assert {n: (a.zero, a.p, a.d) for n, a in back.algebras.items()} == {
        n: (a.zero, a.p, a.d) for n, a in ws.algebras.items()
    }
    assert back.homs["q"] == (back.algebras["A0"], back.algebras["A1"], (0, 1, 0, 1))


def test_slominski_form_is_main_whatever_a_diagram_names():
    ws = parse(ALGEBRA_SRC + "diagram d over X\nuse A as O\n")
    form = ws.diagram("d").form
    assert form.name == "main"
    assert ws.slominski_form() is form and ws.forms()["main"] is form
