"""Diagram layer: exactness, assertions, and a diagram's own lines as
hypotheses."""

import pytest

from noetherform import (
    Diagram,
    SlominskiForm,
    identity_morphism,
    is_exact_at,
    is_short_exact,
)
from noetherform.diagram import (
    Assertion,
    LemmaReport,
    check_assertions,
    exact,
    injective,
    iso,
    short_exact,
    surjective,
    zero,
)
from noetherform.errors import ShapeError, ValidationError
from noetherform.gen import InstanceLab, random_zigzag
from noetherform.groups import D8_B, D8_V, cyclic, dihedral8, trivial_group
from noetherform.lemmas import verify
from noetherform.slominski import element_morphism


@pytest.fixture
def uni():
    return SlominskiForm("test")


def test_exactness_z4(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    m = element_morphism(z2, z4, (0, 2), "m")
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    assert is_exact_at(m, q)        # Im m = {0,2} = Ker q
    assert is_short_exact(m, q)
    assert not is_exact_at(q, element_morphism(z2, z2, (0, 1), "id"))


def test_short_exact_from_trivial_iff_iso(uni):
    # 0 > A = A is short exact exactly when the second map is an iso
    t1 = uni.object_of(trivial_group())
    z4 = uni.object_of(cyclic(4))
    f = uni.zero_morphism(t1, z4)
    assert is_short_exact(f, identity_morphism(z4))
    q = element_morphism(z4, uni.object_of(cyclic(2)), (0, 1, 0, 1), "q")
    assert not is_short_exact(f, q)


def test_exactness_endpoint_mismatch(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    with pytest.raises(ValidationError):
        is_exact_at(q, q)


def test_exact_with_zero_morphism(uni):
    # f surjective followed by the zero morphism: exact iff Ker 0 = top = Im f
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    zero_m = uni.zero_morphism(z2, z4)
    assert is_exact_at(q, zero_m)


def test_d8_snake_rows_exact(uni):
    d8 = uni.object_of(dihedral8())
    vobj, iota = uni.subobject_object(d8.sub(D8_V))
    bobj, iota_b = uni.subobject_object(d8.sub(D8_B))
    vb, g = uni.quotient_object(vobj.sub((0, 2)))
    f = uni.mediating_embedding(iota_b, iota)
    assert is_short_exact(f, g)      # B > V ->> V/B
    dv, j = uni.quotient_object(d8.sub(D8_V))
    assert is_short_exact(iota, j)   # V > D8 ->> D8/V


def test_exactness_self_dual(uni):
    lab = InstanceLab(seed=3)
    from noetherform.zigzag import RIGHT

    for _ in range(10):
        z = random_zigzag(lab, max_len=2)
        if len(z.edges) != 2 or any(e.direction != RIGHT for e in z.edges):
            continue
        f, g = z.edges[0].morphism, z.edges[1].morphism
        fd = f.dual()
        gd = g.dual()
        assert is_exact_at(f, g) == is_exact_at(gd, fd)


def test_path_composition_and_commute(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    d = Diagram(uni, name="demo")
    d.add_object("B", z4)
    d.add_arrow("q", q)
    d.add_arrow("idB", identity_morphism(z4))
    assert d.path("q.idB") == q
    ok, _ = d.check(Assertion("commute", ("q.idB", "q")))
    assert ok
    with pytest.raises(ShapeError):
        d.path("q.nope")


def test_check_assertions_pass_and_skip(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    m = element_morphism(z2, z4, (0, 2), "m")
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    d = Diagram(uni, name="ses")
    d.add_arrow("m", m)
    d.add_arrow("q", q)
    report = LemmaReport("ses")
    check_assertions(d, report, [injective("m"), surjective("q")],
                     [exact("m", "q"), zero("q.m")])
    assert report.passed and not report.refuted
    # unmet hypothesis: conclusions are skipped and flagged
    report2 = LemmaReport("ses2")
    check_assertions(d, report2, [injective("q")], [exact("m", "q")])  # false
    assert report2.skipped and not report2.passed
    assert all(l.status == "SKIP" for l in report2.conclusions)
    assert "SKIP" in report2.render()


def test_check_assertions_refutation_flag(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    d = Diagram(uni, name="bad")
    d.add_arrow("q", q)
    report = LemmaReport("bad")
    check_assertions(d, report, [surjective("q")], [injective("q")])
    assert report.refuted and not report.passed
    assert "REFUTATION" in report.render()


def test_assertion_kinds(uni):
    z2 = uni.object_of(cyclic(2))
    t1 = uni.object_of(trivial_group())
    z = uni.zero_morphism(z2, t1)
    d = Diagram(uni, name="kinds")
    d.add_arrow("z", z)
    d.add_arrow("id", identity_morphism(z2))
    checks = {
        "iso id": iso("id"),
        "zero z": zero("z"),
        "surjective z": surjective("z"),
    }
    for label, a in checks.items():
        ok, _ = d.check(a)
        assert ok, label
    ok, witness = d.check(injective("z"))
    assert not ok and witness


def test_assertion_labels_are_report_lines(uni):
    assert Assertion("commute", ("t.f", "x.s")).label() == "commute t.f = x.s"
    assert exact("f", "g").label() == "exact f g"
    assert zero("y.x").label() == "zero y.x"
    z2 = uni.object_of(cyclic(2))
    d = Diagram(uni, name="square")
    d.add_arrow("id", identity_morphism(z2))
    d.add_arrow("z", uni.zero_morphism(z2, z2))
    d.assertions = [Assertion("commute", ("id", "z"))]
    report, _ = verify(d, "generic")
    assert report.render() == "lemma square\nFAIL commute id = z [paths id and z differ]"


# Diagram.read is the one reader of an assertion's arguments, so validate
# raises the text that the CLI prints after "line N: diagram " for the same
# lines over z4_stack.nf, where f is minc: Z2 -> Z4 and g is q: Z4 -> Z2
READS = [
    (Assertion("commute", ("f", "f.h")), "unknown arrow 'h'"),
    (zero("h.f"), "unknown arrow 'h'"),
    (exact("f", "h"), "unknown arrow 'h'"),
    (injective("g.f"), "unknown arrow 'g.f'"),
    (zero("f.f"), "path 'f.f' does not compose: f ends at Z4, f starts at Z2"),
    (Assertion("commute", ("f.g", "g")),
     "commute f.g = g compares a path Z4 -> Z4 with a path Z4 -> Z2"),
    (exact("f", "f"), "exact f f needs a shared node: f ends at Z4, f starts at Z2"),
    (short_exact("f", "f"), "short-exact f f needs a shared node: f ends at Z4, f starts at Z2"),
]


@pytest.mark.parametrize("a,want", READS, ids=[
    "commute", "zero", "exact", "role-path", "uncomposable", "unparallel", "exact-unshared",
    "short-exact-unshared"])
def test_validate_reads_each_argument_as_the_cli_does(uni, a, want):
    z2, z4 = uni.object_of(cyclic(2)), uni.object_of(cyclic(4))
    d = Diagram(uni, name="dd")
    d.add_arrow("f", element_morphism(z2, z4, (0, 2), "minc"))
    d.add_arrow("g", element_morphism(z4, z2, (0, 1, 0, 1), "q"))
    d.assertions = [zero("g.f"), Assertion("commute", ("g.f.g", "g")), exact("f", "g"), a]
    with pytest.raises(ShapeError) as exc:
        d.validate()
    assert str(exc.value) == f"dd: {want}"


@pytest.mark.parametrize("a", [Assertion("mono", ("f",)), Assertion("exact", ("f",))],
                         ids=["kind", "arity"])
def test_validate_refuses_what_kinds_does_not_list(uni, a):
    # the parser refuses these at their line; a diagram built in code meets
    # the same table in read
    d = Diagram(uni, name="dd")
    d.add_arrow("f", identity_morphism(uni.object_of(cyclic(2))))
    d.assertions = [a]
    with pytest.raises(ShapeError) as exc:
        d.validate()
    assert str(exc.value) == f"dd: no assertion {a.kind} of 1 argument(s)"


def test_check_assertions_takes_labelled_checks(uni):
    z2 = uni.object_of(cyclic(2))
    d = Diagram(uni, name="pair")
    d.add_arrow("id", identity_morphism(z2))
    report = LemmaReport("pair")
    check_assertions(d, report, [iso("id")],
                     [("order 2", lambda d: (d.arrows["id"].dom.order == 2, None)),
                      ("order 3", lambda d: (False, "order 2"))])
    assert report.render() == "\n".join([
        "lemma pair", "PASS iso id", "PASS order 2", "FAIL order 3 [order 2]",
        "REFUTATION: hypotheses hold but a conclusion fails"])
    assert report.refuted and not report.passed
    skipped = LemmaReport("pair")
    check_assertions(d, skipped, [zero("id")], [("order 2", lambda d: (True, None))])
    assert [l.status for l in skipped.conclusions] == ["SKIP"]
    assert skipped.skipped and not skipped.passed


def test_an_assertion_on_an_unknown_arrow_is_a_shape_error(uni):
    z2 = uni.object_of(cyclic(2))
    d = Diagram(uni, name="typo")
    d.add_arrow("id", identity_morphism(z2))
    d.assertions = [iso("id"), injective("nope")]
    with pytest.raises(ShapeError, match="typo: unknown arrow 'nope'"):
        verify(d, "generic")
