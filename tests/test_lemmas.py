"""Lemma verifiers: classical lemmas, the snake, exercises, homology objects."""

import pytest

from noetherform import (
    Diagram,
    SlominskiForm,
    UndefinedMarker,
    homology_object,
    identity_morphism,
    salamander,
    snake,
    verify_exercise,
    verify_five,
    verify_four,
    verify_threebythree,
)
from noetherform.errors import ShapeError
from noetherform.gen import (
    InstanceLab,
    double_complex_window,
    five_instance,
    four_instance,
    goursat_instance,
    incomplete_snail_instance,
    short_five_instance,
    snake_instance,
    spider_instance,
    square_exact_instance,
    threebythree_instance,
)
from noetherform.groups import D8_B, cyclic, dihedral8, trivial_group, xor_group
from noetherform.diagram import Assertion
from noetherform.lemmas import ALIASES, LEMMAS, SHAPES, check_shape, verify
from noetherform.slominski import element_morphism
from oracles import dual_four, strongly_short_exact


@pytest.fixture
def uni():
    return SlominskiForm("test")


@pytest.fixture
def lab():
    return InstanceLab(seed=99)


# ---------------------------------------------------------------------------
# shapes


def test_check_shape_names_missing_roles(uni):
    d = Diagram(uni, name="empty")
    with pytest.raises(ShapeError, match="missing object role"):
        check_shape(d, "four")


def test_check_shape_names_bad_endpoints(lab):
    d = four_instance(lab)
    d.arrows["f"], d.arrows["g"] = d.arrows["g"], d.arrows["f"]
    with pytest.raises(ShapeError, match="arrow 'f'"):
        check_shape(d, "four")


def test_check_shape_names_an_arrow_whose_domain_alone_is_wrong(lab):
    # t . f runs A -> Bp: the codomain is t's, the domain is not
    from noetherform.core import compose

    d = four_instance(lab)
    assert d.objects["A"].id != d.objects["B"].id
    d.arrows["t"] = compose(d.arrows["t"], d.arrows["f"])
    with pytest.raises(ShapeError, match=f"arrow 't' must run B -> Bp, got {d.objects['A'].id} "):
        check_shape(d, "four")


def _arrow_names(assertion):
    if assertion.kind in ("commute", "zero"):
        return [n for path in assertion.args for n in path.split(".")]
    return list(assertion.args)


def test_registry_covers_shapes_and_names_only_shape_arrows():
    shapes = {spec.shape for spec in LEMMAS.values() if spec.shape is not None}
    assert shapes == set(SHAPES)  # every lemma shape exists, every shape is used
    for name, spec in LEMMAS.items():
        if spec.shape is None:
            continue
        shape = SHAPES[spec.shape]
        assertions = [Assertion("commute", c) for c in shape.commutes] + list(spec.hyps)
        for extra_hyps, conclusions in spec.parts.values():
            assertions += list(extra_hyps)
            assertions += [c for c in conclusions if isinstance(c, Assertion)]
        for a in assertions:
            for arrow in _arrow_names(a):
                assert arrow in shape.arrows, (name, a.label(), arrow)
    assert all(target in LEMMAS for target in ALIASES.values())


def test_verify_labels_parts_and_alias(lab):
    d = threebythree_instance(lab)
    assert verify(d, "threebythree")[0].lemma == "3x3 (upper)"
    assert verify(d, "3x3", "lower")[0].lemma == "3x3 (lower)"
    assert verify(spider_instance(lab), "spider")[0].lemma == "spider"


# ---------------------------------------------------------------------------
# four and five


def test_four_parts_on_instances(lab):
    for _ in range(10):
        d = four_instance(lab)
        for part in ("i", "ii"):
            r = verify_four(d, part)
            assert r.hypotheses_hold and r.passed, r.render()


def test_four_part_ii_equals_part_i_on_dual(lab):
    for _ in range(10):
        d = four_instance(lab)
        r2 = verify_four(d, "ii")
        r1d = verify_four(dual_four(d), "i")
        assert r1d.hypotheses_hold == r2.hypotheses_hold
        assert [l.status for l in r1d.conclusions] == [l.status for l in r2.conclusions]


def test_five_parts_on_instances(lab):
    for part in ("i", "ii", "full"):
        for _ in range(3):
            d = five_instance(lab, part)
            r = verify_five(d, part)
            assert r.passed, r.render()


# ---------------------------------------------------------------------------
# 3x3


def test_threebythree_variants_on_instances(lab):
    for _ in range(8):
        d = threebythree_instance(lab)
        for variant in ("upper", "lower", "middle"):
            r = verify_threebythree(d, variant)
            assert r.passed, (variant, r.render())


def test_threebythree_middle_needs_zero_composite(uni):
    """Explicit instance where all middle-variant hypotheses except yx = 0
    hold and the middle row is not short exact."""
    t1 = uni.object_of(trivial_group())
    z2 = uni.object_of(cyclic(2))
    e4 = uni.object_of(xor_group(2))
    mk = element_morphism
    d = Diagram(uni, name="twisted")
    for role, obj in (("A", t1), ("B", z2), ("C", z2), ("Ap", z2), ("Bp", e4),
                      ("Cp", z2), ("App", z2), ("Bpp", z2), ("Cpp", t1)):
        d.add_object(role, obj)
    arrows = {
        "f": mk(t1, z2, (0,), "f"),
        "g": identity_morphism(z2),
        "x": mk(z2, e4, (0, 1), "x"),
        "y": mk(e4, z2, (0, 1, 1, 0), "y"),     # the twist: y(b1,b2)=b1+b2
        "m": identity_morphism(z2),
        "n": mk(z2, t1, (0, 0), "n"),
        "s": mk(t1, z2, (0,), "s"),
        "t": mk(z2, e4, (0, 2), "t"),
        "u": identity_morphism(z2),
        "i": identity_morphism(z2),
        "j": mk(e4, z2, (0, 1, 0, 1), "j"),
        "k": mk(z2, t1, (0, 0), "k"),
    }
    for role, mor in arrows.items():
        d.add_arrow(role, mor)
    r = verify_threebythree(d, "middle")
    # only the zero-composite hypothesis fails ...
    failed = [l.name for l in r.hypotheses if l.status == "FAIL"]
    assert failed == ["zero y.x"]
    # ... and the conclusion genuinely breaks without it
    from noetherform.diagram import is_short_exact

    assert not is_short_exact(arrows["x"], arrows["y"])


# ---------------------------------------------------------------------------
# snake


def test_snake_d8_fixture(uni):
    d8 = uni.object_of(dihedral8())
    vobj, iota = uni.subobject_object(d8.sub((0, 2, 4, 6)))
    bobj, iota_b = uni.subobject_object(d8.sub(D8_B))
    vb, g = uni.quotient_object(vobj.sub((0, 2)))
    dv, j = uni.quotient_object(d8.sub((0, 2, 4, 6)))
    f = uni.mediating_embedding(iota_b, iota)
    h = uni.zero_morphism(vb, dv)
    d = Diagram(uni, name="snake-d8")
    for role, obj in (("A", bobj), ("B", vobj), ("C", vb),
                      ("Ap", vobj), ("Bp", d8), ("Cp", dv)):
        d.add_object(role, obj)
    for role, mor in (("f", f), ("g", g), ("fp", iota), ("gp", j),
                      ("alpha", f), ("beta", iota), ("gamma", h)):
        d.add_arrow(role, mor)
    result = snake(d)
    assert result.report.passed, result.report.render()
    assert [o.order for o in result.objects] == [1, 1, 2, 2, 2, 2]
    assert len(result.morphisms) == 5
    # the connecting morphism is the identity on V/B here
    assert result.morphisms[2].element_map == (0, 1)


def test_snake_identity_columns_trivial(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    m = element_morphism(z2, z4, (0, 2), "m")
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    d = Diagram(uni, name="snake-id")
    for role, obj in (("A", z2), ("B", z4), ("C", z2),
                      ("Ap", z2), ("Bp", z4), ("Cp", z2)):
        d.add_object(role, obj)
    for role, mor in (("f", m), ("g", q), ("fp", m), ("gp", q),
                      ("alpha", identity_morphism(z2)),
                      ("beta", identity_morphism(z4)),
                      ("gamma", identity_morphism(z2))):
        d.add_arrow(role, mor)
    result = snake(d)
    assert result.report.passed, result.report.render()
    assert all(o.order == 1 for o in result.objects)


def test_snake_on_generated_instances_with_element_oracle(lab):
    for _ in range(8):
        d = snake_instance(lab)
        result = snake(d)
        assert not result.report.refuted, result.report.render()
        assert result.report.passed, result.report.render()
        for m in result.morphisms:
            # elementwise realization exists and matches the chased images
            assert m.element_map is not None
            for key in m.dom.lattice.keys:
                assert tuple(sorted({m.element_map[x] for x in key})) == m.dimg[key]


def test_snake_skips_on_unmet_hypotheses(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    m = element_morphism(z2, z4, (0, 2), "m")
    d = Diagram(uni, name="snake-bad")
    for role, obj in (("A", z2), ("B", z4), ("C", z2),
                      ("Ap", z2), ("Bp", z4), ("Cp", z2)):
        d.add_object(role, obj)
    # rows not exact: f and g both the embedding direction
    for role, mor in (("f", m), ("g", q), ("fp", m), ("gp", q),
                      ("alpha", uni.zero_morphism(z2, z2)),
                      ("beta", uni.zero_morphism(z4, z4)),
                      ("gamma", uni.zero_morphism(z2, z2))):
        d.add_arrow(role, mor)
    d.arrows["g"] = element_morphism(z4, z2, (0, 0, 0, 0), "zero")
    result = snake(d)
    assert result.report.skipped
    assert result.objects is None


def test_a_snake_map_that_does_not_induce_skips_exactness_on_both_sides(lab, monkeypatch):
    # delta fails to induce: its line FAILs with the chase witness, and the
    # exactness lines at both of its ends are SKIPped, never checked on a
    # missing map; the lines away from it keep their verdicts
    from noetherform import lemmas
    from noetherform.pyramid import ChaseFailure, InductionVerdict

    real = lemmas.decide_induction
    failure = ChaseFailure("forward-bottom", "K", (0,))

    def decide(zz, name=""):
        return InductionVerdict(False, None, [failure]) if name == "delta" else real(zz, name)

    monkeypatch.setattr(lemmas, "decide_induction", decide)
    result = snake(snake_instance(lab))
    assert [l.render() for l in result.report.conclusions] == [
        "PASS induce f-bar",
        "PASS induce g-bar",
        "FAIL induce delta [forward-bottom first deviates at K with {0}]",
        "PASS induce f'-bar",
        "PASS induce g'-bar",
        "PASS exact at Ker beta",
        "SKIP exact at Ker gamma",
        "SKIP exact at Coker alpha",
        "PASS exact at Coker beta",
    ]
    assert result.morphisms[2] is None and not result.report.passed


# ---------------------------------------------------------------------------
# exercises


def test_short_five_parts(lab):
    for part in ("i", "ii", "iii"):
        for _ in range(4):
            d = short_five_instance(lab, part)
            r = verify_exercise(d, "short-five", part)
            assert r.passed, r.render()


def test_spider(lab):
    for _ in range(6):
        r = verify_exercise(spider_instance(lab), "spider")
        assert r.passed, r.render()


def test_incomplete_snail(lab):
    for _ in range(6):
        r = verify_exercise(incomplete_snail_instance(lab), "incomplete-snail")
        assert r.passed, r.render()


def test_square_exact(lab):
    for part in ("i", "ii"):
        for _ in range(5):
            d = square_exact_instance(lab, part)
            r = verify_exercise(d, "square-exact", part)
            assert r.passed, r.render()


def _all_trivial_diagram(uni, shape_name):
    shape = SHAPES[shape_name]
    t1 = uni.object_of(trivial_group())
    d = Diagram(uni, name=f"{shape_name}-trivial")
    for role in shape.objects:
        d.add_object(role, t1)
    for role in shape.arrows:
        d.add_arrow(role, uni.zero_morphism(t1, t1))
    return d


@pytest.mark.parametrize("name,part", [
    (name, part) for name, spec in LEMMAS.items()
    if spec.shape is not None and spec.construct is None for part in spec.parts
])
def test_exercises_all_trivial_instances(uni, name, part):
    d = _all_trivial_diagram(uni, LEMMAS[name].shape)
    r = verify(d, name, part)[0]
    assert r.passed, r.render()


def test_classical_lemmas_all_trivial_instances(uni):
    # degenerate diagrams with every object trivial: all conclusions hold
    r = verify_four(_all_trivial_diagram(uni, "four"), "i")
    assert r.passed, r.render()
    r = verify_five(_all_trivial_diagram(uni, "five"), "full")
    assert r.passed, r.render()
    for variant in ("upper", "lower", "middle"):
        r = verify_threebythree(_all_trivial_diagram(uni, "threebythree"), variant)
        assert r.passed, r.render()


def test_dragon_hypotheses_unmet_flagged(uni):
    d = _all_trivial_diagram(uni, "dragon")
    z2 = uni.object_of(cyclic(2))
    t1 = uni.object_of(trivial_group())
    # W = Z2 breaks the injectivity decoration on y12
    d.objects["W"] = z2
    d.arrows["x12"] = uni.zero_morphism(t1, z2)
    d.arrows["y12"] = uni.zero_morphism(z2, t1)
    r = verify_exercise(d, "dragon", "i")
    assert r.skipped
    assert all(l.status == "SKIP" for l in r.conclusions)


def test_baby_dragon_nontrivial_instance(uni):
    t1 = uni.object_of(trivial_group())
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    idz4 = identity_morphism(z4)
    zero = uni.zero_morphism
    d = Diagram(uni, name="baby")
    for role, obj in (("A", t1), ("B", z4), ("C", t1), ("S", t1), ("T", z4),
                      ("U", z4), ("V", t1), ("Ap", z2), ("Bp", z4), ("Cp", t1)):
        d.add_object(role, obj)
    for role, mor in (("f", zero(t1, t1)), ("g", zero(t1, z4)), ("m", idz4),
                      ("n", idz4), ("z", zero(t1, z4)), ("alpha", zero(t1, t1)),
                      ("beta", zero(t1, z2)), ("h", zero(z4, z2)), ("o", idz4),
                      ("p", idz4), ("y", zero(z4, t1)), ("x", zero(t1, t1))):
        d.add_arrow(role, mor)
    r = verify_exercise(d, "baby-dragon", "i")
    assert r.passed, r.render()


def test_diamond_lemma_two_diamond_sequence(uni):
    """The two-diamond horizontal-sequence exercise: its literal commute and
    assert lines as hypotheses, then its conclusion."""
    from noetherform.diagram import (
        Assertion, LemmaReport, check_assertions, exact, injective, surjective)

    z2 = uni.object_of(cyclic(2))
    idz2 = identity_morphism(z2)
    zero = uni.zero_morphism
    d = Diagram(uni, name="two-diamond")
    for role in ("A", "G", "D", "B", "J", "H", "C", "I"):
        d.add_object(role, z2)
    for role, mor in (("a", idz2), ("b", idz2), ("c", zero(z2, z2)),
                      ("dd", zero(z2, z2)), ("p", idz2), ("u", idz2),
                      ("q", zero(z2, z2)), ("v", idz2), ("r", idz2),
                      ("x", idz2), ("y", idz2)):
        d.add_arrow(role, mor)
    commutes = [("u", "v.p"), ("x", "y.r"), ("b", "p.a"), ("dd", "r.c")]
    d.assertions = [*(Assertion("commute", c) for c in commutes),
                    exact("p", "q"), exact("q", "r"),
                    surjective("u"), injective("v"), injective("y")]
    report = LemmaReport(d.name)
    check_assertions(d, report, d.assertions, [injective("x")])
    assert report.passed, report.render()


# ---------------------------------------------------------------------------
# generalized snail and goursat


def test_generalized_snail_degenerate_bottom(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    t1 = uni.object_of(trivial_group())
    gamma = element_morphism(z4, z2, (0, 1, 0, 1), "gamma")
    betap = element_morphism(z2, z2, (0, 1), "betap")
    f0p = element_morphism(z2, z4, (0, 2), "f0p")
    d = Diagram(uni, name="snail")
    for role, obj in (("A", z4), ("B", z4), ("C", z2), ("A0", z2), ("B0", t1)):
        d.add_object(role, obj)
    for role, mor in (("f", element_morphism(z4, z4, (0, 2, 0, 2), "f")),
                      ("alpha", element_morphism(z4, z2, (0, 1, 0, 1), "alpha")),
                      ("beta", uni.zero_morphism(z4, t1)),
                      ("gamma", gamma), ("f0p", f0p), ("betap", betap),
                      ("f0", uni.zero_morphism(z2, t1))):
        d.add_arrow(role, mor)
    result = verify(d, "generalized-snail")[1]
    assert result.report.passed, result.report.render()
    assert len(result.objects) == 6


def test_generalized_snail_from_snake_instances(lab):
    # reshape generated 2x3 instances into the snail triangle via C = B
    for _ in range(5):
        s = snake_instance(lab)
        d = Diagram(lab.universe, name="snail")
        d.add_object("A", s.objects["A"])
        d.add_object("B", s.objects["B"])
        d.add_object("C", s.objects["B"])
        d.add_object("A0", s.objects["Bp"])
        d.add_object("B0", s.objects["Cp"])
        beta = s.arrows["beta"]
        d.add_arrow("f", s.arrows["f"])
        d.add_arrow("gamma", s.arrows["f"])
        d.add_arrow("f0p", identity_morphism(s.objects["B"]))
        d.add_arrow("alpha", _comp(beta, s.arrows["f"]))
        d.add_arrow("betap", beta)
        d.add_arrow("beta", _comp(s.arrows["gp"], beta))
        d.add_arrow("f0", s.arrows["gp"])
        result = verify(d, "generalized-snail")[1]
        assert not result.report.refuted, result.report.render()
        assert result.report.passed, result.report.render()


def _comp(g, f):
    from noetherform.core import compose

    return compose(g, f)


def test_goursat_identities_trivial(uni):
    z2 = uni.object_of(cyclic(2))
    idm = identity_morphism(z2)
    d = Diagram(uni, name="goursat-nonexact")
    for role in ("A", "B", "C", "D", "E", "F"):
        d.add_object(role, z2)
    for role in ("lam", "mu", "lamp", "mup", "alpha", "beta", "gamma"):
        d.add_arrow(role, idm)
    report, iso_m = verify(d, "goursat")
    # identity rows over a nontrivial object are not exact: hypotheses fail
    assert report.skipped
    # over the trivial object the same diagram passes with trivial quotients
    t1 = uni.object_of(trivial_group())
    dt = Diagram(uni, name="goursat-trivial")
    for role in ("A", "B", "C", "D", "E", "F"):
        dt.add_object(role, t1)
    for role in ("lam", "mu", "lamp", "mup", "alpha", "beta", "gamma"):
        dt.add_arrow(role, identity_morphism(t1))
    report_t, iso_t = verify(dt, "goursat")
    assert report_t.passed, report_t.render()
    assert iso_t is not None and iso_t.dom.order == 1
    # the same conclusion lines whatever the verdict
    assert [c.name for c in report.conclusions] == [c.name for c in report_t.conclusions]
    assert {c.status for c in report.conclusions} == {"SKIP"} and iso_m is None


def test_goursat_z4_instance(uni):
    # beta = mod 2, lam = inclusion of {0,2}, gamma = 0: Ker(gamma.mu) = Z4,
    # so both quotients in the isomorphism have order 2
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    lam = element_morphism(z2, z4, (0, 2), "lam")
    mu = element_morphism(z4, z2, (0, 1, 0, 1), "mu")
    beta = element_morphism(z4, z2, (0, 1, 0, 1), "beta")
    d = Diagram(uni, name="goursat-z4")
    for role, obj in (("A", z2), ("B", z4), ("C", z2),
                      ("D", z2), ("E", z2), ("F", z2)):
        d.add_object(role, obj)
    for role, mor in (("lam", lam), ("mu", mu),
                      ("lamp", identity_morphism(z2)),
                      ("mup", uni.zero_morphism(z2, z2)),
                      ("alpha", uni.zero_morphism(z2, z2)),
                      ("beta", beta), ("gamma", uni.zero_morphism(z2, z2))):
        d.add_arrow(role, mor)
    report, iso_m = verify(d, "goursat")
    assert report.passed, report.render()
    assert iso_m is not None
    assert iso_m.dom.order == 2 and iso_m.cod.order == 2


def test_goursat_generated(lab):
    for _ in range(5):
        report, iso_m = verify(goursat_instance(lab), "goursat")
        assert not report.refuted, report.render()
        assert report.passed, report.render()


def test_goursat_fails_when_the_quotient_iso_verdicts_disagree(lab, monkeypatch):
    # an isomorphism alone does not pass the last conclusion: the two
    # relative-normality verdicts must agree as well
    from noetherform import lemmas
    from noetherform.pyramid import QuotientIsoResult

    real = lemmas.quotient_iso

    def disagreeing(form, f, W, X):
        result = real(form, f, W, X)
        assert result.iso is not None
        return QuotientIsoResult(True, False, result.iso, result.zigzag)

    monkeypatch.setattr(lemmas, "quotient_iso", disagreeing)
    report, iso_m = verify(goursat_instance(lab), "goursat")
    assert report.conclusions[-1].render() == (
        "FAIL quotient isomorphism [quotient_iso verdicts disagree]")
    assert report.refuted and iso_m is not None


# ---------------------------------------------------------------------------
# homology objects and the salamander


def test_homology_object_all_zero_defined(uni):
    z4 = uni.object_of(cyclic(4))
    z = uni.zero_morphism
    h = homology_object(uni, "h", out=z(z4, z4), into=z(z4, z4))
    assert not isinstance(h, UndefinedMarker)
    assert h.object.order == 4  # Ker 0 / Im 0 = top / bottom


def test_homology_object_guard_failure(uni):
    d8 = uni.object_of(dihedral8())
    t1 = uni.object_of(trivial_group())
    gb, incl = uni.subobject_object(d8.sub(D8_B))
    marker = homology_object(uni, "h", out=uni.zero_morphism(d8, t1), into=incl)
    assert isinstance(marker, UndefinedMarker)
    assert "normal to" in marker.guard


def test_homology_object_elementwise_oracle(uni):
    # E4 cell: into has image {0,1}, out kills everything: H = Ker/Im of order 2
    e4 = uni.object_of(xor_group(2))
    z2 = uni.object_of(cyclic(2))
    into = element_morphism(z2, e4, (0, 1), "into")
    out = uni.zero_morphism(e4, z2)
    h = homology_object(uni, "h", out=out, into=into)
    assert h.object.order == 2  # |Ker out| / |Im into| = 4/2


def test_salamander_all_zero(uni):
    z2 = uni.object_of(cyclic(2))
    d = Diagram(uni, name="salamander-zero")
    for role in SHAPES["salamander"].objects:
        d.add_object(role, z2)
    for role, (dom, cod) in SHAPES["salamander"].arrows.items():
        d.add_arrow(role, uni.zero_morphism(d.objects[dom], d.objects[cod]))
    report = salamander(d)
    assert report.passed, report.render()


def test_salamander_guard_failure_reported(uni):
    d8 = uni.object_of(dihedral8())
    t1 = uni.object_of(trivial_group())
    gb, incl = uni.subobject_object(d8.sub(D8_B))
    d = Diagram(uni, name="salamander-guard")
    objs = {"Dl": gb, "A": d8}
    for role in SHAPES["salamander"].objects:
        d.add_object(role, objs.get(role, t1))
    for role, (dom, cod) in SHAPES["salamander"].arrows.items():
        if role == "d":
            d.add_arrow(role, incl)
        else:
            d.add_arrow(role, uni.zero_morphism(d.objects[dom], d.objects[cod]))
    report = salamander(d)
    assert not report.passed
    line = next(l for l in report.hypotheses if l.name == "A-h defined")
    assert line.status == "FAIL" and "normal to" in (line.witness or "")
    assert all(l.status == "SKIP" for l in report.conclusions)


def test_salamander_generated(lab):
    done = 0
    while done < 6:
        d = double_complex_window(lab)
        if d is None:
            continue
        report = salamander(d)
        assert not report.refuted, report.render()
        assert report.passed, report.render()
        done += 1


# ---------------------------------------------------------------------------
# strongly short exact


def _ssec_diagram(uni, A, B, C, f, g):
    t1 = uni.object_of(trivial_group())
    d = Diagram(uni, name="ssec")
    for role, obj in (("O1", t1), ("A", A), ("B", B), ("C", C), ("O2", t1)):
        d.add_object(role, obj)
    d.add_arrow("a", uni.zero_morphism(t1, A))
    d.add_arrow("f", f)
    d.add_arrow("g", g)
    d.add_arrow("b", uni.zero_morphism(C, t1))
    return d


def test_strongly_short_exact_identity(uni):
    z2 = uni.object_of(cyclic(2))
    report = strongly_short_exact(
        _ssec_diagram(uni, z2, z2, uni.object_of(trivial_group()),
                      identity_morphism(z2), uni.zero_morphism(z2, uni.object_of(trivial_group())))
    )
    assert report.passed, report.render()


def test_strongly_short_exact_z4(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    m = element_morphism(z2, z4, (0, 2), "m")
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    report = strongly_short_exact(_ssec_diagram(uni, z2, z4, z2, m, q))
    assert report.passed, report.render()


def test_strongly_short_exact_non_exact_middle(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    f = uni.zero_morphism(z2, z4)
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    report = strongly_short_exact(_ssec_diagram(uni, z2, z4, z2, f, q))
    assert not report.passed and not report.refuted
    assert report.hypotheses[0].render() == "FAIL exact a f [Im a = Z2:{0} but Ker f = Z2:{0,1}]"


def test_strongly_short_exact_requires_trivial_ends(uni):
    # with Z2 for O1 and the identity for a, the sequence is exact at A, B
    # and C, yet f is the zero map: without trivial ends exactness does not
    # force (f, g) short exact
    z2 = uni.object_of(cyclic(2))
    z4 = uni.object_of(cyclic(4))
    d = _ssec_diagram(uni, z2, z4, z4, uni.zero_morphism(z2, z4), identity_morphism(z4))
    d.objects["O1"] = z2
    d.arrows["a"] = identity_morphism(z2)
    report = strongly_short_exact(d)
    assert report.hypotheses_hold and report.refuted
    assert [l.render() for l in report.conclusions] == ["FAIL short-exact f g [(f,g) is not short exact]"]
