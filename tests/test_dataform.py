"""Data-defined forms: search-based providers, pyramids, error contracts."""

import itertools

import pytest

from noetherform import axiom_suite, build_pyramid, compose, decide_induction, dualize
from noetherform.core import DataForm, FormObject, Morphism
from noetherform.errors import UnsupportedFormError, UnsupportedSubobjectError
from noetherform.lattice import TableLattice
from noetherform.parser import parse
from noetherform.zigzag import LEFT, RIGHT, Edge, Zigzag
from oracles import factorize

# Z4 with its mod-2 quotient, encoded purely as subobject lattices and
# image maps: X has subobjects 1 <= K <= T, Q has 1q <= tq.
FORM_SRC = """
form quotpair
object X subobjects 1 K T
order X 1 <= K
order X K <= T
object Q subobjects 1q tq
morphism idX X -> X
  dimg 1 -> 1
  dimg K -> K
  dimg T -> T
  iimg 1 -> 1
  iimg K -> K
  iimg T -> T
morphism idQ Q -> Q
  dimg 1q -> 1q
  dimg tq -> tq
  iimg 1q -> 1q
  iimg tq -> tq
morphism q X -> Q
  dimg 1 -> 1q
  dimg K -> 1q
  dimg T -> tq
  iimg 1q -> K
  iimg tq -> T
"""


@pytest.fixture
def form():
    return parse(FORM_SRC).data_form("quotpair")


def test_data_form_axioms(form):
    report = axiom_suite(form)
    assert report.passed, report.render()


def test_data_form_dual_axioms(form):
    from noetherform import dualize

    dual = dualize(form)
    report = axiom_suite(dual)
    assert report.passed, report.render()
    # the optional axiom fails on both sides: K is a kernel but no image
    report6 = axiom_suite(dual, include_axiom6=True)
    assert report6.failed_names() == ["AX6"]


def test_data_form_providers(form):
    X = form.objects["X"]
    Q = form.objects["Q"]
    q = next(m for m in form.morphisms if m.name == "q")
    assert form.is_normal(X.sub("K"))          # K = Ker q
    assert not form.is_conormal(X.sub("K"))    # nothing has image K
    assert form.projection_of(X.sub("K")) == q
    with pytest.raises(UnsupportedSubobjectError):
        form.embedding_of(X.sub("K"))
    e, h, m = factorize(form, q)
    assert compose(m, compose(h, e)) == q
    assert all(x in form.morphisms for x in (e, h, m))


def test_data_form_mediators_are_declared_induced_morphisms(form):
    from noetherform.core import FormObject, Morphism
    from noetherform.lattice import TableLattice
    from noetherform.zigzag import path

    X, Q = form.objects["X"], form.objects["Q"]
    q = next(m for m in form.morphisms if m.name == "q")
    idX, idQ = form.identity(X), form.identity(Q)
    # each mediator is the declared morphism its zigzag induces
    for got, z in ((form.mediating_projection(q, q), path(form, (q, LEFT), (q, RIGHT))),
                   (form.mediating_embedding(q, idQ), path(form, (q, RIGHT), (idQ, LEFT)))):
        want = decide_induction(z).morphism
        assert got in form.morphisms
        assert (got.d, got.i, got.element_map) == (want.d, want.i, want.element_map)
    # the zero morphism X -> Q mediates itself through idQ, but is not declared
    zero_xq = Morphism(X, Q, (0, 0, 0), (2, 2))
    with pytest.raises(UnsupportedFormError, match="no declared morphism"):
        form.mediating_embedding(zero_xq, idQ)
    O = FormObject("O", TableLattice(["0"], []))
    cases = [
        # n not surjective (Ker n = Ker p = tq, but Im n is 1)
        lambda: form.mediating_projection(Morphism(Q, Q, (0, 0), (1, 1)),
                                          Morphism(Q, X, (0, 0), (1, 1, 1))),
        # Ker n = K is not below Ker p = 1
        lambda: form.mediating_projection(idX, q),
        # m not injective (Im i = Im m = tq, but Ker m is K)
        lambda: form.mediating_embedding(idQ, q),
        # Im i = tq is not below Im m = 1q
        lambda: form.mediating_embedding(idQ, Morphism(O, Q, (0,), (0, 0))),
    ]
    for case in cases:
        with pytest.raises(UnsupportedFormError, match="no morphism mediates"):
            case()


def test_data_form_pyramid_with_mediator_search(form):
    X = form.objects["X"]
    Q = form.objects["Q"]
    q = next(m for m in form.morphisms if m.name == "q")
    z = Zigzag((Q, X, Q), (Edge(q, LEFT), Edge(q, RIGHT)), form=form)
    p = build_pyramid(z)
    # the projection diamond's apex is resolved inside the declared hom set
    assert p.node[(0, 2)].id == "Q"
    assert not p.commutativity_failures()
    verdict = decide_induction(z)
    assert verdict.induces


def test_data_form_pyramid_missing_projection():
    # drop q: the kernel K keeps no associated projection; a triangle over r
    # needs only the embedding of Im r (idQ) and the mediator of r through
    # it, which is r itself and is not declared
    src = FORM_SRC.replace("morphism q X -> Q", "morphism r X -> Q")
    ws = parse(src)
    form = ws.data_form("quotpair")
    X = form.objects["X"]
    r = next(m for m in form.morphisms if m.name == "r")
    # r itself is the projection for K, so remove it from the declared set
    from noetherform.core import DataForm

    slim = DataForm([form.objects["X"], form.objects["Q"]],
                    [m for m in form.morphisms if m.name != "r"],
                    name="slim")
    z = Zigzag((slim.objects["X"], slim.objects["X"]),
               (Edge(slim.identity(slim.objects["X"]), RIGHT),), form=slim)
    # identity splits fine; a zigzag through r does not exist in slim, so
    # force the failure through the provider API instead
    with pytest.raises(UnsupportedSubobjectError):
        slim.projection_of(slim.objects["X"].sub("K"))
    z_bad = Zigzag((form.objects["Q"], X, form.objects["Q"]),
                   (Edge(r, LEFT), Edge(r, RIGHT)), form=slim)
    with pytest.raises(UnsupportedFormError,
                       match="med_r:X->Q mediates, but no declared morphism equals it"):
        build_pyramid(z_bad)


# X and Y are chains 0 <= s <= 1 and 0 <= k <= 1 with their identities, and
# m: Y -> X has image s, which no declared morphism embeds
NOEMB_SRC = """
form noemb
object X subobjects 0 s 1
order X 0 <= s
order X s <= 1
object Y subobjects 0 k 1
order Y 0 <= k
order Y k <= 1
morphism idX X -> X
  dimg 0 -> 0
  dimg s -> s
  dimg 1 -> 1
  iimg 0 -> 0
  iimg s -> s
  iimg 1 -> 1
morphism idY Y -> Y
  dimg 0 -> 0
  dimg k -> k
  dimg 1 -> 1
  iimg 0 -> 0
  iimg k -> k
  iimg 1 -> 1
morphism m Y -> X
  dimg 0 -> 0
  dimg k -> 0
  dimg 1 -> s
  iimg 0 -> k
  iimg s -> 1
  iimg 1 -> 1
"""


def test_check_axioms_fails_ax3_on_an_image_without_an_embedding(tmp_path, capsys):
    from noetherform.cli import main

    src = tmp_path / "noemb.nf"
    src.write_text(NOEMB_SRC)
    assert main(["check-axioms", str(src)]) == 1
    out = capsys.readouterr().out
    assert "FAIL AX3 [embedding_of(X:s): no embedding associated to X:s is declared]\n" in out


def test_data_form_pyramid_names_the_image_it_cannot_embed():
    # the triangle over m asks for the embedding of Im m = X:s first; the
    # projection of Ker m = Y:k is missing too, but the split never needs it
    form = parse(NOEMB_SRC).data_form("noemb")
    m = next(x for x in form.morphisms if x.name == "m")
    z = Zigzag((form.objects["Y"], form.objects["X"]), (Edge(m, RIGHT),), form=form)
    with pytest.raises(UnsupportedSubobjectError) as err:
        build_pyramid(z)
    assert err.value.subobject == form.objects["X"].sub("s")


def test_data_form_identity_and_compose(form):
    X = form.objects["X"]
    q = next(m for m in form.morphisms if m.name == "q")
    assert compose(q, form.identity(X)) == q


def test_induced_morphism_membership_check(form):
    from noetherform.core import declared_member

    X = form.objects["X"]
    Q = form.objects["Q"]
    q = next(m for m in form.morphisms if m.name == "q")
    verdict = decide_induction(Zigzag((X, Q), (Edge(q, RIGHT),), form=form))
    assert verdict.induces
    m = verdict.morphism
    assert declared_member(form, m.dom, m.cod, m.d, m.i) is q
    # the span induces the identity on Q, which is declared too
    span = Zigzag((Q, X, Q), (Edge(q, LEFT), Edge(q, RIGHT)), form=form)
    m = decide_induction(span).morphism
    got = declared_member(form, m.dom, m.cod, m.d, m.i)
    assert got is form.identity(Q) or got == form.identity(Q)


def sets_form():
    """Finite sets of size 0, 1 and 2 with all 11 maps between them.  A
    subobject is a subset, keyed as its sorted tuple; d is the direct image
    and i the inverse image.  The map X -> Y with element table t is named
    X.id + Y.id + "_" + t."""
    objects = []
    for n in range(3):
        keys = sorted((s for r in range(n + 1) for s in itertools.combinations(range(n), r)),
                      key=lambda s: (len(s), s))
        pairs = [(a, b) for a in keys for b in keys if set(a) <= set(b)]
        objects.append(FormObject(f"S{n}", TableLattice(keys, pairs)))
    maps = []
    for X, Y in itertools.product(objects, repeat=2):
        for t in itertools.product(range(len(Y.lattice.top)), repeat=len(X.lattice.top)):
            dimg = {a: tuple(sorted({t[x] for x in a})) for a in X.lattice.keys}
            iimg = {b: tuple(x for x in X.lattice.top if t[x] in b) for b in Y.lattice.keys}
            maps.append(Morphism.from_maps(X, Y, dimg, iimg,
                                           name=f"{X.id}{Y.id}_{''.join(map(str, t))}"))
    return DataForm(objects, maps, name="sets")


CHECKS = ["P1", "P2", "P3", "BL", "G", "I", "A", "F1", "F2", "AX2", "AX3", "AX4", "AX5", "AX6"]


@pytest.mark.parametrize("dual,failures", [
    (False, {
        "AX2": "S2S1_00: f^-1 f A != A v Ker f at A=(0,)",
        "AX4": "factorize(S2S2_01): med_S2S2_01:S1->S2 mediates, "
               "but no declared morphism equals it",
        "AX6": "S1: top not normal",
    }),
    (True, {
        "AX2": "S2S1_00: f f^-1 B != B ^ Im f at B=(0,)",
        "AX4": "factorize(S2S2_01): med_S2S2_01:S1->S2 mediates, "
               "but no declared morphism equals it",
        "AX6": "S1: bottom not conormal",
    }),
], ids=["sets", "dual"])
def test_sets_with_all_maps_fail_ax2_ax4_and_ax6_naturally(dual, failures):
    # PAPER.md lists only the dual of pointed sets as a form; sets and their
    # dual fail these three checks by their own structure, not by a planted
    # fault, and pass every other check
    form = sets_form()
    assert len(form.morphisms) == 11
    name = "dual(sets)" if dual else "sets"
    report = axiom_suite(dualize(form) if dual else form, include_axiom6=True)
    assert report.render() == "\n".join(
        [f"FAIL {c} [{failures[c]}]" if c in failures else f"PASS {c}" for c in CHECKS]
        + [f"FAIL axioms({name})"])


def pointed_sets_form(sizes=(1, 2, 3)):
    """Pointed sets of the given sizes, base point 0, with every map that
    keeps it: 23 maps for sizes 1-3.  A subobject is a subset that holds the
    base point, keyed as its sorted tuple; d is the direct image and i the
    inverse image.  Maps are named as in sets_form."""
    objects = []
    for n in sizes:
        keys = sorted(((0,) + s for r in range(n) for s in itertools.combinations(range(1, n), r)),
                      key=lambda s: (len(s), s))
        pairs = [(a, b) for a in keys for b in keys if set(a) <= set(b)]
        objects.append(FormObject(f"P{n}", TableLattice(keys, pairs)))
    maps = []
    for X, Y in itertools.product(objects, repeat=2):
        for t in itertools.product(range(len(Y.lattice.top)), repeat=len(X.lattice.top) - 1):
            t = (0,) + t
            dimg = {a: tuple(sorted({t[x] for x in a})) for a in X.lattice.keys}
            iimg = {b: tuple(x for x in X.lattice.top if t[x] in b) for b in Y.lattice.keys}
            maps.append(Morphism.from_maps(X, Y, dimg, iimg,
                                           name=f"{X.id}{Y.id}_{''.join(map(str, t))}"))
    return DataForm(objects, maps, name="pointed")


@pytest.mark.parametrize("dual,failures", [
    (False, {
        "AX2": "P3P2_011: f^-1 f A != A v Ker f at A=(0, 1)",
        "AX4": "factorize(P3P3_012): med_P3P3_012:P2->P3 mediates, "
               "but no declared morphism equals it",
    }),
    (True, {
        "AX2": "P3P2_011: f f^-1 B != B ^ Im f at B=(0, 1)",
        "AX4": "factorize(P3P3_012): med_P3P3_012:P2->P3 mediates, "
               "but no declared morphism equals it",
    }),
], ids=["pointed", "dual"])
def test_pointed_sets_fail_ax2_and_ax4_naturally(dual, failures):
    # PAPER.md lists only the dual of pointed sets as a form, and there a
    # subobject is a quotient of a pointed set; here it is a subset, and
    # both this form and its mirror fail two checks by their own structure.
    # AX2: 011 sends 1 and 2 to one point off the base, so f^-1 f {0, 1}
    # holds 2 as well and is all of P3, while {0, 1} v Ker = {0, 1}.
    # AX4: the projection by the bottom of P3 is the first surjection with
    # kernel {0}, 011, which is not injective although its kernel is
    # trivial, so the identity 012 would factor through P2 by a mediator
    # P2 -> P3 that no map keeping the base point equals
    form = pointed_sets_form()
    assert len(form.morphisms) == 23
    name = "dual(pointed)" if dual else "pointed"
    report = axiom_suite(dualize(form) if dual else form, include_axiom6=True)
    assert report.render() == "\n".join(
        [f"FAIL {c} [{failures[c]}]" if c in failures else f"PASS {c}" for c in CHECKS]
        + [f"FAIL axioms({name})"])
    # with sizes 1 and 2 only, no map folds two points off the base
    small = pointed_sets_form((1, 2))
    assert axiom_suite(dualize(small) if dual else small, include_axiom6=True).passed
