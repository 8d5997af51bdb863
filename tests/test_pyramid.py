"""Pyramids, homomorphism induction, induced isomorphisms."""

import gc
import re
import weakref

import pytest

from noetherform import (
    SlominskiForm,
    build_pyramid,
    compose,
    decide_induction,
    decide_isomorphism,
    identity_morphism,
    is_collapsible,
    is_injective,
    is_isomorphism,
    is_surjective,
    quotient_iso,
)
from noetherform.errors import ValidationError
from noetherform.gen import InstanceLab, random_zigzag, recipe_zigzag, snake_instance
from noetherform.groups import D8_V, cyclic, dihedral8
from noetherform.slominski import SlominskiAlgebra, element_morphism
from noetherform.zigzag import (
    LEFT,
    RIGHT,
    Edge,
    Zigzag,
    chase_backward,
    chase_forward,
)
from oracles import collapse, dual_zigzag, factorize, is_subquotient


@pytest.fixture
def uni():
    return SlominskiForm("test")


@pytest.fixture
def delta(uni):
    d8 = uni.object_of(dihedral8())
    vobj, iota = uni.subobject_object(d8.sub(D8_V))
    vb, g = uni.quotient_object(vobj.sub((0, 2)))
    return Zigzag(
        (vb, vb, vobj, d8, vobj, vb),
        (Edge(identity_morphism(vb), RIGHT), Edge(g, LEFT), Edge(iota, RIGHT),
         Edge(iota, LEFT), Edge(g, RIGHT)),
        form=uni,
    )


def test_empty_zigzag_induces_identity(uni):
    z4 = uni.object_of(cyclic(4))
    v = decide_induction(Zigzag((z4,), (), form=uni))
    assert v.induces
    assert v.morphism == identity_morphism(z4)
    assert v.morphism.element_map == (0, 1, 2, 3)


def test_single_edge_pyramid_is_base_triangle(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    p = build_pyramid(Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni))
    assert set(p.node) == {(0, 0), (1, 1), (0, 1)}
    (e, up1) = p.arrow[((0, 0), (0, 1))]
    (m, up2) = p.arrow[((1, 1), (0, 1))]
    assert up1 and not up2
    assert compose(m, e) == q


@pytest.mark.parametrize("order", ["lrt", "LTR", ""])
def test_build_pyramid_refuses_an_order_other_than_ltr_or_rtl(delta, order):
    with pytest.raises(ValidationError,
                       match=re.escape(f"order must be 'ltr' or 'rtl', not {order!r}")):
        build_pyramid(delta, order=order)
    assert not build_pyramid(delta, order="rtl").commutativity_failures()


def test_projection_wedge_apex_is_quotient_by_kernel_join(uni):
    # Q1 <- Z4 -> Q2 with kernels {0,2} and {0}: apex kernel join is {0,2}
    z4 = uni.object_of(cyclic(4))
    q1, p1 = uni.quotient_object(z4.sub((0, 2)))
    q2, p2 = uni.quotient_object(z4.sub((0,)))
    z = Zigzag((q1, z4, q2), (Edge(p1, LEFT), Edge(p2, RIGHT)), form=uni)
    p = build_pyramid(z)
    apex = p.node[(0, 2)]
    assert apex.order == 2  # Z4 / {0,2}
    assert not p.commutativity_failures()


def test_height_zero_and_one_principal_zigzags(uni):
    z4 = uni.object_of(cyclic(4))
    p0 = build_pyramid(Zigzag((z4,), (), form=uni))
    assert len(p0.principal_horizontal()) == 0
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    p1 = build_pyramid(Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni))
    ph = p1.principal_horizontal()
    assert len(ph) == 2
    # geometrically up (projection) then down (embedding)
    from noetherform.core import is_injective, is_surjective

    assert is_surjective(ph.edges[0].morphism)
    assert is_injective(ph.edges[1].morphism)
    assert collapse(ph) == q


def test_pyramid_arrows_oriented(uni, delta):
    p = build_pyramid(delta)
    from noetherform.core import is_injective, is_surjective

    for (lo, hi), (m, up) in p.arrow.items():
        if up:
            assert is_surjective(m)
        else:
            assert is_injective(m)


def test_vertical_zigzags_are_subquotients_and_chase_bounds(uni, delta):
    # the pyramid's two principal vertical zigzags: up its left side from
    # the start node to the apex, and down its right side from the end node
    p = build_pyramid(delta)
    n = len(delta)
    left = p._path_zigzag([(0, t) for t in range(n + 1)])
    right = p._path_zigzag([(s, n) for s in range(n, -1, -1)])
    for vz in (left, right):
        assert is_subquotient(vz)
        assert chase_forward(vz, vz.start.bottom) == vz.end.bottom
        assert chase_forward(vz, vz.start.top) == vz.end.top
        # down and back up along a vertical zigzag restores the subobject
        for S in vz.end.subobjects():
            down = chase_backward(vz, S)
            assert chase_forward(vz, down) == S


def test_snake_delta_pyramid_collapsible_and_commutes(uni, delta):
    p = build_pyramid(delta)
    ph = p.principal_horizontal()
    assert is_collapsible(ph)
    assert not p.commutativity_failures()
    verdict = decide_induction(delta)
    assert verdict.induces
    c = collapse(ph)
    assert c.dimg == verdict.morphism.dimg and c.iimg == verdict.morphism.iimg


def test_collapsible_zigzag_agreement(uni):
    # the two induced-morphism definitions agree on a collapsible zigzag
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    z = Zigzag((z4, z4, z4), (Edge(neg, RIGHT), Edge(neg, LEFT)), form=uni)
    assert is_collapsible(z)
    ph = build_pyramid(z).principal_horizontal()
    assert is_collapsible(ph)
    assert collapse(ph) == collapse(z)
    v = decide_induction(z)
    assert v.induces and v.morphism == collapse(z)


def test_decide_induction_failure_witness(uni):
    # S1 > Z4 < S2 with Im S1 not inside Im S2: backward-top fails
    z4 = uni.object_of(cyclic(4))
    s1, i1 = uni.subobject_object(z4.sub((0, 2)))
    s2, i2 = uni.subobject_object(z4.sub((0,)))
    z = Zigzag((s1, z4, s2), (Edge(i1, RIGHT), Edge(i2, LEFT)), form=uni)
    verdict = decide_induction(z)
    assert not verdict.induces
    assert [f.condition for f in verdict.failures] == ["backward-top"]
    assert verdict.failures[0].node == z4.id


def test_hit_verdict_matches_pyramid_collapsibility():
    lab = InstanceLab(seed=17)
    for i in range(25):
        z = recipe_zigzag(lab, max_len=4) if i % 2 else random_zigzag(lab, max_len=4)
        verdict = decide_induction(z)
        ph = build_pyramid(z).principal_horizontal()
        assert verdict.induces == is_collapsible(ph)
        if verdict.induces:
            c = collapse(ph)
            assert c.dimg == verdict.morphism.dimg
            assert c.iimg == verdict.morphism.iimg
            # necessity: the chase conditions hold on the principal
            # horizontal zigzag as well
            assert decide_induction(ph).induces


def test_unique_induced_across_build_variants():
    lab = InstanceLab(seed=23)
    for i in range(10):
        z = recipe_zigzag(lab, max_len=4)
        p1 = build_pyramid(z, order="ltr")
        p2 = build_pyramid(z, order="rtl", scramble=1000 + i)
        c1, c2 = is_collapsible(p1.principal_horizontal()), is_collapsible(
            p2.principal_horizontal()
        )
        assert c1 == c2
        assert not p1.commutativity_failures()
        assert not p2.commutativity_failures()
        if c1:
            m1 = collapse(p1.principal_horizontal())
            m2 = collapse(p2.principal_horizontal())
            assert m1.dimg == m2.dimg and m1.iimg == m2.iimg


def test_induced_duality():
    # induction verdict transfers to the reflected zigzag in the dual form
    from noetherform.core import dualize

    lab = InstanceLab(seed=29)
    dual = dualize(lab.universe)
    for _ in range(20):
        z = random_zigzag(lab, max_len=4)
        zd = dual_zigzag(z, dual).opposite()
        v1, v2 = decide_induction(z), decide_induction(zd)
        assert v1.induces == v2.induces
        if v1.induces:
            assert v2.morphism.dimg == v1.morphism.iimg
            assert v2.morphism.iimg == v1.morphism.dimg


def _dual_zigzags(lab, count=60):
    """The dual of lab's universe and count seeded zigzags, each with its
    dual zigzag."""
    from noetherform.core import dualize

    dual = dualize(lab.universe)
    zs = [recipe_zigzag(lab, max_len=4) if i % 2 else random_zigzag(lab, max_len=4)
          for i in range(count)]
    return dual, [(z, dual_zigzag(z, dual)) for z in zs]


@pytest.fixture(scope="module")
def dual_builds():
    """One dual form and 60 seeded zigzags, each with its dual zigzag and
    the dual pyramids built left to right and right to left, relabelled."""
    dual, pairs = _dual_zigzags(InstanceLab(seed=202))
    return dual, [(z, zd, build_pyramid(zd, order="ltr"),
                   build_pyramid(zd, order="rtl", scramble=i)) for i, (z, zd) in enumerate(pairs)]


def test_dual_pyramids_build_and_keep_the_induction_verdict(dual_builds):
    # the dual form factors its own composites: every pyramid over a dual
    # zigzag builds, in either order and relabelled, and commutes; the
    # relabelling reaches the objects the dual constructs
    relabelled = 0
    for z, zd, ltr, scrambled in dual_builds[1]:
        assert not ltr.commutativity_failures()
        assert not scrambled.commutativity_failures()
        assert decide_induction(zd.opposite()).induces == decide_induction(z).induces
        ids = ({c: o.id for c, o in p.node.items()} for p in (ltr, scrambled))
        relabelled += next(ids) != next(ids)
    assert relabelled >= 40


def test_dual_form_holds_no_undeclared_morphism(dual_builds):
    # every mediator and constructed object of the dual pyramids passed
    # through the dual form; it keeps none of them, only its declared
    # morphisms and objects
    import gc

    from noetherform.core import FormObject, Morphism

    dual = dual_builds[0]
    declared = {id(m) for m in dual.primal.morphisms + dual.morphisms}
    objects = {id(o) for o in dual.objects.values()}
    todo = [{k: v for k, v in vars(dual).items() if k != "primal"}]
    seen = set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Morphism):
            assert id(x) in declared, x
        elif isinstance(x, FormObject):
            assert id(x) in objects, x
        elif isinstance(x, (dict, list, tuple, set, frozenset)):
            todo.extend(gc.get_referents(x))


def _live_algebras():
    gc.collect()
    return sum(isinstance(o, SlominskiAlgebra) for o in gc.get_objects())


def test_scrambled_dual_builds_leave_nothing_behind():
    # a relabelled object is neither registered nor memoized on anything
    # that outlives its pyramid, so rebuilding the scrambled pyramids grows
    # neither the form nor the process
    lab = InstanceLab(seed=202)
    zigzags = [zd for _, zd in _dual_zigzags(lab)[1]]
    for zd in zigzags:
        build_pyramid(zd, order="ltr")
    settled = (len(lab.universe._by_algebra), _live_algebras())
    for r in range(3):
        for i, zd in enumerate(zigzags):
            build_pyramid(zd, order="rtl", scramble=1000 * r + i)
        assert (len(lab.universe._by_algebra), _live_algebras()) == settled, r


def test_dropped_labs_leave_no_codomain_on_the_palette_lattices():
    # the palette groups' lattices are process-wide; the image tables
    # element_morphism memoizes on them hold a lab's codomain lattices only
    # as long as the lab lives (a lattice holds no algebra: see
    # test_lattices_are_plain_data).
    # A lab of the same seed rebuilds equal algebras, so whatever the
    # process-wide caches keep of it is kept once.
    counts = []
    for _ in range(3):
        lab = InstanceLab(seed=7)
        for _ in range(3):
            snake_instance(lab)
        del lab
        counts.append(_live_algebras())
    assert counts[0] == counts[1] == counts[2], counts


def test_relabelled_algebras_die_with_their_pyramid():
    lab = InstanceLab(seed=202)
    pyramids = [build_pyramid(zd, order="rtl", scramble=i)
                for i, (_, zd) in enumerate(_dual_zigzags(lab, 10)[1])]
    # the nodes of a dual pyramid are dual objects; their primal carries
    # the relabelled algebra, named with a trailing ~
    refs = [weakref.ref(o.dual.algebra) for p in pyramids for o in p.node.values()
            if o.dual.algebra.name.endswith("~")]
    assert len(refs) >= 10
    del pyramids
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def _zero_like(m):
    """A zero morphism with m's endpoints, in m's form: built on the primal
    carriers and dualized back when m is a dual morphism."""
    p = m if m.dom.algebra is not None else m.dual()
    z = element_morphism(p.dom, p.cod, (p.cod.algebra.zero,) * p.dom.algebra.n, "zero")
    return z if p is m else z.dual()


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_diamond_that_does_not_commute_is_reported(uni, delta, side):
    from noetherform.core import dualize

    z = delta if side == "primal" else dual_zigzag(delta, dualize(uni))
    p = build_pyramid(z)
    assert not p.commutativity_failures()
    ul, tp = (2, 3), (2, 4)
    m, up = p.arrow[(ul, tp)]
    zero = _zero_like(m)
    assert zero.dom is m.dom and zero.cod is m.cod and zero != m
    p.arrow[(ul, tp)] = (zero, up)
    failures = p.commutativity_failures()
    ur = p.node[(3, 4)].id
    assert (f"diamond at (2, 4): chasing {{0}} from (2, 3) gives {ur}:{{0}} "
            f"via (3, 3) but {ur}:{{0,1,2,3}} via (2, 4)") in failures
    line = re.compile(r"diamond at \(\d, \d\): chasing \S+ from \(\d, \d\) gives \S+ "
                      r"via \(\d, \d\) but \S+ via \(\d, \d\)")
    assert all(line.fullmatch(f) for f in failures)


def test_decide_isomorphism_examples(uni):
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    v = decide_isomorphism(Zigzag((z4, z4), (Edge(neg, RIGHT),), form=uni))
    assert v.holds
    assert compose(v.backward, v.forward) == identity_morphism(z4)
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    assert not decide_isomorphism(Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni)).holds


def test_decide_isomorphism_names_the_first_deviating_node(uni):
    # each failure names the first node where its chase leaves bottom (top)
    z4 = uni.object_of(cyclic(4))
    s1, i1 = uni.subobject_object(z4.sub((0, 2)))
    s2, i2 = uni.subobject_object(z4.sub((0,)))
    v = decide_isomorphism(Zigzag((s1, z4, s2), (Edge(i1, RIGHT), Edge(i2, LEFT)), form=uni))
    assert (v.holds, v.forward, v.backward) == (False, None, None)
    assert [(f.condition, f.node, f.subobject) for f in v.failures] == [
        ("backward-top", "Z4", (0,))]
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    v = decide_isomorphism(Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni))
    assert [(f.condition, f.node, f.subobject) for f in v.failures] == [
        ("backward-bottom", "Z4", (0, 2))]


def test_decide_isomorphism_on_snake_delta(uni, delta):
    # in this fixture the connecting morphism is the identity on V/B, so the
    # universal-isomorphism chases all succeed
    v = decide_isomorphism(delta)
    assert v.holds
    assert v.forward.element_map == (0, 1)


def test_quotient_iso_identity_and_mod2(uni):
    z4 = uni.object_of(cyclic(4))
    res = quotient_iso(uni, identity_morphism(z4), z4.bottom, z4.top)
    assert res.holds and is_isomorphism(res.iso)
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    res2 = quotient_iso(uni, q, z4.sub((0, 2)), z4.top)
    assert res2.holds
    assert res2.iso.dom.order == 2 and res2.iso.cod.order == 2
    assert is_isomorphism(res2.iso)


def test_quotient_iso_d8_fixture(uni):
    d8 = uni.object_of(dihedral8())
    dv, j = uni.quotient_object(d8.sub(D8_V))
    res = quotient_iso(uni, j, d8.sub(D8_V), d8.top)
    assert res.holds and is_isomorphism(res.iso)
    assert res.iso.cod.order == 2


def test_quotient_iso_precondition_errors(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    with pytest.raises(ValidationError):
        quotient_iso(uni, q, z4.bottom, z4.top)  # Ker q not below W
    with pytest.raises(ValidationError):
        quotient_iso(uni, q, z4.top, z4.sub((0, 2)))  # W not below X


def test_dot_output(uni, delta):
    dot = build_pyramid(delta).to_dot()
    assert dot.startswith("digraph pyramid")
    assert "X_0_0" in dot and "X_0_5" in dot
    assert 'label="X_0^5"' in dot
    assert "style=solid" in dot and "style=dashed" in dot


def _triangles(p):
    """(f, epi, mono) of each triangle of p: the base edges, then the dotted
    composite of each mixed wedge, from the node whose leg points down to
    the node whose leg points up."""
    for s, e in enumerate(p.base.edges):
        a, b = (s, s), (s + 1, s + 1)
        if e.direction == LEFT:
            a, b = b, a
        yield e.morphism, p.arrow[(a, (s, s + 1))][0], p.arrow[(b, (s, s + 1))][0]
    for bot, ul, ur, tp in p.diamonds():
        (leg_l, l_up), (leg_r, r_up) = p.arrow[(bot, ul)], p.arrow[(bot, ur)]
        if l_up != r_up:
            (a, down), (b, up) = ((ul, leg_l), (ur, leg_r)) if r_up else ((ur, leg_r), (ul, leg_l))
            yield compose(up, down), p.arrow[(a, tp)][0], p.arrow[(b, tp)][0]


def _pyramid_zigzags():
    """(name, zigzag) over a Slominski form, its dual and a data form: the
    seeded zigzags of the dual tests and each one's dual, then Q <- X -> Q
    and X -> Q on the data form of the Z4 mod-2 quotient."""
    from test_dataform import FORM_SRC

    from noetherform.parser import parse

    dual, pairs = _dual_zigzags(InstanceLab(seed=202), count=30)
    data = parse(FORM_SRC).data_form("quotpair")
    X, Q = data.objects["X"], data.objects["Q"]
    q = next(m for m in data.morphisms if m.name == "q")
    return ([("primal", z) for z, _ in pairs] + [("dual", zd) for _, zd in pairs]
            + [("data", Zigzag((Q, X, Q), (Edge(q, LEFT), Edge(q, RIGHT)), form=data)),
               ("data", Zigzag((X, Q), (Edge(q, RIGHT),), form=data))])


def test_each_triangle_is_the_mediator_onto_its_images_embedding():
    # unscrambled, a triangle over f is AX4's factorization read in two:
    # the epi is h . e (tables and element maps) and the mono is the
    # embedding of Im f; relabelled, it still splits f into a surjection
    # followed by an injection
    seen = {"primal": 0, "dual": 0, "data": 0}
    for i, (side, z) in enumerate(_pyramid_zigzags()):
        form = z.form
        for f, epi, mono in _triangles(build_pyramid(z)):
            e, h, m = factorize(form, f)
            want = compose(h, e)
            assert ((epi.dom.id, epi.cod.id, epi.d, epi.i, epi.element_map)
                    == (want.dom.id, want.cod.id, want.d, want.i, want.element_map))
            assert mono == m and mono.element_map == m.element_map
            seen[side] += 1
        for f, epi, mono in _triangles(build_pyramid(z, order="rtl", scramble=i)):
            split = compose(mono, epi)
            assert split == f and split.element_map == f.element_map
            assert is_surjective(epi) and is_injective(mono)
    assert all(seen.values()), seen
