"""Zigzags: chasing, collapsing, subquotients, the element-level relation."""

import pytest

from noetherform import (
    SlominskiForm,
    chase_backward,
    chase_forward,
    compose,
    identity_morphism,
    induced_relation,
    is_collapsible,
)
from noetherform.errors import OwnershipError, UnsupportedFormError, ValidationError
from noetherform.gen import InstanceLab, recipe_zigzag
from noetherform.groups import cyclic, dihedral8
from noetherform.slominski import element_morphism
from noetherform.zigzag import (
    LEFT,
    RIGHT,
    Edge,
    Zigzag,
    chased_morphism,
    relation_function,
)
from oracles import collapse, dual_zigzag, is_subquotient


@pytest.fixture
def uni():
    return SlominskiForm("test")


@pytest.fixture
def delta(uni):
    """The D8 snake connecting zigzag: VB -> VB <- GV -> D8 <- GV -> VB."""
    d8 = uni.object_of(dihedral8())
    vobj, iota = uni.subobject_object(d8.sub((0, 2, 4, 6)))
    vb, g = uni.quotient_object(vobj.sub((0, 2)))
    return Zigzag(
        (vb, vb, vobj, d8, vobj, vb),
        (Edge(identity_morphism(vb), RIGHT), Edge(g, LEFT), Edge(iota, RIGHT),
         Edge(iota, LEFT), Edge(g, RIGHT)),
        form=uni,
    )


def test_empty_zigzag_chases_are_identity(uni):
    z4 = uni.object_of(cyclic(4))
    z = Zigzag((z4,), (), form=uni)
    for S in z4.subobjects():
        assert chase_forward(z, S) == S
        assert chase_backward(z, S) == S
    assert is_collapsible(z) and is_subquotient(z)


def test_zigzag_validation(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    with pytest.raises(ValidationError):
        Zigzag((z4, z2), (Edge(q, LEFT),), form=uni)  # wrong direction
    with pytest.raises(ValidationError):
        Zigzag((z4,), (Edge(q, RIGHT),), form=uni)


def test_opposite_involution(uni, delta):
    assert delta.opposite().opposite() == delta


def test_ownership_check(uni, delta):
    with pytest.raises(OwnershipError):
        chase_forward(delta, delta.nodes[2].top)


def test_snake_delta_chases(uni, delta):
    # the homomorphism-induction chases both succeed on the fixture
    assert chase_forward(delta, delta.start.bottom) == delta.end.bottom
    assert chase_backward(delta, delta.end.top) == delta.start.top


def test_chase_trace(uni, delta):
    end, steps = chase_forward(delta, delta.start.bottom, trace=True)
    assert len(steps) == len(delta.edges) + 1
    assert steps[0] == delta.start.bottom and steps[-1] == end
    # derived intermediate: bottom pulls back to B inside V, then lands on B in D8
    assert steps[2].key == (0, 2)
    assert steps[3].key == (0, 4)


def test_vertical_roundtrip_on_subquotients():
    lab = InstanceLab(seed=5)
    done = 0
    while done < 20:
        z = recipe_zigzag(lab, max_len=4)
        if not is_subquotient(z.opposite()):
            continue
        done += 1
        down = z.opposite()  # embeddings point left, so chasing is downward
        for S in down.start.subobjects():
            T = chase_forward(down, S)
            back = chase_backward(down, T)
            assert chase_forward(down, back) == T


def test_is_collapsible_examples(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    allright = Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni)
    assert is_collapsible(allright)
    withleft = Zigzag((z2, z4), (Edge(q, LEFT),), form=uni)
    assert not is_collapsible(withleft)  # q is not injective


def test_collapse_single_edge_and_inverse_pair(uni):
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    single = Zigzag((z4, z4), (Edge(neg, RIGHT),), form=uni)
    assert collapse(single) == neg
    # f then f as a left edge collapses to the identity
    z = Zigzag((z4, z4, z4), (Edge(neg, RIGHT), Edge(neg, LEFT)), form=uni)
    assert collapse(z) == identity_morphism(z4)


def test_collapse_requires_collapsible(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    with pytest.raises(ValidationError):
        collapse(Zigzag((z2, z4), (Edge(q, LEFT),), form=uni))


def test_collapse_opposite_pair_are_inverse_isos(uni):
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    z = Zigzag((z4, z4), (Edge(neg, RIGHT),), form=uni)
    m1, m2 = collapse(z), collapse(z.opposite())
    assert compose(m2, m1) == identity_morphism(z4)
    assert compose(m1, m2) == identity_morphism(z4)


def test_is_subquotient(uni, delta):
    z4 = uni.object_of(cyclic(4))
    q, proj = uni.quotient_object(z4.sub((0, 2)))
    assert is_subquotient(Zigzag((z4, q), (Edge(proj, RIGHT),), form=uni))
    s, incl = uni.subobject_object(z4.sub((0, 2)))
    assert is_subquotient(Zigzag((z4, s), (Edge(incl, LEFT),), form=uni))
    # a non-surjective right edge disqualifies
    up = element_morphism(s, z4, incl.element_map, "m")
    assert not is_subquotient(Zigzag((s, z4), (Edge(up, RIGHT),), form=uni))


def test_induced_relation_examples(uni):
    z4 = uni.object_of(cyclic(4))
    z2 = uni.object_of(cyclic(2))
    q = element_morphism(z4, z2, (0, 1, 0, 1), "q")
    single = Zigzag((z4, z2), (Edge(q, RIGHT),), form=uni)
    assert induced_relation(single) == frozenset({(0, 0), (1, 1), (2, 0), (3, 1)})
    # A ->> Q <<- A composes to the kernel congruence of the projection
    span = Zigzag((z4, z2, z4), (Edge(q, RIGHT), Edge(q, LEFT)), form=uni)
    rel = induced_relation(span)
    assert rel == frozenset({(a, b) for a in range(4) for b in range(4)
                             if (a - b) % 2 == 0})


def test_induced_relation_function_of_delta(uni, delta):
    rel = induced_relation(delta)
    fn = relation_function(rel, delta.start.algebra.n)
    assert fn == (0, 1)  # the identity on V/B, computed elementwise


def test_induced_relation_matches_collapse(uni):
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    z = Zigzag((z4, z4, z4), (Edge(neg, RIGHT), Edge(neg, LEFT)), form=uni)
    assert relation_function(induced_relation(z), 4) == collapse(z).element_map


def test_induced_relation_requires_elements(uni):
    from noetherform.core import Morphism

    z4 = uni.object_of(cyclic(4))
    ident = identity_morphism(z4)
    stripped = Morphism(z4, z4, ident.d, ident.i, name="bare")
    with pytest.raises(UnsupportedFormError):
        induced_relation(Zigzag((z4, z4), (Edge(stripped, RIGHT),), form=uni))


def test_chased_morphism_of_collapsible_equals_collapse(uni, delta):
    assert is_collapsible(delta) is False  # left edges g, iota are not isos
    z4 = uni.object_of(cyclic(4))
    neg = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    z = Zigzag((z4, z4, z4), (Edge(neg, RIGHT), Edge(neg, LEFT)), form=uni)
    assert chased_morphism(z) == collapse(z)


def test_duality_of_chases():
    # forward chasing along the reflected dual zigzag is backward chasing here
    from noetherform.core import Subobject, dualize
    from noetherform.gen import InstanceLab, random_zigzag

    lab = InstanceLab(seed=11)
    dual = dualize(lab.universe)
    for _ in range(15):
        z = random_zigzag(lab, max_len=4)
        zd = dual_zigzag(z, dual).opposite()
        for k in z.end.lattice.keys:
            fwd_dual = chase_forward(zd, Subobject(zd.start, k))
            bwd_prim = chase_backward(z, Subobject(z.end, k))
            assert fwd_dual.key == bwd_prim.key
