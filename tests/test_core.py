"""Core operations: composition, images, predicates, RML, duality.

Expected values below marked as derived were computed by elementwise
enumeration over the Cayley tables before being frozen here.
"""

import functools

import pytest

from noetherform import (
    Morphism,
    SlominskiForm,
    compose,
    direct_image,
    dualize,
    identity_morphism,
    image,
    inverse_image,
    is_injective,
    is_isomorphism,
    is_relatively_normal,
    is_surjective,
    is_zero_morphism,
    join,
    kernel,
    leq,
    meet,
)
from noetherform.core import gather
from noetherform.errors import CompositionError, OwnershipError
from noetherform.groups import D8_B, D8_V, cyclic, dihedral8
from noetherform.slominski import element_morphism, enumerate_homs, subalgebra_lattice
from oracles import factorize


@pytest.fixture
def uni():
    return SlominskiForm("test")


@pytest.fixture
def z4(uni):
    return uni.object_of(cyclic(4))


@pytest.fixture
def z2(uni):
    return uni.object_of(cyclic(2))


@pytest.fixture
def d8(uni):
    return uni.object_of(dihedral8())


def mod2(uni, z4, z2):
    return element_morphism(z4, z2, (0, 1, 0, 1), "mod2")


def test_compose_identity_laws(uni, z4):
    f = element_morphism(z4, z4, (0, 3, 2, 1), "neg")
    assert compose(identity_morphism(z4), f) == f
    assert compose(f, identity_morphism(z4)) == f


def test_compose_chain_elementwise_oracle(uni, z4, z2):
    # oracle: chase {0,2} through x -> x mod 2 -> x elementwise: images {0}
    q = mod2(uni, z4, z2)
    idz2 = identity_morphism(z2)
    comp = compose(idz2, q)
    assert comp.dimg[(0, 2)] == (0,)
    assert comp.element_map == (0, 1, 0, 1)


def test_compose_endpoint_mismatch(uni, z4, z2):
    q = mod2(uni, z4, z2)
    with pytest.raises(CompositionError):
        compose(q, q)


def test_image_maps_are_read_only(uni, z4, z2):
    q = mod2(uni, z4, z2)
    with pytest.raises(TypeError):
        q.dimg[(0, 2)] = (0, 1)
    with pytest.raises(TypeError):
        q.iimg[(0,)] = (0, 1, 2, 3)
    assert Morphism.from_maps(z4, z2, q.dimg, q.iimg) == q


def test_composite_equals_element_morphism_of_composed_table(uni, z4, z2, d8):
    incl = element_morphism(z2, z4, (0, 2), "incl")
    pairs = [(incl, mod2(uni, z4, z2))]
    ends = [uni.morphism(*h) for h in enumerate_homs(dihedral8(), dihedral8())]
    pairs += [(g, f) for g in ends[::7] for f in ends[::5]]
    for g, f in pairs:
        c = compose(g, f)
        e = element_morphism(f.dom, g.cod, tuple(g.element_map[x] for x in f.element_map))
        assert c == e and hash(c) == hash(e) and e in {c}
        assert c.dimg == e.dimg and c.iimg == e.iimg


def test_direct_image_of_identity_is_identity(z4):
    ident = identity_morphism(z4)
    for S in z4.subobjects():
        assert direct_image(ident, S) == S
        assert inverse_image(ident, S) == S


def test_inverse_image_of_top_is_top(uni, z4, z2):
    q = mod2(uni, z4, z2)
    assert inverse_image(q, z2.top) == z4.top


def test_quotient_preimage_of_bottom(uni, z4):
    # oracle: preimage of 0 under mod-{0,2} projection is {0,2} elementwise
    qobj, proj = uni.quotient_object(z4.sub((0, 2)))
    assert inverse_image(proj, qobj.bottom).key == (0, 2)


def test_ownership_errors(uni, z4, z2):
    q = mod2(uni, z4, z2)
    with pytest.raises(OwnershipError):
        direct_image(q, z2.top)
    with pytest.raises(OwnershipError):
        inverse_image(q, z4.top)
    with pytest.raises(OwnershipError):
        join(z4.top, z2.top)


def test_kernel_image_basics(uni, z4, z2):
    assert kernel(identity_morphism(z4)) == z4.bottom
    q = mod2(uni, z4, z2)
    assert kernel(q).key == (0, 2)  # derived: {x : x mod 2 = 0}
    zero = uni.zero_morphism(z4, z2)
    assert image(zero) == z2.bottom
    assert is_zero_morphism(zero)


def test_lattice_ops_on_subobjects(uni, d8):
    S = d8.sub((0, 4))       # {e, b}
    Z = d8.sub((0, 2))       # {e, a2}
    assert join(S, d8.bottom) == S
    assert join(S, S) == S
    # derived: closure of {e,b,a2} under multiplication adds a2b
    assert join(S, Z).key == (0, 2, 4, 6)
    assert meet(S, Z) == d8.bottom
    assert d8.bottom.key == (0,)
    assert d8.top.key == tuple(range(8))


def test_join_against_bruteforce_oracle(uni, d8):
    # independent oracle: smallest subgroup (by subset scan) containing both
    alg = d8.algebra
    keys = subalgebra_lattice(alg).keys
    subs = [set(s) for s in keys]
    import itertools

    for a, b in itertools.combinations(keys, 2):
        want = min((s for s in subs if set(a) | set(b) <= s), key=len)
        got = join(d8.sub(a), d8.sub(b))
        assert set(got.key) == want


def test_predicates(uni, z4, z2):
    q = mod2(uni, z4, z2)
    assert is_surjective(q)
    assert not is_injective(q)
    assert is_isomorphism(identity_morphism(z4))
    emb = uni.embedding_of(z4.sub((0, 2)))
    assert is_injective(emb)
    assert image(emb).key == (0, 2)
    assert kernel(emb) == emb.dom.bottom


def test_embedding_of_top_and_projection_of_bottom_are_isos(uni, d8):
    assert is_isomorphism(uni.embedding_of(d8.top))
    assert is_isomorphism(uni.projection_of(d8.bottom))


def test_factorize_identity_and_zero(uni, z4, z2):
    assert all(map(is_isomorphism, factorize(uni, identity_morphism(z4))))
    zero = uni.zero_morphism(z4, z2)
    e, h, m = factorize(uni, zero)
    assert kernel(e) == z4.top
    assert image(m) == z2.bottom
    assert compose(m, compose(h, e)) == zero


def test_factorize_mod2(uni, z4, z2):
    q = mod2(uni, z4, z2)
    e, h, m = factorize(uni, q)
    composite = compose(m, compose(h, e))
    # the element maps compose too: h is m^-1 . q . e^-1 on elements
    assert composite == q and composite.element_map == q.element_map
    assert is_surjective(e) and is_isomorphism(h) and is_injective(m)
    assert e.cod.order == 2
    assert kernel(e).key == (0, 2)


def test_unique_decomposition_connecting_iso(uni, z4, z2):
    # two (projection, embedding) splits of mod2 are linked by an iso making
    # the triangle commute; the iso is induced by the span zigzag
    from noetherform.pyramid import decide_induction
    from noetherform.zigzag import Edge, LEFT, RIGHT, Zigzag

    q = mod2(uni, z4, z2)
    m1 = uni.subobject_object(image(q))[1]
    e1 = uni.mediating_embedding(q, m1)
    e, h, m2 = factorize(uni, q)
    e2 = compose(h, e)
    assert compose(m1, e1) == q and compose(m2, e2) == q
    z = Zigzag((e1.cod, z4, e2.cod), (Edge(e1, LEFT), Edge(e2, RIGHT)), form=uni)
    verdict = decide_induction(z)
    assert verdict.induces
    i = verdict.morphism
    assert is_isomorphism(i)
    assert compose(i, e1) == e2
    assert compose(m2, i) == m1


def rml_sides(X, Y, Z):
    """Both sides of the restricted modular law X v (Y ^ Z) = (X v Y) ^ Z."""
    return join(X, meet(Y, Z)), meet(join(X, Y), Z)


def test_rml_trivial_and_d8(uni, d8):
    X = d8.sub((0, 2))
    Y = d8.sub((0, 2))          # normal (the center)
    Z = d8.sub((0, 2, 4, 6))    # conormal
    assert leq(X, Z) and uni.is_normal(Y) and uni.is_conormal(Z)
    lhs, rhs = rml_sides(X, Y, Z)
    assert lhs == rhs
    # X = bottom reduces to Y ^ Z = Y ^ Z
    lhs, rhs = rml_sides(d8.bottom, Y, Z)
    assert lhs == rhs == meet(Y, Z)


def test_rml_hypotheses_unmet_flag(uni, d8):
    # X not below Z: the law fails, so X <= Z is needed
    X = d8.sub((0, 1, 2, 3))
    Z = d8.sub((0, 4))
    assert not leq(X, Z)
    lhs, rhs = rml_sides(X, d8.sub((0, 2)), Z)
    assert (lhs, rhs) == (X, d8.bottom)


def test_relative_normality_d8(uni, d8):
    B = d8.sub(D8_B)
    V = d8.sub(D8_V)
    assert is_relatively_normal(uni, B, V)          # B normal in V
    assert not is_relatively_normal(uni, B, d8.top) # but not in D8
    assert not is_relatively_normal(uni, d8.top, B) # containment fails


def test_is_normal_examples(uni, d8):
    assert not uni.is_normal(d8.sub(D8_B))
    assert uni.is_normal(d8.sub(D8_V))
    assert uni.is_conormal(d8.sub(D8_B))


def test_dualize_involution_and_kernel_image_swap():
    from noetherform.slominski import as_form

    g = cyclic(4)
    form = as_form([g], enumerate_homs(g, g), name="Z4")
    dual = dualize(form)
    assert dualize(dual) is form
    for m, md in zip(form.morphisms, dual.morphisms):
        assert kernel(md).key == image(m).key
        assert image(md).key == kernel(m).key
        # normal and conormal swap across the duality
        S = m.dom.sub(kernel(m).key)
        Sd = md.cod.sub(kernel(m).key)
        assert form.is_normal(S) == dual.is_conormal(Sd)


def test_dual_morphism_roundtrip():
    from noetherform.slominski import as_form

    g = cyclic(2)
    form = as_form([g], enumerate_homs(g, g), name="Z2")
    dual = dualize(form)
    for m, declared in zip(form.morphisms, dual.morphisms):
        md = m.dual()
        assert md is declared
        assert md.dual() is m
        assert md.dimg == m.iimg and md.iimg == m.dimg


@pytest.mark.parametrize("group", [cyclic(2), dihedral8()], ids=["Z2", "D8"])
def test_duals_and_opposites_are_involutions(group):
    # the values hold their duals and opposites, linked both ways; the dual
    # form is a view over them and keeps nothing else
    from noetherform.gen import InstanceLab, random_zigzag
    from noetherform.slominski import as_form

    form = as_form([group], enumerate_homs(group, group), name="End")
    dual = dualize(form)
    assert sorted(vars(dual)) == ["morphisms", "name", "objects", "primal"]
    for X in form.objects.values():
        assert X.dual.dual is X and dual.objects[X.id] is X.dual
        for S in X.subobjects():
            assert S.dual.dual == S and S.dual.owner is X.dual
    for k, m in enumerate(form.morphisms):
        assert dual.morphisms[k] is m.dual()
        assert m.dual().dual() is m
    lab = InstanceLab(seed=7)
    for _ in range(20):
        z = random_zigzag(lab, max_len=4)
        assert z.opposite().opposite() is z


# ---------------------------------------------------------------------------
# closure from generators: first_uncomposed names the pair that the ordered
# pairwise scan names, with at most |items|^2 composites


def _image_key(m):
    return (m.dom.id, m.cod.id, m.d, m.i)


def _element_key(m):
    return (m.dom.id, m.cod.id, m.element_map)


def _ordered_scan(items, key, compose_key):
    declared = {key(m) for m in items}
    for g in items:
        for f in items:
            if f.cod.id == g.dom.id and compose_key(g, f) not in declared:
                return g, f
    return None


def _counted(key):
    calls = [0]

    def compose_key(g, f):
        calls[0] += 1
        return key(compose(g, f))

    return compose_key, calls


def _closure_cases():
    """Drop-one and drop-two subsets of End(G) for |G| <= 4 and of the
    closed two-object form over Z4 and E4, each with its dual, whose
    morphisms have image tables only."""
    from itertools import combinations

    from noetherform.groups import cyclic, klein4, trivial_group
    from noetherform.slominski import SlominskiForm, as_form, close_homs, enumerate_homs

    z4, e4 = cyclic(4), klein4()
    forms = [as_form([a], enumerate_homs(a, a), name=a.name)
             for a in (trivial_group(), cyclic(2), cyclic(3), z4, e4)]
    pairs = [enumerate_homs(a, b) for a in (z4, e4) for b in (z4, e4)]
    both = SlominskiForm("Z4+E4")
    named = [both.morphism(*h) for p in pairs for h in p]
    both.declare([z4, e4], close_homs(both, [z4, e4], named))
    forms.append(both)
    for form in forms:
        for side in (form, dualize(form)):
            mors = list(side.morphisms)
            keys = (_image_key, _element_key) if side is form else (_image_key,)
            for r in range(3):
                for dropped in combinations(range(len(mors)), r):
                    items = [m for n, m in enumerate(mors) if n not in dropped]
                    for key in keys:
                        yield f"{side.name} without {dropped} by {key.__name__}", items, key


def test_first_uncomposed_names_the_first_pair_of_the_ordered_scan():
    from noetherform.core import first_uncomposed

    cases = gaps = 0
    for label, items, key in _closure_cases():
        compose_key, calls = _counted(key)
        got = first_uncomposed(items, key, compose_key)
        want = _ordered_scan(items, key, lambda g, f: key(compose(g, f)))
        if want is None:
            assert got is None, label
        else:
            assert got is not None and got[0] is want[0] and got[1] is want[1], label
        assert calls[0] <= len(items) ** 2, (label, calls[0])
        cases += 1
        gaps += want is not None
    assert cases == 1704 and 0 < gaps < cases


def test_first_uncomposed_on_end_e8_takes_few_composites():
    # GL(3,2) has two generators, and one non-injective map reaches the rest
    # of End(E8): 3 generators x 512 products, whatever the carrier's labels
    from noetherform.core import first_uncomposed
    from noetherform.groups import xor_group
    from noetherform.slominski import as_form, enumerate_homs, permuted

    e8 = xor_group(3)
    for alg in (e8, permuted(e8, (0, 5, 3, 6, 1, 4, 2, 7)),
                permuted(e8, (3, 7, 0, 1, 6, 2, 5, 4)), permuted(e8, (6, 0, 4, 2, 7, 1, 3, 5))):
        mors = as_form([alg], enumerate_homs(alg, alg)).morphisms
        assert len(mors) == 512
        for key in (_image_key, _element_key):
            compose_key, calls = _counted(key)
            assert first_uncomposed(mors, key, compose_key) is None
            assert calls[0] == 1_536, (alg.zero, key.__name__, calls[0])


def test_first_uncomposed_on_multi_object_forms_beats_rank_alone():
    # only automorphisms trade places by the subobjects they fix, so maps
    # between two objects keep their declared places; the walks by image key,
    # by element key and by image key in the dual, each against the count
    # when items were tried by rank alone (E4' is E4 relabelled, so two
    # objects with isomorphisms between them)
    from noetherform.core import first_uncomposed
    from noetherform.groups import klein4
    from noetherform.slominski import close_homs, permuted

    z2, z4, e4 = cyclic(2), cyclic(4), klein4()
    by_rank_alone = {"Z4+E4": (121, 132, 121), "Z4+E4+Z2": (204, 218, 204),
                     "E4+E4'": (224, 224, 224), "Z2+E4+Z4+Z2'": (194, 208, 194)}
    got = {}
    for algs in ([z4, e4], [z4, e4, z2], [e4, permuted(e4, (0, 2, 3, 1), name="E4'")],
                 [z2, e4, z4, permuted(z2, (0, 1), name="Z2'")]):
        form = SlominskiForm("+".join(a.name for a in algs))
        named = [form.morphism(*h) for a in algs for b in algs for h in enumerate_homs(a, b)]
        form.declare(algs, close_homs(form, algs, named))
        counts = []
        for side, key in ((form, _image_key), (form, _element_key), (dualize(form), _image_key)):
            compose_key, calls = _counted(key)
            assert first_uncomposed(side.morphisms, key, compose_key) is None
            counts.append(calls[0])
        got[form.name] = tuple(counts)
    assert got == {"Z4+E4": (101, 112, 101), "Z4+E4+Z2": (172, 186, 172),
                   "E4+E4'": (160, 160, 160), "Z2+E4+Z4+Z2'": (146, 160, 146)}
    assert all(n <= m for name in got for n, m in zip(got[name], by_rank_alone[name]))


def test_check_a_decides_the_same_from_the_combined_walk():
    # where every morphism has an element table, check A passes from a closed
    # combined walk and otherwise walks the image keys itself: the verdict
    # and witness are those of A's own walk either way
    from noetherform.axioms import _closure_failures, _combined_walk, _first_fail

    cases = shortcuts = fallbacks = 0
    for label, items, key in _closure_cases():
        if key is not _image_key or not items or any(m.element_map is None for m in items):
            continue
        walk = _combined_walk(items)
        own = _first_fail(_closure_failures(items, None))[0]
        assert _first_fail(_closure_failures(items, walk))[0] == own, label
        shortcuts += walk[0] is None
        fallbacks += walk[0] is not None and own is None
        cases += 1
    assert (cases, shortcuts, fallbacks) == (566, 19, 5)


def test_gather_reads_a_table_at_no_one_or_several_positions():
    # several positions go through one itemgetter; none and one, for which
    # itemgetter raises or gives a scalar, through a list
    for table in ((10, 11, 12, 13), [10, 11, 12, 13]):
        assert gather(table, ()) == ()
        assert gather(table, (2,)) == (12,)
        assert gather(table, [3, 0, 0]) == (13, 10, 10)
        assert gather(table, (1, 2, 3, 0)) == (11, 12, 13, 10)


# ---------------------------------------------------------------------------
# the image predicates read positions off the image tables; on every
# morphism of each form they must agree with their definitions by subobjects


@functools.lru_cache(maxsize=None)
def _predicate_form(name):
    """End(E8), End(D8) or tiny_form.nf's data form, by name."""
    from importlib import resources

    from noetherform.groups import xor_group
    from noetherform.parser import parse
    from noetherform.slominski import as_form

    if name == "tinyform":
        path = resources.files("noetherform") / "fixtures" / "tiny_form.nf"
        return parse(path.read_text(encoding="utf-8")).data_form(name)
    alg = {"E8": xor_group(3), "D8": dihedral8()}[name]
    return as_form([alg], enumerate_homs(alg, alg), name=name)


@pytest.mark.parametrize("name", ["E8", "D8", "tinyform"])
@pytest.mark.parametrize("side", ["primal", "dual"])
def test_position_predicates_agree_with_their_subobject_definitions(name, side):
    from noetherform.diagram import is_exact_at

    form = _predicate_form(name)
    mors = (form if side == "primal" else dualize(form)).morphisms
    for f in mors:
        ker, im = kernel(f), image(f)
        assert ker == inverse_image(f, f.cod.bottom)
        assert im == direct_image(f, f.dom.top)
        assert is_injective(f) == (ker == f.dom.bottom), f
        assert is_surjective(f) == (im == f.cod.top), f
        assert is_zero_morphism(f) == (im == f.cod.bottom), f
        assert is_isomorphism(f) == (ker == f.dom.bottom and im == f.cod.top), f
    # exactness reads Im f and Ker g only: every f against one g of each
    # kernel, and one f of each image against every g
    by_kernel = {kernel(g): g for g in mors}
    by_image = {image(f): f for f in mors}
    pairs = [(f, g) for f in mors for g in by_kernel.values()]
    pairs += [(f, g) for f in by_image.values() for g in mors]
    for f, g in pairs:
        if f.cod.id == g.dom.id:
            assert is_exact_at(f, g) == (image(f) == kernel(g)), (f, g)
