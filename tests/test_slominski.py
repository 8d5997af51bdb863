"""Slominski algebras: identities, subalgebras, congruences, quotients, homs."""

import gc
import itertools
import random
import types
import weakref
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noetherform.lattice as lattice
import noetherform.slominski as slominski
from noetherform.core import FormObject, Subobject, compose, dualize, element_key
from noetherform.errors import (ClosureError, LatticeError, UnsupportedSubobjectError,
                                ValidationError)
from noetherform.gen import InstanceLab, extend_homs
from noetherform.groups import (
    D8_B,
    D8_V,
    all_groups_le8,
    cyclic,
    cyclic_data,
    dihedral8,
    dihedral_data,
    product_data,
    quaternion8,
    quaternion_data,
    symmetric3,
    trivial_group,
    xor_group,
)
from noetherform.lattice import _converse, elements_of
from noetherform.slominski import (
    SlominskiAlgebra,
    SlominskiForm,
    as_form,
    check_hom,
    close_homs,
    close_mask,
    element_morphism,
    enumerate_homs,
    from_group,
    generate_congruence,
    hom_tables,
    is_normal_subalgebra,
    is_subalgebra,
    permuted,
    quotient,
    subalgebra_algebra,
    subalgebra_lattice,
    subalgebra_masks,
)

SMALL = [trivial_group(), cyclic(2), cyclic(3), cyclic(4), xor_group(2), symmetric3()]


def test_from_group_z2_xor():
    z2 = cyclic(2)
    assert z2.p == ((0, 1), (1, 0))
    assert z2.d == z2.p  # every element self-inverse


def test_from_group_z4_subtraction():
    z4 = cyclic(4)
    assert z4.d[1][3] == 2  # 1 - 3 mod 4


def test_from_group_rejects_non_group():
    bad = ((0, 1), (1, 1))
    with pytest.raises(ValidationError):
        from_group(bad, (0, 1), 0, name="bad")


def test_d8_presentation_order():
    d8 = dihedral8()
    # b*a = a^3*b with the fixed element order e,a,a2,a3,b,ab,a2b,a3b
    assert d8.p[4][1] == 7
    assert d8.n == 8


@pytest.mark.parametrize("alg", all_groups_le8(), ids=lambda a: a.name)
def test_defining_identities_and_xeqy(alg):
    for x in range(alg.n):
        assert alg.d[x][x] == alg.zero
        for y in range(alg.n):
            assert alg.p[alg.d[x][y]][y] == x
            # derived consequence: d(x,y) = 0 iff x = y
            assert (alg.d[x][y] == alg.zero) == (x == y)


def brute_subalgebras(alg):
    subs = []
    for mask in range(1 << alg.n):
        elems = [e for e in range(alg.n) if (mask >> e) & 1]
        if alg.zero not in elems:
            continue
        if all(alg.p[x][y] in elems and alg.d[x][y] in elems
               for x in elems for y in elems):
            subs.append(tuple(elems))
    return sorted(subs, key=lambda s: (len(s), s))


@pytest.mark.parametrize("alg", SMALL + [dihedral8(), quaternion8()], ids=lambda a: a.name)
def test_subalgebras_against_bruteforce(alg):
    keys = subalgebra_lattice(alg).keys
    assert sorted(keys, key=lambda s: (len(s), s)) == brute_subalgebras(alg)


def test_subalgebra_counts():
    assert subalgebra_lattice(cyclic(4)).keys == ((0,), (0, 2), (0, 1, 2, 3))
    assert len(subalgebra_lattice(dihedral8()).keys) == 10   # the ten subgroups of D8
    assert len(subalgebra_lattice(trivial_group()).keys) == 1


def test_generate_congruence_examples():
    z4 = cyclic(4)
    assert generate_congruence(z4, []).classes == ((0,), (1,), (2,), (3,))
    cong = generate_congruence(z4, [(2, 0)])
    assert cong.classes == ((0, 2), (1, 3))  # derived by hand fixpoint
    refl = generate_congruence(z4, [(1, 1), (3, 3)])
    assert refl.classes == ((0,), (1,), (2,), (3,))


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_congruence_is_compatible_partition(alg, data):
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, alg.n - 1), st.integers(0, alg.n - 1)),
                 max_size=3)
    )
    cong = generate_congruence(alg, pairs)
    assert sorted(x for c in cong.classes for x in c) == list(range(alg.n))
    cls = {x: i for i, c in enumerate(cong.classes) for x in c}
    for (x1, c1) in cls.items():
        for (x2, c2) in cls.items():
            for (y1, y2) in itertools.product(range(alg.n), repeat=2):
                if cls[y1] != cls[y2]:
                    continue
                assert cls[alg.p[x1][y1]] == cls[alg.p[x1][y2]]
    for a, b in pairs:
        assert cls[a] == cls[b]


def test_is_normal_subalgebra_d8():
    d8 = dihedral8()
    assert not is_normal_subalgebra(d8, D8_B)
    assert is_normal_subalgebra(d8, D8_V)
    assert is_normal_subalgebra(d8, (0,))
    v, incl = subalgebra_algebra(d8, D8_V)
    b_in_v = tuple(i for i, e in enumerate(incl) if e in D8_B)
    assert is_normal_subalgebra(v, b_in_v)


def test_is_normal_rejects_non_subalgebra():
    with pytest.raises(ValidationError):
        is_normal_subalgebra(cyclic(4), (0, 1))


def test_quotient_z4_and_trivial():
    z4 = cyclic(4)
    q, proj = quotient(z4, (0, 2))
    assert q.n == 2
    assert proj == (0, 1, 0, 1)
    # kernel of the projection is exactly the subalgebra
    assert tuple(x for x in range(4) if proj[x] == q.zero) == (0, 2)
    q0, proj0 = quotient(z4, (0,))
    assert q0.n == 4 and sorted(proj0) == [0, 1, 2, 3]


def test_quotient_d8_by_v():
    q, _ = quotient(dihedral8(), D8_V)
    assert q.n == 2


def test_quotient_requires_normal():
    with pytest.raises(UnsupportedSubobjectError):
        quotient(dihedral8(), D8_B)


def test_form_names_the_subobject_it_cannot_quotient_by():
    # as DataForm does, the Slominski form and its dual raise with the
    # Subobject itself, not its element tuple
    form = SlominskiForm()
    S = form.object_of(symmetric3()).sub((0, 3))
    for attempt in (lambda: form.projection_of(S),
                    lambda: dualize(form).embedding_of(S.dual)):
        with pytest.raises(UnsupportedSubobjectError) as err:
            attempt()
        assert err.value.subobject == S
        assert err.value.subobject.owner is S.owner


def is_hom_table(A, B, table):
    # the oracle of brute_homs and of validate: p and d checked independently
    for x in range(A.n):
        fx = table[x]
        for y in range(A.n):
            fy = table[y]
            if table[A.p[x][y]] != B.p[fx][fy] or table[A.d[x][y]] != B.d[fx][fy]:
                return False
    return True


def brute_homs(A, B):
    # itertools.product runs through the tables in lexicographic order
    out = []
    for table in itertools.product(range(B.n), repeat=A.n):
        if table[A.zero] != B.zero:
            continue
        if is_hom_table(A, B, table):
            out.append(table)
    return out


@pytest.mark.parametrize(
    "a,b",
    [(cyclic(2), cyclic(2)), (cyclic(4), cyclic(2)), (cyclic(2), cyclic(4)),
     (symmetric3(), cyclic(2)), (xor_group(2), xor_group(2))],
    ids=lambda g: g.name,
)
def test_enumerate_homs_against_bruteforce(a, b):
    assert [t for _, _, t in enumerate_homs(a, b)] == brute_homs(a, b)


def from_permutations(name, sigmas):
    # p(x, y) = sigmas[y][x] and d(-, y) its inverse: a Slominski algebra
    # when sigmas[y][0] == y, and in general not a group
    n = len(sigmas)
    inv = [{v: x for x, v in enumerate(s)} for s in sigmas]
    p = tuple(tuple(sigmas[y][x] for y in range(n)) for x in range(n))
    d = tuple(tuple(inv[y][x] for y in range(n)) for x in range(n))
    alg = SlominskiAlgebra(name, 0, p, d)
    alg.validate()
    return alg


# two non-associative Slominski algebras, with homs between them
T3 = from_permutations("T3", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
T4 = from_permutations("T4", [(0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)])
# non-associative; extending its subalgebra {0, 2} by {0, 1} must take the
# pair (2, 1), the old element first: p(2, 1) = d(2, 1) = 3
U4 = from_permutations("U4", [(0, 1, 2, 3), (1, 0, 3, 2), (2, 1, 0, 3), (3, 1, 0, 2)])

LE4 = [trivial_group(), cyclic(2), cyclic(3), cyclic(4), xor_group(2)]
HOM_PAIRS = list(itertools.product(LE4, repeat=2)) + [
    (xor_group(2), xor_group(3)), (symmetric3(), cyclic(6)),
    (T3, T3), (T3, T4), (T4, T4), (xor_group(2), T4)]


@pytest.mark.parametrize("a,b", HOM_PAIRS, ids=lambda g: g.name)
def test_hom_tables_forced_against_bruteforce(a, b):
    # every partial map on at most two elements, consistent or not, defined
    # on a subalgebra or not, including values at 0 other than 0
    brute = brute_homs(a, b)
    assert hom_tables(a, b) == brute
    for size in (1, 2):
        for dom in itertools.combinations(range(a.n), size):
            for vals in itertools.product(range(b.n), repeat=size):
                forced = dict(zip(dom, vals))
                want = [t for t in brute if all(t[x] == v for x, v in forced.items())]
                assert hom_tables(a, b, forced) == want, forced


def test_hom_tables_forced_edge_cases():
    z4, z2, e4 = cyclic(4), cyclic(2), xor_group(2)
    assert hom_tables(z4, z2, {0: 1}) == []          # clashes with 0 |-> 0
    assert hom_tables(z4, z4, {1: 1, 2: 0}) == []    # 1+1 = 2 is forced to 2
    assert hom_tables(z4, z2, {1: 1, 3: 0}) == []    # 3 = -1 must go to -1 = 1
    # {1} is not a subalgebra of Z4; its closure is all of Z4
    assert hom_tables(z4, z4, {1: 3}) == [(0, 3, 2, 1)]
    # {1, 2} is not a subalgebra of E4; 3 = 1 xor 2 is determined
    assert hom_tables(e4, e4, {1: 2, 2: 3}) == [(0, 2, 3, 1)]


def test_extend_homs_does_not_depend_on_the_order_of_forced():
    z4, z2, e8 = cyclic(4), cyclic(2), xor_group(3)
    for a, b, forced in ((e8, e8, {1: 3, 2: 5}),      # 8 extensions
                         (z4, z4, {2: 2, 3: 1}),      # one
                         (z4, z2, {1: 1, 3: 0})):     # a clash: none
        backward = dict(reversed(forced.items()))
        assert list(forced) != list(backward)
        want = tuple(hom_tables(a, b, forced))
        assert extend_homs(a, b, forced) == extend_homs(a, b, backward) == want
    assert len(extend_homs(e8, e8, {1: 3, 2: 5})) == 8
    assert extend_homs(z4, z2, {3: 0, 1: 1}) == ()


def test_element_morphism_shares_image_tables_but_not_names():
    uni = SlominskiForm()
    z4, z2 = uni.object_of(cyclic(4)), uni.object_of(cyclic(2))
    f = element_morphism(z4, z2, [0, 1, 0, 1], "f")
    g = element_morphism(z4, z2, (0, 1, 0, 1), "g")
    assert (f.d, f.i) == (g.d, g.i)
    assert (f.name, g.name) == ("f", "g")
    assert f.element_map == (0, 1, 0, 1) and isinstance(f.element_map, tuple)
    # not a hom: {0, 3}, the inverse image of {0}, is no subgroup of Z4;
    # the error is raised again, not remembered as an answer
    for _ in range(2):
        with pytest.raises(LatticeError) as err:
            element_morphism(z4, z2, (0, 1, 1, 0), "bad")
        assert str(err.value) == "mask 0b1001 is not a subobject"


def test_element_morphism_rejects_a_table_off_the_carriers():
    # a negative value would otherwise read a fibre from the end of the list
    uni = SlominskiForm()
    z4, z2 = uni.object_of(cyclic(4)), uni.object_of(cyclic(2))
    for table in ((0, -1, 0, -1), (0, 2, 0, 2), (0, 1, 0), (0, 1, 0, 1, 0)):
        with pytest.raises(ValidationError, match="bad: table does not match carriers"):
            element_morphism(z4, z2, table, "bad")


def image_tables_by_elements(A, B, f):
    """Morphism.d and .i of the table f from element sets alone: the
    position of the set of images of each key of A, and of the set of
    elements of A sent into each key of B."""
    d = tuple(B.lattice.index[tuple(sorted({f[x] for x in key}))] for key in A.lattice.keys)
    i = tuple(A.lattice.index[tuple(x for x in range(A.algebra.n) if f[x] in key)]
              for key in B.lattice.keys)
    return d, i


def test_image_tables_against_element_sets():
    # every hom table among the groups of order <= 8 and the sub and
    # quotient objects of D8, Q8 and E8 (one of each algebra), |A| |B| <= 64
    form = SlominskiForm()
    groups = [form.object_of(g) for g in all_groups_le8()]
    derived = {}
    for G in groups:
        if G.id in ("D8", "Q8", "E8"):
            for key in G.lattice.keys:
                S = Subobject(G, key)
                made = [form.subobject_object(S)[0]]
                if is_normal_subalgebra(G.algebra, key):
                    made.append(form.quotient_object(S)[0])
                for obj in made:
                    alg = obj.algebra
                    derived.setdefault((alg.zero, alg.p, alg.d), obj)
    objs = groups + list(derived.values())
    checked = 0
    for A, B in itertools.product(objs, repeat=2):
        if A.algebra.n * B.algebra.n <= 64:
            for f in hom_tables(A.algebra, B.algebra):
                m = element_morphism(A, B, f)
                assert (m.d, m.i) == image_tables_by_elements(A, B, f), (A.id, B.id, f)
                checked += 1
    assert (len(groups), len(derived), checked) == (14, 8, 6075)


def _inverse_images_by_fibres(A, B, f):
    """Morphism.i of the table f as unions of fibres: the position of the
    set of elements of A that f sends to some element of each key of B."""
    fibres = [[] for _ in range(B.algebra.n)]
    for x, y in enumerate(f):
        fibres[y].append(x)
    return tuple(A.lattice.index[tuple(sorted(itertools.chain.from_iterable(
        map(fibres.__getitem__, key))))] for key in B.lattice.keys)


def test_inverse_images_are_unions_of_fibres():
    # every hom between these pairs, among them the interval lattices of
    # the sub and quotient objects of D8 and E8
    form = SlominskiForm()
    d8, e8, q8 = (form.object_of(g) for g in (dihedral8(), xor_group(3), quaternion8()))
    sub = form.subobject_object(Subobject(d8, D8_V))[0]
    quot = form.quotient_object(Subobject(d8, D8_V))[0]
    e4 = form.quotient_object(Subobject(e8, (0, 1)))[0]
    pairs = [(e8, e8), (d8, d8), (q8, d8), (d8, quot), (quot, d8), (sub, d8), (d8, sub),
             (e8, e4), (e4, e8), (sub, quot)]
    checked = 0
    for A, B in pairs:
        for f in hom_tables(A.algebra, B.algebra):
            want = _inverse_images_by_fibres(A, B, f)
            assert element_morphism(A, B, f).i == want, (A.id, B.id, f)
            checked += 1
    assert checked == 512 + 36 + 28 + 4 + 6 + 28 + 16 + 64 + 64 + 4


def _z257():
    """Z257 built by hand: its two subgroups are the only keys of a
    two-key MaskLattice, so nothing closes a 257-element carrier."""
    n = 257
    add = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    sub = tuple(tuple((x - y) % n for y in range(n)) for x in range(n))
    alg = SlominskiAlgebra("Z257", 0, add, sub)
    everything = (1 << n) - 1
    lat = lattice.MaskLattice(n, (1, everything))
    return FormObject("Z257", lat, algebra=alg)


def test_inverse_images_of_a_codomain_of_more_than_256_elements():
    # a codomain carrier of 257 elements is out of reach of one byte per
    # element, so its inverse images are unions of fibres; into a small
    # codomain they are read as membership bytes of a 257-element domain
    z = _z257()
    one, z2 = (SlominskiForm().object_of(g) for g in (trivial_group(), cyclic(2)))
    for A, B, f, d in ((z, z, tuple(3 * x % 257 for x in range(257)), (0, 1)),
                       (z, z, (0,) * 257, (0, 0)), (one, z, (0,), (0,)),
                       (z, one, (0,) * 257, (0, 0))):
        m = element_morphism(A, B, f)
        assert (m.d, m.i) == (d, _inverse_images_by_fibres(A, B, f)), (A.id, B.id, f[:3])
    # tables that are no homs, by either route: the inverse image of {0}
    # is every element but 1
    for B in (z, z2):
        with pytest.raises(LatticeError) as err:
            element_morphism(z, B, (0, 1) + (0,) * 255, "bad")
        assert str(err.value) == f"mask {bin((1 << 257) - 1 - 2)} is not a subobject"


def test_as_form_takes_no_image_by_mask_of(monkeypatch):
    # End(E8) of a fresh copy: 512 homs, each with 16 direct and 16 inverse
    # images, none looked up through mask_of; the lattice is built first,
    # since enumerating subalgebras does use masks
    e8 = permuted(xor_group(3), (0, 5, 3, 6, 1, 4, 2, 7), name="E8 relabelled")
    homs = enumerate_homs(e8, e8)
    lat = subalgebra_lattice(e8)
    assert not lat.image_tables
    calls, real = [], lattice.mask_of

    def counting(elements):
        calls.append(elements)
        return real(elements)

    monkeypatch.setattr(lattice, "mask_of", counting)
    monkeypatch.setattr(slominski, "mask_of", counting)
    form = as_form([e8], homs)
    assert len(form.morphisms) == len(lat.image_tables[lat]) == 512
    assert calls == []


def test_algebra_hash_matches_fieldwise_equality():
    a = from_group(*dihedral_data(4), name="D8 twice")
    b = from_group(*dihedral_data(4), name="D8 twice")
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    assert a != SlominskiAlgebra("D8 renamed", a.zero, a.p, a.d)
    with pytest.raises(AttributeError):
        a.zero = 1


def test_hom_counts_order_16():
    z4z4 = from_group(*product_data(cyclic_data(4), cyclic_data(4)), name="Z4xZ4")
    d16 = from_group(*dihedral_data(8), name="D16")
    # End(Z4 x Z4) = M_2(Z4); End(D16) = 32 automorphisms + 0 + 27 homs
    # with image of order 2 + 24 with Klein image; Hom(E16, E8) = 8^4
    assert len(enumerate_homs(z4z4, z4z4)) == 256
    assert len(enumerate_homs(d16, d16)) == 100
    assert len(hom_tables(xor_group(4), xor_group(3))) == 8 ** 4


def test_enumerate_homs_counts():
    assert len(enumerate_homs(cyclic(2), cyclic(2))) == 2
    assert len(enumerate_homs(cyclic(4), cyclic(2))) == 2
    assert len(enumerate_homs(cyclic(4), trivial_group())) == 1
    assert len(enumerate_homs(dihedral8(), dihedral8())) == 36


def test_hom_validate_rejects_non_hom():
    z4, z2 = cyclic(4), cyclic(2)
    with pytest.raises(ValidationError):
        check_hom(z4, z2, (0, 1, 1, 0), name="bad")


def _with_d_entry(alg, x, y, value):
    """alg with d(x, y) replaced by value, not validated."""
    d = [list(row) for row in alg.d]
    d[x][y] = value
    return SlominskiAlgebra(alg.name + "'", alg.zero, alg.p, tuple(map(tuple, d)))


def _first_incompatible(A, B, table):
    """check_hom's message by the pairwise definition, x-major."""
    for x in range(A.n):
        for y in range(A.n):
            if table[A.d[x][y]] != B.d[table[x]][table[y]]:
                return f"hom bad: not compatible at ({x},{y})"
    return None


@pytest.mark.parametrize("alg, table, u, v, at", [
    (dihedral8(), tuple(range(8)), 7, 6, "(7,6)"),
    (dihedral8(), tuple(range(8)), 6, 7, "(6,7)"),
    (dihedral8(), tuple(range(8)), 7, 0, "(7,0)"),
    (xor_group(3), (0, 1, 2, 3, 0, 1, 2, 3), 3, 3, "(3,3)"),
    (trivial_group(), (0,), 0, 0, "(0,0)"),
], ids=["D8-late-row-late-column", "D8-late-column", "D8-late-row", "E8-folded",
        "one-element-domain"])
def test_hom_validate_names_the_first_incompatible_pair(alg, table, u, v, at):
    # the codomain's d is corrupted at (u, v) only, so the rows before the
    # first x with f(x) = u hold, and that row fails at the first y with
    # f(y) = v; a one-element domain (into a corrupted Z2) compares one
    # scalar a side
    cod = cyclic(2) if alg.n == 1 else alg
    bad = _with_d_entry(cod, u, v, (cod.d[u][v] + 1) % cod.n)
    with pytest.raises(ValidationError) as err:
        check_hom(alg, bad, table, name="bad")
    assert str(err.value) == f"hom bad: not compatible at {at}" == _first_incompatible(
        alg, bad, table)
    check_hom(alg, cod, table)


def test_hom_validate_on_carriers_of_more_than_256_elements():
    # out of reach of one byte per element, so checked pair by pair
    z = _z257().algebra
    triple = tuple(3 * x % 257 for x in range(257))
    check_hom(z, z, triple)
    check_hom(trivial_group(), z, (0,))
    check_hom(z, trivial_group(), (0,) * 257)
    bad = _with_d_entry(z, 256, 255, 0)
    with pytest.raises(ValidationError) as err:
        check_hom(z, bad, triple, name="bad")
    # 3 * 171 = 256 and 3 * 85 = 255 (mod 257)
    assert str(err.value) == "hom bad: not compatible at (171,85)" == _first_incompatible(
        z, bad, triple)


def test_hom_validate_accepts_exactly_the_oracles_tables():
    # check_hom checks 0 and d only; every table between these algebras,
    # groups and non-associative ones, is judged as the oracle judges it
    accepted = 0
    for a, b in itertools.product(LE4 + [T3, T4, U4], repeat=2):
        for table in itertools.product(range(b.n), repeat=a.n):
            want = table[a.zero] == b.zero and is_hom_table(a, b, table)
            try:
                check_hom(a, b, table)
            except ValidationError:
                assert not want, (a.name, b.name, table)
            else:
                assert want, (a.name, b.name, table)
                accepted += 1
    assert accepted == sum(len(hom_tables(a, b))
                           for a, b in itertools.product(LE4 + [T3, T4, U4], repeat=2))


def test_the_one_subalgebra_of_a_one_element_algebra_is_normal():
    for alg in (trivial_group(), from_permutations("P1", [(0,)])):
        assert subalgebra_lattice(alg).keys == ((0,),)
        assert is_normal_subalgebra(alg, (0,))
        q, proj = quotient(alg, (0,))
        assert (q.n, proj) == (1, (0,))


def test_normality_iff_kernel_witness():
    # cross-check: B is normal iff it appears as the kernel of some hom into
    # some constructed quotient (the quotient construction is the oracle)
    for alg in (cyclic(4), symmetric3(), dihedral8()):
        quotients = [
            quotient(alg, sub)[0]
            for sub in subalgebra_lattice(alg).keys
            if is_normal_subalgebra(alg, sub)
        ]
        kernels = set()
        for q in quotients:
            for _, _, table in enumerate_homs(alg, q):
                kernels.add(tuple(x for x in range(alg.n) if table[x] == q.zero))
        for sub in subalgebra_lattice(alg).keys:
            assert (sub in kernels) == is_normal_subalgebra(alg, sub)


def test_normal_stable_under_surjections():
    # direct images of normal subalgebras along surjective homs stay normal
    d8 = dihedral8()
    q, proj = quotient(d8, (0, 2))
    for sub in subalgebra_lattice(d8).keys:
        if not is_normal_subalgebra(d8, sub):
            continue
        img = tuple(sorted({proj[x] for x in sub}))
        assert is_normal_subalgebra(q, img)


def test_as_form_requires_identities_and_closure():
    z4, z2 = cyclic(4), cyclic(2)
    q = (z4, z2, (0, 1, 0, 1))
    with pytest.raises(ClosureError):
        as_form([z4, z2], [q])
    form = SlominskiForm()
    form.declare([z4, z2], close_homs(form, [z4, z2], [form.morphism(*q, name="q")]))
    assert len(form.objects) == 2
    form = SlominskiForm()
    homs = close_homs(form, [z4, z2], [form.morphism(*q, name="q")])
    with pytest.raises(ClosureError):
        # q.m is the zero endo of Z2 which is not declared
        form.declare([z4, z2], [*homs, form.morphism(z2, z4, (0, 2), name="m")])


def test_close_homs_idempotent():
    z4, z2 = cyclic(4), cyclic(2)
    form = SlominskiForm()
    once = close_homs(form, [z4, z2], [form.morphism(z4, z2, (0, 1, 0, 1), name="q")])
    twice = close_homs(form, [z4, z2], once)
    assert [element_key(m) for m in once] == [element_key(m) for m in twice]


@pytest.mark.parametrize("alg, perm", [(cyclic(4), (0, 2, 1, 3)), (xor_group(2), (1, 0, 2, 3))],
                         ids=["Z4", "E4"])
def test_algebras_that_share_a_name_are_two_objects(alg, perm):
    # the closure keys a table by object ids, which a form keeps distinct,
    # so each algebra keeps its identity
    twin = permuted(alg, perm, name=alg.name)
    form = SlominskiForm()
    form.declare([alg, twin], close_homs(form, [alg, twin], []))
    assert list(form.objects) == [alg.name, f"{alg.name}#1"]
    assert [element_key(m) for m in form.morphisms] == [
        (alg.name, alg.name, (0, 1, 2, 3)), (f"{alg.name}#1", f"{alg.name}#1", (0, 1, 2, 3))]


@pytest.mark.parametrize("table, message", [
    ((0, 1, 0), "hom ?: table does not match carriers"),
    ((1, 0, 1, 0), "hom ?: does not preserve 0"),
    ((0, 1, 1, 0), "hom ?: not compatible at (0,1)"),
], ids=["carriers", "zero", "d"])
def test_as_form_checks_each_table_it_is_given(table, message):
    z4, z2 = cyclic(4), cyclic(2)
    identities = [(z4, z4, (0, 1, 2, 3)), (z2, z2, (0, 1))]
    with pytest.raises(ValidationError) as err:
        as_form([z4, z2], [*identities, (z4, z2, table)])
    assert str(err.value) == message


def test_as_form_names_a_hom_on_an_undeclared_algebra_by_its_table():
    z4, z2 = cyclic(4), cyclic(2)
    with pytest.raises(ClosureError) as err:
        as_form([z4], [(z4, z4, (0, 1, 2, 3)), (z4, z2, (0, 1, 0, 1))])
    assert str(err.value) == "hom (0, 1, 0, 1) uses an undeclared algebra"


# ---------------------------------------------------------------------------
# derived lattices: quotients and subobjects against enumeration


def cyclic_extension(base, k, alpha, t=0, name="G"):
    """N.Z_k for an abelian group N = base: elements n b^j, indexed
    n + |N| j, with b n b^-1 = alpha[n] and b^k = t (alpha an automorphism
    of N with alpha^k = 1 that fixes t).  from_group checks the result."""
    table, _, e = base
    m = len(table)

    def mul(x, y):
        (j1, n1), (j2, n2) = divmod(x, m), divmod(y, m)
        for _ in range(j1):
            n2 = alpha[n2]
        n = table[n1][n2]
        if j1 + j2 >= k:
            n = table[n][t]
        return n + m * ((j1 + j2) % k)

    cayley = tuple(tuple(mul(x, y) for y in range(m * k)) for x in range(m * k))
    inverse = tuple(next(y for y in range(m * k) if cayley[x][y] == e) for x in range(m * k))
    return from_group(cayley, inverse, e, name=name)


def groups_9_to_16():
    """One group of each isomorphism class of order 9 to 16."""
    z, g = cyclic_data, lambda data, name: from_group(*data, name=name)
    e2 = z(2)
    neg = lambda m: tuple((-x) % m for x in range(m))
    times = lambda m, r: tuple((r * x) % m for x in range(m))
    # product_data puts (a, c) of Z4 x Z2 at 2a + c
    z4z2 = product_data(z(4), e2)
    return [
        g(z(9), "Z9"), g(product_data(z(3), z(3)), "Z3xZ3"),
        g(z(10), "Z10"), g(dihedral_data(5), "D10"),
        g(z(11), "Z11"),
        g(z(12), "Z12"), g(product_data(z(6), e2), "Z6xZ2"), g(dihedral_data(6), "D12"),
        cyclic_extension(product_data(e2, e2), 3, (0, 2, 3, 1), name="A4"),
        cyclic_extension(z(3), 4, neg(3), name="Dic12"),
        g(z(13), "Z13"),
        g(z(14), "Z14"), g(dihedral_data(7), "D14"),
        g(z(15), "Z15"),
        g(z(16), "Z16"), g(product_data(z(8), e2), "Z8xZ2"),
        g(product_data(z(4), z(4)), "Z4xZ4"), g(product_data(z4z2, e2), "Z4xZ2xZ2"),
        xor_group(4),
        g(dihedral_data(8), "D16"),
        cyclic_extension(z(8), 2, neg(8), t=4, name="Q16"),
        cyclic_extension(z(8), 2, times(8, 3), name="SD16"),
        cyclic_extension(z(8), 2, times(8, 5), name="M16"),
        g(product_data(dihedral_data(4), e2), "D8xZ2"),
        g(product_data(quaternion_data(), e2), "Q8xZ2"),
        cyclic_extension(z(4), 4, neg(4), name="Z4:Z4"),
        # (a, c) -> (a, c + a mod 2) on Z4 x Z2: b a b^-1 = a c
        cyclic_extension(z4z2, 2, tuple(2 * (x // 2) + (x % 2 + x // 2) % 2 for x in range(8)),
                         name="(Z4xZ2):Z2"),
        # (a, c) -> (a + 2c, c), a central of order 4: the Pauli group
        cyclic_extension(z4z2, 2, tuple(2 * ((x // 2 + 2 * (x % 2)) % 4) + x % 2 for x in range(8)),
                         name="Pauli"),
    ]


LE16 = list(all_groups_le8()) + groups_9_to_16()


def enumerated_masks(alg):
    """Reference enumerator: close each known subalgebra plus one element
    until no new ones appear, closing by rescanning every pair."""
    def close(mask):
        mask |= 1 << alg.zero
        while True:
            elems = elements_of(mask)
            new = mask
            for x in elems:
                for y in elems:
                    new |= (1 << alg.p[x][y]) | (1 << alg.d[x][y])
            if new == mask:
                return mask
            mask = new

    found = {close(0)}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for x in range(alg.n):
            t = close(s | 1 << x)
            if t not in found:
                found.add(t)
                frontier.append(t)
    return found


def enumerated_keys(alg):
    return tuple(sorted((elements_of(m) for m in enumerated_masks(alg)),
                        key=lambda k: (len(k), k)))


def test_groups_le16_are_pairwise_non_isomorphic():
    # one group per isomorphism class: 1, 1, 1, 2, 1, 2, 1, 5 of orders
    # 1..8, then 2, 2, 1, 5, 1, 2, 1, 14 of orders 9..16 (42 in all)
    def invariant(alg):
        def order(x):
            k, y = 1, x
            while y != alg.zero:
                k, y = k + 1, alg.p[y][x]
            return k
        subs = enumerated_masks(alg)
        return (alg.n, len(subs), sorted(order(x) for x in range(alg.n)),
                sum(is_normal_subalgebra(alg, elements_of(m)) for m in subs))
    assert len(LE16) == 42
    assert len({repr(invariant(a)) for a in LE16}) == 42


def reversing(n):
    return list(reversed(range(n)))


def check_derived_objects(alg):
    """Returns the number of subalgebras of alg that are not normal."""
    # subalgebra_masks enumerates alg's own lattice; quotient_object reads
    # G/N's off the interval [N, G] and subobject_object reads S's off the
    # interval [0, S].  Each must give the keys, in the order, that the
    # reference enumerator gives, and the image tables that element_morphism
    # gives.  Normality and the quotient's classes are compared with
    # generate_congruence, which closes B x {0} under p and d, independently
    # of the one-candidate test that is_normal_subalgebra and quotient use.
    form = SlominskiForm()
    obj = form.object_of(alg)
    assert obj.lattice.keys == enumerated_keys(alg)
    non_normal = 0
    for key in obj.lattice.keys:
        cong = generate_congruence(alg, [(b, alg.zero) for b in key])
        normal = cong.zero_class == key
        assert is_normal_subalgebra(alg, key) == normal, key
        non_normal += not normal
        if normal:
            # quotient validates neither the algebra nor the projection
            q, table = quotient(alg, key)
            q.validate()
            check_hom(alg, q, table)
            classes = tuple(tuple(x for x in range(alg.n) if table[x] == c)
                            for c in range(max(table) + 1))
            assert classes == cong.classes, key
        S = Subobject(obj, key)
        for perm in (None, reversing):
            sub, incl = form.subobject_object(S, perm)
            assert sub.lattice.keys == enumerated_keys(sub.algebra), (key, perm)
            assert incl.d[-1] == obj.lattice.index[key]
            ref = element_morphism(sub, obj, incl.element_map)
            assert (incl.d, incl.i) == (ref.d, ref.i), (key, perm)
            if normal:
                q, proj = form.quotient_object(S, perm)
                q.algebra.validate()
                check_hom(alg, q.algebra, proj.element_map)
                assert q.lattice.keys == enumerated_keys(q.algebra), (key, perm)
                assert proj.i[0] == obj.lattice.index[key]
                ref = element_morphism(obj, q, proj.element_map)
                assert (proj.d, proj.i) == (ref.d, ref.i), (key, perm)
    return non_normal


@pytest.mark.parametrize("alg", LE16 + [T3, T4, U4], ids=lambda a: a.name)
def test_derived_lattices_against_enumeration(alg):
    check_derived_objects(alg)


def test_a_relabelled_object_is_the_canonical_one_read_through_an_isomorphism():
    # the element bijection q from the canonical carrier to the relabelled
    # one is read off the two maps; element_morphism rebuilds iso's image
    # tables from q alone, so iso is independent of how the relabelled
    # lattice was sorted, and the relabelled inclusion and projection must
    # be the canonical ones composed with it, tables and element maps alike
    rng = random.Random(23)

    def perm(n):
        p = list(range(n))
        rng.shuffle(p)
        return p

    def iso(X, X2, q):
        assert sorted(q) == list(range(X.algebra.n))
        check_hom(X.algebra, X2.algebra, q)
        return element_morphism(X, X2, q)

    def same(f, g):
        return f == g and f.element_map == g.element_map

    form, cases = SlominskiForm(), 0
    for alg in all_groups_le8():
        G = form.object_of(alg)
        for key in G.lattice.keys:
            S = Subobject(G, key)
            sub, incl = form.subobject_object(S)
            sub2, incl2 = form.subobject_object(S, perm)
            at = {x: y for y, x in enumerate(incl2.element_map)}
            assert same(compose(incl2, iso(sub, sub2, [at[x] for x in incl.element_map])),
                        incl), (alg.name, key)
            cases += 1
            if is_normal_subalgebra(alg, key):
                q, proj = form.quotient_object(S)
                q2, proj2 = form.quotient_object(S, perm)
                table = [0] * q.algebra.n
                for x, c in enumerate(proj.element_map):
                    table[c] = proj2.element_map[x]
                assert same(compose(iso(q, q2, table), proj), proj2), (alg.name, key)
                cases += 1
    assert cases == 135


E32 = xor_group(5)
D32 = from_group(*dihedral_data(16), name="D32")
Z64 = cyclic(64)


@pytest.mark.parametrize("alg", [Z64, D32, E32], ids=lambda a: a.name)
def test_subalgebra_masks_of_the_scale_groups_against_enumeration(alg):
    assert subalgebra_masks(alg) == tuple(sorted(enumerated_masks(alg)))


def random_permutation_algebra(seed):
    """A seeded Slominski algebra of order 3 to 8 built by from_permutations;
    in general not a group and not associative."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    sigmas = []
    for y in range(n):
        rest = [v for v in range(n) if v != y]
        rng.shuffle(rest)
        sigmas.append((y, *rest))
    return from_permutations(f"R{seed}", sigmas)


def test_derived_objects_of_random_algebras():
    # 455 subalgebras, 54 of them not normal
    assert sum(check_derived_objects(random_permutation_algebra(seed))
               for seed in range(200)) == 54


def test_normality_of_every_subset_against_generate_congruence(monkeypatch):
    # is_normal_subalgebra runs its coset test before the closure that
    # decides whether B is a subalgebra; on every subset of these small
    # algebras it must raise exactly when B is no subalgebra, with the text
    # the closure gives, and otherwise agree with generate_congruence.  A
    # passed coset test shows B a subalgebra, so the test itself must
    # refuse each of the 2,445 non-subalgebras that hold 0.  The groups of
    # order 7 and 8 are tested by their generators' left translations alone
    small = ([a for a in LE16 if a.n <= 8] + [T3, T4, U4]
             + [r for r in map(random_permutation_algebra, range(200)) if r.n <= 6])
    coset_classes, refused = slominski._coset_classes, []

    def recording(alg, belems):
        cls = coset_classes(alg, belems)
        refused.append(cls is None)
        return cls

    monkeypatch.setattr(slominski, "_coset_classes", recording)
    tested = 0
    for alg in small:
        for size in range(alg.n + 1):
            for sub in itertools.combinations(range(alg.n), size):
                if is_subalgebra(alg, sub):
                    cong = generate_congruence(alg, [(b, alg.zero) for b in sub])
                    assert is_normal_subalgebra(alg, sub) == (cong.zero_class == sub), (
                        alg.name, sub)
                    continue
                refused.clear()
                with pytest.raises(ValidationError) as exc:
                    is_normal_subalgebra(alg, sub)
                assert str(exc.value) == f"{sub} is not a subalgebra of {alg.name}"
                assert refused == ([True] if alg.zero in sub else []), (alg.name, sub)
                tested += len(refused)
    assert tested == 2445


def test_subalgebra_masks_finds_each_subalgebra_once():
    # canonical augmentation: the masks come out without duplicates before
    # they are sorted, so a subalgebra reached twice shows here
    for alg in LE16 + [T3, T4, U4, E32] + [random_permutation_algebra(s) for s in range(50)]:
        masks = subalgebra_masks(alg)
        assert len(set(masks)) == len(masks), alg.name


def test_closures_stop_once_their_answer_is_known(monkeypatch):
    # each _close_over lists its mask and its first new elements, then what
    # each round adds, and subalgebra_masks lists each new cyclic subalgebra
    # once; closed in full, E32's rejected extensions make 16,864 listings
    # and Z64's cyclic subalgebras 536
    listed = []

    def listing(mask):
        listed.append(mask)
        return elements_of(mask)

    monkeypatch.setattr(slominski, "elements_of", listing)
    for alg, want in ((E32, 13045), (Z64, 432)):
        listed.clear()
        subalgebra_masks(alg)
        assert len(listed) == want, alg.name


def test_lattice_order_bitsets_against_pairwise_inclusion():
    # MaskLattice.up and down are both built from element columns
    for alg in LE16 + [E32, D32, Z64] + [random_permutation_algebra(s) for s in range(200)]:
        lat = subalgebra_lattice(alg)
        ms = lat.masks
        assert lat.up == tuple(
            sum(1 << q for q, b in enumerate(ms) if a & b == a) for a in ms), alg.name
        assert lat.down == tuple(
            sum(1 << p for p, a in enumerate(ms) if a & b == a) for b in ms), alg.name


def join_columns_by_formula(lat):
    # keys are sorted by size, so the position of keys[p] v keys[q], the
    # least key above both, is the lowest bit of up[p] & up[q]
    up = lat.up
    return [[((j := u & v) & -j).bit_length() - 1 for u in up] for v in up]


def lattice_and_intervals(alg):
    """alg's lattice, then the interval lattices of its subobjects and
    quotients, as subobject_object and quotient_object build them."""
    form = SlominskiForm()
    obj = form.object_of(alg)
    yield obj.lattice
    for key in obj.lattice.keys:
        S = Subobject(obj, key)
        yield form.subobject_object(S)[0].lattice
        if is_normal_subalgebra(alg, key):
            yield form.quotient_object(S)[0].lattice


@pytest.mark.parametrize("alg", LE16 + [T3, T4, U4, E32, D32, Z64], ids=lambda a: a.name)
def test_join_columns_and_down_against_the_bitset_formulas(alg):
    # join_column walks the spine, down is ANDed from element columns; both
    # must give what the formulas on up give, on every lattice and interval
    for lat in lattice_and_intervals(alg):
        assert lat.down == _converse(lat.up)
        assert [lat.join_column(q) for q in range(len(lat.keys))] == join_columns_by_formula(lat)


def test_join_against_the_closure_of_the_union():
    # MaskLattice.join walks its own spine and closes nothing; close_mask,
    # the closure subalgebras are enumerated by, must find the same key for
    # every pair of keys of the small algebras and for seeded pairs of the
    # scale groups.  An unknown key raises, on every call
    def check(lat, alg, p, q):
        a, b, ms = lat.keys[p], lat.keys[q], lat.masks
        want = lat.keys[lat.position_of_mask(close_mask(alg, ms[p] | ms[q]))]
        assert lat.join(a, b) == want, (alg.name, a, b)

    pairs = 0
    for alg in LE16 + [T3, T4, U4] + [random_permutation_algebra(s) for s in range(200)]:
        lat = subalgebra_lattice(alg)
        at = range(len(lat.keys))
        for p, q in itertools.product(at, at):
            check(lat, alg, p, q)
        pairs += len(at) ** 2
    assert pairs == 11_872
    rng = random.Random(0)
    for alg in (E32, D32, Z64):
        lat = subalgebra_lattice(alg)
        for _ in range(500):
            check(lat, alg, rng.randrange(len(lat.keys)), rng.randrange(len(lat.keys)))
        a = lat.keys[1]
        for _ in range(2):
            for pair in ((a, ("no", "such", "key")), (("no", "such", "key"), a)):
                with pytest.raises(LatticeError, match="unknown subobject key"):
                    lat.join(*pair)


def _strongly_reached(root):
    """Everything a gc.get_referents walk from root reaches, following no
    weakref and no class (shared code, not data); of a WeakKeyDictionary,
    whose keys are weakrefs with a removal callback, only the values."""
    seen, todo, out = {id(root)}, [root], []
    while todo:
        x = todo.pop()
        out.append(x)
        if isinstance(x, weakref.WeakKeyDictionary):
            nxt = list(x.data.values())
        elif isinstance(x, (type, weakref.ref)):
            continue
        else:
            nxt = gc.get_referents(x)
        for y in nxt:
            if id(y) not in seen:
                seen.add(id(y))
                todo.append(y)
    return out


def test_lattices_are_plain_data():
    # a subalgebra lattice and the lattices of a quotient and a subobject,
    # used through join, join_column and element_morphism, hold keys, masks
    # and tables only: nothing they reach is an algebra or a function
    form = SlominskiForm()
    G = form.object_of(dihedral8())
    N = next(k for k in G.lattice.keys[1:-1] if is_normal_subalgebra(G.algebra, k))
    Q, pi = form.quotient_object(Subobject(G, N))
    S, iota = form.subobject_object(Subobject(G, N))
    for obj in (G, Q, S):
        lat = obj.lattice
        assert lat.join(lat.top, lat.bottom) == lat.top
        assert lat.join_column(0) == list(range(len(lat.keys)))
        element_morphism(obj, obj, range(obj.algebra.n))
    element_morphism(G, Q, pi.element_map)
    element_morphism(S, G, iota.element_map)
    for obj in (G, Q, S):
        lat = obj.lattice
        held = _strongly_reached(lat)
        reached = set(map(id, held))
        memos = [lat.keys, lat.masks, lat._join_chains, *lat.image_tables.values()]
        assert all(id(x) in reached for x in memos), obj.id
        assert not [x for x in held if isinstance(x, (SlominskiAlgebra, types.FunctionType,
                                                         types.MethodType))], obj.id
    # the lattices of a quotient and a subobject not read yet hold their
    # parent's lattice, the interval's positions and the labelling; once
    # read, not even the parent's lattice
    N2 = next(k for k in G.lattice.keys[1:-1] if k != N and is_normal_subalgebra(G.algebra, k))
    for lat in (form.quotient_object(Subobject(G, N2))[0].lattice,
                form.subobject_object(Subobject(G, N2))[0].lattice):
        held = _strongly_reached(lat)
        assert any(x is G.lattice for x in held)
        assert not [x for x in held if isinstance(x, (SlominskiAlgebra, types.FunctionType,
                                                         types.MethodType))]
        assert len(lat.keys) > 1
        assert not any(x is G.lattice for x in _strongly_reached(lat))


def _unread_interval_lattices(alg):
    """The lattice of every subobject and every quotient of alg, as a
    fresh form builds them and before anything reads them, each with the
    masks of its keys: the parent's keys at the interval's positions, taken
    along the inclusion's or the projection's element map."""
    form = SlominskiForm()
    obj = form.object_of(alg)
    keys = obj.lattice.keys
    for key in keys:
        S = Subobject(obj, key)
        sub, incl = form.subobject_object(S)
        own = {y: x for x, y in enumerate(incl.element_map)}
        yield sub.lattice, [lattice.mask_of(own[y] for y in keys[p]) for p in incl.d]
        if is_normal_subalgebra(alg, key):
            q, proj = form.quotient_object(S)
            table = proj.element_map
            yield q.lattice, [lattice.mask_of(table[x] for x in keys[p]) for p in proj.i]


@pytest.mark.parametrize("alg", LE16 + [E32, D32, Z64], ids=lambda a: a.name)
def test_interval_lattices_derive_on_first_read_what_the_sorted_one_holds(alg):
    # a derived lattice is handed its parent, the interval's positions and
    # the labelling, and derives its fields together on the first read of
    # any one of them; whichever is read first, they must equal those of
    # the lattice MaskLattice sorts from the same masks
    for first in ("keys", "masks", "index", "position_of_mask", "bottom", "top"):
        for lat, masks in _unread_interval_lattices(alg):
            if first == "position_of_mask":
                assert lat.position_of_mask(masks[-1]) == len(masks) - 1
            else:
                getattr(lat, first)
            ref = lattice.MaskLattice(lat.n, masks)
            assert (lat.keys, lat.masks, lat.index, lat.bottom, lat.top) == (
                ref.keys, ref.masks, ref.index, ref.bottom, ref.top), first
            assert list(map(lat.position_of_mask, masks)) == list(map(ref.position_of_mask, masks))


def test_an_interval_lattice_read_after_its_form_and_parent_are_gone():
    # G/N's lattice holds G's; the lattice of a subobject of G/N holds
    # G/N's, which nothing else does once the form and objects are dropped
    form = SlominskiForm()
    G = form.object_of(D32)
    normals = [k for k in G.lattice.keys[1:-1] if is_normal_subalgebra(D32, k)]
    Q1 = form.quotient_object(Subobject(G, normals[0]))[0]
    Q = form.quotient_object(Subobject(G, normals[1]))[0]
    S = form.subobject_object(Subobject(Q, Q.lattice.keys[1]))[0]
    want = [enumerated_keys(Q1.algebra), enumerated_keys(S.algebra)]
    lats = [Q1.lattice, S.lattice]
    gone = weakref.ref(form)
    del form, G, Q1, Q, S
    gc.collect()
    assert gone() is None
    assert [lat.keys for lat in lats] == want


def test_building_derived_objects_derives_no_key(monkeypatch):
    # the projections' and inclusions' tables are ranks in the parent's
    # interval, so building E32's 374 quotient and 374 subobject objects
    # takes no image of a key; reading one lattice derives it, once
    calls = []
    images = lattice.interval_images

    def counting(*args):
        calls.append(args)
        return images(*args)

    monkeypatch.setattr(lattice, "interval_images", counting)
    form = SlominskiForm()
    obj = form.object_of(E32)
    quots = [form.quotient_object(Subobject(obj, k))[0] for k in obj.lattice.keys]
    subs = [form.subobject_object(Subobject(obj, k))[0] for k in obj.lattice.keys]
    assert len(quots) == len(subs) == 374 and calls == []
    lat = quots[[len(k) for k in obj.lattice.keys].index(8)].lattice  # G/N = (Z2)^2
    assert len(lat.keys) == 5
    assert len(calls) == 1
    assert lat.position_of_mask(lat.masks[-1]) == len(lat.index) - 1
    assert (lat.bottom, lat.top, len(lat.up)) == (lat.keys[0], lat.keys[-1], 5)
    assert len(calls) == 1


@pytest.mark.parametrize("alg", LE16 + [T3, T4, U4, E32, D32, Z64], ids=lambda a: a.name)
def test_spine_steps_join_a_lower_cover_with_a_cyclic_key(alg):
    # for each a > 0, (s, x): keys[s] < keys[a] with nothing strictly
    # between (keys are sorted by size, so only positions between s and a
    # can be), x is the least element keys[a] adds, and keys[s] v <x> is
    # keys[a], where <x> is the meet of every key holding x
    for lat in lattice_and_intervals(alg):
        ms = lat.masks
        assert len(lat.spine) == len(ms) - 1
        for a, (s, x) in enumerate(lat.spine, 1):
            assert s < a and ms[s] & ~ms[a] == 0
            assert not any(ms[s] & ~m == 0 and m & ~ms[a] == 0 for m in ms[s + 1:a])
            assert x == min(set(lat.keys[a]) - set(lat.keys[s]))
            generated = lat.keys[lat.position_of_mask(reduce(and_, (m for m in ms if m >> x & 1)))]
            assert lat.join(lat.keys[s], generated) == lat.keys[a]


@pytest.mark.parametrize("alg", [E32, D32, Z64], ids=lambda a: a.name)
def test_derived_tables_are_ranks_in_the_parent_interval(alg):
    # quotient_object and subobject_object number G/N's subalgebras and
    # S's by rank in the intervals [N, G] and [0, S] of the parent; every
    # table of every derived object must agree with the bitset formulas:
    # the projection by N sends a to the rank in [N, G] of a v N, the
    # lowest bit of up[a] & up[n], the inclusion of S sends a to the rank
    # in [0, S] of a ^ S, the highest bit of down[a] & down[s], and the
    # other two tables list the interval's positions.  Each derived lattice
    # is in (size, key) order, and the element maps carry its keys to the
    # parent's at those positions
    form = SlominskiForm()
    obj = form.object_of(alg)
    lat = obj.lattice
    up, down = lat.up, lat.down

    def bits(interval):
        return tuple(p for p in range(len(lat.keys)) if interval >> p & 1)

    def in_order(derived):
        keys = derived.lattice.keys
        assert keys == tuple(sorted(keys, key=lambda k: (len(k), k)))
        assert derived.lattice.masks == tuple(map(lattice.mask_of, keys))

    for s, key in enumerate(lat.keys):
        below = bits(down[s])
        rank = {p: r for r, p in enumerate(below)}
        sub, incl = form.subobject_object(Subobject(obj, key))
        assert incl.d == below, key
        assert incl.i == tuple(rank[(x & down[s]).bit_length() - 1] for x in down), key
        in_order(sub)
        table = incl.element_map
        assert [tuple(sorted(table[x] for x in k)) for k in sub.lattice.keys] == [
            lat.keys[p] for p in below], key
        if not is_normal_subalgebra(alg, key):
            continue
        above = bits(up[s])
        rank = {p: r for r, p in enumerate(above)}
        q, proj = form.quotient_object(Subobject(obj, key))
        assert proj.i == above, key
        assert proj.d == tuple(rank[((j := u & up[s]) & -j).bit_length() - 1] for u in up), key
        in_order(q)
        table = proj.element_map
        assert [tuple(x for x in range(alg.n) if table[x] in k) for k in q.lattice.keys] == [
            lat.keys[p] for p in above], key


def test_normality_reads_each_distinct_translation_once(monkeypatch):
    # a group is tested by the left translations of its greedy generators
    # alone: E32 = (Z2)^5 by 5, Z64 by 1, Z4xE4 by 3 and D32 by a rotation
    # and a reflection; a loop reads each distinct row among p(z, -),
    # p(-, z) and d(z, -) once
    z2 = cyclic_data(2)
    z4e4 = from_group(*product_data(cyclic_data(4), product_data(z2, z2)), name="Z4xE4")
    for alg, rows in ((E32, 5), (Z64, 1), (z4e4, 3), (D32, 2), (T3, 5), (T4, 7), (U4, 10)):
        assert len(slominski._translations(alg)[1]) == rows, alg.name
    # the generator rows give the same classes, or None, as every distinct
    # translation, on every subset holding 0 of each group of order <= 8
    # and every subgroup of those of order 16
    cases = [(a, (0,) + sub) for a in LE16 if a.n <= 8
             for k in range(a.n) for sub in itertools.combinations(range(1, a.n), k)]
    cases += [(a, key) for a in LE16 if a.n == 16 for key in subalgebra_lattice(a).keys]
    assert all(a.zero == 0 for a, _ in cases) and len(cases) == 807 + 296

    def copy(alg):  # a fresh memo, so the translations are built again
        return SlominskiAlgebra(alg.name, alg.zero, alg.p, alg.d)

    by_generators = [slominski._coset_classes(copy(a), sub) for a, sub in cases]
    monkeypatch.setattr(slominski, "_group_generators", lambda alg: None)
    assert by_generators == [slominski._coset_classes(copy(a), sub) for a, sub in cases]
    assert {cls is None for cls in by_generators} == {True, False}


E64 = xor_group(6)


def test_e64_subgroups_are_normal_and_sampled_quotients_exact():
    # E64 = (Z2)^6 has 2,825 subgroups, the subspaces of F_2^6, all normal;
    # eight of its quotients, drawn by a fixed seed, are checked against
    # generate_congruence and their projections against element_morphism
    lat = subalgebra_lattice(E64)
    assert len(lat.keys) == 2825
    assert all(is_normal_subalgebra(E64, key) for key in lat.keys)
    form = SlominskiForm()
    obj = form.object_of(E64)
    for key in random.Random(64).sample(lat.keys, 8):
        q, proj = form.quotient_object(Subobject(obj, key))
        cong = generate_congruence(E64, [(b, E64.zero) for b in key])
        table = proj.element_map
        assert tuple(tuple(x for x in range(E64.n) if table[x] == c)
                     for c in range(q.algebra.n)) == cong.classes, key
        ref = element_morphism(obj, q, table)
        assert (proj.d, proj.i) == (ref.d, ref.i), key


def test_normal_keys_and_quotients_decide_each_pair_once(monkeypatch):
    # each decision whether B is normal is one _candidate_classes call; the
    # answer is memoized on the algebra, so the normal keys and every
    # quotient by one of them share it
    decided, generated = [], []
    candidate_classes = slominski._candidate_classes

    def counting(alg, elems):
        decided.append((alg.name, tuple(elems)))
        return candidate_classes(alg, elems)

    def generating(alg, pairs):
        generated.append(alg.name)
        return generate_congruence(alg, pairs)

    monkeypatch.setattr(slominski, "_candidate_classes", counting)
    monkeypatch.setattr(slominski, "generate_congruence", generating)
    lab = InstanceLab(0)
    d8 = lab.obj(from_group(*dihedral_data(4), name="D8"))
    normals = lab.normal_keys(d8)
    assert lab.normal_keys(d8) == normals
    for key in normals:
        lab.proj(d8, key)
    assert len(normals) == 6
    assert sorted(decided) == sorted(("D8", k) for k in d8.lattice.keys)
    assert generated == []


def test_elements_outside_the_carrier_raise_a_located_error():
    z4 = cyclic(4)
    assert is_subalgebra(z4, [0, 9]) is False and is_subalgebra(z4, [0, -1]) is False
    assert is_subalgebra(z4, [0, 2]) is True and is_subalgebra(z4, [0, 1]) is False
    # raised again on the second call: no answer is memoized for bad input
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"\(0, 9\) is not a subalgebra of Z4"):
            is_normal_subalgebra(z4, [0, 9])
        with pytest.raises(ValidationError, match=r"\(0, 9\) is not a subalgebra of Z4"):
            quotient(z4, [9, 0])
        with pytest.raises(ValidationError, match=r"\(-1, 0\) is not a subalgebra of Z4"):
            subalgebra_algebra(z4, [0, -1])


def test_objects_derived_from_another_forms_owner_are_its_own():
    # a form remembers derived objects by owner id only for the owners it
    # registered; an owner of another form with the same id gets its own
    # (the two algebras share the name Z4, which is the id)
    e4 = permuted(xor_group(2), (0, 1, 2, 3), name="Z4")
    mine = SlominskiForm("b")
    ours = mine.object_of(cyclic(4))
    theirs = SlominskiForm("a").object_of(e4)
    assert ours.id == theirs.id
    for owner, alg in ((ours, cyclic(4)), (theirs, e4), (ours, cyclic(4))):
        q = mine.quotient_object(Subobject(owner, (0,)))[0]
        assert q.algebra.p == quotient(alg, (0,))[0].p
        s = mine.subobject_object(Subobject(owner, (0, 2)))[0]
        assert s.algebra.p == subalgebra_algebra(alg, (0, 2))[0].p
