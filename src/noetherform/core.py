"""Objects, subobjects, morphisms and the noetherian-form interface.

A form object owns a bounded subobject lattice; a morphism carries the
direct/inverse image maps of its Galois connection as tables of positions:
d[a] is the position in cod.lattice.keys of the direct image of the
subobject at position a in dom.lattice.keys, and i is the inverse image the
other way.  These int tuples are the only stored form of the image maps;
composing gathers them, and equality and hash compare them directly, so a
morphism is extensional: same endpoints and the same image maps on every
subobject.  Key -> key views (Morphism.dimg/iimg) and the converse
(Morphism.from_maps) serve the edges: the parser, the CLI and the tests.

A form bundles a set of objects with normality/conormality tests and the
two constructors of Axiom 3, which every form implements:
subobject_object(S, perm) gives S as an object with its embedding, and
quotient_object(S, perm) the quotient by S with its projection.  perm(n)
relabels the carrier of a constructed object in Slominski forms and their
duals; data forms ignore it (they have only their declared objects).
embedding_of and projection_of are derived from the pair in Form.  The
mediators are homomorphism induction on image tables, written once in Form:
a mediator's tables are two gathers of its inputs', and it exists iff they
send bottom to bottom and pull top back to top.  The tables are decided
before any Morphism is built: Form._middle gives the middle map h of the
factorization f = m . h . e as tables, which the axiom suite reads without
building it.  A form has no factorization method: f splits as the mediator
of f through the embedding of Im f, then that embedding (the triangles of
pyramid.build_pyramid).  Two concrete families exist: data-defined forms
(normality, embeddings and projections found by search over the declared
morphism set, and each mediator looked up there, see DataForm) and
Slominski-algebra forms (intrinsic constructions, see
slominski.SlominskiForm).

Duality is an involution memoized on the values: X.dual, S.dual and
m.dual() read an object, subobject or morphism in the dual form, and
X.dual.dual is X, m.dual().dual() is m.  DualForm is a stateless view over
them, and dualize(dualize(f)) returns the original form.
"""

from __future__ import annotations

from operator import eq, itemgetter
from types import MappingProxyType
from typing import Iterable

from .errors import (
    CompositionError,
    LatticeError,
    OwnershipError,
    UnsupportedFormError,
    UnsupportedSubobjectError,
)
from .lattice import dual_lattice


class Frozen:
    """Base of the immutable records: no field can be set or deleted after __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FormObject:
    """A 'group' of the framework: an identifier plus its subobject lattice."""

    __slots__ = ("id", "lattice", "algebra", "_dual")

    def __init__(self, id: str, lattice, algebra=None):
        self.id = id
        self.lattice = lattice
        self.algebra = algebra
        self._dual = None

    @property
    def dual(self) -> "FormObject":
        """The object read in the dual form: the same id, the reversed
        lattice and no carrier.  Built once, so X.dual.dual is X."""
        if self._dual is None:
            self._dual = FormObject(self.id, dual_lattice(self.lattice))
            self._dual._dual = self
        return self._dual

    def sub(self, key) -> "Subobject":
        if key not in self.lattice.index:
            raise LatticeError(f"{self.id} has no subobject {key!r}")
        return Subobject(self, key)

    @property
    def bottom(self) -> "Subobject":
        return Subobject(self, self.lattice.bottom)

    @property
    def top(self) -> "Subobject":
        return Subobject(self, self.lattice.top)

    def subobjects(self):
        return tuple(Subobject(self, k) for k in self.lattice.keys)

    @property
    def order(self) -> int:
        """Carrier size for algebra-backed objects, lattice size otherwise."""
        return self.algebra.n if self.algebra is not None else len(self.lattice.keys)

    def __repr__(self):
        return f"FormObject({self.id})"


class Subobject(Frozen):
    def __init__(self, owner: FormObject, key: object):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "key", key)

    def __eq__(self, other):
        if not isinstance(other, Subobject):
            return NotImplemented
        return self.owner.id == other.owner.id and self.key == other.key

    def __hash__(self):
        return hash((self.owner.id, self.key))

    def __repr__(self):
        return f"{self.owner.id}:{render_key(self.key)}"

    @property
    def dual(self) -> "Subobject":
        return Subobject(self.owner.dual, self.key)


def render_key(key) -> str:
    if isinstance(key, tuple):
        return "{" + ",".join(str(e) for e in key) + "}"
    return str(key)


class Morphism:
    """A morphism with its direct/inverse image tables as position tuples.

    d has one entry per subobject of dom, in dom.lattice.keys order: the
    position of its direct image in cod.lattice.keys.  i has one entry per
    subobject of cod: the position of its inverse image in dom.lattice.keys.
    dimg and iimg are read-only key -> key views of the same tables, built
    on access.  element_map (optional) is the carrier-level realization when
    both ends are backed by Slominski algebras.
    """

    __slots__ = ("dom", "cod", "d", "i", "name", "element_map", "_dual")

    def __init__(self, dom, cod, d, i, name="", element_map=None):
        self.dom = dom
        self.cod = cod
        self.d = tuple(d)
        self.i = tuple(i)
        self.name = name
        self.element_map = tuple(element_map) if element_map is not None else None
        self._dual = None

    def dual(self) -> "Morphism":
        """The morphism read in the dual form: reversed, with d and i
        swapped, the same name and no element map.  Built once, so
        m.dual().dual() is m."""
        if self._dual is None:
            self._dual = Morphism(self.cod.dual, self.dom.dual, self.i, self.d, name=self.name)
            self._dual._dual = self
        return self._dual

    @classmethod
    def from_maps(cls, dom, cod, dimg, iimg, name="") -> "Morphism":
        """The morphism with the given key -> key image maps."""
        d = tuple(cod.lattice.index[dimg[k]] for k in dom.lattice.keys)
        i = tuple(dom.lattice.index[iimg[k]] for k in cod.lattice.keys)
        return cls(dom, cod, d, i, name=name)

    @property
    def dimg(self):
        keys = self.cod.lattice.keys
        return MappingProxyType(dict(zip(self.dom.lattice.keys, (keys[x] for x in self.d))))

    @property
    def iimg(self):
        keys = self.dom.lattice.keys
        return MappingProxyType(dict(zip(self.cod.lattice.keys, (keys[x] for x in self.i))))

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.d == other.d and self.i == other.i
                and self.dom.id == other.dom.id and self.cod.id == other.cod.id)

    def __hash__(self):
        return hash((self.dom.id, self.cod.id, self.d, self.i))

    def __repr__(self):
        return _label(self.name, self.dom, self.cod)


def _label(name, dom, cod) -> str:
    """The repr of a morphism named name from dom to cod, built or not."""
    return f"{name or 'morphism'}:{dom.id}->{cod.id}"


# ---------------------------------------------------------------------------
# free operations on morphisms and subobjects


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Composite g . f (f applied first)."""
    if f.cod is not g.dom and f.cod.id != g.dom.id:
        raise CompositionError(f"cannot compose {g!r} after {f!r}: codomain/domain mismatch")
    emap = None
    if f.element_map is not None and g.element_map is not None:
        emap = gather(g.element_map, f.element_map)
    name = f"{g.name}.{f.name}" if f.name and g.name else ""
    return Morphism(f.dom, g.cod, gather(g.d, f.d), gather(f.i, g.i), name=name,
                    element_map=emap)


def gather(table, positions):
    """table read at each of positions: the tables of a composite g . f are
    gather(g.d, f.d), gather(f.i, g.i) and gather(g.element_map,
    f.element_map)."""
    if len(positions) < 2:  # itemgetter() raises; of one position it gives a scalar
        return tuple([table[x] for x in positions])
    return itemgetter(*positions)(table)


def element_key(m: Morphism):
    """A morphism's carrier map with its endpoints."""
    return (m.dom.id, m.cod.id, m.element_map)


def composite_element_key(g: Morphism, f: Morphism):
    """element_key(g . f), without building the composite."""
    return (f.dom.id, g.cod.id, gather(g.element_map, f.element_map))


def first_uncomposed(items, key, compose_key):
    """The first composable pair (g, f) of items, in g-major order, whose
    composite g . f is not declared, or None when items are closed under
    composition.

    key(m) names a morphism (a composite is declared when some item has its
    key); compose_key(g, f) is the key of g . f and must depend on the keys
    of g and f only.  Closure is decided from generators: an item that is
    not yet a product of the earlier generators becomes a generator, and
    every product reached is left-composed with every generator, each
    (generator, product) pair once.  The products then are all composites of
    generators, so when none of them is undeclared, every item is a product
    and the items are closed.  The order in which items are tried decides
    only which of them become generators, never the verdict:

    - most injective first, by the number of distinct entries of d: the
      isomorphisms generate a group, from which few more generators reach
      the rest;
    - the automorphisms of each object (endomorphisms whose d is a
      permutation) trade their declared places so that those fixing the
      fewest subobjects (d[p] == p) come first; far from the identity,
      their powers reach many items;
    - other items keep their declared places (the subobjects of two
      objects have no common positions to fix);
    - each identity goes after every other item of its rank.  It composes
      trivially, so as a generator it reaches nothing new at the cost of
      one composite per product, and by then a power of another
      isomorphism has usually reached it.

    On End(E8) this takes 3 generators and 1,536 composites, against 7 and
    3,584 by rank alone and 57 and 29,184 in declared order.  Only when a
    composite is undeclared does the ordered pairwise scan run, to name the
    first failing pair; the composites already taken are not taken again,
    so there are never more than |items|^2.
    """
    items = list(items)
    first: dict = {}  # key -> position of the first item with that key
    for n, m in enumerate(items):
        first.setdefault(key(m), n)
    dom = [m.dom.id for m in items]
    cod = [m.cod.id for m in items]
    taken: dict = {}  # (g, f) positions -> first's entry for g . f, or None

    def composite(g, f):
        if (g, f) not in taken:
            taken[g, f] = first.get(compose_key(items[g], items[f]))
        return taken[g, f]

    # the order given above: items are tried by place[p], which is (-rank,
    # is an identity, the declared place p takes), and the automorphisms of
    # one object trade their places, fewest fixed subobjects first
    place: dict = {}
    trade: dict = {}  # object -> (fixed subobjects, p) of its automorphisms
    for p in first.values():
        d = items[p].d
        rank = len(set(d))
        place[p] = (-rank, False, p)
        if rank == len(d) and dom[p] == cod[p]:
            fixed = sum(map(eq, d, range(rank)))
            if fixed == rank:
                place[p] = (-rank, True, p)
            else:
                trade.setdefault(dom[p], []).append((fixed, p))
    for autos in trade.values():
        for (_, p), (_, q) in zip(sorted(autos), autos):
            place[p] = (place[p][0], False, q)

    def closed():
        gens, products, reached = [], [], set()
        done = 0  # products[:done] are left-composed with every generator

        def reach(r):
            if r not in reached:
                reached.add(r)
                products.append(r)

        for p in sorted(place, key=place.__getitem__):
            if p in reached:
                continue
            gens.append(p)
            for q in products[:done]:
                if cod[q] == dom[p]:
                    r = composite(p, q)
                    if r is None:
                        return False
                    reach(r)
            reach(p)
            while done < len(products):
                q = products[done]
                for g in gens:
                    if cod[q] == dom[g]:
                        r = composite(g, q)
                        if r is None:
                            return False
                        reach(r)
                done += 1
        return True

    if closed():
        return None
    for g in range(len(items)):
        for f in range(len(items)):
            if cod[f] == dom[g] and composite(g, f) is None:
                return items[g], items[f]
    return None


def identity_morphism(obj: FormObject) -> Morphism:
    table = tuple(range(len(obj.lattice.keys)))
    emap = tuple(range(obj.algebra.n)) if obj.algebra is not None else None
    return Morphism(obj, obj, table, table, name=f"id_{obj.id}", element_map=emap)


def _own(S: Subobject, obj: FormObject, what: str):
    if S.owner.id != obj.id:
        raise OwnershipError(f"{S!r} does not belong to {what} {obj.id}")


def direct_image(f: Morphism, A: Subobject) -> Subobject:
    _own(A, f.dom, "domain of")
    return Subobject(f.cod, f.cod.lattice.keys[f.d[f.dom.lattice.index[A.key]]])


def inverse_image(f: Morphism, B: Subobject) -> Subobject:
    _own(B, f.cod, "codomain of")
    return Subobject(f.dom, f.dom.lattice.keys[f.i[f.cod.lattice.index[B.key]]])


def kernel_position(f: Morphism) -> int:
    """The position of Ker f in f.dom.lattice.keys: f.i at cod's bottom."""
    cl = f.cod.lattice
    return f.i[cl.index[cl.bottom]]


def image_position(f: Morphism) -> int:
    """The position of Im f in f.cod.lattice.keys: f.d at dom's top."""
    dl = f.dom.lattice
    return f.d[dl.index[dl.top]]


def kernel(f: Morphism) -> Subobject:
    return Subobject(f.dom, f.dom.lattice.keys[kernel_position(f)])


def image(f: Morphism) -> Subobject:
    return Subobject(f.cod, f.cod.lattice.keys[image_position(f)])


def join(S: Subobject, T: Subobject) -> Subobject:
    _own(T, S.owner, "owner of")
    return Subobject(S.owner, S.owner.lattice.join(S.key, T.key))


def meet(S: Subobject, T: Subobject) -> Subobject:
    _own(T, S.owner, "owner of")
    return Subobject(S.owner, S.owner.lattice.meet(S.key, T.key))


def leq(S: Subobject, T: Subobject) -> bool:
    _own(T, S.owner, "owner of")
    return S.owner.lattice.leq(S.key, T.key)


# The image predicates compare positions within one lattice, where equal
# positions are equal keys, so they build no Subobject.


def is_injective(f: Morphism) -> bool:
    """Ker f is the bottom of f.dom."""
    dl = f.dom.lattice
    return kernel_position(f) == dl.index[dl.bottom]


def is_surjective(f: Morphism) -> bool:
    """Im f is the top of f.cod."""
    cl = f.cod.lattice
    return image_position(f) == cl.index[cl.top]


def is_isomorphism(f: Morphism) -> bool:
    return is_injective(f) and is_surjective(f)


def is_zero_morphism(f: Morphism) -> bool:
    """Im f is the bottom of f.cod."""
    cl = f.cod.lattice
    return image_position(f) == cl.index[cl.bottom]


def declared_member(form, dom: FormObject, cod: FormObject, d, i):
    """The first declared morphism of form from dom to cod (by id) with image
    tables d and i, or None.

    Induced morphisms are represented by their image maps and need not be
    members of a declared form; this is the membership lookup."""
    for candidate in form.morphisms:
        if (candidate.d == d and candidate.i == i
                and candidate.dom.id == dom.id and candidate.cod.id == cod.id):
            return candidate
    return None


def _check_induced(dom: FormObject, cod: FormObject, d, i, f, g) -> None:
    """The induction criterion on image tables dom -> cod: d sends bottom to
    bottom and i pulls top back to top, or no morphism mediates f through g
    (each a Morphism, or the repr of one not built)."""
    dl, cl = dom.lattice, cod.lattice
    if d[dl.index[dl.bottom]] != cl.index[cl.bottom] or i[cl.index[cl.top]] != dl.index[dl.top]:
        raise UnsupportedFormError(f"no morphism mediates {f} through {g}")


def _projected_elements(p, n, size):
    """The element map of p . n^-1 for a surjective n: x[n[g]] = p[g]."""
    emap = [0] * size
    for g, v in enumerate(n):
        emap[v] = p[g]
    return emap


def _embedded_elements(i, m):
    """The element map of m^-1 . i for an injective m: u[a] = m^-1[i[a]]."""
    lookup = {v: x for x, v in enumerate(m)}
    return [lookup[v] for v in i]


def is_relatively_normal(form, B: Subobject, A: Subobject) -> bool:
    """B normal to A: B <= A, A conormal, and the pullback of B along the
    embedding of A is normal in the embedding's domain."""
    _own(A, B.owner, "owner of")
    if not leq(B, A) or not form.is_conormal(A):
        return False
    emb = form.embedding_of(A)
    return form.is_normal(inverse_image(emb, B))


# ---------------------------------------------------------------------------
# forms


class Form:
    """Interface shared by all form flavours.

    A form implements identity, is_normal, is_conormal and the Axiom 3 pair
    subobject_object/quotient_object; the rest is derived here."""

    name = "form"
    objects: dict
    morphisms: tuple

    def identity(self, obj: FormObject) -> Morphism:
        raise NotImplementedError

    def is_normal(self, S: Subobject) -> bool:
        raise NotImplementedError

    def is_conormal(self, S: Subobject) -> bool:
        raise NotImplementedError

    def subobject_object(self, S: Subobject, perm=None) -> tuple[FormObject, Morphism]:
        """S as an object, with its embedding into S.owner; perm(n), where
        the form honours it, relabels the new object's carrier.  Raises
        UnsupportedSubobjectError when the form has no such embedding."""
        raise NotImplementedError

    def quotient_object(self, S: Subobject, perm=None) -> tuple[FormObject, Morphism]:
        """The quotient of S.owner by S, with its projection; perm(n), where
        the form honours it, relabels the new object's carrier.  Raises
        UnsupportedSubobjectError when the form has no such projection."""
        raise NotImplementedError

    def embedding_of(self, S: Subobject) -> Morphism:
        return self.subobject_object(S)[1]

    def projection_of(self, S: Subobject) -> Morphism:
        return self.quotient_object(S)[1]

    def mediating_projection(self, p: Morphism, n: Morphism) -> Morphism:
        """The x with x . n = p: the morphism induced by the zigzag n^-1, p,
        so x(B) = p(n^-1 B) and x^-1(C) = n(p^-1 C).  It exists iff Ker n <=
        Ker p and n is surjective; then x[n[g]] = p[g] on elements."""
        d, i, name, got = self._through_projection(p, n)
        if got is not None:
            return got
        emap = None
        if p.element_map is not None and n.element_map is not None:
            emap = _projected_elements(p.element_map, n.element_map, n.cod.algebra.n)
        return Morphism(n.cod, p.cod, d, i, name=name, element_map=emap)

    def mediating_embedding(self, i: Morphism, m: Morphism) -> Morphism:
        """The u with m . u = i: the morphism induced by the zigzag i, m^-1,
        so u(A) = m^-1(i A) and u^-1(B) = i^-1(m B).  It exists iff m is
        injective and Im i <= Im m; then u[a] = m^-1[i[a]] on elements."""
        d, inv, name, got = self._through_embedding(i.dom, i.d, i.i, i.name, i, m)
        if got is not None:
            return got
        emap = None
        if i.element_map is not None and m.element_map is not None:
            emap = _embedded_elements(i.element_map, m.element_map)
        return Morphism(i.dom, m.dom, d, inv, name=name, element_map=emap)

    # The mediators on image tables.  Each returns (d, i, name, declared):
    # the induced tables, the name a built mediator takes, and the form's
    # declared morphism with those tables, or None where the induced tables
    # stand as they are.  Nothing here builds a Morphism.

    def _through_projection(self, p: Morphism, n: Morphism):
        """mediating_projection(p, n) on tables."""
        name = f"med_{p.name or 'p'}"
        d, i = gather(p.d, n.i), gather(n.d, p.i)
        _check_induced(n.cod, p.cod, d, i, p, n)
        return d, i, name, self._declared(n.cod, p.cod, d, i, name)

    def _through_embedding(self, dom: FormObject, d, i, name, src, m: Morphism):
        """mediating_embedding on tables, of the morphism src from dom to
        m.cod with tables d and i, named name (src is that morphism, or its
        repr when it is not built)."""
        name = f"med_{name or 'i'}"
        d, i = gather(m.i, d), gather(i, m.d)
        _check_induced(dom, m.dom, d, i, src, m)
        return d, i, name, self._declared(dom, m.dom, d, i, name)

    def _middle(self, f: Morphism, e: Morphism, m: Morphism):
        """The middle map h of f = m . h . e on image tables, as (d, i,
        name, declared): x, the mediator of f through e, then h, that of x
        through m, each checked by the induction criterion and passed to
        _declared, x before h.  The factorization formula lives here alone,
        and the axiom suite's AX4 reads its tables."""
        d, i, name, x = self._through_projection(f, e)
        if x is not None:
            return self._through_embedding(e.cod, x.d, x.i, x.name, x, m)
        return self._through_embedding(e.cod, d, i, name, _label(name, e.cod, f.cod), m)

    def _declared(self, dom: FormObject, cod: FormObject, d, i, name: str):
        """The morphism of this form from dom to cod with the induced image
        tables d and i, named name when built: None, so the induced tables
        stand as they are, except in a data form, which looks them up among
        its declared morphisms."""
        return None

    def dual(self) -> "Form":
        return DualForm(self)


class DataForm(Form):
    """A form given purely by declared data; all existential notions are
    decided by exhaustive search over the declared morphism set, and each
    mediator is the declared morphism equal to Form's induced one.
    subobject_object and quotient_object ignore perm: a data form has only
    its declared objects."""

    def __init__(self, objects: Iterable[FormObject], morphisms: Iterable[Morphism], name="form"):
        self.name = name
        self.objects = {o.id: o for o in objects}
        self.morphisms = tuple(morphisms)
        self._ids = {}
        for m in self.morphisms:
            if m.dom is m.cod and m.d == m.i == tuple(range(len(m.d))):
                self._ids.setdefault(m.dom.id, m)

    def identity(self, obj):
        try:
            return self._ids[obj.id]
        except KeyError:
            raise UnsupportedFormError(f"no identity morphism declared for {obj.id}") from None

    def is_normal(self, S):
        return any(m.dom.id == S.owner.id and kernel(m) == S for m in self.morphisms)

    def is_conormal(self, S):
        return any(m.cod.id == S.owner.id and image(m) == S for m in self.morphisms)

    def subobject_object(self, S, perm=None):
        for m in self.morphisms:
            if m.cod.id == S.owner.id and image(m) == S and is_injective(m):
                return m.dom, m
        raise UnsupportedSubobjectError(
            f"no embedding associated to {S!r} is declared", subobject=S
        )

    def quotient_object(self, S, perm=None):
        for m in self.morphisms:
            if m.dom.id == S.owner.id and kernel(m) == S and is_surjective(m):
                return m.cod, m
        raise UnsupportedSubobjectError(
            f"no projection associated to {S!r} is declared", subobject=S
        )

    def _declared(self, dom, cod, d, i, name):
        got = declared_member(self, dom, cod, d, i)
        if got is None:
            raise UnsupportedFormError(
                f"{_label(name, dom, cod)} mediates, but no declared morphism equals it")
        return got


class DualForm(Form):
    """Stateless dual view: its objects and morphisms are the memoized duals
    of the primal's (FormObject.dual, Morphism.dual()), so each lattice is
    order-reversed and each morphism reversed with its image maps swapped.
    Every method is the primal's with normal/conormal and
    subobjects/quotients exchanged, read through the duals both ways; the
    view keeps nothing it did not declare.  subobject_object and
    quotient_object pass perm on to the primal's quotient_object and
    subobject_object, so a dual pyramid relabels when its primal does.
    The mediators are Form's induction on the dual tables, which are the
    primal's swapped, so no primal element map is built for .dual() to
    drop; only _declared asks the primal's, with the tables swapped, and
    reads a declared member (a data form's) back through .dual()."""

    def __init__(self, primal: Form):
        self.primal = primal
        self.name = f"dual({primal.name})"
        self.objects = {oid: o.dual for oid, o in primal.objects.items()}
        self.morphisms = tuple(m.dual() for m in primal.morphisms)

    def dual(self):
        return self.primal

    def identity(self, obj):
        return self.primal.identity(obj.dual).dual()

    def is_normal(self, S):
        return self.primal.is_conormal(S.dual)

    def is_conormal(self, S):
        return self.primal.is_normal(S.dual)

    def subobject_object(self, S, perm=None):
        m = self.primal.quotient_object(S.dual, perm)[1].dual()
        return m.dom, m

    def quotient_object(self, S, perm=None):
        m = self.primal.subobject_object(S.dual, perm)[1].dual()
        return m.cod, m

    def _declared(self, dom, cod, d, i, name):
        got = self.primal._declared(cod.dual, dom.dual, i, d, name)
        return None if got is None else got.dual()


def dualize(form: Form) -> Form:
    """Reverse the form: an involution, dualize(dualize(F)) is F itself."""
    return form.dual()
