"""Slominski algebras: the concrete finite instance of a noetherian form.

A Slominski algebra is a finite carrier with binary operations p and d and a
constant 0 satisfying d(x,x) = 0 and p(d(x,y),y) = x.  Groups become
Slominski algebras via p(a,b) = a*b and d(a,b) = a*b^-1; subalgebras are then
subgroups and homomorphisms are group homomorphisms.

The module provides subalgebra lattices, congruence generation, quotients,
hom enumeration, and SlominskiForm, which realizes the abstract form
interface with intrinsic embeddings and projections (every subalgebra is
conormal; normality is decided by the generated congruence's zero class).
Its mediators and factorization are core.Form's induction on image tables,
which also fills in their element maps.

Costs the module avoids:
- Subalgebras are closed semi-naively (only pairs with a new element are
  taken) and enumerated by cyclic extension (subalgebra_masks).
- The congruence generated by a subalgebra is cached per algebra and
  subalgebra, so normality and the quotient share it.
- The image tables of element_morphism are cached per pair of lattices and
  element table, so a map built again (the corpus generators draw from a
  small palette of groups) costs one lookup.  An algebra hashes its tables
  once, when it is built.
- Only an algebra's own lattice is enumerated.  The lattice of a quotient
  G/N is the image of the interval [N, G] (by AX2, f^-1 f A = A v Ker f, so
  the projection's images of the A >= N are all of G/N's subalgebras), and
  that of a subalgebra S is the interval [0, S], relabelled
  (SlominskiForm.quotient_object and subobject_object).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (Form, FormObject, Morphism, Subobject, composite_element_key, element_key,
                   first_uncomposed, identity_morphism, image)
from .errors import ClosureError, UnsupportedSubobjectError, ValidationError
from .lattice import MaskLattice, elements_of, mask_of


@dataclass(frozen=True)
class SlominskiAlgebra:
    name: str
    zero: int
    p: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # hashed once: the caches keyed on algebras would otherwise hash the
        # whole p and d tables on every lookup
        object.__setattr__(self, "_hash", hash((self.name, self.zero, self.p, self.d)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return len(self.p)

    def validate(self) -> None:
        n = self.n
        if not (0 <= self.zero < n) or len(self.d) != n:
            raise ValidationError(f"{self.name}: malformed tables")
        for t in (self.p, self.d):
            for row in t:
                if len(row) != n or any(not 0 <= v < n for v in row):
                    raise ValidationError(f"{self.name}: ragged or out-of-range table row")
        for x in range(n):
            if self.d[x][x] != self.zero:
                raise ValidationError(f"{self.name}: d({x},{x}) != 0")
            for y in range(n):
                if self.p[self.d[x][y]][y] != x:
                    raise ValidationError(f"{self.name}: p(d({x},{y}),{y}) != {x}")

    def __repr__(self):
        return f"SlominskiAlgebra({self.name}, n={self.n})"


@dataclass(frozen=True)
class SlominskiHom:
    dom: SlominskiAlgebra
    cod: SlominskiAlgebra
    table: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.table) != self.dom.n or any(not 0 <= v < self.cod.n for v in self.table):
            raise ValidationError(f"hom {self.name or '?'}: table does not match carriers")

    def validate(self) -> None:
        f, A, B = self.table, self.dom, self.cod
        if f[A.zero] != B.zero:
            raise ValidationError(f"hom {self.name or '?'}: does not preserve 0")
        for x in range(A.n):
            for y in range(A.n):
                if f[A.p[x][y]] != B.p[f[x]][f[y]] or f[A.d[x][y]] != B.d[f[x]][f[y]]:
                    raise ValidationError(f"hom {self.name or '?'}: not compatible at ({x},{y})")

    def __call__(self, x: int) -> int:
        return self.table[x]


def is_hom_table(A: SlominskiAlgebra, B: SlominskiAlgebra, table: Sequence[int]) -> bool:
    for x in range(A.n):
        fx = table[x]
        for y in range(A.n):
            fy = table[y]
            if table[A.p[x][y]] != B.p[fx][fy] or table[A.d[x][y]] != B.d[fx][fy]:
                return False
    return True


def from_group(
    cayley: Sequence[Sequence[int]],
    inverse: Sequence[int],
    identity: int,
    name: str = "G",
) -> SlominskiAlgebra:
    """Turn a finite group into a Slominski algebra: p = product, d(a,b) = a*b^-1."""
    n = len(cayley)
    for row in cayley:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise ValidationError(f"{name}: Cayley table is ragged or out of range")
    if len(inverse) != n or not 0 <= identity < n:
        raise ValidationError(f"{name}: malformed inverse table or identity")
    for x in range(n):
        if cayley[identity][x] != x or cayley[x][identity] != x:
            raise ValidationError(f"{name}: {identity} is not an identity element")
        if cayley[x][inverse[x]] != identity or cayley[inverse[x]][x] != identity:
            raise ValidationError(f"{name}: {inverse[x]} is not inverse to {x}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if cayley[cayley[x][y]][z] != cayley[x][cayley[y][z]]:
                    raise ValidationError(f"{name}: multiplication is not associative")
    p = tuple(tuple(row) for row in cayley)
    d = tuple(tuple(cayley[a][inverse[b]] for b in range(n)) for a in range(n))
    alg = SlominskiAlgebra(name, identity, p, d)
    alg.validate()
    return alg


# ---------------------------------------------------------------------------
# subalgebras


def close_mask(alg: SlominskiAlgebra, mask: int) -> int:
    """Least subalgebra containing the given subset (as a bit mask), closed
    semi-naively over the zero subalgebra (see _close_over)."""
    zero = 1 << alg.zero
    return _close_over(alg, zero, mask | zero)


def _close_over(alg: SlominskiAlgebra, closed: int, mask: int) -> int:
    """Least subalgebra containing mask, given a subalgebra closed <= mask.

    Semi-naive: each round pairs, both ways, only the elements added in the
    round before (at first, those of mask outside closed) with every element
    so far.  Pairs inside closed give nothing new, and every other pair is
    taken in the round after its later element arrived, and in no later one.
    """
    p, d = alg.p, alg.d
    new = mask & ~closed
    while new:
        elems = elements_of(mask)
        add = 0
        for x in elements_of(new):
            px, dx = p[x], d[x]
            for y in elems:
                add |= (1 << px[y]) | (1 << dx[y]) | (1 << p[y][x]) | (1 << d[y][x])
        new = add & ~mask
        mask |= new
    return mask


@lru_cache(maxsize=None)
def subalgebra_masks(alg: SlominskiAlgebra) -> tuple[int, ...]:
    """All subalgebra masks, in ascending order of the mask.

    Neubüser's cyclic extension: every subalgebra is the join of the
    1-generated subalgebras below it, so extending each subalgebra found by
    each 1-generated subalgebra not below it, starting from the zero
    subalgebra, reaches them all.  The extension closes over the subalgebra
    already found (_close_over), so only pairs with a new element are taken.
    """
    bottom = 1 << alg.zero
    cyclic = sorted({close_mask(alg, 1 << x) for x in range(alg.n)} - {bottom})
    found = {bottom}
    frontier = [bottom]
    while frontier:
        s = frontier.pop()
        for c in cyclic:
            if c & ~s:
                t = _close_over(alg, s, s | c)
                if t not in found:
                    found.add(t)
                    frontier.append(t)
    return tuple(sorted(found))


def subalgebras(alg: SlominskiAlgebra) -> tuple[tuple[int, ...], ...]:
    """Subalgebras as sorted element tuples, ordered by size then elements."""
    lat = subalgebra_lattice(alg)
    return lat.keys


@lru_cache(maxsize=None)
def subalgebra_lattice(alg: SlominskiAlgebra) -> MaskLattice:
    return MaskLattice(alg.n, subalgebra_masks(alg), lambda m: close_mask(alg, m))


# ---------------------------------------------------------------------------
# congruences and quotients


@dataclass(frozen=True)
class Congruence:
    algebra: SlominskiAlgebra
    classes: tuple[tuple[int, ...], ...]

    @property
    def zero_class(self) -> tuple[int, ...]:
        return next(c for c in self.classes if self.algebra.zero in c)


def generate_congruence(alg: SlominskiAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the pairs: union-find closed under
    applying p and d to related pairs until fixpoint."""
    n = alg.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = []

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
            work.append((x, y))

    for a, b in pairs:
        union(a, b)
    while work:
        a, b = work.pop()
        for z in range(n):
            union(alg.p[a][z], alg.p[b][z])
            union(alg.p[z][a], alg.p[z][b])
            union(alg.d[a][z], alg.d[b][z])
            union(alg.d[z][a], alg.d[z][b])
    buckets: dict[int, list[int]] = {}
    for x in range(n):
        buckets.setdefault(find(x), []).append(x)
    classes = tuple(sorted((tuple(sorted(c)) for c in buckets.values()), key=lambda c: c[0]))
    return Congruence(alg, classes)


def is_subalgebra(alg: SlominskiAlgebra, elems: Iterable[int]) -> bool:
    m = mask_of(elems)
    return close_mask(alg, m) == m and (m >> alg.zero) & 1


@lru_cache(maxsize=None)
def _kernel_congruence(alg: SlominskiAlgebra, belems: tuple[int, ...]) -> Congruence:
    """The congruence generated by B x {0}, for a subalgebra B (sorted
    elements).  Cached, so deciding normality and building the quotient
    generate it once per algebra and subalgebra."""
    if not is_subalgebra(alg, belems):
        raise ValidationError(f"{belems} is not a subalgebra of {alg.name}")
    return generate_congruence(alg, [(b, alg.zero) for b in belems])


def is_normal_subalgebra(alg: SlominskiAlgebra, B: Iterable[int]) -> bool:
    """B is a kernel iff the congruence generated by B x {0} has zero class
    exactly B."""
    belems = tuple(sorted(set(B)))
    return _kernel_congruence(alg, belems).zero_class == belems


def quotient(
    alg: SlominskiAlgebra, B: Iterable[int], name: Optional[str] = None
) -> tuple[SlominskiAlgebra, SlominskiHom]:
    """Quotient by a normal subalgebra, with the projection hom.

    Classes are indexed in order of their minimal element, so tables are
    reproducible.
    """
    belems = tuple(sorted(set(B)))
    cong = _kernel_congruence(alg, belems)
    if cong.zero_class != belems:
        raise UnsupportedSubobjectError(f"{belems} is not normal in {alg.name}",
                                        subobject=belems)
    k = len(cong.classes)
    cls = [0] * alg.n
    for i, c in enumerate(cong.classes):
        for x in c:
            cls[x] = i
    reps = [c[0] for c in cong.classes]
    p = tuple(tuple(cls[alg.p[reps[i]][reps[j]]] for j in range(k)) for i in range(k))
    d = tuple(tuple(cls[alg.d[reps[i]][reps[j]]] for j in range(k)) for i in range(k))
    qname = name or f"{alg.name}/{{{','.join(map(str, belems))}}}"
    q = SlominskiAlgebra(qname, cls[alg.zero], p, d)
    q.validate()
    proj = SlominskiHom(alg, q, tuple(cls), name=f"pi_{qname}")
    return q, proj


def subalgebra_algebra(
    alg: SlominskiAlgebra, S: Iterable[int], name: Optional[str] = None
) -> tuple[SlominskiAlgebra, SlominskiHom]:
    """A subalgebra as an algebra in its own right, with the inclusion hom.

    Carrier indices follow the sorted parent elements.
    """
    elems = tuple(sorted(set(S)))
    if not is_subalgebra(alg, elems):
        raise ValidationError(f"{elems} is not a subalgebra of {alg.name}")
    idx = {e: i for i, e in enumerate(elems)}
    p = tuple(tuple(idx[alg.p[x][y]] for y in elems) for x in elems)
    d = tuple(tuple(idx[alg.d[x][y]] for y in elems) for x in elems)
    sname = name or f"{alg.name}[{','.join(map(str, elems))}]"
    sub = SlominskiAlgebra(sname, idx[alg.zero], p, d)
    incl = SlominskiHom(sub, alg, elems, name=f"iota_{sname}")
    return sub, incl


def permuted(alg: SlominskiAlgebra, perm: Sequence[int], name: Optional[str] = None) -> SlominskiAlgebra:
    """Relabel the carrier along a permutation (isomorphic copy)."""
    n = alg.n
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    p = tuple(tuple(perm[alg.p[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    d = tuple(tuple(perm[alg.d[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
    return SlominskiAlgebra(name or alg.name + "'", perm[alg.zero], p, d)


# ---------------------------------------------------------------------------
# hom enumeration


def hom_tables(
    A: SlominskiAlgebra, B: SlominskiAlgebra, forced: Optional[dict[int, int]] = None
) -> list[tuple[int, ...]]:
    """All hom tables A -> B agreeing with the partial map forced, in
    lexicographic order.

    0 |-> 0 and the forced values are assigned first.  Whenever an element x
    is assigned it is paired, both ways, with every element assigned before
    it: the image of d(x, y) is then determined, and is assigned, or
    compared with the value already there (a clash cuts the branch).  So
    every pair is checked once per table (d(x, x) = 0 needs no check).
    Checking d is enough: on a finite carrier p(-, y) is the inverse of
    d(-, y), so a map that preserves d preserves p.  In a group the assigned
    set is always a subgroup, since p(x, y) = d(x, d(0, y)).  Branching is
    only on the least unassigned element, with its values in ascending
    order, which puts the tables in lexicographic order: seeded generators
    pick from this list by index.
    """
    n, m = A.n, B.n
    Ad, Bd = A.d, B.d
    table = [-1] * n
    order: list[int] = []  # assigned elements, in the order they were assigned

    def propagate(done: int) -> bool:
        # order[:done] is closed under d and consistent; pair each later
        # element with everything assigned before it.  d(x, y) and d(y, x)
        # are written out because a loop over the two costs twice as much,
        # and this is the enumerator's inner loop.
        while done < len(order):
            x = order[done]
            fx = table[x]
            Adx, Bdx = Ad[x], Bd[fx]
            for y in order[:done]:
                fy = table[y]
                z, w = Adx[y], Bdx[fy]
                t = table[z]
                if t != w:
                    if t >= 0:
                        return False
                    table[z] = w
                    order.append(z)
                z, w = Ad[y][x], Bd[fy][fx]
                t = table[z]
                if t != w:
                    if t >= 0:
                        return False
                    table[z] = w
                    order.append(z)
            done += 1
        return True

    out: list[tuple[int, ...]] = []

    def branch(x: int) -> None:
        while x < n and table[x] >= 0:
            x += 1
        if x == n:
            out.append(tuple(table))
            return
        mark = len(order)
        for v in range(m):
            table[x] = v
            order.append(x)
            if propagate(mark):
                branch(x + 1)
            for z in order[mark:]:
                table[z] = -1
            del order[mark:]

    for x, v in ((A.zero, B.zero), *(forced or {}).items()):
        if table[x] >= 0:
            if table[x] != v:
                return []
            continue
        table[x] = v
        order.append(x)
    if propagate(0):
        branch(0)
    return out


@lru_cache(maxsize=None)
def enumerate_homs(A: SlominskiAlgebra, B: SlominskiAlgebra) -> tuple[SlominskiHom, ...]:
    """All homs A -> B, in lexicographic order of their tables (see hom_tables)."""
    return tuple(SlominskiHom(A, B, t) for t in hom_tables(A, B))


def identity_hom(A: SlominskiAlgebra) -> SlominskiHom:
    return SlominskiHom(A, A, tuple(range(A.n)), name=f"id_{A.name}")


def compose_homs(g: SlominskiHom, f: SlominskiHom) -> SlominskiHom:
    if f.cod != g.dom:
        raise ValidationError("hom composition endpoint mismatch")
    name = f"{g.name}.{f.name}" if f.name and g.name else ""
    return SlominskiHom(f.dom, g.cod, tuple(g.table[x] for x in f.table), name=name)


def close_homs(
    algebras: Sequence[SlominskiAlgebra], homs: Sequence[SlominskiHom]
) -> tuple[SlominskiHom, ...]:
    """Identities plus the composition closure of the given homs."""
    pool: dict[tuple, SlominskiHom] = {}

    def key(h):
        return (h.dom.name, h.cod.name, h.table)

    for a in algebras:
        h = identity_hom(a)
        pool[key(h)] = h
    for h in homs:
        pool.setdefault(key(h), h)
    frontier = list(pool.values())
    while frontier:
        h = frontier.pop()
        for g in list(pool.values()):
            for comp in ((g, h), (h, g)):
                if comp[1].cod == comp[0].dom:
                    c = compose_homs(*comp)
                    if key(c) not in pool:
                        pool[key(c)] = c
                        frontier.append(c)
    return tuple(pool.values())


# ---------------------------------------------------------------------------
# the form over Slominski algebras


class SlominskiForm(Form):
    """Form whose objects are Slominski algebras.

    Without declared morphisms it acts as an open universe (used by the
    diagram and pyramid machinery, where embeddings and projections are
    constructed on demand).  as_form() builds a declared, validated form
    suitable for the axiom suite.
    """

    def __init__(self, name: str = "slominski"):
        self.name = name
        self.objects: dict[str, FormObject] = {}
        self._by_algebra: dict[SlominskiAlgebra, FormObject] = {}
        self._ids_taken: set[str] = set()
        self.morphisms: tuple[Morphism, ...] = ()
        self._sub_cache: dict[tuple, tuple[FormObject, Morphism]] = {}
        self._quot_cache: dict[tuple, tuple[FormObject, Morphism]] = {}

    # objects and morphisms --------------------------------------------

    def object_of(
        self, alg: SlominskiAlgebra, name: Optional[str] = None, declare: bool = False
    ) -> FormObject:
        """Form object for an algebra.  Only declared objects enter
        self.objects; derived ones (quotients, subalgebra copies) are kept in
        a side registry so the axiom suite sees the declared form only."""
        return self._object(alg, lambda: subalgebra_lattice(alg), name, declare)

    def _object(self, alg, make_lattice, name=None, declare=False) -> FormObject:
        """object_of, with make_lattice() building a new object's lattice."""
        got = self._by_algebra.get(alg)
        if got is not None:
            if declare:
                self.objects.setdefault(got.id, got)
            return got
        oid = name or alg.name
        if oid in self._ids_taken:
            oid = f"{oid}#{len(self._ids_taken)}"
        obj = FormObject(oid, make_lattice(), algebra=alg)
        self._ids_taken.add(oid)
        if declare:
            self.objects[oid] = obj
        self._by_algebra[alg] = obj
        return obj

    def morphism(self, hom: SlominskiHom, name: Optional[str] = None) -> Morphism:
        dom = self.object_of(hom.dom)
        cod = self.object_of(hom.cod)
        return element_morphism(dom, cod, hom.table, name or hom.name)

    def declare(self, algebras: Sequence[SlominskiAlgebra], homs: Sequence[SlominskiHom]) -> None:
        """Declare the algebras and homs as this form's objects and morphisms.

        Raises ClosureError when a hom uses an undeclared algebra, an
        identity is missing, or the element tables are not closed under
        composition; closure is decided from generators (first_uncomposed),
        and the error names the first missing composite in g-major order.
        """
        objs = [self.object_of(a, declare=True) for a in algebras]
        mors = []
        for h in homs:
            h.validate()
            if h.dom not in self._by_algebra or h.cod not in self._by_algebra:
                raise ClosureError(f"hom {h.name or h.table} uses an undeclared algebra")
            mors.append(self.morphism(h))
        self.morphisms = tuple(mors)
        tables = {element_key(m) for m in mors}
        for o in objs:
            if (o.id, o.id, tuple(range(o.algebra.n))) not in tables:
                raise ClosureError(f"identity of {o.id} is not declared")
        pair = first_uncomposed(mors, element_key, composite_element_key)
        if pair is not None:
            g, f = pair
            raise ClosureError(
                f"composite of ({g.name or repr(g)}, {f.name or repr(f)}) is not declared"
            )

    def identity(self, obj):
        return identity_morphism(obj)

    # intrinsic notions --------------------------------------------------

    def is_normal(self, S: Subobject) -> bool:
        return is_normal_subalgebra(S.owner.algebra, S.key)

    def is_conormal(self, S: Subobject) -> bool:
        return True

    def subobject_object(self, S: Subobject, perm=None) -> tuple[FormObject, Morphism]:
        """S as an algebra, with its inclusion; perm(n) relabels its carrier.

        The subalgebras of S are the interval [0, S] of its owner's lattice,
        so S's lattice is that interval, relabelled along the inclusion,
        instead of enumerated.
        """
        ck = (S.owner.id, S.key)
        if perm is None and ck in self._sub_cache:
            return self._sub_cache[ck]
        sub, incl = subalgebra_algebra(S.owner.algebra, S.key)
        if perm is not None:
            p = tuple(perm(sub.n))
            inv = [0] * sub.n
            for i, v in enumerate(p):
                inv[v] = i
            sub = permuted(sub, p, name=sub.name + "~")
            incl = SlominskiHom(sub, incl.cod, tuple(incl.table[inv[i]] for i in range(sub.n)))
        lat, top = S.owner.lattice, S.owner.lattice.mask(S.key)
        obj = self._object(sub, lambda: _lattice_along(
            sub, [m for m in lat.masks if not m & ~top], incl.table))
        mor = element_morphism(obj, S.owner, incl.table, f"iota_{S.owner.id}{list(S.key)}")
        if perm is None:
            self._sub_cache[ck] = (obj, mor)
        return obj, mor

    def quotient_object(self, S: Subobject, perm=None) -> tuple[FormObject, Morphism]:
        """G/N for a normal N, with its projection; perm(n) relabels its
        carrier.

        By AX2 the projection π gives a correspondence: the subalgebras of
        G/N are the images π(A) of the subalgebras A >= N of G.  Each such A
        is a union of classes, since x = p(d(x, a), a) and d(x, a) lies in
        N when x and a are in one class; so π(A) is read at one element of
        each class, and G/N's lattice is read off G's instead of enumerated.
        """
        ck = (S.owner.id, S.key)
        if perm is None and ck in self._quot_cache:
            return self._quot_cache[ck]
        try:
            q, proj = quotient(S.owner.algebra, S.key)
        except UnsupportedSubobjectError as exc:
            raise UnsupportedSubobjectError(str(exc), subobject=S) from None
        if perm is not None:
            p = tuple(perm(q.n))
            q = permuted(q, p, name=q.name + "~")
            proj = SlominskiHom(proj.dom, q, tuple(p[v] for v in proj.table))
        lat, bottom = S.owner.lattice, S.owner.lattice.mask(S.key)
        reps = [0] * q.n
        for x, c in enumerate(proj.table):
            reps[c] = x
        obj = self._object(q, lambda: _lattice_along(
            q, [m for m in lat.masks if m & bottom == bottom], reps))
        mor = element_morphism(S.owner, obj, proj.table, f"pi_{S.owner.id}/{list(S.key)}")
        if perm is None:
            self._quot_cache[ck] = (obj, mor)
        return obj, mor

    def epi_mono(self, f: Morphism, perm=None) -> tuple[Morphism, Morphism]:
        """Corestriction onto the image algebra, then inclusion."""
        m = self.subobject_object(image(f), perm=perm)[1]
        return self.mediating_embedding(f, m), m

    def zero_morphism(self, X: FormObject, Y: FormObject) -> Morphism:
        return element_morphism(X, Y, (Y.algebra.zero,) * X.algebra.n, "0")


def _lattice_along(alg: SlominskiAlgebra, masks: Sequence[int], source: Sequence[int]) -> MaskLattice:
    """alg's lattice, given its subalgebras as masks over another carrier:
    element j of alg lies in the subalgebra of mask m when source[j] is in
    m.  MaskLattice sorts the masks, so the keys come in the order that
    subalgebra_lattice(alg) gives."""
    return MaskLattice(
        alg.n,
        [sum(1 << j for j, x in enumerate(source) if (m >> x) & 1) for m in masks],
        lambda m: close_mask(alg, m))


def element_morphism(dom: FormObject, cod: FormObject, table: Sequence[int], name: str = "") -> Morphism:
    """Build a Morphism from a carrier-level map; image maps are elementwise
    (see _image_tables)."""
    table = tuple(table)
    d, i = _image_tables(dom.lattice, cod.lattice, table, dom.algebra.n)
    return Morphism(dom, cod, d, i, name=name, element_map=table)


@lru_cache(maxsize=None)
def _image_tables(dl: MaskLattice, cl: MaskLattice, table: tuple[int, ...],
                  n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The direct and inverse image tables (Morphism.d and .i) of the carrier
    map table, from dl's carrier of size n to cl's.

    Raises LatticeError when an image is not a subalgebra, i.e. table is not
    a hom; lru_cache keeps no exception, so every such call raises.  A
    MaskLattice hashes by identity, and the cache holds the lattices it is
    keyed on, so no key can be taken by another lattice.
    """
    d = tuple([cl.position_of_mask(mask_of([table[x] for x in key])) for key in dl.keys])
    carrier = range(n)
    i = tuple([dl.position_of_mask(mask_of([x for x in carrier if (want >> table[x]) & 1]))
               for want in cl.masks])
    return d, i


def as_form(
    algebras: Sequence[SlominskiAlgebra],
    homs: Sequence[SlominskiHom],
    name: str = "slominski",
) -> SlominskiForm:
    """Declared Slominski form.

    The hom set must contain the identities and be closed under composition;
    violations raise ClosureError naming the offending pair (see
    SlominskiForm.declare).
    """
    form = SlominskiForm(name)
    form.declare(algebras, homs)
    return form
