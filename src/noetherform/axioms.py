"""Executable axiom harness for finite forms.

axiom_suite runs one check per lettered requirement (P1-P3, BL, G, I, A, F1,
F2, AX2 equations, AX3, AX4, AX5, optional AX6) and reports a witness for
the first failure of each.  No check samples.  Each AxiomCheck says whether
it is exhaustive (every instance compared) or derived (generating instances
compared, the rest following from them), and how many instances it compared.

- A is derived: closure under composition is decided from generators by
  core.first_uncomposed, and associativity holds by construction, since
  composing position tuples is composing functions.
- F2 is derived.  For element-realized morphisms the element tables must be
  closed, the map from an element table to the image tables of the
  morphisms that carry it must be well defined, and it must preserve
  composition, decided from generators on the combined key.  Without
  element tables composites are identified by their image tables, so the
  closure of check A is F2.
- Every other check is exhaustive.  The order checks (P1-P3, BL, G) and AX2
  read dense tables built once per lattice within the call: up-sets and
  down-sets of positions as bitsets, rows of joins and meets by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .core import (
    Form,
    Subobject,
    first_uncomposed,
    image,
    is_injective,
    is_isomorphism,
    is_surjective,
    kernel,
)
from .errors import FormError


@dataclass
class AxiomCheck:
    """One line of the report.  mode is "exhaustive" or "derived"; cases is
    the number of instances compared up to the verdict (for a derived check,
    the generating instances only)."""

    name: str
    passed: bool
    witness: Optional[str] = None
    mode: str = "exhaustive"
    cases: int = 0

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" [{self.witness}]" if self.witness and not self.passed else ""
        return f"{status} {self.name}{tail}"


@dataclass
class AxiomReport:
    form: str
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        lines.append(f"{'PASS' if self.passed else 'FAIL'} axioms({self.form})")
        return "\n".join(lines)


def _first_fail(results) -> tuple[Optional[str], int]:
    """The first witness and the number of instances compared.  results
    yields None for one instance that holds, an int for that many, and a
    witness string for one that fails."""
    cases = 0
    for r in results:
        if isinstance(r, str):
            return r, cases + 1
        cases += 1 if r is None else r
    return None, cases


class _Orders:
    """Dense tables of the lattices met in one axiom_suite call, each built
    on first use."""

    def __init__(self):
        self._sets: dict = {}
        self._rows: dict = {}

    def sets(self, lat):
        """(up, down, above): up[p] has bit q and down[q] has bit p when
        keys[p] <= keys[q]; above[p] lists those q in order."""
        if lat not in self._sets:
            keys, leq = lat.keys, lat.leq
            up, down = [0] * len(keys), [0] * len(keys)
            for p, a in enumerate(keys):
                for q, b in enumerate(keys):
                    if leq(a, b):
                        up[p] |= 1 << q
                        down[q] |= 1 << p
            above = [tuple(q for q in range(len(keys)) if u >> q & 1) for u in up]
            self._sets[lat] = up, down, above
        return self._sets[lat]

    def row(self, lat, op, x):
        """The positions of op(keys[x], k) for every key k, op being "join"
        or "meet"."""
        if (lat, op, x) not in self._rows:
            bound, keys, index = getattr(lat, op), lat.keys, lat.index
            self._rows[lat, op, x] = tuple([index[bound(keys[x], k)] for k in keys])
        return self._rows[lat, op, x]

    def row_is(self, lat, op, x, got) -> bool:
        """Whether got is that row; False when a bound is missing, so that
        the caller's per-key scan meets the missing bound where it would."""
        try:
            return got == self.row(lat, op, x)
        except FormError:
            return False


def axiom_suite(form: Form, include_axiom6: bool = False) -> AxiomReport:
    report = AxiomReport(form.name)
    objs = sorted(form.objects.values(), key=lambda o: o.id)
    mors = list(form.morphisms)
    orders = _Orders()

    def check(name, results, mode="exhaustive"):
        w, cases = _first_fail(results)
        report.checks.append(AxiomCheck(name, w is None, w, mode, cases))

    check("P1", _reflexivity_failures(objs, orders))
    check("P2", _transitivity_failures(objs, orders))
    check("P3", _antisymmetry_failures(objs, orders))
    check("BL", _bl_failures(objs, orders))
    check("G", _galois_failures(mors, orders))
    check("I", _identity_failures(form, objs, mors))
    check("A", _closure_failures(mors), "derived")
    check("F1", (None if ident.d[p] == p and ident.i[p] == p else f"id_{o.id} moves {k!r}"
                 for o in objs for ident in [_safe_identity(form, o)] if ident is not None
                 for p, k in enumerate(o.lattice.keys)))
    check("F2", _functor_failures(mors), "derived")
    check("AX2", _ax2_failures(mors, orders))
    check("AX3", _ax3_failures(form, objs))
    check("AX4", _ax4_failures(form, mors))
    check("AX5", _ax5_failures(form, objs))
    if include_axiom6:
        check("AX6", chain(
            (None if form.is_conormal(o.bottom) else f"{o.id}: bottom not conormal"
             for o in objs),
            (None if form.is_normal(o.top) else f"{o.id}: top not normal" for o in objs)))
    return report


def _safe_identity(form, obj):
    try:
        return form.identity(obj)
    except FormError:
        return None


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _reflexivity_failures(objs, orders):
    for o in objs:
        up = orders.sets(o.lattice)[0]
        for p, k in enumerate(o.lattice.keys):
            yield None if up[p] >> p & 1 else f"{o.id}: {k!r} not <= itself"


def _transitivity_failures(objs, orders):
    for o in objs:
        keys = o.lattice.keys
        up, _, above = orders.sets(o.lattice)
        for p, a in enumerate(keys):
            for n, q in enumerate(above[p]):
                beyond = up[q] & ~up[p]
                if beyond:
                    b, c = keys[q], keys[_lowest(beyond)]
                    yield n
                    yield f"{o.id}: {a!r}<={b!r}<={c!r} but not {a!r}<={c!r}"
                    return
            yield len(above[p])


def _antisymmetry_failures(objs, orders):
    for o in objs:
        keys = o.lattice.keys
        up, down, _ = orders.sets(o.lattice)
        for p, a in enumerate(keys):
            both = up[p] & down[p] & ~(1 << p)
            yield (None if not both
                   else f"{o.id}: {a!r} and {keys[_lowest(both)]!r} mutually <= but distinct")


def _bl_failures(objs, orders):
    for o in objs:
        lat = o.lattice
        keys, index = lat.keys, lat.index
        up, down, _ = orders.sets(lat)
        every = (1 << len(keys)) - 1
        if up[index[lat.bottom]] != every:
            yield f"{o.id}: declared bottom is not least"
            return
        if down[index[lat.top]] != every:
            yield f"{o.id}: declared top is not greatest"
            return
        for p, a in enumerate(keys):
            for q, b in enumerate(keys):
                try:
                    j = index[lat.join(a, b)]
                    m = index[lat.meet(a, b)]
                except FormError as exc:
                    yield f"{o.id}: {exc}"
                    return
                uppers, lowers = up[p] & up[q], down[p] & down[q]
                if not uppers >> j & 1:
                    yield f"{o.id}: join({a!r},{b!r}) is not an upper bound"
                elif uppers & ~up[j]:
                    yield f"{o.id}: join({a!r},{b!r}) is not least"
                elif not lowers >> m & 1:
                    yield f"{o.id}: meet({a!r},{b!r}) is not a lower bound"
                elif lowers & ~down[m]:
                    yield f"{o.id}: meet({a!r},{b!r}) is not greatest"
                else:
                    yield None
                    continue
                return


def _galois_failures(mors, orders):
    # d is left adjoint to i when A <= i(C) iff d(A) <= C for every A and C.
    # Row by row: the C with A <= i(C), gathered from the preimages of i
    # under the up-set of A, must be the up-set of d(A).  A failing row is
    # scanned pair by pair to name its first C.
    for m in mors:
        dl, cl, d, i = m.dom.lattice, m.cod.lattice, m.d, m.i
        dup, _, above = orders.sets(dl)
        cup = orders.sets(cl)[0]
        preimage = [0] * len(dl.keys)  # disjoint bitsets, so sums are unions
        for q, x in enumerate(i):
            preimage[x] |= 1 << q
        for p, y in enumerate(d):
            if sum(map(preimage.__getitem__, above[p])) == cup[y]:
                continue
            for q, x in enumerate(i):
                if (dup[p] >> x & 1) != (cup[y] >> q & 1):
                    yield p * len(i) + q
                    yield (f"{m.name or repr(m)}: adjunction fails at "
                           f"A={dl.keys[p]!r}, C={cl.keys[q]!r}")
                    return
        yield len(d) * len(i)


def _identity_failures(form, objs, mors):
    idents = {}
    for o in objs:
        ident = _safe_identity(form, o)
        if ident is None:
            yield f"{o.id}: no identity morphism"
            return
        if mors and ident not in mors:
            yield f"{o.id}: identity not among declared morphisms"
            return
        idents[o.id] = ident
        yield None
    # every morphism against its composites with the identities, compared as
    # gathered image tables: 2|M| comparisons and no composite morphisms
    for m in mors:
        left = idents.get(m.cod.id) or _safe_identity(form, m.cod)
        right = idents.get(m.dom.id) or _safe_identity(form, m.dom)
        name = m.name or repr(m)
        if _gather(left.d, m.d) != m.d or _gather(m.i, left.i) != m.i:
            yield f"id.{name} != {name}"
            return
        yield None
        if _gather(m.d, right.d) != m.d or _gather(right.i, m.i) != m.i:
            yield f"{name}.id != {name}"
            return
        yield None


def _gather(table, positions):
    """The table of a composite: _gather(g.d, f.d) is (g . f).d and
    _gather(f.i, g.i) is (g . f).i."""
    return tuple([table[x] for x in positions])


def _image_key(m):
    return (m.dom.id, m.cod.id, m.d, m.i)


def _composite_image_key(g, f):
    return (f.dom.id, g.cod.id, _gather(g.d, f.d), _gather(f.i, g.i))


def _element_key(m):
    return (m.dom.id, m.cod.id, m.element_map)


def _composite_element_key(g, f):
    return (f.dom.id, g.cod.id, _gather(g.element_map, f.element_map))


def _functor_key(m):
    return (m.dom.id, m.cod.id, m.element_map, m.d, m.i)


def _composite_functor_key(g, f):
    return (f.dom.id, g.cod.id, _gather(g.element_map, f.element_map),
            _gather(g.d, f.d), _gather(f.i, g.i))


def _uncomposed(mors, key, compose_key):
    """first_uncomposed's pair and the number of composites it took."""
    taken = [0]

    def counted(g, f):
        taken[0] += 1
        return compose_key(g, f)

    return first_uncomposed(mors, key, counted), taken[0]


def _pair_name(pair):
    g, f = pair
    return f"({g.name or repr(g)}).({f.name or repr(f)})"


def _closure_failures(mors):
    # closure under composition, decided from generators: the composite's
    # image tables must be those of a declared morphism (Morphism.__eq__);
    # associativity needs no check, as composites are gathers of tables
    pair, taken = _uncomposed(mors, _image_key, _composite_image_key)
    if pair is None:
        yield taken
        return
    yield taken - 1
    yield f"composite {_pair_name(pair)} not in the form"


def _functor_failures(mors):
    # F2 has independent content only for element-realized morphisms: there
    # the declared composite is identified by its element table and must
    # carry the composed image maps.  Elsewhere composites are identified
    # extensionally, so the closure check already covers F2.  The element
    # tables must be closed first, as check A decides closure by image maps.
    if not mors or any(m.element_map is None for m in mors):
        return
    # With closed element tables and a well-defined phi, phi(g . f) =
    # phi(g) . phi(f) for every pair exactly when the combined key of every
    # composite is declared.  A declared combined key declares its element
    # table, so the element-table pass, whose failure is named first, runs
    # only when the combined pass fails.
    combined, taken = _uncomposed(mors, _functor_key, _composite_functor_key)
    if combined is not None:
        pair, more = _uncomposed(mors, _element_key, _composite_element_key)
        taken += more
        if pair is not None:
            yield taken - 1
            yield f"element table of {_pair_name(pair)} is not declared"
            return
    yield taken
    # phi, from an element table to the image tables of the morphisms that
    # carry it, must be a function
    phi = {}
    for m in mors:
        first = phi.setdefault(_element_key(m), m)
        if (first.d, first.i) != (m.d, m.i):
            yield (f"{first.name or repr(first)} and {m.name or repr(m)} have one "
                   f"element table but different image maps")
            return
        yield None
    if combined is not None:
        yield f"image maps of {_pair_name(combined)} do not compose"


def _ax2_failures(mors, orders):
    # f f^-1 B = B ^ Im f and f^-1 f A = A v Ker f, each compared for all B
    # (all A) at once against a row of meets (joins) with Im f (Ker f); a
    # failing row is scanned key by key to name its first B (A)
    for m in mors:
        dl, cl, d, i = m.dom.lattice, m.cod.lattice, m.d, m.i
        ker = i[cl.index[cl.bottom]]
        img = d[dl.index[dl.top]]
        if not orders.row_is(cl, "meet", img, _gather(d, i)):
            for q, b in enumerate(cl.keys):
                if cl.keys[d[i[q]]] != cl.meet(b, cl.keys[img]):
                    yield q
                    yield f"{m.name or repr(m)}: f f^-1 B != B ^ Im f at B={b!r}"
                    return
        yield len(i)
        if not orders.row_is(dl, "join", ker, _gather(i, d)):
            for p, a in enumerate(dl.keys):
                if dl.keys[i[d[p]]] != dl.join(a, dl.keys[ker]):
                    yield p
                    yield f"{m.name or repr(m)}: f^-1 f A != A v Ker f at A={a!r}"
                    return
        yield len(d)


def _ax3_failures(form, objs):
    for o in objs:
        for S in o.subobjects():
            if form.is_conormal(S):
                try:
                    emb = form.embedding_of(S)
                except FormError as exc:
                    yield f"embedding_of({S!r}): {exc}"
                    return
                if image(emb) != S:
                    yield f"embedding_of({S!r}) has image {image(emb)!r}"
                    return
                if not is_injective(emb):
                    yield f"embedding_of({S!r}) is not injective"
                    return
            if form.is_normal(S):
                try:
                    proj = form.projection_of(S)
                except FormError as exc:
                    yield f"projection_of({S!r}): {exc}"
                    return
                if kernel(proj) != S:
                    yield f"projection_of({S!r}) has kernel {kernel(proj)!r}"
                    return
                if not is_surjective(proj):
                    yield f"projection_of({S!r}) is not surjective"
                    return
            yield None


def _ax4_failures(form, mors):
    for f in mors:
        try:
            fac = form.factorize(f)
        except FormError as exc:
            yield f"factorize({f.name or repr(f)}): {exc}"
            return
        if fac.composite != f:
            yield f"factorize({f.name or repr(f)}): composite differs"
            return
        if not is_isomorphism(fac.h):
            yield f"factorize({f.name or repr(f)}): middle map is not an isomorphism"
            return
        if kernel(fac.e) != kernel(f) or not is_surjective(fac.e):
            yield f"factorize({f.name or repr(f)}): projection part is wrong"
            return
        if image(fac.m) != image(f) or not is_injective(fac.m):
            yield f"factorize({f.name or repr(f)}): embedding part is wrong"
            return
        yield None


def _ax5_failures(form, objs):
    for o in objs:
        lat = o.lattice
        normals = [S for S in o.subobjects() if form.is_normal(S)]
        for a in normals:
            for b in normals:
                j = Subobject(o, lat.join(a.key, b.key))
                if not form.is_normal(j):
                    yield f"{o.id}: join of normals {a.key!r},{b.key!r} not normal"
                    return
                yield None
        conormals = [S for S in o.subobjects() if form.is_conormal(S)]
        for a in conormals:
            for b in conormals:
                m = Subobject(o, lat.meet(a.key, b.key))
                if not form.is_conormal(m):
                    yield f"{o.id}: meet of conormals {a.key!r},{b.key!r} not conormal"
                    return
                yield None
