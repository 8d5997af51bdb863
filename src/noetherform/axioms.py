"""Executable axiom harness for finite forms.

axiom_suite runs one check per lettered requirement (P1-P3, BL, G, I, A, F1,
F2, AX2 equations, AX3, AX4, AX5, optional AX6) and reports a witness for
the first failure of each.  Closure under composition (check A) is
exhaustive, decided from generators by core.first_uncomposed, and check I
compares every morphism with its identity composites.  Checks whose
exhaustive cost explodes with the morphism count (associativity triples, F2
pairs) fall back to a deterministic sample, compared as gathered image
tables without building composite morphisms; everything else is exhaustive.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
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

TRIPLE_BUDGET = 20_000
PAIR_BUDGET = 20_000


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[str] = None

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


def _first_fail(gen) -> Optional[str]:
    for witness in gen:
        return witness
    return None


def axiom_suite(form: Form, include_axiom6: bool = False) -> AxiomReport:
    report = AxiomReport(form.name)
    add = report.checks.append

    objs = sorted(form.objects.values(), key=lambda o: o.id)
    mors = list(form.morphisms)

    def check(name, gen):
        w = _first_fail(gen)
        add(AxiomCheck(name, w is None, w))

    check("P1", (f"{o.id}: {k!r} not <= itself" for o in objs for k in o.lattice.keys
                 if not o.lattice.leq(k, k)))
    check("P2", (f"{o.id}: {a!r}<={b!r}<={c!r} but not {a!r}<={c!r}"
                 for o in objs for a in o.lattice.keys for b in o.lattice.keys
                 if o.lattice.leq(a, b) for c in o.lattice.keys
                 if o.lattice.leq(b, c) and not o.lattice.leq(a, c)))
    check("P3", (f"{o.id}: {a!r} and {b!r} mutually <= but distinct"
                 for o in objs for a in o.lattice.keys for b in o.lattice.keys
                 if a != b and o.lattice.leq(a, b) and o.lattice.leq(b, a)))
    check("BL", _bl_failures(objs))
    check("G", (f"{m.name or repr(m)}: adjunction fails at A={a!r}, C={c!r}"
                for m in mors for dl, cl in [(m.dom.lattice, m.cod.lattice)]
                for p, a in enumerate(dl.keys) for q, c in enumerate(cl.keys)
                if dl.leq(a, dl.keys[m.i[q]]) != cl.leq(cl.keys[m.d[p]], c)))
    check("I", _identity_failures(form, objs, mors))
    check("A", _assoc_failures(form, mors))
    check("F1", (f"id_{o.id} moves {k!r}"
                 for o in objs for ident in [_safe_identity(form, o)] if ident is not None
                 for p, k in enumerate(o.lattice.keys)
                 if ident.d[p] != p or ident.i[p] != p))
    check("F2", _functor_failures(mors))
    check("AX2", _ax2_failures(mors))
    check("AX3", _ax3_failures(form, objs))
    check("AX4", _ax4_failures(form, mors))
    check("AX5", _ax5_failures(form, objs))
    if include_axiom6:
        check("AX6", (f"{o.id}: bottom not conormal" for o in objs
                      if not form.is_conormal(o.bottom)))
        last = report.checks[-1]
        if last.passed:
            w = _first_fail(f"{o.id}: top not normal" for o in objs
                            if not form.is_normal(o.top))
            if w is not None:
                report.checks[-1] = AxiomCheck("AX6", False, w)
    return report


def _safe_identity(form, obj):
    try:
        return form.identity(obj)
    except FormError:
        return None


def _bl_failures(objs):
    for o in objs:
        lat = o.lattice
        keys = lat.keys
        if any(not lat.leq(lat.bottom, k) for k in keys):
            yield f"{o.id}: declared bottom is not least"
            return
        if any(not lat.leq(k, lat.top) for k in keys):
            yield f"{o.id}: declared top is not greatest"
            return
        for a in keys:
            for b in keys:
                try:
                    j = lat.join(a, b)
                    m = lat.meet(a, b)
                except FormError as exc:
                    yield f"{o.id}: {exc}"
                    return
                if not (lat.leq(a, j) and lat.leq(b, j)):
                    yield f"{o.id}: join({a!r},{b!r}) is not an upper bound"
                    return
                if any(lat.leq(a, u) and lat.leq(b, u) and not lat.leq(j, u) for u in keys):
                    yield f"{o.id}: join({a!r},{b!r}) is not least"
                    return
                if not (lat.leq(m, a) and lat.leq(m, b)):
                    yield f"{o.id}: meet({a!r},{b!r}) is not a lower bound"
                    return
                if any(lat.leq(u, a) and lat.leq(u, b) and not lat.leq(u, m) for u in keys):
                    yield f"{o.id}: meet({a!r},{b!r}) is not greatest"
                    return


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
    # every morphism against its composites with the identities, compared as
    # gathered image tables: 2|M| comparisons and no composite morphisms
    for m in mors:
        left = idents.get(m.cod.id) or _safe_identity(form, m.cod)
        right = idents.get(m.dom.id) or _safe_identity(form, m.dom)
        name = m.name or repr(m)
        if _gather(left.d, m.d) != m.d or _gather(m.i, left.i) != m.i:
            yield f"id.{name} != {name}"
            return
        if _gather(m.d, right.d) != m.d or _gather(right.i, m.i) != m.i:
            yield f"{name}.id != {name}"
            return


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


def _assoc_failures(form, mors):
    # closure under composition, decided from generators: the composite's
    # image tables must be those of a declared morphism (Morphism.__eq__)
    pair = first_uncomposed(mors, _image_key, _composite_image_key)
    if pair is not None:
        g, f = pair
        yield f"composite ({g.name or repr(g)}).({f.name or repr(f)}) not in the form"
        return
    # associativity on (sampled) triples; extensional composition makes this
    # a consistency check rather than a search for deep failures
    triples = list(islice(((h, g, f) for h in mors for g in mors if g.cod.id == h.dom.id
                           for f in mors if f.cod.id == g.dom.id), TRIPLE_BUDGET + 1))
    if len(triples) > TRIPLE_BUDGET:
        triples = random.Random(11).sample(triples, TRIPLE_BUDGET)
    for h, g, f in triples:
        hd, gd, fd, hi, gi, fi = h.d, g.d, f.d, h.i, g.i, f.i
        hgd, gfd = [hd[x] for x in gd], [gd[x] for x in fd]
        hgi, gfi = [gi[x] for x in hi], [fi[x] for x in gi]
        if ([hgd[x] for x in fd] != [hd[x] for x in gfd]
                or [fi[x] for x in hgi] != [gfi[x] for x in hi]):
            yield f"associativity fails on ({h.name},{g.name},{f.name})"
            return


def _functor_failures(mors):
    # F2 has independent content only for element-realized morphisms: there
    # the declared composite is identified by its element table and must
    # carry the composed image maps.  Elsewhere composites are identified
    # extensionally, so the closure check already covers F2.  The element
    # tables must be closed first, as check A decides closure by image maps.
    if not mors or any(m.element_map is None for m in mors):
        return
    pair = first_uncomposed(mors, _element_key, _composite_element_key)
    if pair is not None:
        g, f = pair
        yield f"element table of ({g.name or repr(g)}).({f.name or repr(f)}) is not declared"
        return
    by_cod = {}
    for f in mors:
        by_cod.setdefault(f.cod.id, []).append(f)
    # the composable pairs in g-major order, or PAIR_BUDGET of them drawn by
    # their positions in that order
    counts = [len(by_cod.get(g.dom.id, ())) for g in mors]
    ends = list(accumulate(counts))
    if ends[-1] > PAIR_BUDGET:
        def nth(j):
            k = bisect_right(ends, j)
            g = mors[k]
            return g, by_cod[g.dom.id][j - ends[k] + counts[k]]
        pairs = map(nth, random.Random(13).sample(range(ends[-1]), PAIR_BUDGET))
    else:
        pairs = ((g, f) for g in mors for f in by_cod.get(g.dom.id, ()))
    by_table = {}
    for m in mors:
        by_table.setdefault(_element_key(m), m)
    for g, f in pairs:
        declared = by_table[_composite_element_key(g, f)]
        if declared.d != _gather(g.d, f.d) or declared.i != _gather(f.i, g.i):
            yield f"image maps of ({g.name}).({f.name}) do not compose"
            return


def _ax2_failures(mors):
    for m in mors:
        dl, cl, d, i = m.dom.lattice, m.cod.lattice, m.d, m.i
        ker = kernel(m).key
        img = image(m).key
        for q, b in enumerate(cl.keys):
            if cl.keys[d[i[q]]] != cl.meet(b, img):
                yield f"{m.name or repr(m)}: f f^-1 B != B ^ Im f at B={b!r}"
                return
        for p, a in enumerate(dl.keys):
            if dl.keys[i[d[p]]] != dl.join(a, ker):
                yield f"{m.name or repr(m)}: f^-1 f A != A v Ker f at A={a!r}"
                return


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
        conormals = [S for S in o.subobjects() if form.is_conormal(S)]
        for a in conormals:
            for b in conormals:
                m = Subobject(o, lat.meet(a.key, b.key))
                if not form.is_conormal(m):
                    yield f"{o.id}: meet of conormals {a.key!r},{b.key!r} not conormal"
                    return
