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
- When every morphism carries an element table, one walk over the combined
  key (element table and image tables) serves both.  F2 reads it, and A
  passes from it when it closes, since a morphism's image key and that of
  a composite are projections of its combined key and of the composite's.
  When it finds a gap, A walks the image keys itself, so A's verdict and
  witness never depend on F2's.
- Every other check is exhaustive.  P1-P3 and BL read the up-set and
  down-set bitsets that every lattice holds (lattice.py).  G compares two
  relations per morphism, one byte per (A, C) pair, each built from the
  down-sets by C-level calls (bytes.join, bytes.translate); a morphism
  whose relations differ, or whose codomain has more than 256 subobjects,
  is scanned row by row on the bitsets, which names the first failing
  (A, C) in A-major order.  AX2 compares each morphism's gathered image
  tables with rows of joins and meets by position, built once per lattice
  within the check.  A missing
  join or meet is a failure of BL, AX2 or AX5 with the lattice's message as
  its witness, never an exception.  A mask lattice's join closes nothing:
  it walks one chain of its own join columns (MaskLattice.join), and BL
  judges its answers against up and down like any lattice's.
- P1 and P2 are guarded by construction: no lattice the engine builds can
  fail them.  A TableLattice's up-sets are the reflexive-transitive
  closure of its declared pairs, a mask lattice is ordered by inclusion,
  and a dual lattice swaps its base's.  P3 can fail: a form block whose
  order has a cycle (a <= b and b <= a) gives two keys mutually <=.
- AX4 is decided on image tables.  For f = m . h . e, the form's
  projection_of gives e once per kernel and its embedding_of gives m once
  per image (per object and position), each with the verdict on its part.
  h's tables come from Form._middle, the one factorization routine: four
  gathers, x = f . e^-1 then h = m^-1 . x, each checked by the induction
  criterion and passed to the form's _declared hook (a data form's lookup).
  A Morphism is built only by a hook that needs one, never for h.  The
  composite is compared with f as gathered tables, and the predicates
  (core.is_injective and the rest) compare positions, never Subobjects:
  Ker f is f.i at the codomain's bottom and Im f is f.d at the domain's
  top.  e's kernel and m's image are compared with f's by owner id, then
  by key.  A witness starts "factorize(f): ", naming the factorization of
  f that the axiom asks for.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional

from .core import (
    Form,
    Subobject,
    composite_element_key,
    element_key,
    first_uncomposed,
    gather,
    image,
    image_position,
    is_injective,
    is_surjective,
    kernel,
    kernel_position,
)
from .errors import FormError
from .lattice import elements_of


class AxiomCheck:
    """One line of the report.  mode is "exhaustive" or "derived"; cases is
    the number of instances compared up to the verdict (for a derived check,
    the generating instances only)."""

    def __init__(self, name: str, passed: bool, witness: Optional[str] = None,
                 mode: str = "exhaustive", cases: int = 0):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.mode = mode
        self.cases = cases

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" [{self.witness}]" if self.witness and not self.passed else ""
        return f"{status} {self.name}{tail}"


class AxiomReport:
    def __init__(self, form: str, checks: Optional[list] = None):
        self.form = form
        self.checks: list[AxiomCheck] = [] if checks is None else checks

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


def axiom_suite(form: Form, include_axiom6: bool = False) -> AxiomReport:
    report = AxiomReport(form.name)
    objs = sorted(form.objects.values(), key=lambda o: o.id)
    mors = list(form.morphisms)

    def check(name, results, mode="exhaustive"):
        w, cases = _first_fail(results)
        report.checks.append(AxiomCheck(name, w is None, w, mode, cases))

    check("P1", _reflexivity_failures(objs))
    check("P2", _transitivity_failures(objs))
    check("P3", _antisymmetry_failures(objs))
    check("BL", _bl_failures(objs))
    check("G", _galois_failures(mors))
    check("I", _identity_failures(form, objs, mors))
    walk = _combined_walk(mors)
    check("A", _closure_failures(mors, walk), "derived")
    check("F1", (None if ident.d[p] == p and ident.i[p] == p else f"id_{o.id} moves {k!r}"
                 for o in objs for ident in [_safe_identity(form, o)] if ident is not None
                 for p, k in enumerate(o.lattice.keys)))
    check("F2", _functor_failures(mors, walk), "derived")
    check("AX2", _ax2_failures(mors))
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


def _reflexivity_failures(objs):
    for o in objs:
        up = o.lattice.up
        for p, k in enumerate(o.lattice.keys):
            yield None if up[p] >> p & 1 else f"{o.id}: {k!r} not <= itself"


def _transitivity_failures(objs):
    for o in objs:
        keys, up = o.lattice.keys, o.lattice.up
        for p, a in enumerate(keys):
            above = elements_of(up[p])
            for n, q in enumerate(above):
                beyond = up[q] & ~up[p]
                if beyond:
                    b, c = keys[q], keys[_lowest(beyond)]
                    yield n
                    yield f"{o.id}: {a!r}<={b!r}<={c!r} but not {a!r}<={c!r}"
                    return
            yield len(above)


def _antisymmetry_failures(objs):
    for o in objs:
        keys, up, down = o.lattice.keys, o.lattice.up, o.lattice.down
        for p, a in enumerate(keys):
            both = up[p] & down[p] & ~(1 << p)
            yield (None if not both
                   else f"{o.id}: {a!r} and {keys[_lowest(both)]!r} mutually <= but distinct")


def _bl_failures(objs):
    for o in objs:
        lat = o.lattice
        keys, index, up, down = lat.keys, lat.index, lat.up, lat.down
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


def _galois_failures(mors):
    # d is left adjoint to i when A <= i(C) iff d(A) <= C for every A and C.
    # Each side is one relation, a byte per (A, C) pair, C-major: column C of
    # A <= i(C) is the down-set cells of i(C), and column C of d(A) <= C is
    # d translated by the table y -> [y <= C].  Equal relations compared
    # every pair.  Otherwise, or when the codomain has more than 256
    # subobjects, the morphism is scanned row by row to name the first
    # failing pair, A-major: the C with A <= i(C), gathered from the
    # preimages of i under the up-set of A, must be the up-set of d(A); the
    # lowest bit where they differ is the first failing C.
    cells, below, above = {}, {}, {}  # lattice -> down-set cells, <= tables, up-sets
    for m in mors:
        dl, cl, d, i = m.dom.lattice, m.cod.lattice, m.d, m.i
        if len(cl.keys) <= 256:
            if dl not in cells:
                cells[dl] = [_cells(b, len(dl.keys)) for b in dl.down]
            if cl not in below:
                below[cl] = [_cells(b, len(cl.keys)).ljust(256, b"\0") for b in cl.down]
            if (b"".join(map(cells[dl].__getitem__, i))
                    == b"".join(map(bytes(d).translate, below[cl]))):
                yield len(d) * len(i)
                continue
        if dl not in above:
            above[dl] = [elements_of(u) for u in dl.up]
        preimage = [0] * len(dl.keys)  # disjoint bitsets, so sums are unions
        for q, x in enumerate(i):
            preimage[x] |= 1 << q
        cup = cl.up
        for p, y in enumerate(d):
            wrong = sum(map(preimage.__getitem__, above[dl][p])) ^ cup[y]
            if wrong:
                q = _lowest(wrong)
                yield p * len(i) + q
                yield (f"{m.name or repr(m)}: adjunction fails at "
                       f"A={dl.keys[p]!r}, C={cl.keys[q]!r}")
                return
        yield len(d) * len(i)


def _cells(bits: int, n: int) -> bytes:
    """One byte per position p < n: 1 when bit p of bits is set, else 0."""
    return bytes(bits >> p & 1 for p in range(n))


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
        if gather(left.d, m.d) != m.d or gather(m.i, left.i) != m.i:
            yield f"id.{name} != {name}"
            return
        yield None
        if gather(m.d, right.d) != m.d or gather(right.i, m.i) != m.i:
            yield f"{name}.id != {name}"
            return
        yield None


def _image_key(m):
    return (m.dom.id, m.cod.id, m.d, m.i)


def _composite_image_key(g, f):
    return (f.dom.id, g.cod.id, gather(g.d, f.d), gather(f.i, g.i))


def _functor_key(m):
    return (m.dom.id, m.cod.id, m.element_map, m.d, m.i)


def _composite_functor_key(g, f):
    return (f.dom.id, g.cod.id, gather(g.element_map, f.element_map),
            gather(g.d, f.d), gather(f.i, g.i))


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


def _combined_walk(mors):
    """_uncomposed on the combined key, or None when there are no morphisms
    or some morphism has no element table."""
    if not mors or any(m.element_map is None for m in mors):
        return None
    return _uncomposed(mors, _functor_key, _composite_functor_key)


def _closure_failures(mors, walk):
    # closure under composition, decided from generators: the composite's
    # image tables must be those of a declared morphism (Morphism.__eq__);
    # associativity needs no check, as composites are gathers of tables.
    # A closed combined walk decides it too: every composite's combined key
    # is declared, and so is its projection, the composite's image key.
    if walk is not None and walk[0] is None:
        yield walk[1]
        return
    pair, taken = _uncomposed(mors, _image_key, _composite_image_key)
    if pair is None:
        yield taken
        return
    yield taken - 1
    yield f"composite {_pair_name(pair)} not in the form"


def _functor_failures(mors, walk):
    # F2 has independent content only for element-realized morphisms: there
    # the declared composite is identified by its element table and must
    # carry the composed image maps.  Elsewhere composites are identified
    # extensionally, so the closure check already covers F2, and walk, the
    # suite's combined walk (_combined_walk), is None.  The element tables
    # must be closed first, as check A decides closure by image maps.
    if walk is None:
        return
    # With closed element tables and a well-defined phi, phi(g . f) =
    # phi(g) . phi(f) for every pair exactly when the combined key of every
    # composite is declared.  A declared combined key declares its element
    # table, so the element-table pass, whose failure is named first, runs
    # only when the combined pass fails.
    combined, taken = walk
    if combined is not None:
        pair, more = _uncomposed(mors, element_key, composite_element_key)
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
        first = phi.setdefault(element_key(m), m)
        if (first.d, first.i) != (m.d, m.i):
            yield (f"{first.name or repr(first)} and {m.name or repr(m)} have one "
                   f"element table but different image maps")
            return
        yield None
    if combined is not None:
        yield f"image maps of {_pair_name(combined)} do not compose"


def _ax2_failures(mors):
    # f f^-1 B = B ^ Im f and f^-1 f A = A v Ker f, each compared for all B
    # (all A) at once against a row of meets (joins) with Im f (Ker f); the
    # first position where they differ names B (A), or the missing bound
    rows = {}  # (lattice, "meet" or "join", position) -> row

    def row(lat, op, x):
        if (lat, op, x) not in rows:
            rows[lat, op, x] = tuple([_op_position(lat, op, lat.keys[x], k)
                                      for k in lat.keys])
        return rows[lat, op, x]

    for m in mors:
        dl, cl, d, i = m.dom.lattice, m.cod.lattice, m.d, m.i
        for lat, op, x, got, law in (
                (cl, "meet", d[dl.index[dl.top]], gather(d, i), "f f^-1 B != B ^ Im f at B"),
                (dl, "join", i[cl.index[cl.bottom]], gather(i, d), "f^-1 f A != A v Ker f at A")):
            want = row(lat, op, x)
            if got == want:
                yield len(got)
                continue
            q = next(q for q, (g, w) in enumerate(zip(got, want)) if g != w)
            yield q
            why = want[q] if isinstance(want[q], FormError) else f"{law}={lat.keys[q]!r}"
            yield f"{m.name or repr(m)}: {why}"
            return


def _op_position(lat, op, a, b):
    """The position of op(a, b) in lat, op being "join" or "meet", or the
    error that says it is missing."""
    try:
        return lat.index[getattr(lat, op)(a, b)]
    except FormError as exc:
        return exc


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
    # e and m are looked up once per (object, position), with the verdict
    # on their parts; h's tables come from form._middle.  The parts are
    # judged after the composite and the middle map, where the image
    # comparison is implied: with m . h . e = f on tables, h an isomorphism
    # and e surjective, Im m = m h e(top) = Im f, and the composite's
    # endpoints fix m's codomain, so it never fails first.  The kernel
    # comparison is not implied there: Ker e = Ker f follows only when m is
    # injective too, which is judged after it.
    projections, embeddings = {}, {}  # (object, position) -> (e or m, its part holds)
    for f in mors:
        dom, cod = f.dom, f.cod
        k, n = kernel_position(f), image_position(f)
        try:
            if (dom, k) not in projections:
                e = form.projection_of(Subobject(dom, dom.lattice.keys[k]))
                projections[dom, k] = e, _same_kernel(e, dom, k) and is_surjective(e)
            e, e_holds = projections[dom, k]
            if (cod, n) not in embeddings:
                m = form.embedding_of(Subobject(cod, cod.lattice.keys[n]))
                embeddings[cod, n] = m, _same_image(m, cod, n) and is_injective(m)
            m, m_holds = embeddings[cod, n]
            hd, hi = form._middle(f, e, m)[:2]
        except FormError as exc:
            yield f"factorize({f.name or repr(f)}): {exc}"
            return
        q, r = e.cod.lattice, m.dom.lattice
        if not ((dom.id, cod.id) == (e.dom.id, m.cod.id)
                and f.d == gather(m.d, gather(hd, e.d)) and f.i == gather(e.i, gather(hi, m.i))):
            why = "composite differs"
        elif not (hi[r.index[r.bottom]] == q.index[q.bottom]
                  and hd[q.index[q.top]] == r.index[r.top]):
            why = "middle map is not an isomorphism"
        elif not e_holds:
            why = "projection part is wrong"
        elif not m_holds:
            why = "embedding part is wrong"
        else:
            yield None
            continue
        yield f"factorize({f.name or repr(f)}): {why}"
        return


def _same_kernel(e, obj, k):
    """kernel(e) is the subobject of obj at position k: one owner id, then
    one key, read by position."""
    return e.dom.id == obj.id and e.dom.lattice.keys[kernel_position(e)] == obj.lattice.keys[k]


def _same_image(m, obj, n):
    """image(m) is the subobject of obj at position n: one owner id, then
    one key, read by position."""
    return m.cod.id == obj.id and m.cod.lattice.keys[image_position(m)] == obj.lattice.keys[n]


def _ax5_failures(form, objs):
    for o in objs:
        lat = o.lattice
        for op, holds, kind in (("join", form.is_normal, "normal"),
                                ("meet", form.is_conormal, "conormal")):
            keys = [S.key for S in o.subobjects() if holds(S)]
            for a in keys:
                for b in keys:
                    try:
                        bound = Subobject(o, getattr(lat, op)(a, b))
                    except FormError as exc:
                        yield f"{o.id}: {exc}"
                        return
                    if not holds(bound):
                        yield f"{o.id}: {op} of {kind}s {a!r},{b!r} not {kind}"
                        return
                    yield None
