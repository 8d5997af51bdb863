"""Randomized instance generators for the verification corpus.

Instances live over a shared Slominski universe.  Exact rows are built by
splicing quotient-then-embed steps over elementary abelian 2-groups, ladders
by degreewise lifting (the vertical map is prescribed on the image of the
previous horizontal map and extended freely), and the grid-shaped lemmas
(3x3, spider, snail, square) from a group with a chosen pair of normal
subalgebras.  Construction guarantees the hypotheses wherever possible;
decorations that cannot be forced are obtained by bounded rejection with a
guaranteed fallback.  Every instance binds its objects and arrows through
the role names of its shape in lemmas.SHAPES, in the order listed there.

Most ladder attempts are rejected, so an attempt is decided on carrier
tables alone: the rows are drawn as element tables, the kernels the first
column must respect are read off them, and the columns are lifted as tables.
Morphisms, with their image tables, are built for the accepted attempt only
(rows first, each opening with r0, then the columns v0..vn).

Every hom a generator draws is a table from extend_homs(A, B, forced), the
homs A -> B agreeing with a forced partial map (none, for all homs); since d
alone decides homs, a commuting square or a map that must kill an image is a
forced map.  The list is lexicographic and generators pick from it by index
with rng.choice, so a seeded corpus stays the same only as long as that
order does.  The corpus draws its groups from a small fixed palette and so
asks the same questions again and again.  Each answer is stored on the value
that owns it, in the order it is computed in (hom lists lexicographic,
normal keys in lattice order), so a draw from a stored answer is the draw a
recomputed one would give, and an attempt makes its rng calls plus one
lookup per step.  On the domain algebra, as tuples that no caller can
change (algebras are shared by every lab, so these hold no lab object):

- extensions, keyed by B and the forced map as a table (see _forced);
- lift pools (see _decorated_homs), under the same forced key: the
  decorated extensions, or all of them when none is decorated; the
  injective and surjective hom lists are the pools of the empty map;
- first ladder columns, by B and both kernel keys (_v0_homs);
- a row's first maps, each with its image key (_first_maps);
- normal keys; spider's complementary normal pairs; short five (iii)'s
  automorphisms keeping N.

On the InstanceLab, since they hold its objects: its xor objects by rank,
and random_exact_row's quotient steps (see InstanceLab.row_step).
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .core import (FormObject, Morphism, Subobject, compose, direct_image, gather,
                   identity_morphism, image, inverse_image, is_injective, is_isomorphism,
                   is_surjective, kernel)
from .diagram import Diagram
from .groups import (
    all_groups_le8,
    c4xc2,
    cyclic,
    dihedral8,
    quaternion8,
    symmetric3,
    xor_group,
)
from .lemmas import SHAPES
from .slominski import (
    SlominskiAlgebra,
    SlominskiForm,
    element_morphism,
    hom_tables,
    is_normal_subalgebra,
)
from .zigzag import LEFT, RIGHT, Edge, Zigzag


# ladder decorations: name -> predicate on (table, codomain size)
_DECORATIONS = {
    "inj": lambda t, n: len(set(t)) == len(t),
    "surj": lambda t, n: len(set(t)) == n,
    "iso": lambda t, n: len(t) == n == len(set(t)),
}


def _forced(n: int, pairs: Iterable[tuple[int, int]]) -> Optional[tuple[Optional[int], ...]]:
    """The partial map on range(n) sending each x to y for the pairs (x, y),
    as a table with None where nothing is forced, or None when some x is
    sent to two values (then no hom meets the constraint).  The table does
    not depend on the order of the pairs; it is the forced key of the
    extension memos."""
    forced: list[Optional[int]] = [None] * n
    for x, y in pairs:
        got = forced[x]
        if got is None:
            forced[x] = y
        elif got != y:
            return None
    return tuple(forced)


def _extensions(A: SlominskiAlgebra, B: SlominskiAlgebra,
                forced: tuple[Optional[int], ...]) -> tuple[tuple[int, ...], ...]:
    """extend_homs for a forced key (see _forced), memoized on A under B and
    the key."""
    return A.memoized(("extend", B, forced), lambda: tuple(hom_tables(
        A, B, {x: y for x, y in enumerate(forced) if y is not None})))


def extend_homs(A: SlominskiAlgebra, B: SlominskiAlgebra,
                forced: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """All hom tables A -> B agreeing with the forced partial map, in
    lexicographic order.  The list does not depend on the order in which
    forced was filled, so it is memoized under its forced key."""
    return _extensions(A, B, _forced(A.n, forced.items()))


def _decorated_homs(A: SlominskiAlgebra, B: SlominskiAlgebra, forced: tuple[Optional[int], ...],
                    decoration: str) -> tuple[tuple[int, ...], ...]:
    """The tables of _extensions(A, B, forced) with the named decoration (see
    _DECORATIONS), in lexicographic order, or all of them when none has it:
    the pool a ladder column with that decoration is drawn from.  Memoized
    under the same forced key as the extensions, which it shares when it
    falls back to them."""
    ok = _DECORATIONS[decoration]

    def pool():
        homs = _extensions(A, B, forced)
        return tuple(t for t in homs if ok(t, B.n)) or homs
    return A.memoized(("decorated", B, forced, decoration), pool)


def _injective_homs(A: SlominskiAlgebra, B: SlominskiAlgebra) -> tuple[tuple[int, ...], ...]:
    """The injective hom tables A -> B, in lexicographic order; every caller
    asks only where one exists (else _decorated_homs gives all homs)."""
    return _decorated_homs(A, B, (None,) * A.n, "inj")


def _surjective_homs(A: SlominskiAlgebra, B: SlominskiAlgebra) -> tuple[tuple[int, ...], ...]:
    """The surjective hom tables A -> B, in lexicographic order; every caller
    asks only where one exists (else _decorated_homs gives all homs)."""
    return _decorated_homs(A, B, (None,) * A.n, "surj")


def _first_maps(A: SlominskiAlgebra, B: SlominskiAlgebra
                ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(table, image key) for each table of extend_homs(A, B, {}), in its
    order, so rng.choice over it draws what InstanceLab.random_hom draws."""
    return A.memoized(("first maps", B), lambda: tuple(
        (t, tuple(sorted(set(t)))) for t in extend_homs(A, B, {})))


def _v0_homs(A: SlominskiAlgebra, B: SlominskiAlgebra, v0: Optional[str],
             kt: tuple[int, ...], kb: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The hom tables A -> B with the decoration named v0 (see _DECORATIONS;
    any table when None) that send the kernel key kt into kb, in
    lexicographic order."""
    def homs():
        ok = _DECORATIONS[v0] if v0 else lambda t, n: True
        kbset = set(kb)
        return tuple(t for t in extend_homs(A, B, {})
                     if ok(t, B.n) and all(t[x] in kbset for x in kt))
    return A.memoized(("v0", B, v0, kt, kb), homs)


class InstanceLab:
    """Shared universe, RNG and small helpers for building instances.

    The lab also keeps what random_exact_row asks again and again and what
    holds this lab's objects, so it cannot be memoized on an algebra: its
    xor objects by rank and its row steps (see row_step)."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.universe = SlominskiForm("lab")
        self._xors: list[Optional[FormObject]] = [None] * 4
        self._row_steps: dict = {}

    def obj(self, alg: SlominskiAlgebra) -> FormObject:
        return self.universe.object_of(alg)

    def xor(self, dim: int) -> FormObject:
        """The object of xor_group(dim), for 0 <= dim <= 3, registered on
        first use."""
        got = self._xors[dim]
        if got is None:
            got = self._xors[dim] = self.obj(xor_group(dim))
        return got

    def row_step(self, obj: FormObject, key: tuple[int, ...], r: int) -> tuple:
        """A quotient step of random_exact_row from obj, whose previous map
        has image key, when the next rank exceeds the quotient's by r (0 or 1,
        capped at 3): (q, p, nxt, options), with p the projection onto the
        quotient q of obj by key, nxt the next xor object and options the
        (memb, table, image key) of each table memb of _injective_homs(q, nxt),
        in that order, where table = gather(memb, p.element_map).  Built on
        first use, so each object is registered when the step first needs it."""
        step = self._row_steps.get((obj, key, r))
        if step is None:
            q, p = self.proj(obj, key)
            nxt = self.xor(min(3, q.algebra.n.bit_length() - 1 + r))
            options = []
            for memb in _injective_homs(q.algebra, nxt.algebra):
                table = gather(memb, p.element_map)
                options.append((memb, table, tuple(sorted(set(table)))))
            step = self._row_steps[obj, key, r] = (q, p, nxt, tuple(options))
        return step

    def random_hom(self, A, B) -> Optional[tuple[int, ...]]:
        homs = extend_homs(A, B, {})
        if not homs:
            return None
        return self.rng.choice(homs)

    def normal_keys(self, obj: FormObject) -> tuple[tuple[int, ...], ...]:
        """obj's normal keys in lattice order, memoized on its algebra."""
        return obj.algebra.memoized("normal keys", lambda: tuple(
            k for k in obj.lattice.keys if is_normal_subalgebra(obj.algebra, k)))

    def incl(self, obj: FormObject, key) -> tuple[FormObject, Morphism]:
        return self.universe.subobject_object(Subobject(obj, key))

    def proj(self, obj: FormObject, key) -> tuple[FormObject, Morphism]:
        return self.universe.quotient_object(Subobject(obj, key))


def _diagram(lab: InstanceLab, shape: str, objects, arrows) -> Diagram:
    """A diagram of the named shape, binding the values to its object and
    arrow roles in SHAPES order."""
    spec = SHAPES[shape]
    return Diagram(lab.universe, dict(zip(spec.objects, objects, strict=True)),
                   dict(zip(spec.arrows, arrows, strict=True)), name=shape)


GRID_PALETTE = lambda: (
    xor_group(2), xor_group(3), cyclic(4), cyclic(6), cyclic(8),
    c4xc2(), dihedral8(), quaternion8(), symmetric3(),
)


# ---------------------------------------------------------------------------
# exact rows and ladders over elementary abelian 2-groups


# a row drawn by random_exact_row: objects, map tables and quotient steps
Row = tuple[list[FormObject], list[tuple[int, ...]], list]


def random_exact_row(lab: InstanceLab, maps: int) -> Row:
    """Objects X0..Xn (xor groups) and the element tables of maps exact at
    every interior node, drawn without building a morphism.

    Returns (objs, tables, steps).  tables[i] is the table of the map
    Xi -> Xi+1; steps holds, for each i > 0, the (q, p, memb) that map is
    built from: the projection p onto the quotient q of Xi by the image of
    the previous map, and the injective table memb: q -> Xi+1, so that
    tables[i] is gather(memb, p.element_map).  _row_morphisms builds the
    morphisms.

    Every answer a row needs besides its rng draws is looked up: the first
    map is drawn with its image key from _first_maps, and each later one
    from the options of lab.row_step under the previous object, image key
    and rank draw, so a step is one randrange, one choice and one lookup.
    """
    rng = lab.rng
    objs = [lab.xor(rng.randrange(0, 3))]
    tables: list[tuple[int, ...]] = []
    steps: list[tuple[FormObject, Morphism, tuple[int, ...]]] = []
    for i in range(maps):
        if i == 0:
            nxt = lab.xor(rng.randrange(0, 4))
            table, key = rng.choice(_first_maps(objs[-1].algebra, nxt.algebra))
        else:
            # quotient by the image of the previous map, then embed
            q, p, nxt, options = lab.row_step(objs[-1], key, rng.randrange(0, 2))
            memb, table, key = rng.choice(options)
            steps.append((q, p, memb))
        objs.append(nxt)
        tables.append(table)
    return objs, tables, steps


def _row_morphisms(row: Row) -> list[Morphism]:
    """The morphisms of a row drawn by random_exact_row: the first map is
    named r0, each later one is the composite of its embedding after its
    projection."""
    objs, tables, steps = row
    mors = [element_morphism(objs[0], objs[1], tables[0], "r0")]
    for (q, p, memb), nxt in zip(steps, objs[2:]):
        mors.append(compose(element_morphism(q, nxt, memb), p))
    return mors


def lift_ladder(
    lab: InstanceLab,
    top: Row,
    bottom: Row,
    v0: tuple[int, ...],
    prefs: dict[int, str],
) -> Optional[list[tuple[int, ...]]]:
    """Column tables making every square commute, lifting degree by degree.

    top and bottom are rows from random_exact_row and v0 is the first
    column's table.  prefs maps a column index to the name of a decoration
    (see _DECORATIONS) that its table is drawn with whenever some extension
    has it.  Returns the column tables v0..vn, or None when a prescribed
    partial map is inconsistent.  Each column table is picked by index from
    its extensions in lexicographic order (see extend_homs), which keeps
    seeded ladders reproducible.

    A column builds its forced map in one pass, as a table indexed by
    element (see _forced), and makes one memo lookup under it: its lift
    pool, the decorated extensions, or all of them when none is decorated
    (see _decorated_homs), or, with no decoration asked, all extensions.
    An empty pool means no extension, so None.
    """
    tobjs, ttables, _ = top
    bobjs, btables, _ = bottom
    vs = [v0]
    for i in range(1, len(tobjs)):
        A, B = tobjs[i].algebra, bobjs[i].algebra
        # the square commutes: v_i(f(x)) = g(v_i-1(x))
        forced = _forced(A.n, zip(ttables[i - 1], gather(btables[i - 1], vs[-1])))
        if forced is None:
            return None
        pref = prefs.get(i)
        pool = _extensions(A, B, forced) if pref is None else _decorated_homs(A, B, forced, pref)
        if not pool:
            return None
        vs.append(lab.rng.choice(pool))
    return vs


def _zeros(table: Sequence[int], zero: int) -> tuple[int, ...]:
    """The kernel key of a hom table: the elements it sends to zero."""
    return tuple([x for x, y in enumerate(table) if y == zero])


def _ladder_instance(lab, maps, prefs_spec, v0):
    """Generic ladder generator; prefs_spec maps column -> decoration name,
    and v0 names the first column's decoration (None for any).
    Needs maps >= 1.  Each attempt is decided on element tables; morphisms
    are built for the accepted one only.  Falls back to identity columns
    after 400 rejected attempts."""
    wants_iso = any(p == "iso" for p in prefs_spec.values())
    for _ in range(400):
        top = random_exact_row(lab, maps)
        # isomorphism columns need matching shapes; reuse the row half the
        # time so the columns can be nontrivial automorphism lifts
        if wants_iso and lab.rng.random() < 0.5:
            bottom = top
        else:
            bottom = random_exact_row(lab, maps)
        tobjs, bobjs = top[0], bottom[0]
        kt = _zeros(top[1][0], tobjs[1].algebra.zero)
        kb = _zeros(bottom[1][0], bobjs[1].algebra.zero)
        homs = _v0_homs(tobjs[0].algebra, bobjs[0].algebra, v0, kt, kb)
        if not homs:
            continue
        vs = lift_ladder(lab, top, bottom, lab.rng.choice(homs), prefs_spec)
        # the preferred decorations must actually have come out
        if vs is not None and all(_DECORATIONS[prop](vs[idx], bobjs[idx].algebra.n)
                                  for idx, prop in prefs_spec.items()):
            tmors = _row_morphisms(top)
            bmors = tmors if bottom is top else _row_morphisms(bottom)
            cols = [element_morphism(tobjs[i], bobjs[i], t, f"v{i}") for i, t in enumerate(vs)]
            return (tobjs, tmors), (bobjs, bmors), cols
    # fallback: identical rows with identity columns (hypotheses guaranteed)
    top = random_exact_row(lab, maps)
    row = (top[0], _row_morphisms(top))
    return row, row, [identity_morphism(o) for o in top[0]]


def four_instance(lab: InstanceLab) -> Diagram:
    top, bottom, vs = _ladder_instance(lab, 3, prefs_spec={3: "inj"}, v0="surj")
    return _diagram(lab, "four", (*top[0], *bottom[0]), (*top[1], *bottom[1], *vs))


def five_instance(lab: InstanceLab, part: str) -> Diagram:
    prefs = {
        "i": {1: "inj", 3: "inj"},
        "ii": {1: "surj", 3: "surj", 4: "inj"},
        "full": {1: "iso", 3: "iso", 4: "inj"},
    }[part]
    v0 = "surj" if part in ("i", "full") else None
    top, bottom, vs = _ladder_instance(lab, 4, prefs_spec=prefs, v0=v0)
    return _diagram(lab, "five", (*top[0], *bottom[0]), (*top[1], *bottom[1], *vs))


# ---------------------------------------------------------------------------
# grid-shaped instances from a group with two normal subalgebras


def _normal_pair(lab: InstanceLab, obj: FormObject) -> tuple:
    normals = lab.normal_keys(obj)
    return lab.rng.choice(normals), lab.rng.choice(normals)


def threebythree_instance(lab: InstanceLab) -> Diagram:
    """Grid with all rows and columns short exact, built from (G, U, X')."""
    uni = lab.universe
    Bp = lab.obj(lab.rng.choice(GRID_PALETTE()))
    U, Xp = _normal_pair(lab, Bp)
    lat = Bp.lattice
    B, t = lab.incl(Bp, U)
    Bpp, j = lab.proj(Bp, U)
    Ap, x = lab.incl(Bp, Xp)
    Cp, y = lab.proj(Bp, Xp)
    both = lat.meet(U, Xp)
    A, _ = lab.incl(Bp, both)
    s = uni.mediating_embedding(lab.incl(Bp, both)[1], x)
    f = uni.mediating_embedding(lab.incl(Bp, both)[1], t)
    App, i = lab.proj(Ap, inverse_image(x, Subobject(Bp, both)).key)
    m = uni.mediating_projection(compose(j, x), i)
    yt = compose(y, t)
    u = uni.subobject_object(image(yt))[1]
    g = uni.mediating_embedding(yt, u)
    Cpp, k = lab.proj(Cp, image(yt).key)
    n = uni.mediating_projection(compose(k, y), j)
    return _diagram(lab, "threebythree", (A, B, g.cod, Ap, Bp, Cp, App, Bpp, Cpp),
                    (f, g, x, y, m, n, s, t, u, i, j, k))


def short_five_instance(lab: InstanceLab, part: str) -> Diagram:
    """Quotient-shaped short exact rows connected by a hom respecting the
    chosen normal subalgebras."""
    uni = lab.universe
    rng = lab.rng
    for _ in range(200):
        G = lab.obj(rng.choice(GRID_PALETTE()))
        Gp = lab.obj(rng.choice(GRID_PALETTE())) if part not in ("iii",) else G
        N = rng.choice(lab.normal_keys(G))
        if part == "iii":
            # the automorphisms of G that map N onto itself
            cands = G.algebra.memoized(("automorphisms keeping", N), lambda: tuple(
                t for t in extend_homs(G.algebra, G.algebra, {})
                if _DECORATIONS["iso"](t, G.algebra.n) and {t[x] for x in N} == set(N)))
            Np = N
        else:
            cands = extend_homs(G.algebra, Gp.algebra, {})
            Np = None
        # the identity (part iii) and the top of Gp always qualify
        phi_t = rng.choice(cands)
        if Np is None:
            base = {phi_t[x] for x in N}
            Np = rng.choice([k for k in lab.normal_keys(Gp) if base <= set(k)])
        A, fm = lab.incl(G, N)
        C, gm = lab.proj(G, N)
        Apo, xm = lab.incl(Gp, Np)
        Cpo, ym = lab.proj(Gp, Np)
        phi = element_morphism(G, Gp, phi_t, "phi")
        s = uni.mediating_embedding(compose(phi, fm), xm)
        u = uni.mediating_projection(compose(ym, phi), gm)
        d = _diagram(lab, "short-five", (A, G, C, Apo, Gp, Cpo), (fm, gm, xm, ym, s, phi, u))
        want = {"i": is_injective, "ii": is_surjective, "iii": is_isomorphism}[part]
        if want(s) and want(u):
            return d
    raise RuntimeError("could not build a short-five instance")


def spider_instance(lab: InstanceLab) -> Diagram:
    """From a group with two complementary normal subalgebras (so k is an
    isomorphism by construction)."""
    rng = lab.rng
    X = lab.obj(rng.choice(GRID_PALETTE()))
    lat = X.lattice
    normals = lab.normal_keys(X)
    # (bottom, top) is always among the pairs
    pairs = X.algebra.memoized("complementary normal pairs", lambda: tuple(
        (P, Q)
        for P in normals
        for Q in normals
        if lat.meet(P, Q) == lat.bottom and lat.join(P, Q) == lat.top
    ))
    P, Q = rng.choice(pairs)
    V, g = lab.incl(X, P)
    Z, i = lab.proj(X, P)
    Y, j = lab.incl(X, Q)
    W, h = lab.proj(X, Q)
    return _diagram(lab, "spider", (V, W, X, Y, Z),
                    (compose(h, g), g, h, j, i, compose(i, j)))


def incomplete_snail_instance(lab: InstanceLab) -> Diagram:
    uni = lab.universe
    rng = lab.rng
    X = lab.obj(rng.choice(GRID_PALETTE()))
    K, M = _normal_pair(lab, X)
    Y1, a = lab.incl(X, K)
    W2, b = lab.proj(X, K)
    W1, g = lab.incl(X, M)
    Y2, dmor = lab.proj(X, M)
    e = compose(dmor, a)
    Z, fmor = lab.proj(Y2, image(e).key)
    y = uni.mediating_projection(compose(fmor, dmor), b)
    return _diagram(lab, "incomplete-snail", (W1, W2, X, Y1, Y2, Z),
                    (compose(b, g), g, b, dmor, a, e, y, fmor))


def square_exact_instance(lab: InstanceLab, part: str) -> Diagram:
    uni = lab.universe
    rng = lab.rng
    B = lab.obj(rng.choice(GRID_PALETTE()))
    lat = B.lattice
    normals = lab.normal_keys(B)
    if part == "i":
        pairs = [(N, K) for N in normals for K in normals if lat.leq(N, K)]
        N, K = rng.choice(pairs)
        A, f = lab.incl(B, K)
        C, g = lab.proj(B, K)
        Ap, x = lab.proj(A, inverse_image(f, Subobject(B, N)).key)
        Bp, y = lab.proj(B, N)
        m = uni.mediating_projection(compose(y, f), x)
        n = uni.mediating_projection(g, y)
        return _diagram(lab, "square-exact", (A, B, C, Ap, Bp, C),
                        (f, g, m, n, x, y, identity_morphism(C)))
    # part ii: bottom exact, y an inclusion of a subalgebra containing K'
    Bp = B
    Kp = rng.choice(normals)
    supers = [S for S in Bp.lattice.keys if set(Kp) <= set(S)]
    S = rng.choice(supers)
    Ap, mm = lab.incl(Bp, Kp)
    Cp, nn = lab.proj(Bp, Kp)
    Bobj, y = lab.incl(Bp, S)
    f = uni.mediating_embedding(mm, y)
    g = compose(nn, y)
    return _diagram(lab, "square-exact", (Ap, Bobj, Cp, Ap, Bp, Cp),
                    (f, g, mm, nn, identity_morphism(Ap), y, identity_morphism(Cp)))


# ---------------------------------------------------------------------------
# snake / goursat instances


def snake_instance(lab: InstanceLab) -> Diagram:
    """2x3 with exact rows, g surjective, f' injective, over xor groups."""
    uni = lab.universe
    rng = lab.rng
    B = lab.xor(rng.randrange(1, 4))
    Kg = rng.choice(B.lattice.keys)
    C, g = lab.proj(B, Kg)
    Ksub, incl_k = lab.incl(B, Kg)
    # rank(A) >= rank(Ksub), so A maps onto Ksub
    adim = max(Ksub.algebra.n.bit_length() - 1, 0) + rng.randrange(0, 2)
    A = lab.xor(min(3, adim))
    sur = rng.choice(_surjective_homs(A.algebra, Ksub.algebra))
    f = compose(incl_k, element_morphism(A, Ksub, sur))
    Bp = lab.xor(rng.randrange(0, 4))
    beta = element_morphism(B, Bp, lab.random_hom(B.algebra, Bp.algebra), "beta")
    base = direct_image(beta, Subobject(B, Kg)).key
    supers = [k for k in Bp.lattice.keys if set(base) <= set(k)]
    Ip = rng.choice(supers)
    Apo, fp = lab.incl(Bp, Ip)
    Cpo, gp = lab.proj(Bp, Ip)
    alpha = uni.mediating_embedding(compose(beta, f), fp)
    gamma = uni.mediating_projection(compose(gp, beta), g)
    return _diagram(lab, "snake", (A, B, C, Apo, Bp, Cpo),
                    (f, g, fp, gp, alpha, beta, gamma))


def goursat_instance(lab: InstanceLab) -> Diagram:
    """2x3 with exact rows (reusing the snake construction)."""
    s = snake_instance(lab)
    return _diagram(lab, "goursat", s.objects.values(), s.arrows.values())


def quotient_iso_triple(lab: InstanceLab):
    """(f, W, X) with Ker f <= W <= X over small algebras.

    A third of the triples use an injective f so that non-normal W <= X
    pairs (where the theorem's equivalence holds with both sides false)
    are exercised too.
    """
    rng = lab.rng
    palette = all_groups_le8()
    injective_branch = rng.random() < 0.33
    if injective_branch:
        # non-abelian sources make non-normal W <= X reachable
        A = lab.obj(rng.choice((dihedral8(), symmetric3(), quaternion8())))
        Bo = A
        hom = rng.choice(_injective_homs(A.algebra, A.algebra))
    else:
        A = lab.obj(rng.choice(palette))
        Bo = lab.obj(rng.choice(palette))
        hom = lab.random_hom(A.algebra, Bo.algebra)
    f = element_morphism(A, Bo, hom, "f")
    kf = set(kernel(f).key)
    lat = A.lattice
    if injective_branch and rng.random() < 0.5:
        X = lat.top
    else:
        X = rng.choice([k for k in lat.keys if kf <= set(k)])
    ws = [k for k in lat.keys if kf <= set(k) <= set(X)]
    W = rng.choice(ws)
    return f, Subobject(A, W), Subobject(A, X)


# ---------------------------------------------------------------------------
# zigzag corpus


ZIGZAG_PALETTE = lambda: (
    cyclic(1), cyclic(2), cyclic(3), cyclic(4), xor_group(2),
    cyclic(6), symmetric3(), cyclic(8), dihedral8(), quaternion8(),
)


def random_zigzag(lab: InstanceLab, max_len: int = 6) -> Zigzag:
    rng = lab.rng
    length = rng.randrange(0, max_len + 1)
    nodes = [lab.obj(rng.choice(ZIGZAG_PALETTE()))]
    edges = []
    for _ in range(length):
        nxt = lab.obj(rng.choice(ZIGZAG_PALETTE()))
        direction = rng.choice((RIGHT, LEFT))
        if direction == RIGHT:
            hom = lab.random_hom(nodes[-1].algebra, nxt.algebra)
            edges.append(Edge(element_morphism(nodes[-1], nxt, hom), RIGHT))
        else:
            hom = lab.random_hom(nxt.algebra, nodes[-1].algebra)
            edges.append(Edge(element_morphism(nxt, nodes[-1], hom), LEFT))
        nodes.append(nxt)
    return Zigzag(tuple(nodes), tuple(edges), form=lab.universe)


def recipe_zigzag(lab: InstanceLab, max_len: int = 6) -> Zigzag:
    """Subquotient-biased zigzag: projections rightward, inclusions leftward."""
    rng = lab.rng
    length = rng.randrange(0, max_len + 1)
    nodes = [lab.obj(rng.choice(ZIGZAG_PALETTE()))]
    edges = []
    for _ in range(length):
        cur = nodes[-1]
        kind = rng.random()
        if kind < 0.45:
            N = rng.choice(lab.normal_keys(cur))
            nxt, p = lab.proj(cur, N)
            edges.append(Edge(p, RIGHT))
        elif kind < 0.9:
            S = rng.choice(cur.lattice.keys)
            nxt, i = lab.incl(cur, S)
            edges.append(Edge(i, LEFT))
        else:
            nxt = lab.obj(rng.choice(ZIGZAG_PALETTE()))
            hom = lab.random_hom(cur.algebra, nxt.algebra)
            edges.append(Edge(element_morphism(cur, nxt, hom), RIGHT))
        nodes.append(nxt)
    return Zigzag(tuple(nodes), tuple(edges), form=lab.universe)


# ---------------------------------------------------------------------------
# double complexes over elementary abelian 2-groups


def _chain_complex(lab: InstanceLab, dims: list[int]) -> tuple[list, list]:
    """Algebras V0..Vk with maps d_r: V_r -> V_r+1, consecutive composites zero."""
    algs = [xor_group(d) for d in dims]
    maps = []
    for r in range(len(algs) - 1):
        # d_r kills the image of d_r-1; the zero map always does, so there
        # is always a candidate
        kill = dict.fromkeys(maps[-1], algs[r + 1].zero) if maps else {}
        maps.append(lab.rng.choice(extend_homs(algs[r], algs[r + 1], kill)))
    return algs, maps


def _chain_map(lab, src, dst, vanish_on: Optional[list] = None) -> Optional[list]:
    """Chain map between complexes; optionally required to kill the image of
    a previous chain map (so horizontal composites vanish)."""
    salgs, smaps = src
    dalgs, dmaps = dst
    out = []
    for r in range(len(salgs)):
        zero = dalgs[r].zero
        # the square with the previous degree commutes, and the image of the
        # previous chain map is killed
        pairs = list(zip(smaps[r - 1], gather(dmaps[r - 1], out[-1]))) if r else []
        if vanish_on is not None:
            pairs += [(x, zero) for x in vanish_on[r]]
        forced = _forced(salgs[r].n, pairs)
        cands = _extensions(salgs[r], dalgs[r], forced) if forced is not None else ()
        if not cands:
            return None
        nonzero = [t for t in cands if any(v != zero for v in t)]
        out.append(lab.rng.choice(nonzero or cands))
    return out


def double_complex_window(lab: InstanceLab) -> Optional[Diagram]:
    """The 12-object salamander window of a random double complex, with
    cells of rank at most 2."""
    rng = lab.rng
    dims = [[rng.randrange(0, 3) for _ in range(5)] for _ in range(4)]
    cols = [_chain_complex(lab, d) for d in dims]
    hs = []
    for c in range(3):
        h = _chain_map(lab, cols[c], cols[c + 1], vanish_on=hs[-1] if hs else None)
        if h is None:
            return None
        hs.append(h)

    def cell(r, c):
        return lab.obj(cols[c][0][r])

    def vmap(r, c):
        return element_morphism(cell(r, c), cell(r + 1, c), cols[c][1][r], f"dv{r}{c}")

    def hmap(r, c):
        return element_morphism(cell(r, c), cell(r, c + 1), hs[c][r], f"dh{r}{c}")

    return _diagram(lab, "salamander",
                    (cell(1, 0), cell(0, 1), cell(1, 1), cell(1, 2), cell(2, 0), cell(2, 1),
                     cell(2, 2), cell(3, 1), cell(2, 3), cell(3, 2), cell(3, 3), cell(4, 2)),
                    (hmap(1, 0), vmap(0, 1), vmap(1, 0), vmap(1, 1), hmap(1, 1), vmap(1, 2),
                     hmap(2, 0), hmap(2, 1), vmap(2, 1), hmap(3, 1), vmap(2, 2), hmap(2, 2),
                     vmap(2, 3), hmap(3, 2), vmap(3, 2)))
