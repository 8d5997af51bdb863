"""Slominski algebras: the concrete finite instance of a noetherian form.

A Slominski algebra is a finite carrier with binary operations p and d and a
constant 0 satisfying d(x,x) = 0 and p(d(x,y),y) = x.  Groups become
Slominski algebras via p(a,b) = a*b and d(a,b) = a*b^-1; subalgebras are then
subgroups and homomorphisms are group homomorphisms.

The module provides subalgebra lattices, congruence generation, quotients,
hom enumeration, and SlominskiForm, which realizes the abstract form
interface with intrinsic embeddings and projections (every subalgebra is
conormal; a subalgebra B is normal when its cosets p(B, y) are the
classes of a congruence, the only one that can have zero class B).  Its
mediators are core.Form's induction on image tables, which also fills in
their element maps.  generate_congruence has no caller
in the engine: it is the independent oracle the tests check normality
against.

A hom has one encoding per level.  Between algebras it is an element table
with its two algebras, as hom_tables, enumerate_homs, quotient and
subalgebra_algebra give it; in a form it is a core.Morphism, whose direct
and inverse image tables are the paper's morphism and whose element_map is
the table.  A table is checked once, by check_hom, where it enters the
program: at a form file's hom line and in as_form.  Tables the engine
builds (hom_tables, projections, inclusions, composites) are homs by
construction and are not checked again.

Costs the module avoids:
- d alone decides subalgebras and homs (p(-, y) is the inverse of d(-, y)).
  Subalgebras are closed under d semi-naively and enumerated by cyclic
  extension, each found once (subalgebra_masks).
- A closure stops once its answer is known: an extension as soon as it
  meets a smaller cyclic subalgebra's generator that makes it no canonical
  augmentation, and a cyclic <x> as soon as it reaches an earlier y whose
  <y> holds x, when <x> = <y> (subalgebra_masks).
- Normality checks one candidate partition, a gathered row per
  translation, and stops at the first row that breaks it; the answer is
  memoized on the algebra, so normality and the quotient share it.  A
  group reads only the left translations p(s, -) by a generating set S:
  they compose to every p(z, -), so every zB is a coset Bz.  Its tables
  show a group when a greedy S passes Light's test, associativity with
  each s in S in the middle, since an associative Slominski algebra is a
  group.  Any other algebra reads each distinct row among p(z, -),
  p(-, z) and d(z, -).  The rows' getters are built once per algebra and
  memoized on it (_translations).  The closure that decides whether B is a
  subalgebra runs only when the partition is refused: one that passes is
  a congruence with zero class B, which is therefore closed under d
  (_candidate_classes).
- The image tables of element_morphism take no closure and no element
  set: direct images go along the domain lattice's spine, f(s v <x>) =
  f(s) v <f(x)>, one lookup in a join column of the codomain per position
  (MaskLattice.image_column), and the inverse image of a key C is the
  table translated by C's membership table (y -> [y in C]), looked up by
  its membership bytes (MaskLattice.member_tables, positions_of_cells);
  a codomain of more than 256 elements unions the fibres of C's elements
  as masks instead.  They are memoized on the domain's lattice, so a map
  built again (the corpus generators draw from a small palette of groups)
  costs one lookup.  An algebra hashes its tables once, when built.
- check_hom compares both sides of f(d(x, y)) = d(f(x), f(y)) whole, as
  bytes (_byte_tables, memoized on the algebra), and scans pairs only
  when they differ, to name the first.
- A memo lives on the value it is a function of, exactly as long as that
  value; only enumerate_homs and subalgebra_lattice are cached per process.
- Only an algebra's own lattice is enumerated.  The lattice of a quotient
  G/N is the image of the interval [N, G] (by AX2, f^-1 f A = A v Ker f, so
  the projection's images of the A >= N are all of G/N's subalgebras), and
  that of a subalgebra S is the interval [0, S], relabelled
  (SlominskiForm.quotient_object and subobject_object).  Both relabellings
  keep the (size, key) order, so the interval is taken in the parent's
  order as the derived lattice's (MaskLattice.interval): nothing is sorted
  and no position is looked up by mask (_interval_object).  Each derived
  position is then a rank in the interval, and the image tables of the
  projection and the inclusion are read off it instead of taking images
  element by element: the interval's positions are the bits of up[N] or
  down[S], and the other table gathers ranks from the lattice's join
  column of N or meet column of S (MaskLattice.join_column, meet_column).
  So the tables need none of the derived lattice's keys, and its keys and
  masks are derived on their first read: a quotient or subalgebra whose
  lattice is never read costs none.
- A carrier relabelled by a permutation (perm) takes no second path.
  Axiom 3 fixes an embedding or a projection only up to isomorphism, so
  the relabelled one is the canonical one read through an isomorphism
  onto a copy, and only the copy's lattice is sorted (_relabelled).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .core import (Form, FormObject, Frozen, Morphism, Subobject, compose,
                   composite_element_key, element_key, first_uncomposed, gather,
                   identity_morphism)
from .errors import ClosureError, UnsupportedSubobjectError, ValidationError
from .lattice import MaskLattice, elements_of, mask_of


class SlominskiAlgebra(Frozen):
    def __init__(self, name: str, zero: int, p: tuple[tuple[int, ...], ...],
                 d: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", len(p))  # the carrier's size, read in every inner loop
        # hashed once, for memo keys and the caches keyed on algebras; _memo
        # holds the answers that are functions of this algebra (see memoized)
        object.__setattr__(self, "_hash", hash((name, zero, p, d)))
        object.__setattr__(self, "_memo", {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (self.name, self.zero, self.p, self.d) == (
            other.name, other.zero, other.p, other.d)

    def __hash__(self):
        return self._hash

    def memoized(self, key, compute):
        """The answer stored under key, or compute()'s, stored first; an
        exception stores nothing."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

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


def check_hom(dom: SlominskiAlgebra, cod: SlominskiAlgebra, table: Sequence[int],
              name: str = "") -> None:
    """Raise ValidationError unless table is a hom dom -> cod: it maps dom's
    carrier into cod's and preserves 0 and d, which is enough: on a finite
    carrier d(-, y) has the inverse p(-, y), so f(x) = d(f(p(x, y)), f(y)),
    and p(-, f(y)) gives f(p(x, y)) = p(f(x), f(y)).

    Both sides of f(d(x, y)) = d(f(x), f(y)) are compared whole, one byte
    per (x, y), when both carriers have at most 256 elements: the left is
    dom's d, x-major, translated by f, and row x of the right is f
    translated by row f(x) of cod's d (_byte_tables).  Tables that differ,
    and larger carriers, are scanned pair by pair, which names the first
    (x, y) that fails."""
    _check_carriers(table, dom, cod, name)
    if table[dom.zero] != cod.zero:
        raise ValidationError(f"hom {name or '?'}: does not preserve 0")
    if dom.n <= 256 and cod.n <= 256:
        f = bytes(table)
        rows = _byte_tables(cod)[1]
        if _byte_tables(dom)[0].translate(f.ljust(256, b"\0")) == b"".join(
                map(f.translate, map(rows.__getitem__, table))):
            return
    for x in range(dom.n):
        Adx, Bdx = dom.d[x], cod.d[table[x]]
        for y in range(dom.n):
            if table[Adx[y]] != Bdx[table[y]]:
                raise ValidationError(f"hom {name or '?'}: not compatible at ({x},{y})")


def _byte_tables(alg: SlominskiAlgebra) -> tuple[bytes, tuple[bytes, ...]]:
    """alg's d as bytes, x-major, and each row d(x, -) as a 256-byte
    translation table, built once per algebra of at most 256 elements."""
    return alg.memoized("byte tables", lambda: (
        bytes(itertools.chain.from_iterable(alg.d)),
        tuple(bytes(row).ljust(256, b"\0") for row in alg.d)))


def _check_carriers(table: Sequence[int], dom: SlominskiAlgebra, cod: SlominskiAlgebra,
                    name: str) -> None:
    """Raise ValidationError unless table maps dom's carrier into cod's."""
    if len(table) != dom.n or min(table) < 0 or max(table) >= cod.n:
        raise ValidationError(f"hom {name or '?'}: table does not match carriers")


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
    by d alone over the zero subalgebra (see _close_over)."""
    zero = 1 << alg.zero
    return _close_over(alg, zero, mask | zero)


def _close_over(alg: SlominskiAlgebra, closed: int, mask: int, stop: int = 0) -> int:
    """Least subalgebra containing mask, given a subalgebra closed <= mask;
    or, once a round's mask meets stop, that mask, when the caller needs to
    know no more than that the closure meets stop.

    Closing under d is enough.  Take S closed under d with y in S: d(-, y)
    is injective (p(-, y) undoes it), so on the finite S it maps S onto S,
    and its inverse p(-, y) maps S into S; S also holds 0 = d(y, y).
    Semi-naive: each round pairs, both ways, only the elements added in the
    round before (at first, mask & ~closed) with every element so far, in a
    list that only grows; pairs inside closed give nothing new, and every
    other pair is taken once, in the round after its later element arrived.
    """
    d = alg.d
    elems = list(elements_of(mask))
    new = elements_of(mask & ~closed)
    while new and not mask & stop:
        add = 0
        for x in new:
            dx = d[x]
            for y in elems:
                add |= (1 << dx[y]) | (1 << d[y][x])
        new = elements_of(add & ~mask)
        mask |= add
        elems += new
    return mask


def subalgebra_masks(alg: SlominskiAlgebra) -> tuple[int, ...]:
    """All subalgebra masks, in ascending order of the mask.

    Neubüser's cyclic extension over the 1-generated subalgebras c_0 < c_1
    < ... (sorted masks), with canonical augmentation (McKay 1998).  The
    greedy generating sequence of t takes, from the zero subalgebra on, the
    least c_i below t and not below the join so far; its indices rise.  The
    frontier holds pairs (s, last index of s's sequence); t = s v c_j is
    closed over s only for j > last, and kept only if no c_i with i < j lies
    below t but not below s, which holds exactly when t's sequence is s's
    followed by j.  By induction on its length every subalgebra is reached,
    from its sequence's prefix alone: each is found once, `found` is a list.

    Neither closure runs further than its answer needs.  t is rejected as
    soon as its closure meets stop = before[j] & ~s, the generators of the
    c_i (i < j) not below s; a closure that stops early has met stop, so it
    fails the test exactly as the full t would, and t is not closed at all
    when c_j itself meets stop.  <x> is closed with stop = holders[x], the
    earlier y whose <y> holds x: once the closure reaches such a y, each of
    <x> and <y> holds the other's generator, so <x> = <y>, read off gen[y].
    """
    bottom = 1 << alg.zero
    gen: list[int] = []
    holders = [0] * alg.n  # holders[x]: each y < x whose <y>, new at y, holds x
    for x in range(alg.n):
        g = _close_over(alg, bottom, bottom | 1 << x, holders[x])
        hit = g & holders[x]
        if hit:
            g = gen[(hit & -hit).bit_length() - 1]
        else:
            for z in elements_of(g):
                holders[z] |= 1 << x
        gen.append(g)
    cyclic = sorted(set(gen) - {bottom})
    # before[j]: 0 and each x with <x> = c_i, i < j: c_i <= t, c_i !<= s iff x in t & ~s
    before = [mask_of(x for x, g in enumerate(gen) if g < c) for c in cyclic]
    found, frontier = [bottom], [(bottom, -1)]
    while frontier:
        s, last = frontier.pop()
        for j, c in enumerate(cyclic[last + 1:], last + 1):
            stop = before[j] & ~s
            if c & ~s and not c & stop:
                t = _close_over(alg, s, s | c, stop)
                if not t & stop:
                    found.append(t)
                    frontier.append((t, j))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def subalgebra_lattice(alg: SlominskiAlgebra) -> MaskLattice:
    """The lattice of alg's subalgebras (subalgebra_masks), cached per
    process.  It holds masks only: its joins are read off its own spine,
    and nothing in it closes a set or refers to alg."""
    return MaskLattice(alg.n, subalgebra_masks(alg))


# ---------------------------------------------------------------------------
# congruences and quotients


class Congruence(Frozen):
    def __init__(self, algebra: SlominskiAlgebra, classes: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "classes", classes)

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
    elems = set(elems)
    m = mask_of(elems) if elems <= set(range(alg.n)) else 0  # 0: no subalgebra
    return m >> alg.zero & 1 == 1 and close_mask(alg, m) == m


def _kernel_classes(alg: SlominskiAlgebra, belems: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """_candidate_classes, memoized on alg, so normality and the quotient
    decide once per subalgebra; a B that is no subalgebra stores nothing."""
    return alg.memoized(("kernel", belems), lambda: _candidate_classes(alg, belems))


def _candidate_classes(alg: SlominskiAlgebra, belems: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The class of each element under the congruence with zero class B (a
    subalgebra, sorted elements), numbered by least element; None when B is
    not normal.  Raises ValidationError when B is no subalgebra.

    Only x ~ y iff d(x, y) in B can have zero class B (x ~ y gives
    d(x, y) ~ d(y, y) = 0, and d(x, y) ~ 0 gives x = p(d(x, y), y) ~
    p(0, y) = y), so its classes are the cosets p(B, y) (_coset_classes).
    Their test runs first, and the closure that decides whether B is a
    subalgebra runs only when the test refuses: a passed test has shown B
    the zero class of a congruence, which is closed under d (x ~ 0 and
    y ~ 0 give d(x, y) ~ d(0, 0) = 0).  Elements outside the carrier, and a
    B without 0, go straight to the closure, which refuses them.
    """
    if belems and 0 <= belems[0] and belems[-1] < alg.n and alg.zero in belems:
        cls = _coset_classes(alg, belems)
        if cls is not None:
            return cls
    if not is_subalgebra(alg, belems):
        raise ValidationError(f"{belems} is not a subalgebra of {alg.name}")
    return None


def _coset_classes(alg: SlominskiAlgebra, belems: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The cosets p(B, y) as classes, numbered by least element, when they
    do not overlap and every translation _translations gives keeps them;
    else None.  B lies in the carrier and holds 0.

    t keeps them when cls(t(x)) = cls(t(r(x))) for each x and the least
    element r(x) of its class: the row cls.t, gathered at once, equals its
    own gather at r.  The overlap test only returns early: classes kept by
    the translations all have the size of the zero class Z, which lies in
    B, and the last coset placed keeps all |B| elements, so Z = B.

    In general the translations are p(z, -), p(-, z) and d(z, -).  Then
    d(-, z) keeps the classes too: each has |B| elements, so the bijection
    p(-, z) permutes them, and d(-, z) is its inverse.  So a partition that
    passes is a congruence, and B is its zero class Z: the coset placed at
    y holds p(0, y) = y, so it is y's class p(Z, y), and p(-, y) is
    one-to-one.

    In a group they are the left translations L_s = p(s, -) by a set S
    that generates it.  Maps that keep a partition compose, and L_ab =
    L_a . L_b, so every L_z keeps the classes.  B, the class of 0, holds
    L_b(0) = b for each b in B, so L_b maps B into B and B is a subgroup;
    L_z then maps B into the class of z, which is the coset Bz, so zB = Bz
    and B is normal.  So exactly the sets a test by every translation
    passes pass, and the classes are the same.
    """
    if alg.n == 1:  # a one-position itemgetter returns a scalar
        return (0,)
    cls, rep, k = [-1] * alg.n, [0] * alg.n, 0
    columns, translations = _translations(alg)
    for y, col in enumerate(columns):
        if cls[y] < 0:
            for b in belems:
                x = col[b]
                if cls[x] >= 0:
                    return None
                cls[x], rep[x] = k, y
            k += 1
    at_rep = itemgetter(*rep)
    for t in translations:
        ct = t(cls)
        if ct != at_rep(ct):
            return None
    return tuple(cls)


def _translations(
    alg: SlominskiAlgebra
) -> tuple[tuple[tuple[int, ...], ...], tuple[itemgetter, ...]]:
    """The columns of p (columns[y][x] = p(x, y)) and a getter for each
    translation that decides normality in alg (_coset_classes), built once
    per algebra of more than one element: every normality test of alg
    reads them.

    A group needs only the left translations p(s, -) by a set S that
    generates it (_group_generators).  Any other algebra reads each
    distinct translation among p(z, -), p(-, z) and d(z, -); equal rows
    are the same test, so each is kept once."""
    def build():
        columns = tuple(zip(*alg.p))
        gens = _group_generators(alg)
        if gens is None:
            rows = dict.fromkeys(itertools.chain(alg.p, columns, alg.d))
        else:
            rows = [alg.p[s] for s in gens]
        return columns, tuple(itemgetter(*t) for t in rows)
    return alg.memoized("translations", build)


def _group_generators(alg: SlominskiAlgebra) -> Optional[list[int]]:
    """A set S that generates alg under p, taken greedily in element order
    with 0 skipped, when p is associative; else None.

    Each element not yet reached joins S, and S's right products p(r, s)
    are closed over until they cover the carrier; a product of S is one of
    them when p is associative.  Light's test then decides associativity
    on S alone: p(p(x, s), y) = p(x, p(s, y)) for all x, y and each s in S.
    The s that pass are closed under p, and S generates alg.  An
    associative Slominski algebra is a group: p(0, y) = p(d(y, y), y) = y,
    and p(d(0, y), y) = 0 gives each y a left inverse.  A group reaches 0 as a power of
    any element, so an algebra whose products never reach it is none.
    """
    p, n = alg.p, alg.n
    gens: list[int] = []
    reached, seen = [], [False] * n
    for g in range(n):
        if g == alg.zero or seen[g]:
            continue
        gens.append(g)
        seen[g] = True
        reached.append(g)
        i = 0
        while i < len(reached) < n:
            row = p[reached[i]]
            for s in gens:
                if not seen[row[s]]:
                    seen[row[s]] = True
                    reached.append(row[s])
            i += 1
    if len(reached) < n:
        return None
    for s in gens:
        at_s = itemgetter(*p[s])  # p(x, -) read at p(s, y): p(x, p(s, y))
        for row in p:
            if p[row[s]] != at_s(row):
                return None
    return gens


def is_normal_subalgebra(alg: SlominskiAlgebra, B: Iterable[int]) -> bool:
    """B is a kernel iff its cosets p(B, y) are the classes of a congruence
    (see _candidate_classes)."""
    return _kernel_classes(alg, tuple(sorted(set(B)))) is not None


def quotient(alg: SlominskiAlgebra, B: Iterable[int]) -> tuple[SlominskiAlgebra, tuple[int, ...]]:
    """Quotient by a normal subalgebra, with the projection's table.

    Classes are indexed in order of their minimal element, so tables are
    reproducible.  Neither is validated: both are read off the classes of
    a congruence just decided.
    """
    belems = tuple(sorted(set(B)))
    cls = _kernel_classes(alg, belems)
    if cls is None:
        raise UnsupportedSubobjectError(f"{belems} is not normal in {alg.name}",
                                        subobject=belems)
    reps: list[int] = []
    for x, c in enumerate(cls):
        if c == len(reps):
            reps.append(x)
    if len(reps) == 1:  # a one-position itemgetter returns a scalar
        p = d = ((0,),)
    else:
        at_reps = itemgetter(*reps)
        p = tuple(gather(cls, at_reps(alg.p[r])) for r in reps)
        d = tuple(gather(cls, at_reps(alg.d[r])) for r in reps)
    qname = f"{alg.name}/{{{','.join(map(str, belems))}}}"
    return SlominskiAlgebra(qname, cls[alg.zero], p, d), cls


def subalgebra_algebra(alg: SlominskiAlgebra, S: Iterable[int]
                       ) -> tuple[SlominskiAlgebra, tuple[int, ...]]:
    """A subalgebra as an algebra in its own right, with the inclusion's table.

    Carrier indices follow the sorted parent elements.
    """
    elems = tuple(sorted(set(S)))
    if not is_subalgebra(alg, elems):
        raise ValidationError(f"{elems} is not a subalgebra of {alg.name}")
    idx = {e: i for i, e in enumerate(elems)}
    p = tuple(tuple(idx[alg.p[x][y]] for y in elems) for x in elems)
    d = tuple(tuple(idx[alg.d[x][y]] for y in elems) for x in elems)
    sname = f"{alg.name}[{','.join(map(str, elems))}]"
    return SlominskiAlgebra(sname, idx[alg.zero], p, d), elems


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
    Checking d is enough (see check_hom).  In a group the assigned set is
    always a subgroup, since p(x, y) = d(x, d(0, y)).  Branching is only on
    the least unassigned element, with its values in ascending order, which
    puts the tables in lexicographic order: seeded generators pick from this
    list by index.
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
def enumerate_homs(
    A: SlominskiAlgebra, B: SlominskiAlgebra
) -> tuple[tuple[SlominskiAlgebra, SlominskiAlgebra, tuple[int, ...]], ...]:
    """All homs A -> B as (A, B, table), what as_form takes, in lexicographic
    order of their tables (see hom_tables)."""
    return tuple((A, B, t) for t in hom_tables(A, B))


def close_homs(
    form: SlominskiForm, algebras: Sequence[SlominskiAlgebra], morphisms: Iterable[Morphism]
) -> tuple[Morphism, ...]:
    """The identities of the algebras' objects in form, then the given
    morphisms of form and every composite of them (core.compose), each
    element table between two objects once (element_key), in the order they
    are found: what form.declare takes."""
    pool: dict[tuple, Morphism] = {}
    for a in algebras:
        m = form.identity(form.object_of(a))
        pool[element_key(m)] = m
    for m in morphisms:
        pool.setdefault(element_key(m), m)
    frontier = list(pool.values())
    while frontier:
        h = frontier.pop()
        for m in list(pool.values()):
            for g, f in ((m, h), (h, m)):
                if f.cod is g.dom:
                    key = composite_element_key(g, f)
                    if key not in pool:
                        pool[key] = compose(g, f)
                        frontier.append(pool[key])
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
        self._fresh = itertools.count()
        self.morphisms: tuple[Morphism, ...] = ()
        self._derived: dict[tuple, tuple[FormObject, Morphism]] = {}

    # objects and morphisms --------------------------------------------

    def object_of(self, alg: SlominskiAlgebra, declare: bool = False) -> FormObject:
        """Form object for an algebra, registered so it is built once.  Only
        declared objects enter self.objects, so the axiom suite sees the
        declared form only; derived ones (quotients, subalgebras) do not."""
        return self._object(alg, lambda: subalgebra_lattice(alg), declare)

    def _object(self, alg, make_lattice, declare=False, keep=True) -> FormObject:
        """object_of, with make_lattice() building a new object's lattice.
        Unless keep, the object is new, takes a fresh id and is not
        registered, so only its users hold it."""
        if not keep:
            return FormObject(f"{alg.name}#{next(self._fresh)}", make_lattice(), algebra=alg)
        got = self._by_algebra.get(alg)
        if got is not None:
            if declare:
                self.objects.setdefault(got.id, got)
            return got
        oid = alg.name
        if oid in self._ids_taken:
            oid = f"{oid}#{len(self._ids_taken)}"
        obj = FormObject(oid, make_lattice(), algebra=alg)
        self._ids_taken.add(oid)
        if declare:
            self.objects[oid] = obj
        self._by_algebra[alg] = obj
        return obj

    def morphism(self, dom: SlominskiAlgebra, cod: SlominskiAlgebra, table: Sequence[int],
                 name: str = "") -> Morphism:
        """The morphism of this form with the element table; the table is
        not checked here (see check_hom)."""
        return element_morphism(self.object_of(dom), self.object_of(cod), table, name)

    def declare(self, algebras: Sequence[SlominskiAlgebra], morphisms: Iterable[Morphism]) -> None:
        """Declare the algebras and this form's morphisms (built by morphism
        or close_homs) as its objects and morphisms; the morphisms are not
        checked again.

        Raises ClosureError when a morphism uses an undeclared algebra, an
        identity is missing, or the element tables are not closed under
        composition; closure is decided from generators (first_uncomposed),
        and the error names the first missing composite in g-major order.
        """
        objs = [self.object_of(a, declare=True) for a in algebras]
        mors = []
        for m in morphisms:
            if self.objects.get(m.dom.id) is not m.dom or self.objects.get(m.cod.id) is not m.cod:
                raise ClosureError(f"hom {m.name or m.element_map} uses an undeclared algebra")
            mors.append(m)
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
        """S as an algebra, with its inclusion; perm(n) relabels its carrier
        (_relabelled).

        The subalgebras of S are the interval [0, S] of its owner's lattice,
        so S's lattice is that interval, relabelled along the inclusion,
        instead of enumerated (_interval_object), and the inclusion's tables
        are read off the interval by rank: the direct image of a subalgebra
        of S is itself, so d lists the interval's positions (the bits of
        down[S]), and the inverse image of an A of the owner is the meet
        A ^ S, so i gathers each meet's rank in the interval.  S's lattice
        derives its keys and masks on first read.
        """
        keep, ck = self._keeps(S), ("sub", S.owner.id, S.key)
        got = self._derived.get(ck) if keep else None
        if got is None:
            sub, table = subalgebra_algebra(S.owner.algebra, S.key)
            lat = S.owner.lattice
            s = lat.index[S.key]
            d = elements_of(lat.down[s])
            obj, rank = self._interval_object(sub, lat, d, dict(zip(table, range(sub.n))), keep)
            got = obj, Morphism(obj, S.owner, d, gather(rank, lat.meet_column(s)),
                                name=f"iota_{S.owner.id}{list(S.key)}", element_map=table)
            if keep:
                self._derived[ck] = got
        return got if perm is None else self._relabelled(*got, perm)

    def quotient_object(self, S: Subobject, perm=None) -> tuple[FormObject, Morphism]:
        """G/N for a normal N, with its projection; perm(n) relabels its
        carrier (_relabelled).

        By AX2 the projection π gives a correspondence: the subalgebras of
        G/N are the images π(A) of the subalgebras A >= N of G.  Each such A
        is a union of classes, since x = p(d(x, a), a) and d(x, a) lies in
        N when x and a are in one class; so π(A) is A's classes, and G/N's
        lattice is read off G's instead of enumerated (_interval_object).
        The projection's tables are read off the interval [N, G] by rank:
        the inverse image of π(A) is A, so i lists the interval's positions
        (the bits of up[N]), and the direct image of any A is π(A v N), so d
        gathers the ranks of the lattice's join column of N
        (MaskLattice.join_column), one list lookup per position.  G/N's
        lattice derives its keys and masks on first read.
        """
        keep, ck = self._keeps(S), ("quot", S.owner.id, S.key)
        got = self._derived.get(ck) if keep else None
        if got is None:
            try:
                q, table = quotient(S.owner.algebra, S.key)
            except UnsupportedSubobjectError as exc:
                raise UnsupportedSubobjectError(str(exc), subobject=S) from None
            lat = S.owner.lattice
            n = lat.index[S.key]
            i = elements_of(lat.up[n])
            obj, rank = self._interval_object(q, lat, i, table, keep)
            got = obj, Morphism(S.owner, obj, gather(rank, lat.join_column(n)), i,
                                name=f"pi_{S.owner.id}/{list(S.key)}", element_map=table)
            if keep:
                self._derived[ck] = got
        return got if perm is None else self._relabelled(*got, perm)

    def _keeps(self, S: Subobject) -> bool:
        """Objects derived from S are registered and remembered only when
        derived from an object this form registered."""
        return self._by_algebra.get(S.owner.algebra) is S.owner

    def _interval_object(self, alg: SlominskiAlgebra, lat: MaskLattice, positions: Sequence[int],
                         label, keep: bool) -> tuple[FormObject, list[int]]:
        """alg's object (registered if keep), whose subalgebras are the
        images of lat's at positions (an interval, ascending) under label,
        which maps each element of the interval's top to one of alg: key
        by key, the labels in order of first appearance.  Also returns, over
        lat's positions, the position in alg's lattice (-1 outside the
        interval).

        The image of the interval is taken in lat's order, which is the
        order of (size, key) that subalgebra_lattice(alg) gives: the
        position of each image is its rank in the interval, and alg's
        lattice is MaskLattice.interval, handed lat, positions and label as
        they are, which derives its keys and masks on their first read and
        sorts and looks up nothing.  Both labellings keep size and key
        order:
        - the inclusion's, x -> its index among S's sorted elements, is
          increasing, so it maps each key to a sorted key of the same size
          and two keys compare as their images do;
        - the projection's, x -> its class, numbers the classes by their
          least elements.  A >= N is a union of classes, so the first
          appearance of each of A's classes in A's sorted key is at its
          least element, in class order: the image key is sorted, of size
          |A|/|N|.  For A, B of one size, the lesser in key order is the
          one that holds m, the least element in one of them only; the
          elements in one only are a union of classes, so m is the least
          element of its class, and it also decides π(A) against π(B).
        The lattice holds no closure over alg (until read, it holds lat,
        positions and label): its joins are read off its own spine."""
        obj = self._object(alg, lambda: MaskLattice.interval(alg.n, lat, positions, label),
                           keep=keep)
        rank = [-1] * len(lat.keys)
        for r, a in enumerate(positions):
            rank[a] = r
        return obj, rank

    def _relabelled(self, obj: FormObject, mor: Morphism, perm) -> tuple[FormObject, Morphism]:
        """obj and mor, its projection or inclusion, read through an
        isomorphism iso from obj onto a copy whose carrier p = perm(n)
        relabels: iso . mor for a projection, mor . iso^-1 for an
        inclusion, under mor's name.  The copy's algebra is
        permuted(obj.algebra, p), and the copy is not registered, so only
        its users hold it.  Its lattice is obj's keys mapped through p and
        sorted once (MaskLattice), and iso's direct image table is each
        key's position there, looked up by mask."""
        p = tuple(perm(obj.algebra.n))
        alg = permuted(obj.algebra, p, name=obj.algebra.name + "~")
        bit = [1 << x for x in p]
        masks = [sum(map(bit.__getitem__, key)) for key in obj.lattice.keys]
        copy = self._object(alg, lambda: MaskLattice(alg.n, masks), keep=False)
        to = tuple(map(copy.lattice.position_of_mask, masks))
        back = sorted(range(len(to)), key=to.__getitem__)
        if mor.cod is obj:
            m = compose(Morphism(obj, copy, to, back, element_map=p), mor)
        else:
            m = compose(mor, Morphism(copy, obj, back, to,
                                      element_map=sorted(range(alg.n), key=p.__getitem__)))
        return copy, Morphism(m.dom, m.cod, m.d, m.i, name=mor.name, element_map=m.element_map)

    def zero_morphism(self, X: FormObject, Y: FormObject) -> Morphism:
        return element_morphism(X, Y, (Y.algebra.zero,) * X.algebra.n, "0")


def element_morphism(dom: FormObject, cod: FormObject, table: Sequence[int], name: str = "") -> Morphism:
    """Build a Morphism from a carrier-level map, with its direct and inverse
    image tables (Morphism.d and .i), memoized on dom's lattice by cod's
    lattice (held weakly: a process-wide domain keeps no codomain alive) and
    the table.

    Both tables are read off the lattices, with no closure.  The direct
    images go along dom's spine, f(s v <x>) = f(s) v <f(x)>
    (MaskLattice.image_column).  The inverse image of a key C of cod is
    {x : f(x) in C}: the table translated by C's membership table, one byte
    per element of dom (cod's member_tables), looked up by those bytes in
    dom (positions_of_cells).  A cod of more than 256 elements, whose
    elements do not fit in a byte, unions the fibres of C's elements,
    fib[y] = {x : f(x) = y}, as a mask of dom instead.  Either way i is
    read off the table element by element, never derived from d.  Callers
    must pass hom tables, checked by check_hom or drawn from hom_tables: for
    a table that is no hom, d is not checked (on Z5, (0, 2, 1, 3, 4) gives a
    morphism), and i raises LatticeError when an inverse image is no
    subalgebra.  A table that does not map dom's carrier into cod's raises
    ValidationError."""
    table = tuple(table)
    dl, cl = dom.lattice, cod.lattice
    got = dl.image_tables.get(cl, {}).get(table)
    if got is None:
        _check_carriers(table, dom.algebra, cod.algebra, name)
        if cod.algebra.n <= 256:
            i = dl.positions_of_cells(map(bytes(table).translate, cl.member_tables))
        else:
            fib = [0] * cod.algebra.n
            for x, y in enumerate(table):
                fib[y] |= 1 << x
            fibre = fib.__getitem__
            i = tuple(map(dl.position_of_mask, [sum(map(fibre, key)) for key in cl.keys]))
        got = dl.image_tables.setdefault(cl, {})[table] = (tuple(dl.image_column(table, cl)), i)
    return Morphism(dom, cod, *got, name=name, element_map=table)


def as_form(
    algebras: Sequence[SlominskiAlgebra],
    homs: Iterable[tuple[SlominskiAlgebra, SlominskiAlgebra, Sequence[int]]],
    name: str = "slominski",
) -> SlominskiForm:
    """Declared Slominski form with an unnamed morphism for each (dom, cod,
    table) of homs, as enumerate_homs gives them.

    Each table is checked (check_hom) as it enters, so a table that is no
    hom raises ValidationError.  The hom set must contain the identities
    and be closed under composition; violations raise ClosureError naming
    the offending pair (see SlominskiForm.declare).
    """
    form = SlominskiForm(name)

    def morphisms():
        # declare takes the objects first, so ids follow the algebras' order,
        # then checks each table and its endpoints in turn
        for dom, cod, table in homs:
            check_hom(dom, cod, table)
            yield form.morphism(dom, cod, table)

    form.declare(algebras, morphisms())
    return form
