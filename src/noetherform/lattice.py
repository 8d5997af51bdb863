"""Bounded subobject lattices.

Two concrete kinds back the engine: element-based lattices (subalgebras of a
finite algebra, keys are sorted element tuples, set operations run on bit
masks) and table lattices (keys and a generating order declared in a form
file).  DualLattice is a lazy order-reversing view used by dualize.

Every lattice numbers its subobjects: `keys` lists them, and `index` maps a
key to its position there.  Morphisms store their image maps over these
positions (see core.Morphism).  Every lattice also holds its order once, as
two tuples of bitsets over positions: bit q of up[p], and bit p of down[q],
is set when keys[p] <= keys[q].  A table lattice builds them from its
declared order and answers leq, join and meet from them; a dual lattice
swaps its base's.

A mask lattice is plain data: keys, masks and the tables derived from
them, and no closure or reference to an algebra.  It numbers its keys in
(size, key) order.  MaskLattice sorts the masks it is given into that
order.  MaskLattice.interval is the lattice of an interval of a parent
lattice relabelled by an order-keeping map (a quotient's or a subalgebra's
lattice is read off its parent's: see slominski._interval_object).  It is
made from the parent, the interval's positions and the labelling alone,
and derives its keys, masks, index, bottom and top together on the first
read of any of them (interval_images), sorting, checking and looking up
nothing; then it drops the parent.  A quotient or subalgebra whose
lattice is never read costs no key.  leq and meet compare masks; join
walks the spine (below).

A mask lattice derives both from its element columns on first use, where
holds[x] is the set of positions whose key holds x: keys[p] <= keys[q] iff
q lies in holds[x] for every x in keys[p] (up), iff p lacks every x outside
keys[q] (down).  It also keeps one spine: for each position a > 0 a lower
cover s of a and the least x in keys[a] outside keys[s], so a = s v <x>,
where <x>, the least key holding x, is the lowest bit of holds[x].  The
spine serves every join, one list lookup per step in the join columns of
the cyclic keys, built once per lattice:
- a v b, for one pair, walks a's chain of spine steps from b, from the
  bottom up: a = <x1> v ... v <xk>, so a v b = ((b v <x1>) v ...) v <xk>
  (join; its chains are built once per lattice);
- the join column of q, the position of a v q for every a, is
  (s v q) v <x> (join_column; the quotient projections read it);
- the image column of a hom f into another mask lattice, the position of
  f(a) for every a, is f(s) v <f(x)> in the codomain (image_column;
  element_morphism reads it).
The meet column of q, the position of a ^ q for every a, needs no spine:
it is the highest bit of down[a] & down[q] (meet_column; the subalgebra
inclusions read it).
element_morphism also keeps three memos on a mask lattice, each built on
first use: image_tables (its answers, by codomain lattice and table),
member_tables (for each key, the 256-byte table y -> [y in key], which
translates a hom table into an inverse image's membership bytes) and
_cell_positions (each key's membership bytes, to its position;
positions_of_cells reads it).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_
from typing import Iterable, Sequence
from weakref import WeakKeyDictionary

from .errors import LatticeError

Key = object  # tuple[int, ...] for mask lattices, str for table lattices


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    x = mask
    while x:
        b = x & -x
        out.append(b.bit_length() - 1)
        x ^= b
    return tuple(out)


def _no_subobject(mask: int) -> LatticeError:
    return LatticeError(f"mask {bin(mask)} is not a subobject")


def _positions(lat, a: Key, b: Key) -> tuple[int, int]:
    """The positions of keys a and b in lat."""
    try:
        return lat.index[a], lat.index[b]
    except KeyError:
        raise LatticeError(f"unknown subobject key {a!r} or {b!r}") from None


def _converse(rows: tuple[int, ...]) -> tuple[int, ...]:
    """The bitset rows of the converse relation."""
    n = len(rows)
    return tuple(sum(1 << p for p in range(n) if rows[p] >> q & 1) for q in range(n))


def interval_images(n: int, parent, positions: Sequence[int], label
                    ) -> tuple[list[tuple[int, ...]], list[int]]:
    """The keys and masks, over n elements, of the images under label of
    parent's keys at positions: key by key, the labels in order of first
    appearance, so an order-keeping label gives sorted keys."""
    bit = [1 << j for j in range(n)]
    pk = parent.keys
    keys = [tuple(dict.fromkeys(map(label.__getitem__, pk[a]))) for a in positions]
    return keys, [sum(map(bit.__getitem__, k)) for k in keys]


class _DerivedOnFirstRead:
    """A field of an interval lattice (MaskLattice.interval).  Its first
    read derives every such field into the instance's __dict__, which later
    reads find before this descriptor, so each lattice calls it once; a
    lattice built by __init__ has them all there from the start."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, lat, owner=None):
        if lat is None:
            return self
        lat._derive()
        return lat.__dict__[self.name]


class MaskLattice:
    """Lattice of the subsets of {0..n-1} given by `masks`, ordered by
    inclusion.  `masks` must contain the bottom and top and be closed under
    intersection; joins are read off the spine (see join)."""

    def __init__(self, n: int, masks: Iterable[int]):
        by_key = {elements_of(m): m for m in set(masks)}
        keys = sorted(by_key, key=lambda k: (len(k), k))
        ms = list(map(by_key.__getitem__, keys))
        if any(m & ~ms[-1] for m in ms):
            raise LatticeError("no top element among the given masks")
        self._adopt(n, keys, ms)

    @classmethod
    def interval(cls, n: int, parent: MaskLattice, positions: Sequence[int],
                 label) -> MaskLattice:
        """The lattice, over n elements, of the images under label of
        parent's keys at positions (see interval_images).  The images must
        come out as __init__ would sort them: distinct, in (size, key)
        order, closed under intersection, the top last; a label that keeps
        size and key order, applied to an interval, gives that.  Nothing is
        sorted, checked or rebuilt, and nothing is derived here: keys,
        masks, index, bottom, top and the mask-to-position map are derived
        together on the first read of any of them, after which the lattice
        holds no reference to parent."""
        lat = cls.__new__(cls)
        lat.n = n
        lat._interval = parent, positions, label
        return lat

    def _adopt(self, n: int, keys: Sequence[Key], masks: Sequence[int]) -> None:
        self.n = n
        self.keys: tuple[Key, ...] = tuple(keys)
        self.masks = tuple(masks)
        at = range(len(self.keys))
        self.index = dict(zip(self.keys, at))
        self._position = dict(zip(self.masks, at))
        self.bottom, self.top = self.keys[0], self.keys[-1]

    def _derive(self) -> None:
        """Fill in an interval lattice's fields from its parent, once."""
        parent, positions, label = self.__dict__.pop("_interval")
        self._adopt(self.n, *interval_images(self.n, parent, positions, label))

    keys = _DerivedOnFirstRead()
    masks = _DerivedOnFirstRead()
    index = _DerivedOnFirstRead()
    _position = _DerivedOnFirstRead()
    bottom = _DerivedOnFirstRead()
    top = _DerivedOnFirstRead()

    @cached_property
    def image_tables(self) -> WeakKeyDictionary:  # element_morphism's: codomain lattice, table
        return WeakKeyDictionary()

    @cached_property
    def _cell_positions(self) -> dict[bytes, int]:
        """The membership bytes of each key (byte x is 1 when the key holds
        x, else 0), to its position; in key order."""
        out = {}
        for p, key in enumerate(self.keys):
            cells = bytearray(self.n)
            for x in key:
                cells[x] = 1
            out[bytes(cells)] = p
        return out

    @cached_property
    def member_tables(self) -> tuple[bytes, ...]:
        """For each position p, the 256-byte translation table y -> [y in
        keys[p]], for an n of at most 256; element_morphism translates a
        hom table by it to read an inverse image's membership bytes."""
        return tuple(cells.ljust(256, b"\0") for cells in self._cell_positions)

    @cached_property
    def _holds(self) -> list[int]:
        """The element columns: holds[x] is the set of positions whose key
        holds x; its lowest bit is <x>, the least key holding x."""
        holds = [0] * self.n
        for q, key in enumerate(self.keys):
            for x in key:
                holds[x] |= 1 << q
        return holds

    @cached_property
    def up(self) -> tuple[int, ...]:
        """keys[p] <= keys[q] iff q is in holds[x] for every x in keys[p]."""
        holds = self._holds
        everything = (1 << len(self.keys)) - 1
        return tuple(reduce(and_, map(holds.__getitem__, key), everything) for key in self.keys)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """keys[p] <= keys[q] iff p lacks every x outside keys[q]."""
        everything = (1 << len(self.keys)) - 1
        lacks = [everything ^ h for h in self._holds]
        top = self.masks[-1]
        return tuple(reduce(and_, map(lacks.__getitem__, elements_of(top & ~m)), everything)
                     for m in self.masks)

    @cached_property
    def spine(self) -> tuple[tuple[int, int], ...]:
        """For each position a > 0, (s, x): s, the highest position in
        down[a] other than a, is a lower cover of a (keys are sorted by
        size), and x is the least element that keys[a] adds to keys[s], so
        a = s v <x>."""
        down, ms = self.down, self.masks
        out = []
        for a in range(1, len(ms)):
            s = (down[a] ^ 1 << a).bit_length() - 1
            rest = ms[a] & ~ms[s]
            out.append((s, (rest & -rest).bit_length() - 1))
        return tuple(out)

    @cached_property
    def _cyclic_joins(self) -> list[list[int]]:
        """For each element y, the join column of <y>: at p, the lowest bit
        of up[p] & up[<y>].  Each cyclic key's column is built once, from
        one list of the positions, so the columns share their ints."""
        up = self.up
        at = list(range(len(up)))
        columns: dict[int, list[int]] = {}
        out = []
        for h in self._holds:
            c = (h & -h).bit_length() - 1
            if c not in columns:
                uc = up[c]
                columns[c] = [at[((j := u & uc) & -j).bit_length() - 1] for u in up]
            out.append(columns[c])
        return out

    @cached_property
    def _join_steps(self) -> tuple[tuple[int, list[int]], ...]:
        """The spine with the join column of <x> in place of x."""
        joins = self._cyclic_joins
        return tuple((s, joins[x]) for s, x in self.spine)

    @cached_property
    def _join_chains(self) -> list[tuple[list[int], ...]]:
        """For each position a, the join columns of the cyclic keys along
        a's spine, from the bottom up: a = <x1> v ... v <xk>."""
        chains = [()]
        for s, cx in self._join_steps:
            chains.append(chains[s] + (cx,))
        return chains

    def join_column(self, q: int) -> list[int]:
        """The position of keys[a] v keys[q] for every position a, along the
        spine: a v q = (s v q) v <x>."""
        col = [q]
        for s, cx in self._join_steps:
            col.append(cx[col[s]])
        return col

    def meet_column(self, q: int) -> list[int]:
        """The position of keys[a] ^ keys[q] for every position a: the
        greatest key below both, the highest bit of down[a] & down[q]
        (keys are sorted by size)."""
        dq = self.down[q]
        return [(x & dq).bit_length() - 1 for x in self.down]

    def image_column(self, table: Sequence[int], cod: MaskLattice) -> list[int]:
        """The position in cod of the direct image of every key under the
        hom table, along the spine: f(s v <x>) = f(s) v <f(x)>, read off
        cod's join column of <f(x)> at f(s); the bottom goes to cod's.  No
        image is looked up as a mask, so a table that is no hom is not
        detected."""
        joins = cod._cyclic_joins
        col = [0]
        for s, x in self.spine:
            col.append(joins[table[x]][col[s]])
        return col

    def position_of_mask(self, mask: int) -> int:
        try:
            return self._position[mask]
        except KeyError:
            raise _no_subobject(mask) from None

    def positions_of_cells(self, cells: Iterable[bytes]) -> tuple[int, ...]:
        """The position of each key given by its membership bytes (see
        _cell_positions); the first that is no key raises as
        position_of_mask does."""
        try:
            return tuple(map(self._cell_positions.__getitem__, cells))
        except KeyError as exc:
            raise _no_subobject(mask_of(x for x, c in enumerate(exc.args[0]) if c)) from None

    def leq(self, a: Key, b: Key) -> bool:
        p, q = _positions(self, a, b)
        return self.masks[p] & ~self.masks[q] == 0

    def join(self, a: Key, b: Key) -> Key:
        """Along a's spine from b: a v b = ((b v <x1>) v ...) v <xk>, one
        lookup per step of the chain (_join_chains)."""
        p, r = _positions(self, a, b)
        for column in self._join_chains[p]:
            r = column[r]
        return self.keys[r]

    def meet(self, a: Key, b: Key) -> Key:
        p, q = _positions(self, a, b)
        return self.keys[self.position_of_mask(self.masks[p] & self.masks[q])]


class TableLattice:
    """Lattice given by explicit keys and a generating order relation: the
    first key is the bottom, the last the top, and the order is the
    reflexive-transitive closure of the pairs."""

    def __init__(self, keys: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self.keys = tuple(keys)
        if not self.keys:
            raise LatticeError("a lattice needs at least one key")
        if len(set(self.keys)) != len(self.keys):
            raise LatticeError("duplicate subobject keys")
        self.index = index = {k: i for i, k in enumerate(self.keys)}
        self.bottom = self.keys[0]
        self.top = self.keys[-1]
        n = len(self.keys)
        up = [1 << p | 1 << (n - 1) for p in range(n)]
        up[0] = (1 << n) - 1
        for a, b in pairs:
            if a not in index or b not in index:
                raise LatticeError(f"order relation mentions unknown key {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        # Warshall on bitsets: whatever is above k is above everything below k
        for k in range(n):
            for p in range(n):
                if up[p] >> k & 1:
                    up[p] |= up[k]
        self.up = tuple(up)
        self.down = _converse(self.up)

    def leq(self, a: Key, b: Key) -> bool:
        p, q = _positions(self, a, b)
        return self.up[p] >> q & 1 == 1

    def _unique_with(self, sets: tuple[int, ...], a: Key, b: Key, op: str) -> Key:
        """The one key whose set in sets is the intersection of a's and b's:
        over up-sets the join, over down-sets the meet."""
        p, q = _positions(self, a, b)
        want = sets[p] & sets[q]
        if sets.count(want) != 1:
            raise LatticeError(f"{op} of {a!r} and {b!r} does not exist")
        return self.keys[sets.index(want)]

    def join(self, a: Key, b: Key) -> Key:
        return self._unique_with(self.up, a, b, "join")

    def meet(self, a: Key, b: Key) -> Key:
        return self._unique_with(self.down, a, b, "meet")


class DualLattice:
    """Order-reversed view of a lattice; dual(dual(L)) unwraps to L."""

    def __init__(self, base):
        self.base = base
        self.keys = base.keys
        self.index = base.index
        self.bottom = base.top
        self.top = base.bottom

    @property
    def up(self) -> tuple[int, ...]:
        return self.base.down

    @property
    def down(self) -> tuple[int, ...]:
        return self.base.up

    def leq(self, a: Key, b: Key) -> bool:
        return self.base.leq(b, a)

    def join(self, a: Key, b: Key) -> Key:
        return self.base.meet(a, b)

    def meet(self, a: Key, b: Key) -> Key:
        return self.base.join(a, b)


def dual_lattice(lat):
    return lat.base if isinstance(lat, DualLattice) else DualLattice(lat)
