"""Bounded subobject lattices.

Two concrete kinds back the engine: element-based lattices (subalgebras of a
finite algebra, keys are sorted element tuples, set operations run on bit
masks) and table lattices (keys and a generating order declared in a form
file).  DualLattice is a lazy order-reversing view used by dualize.

Every lattice numbers its subobjects: `keys` lists them, and `index` maps a
key to its position there.  Morphisms store their image maps over these
positions (see core.Morphism).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

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


class MaskLattice:
    """Lattice of closed subsets of {0..n-1}, ordered by inclusion.

    `masks` must contain the bottom and top and be closed under intersection;
    `close` maps an arbitrary subset mask to the least closed superset (used
    for joins).
    """

    def __init__(self, n: int, masks: Iterable[int], close: Callable[[int], int]):
        self.n = n
        self._close = close
        ms = sorted(set(masks), key=lambda m: (bin(m).count("1"), elements_of(m)))
        self.masks = tuple(ms)
        self.keys: tuple[Key, ...] = tuple(elements_of(m) for m in ms)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self._mask = dict(zip(self.keys, ms))
        self._position = {m: i for i, m in enumerate(ms)}
        if any(m & ~ms[-1] for m in ms):
            raise LatticeError("no top element among the given masks")
        self.bottom, self.top = self.keys[0], self.keys[-1]

    def mask(self, key: Key) -> int:
        try:
            return self._mask[key]
        except KeyError:
            raise LatticeError(f"unknown subobject key {key!r}") from None

    def position_of_mask(self, mask: int) -> int:
        try:
            return self._position[mask]
        except KeyError:
            raise LatticeError(f"mask {bin(mask)} is not a subobject") from None

    def key_of_mask(self, mask: int) -> Key:
        return self.keys[self.position_of_mask(mask)]

    def leq(self, a: Key, b: Key) -> bool:
        return self.mask(a) & ~self.mask(b) == 0

    def join(self, a: Key, b: Key) -> Key:
        return self.key_of_mask(self._close(self.mask(a) | self.mask(b)))

    def meet(self, a: Key, b: Key) -> Key:
        return self.key_of_mask(self.mask(a) & self.mask(b))


class TableLattice:
    """Lattice given by explicit keys and a generating order relation."""

    def __init__(self, keys: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self.keys = tuple(keys)
        if not self.keys:
            raise LatticeError("a lattice needs at least one key")
        if len(set(self.keys)) != len(self.keys):
            raise LatticeError("duplicate subobject keys")
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.bottom = self.keys[0]
        self.top = self.keys[-1]
        up = {k: {k} for k in self.keys}
        for a, b in pairs:
            if a not in up or b not in up:
                raise LatticeError(f"order relation mentions unknown key {a!r} or {b!r}")
            up[a].add(b)
        for k in self.keys:
            up[self.bottom].add(k)
            up[k].add(self.top)
        # reflexive-transitive closure (Warshall on the small key set)
        changed = True
        while changed:
            changed = False
            for a in self.keys:
                grow = set()
                for b in up[a]:
                    grow |= up[b]
                if not grow <= up[a]:
                    up[a] |= grow
                    changed = True
        self._up =up

    def leq(self, a: Key, b: Key) -> bool:
        if a not in self._up or b not in self._up:
            raise LatticeError(f"unknown subobject key {a!r} or {b!r}")
        return b in self._up[a]

    def _bound(self, a: Key, b: Key, upper: bool) -> Optional[Key]:
        if upper:
            cands = [k for k in self.keys if self.leq(a, k) and self.leq(b, k)]
            best = [k for k in cands if all(self.leq(k, c) for c in cands)]
        else:
            cands = [k for k in self.keys if self.leq(k, a) and self.leq(k, b)]
            best = [k for k in cands if all(self.leq(c, k) for c in cands)]
        return best[0] if len(best) == 1 else None

    def join(self, a: Key, b: Key) -> Key:
        j = self._bound(a, b, upper=True)
        if j is None:
            raise LatticeError(f"join of {a!r} and {b!r} does not exist")
        return j

    def meet(self, a: Key, b: Key) -> Key:
        m = self._bound(a, b, upper=False)
        if m is None:
            raise LatticeError(f"meet of {a!r} and {b!r} does not exist")
        return m


class DualLattice:
    """Order-reversed view of a lattice; dual(dual(L)) unwraps to L."""

    def __init__(self, base):
        self.base = base
        self.keys = base.keys
        self.index = base.index
        self.bottom = base.top
        self.top = base.bottom

    def leq(self, a: Key, b: Key) -> bool:
        return self.base.leq(b, a)

    def join(self, a: Key, b: Key) -> Key:
        return self.base.meet(a, b)

    def meet(self, a: Key, b: Key) -> Key:
        return self.base.join(a, b)


def dual_lattice(lat):
    return lat.base if isinstance(lat, DualLattice) else DualLattice(lat)
