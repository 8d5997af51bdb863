import pytest

from noetherform.errors import LatticeError
from noetherform.lattice import (
    DualLattice,
    MaskLattice,
    TableLattice,
    dual_lattice,
    elements_of,
    mask_of,
)


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert elements_of(0b101) == (0, 2)
    assert elements_of(0) == ()


@pytest.fixture
def z4_lattice():
    masks = [0b0001, 0b0101, 0b1111]
    return MaskLattice(4, masks)


def test_mask_lattice_keys_sorted_by_size(z4_lattice):
    assert z4_lattice.keys == ((0,), (0, 2), (0, 1, 2, 3))
    assert z4_lattice.bottom == (0,)
    assert z4_lattice.top == (0, 1, 2, 3)


def test_mask_lattice_ops(z4_lattice):
    lat = z4_lattice
    assert lat.leq((0,), (0, 2))
    assert not lat.leq((0, 2), (0,))
    assert lat.meet((0, 2), (0, 1, 2, 3)) == (0, 2)
    assert lat.join((0,), (0, 2)) == (0, 2)
    assert lat.join((0, 2), (0, 2)) == (0, 2)
    assert lat.join((0, 2), (0,)) == (0, 2)


def test_mask_lattice_rejects_unknown_key(z4_lattice):
    with pytest.raises(LatticeError):
        z4_lattice.leq((1,), (0,))


def test_table_lattice_closure_and_bounds():
    lat = TableLattice(["bot", "a", "b", "top"], [("a", "top"), ("b", "top")])
    assert lat.bottom == "bot"
    assert lat.top == "top"
    assert lat.leq("bot", "a")
    assert lat.leq("a", "top")
    assert not lat.leq("a", "b")
    assert lat.join("a", "b") == "top"
    assert lat.meet("a", "b") == "bot"


def test_table_lattice_missing_bound_raises():
    # a, b have two incomparable minimal upper bounds c, d
    lat = TableLattice(
        ["bot", "a", "b", "c", "d", "top"],
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    with pytest.raises(LatticeError):
        lat.join("a", "b")


@pytest.mark.parametrize("pair", [("x", "1"), ("0", "x")], ids=["left", "right"])
def test_table_lattice_names_an_unknown_key_on_either_side(pair):
    # only library callers reach this: the parser checks order keys first
    with pytest.raises(LatticeError, match="order relation mentions unknown key"):
        TableLattice(["0", "1"], [pair])


def test_dual_lattice_swaps_everything(z4_lattice):
    d = DualLattice(z4_lattice)
    assert d.bottom == z4_lattice.top
    assert d.top == z4_lattice.bottom
    assert d.leq((0, 2), (0,))
    assert d.join((0,), (0, 2)) == (0,)
    assert d.meet((0,), (0, 2)) == (0, 2)
    assert dual_lattice(d) is z4_lattice


class _ReferenceTable:
    """The search TableLattice used before it held bitset tables: the order
    closed by repeated set unions, and each bound found among all the keys
    by O(k^2) comparisons."""

    def __init__(self, keys, pairs):
        self.keys = tuple(keys)
        up = {k: {k, self.keys[-1]} for k in self.keys}
        up[self.keys[0]] |= set(self.keys)
        for a, b in pairs:
            up[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in self.keys:
                grow = set().union(*(up[b] for b in up[a]))
                if not grow <= up[a]:
                    up[a] |= grow
                    changed = True
        self.up = up

    def leq(self, a, b):
        return b in self.up[a]

    def bound(self, a, b, upper):
        if upper:
            cands = [k for k in self.keys if self.leq(a, k) and self.leq(b, k)]
            best = [k for k in cands if all(self.leq(k, c) for c in cands)]
        else:
            cands = [k for k in self.keys if self.leq(k, a) and self.leq(k, b)]
            best = [k for k in cands if all(self.leq(c, k) for c in cands)]
        return best[0] if len(best) == 1 else None


def _outcome(op, a, b):
    try:
        return op(a, b)
    except LatticeError as exc:
        return str(exc)


def test_table_lattice_matches_the_reference_search():
    import random

    rng = random.Random(5)
    missing = cycles = 0
    for _ in range(300):
        keys = [f"k{j}" for j in range(rng.randint(1, 7))]
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(rng.randint(0, 9))]
        lat, ref = TableLattice(keys, pairs), _ReferenceTable(keys, pairs)
        for a in keys:
            for b in keys:
                assert lat.leq(a, b) == ref.leq(a, b)
                for op, upper, name in ((lat.join, True, "join"), (lat.meet, False, "meet")):
                    want = ref.bound(a, b, upper)
                    if want is None:
                        want = f"{name} of {a!r} and {b!r} does not exist"
                        missing += 1
                    assert _outcome(op, a, b) == want
                cycles += a != b and lat.leq(a, b) and lat.leq(b, a)
    # the relations include cycles (a <= b <= a) and non-lattices
    assert missing and cycles


def test_table_lattice_orders_by_the_reflexive_transitive_closure():
    # P1 and P2 are guarded by construction: whatever pairs a form block
    # declares, the up-sets are reflexive and transitive and hold every
    # pair, the bottom below and the top above every key.  A chain declared
    # from its top down needs every step of the closure
    import random

    rng = random.Random(13)
    chain = [f"c{j}" for j in range(8)]
    cases = [(chain, list(zip(chain, chain[1:]))[::-1])]
    for _ in range(300):
        keys = [f"k{j}" for j in range(rng.randint(1, 8))]
        cases.append((keys, [(rng.choice(keys), rng.choice(keys))
                             for _ in range(rng.randint(0, 10))]))
    for keys, pairs in cases:
        lat = TableLattice(keys, pairs)
        up, at = lat.up, lat.index
        assert all(up[p] >> p & 1 and up[p] >> len(keys) - 1 & 1 for p in range(len(keys)))
        assert up[0] == (1 << len(keys)) - 1
        assert all(up[at[a]] >> at[b] & 1 for a, b in pairs)
        assert all(up[q] & ~up[p] == 0 for p in range(len(keys)) for q in elements_of(up[p]))
    assert TableLattice(*cases[0]).up == tuple(255 ^ (1 << p) - 1 for p in range(8))


def test_lattices_hold_their_order_as_bitsets(z4_lattice):
    for lat in (z4_lattice, TableLattice(["bot", "a", "b", "top"], [("a", "top")])):
        for p, a in enumerate(lat.keys):
            for q, b in enumerate(lat.keys):
                assert lat.up[p] >> q & 1 == lat.down[q] >> p & 1 == lat.leq(a, b)
    masks = z4_lattice.masks
    assert z4_lattice.up == tuple(
        sum(1 << q for q, n in enumerate(masks) if m & n == m) for m in masks)
    d = DualLattice(z4_lattice)
    assert d.up is z4_lattice.down and d.down is z4_lattice.up


# ---------------------------------------------------------------------------
# MaskLattice.join reads each union's closure off the spine, without a closure


def _join_groups():
    from noetherform.groups import dihedral8, quaternion8, xor_group

    return [xor_group(3), dihedral8(), quaternion8()]


@pytest.mark.parametrize("alg", _join_groups(), ids=lambda a: a.name)
def test_join_closes_each_union_once_and_agrees_with_a_fresh_closure(alg):
    # the lattice is built from masks alone; every join is the key of the
    # closure of the union, the same key object on a second call, and a
    # second lattice over the same masks answers alike
    from noetherform.slominski import close_mask, subalgebra_masks

    masks = subalgebra_masks(alg)
    lat, other = MaskLattice(alg.n, masks), MaskLattice(alg.n, masks)
    for p, a in enumerate(lat.keys):
        for q, b in enumerate(lat.keys):
            want = lat.keys[lat.position_of_mask(close_mask(alg, lat.masks[p] | lat.masks[q]))]
            got = lat.join(a, b)
            assert got == want and lat.join(a, b) is got, (a, b)
            assert other.join(a, b) == want, (a, b)
    top = other.keys[-1]
    assert other.join(top, top) == top


@pytest.mark.parametrize("alg", _join_groups(), ids=lambda a: a.name)
def test_join_remembers_no_error(alg):
    # an unknown key raises on every call, on either side, and leaves the
    # joins of known keys as they were
    from noetherform.slominski import close_mask, subalgebra_masks

    lat = MaskLattice(alg.n, subalgebra_masks(alg))
    a, b = lat.keys[1], lat.keys[-2]
    want = lat.keys[lat.position_of_mask(close_mask(alg, lat.masks[1] | lat.masks[-2]))]
    for _ in range(2):
        for pair in ((a, ("no", "such", "key")), (("no", "such", "key"), a)):
            with pytest.raises(LatticeError):
                lat.join(*pair)
        assert lat.join(a, b) == want
