"""Cayley-table constructors for the small groups used as fixtures.

All groups of order <= 8 are covered: cyclic groups, elementary abelian
2-groups, C4 x C2, the dihedral group of order 8 (element order fixed as
e, a, a2, a3, b, ab, a2b, a3b), the quaternion group, and S3 (as the
dihedral group of order 6).
"""

from __future__ import annotations

from functools import lru_cache

from .slominski import SlominskiAlgebra, from_group

GroupData = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]


def cyclic_data(n: int) -> GroupData:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return table, inv, 0


def product_data(a: GroupData, b: GroupData) -> GroupData:
    ta, ia, ea = a
    tb, ib, eb = b
    na, nb = len(ta), len(tb)
    idx = lambda x, y: x * nb + y
    table = tuple(
        tuple(idx(ta[x1][x2], tb[y1][y2]) for x2 in range(na) for y2 in range(nb))
        for x1 in range(na)
        for y1 in range(nb)
    )
    inv = tuple(idx(ia[x], ib[y]) for x in range(na) for y in range(nb))
    return table, inv, idx(ea, eb)


def dihedral_data(m: int) -> GroupData:
    # elements a^i b^j indexed i + m*j, with b a = a^-1 b
    n = 2 * m
    def mul(x, y):
        i, j = x % m, x // m
        k, l = y % m, y // m
        return (i + (k if j == 0 else -k)) % m + m * ((j + l) % 2)
    table = tuple(tuple(mul(x, y) for y in range(n)) for x in range(n))
    inv = []
    for x in range(n):
        inv.append(next(y for y in range(n) if mul(x, y) == 0))
    return table, tuple(inv), 0


def quaternion_data() -> GroupData:
    # elements i^m j^l indexed m + 4*l, with j i = i^-1 j and j^2 = i^2
    def mul(x, y):
        m, l = x % 4, x // 4
        k, s = y % 4, y // 4
        if l == 0:
            return (m + k) % 4 + 4 * s
        if s == 0:
            return (m - k) % 4 + 4
        return (m - k + 2) % 4
    table = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
    inv = tuple(next(y for y in range(8) if mul(x, y) == 0) for x in range(8))
    return table, tuple(inv), 0


@lru_cache(maxsize=None)
def cyclic(n: int) -> SlominskiAlgebra:
    return from_group(*cyclic_data(n), name=f"Z{n}")


@lru_cache(maxsize=None)
def xor_group(k: int) -> SlominskiAlgebra:
    """Elementary abelian 2-group of rank k; carrier elements are bit vectors."""
    n = 1 << k
    table = tuple(tuple(i ^ j for j in range(n)) for i in range(n))
    return from_group(table, tuple(range(n)), 0, name=f"E{n}")


@lru_cache(maxsize=None)
def klein4() -> SlominskiAlgebra:
    return xor_group(2)


@lru_cache(maxsize=None)
def c4xc2() -> SlominskiAlgebra:
    return from_group(*product_data(cyclic_data(4), cyclic_data(2)), name="Z4xZ2")


@lru_cache(maxsize=None)
def dihedral8() -> SlominskiAlgebra:
    return from_group(*dihedral_data(4), name="D8")


@lru_cache(maxsize=None)
def quaternion8() -> SlominskiAlgebra:
    return from_group(*quaternion_data(), name="Q8")


@lru_cache(maxsize=None)
def symmetric3() -> SlominskiAlgebra:
    return from_group(*dihedral_data(3), name="S3")


@lru_cache(maxsize=None)
def trivial_group() -> SlominskiAlgebra:
    return from_group(((0,),), (0,), 0, name="1")


def all_groups_le8() -> tuple[SlominskiAlgebra, ...]:
    """One representative per isomorphism class of groups of order <= 8."""
    return (
        trivial_group(),
        cyclic(2),
        cyclic(3),
        cyclic(4),
        klein4(),
        cyclic(5),
        cyclic(6),
        symmetric3(),
        cyclic(7),
        cyclic(8),
        c4xc2(),
        xor_group(3),
        dihedral8(),
        quaternion8(),
    )


# named D8 subgroups under the fixed element order e,a,a2,a3,b,ab,a2b,a3b
D8_B = (0, 4)            # {e, b}
D8_V = (0, 2, 4, 6)      # {e, a2, b, a2b}
