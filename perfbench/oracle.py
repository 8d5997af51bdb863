"""Known answers that do not come from the engine.

Group-theory counts are closed formulas; the zigzag relation is recomputed
here from the edge element tables alone.  Nothing in this module imports
noetherform.
"""

from __future__ import annotations


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def tau(n: int) -> int:
    return len(divisors(n))


def sigma(n: int) -> int:
    return sum(divisors(n))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspaces(rank: int, q: int = 2) -> int:
    """Subgroups of the elementary abelian group of order q**rank."""
    return sum(gaussian_binomial(rank, k, q) for k in range(rank + 1))


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def subgroups_zm_zn(m: int, n: int) -> int:
    """Subgroups of Z_m x Z_n: the sum of gcd(a, b) over divisors a | m, b | n
    (Hampejs, Holighaus, Toth and Wiesmeyr, 2014)."""
    return sum(gcd(a, b) for a in divisors(m) for b in divisors(n))


def dihedral_subgroups(n: int) -> tuple[int, int]:
    """(subgroups, normal subgroups) of the dihedral group of order 2n:
    tau(n) + sigma(n) subgroups; tau(n) + 3 normal ones for even n."""
    assert n % 2 == 0
    return tau(n) + sigma(n), tau(n) + 3


# Known answers for the scale ladder: name -> (order, subgroups, normal
# subgroups).  Abelian groups have every subgroup normal.  Z4 x E4 =
# Z4 x Z2 x Z2 has 27 subgroups (the standard table of subgroup counts of
# the abelian groups of order 16: 5, 11, 15, 27, 67).
SCALE_GROUPS = {
    "Z16": (16, tau(16), tau(16)),
    "Z8xZ2": (16, subgroups_zm_zn(8, 2), subgroups_zm_zn(8, 2)),
    "Z4xZ4": (16, subgroups_zm_zn(4, 4), subgroups_zm_zn(4, 4)),
    "Z4xE4": (16, 27, 27),
    "E16": (16, subspaces(4), subspaces(4)),
    "D16": (16, *dihedral_subgroups(8)),
    "E32": (32, subspaces(5), subspaces(5)),
    "D32": (32, *dihedral_subgroups(16)),
    "Z64": (64, tau(64), tau(64)),
}

# |End(G)| for the groups whose endomorphisms are enumerated.
#   Hom(Z_m, Z_n) has gcd(m, n) elements and Hom is additive in products;
#   End(E_{2^k}) = M_k(F_2); End(S3) = 6 automorphisms + 3 of order-2
#   image + 0; End(D8) = 8 + 1 + 15 + 12; End(Q8) = 24 + 1 + 3;
#   End(D16) = 32 automorphisms + 1 + 27 (order-2 image) + 24 (Klein image)
#   + 16 (D8 image).
def _end_abelian(*cyclic_orders: int) -> int:
    out = 1
    for a in cyclic_orders:
        for b in cyclic_orders:
            out *= gcd(a, b)
    return out


END_COUNTS = {
    "1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "E4": 16, "Z5": 5, "Z6": 6, "S3": 10,
    "Z7": 7, "Z8": 8, "Z4xZ2": _end_abelian(4, 2), "E8": 2 ** 9, "D8": 36,
    "Q8": 28, "Z16": 16, "Z8xZ2": _end_abelian(8, 2), "Z4xZ4": _end_abelian(4, 4),
    "D16": 100,
}

# Every check of the axiom suite with axiom 6, in report order.
AXIOM_CHECKS = ("P1", "P2", "P3", "BL", "G", "I", "A", "F1", "F2", "AX2", "AX3",
                "AX4", "AX5", "AX6")


def zigzag_function(start_n: int, edges) -> tuple[int, ...] | None:
    """The relational composite of a zigzag's edge graphs as an element
    table, or None when it is not a function.

    edges: (element table, points_right, size of the edge's domain)."""
    rel = [{x} for x in range(start_n)]
    for table, right, dom_n in edges:
        if right:
            rel = [{table[b] for b in r} for r in rel]
        else:
            pre: dict[int, set] = {}
            for x in range(dom_n):
                pre.setdefault(table[x], set()).add(x)
            rel = [set().union(*(pre.get(b, set()) for b in r)) for r in rel]
    if any(len(r) != 1 for r in rel):
        return None
    return tuple(next(iter(r)) for r in rel)


def is_bijection(table, n: int) -> bool:
    return len(table) == n and len(set(table)) == n
