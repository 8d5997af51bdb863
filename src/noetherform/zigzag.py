"""Zigzags: alternating-direction chains of morphisms and subgroup chasing.

Chasing forward applies direct images on right-pointing edges and inverse
images on left-pointing ones; backward chasing is the forward chase of the
opposite zigzag.  A zigzag whose left-pointing edges are all isomorphisms is
collapsible and induces a composite morphism.  For zigzags realized by
Slominski homs the induced relation (relational composite of the edge
graphs) provides an independent element-level oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .core import (
    FormObject,
    Frozen,
    Morphism,
    Subobject,
    direct_image,
    gather,
    inverse_image,
    is_isomorphism,
)
from .errors import OwnershipError, UnsupportedFormError, ValidationError

RIGHT = "right"
LEFT = "left"


class Edge(Frozen):
    # direction RIGHT: dom is the left node; LEFT: dom is the right node
    def __init__(self, morphism: Morphism, direction: str):
        if direction not in (RIGHT, LEFT):
            raise ValidationError(f"bad edge direction {direction!r}")
        object.__setattr__(self, "morphism", morphism)
        object.__setattr__(self, "direction", direction)


class Zigzag(Frozen):
    def __init__(self, nodes: tuple[FormObject, ...], edges: tuple[Edge, ...], form=None):
        if len(nodes) != len(edges) + 1 or not nodes:
            raise ValidationError("zigzag must have one more node than edges")
        for i, e in enumerate(edges):
            left, right = nodes[i], nodes[i + 1]
            dom, cod = (left, right) if e.direction == RIGHT else (right, left)
            if e.morphism.dom.id != dom.id or e.morphism.cod.id != cod.id:
                raise ValidationError(
                    f"edge {i} ({e.morphism!r}, {e.direction}) does not connect "
                    f"{left.id} and {right.id}"
                )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "form", form)

    def __len__(self):
        return len(self.edges)

    @property
    def start(self) -> FormObject:
        return self.nodes[0]

    @property
    def end(self) -> FormObject:
        return self.nodes[-1]

    def opposite(self) -> "Zigzag":
        return self._opposite

    @cached_property
    def _opposite(self) -> "Zigzag":
        # built once per zigzag and linked back, so z.opposite().opposite()
        # is z: a backward chase, chased_morphism and decide_isomorphism all
        # read the opposite, and a zigzag never changes
        flipped = tuple(
            Edge(e.morphism, LEFT if e.direction == RIGHT else RIGHT)
            for e in reversed(self.edges)
        )
        opp = Zigzag(tuple(reversed(self.nodes)), flipped, form=self.form)
        opp.__dict__["_opposite"] = self
        return opp


def path(form, *edges: tuple[Morphism, str]) -> Zigzag:
    """Zigzag along (morphism, direction) edges; each node is where the
    edge before it ends."""
    m, direction = edges[0]
    nodes = [m.dom if direction == RIGHT else m.cod]
    nodes += [m.cod if direction == RIGHT else m.dom for m, direction in edges]
    return Zigzag(tuple(nodes), tuple(Edge(m, dr) for m, dr in edges), form=form)


def chase_forward(z: Zigzag, S: Subobject, trace: bool = False):
    if S.owner.id != z.start.id:
        raise OwnershipError(f"{S!r} is not a subobject of the initial node {z.start.id}")
    steps = [S]
    cur = S
    for e in z.edges:
        cur = (direct_image if e.direction == RIGHT else inverse_image)(e.morphism, cur)
        steps.append(cur)
    return (cur, steps) if trace else cur


def chase_backward(z: Zigzag, T: Subobject, trace: bool = False):
    if T.owner.id != z.end.id:
        raise OwnershipError(f"{T!r} is not a subobject of the final node {z.end.id}")
    return chase_forward(z.opposite(), T, trace)


def is_collapsible(z: Zigzag) -> bool:
    return all(is_isomorphism(e.morphism) for e in z.edges if e.direction == LEFT)


def chased_table(z: Zigzag) -> tuple[int, ...]:
    """The forward chase of every subobject of the start node, by position:
    the edge tables gathered along the zigzag, d on right-pointing edges and
    i on left-pointing ones."""
    table = tuple(range(len(z.start.lattice.keys)))
    for e in z.edges:
        table = gather(e.morphism.d if e.direction == RIGHT else e.morphism.i, table)
    return table


def chased_morphism(z: Zigzag, name: str = "") -> Morphism:
    """Morphism whose image maps are the forward chases of the zigzag (d)
    and of its opposite (i)."""
    d, i = chased_table(z), chased_table(z.opposite())
    emap = None
    if all(n.algebra is not None for n in z.nodes) and all(
        e.morphism.element_map is not None for e in z.edges
    ):
        emap = relation_function(induced_relation(z), z.start.algebra.n)
    return Morphism(z.start, z.end, d, i, name=name, element_map=emap)


def induced_relation(z: Zigzag) -> frozenset[tuple[int, int]]:
    """Relational composite of the edge hom graphs (opposite graphs for left
    edges), as a set of carrier pairs between the end nodes."""
    for node in z.nodes:
        if node.algebra is None:
            raise UnsupportedFormError(f"node {node.id} has no Slominski realization")
    for e in z.edges:
        if e.morphism.element_map is None:
            raise UnsupportedFormError(f"edge {e.morphism!r} has no Slominski realization")
    rel = {(x, x) for x in range(z.start.algebra.n)}
    for e in z.edges:
        t = e.morphism.element_map
        if e.direction == RIGHT:
            rel = {(a, t[b]) for a, b in rel}
        else:
            rel = {(a, x) for a, b in rel for x in range(e.morphism.dom.algebra.n) if t[x] == b}
    return frozenset(rel)


def relation_function(rel: frozenset[tuple[int, int]], domain_size: int) -> Optional[tuple[int, ...]]:
    """The relation as an element table when total and single-valued."""
    table: list[Optional[int]] = [None] * domain_size
    for a, b in rel:
        if table[a] is not None and table[a] != b:
            return None
        table[a] = b
    if any(v is None for v in table):
        return None
    return tuple(table)  # type: ignore[arg-type]
