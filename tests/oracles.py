"""Oracles the tests judge the engine by, written apart from it.

collapse is the paper's route to the morphism a collapsible zigzag induces:
compose the edges, each left edge as its inverse isomorphism.  zigzag_function
is the relational composite of a zigzag's element maps, so it judges the
element maps the engine induces without going through
zigzag.induced_relation.  factorize states AX4's f = m . h . e through the
public mediators.  The rest are small constructions that several test
modules share: a zigzag or a four-lemma diagram read in the dual form, the
subquotient test on zigzags, and the strongly-short-exact report.
"""

from noetherform.core import (
    Morphism,
    compose,
    dualize,
    identity_morphism,
    image,
    is_injective,
    is_surjective,
    kernel,
)
from noetherform.diagram import Diagram, LemmaReport, check_assertions, exact, short_exact
from noetherform.errors import ValidationError
from noetherform.zigzag import LEFT, RIGHT, Edge, Zigzag, is_collapsible


def collapse(z: Zigzag) -> Morphism:
    """Composite of a collapsible zigzag; left edges contribute the maps of
    the inverse isomorphism."""
    if not is_collapsible(z):
        raise ValidationError("zigzag is not collapsible")
    cur = identity_morphism(z.start)
    for e in z.edges:
        m = e.morphism
        if e.direction == RIGHT:
            step = m
        else:
            # (GF): image maps of the inverse isomorphism are the swapped maps
            emap = None
            if m.element_map is not None:
                emap = [0] * m.dom.algebra.n
                for x, v in enumerate(m.element_map):
                    emap[v] = x
            step = Morphism(m.cod, m.dom, m.i, m.d,
                            name=f"{m.name}^-1" if m.name else "", element_map=emap)
        cur = compose(step, cur)
    return cur


def zigzag_function(z: Zigzag):
    """The relational composite of z's edge graphs (a left edge's graph read
    backwards) as an element table on the start node's carrier, or None
    when it is not a function."""
    rel = [{x} for x in range(z.start.algebra.n)]
    for e in z.edges:
        table = e.morphism.element_map
        if e.direction == RIGHT:
            rel = [{table[b] for b in r} for r in rel]
        else:
            pre = {}
            for x, y in enumerate(table):
                pre.setdefault(y, set()).add(x)
            rel = [set().union(*(pre.get(b, ()) for b in r)) for r in rel]
    if any(len(r) != 1 for r in rel):
        return None
    return tuple(min(r) for r in rel)


def factorize(form, f: Morphism):
    """(e, h, m) with f = m . h . e: e the projection of Ker f, m the
    embedding of Im f and h the mediator of f . e^-1 through m, each asked
    of the form in that order, so a FormError names the first that fails."""
    e = form.projection_of(kernel(f))
    m = form.embedding_of(image(f))
    return e, form.mediating_embedding(form.mediating_projection(f, e), m), m


def dual_zigzag(z: Zigzag, dual_form) -> Zigzag:
    """The same zigzag seen in the dual form: every arrow reverses, so each
    direction flag flips and each morphism is replaced by its dual."""
    nodes = tuple(n.dual for n in z.nodes)
    edges = tuple(
        Edge(e.morphism.dual(), LEFT if e.direction == RIGHT else RIGHT) for e in z.edges
    )
    return Zigzag(nodes, edges, form=dual_form)


def is_subquotient(z: Zigzag) -> bool:
    """Left edges embeddings, right edges projections."""
    return all(
        is_injective(e.morphism) if e.direction == LEFT else is_surjective(e.morphism)
        for e in z.edges
    )


def dual_four(d: Diagram) -> Diagram:
    """A four-lemma diagram read in the dual form: the rows reverse, so part
    (ii) of d is part (i) of the result."""
    dd = Diagram(dualize(d.form), name="four-dual")
    objmap = {"A": "Dp", "B": "Cp", "C": "Bp", "D": "Ap",
              "Ap": "D", "Bp": "C", "Cp": "B", "Dp": "A"}
    mormap = {"f": "z", "g": "y", "h": "x", "x": "h", "y": "g", "z": "f",
              "s": "v", "t": "u", "u": "t", "v": "s"}
    for role, src in objmap.items():
        dd.add_object(role, d.objects[src].dual)
    for role, src in mormap.items():
        dd.add_arrow(role, d.arrows[src].dual())
    return dd


def strongly_short_exact(d: Diagram) -> LemmaReport:
    """The sequence O1 -a-> A -f-> B -g-> C -b-> O2: exact at A, B and C as
    hypotheses, (f, g) short exact as the conclusion.  With trivial ends the
    conclusion follows."""
    report = LemmaReport("strongly-short-exact")
    check_assertions(d, report, (exact("a", "f"), exact("f", "g"), exact("g", "b")),
                     (short_exact("f", "g"),))
    return report
