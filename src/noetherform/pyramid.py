"""Pyramids over zigzags, homomorphism induction, and induced isomorphisms.

build_pyramid completes the triangular grid over a zigzag.  Base triangles
and mixed wedges are one split step: the edge, or the dotted composite
across the wedge, is split into a projection and an embedding.  Wedges of
two projections close into projection diamonds (apex = quotient by the join
of the kernels), wedges of two embeddings into embedding diamonds (apex =
meet of the images).  Upward arrows are projections, downward arrows
embeddings.

decide_induction implements the chase criterion: a zigzag induces a
morphism iff forward-chasing bottom gives bottom and backward-chasing top
gives top; the induced morphism's image maps are the chases themselves.
decide_isomorphism is that criterion on the zigzag and on its opposite.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import (
    Form,
    FormObject,
    Frozen,
    Morphism,
    Subobject,
    compose,
    direct_image,
    image,
    inverse_image,
    is_relatively_normal,
    join,
    kernel,
    leq,
    meet,
    render_key,
)
from .errors import UnsupportedFormError, ValidationError
from .zigzag import (
    LEFT,
    RIGHT,
    Edge,
    Zigzag,
    chase_backward,
    chase_forward,
    chased_morphism,
    chased_table,
    path,
)

Coord = tuple[int, int]  # (s, t): subscript, superscript; 0 <= s <= t <= n


def _perm_fn(rng: Optional[random.Random]):
    if rng is None:
        return None
    def perm(n: int) -> tuple[int, ...]:
        p = list(range(n))
        rng.shuffle(p)
        return tuple(p)
    return perm


def _diamonds(n: int, order: str):
    """The (bottom, up_left, up_right, top) coordinates of each diamond of
    the pyramid over a zigzag of n edges, layer by layer upward, each layer
    left to right for order "ltr" and right to left for "rtl"."""
    for h in range(2, n + 1):
        span = range(0, n - h + 1)
        for s in (span if order == "ltr" else reversed(span)):
            yield (s + 1, s + h - 1), (s, s + h - 1), (s + 1, s + h), (s, s + h)


class Pyramid:
    def __init__(self, base: Zigzag, form: Form, node: dict[Coord, FormObject],
                 arrow: dict[tuple[Coord, Coord], tuple[Morphism, bool]]):
        self.base = base
        self.form = form
        self.node = node
        self.arrow = arrow  # (lower, upper) -> (m, points_up)

    @property
    def n(self) -> int:
        return len(self.base)

    def _edge_between(self, a: Coord, b: Coord) -> Edge:
        """Zigzag edge for traversal from grid node a to grid node b."""
        if (a, b) in self.arrow:
            m, up = self.arrow[(a, b)]
            return Edge(m, RIGHT if up else LEFT)
        m, up = self.arrow[(b, a)]
        return Edge(m, LEFT if up else RIGHT)

    def _path_zigzag(self, coords: list[Coord]) -> Zigzag:
        nodes = tuple(self.node[c] for c in coords)
        edges = tuple(self._edge_between(coords[i], coords[i + 1]) for i in range(len(coords) - 1))
        return Zigzag(nodes, edges, form=self.form)

    def principal_horizontal(self) -> Zigzag:
        n = self.n
        coords = [(0, t) for t in range(n + 1)] + [(s, n) for s in range(1, n + 1)]
        return self._path_zigzag(coords)

    def diamonds(self):
        """Yield (bottom, up_left, up_right, top) coordinate quadruples."""
        return _diamonds(self.n, "ltr")

    def commutativity_failures(self) -> list[str]:
        """Chase every subobject of each diamond's left node to the right
        node (and back) along both wedges; report mismatches.

        Only the horizontal traversals are required to agree: paths through
        the bottom or the top wedge are both horizontal, while a bottom-to-
        apex chase mixes vertical steps and need not be path-independent.
        """
        out = []
        for bot, ul, ur, tp in self.diamonds():
            for src, dst in ((ul, ur), (ur, ul)):
                via_bot = chased_table(self._path_zigzag([src, bot, dst]))
                via_top = chased_table(self._path_zigzag([src, tp, dst]))
                target = self.node[dst]
                for k, a, b in zip(self.node[src].lattice.keys, via_bot, via_top):
                    if a != b:
                        A, B = (Subobject(target, target.lattice.keys[p]) for p in (a, b))
                        out.append(
                            f"diamond at {tp}: chasing {render_key(k)} from {src} "
                            f"gives {A!r} via {bot} but {B!r} via {tp}"
                        )
        return out

    def to_dot(self) -> str:
        lines = ["digraph pyramid {", "  rankdir=BT;"]
        for h in range(0, self.n + 1):
            coords = [(s, s + h) for s in range(0, self.n - h + 1)]
            names = " ".join(f"X_{s}_{t};" for s, t in coords)
            lines.append(f"  {{ rank=same; {names} }}")
        for (s, t) in sorted(self.node):
            lines.append(f'  X_{s}_{t} [label="X_{s}^{t}"];')
        for (lo, hi), (m, up) in sorted(self.arrow.items()):
            a, b = (lo, hi) if up else (hi, lo)
            style = "solid" if up else "dashed"
            lines.append(f"  X_{a[0]}_{a[1]} -> X_{b[0]}_{b[1]} [style={style}];")
        lines.append("}")
        return "\n".join(lines)


def build_pyramid(z: Zigzag, order: str = "ltr", scramble: Optional[int] = None) -> Pyramid:
    """Construct the full pyramid over a zigzag.

    `order` picks the within-layer completion order, "ltr" or "rtl", and
    `scramble` seeds the perm passed to the form's quotient_object and
    subobject_object, which relabels the constructed intermediate objects of
    a Slominski form or its dual (a data form ignores it); the induced
    morphism must not depend on either choice.  A subobject the form cannot construct raises
    UnsupportedSubobjectError, naming it.
    """
    if order not in ("ltr", "rtl"):
        raise ValidationError(f"build_pyramid: order must be 'ltr' or 'rtl', not {order!r}")
    form = z.form
    if form is None:
        raise UnsupportedFormError("zigzag carries no form")
    rng = random.Random(scramble) if scramble is not None else None
    perm = _perm_fn(rng)
    node: dict[Coord, FormObject] = {}
    arrow: dict[tuple[Coord, Coord], tuple[Morphism, bool]] = {}
    for i, obj in enumerate(z.nodes):
        node[(i, i)] = obj

    def split(m: Morphism, a: Coord, b: Coord, apex: Coord) -> None:
        """Triangle over m: a -> b, split as the mediator a -> apex of m
        through the embedding apex -> b of Im m."""
        mono = form.subobject_object(image(m), perm)[1]
        node[apex] = mono.dom
        arrow[(a, apex)] = (form.mediating_embedding(m, mono), True)
        arrow[(b, apex)] = (mono, False)

    for i, e in enumerate(z.edges):
        left, right = (i, i), (i + 1, i + 1)
        a, b = (left, right) if e.direction == RIGHT else (right, left)
        split(e.morphism, a, b, (i, i + 1))

    for bot, ul, ur, tp in _diamonds(len(z), order):
        leg_l, l_up = arrow[(bot, ul)]
        leg_r, r_up = arrow[(bot, ur)]
        if l_up and r_up:
            # projection diamond: apex is the quotient by the kernel join
            J = join(kernel(leg_l), kernel(leg_r))
            p = form.quotient_object(J, perm)[1]
            x = form.mediating_projection(p, leg_l)
            y = form.mediating_projection(p, leg_r)
            node[tp] = p.cod
            arrow[(ul, tp)] = (x, True)
            arrow[(ur, tp)] = (y, True)
        elif not l_up and not r_up:
            # embedding diamond: apex is the meet of the images
            S = meet(image(leg_l), image(leg_r))
            i_s = form.subobject_object(S, perm)[1]
            u = form.mediating_embedding(i_s, leg_l)
            v = form.mediating_embedding(i_s, leg_r)
            node[tp] = i_s.dom
            arrow[(ul, tp)] = (u, False)
            arrow[(ur, tp)] = (v, False)
        else:
            # mixed wedge: the dotted composite runs from the node whose
            # leg points down to the node whose leg points up
            (a, down), (b, up) = (((ul, leg_l), (ur, leg_r)) if r_up
                                  else ((ur, leg_r), (ul, leg_l)))
            split(compose(up, down), a, b, tp)

    return Pyramid(z, form, node, arrow)


# ---------------------------------------------------------------------------
# homomorphism induction


class ChaseFailure(Frozen):
    def __init__(self, condition: str, node: str, subobject: object):
        object.__setattr__(self, "condition", condition)  # "forward-bottom" or "backward-top"
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "subobject", subobject)

    def render(self) -> str:
        return f"{self.condition} first deviates at {self.node} with {render_key(self.subobject)}"


class InductionVerdict:
    def __init__(self, induces: bool, morphism: Optional[Morphism],
                 failures: Optional[list] = None):
        self.induces = induces
        self.morphism = morphism
        self.failures: list[ChaseFailure] = [] if failures is None else failures

    def __bool__(self):
        return self.induces


def decide_induction(z: Zigzag, name: str = "") -> InductionVerdict:
    """Homomorphism induction: forward-chase bottom and backward-chase top;
    both preserved iff the zigzag induces a morphism, whose image maps are
    the chases."""
    failures = []
    _, fwd = chase_forward(z, z.start.bottom, trace=True)
    if fwd[-1].key != z.end.lattice.bottom:
        idx = next(i for i, S in enumerate(fwd) if S.key != S.owner.lattice.bottom)
        failures.append(ChaseFailure("forward-bottom", fwd[idx].owner.id, fwd[idx].key))
    _, bwd = chase_backward(z, z.end.top, trace=True)
    if bwd[-1].key != z.start.lattice.top:
        idx = next(i for i, S in enumerate(bwd) if S.key != S.owner.lattice.top)
        failures.append(ChaseFailure("backward-top", bwd[idx].owner.id, bwd[idx].key))
    if failures:
        return InductionVerdict(False, None, failures)
    return InductionVerdict(True, chased_morphism(z, name=name))


class IsoVerdict:
    def __init__(self, holds: bool, forward: Optional[Morphism], backward: Optional[Morphism],
                 failures: Optional[list] = None):
        self.holds = holds
        self.forward = forward
        self.backward = backward
        self.failures: list[ChaseFailure] = [] if failures is None else failures

    def __bool__(self):
        return self.holds


# a forward chase on the opposite zigzag is a backward chase on the zigzag
_OPPOSITE_CONDITION = {"forward-bottom": "backward-bottom", "backward-top": "forward-top"}


def decide_isomorphism(z: Zigzag, name: str = "") -> IsoVerdict:
    """Universal isomorphism criterion: the zigzag and its opposite both
    induce, so bottom and top are preserved by chasing from each end to the
    other; the two induced morphisms are then mutually inverse
    isomorphisms."""
    fwd = decide_induction(z, name=name)
    bwd = decide_induction(z.opposite(), name=f"{name}^-1" if name else "")
    failures = fwd.failures + [
        ChaseFailure(_OPPOSITE_CONDITION[f.condition], f.node, f.subobject)
        for f in bwd.failures
    ]
    if failures:
        return IsoVerdict(False, None, None, failures)
    return IsoVerdict(True, fwd.morphism, bwd.morphism)


class QuotientIsoResult:
    def __init__(self, w_normal_to_x: bool, fw_normal_to_fx: bool, iso: Optional[Morphism],
                 zigzag: Optional[Zigzag]):
        self.w_normal_to_x = w_normal_to_x
        self.fw_normal_to_fx = fw_normal_to_fx
        self.iso = iso
        self.zigzag = zigzag

    @property
    def equivalent(self) -> bool:
        return self.w_normal_to_x == self.fw_normal_to_fx

    @property
    def holds(self) -> bool:
        return self.equivalent and (not self.w_normal_to_x or self.iso is not None)


def quotient_iso(form: Form, f: Morphism, W: Subobject, X: Subobject) -> QuotientIsoResult:
    """The quotient isomorphism X/W = fX/fW.

    Preconditions Ker f <= W <= X with X conormal are validated; the result
    records both relative-normality verdicts (they must agree) and, when
    they hold, the isomorphism induced by the theorem's zigzag."""
    if W.owner.id != f.dom.id or X.owner.id != f.dom.id:
        raise ValidationError("W and X must be subobjects of the domain of f")
    if not leq(kernel(f), W):
        raise ValidationError("precondition failed: Ker f <= W")
    if not leq(W, X):
        raise ValidationError("precondition failed: W <= X")
    if not form.is_conormal(X):
        raise ValidationError("precondition failed: X conormal")

    w_in_x = is_relatively_normal(form, W, X)
    fX = direct_image(f, X)
    fW = direct_image(f, W)
    fw_in_fx = is_relatively_normal(form, fW, fX)
    if not (w_in_x and fw_in_fx):
        return QuotientIsoResult(w_in_x, fw_in_fx, None, None)

    iota_x = form.embedding_of(X)
    pi_w = form.projection_of(inverse_image(iota_x, W))
    iota_fx = form.embedding_of(fX)
    pi_fw = form.projection_of(inverse_image(iota_fx, fW))
    zz = path(form, (pi_w, LEFT), (iota_x, RIGHT), (f, RIGHT), (iota_fx, LEFT), (pi_fw, RIGHT))
    verdict = decide_isomorphism(zz, name="quotient-iso")
    if not verdict.holds:
        return QuotientIsoResult(w_in_x, fw_in_fx, None, zz)
    return QuotientIsoResult(w_in_x, fw_in_fx, verdict.forward, zz)
