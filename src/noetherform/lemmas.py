"""The classical diagram lemmas and the appendix exercises, as data.

Each lemma has a shape template (object and arrow roles with endpoints);
binding is by role name.  LEMMAS holds one LemmaSpec per lemma: its shape,
its hypotheses and, per part, extra hypotheses and conclusions, all written
as the same Assertions a diagram file's assert lines produce.  verify() is
the one lemma path: the shape, then as hypotheses its commutativities, the
lemma's and the diagram's own assertions, then the conclusions only on
passing hypotheses.  snake, the generalized snail
and the salamander instead construct an exact sequence whose maps come from
homomorphism induction on explicit zigzags; Goursat constructs a quotient
isomorphism.
"""

from __future__ import annotations

from typing import Callable, Optional

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
    meet,
)
from .diagram import (
    SKIP,
    Assertion,
    CheckLine,
    Diagram,
    LemmaReport,
    check_assertions,
    exact,
    injective,
    iso,
    short_exact,
    surjective,
    zero,
)
from .errors import ShapeError, ValidationError
from .pyramid import decide_induction, quotient_iso
from .zigzag import LEFT, RIGHT, Zigzag, path

# ---------------------------------------------------------------------------
# shape templates


class Shape(Frozen):
    def __init__(self, objects: tuple[str, ...], arrows: dict[str, tuple[str, str]],
                 commutes: tuple[tuple[str, str], ...]):
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "commutes", commutes)


SHAPES: dict[str, Shape] = {
    "four": Shape(
        ("A", "B", "C", "D", "Ap", "Bp", "Cp", "Dp"),
        {
            "f": ("A", "B"), "g": ("B", "C"), "h": ("C", "D"),
            "x": ("Ap", "Bp"), "y": ("Bp", "Cp"), "z": ("Cp", "Dp"),
            "s": ("A", "Ap"), "t": ("B", "Bp"), "u": ("C", "Cp"), "v": ("D", "Dp"),
        },
        (("t.f", "x.s"), ("u.g", "y.t"), ("v.h", "z.u")),
    ),
    "five": Shape(
        ("A", "B", "C", "D", "E", "Ap", "Bp", "Cp", "Dp", "Ep"),
        {
            "f": ("A", "B"), "g": ("B", "C"), "h": ("C", "D"), "m": ("D", "E"),
            "x": ("Ap", "Bp"), "y": ("Bp", "Cp"), "z": ("Cp", "Dp"), "n": ("Dp", "Ep"),
            "s": ("A", "Ap"), "t": ("B", "Bp"), "u": ("C", "Cp"),
            "v": ("D", "Dp"), "w": ("E", "Ep"),
        },
        (("t.f", "x.s"), ("u.g", "y.t"), ("v.h", "z.u"), ("w.m", "n.v")),
    ),
    "threebythree": Shape(
        ("A", "B", "C", "Ap", "Bp", "Cp", "App", "Bpp", "Cpp"),
        {
            "f": ("A", "B"), "g": ("B", "C"),
            "x": ("Ap", "Bp"), "y": ("Bp", "Cp"),
            "m": ("App", "Bpp"), "n": ("Bpp", "Cpp"),
            "s": ("A", "Ap"), "t": ("B", "Bp"), "u": ("C", "Cp"),
            "i": ("Ap", "App"), "j": ("Bp", "Bpp"), "k": ("Cp", "Cpp"),
        },
        (("t.f", "x.s"), ("u.g", "y.t"), ("j.x", "m.i"), ("k.y", "n.j")),
    ),
    "short-five": Shape(
        ("A", "B", "C", "Ap", "Bp", "Cp"),
        {
            "f": ("A", "B"), "g": ("B", "C"),
            "x": ("Ap", "Bp"), "y": ("Bp", "Cp"),
            "s": ("A", "Ap"), "t": ("B", "Bp"), "u": ("C", "Cp"),
        },
        (("t.f", "x.s"), ("u.g", "y.t")),
    ),
    "spider": Shape(
        ("V", "W", "X", "Y", "Z"),
        {
            "f": ("V", "W"), "g": ("V", "X"), "h": ("X", "W"),
            "j": ("Y", "X"), "i": ("X", "Z"), "k": ("Y", "Z"),
        },
        (("f", "h.g"), ("k", "i.j")),
    ),
    "incomplete-snail": Shape(
        ("W1", "W2", "X", "Y1", "Y2", "Z"),
        {
            "x": ("W1", "W2"), "g": ("W1", "X"), "b": ("X", "W2"),
            "d": ("X", "Y2"), "a": ("Y1", "X"), "e": ("Y1", "Y2"),
            "y": ("W2", "Z"), "f": ("Y2", "Z"),
        },
        (("x", "b.g"), ("e", "d.a"), ("f.d", "y.b")),
    ),
    "square-exact": Shape(
        ("A", "B", "C", "Ap", "Bp", "Cp"),
        {
            "f": ("A", "B"), "g": ("B", "C"),
            "m": ("Ap", "Bp"), "n": ("Bp", "Cp"),
            "x": ("A", "Ap"), "y": ("B", "Bp"), "z": ("C", "Cp"),
        },
        (("m.x", "y.f"), ("n.y", "z.g")),
    ),
    "diamond": Shape(
        ("A", "H", "B", "G", "C", "F", "D", "E"),
        {
            "f": ("A", "H"), "g": ("A", "B"), "a": ("H", "B"), "c": ("H", "F"),
            "x": ("H", "G"), "d": ("B", "D"), "u": ("B", "C"), "v": ("C", "D"),
            "y": ("G", "F"), "b": ("F", "D"), "m": ("F", "E"), "n": ("D", "E"),
        },
        (("g", "a.f"), ("c", "y.x"), ("d", "v.u"), ("m", "n.b"), ("d.a", "b.c")),
    ),
    "baby-dragon": Shape(
        ("A", "B", "C", "S", "T", "U", "V", "Ap", "Bp", "Cp"),
        {
            "f": ("A", "S"), "g": ("A", "T"), "m": ("B", "T"), "n": ("B", "U"),
            "z": ("C", "U"), "alpha": ("C", "V"), "beta": ("S", "Ap"),
            "h": ("T", "Ap"), "o": ("T", "Bp"), "p": ("U", "Bp"),
            "y": ("U", "Cp"), "x": ("V", "Cp"),
        },
        (("beta.f", "h.g"), ("o.m", "p.n"), ("x.alpha", "y.z")),
    ),
    "dragon": Shape(
        (
            "N", "Q", "P", "Z", "A", "J", "B", "C", "D",
            "R", "S", "T", "K", "U", "V", "W",
            "Zp", "Ap", "Jp", "Bp", "Cp", "Dp",
            "Qp", "Pp", "Np", "E", "H", "G", "Hp", "Gp", "Ep",
        ),
        {
            "a": ("N", "Q"), "b": ("N", "P"), "c": ("Q", "Z"), "d": ("P", "Z"),
            "x1": ("Z", "R"), "x2": ("Z", "S"), "x3": ("A", "S"), "x4": ("A", "T"),
            "x5": ("J", "T"), "x6": ("J", "K"), "x7": ("B", "K"), "x8": ("B", "U"),
            "x9": ("C", "U"), "x10": ("C", "V"), "x11": ("D", "V"), "x12": ("D", "W"),
            "y1": ("R", "Zp"), "y2": ("S", "Zp"), "y3": ("S", "Ap"), "y4": ("T", "Ap"),
            "y5": ("T", "Jp"), "y6": ("K", "Jp"), "y7": ("K", "Bp"), "y8": ("U", "Bp"),
            "y9": ("U", "Cp"), "y10": ("V", "Cp"), "y11": ("V", "Dp"), "y12": ("W", "Dp"),
            "e": ("E", "H"), "f": ("E", "G"), "g": ("H", "D"), "h": ("G", "D"),
            "i": ("Zp", "Qp"), "j": ("Zp", "Pp"), "k": ("Qp", "Np"), "l": ("Pp", "Np"),
            "m": ("Dp", "Hp"), "o": ("Dp", "Gp"), "p": ("Hp", "Ep"), "q": ("Gp", "Ep"),
        },
        (
            ("c.a", "d.b"), ("y1.x1", "y2.x2"), ("y3.x3", "y4.x4"),
            ("y5.x5", "y6.x6"), ("y7.x7", "y8.x8"), ("y9.x9", "y10.x10"),
            ("y11.x11", "y12.x12"), ("g.e", "h.f"), ("k.i", "l.j"), ("p.m", "q.o"),
        ),
    ),
    "snake": Shape(
        ("A", "B", "C", "Ap", "Bp", "Cp"),
        {
            "f": ("A", "B"), "g": ("B", "C"), "fp": ("Ap", "Bp"), "gp": ("Bp", "Cp"),
            "alpha": ("A", "Ap"), "beta": ("B", "Bp"), "gamma": ("C", "Cp"),
        },
        (("beta.f", "fp.alpha"), ("gamma.g", "gp.beta")),
    ),
    "generalized-snail": Shape(
        ("A", "B", "C", "A0", "B0"),
        {
            "f": ("A", "B"), "alpha": ("A", "A0"), "beta": ("B", "B0"),
            "gamma": ("A", "C"), "f0p": ("C", "B"), "betap": ("C", "A0"),
            "f0": ("A0", "B0"),
        },
        (("f", "f0p.gamma"), ("alpha", "betap.gamma"), ("beta.f0p", "f0.betap"),
         ("beta.f", "f0.alpha")),
    ),
    "goursat": Shape(
        ("A", "B", "C", "D", "E", "F"),
        {
            "lam": ("A", "B"), "mu": ("B", "C"), "lamp": ("D", "E"), "mup": ("E", "F"),
            "alpha": ("A", "D"), "beta": ("B", "E"), "gamma": ("C", "F"),
        },
        (("beta.lam", "lamp.alpha"), ("gamma.mu", "mup.beta")),
    ),
    "salamander": Shape(
        ("L", "M", "C", "K", "Dl", "A", "B", "F", "S", "D", "T", "U"),
        {
            "a": ("L", "C"), "m": ("M", "C"), "j": ("L", "Dl"), "c": ("C", "A"),
            "k": ("C", "K"), "v": ("K", "B"), "d": ("Dl", "A"), "e": ("A", "B"),
            "f": ("A", "F"), "l": ("F", "D"), "g": ("B", "D"), "s": ("B", "S"),
            "n": ("S", "T"), "t": ("D", "T"), "u": ("D", "U"),
        },
        (("c.a", "d.j"), ("e.c", "v.k"), ("g.e", "l.f"), ("t.g", "n.s")),
    ),
}


def check_shape(d: Diagram, shape_name: str) -> Shape:
    shape = SHAPES[shape_name]
    for role in shape.objects:
        if role not in d.objects:
            raise ShapeError(f"{shape_name}: missing object role {role!r}")
    for role, (dom, cod) in shape.arrows.items():
        mor = d.arrows.get(role)
        if mor is None:
            raise ShapeError(f"{shape_name}: missing arrow role {role!r}")
        if mor.dom.id != d.objects[dom].id or mor.cod.id != d.objects[cod].id:
            raise ShapeError(
                f"{shape_name}: arrow {role!r} must run {dom} -> {cod}, "
                f"got {mor.dom.id} -> {mor.cod.id}"
            )
    return shape


def _equal(label: str, lhs, rhs) -> tuple[bool, Optional[str]]:
    ok = lhs == rhs
    return ok, None if ok else f"{label}: {lhs!r} != {rhs!r}"


def _kernels_conormal_images_normal(d: Diagram, report: LemmaReport, roles, labels=None):
    """The hypotheses that let a zigzag embed Ker m and project by Im m,
    for the map m in each role (named by its label in the report)."""
    for role, label in zip(roles, labels or roles):
        mor = d.arrows[role]
        report.hyp(f"Ker {label} conormal", d.form.is_conormal(kernel(mor)))
        report.hyp(f"Im {label} normal", d.form.is_normal(image(mor)))


def _kernels_cokernels(d: Diagram, roles):
    """Embeddings of the kernels, then projections by the images, of the
    maps in the given roles."""
    maps = [d.arrows[r] for r in roles]
    return ([d.form.embedding_of(kernel(m)) for m in maps],
            [d.form.projection_of(image(m)) for m in maps])


# ---------------------------------------------------------------------------
# constructions: exact sequences by homomorphism induction, Goursat


class SnakeResult:
    def __init__(self, objects: Optional[list[FormObject]],
                 morphisms: Optional[list[Morphism]], report: LemmaReport):
        self.objects = objects
        self.morphisms = morphisms
        self.report = report


def exact_sequence_by_induction(report: LemmaReport, zigzags: Callable[[], list[Zigzag]],
                                maps: tuple[str, ...], nodes: tuple[str, ...]) -> SnakeResult:
    """Induce each map of a sequence from its zigzag, then check exactness
    at each interior node (Im of one map = Ker of the next).

    zigzags() builds the zigzags in sequence order; it runs only when every
    hypothesis holds, since embedding kernels and projecting by images needs
    them.  Otherwise every induction and exactness line is SKIPped.  The
    sequence's objects are the zigzags' starts and the last one's end.
    """
    if not report.hypotheses_hold:
        for label in [f"induce {m}" for m in maps] + [f"exact at {n}" for n in nodes]:
            report.conclusions.append(CheckLine(SKIP, label))
        return SnakeResult(None, None, report)
    zigs = zigzags()
    seq = []
    for name, zz in zip(maps, zigs):
        verdict = decide_induction(zz, name=name)
        witness = None if verdict.induces else "; ".join(fl.render() for fl in verdict.failures)
        report.conclude(f"induce {name}", lambda: (verdict.induces, witness))
        seq.append(verdict.morphism)
    for node, lhs, rhs in zip(nodes, seq, seq[1:]):
        label = f"exact at {node}"
        if lhs is None or rhs is None:
            report.conclusions.append(CheckLine(SKIP, label))
            continue
        report.conclude(label, lambda: _equal(label, image(lhs), kernel(rhs)))
    return SnakeResult([z.start for z in zigs] + [zigs[-1].end], seq, report)


def _snake(d: Diagram, report: LemmaReport) -> SnakeResult:
    """Six-term kernel-cokernel sequence with the connecting morphism.

    All five maps (the end maps f-bar, g'-bar included) are built by
    homomorphism induction on the proof's zigzags; exactness is then checked
    at the four interior nodes.
    """
    _kernels_conormal_images_normal(d, report, ("alpha", "beta", "gamma"))

    def zigzags():
        form = d.form
        f, g, fp, gp, beta = (d.arrows[r] for r in ("f", "g", "fp", "gp", "beta"))
        (ia, ib, ic), (pa, pb, pc) = _kernels_cokernels(d, ("alpha", "beta", "gamma"))
        return [
            path(form, (ia, RIGHT), (f, RIGHT), (ib, LEFT)),
            path(form, (ib, RIGHT), (g, RIGHT), (ic, LEFT)),
            path(form, (ic, RIGHT), (g, LEFT), (beta, RIGHT), (fp, LEFT), (pa, RIGHT)),
            path(form, (pa, LEFT), (fp, RIGHT), (pb, RIGHT)),
            path(form, (pb, LEFT), (gp, RIGHT), (pc, RIGHT)),
        ]

    return exact_sequence_by_induction(
        report, zigzags, ("f-bar", "g-bar", "delta", "f'-bar", "g'-bar"),
        ("Ker beta", "Ker gamma", "Coker alpha", "Coker beta"))


def _generalized_snail(d: Diagram, report: LemmaReport) -> SnakeResult:
    _kernels_conormal_images_normal(d, report, ("gamma", "alpha", "betap"),
                                    ("gamma", "alpha", "beta'"))

    def zigzags():
        form = d.form
        gamma, betap = d.arrows["gamma"], d.arrows["betap"]
        (ig, ia, ibp), (pg, pa, pbp) = _kernels_cokernels(d, ("gamma", "alpha", "betap"))
        return [
            path(form, (ig, RIGHT), (ia, LEFT)),
            path(form, (ia, RIGHT), (gamma, RIGHT), (ibp, LEFT)),
            path(form, (ibp, RIGHT), (pg, RIGHT)),
            path(form, (pg, LEFT), (betap, RIGHT), (pa, RIGHT)),
            path(form, (pa, LEFT), (pbp, RIGHT)),
        ]

    return exact_sequence_by_induction(
        report, zigzags, ("v", "w", "x", "y", "z"),
        ("Ker alpha", "Ker beta'", "Coker gamma", "Coker alpha"))


def _goursat(d: Diagram, report: LemmaReport) -> Optional[Morphism]:
    form = d.form
    lam, mu, lamp, beta, gamma = (d.arrows[r] for r in ("lam", "mu", "lamp", "beta", "gamma"))
    X = kernel(compose(gamma, mu))
    report.hyp("Ker (gamma.mu) conormal", form.is_conormal(X))
    W = join(kernel(beta), kernel(mu))
    upper = meet(image(beta), image(lamp))
    lower = image(compose(beta, lam))
    report.conclude("Im(beta.lam) normal to Im beta ^ Im lam'",
                    lambda: (is_relatively_normal(form, lower, upper), None))
    report.conclude("Ker beta v Ker mu normal to Ker(gamma.mu)",
                    lambda: (is_relatively_normal(form, W, X), None))
    # quotient_iso needs X conormal; every conclusion is SKIPped without it
    result = quotient_iso(form, beta, W, X) if report.hypotheses_hold else None
    report.conclude("beta X = Im beta ^ Im lam'",
                    lambda: _equal("beta X", direct_image(beta, X).key, upper.key))
    report.conclude("beta W = Im(beta.lam)",
                    lambda: _equal("beta W", direct_image(beta, W).key, lower.key))
    report.conclude("quotient isomorphism", lambda: (
        result.holds and result.iso is not None,
        None if result.holds else "quotient_iso verdicts disagree",
    ))
    return None if result is None else result.iso


# ---------------------------------------------------------------------------
# homology objects and the salamander


class UndefinedMarker(Frozen):
    def __init__(self, guard: str):
        object.__setattr__(self, "guard", guard)

    def render(self) -> str:
        return f"undefined ({self.guard})"


class HomologyObject:
    def __init__(self, object: FormObject, embedding: Morphism, projection: Morphism,
                 upper: Subobject, lower: Subobject):
        self.object = object
        self.embedding = embedding    # of the upper subobject
        self.projection = projection  # by the pulled-back lower subobject
        self.upper = upper
        self.lower = lower


def homology_object(form: Form, kind: str, **arrows: Morphism):
    """Subquotient upper/lower at a double-complex cell.

    kind 'h': Ker out / Im into, guarded by Im into normal to Ker out.
    kind 'box': Ker diag / (Im in_v v Im in_h).
    kind 'cobox': (Ker out_a ^ Ker out_b) / Im diag.
    Returns an UndefinedMarker naming the guard when it fails.
    """
    if kind == "h":
        upper = kernel(arrows["out"])
        lower = image(arrows["into"])
        guard = "Im into normal to Ker out"
    elif kind == "box":
        upper = kernel(arrows["diag"])
        lower = join(image(arrows["in_v"]), image(arrows["in_h"]))
        guard = "Im in_v v Im in_h normal to Ker diag"
    elif kind == "cobox":
        upper = meet(kernel(arrows["out_a"]), kernel(arrows["out_b"]))
        lower = image(arrows["diag"])
        guard = "Im diag normal to Ker out_a ^ Ker out_b"
    else:
        raise ValidationError(f"unknown homology object kind {kind!r}")
    if not is_relatively_normal(form, lower, upper):
        return UndefinedMarker(guard)
    emb = form.embedding_of(upper)
    proj = form.projection_of(inverse_image(emb, lower))
    return HomologyObject(proj.cod, emb, proj, upper, lower)


def _connecting(form, src: HomologyObject, dst: HomologyObject, middle: Optional[Morphism]):
    """Zigzag src <-proj- (upper/1) -emb-> node [-middle->] <-emb- (upper'/1) -proj-> dst."""
    mid = () if middle is None else ((middle, RIGHT),)
    return path(form, (src.projection, LEFT), (src.embedding, RIGHT), *mid,
                (dst.embedding, LEFT), (dst.projection, RIGHT))


def _salamander(d: Diagram, report: LemmaReport) -> SnakeResult:
    """Six-term exact sequence of homology objects around two horizontally
    adjacent cells of a double complex."""
    form = d.form
    a, m, c, dd, e, g, s, t, u = (d.arrows[r] for r in "amcdegstu")
    report.hyp("Im c normal", form.is_normal(image(c)))
    r_diag = compose(e, c)
    q_diag = compose(g, e)
    homs = {
        "C-box": homology_object(form, "box", diag=r_diag, in_v=m, in_h=a),
        "A-h": homology_object(form, "h", out=e, into=dd),
        "A-box": homology_object(form, "box", diag=q_diag, in_v=c, in_h=dd),
        "cobox-B": homology_object(form, "cobox", out_a=s, out_b=g, diag=r_diag),
        "B-h": homology_object(form, "h", out=s, into=e),
        "cobox-D": homology_object(form, "cobox", out_a=t, out_b=u, diag=q_diag),
    }
    for name, h in homs.items():
        undefined = isinstance(h, UndefinedMarker)
        report.hyp(f"{name} defined", not undefined, h.render() if undefined else None)

    def zigzags():
        seq = list(homs.values())
        return [_connecting(form, src, dst, middle)
                for src, dst, middle in zip(seq, seq[1:], (c, None, e, None, g))]

    return exact_sequence_by_induction(report, zigzags, ("v", "w", "x", "y", "z"),
                                       ("A-h", "A-box", "cobox-B", "B-h"))


# ---------------------------------------------------------------------------
# the registry


class LemmaSpec(Frozen):
    """A lemma as data: its shape, its hypotheses, and per part the extra
    hypotheses and the conclusions.  The first part is the default; a lemma
    with one part has the single part None.  A conclusion is an Assertion
    or a (label, check) pair with check(d) -> (ok, witness).  construct, if
    given, runs instead of the conclusions: construct(d, report) adds its
    own hypothesis and conclusion lines and returns the lemma's product.
    Every lemma also takes the diagram's own commute and assert lines as
    hypotheses; shape None (generic) has those lines alone."""

    def __init__(self, shape: Optional[str], hyps: tuple[Assertion, ...] = (),
                 parts: Optional[dict] = None, construct: Optional[Callable] = None):
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "hyps", hyps)
        object.__setattr__(self, "parts", {None: ((), ())} if parts is None else parts)
        object.__setattr__(self, "construct", construct)


def _four_i(d: Diagram):
    g, t, u = (d.arrows[r] for r in "gtu")
    return _equal("g(Ker t)", direct_image(g, kernel(t)).key, kernel(u).key)


def _four_ii(d: Diagram):
    y, t, u = (d.arrows[r] for r in "ytu")
    return _equal("y^-1(Im u)", inverse_image(y, image(u)).key, image(t).key)


LEMMAS: dict[str, LemmaSpec] = {
    "four": LemmaSpec(
        "four",
        (exact("f", "g"), exact("g", "h"), exact("x", "y"), exact("y", "z"),
         surjective("s"), injective("v")),
        {
            "i": ((), (("g(Ker t) = Ker u", _four_i),)),
            "ii": ((), (("y^-1(Im u) = Im t", _four_ii),)),
        },
    ),
    "five": LemmaSpec(
        "five",
        (exact("f", "g"), exact("g", "h"), exact("h", "m"),
         exact("x", "y"), exact("y", "z"), exact("z", "n")),
        {
            "full": ((surjective("s"), injective("w"), iso("t"), iso("v")), (iso("u"),)),
            "i": ((surjective("s"), injective("t"), injective("v")), (injective("u"),)),
            "ii": ((injective("w"), surjective("t"), surjective("v")), (surjective("u"),)),
        },
    ),
    "3x3": LemmaSpec(
        "threebythree",
        (short_exact("s", "i"), short_exact("t", "j"), short_exact("u", "k")),
        {
            "upper": ((short_exact("x", "y"), short_exact("m", "n")), (short_exact("f", "g"),)),
            "lower": ((short_exact("f", "g"), short_exact("x", "y")), (short_exact("m", "n"),)),
            "middle": ((short_exact("f", "g"), short_exact("m", "n"), zero("y.x")),
                       (short_exact("x", "y"),)),
        },
    ),
    "short-five": LemmaSpec(
        "short-five",
        (short_exact("f", "g"), short_exact("x", "y")),
        {
            "iii": ((iso("s"), iso("u")), (iso("t"),)),
            "i": ((injective("s"), injective("u")), (injective("t"),)),
            "ii": ((surjective("s"), surjective("u")), (surjective("t"),)),
        },
    ),
    "spider": LemmaSpec(
        "spider",
        (short_exact("g", "i"), short_exact("j", "h"), iso("k")),
        {None: ((), (iso("f"),))},
    ),
    "incomplete-snail": LemmaSpec(
        "incomplete-snail",
        (exact("a", "b"), exact("g", "d"), exact("e", "f"), surjective("b")),
        {None: ((), (exact("x", "y"),))},
    ),
    "square-exact": LemmaSpec(
        "square-exact",
        (surjective("x"), injective("z")),
        {
            "i": ((surjective("y"), exact("f", "g")), (exact("m", "n"),)),
            "ii": ((injective("y"), exact("m", "n")), (exact("f", "g"),)),
        },
    ),
    "diamond": LemmaSpec(
        "diamond",
        (exact("f", "x"), exact("g", "u"), exact("y", "m"), exact("v", "n"),
         surjective("x"), injective("v")),
        {
            "i": ((injective("a"),), (injective("y"),)),
            "ii": ((surjective("b"),), (surjective("u"),)),
        },
    ),
    "baby-dragon": LemmaSpec(
        "baby-dragon",
        (exact("f", "beta"), exact("g", "o"), exact("m", "h"),
         exact("n", "y"), exact("z", "p"), exact("alpha", "x"),
         surjective("f"), injective("g"), injective("n"),
         surjective("o"), surjective("y"), injective("x")),
        {
            "i": ((injective("alpha"),), (injective("beta"),)),
            "ii": ((surjective("beta"),), (surjective("alpha"),)),
        },
    ),
    "dragon": LemmaSpec(
        "dragon",
        (exact("a", "c"), exact("b", "d"), exact("c", "x2"), exact("d", "x1"),
         exact("x1", "y1"),
         exact("x2", "y3"), exact("x3", "y2"), exact("x4", "y5"), exact("x5", "y4"),
         exact("x6", "y7"), exact("x7", "y6"), exact("x8", "y9"), exact("x9", "y8"),
         exact("x10", "y11"), exact("x11", "y10"), exact("x12", "y12"),
         exact("e", "g"), exact("f", "h"), exact("g", "x12"), exact("h", "x11"),
         exact("y1", "j"), exact("y2", "i"), exact("i", "k"), exact("j", "l"),
         exact("y11", "o"), exact("y12", "m"), exact("m", "p"), exact("o", "q"),
         surjective("x1"), injective("x4"), injective("x6"), injective("x8"),
         injective("x10"), surjective("y3"), surjective("y5"), surjective("y7"),
         surjective("y9"), injective("y12")),
        {
            "i": ((surjective("a"), surjective("e")), (injective("y1"),)),
            "ii": ((injective("l"), injective("q")), (surjective("x12"),)),
        },
    ),
    "snake": LemmaSpec(
        "snake",
        (exact("f", "g"), exact("fp", "gp"), surjective("g"), injective("fp")),
        construct=_snake,
    ),
    "generalized-snail": LemmaSpec("generalized-snail", construct=_generalized_snail),
    "goursat": LemmaSpec(
        "goursat", (exact("lam", "mu"), exact("lamp", "mup")), construct=_goursat,
    ),
    "salamander": LemmaSpec(
        "salamander",
        (zero("e.d"), zero("k.a"), zero("s.e"), zero("t.l"),
         zero("c.m"), zero("f.c"), zero("g.v"), zero("u.g")),
        construct=_salamander,
    ),
    "generic": LemmaSpec(None),
}

# other names verify accepts, and the registry name each stands for
ALIASES = {"threebythree": "3x3"}


def verify(d: Diagram, name: str, part: Optional[str] = None) -> tuple[LemmaReport, object]:
    """Verify a registered lemma, or one part of it, on a diagram.

    Checks the diagram against the lemma's shape, then as hypotheses the
    shape's commutativities, the lemma's and the part's hypotheses and the
    diagram's own assertions in order, then the part's conclusions or the
    lemma's construction.  Generic's report is titled d.name.  Returns the
    report and the construction's product (None if there is none).  An
    unknown lemma or part raises ValidationError.
    """
    key = ALIASES.get(name, name)
    spec = LEMMAS.get(key)
    if spec is None:
        raise ValidationError(f"unknown lemma {name!r}; known: {', '.join(LEMMAS)}")
    if part is None:
        part = next(iter(spec.parts))
    elif part not in spec.parts:
        parts = [p for p in spec.parts if p is not None]
        which = f"parts {', '.join(parts)}" if parts else "no parts"
        raise ValidationError(f"lemma {name} has {which}, not {part!r}")
    d.validate()
    if spec.shape is None:
        report, commutes = LemmaReport(d.name), ()
    else:
        report = LemmaReport(key if part is None else f"{key} ({part})")
        commutes = check_shape(d, spec.shape).commutes
    extra_hyps, conclusions = spec.parts[part]
    hyps = [*(Assertion("commute", c) for c in commutes), *spec.hyps, *extra_hyps,
            *d.assertions]
    check_assertions(d, report, hyps, conclusions)
    return report, spec.construct(d, report) if spec.construct else None


# Entry points by lemma, kept for callers that name them.


def verify_four(d: Diagram, part: str = "i") -> LemmaReport:
    return verify(d, "four", part)[0]


def verify_five(d: Diagram, part: str = "full") -> LemmaReport:
    return verify(d, "five", part)[0]


def verify_threebythree(d: Diagram, variant: str = "upper") -> LemmaReport:
    return verify(d, "3x3", variant)[0]


def verify_exercise(d: Diagram, name: str, part: Optional[str] = None) -> LemmaReport:
    return verify(d, name, part)[0]


def snake(d: Diagram) -> SnakeResult:
    return verify(d, "snake")[1]


def salamander(d: Diagram) -> LemmaReport:
    return verify(d, "salamander")[0]
