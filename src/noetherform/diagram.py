"""Diagrams, exactness, and lemma reports.

A Diagram names objects and morphisms by role and carries its own
Assertions, commutativities among them as pairs of dot-separated paths
(composition reads right to left, so "t.f" means t after f); every lemma
takes them as hypotheses.  Diagram.read is the one reader of an
assertion's arguments; validate runs it before any lemma checks a diagram.
check_assertions checks the hypotheses and, only when they all hold, the
conclusions; a conclusion failing on a passing-hypotheses instance is a
refutation and is surfaced as such.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .core import (
    Form,
    FormObject,
    Frozen,
    Morphism,
    compose,
    image,
    image_position,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_zero_morphism,
    kernel,
    kernel_position,
)
from .errors import CompositionError, ShapeError, ValidationError

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


def is_exact_at(f: Morphism, g: Morphism) -> bool:
    """Exactness at the shared node: Im f = Ker g, compared as keys read
    off the image tables (Subobject equality once the node is shared)."""
    if f.cod.id != g.dom.id:
        raise ValidationError(f"{f!r} and {g!r} do not share a node")
    return f.cod.lattice.keys[image_position(f)] == g.dom.lattice.keys[kernel_position(g)]


def is_short_exact(f: Morphism, g: Morphism) -> bool:
    return is_injective(f) and is_surjective(g) and is_exact_at(f, g)


# The kinds a diagram may assert: each one's arity, whether its arguments
# are dot-separated paths (else arrow roles), and how they meet: a commute's
# two paths have the same ends, and an exact pair's first arrow ends where
# the second starts.
KINDS = {"commute": (2, True, "ends"), "zero": (1, True, None),
         "exact": (2, False, "node"), "short-exact": (2, False, "node"),
         "injective": (1, False, None), "surjective": (1, False, None), "iso": (1, False, None)}


class Assertion(Frozen):
    def __init__(self, kind: str, args: tuple):
        object.__setattr__(self, "kind", kind)  # a kind of KINDS
        object.__setattr__(self, "args", args)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.args == other.args

    def __hash__(self):
        return hash((self.kind, self.args))

    def label(self) -> str:
        if self.kind == "commute":
            return f"commute {self.args[0]} = {self.args[1]}"
        return f"{self.kind} {' '.join(str(a) for a in self.args)}"


def exact(f: str, g: str) -> Assertion:
    return Assertion("exact", (f, g))


def short_exact(f: str, g: str) -> Assertion:
    return Assertion("short-exact", (f, g))


def injective(f: str) -> Assertion:
    return Assertion("injective", (f,))


def surjective(f: str) -> Assertion:
    return Assertion("surjective", (f,))


def iso(f: str) -> Assertion:
    return Assertion("iso", (f,))


def zero(path: str) -> Assertion:
    return Assertion("zero", (path,))


class Diagram:
    def __init__(self, form: Form, objects: Optional[dict] = None,
                 arrows: Optional[dict] = None, assertions: Optional[list] = None,
                 name: str = "diagram"):
        self.form = form
        self.objects: dict[str, FormObject] = {} if objects is None else objects
        self.arrows: dict[str, Morphism] = {} if arrows is None else arrows
        self.assertions: list[Assertion] = [] if assertions is None else assertions
        self.name = name

    def add_object(self, role: str, obj: FormObject) -> FormObject:
        self.objects[role] = obj
        return obj

    def add_arrow(self, role: str, m: Morphism) -> Morphism:
        self.arrows[role] = m
        return m

    def arrow(self, role: str) -> Morphism:
        """The arrow bound to role; a ShapeError names the role if none is."""
        if role not in self.arrows:
            raise ShapeError(f"{self.name}: unknown arrow {role!r}")
        return self.arrows[role]

    def path(self, spec: str) -> Morphism:
        """Composite of a dot-separated path, rightmost morphism first; a
        ShapeError names its first unknown arrow, or else its first pair
        that does not compose."""
        names = spec.split(".")
        mors = [self.arrow(n) for n in names]
        out = mors[-1]
        try:
            for m in reversed(mors[:-1]):
                out = compose(m, out)
        except CompositionError:
            k = next(k for k in range(1, len(mors)) if mors[k].cod.id != mors[k - 1].dom.id)
            raise ShapeError(f"{self.name}: path {spec!r} does not compose: {names[k]} ends at "
                             f"{mors[k].cod.id}, {names[k - 1]} starts at {mors[k - 1].dom.id}"
                             ) from None
        return out

    def check(self, a: Assertion) -> tuple[bool, Optional[str]]:
        kind, args = a.kind, a.args
        if kind == "commute":
            p1, p2 = (self.path(s) for s in args)
            ok = p1 == p2
            return ok, None if ok else f"paths {args[0]} and {args[1]} differ"
        if kind == "exact":
            f, g = self.arrows[args[0]], self.arrows[args[1]]
            ok = is_exact_at(f, g)
            return ok, None if ok else f"Im {args[0]} = {image(f)!r} but Ker {args[1]} = {kernel(g)!r}"
        if kind == "short-exact":
            f, g = self.arrows[args[0]], self.arrows[args[1]]
            ok = is_short_exact(f, g)
            return ok, None if ok else f"({args[0]},{args[1]}) is not short exact"
        if kind == "injective":
            ok = is_injective(self.arrows[args[0]])
            return ok, None if ok else f"Ker {args[0]} = {kernel(self.arrows[args[0]])!r}"
        if kind == "surjective":
            ok = is_surjective(self.arrows[args[0]])
            return ok, None if ok else f"Im {args[0]} = {image(self.arrows[args[0]])!r}"
        if kind == "iso":
            ok = is_isomorphism(self.arrows[args[0]])
            return ok, None if ok else f"{args[0]} is not an isomorphism"
        if kind == "zero":
            ok = is_zero_morphism(self.path(args[0]))
            return ok, None if ok else f"{args[0]} is not a zero morphism"
        raise ValidationError(f"unknown assertion kind {kind!r}")

    def read(self, a: Assertion) -> None:
        """Read an assertion's arguments as KINDS says: a ShapeError names a
        wrong kind or arity, an unknown arrow, a path that does not compose,
        or arguments that do not meet."""
        arity, paths, meet = KINDS.get(a.kind, (None, False, None))
        if len(a.args) != arity:
            raise ShapeError(f"{self.name}: no assertion {a.kind} of {len(a.args)} argument(s)")
        mors = [self.path(arg) if paths else self.arrow(arg) for arg in a.args]
        if meet == "ends" and (mors[0].dom.id, mors[0].cod.id) != (mors[1].dom.id, mors[1].cod.id):
            raise ShapeError(f"{self.name}: {a.label()} compares a path {mors[0].dom.id} -> "
                             f"{mors[0].cod.id} with a path {mors[1].dom.id} -> {mors[1].cod.id}")
        if meet == "node" and mors[0].cod.id != mors[1].dom.id:
            raise ShapeError(f"{self.name}: {a.label()} needs a shared node: {a.args[0]} ends at "
                             f"{mors[0].cod.id}, {a.args[1]} starts at {mors[1].dom.id}")

    def validate(self) -> None:
        for a in self.assertions:
            self.read(a)


class CheckLine:
    def __init__(self, status: str, name: str, witness: Optional[str] = None):
        self.status = status
        self.name = name
        self.witness = witness

    def render(self) -> str:
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{self.status} {self.name}{tail}"


class LemmaReport:
    def __init__(self, lemma: str, hypotheses: Optional[list] = None,
                 conclusions: Optional[list] = None):
        self.lemma = lemma
        self.hypotheses: list[CheckLine] = [] if hypotheses is None else hypotheses
        self.conclusions: list[CheckLine] = [] if conclusions is None else conclusions

    @property
    def hypotheses_hold(self) -> bool:
        return all(l.status == PASS for l in self.hypotheses)

    @property
    def passed(self) -> bool:
        return self.hypotheses_hold and all(l.status == PASS for l in self.conclusions)

    @property
    def refuted(self) -> bool:
        """Hypotheses hold but some conclusion fails: would contradict the
        source lemma on a valid form."""
        return self.hypotheses_hold and any(l.status == FAIL for l in self.conclusions)

    @property
    def skipped(self) -> bool:
        return not self.hypotheses_hold

    def hyp(self, name: str, ok: bool, witness: Optional[str] = None) -> None:
        self.hypotheses.append(CheckLine(PASS if ok else FAIL, name, witness))

    def conclude(self, name: str, check: Callable, *args) -> None:
        """check(*args) -> (ok, witness), SKIPped unless every hypothesis holds."""
        if not self.hypotheses_hold:
            self.conclusions.append(CheckLine(SKIP, name))
            return
        ok, witness = check(*args)
        self.conclusions.append(CheckLine(PASS if ok else FAIL, name, witness))

    def render(self) -> str:
        """One PASS|FAIL|SKIP line per hypothesis and conclusion."""
        lines = [f"lemma {self.lemma}"]
        lines += [l.render() for l in self.hypotheses]
        lines += [l.render() for l in self.conclusions]
        if self.refuted:
            lines.append("REFUTATION: hypotheses hold but a conclusion fails")
        return "\n".join(lines)


def check_assertions(d: Diagram, report: LemmaReport, hyps: Iterable[Assertion],
                     conclusions: Iterable = ()) -> None:
    """Check the hypotheses, then the conclusions (skipped unless every
    hypothesis passes).  A conclusion is an Assertion or a (label, check)
    pair with check(d) -> (ok, witness)."""
    for a in hyps:
        report.hyp(a.label(), *d.check(a))
    for c in conclusions:
        if isinstance(c, Assertion):
            report.conclude(c.label(), d.check, c)
        else:
            label, check = c
            report.conclude(label, check, d)

