"""Line-oriented workspace files: algebras, groups, homs, abstract forms,
zigzags and diagrams.

'#' starts a comment.  Blocks (algebra, group, form, morphism, diagram) end
at the next top-level keyword.  The Slominski form over the declared
algebras is assembled on demand with identities and composition closure
added, so fixture files stay small; abstract forms declared with `form` are
data-defined and checked as written.

Zigzag lines accept the direction token on either side of the morphism
name: `X > f Y` and `X f > Y` both mean f points rightward.

The zigzag and diagram layers are imported only where zigzag lines,
assertions, zigzags or diagrams are handled, so a file of forms and algebras
loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .core import DataForm, Form, FormObject, Morphism
from .errors import ParseError
from .lattice import TableLattice
from .slominski import (
    SlominskiAlgebra,
    SlominskiForm,
    SlominskiHom,
    close_homs,
    from_group,
)

if TYPE_CHECKING:
    from .diagram import Assertion, Diagram
    from .zigzag import Zigzag


@dataclass
class ZigzagSpec:
    name: str
    nodes: list[str]
    edges: list[tuple[str, str]]  # (morphism name, direction)
    line: int


@dataclass
class DiagramSpec:
    name: str
    over: str
    uses: list[tuple[str, str]]  # (entity, role)
    commutes: list[tuple[str, str]]
    asserts: list[Assertion]
    line: int


@dataclass
class FormSpec:
    name: str
    objects: dict[str, list[str]] = field(default_factory=dict)
    orders: list[tuple[str, str, str]] = field(default_factory=list)
    morphisms: list = field(default_factory=list)  # (name, dom, cod, dimg, iimg, line)


class Workspace:
    """Parsed entities plus lazily resolved engine objects."""

    def __init__(self):
        self.algebras: dict[str, SlominskiAlgebra] = {}
        self.homs: dict[str, SlominskiHom] = {}
        self.form_specs: dict[str, FormSpec] = {}
        self.zigzag_specs: dict[str, ZigzagSpec] = {}
        self.diagram_specs: dict[str, DiagramSpec] = {}
        self._slform: Optional[SlominskiForm] = None
        self._forms: dict[str, DataForm] = {}

    # resolution ---------------------------------------------------------

    def slominski_form(self, name: str = "main") -> SlominskiForm:
        if self._slform is None:
            algs = list(self.algebras.values())
            homs = close_homs(algs, list(self.homs.values()))
            form = SlominskiForm(name)
            form.declare(algs, homs)
            self._slform = form
        return self._slform

    def data_form(self, name: str) -> DataForm:
        if name in self._forms:
            return self._forms[name]
        spec = self.form_specs[name]
        objects = []
        for oname, keys in spec.objects.items():
            pairs = [(a, b) for (on, a, b) in spec.orders if on == oname]
            try:
                lattice = TableLattice(keys, pairs)
            except Exception as exc:
                raise ParseError(f"form {name}, object {oname}: {exc}") from None
            objects.append(FormObject(oname, lattice))
        by_id = {o.id: o for o in objects}
        morphisms = []
        for mname, dom, cod, dimg, iimg, line in spec.morphisms:
            if dom not in by_id or cod not in by_id:
                raise ParseError(f"morphism {mname} uses unknown object", line)
            do, co = by_id[dom], by_id[cod]
            for k in do.lattice.keys:
                if k not in dimg:
                    raise ParseError(f"morphism {mname}: dimg missing for key {k}", line)
            for k in co.lattice.keys:
                if k not in iimg:
                    raise ParseError(f"morphism {mname}: iimg missing for key {k}", line)
            bad = [v for v in dimg.values() if v not in co.lattice.index]
            bad += [v for v in iimg.values() if v not in do.lattice.index]
            if bad:
                raise ParseError(f"morphism {mname}: image keys {bad} unknown", line)
            morphisms.append(Morphism.from_maps(do, co, dimg, iimg, name=mname))
        form = DataForm(objects, morphisms, name=name)
        self._forms[name] = form
        return form

    def forms(self) -> dict[str, Form]:
        out: dict[str, Form] = {n: self.data_form(n) for n in sorted(self.form_specs)}
        if self.algebras:
            out["main"] = self.slominski_form()
        return out

    def zigzag(self, name: str) -> Zigzag:
        from .zigzag import Edge, Zigzag

        spec = self.zigzag_specs.get(name)
        if spec is None:
            raise ParseError(f"unknown zigzag {name!r}")
        form = self.slominski_form()
        nodes = []
        for n in spec.nodes:
            if n not in self.algebras:
                raise ParseError(f"zigzag {name}: unknown algebra {n!r}", spec.line)
            nodes.append(form.object_of(self.algebras[n]))
        edges = []
        for i, (mname, direction) in enumerate(spec.edges):
            if mname not in self.homs:
                raise ParseError(f"zigzag {name}: unknown hom {mname!r}", spec.line)
            mor = form.morphism(self.homs[mname], name=mname)
            edges.append(Edge(mor, direction))
        try:
            return Zigzag(tuple(nodes), tuple(edges), form=form)
        except Exception as exc:
            raise ParseError(f"zigzag {name}: {exc}", spec.line) from None

    def diagram(self, name: str) -> Diagram:
        from .diagram import Diagram

        spec = self.diagram_specs.get(name)
        if spec is None:
            raise ParseError(f"unknown diagram {name!r}")
        if spec.over in self.form_specs:
            form: Form = self.data_form(spec.over)
            d = Diagram(form, name=name)
            for ent, role in spec.uses:
                if ent in form.objects:
                    d.add_object(role, form.objects[ent])
                else:
                    mor = next((m for m in form.morphisms if m.name == ent), None)
                    if mor is None:
                        raise ParseError(f"diagram {name}: unknown entity {ent!r}", spec.line)
                    d.add_arrow(role, mor)
        else:
            if not self.algebras:
                raise ParseError(
                    f"diagram {name}: form {spec.over!r} not declared and no algebras loaded",
                    spec.line,
                )
            form = self.slominski_form(spec.over)
            d = Diagram(form, name=name)
            for ent, role in spec.uses:
                if ent in self.algebras:
                    d.add_object(role, form.object_of(self.algebras[ent]))
                elif ent in self.homs:
                    d.add_arrow(role, form.morphism(self.homs[ent], name=ent))
                else:
                    raise ParseError(f"diagram {name}: unknown entity {ent!r}", spec.line)
        d.commutes = list(spec.commutes)
        d.assertions = list(spec.asserts)
        return d


def _tokens(line: str) -> list[str]:
    code = line.split("#", 1)[0].strip()
    return code.split() if code else []


def _rows(parts: list[str], n: int, lineno: int) -> tuple[tuple[int, ...], ...]:
    text = " ".join(parts)
    rows = [r.split() for r in text.split("/")]
    try:
        table = tuple(tuple(int(v) for v in row) for row in rows)
    except ValueError:
        raise ParseError("table entries must be integers", lineno) from None
    if len(table) != n or any(len(r) != n for r in table):
        raise ParseError(f"expected {n} rows of {n} entries", lineno)
    return table


def parse(text: str) -> Workspace:
    ws = Workspace()
    lines = text.splitlines()
    i = 0

    def error(msg, ln):
        raise ParseError(msg, ln + 1)

    while i < len(lines):
        toks = _tokens(lines[i])
        if not toks:
            i += 1
            continue
        kw = toks[0]
        if kw == "algebra":
            i = _parse_algebra(ws, lines, i)
        elif kw == "group":
            i = _parse_group(ws, lines, i)
        elif kw == "hom":
            i = _parse_hom(ws, toks, i)
        elif kw == "form":
            i = _parse_form(ws, lines, i)
        elif kw == "zigzag":
            i = _parse_zigzag(ws, toks, i)
        elif kw == "diagram":
            i = _parse_diagram(ws, lines, i)
        else:
            error(f"unexpected keyword {kw!r}", i)
    return ws


def _expect(cond, msg, ln):
    if not cond:
        raise ParseError(msg, ln + 1)


def _int(tok, what, ln):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, not {tok!r}", ln + 1) from None


def _fresh(table, name, kind, ln):
    if name in table:
        raise ParseError(f"duplicate {kind} name {name!r}", ln + 1)


def _parse_algebra(ws, lines, i):
    toks = _tokens(lines[i])
    _expect(len(toks) == 6 and toks[2] == "size" and toks[4] == "zero",
            "expected: algebra <name> size <n> zero <i>", i)
    name = toks[1]
    _fresh(ws.algebras, name, "algebra", i)
    n, zero = _int(toks[3], "size", i), _int(toks[5], "zero", i)
    tables = {}
    j = i + 1
    while j < len(lines):
        t = _tokens(lines[j])
        if not t:
            j += 1
            continue
        if t[0] in ("p", "d") and t[0] not in tables:
            tables[t[0]] = _rows(t[1:], n, j + 1)
            j += 1
            if len(tables) == 2:
                break
        else:
            break
    _expect("p" in tables and "d" in tables, f"algebra {name}: missing p or d table", i)
    alg = SlominskiAlgebra(name, zero, tables["p"], tables["d"])
    try:
        alg.validate()
    except Exception as exc:
        raise ParseError(str(exc), i + 1) from None
    ws.algebras[name] = alg
    return j


def _parse_group(ws, lines, i):
    toks = _tokens(lines[i])
    _expect(len(toks) == 6 and toks[2] == "size" and toks[4] == "id",
            "expected: group <name> size <n> id <i>", i)
    name = toks[1]
    _fresh(ws.algebras, name, "algebra", i)
    n, ident = _int(toks[3], "size", i), _int(toks[5], "id", i)
    j = i + 1
    while j < len(lines) and not _tokens(lines[j]):
        j += 1
    t = _tokens(lines[j]) if j < len(lines) else []
    _expect(t and t[0] == "table", f"group {name}: missing Cayley table", i)
    table = _rows(t[1:], n, j + 1)
    inverse = []
    for x in range(n):
        inv = next((y for y in range(n) if table[x][y] == ident), None)
        _expect(inv is not None, f"group {name}: element {x} has no inverse", j)
        inverse.append(inv)
    try:
        alg = from_group(table, tuple(inverse), ident, name=name)
    except Exception as exc:
        raise ParseError(str(exc), i + 1) from None
    ws.algebras[name] = alg
    return j + 1


def _parse_hom(ws, toks, i):
    _expect(len(toks) >= 6 and toks[3] == "->" and toks[5] == "map",
            "expected: hom <f> <A> -> <B> map <i0> ...", i)
    name, dom, cod = toks[1], toks[2], toks[4]
    _fresh(ws.homs, name, "hom", i)
    _expect(dom in ws.algebras, f"hom {name}: unknown algebra {dom!r}", i)
    _expect(cod in ws.algebras, f"hom {name}: unknown algebra {cod!r}", i)
    try:
        table = tuple(int(v) for v in toks[6:])
        hom = SlominskiHom(ws.algebras[dom], ws.algebras[cod], table, name=name)
        hom.validate()
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(str(exc), i + 1) from None
    ws.homs[name] = hom
    return i + 1


def _parse_form(ws, lines, i):
    toks = _tokens(lines[i])
    _expect(len(toks) == 2, "expected: form <name>", i)
    _fresh(ws.form_specs, toks[1], "form", i)
    spec = FormSpec(toks[1])
    ws.form_specs[spec.name] = spec
    j = i + 1
    current_mor = None
    while j < len(lines):
        t = _tokens(lines[j])
        if not t:
            j += 1
            continue
        if t[0] == "object":
            _expect(len(t) >= 4 and t[2] == "subobjects",
                    "expected: object <name> subobjects <k1> ...", j)
            spec.objects[t[1]] = t[3:]
            current_mor = None
        elif t[0] == "order":
            _expect(len(t) == 5 and t[3] == "<=", "expected: order <obj> <ki> <= <kj>", j)
            spec.orders.append((t[1], t[2], t[4]))
            current_mor = None
        elif t[0] == "morphism":
            _expect(len(t) == 5 and t[3] == "->", "expected: morphism <f> <dom> -> <cod>", j)
            current_mor = (t[1], t[2], t[4], {}, {}, j + 1)
            spec.morphisms.append(current_mor)
        elif t[0] in ("dimg", "iimg"):
            _expect(current_mor is not None, f"{t[0]} outside a morphism block", j)
            _expect(len(t) == 4 and t[2] == "->", f"expected: {t[0]} <k> -> <k>", j)
            target = current_mor[3] if t[0] == "dimg" else current_mor[4]
            target[t[1]] = t[3]
        else:
            break
        j += 1
    return j


def _parse_zigzag(ws, toks, i):
    from .zigzag import LEFT, RIGHT

    _expect(len(toks) >= 4 and toks[2] == ":", "expected: zigzag <name> : <X0> ...", i)
    name = toks[1]
    _fresh(ws.zigzag_specs, name, "zigzag", i)
    rest = toks[3:]
    _expect(len(rest) % 3 == 1, "zigzag needs node (dir name | name dir) node ...", i)
    nodes = [rest[0]]
    edges = []
    k = 1
    while k < len(rest):
        a, b = rest[k], rest[k + 1]
        if a in ("<", ">"):
            direction, mname = a, b
        elif b in ("<", ">"):
            direction, mname = b, a
        else:
            raise ParseError(f"zigzag {name}: expected a direction near {a!r}", i + 1)
        edges.append((mname, RIGHT if direction == ">" else LEFT))
        nodes.append(rest[k + 2])
        k += 3
    ws.zigzag_specs[name] = ZigzagSpec(name, nodes, edges, i + 1)
    return i + 1


def _parse_diagram(ws, lines, i):
    toks = _tokens(lines[i])
    _expect(len(toks) == 4 and toks[2] == "over", "expected: diagram <name> over <form>", i)
    _fresh(ws.diagram_specs, toks[1], "diagram", i)
    spec = DiagramSpec(toks[1], toks[3], [], [], [], i + 1)
    ws.diagram_specs[spec.name] = spec
    j = i + 1
    while j < len(lines):
        t = _tokens(lines[j])
        if not t:
            j += 1
            continue
        if t[0] == "use":
            _expect(len(t) == 4 and t[2] == "as", "expected: use <entity> as <role>", j)
            spec.uses.append((t[1], t[3]))
        elif t[0] == "commute":
            _expect(len(t) == 4 and t[2] == "=", "expected: commute <p1> = <p2>", j)
            spec.commutes.append((t[1], t[3]))
        elif t[0] == "assert":
            spec.asserts.append(_parse_assert(t[1:], j))
        else:
            break
        j += 1
    return j


def _parse_assert(args, j):
    from .diagram import Assertion

    if not args:
        raise ParseError("empty assertion", j + 1)
    kind = args[0]
    arity = {"exact": 2, "short-exact": 2, "injective": 1, "surjective": 1,
             "iso": 1, "zero": 1}
    if kind not in arity:
        raise ParseError(f"unknown assertion kind {kind!r}", j + 1)
    if len(args) - 1 != arity[kind]:
        raise ParseError(f"assertion {kind} takes {arity[kind]} argument(s)", j + 1)
    return Assertion(kind, tuple(args[1:]))


def parse_file(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse(text)


def merge(*spaces: Workspace) -> Workspace:
    out = Workspace()
    for ws in spaces:
        for kind, src, dst in (
            ("algebra", ws.algebras, out.algebras),
            ("hom", ws.homs, out.homs),
            ("form", ws.form_specs, out.form_specs),
            ("zigzag", ws.zigzag_specs, out.zigzag_specs),
            ("diagram", ws.diagram_specs, out.diagram_specs),
        ):
            for name in src:
                if name in dst:
                    raise ParseError(f"duplicate {kind} name {name!r} across files")
            dst.update(src)
    return out


# ---------------------------------------------------------------------------
# serialization (round-trip support)


def dump(ws: Workspace) -> str:
    from .zigzag import RIGHT

    out = []
    for name in sorted(ws.algebras):
        alg = ws.algebras[name]
        out.append(f"algebra {name} size {alg.n} zero {alg.zero}")
        out.append("p " + " / ".join(" ".join(map(str, row)) for row in alg.p))
        out.append("d " + " / ".join(" ".join(map(str, row)) for row in alg.d))
    for name in sorted(ws.homs):
        h = ws.homs[name]
        out.append(
            f"hom {name} {h.dom.name} -> {h.cod.name} map " + " ".join(map(str, h.table))
        )
    for fname in sorted(ws.form_specs):
        spec = ws.form_specs[fname]
        out.append(f"form {fname}")
        for oname, keys in spec.objects.items():
            out.append(f"object {oname} subobjects " + " ".join(keys))
        for on, a, b in spec.orders:
            out.append(f"order {on} {a} <= {b}")
        for mname, dom, cod, dimg, iimg, _ in spec.morphisms:
            out.append(f"morphism {mname} {dom} -> {cod}")
            for k, v in dimg.items():
                out.append(f"  dimg {k} -> {v}")
            for k, v in iimg.items():
                out.append(f"  iimg {k} -> {v}")
    for zname in sorted(ws.zigzag_specs):
        spec = ws.zigzag_specs[zname]
        parts = [spec.nodes[0]]
        for (mname, direction), node in zip(spec.edges, spec.nodes[1:]):
            parts += [">" if direction == RIGHT else "<", mname, node]
        out.append(f"zigzag {zname} : " + " ".join(parts))
    for dname in sorted(ws.diagram_specs):
        spec = ws.diagram_specs[dname]
        out.append(f"diagram {dname} over {spec.over}")
        for ent, role in spec.uses:
            out.append(f"use {ent} as {role}")
        for p1, p2 in spec.commutes:
            out.append(f"commute {p1} = {p2}")
        for a in spec.asserts:
            out.append("assert " + a.label())
    return "\n".join(out) + "\n"
