"""Line-oriented workspace files: algebras, groups, homs, abstract forms,
zigzags and diagrams.

'#' starts a comment.  parse splits the text once into its non-blank lines
and reads them by BLOCKS, which gives each top-level keyword its reader and
the keywords of the body lines that follow it:

    algebra <name> size <n> zero <i>     p and d, once each
    group <name> size <n> id <i>         table, once
    hom <f> <A> -> <B> map <i0> ...      none
    form <name>                          object, order, morphism, dimg and
                                         iimg, repeating
    zigzag <name> : <X0> ...             none
    diagram <name> over <form>           use, commute and assert, repeating

A body ends at the first line its block does not own, which starts the
next block; so a second p, d or table line is an unexpected keyword.  A
dimg or iimg line belongs to the nearest morphism line above it, with no
object or order line between, and gives the image of a key once.

Workspace.homs maps each hom name to (dom, cod, table): its two algebras
and its element table, which slominski.check_hom checks at the hom line and
nothing checks again.  The Slominski form `main` over the declared algebras
is assembled on demand from them, with identities and composition closure
added, so fixture files stay small;
abstract forms declared with `form` are data-defined and checked as written.
A diagram is resolved over the data form it names, or over `main` when no
form of that name is declared.

Zigzag lines accept the direction token on either side of the morphism
name: `X > f Y` and `X f > Y` both mean f points rightward.

The zigzag and diagram layers are imported only where zigzag lines, commute
and assert lines, zigzags or diagrams are handled, so a file of forms and
algebras loads neither.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Optional

from .core import DataForm, Form, FormObject, Morphism
from .errors import ParseError
from .lattice import TableLattice
from .slominski import SlominskiAlgebra, SlominskiForm, check_hom, close_homs, from_group

if TYPE_CHECKING:
    from .diagram import Assertion, Diagram
    from .zigzag import Zigzag


class ZigzagSpec:
    def __init__(self, name: str, nodes: list[str], edges: list[tuple[str, str]], line: int):
        self.name = name
        self.nodes = nodes
        self.edges = edges  # (morphism name, direction)
        self.line = line


class DiagramSpec:
    def __init__(self, name: str, over: str, uses: list[tuple[str, str, int]],
                 asserts: list[tuple[Assertion, int]], line: int):
        self.name = name
        self.over = over
        self.uses = uses  # (entity, role, line)
        self.asserts = asserts  # (assertion, line) of each commute and assert line, in order
        self.line = line


class FormSpec:
    def __init__(self, name: str, objects: Optional[dict] = None,
                 orders: Optional[list] = None, morphisms: Optional[list] = None):
        self.name = name
        self.objects: dict[str, list[str]] = {} if objects is None else objects
        self.orders: list[tuple] = [] if orders is None else orders  # (obj, a, b, line)
        # (name, dom, cod, dimg, iimg, line); dimg and iimg map a key to (key, line)
        self.morphisms: list = [] if morphisms is None else morphisms


class Workspace:
    """Parsed entities plus lazily resolved engine objects."""

    def __init__(self):
        self.algebras: dict[str, SlominskiAlgebra] = {}
        self.homs: dict[str, tuple[SlominskiAlgebra, SlominskiAlgebra, tuple[int, ...]]] = {}
        self.form_specs: dict[str, FormSpec] = {}
        self.zigzag_specs: dict[str, ZigzagSpec] = {}
        self.diagram_specs: dict[str, DiagramSpec] = {}
        self._slform: Optional[SlominskiForm] = None
        self._forms: dict[str, DataForm] = {}

    # resolution ---------------------------------------------------------

    def slominski_form(self) -> SlominskiForm:
        """The form `main` over the declared algebras and the closure of the
        declared homs, built once."""
        if self._slform is None:
            algs = list(self.algebras.values())
            form = SlominskiForm("main")
            named = [form.morphism(*h, name=n) for n, h in self.homs.items()]
            form.declare(algs, close_homs(form, algs, named))
            self._slform = form
        return self._slform

    def data_form(self, name: str) -> DataForm:
        if name in self._forms:
            return self._forms[name]
        spec = self.form_specs[name]
        objects = []
        for oname, keys in spec.objects.items():
            pairs = []
            for on, a, b, line in spec.orders:
                if on == oname:
                    for k in (a, b):
                        _expect(k in keys,
                                f"form {name}: order {k!r} is not a subobject of {oname}", line)
                    pairs.append((a, b))
            with _located(None, f"form {name}, object {oname}: "):
                lattice = TableLattice(keys, pairs)
            objects.append(FormObject(oname, lattice))
        by_id = {o.id: o for o in objects}
        morphisms = []
        for mname, dom, cod, dimg, iimg, line in spec.morphisms:
            if dom not in by_id or cod not in by_id:
                raise ParseError(f"morphism {mname} uses unknown object", line)
            do, co = by_id[dom], by_id[cod]
            for kind, img, src in (("dimg", dimg, do), ("iimg", iimg, co)):
                for k in src.lattice.keys:
                    _expect(k in img, f"morphism {mname}: {kind} missing for key {k}", line)
            bad = [v for v, _ in dimg.values() if v not in co.lattice.index]
            bad += [v for v, _ in iimg.values() if v not in do.lattice.index]
            if bad:
                raise ParseError(f"morphism {mname}: image keys {bad} unknown", line)
            dmap = {k: v for k, (v, _) in dimg.items()}
            imap = {k: v for k, (v, _) in iimg.items()}
            morphisms.append(Morphism.from_maps(do, co, dmap, imap, name=mname))
        # lines that name what the form lacks, checked once the rest resolves
        for on, _, _, line in spec.orders:
            _expect(on in by_id, f"form {name}: order on unknown object {on!r}", line)
        for m, (mname, _, _, dimg, iimg, _) in zip(morphisms, spec.morphisms):
            for kind, img, src in (("dimg", dimg, m.dom), ("iimg", iimg, m.cod)):
                for k, (_, ln) in img.items():
                    _expect(k in src.lattice.index,
                            f"morphism {mname}: {kind} {k!r} is not a subobject of {src.id}", ln)
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
        for mname, direction in spec.edges:
            if mname not in self.homs:
                raise ParseError(f"zigzag {name}: unknown hom {mname!r}", spec.line)
            mor = form.morphism(*self.homs[mname], name=mname)
            edges.append(Edge(mor, direction))
        with _located(spec.line, f"zigzag {name}: "):
            return Zigzag(tuple(nodes), tuple(edges), form=form)

    def diagram(self, name: str) -> Diagram:
        from .diagram import Diagram

        spec = self.diagram_specs.get(name)
        if spec is None:
            raise ParseError(f"unknown diagram {name!r}")
        if spec.over in self.form_specs:
            form: Form = self.data_form(spec.over)
            objects, arrows = form.objects, {m.name: m for m in form.morphisms}
        else:
            _expect(self.algebras, f"diagram {name}: form {spec.over!r} not declared and no "
                    "algebras loaded", spec.line)
            form = self.slominski_form()
            objects = {n: form.object_of(a) for n, a in self.algebras.items()}
            arrows = {n: form.morphism(*h, name=n) for n, h in self.homs.items()}
        d = Diagram(form, name=name)
        for ent, role, line in spec.uses:
            _expect(role not in d.objects and role not in d.arrows,
                    f"diagram {name}: role {role!r} bound twice", line)
            if ent in objects:
                d.add_object(role, objects[ent])
            elif ent in arrows:
                d.add_arrow(role, arrows[ent])
            else:
                raise ParseError(f"diagram {name}: unknown entity {ent!r}", line)
        for a, line in spec.asserts:
            with _located(line, "diagram "):
                d.read(a)
        d.assertions = [a for a, _ in spec.asserts]
        return d


def _rows(parts: list[str], n: int, line: int) -> tuple[tuple[int, ...], ...]:
    text = " ".join(parts)
    rows = [r.split() for r in text.split("/")]
    try:
        table = tuple(tuple(int(v) for v in row) for row in rows)
    except ValueError:
        raise ParseError("table entries must be integers", line) from None
    if len(table) != n or any(len(r) != n for r in table):
        raise ParseError(f"expected {n} rows of {n} entries", line)
    return table


def _expect(cond, msg, line):
    if not cond:
        raise ParseError(msg, line)


def _int(tok, what, line):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} must be an integer, not {tok!r}", line) from None


def _fresh(table, name, kind, line):
    if name in table:
        raise ParseError(f"duplicate {kind} name {name!r}", line)


@contextmanager
def _located(line, prefix=""):
    """Report any error raised inside as a ParseError at line."""
    try:
        yield
    except Exception as exc:
        raise ParseError(f"{prefix}{exc}", line) from None


def _sized(ws, line, toks, base):
    """The header `<kw> <name> size <n> <base> <i>` of an algebra or a group:
    its name, checked fresh before its integers are read, n and i."""
    _expect(len(toks) == 6 and toks[2] == "size" and toks[4] == base,
            f"expected: {toks[0]} <name> size <n> {base} <i>", line)
    _fresh(ws.algebras, toks[1], "algebra", line)
    _expect(toks[1] not in ws.homs, f"{toks[0]} {toks[1]}: a hom has that name", line)
    return toks[1], _int(toks[3], "size", line), _int(toks[5], base, line)


def _read_algebra(ws, line, toks, body):
    name, n, zero = _sized(ws, line, toks, "zero")
    tables = {t[0]: _rows(t[1:], n, ln) for ln, t in body}
    _expect(len(tables) == 2, f"algebra {name}: missing p or d table", line)
    alg = SlominskiAlgebra(name, zero, tables["p"], tables["d"])
    with _located(line):
        alg.validate()
    ws.algebras[name] = alg


def _read_group(ws, line, toks, body):
    name, n, ident = _sized(ws, line, toks, "id")
    _expect(body, f"group {name}: missing Cayley table", line)
    [(ln, t)] = body
    table = _rows(t[1:], n, ln)
    inverse = []
    for x in range(n):
        inv = next((y for y in range(n) if table[x][y] == ident), None)
        _expect(inv is not None, f"group {name}: element {x} has no inverse", ln)
        inverse.append(inv)
    with _located(line):
        ws.algebras[name] = from_group(table, tuple(inverse), ident, name=name)


def _read_hom(ws, line, toks, body):
    _expect(len(toks) >= 6 and toks[3] == "->" and toks[5] == "map",
            "expected: hom <f> <A> -> <B> map <i0> ...", line)
    name, dom, cod = toks[1], toks[2], toks[4]
    _fresh(ws.homs, name, "hom", line)
    _expect(name not in ws.algebras, f"hom {name}: an algebra has that name", line)
    _expect(dom in ws.algebras, f"hom {name}: unknown algebra {dom!r}", line)
    _expect(cod in ws.algebras, f"hom {name}: unknown algebra {cod!r}", line)
    table = tuple(_int(v, "map entry", line) for v in toks[6:])
    hom = ws.algebras[dom], ws.algebras[cod], table
    with _located(line):
        check_hom(*hom, name=name)
    ws.homs[name] = hom


def _read_form(ws, line, toks, body):
    _expect(len(toks) == 2, "expected: form <name>", line)
    _fresh(ws.form_specs, toks[1], "form", line)
    spec = ws.form_specs[toks[1]] = FormSpec(toks[1])
    mor = None
    for ln, t in body:
        if t[0] == "object":
            _expect(len(t) >= 4 and t[2] == "subobjects",
                    "expected: object <name> subobjects <k1> ...", ln)
            _fresh(spec.objects, t[1], "object", ln)
            _expect(all(m[0] != t[1] for m in spec.morphisms),
                    f"object {t[1]}: a morphism has that name", ln)
            spec.objects[t[1]] = t[3:]
            mor = None
        elif t[0] == "order":
            _expect(len(t) == 5 and t[3] == "<=", "expected: order <obj> <ki> <= <kj>", ln)
            spec.orders.append((t[1], t[2], t[4], ln))
            mor = None
        elif t[0] == "morphism":
            _expect(len(t) == 5 and t[3] == "->", "expected: morphism <f> <dom> -> <cod>", ln)
            _fresh({m[0] for m in spec.morphisms}, t[1], "morphism", ln)
            _expect(t[1] not in spec.objects, f"morphism {t[1]}: an object has that name", ln)
            mor = (t[1], t[2], t[4], {}, {}, ln)
            spec.morphisms.append(mor)
        else:
            _expect(mor is not None, f"{t[0]} outside a morphism block", ln)
            _expect(len(t) == 4 and t[2] == "->", f"expected: {t[0]} <k> -> <k>", ln)
            img = mor[3 if t[0] == "dimg" else 4]
            _expect(t[1] not in img, f"morphism {mor[0]}: second {t[0]} line for {t[1]!r}", ln)
            img[t[1]] = (t[3], ln)


def _read_zigzag(ws, line, toks, body):
    from .zigzag import LEFT, RIGHT

    _expect(len(toks) >= 4 and toks[2] == ":", "expected: zigzag <name> : <X0> ...", line)
    name = toks[1]
    _fresh(ws.zigzag_specs, name, "zigzag", line)
    rest = toks[3:]
    _expect(len(rest) % 3 == 1, "zigzag needs node (dir name | name dir) node ...", line)
    nodes = [rest[0]]
    edges = []
    for a, b, node in zip(rest[1::3], rest[2::3], rest[3::3]):
        if a in ("<", ">"):
            direction, mname = a, b
        elif b in ("<", ">"):
            direction, mname = b, a
        else:
            raise ParseError(f"zigzag {name}: expected a direction near {a!r}", line)
        edges.append((mname, RIGHT if direction == ">" else LEFT))
        nodes.append(node)
    ws.zigzag_specs[name] = ZigzagSpec(name, nodes, edges, line)


def _read_diagram(ws, line, toks, body):
    _expect(len(toks) == 4 and toks[2] == "over", "expected: diagram <name> over <form>", line)
    _fresh(ws.diagram_specs, toks[1], "diagram", line)
    spec = ws.diagram_specs[toks[1]] = DiagramSpec(toks[1], toks[3], [], [], line)
    for ln, t in body:
        if t[0] == "use":
            _expect(len(t) == 4 and t[2] == "as", "expected: use <entity> as <role>", ln)
            spec.uses.append((t[1], t[3], ln))
            continue
        from .diagram import KINDS, Assertion

        if t[0] == "commute":
            _expect(len(t) == 4 and t[2] == "=", "expected: commute <p1> = <p2>", ln)
            kind, args = "commute", (t[1], t[3])
        else:
            _expect(len(t) > 1, "empty assertion", ln)
            kind, args = t[1], tuple(t[2:])
            _expect(kind in KINDS and kind != "commute", f"unknown assertion kind {kind!r}", ln)
            arity = KINDS[kind][0]
            _expect(len(args) == arity, f"assertion {kind} takes {arity} argument(s)", ln)
        spec.asserts.append((Assertion(kind, args), ln))


# Each top-level keyword: its reader, the keywords of the body lines it owns,
# and whether those may repeat (if not, each is owned once).
BLOCKS = {
    "algebra": (_read_algebra, {"p", "d"}, False),
    "group": (_read_group, {"table"}, False),
    "hom": (_read_hom, set(), False),
    "form": (_read_form, {"object", "order", "morphism", "dimg", "iimg"}, True),
    "zigzag": (_read_zigzag, set(), False),
    "diagram": (_read_diagram, {"use", "commute", "assert"}, True),
}


def parse(text: str) -> Workspace:
    ws = Workspace()
    lines = [(n, toks) for n, raw in enumerate(text.splitlines(), 1)
             if (toks := raw.split("#", 1)[0].split())]
    k = 0
    while k < len(lines):
        line, toks = lines[k]
        _expect(toks[0] in BLOCKS, f"unexpected keyword {toks[0]!r}", line)
        read, owned, repeat = BLOCKS[toks[0]]
        start = k = k + 1
        while k < len(lines) and lines[k][1][0] in owned:
            if not repeat:
                owned = owned - {lines[k][1][0]}
            k += 1
        read(ws, line, toks, lines[start:k])
    return ws


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
    for name in out.homs:
        _expect(name not in out.algebras, f"hom {name}: an algebra has that name across files", None)
    return out


# ---------------------------------------------------------------------------
# serialization (round-trip support)


def dump(ws: Workspace) -> str:
    """The workspace as file text; each hom endpoint is written as the key
    under which the workspace holds that algebra."""
    from .zigzag import RIGHT

    key = {id(alg): name for name, alg in ws.algebras.items()}
    out = []
    for name in sorted(ws.algebras):
        alg = ws.algebras[name]
        out.append(f"algebra {name} size {alg.n} zero {alg.zero}")
        out.append("p " + " / ".join(" ".join(map(str, row)) for row in alg.p))
        out.append("d " + " / ".join(" ".join(map(str, row)) for row in alg.d))
    for name in sorted(ws.homs):
        dom, cod, table = ws.homs[name]
        out.append(f"hom {name} {key[id(dom)]} -> {key[id(cod)]} map " + " ".join(map(str, table)))
    for fname in sorted(ws.form_specs):
        spec = ws.form_specs[fname]
        out.append(f"form {fname}")
        for oname, keys in spec.objects.items():
            out.append(f"object {oname} subobjects " + " ".join(keys))
        for on, a, b, _ in spec.orders:
            out.append(f"order {on} {a} <= {b}")
        for mname, dom, cod, dimg, iimg, _ in spec.morphisms:
            out.append(f"morphism {mname} {dom} -> {cod}")
            for k, (v, _) in dimg.items():
                out.append(f"  dimg {k} -> {v}")
            for k, (v, _) in iimg.items():
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
        for ent, role, _ in spec.uses:
            out.append(f"use {ent} as {role}")
        for a, _ in spec.asserts:
            out.append(a.label() if a.kind == "commute" else "assert " + a.label())
    return "\n".join(out) + "\n"
