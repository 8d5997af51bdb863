"""Product reach: every function, class and method of the engine has a
caller outside the tests, or a stated reason to stay, and so does every
parameter with a default.

A name is reached when engine code other than its own definition names it
(as a Name, an Attribute or an import alias), or when a perfbench script or
a CI step names it (a text match).  Dunder methods are reached by the
language.  An engine name that only the tests call either moves into the
tests (oracles.py) or leaves the engine; the ones that stay are pinned here
with the reason.

A defaulted parameter is set when a call outside its own function, in the
engine, a perfbench script or a CI step's Python, names the function (as a
Name or an Attribute) and passes the parameter by keyword, by position or
through * or **.  A function handed to a call counts as called with the
arguments after it, as perfbench's ctx.call(label, f, *args) calls it, and
a name assigned in the same file stands for every name its value mentions.
Calls are matched by name alone, so a parameter counts as set when any
function of that name is called so.  A default that no such
call overrides is a knob only the tests turn: it leaves, or is pinned here
with the reason.  Dunder methods, record __init__s among them, are skipped.
"""

import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNREACHED = {
    "axioms.AxiomReport.failed_names":
        "report reader beside passed: the names of the failing checks, for callers "
        "that assert on a report",
    "cli._VerifyHelp._get_help_string": "argparse calls it to render verify's help",
    "diagram.LemmaReport.skipped":
        "report reader beside passed and refuted: a hypothesis failed, so the "
        "conclusions were not checked",
    "gen.goursat_instance":
        "seeded Goursat builder; stays until a benchmark unit runs the Goursat lemma",
    "slominski.Congruence.zero_class":
        "part of the congruence record that generate_congruence, the normality "
        "oracle perfbench runs, returns",
    "slominski.SlominskiForm.zero_morphism":
        "the zero map between two objects of a Slominski form, which hand-built "
        "diagrams need",
}


def _definitions(tree, prefix=""):
    """(qualified name, name, node) of every function and class under tree,
    methods and nested definitions included."""
    for node in getattr(tree, "body", ()):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = prefix + node.name
            yield qual, node.name, node
            yield from _definitions(node, qual + ".")


def _named(tree):
    """(name, line) of every Name, Attribute and import alias in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
            if node.asname:
                yield node.asname, node.lineno


def unreached():
    """The engine's definitions that nothing outside the tests names, as
    module.qualified.name."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "noetherform").glob("*.py"))}
    names = {module: list(_named(tree)) for module, tree in trees.items()}
    outside = "".join(p.read_text(encoding="utf-8")
                      for p in sorted((ROOT / "perfbench").glob("*.py")))
    outside += (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    out = []
    for module, tree in trees.items():
        for qual, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                   for m, named in names.items() for n, line in named):
                continue
            if re.search(rf"\b{re.escape(name)}\b", outside):
                continue
            out.append(f"{module}.{qual}")
    return out


def test_every_engine_name_has_a_product_caller_or_a_reason():
    got = unreached()
    assert sorted(got) == sorted(UNREACHED)
    assert all(reason.strip() for reason in UNREACHED.values())


UNSET: dict = {}


def _ci_python():
    """The Python of the CI steps: each heredoc of the workflow, dedented."""
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return [textwrap.dedent(block) for block in re.findall(r"<<'EOF'\n(.*?)\n *EOF\n", text, re.S)]


def _callee_names(node, aliases):
    """The function names node may stand for: its Name or Attribute name,
    or, for a Name assigned in the same file, every name its value
    mentions."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return aliases.get(node.id, [node.id])
    return []


def _calls(tree, module):
    """(module, line, name, positional count, keywords) of every call in
    tree, and of every function handed to a call with the arguments after it
    (perfbench's ctx.call(label, f, *args, **kwargs)); a * or ** argument
    passes every positional or keyword parameter (count None, keywords
    None)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            aliases[node.targets[0].id] = [n for v in ast.walk(node.value)
                                           for n in _callee_names(v, {})]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            star = any(isinstance(a, ast.Starred) for a in node.args)
            words = {k.arg for k in node.keywords}
            words = None if None in words else words
            for name in _callee_names(node.func, {}):
                yield module, node.lineno, name, None if star else len(node.args), words
            for j, arg in enumerate(node.args):
                for name in _callee_names(arg, aliases):
                    yield (module, node.lineno, name,
                           None if star else len(node.args) - j - 1, words)


def _defaulted(node, in_class):
    """(parameter, positional index or None) of each defaulted parameter of
    a function node; a method's index does not count self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list)
    first = len(positional) - len(args.defaults)
    for j, a in enumerate(positional[first:], first):
        yield a.arg, j - bound
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield a.arg, None


def unset():
    """The engine's defaulted parameters that no call outside the tests
    sets, as module.qualified.name.parameter."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "noetherform").glob("*.py"))}
    outside = [("perfbench." + p.stem, ast.parse(p.read_text(encoding="utf-8")))
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    outside += [("ci", ast.parse(block)) for block in _ci_python()]
    calls = [c for module, tree in [*trees.items(), *outside] for c in _calls(tree, module)]
    out = []
    for module, tree in trees.items():
        classes = {qual for qual, _, node in _definitions(tree) if isinstance(node, ast.ClassDef)}
        for qual, name, node in _definitions(tree):
            if isinstance(node, ast.ClassDef) or name.startswith("__") and name.endswith("__"):
                continue
            own = [c for c in calls if c[2] == name
                   and not (c[0] == module and node.lineno <= c[1] <= node.end_lineno)]
            for param, at in _defaulted(node, qual.rpartition(".")[0] in classes):
                if not any(words is None or param in words
                           or at is not None and (count is None or count > at)
                           for _, _, _, count, words in own):
                    out.append(f"{module}.{qual}.{param}")
    return out


def test_every_defaulted_parameter_has_a_product_caller_or_a_reason():
    got = unset()
    assert sorted(got) == sorted(UNSET)
    assert all(reason.strip() for reason in UNSET.values())
