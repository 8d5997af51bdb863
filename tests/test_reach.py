"""Product reach: every function, class and method of the engine has a
caller outside the tests, or a stated reason to stay.

A name is reached when engine code other than its own definition names it
(as a Name, an Attribute or an import alias), or when a perfbench script or
a CI step names it (a text match).  Dunder methods are reached by the
language.  An engine name that only the tests call either moves into the
tests (oracles.py) or leaves the engine; the ones that stay are pinned here
with the reason.
"""

import ast
import re
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
