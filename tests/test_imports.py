"""Loading: the package's lazy exports, each subcommand's module footprint,
and the CLI help that names the lemma registry."""

import importlib.resources as resources
import json
import os
import subprocess
import sys

import pytest

import noetherform
from noetherform.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(noetherform.__file__)))
FIXTURES = resources.files("noetherform") / "fixtures"

# The package's public names, by the module that defines them.
EXPORTS = {
    "axioms": ["AxiomCheck", "AxiomReport", "axiom_suite"],
    "core": [
        "DataForm", "Form", "FormObject", "Morphism", "Subobject", "compose",
        "direct_image", "dualize", "identity_morphism", "image", "inverse_image",
        "is_injective", "is_isomorphism", "is_relatively_normal", "is_surjective",
        "is_zero_morphism", "join", "kernel", "leq", "meet",
    ],
    "diagram": ["Assertion", "Diagram", "LemmaReport", "is_exact_at", "is_short_exact"],
    "lemmas": [
        "LEMMAS", "HomologyObject", "SnakeResult", "UndefinedMarker", "homology_object",
        "salamander", "snake", "verify", "verify_exercise", "verify_five", "verify_four",
        "verify_threebythree",
    ],
    "pyramid": ["InductionVerdict", "IsoVerdict", "Pyramid", "QuotientIsoResult",
                "build_pyramid", "decide_induction", "decide_isomorphism", "quotient_iso"],
    "slominski": [
        "Congruence", "SlominskiAlgebra", "SlominskiForm", "as_form", "close_homs",
        "enumerate_homs", "from_group", "generate_congruence", "is_normal_subalgebra",
        "quotient",
    ],
    "zigzag": ["Edge", "Zigzag", "chase_backward", "chase_forward", "induced_relation",
               "is_collapsible"],
}


def python(code, *args):
    """Run code in a fresh interpreter on this source tree; its last stdout
    line, decoded as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_exports_every_name():
    got = python("""
import importlib, json, sys
import noetherform
loaded = sorted(m for m in sys.modules if m.startswith("noetherform."))
names = list(noetherform.__all__)
listed = sorted(n for n in dir(noetherform) if n in names)
namespace = {}
exec("from noetherform import *", namespace)
star = sorted(n for n in namespace if not n.startswith("__"))
foreign = [n for module, ns in json.loads(sys.argv[1]).items() for n in ns
           if getattr(noetherform, n) is not
           getattr(importlib.import_module(f"noetherform.{module}"), n)]
try:
    noetherform.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "all": names, "dir": listed, "star": star,
                  "foreign": foreign, "unknown": unknown}))
""", json.dumps(EXPORTS))
    every = sorted(n for names in EXPORTS.values() for n in names)
    assert len(every) == 64
    assert got == {"loaded": [], "all": [n for names in EXPORTS.values() for n in names],
                   "dir": every, "star": every, "foreign": [],
                   "unknown": "module 'noetherform' has no attribute 'no_such_name'"}


FOOTPRINT = """
import json, sys
from noetherform.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m[12:] for m in sys.modules if m.startswith("noetherform."))]))
"""


@pytest.mark.parametrize("argv,code,unused", [
    (("check-axioms", "tiny_form.nf"), 0, {"lemmas", "pyramid", "zigzag", "diagram", "gen"}),
    (("check-axioms", "groups_le8.nf"), 0, {"lemmas", "pyramid", "zigzag", "diagram", "gen"}),
    (("chase", "d8_snake.nf", "delta", "--subobject", "bottom"), 0,
     {"axioms", "lemmas", "pyramid"}),
    (("induce", "d8_snake.nf", "delta"), 0, {"axioms", "lemmas"}),
], ids=["check-axioms-tiny", "check-axioms-le8", "chase", "induce"])
def test_subcommand_loads_only_its_layers(argv, code, unused):
    args = [str(FIXTURES / a) if a.endswith(".nf") else a for a in argv]
    got, loaded = python(FOOTPRINT, *args)
    assert got == code
    assert "parser" in loaded
    assert sorted(unused & set(loaded)) == []


def test_parsing_loads_the_diagram_layer_only_for_assert_lines():
    # d8_snake.nf declares a zigzag and a diagram without assert lines
    got = python("""
import json, sys
from noetherform.parser import parse_file
parse_file(sys.argv[1])
print(json.dumps(sorted(m[12:] for m in sys.modules if m.startswith("noetherform."))))
""", str(FIXTURES / "d8_snake.nf"))
    assert got == ["core", "errors", "lattice", "parser", "slominski", "zigzag"]


def test_engine_loads_neither_dataclasses_nor_inspect():
    # the engine's records are plain classes: importing the generator, the
    # axiom suite and the CLI and running snake loads neither module
    got = python("""
import json, sys
before = set(sys.modules)
import noetherform.gen, noetherform.axioms
from noetherform.cli import main
code = main(["snake", sys.argv[1], "snakefix"])
print(json.dumps([code, sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))]))
""", str(FIXTURES / "d8_snake.nf"))
    assert got == [0, []]


# As printed at 80 columns before the lemma lists were filled in lazily.
TOP_HELP = """\
usage: noetherform [-h] {check-axioms,chase,induce,pyramid,verify,snake} ...

Exact engine for subgroup chasing and homological diagram lemmas over finite
group-like structures.

positional arguments:
  {check-axioms,chase,induce,pyramid,verify,snake}
    check-axioms        run the axiom suite on the loaded forms
    chase               chase a subobject along a zigzag
    induce              decide homomorphism induction for a zigzag
    pyramid             build the pyramid over a zigzag
    verify              verify a named lemma on a diagram
    snake               construct and check the snake sequence

options:
  -h, --help            show this help message and exit
"""

VERIFY_HELP = """\
usage: noetherform verify [-h] --lemma LEMMA [--part PART]
                          files [files ...] diagram

positional arguments:
  files
  diagram

options:
  -h, --help     show this help message and exit
  --lemma LEMMA  one of four, five, 3x3, short-five, spider, incomplete-snail,
                 square-exact, diamond, baby-dragon, dragon, snake,
                 generalized-snail, goursat, salamander, generic (threebythree
                 for 3x3)
  --part PART    part of a lemma that has parts, the first by default: four
                 i|ii; five full|i|ii; 3x3 upper|lower|middle; short-five
                 iii|i|ii; square-exact i|ii; diamond i|ii; baby-dragon i|ii;
                 dragon i|ii
"""


@pytest.mark.parametrize("argv,want", [
    (("--help",), TOP_HELP),
    (("verify", "--help"), VERIFY_HELP),
], ids=["top", "verify"])
def test_help_text_is_pinned(monkeypatch, capsys, argv, want):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    out = capsys.readouterr()
    assert (exit_.value.code, out.out, out.err) == (0, want, "")

