"""CLI fuzz guard: a fixture with one token replaced or one line deleted
gives exit code 0, 1 or 2, never a traceback.

Derandomised and bounded, so the same examples run every time."""

import contextlib
import importlib.resources as resources
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noetherform.cli import main

FIXTURES = resources.files("noetherform") / "fixtures"

# every subcommand with valid arguments on the fixture it is run on
RUNS = [
    ("d8_snake.nf", ["check-axioms", "--with-axiom6"]),
    ("d8_snake.nf", ["snake", "snakefix"]),
    ("d8_snake.nf", ["induce", "delta"]),
    ("d8_snake.nf", ["pyramid", "delta"]),
    ("d8_snake.nf", ["chase", "delta", "--subobject", "bottom", "--trace"]),
    ("z4_stack.nf", ["induce", "quotchain"]),
    ("z4_stack.nf", ["chase", "quotchain", "--subobject", "top", "--direction", "backward"]),
    ("z4_stack.nf", ["verify", "shortfive", "--lemma", "short-five", "--part", "iii"]),
    ("z4_stack.nf", ["verify", "sescheck", "--lemma", "generic"]),
    ("groups_le8.nf", ["check-axioms", "--with-axiom6"]),
    ("tiny_form.nf", ["check-axioms", "--with-axiom6"]),
]

TEXTS = {name: (FIXTURES / name).read_text() for name in {f for f, _ in RUNS}}

# replacement tokens: every token of the fixtures, and a few that none has
TOKENS = sorted({t for text in TEXTS.values() for t in text.split()}
                | {"-1", "0", "99", "x", "/", "->", "<=", ",", "#"})


def _mutate(text, line, token, replacement):
    """text with one line deleted (replacement None) or one token of it
    replaced; line and token are taken modulo what there is."""
    lines = text.splitlines()
    n = line % len(lines)
    if replacement is None:
        del lines[n]
    else:
        words = lines[n].split()
        if not words:
            return None
        words[token % len(words)] = replacement
        lines[n] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=st.sampled_from(RUNS), line=st.integers(0, 63), token=st.integers(0, 63),
       replacement=st.none() | st.sampled_from(TOKENS))
def test_mutated_fixture_exits_0_1_or_2(run, line, token, replacement):
    fixture, command = run
    text = _mutate(TEXTS[fixture], line, token, replacement)
    if text is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, fixture)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command[0], path, *command[1:]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, text, out.getvalue())
