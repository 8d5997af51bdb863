"""CLI: commands, exit codes, output shape."""

import importlib.resources as resources

import pytest

from noetherform.cli import main

FIXTURES = resources.files("noetherform") / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_axioms_groups(capsys):
    code, out, _ = run(capsys, "check-axioms", fx("z4_stack.nf"), "--with-axiom6")
    assert code == 0
    assert "PASS axioms(main)" in out


def test_check_axioms_axiom6_failure_exit1(capsys):
    code, out, _ = run(capsys, "check-axioms", fx("tiny_form.nf"), "--with-axiom6")
    assert code == 1
    assert "FAIL AX6" in out


def test_check_axioms_without_flag_passes(capsys):
    code, out, _ = run(capsys, "check-axioms", fx("tiny_form.nf"))
    assert code == 0


def test_check_axioms_unknown_form(capsys):
    code, _, err = run(capsys, "check-axioms", fx("tiny_form.nf"), "--form", "nope")
    assert code == 2
    assert "no form named" in err


def test_chase_forward_bottom(capsys):
    code, out, _ = run(capsys, "chase", fx("d8_snake.nf"), "delta",
                       "--subobject", "bottom", "--direction", "forward")
    assert code == 0
    assert out.strip().endswith("VB: {0}")


def test_chase_backward_top_with_trace(capsys):
    code, out, _ = run(capsys, "chase", fx("d8_snake.nf"), "delta",
                       "--subobject", "top", "--direction", "backward", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # six trace steps plus the result line
    assert lines[-1] == "result VB: {0,1}"


def test_chase_explicit_subobject(capsys):
    code, out, _ = run(capsys, "chase", fx("z4_stack.nf"), "quotchain",
                       "--subobject", "0,2")
    assert code == 0
    assert "result Z2: {0}" in out


def test_chase_unknown_subobject_exit2(capsys):
    code, _, err = run(capsys, "chase", fx("d8_snake.nf"), "delta",
                       "--subobject", "0,3")
    assert code == 2


def test_chase_unknown_zigzag_exit2(capsys):
    code, _, err = run(capsys, "chase", fx("d8_snake.nf"), "nope",
                       "--subobject", "bottom")
    assert code == 2
    assert "unknown zigzag" in err


def test_induce_prints_image_maps(capsys):
    code, out, _ = run(capsys, "induce", fx("d8_snake.nf"), "delta")
    assert code == 0
    assert out.startswith("PASS induce")
    assert "dimg {0} -> {0}" in out
    assert "elements 0 1" in out


def test_induce_failure_exit1(capsys):
    code, out, _ = run(capsys, "induce", fx("z4_stack.nf"), "badinduce")
    assert code == 1
    assert "FAIL induce" in out
    assert "backward-top" in out


def test_pyramid_dot(tmp_path, capsys):
    out_file = tmp_path / "p.dot"
    code, out, _ = run(capsys, "pyramid", fx("d8_snake.nf"), "delta",
                       "--dot", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("digraph pyramid")
    assert "X_0_0" in text


def test_verify_short_five(capsys):
    code, out, _ = run(capsys, "verify", fx("z4_stack.nf"), "shortfive",
                       "--lemma", "short-five", "--part", "iii")
    assert code == 0
    assert "PASS iso t" in out


def test_verify_unknown_lemma_exit2(capsys):
    code, _, err = run(capsys, "verify", fx("z4_stack.nf"), "shortfive",
                       "--lemma", "nonsense")
    assert code == 2
    assert "unknown lemma 'nonsense'" in err


def test_verify_unknown_part_exit2(capsys):
    code, out, err = run(capsys, "verify", fx("z4_stack.nf"), "shortfive",
                         "--lemma", "short-five", "--part", "iv")
    assert code == 2
    assert out == ""
    assert "short-five has parts iii, i, ii, not 'iv'" in err


def test_verify_part_of_single_part_lemma_exit2(capsys):
    code, out, err = run(capsys, "verify", fx("z4_stack.nf"), "sescheck",
                         "--lemma", "generic", "--part", "ii")
    assert code == 2
    assert out == ""
    assert "generic has no parts, not 'ii'" in err
    code, _, err = run(capsys, "verify", fx("d8_snake.nf"), "snakefix",
                       "--lemma", "snake", "--part", "i")
    assert code == 2
    assert "snake has no parts" in err


def test_verify_lemma_snake_prints_the_snake_report(capsys):
    code, out, _ = run(capsys, "verify", fx("d8_snake.nf"), "snakefix", "--lemma", "snake")
    assert code == 0
    assert out.startswith("lemma snake\n")
    assert out.count("PASS exact at") == 4
    _, snake_out, _ = run(capsys, "snake", fx("d8_snake.nf"), "snakefix")
    assert snake_out.endswith(out)


def test_verify_generic_diagram_checks(capsys):
    code, out, _ = run(capsys, "verify", fx("z4_stack.nf"), "sescheck",
                       "--lemma", "generic")
    assert code == 0
    assert "PASS exact f g" in out
    assert "PASS commute g.f = z0" in out


def test_own_assert_line_is_a_hypothesis_of_a_registered_lemma(tmp_path, capsys):
    # shortfive with a false line of its own: the lemma's conclusion SKIPs
    text = (FIXTURES / "z4_stack.nf").read_text()
    src = tmp_path / "sf.nf"
    src.write_text(text.replace("use idZ2 as u\n", "use idZ2 as u\nassert injective g\n", 1))
    code, out, _ = run(capsys, "verify", str(src), "shortfive",
                       "--lemma", "short-five", "--part", "iii")
    assert (code, out) == (1, "\n".join([
        "lemma short-five (iii)",
        "PASS commute t.f = x.s", "PASS commute u.g = y.t",
        "PASS short-exact f g", "PASS short-exact x y", "PASS iso s", "PASS iso u",
        "FAIL injective g [Ker g = Z4:{0,2}]",
        "SKIP iso t",
    ]) + "\n")


def test_own_lines_are_reported_and_dumped_in_file_order(tmp_path, capsys):
    from noetherform.parser import dump, parse

    lines = ["diagram mixed over main", "use minc as f", "use q as g", "use zq as z0",
             "assert injective f", "commute g.f = z0", "assert exact f g"]
    text = (FIXTURES / "z4_stack.nf").read_text() + "\n" + "\n".join(lines) + "\n"
    src = tmp_path / "mixed.nf"
    src.write_text(text)
    code, out, _ = run(capsys, "verify", str(src), "mixed", "--lemma", "generic")
    assert (code, out) == (0, "lemma mixed\nPASS injective f\nPASS commute g.f = z0\n"
                              "PASS exact f g\n")
    dumped = dump(parse(text)).splitlines()
    at = dumped.index(lines[0])
    assert dumped[at:at + len(lines)] == lines


@pytest.mark.parametrize("name,entity,code,want", [
    ("dd", "idT", 0, "PASS commute f = f.f\nPASS iso f\n"),
    ("bad", "nothere", 2, "diagram bad: unknown entity 'nothere'"),
], ids=["declared", "unknown"])
def test_verify_diagram_over_a_data_form(tmp_path, capsys, name, entity, code, want):
    src = tmp_path / "dd.nf"
    src.write_text((FIXTURES / "tiny_form.nf").read_text() + (
        f"\ndiagram {name} over tinyform\nuse T as X\nuse {entity} as f\n"
        "commute f = f.f\nassert iso f\n"))
    got, out, err = run(capsys, "verify", str(src), name, "--lemma", "generic")
    assert got == code
    assert want in (out if code == 0 else err)


TINY_DIAGRAM = ("tiny_form.nf", "diagram dd over tinyform\nuse T as X\nuse idT as f\n")
STACK_DIAGRAM = ("z4_stack.nf", "diagram dd over main\nuse minc as f\nuse q as g\n")


@pytest.mark.parametrize("base,line,lemma,want", [
    (TINY_DIAGRAM, "commute f = f.g", "generic", "unknown arrow 'g'"),
    (TINY_DIAGRAM, "assert zero g.f", "generic", "unknown arrow 'g'"),
    (TINY_DIAGRAM, "assert exact f g", "generic", "unknown arrow 'g'"),
    (TINY_DIAGRAM, "assert injective g", "four", "unknown arrow 'g'"),
    (STACK_DIAGRAM, "assert zero f.f", "generic",
     "path 'f.f' does not compose: f ends at Z4, f starts at Z2"),
    (STACK_DIAGRAM, "commute f.g = g", "generic",
     "commute f.g = g compares a path Z4 -> Z4 with a path Z4 -> Z2"),
    (STACK_DIAGRAM, "assert exact f f", "generic",
     "exact f f needs a shared node: f ends at Z4, f starts at Z2"),
    (STACK_DIAGRAM, "assert short-exact f f", "generic",
     "short-exact f f needs a shared node: f ends at Z4, f starts at Z2"),
    (STACK_DIAGRAM, "assert injective g.f", "generic", "unknown arrow 'g.f'"),
    (STACK_DIAGRAM, "use q as f", "generic", "role 'f' bound twice"),
], ids=["commute", "zero-path", "exact", "registered-lemma", "uncomposable-path",
        "unparallel-commute", "exact-unshared", "short-exact-unshared", "role-path",
        "role-bound-twice"])
def test_unknown_arrow_in_a_diagram_line_exit2(tmp_path, capsys, base, line, lemma, want):
    # the parser rejects a role bound twice, an arrow no use line names (an
    # argument of a kind other than commute and zero is one role, not a
    # path), a path whose arrows do not compose, a commute between paths
    # with different ends and an exact pair that shares no node, at its
    # line, before any lemma runs, a registered one included
    fixture, uses = base
    text = (FIXTURES / fixture).read_text() + f"\n{uses}{line}\n"
    src = tmp_path / "dd.nf"
    src.write_text(text)
    code, out, err = run(capsys, "verify", str(src), "dd", "--lemma", lemma)
    at = text.splitlines().index(line) + 1
    assert (code, out, err) == (2, "", f"error: line {at}: diagram dd: {want}\n")


def test_check_axioms_all_small_groups(capsys):
    code, out, _ = run(capsys, "check-axioms", fx("groups_le8.nf"),
                       "--with-axiom6")
    assert code == 0
    assert "PASS axioms(main)" in out


def test_snake_d8(capsys):
    code, out, _ = run(capsys, "snake", fx("d8_snake.nf"), "snakefix")
    assert code == 0
    assert "orders 1 1 2 2 2 2" in out
    assert out.count("PASS exact at") == 4


def test_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.nf"
    bad.write_text("group G size 2 id 0\ntable 0 1 / 9 9\n")
    code, _, err = run(capsys, "check-axioms", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text,want", [
    ("group Z2 size x id 0\n", "line 1: size must be an integer, not 'x'"),
    ("group Z2 size 2 id e\ntable 0 1 / 1 0\n", "line 1: id must be an integer, not 'e'"),
    ("\nalgebra A size two zero 0\np 0 1 / 1 0\nd 0 1 / 1 0\n",
     "line 2: size must be an integer, not 'two'"),
    ("algebra A size 2 zero y\np 0 1 / 1 0\nd 0 1 / 1 0\n",
     "line 1: zero must be an integer, not 'y'"),
], ids=["group-size", "group-id", "algebra-size", "algebra-zero"])
def test_non_integer_header_field_exit2(tmp_path, capsys, text, want):
    bad = tmp_path / "bad.nf"
    bad.write_text(text)
    code, out, err = run(capsys, "check-axioms", str(bad))
    assert (code, out) == (2, "")
    assert want in err


@pytest.mark.parametrize("text,want", [
    ("group G size 3 id 0\ntable 0 1 2 / 1 2 0 / 2 0 3\n",
     "error: line 1: G: Cayley table is ragged or out of range\n"),
    ("algebra A size 2 zero 2\np 0 1 / 1 0\nd 0 1 / 1 0\n",
     "error: line 1: A: malformed tables\n"),
], ids=["group-entry", "algebra-zero"])
def test_out_of_range_table_entry_exit2(tmp_path, capsys, text, want):
    # an entry or a zero equal to the size is out of range, like any larger one
    bad = tmp_path / "bad.nf"
    bad.write_text(text)
    code, out, err = run(capsys, "check-axioms", str(bad))
    assert (code, out, err) == (2, "", want)


def test_missing_file_exit2(capsys):
    code, _, err = run(capsys, "check-axioms", "/nonexistent/file.nf")
    assert code == 2


def test_undecodable_file_exit2(tmp_path, capsys):
    bad = tmp_path / "binary.nf"
    bad.write_bytes(b"group Z2 size 2 id 0\n\xff\xfe\x00\x01\n")
    code, out, err = run(capsys, "check-axioms", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (byte 21)\n"


def test_directory_as_input_exit2(tmp_path, capsys):
    code, out, err = run(capsys, "check-axioms", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_directory_as_dot_output_exit2(tmp_path, capsys):
    code, out, err = run(capsys, "pyramid", fx("d8_snake.nf"), "delta", "--dot", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err


def test_check_axioms_fails_p3_on_a_cyclic_order(tmp_path, capsys):
    # a form block may declare a cycle, a <= b and b <= a: P3 names the two
    # keys (P1 and P2 cannot fail: TableLattice closes the order)
    src = tmp_path / "cycle.nf"
    src.write_text("form cyc\nobject T subobjects a b\norder T a <= b\norder T b <= a\n"
                   "morphism idT T -> T\n  dimg a -> a\n  dimg b -> b\n"
                   "  iimg a -> a\n  iimg b -> b\n")
    code, out, _ = run(capsys, "check-axioms", str(src))
    assert code == 1
    assert "FAIL P3 [T: 'a' and 'b' mutually <= but distinct]\n" in out
    assert "PASS P1\nPASS P2\n" in out
