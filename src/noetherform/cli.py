"""Command-line front end.

Subcommands: check-axioms, chase, induce, pyramid, verify, snake.
Exit codes: 0 all checks pass, 1 a verified failure or refutation,
2 input error (unreadable or undecodable file, parse failure, unknown names,
shape mismatch).
Output ordering is deterministic (sorted names).

Each subcommand imports only its own layers when it runs (check-axioms the
axiom suite, chase the zigzags, induce and pyramid the pyramids, verify and
snake the lemmas), so a call loads no engine module it does not use.
"""

from __future__ import annotations

import argparse
import sys

from .core import render_key
from .errors import FormError, ParseError
from .parser import merge, parse_file

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


def _load(files):
    return merge(*(parse_file(f) for f in files))


def _resolve_subobject(obj, spec: str):
    if spec == "bottom":
        return obj.bottom
    if spec == "top":
        return obj.top
    try:
        key = tuple(sorted(int(v) for v in spec.split(",")))
    except ValueError:
        raise ParseError(f"bad subobject spec {spec!r}; use 'bottom', 'top' or e.g. '0,2'")
    return obj.sub(key)


def cmd_check_axioms(args) -> int:
    from .axioms import axiom_suite

    ws = _load(args.files)
    forms = ws.forms()
    if args.form:
        if args.form not in forms:
            print(f"error: no form named {args.form!r}", file=sys.stderr)
            return EXIT_INPUT
        forms = {args.form: forms[args.form]}
    if not forms:
        print("error: no forms or algebras declared", file=sys.stderr)
        return EXIT_INPUT
    ok = True
    for name in sorted(forms):
        report = axiom_suite(forms[name], include_axiom6=args.with_axiom6)
        print(report.render())
        ok = ok and report.passed
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_chase(args) -> int:
    from .zigzag import chase_backward, chase_forward

    ws = _load(args.files)
    z = ws.zigzag(args.zigzag)
    src = z.start if args.direction == "forward" else z.end
    S = _resolve_subobject(src, args.subobject)
    chase = chase_forward if args.direction == "forward" else chase_backward
    if args.trace:
        result, steps = chase(z, S, trace=True)
        for step in steps:
            print(f"{step.owner.id}: {render_key(step.key)}")
    else:
        result = chase(z, S)
    print(f"result {result.owner.id}: {render_key(result.key)}")
    return EXIT_PASS


def cmd_induce(args) -> int:
    from .pyramid import decide_induction

    ws = _load(args.files)
    z = ws.zigzag(args.zigzag)
    verdict = decide_induction(z, name=args.zigzag)
    if not verdict.induces:
        print("FAIL induce")
        for failure in verdict.failures:
            print(f"  {failure.render()}")
        return EXIT_FAIL
    m = verdict.morphism
    print(f"PASS induce {m.dom.id} -> {m.cod.id}")
    for k, v in m.dimg.items():
        print(f"  dimg {render_key(k)} -> {render_key(v)}")
    for k, v in m.iimg.items():
        print(f"  iimg {render_key(k)} -> {render_key(v)}")
    if m.element_map is not None:
        print("  elements " + " ".join(map(str, m.element_map)))
    return EXIT_PASS


def cmd_pyramid(args) -> int:
    from .pyramid import build_pyramid

    ws = _load(args.files)
    z = ws.zigzag(args.zigzag)
    p = build_pyramid(z)
    dot = p.to_dot()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
        print(f"wrote {args.dot}")
    else:
        print(dot)
    failures = p.commutativity_failures()
    for f in failures:
        print(f"FAIL {f}")
    return EXIT_PASS if not failures else EXIT_FAIL


def cmd_verify(args) -> int:
    from .lemmas import verify

    ws = _load(args.files)
    report, _ = verify(ws.diagram(args.diagram), args.lemma, args.part)
    print(report.render())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_snake(args) -> int:
    from .lemmas import snake

    ws = _load(args.files)
    d = ws.diagram(args.diagram)
    result = snake(d)
    if result.objects is not None:
        orders = " ".join(str(o.order) for o in result.objects)
        print(f"objects {' '.join(o.id for o in result.objects)}")
        print(f"orders {orders}")
    print(result.report.render())
    return EXIT_PASS if result.report.passed else EXIT_FAIL


class _VerifyHelp(argparse.HelpFormatter):
    """verify's help, with the lemma registry's names filled in: the registry
    is imported only when that help is printed."""

    def _get_help_string(self, action):
        from .lemmas import ALIASES, LEMMAS

        return action.help.format(
            lemmas=", ".join(LEMMAS),
            aliases=", ".join(f"{a} for {n}" for a, n in ALIASES.items()),
            parts="; ".join(f"{name} {'|'.join(spec.parts)}"
                            for name, spec in LEMMAS.items() if None not in spec.parts),
        )


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="noetherform",
        description="Exact engine for subgroup chasing and homological diagram lemmas "
        "over finite group-like structures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-axioms", help="run the axiom suite on the loaded forms")
    p.add_argument("files", nargs="+")
    p.add_argument("--with-axiom6", action="store_true")
    p.add_argument("--form", help="check only the named form")
    p.set_defaults(fn=cmd_check_axioms)

    p = sub.add_parser("chase", help="chase a subobject along a zigzag")
    p.add_argument("files", nargs="+")
    p.add_argument("zigzag")
    p.add_argument("--subobject", required=True, help="'bottom', 'top' or elements '0,2'")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_chase)

    p = sub.add_parser("induce", help="decide homomorphism induction for a zigzag")
    p.add_argument("files", nargs="+")
    p.add_argument("zigzag")
    p.set_defaults(fn=cmd_induce)

    p = sub.add_parser("pyramid", help="build the pyramid over a zigzag")
    p.add_argument("files", nargs="+")
    p.add_argument("zigzag")
    p.add_argument("--dot", help="write DOT output to this file")
    p.set_defaults(fn=cmd_pyramid)

    p = sub.add_parser("verify", help="verify a named lemma on a diagram",
                       formatter_class=_VerifyHelp)
    p.add_argument("files", nargs="+")
    p.add_argument("diagram")
    p.add_argument("--lemma", required=True, help="one of {lemmas} ({aliases})")
    p.add_argument("--part", help="part of a lemma that has parts, the first by default: {parts}")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("snake", help="construct and check the snake sequence")
    p.add_argument("files", nargs="+")
    p.add_argument("diagram")
    p.set_defaults(fn=cmd_snake)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, FormError) as exc:  # ParseError is a FormError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
