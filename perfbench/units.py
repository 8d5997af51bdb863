"""The benchmark's workloads, each a fixed cycle of units.

A unit is one sample's work: `setup(seed, ctx)` builds the inputs (group
tables, labs, fixture paths) and returns a `run(ctx)` callable that does
the timed work.  Every verdict goes through `ctx.verdict`, which times the
engine call and compares its result with a known answer from `oracle.py`
or from a theorem of the paper.

Engine functions are looked up as module attributes at call time
(`S.as_form`, not a name imported once), so the traced run sees the
spans that `tracer.install` put in place.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import oracle


@dataclass(frozen=True)
class Workload:
    name: str
    # one cycle, in order; a cheap unit listed more than once is sampled
    # more often, so that its short verdicts get enough samples for steady
    # medians (run_s and the tail still weigh every unit once)
    cycle: tuple[str, ...]
    # percentile for verdict_tail_ms; min_cycles makes sure that at least
    # ten timed samples lie beyond it
    tail_percentile: float
    min_cycles: int

    @property
    def units(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.cycle))


# ---------------------------------------------------------------------------
# axioms: the axiom suite (with axiom 6) on End(G) and its dual for every
# group of order <= 8, carriers relabelled by a seeded permutation.

SMALL_GROUPS = ("1", "Z2", "Z3", "Z4", "E4", "Z5", "Z6", "S3", "Z7", "Z8")
AXIOM_UNITS = {
    "E8": (("E8",), ("primal",)),
    "E8-dual": (("E8",), ("dual",)),
    "D8": (("D8",), ("primal", "dual")),
    "Q8": (("Q8",), ("primal", "dual")),
    "Z4xZ2": (("Z4xZ2",), ("primal", "dual")),
    "small": (SMALL_GROUPS, ("primal", "dual")),
}


def _relabelled_groups(seed: int, names, ctx):
    import noetherform.groups as Gr
    import noetherform.slominski as S

    def build():
        by_name = {g.name: g for g in Gr.all_groups_le8()}
        out = []
        for name in names:
            g = by_name[name]
            perm = list(range(g.n))
            random.Random(f"{seed}:{name}").shuffle(perm)
            out.append(S.permuted(g, perm, name=name))
        return out

    return ctx.call("groups.build", build)


def axioms_unit(unit: str):
    names, sides = AXIOM_UNITS[unit]

    def setup(seed, ctx):
        import noetherform.core as C
        import noetherform.slominski as S
        import noetherform.axioms as A

        algs = _relabelled_groups(seed, names, ctx)

        def run(ctx):
            for alg in algs:
                homs = ctx.timed(lambda: S.enumerate_homs(alg, alg))
                form = ctx.timed(lambda: S.as_form([alg], homs, name=alg.name))
                ends = ctx.expect(oracle.END_COUNTS[alg.name])
                for side in sides:
                    target = form if side == "primal" else C.dualize(form)
                    label = alg.name if side == "primal" else f"{alg.name} dual"
                    ctx.verdict(label, lambda: A.axiom_suite(target, include_axiom6=True),
                                lambda rep: _axiom_report_ok(rep, len(homs), ends))
        return run

    return setup


def _axiom_report_ok(rep, homs, ends):
    if homs != ends:
        return f"|End| = {homs}, expected {ends}"
    names = tuple(c.name for c in rep.checks)
    if names != oracle.AXIOM_CHECKS:
        return f"checks {names}"
    failed = [c.name for c in rep.checks if not c.passed]
    return f"failed {failed}" if failed else None


# ---------------------------------------------------------------------------
# corpus: the seeded acceptance corpora, generated and then verified.  Each
# unit has its own lab seed, so its instances are fixed and digest-pinned.

CORPUS_UNITS = ("four", "five-i", "five-ii-a", "five-ii-b", "grid", "chase")
# 101-606 are the acceptance tests' lab seeds; 313-343 give the other lemma
# corpora a lab of their own, so that each unit can run alone
LAB_SEEDS = (101, 202, 303, 313, 323, 333, 343, 404, 505, 606)


def _arrows_digest(d) -> str:
    rows = [(role, m.dom.algebra.n, m.cod.algebra.n, m.element_map)
            for role, m in d.arrows.items()]
    return _digest(rows)


def _zigzag_digest(z) -> str:
    rows = [(e.direction, e.morphism.dom.algebra.n, e.morphism.cod.algebra.n,
             e.morphism.element_map) for e in z.edges]
    return _digest((z.start.algebra.n, rows))


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


def _lemma_ok(*reports):
    for r in reports:
        if r.refuted:
            return f"{r.lemma} refuted"
        if not r.passed:
            return f"{r.lemma} did not pass"
    return None


def corpus_unit(unit: str):
    def setup(seed, ctx):
        import noetherform.gen as G

        labs = {s: G.InstanceLab(seed=s) for s in LAB_SEEDS}

        def run(ctx):
            CORPUS_RUNS[unit](ctx, labs)
        return run

    return setup


def _lemma_instances(ctx, label, count, make, verify, ladder=False):
    """count verdicts of: generate one instance, verify it."""
    for i in range(count):
        holder = []

        def work(i=i):
            d = ctx.call("gen.generate", make, i)
            holder.append(d)
            if ladder:
                ctx.count("gen.ladder_instances")
            return verify(d, i)

        ctx.verdict(label, work, lambda reps: _lemma_ok(*reps))
        if holder:
            ctx.digest(_arrows_digest(holder[0]))


def _four(ctx, labs):
    import noetherform.gen as G
    import noetherform.lemmas as L

    lab = labs[303]
    _lemma_instances(
        ctx, "four", 100, lambda i: G.four_instance(lab),
        lambda d, i: [ctx.call("lemmas.verify", L.verify_four, d, p) for p in ("i", "ii")],
        ladder=True)


def _five(part, seeds, per_seed):
    def go(ctx, labs):
        import noetherform.gen as G
        import noetherform.lemmas as L

        for s in seeds:
            lab = labs[s]
            _lemma_instances(
                ctx, f"five-{part}", per_seed, lambda i: G.five_instance(lab, part),
                lambda d, i: [ctx.call("lemmas.verify", L.verify_five, d, part)],
                ladder=True)
    return go


def _grid(ctx, labs):
    import noetherform.gen as G
    import noetherform.lemmas as L

    lab = labs[343]
    verify = lambda *a: ctx.call("lemmas.verify", *a)
    _lemma_instances(
        ctx, "3x3", 100, lambda i: G.threebythree_instance(lab),
        lambda d, i: [verify(L.verify_threebythree, d, v) for v in ("upper", "lower", "middle")])
    _lemma_instances(
        ctx, "short-five", 100, lambda i: G.short_five_instance(lab, "iii"),
        lambda d, i: [verify(L.verify_exercise, d, "short-five", "iii")])
    _lemma_instances(
        ctx, "spider", 100, lambda i: G.spider_instance(lab),
        lambda d, i: [verify(L.verify_exercise, d, "spider")])
    _lemma_instances(
        ctx, "incomplete-snail", 100, lambda i: G.incomplete_snail_instance(lab),
        lambda d, i: [verify(L.verify_exercise, d, "incomplete-snail")])
    _lemma_instances(
        ctx, "square-exact", 100,
        lambda i: G.square_exact_instance(lab, "i" if i % 2 == 0 else "ii"),
        lambda d, i: [verify(L.verify_exercise, d, "square-exact", "i" if i % 2 == 0 else "ii")])


def _zigzag_edges(z):
    from noetherform.zigzag import RIGHT

    return [(e.morphism.element_map, e.direction == RIGHT, e.morphism.dom.algebra.n)
            for e in z.edges]


def _chase(ctx, labs):
    import noetherform.gen as G
    import noetherform.lemmas as L
    import noetherform.pyramid as P
    import noetherform.zigzag as Z

    # snake: every generated instance constructs and is exact
    lab = labs[404]

    def snake_ok(res):
        if not res.report.passed:
            return "snake report did not pass"
        if any(m.element_map is None for m in res.morphisms):
            return "snake morphism without element map"
        return None

    for _ in range(40):
        holder = []

        def work():
            d = ctx.call("gen.generate", G.snake_instance, lab)
            holder.append(d)
            return ctx.call("lemmas.verify", L.snake, d)

        ctx.verdict("snake", work, snake_ok)
        if holder:
            ctx.digest(_arrows_digest(holder[0]))

    # quotient isomorphism X/W = fX/fW on (f, W, X) with Ker f <= W <= X
    lab = labs[505]
    for _ in range(100):
        holder = []

        def work():
            f, W, X = ctx.call("gen.generate", G.quotient_iso_triple, lab)
            holder.append((f, W, X))
            return P.quotient_iso(lab.universe, f, W, X)

        def qiso_ok(res):
            f, W, X = holder[0]
            if res.w_normal_to_x != res.fw_normal_to_fx:
                return "W<|X and fW<|fX disagree"
            if res.w_normal_to_x:
                if res.iso is None:
                    return "no isomorphism"
                fx = {f.element_map[x] for x in X.key}
                fw = {f.element_map[x] for x in W.key}
                n = len(X.key) // len(W.key)
                if len(fx) // len(fw) != n or not oracle.is_bijection(res.iso.element_map, n):
                    return "isomorphism has the wrong order or is not bijective"
            return None

        ctx.verdict("quotient-iso", work, qiso_ok)
        if holder:
            f, W, X = holder[0]
            ctx.digest(_digest((f.dom.algebra.n, f.cod.algebra.n, f.element_map, W.key, X.key)))

    # salamander: six homology objects defined, sequence exact
    lab = labs[606]
    for _ in range(20):
        holder = []

        def work():
            d = None
            while d is None:
                d = ctx.call("gen.generate", G.double_complex_window, lab)
            holder.append(d)
            return ctx.call("lemmas.verify", L.salamander, d)

        ctx.verdict("salamander", work, lambda rep: _lemma_ok(rep))
        if holder:
            ctx.digest(_arrows_digest(holder[0]))

    # induction on random zigzags, against the relation oracle
    lab = labs[101]
    for i in range(200):
        holder = []
        make = G.recipe_zigzag if i % 2 else G.random_zigzag

        def work():
            z = ctx.call("gen.generate", make, lab, max_len=6)
            holder.append(z)
            return P.decide_induction(z), Z.induced_relation(z)

        def induce_ok(out):
            verdict, rel = out
            z = holder[0]
            want = oracle.zigzag_function(z.start.algebra.n, _zigzag_edges(z))
            if verdict.induces != (want is not None):
                return f"induces={verdict.induces}, oracle {want}"
            if Z.relation_function(rel, z.start.algebra.n) != want:
                return "induced_relation differs from the oracle"
            if want is not None:
                m = verdict.morphism
                if m.element_map != want:
                    return "induced element map differs from the oracle"
                for key in m.dom.lattice.keys:
                    if tuple(sorted({want[x] for x in key})) != m.dimg[key]:
                        return f"dimg of {key} differs from the oracle"
            return None

        ctx.verdict("zigzag", work, induce_ok)
        if holder:
            ctx.digest(_zigzag_digest(holder[0]))

    # pyramids: two build orders, every diamond commutes
    lab = labs[202]
    for i in range(50):
        holder = []
        make = G.recipe_zigzag if i % 2 else G.random_zigzag

        def work(i=i):
            z = ctx.call("gen.generate", make, lab, max_len=5 if i % 2 else 4)
            holder.append(z)
            p1 = P.build_pyramid(z, order="ltr")
            p2 = P.build_pyramid(z, order="rtl", scramble=7000 + i)
            return (p1, p2, p1.commutativity_failures(), p2.commutativity_failures(),
                    P.decide_induction(z))

        def pyramid_ok(out):
            p1, p2, f1, f2, verdict = out
            z = holder[0]
            if f1 or f2:
                return f"diamonds do not commute: {(f1 or f2)[0]}"
            want = oracle.zigzag_function(z.start.algebra.n, _zigzag_edges(z)) is not None
            c1 = Z.is_collapsible(p1.principal_horizontal())
            c2 = Z.is_collapsible(p2.principal_horizontal())
            if not c1 == c2 == verdict.induces == want:
                return f"collapsible {c1}/{c2}, induces {verdict.induces}, oracle {want}"
            return None

        ctx.verdict("pyramid", work, pyramid_ok)
        if holder:
            ctx.digest(_zigzag_digest(holder[0]))


CORPUS_RUNS: dict[str, Callable] = {
    "four": _four,
    "five-i": _five("i", (313,), 100),
    "five-ii-a": _five("ii", (323,), 50),
    "five-ii-b": _five("ii", (333,), 50),
    "grid": _grid,
    "chase": _chase,
}


# ---------------------------------------------------------------------------
# scale: large lattices and hom sets from groups of order 16 to 64


def _group_data(name):
    from noetherform.groups import cyclic_data, dihedral_data, product_data

    z2 = cyclic_data(2)

    def e(k):
        out = z2
        for _ in range(k - 1):
            out = product_data(out, z2)
        return out

    return {
        "Z16": lambda: cyclic_data(16),
        "Z8xZ2": lambda: product_data(cyclic_data(8), z2),
        "Z4xZ4": lambda: product_data(cyclic_data(4), cyclic_data(4)),
        "Z4xE4": lambda: product_data(cyclic_data(4), e(2)),
        "E16": lambda: e(4),
        "D16": lambda: dihedral_data(8),
        "E32": lambda: e(5),
        "D32": lambda: dihedral_data(16),
        "Z64": lambda: cyclic_data(64),
    }[name]()


SCALE_UNITS = {
    "E32": ("lattice", ("E32",)),
    "D32-Z64": ("lattice", ("D32", "Z64")),
    "order16": ("lattice", ("Z16", "Z8xZ2", "Z4xZ4", "Z4xE4", "E16", "D16")),
    "end16": ("end", ("Z16", "Z8xZ2", "Z4xZ4", "D16")),
}


def scale_unit(unit: str):
    kind, names = SCALE_UNITS[unit]

    def setup(seed, ctx):
        import noetherform.core as C
        import noetherform.slominski as S

        algs = ctx.call("groups.build", lambda: [
            S.from_group(*_group_data(n), name=n) for n in names])

        def lattice_work(alg):
            lat = S.subalgebra_lattice(alg)
            normals = [k for k in lat.keys if S.is_normal_subalgebra(alg, k)]
            uni = S.SlominskiForm()
            obj = uni.object_of(alg)
            quots = [(k, uni.quotient_object(C.Subobject(obj, k))[0]) for k in normals]
            return lat, normals, quots

        def lattice_ok(name):
            order, subs, norms = oracle.SCALE_GROUPS[name]

            def ok(out):
                lat, normals, quots = out
                if len(lat.keys) != ctx.expect(subs):
                    return f"{len(lat.keys)} subgroups, expected {subs}"
                if len(normals) != norms:
                    return f"{len(normals)} normal subgroups, expected {norms}"
                for k, q in quots:
                    if q.algebra.n * len(k) != order:
                        return f"|G/N| = {q.algebra.n} for |N| = {len(k)}"
                return None
            return ok

        def run(ctx):
            for alg in algs:
                if kind == "lattice":
                    ctx.verdict(alg.name, lambda: lattice_work(alg), lattice_ok(alg.name))
                else:
                    want = oracle.END_COUNTS[alg.name]
                    ctx.verdict(f"End({alg.name})", lambda: S.enumerate_homs(alg, alg),
                                lambda homs: None if len(homs) == ctx.expect(want)
                                else f"{len(homs)} endomorphisms, expected {want}")
        return run

    return setup


# ---------------------------------------------------------------------------
# cli: one noetherform subcommand per sample on the bundled fixtures, with
# the exit codes and output lines the README documents.

def _snake_ok(code, out):
    if code != 0 or "orders 1 1 2 2 2 2" not in out:
        return "expected exit 0 and orders 1 1 2 2 2 2"
    return None if out.count("PASS exact at") == 4 else "expected four PASS exact at"


def _chase_ok(code, out):
    lines = out.splitlines()
    # delta induces the connecting morphism, so bottom chases to bottom
    if code != 0 or lines[-1:] != ["result VB: {0}"] or len(lines) != 7:
        return "expected six trace steps and result VB: {0}"
    return None


def _all_pass(code, out, head):
    lines = out.splitlines()
    if code != 0 or lines[0] != head:
        return f"expected exit 0 and {head!r}"
    bad = [l for l in lines[1:] if not l.startswith("PASS ")]
    return f"non-PASS line {bad[0]!r}" if bad else None


def _axioms_ok(code, out, form, failing):
    lines = out.splitlines()
    want = [("FAIL " if c in failing else "PASS ") + c for c in oracle.AXIOM_CHECKS]
    got = [l.split(" [")[0] for l in lines[:-1]]
    final = f"{'FAIL' if failing else 'PASS'} axioms({form})"
    if got != want or lines[-1] != final or code != (1 if failing else 0):
        return f"expected {want} and {final!r}"
    return None


CLI_UNITS = {
    "snake": (("snake", "d8_snake.nf", "snakefix"), _snake_ok),
    "chase": (("chase", "d8_snake.nf", "delta", "--subobject", "bottom", "--trace"), _chase_ok),
    "induce": (("induce", "d8_snake.nf", "delta"),
               lambda c, o: None if c == 0 and o.startswith("PASS induce VB -> VB\n")
               else "expected PASS induce VB -> VB"),
    "pyramid": (("pyramid", "d8_snake.nf", "delta"),
                lambda c, o: None if c == 0 and o.startswith("digraph pyramid")
                and o.count("[label=") == 21 and "FAIL" not in o
                else "expected a 21-node pyramid with no FAIL"),
    "badinduce": (("induce", "z4_stack.nf", "badinduce"),
                  lambda c, o: None if c == 1 and o.startswith("FAIL induce\n")
                  else "expected exit 1 and FAIL induce"),
    "short-five": (("verify", "z4_stack.nf", "shortfive", "--lemma", "short-five", "--part", "iii"),
                   lambda c, o: _all_pass(c, o, "lemma short-five (iii)")),
    "generic": (("verify", "z4_stack.nf", "sescheck", "--lemma", "generic"),
                lambda c, o: _all_pass(c, o, "lemma sescheck")),
    "axioms-le8": (("check-axioms", "groups_le8.nf", "--with-axiom6"),
                   lambda c, o: _axioms_ok(c, o, "main", ())),
    "axioms-tiny": (("check-axioms", "tiny_form.nf", "--with-axiom6"),
                    lambda c, o: _axioms_ok(c, o, "tinyform", ("AX6",))),
}


def cli_unit(unit: str):
    argv, ok = CLI_UNITS[unit]

    def setup(seed, ctx, fixtures):
        import contextlib
        import io

        args = [f"{fixtures}/{a}" if a.endswith(".nf") else a for a in argv]

        def run(ctx):
            import noetherform.cli as CLI

            buf = io.StringIO()

            def work():
                with contextlib.redirect_stdout(buf):
                    return CLI.main(args)

            ctx.verdict(unit, work, lambda code: ok(ctx.expect(code), buf.getvalue()))
        return run

    return setup


WORKLOADS = {
    "axioms": Workload("axioms", ("E8", "small", "E8-dual", "D8", "small", "Q8", "Z4xZ2",
                                  "small"), 80.0, 2),
    "corpus": Workload("corpus", CORPUS_UNITS, 99.0, 1),
    "scale": Workload("scale", ("E32", "order16", "end16", "D32-Z64", "order16", "end16"),
                      80.0, 4),
    "cli": Workload("cli", tuple(CLI_UNITS), 80.0, 6),
}

SETUPS = {"axioms": axioms_unit, "corpus": corpus_unit, "scale": scale_unit, "cli": cli_unit}

# the smallest unit of each workload, for the smoke test
SMOKE_UNITS = {"axioms": "small", "corpus": "chase", "scale": "order16", "cli": "snake"}
