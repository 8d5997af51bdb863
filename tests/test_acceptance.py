"""Acceptance criteria.

One test per criterion, each printing a single pass/fail line; run with
`pytest tests/test_acceptance.py -v -s` to see the lines.  All tolerances
are exact (zero failures allowed); the two timed criteria assert their
stated budgets.
"""

import time

from noetherform import (
    axiom_suite,
    build_pyramid,
    decide_induction,
    dualize,
    is_collapsible,
    is_isomorphism,
    is_relatively_normal,
    join,
    meet,
    quotient_iso,
    verify_exercise,
    verify_five,
    verify_four,
    verify_threebythree,
)
from noetherform.gen import (
    InstanceLab,
    double_complex_window,
    five_instance,
    four_instance,
    incomplete_snail_instance,
    quotient_iso_triple,
    random_zigzag,
    recipe_zigzag,
    short_five_instance,
    snake_instance,
    spider_instance,
    square_exact_instance,
    threebythree_instance,
)
from noetherform.groups import D8_B, D8_V, all_groups_le8, dihedral8
from noetherform.lemmas import salamander, snake
from noetherform.slominski import (
    SlominskiForm,
    as_form,
    enumerate_homs,
    is_normal_subalgebra,
)
from noetherform.zigzag import induced_relation, relation_function
from oracles import collapse, dual_four, zigzag_function


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


def test_axiom_conformance_all_groups_le8():
    """Axioms 1-6 pass for every group of order <= 8 and for each dual."""
    t0 = time.time()
    for alg in all_groups_le8():
        form = as_form([alg], enumerate_homs(alg, alg), name=alg.name)
        rep = axiom_suite(form, include_axiom6=True)
        assert rep.passed, f"{alg.name}: {rep.failed_names()}"
        rep_dual = axiom_suite(dualize(form), include_axiom6=True)
        assert rep_dual.passed, f"dual {alg.name}: {rep_dual.failed_names()}"
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"axiom conformance took {elapsed:.1f}s"
    report("axiom-conformance", f"(14 groups + duals in {elapsed:.1f}s)")


def test_d8_snake_reproduction(capsys):
    """The D8 fixture yields orders (1,1,2,2,2,2) with four exact nodes,
    and the normality facts match: B normal in V but not in D8."""
    import importlib.resources as resources

    from noetherform.cli import main

    t0 = time.time()
    fixture = str(resources.files("noetherform") / "fixtures" / "d8_snake.nf")
    code = main(["snake", fixture, "snakefix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "orders 1 1 2 2 2 2" in out
    assert out.count("PASS exact at") == 4

    d8 = dihedral8()
    assert is_normal_subalgebra(d8, D8_B) is False
    uni = SlominskiForm()
    d8_obj = uni.object_of(d8)
    assert is_relatively_normal(uni, d8_obj.sub(D8_B), d8_obj.sub(D8_V)) is True
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"snake reproduction took {elapsed:.2f}s"
    with capsys.disabled():
        report("d8-snake", f"({elapsed * 1000:.0f} ms)")


def test_hit_equals_relation_oracle():
    """decide_induction agrees with the element-level relation on >= 200
    random zigzags; induced element and image maps match the function
    elementwise.  The relation is the tests' own composite of the edge
    graphs; the engine's induced_relation must agree with it too."""
    lab = InstanceLab(seed=101)
    successes = 0
    for i in range(200):
        z = recipe_zigzag(lab, max_len=6) if i % 2 else random_zigzag(lab, max_len=6)
        verdict = decide_induction(z)
        fn = zigzag_function(z)
        assert relation_function(induced_relation(z), z.start.algebra.n) == fn, f"zigzag {i}"
        assert verdict.induces == (fn is not None), f"zigzag {i}: verdicts disagree"
        if verdict.induces:
            successes += 1
            m = verdict.morphism
            assert m.element_map == fn
            for key in m.dom.lattice.keys:
                assert tuple(sorted({fn[x] for x in key})) == m.dimg[key]
            for key in m.cod.lattice.keys:
                want = tuple(sorted(x for x in range(len(fn)) if fn[x] in set(key)))
                assert want == m.iimg[key]
    assert successes >= 30  # the corpus exercises both verdicts
    report("hit-relation-oracle", f"(200 zigzags, {successes} induce)")


def test_pyramid_uniqueness_and_commutativity():
    """Two build orders and a relabeled build agree on 50 random zigzags;
    every diamond commutes under exhaustive subobject chasing."""
    from noetherform.core import is_injective, is_surjective

    lab = InstanceLab(seed=202)
    inducing = 0
    for i in range(50):
        z = recipe_zigzag(lab, max_len=5) if i % 2 else random_zigzag(lab, max_len=4)
        p1 = build_pyramid(z, order="ltr")
        p2 = build_pyramid(z, order="rtl", scramble=7000 + i)
        for p in (p1, p2):
            for (lo, hi), (m, up) in p.arrow.items():
                assert is_surjective(m) if up else is_injective(m), f"zigzag {i}"
        assert not p1.commutativity_failures(), f"zigzag {i}"
        assert not p2.commutativity_failures(), f"zigzag {i} (scrambled)"
        c1 = is_collapsible(p1.principal_horizontal())
        c2 = is_collapsible(p2.principal_horizontal())
        verdict = decide_induction(z)
        assert c1 == c2 == verdict.induces
        if verdict.induces:
            inducing += 1
            m1 = collapse(p1.principal_horizontal())
            m2 = collapse(p2.principal_horizontal())
            assert m1.dimg == m2.dimg == verdict.morphism.dimg
            assert m1.iimg == m2.iimg == verdict.morphism.iimg
            # the paper's route to the element map (edge carriers composed,
            # isomorphisms inverted) is independent of induced_relation
            assert m1.element_map is not None
            assert verdict.morphism.element_map == m1.element_map == m2.element_map
    assert inducing >= 10
    report("pyramid-uniqueness", f"(50 zigzags, {inducing} induce)")


def test_lemma_corpus():
    """>= 100 valid instances per lemma variant; hypotheses-pass implies
    conclusions-pass with zero refutations; four (ii) equals (i) on duals."""
    lab = InstanceLab(seed=303)
    n = 100

    for i in range(n):
        d = four_instance(lab)
        for part in ("i", "ii"):
            r = verify_four(d, part)
            assert r.passed and not r.refuted, f"four {part} #{i}\n{r.render()}"
        r2 = verify_four(d, "ii")
        r1d = verify_four(dual_four(d), "i")
        assert [l.status for l in r1d.conclusions] == [l.status for l in r2.conclusions]

    for part in ("i", "ii"):
        for i in range(n):
            d = five_instance(lab, part)
            r = verify_five(d, part)
            assert r.passed and not r.refuted, f"five {part} #{i}\n{r.render()}"

    for i in range(n):
        d = threebythree_instance(lab)
        for variant in ("upper", "lower", "middle"):
            r = verify_threebythree(d, variant)
            assert r.passed and not r.refuted, f"3x3 {variant} #{i}\n{r.render()}"

    for i in range(n):
        r = verify_exercise(short_five_instance(lab, "iii"), "short-five", "iii")
        assert r.passed and not r.refuted, f"short-five #{i}\n{r.render()}"

    for i in range(n):
        r = verify_exercise(spider_instance(lab), "spider")
        assert r.passed and not r.refuted, f"spider #{i}\n{r.render()}"

    for i in range(n):
        r = verify_exercise(incomplete_snail_instance(lab), "incomplete-snail")
        assert r.passed and not r.refuted, f"snail #{i}\n{r.render()}"

    for i in range(n):
        part = "i" if i % 2 == 0 else "ii"
        r = verify_exercise(square_exact_instance(lab, part), "square-exact", part)
        assert r.passed and not r.refuted, f"square-exact {part} #{i}\n{r.render()}"

    report("lemma-corpus", f"({n} instances per variant, zero refutations)")


def test_snake_corpus():
    """Generated snake instances all construct and are exact; the morphisms
    carry elementwise realizations matching the chases."""
    lab = InstanceLab(seed=404)
    for i in range(40):
        result = snake(snake_instance(lab))
        assert result.report.passed, f"snake #{i}\n{result.report.render()}"
        for m in result.morphisms:
            assert m.element_map is not None
    report("snake-corpus", "(40 instances)")


def test_quotient_isomorphism_corpus():
    """quotient_iso on >= 100 random (f, W, X) triples with Ker f <= W <= X:
    the two relative-normality verdicts agree and the isomorphism exists."""
    lab = InstanceLab(seed=505)
    held = 0
    for i in range(100):
        f, W, X = quotient_iso_triple(lab)
        res = quotient_iso(lab.universe, f, W, X)
        assert res.equivalent, f"triple #{i}: W<|X is {res.w_normal_to_x} " \
                               f"but fW<|fX is {res.fw_normal_to_fx}"
        if res.w_normal_to_x:
            held += 1
            assert res.iso is not None and is_isomorphism(res.iso), f"triple #{i}"
    assert 30 <= held < 100  # both sides of the equivalence are exercised
    report("quotient-isomorphism", f"(100 triples, {held} with the iso)")


def test_salamander_small_scale():
    """>= 20 double complexes over elementary-abelian-2 algebras: all six
    homology objects defined and the six-term sequence exact; a failing
    guard yields an undefinedness report, never a crash."""
    lab = InstanceLab(seed=606)
    done = 0
    while done < 20:
        d = double_complex_window(lab)
        if d is None:
            continue
        rep = salamander(d)
        assert not rep.refuted, rep.render()
        assert rep.passed, rep.render()
        done += 1

    # guard-failure path: B = {e,b} is not normal in D8
    from noetherform import Diagram
    from noetherform.groups import trivial_group
    from noetherform.lemmas import SHAPES

    uni = SlominskiForm()
    d8 = uni.object_of(dihedral8())
    t1 = uni.object_of(trivial_group())
    gb, incl = uni.subobject_object(d8.sub(D8_B))
    dd = Diagram(uni, name="salamander-guard")
    objs = {"Dl": gb, "A": d8}
    for role in SHAPES["salamander"].objects:
        dd.add_object(role, objs.get(role, t1))
    for role, (dom, cod) in SHAPES["salamander"].arrows.items():
        mor = incl if role == "d" else uni.zero_morphism(dd.objects[dom], dd.objects[cod])
        dd.add_arrow(role, mor)
    rep = salamander(dd)
    assert not rep.passed
    bad = next(l for l in rep.hypotheses if l.name == "A-h defined")
    assert bad.status == "FAIL" and "normal to" in (bad.witness or "")
    report("salamander", "(20 exact windows + guard-failure report)")


def test_restricted_modular_law_exhaustive():
    """The restricted modular law X v (Y ^ Z) = (X v Y) ^ Z holds on every
    qualifying triple in every order <= 8 group form, exhaustively: X <= Z,
    and Y normal with Z conormal or Y conormal with X normal."""
    uni = SlominskiForm()
    qualifying = 0
    for alg in all_groups_le8():
        obj = uni.object_of(alg)
        subs = obj.subobjects()
        normal = {s.key for s in subs if uni.is_normal(s)}
        lat = obj.lattice
        # every subalgebra is conormal here, so the hypothesis reduces to
        # Y or X being normal
        assert all(uni.is_conormal(s) for s in subs), alg.name
        for X in subs:
            for Y in subs:
                for Z in subs:
                    if not lat.leq(X.key, Z.key):
                        continue
                    if Y.key not in normal and X.key not in normal:
                        continue
                    assert join(X, meet(Y, Z)) == meet(join(X, Y), Z), \
                        f"{alg.name}: RML fails at {X}, {Y}, {Z}"
                    qualifying += 1
    report("restricted-modular-law", f"({qualifying} qualifying triples)")
