"""Report-text pin: render() of every lemma and part, byte for byte.

Each lemma runs with every one of its parts on a few seeded instances, on
the same instances with one arrow replaced by a zero morphism (so failing
hypotheses and their witnesses are rendered too), and on all-trivial
diagrams.  The snake's and the generalized snail's objects and element maps
and Goursat's isomorphism are hashed along with the reports.  The constant
was recorded before the lemma registry replaced the hand-written verifiers,
and re-recorded when Goursat's SKIP lines (hypotheses failing) gained the
two conclusions they lacked; a refactor that changes a single byte of
report text fails here.
"""

import hashlib

from noetherform import (
    Diagram,
    identity_morphism,
    salamander,
    snake,
    verify_exercise,
    verify_five,
    verify_four,
    verify_threebythree,
)
from noetherform.core import compose
from noetherform.gen import (
    InstanceLab,
    double_complex_window,
    five_instance,
    four_instance,
    goursat_instance,
    incomplete_snail_instance,
    short_five_instance,
    snake_instance,
    spider_instance,
    square_exact_instance,
    threebythree_instance,
)
from noetherform.groups import cyclic, trivial_group
from noetherform.lemmas import SHAPES, verify
from noetherform.slominski import element_morphism
from oracles import strongly_short_exact

REPORT_DIGEST = "429b69a0204066d6766d2c8280ee2252b74fce2cd4bf443085c8de18172f3998"

# listed here, not read from the lemma registry, so that a part dropped from
# or renamed in the registry changes the digest
PARTS = {
    "four": ("i", "ii"),
    "five": ("i", "ii", "full"),
    "threebythree": ("upper", "lower", "middle"),
    "short-five": ("i", "ii", "iii"),
    "square-exact": ("i", "ii"),
    "diamond": ("i", "ii"),
    "baby-dragon": ("i", "ii"),
    "dragon": ("i", "ii"),
    "spider": (None,),
    "incomplete-snail": (None,),
}


def _template(d, shape):
    if shape == "four":
        return [verify_four(d, p) for p in PARTS[shape]]
    if shape == "five":
        return [verify_five(d, p) for p in PARTS[shape]]
    if shape == "threebythree":
        return [verify_threebythree(d, p) for p in PARTS[shape]]
    return [verify_exercise(d, shape, p) for p in PARTS[shape]]


def _maps(result):
    if result.objects is None:
        return "no objects"
    return repr(([o.order for o in result.objects],
                 [m.element_map for m in result.morphisms]))


def _run(d, shape):
    """Rendered reports (and constructed maps) of every part of a lemma."""
    if shape == "snake":
        r = snake(d)
        return [r.report.render(), _maps(r)]
    if shape == "generalized-snail":
        r = verify(d, "generalized-snail")[1]
        return [r.report.render(), _maps(r)]
    if shape == "goursat":
        report, iso = verify(d, "goursat")
        return [report.render(), repr(iso and iso.element_map)]
    if shape == "salamander":
        return [salamander(d).render()]
    return [r.render() for r in _template(d, shape)]


def _zeroed(d, shape):
    """Copy of d with the first shape arrow that is not already zero
    replaced by the zero morphism between the same objects."""
    out = Diagram(d.form, dict(d.objects), dict(d.arrows), name=d.name)
    for role in SHAPES[shape].arrows:
        m = out.arrows[role]
        zero = d.form.zero_morphism(m.dom, m.cod)
        if m != zero:
            out.arrows[role] = zero
            break
    return out


def _trivial(uni, shape):
    t1 = uni.object_of(trivial_group())
    d = Diagram(uni, name=f"{shape}-trivial")
    for role in SHAPES[shape].objects:
        d.add_object(role, t1)
    for role in SHAPES[shape].arrows:
        d.add_arrow(role, uni.zero_morphism(t1, t1))
    return d


def _snail(lab, s):
    # a snake instance reshaped into the snail triangle via C = B
    d = Diagram(lab.universe, name="snail")
    for role, src in (("A", "A"), ("B", "B"), ("C", "B"), ("A0", "Bp"), ("B0", "Cp")):
        d.add_object(role, s.objects[src])
    beta = s.arrows["beta"]
    for role, mor in (("f", s.arrows["f"]), ("gamma", s.arrows["f"]),
                      ("f0p", identity_morphism(s.objects["B"])),
                      ("alpha", compose(beta, s.arrows["f"])), ("betap", beta),
                      ("beta", compose(s.arrows["gp"], beta)), ("f0", s.arrows["gp"])):
        d.add_arrow(role, mor)
    return d


def _ssec(uni):
    t1 = uni.object_of(trivial_group())
    z2, z4 = uni.object_of(cyclic(2)), uni.object_of(cyclic(4))
    out = []
    for f in (element_morphism(z2, z4, (0, 2), "m"), uni.zero_morphism(z2, z4)):
        d = Diagram(uni, name="ssec")
        for role, obj in (("O1", t1), ("A", z2), ("B", z4), ("C", z2), ("O2", t1)):
            d.add_object(role, obj)
        d.add_arrow("a", uni.zero_morphism(t1, z2))
        d.add_arrow("f", f)
        d.add_arrow("g", element_morphism(z4, z2, (0, 1, 0, 1), "q"))
        d.add_arrow("b", uni.zero_morphism(z2, t1))
        out.append(strongly_short_exact(d).render())
    return out


def report_texts(seed=2024, rounds=3):
    lab = InstanceLab(seed=seed)
    uni = lab.universe
    cases = []
    for _ in range(rounds):
        cases += [
            ("four", four_instance(lab)),
            ("threebythree", threebythree_instance(lab)),
            ("spider", spider_instance(lab)),
            ("incomplete-snail", incomplete_snail_instance(lab)),
            ("goursat", goursat_instance(lab)),
        ]
        s = snake_instance(lab)
        cases += [("snake", s), ("generalized-snail", _snail(lab, s))]
        cases += [("five", five_instance(lab, p)) for p in PARTS["five"]]
        cases += [("short-five", short_five_instance(lab, p)) for p in PARTS["short-five"]]
        cases += [("square-exact", square_exact_instance(lab, p)) for p in PARTS["square-exact"]]
    windows = 0
    while windows < rounds:
        d = double_complex_window(lab)
        if d is not None:
            cases.append(("salamander", d))
            windows += 1
    texts = []
    for shape, d in cases:
        texts += _run(d, shape)
        texts += _run(_zeroed(d, shape), shape)
    for shape in SHAPES:
        texts += _run(_trivial(uni, shape), shape)
    return texts + _ssec(uni)


def test_report_text_unchanged():
    texts = report_texts()
    digest = hashlib.sha256("\n\0".join(texts).encode()).hexdigest()
    assert digest == REPORT_DIGEST, (len(texts), digest)
