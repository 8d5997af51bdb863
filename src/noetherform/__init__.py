"""Exact engine for noetherian forms over finite group-like structures.

Verifies the form axioms on concrete finite instances, chases subobjects
along zigzags, builds pyramids, decides homomorphism induction, and checks
the homological diagram lemmas (Four, Five, 3x3, Snake, Salamander and the
appendix exercises) on Slominski-algebra realizations.

Importing the package loads no submodule: each name in `__all__` is imported
from its module on first use (PEP 562) and then kept in the package namespace.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "axioms": ("AxiomCheck", "AxiomReport", "axiom_suite"),
    "core": (
        "DataForm", "Form", "FormObject", "Morphism", "Subobject", "compose",
        "direct_image", "dualize", "identity_morphism", "image", "inverse_image",
        "is_injective", "is_isomorphism", "is_relatively_normal", "is_surjective",
        "is_zero_morphism", "join", "kernel", "leq", "meet",
    ),
    "diagram": (
        "Assertion", "Diagram", "LemmaReport", "is_exact_at", "is_short_exact",
    ),
    "lemmas": (
        "LEMMAS", "HomologyObject", "SnakeResult", "UndefinedMarker", "homology_object",
        "salamander", "snake", "verify", "verify_exercise", "verify_five", "verify_four",
        "verify_threebythree",
    ),
    "pyramid": (
        "InductionVerdict", "IsoVerdict", "Pyramid", "QuotientIsoResult", "build_pyramid",
        "decide_induction", "decide_isomorphism", "quotient_iso",
    ),
    "slominski": (
        "Congruence", "SlominskiAlgebra", "SlominskiForm", "as_form", "close_homs",
        "enumerate_homs", "from_group", "generate_congruence", "is_normal_subalgebra",
        "quotient",
    ),
    "zigzag": (
        "Edge", "Zigzag", "chase_backward", "chase_forward", "induced_relation",
        "is_collapsible",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
