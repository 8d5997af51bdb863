"""Exact engine for noetherian forms over finite group-like structures.

Verifies the form axioms on concrete finite instances, chases subobjects
along zigzags, builds pyramids, decides homomorphism induction, and checks
the homological diagram lemmas (Four, Five, 3x3, Snake, Salamander and the
appendix exercises) on Slominski-algebra realizations.
"""

from .axioms import AxiomCheck, AxiomReport, axiom_suite
from .core import (
    DataForm,
    Factorization,
    Form,
    FormObject,
    Morphism,
    RMLResult,
    Subobject,
    bottom,
    compose,
    direct_image,
    dualize,
    identity_morphism,
    image,
    inverse_image,
    is_injective,
    is_isomorphism,
    is_relatively_normal,
    is_surjective,
    is_zero_morphism,
    join,
    kernel,
    leq,
    meet,
    restricted_modular_law_check,
    top,
)
from .diagram import (
    Assertion,
    Diagram,
    LemmaReport,
    is_exact_at,
    is_short_exact,
    verify_generic,
)
from .lemmas import (
    LEMMAS,
    HomologyObject,
    SnakeResult,
    UndefinedMarker,
    homology_object,
    salamander,
    snake,
    strongly_short_exact_check,
    verify,
    verify_exercise,
    verify_five,
    verify_four,
    verify_threebythree,
)
from .pyramid import (
    InductionVerdict,
    IsoVerdict,
    Pyramid,
    QuotientIsoResult,
    build_pyramid,
    decide_induction,
    decide_isomorphism,
    quotient_iso,
)
from .slominski import (
    Congruence,
    SlominskiAlgebra,
    SlominskiForm,
    SlominskiHom,
    as_form,
    close_homs,
    enumerate_homs,
    from_group,
    generate_congruence,
    is_normal_subalgebra,
    quotient,
    subalgebras,
)
from .zigzag import (
    Edge,
    Zigzag,
    chase_backward,
    chase_forward,
    collapse,
    induced_relation,
    is_collapsible,
    is_subquotient,
)

__version__ = "0.1.0"
