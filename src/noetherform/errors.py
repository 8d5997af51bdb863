"""Exception types shared across the engine."""


class FormError(Exception):
    """Base class for all engine errors."""


class CompositionError(FormError):
    """Endpoint mismatch when composing morphisms."""


class OwnershipError(FormError):
    """A subobject was used with an object it does not belong to."""


class LatticeError(FormError):
    """A requested lattice bound does not exist or is not unique."""


class ValidationError(FormError):
    """Malformed input data (bad tables, not a group, not a hom)."""


class ClosureError(FormError):
    """A declared morphism set is missing identities or composites."""


class UnsupportedFormError(FormError):
    """The form lacks data required by a construction.

    Carries the subobject (if any) whose embedding/projection was needed.
    """

    def __init__(self, message, subobject=None):
        super().__init__(message)
        self.subobject = subobject


class UnsupportedSubobjectError(UnsupportedFormError):
    """No embedding/projection is available for the subobject: the form's
    subobject_object or quotient_object cannot construct it.  A construction
    that catches UnsupportedFormError catches this too."""


class ShapeError(FormError):
    """A diagram does not match the template of the requested lemma."""


class ParseError(FormError):
    """Syntax or resolution error in an input file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
