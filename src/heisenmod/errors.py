"""Exception hierarchy for the whole library.

Every error raised on bad API input derives from AlgebraError so callers can
catch one base class.  A computed result that fails its own re-verification
(a classification transform, a canonical form, a similarity) raises
VerificationFailed instead: that is a bug in the library, not a user error,
and the check runs under python -O as well.  Internal invariants use the
same verify(), so no self-check depends on assert.
"""


class AlgebraError(Exception):
    """Base class for all library errors."""


class MixedFields(AlgebraError):
    """Operands belong to different fields."""


class DivisionByZero(AlgebraError):
    """Division or inversion of a zero element."""


class NonMonic(AlgebraError):
    """A monic polynomial was required."""


class ReduciblePoly(AlgebraError):
    """An irreducible polynomial was required."""


class ShapeMismatch(AlgebraError):
    """Matrix or vector dimensions are incompatible."""


class Singular(AlgebraError):
    """A square matrix that must be invertible is singular."""


class DoesNotSplit(AlgebraError):
    """A polynomial has no complete root set over the given field."""


class ZeroAlpha(AlgebraError):
    """The central parameter alpha must be nonzero."""


class WrongDeltaCount(AlgebraError):
    """The number of delta parameters does not match the rank."""


class NotScalarCenter(AlgebraError):
    """The central element does not act as a nonzero scalar."""


class WrongDimension(AlgebraError):
    """A representation does not have the dimension required here."""


class MinPolyShape(AlgebraError):
    """A minimal polynomial does not have the required shape."""


class RelationViolated(AlgebraError):
    """The defining bracket relations fail."""


class NotExtension(AlgebraError):
    """The target field is not an extension of the source field."""


class DegreeMismatch(AlgebraError):
    """Polynomial or field degrees are inconsistent."""


class TooLarge(AlgebraError):
    """The requested exhaustive computation exceeds the supported size."""


class UndecidedIrreducibility(AlgebraError):
    """Randomized irreducibility testing ran out of samples."""


class SchemaError(AlgebraError):
    """A JSON document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class VerificationFailed(Exception):
    """A result failed the library's re-verification of it: a bug."""


def verify(ok: bool, what: str) -> None:
    """Raise VerificationFailed(what) unless ok."""
    if not ok:
        raise VerificationFailed(what)
