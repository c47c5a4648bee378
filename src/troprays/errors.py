"""Exception hierarchy shared by all troprays modules.

``input_error`` marks the classes raised only for a caller's argument or file
that breaks a documented requirement; the CLI exits 2 on them, 1 on the rest.
"""


class TropraysError(Exception):
    """Base class for all domain errors raised by this package."""

    input_error = False


class UndefinedProduct(TropraysError):
    """Raised when multiplying the semifield zero by infinity."""


class DimensionMismatch(TropraysError):
    """Vector/model dimensions disagree."""

    input_error = True


class IsotropicArgument(TropraysError):
    """An operation required an anisotropic vector but q evaluated to zero."""


class ZeroVector(TropraysError):
    """The zero vector was passed where a nonzero vector is required."""

    input_error = True


class NotOnInterval(TropraysError):
    """A ray is not a member of the closed ray interval under discussion."""

    input_error = True


class DiscontinuousInput(TropraysError):
    """Piecewise-monomial data fails the continuity requirement at a breakpoint."""


class BadSubinterval(TropraysError):
    """Subinterval endpoints are not strictly ordered."""

    input_error = True


class PerpendicularWitness(TropraysError):
    """Witness vector is orthogonal to both base points of the interval."""


class IsotropicEndpoint(TropraysError):
    """An interval endpoint is isotropic; handled by the isotropy module instead."""


class NotStrictPair(TropraysError):
    """A relaxation was requested for a pair whose sign is not strict."""

    input_error = True


class WitnessNotInStratum(TropraysError):
    """A claimed witness ray does not satisfy the stated sign vector."""

    input_error = True


class NoEntrance(TropraysError):
    """No entrance ray exists (wrong boundary case, or intermediate strata)."""


class NotRegular(TropraysError):
    """Regularity of a ray with respect to the anchor set fails."""


class VerificationFailed(TropraysError):
    """A constructed object failed its definitional re-verification."""


class NoAnisotropicInterior(TropraysError):
    """The interval between isotropic endpoints contains no anisotropic ray."""


class IllposedApproach(TropraysError):
    """q(eps + t*eta) vanishes for every parameter t."""

    input_error = True


class InfiniteCoefficient(TropraysError):
    """A basic function was given the coefficient oo."""

    input_error = True


class SchemaError(TropraysError):
    """An input file violates the documented JSON schema."""

    input_error = True
