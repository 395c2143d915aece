"""Exception types raised by the geometry engine."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class CollinearBase(GeometryError):
    """Three base points of a circle construction are exactly collinear."""


class CoincidentPoints(GeometryError):
    """Two points that must be distinct coincide."""


class NotConcurrent(GeometryError):
    """Lines passed to a concurrent-pencil operation share no common point."""


class DegenerateRay(GeometryError):
    """An angle was requested for a ray of zero length."""


class InvalidConfig(GeometryError):
    """A focal configuration violates a structural invariant."""


class SiteInOuterSet(InvalidConfig):
    """The site of a convex component appears in its outer point set."""


class EmptySet(GeometryError):
    """Distance to an empty point set was requested."""


class Unbounded(GeometryError):
    """The operation requires a bounded body but the configuration is unbounded."""


class PreconditionViolated(GeometryError):
    """An operation-specific precondition does not hold."""


class MismatchedOuterSet(GeometryError):
    """Two components being compared were built from different outer sets."""


class RegularityViolated(GeometryError):
    """The configuration fails a regularity condition required by the operation.

    The offending tuples are available on the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class MalformedQuad(GeometryError):
    """The four points do not form a simple quadrangle with one reflex vertex."""


class NumericalDegeneracy(GeometryError):
    """A construction degenerated numerically (e.g. near-parallel auxiliary lines)."""


class ParamOutOfRange(GeometryError):
    """The construction parameter lies outside the feasible range."""


class RoundTripFailure(GeometryError):
    """A recovered focal configuration does not reproduce the input shape."""
