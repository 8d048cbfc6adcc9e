"""Exception taxonomy shared across the package.

Parse and evaluation failures are ValueErrors; geometric degeneracies all
derive from GeometryError so the CLI can map them to a single exit code.
"""


class ParseError(ValueError):
    """Raised on malformed expression text; carries a byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """Evaluation left the real domain (log of a non-positive value, ...)."""


class GeometryError(Exception):
    """Base class for geometric degeneracies; may carry the parameter t
    (``reason`` is the message without it)."""

    def __init__(self, message, t=None):
        self.reason = message
        self.t = t
        if t is not None:
            message = f"{message} at t≈{t:.9g}"
        super().__init__(message)


class CuspPoint(GeometryError):
    """The curve's speed vanishes at the requested parameter."""


class DegenerateCurvature(GeometryError):
    """Curvature fell below the genericity threshold EPS_K."""


class TorsionVanishes(GeometryError):
    """Torsion fell below the genericity threshold EPS_TAU."""


class InfinityEscape(GeometryError):
    """The requested point escapes to infinity (denominator vanishes)."""


class IntegrationFailure(GeometryError):
    """The ODE integrator could not reach the requested tolerance."""


class NotClosed(GeometryError):
    """An operation requiring a closed curve received an open one."""


class LengthMismatch(GeometryError):
    """Congruence test on curves whose arclengths differ beyond tolerance."""


class IdentityMonodromy(GeometryError):
    """The rolling monodromy is the identity; every involute closes."""


class PureTranslation(GeometryError):
    """The rolling monodromy is a nontrivial translation; no fixed point."""


class LineThroughEdge(UserWarning):
    """A development line crosses the developed edge curve (cusp warning)."""
