"""Exception taxonomy shared by every osinv module.

All errors raised by this package derive from :class:`OsinvError`, so
callers can catch one base class.  Each subclass marks one failure mode of
the numeric contracts (bad construction data, domain violations, divergent
integrals, unattainable preconditions, ...).
"""

from __future__ import annotations

__all__ = [
    "OsinvError",
    "NonMonotone",
    "BadKnots",
    "DomainError",
    "DirectionError",
    "Unbounded",
    "DivergentTail",
    "Divergent",
    "TooFewPoints",
    "NonPositive",
    "NotRegular",
    "BadParameter",
    "NotAdmissible",
    "BracketFailure",
    "Inconsistent",
    "ParseError",
    "BadCutoff",
    "DegenerateWeight",
]


class OsinvError(Exception):
    """Base class for all osinv errors."""


class NonMonotone(OsinvError):
    """Ordinate table violates the declared monotonicity direction."""


class BadKnots(OsinvError):
    """Knot abscissas are not strictly increasing positive reals."""


class DomainError(OsinvError):
    """Argument lies outside the function's domain (e.g. t <= 0)."""


class DirectionError(OsinvError):
    """Operation requires the opposite monotonicity direction."""


class Unbounded(OsinvError):
    """Requested point lies beyond the function's (bounded) range."""


class DivergentTail(OsinvError):
    """Improper integral diverges at +infinity (tail exponent >= -1)."""


class Divergent(OsinvError):
    """Integral diverges (weight condition or norm integral fails)."""


class TooFewPoints(OsinvError):
    """A fit or sweep needs more sample points than were supplied."""


class NonPositive(OsinvError):
    """Data that must be strictly positive contains a value <= 0."""


class NotRegular(OsinvError):
    """Function fails the power-window regularity requirement."""


class BadParameter(OsinvError):
    """Parameter out of range (e.g. p outside (1, infinity))."""


class NotAdmissible(OsinvError):
    """Candidate function cannot serve as a convex modular function."""


class BracketFailure(OsinvError):
    """Root bracketing failed to enclose a sign change."""


class Inconsistent(OsinvError):
    """Input data contradicts itself beyond repairable tolerance."""


class ParseError(OsinvError):
    """Command-line input could not be parsed or used.

    The descriptor text or file, the n-grid, or the output path.
    """


class BadCutoff(OsinvError):
    """Quadrature cutoff missing or too small for the requested tail."""


class DegenerateWeight(OsinvError):
    """Weight has no usable tail (vanishing or compactly supported)."""
