"""Exception types shared across the package.

Everything derives from GeometryError so callers can catch one base class.
Names describe the geometric failure, not the call site.
"""


class GeometryError(Exception):
    """Base class for all geometric failures raised by this package."""


class NonAdmissiblePoint(GeometryError):
    """Tangent plane contains the vertical direction (top view degenerates)."""


class DegenerateJet(GeometryError):
    """Curve or surface jet too degenerate to carry the requested construction."""


class DegenerateK(GeometryError):
    """Gauss-type curvature K is numerically zero where a ratio needs it."""


class Umbilic(GeometryError):
    """Principal curvatures coincide; directions are not determined."""


class SingularLocus(GeometryError):
    """Evaluation requested within the masked margin of a singular locus."""


class OutOfDomain(GeometryError):
    """Parameter values outside the family's hard validity region."""


class InvalidParams(GeometryError):
    """A refused input: family parameter, ratio, domain, grid shape or trace argument."""


class StencilOutOfDomain(GeometryError):
    """Finite-difference stencil left the surface's definition domain."""


class NoIntersection(GeometryError):
    """Two traces do not start at one top-view point."""


class InflectionPoint(GeometryError):
    """Curve jet is straight to second order; no osculating circle exists."""


class ZeroNormalCurvature(GeometryError):
    """Normal curvature vanishes along the requested tangent direction."""


class StationaryFamily(GeometryError):
    """All derivative coefficients of a sphere family vanish at t."""


class EmptyCharacteristic(GeometryError):
    """The envelope system has no real solution at t."""


class EmptyGrid(GeometryError):
    """Every vertex of a sampled grid is masked."""


class DegenerateInput(GeometryError):
    """Supplied derivative data violates a nondegeneracy hypothesis."""
