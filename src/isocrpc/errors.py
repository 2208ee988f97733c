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


class UmbilicEncountered(Umbilic):
    """An umbilic point blocked a trace at its seed."""


class SingularLocus(GeometryError):
    """Evaluation requested within the masked margin of a singular locus."""


class OutOfDomain(GeometryError):
    """Parameter values outside the family's hard validity region."""


class InvalidParams(GeometryError):
    """Family parameters violate the family's constraints."""


class SingularSimilarity(GeometryError):
    """Similarity matrix is not invertible (c3 = 0 or h1 = h2 = 0)."""


class StencilOutOfDomain(GeometryError):
    """Finite-difference stencil left the surface's definition domain."""


class NoIntersection(GeometryError):
    """Two traces do not cross in the top view."""


class InflectionPoint(GeometryError):
    """Curve jet is straight to second order; no osculating circle exists."""


class ZeroNormalCurvature(GeometryError):
    """Normal curvature vanishes along the requested tangent direction."""


class ZeroCurvature(GeometryError):
    """A curvature value of zero admits no finite curvature center."""


class ZeroRadius(GeometryError):
    """A sphere of radius zero (or coefficient A = 0) was requested."""


class DegenerateFit(GeometryError):
    """Least-squares sphere fit is rank-deficient or yields A ~ 0."""


class StationaryFamily(GeometryError):
    """All derivative coefficients of a sphere family vanish at t."""


class EmptyCharacteristic(GeometryError):
    """The envelope system has no real solution at t."""


class EmptyGrid(GeometryError):
    """Every vertex of a sampled grid is masked."""


class DegenerateInput(GeometryError):
    """Supplied derivative data violates a nondegeneracy hypothesis."""
