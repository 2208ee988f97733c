"""Parabolic spheres of isotropic geometry and envelopes of sphere families.

A parabolic sphere is the paraboloid of revolution

    2z = A (x^2 + y^2) + B x + C y + D,   A != 0,

with radius 1/A. Envelopes of one-parameter sphere families touch each
member along a characteristic curve, cut out by the member together with
the t-derivative of its equation. Characteristics are isotropic circles
(`IsoCircle`, the type `curves` also gives its osculating circles):
elliptic when the radius varies, parabolic when it is constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyCharacteristic, InvalidParams, StationaryFamily
from .geometry import fd_jet

ELLIPTIC = "elliptic"
PARABOLIC = "parabolic"
CYLINDRIC = "cylindric"

CIRCLE_SAMPLES = 64  # samples of a characteristic or osculating circle
_CLASS_TOL = 1e-10


@dataclass(frozen=True)
class ParabolicSphere:
    """Coefficients of 2z = A(x^2+y^2) + Bx + Cy + D."""

    A: float
    B: float
    C: float
    D: float

    def __post_init__(self):
        if self.A == 0.0 or not all(
            math.isfinite(c) for c in (self.A, self.B, self.C, self.D)
        ):
            raise InvalidParams("parabolic sphere needs finite coefficients and A != 0")

    def height(self, x, y):
        """z on the sphere above (x, y)."""
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return 0.5 * (self.A * (x * x + y * y) + self.B * x + self.C * y + self.D)

    def algebraic_residual(self, points) -> np.ndarray:
        """2z - A(x^2+y^2) - Bx - Cy - D at each (..., 3) point."""
        p = np.asarray(points, float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return 2.0 * z - self.A * (x * x + y * y) - self.B * x - self.C * y - self.D


def tangent_sphere(point, gradient, A: float) -> ParabolicSphere:
    """The parabolic sphere with coefficient A (radius 1/A) touching a graph
    at point = (x0, y0, z0) with the given gradient: equal value and gradient
    there determine B, C, D. ParabolicSphere refuses A = 0 and non-finite A.
    """
    x0, y0, z0 = map(float, point)
    gx, gy = map(float, gradient)
    B = 2.0 * (gx - A * x0)
    C = 2.0 * (gy - A * y0)
    D = 2.0 * z0 - A * (x0 * x0 + y0 * y0) - B * x0 - C * y0
    return ParabolicSphere(A, B, C, D)


@dataclass(frozen=True)
class SphereFamily:
    """One-parameter family t -> 2z = A(t)(x^2+y^2)+B(t)x+C(t)y+D(t).

    coeffs(t) returns (A, B, C, D) and dcoeffs(t) their caller-supplied
    t-derivatives; `audit` cross-checks them against central differences.
    Both callables must be pure (safe to call concurrently and repeatedly).
    """

    coeffs: Callable[[float], Sequence[float]]
    dcoeffs: Callable[[float], Sequence[float]]

    def coefficients(self, t: float) -> np.ndarray:
        return np.array(self.coeffs(t), float)

    def derivatives(self, t: float) -> np.ndarray:
        return np.array(self.dcoeffs(t), float)

    def audit(self, t: float) -> float:
        """Max mismatch between supplied derivatives and central differences."""
        step = 1e-6 * max(1.0, abs(t))
        fd = (self.coefficients(t + step) - self.coefficients(t - step)) / (2.0 * step)
        d = self.derivatives(t)
        return float(np.max(np.abs(d - fd) / np.maximum(1.0, np.abs(d))))


@dataclass(frozen=True)
class IsoCircle:
    """Sampled isotropic circle: section of a sphere by a plane.

    kind is "elliptic" (non-isotropic carrier plane; top view the circle
    (center, top_radius)), "parabolic" (isotropic carrier plane; a
    vertical-axis parabola), or "cylindric" (vertical tangent; the vertical
    line through the point, top radius 0). carrier_plane holds (p, q, s) for
    z = px+qy+s when non-isotropic, else (n1, n2, d) for the vertical plane
    n1 x + n2 y + d = 0, with a unit normal (n1, n2).
    """

    kind: str
    carrier_plane: tuple[float, float, float]
    carrier_sphere: ParabolicSphere | None
    center: tuple[float, float] | None
    top_radius: float | None
    points: np.ndarray  # (n, 3) samples

    def algebraic_residual_on(self, sphere: ParabolicSphere) -> float:
        return float(np.max(np.abs(sphere.algebraic_residual(self.points))))


_THETA = np.linspace(0.0, 2.0 * math.pi, CIRCLE_SAMPLES, endpoint=False)
_SIGMA = np.linspace(-1.0, 1.0, CIRCLE_SAMPLES)


def elliptic_circle(center, top_radius, plane, sphere=None) -> IsoCircle:
    """Elliptic circle over the top-view circle (center, top_radius) in z = px+qy+s."""
    (cx, cy), (p, q, s) = center, plane
    x = cx + top_radius * np.cos(_THETA)
    y = cy + top_radius * np.sin(_THETA)
    z = p * x + q * y + s
    return IsoCircle(ELLIPTIC, plane, sphere, center, top_radius, np.stack([x, y, z], -1))


def parabolic_circle(foot, direction, sphere: ParabolicSphere) -> IsoCircle:
    """Parabolic circle of the sphere over the top-view line through foot
    along the unit direction, sampled at foot + sigma direction, |sigma| <= 1.

    Its carrier plane is n1 x + n2 y + d = 0 with the unit normal
    (n1, n2) = (-dy, dx), the direction turned by 90 degrees.
    """
    (x0, y0), (dx, dy) = foot, direction
    x, y = x0 + _SIGMA * dx, y0 + _SIGMA * dy
    n1, n2 = -dy, dx
    return IsoCircle(PARABOLIC, (n1, n2, -(n1 * x0 + n2 * y0)), sphere, None, None,
                     np.stack([x, y, sphere.height(x, y)], -1))


@dataclass(frozen=True)
class Characteristic:
    """Envelope characteristic: a sampled circle with its top-view tangents."""

    circle: IsoCircle
    curvature: float  # principal curvature along c(t): A(t) = 1/r(t)
    top_tangents: np.ndarray  # (n, 2) unit top-view tangents

    @property
    def points(self) -> np.ndarray:
        return self.circle.points


def envelope_characteristic(fam: SphereFamily, t: float) -> Characteristic:
    """Solve the envelope system of the family at parameter t.

    The characteristic is the solution set of the member's equation together
    with its t-derivative. A varying radius (A'(t) != 0) yields an elliptic
    circle; a constant radius with a nontrivial derivative equation yields a
    parabolic circle. Raises StationaryFamily when the derivative vanishes
    identically and EmptyCharacteristic when the system has no real points,
    and InvalidParams unless the family's audit is finite and at most 1e-6.
    """
    if not fam.audit(t) <= 1e-6:
        raise InvalidParams("sphere family derivatives fail the consistency audit")
    A, B, C, D = fam.coefficients(t)
    Ad, Bd, Cd, Dd = fam.derivatives(t)
    sphere = ParabolicSphere(A, B, C, D)
    scale = max(1.0, abs(A), abs(B), abs(C), abs(D))
    dscale = max(abs(Ad), abs(Bd), abs(Cd), abs(Dd))

    if dscale <= _CLASS_TOL * scale:
        raise StationaryFamily("all coefficient derivatives vanish at t")

    if abs(Ad) > _CLASS_TOL * max(1.0, dscale):
        # derivative equation is itself a circle in the top view
        cx = -Bd / (2.0 * Ad)
        cy = -Cd / (2.0 * Ad)
        rad2 = cx * cx + cy * cy - Dd / Ad
        # radius^2 = 0 is still elliptic (the circle degenerates to a point)
        if rad2 < -_CLASS_TOL * max(1.0, cx * cx + cy * cy, abs(Dd / Ad)):
            raise EmptyCharacteristic("elliptic characteristic has no real points")
        rho = math.sqrt(max(rad2, 0.0))
        # eliminate the quadratic term to expose the non-isotropic carrier plane
        p = (Ad * B - A * Bd) / (2.0 * Ad)
        q = (Ad * C - A * Cd) / (2.0 * Ad)
        s = (Ad * D - A * Dd) / (2.0 * Ad)
        circle = elliptic_circle((cx, cy), rho, (p, q, s), sphere)
        tangents = np.stack([-np.sin(_THETA), np.cos(_THETA)], axis=-1)
        return Characteristic(circle, A, tangents)

    norm = math.hypot(Bd, Cd)
    if norm <= _CLASS_TOL * max(1.0, dscale):
        raise EmptyCharacteristic(
            "derivative equation reduces to a nonzero constant; no real points"
        )
    # isotropic carrier plane Bd x + Cd y + Dd = 0: a parabolic circle
    ex, ey = Bd / norm, Cd / norm
    dx, dy = -ey, ex
    circle = parabolic_circle((-Dd * ex / norm, -Dd * ey / norm), (dx, dy), sphere)
    tangents = np.broadcast_to(np.array([dx, dy]), (CIRCLE_SAMPLES, 2)).copy()
    return Characteristic(circle, A, tangents)


def channel_checks(
    fam: SphereFamily,
    surface: Callable[[float, float], float],
    ts: Sequence[float],
) -> tuple[float, float]:
    """Check the envelope surface against the sphere family's predictions.

    At five sampled points of each characteristic c(t), the top-view
    tangent of c(t) must be an eigenvector of the envelope's Hessian, and
    the normal curvature along it must equal A(t). `surface` is the
    caller's envelope height field; its second derivatives come from the
    fd stencil. Returns the worst |Hess d - (d.Hess d) d| and the worst
    |kappa_d - A(t)| over all samples.
    """
    worst_e = worst_c = 0.0
    for t in ts:
        ch = envelope_characteristic(fam, float(t))
        idx = np.linspace(0, len(ch.points) - 1, 5).round().astype(int)
        for k in idx:
            x, y = float(ch.points[k, 0]), float(ch.points[k, 1])
            d = ch.top_tangents[k]
            j = fd_jet(surface, x, y)
            hess = np.array([[j.fxx, j.fxy], [j.fxy, j.fyy]])
            kd = float(d @ hess @ d)
            worst_e = max(worst_e, float(np.linalg.norm(hess @ d - kd * d)))
            worst_c = max(worst_c, abs(kd - ch.curvature))
    return worst_e, worst_c
