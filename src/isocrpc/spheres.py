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

from .errors import (
    EmptyCharacteristic,
    InvalidParams,
    StationaryFamily,
    ZeroCurvature,
    ZeroRadius,
)
from .geometry import Jet2Height, fd_jet, point3

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

    @property
    def radius(self) -> float:
        return 1.0 / self.A

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

    def coefficients(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D])


def tangent_sphere(j: Jet2Height, radius: float) -> ParabolicSphere:
    """The parabolic sphere of the given radius touching the jet's graph.

    Touching means equal value and gradient at the base point; the three
    conditions determine B, C, D once A = 1/radius is fixed.
    """
    if radius == 0.0 or not math.isfinite(radius):
        raise ZeroRadius("tangent sphere needs a finite nonzero radius")
    A = 1.0 / radius
    x0, y0 = float(j.x0), float(j.y0)
    f, fx, fy = float(j.f), float(j.fx), float(j.fy)
    B = 2.0 * (fx - A * x0)
    C = 2.0 * (fy - A * y0)
    D = 2.0 * f - A * (x0 * x0 + y0 * y0) - B * x0 - C * y0
    return ParabolicSphere(A, B, C, D)


def curvature_center(j: Jet2Height, kappa: float) -> np.ndarray:
    """Center of the tangent sphere with curvature kappa: vertex + (0,0,radius)."""
    if kappa == 0.0 or not math.isfinite(kappa):
        raise ZeroCurvature("curvature center needs kappa != 0")
    x0, y0 = float(j.x0), float(j.y0)
    f, fx, fy = float(j.f), float(j.fx), float(j.fy)
    center = (
        x0 - fx / kappa,
        y0 - fy / kappa,
        f - (fx * fx + fy * fy - 2.0) / (2.0 * kappa),
    )
    if not all(map(math.isfinite, center)):
        raise ZeroCurvature("curvature center is not finite; kappa is too small")
    return point3(*center)


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
    n1 x + n2 y + d = 0.
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


def elliptic_circle(center, top_radius, plane, sphere=None) -> IsoCircle:
    """Elliptic circle over the top-view circle (center, top_radius) in z = px+qy+s."""
    (cx, cy), (p, q, s) = center, plane
    x = cx + top_radius * np.cos(_THETA)
    y = cy + top_radius * np.sin(_THETA)
    z = p * x + q * y + s
    return IsoCircle(ELLIPTIC, plane, sphere, center, top_radius, np.stack([x, y, z], -1))


@dataclass(frozen=True)
class Characteristic:
    """Envelope characteristic c(t): a sampled circle with its top-view tangents."""

    t: float
    circle: IsoCircle
    curvature: float  # principal curvature along c(t): A(t) = 1/r(t)
    top_tangents: np.ndarray  # (n, 2) unit top-view tangents

    @property
    def points(self) -> np.ndarray:
        return self.circle.points

    def to_trace(self):
        """Repackage the sampled characteristic as a curve trace."""
        from .curves import CurveTrace

        seg = np.linalg.norm(np.diff(self.points[:, :2], axis=0), axis=1)
        t = np.concatenate([[0.0], np.cumsum(seg)])
        return CurveTrace(
            kind="characteristic+",
            t=t,
            uv=None,
            points=self.points,
            top_dirs=self.top_tangents,
        )


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
        return Characteristic(t, circle, A, tangents)

    norm = math.hypot(Bd, Cd)
    if norm <= _CLASS_TOL * max(1.0, dscale):
        raise EmptyCharacteristic(
            "derivative equation reduces to a nonzero constant; no real points"
        )
    # isotropic carrier plane Bd x + Cd y + Dd = 0: a parabolic circle
    ex, ey = Bd / norm, Cd / norm
    x0, y0 = -Dd * ex / norm, -Dd * ey / norm
    dx, dy = -ey, ex
    sigma = np.linspace(-1.0, 1.0, CIRCLE_SAMPLES)
    x = x0 + sigma * dx
    y = y0 + sigma * dy
    points = np.stack([x, y, sphere.height(x, y)], axis=-1)
    circle = IsoCircle(PARABOLIC, (Bd, Cd, Dd), sphere, None, None, points)
    tangents = np.broadcast_to(np.array([dx, dy]), (CIRCLE_SAMPLES, 2)).copy()
    return Characteristic(t, circle, A, tangents)


@dataclass(frozen=True)
class ChannelReport:
    """Residuals of the channel-surface predictions along characteristics."""

    ts: np.ndarray
    eigen_residual: np.ndarray  # per t: max |Hess d - (d.Hess d) d| over samples
    curvature_residual: np.ndarray  # per t: max |kappa_d - A(t)| over samples

    @property
    def max_eigen_residual(self) -> float:
        return float(np.max(self.eigen_residual))

    @property
    def max_curvature_residual(self) -> float:
        return float(np.max(self.curvature_residual))


def channel_checks(
    fam: SphereFamily,
    surface: Callable[[float, float], float],
    ts: Sequence[float],
) -> ChannelReport:
    """Check the envelope surface against the sphere family's predictions.

    At five sampled points of each characteristic c(t), the top-view
    tangent of c(t) must be an eigenvector of the envelope's Hessian, and
    the normal curvature along it must equal A(t). `surface` is the
    caller's envelope height field; its second derivatives come from the
    fd stencil.
    """
    ts = np.asarray(list(ts), float)
    eig = np.empty(len(ts))
    cur = np.empty(len(ts))
    for i, t in enumerate(ts):
        ch = envelope_characteristic(fam, float(t))
        idx = np.linspace(0, len(ch.points) - 1, 5).round().astype(int)
        worst_e = 0.0
        worst_c = 0.0
        for k in idx:
            x, y = float(ch.points[k, 0]), float(ch.points[k, 1])
            d = ch.top_tangents[k]
            j = fd_jet(surface, x, y)
            hess = np.array([[j.fxx, j.fxy], [j.fxy, j.fyy]])
            kd = float(d @ hess @ d)
            worst_e = max(worst_e, float(np.linalg.norm(hess @ d - kd * d)))
            worst_c = max(worst_c, abs(kd - ch.curvature))
        eig[i] = worst_e
        cur[i] = worst_c
    return ChannelReport(ts=ts, eigen_residual=eig, curvature_residual=cur)
