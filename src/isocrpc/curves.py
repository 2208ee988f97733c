"""Curve tracing and second-order contact machinery.

Traces live in the chart's (u, v) parameter plane: the chosen unit
top-view direction field is pulled back through the top-view Jacobian and
integrated with fixed-step RK4, so surface membership never has to be
re-solved. The included angle of two traces from one seed, osculating
isotropic circles and the tangent-sphere contact check complete the module.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateJet,
    DegenerateK,
    GeometryError,
    InflectionPoint,
    InvalidParams,
    NoIntersection,
    NonAdmissiblePoint,
    Umbilic,
    ZeroNormalCurvature,
)
from .families import FamilySpec, evaluate, point_jet
from .geometry import (
    _SINGULAR,
    JACOBIAN_EPS,
    K_EPS,
    UMBILIC_RTOL,
    Jet2Height,
    _hessian,
    characteristic_directions,
    height_jet_from_param,
    isotropic_curvatures,
    normal_curvature,
)
from .meshing import format_rows, write_text
from .spheres import (CIRCLE_SAMPLES, CYLINDRIC, IsoCircle, elliptic_circle, parabolic_circle,
                      tangent_sphere)

TRACE_KINDS = ("characteristic+", "characteristic-", "principal1", "principal2")
MAX_TRACE_STEPS = 1_000_000  # 56 bytes a step: bounds a trace's memory and time
_CURVATURE_TOL = 1e-10  # below it an osculating circle's curvature counts as zero


@dataclass(frozen=True)
class CurveTrace:
    """Sampled curve on a surface: parameter values, points, top-view tangents.

    t is cumulative top-view arclength (the integrated field has unit
    top-view speed). uv carries the parameter-plane path; stopped records
    why integration ended early.
    """

    kind: str
    t: np.ndarray  # (n,)
    uv: np.ndarray  # (n, 2)
    points: np.ndarray  # (n, 3)
    top_dirs: np.ndarray  # (n, 2)
    stopped: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        """Write t,x,y,z,tx,ty rows at 17 significant digits."""
        rows = np.column_stack((self.t, self.points, self.top_dirs))
        text = format_rows("", ",", rows)
        write_text("".join(["t,x,y,z,tx,ty\n", *text]), path)


def _field_direction(jet, kind: str, ref):
    """Unit top-view direction (dx, dy) of the chosen field at the chart
    jet of one point, sign-aligned with the direction ref, the parameter
    velocity (du, dv) whose top view it is, and the chart point (x, y, z),
    all as floats. At a stage the jet is point_jet's 18 floats and
    _float_direction gives the direction. At the seed (ref None) the jet is
    evaluate's ParamJet2 and geometry's array functions give it;
    _float_direction gives their bits and errors on any finite jet.
    """
    values = jet if ref is not None else [
        c for field in (jet.r, jet.ru, jet.rv, jet.ruu, jet.ruv, jet.rvv) for c in field.tolist()]
    if not all(map(math.isfinite, values)):
        raise DegenerateJet("chart jet is not finite")
    if ref is not None:
        d = _float_direction(values, kind)
    elif kind in ("characteristic+", "characteristic-"):
        tp, tm = characteristic_directions(height_jet_from_param(jet))
        d = (tp if kind == "characteristic+" else tm).tolist()
    else:
        cur = isotropic_curvatures(height_jet_from_param(jet))
        if cur.umbilic:
            raise Umbilic("principal directions undefined at an umbilic")
        d = (cur.d1 if kind == "principal1" else cur.d2).tolist()
    dx, dy = d
    # NaN and inf fail the test too; the (0, 0) of an overflowed Hessian
    # would not move the trace
    if not 0.5 <= dx * dx + dy * dy <= 2.0:
        raise DegenerateJet("field direction is not a unit vector")
    if ref is not None and dx * ref[0] + dy * ref[1] < 0.0:
        dx, dy = -dx, -dy
    # solve J [du dv]^T = (dx, dy); the jet passed the admissibility test of
    # monge_gradient, so det != 0
    xu, yu, _, xv, yv = values[3:8]
    det = xu * yv - yu * xv
    return (dx, dy), ((dx * yv - dy * xv) / det, (xu * dy - yu * dx) / det), values[:3]


def _float_direction(values, kind: str):
    """The unit top-view direction of field kind at a chart point, from the
    18 finite floats of its 2-jet (r, ru, rv, ruu, ruv, rvv), as two floats.

    The operations of monge_gradient, _hessian, isotropic_curvatures and
    characteristic_directions in the same order, on Python floats, which
    follow IEEE arithmetic on inf and NaN as numpy's elementwise loops do.
    So on every finite jet it gives the array functions' direction, bit for
    bit (NaN where theirs is NaN), or raises their error with their message,
    in the same order; a value that overflows on the way is no exception.
    """
    xu, yu, zu, xv, yv, zv = values[3:9]
    det = xu * yv - yu * xv
    scale = xu * xu + yu * yu + xv * xv + yv * yv
    if abs(det) <= JACOBIAN_EPS * max(scale, 1e-300):
        raise NonAdmissiblePoint(_SINGULAR)
    fx = (zu * yv - yu * zv) / det
    fy = (xu * zv - zu * xv) / det
    fxx, fxy, fyy = _hessian(det, fx, fy, xu, yu, xv, yv, *values[9:])
    H, K = 0.5 * (fxx + fyy), fxx * fyy - fxy * fxy
    half_gap = float(np.hypot(0.5 * (fxx - fyy), fxy))  # math.hypot rounds differently
    k1 = H + half_gap
    k2 = H - half_gap
    c1y = k1 - fxx
    c2x = k1 - fyy
    n1a = math.sqrt(fxy * fxy + c1y * c1y)
    n1b = math.sqrt(c2x * c2x + fxy * fxy)
    principal = kind in ("principal1", "principal2")
    if abs(k1 - k2) <= UMBILIC_RTOL * max(abs(k1), abs(k2), 1.0):
        raise Umbilic(f"{'principal' if principal else 'characteristic'} directions "
                      "undefined at an umbilic")
    # the eigenvector of k1; n1 rounds to 0 only at an umbilic
    x, y, n1 = (fxy, c1y, n1a) if n1a >= n1b else (c2x, fxy, n1b)
    x, y = _lead_positive(x / n1, y / n1)
    if principal:
        return (x, y) if kind == "principal1" else _lead_positive(-y, x)
    if abs(K) < K_EPS:
        raise DegenerateK("characteristic directions undefined where K = 0")
    # abs(k1) * inf is IEEE's abs(k1 / k2) at k2 = +-0, where Python would
    # raise (k1 = 0 there is an umbilic)
    phi = np.arctan(math.sqrt(abs(k1 / k2) if k2 else abs(k1) * math.inf))
    cph, sph = float(np.cos(phi)), float(np.sin(phi))
    # on the rigid frame (d1, rot90 d1), as characteristic_directions
    if kind == "characteristic+":
        return cph * x + sph * -y, cph * y + sph * x
    return cph * x - sph * -y, cph * y - sph * x


def _lead_positive(x, y):
    """(x, y) times the sign that makes x positive, or y where |x| <= 1e-14:
    geometry._fix_sign of one direction."""
    sign = -1.0 if (x if abs(x) > 1e-14 else y) < 0 else 1.0
    return x * sign, y * sign


def trace_steps(steps: int) -> int:
    """steps if from 1 to MAX_TRACE_STEPS, else InvalidParams (also --steps)."""
    if not 1 <= steps <= MAX_TRACE_STEPS:
        raise InvalidParams(f"{steps} is not from 1 to {MAX_TRACE_STEPS} steps")
    return steps


def trace_dt(dt: float) -> float:
    """dt if finite and > 0, else InvalidParams (also --dt)."""
    if not 0.0 < dt < math.inf:
        raise InvalidParams(f"{dt!r} is not a finite step > 0")
    return dt


@np.errstate(all="ignore")
def trace_direction_field(
    spec: FamilySpec,
    seed: tuple[float, float],
    kind: str,
    steps: int,
    dt: float,
) -> CurveTrace:
    """Integrate the chosen direction field from seed with fixed-step RK4.

    The direction sign at every stage is chosen for continuity against the
    step's starting direction. A singularity, domain exit (a non-finite
    parameter state among them), umbilic hit, non-finite chart jet, a
    direction that is not a unit vector, or a step below the rounding of
    (u, v) after the first sample truncates the trace before that sample
    (stopped says why); at the seed itself every geometry error propagates.
    An unknown kind, and steps or dt that trace_steps or trace_dt refuses,
    raise InvalidParams before the chart is evaluated. A step evaluates the
    chart four times, as point_jet's floats: its first stage is the accepted
    sample's velocity, and its three inner stages read no point height.
    The trace runs under np.errstate(all="ignore"), as each chart ran inside
    evaluate, since a nearly flat chart can overflow the seed's curvature
    arithmetic; beyond the charts that newly silences only divide, in the
    seed's geometry calls and _float_direction's four numpy calls, none of
    which divides by zero.
    """
    if kind not in TRACE_KINDS:
        raise InvalidParams(f"{kind!r} is not one of {TRACE_KINDS}")
    trace_steps(steps)
    trace_dt(dt)
    u, v = float(seed[0]), float(seed[1])
    d, (du, dv), point = _field_direction(evaluate(spec, u, v), kind, None)

    samples = array("d", (u, v, *point, *d))  # 7 floats per sample
    stopped = None

    def rhs(uu, vv):
        return _field_direction(point_jet(spec, uu, vv, heights=False), kind, ref)[1]

    for _ in range(steps):
        # d aligned against itself never flips, so the chart evaluated at
        # the accepted sample again would give k1 = (du, dv) exactly
        ref = d
        try:
            k2u, k2v = rhs(u + 0.5 * dt * du, v + 0.5 * dt * dv)
            k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
            k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
            step = u, v
            u += dt / 6.0 * (du + 2.0 * k2u + 2.0 * k3u + k4u)
            v += dt / 6.0 * (dv + 2.0 * k2v + 2.0 * k3v + k4v)
            if (u, v) == step:  # a step below the rounding of u and v
                raise DegenerateJet("the step does not move the trace")
            d, (du, dv), point = _field_direction(point_jet(spec, u, v), kind, ref)
        except GeometryError as exc:
            stopped = f"{type(exc).__name__}: {exc}"
            break
        samples.extend((u, v, *point, *d))
    rows = np.frombuffer(samples).reshape(-1, 7)
    return CurveTrace(
        kind=kind,
        t=np.arange(len(rows)) * dt,
        uv=rows[:, :2],
        points=rows[:, 2:5],
        top_dirs=rows[:, 5:],
        stopped=stopped,
    )


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def included_angle_topview(c1: CurveTrace, c2: CurveTrace) -> float:
    """Top-view line angle (in [0, pi/2]) between two traces from one seed.

    Uses the recorded field directions at the shared first sample. Raises
    NoIntersection when the traces do not start at one top-view point.
    """
    if not np.linalg.norm(c1.points[0, :2] - c2.points[0, :2]) < 1e-12:
        raise NoIntersection("traces do not start at one top-view point")
    d1, d2 = c1.top_dirs[0], c2.top_dirs[0]
    c = abs(float(np.dot(d1, d2))) / (np.linalg.norm(d1) * np.linalg.norm(d2))
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class CurveJet:
    """Second-order data of a spatial curve: point, velocity, acceleration."""

    point: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    @staticmethod
    def of(point, d1, d2) -> "CurveJet":
        p = np.asarray(point, float).reshape(3)
        v = np.asarray(d1, float).reshape(3)
        a = np.asarray(d2, float).reshape(3)
        if not np.all(np.isfinite([p, v, a])):
            raise DegenerateJet("curve jet has non-finite entries")
        return CurveJet(p, v, a)


def curve_jet_on_surface(
    spec: FamilySpec,
    p: tuple[float, float],
    dp: tuple[float, float],
    ddp: tuple[float, float] = (0.0, 0.0),
) -> CurveJet:
    """2-jet of the surface curve s -> r(u(s), v(s)) given parameter jets."""
    jet = evaluate(spec, p[0], p[1], check=True)
    up, vp = float(dp[0]), float(dp[1])
    upp, vpp = float(ddp[0]), float(ddp[1])
    c1 = jet.ru * up + jet.rv * vp
    c2 = (jet.ruu * up * up + 2.0 * jet.ruv * up * vp + jet.rvv * vp * vp
          + jet.ru * upp + jet.rv * vpp)
    return CurveJet.of(jet.r, c1, c2)


def osculating_isotropic_circle(jet: CurveJet) -> IsoCircle:
    """The isotropic circle in second-order contact with the jet.

    Elliptic when the top view genuinely curves, parabolic when the top
    view is straight but the height accelerates, cylindric when the
    tangent is vertical. A straight-line jet has no circle and raises
    InflectionPoint. An isotropic carrier plane has a unit normal (n1, n2).
    """
    c, cp, cpp = jet.point, jet.d1, jet.d2
    tp = cp[:2]
    v = float(np.linalg.norm(tp))
    speed3 = float(np.linalg.norm(cp))
    if speed3 < 1e-14:
        raise DegenerateJet("curve is irregular at the point (zero velocity)")

    if v < 1e-12 * speed3:
        # vertical tangent: cylindric case
        w = cpp[:2]
        nw = float(np.linalg.norm(w))
        if nw > 1e-14:
            n1, n2 = -w[1] / nw, w[0] / nw
        else:
            n1, n2 = 1.0, 0.0
        d = -(n1 * c[0] + n2 * c[1])
        z = c[2] + np.linspace(-1.0, 1.0, CIRCLE_SAMPLES)
        pts = np.stack([np.full(CIRCLE_SAMPLES, c[0]), np.full(CIRCLE_SAMPLES, c[1]), z], -1)
        return IsoCircle(CYLINDRIC, (n1, n2, d), None, (float(c[0]), float(c[1])), 0.0, pts)

    kappa_top = _cross2(tp, cpp[:2]) / v ** 3
    if abs(kappa_top) >= _CURVATURE_TOL:
        # elliptic: contact equations for the carrier plane z = px+qy+s
        det = _cross2(tp, cpp[:2])
        p = (cp[2] * cpp[1] - cpp[2] * cp[1]) / det
        q = (cpp[2] * cp[0] - cp[2] * cpp[0]) / det
        s = c[2] - p * c[0] - q * c[1]
        That = tp / v
        nhat = np.array([-That[1], That[0]])
        center = c[:2] + nhat / kappa_top
        return elliptic_circle((float(center[0]), float(center[1])),
                               1.0 / abs(kappa_top), (p, q, s))

    # straight top view: height z as a function of top-view arclength
    z1 = cp[2] / v
    z2 = (cpp[2] * v * v - cp[2] * float(tp @ cpp[:2])) / v ** 4
    if abs(z2) < _CURVATURE_TOL:
        raise InflectionPoint("jet is straight to second order; no circle")
    That = tp / v
    return parabolic_circle(c[:2], That, tangent_sphere(c, z1 * That, z2))


def meusnier_check(
    spec: FamilySpec,
    p: tuple[float, float],
    T,
    curves: Sequence[CurveJet],
) -> float:
    """Max residual of the curves' osculating circles against the tangent sphere.

    All curves must touch the surface at p with top-view tangent T. Their
    osculating isotropic circles are predicted to lie on the parabolic
    sphere with A = kappa_n(T) (radius 1/kappa_n) tangent to the surface
    there; the return value is the worst algebraic sphere residual over the
    sampled circles.
    """
    jet = evaluate(spec, p[0], p[1], check=True)
    hj: Jet2Height = height_jet_from_param(jet)
    t = np.asarray(T, float).reshape(2)
    t = t / np.linalg.norm(t)
    kn = float(normal_curvature(hj, t))
    if abs(kn) < K_EPS:
        raise ZeroNormalCurvature("tangent sphere undefined along an asymptotic direction")
    sphere = tangent_sphere((hj.x0, hj.y0, hj.f), (hj.fx, hj.fy), kn)
    worst = 0.0
    for cj in curves:
        circ = osculating_isotropic_circle(cj)
        worst = max(worst, circ.algebraic_residual_on(sphere))
    return worst
