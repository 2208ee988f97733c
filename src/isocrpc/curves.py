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
    GeometryError,
    InflectionPoint,
    InvalidParams,
    NoIntersection,
    Umbilic,
    UmbilicEncountered,
    ZeroNormalCurvature,
)
from .families import FamilySpec, evaluate
from .geometry import (
    K_EPS,
    Jet2Height,
    characteristic_directions,
    height_jet_from_param,
    isotropic_curvatures,
    normal_curvature,
)
from .meshing import format_rows, write_text
from .spheres import (CIRCLE_SAMPLES, CYLINDRIC, PARABOLIC, IsoCircle, ParabolicSphere,
                      elliptic_circle, tangent_sphere)

TRACE_KINDS = ("characteristic+", "characteristic-", "principal1", "principal2")
MAX_TRACE_STEPS = 1_000_000  # 56 bytes a step: bounds a trace's memory and time
_CURVATURE_TOL = 1e-10  # below it an osculating circle's curvature counts as zero


@dataclass(frozen=True)
class CurveTrace:
    """Sampled curve on a surface: parameter values, points, top-view tangents.

    t is cumulative top-view arclength (the integrated field has unit
    top-view speed). uv carries the parameter-plane path when the trace
    came from a chart; stopped records why integration ended early.
    """

    kind: str
    t: np.ndarray  # (n,)
    uv: np.ndarray | None  # (n, 2) or None
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


def _field_direction(spec: FamilySpec, u: float, v: float, kind: str, ref):
    """Unit top-view direction (dx, dy) of the chosen field, sign-aligned
    with the direction ref, the parameter velocity (du, dv) whose top view
    it is, and the chart point (x, y, z), all as floats."""
    jet = evaluate(spec, u, v, check=True)
    fields = (jet.r, jet.ru, jet.rv, jet.ruu, jet.ruv, jet.rvv)
    values = [c for field in fields for c in field.tolist()]
    if not all(map(math.isfinite, values)):
        raise DegenerateJet("chart jet is not finite")
    # far out (a huge step), the admissibility test's frame scale overflows
    xu, yu, _, xv, yv = values[3:8]
    if not math.isfinite(xu * xu + yu * yu + xv * xv + yv * yv):
        raise DegenerateJet("top-view frame overflows")
    hj = height_jet_from_param(jet, values)
    if kind in ("characteristic+", "characteristic-"):
        tp, tm = characteristic_directions(hj)
        d = tp if kind == "characteristic+" else tm
    else:
        cur = isotropic_curvatures(hj)
        if cur.umbilic.any():
            raise Umbilic("principal directions undefined at an umbilic")
        d = cur.d1 if kind == "principal1" else cur.d2
    dx, dy = d.tolist()
    # NaN and inf fail the test too; the (0, 0) of an overflowed Hessian
    # would not move the trace
    if not 0.5 <= dx * dx + dy * dy <= 2.0:
        raise DegenerateJet("field direction is not a unit vector")
    if ref is not None and dx * ref[0] + dy * ref[1] < 0.0:
        dx, dy = -dx, -dy
    # solve J [du dv]^T = (dx, dy); the jet passed height_jet_from_param's
    # admissibility test, so det != 0
    det = xu * yv - yu * xv
    return (dx, dy), ((dx * yv - dy * xv) / det, (xu * dy - yu * dx) / det), values[:3]


# a nearly flat chart can overflow the curvature arithmetic of a stage; a
# direction that comes out non-finite or of length 0 stops the trace with
# DegenerateJet
@np.errstate(over="ignore", invalid="ignore")
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
    parameter state among them), umbilic hit, non-finite chart jet, or a
    direction that is not a unit vector after the first sample truncates
    the trace before that sample (stopped says why); at the seed itself an
    umbilic raises UmbilicEncountered and other geometry errors propagate.
    dt must be finite and positive, and steps at most MAX_TRACE_STEPS. A
    step evaluates the chart four times: its first stage is the accepted
    sample's velocity.
    """
    if kind not in TRACE_KINDS:
        raise ValueError(f"kind must be one of {TRACE_KINDS}")
    if steps > MAX_TRACE_STEPS:
        raise InvalidParams(f"{steps} trace steps is more than {MAX_TRACE_STEPS}")
    if steps < 1 or not 0.0 < dt < math.inf:
        raise ValueError("steps must be >= 1 and dt finite and > 0")
    u, v = float(seed[0]), float(seed[1])
    try:
        d, (du, dv), point = _field_direction(spec, u, v, kind, None)
    except Umbilic as exc:
        raise UmbilicEncountered(str(exc)) from exc

    samples = array("d", (u, v, *point, *d))  # 7 floats per sample
    stopped = None

    def rhs(uu, vv):
        return _field_direction(spec, uu, vv, kind, ref)[1]

    for _ in range(steps):
        # d aligned against itself never flips, so the chart evaluated at
        # the accepted sample again would give k1 = (du, dv) exactly
        ref = d
        try:
            k2u, k2v = rhs(u + 0.5 * dt * du, v + 0.5 * dt * dv)
            k3u, k3v = rhs(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
            k4u, k4v = rhs(u + dt * k3u, v + dt * k3v)
            u += dt / 6.0 * (du + 2.0 * k2u + 2.0 * k3u + k4u)
            v += dt / 6.0 * (dv + 2.0 * k2v + 2.0 * k3v + k4v)
            d, (du, dv), point = _field_direction(spec, u, v, kind, ref)
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
    sigma = np.linspace(-1.0, 1.0, CIRCLE_SAMPLES)
    x = c[0] + That[0] * sigma
    y = c[1] + That[1] * sigma
    z = c[2] + z1 * sigma + 0.5 * z2 * sigma * sigma
    n1, n2 = -That[1], That[0]
    d = -(n1 * c[0] + n2 * c[1])
    A = z2
    B = 2.0 * (z1 * That[0] - A * c[0])
    C = 2.0 * (z1 * That[1] - A * c[1])
    D = 2.0 * c[2] - A * (c[0] ** 2 + c[1] ** 2) - B * c[0] - C * c[1]
    return IsoCircle(PARABOLIC, (n1, n2, d), ParabolicSphere(A, B, C, D), None, None,
                     np.stack([x, y, z], -1))


def meusnier_check(
    spec: FamilySpec,
    p: tuple[float, float],
    T,
    curves: Sequence[CurveJet],
) -> float:
    """Max residual of the curves' osculating circles against the tangent sphere.

    All curves must touch the surface at p with top-view tangent T. Their
    osculating isotropic circles are predicted to lie on the parabolic
    sphere of radius 1/kappa_n(T) tangent to the surface there; the return
    value is the worst algebraic sphere residual over the sampled circles.
    """
    jet = evaluate(spec, p[0], p[1], check=True)
    hj: Jet2Height = height_jet_from_param(jet)
    t = np.asarray(T, float).reshape(2)
    t = t / np.linalg.norm(t)
    kn = float(normal_curvature(hj, t))
    if abs(kn) < K_EPS:
        raise ZeroNormalCurvature("tangent sphere undefined along an asymptotic direction")
    sphere = tangent_sphere(hj, 1.0 / kn)
    worst = 0.0
    for cj in curves:
        circ = osculating_isotropic_circle(cj)
        worst = max(worst, circ.algebraic_residual_on(sphere))
    return worst
