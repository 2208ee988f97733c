"""Point/plane duality for the degenerate metric and its curvature laws.

A point (p1, p2, p3) corresponds to the non-vertical plane
z = p1 x + p2 y - p3 and back again; the correspondence is an involution.
Distances between points (top-view distance) equal angles between the
dual planes. Applied pointwise to an admissible surface the map produces
the dual surface, whose curvatures satisfy K* = 1/K and H* = H/K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonAdmissiblePoint
from .families import FamilySpec, evaluate
from .geometry import (
    Jet2Height,
    ParamJet2,
    height_jet_from_param,
    isotropic_curvatures,
)


@dataclass(frozen=True)
class NonIsoPlane:
    """Non-vertical plane z = p1 x + p2 y - p3."""

    p1: float
    p2: float
    p3: float

    def height(self, x, y):
        return self.p1 * np.asarray(x, float) + self.p2 * np.asarray(y, float) - self.p3


def dual_point(point) -> NonIsoPlane:
    """Plane dual to a point."""
    p = np.asarray(point, float).reshape(3)
    return NonIsoPlane(float(p[0]), float(p[1]), float(p[2]))


def dual_plane(plane: NonIsoPlane) -> np.ndarray:
    """Point dual to a plane (exact inverse of dual_point)."""
    return np.array([plane.p1, plane.p2, plane.p3])


def isotropic_distance(p, q) -> float:
    """Distance in the degenerate metric: top-view Euclidean distance."""
    p = np.asarray(p, float).reshape(3)
    q = np.asarray(q, float).reshape(3)
    return math.hypot(p[0] - q[0], p[1] - q[1])


def isotropic_angle(e1: NonIsoPlane, e2: NonIsoPlane) -> float:
    """Angle between two non-vertical planes; equals the dual points' distance."""
    return math.hypot(e1.p1 - e2.p1, e1.p2 - e2.p2)


def dual_from_tangent(r, ru, rv) -> np.ndarray:
    """Dual surface point from first derivatives of a parameterization.

    The tangent plane at r is z = a x + b y + c with (a, b) solving the
    two-by-two top-view system; the dual point is (a, b, -c). Vectorized
    over leading axes (vectors in the last axis); raises NonAdmissiblePoint
    when any tangent plane is vertical.
    """
    r = np.asarray(r, float)
    ru = np.asarray(ru, float)
    rv = np.asarray(rv, float)
    det = ru[..., 0] * rv[..., 1] - ru[..., 1] * rv[..., 0]
    size = np.linalg.norm(ru, axis=-1) * np.linalg.norm(rv, axis=-1)
    if np.any(np.abs(det) < 1e-14 * np.maximum(1.0, size)):
        raise NonAdmissiblePoint("tangent plane is vertical; dual point undefined")
    a = (ru[..., 2] * rv[..., 1] - rv[..., 2] * ru[..., 1]) / det
    b = (ru[..., 0] * rv[..., 2] - rv[..., 0] * ru[..., 2]) / det
    c = r[..., 2] - a * r[..., 0] - b * r[..., 1]
    return np.stack([a, b, -c], axis=-1)


def dual_surface_point(jet) -> np.ndarray:
    """Dual point of a surface jet (ParamJet2 or Jet2Height), shape (..., 3)."""
    if isinstance(jet, Jet2Height):
        fx, fy = np.asarray(jet.fx, float), np.asarray(jet.fy, float)
        return np.stack(np.broadcast_arrays(
            fx, fy, jet.x0 * fx + jet.y0 * fy - jet.f), axis=-1)
    j: ParamJet2 = jet
    return dual_from_tangent(j.r, j.ru, j.rv)


def dual_velocity(jet: ParamJet2) -> tuple[np.ndarray, np.ndarray]:
    """Exact chart derivatives of the dual map from the primal 2-jet.

    With D = (fx, fy, x fx + y fy - f), the height gradient's chain rule
    cancels the -f term, so D_u = (A, B, x A + y B) where (A, B) is the
    Hessian applied to the top view of r_u; same for D_v. Needs no third
    derivatives of the primal surface.
    """
    hj = height_jet_from_param(jet)
    xu, yu = jet.ru[..., 0], jet.ru[..., 1]
    xv, yv = jet.rv[..., 0], jet.rv[..., 1]
    au = hj.fxx * xu + hj.fxy * yu
    bu = hj.fxy * xu + hj.fyy * yu
    av = hj.fxx * xv + hj.fxy * yv
    bv = hj.fxy * xv + hj.fyy * yv
    du = np.stack([au, bu, hj.x0 * au + hj.y0 * bu], axis=-1)
    dv = np.stack([av, bv, hj.x0 * av + hj.y0 * bv], axis=-1)
    return du, dv


def dual_map_jet(
    jet_fn: Callable[[np.ndarray, np.ndarray], ParamJet2],
    u,
    v,
    h: float = 1e-4,
) -> ParamJet2:
    """2-jet of the dual surface by finite differences of the dual map.

    The dual point and its first chart derivatives are exact (primal 2-jet
    data only); the dual's second derivatives come from fourth-order
    stencils of those exact first derivatives at step h. This keeps the
    check independent of primal third derivatives while avoiding the
    cancellation that direct second differences of large dual coordinates
    would suffer.

    u and v may be scalars or arrays of a common broadcast shape S; jet_fn
    is called once on the (S, 11) stencil (five u-offsets, five v-offsets,
    the centre) and must be vectorized. The fields come out shaped (S, 3).
    Raises NonAdmissiblePoint when any stencil point has a vertical tangent.
    """
    u, v = np.broadcast_arrays(np.asarray(u, float)[..., None], np.asarray(v, float)[..., None])
    # stencil point i < 5 sits at offset (i - 2) h along u, point 5 + i at
    # the same offset along v, point 10 at the centre
    steps = np.arange(-2, 3) * h
    U = np.concatenate([u + steps, np.repeat(u, 6, axis=-1)], axis=-1)
    V = np.concatenate([np.repeat(v, 5, axis=-1), v + steps, v], axis=-1)
    jet = jet_fn(U, V)
    du, dv = dual_velocity(jet)
    r = dual_from_tangent(jet.r[..., 10, :], jet.ru[..., 10, :], jet.rv[..., 10, :])
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    ruu = sum(w * du[..., i, :] for i, w in enumerate(w1))
    rvv = sum(w * dv[..., 5 + i, :] for i, w in enumerate(w1))
    ruv = 0.5 * (sum(w * dv[..., i, :] for i, w in enumerate(w1))
                 + sum(w * du[..., 5 + i, :] for i, w in enumerate(w1)))
    return ParamJet2(r=r, ru=du[..., 10, :], rv=dv[..., 10, :], ruu=ruu, ruv=ruv, rvv=rvv)


def dual_curvature_check(
    spec: FamilySpec,
    us: np.ndarray,
    vs: np.ndarray,
    h: float = 1e-4,
    k_floor: float = 1e-6,
) -> tuple[float, float]:
    """Max deviations of (K* K - 1, H* - H/K) over a parameter grid.

    Dual curvatures come from finite-difference jets of the exact dual
    points, one batched jet over all usable nodes. Grid nodes where the
    primal surface is too flat (|K| below k_floor, where 1/K is
    numerically meaningless) are skipped; NaN deviations are ignored.
    """
    def jet_fn(uu, vv) -> ParamJet2:
        return evaluate(spec, uu, vv, check=False)

    U, V = np.meshgrid(np.asarray(us, float).ravel(), np.asarray(vs, float).ravel(),
                       indexing="ij")
    cur = isotropic_curvatures(height_jet_from_param(jet_fn(U, V)))
    K, H = cur.K, cur.H
    keep = ~(np.abs(K) < k_floor)
    if not keep.any():
        raise NonAdmissiblePoint("no grid node had usable curvature for the dual check")
    K, H = K[keep], H[keep]
    dj = dual_map_jet(jet_fn, U[keep], V[keep], h=h)
    dcur = isotropic_curvatures(height_jet_from_param(dj))
    # fmax skips NaN deviations, as a running Python max would
    worst_k = np.fmax.reduce(np.abs(dcur.K * K - 1.0), initial=0.0)
    worst_h = np.fmax.reduce(np.abs(dcur.H - H / K), initial=0.0)
    return float(worst_k), float(worst_h)


def involution_check(
    spec: FamilySpec,
    us: np.ndarray,
    vs: np.ndarray,
    h: float = 1e-4,
) -> float:
    """Max |dual(dual(r)) - r| over a grid, with the second dual via fd tangents."""
    worst = 0.0
    for u in np.asarray(us, float).ravel():
        for v in np.asarray(vs, float).ravel():
            def D(uu: float, vv: float) -> np.ndarray:
                return dual_surface_point(evaluate(spec, uu, vv, check=False))

            r0 = np.asarray(evaluate(spec, u, v, check=False).r, float).reshape(3)
            d0 = D(u, v)
            du = (D(u + h, v) - D(u - h, v)) / (2 * h)
            dv = (D(u, v + h) - D(u, v - h)) / (2 * h)
            back = dual_from_tangent(d0, du, dv)
            worst = max(worst, float(np.max(np.abs(back - r0))))
    return worst


def line_fit_residual(points: np.ndarray) -> float:
    """Max distance of planar points from their total-least-squares line."""
    P = np.asarray(points, float)
    c = P.mean(axis=0)
    Q = P - c
    _, _, vt = np.linalg.svd(Q, full_matrices=False)
    n = vt[-1]  # unit normal of the best line
    return float(np.max(np.abs(Q @ n)))


def conjugate_geodesic_net_check(
    spec: FamilySpec,
    us: np.ndarray,
    vs: np.ndarray,
) -> tuple[float, float]:
    """(line residual, conjugacy residual) of the parameter net.

    The net is by straight lines in the top view when every u- and
    v-isoline projects onto a line (first value: worst line-fit
    deviation), and conjugate when the mixed second fundamental form
    vanishes in net directions (second value: worst |cu^T Hess cv| with
    unit top-view net tangents).
    """
    us = np.asarray(us, float).ravel()
    vs = np.asarray(vs, float).ravel()
    worst_line = 0.0
    for u in us:
        pts = np.stack([evaluate(spec, u, v, check=False).r[:2] for v in vs])
        worst_line = max(worst_line, line_fit_residual(pts))
    for v in vs:
        pts = np.stack([evaluate(spec, u, v, check=False).r[:2] for u in us])
        worst_line = max(worst_line, line_fit_residual(pts))

    worst_conj = 0.0
    for u in us:
        for v in vs:
            jet = evaluate(spec, u, v, check=False)
            hj = height_jet_from_param(jet)
            hess = np.array([[hj.fxx, hj.fxy], [hj.fxy, hj.fyy]])
            cu = np.asarray(jet.ru[:2], float)
            cv = np.asarray(jet.rv[:2], float)
            cu = cu / np.linalg.norm(cu)
            cv = cv / np.linalg.norm(cv)
            worst_conj = max(worst_conj, abs(float(cu @ hess @ cv)))
    return worst_line, worst_conj
