"""The metric duality of isotropic space and its curvature laws.

A point (p1, p2, p3) corresponds to the non-vertical plane
z = p1 x + p2 y - p3 and back again; the correspondence is an involution.
Applied to the tangent planes of an admissible surface it produces the
dual surface, whose curvatures satisfy K* = 1/K and H* = H/K.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import NonAdmissiblePoint
from .families import FamilySpec, evaluate
from .geometry import (
    FD_STEP,
    Jet2Height,
    ParamJet2,
    height_jet_from_param,
    isotropic_curvatures,
    monge_gradient,
)

DUAL_K_FLOOR = 1e-6  # the dual laws are checked where |K| is at least this


def _plane_point(x, y, z, fx, fy):
    # the tangent plane z = fx x + fy y + c through (x, y, z) is dual to (fx, fy, -c)
    return fx, fy, x * fx + y * fy - z


def dual_from_tangent(r, ru, rv) -> np.ndarray:
    """Dual surface point from first derivatives of a parameterization.

    The tangent plane at r is z = a x + b y + c with (a, b) the height
    gradient of geometry.monge_gradient; the dual point is (a, b, -c).
    r, ru, rv and the point are (x, y, z) triples, the point a (3, ...) array;
    raises NonAdmissiblePoint when any point is not admissible.
    """
    fx, fy, _det, singular = monge_gradient(ru, rv)
    if np.any(singular):
        raise NonAdmissiblePoint("tangent plane is vertical; dual point undefined")
    return np.stack(np.broadcast_arrays(*_plane_point(*r, fx, fy)))


def dual_surface_point(hj: Jet2Height):
    """Dual point of a Monge jet's tangent plane, as an (x, y, z) triple."""
    return _plane_point(hj.x0, hj.y0, hj.f, hj.fx, hj.fy)


def dual_velocity(jet: ParamJet2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact 1-jet (D, D_u, D_v) of the dual map from the primal 2-jet, each (3, ...).

    With D = (fx, fy, x fx + y fy - f), the height gradient's chain rule
    cancels the -f term, so D_u = (A, B, x A + y B) where (A, B) is the
    Hessian applied to the top view of r_u; same for D_v. Needs no third
    derivatives of the primal surface. Raises NonAdmissiblePoint where a
    point is not admissible.
    """
    hj = height_jet_from_param(jet)
    d = np.stack(np.broadcast_arrays(*dual_surface_point(hj)))
    (xu, yu, _zu), (xv, yv, _zv) = jet.ru, jet.rv
    au = hj.fxx * xu + hj.fxy * yu
    bu = hj.fxy * xu + hj.fyy * yu
    av = hj.fxx * xv + hj.fxy * yv
    bv = hj.fxy * xv + hj.fyy * yv
    du = np.stack(np.broadcast_arrays(au, bu, hj.x0 * au + hj.y0 * bu))
    dv = np.stack(np.broadcast_arrays(av, bv, hj.x0 * av + hj.y0 * bv))
    return d, du, dv


def dual_map_jet(jet_fn: Callable[[np.ndarray, np.ndarray], ParamJet2], u, v) -> ParamJet2:
    """2-jet of the dual surface by finite differences of the dual map.

    The dual point and its first chart derivatives are exact (primal 2-jet
    data only); the dual's second derivatives come from fourth-order
    stencils of those exact first derivatives at offsets +-1 and +-2
    FD_STEP, where the centre has weight 0. This keeps the
    check independent of primal third derivatives while avoiding the
    cancellation that direct second differences of large dual coordinates
    would suffer.

    u and v may be scalars or arrays of a common broadcast shape S; jet_fn
    is called once on the (S, 9) stencil (four u-offsets, four v-offsets,
    the centre) and must be vectorized. The fields come out as (3, S)
    arrays. Raises NonAdmissiblePoint when any stencil point has a vertical
    tangent.
    """
    u, v = np.broadcast_arrays(np.asarray(u, float)[..., None], np.asarray(v, float)[..., None])
    # stencil point i < 4 sits at offset steps[i] along u, point 4 + i at the
    # same offset along v, point 8 at the centre
    steps = np.array([-2, -1, 1, 2]) * FD_STEP
    U = np.concatenate([u + steps, np.repeat(u, 5, axis=-1)], axis=-1)
    V = np.concatenate([np.repeat(v, 4, axis=-1), v + steps, v], axis=-1)
    jet = jet_fn(U, V)
    d, du, dv = dual_velocity(jet)
    w1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * FD_STEP)
    ruu = sum(w * du[..., i] for i, w in enumerate(w1))
    rvv = sum(w * dv[..., 4 + i] for i, w in enumerate(w1))
    ruv = 0.5 * (sum(w * dv[..., i] for i, w in enumerate(w1))
                 + sum(w * du[..., 4 + i] for i, w in enumerate(w1)))
    return ParamJet2(r=d[..., 8], ru=du[..., 8], rv=dv[..., 8], ruu=ruu, ruv=ruv, rvv=rvv)


def dual_law_deviation(spec: FamilySpec, u, v, H, K) -> tuple[float, float]:
    """Max deviations of (K* K - 1, H* - H/K) given the primal H and K at (u, v).

    u, v, H and K are arrays (or scalars) of a common broadcast shape, H and
    K the primal curvatures at (u, v), e.g. a sampled grid's. Dual
    curvatures come from finite-difference jets of the exact dual points,
    one batched jet over all usable points. Points where the primal surface
    is too flat (|K| below DUAL_K_FLOOR, where 1/K is numerically meaningless)
    are skipped, and NonAdmissiblePoint is raised when none is left; NaN
    deviations are ignored.
    """
    U, V, H, K = np.broadcast_arrays(*(np.asarray(x, float) for x in (u, v, H, K)))
    keep = ~(np.abs(K) < DUAL_K_FLOOR)
    if not keep.any():
        raise NonAdmissiblePoint("no point had usable curvature for the dual check")
    K, H = K[keep], H[keep]
    # a chart this flat (spiral_ruled at |a| below about 5e-14) meets inf - inf
    # in the stencil Hessians and overflows the dual frame: NaN deviations
    with np.errstate(over="ignore", invalid="ignore"):
        dj = dual_map_jet(functools.partial(evaluate, spec, check=False, heights=False),
                          U[keep], V[keep])
        dcur = isotropic_curvatures(height_jet_from_param(dj))
    # fmax skips NaN deviations, as a running Python max would
    worst_k = np.fmax.reduce(np.abs(dcur.K * K - 1.0), initial=0.0)
    worst_h = np.fmax.reduce(np.abs(dcur.H - H / K), initial=0.0)
    return float(worst_k), float(worst_h)


def dual_curvature_check(spec: FamilySpec, u, v) -> tuple[float, float]:
    """Max deviations of (K* K - 1, H* - H/K) at the chart points (u, v).

    u and v are arrays (or scalars) of a common broadcast shape. The primal
    curvatures come from one chart evaluation at (u, v), the rest from
    dual_law_deviation. Raises NonAdmissiblePoint where a point is not
    admissible, and as dual_law_deviation does.
    """
    U, V = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    cur = isotropic_curvatures(height_jet_from_param(evaluate(spec, U, V, check=False,
                                                              heights=False)))
    return dual_law_deviation(spec, U, V, cur.H, cur.K)


def _grid(us, vs):
    return np.meshgrid(np.asarray(us, float).ravel(), np.asarray(vs, float).ravel(),
                       indexing="ij")


def involution_check(spec: FamilySpec, us: np.ndarray, vs: np.ndarray) -> float:
    """Max |dual(dual(r)) - r| over a grid, with the second dual via fd tangents."""
    U, V = _grid(us, vs)

    def D(uu, vv) -> np.ndarray:
        jet = evaluate(spec, uu, vv, check=False)
        return dual_from_tangent(jet.r, jet.ru, jet.rv)

    h = FD_STEP
    du = (D(U + h, V) - D(U - h, V)) / (2 * h)
    dv = (D(U, V + h) - D(U, V - h)) / (2 * h)
    jet = evaluate(spec, U, V, check=False)
    back = dual_from_tangent(dual_from_tangent(jet.r, jet.ru, jet.rv), du, dv)
    dev = np.max(np.abs(back - np.broadcast_arrays(*jet.r)), axis=0)
    # fmax skips points with a NaN deviation, as a running Python max would
    return float(np.fmax.reduce(dev.ravel(), initial=0.0))


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
    U, V = _grid(us, vs)
    jet = evaluate(spec, U, V, check=False)
    top = np.stack([np.broadcast_to(c, U.shape) for c in jet.r[:2]], axis=-1)  # (nu, nv, 2)
    worst_line = max(0.0, *map(line_fit_residual, (*top, *top.transpose(1, 0, 2))))

    hj = height_jet_from_param(jet)
    (xu, yu, _zu), (xv, yv, _zv) = jet.ru, jet.rv
    # unit top-view net tangents; sqrt(x*x + y*y) is np.linalg.norm's bits
    lu, lv = np.sqrt(xu * xu + yu * yu), np.sqrt(xv * xv + yv * yv)
    cux, cuy, cvx, cvy = xu / lu, yu / lu, xv / lv, yv / lv
    conj = cux * (hj.fxx * cvx + hj.fxy * cvy) + cuy * (hj.fxy * cvx + hj.fyy * cvy)
    return worst_line, float(np.fmax.reduce(np.abs(conj).ravel(), initial=0.0))
