"""Residuals of the generating equations behind the surface families.

Each family in the catalog solves a reduced equation: an ODE for the
profile of a rotational, helical or ruled spiral surface, or an algebraic
identity between the two profile functions of a translational surface. The
helpers here evaluate those equations from profile derivatives; all of them
work elementwise on scalars or arrays, and refuse the ratios that
geometry.crpc_target refuses. family_ode_residual evaluates a catalog
entry's chart once on all given nodes and applies the family's equation
from EQUATIONS to the chart's components or to the profile the chart is
built from. No equation runs the Monge conversion or a curvature function,
so the check is independent of the curvature pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .families import (FamilySpec, _helical_general_profile, _log_cos_profile, _tin_profile,
                       _trans_iso_noniso, evaluate, ratio_for_residual)
from .geometry import crpc_target, principal_ratio_residual

@dataclass(frozen=True)
class OdeResidual:
    """Both sides of a generating equation, at one point or elementwise."""

    lhs: float | np.ndarray
    rhs: float | np.ndarray

    @property
    def raw(self):
        return self.lhs - self.rhs

    @property
    def normalized(self):
        scale = np.maximum(np.maximum(np.abs(self.lhs), np.abs(self.rhs)), 1.0)
        return (self.lhs - self.rhs) / scale


def helical_ode_residual(fp, fpp, u, a: float) -> OdeResidual:
    """Profile equation of the unit-pitch helical families.

    With z = f(r) + angle, constant curvature ratio a at radius u reads
    a u^2 (f' + u f'')^2 = (a+1)^2 (u^3 f'' f' - 1).
    """
    crpc_target(a)
    lhs = a * u * u * (fp + u * fpp) ** 2
    rhs = (a + 1.0) ** 2 * (u ** 3 * fpp * fp - 1.0)
    return OdeResidual(lhs, rhs)


def two_iso_residual(a: float, fpp, gpp) -> OdeResidual:
    """Profile identity of a translational surface with both generators in
    isotropic planes, chart (u, v, f(u) + g(v)):
    (1 + f''/g'')^2 = ((a+1)^2/a) f''/g''.

    Elementwise. Raises DegenerateInput where f'' g'' = 0 at any point
    (the ratio is undefined there).
    """
    c = 4.0 * crpc_target(a)
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f'' g'' = 0: flat generator, ratio undefined")
    ratio = fpp / gpp
    return OdeResidual((1.0 + ratio) ** 2, c * ratio)


def iso_noniso_residual(a: float, fp, fpp, gp, gpp) -> OdeResidual:
    """Profile identity of a translational surface with one generator in an
    isotropic plane, chart (v, -u + g(v), f(u)):
    ((1+g'^2) f''/f' + g'')^2 = ((a+1)^2/a) (f''/f') g''.

    Elementwise. Raises DegenerateInput where f' f'' g'' = 0 at any point.
    """
    c = 4.0 * crpc_target(a)
    if np.any(fp == 0.0):
        raise DegenerateInput("f' = 0: chart is not a graph there")
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f' f'' g'' = 0: ratio undefined")
    ratio = fpp / fp
    return OdeResidual(((1.0 + gp * gp) * ratio + gpp) ** 2, c * ratio * gpp)


def noniso_noniso_residual(a: float, fp, fpp, gp, gpp) -> OdeResidual:
    """Profile identity of a translational surface with no generator in an
    isotropic plane, chart (u+v, f(u)+g(v), u):
    ((1+f'^2) g'' + (1+g'^2) f'')^2 = ((a+1)^2/a) f'' g'' (f'-g')^2.

    Elementwise. Raises DegenerateInput where f' = g' (a vertical tangent
    plane) or f'' g'' = 0 at any point.
    """
    c = 4.0 * crpc_target(a)
    if np.any(fp == gp):
        raise DegenerateInput("f' = g': tangent plane is vertical there")
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f'' g'' = 0: ratio undefined")
    lhs = ((1.0 + fp * fp) * gpp + (1.0 + gp * gp) * fpp) ** 2
    return OdeResidual(lhs, c * fpp * gpp * (fp - gp) ** 2)


def discriminant_identity_check(a: float, gp, L0, L1, Y) -> OdeResidual:
    """Discriminant factorization used to solve the mixed translational case.

    The profile identity, read as a quadratic q_a X^2 + q_b X + q_c = 0 in
    the remaining second derivative X, has discriminant q_b^2 - 4 q_a q_c
    that factors as (a+1)^2 (Y - g')^2 L^2 times an explicit quadratic in
    Y, where L = L0 + L1 Y stands for the linear slot multiplying g''.
    Both sides as an OdeResidual, elementwise in gp, L0, L1 and Y.
    """
    crpc_target(a)
    L = L0 + L1 * Y
    gp2 = gp * gp
    qa = a * (gp2 + 1.0) ** 2
    qb = (2.0 * a * (gp2 + 1.0) * (Y * Y + 1.0) * L
          - (a + 1.0) ** 2 * (Y - gp) ** 2 * L)
    qc = a * (Y * Y + 1.0) ** 2 * L * L
    lhs = qb * qb - 4.0 * qa * qc
    quad_y = ((a - 1.0) ** 2 * gp2 - 4.0 * a
              - 2.0 * (a + 1.0) ** 2 * gp * Y
              + ((a - 1.0) ** 2 - 4.0 * a * gp2) * Y * Y)
    rhs = (a + 1.0) ** 2 * (Y - gp) ** 2 * L * L * quad_y
    return OdeResidual(lhs, rhs)


def _tin_normal_form(a: float, v, r, rv, rvv):
    """iso_noniso profile jets hidden in the mixed translational chart, from
    its components r, rv and rvv at (u, v).

    The chart straightens to (X, -t + g(X), f(t)) with t = (b^2-1) u,
    X = v + b cos v, f(t) = exp(t/(b^2-1)) and g the height of the
    non-isotropic generator over X: f', f'' are the chart's z over B2, B2^2,
    and g', g'' quotients of its y_v, y_vv, x_v, x_vv. Elementwise; a
    degenerate generator at v is refused before the components are read.
    """
    b, B2, s, _c, beta = _tin_profile(a, v)
    if np.any((np.abs(1.0 - b * s) < 1e-12) | (np.abs(beta) < 1e-12)):
        raise DegenerateInput("generator parameterization is singular there")
    (xp, yp, _zv), (xpp, ypp, _zvv), z = rv, rvv, r[2]
    return z / B2, z / (B2 * B2), yp / xp, (ypp * xp - yp * xpp) / xp ** 3


# ---------------------------------------------------------------------------
# one generating equation per family, elementwise over the chart nodes U, V.
# Where the chart is the graph of the profile (polar charts: z = h(u) + g(v);
# two-isotropic charts: z = f(u) + g(v)), the profile derivatives are the jet's
# z-components; elsewhere the chart's profile, or a dual's primal chart, gives them.


def _rotational(spec, U, V, jet):
    # principal curvatures h'' and h'/u of the profile, scaled by u
    return principal_ratio_residual(U * jet.ruu[2], jet.ru[2],
                                    ratio_for_residual(spec))


def _euclidean_rotational(spec, U, V, jet):
    # Euclidean principal curvatures h''/w^3 and h'/(u w), w^2 = 1 + h'^2,
    # scaled by u w^3: the profile law u h'' = a h' (1 + h'^2)
    hp = jet.ru[2]
    return principal_ratio_residual(U * jet.ruu[2], hp * (1.0 + hp * hp), spec.params["a"])


def _helical(spec, U, V, jet):
    return np.abs(helical_ode_residual(
        jet.ru[2], jet.ruu[2], U, ratio_for_residual(spec)).normalized)


def _helical_general(spec, U, V, jet):
    a = spec.params["a"]
    w, wp, wpp, _zeta, zu, zuu = _helical_general_profile(a, U)
    fp = zu / wp
    fpp = (zuu * wp - zu * wpp) / wp ** 3
    return np.abs(helical_ode_residual(fp, fpp, w, a).normalized)


def _two_iso(spec, U, V, jet):
    # the quadric charts give f'' and g'' as constants, read at every node;
    # on the paraboloid f''/g'' is 1/a: for |a| below about 1e-154 both sides
    # overflow, and the residual is NaN, as the ratio residual of so flat a
    # grid is
    fpp, gpp = np.broadcast_arrays(U, jet.ruu[2], jet.rvv[2])[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(two_iso_residual(spec.params["a"], fpp, gpp).normalized)


def _iso_noniso(spec, U, V, jet):
    a, r, rv, rvv = spec.params["a"], jet.r, jet.rv, jet.rvv
    if spec.family_id == "dual_trans_iso_noniso":
        # the identity of the primal chart, run as evaluate runs it
        with np.errstate(all="ignore"):
            r, _ru, rv, _ruu, _ruv, rvv = _trans_iso_noniso(spec.params, U, V)
    return np.abs(iso_noniso_residual(a, *_tin_normal_form(a, V, r, rv, rvv)).normalized)


def _noniso_noniso(spec, U, V, jet):
    # the log-cos pair f = log|cos u|, g = -log|cos v|
    tu, tv, su, sv = _log_cos_profile(U, V)
    return np.abs(noniso_noniso_residual(-1.0, -tu, -su, tv, sv).normalized)


def _right_conoid(spec, U, V, jet):
    # the right conoid z = phi(v) meets the target c where phi''^2 = -4 c phi'^2;
    # a nearly flat spiral overflows phi', and the residual is NaN there
    php, phpp, c = jet.rv[2], jet.rvv[2], crpc_target(spec.params["a"])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(OdeResidual(phpp * phpp, -4.0 * c * php * php).normalized)


# family id -> equation; the duals audit the identity of their primal surface
EQUATIONS = {
    **dict.fromkeys(("paraboloid", "trans_paraboloid"), _two_iso),
    **dict.fromkeys(("rotational_power_1", "rotational_power_2", "logarithmoid"), _rotational),
    **dict.fromkeys(("helicoid", "helical_log"), _helical),
    "helical_general": _helical_general,
    **dict.fromkeys(("trans_iso_noniso", "dual_trans_iso_noniso"), _iso_noniso),
    **dict.fromkeys(("trans_noniso_noniso", "dual_trans_minimal"), _noniso_noniso),
    "euclidean_rotational": _euclidean_rotational, "spiral_ruled": _right_conoid,
}


def family_ode_residual(spec: FamilySpec, u, v):
    """Normalized residual of the family's own generating equation at (u, v).

    Elementwise over scalars or arrays: the chart is evaluated once,
    unchecked and without heights (no equation reads one), on all nodes,
    and EQUATIONS names the family's equation. Raises the equation's
    GeometryError if any node is degenerate; a node so flat that the
    equation overflows gives NaN instead. spec comes from make_spec, so its
    family is in the catalog, which EQUATIONS covers.
    """
    U, V = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    return EQUATIONS[spec.family_id](spec, U, V, evaluate(spec, U, V, check=False, heights=False))
