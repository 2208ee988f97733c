"""Residuals of the generating equations behind the surface families.

Each family in the catalog solves a reduced equation: an ODE for the
profile of a rotational or helical surface, or an algebraic identity
between the two profile functions of a translational surface. The helpers
here evaluate those equations directly from profile derivatives, giving a
check that is independent of the curvature pipeline; all of them work
elementwise on scalars or arrays, and refuse the ratios that
geometry.crpc_target refuses. family_ode_residual evaluates a catalog
entry's chart once on all given nodes and applies the family's equation
from EQUATIONS, reading the profile derivatives off the chart jet where the
chart is the graph of the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .families import (FamilySpec, _helical_general_profile, _tin_profile, evaluate,
                       ratio_for_residual, ratio_kind)
from .geometry import (crpc_target, height_jet_from_param, principal_ratio_residual,
                       ratio_law_residual, relative_curvatures)

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
    crpc_target(a)
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f'' g'' = 0: flat generator, ratio undefined")
    ratio = fpp / gpp
    return OdeResidual((1.0 + ratio) ** 2, (a + 1.0) ** 2 / a * ratio)


def iso_noniso_residual(a: float, fp, fpp, gp, gpp) -> OdeResidual:
    """Profile identity of a translational surface with one generator in an
    isotropic plane, chart (v, -u + g(v), f(u)):
    ((1+g'^2) f''/f' + g'')^2 = ((a+1)^2/a) (f''/f') g''.

    Elementwise. Raises DegenerateInput where f' f'' g'' = 0 at any point.
    """
    crpc_target(a)
    if np.any(fp == 0.0):
        raise DegenerateInput("f' = 0: chart is not a graph there")
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f' f'' g'' = 0: ratio undefined")
    ratio = fpp / fp
    return OdeResidual(((1.0 + gp * gp) * ratio + gpp) ** 2, (a + 1.0) ** 2 / a * ratio * gpp)


def noniso_noniso_residual(a: float, fp, fpp, gp, gpp) -> OdeResidual:
    """Profile identity of a translational surface with no generator in an
    isotropic plane, chart (u+v, f(u)+g(v), u):
    ((1+f'^2) g'' + (1+g'^2) f'')^2 = ((a+1)^2/a) f'' g'' (f'-g')^2.

    Elementwise. Raises DegenerateInput where f' = g' (a vertical tangent
    plane) or f'' g'' = 0 at any point.
    """
    crpc_target(a)
    if np.any(fp == gp):
        raise DegenerateInput("f' = g': tangent plane is vertical there")
    if np.any((fpp == 0.0) | (gpp == 0.0)):
        raise DegenerateInput("f'' g'' = 0: ratio undefined")
    lhs = ((1.0 + fp * fp) * gpp + (1.0 + gp * gp) * fpp) ** 2
    return OdeResidual(lhs, (a + 1.0) ** 2 / a * fpp * gpp * (fp - gp) ** 2)


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


def _tin_normal_form(a: float, u, v):
    """iso_noniso profile jets hidden in the mixed translational chart.

    The chart straightens to (X, -t + g(X), f(t)) with t = (b^2-1) u,
    X = v + b cos v, f(t) = exp(t/(b^2-1)) and g the height of the
    non-isotropic generator over X. Elementwise in u and v.
    """
    b, B2, s, c, beta = _tin_profile(a, v)
    xp = 1.0 - b * s
    if np.any((np.abs(xp) < 1e-12) | (np.abs(beta) < 1e-12)):
        raise DegenerateInput("generator parameterization is singular there")
    xpp = -b * c
    num = c * xp
    nump = -s - b * np.cos(2.0 * v)
    Gp = num / beta
    Gpp = (nump * beta + num * c) / (beta * beta)
    gp = Gp / xp
    gpp = (Gpp * xp - Gp * xpp) / xp ** 3
    e = np.exp(u)
    return e / B2, e / (B2 * B2), gp, gpp


# ---------------------------------------------------------------------------
# one generating equation per family, elementwise over the chart nodes U, V.
# Where the chart is the graph of the profile (polar charts: z = h(u) + pitch
# v; two-isotropic charts: z = f(u) + g(v)), the profile derivatives are the
# z-components of the jet; elsewhere a closed form supplies them.


def _rotational(spec, U, V, jet):
    # principal curvatures h'' and h'/u of the profile, scaled by u
    return principal_ratio_residual(U * jet.ruu[..., 2], jet.ru[..., 2],
                                    ratio_for_residual(spec))


def _helical(spec, U, V, jet):
    return np.abs(helical_ode_residual(
        jet.ru[..., 2], jet.ruu[..., 2], U, ratio_for_residual(spec)).normalized)


def _helical_general(spec, U, V, jet):
    a = spec.params["a"]
    w, wp, wpp, _zeta, zu, zuu = _helical_general_profile(a, U)
    fp = zu / wp
    fpp = (zuu * wp - zu * wpp) / wp ** 3
    return np.abs(helical_ode_residual(fp, fpp, w, a).normalized)


def _two_iso(spec, U, V, jet):
    # on the paraboloid f''/g'' is 1/a: for |a| below about 1e-154 both sides
    # overflow, and the residual is NaN, as the ratio residual of so flat a
    # grid is
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(two_iso_residual(spec.params["a"], jet.ruu[..., 2],
                                       jet.rvv[..., 2]).normalized)


def _iso_noniso(spec, U, V, jet):
    a = spec.params["a"]
    fp, fpp, gp, gpp = _tin_normal_form(a, U, V)
    return np.abs(iso_noniso_residual(a, fp, fpp, gp, gpp).normalized)


def _noniso_noniso(spec, U, V, jet):
    # the log-cos pair f = log|cos u|, g = -log|cos v|
    tu, tv = np.tan(U), np.tan(V)
    return np.abs(noniso_noniso_residual(-1.0, -tu, -(1.0 + tu * tu), tv,
                                         1.0 + tv * tv).normalized)


def _ratio_law(spec, U, V, jet):
    # no reduced equation: the chart's own curvature-ratio condition, NaN at
    # the nodes too flat for it, as in the grid's residual channel
    hjet = height_jet_from_param(jet)
    return np.abs(ratio_law_residual(hjet, *relative_curvatures(hjet), ratio_for_residual(spec),
                                     ratio_kind(spec) == "euclidean"))


# family id -> equation; the duals audit the identity of their primal surface
EQUATIONS = {
    **dict.fromkeys(("paraboloid", "trans_paraboloid"), _two_iso),
    **dict.fromkeys(("rotational_power_1", "rotational_power_2", "logarithmoid"), _rotational),
    **dict.fromkeys(("helicoid", "helical_log"), _helical),
    "helical_general": _helical_general,
    **dict.fromkeys(("trans_iso_noniso", "dual_trans_iso_noniso"), _iso_noniso),
    **dict.fromkeys(("trans_noniso_noniso", "dual_trans_minimal"), _noniso_noniso),
    **dict.fromkeys(("euclidean_rotational", "spiral_ruled"), _ratio_law),
}


def family_ode_residual(spec: FamilySpec, u, v):
    """Normalized residual of the family's own generating equation at (u, v).

    Elementwise over scalars or arrays: the chart is evaluated once,
    unchecked and without heights (no equation reads one), on all nodes,
    and EQUATIONS names the family's equation.
    Raises the equation's GeometryError if any node is degenerate (the
    isotropic ratio law gives NaN where |K| < K_EPS instead). spec comes
    from make_spec, so its family is in the catalog, which EQUATIONS covers.
    """
    U, V = np.asarray(u, float), np.asarray(v, float)
    return EQUATIONS[spec.family_id](spec, U, V,
                                     evaluate(spec, U, V, check=False, heights=False))
