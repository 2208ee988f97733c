"""Residuals of the generating equations behind the surface families.

Each family in the catalog solves a reduced equation: an ODE for the
profile of a rotational or helical surface, or an algebraic identity
between the two profile functions of a translational surface. The helpers
here evaluate those equations directly from profile derivatives, giving a
check that is independent of the curvature pipeline. family_ode_residual
dispatches a catalog entry to its own equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput, SingularLocus
from .families import FamilySpec, _helical_general_profile, _tin_b, evaluate
from .geometry import (
    crpc_residual,
    euclidean_curvatures,
    height_jet_from_param,
    principal_ratio_residual,
)

TRANSLATIONAL_CASES = ("two_iso", "iso_noniso", "noniso_noniso")


@dataclass(frozen=True)
class OdeResidual:
    """Both sides of a generating equation, evaluated at one point."""

    lhs: float
    rhs: float

    @property
    def raw(self) -> float:
        return self.lhs - self.rhs

    @property
    def normalized(self) -> float:
        return (self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1.0)


def helical_ode_residual(fp: float, fpp: float, u: float, a: float) -> OdeResidual:
    """Profile equation of the unit-pitch helical families.

    With z = f(r) + angle, constant curvature ratio a at radius u reads
    a u^2 (f' + u f'')^2 = (a+1)^2 (u^3 f'' f' - 1).
    """
    if a == 0:
        raise ValueError("ratio a must be nonzero")
    lhs = a * u * u * (fp + u * fpp) ** 2
    rhs = (a + 1.0) ** 2 * (u ** 3 * fpp * fp - 1.0)
    return OdeResidual(float(lhs), float(rhs))


def helical_substitution_check(s: float, a: float) -> tuple[float, float]:
    """Finite-difference audit of the helical profile's closed form.

    The closed-form solution parameterizes radius and height by an angle
    s in (0, pi/2): w(s) = (cos s sin^a s)^(-1/(a+1)) and
    zeta(s) = s + cot 2s + c_a csc 2s. Their s-derivatives must satisfy
    w' = w (tan s - a cot s)/(a+1) and
    zeta' = (tan s + a cot s)(tan s - a cot s)/((a-1)(a+1)).
    Returns the two absolute mismatches using 5-point stencils of step 1e-3.
    """
    h = 1e-3
    if a == 0:
        raise ValueError("ratio a must be nonzero")
    if a in (1.0, -1.0):
        raise SingularLocus("closed form degenerates at ratio +-1")
    if not (2.0 * h < s < 0.5 * math.pi - 2.0 * h):
        raise SingularLocus("substitution parameter outside (0, pi/2)")
    if a > 0 and abs(math.tan(s) ** 2 - a) < 1e-6:
        raise SingularLocus("radial turning point: tan^2 s = a")

    def w_of(x: float) -> float:
        return float(_helical_general_profile(a, x)[0])

    def zeta_of(x: float) -> float:
        return float(_helical_general_profile(a, x)[3])

    def d5(f, x: float) -> float:
        return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

    t, ct = math.tan(s), 1.0 / math.tan(s)
    w_rate = w_of(s) * (t - a * ct) / (a + 1.0)
    z_rate = (t + a * ct) * (t - a * ct) / ((a - 1.0) * (a + 1.0))
    return abs(d5(w_of, s) - w_rate), abs(d5(zeta_of, s) - z_rate)


def translational_residual(
    case: str,
    a: float,
    fp: float | None = None,
    fpp: float | None = None,
    gp: float | None = None,
    gpp: float | None = None,
    k: float = 0.0,
) -> OdeResidual:
    """Profile identity of a translational surface, by generator types.

    two_iso: both generators in isotropic planes, chart
        (u, k u + v, f(u) + g(v)); needs fpp, gpp (and the shear k):
        (k^2 + 1 + f''/g'')^2 = ((a+1)^2/a) f''/g''.
    iso_noniso: chart (v, -u + g(v), f(u)); needs fp, fpp, gp, gpp:
        ((1+g'^2) f''/f' + g'')^2 = ((a+1)^2/a) (f''/f') g''.
    noniso_noniso: chart (u+v, f(u)+g(v), u); needs fp, fpp, gp, gpp:
        ((1+f'^2) g'' + (1+g'^2) f'')^2 = ((a+1)^2/a) f'' g'' (f'-g')^2.

    Raises DegenerateInput when the supplied derivatives make the relative
    curvature vanish (the ratio is undefined there).
    """
    if a == 0:
        raise ValueError("ratio a must be nonzero")
    if case not in TRANSLATIONAL_CASES:
        raise ValueError(f"case must be one of {TRANSLATIONAL_CASES}")
    cfac = (a + 1.0) ** 2 / a
    if case == "two_iso":
        if fpp is None or gpp is None:
            raise TypeError("two_iso needs fpp and gpp")
        if fpp == 0.0 or gpp == 0.0:
            raise DegenerateInput("f'' g'' = 0: flat generator, ratio undefined")
        ratio = fpp / gpp
        lhs = (k * k + 1.0 + ratio) ** 2
        rhs = cfac * ratio
        return OdeResidual(float(lhs), float(rhs))
    if None in (fp, fpp, gp, gpp):
        raise TypeError(f"{case} needs fp, fpp, gp and gpp")
    if case == "iso_noniso":
        if fp == 0.0:
            raise DegenerateInput("f' = 0: chart is not a graph there")
        if fpp == 0.0 or gpp == 0.0:
            raise DegenerateInput("f' f'' g'' = 0: ratio undefined")
        ratio = fpp / fp
        lhs = ((1.0 + gp * gp) * ratio + gpp) ** 2
        rhs = cfac * ratio * gpp
        return OdeResidual(float(lhs), float(rhs))
    # noniso_noniso
    if fp == gp:
        raise DegenerateInput("f' = g': tangent plane is vertical there")
    if fpp == 0.0 or gpp == 0.0:
        raise DegenerateInput("f'' g'' = 0: ratio undefined")
    lhs = ((1.0 + fp * fp) * gpp + (1.0 + gp * gp) * fpp) ** 2
    rhs = cfac * fpp * gpp * (fp - gp) ** 2
    return OdeResidual(float(lhs), float(rhs))


def discriminant_identity_check(
    a: float, gp: float, L0: float, L1: float, Y: float,
) -> tuple[float, float, float]:
    """Discriminant factorization used to solve the mixed translational case.

    The profile identity, read as a quadratic q_a X^2 + q_b X + q_c = 0 in
    the remaining second derivative X, has discriminant q_b^2 - 4 q_a q_c
    that factors as (a+1)^2 (Y - g')^2 L^2 times an explicit quadratic in
    Y, where L = L0 + L1 Y stands for the linear slot multiplying g''.
    Returns (lhs, rhs, |lhs - rhs|).
    """
    if a == 0:
        raise ValueError("ratio a must be nonzero")
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
    return float(lhs), float(rhs), float(abs(lhs - rhs))


def _rotational_ratio_residual(a: float, hp: float, hpp: float, u: float) -> float:
    # rotational profile: principal curvatures h'' and h'/u, scaled by u
    return float(principal_ratio_residual(u * hpp, hp, a))


def _tin_normal_form(a: float, u: float, v: float) -> tuple[float, float, float, float]:
    """iso_noniso profile jets hidden in the mixed translational chart.

    The chart straightens to (X, -t + g(X), f(t)) with t = (b^2-1) u,
    X = v + b cos v, f(t) = exp(t/(b^2-1)) and g the height of the
    non-isotropic generator over X.
    """
    b = _tin_b(a)
    B2 = b * b - 1.0
    s, c = math.sin(v), math.cos(v)
    beta = b - s
    xp = 1.0 - b * s
    if abs(xp) < 1e-12 or abs(beta) < 1e-12:
        raise DegenerateInput("generator parameterization is singular there")
    xpp = -b * c
    num = c * xp
    nump = -s - b * math.cos(2.0 * v)
    Gp = num / beta
    Gpp = (nump * beta + num * c) / (beta * beta)
    gp = Gp / xp
    gpp = (Gpp * xp - Gp * xpp) / xp ** 3
    e = math.exp(u)
    return e / B2, e / (B2 * B2), gp, gpp


def family_ode_residual(spec: FamilySpec, u: float, v: float) -> float:
    """Normalized residual of the family's own generating equation at (u, v).

    Rotational and helical entries evaluate their profile ODE from closed
    forms, translational entries their profile identity (the duals audit
    the identity of the surface they were dualized from), the Euclidean
    comparison entry its principal-ratio condition, and the ruled spiral
    entry falls back to the curvature-ratio residual itself.
    """
    fid = spec.family_id
    p = spec.params
    u = float(u)
    v = float(v)
    if fid == "paraboloid":
        a = p["a"]
        return abs(translational_residual("two_iso", a, fpp=2.0, gpp=2.0 * a).normalized)
    if fid == "trans_paraboloid":
        a = p["a"]
        return abs(translational_residual("two_iso", a, fpp=2.0 * a, gpp=2.0).normalized)
    if fid == "rotational_power_1":
        a = p["a"]
        m = 1.0 + a
        return _rotational_ratio_residual(a, m * u ** a, m * a * u ** (a - 1.0), u)
    if fid == "rotational_power_2":
        a = p["a"]
        m = (1.0 + a) / a
        return _rotational_ratio_residual(
            a, m * u ** (m - 1.0), m * (m - 1.0) * u ** (m - 2.0), u)
    if fid == "logarithmoid":
        return _rotational_ratio_residual(-1.0, 2.0 / u, -2.0 / (u * u), u)
    if fid == "helicoid":
        return abs(helical_ode_residual(0.0, 0.0, u, -1.0).normalized)
    if fid == "helical_log":
        c = p["c"]
        return abs(helical_ode_residual(c / u, -c / (u * u), u, -1.0).normalized)
    if fid == "helical_general":
        a = p["a"]
        w, wp, wpp, _zeta, zu, zuu = _helical_general_profile(a, u)
        fp = zu / wp
        fpp = (zuu * wp - zu * wpp) / wp ** 3
        return abs(helical_ode_residual(float(fp), float(fpp), float(w), a).normalized)
    if fid in ("trans_iso_noniso", "dual_trans_iso_noniso"):
        a = p["a"]
        fp, fpp, gp, gpp = _tin_normal_form(a, u, v)
        return abs(translational_residual(
            "iso_noniso", a, fp=fp, fpp=fpp, gp=gp, gpp=gpp).normalized)
    if fid in ("trans_noniso_noniso", "dual_trans_minimal"):
        tu, tv = math.tan(u), math.tan(v)
        return abs(translational_residual(
            "noniso_noniso", -1.0,
            fp=-tu, fpp=-(1.0 + tu * tu), gp=tv, gpp=1.0 + tv * tv).normalized)
    if fid == "euclidean_rotational":
        a = p["a"]
        jet = evaluate(spec, u, v, check=False)
        _Ke, _He, k1e, k2e = euclidean_curvatures(height_jet_from_param(jet))
        return float(principal_ratio_residual(k1e, k2e, a))
    if fid == "spiral_ruled":
        jet = evaluate(spec, u, v, check=False)
        return abs(float(crpc_residual(height_jet_from_param(jet), p["a"])))
    raise ValueError(f"unknown family: {fid}")
