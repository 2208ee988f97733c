"""Catalog of exact surface families with constant principal-curvature ratio.

Every family is a parametric chart r(u, v) with hand-written first and
second partial derivatives (no automatic differentiation anywhere); the
finite-difference oracle in the test suite cross-checks each one. Charts
are vectorized over numpy arrays.

Family ids and their curvature ratio:

======================  =====================================================
paraboloid              z = x^2 + a y^2, ratio a (any a != 0)
rotational_power_1      z = r^(1+a), ratio a (a not in {0, -1})
rotational_power_2      z = r^((1+a)/a), ratio 1/a form of the same law
logarithmoid            z = log(x^2 + y^2), the rotational minimal case
euclidean_rotational    Euclidean ratio a rotational surface (comparison)
helicoid                (u cos v, u sin v, v), isotropic minimal
spiral_ruled            ruled spiral surface, ratio a < 0, a != -1
helical_general         helical surface of pitch 1, ratio a not in {0,+-1}
helical_log             (u cos v, u sin v, c log u + v), isotropic minimal
trans_paraboloid        (u, v, v^2 + a u^2), both generators isotropic
trans_iso_noniso        translational, one isotropic generator, a != 0, 1
trans_noniso_noniso     translational, no isotropic generator, minimal
dual_trans_iso_noniso   metric dual of trans_iso_noniso, ratio 1/a
dual_trans_minimal      metric dual of trans_noniso_noniso, minimal
======================  =====================================================

"Minimal" always means isotropic minimal (H = 0, ratio -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import (
    InvalidParams,
    OutOfDomain,
    SingularLocus,
    StencilOutOfDomain,
)
from .geometry import JACOBIAN_EPS, ParamJet2, crpc_target, monge_gradient
from .quadpack import qags

SINGULAR_MARGIN = 1e-3
_INF = np.float64("inf")


@dataclass(frozen=True)
class FamilySpec:
    """A concrete member of a catalog family: id, parameter values, domain box."""

    family_id: str
    params: Mapping[str, float]
    domain: tuple[float, float, float, float]


# ---------------------------------------------------------------------------
# chart builders: each returns the (x, y, z) components of r, ru, rv, ruu,
# ruv and rvv, which evaluate hands over as they are and point_jet turns into
# floats; a component may be a plain constant, or U or V itself


def _quadric(c_u, c_v, U, V):
    # (u, v, c_u u^2 + c_v v^2)
    return [
        (U, V, c_u * U * U + c_v * V * V),
        (1.0, 0.0, 2.0 * c_u * U),
        (0.0, 1.0, 2.0 * c_v * V),
        (0.0, 0.0, 2.0 * c_u),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 2.0 * c_v),
    ]


def _polar_chart(U, V, radius, height, turn):
    """(w(u) cos v, w(u) sin v, h(u) + g(v)) from the 2-jets (w, w', w''),
    (h, h', h'') and (g, g', g'')."""
    (w, wp, wpp), (h, hp, hpp), (g, gp, gpp) = radius, height, turn
    c, s = np.cos(V), np.sin(V)
    return [
        (w * c, w * s, h + g),
        (wp * c, wp * s, hp),
        (-w * s, w * c, gp),
        (wpp * c, wpp * s, hpp),
        (-wp * s, wp * c, 0.0),
        (-w * c, -w * s, gpp),
    ]


def _u_polar(U, V, height, pitch=0.0):
    # (u cos v, u sin v, h(u) + pitch*v); rotational for pitch = 0
    return _polar_chart(U, V, (U, 1.0, 0.0), height, (pitch * V, pitch, 0.0))


def _rot_power(m: float, U, V):
    return _u_polar(U, V, (np.power(U, m), m * np.power(U, m - 1.0),
                           m * (m - 1.0) * np.power(U, m - 2.0)))


def _rotational_power_1(params, U, V):
    return _rot_power(1.0 + params["a"], U, V)


def _rotational_power_2(params, U, V):
    a = params["a"]
    return _rot_power((1.0 + a) / a, U, V)


def _logarithmoid(params, U, V):
    return _u_polar(U, V, (2.0 * np.log(U), 2.0 / U, -2.0 / (U * U)))


def _helicoid(params, U, V):
    return _u_polar(U, V, (0.0, 0.0, 0.0), pitch=1.0)


def _helical_log(params, U, V):
    c = params["c"]
    return _u_polar(U, V, (c * np.log(U), c / U, -c / (U * U)), pitch=1.0)


def _spiral_ruled(params, U, V):
    a = params["a"]
    m = (a + 1.0) / math.sqrt(abs(a))
    e = np.exp(m * V)
    return _polar_chart(U, V, (U, 1.0, 0.0), (0.0, 0.0, 0.0), (e, m * e, m * m * e))


def _helical_general_profile(a: float, U):
    """Radial coordinate w(u), its derivatives, and the height part of the chart.

    w = (cos u sin^a u)^(-1/(a+1)); log-derivative q = (tan u - a cot u)/(a+1).
    Height zeta(u) = u + cot(2u) + c_a csc(2u), c_a = (a^2+1)/(a^2-1).
    """
    ca = (a * a + 1.0) / (a * a - 1.0)
    t, ct = np.tan(U), 1.0 / np.tan(U)
    w = (np.cos(U) * np.sin(U) ** a) ** (-1.0 / (a + 1.0))
    q = (t - a * ct) / (a + 1.0)
    qp = (1.0 + t * t + a * (1.0 + ct * ct)) / (a + 1.0)
    wp = w * q
    wpp = w * (q * q + qp)
    csc2, cot2 = 1.0 / np.sin(2.0 * U), 1.0 / np.tan(2.0 * U)
    zeta = U + cot2 + ca * csc2
    zeta_u = 1.0 - 2.0 * csc2 * csc2 - 2.0 * ca * csc2 * cot2
    zeta_uu = 8.0 * csc2 * csc2 * cot2 + 4.0 * ca * (csc2 * cot2 * cot2 + csc2 ** 3)
    return w, wp, wpp, zeta, zeta_u, zeta_uu


def _helical_general(params, U, V):
    a = params["a"]
    w, wp, wpp, zeta, zeta_u, zeta_uu = _helical_general_profile(a, U)
    return _polar_chart(U, V, (w, wp, wpp), (zeta, zeta_u, zeta_uu), (V, 1.0, 0.0))


def _tin_b(a: float) -> float:
    return (a + 1.0) / (a - 1.0)


def _tin_profile(a: float, V):
    """b = (a+1)/(a-1), B2 = b^2 - 1, sin v, cos v and beta = b - sin v: the
    v-profile of both mixed translational charts and of their identity."""
    b = _tin_b(a)
    s = np.sin(V)
    return b, b * b - 1.0, s, np.cos(V), b - s


def _trans_iso_noniso(params, U, V):
    b, B2, s, c, beta = _tin_profile(params["a"], V)
    x = V + b * c
    y = b * s + B2 * np.log(np.abs(beta)) - B2 * U
    z = np.exp(U)
    return [
        (x, y, z),
        (0.0, -B2, z),
        (1.0 - b * s, b * c - B2 * c / beta, 0.0),
        (0.0, 0.0, z),
        (0.0, 0.0, 0.0),
        (-b * c, -b * s - B2 * (1.0 - b * s) / (beta * beta), 0.0),
    ]


def _log_cos_profile(U, V):
    """tan u, tan v, 1 + tan^2 u and 1 + tan^2 v of both log-cos charts."""
    tu, tv = np.tan(U), np.tan(V)
    return tu, tv, 1.0 + tu * tu, 1.0 + tv * tv


def _trans_noniso_noniso(params, U, V):
    tu, tv, su, sv = _log_cos_profile(U, V)
    return [
        (U + V, np.log(np.abs(np.cos(U))) - np.log(np.abs(np.cos(V))), U + 0.0),
        (1.0, -tu, 1.0),
        (1.0, tv, 0.0),
        (0.0, -su, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, sv, 0.0),
    ]


def _dtin_parts(a: float, V):
    """v-profile of the dual translational chart: P, Q and derivatives.

    P = cos v / (b - sin v)
    Q = v cos v / (B2 (b - sin v)) - b/(b - sin v) - log|b - sin v|,  B2 = b^2 - 1
    """
    b, B2, s, c, beta = _tin_profile(a, V)
    P = c / beta
    Pp = (1.0 - b * s) / (beta * beta)
    Ppp = c * (2.0 - b * b - b * s) / (beta ** 3)
    Q = V * c / (B2 * beta) - b / beta - np.log(np.abs(beta))
    # T = v c / beta; Q = T/B2 - b/beta - log|beta|
    Tp = (c - V * s) / beta + V * c * c / (beta * beta)
    Qp = Tp / B2 - b * c / (beta * beta) + c / beta
    Tpp = ((-2.0 * s - V * c) / beta
           + (2.0 * c * c - 3.0 * V * c * s) / (beta * beta)
           + 2.0 * V * c ** 3 / (beta ** 3))
    Qpp = (Tpp / B2 + b * s / (beta * beta) - 2.0 * b * c * c / (beta ** 3)
           - s / beta + c * c / (beta * beta))
    return P, Pp, Ppp, Q, Qp, Qpp


def _dual_trans_iso_noniso(params, U, V):
    a = params["a"]
    P, Pp, Ppp, Q, Qp, Qpp = _dtin_parts(a, V)
    e = np.exp(U)
    return [
        (e * P, e, e * (Q + U)),
        (e * P, e, e * (Q + U + 1.0)),
        (e * Pp, 0.0, e * Qp),
        (e * P, e, e * (Q + U + 2.0)),
        (e * Pp, 0.0, e * Qp),
        (e * Ppp, 0.0, e * Qpp),
    ]


def _dual_trans_minimal(params, U, V):
    tu, tv, su, sv = _log_cos_profile(U, V)
    S = tu + tv
    R = np.log(np.abs(np.cos(V))) - np.log(np.abs(np.cos(U))) - U * tu + V * tv
    Ru, Rv = -U * su, V * sv
    Ruu = -su * (1.0 + 2.0 * U * tu)
    Rvv = sv * (1.0 + 2.0 * V * tv)
    S2, S3 = S * S, S ** 3
    x = tv / S
    y = 1.0 / S
    z = R / S
    xu = -tv * su / S2
    xv = sv * tu / S2
    yu = -su / S2
    yv = -sv / S2
    zu = (Ru * S - R * su) / S2
    zv = (Rv * S - R * sv) / S2
    xuu = -2.0 * su * tv * (tu * S - su) / S3
    xuv = -su * sv * (tu - tv) / S3
    xvv = 2.0 * sv * tu * (tv * S - sv) / S3
    yuu = -2.0 * su * (tu * S - su) / S3
    yuv = 2.0 * su * sv / S3
    yvv = -2.0 * sv * (tv * S - sv) / S3
    zuu = (Ruu * S2 - 2.0 * su * tu * R * S - 2.0 * su * (Ru * S - R * su)) / S3
    zuv = (-Ru * sv * S - Rv * su * S + 2.0 * su * sv * R) / S3
    zvv = (Rvv * S2 - 2.0 * sv * tv * R * S - 2.0 * sv * (Rv * S - R * sv)) / S3
    return [
        (x, y, z), (xu, yu, zu), (xv, yv, zv),
        (xuu, yuu, zuu), (xuv, yuv, zuv), (xvv, yvv, zvv),
    ]


# ---------------------------------------------------------------------------
# Euclidean rotational comparison family: h'(r) = r^a / sqrt(1 - r^(2a)).
# For a > 0 the profile lives on r in (0, 1), anchored h(0) = 0; for a < 0 it
# lives on r in (1, inf), anchored at the default domain's left edge.


def _euclid_edge(a: float) -> float:
    """The radius 0.9^(1/a), where r^a = 0.9: an edge of the default box, and
    for a < 0 the height anchor. Raises InvalidParams (-3.8e-3 <= a < 0) where
    it is not below 1/JACOBIAN_EPS: there the polar frame's |det| = u is at
    most JACOBIAN_EPS (1 + u^2) on the whole box [edge, 2 edge]."""
    try:
        edge = 0.9 ** (1.0 / a)
    except OverflowError:
        edge = math.inf
    if not edge < 1.0 / JACOBIAN_EPS:
        raise InvalidParams(f"euclidean_rotational: the edge 0.9^(1/a) is not below "
                            f"{1.0 / JACOBIAN_EPS:g} at a = {a!r}")
    return edge


def _euclid_on_profile(a: float, U):
    """The profile's hard region: finite u > 0 and a real slope, u^(2a) < 1."""
    return (U > 0.0) & np.isfinite(U) & (np.power(U, 2.0 * a) < 1.0)


def _euclid_height(params, U: np.ndarray) -> np.ndarray:
    """h(u) by adaptive quadrature from the anchor, once per distinct u of
    the call; nothing is kept between calls.

    h is NaN off the profile: the profile ends at r = 1, and for odd 2a
    the slope law also holds at some u < 0, where r^a is not real. Raises
    InvalidParams where QAGS reports that it missed its tolerance (at some
    u for 0 < a <= 4e-8 in the default box; README gives the scan), unless
    u is so near the anchor that the result meets it anyway: h' is monotone
    on the profile, so h(u) lies within B = |u - anchor| max(h'(anchor),
    h'(u)) of 0, and a result within B of 0 misses h(u) by at most 2B.
    """
    a = params["a"]
    on_profile = _euclid_on_profile(a, U)

    def hp(r):  # qags samples r strictly inside the profile, where the root is real
        return r ** a / math.sqrt(1.0 - r ** (2.0 * a))

    anchor = 0.0 if a > 0 else _euclid_edge(a)
    out = np.full(U.shape, np.nan)
    us, inverse = np.unique(U[on_profile], return_inverse=True)
    hs = []
    for u in us.tolist():
        h, _abserr, ier = qags(hp, anchor, u)
        if ier != 0 and not (u ** (2.0 * a) < 1.0  # so that h'(u) is real
                             and abs(h) <= abs(u - anchor) * max(hp(anchor), hp(u)) <= 5e-13):
            raise InvalidParams(f"euclidean_rotational: the height integral misses its "
                                f"tolerance 1e-12 at a = {a!r}")
        hs.append(h)
    out[on_profile] = np.array(hs, float)[inverse]
    return out


def _euclidean_rotational(params, U, V, h):
    a = params["a"]
    g = 1.0 - np.power(U, 2.0 * a)
    hp = np.power(U, a) / np.sqrt(g)
    hpp = a * np.power(U, a - 1.0) * g ** (-1.5)
    return _u_polar(U, V, (h, hp, hpp))


# ---------------------------------------------------------------------------
# validity, singular loci, default domains
# The hard_valid and locus distance builders take float arrays U, V and
# return numpy values unbroadcast against them: evaluate reduces them, grid
# sampling ORs them into its mask, and the public predicates broadcast them.


def _sin_roots(rhs: float) -> tuple[float, float]:
    """The roots asin(rhs) and pi - asin(rhs) of sin(v) = rhs, |rhs| <= 1."""
    r1 = math.asin(rhs)
    return r1, math.pi - r1


def _dist_to_sin_roots(V, rhs: float):
    """Distance from angles V to the solution set of sin(v) = rhs, |rhs| <= 1."""
    d1, d2 = (np.abs(np.mod(V - root + math.pi, 2.0 * math.pi) - math.pi)
              for root in _sin_roots(rhs))
    return np.minimum(d1, d2)


def _tin_loci(a: float) -> dict:
    """The loci sin v = b (key 0, a pole) and b sin v = 1 (key 1, an isotropic
    tangent plane of trans_iso_noniso) as {key: rhs} of sin v = rhs, for
    those the chart reaches: sin v = rhs has a root where |rhs| <= 1."""
    b = _tin_b(a)
    loci = {0: b, 1: 1.0 / b} if b != 0.0 else {0: b}
    return {key: rhs for key, rhs in loci.items() if abs(rhs) <= 1.0}


def _tin_default_v_interval(a: float) -> tuple[float, float]:
    """Widest locus-free v-interval inside [-pi, pi], shrunk by 0.1."""
    roots = []
    for rhs in _tin_loci(a).values():
        r1, r2 = _sin_roots(rhs)
        for r in (r1, r2, -math.pi - r1):
            if -math.pi <= r <= math.pi:
                roots.append(r)
    pts = sorted(set([-math.pi, math.pi] + roots))
    lo, hi = max(
        zip(pts[:-1], pts[1:]),
        key=lambda seg: seg[1] - seg[0],
    )
    return lo + 0.1, hi - 0.1


def _all_valid(params, U, V):
    return np.True_


def _polar(axis: str, box=(0.5, 2.0, 0.0, math.pi)) -> dict:
    """The _Entry fields of a chart in polar coordinates (u, v) about an axis:
    the locus u = 0, the hard region u > 0 and the default box."""
    loci = ((f"u = 0 ({axis})", lambda U, V: np.abs(U)),)
    return {"loci": lambda p: loci, "hard_valid": lambda p, U, V: U > 0.0,
            "default_domain": lambda p: box}


@dataclass(frozen=True)
class _Entry:
    """One catalog family. Its parameter names are the keys of defaults.

    A family with a parameter "a" has curvature ratio a (checked by
    crpc_target, against excluded_a and, if negative_a, against a < 0); a
    family without one is isotropic minimal, ratio -1. list prints that
    ratio unless ratio_text annotates it. loci(params) gives the singular
    loci the chart reaches as (name, distance(U, V)) records.
    """

    family_id: str
    jets: Callable
    defaults: Mapping[str, float]
    constraint_text: str
    default_domain: Callable[[Mapping[str, float]], tuple[float, float, float, float]]
    ratio_text: str = ""
    excluded_a: tuple[float, ...] = ()
    negative_a: bool = False
    ratio_kind: str = "isotropic"  # or "euclidean"
    loci: Callable[[Mapping[str, float]], tuple[tuple[str, Callable], ...]] = lambda p: ()
    hard_valid: Callable[[Mapping[str, float], np.ndarray, np.ndarray], np.ndarray] = _all_valid
    # a chart height with no closed form, NaN outside hard_valid: jets takes
    # it as a fourth argument, and evaluate computes it only where a height
    # is read, writing 0 inside hard_valid for heights=False
    height: Callable[[Mapping[str, float], np.ndarray], np.ndarray] | None = None

    def locus_distance(self, params, U, V):
        """Distance to the nearest of loci(params): the first distance folded
        with np.minimum over the rest, inf if there is none."""
        loci = self.loci(params)
        if not loci:
            return _INF
        d = loci[0][1](U, V)
        for _name, dist in loci[1:]:
            d = np.minimum(d, dist(U, V))
        return d


def _check_a(entry: _Entry, a: float) -> None:
    crpc_target(a)
    for bad in entry.excluded_a:
        if a == bad:
            raise InvalidParams(f"{entry.family_id}: a = {bad} is excluded")
    if entry.negative_a and a >= 0.0:
        raise InvalidParams(f"{entry.family_id}: requires a < 0")


_REGISTRY: dict[str, _Entry] = {}


def _register(entry: _Entry):
    _REGISTRY[entry.family_id] = entry


_register(_Entry(
    family_id="paraboloid",
    jets=lambda p, U, V: _quadric(1.0, p["a"], U, V),
    defaults={"a": 2.0},
    constraint_text="a != 0 (a = 1 gives the unit sphere of the geometry)",
    default_domain=lambda p: (-1.0, 1.0, -1.0, 1.0),
))

_register(_Entry(
    family_id="trans_paraboloid",
    jets=lambda p, U, V: _quadric(p["a"], 1.0, U, V),
    defaults={"a": 2.0},
    constraint_text="a != 0; both generator parabolas lie in isotropic planes",
    default_domain=lambda p: (-1.0, 1.0, -1.0, 1.0),
))

_register(_Entry(
    family_id="rotational_power_1",
    jets=_rotational_power_1,
    defaults={"a": 2.0},
    constraint_text="a not in {0, -1}; profile z = r^(1+a)",
    excluded_a=(-1.0,),
    **_polar("rotation axis"),
))

_register(_Entry(
    family_id="rotational_power_2",
    jets=_rotational_power_2,
    defaults={"a": 2.0},
    constraint_text="a not in {0, -1}; profile z = r^((1+a)/a)",
    ratio_text="a (same ratio law, reciprocal exponent)",
    excluded_a=(-1.0,),
    **_polar("rotation axis"),
))

_register(_Entry(
    family_id="logarithmoid",
    jets=_logarithmoid,
    defaults={},
    constraint_text="no parameters; the rotational minimal surface",
    **_polar("rotation axis", box=(0.5, 3.0, 0.0, 2.0 * math.pi)),
))


def _euclid_domain(p):
    a = p["a"]
    edge = _euclid_edge(a)
    if a > 0:  # the edge falls below 0.1 for a < 0.0458
        return (min(0.1, edge), max(0.1, edge), 0.0, math.pi)
    return (edge, 2.0 * edge, 0.0, math.pi)


def _euclid_hard(params, U, V):
    return _euclid_on_profile(params["a"], U)


_EUCLID_LOCI = (
    ("u = 0 (rotation axis)", lambda U, V: np.abs(U)),
    ("u = 1 (profile slope unbounded)", lambda U, V: np.abs(np.abs(U) - 1.0)),
)

_register(_Entry(
    family_id="euclidean_rotational",
    jets=_euclidean_rotational,
    defaults={"a": 2.0},
    constraint_text="a != 0; valid where r^(2a) < 1; ratio law is Euclidean",
    ratio_kind="euclidean",
    ratio_text="a (Euclidean principal curvatures)",
    default_domain=_euclid_domain,
    loci=lambda p: _EUCLID_LOCI,
    hard_valid=_euclid_hard,
    height=_euclid_height,
))

_register(_Entry(
    family_id="helicoid",
    jets=_helicoid,
    defaults={},
    constraint_text="no parameters; minimal in both geometries",
    **_polar("screw axis"),
))

_register(_Entry(
    family_id="spiral_ruled",
    jets=_spiral_ruled,
    defaults={"a": -2.0},
    constraint_text="a < 0, a != -1; rulings through the z-axis direction field",
    excluded_a=(-1.0,),
    negative_a=True,
    **_polar("directrix axis"),
))


def _helical_general_domain(p):
    a = p["a"]
    lo, hi = 0.1, math.pi / 2.0 - 0.1
    if a > 0:
        ustar = math.atan(math.sqrt(a))
        # keep to the left branch when it is wide enough, else the right one
        if ustar - 0.05 - lo >= 0.2:
            hi = ustar - 0.05
        else:
            lo = ustar + 0.05
    return (lo, hi, 0.0, math.pi)


def _helical_general_loci(p):
    loci = [("u = 0", lambda U, V: np.abs(U)),
            ("u = pi/2 (chart boundary)", lambda U, V: np.abs(math.pi / 2.0 - U))]
    if p["a"] > 0:
        ustar = math.atan(math.sqrt(p["a"]))
        loci.append(("tan^2(u) = a (singular curve of the surface)",
                     lambda U, V: np.abs(U - ustar)))
    return tuple(loci)


def _helical_general_hard(params, U, V):
    return (U > 0.0) & (U < math.pi / 2.0)


_register(_Entry(
    family_id="helical_general",
    jets=_helical_general,
    defaults={"a": 2.0},
    constraint_text="a not in {0, 1, -1}; helical surface of pitch 1",
    excluded_a=(1.0, -1.0),
    default_domain=_helical_general_domain,
    loci=_helical_general_loci,
    hard_valid=_helical_general_hard,
))

_register(_Entry(
    family_id="helical_log",
    jets=_helical_log,
    defaults={"c": 1.0},
    constraint_text="profile c log(u) over u > 0; minimal helical surface",
    **_polar("screw axis"),
))


def _tin_domain(p):
    lo, hi = _tin_default_v_interval(p["a"])
    return (-1.0, 1.0, lo, hi)


def _tin_named_loci(pole: str, image: str):
    """The loci field over _tin_loci: sin v = b named pole, b sin v = 1 named image."""
    names = (f"sin v = b ({pole})", f"b sin v = 1 ({image})")
    return lambda p: tuple((names[key], lambda U, V, rhs=rhs: _dist_to_sin_roots(V, rhs))
                           for key, rhs in _tin_loci(p["a"]).items())


_register(_Entry(
    family_id="trans_iso_noniso",
    jets=_trans_iso_noniso,
    defaults={"a": 2.0},
    constraint_text="a not in {0, 1}; b = (a+1)/(a-1); one isotropic generator",
    excluded_a=(1.0,),
    default_domain=_tin_domain,
    loci=_tin_named_loci("logarithm pole", "isotropic tangent plane"),
))


def _tnn_loci(line: str):
    """The loci field of a chart on (-pi/2, pi/2)^2: the line u + v = 0 named
    line, and the box edges |u| = pi/2 and |v| = pi/2."""
    loci = ((line, lambda U, V: np.abs(U + V) / math.sqrt(2.0)),
            ("|u| = pi/2", lambda U, V: np.maximum(math.pi / 2.0 - np.abs(U), 0.0)),
            ("|v| = pi/2", lambda U, V: np.maximum(math.pi / 2.0 - np.abs(V), 0.0)))
    return lambda p: loci


def _tnn_hard(params, U, V):
    return (np.abs(U) < math.pi / 2.0) & (np.abs(V) < math.pi / 2.0)


_register(_Entry(
    family_id="trans_noniso_noniso",
    jets=_trans_noniso_noniso,
    defaults={},
    constraint_text="minimal; (u, v) in (-pi/2, pi/2)^2 off the line u + v = 0",
    default_domain=lambda p: (-1.3, -0.8, 0.2, 0.65),
    loci=_tnn_loci("u + v = 0 (isotropic tangent planes)"),
    hard_valid=_tnn_hard,
))


_register(_Entry(
    family_id="dual_trans_iso_noniso",
    jets=_dual_trans_iso_noniso,
    defaults={"a": 2.0},
    constraint_text="metric dual of trans_iso_noniso(a); ratio (b-1)/(b+1) = 1/a",
    ratio_text="1/a",
    excluded_a=(1.0,),
    default_domain=_tin_domain,
    loci=_tin_named_loci("pole of the chart", "image of the primal singular locus"),
))

_register(_Entry(
    family_id="dual_trans_minimal",
    jets=_dual_trans_minimal,
    defaults={},
    constraint_text="metric dual of trans_noniso_noniso; minimal",
    default_domain=lambda p: (0.2, 1.3, 0.2, 1.3),
    loci=_tnn_loci("tan u + tan v = 0 (chart pole)"),
    hard_valid=_tnn_hard,
))


# ---------------------------------------------------------------------------
# public API


def family_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def catalog_entry(family_id: str) -> _Entry:
    try:
        return _REGISTRY[family_id]
    except KeyError:
        raise InvalidParams(f"unknown family {family_id!r}") from None


def valid_domain(dom) -> bool:
    """The box rule of make_spec and --domain: (u_min, u_max, v_min, v_max)
    with u_min < u_max, v_min < v_max and both widths finite."""
    u0, u1, v0, v1 = dom
    return u0 < u1 and v0 < v1 and math.isfinite(u1 - u0) and math.isfinite(v1 - v0)


def make_spec(family_id: str, params: Mapping[str, float] | None = None,
              domain: tuple[float, float, float, float] | None = None) -> FamilySpec:
    """Validate parameters, fill defaults, and build a FamilySpec.

    Raises InvalidParams for unknown or non-finite parameters, parameters
    outside the family's constraints (among them a ratio a whose H^2/K
    target is not finite), and a domain that is not four bounds that pass
    valid_domain.
    """
    entry = catalog_entry(family_id)
    merged = dict(entry.defaults)
    for k, v in (params or {}).items():
        if k not in entry.defaults:
            raise InvalidParams(f"{family_id} does not take parameter {k!r}")
        merged[k] = float(v)
    for k, v in merged.items():
        if not math.isfinite(v):
            raise InvalidParams(f"{family_id}: parameter '{k}' must be finite, got {v}")
    if "a" in merged:
        _check_a(entry, merged["a"])
    dom = tuple(float(t) for t in (domain if domain is not None else entry.default_domain(merged)))
    if len(dom) != 4:
        raise InvalidParams("domain must be (u_min, u_max, v_min, v_max)")
    if not valid_domain(dom):
        raise InvalidParams(f"domain needs u_min < u_max, v_min < v_max, finite widths: {dom}")
    return FamilySpec(family_id=family_id, params=merged, domain=dom)


def ratio_kind(spec: FamilySpec) -> str:
    return catalog_entry(spec.family_id).ratio_kind


def ratio_for_residual(spec: FamilySpec) -> float:
    """The ratio whose H^2/K target the family meets: a, or -1 without one.

    dual_trans_iso_noniso has ratio 1/a; the target is symmetric in a <-> 1/a.
    """
    return spec.params.get("a", -1.0)


def is_minimal(spec: FamilySpec) -> bool:
    """Isotropic minimal (H = 0): the isotropic ratio law with ratio -1."""
    return ratio_kind(spec) == "isotropic" and ratio_for_residual(spec) == -1.0


def _broadcast_predicate(builder, spec: FamilySpec, U, V, dtype) -> np.ndarray:
    U, V = np.asarray(U, float), np.asarray(V, float)
    with np.errstate(all="ignore"):
        values = builder(spec.params, U, V)
    return np.broadcast_to(values, np.broadcast(U, V).shape).astype(dtype, order="C")


def singular_distance(spec: FamilySpec, U, V) -> np.ndarray:
    """Parameter-space distance to the nearest singular locus (inf if none),
    as an owned float array of the broadcast shape of U and V."""
    return _broadcast_predicate(catalog_entry(spec.family_id).locus_distance, spec, U, V, float)


def hard_valid(spec: FamilySpec, U, V) -> np.ndarray:
    """Owned bool array, of the broadcast shape of U and V, of the points
    inside the family's hard validity region."""
    return _broadcast_predicate(catalog_entry(spec.family_id).hard_valid, spec, U, V, bool)


def evaluate(spec: FamilySpec, u, v, check: bool = True, heights: bool = True) -> ParamJet2:
    """Exact second-order jet of the chart at (u, v), scalars or arrays,
    computed under np.errstate(all="ignore"); one point runs the same chart
    on 0-d arrays. Each field is the chart's own (x, y, z) tuple, whose
    components keep the shapes the chart gave them (on a u column and a v
    row, one that reads u alone stays a column, a constant stays a float)
    and may be the caller's own u or v: read-only by convention.

    With check=True, raises OutOfDomain at a non-finite (u, v) and outside
    the hard validity region, and SingularLocus within SINGULAR_MARGIN of a
    singular locus. check=False is for grid sampling, which masks instead
    of raising.

    heights=False is for callers that read no point height: for a chart
    whose height has no closed form (euclidean_rotational), evaluate then
    writes 0 for the height inside hard_valid and NaN outside it, so the
    finiteness of r's z is kept, and no quadrature runs. Each point moves
    by an isotropic vertical translation, which changes no derivative of r:
    the Monge jet's derivatives, curvatures, masks and the ratio, ODE and
    dual laws keep their bits.
    """
    U, V = np.asarray(u, float), np.asarray(v, float)
    entry = catalog_entry(spec.family_id)
    with np.errstate(all="ignore"):
        if check:
            if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
                raise OutOfDomain(f"{spec.family_id}: (u, v) is not finite")
            if not np.all(entry.hard_valid(spec.params, U, V)):
                raise OutOfDomain(f"{spec.family_id}: parameters outside the validity region")
            if np.any(entry.locus_distance(spec.params, U, V) < SINGULAR_MARGIN):
                raise SingularLocus(f"{spec.family_id}: within {SINGULAR_MARGIN} of a singular locus")
        return ParamJet2(*_chart(entry, spec.params, U, V, heights))


def point_jet(spec: FamilySpec, u, v, heights: bool = True) -> list[float]:
    """The chart 2-jet at one point as the 18 floats of r, ru, rv, ruu, ruv,
    rvv: a trace stage's checked floats, with heights, refusals and bits as
    evaluate's at that point, under the caller's np.errstate. It runs on
    numpy scalars, so a chart writes U ** m as np.power(U, m): ** on a numpy
    scalar calls libm's pow, which rounds otherwise."""
    entry = catalog_entry(spec.family_id)
    U, V = np.float64(u), np.float64(v)
    if not (math.isfinite(U) and math.isfinite(V)):
        raise OutOfDomain(f"{spec.family_id}: (u, v) is not finite")
    if not entry.hard_valid(spec.params, U, V):
        raise OutOfDomain(f"{spec.family_id}: parameters outside the validity region")
    if entry.locus_distance(spec.params, U, V) < SINGULAR_MARGIN:
        raise SingularLocus(f"{spec.family_id}: within {SINGULAR_MARGIN} of a singular locus")
    return [float(c) for xyz in _chart(entry, spec.params, U, V, heights) for c in xyz]


def _chart(entry: _Entry, params, U, V, heights: bool):
    """The family's chart components at U and V, its height computed as
    evaluate says."""
    if entry.height is None:
        return entry.jets(params, U, V)
    h = (entry.height(params, U) if heights
         else np.where(entry.hard_valid(params, U, V), 0.0, np.nan))
    return entry.jets(params, U, V, h)


def height_field(spec: FamilySpec, u0: float, v0: float) -> Callable[[float, float], float]:
    """Local height field z = f(x, y) near the chart point (u0, v0).

    Inverts the top view by Newton iteration with the chart's analytic
    Jacobian, warm-started at (u0, v0); intended for finite-difference
    stencils close to the base point. Raises StencilOutOfDomain when the
    iteration does not converge.
    """
    def f(x: float, y: float) -> float:
        u, v = float(u0), float(v0)
        for _ in range(40):  # the steps read the top view, not the height
            jet = evaluate(spec, u, v, check=False, heights=False)
            rx = float(jet.r[0]) - x
            ry = float(jet.r[1]) - y
            xu, yu = float(jet.ru[0]), float(jet.ru[1])
            xv, yv = float(jet.rv[0]), float(jet.rv[1])
            det = float(monge_gradient(jet.ru, jet.rv)[2])
            if not math.isfinite(det):
                raise StencilOutOfDomain("top view not invertible during height inversion")
            du = (-rx * yv + ry * xv) / det
            dv = (-xu * ry + yu * rx) / det
            u += du
            v += dv
            if abs(du) + abs(dv) < 1e-15 * (1.0 + abs(u) + abs(v)):
                break
        jet = evaluate(spec, u, v, check=False)
        if abs(float(jet.r[0]) - x) + abs(float(jet.r[1]) - y) > 1e-9:
            raise StencilOutOfDomain("height-field inversion did not converge")
        return float(jet.r[2])

    return f
