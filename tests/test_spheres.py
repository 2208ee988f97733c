"""Parabolic spheres, curvature centers, and envelopes of sphere families."""

import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isocrpc.errors import (
    EmptyCharacteristic,
    InvalidParams,
    StationaryFamily,
)
from isocrpc.families import evaluate, make_spec
from isocrpc.curves import CurveJet, osculating_isotropic_circle
from isocrpc.geometry import height_jet_from_param, isotropic_curvatures
from isocrpc.spheres import (
    CYLINDRIC,
    ELLIPTIC,
    PARABOLIC,
    ParabolicSphere,
    SphereFamily,
    channel_checks,
    envelope_characteristic,
    tangent_sphere,
)


def pipe_family():
    # 2z = (x - t)^2 + y^2: unit-radius spheres marching along the x-axis
    return SphereFamily(
        lambda t: (1.0, -2.0 * t, 0.0, t * t),
        lambda t: (0.0, -2.0, 0.0, 2.0 * t),
    )


# --- ParabolicSphere ------------------------------------------------------

def test_sphere_height_residual():
    s = ParabolicSphere(2.0, 1.0, -1.0, 0.5)
    x, y = 0.3, -0.7
    z = s.height(x, y)
    assert s.algebraic_residual(np.array([[x, y, z]]))[0] == pytest.approx(0.0)
    assert (s.A, s.B, s.C, s.D) == (2.0, 1.0, -1.0, 0.5)


def test_sphere_requires_nonzero_quadratic_coefficient():
    with pytest.raises(InvalidParams):
        ParabolicSphere(0.0, 1.0, 0.0, 0.0)


# --- tangent spheres ------------------------------------------------------

def test_tangent_sphere_unit_sphere_is_its_own():
    s = tangent_sphere((0.0, 0.0, 0.0), (0.0, 0.0), 1.0)
    assert_allclose([s.A, s.B, s.C, s.D], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_tangent_sphere_flat_jet():
    s = tangent_sphere((0.0, 0.0, 0.0), (0.0, 0.0), 1.0)
    # 2z = x^2 + y^2
    assert s.height(0.3, 0.4) == pytest.approx(0.5 * (0.09 + 0.16))


def test_tangent_sphere_matches_value_and_gradient():
    # z = x^2 + 2y^2 at (1, 0): gradient (2, 0), kappa = 2 along the first
    # principal direction, A = 2 (radius 1/2)
    s = tangent_sphere((1.0, 0.0, 1.0), (2.0, 0.0), 2.0)
    assert s.A == pytest.approx(2.0)
    assert s.height(1.0, 0.0) == pytest.approx(1.0)
    h = 1e-7  # gradient of the sphere's height at the contact point
    gx = (s.height(1.0 + h, 0.0) - s.height(1.0 - h, 0.0)) / (2 * h)
    gy = (s.height(1.0, h) - s.height(1.0, -h)) / (2 * h)
    assert_allclose([gx, gy], [2.0, 0.0], atol=1e-6)


@pytest.mark.parametrize("A", [0.0, math.inf, -math.inf, math.nan])
def test_tangent_sphere_refuses_what_a_parabolic_sphere_refuses(A):
    # one rule: the coefficient goes to ParabolicSphere, which refuses it
    with pytest.raises(InvalidParams) as tangent:
        tangent_sphere((0.3, -0.2, 0.1), (0.5, 1.0), A)
    with pytest.raises(InvalidParams) as sphere:
        ParabolicSphere(A, 0.0, 0.0, 0.0)
    assert str(tangent.value) == str(sphere.value)


# --- curvature centers ----------------------------------------------------

def test_curvature_center_constant_along_principal_line():
    from isocrpc.curves import trace_direction_field

    spec = make_spec("trans_paraboloid", {"a": 2.0})
    tr = trace_direction_field(spec, (0.1, 0.3), "principal1", steps=200, dt=1e-3)
    centers = []
    for u, v in tr.uv:
        hj = height_jet_from_param(evaluate(spec, float(u), float(v)))
        cur = isotropic_curvatures(hj)
        # the centre of the tangent sphere of curvature k1: vertex + (0, 0, 1/k1)
        k = float(cur.k1)
        centers.append((hj.x0 - hj.fx / k, hj.y0 - hj.fy / k,
                        hj.f - (hj.fx * hj.fx + hj.fy * hj.fy - 2.0) / (2.0 * k)))
    drift = float(np.max(np.ptp(np.array(centers), axis=0)))
    assert drift <= 1e-8


# --- sphere families and their envelopes ----------------------------------

def test_family_audit_catches_wrong_derivatives():
    fam = SphereFamily(
        lambda t: (1.0 + t, 0.0, 0.0, 0.0),
        lambda t: (5.0, 0.0, 0.0, 0.0),  # wrong slope
    )
    assert fam.audit(0.0) > 1e-3
    with pytest.raises(InvalidParams):
        envelope_characteristic(fam, 0.0)


@pytest.mark.parametrize("derivs", [(math.nan, -2.0, 0.0, 0.0), (0.0, math.nan, 0.0, 0.0)])
def test_non_finite_derivatives_fail_the_audit(derivs):
    fam = SphereFamily(pipe_family().coeffs, lambda t: derivs)
    with pytest.raises(InvalidParams):
        envelope_characteristic(fam, 0.0)


def test_pipe_characteristic_is_the_expected_parabola():
    ch = envelope_characteristic(pipe_family(), 0.0)
    assert ch.circle.kind == PARABOLIC
    assert ch.curvature == pytest.approx(1.0)
    pts = ch.points
    assert np.max(np.abs(pts[:, 0])) <= 1e-12                      # plane x = 0
    assert np.max(np.abs(2.0 * pts[:, 2] - pts[:, 1] ** 2)) <= 1e-12  # 2z = y^2


def test_varying_radius_gives_elliptic_characteristic():
    fam = SphereFamily(
        lambda t: (1.0 + t, 2.0 * t, -t, 0.25 * t),
        lambda t: (1.0, 2.0, -1.0, 0.25),
    )
    ch = envelope_characteristic(fam, 0.0)
    assert ch.circle.kind == ELLIPTIC
    assert_allclose(ch.circle.center, [-1.0, 0.5])
    assert ch.circle.top_radius == pytest.approx(1.0)
    # characteristic points stay on the member sphere
    assert float(np.max(np.abs(ch.circle.carrier_sphere.algebraic_residual(ch.points)))) < 1e-12
    # and the top view really is a circle
    cx, cy = ch.circle.center
    radii = np.hypot(ch.points[:, 0] - cx, ch.points[:, 1] - cy)
    assert float(np.ptp(radii)) <= 1e-9


def test_shrinking_concentric_family_gives_point_circle():
    # radius varies, derivative system pinches to the single point (0,0,0):
    # still the elliptic branch, with top radius zero
    fam = SphereFamily(
        lambda t: (1.0 / (1.0 + t), 0.0, 0.0, 0.0),
        lambda t: (-1.0 / (1.0 + t) ** 2, 0.0, 0.0, 0.0),
    )
    ch = envelope_characteristic(fam, 0.0)
    assert ch.circle.kind == ELLIPTIC
    assert ch.circle.top_radius == pytest.approx(0.0, abs=1e-12)
    assert_allclose(ch.points[0], [0.0, 0.0, 0.0], atol=1e-12)


def test_stationary_family_raises():
    fam = SphereFamily(
        lambda t: (1.0, 2.0, 3.0, 4.0), lambda t: (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(StationaryFamily):
        envelope_characteristic(fam, 0.0)


def test_empty_characteristic_raises():
    fam = SphereFamily(
        lambda t: (1.0 + t, 0.0, 0.0, t), lambda t: (1.0, 0.0, 0.0, 1.0))
    with pytest.raises(EmptyCharacteristic):
        envelope_characteristic(fam, 0.0)


def test_vertically_translated_spheres_have_no_characteristic():
    # 2z = x^2 + y^2 + t: the derivative equation reads 1 = 0
    fam = SphereFamily(lambda t: (1.0, 0.0, 0.0, t), lambda t: (0.0, 0.0, 0.0, 1.0))
    with pytest.raises(EmptyCharacteristic):
        envelope_characteristic(fam, 0.3)


# --- channel surface checks -------------------------------------------------

def test_pipe_channel_checks():
    # the pipe family's envelope is the cylinder 2z = y^2
    rep = channel_checks(pipe_family(), lambda x, y: 0.5 * y * y, [-0.5, 0.0, 0.3])
    assert rep.max_eigen_residual <= 1e-8
    assert rep.max_curvature_residual <= 1e-8


def test_parabolic_rotation_tangency_identity():
    # z = x^2 + a y^2 + (a-1)(x - x0)^2 touches z = x^2 + a y^2 along x = x0:
    # their jet difference vanishes to second order on that line
    a, x0 = 2.0, 0.4
    for y in (-0.5, 0.0, 0.8):
        diff = lambda x: (a - 1.0) * (x - x0) ** 2
        h = 1e-6
        assert diff(x0) == 0.0
        assert abs((diff(x0 + h) - diff(x0 - h)) / (2 * h)) < 1e-9


def test_characteristic_curvature_equals_radius_reciprocal():
    fam = SphereFamily(
        lambda t: (1.0 + t, 2.0 * t, -t, 0.25 * t),
        lambda t: (1.0, 2.0, -1.0, 0.25),
    )
    for t in (0.0, 0.5, 1.0):
        ch = envelope_characteristic(fam, t)
        assert ch.curvature == pytest.approx(1.0 + t)
        assert 1.0 / ch.circle.carrier_sphere.A == pytest.approx(1.0 / (1.0 + t))


def _random_parabolic_characteristic(seed):
    # constant A: the derivative equation Bd x + Cd y + Dd = 0 is a line
    rng = np.random.default_rng(seed)
    A0, (B0, C0, D0) = float(rng.uniform(0.5, 2.0)), rng.uniform(-2.0, 2.0, 3)
    Bd, Cd, Dd = map(float, rng.uniform(-2.0, 2.0, 3))
    fam = SphereFamily(lambda t: (A0, B0 + Bd * t, C0 + Cd * t, D0 + Dd * t),
                       lambda t: (0.0, Bd, Cd, Dd))
    return envelope_characteristic(fam, 0.0).circle


VERTICAL_CARRIERS = {
    "pipe characteristic": lambda: envelope_characteristic(pipe_family(), 0.0).circle,
    **{f"random characteristic {seed}": functools.partial(_random_parabolic_characteristic, seed)
       for seed in range(5)},
    "osculating parabola": lambda: osculating_isotropic_circle(
        CurveJet.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 2.0))),
    "oblique osculating parabola": lambda: osculating_isotropic_circle(
        CurveJet.of((0.4, -1.1, 0.3), (0.6, 0.8, -0.5), (1.2, 1.6, 3.0))),
    "cylindric": lambda: osculating_isotropic_circle(
        CurveJet.of((0.3, -0.2, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))),
    "cylindric without horizontal curvature": lambda: osculating_isotropic_circle(
        CurveJet.of((0.3, -0.2, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))),
}


@pytest.mark.parametrize("build", list(VERTICAL_CARRIERS.values()), ids=list(VERTICAL_CARRIERS))
def test_a_vertical_carrier_plane_has_a_unit_normal(build):
    # one convention for parabolic and cylindric circles: n1 x + n2 y + d = 0
    # with n1^2 + n2^2 = 1, so that the plane equation is a top-view distance
    circle = build()
    assert circle.kind in (PARABOLIC, CYLINDRIC)
    n1, n2, d = circle.carrier_plane
    assert abs(n1 * n1 + n2 * n2 - 1.0) <= 1e-15
    x, y = circle.points[:, 0], circle.points[:, 1]
    assert float(np.max(np.abs(n1 * x + n2 * y + d))) <= 1e-12


def test_cylindric_constant_exists():
    assert {ELLIPTIC, PARABOLIC, CYLINDRIC} == {"elliptic", "parabolic", "cylindric"}


def test_sphere_family_dataclass_direct_use():
    fam = SphereFamily(
        coeffs=lambda t: (1.0, t, 0.0, 0.0),
        dcoeffs=lambda t: (0.0, 1.0, 0.0, 0.0),
    )
    assert fam.audit(0.2) <= 1e-9
    assert_allclose(fam.coefficients(0.5), [1.0, 0.5, 0.0, 0.0])
    ch = envelope_characteristic(fam, 0.0)
    assert ch.circle.kind == PARABOLIC


# --- rotational charts as envelopes of coaxial spheres ------------------------

def rotational_sphere_family(spec):
    # 2z = A(t)(x^2+y^2) + D(t) with A = h'/t and D = 2h - A t^2 touches the
    # profile z = h(r) along the parallel r = t; h, h', h'' are the z parts
    # of the chart's exact jet at u = t
    def profile(t):
        jet = evaluate(spec, t, 0.0)
        return float(jet.r[2]), float(jet.ru[2]), float(jet.ruu[2])

    def coeffs(t):
        h, hp, _ = profile(t)
        A = hp / t
        return (A, 0.0, 0.0, 2.0 * h - A * t * t)

    def dcoeffs(t):
        _, hp, hpp = profile(t)
        return ((t * hpp - hp) / (t * t), 0.0, 0.0, hp - t * hpp)

    return SphereFamily(coeffs, dcoeffs), profile


@pytest.mark.parametrize("fid, a, ratio", [
    # ratio is t h''/h': a for rotational_power_1, its reciprocal for
    # rotational_power_2, -1 for the logarithmoid
    *[("rotational_power_1", a, a) for a in (-2.0, -0.5, 0.5, 2.0, 3.0)],
    *[("rotational_power_2", a, 1.0 / a) for a in (2.0, -0.5)],
    ("logarithmoid", None, -1.0),
])
def test_rotational_chart_is_a_sphere_envelope(fid, a, ratio):
    spec = make_spec(fid, {} if a is None else {"a": a})
    fam, profile = rotational_sphere_family(spec)
    ts = (0.7, 1.0, 1.5)
    rep = channel_checks(fam, lambda x, y: profile(math.hypot(x, y))[0], ts)
    assert rep.max_eigen_residual <= 1e-6
    assert rep.max_curvature_residual <= 1e-6
    for t in ts:
        h, hp, hpp = profile(t)
        ch = envelope_characteristic(fam, t)
        # the characteristic is the parallel r = t at height h(t)
        assert ch.circle.kind == ELLIPTIC
        assert_allclose(ch.circle.center, [0.0, 0.0], atol=1e-12)
        assert ch.circle.top_radius == pytest.approx(t, rel=1e-12)
        assert_allclose(ch.points[:, 2], h, rtol=1e-12, atol=1e-12)
        assert t * hpp / hp == pytest.approx(ratio, rel=1e-12)
