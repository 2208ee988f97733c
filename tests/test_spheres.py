"""Parabolic spheres, curvature centers, and envelopes of sphere families."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isocrpc.errors import (
    EmptyCharacteristic,
    InvalidParams,
    StationaryFamily,
    ZeroCurvature,
    ZeroRadius,
)
from isocrpc.families import evaluate, make_spec
from isocrpc.geometry import Jet2Height, height_jet_from_param, isotropic_curvatures
from isocrpc.spheres import (
    CYLINDRIC,
    ELLIPTIC,
    PARABOLIC,
    ParabolicSphere,
    SphereFamily,
    channel_checks,
    curvature_center,
    envelope_characteristic,
    tangent_sphere,
)


def monge_jet(x, y, f, fx, fy, fxx=0.0, fxy=0.0, fyy=0.0):
    return Jet2Height(x0=x, y0=y, f=f, fx=fx, fy=fy, fxx=fxx, fxy=fxy, fyy=fyy)


def pipe_family():
    # 2z = (x - t)^2 + y^2: unit-radius spheres marching along the x-axis
    return SphereFamily(
        lambda t: (1.0, -2.0 * t, 0.0, t * t),
        lambda t: (0.0, -2.0, 0.0, 2.0 * t),
    )


# --- ParabolicSphere ------------------------------------------------------

def test_sphere_radius_height_residual():
    s = ParabolicSphere(2.0, 1.0, -1.0, 0.5)
    assert s.radius == pytest.approx(0.5)
    x, y = 0.3, -0.7
    z = s.height(x, y)
    assert s.algebraic_residual(np.array([[x, y, z]]))[0] == pytest.approx(0.0)
    assert_allclose(s.coefficients(), [2.0, 1.0, -1.0, 0.5])


def test_sphere_requires_nonzero_quadratic_coefficient():
    with pytest.raises(InvalidParams):
        ParabolicSphere(0.0, 1.0, 0.0, 0.0)


# --- tangent spheres ------------------------------------------------------

def test_tangent_sphere_unit_sphere_is_its_own():
    j = monge_jet(0.0, 0.0, 0.0, 0.0, 0.0)
    s = tangent_sphere(j, 1.0)
    assert_allclose([s.A, s.B, s.C, s.D], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_tangent_sphere_flat_jet():
    s = tangent_sphere(monge_jet(0.0, 0.0, 0.0, 0.0, 0.0), 1.0)
    # 2z = x^2 + y^2
    assert s.height(0.3, 0.4) == pytest.approx(0.5 * (0.09 + 0.16))


def test_tangent_sphere_matches_value_and_gradient():
    # z = x^2 + 2y^2 at (1, 0): gradient (2, 0), kappa = 2 along the first
    # principal direction, radius 1/2
    j = monge_jet(1.0, 0.0, 1.0, 2.0, 0.0, 2.0, 0.0, 4.0)
    s = tangent_sphere(j, 0.5)
    assert s.A == pytest.approx(2.0)
    assert s.height(1.0, 0.0) == pytest.approx(1.0)
    h = 1e-7  # gradient of the sphere's height at the contact point
    gx = (s.height(1.0 + h, 0.0) - s.height(1.0 - h, 0.0)) / (2 * h)
    gy = (s.height(1.0, h) - s.height(1.0, -h)) / (2 * h)
    assert_allclose([gx, gy], [2.0, 0.0], atol=1e-6)


def test_tangent_sphere_zero_radius():
    with pytest.raises(ZeroRadius):
        tangent_sphere(monge_jet(0, 0, 0, 0, 0), 0.0)


# --- curvature centers ----------------------------------------------------

def test_curvature_center_at_sphere_vertex():
    m = curvature_center(monge_jet(0.0, 0.0, 0.0, 0.0, 0.0), 1.0)
    assert_allclose(m, [0.0, 0.0, 1.0])


def test_curvature_center_constant_on_the_sphere():
    # same unit sphere 2z = x^2 + y^2 at the point (1, 0, 1/2)
    m = curvature_center(monge_jet(1.0, 0.0, 0.5, 1.0, 0.0), 1.0)
    assert_allclose(m, [0.0, 0.0, 1.0])


def test_curvature_center_zero_kappa():
    with pytest.raises(ZeroCurvature):
        curvature_center(monge_jet(0, 0, 0, 0, 0), 0.0)


def test_curvature_center_too_far_away():
    # kappa is nonzero, but the center lies beyond float range
    with pytest.raises(ZeroCurvature):
        curvature_center(monge_jet(0, 0, 0, 0, 0), 1e-320)


def test_curvature_center_constant_along_principal_line():
    from isocrpc.curves import trace_direction_field

    spec = make_spec("trans_paraboloid", {"a": 2.0})
    tr = trace_direction_field(spec, (0.1, 0.3), "principal1", steps=200, dt=1e-3)
    centers = []
    for u, v in tr.uv:
        hj = height_jet_from_param(evaluate(spec, float(u), float(v)))
        cur = isotropic_curvatures(hj)
        centers.append(curvature_center(hj, float(cur.k1)))
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


def test_characteristic_to_trace_roundtrip():
    tr = envelope_characteristic(pipe_family(), 0.3).to_trace()
    assert len(tr) == 64
    assert tr.t[0] == 0.0
    assert np.all(np.diff(tr.t) >= 0.0)
    assert tr.points.shape == (64, 3)


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
        assert ch.circle.carrier_sphere.radius == pytest.approx(1.0 / (1.0 + t))


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
