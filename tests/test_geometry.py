"""Core jet and curvature machinery.

Frozen oracle values are written out as literals; each was computed
independently (by hand from the chart formulas, or from a finite
difference path that does not share code with the analytic one).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from isocrpc import curves, geometry
from isocrpc.curves import TRACE_KINDS
from isocrpc.duality import dual_from_tangent
from isocrpc.errors import (
    DegenerateJet,
    DegenerateK,
    GeometryError,
    InvalidParams,
    NonAdmissiblePoint,
    StencilOutOfDomain,
    Umbilic,
)
from isocrpc.families import evaluate, family_ids, make_spec
from isocrpc.geometry import (
    Jet2Height,
    ParamJet2,
    characteristic_directions,
    crpc_target,
    euclidean_curvatures,
    fd_jet,
    height_jet_from_param,
    isotropic_curvatures,
    normal_curvature,
    ratio_law_residual,
    relative_curvatures,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def monge_jet(x, y, f, fx, fy, fxx, fxy, fyy):
    return Jet2Height(x0=x, y0=y, f=f, fx=fx, fy=fy, fxx=fxx, fxy=fxy, fyy=fyy)


# --- finite-difference oracle -------------------------------------------

def test_fd_jet_matches_analytic_trig_surface():
    def f(x, y):
        return math.sin(x) * math.cos(y)

    x, y = 0.3, 0.7
    j = fd_jet(f, x, y)
    sx, cy = math.sin(x), math.cos(y)
    cx, sy = math.cos(x), math.sin(y)
    assert_allclose(j.f, sx * cy, rtol=1e-12)
    assert_allclose(j.fx, cx * cy, rtol=1e-7)
    assert_allclose(j.fy, -sx * sy, rtol=1e-7)
    assert_allclose(j.fxx, -sx * cy, rtol=1e-6)
    assert_allclose(j.fxy, -cx * sy, rtol=1e-6)
    assert_allclose(j.fyy, -sx * cy, rtol=1e-6)


def test_fd_jet_guards():
    with pytest.raises(StencilOutOfDomain):
        fd_jet(lambda x, y: math.sqrt(x), 0.0, 0.0)  # stencil leaves the domain
    with pytest.raises(StencilOutOfDomain):
        fd_jet(lambda x, y: float("nan"), 0.0, 0.0)


def test_height_jet_from_polar_chart_matches_monge_form():
    # paraboloid z = x^2 + y^2 written in polar coordinates
    u, v = 1.3, 0.8
    c, s = math.cos(v), math.sin(v)
    jet = ParamJet2(
        r=np.array([u * c, u * s, u * u]),
        ru=np.array([c, s, 2 * u]),
        rv=np.array([-u * s, u * c, 0.0]),
        ruu=np.array([0.0, 0.0, 2.0]),
        ruv=np.array([-s, c, 0.0]),
        rvv=np.array([-u * c, -u * s, 0.0]),
    )
    hj = height_jet_from_param(jet)
    assert_allclose([hj.fx, hj.fy], [2 * u * c, 2 * u * s], atol=1e-13)
    assert_allclose([hj.fxx, hj.fxy, hj.fyy], [2.0, 0.0, 2.0], atol=1e-13)


def test_height_jet_rejects_vertical_tangent():
    jet = ParamJet2(
        r=np.zeros(3),
        ru=np.array([1.0, 0.0, 0.0]),
        rv=np.array([2.0, 0.0, 1.0]),  # top views collinear
        ruu=np.zeros(3), ruv=np.zeros(3), rvv=np.zeros(3),
    )
    with pytest.raises(NonAdmissiblePoint):
        height_jet_from_param(jet)


@given(
    log_su=st.floats(min_value=-6.0, max_value=6.0),
    log_sv=st.floats(min_value=-6.0, max_value=6.0),
    angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    # top views from exactly collinear through near-collinear to orthogonal
    gap=st.one_of(st.just(0.0),
                  st.floats(min_value=-17.0, max_value=0.2).map(lambda e: 10.0 ** e),
                  st.floats(min_value=-17.0, max_value=0.2).map(lambda e: -10.0 ** e)),
    zu=finite, zv=finite,
)
@settings(max_examples=300, deadline=None)
def test_one_admissibility_criterion(log_su, log_sv, angle, gap, zu, zv):
    su, sv = 10.0 ** log_su, 10.0 ** log_sv
    ru = su * np.array([math.cos(angle), math.sin(angle), zu])
    rv = sv * np.array([math.cos(angle + gap), math.sin(angle + gap), zv])
    jet = ParamJet2(r=np.array([0.5, -1.0, 2.0]), ru=ru, rv=rv,
                    ruu=np.zeros(3), ruv=np.zeros(3), rvv=np.zeros(3))
    hj, singular = geometry.monge_jet(jet)
    raised = []
    for convert in (lambda: height_jet_from_param(jet),
                    lambda: dual_from_tangent(jet.r, jet.ru, jet.rv)):
        try:
            convert()
            raised.append(False)
        except NonAdmissiblePoint:
            raised.append(True)
    assert raised == [bool(singular)] * 2
    # the non-raising conversion marks a point as NaN exactly where it is singular
    assert bool(np.isnan(hj.fx)) == bool(singular)


def test_monge_jet_is_vectorized_and_raises_nothing():
    # three points, one a row; a field is a (3, N) array of components
    ru = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0], [3.0, 1.0, 1.0]])
    rv = np.array([[0.0, 1.0, 3.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    zero = np.zeros((3, 3))
    jet = ParamJet2(r=zero, ru=ru.T, rv=rv.T, ruu=zero, ruv=zero, rvv=zero)
    hj, singular = geometry.monge_jet(jet)
    assert singular.tolist() == [False, True, False]
    assert_allclose([hj.fx[0], hj.fy[0]], [2.0, 3.0])
    assert np.isnan(hj.fx[1]) and np.isnan(hj.fxx[1])
    for i in (0, 2):
        one = ParamJet2(r=zero[i], ru=ru[i], rv=rv[i], ruu=zero[i], ruv=zero[i], rvv=zero[i])
        single = height_jet_from_param(one)
        assert (single.fx, single.fy, single.fxx) == (hj.fx[i], hj.fy[i], hj.fxx[i])


# --- isotropic curvature values ------------------------------------------

def test_helicoid_curvatures_at_unit_radius():
    jet = evaluate(make_spec("helicoid"), 1.0, 0.0)
    c = isotropic_curvatures(height_jet_from_param(jet))
    assert_allclose(c.H, 0.0, atol=1e-14)
    assert_allclose(c.K, -1.0, rtol=1e-13)
    assert_allclose([c.k1, c.k2], [1.0, -1.0], rtol=1e-13)
    assert not bool(c.umbilic)


def test_logarithmoid_hessian_on_x_axis():
    # z = 2 log r: at (1, 0) the Hessian is diag(-2, 2)
    jet = evaluate(make_spec("logarithmoid"), 1.0, 0.0)
    hj = height_jet_from_param(jet)
    assert_allclose([hj.fxx, hj.fxy, hj.fyy], [-2.0, 0.0, 2.0], atol=1e-13)
    c = isotropic_curvatures(hj)
    assert_allclose(c.H, 0.0, atol=1e-14)
    assert_allclose(c.K, -4.0, rtol=1e-13)


def test_trans_paraboloid_constant_curvatures():
    jet = evaluate(make_spec("trans_paraboloid", {"a": 2.0}), 0.37, -0.81)
    c = isotropic_curvatures(height_jet_from_param(jet))
    assert_allclose(c.K, 8.0, rtol=1e-12)
    assert_allclose(c.H, 3.0, rtol=1e-12)


def test_umbilic_flag_and_direction_fallback():
    c = isotropic_curvatures(monge_jet(0, 0, 0, 0, 0, 2.0, 0.0, 2.0))
    assert bool(c.umbilic)
    assert_allclose(c.d1, [1.0, 0.0])
    assert_allclose(c.d2, [0.0, 1.0])


def test_principal_directions_are_orthonormal_eigenvectors():
    j = monge_jet(0, 0, 0, 0, 0, 3.0, 1.0, -2.0)
    c = isotropic_curvatures(j)
    hess = np.array([[3.0, 1.0], [1.0, -2.0]])
    assert_allclose(np.dot(c.d1, c.d2), 0.0, atol=1e-15)
    assert_allclose(hess @ c.d1, float(c.k1) * c.d1, atol=1e-12)
    assert_allclose(hess @ c.d2, float(c.k2) * c.d2, atol=1e-12)
    assert float(c.k1) >= float(c.k2)


@given(fxx=finite, fxy=finite, fyy=finite)
@settings(max_examples=150, deadline=None)
def test_eigen_reconstruction_property(fxx, fxy, fyy):
    c = isotropic_curvatures(monge_jet(0, 0, 0, 0, 0, fxx, fxy, fyy))
    hess = np.array([[fxx, fxy], [fxy, fyy]])
    scale = max(1.0, abs(fxx), abs(fxy), abs(fyy))
    assert abs(float(c.k1) + float(c.k2) - (fxx + fyy)) <= 1e-12 * scale
    assert abs(float(c.k1) * float(c.k2) - (fxx * fyy - fxy * fxy)) <= 1e-11 * scale ** 2
    if not bool(c.umbilic):
        assert np.max(np.abs(hess @ c.d1 - float(c.k1) * c.d1)) <= 1e-10 * scale


# --- ratio condition -------------------------------------------------------

def test_crpc_target_values_and_symmetry():
    assert crpc_target(2.0) == pytest.approx(9.0 / 8.0)
    assert crpc_target(1.0) == 1.0
    assert crpc_target(-1.0) == 0.0
    assert crpc_target(0.5) == crpc_target(2.0)
    with pytest.raises(InvalidParams, match="^0.0 is not a nonzero ratio$"):
        crpc_target(0.0)
    # no finite target: overflow, a subnormal ratio, and not a number
    for a in (1e200, -1e200, 1e-320, math.inf, math.nan):
        with pytest.raises(InvalidParams, match=r"gives no finite target \(a\+1\)\^2/\(4a\)"):
            crpc_target(a)


def _isotropic_ratio_residual(hj, a):
    return float(ratio_law_residual(hj, *relative_curvatures(hj), a, False))


def test_ratio_law_residual_vanishes_on_the_quadric():
    hj = height_jet_from_param(evaluate(make_spec("trans_paraboloid", {"a": 2.0}), 0.1, 0.4))
    assert abs(_isotropic_ratio_residual(hj, 2.0)) < 1e-14
    # the symmetric hypothesis a -> 1/a leaves the target unchanged
    assert abs(_isotropic_ratio_residual(hj, 0.5)) < 1e-14


def test_ratio_law_residual_is_nan_where_k_vanishes():
    assert math.isnan(_isotropic_ratio_residual(monge_jet(0, 0, 0, 0, 0, 1.0, 0.0, 0.0), 2.0))


def test_normal_curvature_euler_values():
    j = monge_jet(0, 0, 0, 0, 0, 2.0, 0.0, 4.0)
    assert normal_curvature(j, (1.0, 0.0)) == pytest.approx(2.0)
    assert normal_curvature(j, (0.0, 1.0)) == pytest.approx(4.0)
    t = (0.7071067811865476, 0.7071067811865476)  # (1, 1) / |(1, 1)|
    assert normal_curvature(j, t) == pytest.approx(3.0)


# --- characteristic directions ---------------------------------------------

def test_characteristic_directions_asymptotic_when_k_negative():
    jet = evaluate(make_spec("helicoid"), 1.2, 0.3)
    hj = height_jet_from_param(jet)
    tp, tm = characteristic_directions(hj)
    assert abs(float(normal_curvature(hj, tp))) < 1e-12
    assert abs(float(normal_curvature(hj, tm))) < 1e-12


def test_characteristic_angle_law_positive_k():
    a = 2.0
    jet = evaluate(make_spec("paraboloid", {"a": a}), 0.2, 0.5)
    tp, tm = characteristic_directions(height_jet_from_param(jet))
    gamma = math.acos(abs(float(np.dot(tp, tm))))
    assert 1.0 / math.tan(gamma / 2.0) ** 2 == pytest.approx(a, abs=1e-12)


def test_characteristic_directions_raise_at_umbilic():
    with pytest.raises(Umbilic):
        characteristic_directions(monge_jet(0, 0, 0, 0, 0, 2.0, 0.0, 2.0))
    with pytest.raises(DegenerateK):
        characteristic_directions(monge_jet(0, 0, 0, 0, 0, 1.0, 0.0, 0.0))


# --- Euclidean pipeline ------------------------------------------------------

def test_euclidean_curvatures_on_round_sphere():
    x, y = 0.1, 0.2

    def upper(xx, yy):
        return math.sqrt(1.0 - xx * xx - yy * yy)

    r2 = x * x + y * y
    w = upper(x, y)
    j = monge_jet(
        x, y, w,
        -x / w, -y / w,
        -(1.0 - y * y) / w ** 3, -x * y / w ** 3, -(1.0 - x * x) / w ** 3,
    )
    K_e, H_e, k1_e, k2_e = euclidean_curvatures(j)
    assert_allclose(K_e, 1.0, rtol=1e-12)
    assert_allclose(abs(float(H_e)), 1.0, rtol=1e-12)
    assert_allclose([abs(float(k1_e)), abs(float(k2_e))], [1.0, 1.0], rtol=1e-12)
    assert r2 < 1.0  # the chart point really is on the upper hemisphere


def test_euclidean_principal_curvatures_of_the_unit_sphere_keep_their_digits():
    # z = 1 - sqrt(1 - r^2) is umbilic everywhere, where H_e +- sqrt(H_e^2 - K_e)
    # loses half the digits; 25 points, the pole among them
    r = np.linspace(0.0, 0.9, 5)[:, None]
    t = np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False)[None, :]
    x, y = r * np.cos(t), r * np.sin(t)
    s = np.sqrt(1.0 - x * x - y * y)
    j = monge_jet(x, y, 1.0 - s, x / s, y / s,
                  (1.0 - y * y) / s ** 3, x * y / s ** 3, (1.0 - x * x) / s ** 3)
    _, _, k1_e, k2_e = euclidean_curvatures(j)
    assert k1_e.shape == (5, 5) and x[0, 0] == y[0, 0] == 0.0
    assert np.all(np.abs(k1_e - 1.0) <= 8 * np.finfo(float).eps)
    assert np.all(np.abs(k2_e - 1.0) <= 8 * np.finfo(float).eps)


def test_helicoid_is_euclidean_minimal_too():
    jet = evaluate(make_spec("helicoid"), 0.9, 1.1)
    _, H_e, _, _ = euclidean_curvatures(height_jet_from_param(jet))
    assert abs(float(H_e)) < 1e-13


# --- similarity invariance ---------------------------------------------------

@given(
    h1=st.floats(min_value=0.2, max_value=2.0),
    h2=st.floats(min_value=-1.0, max_value=1.0),
    c1=finite, c2=finite,
    c3=st.floats(min_value=0.3, max_value=3.0),
    u=st.floats(min_value=-0.8, max_value=0.8),
    v=st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=100, deadline=None)
def test_similarity_scaling_law_and_ratio_invariance(h1, h2, c1, c2, c3, u, v):
    # the isotropic similarity x -> A x + b, applied to each field of the jet
    A = np.array([[h1, -h2, 0.0], [h2, h1, 0.0], [c1, c2, c3]])
    jet = evaluate(make_spec("paraboloid", {"a": 2.0}), u, v)
    moved = ParamJet2(r=A @ jet.r + np.array([0.4, -0.2, 1.5]), ru=A @ jet.ru, rv=A @ jet.rv,
                      ruu=A @ jet.ruu, ruv=A @ jet.ruv, rvv=A @ jet.rvv)
    c_before = isotropic_curvatures(height_jet_from_param(jet))
    c_after = isotropic_curvatures(height_jet_from_param(moved))
    sigma2 = h1 * h1 + h2 * h2
    fac = c3 / sigma2
    assert_allclose(float(c_after.H), fac * float(c_before.H), rtol=1e-10, atol=1e-12)
    assert_allclose(float(c_after.K), fac * fac * float(c_before.K), rtol=1e-10, atol=1e-12)
    before = float(c_before.H) ** 2 / float(c_before.K)
    after = float(c_after.H) ** 2 / float(c_after.K)
    assert abs(before - after) <= 1e-12 * max(1.0, abs(before))


# --- the component-wise eigen decomposition against the stacked one ----------

def _reference_fix_sign(d):
    lead = np.where(np.abs(d[..., 0]) > 1e-14, d[..., 0], d[..., 1])
    return d * np.where(lead < 0, -1.0, 1.0)[..., None]


def _reference_isotropic_curvatures(j):
    """isotropic_curvatures on stacked (..., 2) candidates and np.linalg.norm."""
    H, K = geometry.relative_curvatures(j)
    fxx = np.asarray(j.fxx, float)
    fyy = np.asarray(j.fyy, float)
    fxy = np.asarray(j.fxy, float)
    half_gap = np.hypot(0.5 * (fxx - fyy), fxy)
    k1 = H + half_gap
    k2 = H - half_gap
    umb = np.abs(k1 - k2) <= geometry.UMBILIC_RTOL * np.maximum(
        np.maximum(np.abs(k1), np.abs(k2)), 1.0)
    c1 = np.stack([np.broadcast_to(fxy, H.shape), k1 - fxx], axis=-1)
    c2 = np.stack([k1 - fyy, np.broadcast_to(fxy, H.shape)], axis=-1)
    pick = np.linalg.norm(c1, axis=-1) >= np.linalg.norm(c2, axis=-1)
    d1 = np.where(pick[..., None], c1, c2)
    n1 = np.linalg.norm(d1, axis=-1, keepdims=True)
    axis_x = np.zeros_like(d1)
    axis_x[..., 0] = 1.0
    degenerate = (n1[..., 0] == 0.0) | umb
    d1 = np.where(degenerate[..., None], axis_x, d1 / np.where(n1 == 0.0, 1.0, n1))
    d1 = _reference_fix_sign(d1)
    d2 = _reference_fix_sign(np.stack([-d1[..., 1], d1[..., 0]], axis=-1))
    return geometry.IsoCurvature(H=H, K=K, k1=k1, k2=k2, d1=d1, d2=d2, umbilic=umb)


def assert_same_bits(a, b):
    """Same type, shape and dtype; NaN at the same places, other bits equal."""
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype == bool:
        assert np.array_equal(a, b)
        return
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def assert_same_curvatures(j):
    with np.errstate(all="ignore"):
        new, ref = isotropic_curvatures(j), _reference_isotropic_curvatures(j)
    for name in ("H", "K", "k1", "k2", "d1", "d2", "umbilic"):
        assert_same_bits(getattr(new, name), getattr(ref, name))


NAN, INF = math.nan, math.inf
# (fxx, fxy, fyy): umbilics, a zero candidate vector (n1 == 0), -0.0
# components, tiny leading components, k2 = 0 with K = 1, and non-finite jets
HESSIANS = [
    (2.0, 0.0, 2.0), (-3.0, 0.0, -3.0), (1.0, 1e-12, 1.0), (0.0, 0.0, 0.0),
    (1e300, 0.0, 1e300), (1.0, 1e-200, 1.0), (1e100, 0.0, 1e-100),
    (-0.0, -0.0, -0.0), (2.0, -0.0, 1.0), (1.0, -0.0, 2.0), (-0.0, 1.0, -0.0),
    (-1.0, -0.0, -2.0), (1.0, 1e-15, 2.0), (2.0, 1e-15, 1.0), (3.0, 1.0, -2.0),
    (-2.0, -1.0, 3.0), (1e-8, -4.0, 1e-8),
    (NAN, 0.0, 1.0), (1.0, NAN, 1.0), (NAN, NAN, NAN), (INF, 0.0, 1.0),
    (INF, 1.0, INF), (-INF, 2.0, 1.0), (1.0, INF, 2.0),
]


@pytest.mark.parametrize("fxx,fxy,fyy", HESSIANS)
def test_curvatures_match_stacked_reference_at_special_points(fxx, fxy, fyy):
    assert_same_curvatures(monge_jet(0, 0, 0, 0, 0, fxx, fxy, fyy))
    assert_same_curvatures(monge_jet(0, 0, 0, 0, 0, *map(np.float64, (fxx, fxy, fyy))))


def test_curvatures_match_stacked_reference_on_arrays():
    fxx, fxy, fyy = (np.array(col) for col in zip(*HESSIANS))
    assert_same_curvatures(monge_jet(0, 0, 0, 0, 0, fxx, fxy, fyy))
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 6, 5)) * rng.choice([0.0, -0.0, 1e-16, 1.0, 1e3], size=(3, 6, 5))
    assert_same_curvatures(monge_jet(0, 0, 0, 0, 0, h[0], h[1], h[2]))
    assert_same_curvatures(monge_jet(0, 0, 0, 0, 0, h[0], h[1], h[0]))  # umbilic where h[1] = 0


@pytest.mark.parametrize("fid", family_ids())
def test_curvatures_match_stacked_reference_on_every_family(fid):
    spec = make_spec(fid)
    u0, u1, v0, v1 = spec.domain
    # a box half as wide again as the default one reaches singular loci
    us = np.linspace(1.5 * u0 - 0.5 * u1, 1.5 * u1 - 0.5 * u0, 9)
    vs = np.linspace(1.5 * v0 - 0.5 * v1, 1.5 * v1 - 0.5 * v0, 7)
    inputs = [(0.5 * (u0 + u1), 0.5 * (v0 + v1)), (us, vs[:1].repeat(9)),
              np.meshgrid(us, vs, indexing="ij")]
    for U, V in inputs:
        with np.errstate(all="ignore"):
            hj, _singular = geometry.monge_jet(evaluate(spec, U, V, check=False))
        assert_same_curvatures(hj)


# --- the float direction of a trace stage against the array functions -------

PARAM_FIELDS = ("r", "ru", "rv", "ruu", "ruv", "rvv")
CHARACTERISTIC = ("characteristic+", "characteristic-")
UNIT = "field direction is not a unit vector"


def _jet_floats(jet):
    """The 18 floats of a one-point jet, field by field."""
    return [float(c) for f in PARAM_FIELDS for c in getattr(jet, f)]


def _array_direction(jet, kind):
    """The direction of field kind by geometry's array functions, as a list."""
    hj = height_jet_from_param(jet)
    if kind in CHARACTERISTIC:
        tp, tm = characteristic_directions(hj)
        return (tp if kind == "characteristic+" else tm).tolist()
    c = isotropic_curvatures(hj)
    if c.umbilic.any():
        raise Umbilic("principal directions undefined at an umbilic")
    return (c.d1 if kind == "principal1" else c.d2).tolist()


def _outcome(fn, *args):
    """fn(*args) under the trace's floating-point state but with divide left
    to warn, and any warning an error; or the class and message of the
    GeometryError it raised. A divide by zero, which the trace ignores, so
    fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                return fn(*args)
            except GeometryError as exc:
                return type(exc), str(exc)


def assert_same_outcome(got, want):
    """got, a _float_direction outcome, is want, an _array_direction one: two
    Python floats with want's bits (NaN where it is NaN), or its error."""
    if isinstance(want, list):
        assert type(got) is tuple and all(type(c) is float for c in got)
        assert_same_bits(np.array(got), np.array(want))
    else:
        assert got == want


def _stage(jet, kind, ref):
    """A trace stage's direction, as _outcome runs it: the seed's from the
    jet with ref None, else a later stage's from the jet's 18 floats; ref
    (0, 0) flips no sign."""
    values = _jet_floats(jet)
    with np.errstate(over="ignore", invalid="ignore"):
        return list(curves._field_direction(jet if ref is None else values, kind, ref)[0])


def assert_float_direction_matches(jet):
    """For each kind: _float_direction gives the array direction bit for bit
    (Python floats), or the same error class and message. The seed and a
    later stage give the array direction, or DegenerateJet where that is no
    unit vector."""
    values = _jet_floats(jet)
    for kind in TRACE_KINDS:
        want = _outcome(_array_direction, jet, kind)
        assert_same_outcome(_outcome(curves._float_direction, values, kind), want)
        for ref in (None, (0.0, 0.0)):
            stage = _outcome(_stage, jet, kind, ref)
            if isinstance(want, list) and not 0.5 <= np.dot(want, want) <= 2.0:
                assert stage == (DegenerateJet, UNIT)
            elif isinstance(stage, list):
                assert_same_bits(np.array(stage), np.array(want))
            else:
                assert stage == want


def _hessian_jet(fxx, fxy, fyy):
    """A chart jet over the identity frame at the origin, whose Monge Hessian
    is (fxx, fxy, fyy) up to the signs of zeros."""
    zero = np.zeros(3)
    return ParamJet2(zero, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, fxx]), np.array([0.0, 0.0, fxy]),
                     np.array([0.0, 0.0, fyy]))


@pytest.mark.parametrize("fid", family_ids())
def test_float_direction_matches_the_array_functions_on_every_family(fid):
    spec = make_spec(fid)
    u0, u1, v0, v1 = spec.domain
    rng = np.random.default_rng(family_ids().index(fid))
    jets = []
    for _ in range(5):
        u, v = u0 + (u1 - u0) * rng.random(), v0 + (v1 - v0) * rng.random()
        jets.append(evaluate(spec, u, v))
        assert_float_direction_matches(jets[-1])
    # the five jets as one of (3, 5) fields: the array functions on (N,)
    # arrays give each point's float direction too
    batch = ParamJet2(*(np.stack([getattr(j, f) for j in jets], axis=-1) for f in PARAM_FIELDS))
    for kind in TRACE_KINDS:
        want = [_outcome(curves._float_direction, _jet_floats(j), kind) for j in jets]
        if all(isinstance(d, tuple) and type(d[0]) is float for d in want):
            assert_same_bits(np.array(_array_direction(batch, kind)), np.array(want))


@pytest.mark.parametrize("fxx,fxy,fyy", [h for h in HESSIANS if all(map(math.isfinite, h))] + [
    (1.0, 0.0, 1e-13), (-1.0, 2e-7, 1e-13), (1.0, 1e-7, 1e-14),  # |K| < K_EPS, no umbilic
    (1e160, 1.0, 1e160), (1e300, 1.0, -1e300),  # K overflows: the array functions' values
    (1.0, -5e-15, 2.0), (1.0, -5e-14, 2.0),  # a negative leading component near 1e-14
    (-2.9, -1.0, -1.7), (-2.4, 2.7, -1.7),  # math.hypot rounds the half gap differently
    (-2.9, -1.7, 0.3), (-2.7, 2.0, -1.7),  # math.atan rounds phi differently
])
def test_float_direction_matches_the_array_functions_at_special_points(fxx, fxy, fyy):
    assert_float_direction_matches(_hessian_jet(fxx, fxy, fyy))


@pytest.mark.parametrize("hessian", [
    (2.0, 0.0, 2.0),  # an umbilic: Umbilic, with the message of the kind
    (0.0, 0.0, 0.0),
    (1.0, 0.0, 1e-13),  # |K| < K_EPS: DegenerateK for a characteristic kind
    (1e100, 0.0, 1e-100),  # k2 = 0 with K = 1: numpy divides k1 by it
    (1e160, 1.0, 1e160),  # K overflows
])
def test_float_direction_matches_the_array_functions_at_zero_k2_and_overflow(hessian):
    assert_float_direction_matches(_hessian_jet(*hessian))


def test_float_direction_matches_the_array_functions_on_random_and_extreme_hessians():
    # entries of 1e160 and more overflow on the way to finite curvatures
    rng = np.random.default_rng(11)
    h = rng.normal(size=(400, 3)) * 10.0 ** rng.choice([-200, -8, 0, 3, 160, 200], size=(400, 3))
    for row in h.tolist():
        assert_float_direction_matches(_hessian_jet(*row))


# float64 bit patterns: any, or of a magnitude where admissible frames are
# as common as singular ones, or where products overflow
RAW_ENTRY = st.one_of(st.integers(0, 2 ** 64 - 1),
                      st.integers(0x3BF0 << 48, 0x43F0 << 48),  # 2**-64 to 2**64
                      st.integers(0xBBF0 << 48, 0xC3F0 << 48),  # the same, negative
                      st.integers(0x5000 << 48, 0x7FEF << 48))  # 2**257 and more
FINITE_JETS = st.lists(RAW_ENTRY, min_size=18, max_size=18).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)).filter(
    lambda values: np.isfinite(values).all())


@settings(max_examples=500, deadline=None)
@given(FINITE_JETS)
def test_float_direction_matches_the_array_functions_on_any_finite_jet(values):
    # subnormals, -0.0, huge entries and products that overflow all occur
    jet = ParamJet2(*values.reshape(6, 3))
    for kind in TRACE_KINDS:
        assert_same_outcome(_outcome(curves._float_direction, values.tolist(), kind),
                            _outcome(_array_direction, jet, kind))


@pytest.mark.parametrize("ru,rv,rvv,stage", [
    ([1.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.0, 0.0],  # collinear top views
     (NonAdmissiblePoint, geometry._SINGULAR)),
    ([1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 0.0],  # the frame scale overflows
     (NonAdmissiblePoint, geometry._SINGULAR)),
    ([1.0, 0.0, 0.0], [0.0, 1e-10, 0.0], [0.0, 0.0, 1e300],  # admissible, fyy overflows
     (DegenerateJet, UNIT)),
    ([1.0, math.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0],  # refused before any direction
     (DegenerateJet, "chart jet is not finite")),
    ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.inf, 0.0, 0.0],
     (DegenerateJet, "chart jet is not finite")),
])
def test_a_stage_on_a_hard_jet_matches_the_array_functions(ru, rv, rvv, stage):
    zero = np.zeros(3)
    jet = ParamJet2(zero, np.array(ru), np.array(rv), zero, zero, np.array(rvv))
    for kind in TRACE_KINDS:
        assert _outcome(_stage, jet, kind, None) == stage
        assert _outcome(_stage, jet, kind, (0.0, 0.0)) == stage
    if np.isfinite([ru, rv, rvv]).all():
        assert_float_direction_matches(jet)
