"""Metric duality: dual surfaces and their curvature relations."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from isocrpc.duality import (
    conjugate_geodesic_net_check,
    dual_curvature_check,
    dual_from_tangent,
    dual_map_jet,
    dual_surface_point,
    dual_velocity,
    involution_check,
    line_fit_residual,
)
from isocrpc.errors import NonAdmissiblePoint
from isocrpc.families import evaluate, make_spec
from isocrpc.geometry import (
    FD_STEP,
    Jet2Height,
    crpc_target,
    height_jet_from_param,
    isotropic_curvatures,
)


def grid(spec, n=5, shrink=0.2):
    u0, u1, v0, v1 = spec.domain
    du, dv = u1 - u0, v1 - v0
    us = np.linspace(u0 + shrink * du, u1 - shrink * du, n)
    vs = np.linspace(v0 + shrink * dv, v1 - shrink * dv, n)
    return us, vs


# --- dual surface points ------------------------------------------------------

def test_paraboloid_dual_is_the_expected_graph():
    a = 3.0
    spec = make_spec("paraboloid", {"a": a})
    for u, v in [(0.5, 0.25), (-1.0, 0.75), (0.2, -0.6)]:
        d = dual_surface_point(evaluate(spec, u, v))
        assert_allclose(d, [2.0 * u, 2.0 * a * v, u * u + a * v * v], atol=1e-14)
        # the dual points satisfy z* = x*^2/4 + y*^2/(4a)
        assert d[2] == pytest.approx(d[0] ** 2 / 4.0 + d[1] ** 2 / (4.0 * a))


def test_unit_sphere_is_self_dual():
    for x, y in [(0.0, 0.0), (0.7, -0.3), (1.2, 0.4)]:
        j = Jet2Height(x0=x, y0=y, f=0.5 * (x * x + y * y),
                       fx=x, fy=y, fxx=1.0, fxy=0.0, fyy=1.0)
        assert_allclose(dual_surface_point(j), [x, y, 0.5 * (x * x + y * y)])


def test_vertical_tangent_has_no_dual():
    with pytest.raises(NonAdmissiblePoint):
        dual_from_tangent((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))


def test_dual_velocity_matches_finite_differences():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    u, v, h = 0.3, -0.2, 1e-6
    du, dv = dual_velocity(evaluate(spec, u, v))
    fd_u = (dual_surface_point(evaluate(spec, u + h, v))
            - dual_surface_point(evaluate(spec, u - h, v))) / (2 * h)
    fd_v = (dual_surface_point(evaluate(spec, u, v + h))
            - dual_surface_point(evaluate(spec, u, v - h))) / (2 * h)
    assert_allclose(du, fd_u, atol=1e-8)
    assert_allclose(dv, fd_v, atol=1e-8)


# --- dual curvatures ------------------------------------------------------------

def test_dual_curvatures_of_translational_paraboloid():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    cur = isotropic_curvatures(height_jet_from_param(evaluate(spec, 0.4, 0.1)))
    assert float(cur.K) == pytest.approx(8.0)
    dj = dual_map_jet(lambda uu, vv: evaluate(spec, uu, vv, check=False), 0.4, 0.1)
    dcur = isotropic_curvatures(height_jet_from_param(dj))
    assert abs(float(dcur.K) - 1.0 / 8.0) <= 1e-6
    assert abs(float(dcur.H) - float(cur.H) / 8.0) <= 1e-6


def test_dual_of_helicoid_is_minimal():
    spec = make_spec("helicoid", {})
    dj = dual_map_jet(lambda uu, vv: evaluate(spec, uu, vv, check=False), 1.2, 0.7)
    dcur = isotropic_curvatures(height_jet_from_param(dj))
    assert abs(float(dcur.H)) <= 1e-6


BATCH_FAMILIES = [
    ("helical_general", {"a": 2.0}),
    ("euclidean_rotational", {"a": -2.0}),
    ("dual_trans_iso_noniso", {"a": -2.0}),
    ("dual_trans_minimal", {}),
    ("trans_paraboloid", {"a": 2.0}),
    ("spiral_ruled", {"a": -2.0}),
    ("helicoid", {}),
]


def pointwise_dual_jet(jet_fn, u, v, h=1e-4):
    """The dual jet at one point from scalar chart, velocity and point calls."""
    w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    vel_u = [dual_velocity(jet_fn(u + (i - 2) * h, v)) for i in range(5)]
    vel_v = [dual_velocity(jet_fn(u, v + (k - 2) * h)) for k in range(5)]
    center = jet_fn(u, v)
    ru, rv = dual_velocity(center)
    return {
        "r": dual_surface_point(center), "ru": ru, "rv": rv,
        "ruu": sum(wi * d[0] for wi, d in zip(w, vel_u)),
        "rvv": sum(wi * d[1] for wi, d in zip(w, vel_v)),
        "ruv": 0.5 * (sum(wi * d[1] for wi, d in zip(w, vel_u))
                      + sum(wi * d[0] for wi, d in zip(w, vel_v))),
    }


def assert_jet_matches_pointwise(jet_fn, U, V, dj):
    for idx in np.ndindex(np.shape(U)):
        one = pointwise_dual_jet(jet_fn, float(U[idx]), float(V[idx]))
        for name, rtol in [("r", 1e-13), ("ru", 1e-13), ("rv", 1e-13),
                           ("ruu", 1e-10), ("ruv", 1e-10), ("rvv", 1e-10)]:
            x, y = one[name], getattr(dj, name)[idx]
            assert np.all(np.abs(y - x) <= rtol * np.maximum(1.0, np.abs(x))), (idx, name)


@pytest.mark.parametrize("fid,params", BATCH_FAMILIES)
def test_batched_dual_jet_matches_scalar_calls(fid, params):
    spec = make_spec(fid, params)
    us, vs = grid(spec, n=4)

    def jet_fn(uu, vv):
        return evaluate(spec, uu, vv, check=False)

    U, V = np.meshgrid(us, vs, indexing="ij")
    dj = dual_map_jet(jet_fn, U, V)
    assert dj.r.shape == dj.ruu.shape == (4, 4, 3)
    assert_jet_matches_pointwise(jet_fn, U, V, dj)
    flat = dual_map_jet(jet_fn, U.ravel(), V.ravel())
    assert flat.rvv.shape == (16, 3)
    assert_jet_matches_pointwise(jet_fn, U.ravel(), V.ravel(), flat)


def eleven_point_dual_jet(jet_fn, u, v):
    """dual_map_jet on an (S, 11) stencil that also evaluates the centre at the
    zero offsets along u and v, each weighted 0."""
    u, v = np.broadcast_arrays(np.asarray(u, float)[..., None], np.asarray(v, float)[..., None])
    steps = np.arange(-2, 3) * FD_STEP
    jet = jet_fn(np.concatenate([u + steps, np.repeat(u, 6, axis=-1)], axis=-1),
                 np.concatenate([np.repeat(v, 5, axis=-1), v + steps, v], axis=-1))
    du, dv = dual_velocity(jet)
    w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * FD_STEP)
    return {
        "r": dual_from_tangent(jet.r[..., 10, :], jet.ru[..., 10, :], jet.rv[..., 10, :]),
        "ru": du[..., 10, :], "rv": dv[..., 10, :],
        "ruu": sum(wi * du[..., i, :] for i, wi in enumerate(w)),
        "rvv": sum(wi * dv[..., 5 + i, :] for i, wi in enumerate(w)),
        "ruv": 0.5 * (sum(wi * dv[..., i, :] for i, wi in enumerate(w))
                      + sum(wi * du[..., 5 + i, :] for i, wi in enumerate(w))),
    }


@pytest.mark.parametrize("fid,params", BATCH_FAMILIES)
def test_nine_point_dual_jet_matches_the_eleven_point_stencil_bit_for_bit(fid, params):
    # the two centre points of the u and v stencils enter only as 0 * du
    spec = make_spec(fid, params)
    us, vs = grid(spec, n=4)
    U, V = np.meshgrid(us[:3], vs, indexing="ij")  # a (3, 4) node array

    def jet_fn(uu, vv):
        return evaluate(spec, uu, vv, check=False)

    dj = dual_map_jet(jet_fn, U, V)
    for name, want in eleven_point_dual_jet(jet_fn, U, V).items():
        assert getattr(dj, name).shape == want.shape == (3, 4, 3)
        assert getattr(dj, name).tobytes() == want.tobytes(), (fid, name)


def test_scalar_dual_jet_has_vector_fields():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    dj = dual_map_jet(lambda uu, vv: evaluate(spec, uu, vv, check=False), 0.4, 0.1)
    for name in ("r", "ru", "rv", "ruu", "ruv", "rvv"):
        assert getattr(dj, name).shape == (3,), name


def test_batched_dual_jet_rejects_a_vertical_tangent():
    # the helicoid's tangent plane is vertical on its axis u = 0, which the
    # stencil of u = 2h reaches at its offset -2h
    spec = make_spec("helicoid", {})

    def jet_fn(uu, vv):
        return evaluate(spec, uu, vv, check=False)

    dual_map_jet(jet_fn, np.array([0.8, 1.2]), np.array([0.3, 0.7]))
    for u_bad in (0.0, 2e-4):
        with pytest.raises(NonAdmissiblePoint):
            dual_map_jet(jet_fn, np.array([0.8, u_bad, 1.2]), np.array([0.3, 0.5, 0.7]))


def test_dual_from_tangent_is_vectorized():
    r = np.zeros((2, 3))
    ru = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    rv = np.array([[0.0, 1.0, 3.0], [0.0, 1.0, -1.0]])
    assert_allclose(dual_from_tangent(r, ru, rv), [[2.0, 3.0, 0.0], [0.0, -1.0, 0.0]])
    ru[1] = (0.0, 0.0, 1.0)
    with pytest.raises(NonAdmissiblePoint):
        dual_from_tangent(r, ru, rv)


def test_dual_curvature_grid_checks():
    cases = [
        ("trans_paraboloid", {"a": 2.0}),
        ("helicoid", {}),
        ("spiral_ruled", {"a": -2.0}),
    ]
    for fid, params in cases:
        spec = make_spec(fid, params)
        us, vs = grid(spec)
        worst_k, worst_h = dual_curvature_check(spec, *np.meshgrid(us, vs, indexing="ij"))
        assert worst_k <= 1e-4, fid
        assert worst_h <= 1e-4, fid


def test_dual_check_needs_nonflat_nodes():
    # |K| is below 1e-6 (DUAL_K_FLOOR) everywhere in this default box
    spec = make_spec("trans_iso_noniso", {"a": 0.9})
    us, vs = grid(spec, shrink=0.0)
    with pytest.raises(NonAdmissiblePoint):
        dual_curvature_check(spec, *np.meshgrid(us, vs, indexing="ij"))


def test_crpc_ratio_survives_dualization():
    # H*^2/K* = H^2/K, so the dual keeps the same ratio target
    for fid, params, a in [
        ("trans_paraboloid", {"a": 2.0}, 2.0),
        ("spiral_ruled", {"a": -2.0}, -2.0),
    ]:
        spec = make_spec(fid, params)
        us, vs = grid(spec, n=3)
        target = crpc_target(a)
        for u in us:
            for v in vs:
                dj = dual_map_jet(lambda uu, vv: evaluate(spec, uu, vv, check=False),
                                  float(u), float(v))
                dcur = isotropic_curvatures(height_jet_from_param(dj))
                val = float(dcur.H) ** 2 / float(dcur.K)
                assert abs(val - target) <= 1e-4, fid


def test_involution_on_a_grid():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    us, vs = grid(spec)
    assert involution_check(spec, us, vs) <= 1e-6


# --- conjugate nets ------------------------------------------------------------

def test_line_fit_residual_basics():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert line_fit_residual(pts) <= 1e-15
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    assert line_fit_residual(pts2) > 0.1


def test_dual_minimal_family_net_is_straight_and_conjugate():
    spec = make_spec("dual_trans_minimal", {})
    us, vs = grid(spec)
    line, conj = conjugate_geodesic_net_check(spec, us, vs)
    assert line <= 1e-8
    assert conj <= 1e-8


def test_dual_translational_family_net_is_straight_and_conjugate():
    spec = make_spec("dual_trans_iso_noniso", {"a": 2.0})
    us, vs = grid(spec)
    line, conj = conjugate_geodesic_net_check(spec, us, vs)
    assert line <= 1e-8
    assert conj <= 1e-8


def test_translational_paraboloid_control_net():
    # coordinate isolines of a translational graph: straight top views and
    # a conjugate net (diagonal Hessian in chart coordinates)
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    us, vs = grid(spec)
    line, conj = conjugate_geodesic_net_check(spec, us, vs)
    assert line <= 1e-8
    assert conj <= 1e-8


def test_dual_family_ratios():
    # the dual families carry the dual ratio: (b-1)/(b+1) = 1/a, and -1
    spec = make_spec("dual_trans_iso_noniso", {"a": 2.0})
    cur = isotropic_curvatures(height_jet_from_param(evaluate(spec, 0.3, 0.4)))
    ratios = {float(cur.k1) / float(cur.k2), float(cur.k2) / float(cur.k1)}
    assert any(abs(r - 0.5) <= 1e-9 for r in ratios)

    spec_m = make_spec("dual_trans_minimal", {})
    cur_m = isotropic_curvatures(height_jet_from_param(evaluate(spec_m, 0.3, 0.4)))
    assert float(cur_m.k1) / float(cur_m.k2) == pytest.approx(-1.0, abs=1e-9)
