"""Curve tracing, included angles, osculating circles, Meusnier, sphere membership."""

import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import isocrpc.families
import isocrpc.meshing
from isocrpc import curves
from isocrpc.curves import (
    TRACE_KINDS,
    CurveJet,
    CurveTrace,
    curve_jet_on_surface,
    included_angle_topview,
    meusnier_check,
    osculating_isotropic_circle,
    trace_direction_field,
)
from isocrpc.errors import (
    DegenerateJet,
    GeometryError,
    InflectionPoint,
    InvalidParams,
    NoIntersection,
    Umbilic,
    ZeroNormalCurvature,
)
from isocrpc.families import evaluate, make_spec, point_jet
from isocrpc.geometry import characteristic_directions, height_jet_from_param
from isocrpc.meshing import fmt_float
from isocrpc.spheres import ParabolicSphere


def line_fit_gap(xy):
    """Max distance of top-view samples from their best-fit line."""
    p = np.asarray(xy, float)
    c = p - p.mean(axis=0)
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    n = vt[-1]
    return float(np.max(np.abs(c @ n)))


# --- tracing ----------------------------------------------------------------

def test_trace_shapes_and_time_grid():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    tr = trace_direction_field(spec, (0.1, 0.3), "characteristic+", 50, 1e-3)
    assert tr.stopped is None
    assert len(tr) == 51
    assert tr.points.shape == (51, 3)
    assert tr.uv.shape == (51, 2)
    assert_allclose(np.diff(tr.t), 1e-3)
    # the integrated field has unit top-view speed
    assert np.linalg.norm(tr.top_dirs[0]) == pytest.approx(1.0)


def test_rk4_step_evaluates_the_chart_once_per_stage(monkeypatch):
    calls = {"evaluate": [], "point_jet": []}
    for name, fn in (("evaluate", evaluate), ("point_jet", point_jet)):
        def counted(*args, fn=fn, name=name, **kwargs):
            calls[name].append(args[1:3])
            return fn(*args, **kwargs)

        monkeypatch.setattr(curves, name, counted)
    spec = make_spec("rotational_power_1", {"a": 2.0})
    tr = trace_direction_field(spec, (1.0, 0.5), "principal1", 10, 1e-2)
    assert tr.stopped is None
    # the seed, then three RK4 stages and the accepted point per step; the
    # first stage of a step is the accepted point's direction
    assert (len(calls["evaluate"]), len(calls["point_jet"])) == (1, 4 * 10)


def test_rk4_inner_stages_run_no_height_quadrature(monkeypatch):
    # euclidean_rotational's height is a quadrature; only the seed and the
    # accepted samples read a height, so a 100-step trace runs 101, not 401
    calls = []
    qags = isocrpc.families.qags

    def counted(f, lo, hi):
        calls.append((f, lo, hi))
        return qags(f, lo, hi)

    monkeypatch.setattr(isocrpc.families, "qags", counted)
    spec = make_spec("euclidean_rotational", {})
    tr = trace_direction_field(spec, (0.5, 1.0), "characteristic+", 100, 1e-3)
    assert tr.stopped is None and len(tr) == 101
    assert len(calls) == 101


def _floats(jet):
    """The 18 floats of a one-point jet, as a trace stage reads them."""
    return [c for f in dataclasses.fields(jet) for c in getattr(jet, f.name).tolist()]


def _reference_trace(spec, seed, kind, steps, dt):
    """RK4 that evaluates the chart, heights included, at all four stages
    and at the accepted point."""
    u, v = float(seed[0]), float(seed[1])
    d0, _velocity, point0 = curves._field_direction(evaluate(spec, u, v), kind, None)
    ts, uvs, pts, dirs = [0.0], [(u, v)], [point0], [d0]
    stopped, ref = None, d0
    for i in range(steps):
        try:
            def rhs(uu, vv):
                return np.array(curves._field_direction(_floats(evaluate(spec, uu, vv)), kind,
                                                        ref)[1])

            k1 = rhs(u, v)
            k2 = rhs(u + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1])
            k3 = rhs(u + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1])
            k4 = rhs(u + dt * k3[0], v + dt * k3[1])
            du, dv = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            u, v = u + du, v + dv
            d, _velocity, point = curves._field_direction(_floats(evaluate(spec, u, v)),
                                                          kind, ref)
        except GeometryError as exc:
            stopped = f"{type(exc).__name__}: {exc}"
            break
        ref = d
        ts.append((i + 1) * dt)
        uvs.append((u, v))
        pts.append(point)
        dirs.append(d)
    return CurveTrace(kind=kind, t=np.array(ts), uv=np.array(uvs), points=np.array(pts),
                      top_dirs=np.array(dirs), stopped=stopped)


def assert_same_trace(tr, ref):
    assert tr.kind == ref.kind
    assert tr.stopped == ref.stopped
    for name in ("t", "uv", "points", "top_dirs"):
        a, b = getattr(tr, name), getattr(ref, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


REUSE_SEEDS = {
    "paraboloid": ({"a": 2.0}, (0.3, -0.2)),
    "rotational_power_1": ({"a": -2.0}, (1.0, 0.5)),
    "helical_log": ({"c": 1.0}, (1.2, 0.4)),
    "trans_iso_noniso": ({"a": 2.0}, (0.0, -1.4)),
    "spiral_ruled": ({"a": -2.0}, (1.0, 1.0)),
    # its inner stages skip the height quadrature that the reference runs
    "euclidean_rotational": ({"a": 2.0}, (0.5, 1.0)),
}


@pytest.mark.parametrize("kind", TRACE_KINDS)
@pytest.mark.parametrize("family", sorted(REUSE_SEEDS))
def test_first_stage_reuse_matches_five_evaluation_rk4(family, kind):
    params, seed = REUSE_SEEDS[family]
    spec = make_spec(family, params)
    assert_same_trace(trace_direction_field(spec, seed, kind, 40, 2e-2),
                      _reference_trace(spec, seed, kind, 40, 2e-2))


def test_first_stage_reuse_matches_where_the_field_flips_against_ref():
    spec = make_spec("rotational_power_1", {"a": -2.0})
    tr = trace_direction_field(spec, (1.0, 0.5), "principal2", 40, 2e-2)
    # principal directions come with their leading component positive; a
    # negative one is a sample flipped to agree with the previous direction
    lead = np.where(np.abs(tr.top_dirs[:, 0]) > 1e-14, tr.top_dirs[:, 0], tr.top_dirs[:, 1])
    assert (lead < 0).any() and (lead > 0).any()
    assert_same_trace(tr, _reference_trace(spec, (1.0, 0.5), "principal2", 40, 2e-2))


@pytest.mark.parametrize("kind", ["characteristic-", "principal1"])
def test_first_stage_reuse_matches_on_a_trace_that_stops_early(kind):
    spec = make_spec("dual_trans_minimal", {})
    tr = trace_direction_field(spec, (0.7, 0.9), kind, 40, 2e-2)
    assert tr.stopped is not None and tr.stopped.startswith("OutOfDomain")
    assert len(tr) < 41
    assert_same_trace(tr, _reference_trace(spec, (0.7, 0.9), kind, 40, 2e-2))


@pytest.mark.parametrize("kind,steps,dt,why", [
    ("x", 10, 1e-3, "^'x' is not one of "),
    ("principal1", 0, 1e-3, "^0 is not from 1 to 1000000 steps$"),
    ("principal1", 10, 0.0, "^0.0 is not a finite step > 0$"),
    ("principal1", 10, -1.0, "^-1.0 is not a finite step > 0$"),
])
def test_trace_rejects_bad_arguments(kind, steps, dt, why, monkeypatch):
    monkeypatch.setattr(curves, "evaluate", None)  # calling it would fail
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    with pytest.raises(InvalidParams, match=why):
        trace_direction_field(spec, (0.1, 0.3), kind, steps, dt)


def test_trace_refuses_more_steps_than_the_cap_before_evaluating(monkeypatch):
    monkeypatch.setattr(curves, "evaluate", None)  # calling it would fail
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    with pytest.raises(InvalidParams, match="^1000001 is not from 1 to 1000000 steps$"):
        trace_direction_field(spec, (0.1, 0.3), "principal1", curves.MAX_TRACE_STEPS + 1, 1e-3)


def test_trace_keeps_a_few_floats_per_step():
    # 56 bytes a step plus one step's temporaries, against about 720 bytes a
    # step when every sample was kept as small numpy arrays in lists
    spec = make_spec("rotational_power_1", {"a": -2.0})
    trace_direction_field(spec, (1.0, 0.5), "characteristic+", 2, 1e-5)  # warm-up
    tracemalloc.start()
    try:
        tr = trace_direction_field(spec, (1.0, 0.5), "characteristic+", 200, 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.stopped is None and len(tr) == 201
    assert peak < 200 * 200


@pytest.mark.parametrize("dt", [math.inf, math.nan, -math.inf])
def test_trace_rejects_a_step_that_is_not_finite(dt):
    spec = make_spec("trans_iso_noniso", {"a": 2.0})
    with pytest.raises(InvalidParams, match="is not a finite step > 0"):
        trace_direction_field(spec, (1.0, 0.5), "characteristic+", 3, dt)


def test_minimal_translational_characteristic_is_a_straight_ruling():
    spec = make_spec("trans_paraboloid", {"a": -1.0})
    tr = trace_direction_field(spec, (0.0, 0.0), "characteristic+", 300, 1e-3)
    assert line_fit_gap(tr.points[:, :2]) <= 1e-8
    d = tr.top_dirs[0]
    # ruling top view is parallel to one of the lines x = +-y
    assert abs(abs(d[0]) - math.sqrt(0.5)) <= 1e-12
    assert abs(abs(d[1]) - math.sqrt(0.5)) <= 1e-12


def test_umbilic_seed_raises():
    spec = make_spec("paraboloid", {"a": 1.0})  # isotropic unit sphere rep
    with pytest.raises(Umbilic):
        trace_direction_field(spec, (0.2, 0.1), "characteristic+", 10, 1e-3)


@pytest.mark.parametrize("kind", ["principal1", "principal2"])
def test_umbilic_seed_raises_for_principal_fields(kind):
    spec = make_spec("paraboloid", {"a": 1.0})  # every point is an umbilic
    with pytest.raises(Umbilic):
        trace_direction_field(spec, (0.2, 0.1), kind, 10, 1e-3)


def test_rotational_characteristic_is_a_log_spiral():
    spec = make_spec("rotational_power_1", {"a": -2.0})
    tr = trace_direction_field(spec, (1.0, 1.0), "characteristic+", 400, 1e-3)
    assert tr.stopped is None
    x, y = tr.points[:, 0], tr.points[:, 1]
    phi = np.unwrap(np.arctan2(y, x))
    logr = np.log(np.hypot(x, y))
    slope, _ = np.polyfit(phi, logr, 1)
    resid = np.max(np.abs(np.polyval(np.polyfit(phi, logr, 1), phi) - logr))
    assert resid <= 1e-6
    assert abs(abs(slope) - 1.0 / math.sqrt(2.0)) <= 1e-9


def test_rotational_growth_law_after_one_radian():
    # r(phi) = r(0) exp(phi / sqrt|a|) along the traced characteristic
    spec = make_spec("rotational_power_1", {"a": -2.0})
    tr = trace_direction_field(spec, (1.0, 1.0), "characteristic+", 2600, 1e-3)
    assert tr.stopped is None
    x, y = tr.points[:, 0], tr.points[:, 1]
    r = np.hypot(x, y)
    phi = np.unwrap(np.arctan2(y, x))
    dphi = phi - phi[0]
    if dphi[-1] < 0.0:
        dphi = -dphi
    assert dphi[-1] > 1.0
    r1 = np.interp(1.0, dphi, r)
    law = math.exp(1.0 / math.sqrt(2.0))
    assert abs(r1 / r[0] - law) / law <= 1e-6


def test_rk4_halving_cuts_endpoint_error_by_eight():
    spec = make_spec("rotational_power_1", {"a": -2.0})

    def endpoint(steps):
        tr = trace_direction_field(spec, (1.0, 1.0), "characteristic+", steps, 0.8 / steps)
        assert tr.stopped is None
        return tr.points[-1]

    ref = endpoint(4096)
    e1 = np.linalg.norm(endpoint(8) - ref)
    e2 = np.linalg.norm(endpoint(16) - ref)
    assert e1 / e2 >= 8.0


def test_principal_traces_stay_in_coordinate_planes():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    t1 = trace_direction_field(spec, (0.1, 0.3), "principal1", 200, 1e-3)
    t2 = trace_direction_field(spec, (0.1, 0.3), "principal2", 200, 1e-3)
    drifts = sorted([
        float(np.ptp(t1.points[:, 0])), float(np.ptp(t1.points[:, 1])),
        float(np.ptp(t2.points[:, 0])), float(np.ptp(t2.points[:, 1])),
    ])
    # one trace is confined to x = const, the other to y = const
    assert drifts[0] <= 1e-9
    assert drifts[1] <= 1e-9
    assert drifts[3] > 0.1


def test_trace_truncates_at_singular_locus():
    spec = make_spec("helical_general", {"a": 2.0})
    tr = trace_direction_field(spec, (0.5, 0.1), "characteristic-", 3000, 1e-3)
    assert tr.stopped is not None
    assert "SingularLocus" in tr.stopped
    assert 1 < len(tr) < 3001


@pytest.mark.parametrize("fid,params", [("helicoid", {}), ("logarithmoid", {}),
                                        ("helical_log", {"c": 1.0}),
                                        ("rotational_power_1", {"a": -2.0})])
def test_a_huge_step_stops_where_the_frame_overflows(fid, params):
    # an RK4 stage lands near u = 5e299, where the squared frame of the
    # admissibility test overflows; that test, the package's one, stops the
    # trace without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = trace_direction_field(make_spec(fid, params), (1.0, 0.5), "characteristic+", 3,
                                   1e300)
    assert tr.stopped.startswith("NonAdmissiblePoint: ")
    assert len(tr) == 1


def test_a_nearly_flat_spiral_cannot_leave_its_seed():
    # the Hessian overflows and the direction at the seed comes out (0, 0)
    spec = make_spec("spiral_ruled", {"a": -1e-6})
    with pytest.raises(DegenerateJet, match="not a unit vector"):
        trace_direction_field(spec, (1.0, 0.5), "characteristic+", 10, 1e-3)


@pytest.mark.parametrize("bad", [(0.0, 0.0), (math.nan, 0.0), (math.inf, 1.0), (2.0, 0.0)])
def test_a_direction_that_is_no_unit_vector_stops_the_trace(bad, monkeypatch):
    # the seed's direction comes from the array functions and is the true
    # one; the float direction of every stage is bad
    calls = []

    def field(values, kind):
        calls.append(values)
        return bad

    monkeypatch.setattr(curves, "_float_direction", field)
    tr = trace_direction_field(make_spec("paraboloid", {"a": 2.0}), (0.3, 0.4),
                               "characteristic+", 10, 1e-2)
    assert tr.stopped == "DegenerateJet: field direction is not a unit vector"
    assert len(tr) == 1 and len(calls) == 1


def test_a_parameter_state_that_overflows_stops_the_trace(monkeypatch):
    # with a velocity of 1e308 and dt = 4, the first stage point is at u = inf,
    # which the chart evaluation of that stage refuses
    field_direction = curves._field_direction

    def huge_velocity(jet, kind, ref):
        d, _velocity, point = field_direction(jet, kind, ref)
        return d, (1e308, 0.0), point

    monkeypatch.setattr(curves, "_field_direction", huge_velocity)
    tr = trace_direction_field(make_spec("paraboloid", {"a": 2.0}), (0.3, 0.4),
                               "principal1", 10, 4.0)
    assert tr.stopped == "OutOfDomain: paraboloid: (u, v) is not finite"
    assert len(tr) == 1


# --- CSV --------------------------------------------------------------------

def test_trace_csv_header_and_negative_zero():
    tr = CurveTrace(
        kind="principal1",
        t=np.array([0.0, 1.0]),
        uv=np.zeros((2, 2)),
        points=np.array([[-0.0, 1.0, 2.0], [3.0, -4.0, 5.0]]),
        top_dirs=np.array([[1.0, -0.0], [0.0, 1.0]]),
    )
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x,y,z,tx,ty"
    assert lines[1] == "0,0,1,2,1,0"  # -0.0 normalized, %.17g trims zeros
    assert "-4" in lines[2]
    assert buf.getvalue().endswith("\n")


def test_trace_csv_matches_per_float_formatting(monkeypatch):
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    tr = trace_direction_field(spec, (0.1, 0.3), "characteristic+", 20, 1e-3)
    want = ["t,x,y,z,tx,ty"]
    for i in range(len(tr)):
        vals = (tr.t[i], *tr.points[i], *tr.top_dirs[i])
        want.append(",".join(fmt_float(v) for v in vals))
    for block_rows in (4, isocrpc.meshing.FORMAT_BLOCK_ROWS):
        monkeypatch.setattr(isocrpc.meshing, "FORMAT_BLOCK_ROWS", block_rows)
        buf = io.StringIO()
        tr.to_csv(buf)
        assert buf.getvalue() == "\n".join(want) + "\n"


def test_trace_csv_deterministic(tmp_path):
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    tr = trace_direction_field(spec, (0.1, 0.3), "characteristic+", 20, 1e-3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    tr.to_csv(p1)
    tr.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- included angle ---------------------------------------------------------

def test_helicoid_characteristics_cross_at_right_angle():
    spec = make_spec("helicoid", {})
    cp = trace_direction_field(spec, (1.0, 0.5), "characteristic+", 50, 1e-3)
    cm = trace_direction_field(spec, (1.0, 0.5), "characteristic-", 50, 1e-3)
    gamma = included_angle_topview(cp, cm)
    assert gamma == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_angle_law_for_negative_ratio():
    spec = make_spec("trans_paraboloid", {"a": -4.0})
    cp = trace_direction_field(spec, (0.1, 0.2), "characteristic+", 50, 1e-3)
    cm = trace_direction_field(spec, (0.1, 0.2), "characteristic-", 50, 1e-3)
    gamma = included_angle_topview(cp, cm)
    assert abs(1.0 / math.tan(gamma / 2.0) ** 2 - 4.0) <= 1e-6


def test_parallel_traces_raise_no_intersection():
    # the a = -1 translational surface has a constant characteristic field,
    # so traces from offset seeds are parallel lines in the top view
    spec = make_spec("trans_paraboloid", {"a": -1.0})
    c1 = trace_direction_field(spec, (0.0, 0.0), "characteristic+", 100, 1e-3)
    c2 = trace_direction_field(spec, (0.5, 0.0), "characteristic+", 100, 1e-3)
    with pytest.raises(NoIntersection):
        included_angle_topview(c1, c2)


def test_crossing_traces_from_two_seeds_raise_no_intersection():
    # the second trace starts on the first, so the top views cross, but the
    # angle is taken only at a seed the two traces share
    spec = make_spec("trans_paraboloid", {"a": -1.0})
    c1 = trace_direction_field(spec, (0.0, 0.0), "characteristic+", 100, 1e-3)
    c2 = trace_direction_field(spec, tuple(c1.uv[50]), "characteristic-", 100, 1e-3)
    with pytest.raises(NoIntersection):
        included_angle_topview(c1, c2)


def test_angle_law_constant_along_a_trace():
    spec = make_spec("rotational_power_1", {"a": -2.0})
    tr = trace_direction_field(spec, (1.0, 1.0), "characteristic+", 200, 1e-3)
    for u, v in tr.uv[::10]:
        hj = height_jet_from_param(evaluate(spec, float(u), float(v)))
        tp, tm = characteristic_directions(hj)
        gamma = math.acos(min(1.0, abs(float(tp @ tm))))
        assert abs(1.0 / math.tan(gamma / 2.0) ** 2 - 2.0) <= 1e-6


# --- curve jets and osculating circles --------------------------------------

def test_curve_jet_on_surface_exact_values():
    spec = make_spec("paraboloid", {"a": 3.0})  # z = u^2 + 3 v^2
    cj = curve_jet_on_surface(spec, (0.5, 0.2), (1.0, 0.0))
    assert_allclose(cj.point, [0.5, 0.2, 0.37])
    assert_allclose(cj.d1, [1.0, 0.0, 1.0])     # (1, 0, 2u)
    assert_allclose(cj.d2, [0.0, 0.0, 2.0])     # ruu
    cj2 = curve_jet_on_surface(spec, (0.5, 0.2), (0.0, 1.0), (1.0, 0.0))
    assert_allclose(cj2.d2, [1.0, 0.0, 7.0])    # rvv + ru*1 = (0,0,6)+(1,0,1)


def test_curve_jet_rejects_non_finite():
    with pytest.raises(DegenerateJet):
        CurveJet.of((0.0, 0.0, 0.0), (1.0, float("nan"), 0.0), (0.0, 0.0, 0.0))


def test_osculating_parabola_of_its_own_parabola():
    # curve (t, 0, t^2) at t=0: parabolic circle in the plane y=0, carried
    # by the sphere 2z = 2x^2
    cj = CurveJet.of((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 2.0))
    circ = osculating_isotropic_circle(cj)
    assert circ.kind == "parabolic"
    n1, n2, d = circ.carrier_plane
    assert abs(n1 * 1.0 + n2 * 0.0) <= 1e-15       # plane contains the tangent
    assert np.max(np.abs(circ.points[:, 1])) <= 1e-15
    sphere = circ.carrier_sphere
    assert_allclose([sphere.A, sphere.B, sphere.C, sphere.D], [2.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_osculating_circle_of_a_planar_circle_is_itself():
    # (cos t, sin t, 0) at t=0
    cj = CurveJet.of((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0))
    circ = osculating_isotropic_circle(cj)
    assert circ.kind == "elliptic"
    assert_allclose(circ.center, [0.0, 0.0], atol=1e-15)
    assert circ.top_radius == pytest.approx(1.0)
    assert_allclose(circ.carrier_plane, [0.0, 0.0, 0.0], atol=1e-15)
    assert np.max(np.abs(np.hypot(circ.points[:, 0], circ.points[:, 1]) - 1.0)) <= 1e-12


def test_straight_jet_has_no_circle():
    cj = CurveJet.of((0.0, 0.0, 0.0), (1.0, 1.0, 0.5), (0.0, 0.0, 0.0))
    with pytest.raises(InflectionPoint):
        osculating_isotropic_circle(cj)


def test_vertical_tangent_gives_cylindric_circle():
    cj = CurveJet.of((0.3, -0.2, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    circ = osculating_isotropic_circle(cj)
    assert circ.kind == "cylindric"
    assert circ.top_radius == 0.0
    assert_allclose(circ.points[:, 0], 0.3)
    assert_allclose(circ.points[:, 1], -0.2)


def test_vertical_tangent_without_horizontal_curvature():
    # no horizontal acceleration picks no plane: the carrier is x = 0.3
    cj = CurveJet.of((0.3, -0.2, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    circ = osculating_isotropic_circle(cj)
    assert circ.kind == "cylindric"
    assert_allclose(circ.carrier_plane, [1.0, 0.0, -0.3], atol=1e-15)


def test_zero_velocity_jet_rejected():
    cj = CurveJet.of((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(DegenerateJet):
        osculating_isotropic_circle(cj)


# --- Meusnier ----------------------------------------------------------------

def test_meusnier_on_translational_crpc():
    # parameter curves v = lambda u^2 share the tangent T=(1,0) at the origin
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    curves = [
        curve_jet_on_surface(spec, (0.0, 0.0), (1.0, 0.0), (0.0, 2.0 * lam))
        for lam in (0.0, 1.0, -0.7)
    ]
    dev = meusnier_check(spec, (0.0, 0.0), (1.0, 0.0), curves)
    assert dev <= 1e-8


def test_meusnier_sphere_osculates_itself():
    spec = make_spec("paraboloid", {"a": 1.0})
    curves = [
        curve_jet_on_surface(spec, (0.1, 0.2), (1.0, 0.0), (0.0, lam))
        for lam in (0.0, 0.5)
    ]
    dev = meusnier_check(spec, (0.1, 0.2), (1.0, 0.0), curves)
    assert dev <= 1e-10


@pytest.mark.parametrize("eps", [0.0, 1e-14])
def test_meusnier_rejects_asymptotic_direction(eps):
    # kappa_n = -2 cos(2 phi) at the origin: 0 at phi = pi/4 and about 4e-14
    # just off it, a coefficient the sphere would take but below K_EPS
    spec = make_spec("trans_paraboloid", {"a": -1.0})
    t = (math.cos(math.pi / 4 + eps), math.sin(math.pi / 4 + eps))
    with pytest.raises(ZeroNormalCurvature):
        meusnier_check(spec, (0.0, 0.0), t, [])


# --- sphere membership --------------------------------------------------------

def sphere_fit(points):
    """Least-squares parabolic sphere 2z = A(x^2+y^2) + Bx + Cy + D, with max residual."""
    x, y, z = points.T
    M = np.stack([x * x + y * y, x, y, np.ones_like(x)], axis=-1)
    sphere = ParabolicSphere(*map(float, np.linalg.lstsq(M, 2.0 * z, rcond=None)[0]))
    return sphere, float(np.max(np.abs(sphere.algebraic_residual(points))))


def test_spiral_characteristic_lies_on_a_sphere():
    # one characteristic family is the straight ruling, the other lies on a sphere
    spec = make_spec("spiral_ruled", {"a": -2.0})
    ruling, branch = sorted(
        (trace_direction_field(spec, (1.0, 0.0), kind, 400, 1e-3)
         for kind in ("characteristic+", "characteristic-")),
        key=lambda tr: line_fit_gap(tr.points[:, :2]))
    assert line_fit_gap(ruling.points[:, :2]) <= 1e-8
    sphere, residual = sphere_fit(branch.points)
    assert residual <= 1e-6
    a_fit, b_fit, c_fit, d_fit = sphere.A, sphere.B, sphere.C, sphere.D
    assert abs(b_fit) <= 1e-6
    assert abs(c_fit) <= 1e-6
    assert abs(d_fit) <= 1e-6
    assert a_fit == pytest.approx(2.0, abs=1e-6)


def test_parallel_circle_membership():
    # a single parallel of a rotational member lies on a parabolic sphere
    spec = make_spec("rotational_power_1", {"a": -2.0})
    vs = np.linspace(0.0, math.pi, 40)
    pts = np.array([evaluate(spec, 1.3, float(v)).r for v in vs])
    _, residual = sphere_fit(pts)
    assert residual <= 1e-9
