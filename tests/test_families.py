"""Catalog of exact surface families: validation, charts, curvature laws."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import isocrpc.families
from isocrpc.duality import dual_curvature_check
from isocrpc.errors import (GeometryError, InvalidParams, OutOfDomain, SingularLocus,
                            StencilOutOfDomain)
from isocrpc.families import (
    SINGULAR_MARGIN,
    catalog_entry,
    evaluate,
    family_ids,
    hard_valid,
    height_field,
    is_minimal,
    make_spec,
    point_jet,
    ratio_for_residual,
    ratio_kind,
    singular_distance,
)
from isocrpc.geometry import (
    ParamJet2,
    euclidean_curvatures,
    fd_jet,
    height_jet_from_param,
    isotropic_curvatures,
    ratio_law_residual,
    relative_curvatures,
)
from isocrpc.meshing import sample_grid
from isocrpc.residuals import family_ode_residual

ALL_FAMILIES = (
    "paraboloid", "trans_paraboloid",
    "rotational_power_1", "rotational_power_2", "logarithmoid",
    "euclidean_rotational",
    "helicoid", "spiral_ruled", "helical_general", "helical_log",
    "trans_iso_noniso", "trans_noniso_noniso",
    "dual_trans_iso_noniso", "dual_trans_minimal",
)


def interior_points(spec, n=5, shrink=0.2):
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0 + shrink * (u1 - u0), u1 - shrink * (u1 - u0), n)
    vs = np.linspace(v0 + shrink * (v1 - v0), v1 - shrink * (v1 - v0), n)
    return us, vs


def test_catalog_is_complete():
    assert set(family_ids()) == set(ALL_FAMILIES)


def test_make_spec_fills_defaults():
    spec = make_spec("paraboloid")
    assert spec.params["a"] == 2.0
    assert len(spec.domain) == 4


def test_make_spec_rejects_bad_input():
    with pytest.raises(InvalidParams):
        make_spec("no_such_family")
    with pytest.raises(InvalidParams):
        make_spec("paraboloid", {"bogus": 1.0})
    with pytest.raises(InvalidParams):
        make_spec("paraboloid", domain=(0.0, 1.0, 0.0))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_make_spec_refuses_a_non_finite_parameter(value):
    with pytest.raises(InvalidParams, match="parameter 'c' must be finite"):
        make_spec("helical_log", {"c": value})


@pytest.mark.parametrize("domain", [
    (0.5, 0.5, 0.0, 1.0), (0.5, 1.0, 2.0, 2.0),
    # reversed boxes
    (1.0, 0.5, 0.0, 1.0), (0.5, 1.0, 1.0, 0.0),
    # boxes whose width overflows, or with an infinite or NaN bound
    (-1e308, 1e308, 0.0, 1.0), (0.5, 1.0, -1e308, 1e308), (0.5, math.inf, 0.0, 1.0),
    (math.nan, 1.0, 0.0, 1.0),
])
def test_make_spec_rejects_a_zero_width_domain(domain):
    with pytest.raises(InvalidParams):
        make_spec("helicoid", domain=domain)


@pytest.mark.parametrize("a", [0.01, 0.001, 0.5, 2.0])
def test_euclidean_rotational_default_box_is_ordered(a):
    # for a < 0.0458 the edge 0.9^(1/a) falls below 0.1; the box still runs
    # from the smaller to the larger radius
    u0, u1, v0, v1 = make_spec("euclidean_rotational", {"a": a}).domain
    assert 0.0 < u0 < u1 < 1.0 and v0 < v1
    assert {u0, u1} == {0.1, 0.9 ** (1.0 / a)}


@pytest.mark.parametrize("a", [0.01, 2.0])
def test_helical_general_default_domain_keeps_off_the_singular_parallel(a):
    # the chart is singular on u = u*; the default box takes the branch left
    # of u* when it is at least 0.2 wide (a = 2), else the one right of it
    u_star = math.atan(math.sqrt(a))
    lo, hi = make_spec("helical_general", {"a": a}).domain[:2]
    assert (hi <= u_star - 0.05) if a == 2.0 else (lo >= u_star + 0.05)
    assert hi - lo >= 0.2


@pytest.mark.parametrize("fid,params", [
    ("paraboloid", {"a": 0.0}),
    ("rotational_power_1", {"a": 0.0}),
    ("rotational_power_1", {"a": -1.0}),
    ("rotational_power_2", {"a": 0.0}),
    ("rotational_power_2", {"a": -1.0}),
    ("spiral_ruled", {"a": 0.5}),      # needs a < 0
    ("spiral_ruled", {"a": -1.0}),
    ("helical_general", {"a": 1.0}),
    ("helical_general", {"a": -1.0}),
    ("helical_general", {"a": 0.0}),
    ("trans_iso_noniso", {"a": 1.0}),
    ("euclidean_rotational", {"a": 0.0}),
    ("euclidean_rotational", {"a": -1e-5}),  # the default box's edge overflows
    # the edge is past 1/JACOBIAN_EPS: no node of the box is admissible
    ("euclidean_rotational", {"a": -1e-3}),
    ("euclidean_rotational", {"a": -3.8e-3}),
])
def test_parameter_constraints(fid, params):
    with pytest.raises(InvalidParams):
        make_spec(fid, params)


def test_domain_checking_on_evaluate():
    spec = make_spec("rotational_power_1", {"a": 2.0})
    with pytest.raises(OutOfDomain):
        evaluate(spec, -0.5, 0.0)  # radius must stay positive
    hg = make_spec("helical_general", {"a": 2.0})
    u_star = math.atan(math.sqrt(2.0))
    with pytest.raises(SingularLocus):
        evaluate(hg, u_star, 0.1)


def test_singular_distance_and_hard_valid():
    hg = make_spec("helical_general", {"a": 2.0})
    u_star = math.atan(math.sqrt(2.0))
    assert float(singular_distance(hg, u_star, 0.0)) < 1e-12
    rp = make_spec("rotational_power_1", {"a": 2.0})
    ok = hard_valid(rp, np.array([0.5, -0.5]), np.array([0.0, 0.0]))
    assert list(ok) == [True, False]


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_analytic_jet_agrees_with_fd_stencil(fid):
    spec = make_spec(fid)
    us, vs = interior_points(spec, n=3, shrink=0.3)
    for u in us:
        for v in vs:
            jet = evaluate(spec, float(u), float(v), check=False)
            hj = height_jet_from_param(jet)
            x0, y0 = float(jet.r[0]), float(jet.r[1])
            fj = fd_jet(height_field(spec, float(u), float(v)), x0, y0)
            for name in ("fx", "fy", "fxx", "fxy", "fyy"):
                got = float(getattr(hj, name))
                ref = float(getattr(fj, name))
                assert abs(got - ref) <= 1e-6 * max(1.0, abs(got)), (fid, name, u, v)


@pytest.mark.parametrize("fid,params,a", [
    ("paraboloid", {"a": 2.0}, 2.0),
    ("paraboloid", {"a": -0.5}, -0.5),
    ("trans_paraboloid", {"a": 2.0}, 2.0),
    ("rotational_power_1", {"a": 2.0}, 2.0),
    ("rotational_power_1", {"a": -2.0}, -2.0),
    ("rotational_power_2", {"a": 2.0}, 2.0),
    ("spiral_ruled", {"a": -2.0}, -2.0),
    ("helical_general", {"a": 2.0}, 2.0),
    ("helical_general", {"a": -2.0}, -2.0),
    ("trans_iso_noniso", {"a": 2.0}, 2.0),
    ("trans_iso_noniso", {"a": -2.0}, -2.0),
    ("dual_trans_iso_noniso", {"a": 2.0}, 2.0),
])
def test_constant_ratio_on_sample_points(fid, params, a):
    spec = make_spec(fid, params)
    us, vs = interior_points(spec, n=4)
    for u in us:
        for v in vs:
            jet = evaluate(spec, float(u), float(v), check=False)
            hj = height_jet_from_param(jet)
            res = float(ratio_law_residual(hj, *relative_curvatures(hj), a, False))
            assert abs(res) < 1e-9, (fid, u, v, res)


@pytest.mark.parametrize("fid,params", [
    ("logarithmoid", None),
    ("helicoid", None),
    ("helical_log", {"c": 1.3}),
    ("trans_noniso_noniso", None),
    ("dual_trans_minimal", None),
    ("paraboloid", {"a": -1.0}),
    ("trans_iso_noniso", {"a": -1.0}),
])
def test_minimal_members_have_zero_mean_curvature(fid, params):
    spec = make_spec(fid, params)
    us, vs = interior_points(spec, n=4)
    for u in us:
        for v in vs:
            hj = height_jet_from_param(evaluate(spec, float(u), float(v), check=False))
            c = isotropic_curvatures(hj)
            assert abs(float(c.H)) < 1e-10, (fid, u, v)
    assert is_minimal(spec)


def test_minimal_means_isotropic_ratio_minus_one():
    minimal = {fid for fid in family_ids() if is_minimal(make_spec(fid))}
    assert minimal == {"logarithmoid", "helicoid", "helical_log",
                       "trans_noniso_noniso", "dual_trans_minimal"}
    for fid in ("paraboloid", "trans_paraboloid", "trans_iso_noniso", "dual_trans_iso_noniso"):
        assert is_minimal(make_spec(fid, {"a": -1.0}))
        assert not is_minimal(make_spec(fid, {"a": -2.0}))
    # the Euclidean comparison family obeys a Euclidean law, never the isotropic one
    assert not is_minimal(make_spec("euclidean_rotational", {"a": -1.0}))


def test_ratio_whose_target_overflows_is_rejected():
    # (a+1)^2/(4a) is inf for subnormal a and overflows for huge a
    for a in (1e-320, -1e-310, 1e200, -1e300):
        with pytest.raises(InvalidParams):
            make_spec("paraboloid", {"a": a})
    make_spec("paraboloid", {"a": 1e-300})


def test_ratio_metadata():
    assert ratio_kind(make_spec("euclidean_rotational", {"a": 2.0})) == "euclidean"
    assert ratio_kind(make_spec("paraboloid")) == "isotropic"
    assert ratio_for_residual(make_spec("paraboloid", {"a": -0.5})) == -0.5
    assert ratio_for_residual(make_spec("logarithmoid")) == -1.0
    # the dual of the mixed translational family keeps a usable hypothesis:
    # its own ratio is 1/a, which shares the target of a
    assert ratio_for_residual(make_spec("dual_trans_iso_noniso", {"a": 2.0})) == 2.0


def test_dual_translational_ratio_is_reciprocal():
    # principal curvature ratio of the dualized mixed family equals 1/a
    a = 2.0
    spec = make_spec("dual_trans_iso_noniso", {"a": a})
    us, vs = interior_points(spec, n=3)
    for u in us:
        for v in vs:
            c = isotropic_curvatures(
                height_jet_from_param(evaluate(spec, float(u), float(v), check=False)))
            ratios = {float(c.k1) / float(c.k2), float(c.k2) / float(c.k1)}
            assert any(abs(r - 1.0 / a) < 1e-9 for r in ratios)


def test_euclidean_rotational_satisfies_euclidean_ratio():
    a = 2.0
    spec = make_spec("euclidean_rotational", {"a": a})
    us, vs = interior_points(spec, n=4)
    for u in us:
        for v in vs:
            hj = height_jet_from_param(evaluate(spec, float(u), float(v), check=False))
            _, _, k1e, k2e = euclidean_curvatures(hj)
            r = min(abs(float(k1e) - a * float(k2e)), abs(float(k2e) - a * float(k1e)))
            assert r < 1e-9 * max(1.0, abs(float(k1e))), (u, v, r)


def test_height_field_inverts_the_chart():
    spec = make_spec("trans_iso_noniso", {"a": 2.0})
    us, vs = interior_points(spec, n=3)
    u, v = float(us[1]), float(vs[1])
    jet = evaluate(spec, u, v, check=False)
    f = height_field(spec, u, v)
    assert f(float(jet.r[0]), float(jet.r[1])) == pytest.approx(float(jet.r[2]), abs=1e-11)


def test_catalog_entry_text():
    assert "a < 0" in catalog_entry("spiral_ruled").constraint_text
    dom = make_spec("helicoid").domain
    assert dom[0] > 0.0  # rotational charts keep away from the axis


def test_helicoid_chart_positions():
    p = evaluate(make_spec("helicoid"), 1.0, math.pi / 2.0, check=False).r
    assert_allclose(p, [0.0, 1.0, math.pi / 2.0], atol=1e-15)


def test_height_field_rejects_a_frame_inside_the_admissibility_bound():
    # trans_noniso_noniso has a vertical tangent plane on u + v = 0; at
    # u + v = 1e-13 the top-view determinant is about 1e-13, nonzero but
    # inside the bound of geometry.monge_gradient, so the point is not
    # admissible and the inversion must refuse it
    spec = make_spec("trans_noniso_noniso")
    u, v = 0.3, -0.3 + 1e-13
    jet = evaluate(spec, u, v, check=False)
    det = float(jet.ru[0] * jet.rv[1] - jet.ru[1] * jet.rv[0])
    assert 0.0 < abs(det) < 1e-12
    with pytest.raises(StencilOutOfDomain):
        height_field(spec, u, v)(float(jet.r[0]), float(jet.r[1]))


def test_height_field_refuses_a_point_it_does_not_reach():
    # 40 Newton steps from the middle of the helicoid's box do not reach a
    # top-view point 1e8 away; the inversion raises, not returns a height
    # of some other point
    spec = make_spec("helicoid")
    u0, u1, v0, v1 = spec.domain
    f = height_field(spec, 0.5 * (u0 + u1), 0.5 * (v0 + v1))
    with pytest.raises(StencilOutOfDomain):
        f(1e8, 1.0)


# --- jet fields: the chart's components, against the stacked layout ----------

def _reference_stack(U, V, jet):
    """jet in the interleaved layout: each field one owned (..., 3) array of the
    shape of (U, V), its components broadcast and stacked on the last axis."""
    shape = np.broadcast(np.asarray(U), np.asarray(V)).shape

    def stack(x, y, z):
        return np.stack([np.broadcast_to(np.asarray(c, float), shape) for c in (x, y, z)],
                        axis=-1)
    return ParamJet2(*(stack(*getattr(jet, f.name)) for f in dataclasses.fields(ParamJet2)))


def _floats(jet):
    """The 18 floats of a one-point jet, field by field."""
    return [float(c) for f in dataclasses.fields(jet) for c in getattr(jet, f.name)]


def _chart_inputs(spec):
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, 5)
    vs = np.linspace(v0, v1, 4)
    U, V = np.meshgrid(us, vs, indexing="ij")
    return [
        (0.5 * (u0 + u1), 0.5 * (v0 + v1)),  # Python floats
        (np.asarray(u0), np.asarray(v1)),  # 0-d arrays
        (us, vs[:1].repeat(5)),
        (U, V),
        (us[:, None], vs),  # broadcast: every field is (5, 4, 3), constants too
        (np.array([np.nan, -0.0, 0.0, u0]), np.array([v0, -0.0, np.nan, np.inf])),
    ]


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_jet_fields_match_stacked_reference(fid):
    # each field is the chart's (x, y, z): float64 arrays no larger than the
    # nodes, numpy scalars or plain floats; stacked, they are the chart's values on the
    # nodes broadcast in full, bit for bit
    spec = make_spec(fid)
    for U, V in _chart_inputs(spec):
        shape = np.broadcast(np.asarray(U), np.asarray(V)).shape
        new = evaluate(spec, U, V, check=False)
        full = evaluate(spec, *np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float)),
                        check=False)
        for f in dataclasses.fields(ParamJet2):
            xyz = getattr(new, f.name)
            assert type(xyz) is tuple and len(xyz) == 3, f.name
            for c in xyz:
                assert type(c) in (float, np.float64, np.ndarray), f.name
                assert np.asarray(c).dtype == np.float64, f.name
                assert np.broadcast_shapes(np.shape(c), shape) == shape, f.name
        for f in dataclasses.fields(ParamJet2):
            a = getattr(_reference_stack(U, V, new), f.name)
            b = getattr(_reference_stack(U, V, full), f.name)
            assert a.shape == b.shape == shape + (3,) and a.dtype == b.dtype == np.float64, f.name
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b)), f.name
            assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)), f.name


def test_evaluate_materializes_nothing():
    # a component keeps the shape the chart gave it: on a u column and a v
    # row, one that reads u alone stays a column, and a constant a float
    for fid in ("paraboloid", "spiral_ruled"):
        u0, u1, v0, v1 = make_spec(fid).domain
        axes = (np.linspace(u0, u1, 23)[:, None], np.linspace(v0, v1, 17)[None, :])
        jet = evaluate(make_spec(fid), *axes, check=False)
        if fid == "paraboloid":
            assert jet.ru[:2] == (1.0, 0.0) and all(type(c) is float for c in jet.ru[:2])
            assert type(jet.ru[2]) is np.ndarray and jet.ru[2].shape == (23, 1)
        else:
            assert type(jet.ruv[2]) is float and jet.ruv[2] == 0.0


# --- the Euclidean profile: one quadrature per distinct u, and no state --------

@pytest.fixture
def quad_calls(monkeypatch):
    """The upper limits of the profile quadratures run while the test runs."""
    uppers = []
    qags = isocrpc.families.qags

    def counted(f, lo, hi):
        uppers.append(hi)
        return qags(f, lo, hi)

    monkeypatch.setattr(isocrpc.families, "qags", counted)
    return uppers


@pytest.mark.parametrize("a", [2.0, 0.5, -1.5])
def test_euclidean_profile_integrates_each_distinct_u_once_per_call(a, quad_calls):
    spec = make_spec("euclidean_rotational", {"a": a})
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, 7)
    # repeats, and points off the profile: the axis, u < 0, its end r = 1, NaN
    U = np.concatenate([us, us[::-1], [0.0, -u1, 1.0, np.nan]])[:, None]
    V = np.array([v0, v1])
    z = _reference_stack(U, V, evaluate(spec, U, V, check=False)).r[..., 2]
    assert sorted(quad_calls) == us.tolist()
    quad_calls.clear()
    again = _reference_stack(U, V, evaluate(spec, U, V, check=False)).r[..., 2]
    assert sorted(quad_calls) == us.tolist()  # nothing is kept from the first call
    assert np.array_equal(z, again, equal_nan=True)
    assert np.isnan(z[len(us) * 2:]).all()
    for (u,), row in zip(U, z):
        alone = evaluate(spec, u, v0, check=False).r[2]
        assert np.array_equal(row, [alone, alone], equal_nan=True), u


@pytest.mark.parametrize("a", [2.0, 0.5, -1.5])
def test_the_laws_of_a_euclidean_row_integrate_no_height(a, quad_calls):
    # the ODE column and the dual laws read chart derivatives only
    spec = make_spec("euclidean_rotational", {"a": a})
    us, vs = interior_points(spec, n=8)
    U, V = np.meshgrid(us, vs, indexing="ij")
    jet = evaluate(spec, us[3], vs[2], heights=False)
    assert jet.r[2] == 0.0
    assert np.isfinite(family_ode_residual(spec, U, V)).all()
    assert all(math.isfinite(x) for x in dual_curvature_check(spec, U, V))
    assert quad_calls == []
    evaluate(spec, us[3], vs[2])
    assert quad_calls == [us[3]]


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_without_heights_only_the_height_of_a_chart_point_changes(fid):
    # a box three times the default one, off the Euclidean profile on both
    # sides, and points off every chart: the axis, NaN and inf
    spec = make_spec(fid)
    u0, u1, v0, v1 = spec.domain
    us = np.append(np.linspace(2 * u0 - u1, 2 * u1 - u0, 23), [0.0, math.nan, math.inf])
    vs = np.linspace(2 * v0 - v1, 2 * v1 - v0, 7)
    cases = [(us[:, None], vs[None, :])] + [(float(u), float(v)) for u, v in zip(us[::4], vs)]
    for u, v in cases:
        with np.errstate(all="ignore"):
            full = _reference_stack(u, v, evaluate(spec, u, v, check=False))
            bare = _reference_stack(u, v, evaluate(spec, u, v, check=False, heights=False))
        assert np.array_equal(np.isfinite(full.r[..., 2]), np.isfinite(bare.r[..., 2]))
        if fid == "euclidean_rotational":  # the one chart with a stand-in height
            full.r[..., 2] = bare.r[..., 2]
        for f in dataclasses.fields(ParamJet2):
            a, b = getattr(full, f.name), getattr(bare, f.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (fid, f.name)


# --- validity decisions against the broadcasting public predicates ------------

def _locus_points(spec):
    """(u, v) points on every singular locus of the default family members."""
    fid = spec.family_id
    if fid in ("rotational_power_1", "rotational_power_2", "logarithmoid", "helicoid",
               "spiral_ruled", "helical_log"):
        return [(0.0, 1.0)]
    if fid == "euclidean_rotational":
        return [(0.0, 1.0), (1.0, 1.0)]
    if fid == "helical_general":
        return [(0.0, 1.0), (math.pi / 2.0, 1.0), (math.atan(math.sqrt(spec.params["a"])), 1.0)]
    if fid in ("trans_iso_noniso", "dual_trans_iso_noniso"):
        b = (spec.params["a"] + 1.0) / (spec.params["a"] - 1.0)
        root = math.asin(1.0 / b)
        return [(0.3, root), (0.3, math.pi - root)]
    if fid in ("trans_noniso_noniso", "dual_trans_minimal"):
        return [(0.4, -0.4), (math.pi / 2.0, 0.3), (0.3, -math.pi / 2.0)]
    return []


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_each_locus_name_is_paired_with_its_own_distance(fid):
    spec = make_spec(fid)
    points = _locus_points(spec)
    loci = isocrpc.families.catalog_entry(fid).loci(spec.params)
    on = [[float(dist(np.float64(u), np.float64(v))) <= 1e-12 for u, v in points]
          for _name, dist in loci]
    for (name, _dist), hits in zip(loci, on):
        assert any(hits), name
    for k, point in enumerate(points):
        assert any(hits[k] for hits in on), point


def _validity_points(spec, rng):
    """Seeded points in the box and around it, near each locus, and non-finite."""
    u0, u1, v0, v1 = spec.domain
    du, dv = u1 - u0, v1 - v0
    points = [(u0 + du * x, v0 + dv * y) for x, y in rng.random((8, 2))]
    # a box five times as wide reaches outside the hard region
    points += [(u0 + du * x, v0 + dv * y) for x, y in rng.uniform(-2.0, 3.0, (16, 2))]
    for ul, vl in _locus_points(spec):
        for t in (-1.5, -0.999, -0.5, 0.0, 0.5, 0.999, 1.5):
            points += [(ul + t * SINGULAR_MARGIN, vl), (ul, vl + t * SINGULAR_MARGIN)]
    bad = (math.nan, math.inf, -math.inf)
    points += [(x, 0.5 * (v0 + v1)) for x in bad] + [(0.5 * (u0 + u1), y) for y in bad]
    return points


def _reference_decision(spec, U, V):
    # a non-finite (u, v) is outside every chart, whatever its hard region
    if not (np.isfinite(U).all() and np.isfinite(V).all() and hard_valid(spec, U, V).all()):
        return OutOfDomain
    if (singular_distance(spec, U, V) < SINGULAR_MARGIN).any():
        return SingularLocus
    return None


def _refusal(spec, U, V, jet=evaluate, heights=True):
    """The class and message of jet's check at (U, V), or None."""
    try:
        with np.errstate(all="ignore"):
            jet(spec, U, V, heights=heights)
    except (OutOfDomain, SingularLocus) as exc:
        return type(exc), str(exc)
    return None


def _checked_decision(spec, U, V):
    refusal = _refusal(spec, U, V)
    return refusal and refusal[0]


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_evaluate_check_decides_as_the_broadcasting_predicates(fid):
    spec = make_spec(fid)
    rng = np.random.default_rng(ALL_FAMILIES.index(fid))
    decisions = set()
    for u, v in _validity_points(spec, rng):
        decision = _checked_decision(spec, u, v)
        assert decision is _reference_decision(spec, u, v), (u, v)
        # a point, on numpy scalars, is refused with a (1,) array's message
        assert _refusal(spec, u, v) == _refusal(spec, np.array([u]), np.array([v])), (u, v)
        if math.isfinite(u) and math.isfinite(v):
            decisions.add(decision)
    # the finite points reach every decision the family can make
    no_hard_region = ("paraboloid", "trans_paraboloid", "trans_iso_noniso", "dual_trans_iso_noniso")
    assert None in decisions
    assert (OutOfDomain in decisions) != (fid in no_hard_region)
    assert (SingularLocus in decisions) == bool(_locus_points(spec))
    for U, V in _chart_inputs(spec):
        assert _checked_decision(spec, U, V) is _reference_decision(spec, U, V)


@pytest.mark.parametrize("fid,params,u,v", [
    ("paraboloid", {}, math.inf, 0.3),  # r = (inf, 0.3, inf) unchecked
    ("trans_iso_noniso", {}, 0.5, math.inf),  # NaN x and y unchecked
    ("euclidean_rotational", {"a": -0.5}, math.inf, 0.3),  # a divergent quadrature
    ("helicoid", {}, math.nan, 0.3),
])
def test_evaluate_check_refuses_a_non_finite_point(fid, params, u, v):
    spec = make_spec(fid, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomain, match="not finite"):
            evaluate(spec, u, v, check=True)
        with pytest.raises(OutOfDomain, match="not finite"):
            evaluate(spec, np.array([1.0, u]), np.array([0.3, v]), check=True)


def test_an_infinite_radius_is_off_the_euclidean_profile():
    # inf^(2a) = 0 < 1 for a < 0, but no quadrature runs to infinity
    spec = make_spec("euclidean_rotational", {"a": -0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(evaluate(spec, math.inf, 1.0, check=False).r[2])
        assert not hard_valid(spec, math.inf, 1.0)


@pytest.mark.parametrize("a", [-1e-5, -1e-3])
def test_a_euclidean_ratio_whose_edge_overflows_refuses_only_the_height_anchor(a):
    spec = make_spec("euclidean_rotational", {"a": a}, (1.5, 2.0, 0.0, 1.0))
    assert evaluate(spec, 1.7, 0.5, heights=False).r[2] == 0.0
    with pytest.raises(InvalidParams, match=r"0\.9\^\(1/a\) is not below 1e\+12"):
        evaluate(spec, 1.7, 0.5)


def test_a_euclidean_box_with_an_edge_below_the_bound_keeps_admissible_nodes():
    # at a = -3.9e-3 the edge is 5.4e11: part of [edge, 2 edge] is admissible
    grid = sample_grid(make_spec("euclidean_rotational", {"a": -3.9e-3}), 8, 8)
    assert 0 < (~grid.mask).sum() < grid.mask.size


@pytest.mark.parametrize("fid", ALL_FAMILIES)
def test_validity_predicates_return_owned_full_shape_arrays(fid):
    spec = make_spec(fid)
    for U, V in _chart_inputs(spec):
        shape = np.broadcast(U, V).shape
        for fn, dtype in ((hard_valid, np.bool_), (singular_distance, np.float64)):
            out = fn(spec, U, V)
            assert type(out) is np.ndarray and out.shape == shape and out.dtype == dtype
            assert out.base is None and out.flags.writeable and out.flags.c_contiguous


# --- the chart on its axes: a u column and a v row give the meshgrid's bits ----

AXIS_CASES = [(fid, None, None) for fid in ALL_FAMILIES] + [
    ("paraboloid", -0.5, None), ("paraboloid", 0.3, None),
    ("trans_paraboloid", -3.0, None), ("trans_paraboloid", 0.7, None),
    ("rotational_power_1", -2.0, None), ("rotational_power_1", 0.2805, None),
    ("rotational_power_1", -0.5, None),
    ("rotational_power_2", -2.0, None), ("rotational_power_2", 0.4, None),
    ("euclidean_rotational", 0.5, None), ("euclidean_rotational", -2.45527, None),
    ("spiral_ruled", -0.5, None), ("spiral_ruled", -3.7, None),
    ("helical_general", -2.0, None), ("helical_general", 0.5, None),
    ("helical_general", 5.0, None),
    ("trans_iso_noniso", -2.0, None), ("trans_iso_noniso", 0.9, None),
    ("dual_trans_iso_noniso", -0.5, None), ("dual_trans_iso_noniso", 3.0, None),
    # boxes across a locus: the axis u = 0 (and u < 0, off the hard region),
    # the singular parallel u = atan(sqrt(a)), and both roots of b sin v = 1
    ("rotational_power_1", -2.0, (-1.0, 1.0, 0.0, 3.0)),
    ("helical_general", 2.0, (0.3, 1.3, 0.0, 3.0)),
    ("trans_iso_noniso", 2.0, (-1.0, 1.0, -math.pi, math.pi)),
]


def _same_bits(a, b):
    """Equal shapes and float64 bits, a NaN anywhere matching a NaN there."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


@pytest.mark.parametrize("fid,a,domain", AXIS_CASES, ids=[f"{f}-{a}-{d}" for f, a, d in AXIS_CASES])
def test_chart_on_its_axes_matches_the_meshgrid_bit_for_bit(fid, a, domain):
    # grid sampling hands the chart one u column and one v row
    spec = make_spec(fid, None if a is None else {"a": a}, domain)
    u0, u1, v0, v1 = spec.domain
    us, vs = np.linspace(u0, u1, 23), np.linspace(v0, v1, 17)
    U, V = np.meshgrid(us, vs, indexing="ij")
    axes = (us[:, None], vs[None, :])
    on_axes, on_grid = evaluate(spec, *axes, check=False), evaluate(spec, U, V, check=False)
    on_axes, on_grid = _reference_stack(*axes, on_axes), _reference_stack(U, V, on_grid)
    for f in dataclasses.fields(ParamJet2):
        assert _same_bits(getattr(on_axes, f.name), getattr(on_grid, f.name)), f.name
    assert np.array_equal(hard_valid(spec, *axes), hard_valid(spec, U, V))
    assert _same_bits(singular_distance(spec, *axes), singular_distance(spec, U, V))
    if domain is not None:  # the locus passes between the nodes
        assert singular_distance(spec, U, V).min() < max(us[1] - us[0], vs[1] - vs[0])


# --- one point: point_jet is evaluate's 0-d chart as 18 floats -----------------

# the family defaults, and ratios whose exponents at the bare parameter reach
# numpy's power fast paths (u^2, u^0.5, u^-1) or differ most from libm's pow
POINT_CASES = [(fid, None) for fid in ALL_FAMILIES] + [
    ("rotational_power_1", a) for a in (1.0, -0.5, -2.0, -3.0)] + [
    ("rotational_power_2", a) for a in (1.0, -2.0, -0.5)] + [
    ("euclidean_rotational", a) for a in (0.5, 2.0, -2.0)]


@pytest.mark.parametrize("heights", [True, False])
@pytest.mark.parametrize("fid,a", POINT_CASES, ids=[f"{f}-{a}" for f, a in POINT_CASES])
def test_point_jet_is_evaluate_at_a_point(fid, a, heights):
    # evaluate runs one point as the array chart on 0-d arrays, the path
    # every recorded trace digest came from; point_jet runs it on numpy
    # scalars, from a Python float, a numpy scalar or a 0-d array
    spec = make_spec(fid, None if a is None else {"a": a})
    u0, u1, v0, v1 = spec.domain
    rng = np.random.default_rng(POINT_CASES.index((fid, a)))
    points = [(u0 + (u1 - u0) * x, v0 + (v1 - v0) * y) for x, y in rng.random((100, 2))]
    refused = set()
    for u, v in points + _validity_points(spec, rng):
        why = _refusal(spec, u, v, evaluate, heights)
        ref = None if why else _floats(evaluate(spec, u, v, heights=heights))
        for U, V in ((float(u), float(v)), (np.float64(u), np.float64(v)),
                     (np.asarray(u), np.asarray(v))):
            assert _refusal(spec, U, V, point_jet, heights) == why, (u, v)
            if ref is not None:
                with np.errstate(all="ignore"):
                    point = point_jet(spec, U, V, heights=heights)
                assert all(type(c) is float for c in point) and len(point) == 18
                assert _same_bits(point, ref), (u, v)
        if why:
            refused.add(why[0])
    assert OutOfDomain in refused and (SingularLocus in refused) == bool(_locus_points(spec))
