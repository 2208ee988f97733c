"""Acceptance suite: ten end-to-end criteria over the whole package.

Each test covers one numbered criterion and prints a one-line summary of
the measured worst case next to its pinned tolerance.
"""

import math

import numpy as np
import pytest

from isocrpc.cli import main
from isocrpc.curves import (
    curve_jet_on_surface,
    included_angle_topview,
    meusnier_check,
    trace_direction_field,
)
from isocrpc.duality import conjugate_geodesic_net_check, dual_curvature_check, involution_check
from isocrpc.errors import InvalidParams
from isocrpc.families import (
    _helical_general_profile,
    evaluate,
    hard_valid,
    height_field,
    is_minimal,
    make_spec,
    singular_distance,
)
from isocrpc.geometry import (
    ParamJet2,
    euclidean_curvatures,
    fd_jet,
    height_jet_from_param,
    isotropic_curvatures,
)
from isocrpc.meshing import sample_grid
from isocrpc.residuals import (
    discriminant_identity_check,
    family_ode_residual,
    helical_ode_residual,
    translational_residual,
)
from isocrpc.spheres import channel_checks, envelope_characteristic, sphere_family_from_coeffs

RATIOS = (-2.0, -0.5, 0.5, 2.0)

FIXED_FAMILIES = ("logarithmoid", "helicoid", "helical_log",
                  "trans_noniso_noniso", "dual_trans_minimal")
RATIO_FAMILIES = ("paraboloid", "trans_paraboloid", "rotational_power_1",
                  "rotational_power_2", "spiral_ruled", "helical_general",
                  "trans_iso_noniso", "dual_trans_iso_noniso",
                  "euclidean_rotational")


def ratio_combos():
    """Every (family, params) pair the ratio sweep accepts."""
    combos = [(fid, {}) for fid in FIXED_FAMILIES]
    for fid in RATIO_FAMILIES:
        for a in RATIOS:
            try:
                make_spec(fid, {"a": a})
            except InvalidParams:
                continue
            combos.append((fid, {"a": a}))
    extra = [("paraboloid", 1.0), ("paraboloid", -1.0), ("trans_paraboloid", -1.0),
             ("trans_iso_noniso", -1.0), ("dual_trans_iso_noniso", -1.0)]
    for fid, a in extra:
        make_spec(fid, {"a": a})  # all of these must be accepted
        combos.append((fid, {"a": a}))
    return combos


def interior_points(spec, n, rng, margin=5e-2, shrink=0.1):
    u0, u1, v0, v1 = spec.domain
    pts = []
    while len(pts) < n:
        u = float(rng.uniform(u0 + shrink * (u1 - u0), u1 - shrink * (u1 - u0)))
        v = float(rng.uniform(v0 + shrink * (v1 - v0), v1 - shrink * (v1 - v0)))
        if hard_valid(spec, u, v) and singular_distance(spec, u, v) >= margin:
            pts.append((u, v))
    return pts


def test_criterion_01_constant_ratio_on_default_grids():
    combos = ratio_combos()
    worst_r = 0.0
    worst_h = 0.0
    for fid, params in combos:
        spec = make_spec(fid, params)
        stats = sample_grid(spec, 50, 50).stats()
        assert stats["max_abs_residual"] <= 1e-8, (fid, params)
        worst_r = max(worst_r, stats["max_abs_residual"])
        if is_minimal(spec):
            assert stats["max_abs_H"] <= 1e-9, (fid, params)
            worst_h = max(worst_h, stats["max_abs_H"])
    print(f"criterion 1: {len(combos)} (family, a) grids; worst ratio residual "
          f"{worst_r:.2e} (tol 1e-8), worst minimal |H| {worst_h:.2e} (tol 1e-9)")


def test_criterion_02_analytic_jets_match_fd_oracle():
    cases = [(fid, {}) for fid in FIXED_FAMILIES]
    cases += [(fid, {"a": -2.0 if fid == "spiral_ruled" else 2.0})
              for fid in RATIO_FAMILIES]
    rng = np.random.default_rng(1202)
    worst = 0.0
    for fid, params in cases:
        spec = make_spec(fid, params)
        for u, v in interior_points(spec, 200, rng):
            jet = evaluate(spec, u, v)
            hj = height_jet_from_param(jet)
            fj = fd_jet(height_field(spec, u, v), float(jet.r[0]), float(jet.r[1]))
            for name in ("f", "fx", "fy", "fxx", "fxy", "fyy"):
                a_val = getattr(hj, name)
                rel = abs(a_val - getattr(fj, name)) / max(1.0, abs(a_val))
                assert rel <= 1e-6, (fid, name, u, v)
                worst = max(worst, rel)
    print(f"criterion 2: fd oracle at 200 points x {len(cases)} families; "
          f"worst relative error {worst:.2e} (tol 1e-6)")


def _two_iso_case(u, v):
    k = 0.7
    fp, fpp = math.cos(u), -math.sin(u)
    gp, gpp = 0.9 * v * v + 0.2 * v, 1.8 * v + 0.2
    jet = ParamJet2(
        r=np.array([u, k * u + v, math.sin(u) + 0.3 * v ** 3 + 0.1 * v * v]),
        ru=np.array([1.0, k, fp]), rv=np.array([0.0, 1.0, gp]),
        ruu=np.array([0.0, 0.0, fpp]), ruv=np.zeros(3),
        rvv=np.array([0.0, 0.0, gpp]))
    return jet, fpp * gpp, ((k * k + 1.0) * gpp + fpp) / 2.0, False


def _iso_noniso_case(u, v):
    fp, fpp = 0.8 * math.exp(0.8 * u), 0.64 * math.exp(0.8 * u)
    gp, gpp = math.cos(v), -math.sin(v)
    jet = ParamJet2(
        r=np.array([v, -u + math.sin(v), math.exp(0.8 * u)]),
        ru=np.array([0.0, -1.0, fp]), rv=np.array([1.0, gp, 0.0]),
        ruu=np.array([0.0, 0.0, fpp]), ruv=np.zeros(3),
        rvv=np.array([0.0, gpp, 0.0]))
    return jet, fp * fpp * gpp, (fp * gpp + (1.0 + gp * gp) * fpp) / 2.0, False


def _noniso_noniso_case(u, v):
    # f' - g' stays away from 0 on the sampled box
    fp, fpp = math.cos(u), -math.sin(u)
    gp, gpp = 0.9 * v * v, 1.8 * v
    K = fpp * gpp / (fp - gp) ** 4
    H = ((1.0 + fp * fp) * gpp + (1.0 + gp * gp) * fpp) / (2.0 * abs(fp - gp) ** 3)
    jet = ParamJet2(
        r=np.array([u + v, math.sin(u) + 0.3 * v ** 3, u]),
        ru=np.array([1.0, fp, 1.0]), rv=np.array([1.0, gp, 0.0]),
        ruu=np.array([0.0, fpp, 0.0]), ruv=np.zeros(3),
        rvv=np.array([0.0, gpp, 0.0]))
    return jet, K, H, True  # orientation flips the sign of H; compare |H|


def test_criterion_03_closed_form_curvatures_match_pipeline():
    rng = np.random.default_rng(303)
    worst = 0.0
    translational = [
        (_two_iso_case, (-0.8, 0.8), (-0.9, 0.9)),
        (_iso_noniso_case, (-0.8, 0.8), (0.2, 1.2)),
        (_noniso_noniso_case, (-0.8, 0.8), (-0.5, 0.5)),
    ]
    for builder, (ua, ub), (va, vb) in translational:
        for _ in range(100):
            u, v = float(rng.uniform(ua, ub)), float(rng.uniform(va, vb))
            jet, Kc, Hc, abs_h = builder(u, v)
            cur = isotropic_curvatures(height_jet_from_param(jet))
            rk = abs(float(cur.K) - Kc) / max(1.0, abs(Kc))
            hp = abs(float(cur.H)) if abs_h else float(cur.H)
            hc = abs(Hc) if abs_h else Hc
            rh = abs(hp - hc) / max(1.0, abs(hc))
            assert rk <= 1e-10 and rh <= 1e-10, builder.__name__
            worst = max(worst, rk, rh)
    for a in (2.0, -2.0):
        spec = make_spec("helical_general", {"a": a})
        u0, u1, v0, v1 = spec.domain
        for _ in range(100):
            u = float(rng.uniform(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0)))
            v = float(rng.uniform(v0, v1))
            w, wp, wpp, _zeta, zu, zuu = _helical_general_profile(a, u)
            fp = zu / wp
            fpp = (zuu * wp - zu * wpp) / wp ** 3
            Kc = (w ** 3 * fpp * fp - 1.0) / w ** 4
            Hc = (fp + w * fpp) / (2.0 * w)
            cur = isotropic_curvatures(height_jet_from_param(evaluate(spec, u, v)))
            rk = abs(float(cur.K) - Kc) / max(1.0, abs(Kc))
            rh = abs(float(cur.H) - Hc) / max(1.0, abs(Hc))
            assert rk <= 1e-10 and rh <= 1e-10, ("helical", a)
            worst = max(worst, rk, rh)
    print(f"criterion 3: closed-form K,H vs pipeline at 100 points x 5 cases; "
          f"worst relative error {worst:.2e} (tol 1e-10)")


def test_criterion_04_characteristic_angle_and_growth_laws():
    fracs = [(0.3, 0.5), (0.45, 0.3), (0.6, 0.7), (0.35, 0.6), (0.55, 0.45)]
    worst_angle = 0.0
    n_pairs = 0
    for fid in ("paraboloid", "trans_paraboloid", "rotational_power_1",
                "rotational_power_2", "spiral_ruled", "helical_general",
                "trans_iso_noniso", "dual_trans_iso_noniso"):
        for a in (-2.0, 2.0):
            try:
                spec = make_spec(fid, {"a": a})
            except InvalidParams:
                continue
            u0, u1, v0, v1 = spec.domain
            for fu, fv in fracs:
                seed = (u0 + fu * (u1 - u0), v0 + fv * (v1 - v0))
                cp = trace_direction_field(spec, seed, "characteristic+", 20, 1e-3)
                cm = trace_direction_field(spec, seed, "characteristic-", 20, 1e-3)
                gamma = included_angle_topview(cp, cm)
                dev = abs(1.0 / math.tan(gamma / 2.0) ** 2 - abs(a))
                assert dev <= 1e-6, (fid, a, seed)
                worst_angle = max(worst_angle, dev)
                n_pairs += 1

    worst_law = 0.0
    for a in (-2.0, 2.0):
        spec = make_spec("rotational_power_1", {"a": a})
        tr = trace_direction_field(spec, (1.0, 1.0), "characteristic+", 2600, 1e-3)
        assert tr.stopped is None
        x, y = tr.points[:, 0], tr.points[:, 1]
        r = np.hypot(x, y)
        dphi = np.unwrap(np.arctan2(y, x))
        dphi -= dphi[0]
        if dphi[-1] < 0.0:
            dphi = -dphi
        assert dphi[-1] > 1.0
        law = math.exp(1.0 / math.sqrt(abs(a)))
        dev = abs(float(np.interp(1.0, dphi, r)) / r[0] - law) / law
        assert dev <= 1e-6, a
        worst_law = max(worst_law, dev)
    print(f"criterion 4: angle law on {n_pairs} traced pairs, worst "
          f"{worst_angle:.2e} (tol 1e-6); spiral growth law worst {worst_law:.2e}")


def test_criterion_05_meusnier_random_configurations():
    spec = make_spec("trans_paraboloid", {"a": 2.0})
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10):
        p = (float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)))
        ang = float(rng.uniform(0.0, math.pi))
        T = (math.cos(ang), math.sin(ang))  # kappa_n > 0 everywhere for a=2
        curves = [
            curve_jet_on_surface(spec, p, T,
                                 (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))))
            for _ in range(3)
        ]
        dev = meusnier_check(spec, p, T, curves)
        assert dev <= 1e-8
        worst = max(worst, dev)
    print(f"criterion 5: tangent-sphere carrier deviation over 10 random "
          f"configurations; worst {worst:.2e} (tol 1e-8)")


def test_criterion_06_envelope_characteristics():
    pipe = sphere_family_from_coeffs(
        lambda t: (1.0, -2.0 * t, 0.0, t * t),
        lambda t: (0.0, -2.0, 0.0, 2.0 * t))
    ch = envelope_characteristic(pipe, 0.0)
    assert ch.circle.kind == "parabolic"
    assert float(np.max(np.abs(ch.points[:, 0]))) <= 1e-12
    assert float(np.max(np.abs(2.0 * ch.points[:, 2] - ch.points[:, 1] ** 2))) <= 1e-12

    rng = np.random.default_rng(606)
    worst_c = 0.0
    for i in range(20):
        A0 = float(rng.uniform(0.5, 2.0)) * (1.0 if i % 2 else -1.0)
        if i < 10:
            Ad = float(rng.uniform(0.5, 2.0)) * (-1.0 if i % 3 else 1.0)
            Bd, Cd = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            rho = float(rng.uniform(0.5, 2.0))
            cx, cy = -Bd / (2 * Ad), -Cd / (2 * Ad)
            Dd = Ad * (cx * cx + cy * cy - rho * rho)
            want = "elliptic"
        else:
            Ad = 0.0
            Bd, Cd = float(rng.uniform(0.5, 2)), float(rng.uniform(-2, -0.5))
            Dd = float(rng.uniform(-1, 1))
            want = "parabolic"
        fam = sphere_family_from_coeffs(
            lambda t, c=(A0, Bd, Cd, Dd), d=(Ad, Bd, Cd, Dd):
                (c[0] + d[0] * t, c[1] * t, c[2] * t, c[3] * t),
            lambda t, d=(Ad, Bd, Cd, Dd): d)
        ch = envelope_characteristic(fam, 0.0)
        assert ch.circle.kind == want, i
        if want == "elliptic":
            assert ch.circle.center == pytest.approx((cx, cy), abs=1e-9)
            assert ch.circle.top_radius == pytest.approx(rho, abs=1e-9)
        dev = abs(ch.curvature - A0)
        assert dev <= 1e-8, i
        worst_c = max(worst_c, dev)

    rep = channel_checks(pipe, lambda x, y: 0.5 * y * y, [-0.5, 0.0, 0.3])
    assert rep.max_eigen_residual <= 1e-8
    assert rep.max_curvature_residual <= 1e-8
    print(f"criterion 6: pipe characteristic exact to 1e-12; 20 randomized "
          f"classifications correct; worst curvature gap {worst_c:.2e} (tol 1e-8)")


def test_criterion_07_duality_relations():
    cases = [(fid, {}) for fid in FIXED_FAMILIES]
    cases += [(fid, {"a": -2.0 if fid == "spiral_ruled" else 2.0})
              for fid in RATIO_FAMILIES]
    worst_k = worst_h = worst_inv = 0.0
    for fid, params in cases:
        spec = make_spec(fid, params)
        u0, u1, v0, v1 = spec.domain
        us = np.linspace(u0 + 0.2 * (u1 - u0), u1 - 0.2 * (u1 - u0), 4)
        vs = np.linspace(v0 + 0.2 * (v1 - v0), v1 - 0.2 * (v1 - v0), 4)
        wk, wh = dual_curvature_check(spec, *np.meshgrid(us, vs, indexing="ij"))
        inv = involution_check(spec, us, vs)
        assert wk <= 1e-4 and wh <= 1e-4, fid
        assert inv <= 1e-6, fid
        worst_k, worst_h = max(worst_k, wk), max(worst_h, wh)
        worst_inv = max(worst_inv, inv)

    worst_net = 0.0
    for fid, params in (("dual_trans_minimal", {}), ("dual_trans_iso_noniso", {"a": 2.0})):
        spec = make_spec(fid, params)
        u0, u1, v0, v1 = spec.domain
        us = np.linspace(u0 + 0.2 * (u1 - u0), u1 - 0.2 * (u1 - u0), 5)
        vs = np.linspace(v0 + 0.2 * (v1 - v0), v1 - 0.2 * (v1 - v0), 5)
        line, conj = conjugate_geodesic_net_check(spec, us, vs)
        assert line <= 1e-8 and conj <= 1e-8, fid
        worst_net = max(worst_net, line, conj)
    print(f"criterion 7: dual curvature relations on {len(cases)} families, worst "
          f"|K*K-1| {worst_k:.2e}, |H*-H/K| {worst_h:.2e} (tol 1e-4); involution "
          f"{worst_inv:.2e} (tol 1e-6); conjugate nets {worst_net:.2e} (tol 1e-8)")


def test_criterion_08_generating_equations():
    worst_ode = 0.0
    for a in (-2.0, 2.0):
        spec = make_spec("helical_general", {"a": a})
        u0, u1, v0, v1 = spec.domain
        for u in np.linspace(u0 + 0.1 * (u1 - u0), u1 - 0.1 * (u1 - u0), 8):
            res = family_ode_residual(spec, float(u), 0.5 * (v0 + v1))
            assert res <= 1e-8, a
            worst_ode = max(worst_ode, res)

    for c in (0.5, 1.0, 2.0):
        for u in (0.5, 1.0, 1.7):
            r = helical_ode_residual(c / u, -c / (u * u), u, -1.0)
            assert r.lhs == 0.0 and r.rhs == 0.0

    assert translational_residual("two_iso", 2.0, fpp=4.0, gpp=2.0).raw == 0.0
    for fid in ("trans_iso_noniso", "trans_noniso_noniso"):
        spec = make_spec(fid, {"a": 2.0} if fid == "trans_iso_noniso" else {})
        u0, u1, v0, v1 = spec.domain
        for f_u, f_v in ((0.3, 0.4), (0.5, 0.6), (0.7, 0.3)):
            res = family_ode_residual(spec, u0 + f_u * (u1 - u0), v0 + f_v * (v1 - v0))
            assert res <= 1e-8, fid
            worst_ode = max(worst_ode, res)

    lhs, rhs, diff = discriminant_identity_check(2.0, 0.0, 1.0, 0.0, 1.0)
    assert lhs == pytest.approx(-63.0) and rhs == pytest.approx(-63.0)
    rng = np.random.default_rng(808)
    worst_disc = 0.0
    for _ in range(1000):
        a = float(rng.uniform(-3.0, 3.0)) or 0.5
        if abs(a) < 1e-3:
            a = 0.5
        args = [float(rng.uniform(-2.0, 2.0)) for _ in range(4)]
        lhs, rhs, diff = discriminant_identity_check(a, *args)
        scaled = diff / max(1.0, abs(lhs), abs(rhs))
        assert scaled <= 1e-9
        worst_disc = max(worst_disc, scaled)
    print(f"criterion 8: generating equations worst residual {worst_ode:.2e} "
          f"(tol 1e-8); discriminant identity worst {worst_disc:.2e} over 1000 "
          f"draws (tol 1e-9); hand point -63 confirmed")


def test_criterion_09_euclidean_comparison_family():
    worst = 0.0
    # nominal radial window (0.1, 0.9^(1/a)), clipped to the profile's
    # validity r > 1 when a < 0
    windows = {2.0: (0.1, 0.9 ** 0.5), -0.5: (1.05, 1.23)}
    for a, (r0, r1) in windows.items():
        spec = make_spec("euclidean_rotational", {"a": a},
                         domain=(r0, r1, 0.0, math.pi))
        for u in np.linspace(r0 + 0.02, r1 - 0.02, 25):
            for v in (0.5, 2.0):
                hj = height_jet_from_param(evaluate(spec, float(u), v))
                _, _, k1e, k2e = euclidean_curvatures(hj)
                k1e, k2e = float(k1e), float(k2e)
                dev = min(abs(k1e / k2e - a), abs(k2e / k1e - a))
                assert dev <= 1e-6, (a, u)
                worst = max(worst, dev)

    spec = make_spec("helicoid", {})
    worst_h = 0.0
    for u in np.linspace(0.6, 1.9, 10):
        for v in np.linspace(0.2, 2.9, 5):
            hj = height_jet_from_param(evaluate(spec, float(u), float(v)))
            _, He, _, _ = euclidean_curvatures(hj)
            assert abs(float(He)) <= 1e-9
            worst_h = max(worst_h, abs(float(He)))
    print(f"criterion 9: Euclidean principal ratio worst deviation {worst:.2e} "
          f"(tol 1e-6); helicoid Euclidean |H| worst {worst_h:.2e} (tol 1e-9)")


def test_criterion_10_cli_determinism_and_obj_validity(tmp_path):
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["verify", "--family", "all", "--seed", "0", "--out", str(p1)]) == 0
    assert main(["verify", "--family", "all", "--seed", "0", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()

    obj = tmp_path / "h.obj"
    assert main(["generate", "--family", "helicoid", "--res", "100x100",
                 "--out", str(obj)]) == 0

    # reference OBJ reader
    verts, faces = [], []
    for line in obj.read_text().splitlines():
        parts = line.split()
        if parts[0] == "v":
            verts.append(tuple(float(x) for x in parts[1:4]))
        elif parts[0] == "f":
            faces.append(tuple(int(x) for x in parts[1:]))
    assert len(verts) == 10000
    assert len(faces) == 99 * 99
    assert all(len(f) == 4 and all(1 <= i <= len(verts) for i in f) for f in faces)
    assert all(all(math.isfinite(c) for c in p) for p in verts)
    print(f"criterion 10: verify CSV byte-identical across reruns; OBJ with "
          f"{len(verts)} vertices and {len(faces)} quads parsed cleanly")
