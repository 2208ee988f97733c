"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import isocrpc.cli
import isocrpc.curves
import isocrpc.duality
import isocrpc.families
import isocrpc.geometry
import isocrpc.meshing
import isocrpc.residuals
from isocrpc.cli import main
from isocrpc.errors import InvalidParams
from isocrpc.families import evaluate, make_spec


def read_obj_vertices(path):
    verts = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
        elif line.startswith("f "):
            for t in line.split()[1:]:
                assert t.isdigit() and int(t) >= 1
        else:
            pytest.fail(f"unexpected OBJ line: {line!r}")
    return np.array(verts)


# --- list ---------------------------------------------------------------------

def test_list_text_output(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "spiral_ruled" in out
    line = next(l for l in out.splitlines() if l.startswith("spiral_ruled"))
    assert "a < 0" in line
    assert "default domain" in line


def test_list_json_output(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 14
    byid = {r["family"]: r for r in rows}
    assert "helicoid" in byid
    for r in rows:
        assert set(r) == {"family", "constraint", "ratio", "params",
                          "default_domain", "singular_loci"}
        assert len(r["default_domain"]) == 4


# family -> (ratio, singular_loci) that list --json prints at the defaults
CATALOG_TEXT = {
    "paraboloid": ("a", []),
    "trans_paraboloid": ("a", []),
    "rotational_power_1": ("a", ["u = 0 (rotation axis)"]),
    "rotational_power_2": ("a (same ratio law, reciprocal exponent)", ["u = 0 (rotation axis)"]),
    "logarithmoid": ("-1", ["u = 0 (rotation axis)"]),
    "euclidean_rotational": ("a (Euclidean principal curvatures)",
                             ["u = 0 (rotation axis)", "u = 1 (profile slope unbounded)"]),
    "helicoid": ("-1", ["u = 0 (screw axis)"]),
    "spiral_ruled": ("a", ["u = 0 (directrix axis)"]),
    "helical_general": ("a", ["u = 0", "u = pi/2 (chart boundary)",
                              "tan^2(u) = a (singular curve of the surface)"]),
    "helical_log": ("-1", ["u = 0 (screw axis)"]),
    "trans_iso_noniso": ("a", ["b sin v = 1 (isotropic tangent plane)"]),
    "trans_noniso_noniso": ("-1", ["u + v = 0 (isotropic tangent planes)", "|u| = pi/2",
                                   "|v| = pi/2"]),
    # a = 2 gives b = 3: sin v = b has no root, only b sin v = 1 is reached
    "dual_trans_iso_noniso": ("1/a", ["b sin v = 1 (image of the primal singular locus)"]),
    "dual_trans_minimal": ("-1", ["tan u + tan v = 0 (chart pole)", "|u| = pi/2",
                                  "|v| = pi/2"]),
}


def test_list_json_catalog_text(capsys):
    assert main(["list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["family"]: (r["ratio"], r["singular_loci"]) for r in rows} == CATALOG_TEXT


@pytest.mark.parametrize("fid", ["trans_iso_noniso", "dual_trans_iso_noniso"])
def test_translational_loci_are_the_ones_the_chart_reaches(fid):
    # sin v = b has roots for |b| <= 1 (a <= 0), b sin v = 1 for |b| >= 1 (a >= 0)
    entry = isocrpc.families.catalog_entry(fid)
    for a, locus in ((2.0, "b sin v = 1"), (0.5, "b sin v = 1"), (-2.0, "sin v = b"),
                     (-0.5, "sin v = b")):
        names = [name for name, _dist in entry.loci(make_spec(fid, {"a": a}).params)]
        assert [name.split(" (")[0] for name in names] == [locus]


def test_unknown_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["list", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- generate -------------------------------------------------------------------

def test_generate_helicoid_mesh(tmp_path, capsys):
    out = tmp_path / "h.obj"
    rc = main(["generate", "--family", "helicoid", "--res", "100x100",
               "--out", str(out)])
    assert rc == 0
    verts = read_obj_vertices(out)
    assert verts.shape == (10000, 3)


def test_generate_deterministic(tmp_path):
    args = ["generate", "--family", "spiral_ruled", "--a", "-2",
            "--res", "20x20"]
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_rejects_zero_ratio(tmp_path, capsys):
    rc = main(["generate", "--family", "trans_paraboloid", "--a", "0",
               "--out", str(tmp_path / "x.obj")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_generate_unknown_family(tmp_path, capsys):
    rc = main(["generate", "--family", "moebius", "--out", str(tmp_path / "x.obj")])
    assert rc == 1


def test_generate_masks_singular_band(tmp_path):
    out = tmp_path / "t.obj"
    rc = main(["generate", "--family", "trans_iso_noniso", "--a", "2",
               "--res", "40x40", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    n_v = sum(1 for l in text.splitlines() if l.startswith("v "))
    assert 0 < n_v <= 1600


# --- verify ---------------------------------------------------------------------

VERIFY_HEADER = ("family,a,nu,nv,max_abs_crpc_residual,max_abs_H,"
                 "ode_residual,dualK_residual,status")


def test_verify_minimal_family(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "logarithmoid", "--res", "16x16",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == VERIFY_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "logarithmoid"
    assert float(cells[5]) <= 1e-9  # max_abs_H column
    assert cells[-1] == "PASS"


def test_verify_wrong_hypothesis_fails(tmp_path):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "trans_paraboloid", "--params", "a=2",
               "--a", "3", "--res", "12x12", "--out", str(out)])
    assert rc == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[-1] == "FAIL"
    assert float(row[4]) == pytest.approx(abs(9.0 / 8.0 - 16.0 / 12.0), abs=1e-12)


def test_verify_multi_a_deterministic(tmp_path):
    args = ["verify", "--family", "trans_paraboloid", "--a", "-2,2",
            "--res", "12x12", "--seed", "7"]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 3
    assert [l.split(",")[1] for l in lines[1:]] == ["-2", "2"]


def test_verify_all_nan_ode_residuals_print_nan(tmp_path):
    # on so flat a paraboloid every sampled ODE residual overflows to NaN;
    # the column once read 0 there
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "paraboloid", "--a", "1e-200", "--res", "4x4",
               "--out", str(out)])
    assert rc == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[6] == "nan" and row[-1] == "FAIL"


@pytest.mark.parametrize("a", ["-4.85e-14", "-1e-20", "-1e-149", "-4.85e-158", "-1e-200",
                               "-1e-302"])
def test_verify_of_a_nearly_flat_spiral_fails_without_warnings(a, capsys):
    # the dual stencil's Hessians meet inf - inf and the ratio residual
    # overflows: a FAIL row with NaN or inf columns, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--family", "spiral_ruled", f"--a={a}", "--res", "20x20"])
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    assert out.splitlines()[1].startswith("spiral_ruled,") and out.endswith(",FAIL\n")


def test_verify_of_a_steep_spiral_skips_its_flat_nodes(capsys):
    # the grid keeps nodes where |K| is below K_EPS (3.7e-19 at a = -50);
    # the residual column skips them instead of raising DegenerateK and
    # turning the row into an ERROR, and the ODE column, the right-conoid
    # law read off the chart, has no such nodes to skip
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--family", "spiral_ruled", "--a", "-50,-1000", "--res", "50x50"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[1], row[-1]) for row in rows] == [("-1000", "PASS"), ("-50", "PASS")]
    assert all(float(row[6]) <= 1e-8 for row in rows)


def test_verify_unknown_family_fails_fast(tmp_path, capsys):
    rc = main(["verify", "--family", "moebius", "--out", str(tmp_path / "v.csv")])
    assert rc == 1


def test_verify_invalid_single_request_errors(tmp_path):
    # spiral_ruled requires a < 0; one explicit bad a must not vanish silently
    rc = main(["verify", "--family", "spiral_ruled", "--a", "2",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 1


def test_verify_rejects_non_finite_ratio(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "trans_paraboloid", "--a", "nan", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_verify_rejects_ratio_for_a_family_without_one(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "helicoid", "--a", "5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_verify_all_rejects_non_finite_ratio(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "all", "--a", "nan", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_verify_all_checks_ratio_free_families_at_minus_one(tmp_path):
    out = tmp_path / "v.csv"
    main(["verify", "--family", "all", "--a", "2", "--res", "6x6", "--out", str(out)])
    rows = {l.split(",")[0]: l.split(",") for l in out.read_text().splitlines()[1:]}
    assert rows["helicoid"][1] == "-1"
    assert rows["paraboloid"][1] == "2"


# --- input boundary ---------------------------------------------------------------

def test_generate_rejects_non_finite_domain(tmp_path, capsys):
    out = tmp_path / "m.obj"
    rc = main(["generate", "--family", "helicoid", "--domain", "0,inf,0,1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "paraboloid", "--params", "a=1e-320"],
    # a hypothesis ratio next to the family's own one
    ["verify", "--family", "paraboloid", "--params", "a=2", "--a", "1e200"],
])
def test_ratio_whose_target_overflows_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("sub", ["generate", "verify"])
@pytest.mark.parametrize("domain", ["1,-1,-1,1", "-1,1,1,-1", "-1e308,1e308,-1,1",
                                    "-1,1,-1e308,1e308"])
def test_generate_rejects_reversed_domain(tmp_path, capsys, sub, domain):
    # a width that overflows would make np.linspace warn and mask every node
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([sub, "--family", "paraboloid", f"--domain={domain}", "--res", "3x3",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --domain needs umin < umax")
    assert not out.exists()


def test_verify_passes_euclidean_rotational_at_a_small_ratio(tmp_path):
    # the default box of a < 0.0458 runs from the edge 0.9^(1/a) up to 0.1
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "euclidean_rotational", "--a", "0.01,0.001",
               "--res", "20x20", "--out", str(out)])
    rows = out.read_text().splitlines()[1:]
    assert rc == 0
    assert len(rows) == 2 and all(row.endswith(",PASS") for row in rows)


def test_verify_passes_euclidean_rotational_at_its_umbilic_ratio(tmp_path):
    # a = 1 is the sphere, umbilic everywhere
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "euclidean_rotational", "--a", "1", "--res", "50x50",
               "--out", str(out)])
    row = out.read_text().splitlines()[1].split(",")
    assert rc == 0 and row[-1] == "PASS"
    assert float(row[4]) <= 1e-14


def test_generate_refuses_a_non_finite_parameter(tmp_path, capsys):
    out = tmp_path / "m.obj"
    rc = main(["generate", "--family", "helical_log", "--params", "c=inf", "--res", "3x3",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: helical_log: parameter 'c' must be finite, got inf\n"
    assert not out.exists()


def test_verify_skips_a_non_finite_parameter(tmp_path, capsys):
    rc = main(["verify", "--family", "helical_log", "--params", "c=nan", "--res", "3x3",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "verify: skipped helical_log c=nan: helical_log: parameter 'c' must be finite, got nan",
        "verify: no valid (family, a) combination"]


# --- trace ----------------------------------------------------------------------

def test_trace_family_alias_and_csv(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["trace", "--family", "rotational_power", "--a", "-2",
               "--kind", "char+", "--seed", "1,0.5", "--steps", "50",
               "--dt", "1e-3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,z,tx,ty"
    assert len(lines) == 52
    # the spiral grows: top-view radius strictly monotone along the trace
    r = [np.hypot(float(l.split(",")[1]), float(l.split(",")[2])) for l in lines[1:]]
    dr = np.diff(r)
    assert np.all(dr > 0) or np.all(dr < 0)


def test_trace_stops_before_a_non_finite_chart_point(tmp_path, capsys):
    # this trace walks onto a singular locus where (u, v) stays finite but the
    # chart point is infinite; the CSV must end at the last finite row
    out = tmp_path / "t.csv"
    rc = main(["trace", "--family", "dual_trans_iso_noniso", "--kind", "char-",
               "--steps", "111", "--dt", "0.01", "--a", "-0.649387",
               "--seed=-0.1476903031133826,1.0469617197806134", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert 1 < len(rows) < 112
    assert np.all(np.isfinite([[float(t) for t in r.split(",")] for r in rows]))
    err = capsys.readouterr().err
    assert f"trace stopped after {len(rows) - 1} steps" in err
    assert "not finite" in err


@pytest.mark.parametrize("kind", ["characteristic+", "characteristic-", "principal1",
                                  "principal2"])
def test_trace_of_a_flat_spiral_prints_no_warning(kind, capsys):
    # the curvature arithmetic of so flat a chart overflows: the direction at
    # the seed comes out (0, 0), and a trace that cannot move is refused
    argv = ["trace", "--family", "spiral_ruled", "--a", "-1e-6", "--seed", "1.0,0.5",
            "--kind", kind, "--steps", "300"]
    runs = []
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            runs.append((main(argv), *capsys.readouterr()))
    assert runs[0] == runs[1]
    rc, out, err = runs[1]
    assert (rc, out) == (1, "")
    assert err == "error: field direction is not a unit vector\n"


@pytest.mark.parametrize("argv", [
    ["--family", "helicoid", "--seed", "1,0.5", "--dt", "1e-17"],
    ["--family", "helicoid", "--seed", "1,0.5", "--dt", "1e-320"],
    ["--family", "paraboloid", "--seed", "0.3,0.4", "--kind", "principal1", "--dt", "1e-17"],
])
def test_a_step_below_the_rounding_of_u_and_v_stops_the_trace(argv, capsys):
    # t would advance while the seed point is written again and again
    assert main(["trace", *argv, "--steps", "2"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2 and out.splitlines()[1].startswith("0,")
    assert err == (f"{argv[1]}: trace stopped after 0 steps "
                   "(DegenerateJet: the step does not move the trace)\n")


@pytest.mark.parametrize("kind,sha256", [
    ("char+", "808706a4390fe928b9f51f2054f265aad5847bcce71eb8fcf3bca7aa2f476432"),
    ("char-", "5724b33837a57f9b4c15042daec625dff99be79e17395954f3f07fb26667240f"),
])
def test_a_trace_whose_curvatures_overflow_keeps_its_bytes(kind, sha256, capsys, monkeypatch):
    # k2 rounds to 0 at every stage, and every stage's direction is a
    # Python-float one: the array functions run at the seed only
    seeds = []
    height_jet = isocrpc.curves.height_jet_from_param
    monkeypatch.setattr(isocrpc.curves, "height_jet_from_param",
                        lambda jet: seeds.append(jet) or height_jet(jet))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace", "--family", "paraboloid", "--a", "1e150", "--seed", "0.9,0.5",
                   "--steps", "300", "--kind", kind])
    out, err = capsys.readouterr()
    assert (rc, err, len(seeds)) == (0, "", 1)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("kind,sha256", [
    ("char+", "b6fda1022f654382dd21328ff98c4c8140e2c917b7a7b4472bb71d2504b54ee3"),
    ("char-", "4f158f4d805c30559856e4be49fd8276a4a06acd7e8c2f93ca8c4eea39227b48"),
    ("principal1", "b8f4ea538d104af3a7025de9f7c098f1303f49613e1d89be5acb7c04afbcc310"),
    ("principal2", "7a55156f914df393ded607116b2038de096681aa7cac6775e1e0fb0d3536e81b"),
])
def test_a_trace_of_a_nearly_flat_spiral_keeps_its_bytes(kind, sha256, capsys):
    # m = (a + 1)/sqrt|a| is about 31.6: a steep chart, traced to the end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace", "--family", "spiral_ruled", "--a", "-1e-3", "--seed", "1.0,0.5",
                   "--steps", "300", "--kind", kind])
    out, err = capsys.readouterr()
    assert (rc, err, len(out.splitlines())) == (0, "", 302)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_verify_of_a_euclidean_ratio_near_zero_prints_no_warning(capsys):
    # the profile's quadrature misses its tolerance at this ratio, and verify runs none
    argv = ["verify", "--family", "euclidean_rotational", "--a", "1e-14", "--res", "20x20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (1, "")
    row = out.splitlines()[1]
    assert row.startswith("euclidean_rotational,1e-14,20,20,") and row.endswith(",FAIL")


def test_trace_needs_a_seed(tmp_path, capsys):
    rc = main(["trace", "--family", "helicoid", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--family", "helicoid", "--seed", "nan,0.3"],  # once failed late: jet not finite
    ["--family", "euclidean_rotational", "--a", "-0.5", "--seed", "inf,1.5"],  # once warned
    ["--family", "paraboloid", "--seed", "0.5,-inf"],
    ["--family", "trans_iso_noniso", "--seed=-1e400,0.5"],
])
def test_trace_seed_that_is_not_finite_is_an_error(argv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace", *argv, "--steps", "3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be finite") and err.count("\n") == 1
    assert not out.exists()


def test_trace_rejects_unknown_kind(tmp_path):
    rc = main(["trace", "--family", "helicoid", "--kind", "diagonal",
               "--seed", "1,0.5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1


# --- dual -----------------------------------------------------------------------

def test_dual_matches_the_catalog_dual_family(tmp_path):
    dom = "0.1,0.6,0.4,1.0"
    out = tmp_path / "d.obj"
    rc = main(["dual", "--family", "trans_iso_noniso", "--a", "2",
               "--domain", dom, "--res", "6x6", "--out", str(out)])
    assert rc == 0
    verts = read_obj_vertices(out)
    assert verts.shape == (36, 3)

    spec = make_spec("dual_trans_iso_noniso", {"a": 2.0},
                     domain=(0.1, 0.6, 0.4, 1.0))
    us = np.linspace(0.1, 0.6, 6)
    vs = np.linspace(0.4, 1.0, 6)
    worst = 0.0
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            D = np.asarray(evaluate(spec, float(u), float(v)).r, float)
            # catalog chart is an isotropic-similar copy of the raw dual
            mapped = np.array([D[0] / 8.0, -D[1] / 8.0, D[2] + D[1] / 8.0])
            worst = max(worst, float(np.max(np.abs(verts[i * 6 + j] - mapped))))
    assert worst <= 1e-4


def test_dual_of_flat_surface_fails(tmp_path, capsys):
    rc = main(["dual", "--family", "paraboloid", "--params", "a=1e-18",
               "--res", "8x8", "--out", str(tmp_path / "d.obj")])
    assert rc == 1
    assert "dual" in capsys.readouterr().err.lower()


# --- config file -----------------------------------------------------------------

def test_config_file_supplies_options(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "trans_paraboloid", "a": 2, "res": "8x8",
    }))
    out = tmp_path / "m.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_obj_vertices(out).shape == (64, 3)


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "trans_paraboloid", "a": 2, "res": "8x8",
    }))
    out = tmp_path / "m.obj"
    assert main(["generate", "--config", str(cfg), "--res", "4x4",
                 "--out", str(out)]) == 0
    assert read_obj_vertices(out).shape == (16, 3)


@pytest.mark.parametrize("argv,cfg", [
    (["generate", "--family", "helicoid"], {"out": True}),
    (["generate", "--family", "helicoid"], {"out": 5}),
    (["generate", "--family", "helicoid", "--out", "m.obj"], {"res": [2.9, 3.7]}),
    (["list"], {"json": "false"}),
    (["trace", "--family", "helicoid", "--seed", "1,1", "--out", "t.csv"], {"steps": True}),
    (["trace", "--family", "helicoid", "--seed", "1,1", "--out", "t.csv"], {"dt": True}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"tol": True}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"tol": {"crpc": True}}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"params": {"a": True}}),
    (["generate", "--family", "helicoid", "--out", "m.obj"], {"domain": [True, 2, 0, 1]}),
    (["generate", "--family", "helicoid", "--out", "m.obj"], {"res": [3]}),
    (["generate", "--family", "helicoid", "--out", "m.obj"], {"res": [3, 3, 3]}),
    (["generate", "--family", "helicoid", "--out", "m.obj", "--res", "50x50x2"], {}),
    (["generate", "--out", "m.obj"], {"family": ["helicoid"]}),
])
def test_config_value_of_the_wrong_json_type_is_refused(tmp_path, monkeypatch, capsys,
                                                        argv, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(argv + ["--config", "run.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("argv,cfg", [
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"a": True}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"a": [1, 2]}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"seed": 2.0}),
    (["trace", "--family", "helicoid", "--out", "t.csv"], {"seed": [0.1, 0.2]}),
    (["verify", "--family", "paraboloid", "--out", "v.csv"], {"domain": {"a": 1}}),
    (["generate", "--family", "helicoid", "--out", "m.obj"], {"domain": 5}),
])
def test_config_a_seed_and_domain_of_the_wrong_json_type_name_the_flag(
        tmp_path, monkeypatch, capsys, argv, cfg):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(argv + ["--config", "run.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    flag = next(iter(cfg))
    assert err.startswith(f"error: --{flag} must be ") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_config_numbers_for_a_seed_and_domain_read_as_their_argv_text(tmp_path):
    argv = ["verify", "--family", "paraboloid", "--res", "8x8"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a": 2, "seed": 7, "domain": "-1,1,-1,1"}))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    assert main(argv + ["--a", "2", "--seed", "7", "--domain=-1,1,-1,1",
                        "--out", str(tmp_path / "f.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()


def test_verify_seed_that_is_no_integer_names_the_flag(tmp_path, capsys):
    assert main(["verify", "--family", "paraboloid", "--seed", "2.0",
                 "--out", str(tmp_path / "v.csv")]) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be an integer for verify, got '2.0'\n"


def test_config_file_must_be_flat(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    assert main(["generate", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--family", "helicoid", "--domain", "a,1,0,1"], "domain"),
    (["generate", "--family", "paraboloid", "--params", "a=x"], "params"),
    (["trace", "--family", "helicoid", "--seed", "a,b"], "seed"),
    (["verify", "--family", "paraboloid", "--tol", "crpc=x"], "tol"),
    (["verify", "--family", "paraboloid", "--a", "x"], "a"),
    (["generate", "--family", "paraboloid", "--a", "1,2"], "a"),
    # read by the flag's reader, not by argparse: exit 1, not 2
    (["trace", "--family", "helicoid", "--seed", "1,1", "--steps", "x"], "steps"),
    (["trace", "--family", "helicoid", "--seed", "1,1", "--dt", "x"], "dt"),
    # well-formed values out of range, once refused by the library without the flag
    (["trace", "--family", "helicoid", "--seed", "1,1", "--steps", "0"], "steps"),
    (["trace", "--family", "helicoid", "--seed", "1,1", "--dt", "0"], "dt"),
    (["generate", "--family", "paraboloid", "--res", "3000x3000"], "res"),
    (["generate", "--family", "paraboloid", "--res", "1x5"], "res"),
    (["verify", "--family", "paraboloid", "--tol", "bogus=1"], "tol"),
    (["verify", "--family", "paraboloid", "--seed", "-1"], "seed"),
    (["verify", "--family", "paraboloid", "--params", "a"], "params"),
])
def test_argv_text_that_is_no_number_names_the_flag(argv, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: --{flag} ") and err.count("\n") == 1, err
    assert err.count(f"--{flag}") == 1, err


TRACE = ["trace", "--family", "helicoid", "--seed", "1,0.5"]
VERIFY = ["verify", "--family", "paraboloid", "--res", "4x4"]


@pytest.mark.parametrize("argv,flag,rule", [
    (["generate", "--family", "paraboloid", "--res", "1x5"], "res",
     lambda: isocrpc.meshing.grid_shape(1, 5)),
    (["dual", "--family", "paraboloid", "--res", "5x1"], "res",
     lambda: isocrpc.meshing.grid_shape(5, 1)),
    (["generate", "--family", "paraboloid", "--res", "3000x3000"], "res",
     lambda: isocrpc.meshing.grid_shape(3000, 3000)),
    (TRACE + ["--steps", "0"], "steps", lambda: isocrpc.curves.trace_steps(0)),
    (TRACE + ["--steps", str(isocrpc.curves.MAX_TRACE_STEPS + 1)], "steps",
     lambda: isocrpc.curves.trace_steps(isocrpc.curves.MAX_TRACE_STEPS + 1)),
    (TRACE + ["--dt", "0"], "dt", lambda: isocrpc.curves.trace_dt(0.0)),
    (TRACE + ["--dt=-1"], "dt", lambda: isocrpc.curves.trace_dt(-1.0)),
    (TRACE + ["--dt", "nan"], "dt", lambda: isocrpc.curves.trace_dt(math.nan)),
    (TRACE + ["--dt", "inf"], "dt", lambda: isocrpc.curves.trace_dt(math.inf)),
    (VERIFY + ["--a", "2,0"], "a", lambda: isocrpc.geometry.crpc_target(0.0)),
    (["generate", "--family", "paraboloid", "--a", "0"], "a",
     lambda: isocrpc.geometry.crpc_target(0.0)),
    (VERIFY + ["--a", "1e200"], "a", lambda: isocrpc.geometry.crpc_target(1e200)),
    (VERIFY + ["--a", "nan"], "a", lambda: isocrpc.geometry.crpc_target(math.nan)),
])
def test_a_value_a_library_rule_refuses_gets_the_rule_s_message(argv, flag, rule, tmp_path,
                                                               capsys):
    # the reader calls the rule the library applies, and only the flag's
    # name is put in front of its message
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    with pytest.raises(InvalidParams) as refused:
        rule()
    assert err == f"error: --{flag} {refused.value}\n"


# a cheap run of each subcommand, every value from the config file
CONFIG_BASE = {
    "list": {},
    "generate": {"family": "paraboloid", "res": "4x4"},
    "dual": {"family": "paraboloid", "res": "4x4"},
    "verify": {"family": "paraboloid", "res": "4x4"},
    "trace": {"family": "paraboloid", "seed": "0.5,0.5", "steps": 3},
}
# JSON text, so that literals json.dumps does not write (1e400 reads as inf)
# are drawn too; strings from the characters the flag grammars use
_TEXT = "0123456789.,=x-+eainfbcrp \n"
JSON_NUMBERS = st.one_of(
    st.sampled_from(["1e400", "-1e999", "NaN", "-Infinity"]),
    st.integers(-3, 12).map(str),
    st.integers(10**18, 10**400).map(str),
    st.floats().map(json.dumps),
)
JSON_SCALARS = st.one_of(
    st.sampled_from(["null", "true", "false"]),
    JSON_NUMBERS,
    st.sampled_from(["2", "-0.5,2", "a=2", "crpc=1e-3", "8x8", "-1,1,-1,1", "0.7,0.3", "char-",
                     "helicoid", "all"]).map(json.dumps),
    st.text(_TEXT, max_size=12).map(json.dumps),
)


def _json_list(items):
    return "[" + ", ".join(items) + "]"


def _json_object(entries):
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in entries.items()) + "}"


JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_NUMBERS, max_size=5).map(_json_list),
    st.dictionaries(st.sampled_from(["a", "c", "crpc", "ode", "dual", "x"]), JSON_NUMBERS,
                    max_size=3).map(_json_object),
    st.recursive(JSON_SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=4).map(_json_list),
        st.dictionaries(st.text(_TEXT, max_size=4), children, max_size=4).map(_json_object),
    ), max_leaves=8),
)


@st.composite
def config_case(draw):
    sub = draw(st.sampled_from(sorted(CONFIG_BASE)))
    return sub, draw(st.sampled_from(list(isocrpc.cli.SUBCOMMANDS[sub][1]))), draw(JSON_VALUES)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=config_case())
@example(case=("trace", "dt", "1" + "0" * 400))  # float() of it once raised OverflowError
@example(case=("verify", "tol", '{"crpc": 1e400}'))
@example(case=("generate", "family", '"a\\nb"'))  # one error line, the newline escaped
@example(case=("generate", "params", '{"a\\nb": 1}'))
def test_any_config_value_exits_cleanly(tmp_path, monkeypatch, case):
    sub, key, value = case
    monkeypatch.chdir(tmp_path)  # a drawn --out names a file here
    base = {k: json.dumps(v) for k, v in CONFIG_BASE[sub].items()}
    (tmp_path / "run.json").write_text(_json_object({**base, key: value}))
    argv = [sub, "--config", "run.json"] + ([] if key == "out" else ["--out", "out"])
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc in (0, 1), (key, value, stderr.getvalue())
    lines = stderr.getvalue().splitlines()
    if rc == 1 and any(line.startswith("error:") for line in lines):
        assert len(lines) == 1, (key, value, lines)
        assert "could not convert" not in lines[0] and "invalid literal" not in lines[0]
    elif rc == 1:  # a verify report with a row that did not pass
        assert sub == "verify", (key, value, lines)


# --- module execution --------------------------------------------------------------

def test_module_entry_point_smoke(capsys):
    # python -m isocrpc runs __main__.py from the source tree
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "isocrpc", "list"], env=env,
                          capture_output=True, timeout=120)
    assert main(["list"]) == 0
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capsys.readouterr().out.encode()
    assert b"helicoid" in proc.stdout


# each call follows one that set an option it leaves at its default
_ONE_PROCESS_ARGV = [
    ["list", "--json"],
    ["list"],
    ["trace", "--family", "rotational_power_1", "--a", "-2", "--seed", "1.0,0.5",
     "--kind", "char-", "--steps", "4", "--dt", "0.05"],
    ["trace", "--family", "helicoid", "--seed", "1.0,0.5", "--steps", "3"],
    ["verify", "--family", "paraboloid", "--a", "0.5", "--res", "6x5", "--tol", "1e-6"],
    ["generate", "--family", "paraboloid", "--res", "3x2"],
]


def test_main_calls_in_one_process_match_fresh_interpreters(capsys):
    # the parser is built once per process, so no option value may carry
    # from one main call to the next
    script = "import sys; from isocrpc.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = [subprocess.Popen([sys.executable, "-c", script, *argv], text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in _ONE_PROCESS_ARGV]
    for argv, proc in zip(_ONE_PROCESS_ARGV, fresh):
        fresh_out, fresh_err = proc.communicate(timeout=120)
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == (proc.returncode, fresh_out, fresh_err), argv
    assert isocrpc.cli.build_parser() is isocrpc.cli.build_parser()


# --- golden output, one chart evaluation per dual, the --a rule, flags ----------

@pytest.mark.parametrize("argv, digest", [
    (["list"], "ca107dd006550f0d75e7f74564c22286aafe78e627984f52a93bbdd8b9240c65"),
    # dual_trans_iso_noniso lists only the locus b sin v = 1 that its chart reaches at a = 2
    (["list", "--json"], "a593ba1a340cc624fef9a3c08e3bf3f8dbfbc878e8b1e8b6d5d1cf228c3c7453"),
])
def test_list_output_bytes(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dual_evaluates_the_chart_once(tmp_path, monkeypatch):
    points = []
    chart = isocrpc.families.evaluate

    def counted(spec, u, v, *args, **kwargs):
        points.append(np.broadcast(np.asarray(u), np.asarray(v)).size)
        return chart(spec, u, v, *args, **kwargs)

    for module in (isocrpc.families, isocrpc.meshing):
        monkeypatch.setattr(module, "evaluate", counted)
    rc = main(["dual", "--family", "trans_iso_noniso", "--a", "2", "--res", "7x9",
               "--out", str(tmp_path / "d.obj")])
    assert rc == 0
    assert points == [63]


@pytest.mark.parametrize("family,a", [("helicoid", None), ("paraboloid", "2"),
                                      ("euclidean_rotational", "-2")])
def test_verify_row_evaluates_the_chart_three_times(family, a, tmp_path, monkeypatch):
    # the grid, the ODE nodes and the dual stencil; the dual law reads the
    # grid's curvatures at the sampled nodes
    sizes = []
    chart = isocrpc.families.evaluate

    def counted(spec, u, v, *args, **kwargs):
        sizes.append(np.broadcast(np.asarray(u), np.asarray(v)).size)
        return chart(spec, u, v, *args, **kwargs)

    for module in (isocrpc.meshing, isocrpc.residuals, isocrpc.duality):
        monkeypatch.setattr(module, "evaluate", counted)
    argv = ["verify", "--family", family, "--res", "12x10", "--out", str(tmp_path / "v.csv")]
    assert main(argv + (["--a", a] if a else [])) == 0
    assert sizes == [120, 64, 64 * 9]


def test_verify_a_value_without_a_row_is_an_error(tmp_path, capsys):
    # no family takes the ratio 0; the families without a ratio give rows
    # at -1, which do not answer the request
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "all", "--a", "0", "--res", "6x6", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --a 0.0 ")
    assert not out.exists()


def test_verify_every_a_value_needs_a_row(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "trans_paraboloid", "--a", "2,0", "--res", "6x6",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --a 0.0 ")
    assert not out.exists()


def test_verify_with_no_valid_combination_writes_only_the_header(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "paraboloid", "--params", "b=1", "--res", "6x6",
               "--out", str(out)])
    assert rc == 1
    assert out.read_text() == isocrpc.cli.VERIFY_HEADER + "\n"
    assert capsys.readouterr().err.splitlines() == [
        "verify: skipped paraboloid b=1: paraboloid does not take parameter 'b'",
        "verify: no valid (family, a) combination",
    ]


# between about -3.8e-3 and 0, 0.9^(1/a), the edge of euclidean_rotational's
# default box and its height anchor, is 1/JACOBIAN_EPS = 1e12 or more, where no
# node of the box [edge, 2 edge] is admissible (once an all-NaN ERROR row), and
# between -1.48e-4 and 0 it overflows a double
@pytest.mark.parametrize("a", ["-3.8e-3", "-1e-3", "-1.5e-4", "-1e-4", "-1e-5", "-1e-300"])
@pytest.mark.parametrize("subcommand", ["generate", "dual", "verify", "trace"])
def test_a_tiny_negative_euclidean_ratio_is_refused(subcommand, a, tmp_path, capsys):
    out = tmp_path / "x"
    argv = [subcommand, "--family", "euclidean_rotational", "--a", a, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + (["--seed", "1.5,0.5"] if subcommand == "trace" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "0.9^(1/a) is not below 1e+12" in err
    assert not out.exists()


@pytest.mark.parametrize("a", ["1e-14", "4.85e-14", "1e-10"])
@pytest.mark.parametrize("subcommand", ["generate", "dual", "trace"])
def test_a_tiny_positive_euclidean_ratio_whose_height_misses_its_tolerance_is_refused(
        subcommand, a, tmp_path, capsys):
    # QAGS misses its tolerance on the profile's height (too many
    # subdivisions, round-off); the height raises InvalidParams, warnings or not
    out = tmp_path / "x"
    argv = [subcommand, "--family", "euclidean_rotational", "--a", a, "--out", str(out),
            *(["--seed", "0.5,1.0"] if subcommand == "trace" else ["--res", "5x5"])]
    runs = []
    for action in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            runs.append((main(argv), *capsys.readouterr()))
    assert runs[0] == runs[1] == (1, "", f"error: euclidean_rotational: the height integral "
                                         f"misses its tolerance 1e-12 at a = {float(a)!r}\n")
    assert not out.exists()


def test_a_euclidean_height_that_misses_its_tolerance_after_the_seed_stops_the_trace(
        tmp_path, capsys):
    # at a = 3e-8 QAGS converges at u = 0.08 and misses at scattered u up to
    # 0.1: the trace stops at the first such sample, like at any other
    # error after the seed, and exits 0 with the samples before it
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace", "--family", "euclidean_rotational", "--a", "3e-8", "--seed",
                   "0.08,1.0", "--kind", "principal2", "--steps", "200", "--dt", "1e-4",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0 and err.count("\n") == 1
    assert re.fullmatch(r"euclidean_rotational: trace stopped after \d+ steps \(InvalidParams: "
                        r"euclidean_rotational: the height integral misses its tolerance "
                        r"1e-12 at a = 3e-08\)\n", err)
    steps = int(err.split("after ")[1].split()[0])
    assert 1 <= steps < 200 and len(out.read_text().splitlines()) == 1 + 1 + steps


def test_a_small_positive_euclidean_ratio_generates_without_a_warning(tmp_path, capsys):
    out = tmp_path / "x.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["generate", "--family", "euclidean_rotational", "--a", "1e-6",
                   "--res", "5x5", "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (0, "euclidean_rotational: 20 vertices, 12 quads, "
                                                "5 nodes masked\n")
    assert sum(line.startswith("v ") for line in out.read_text().splitlines()) == 20


def test_a_tiny_negative_euclidean_ratio_reads_no_height_in_verify(tmp_path, capsys):
    # an explicit box needs no edge, and verify reads no height: only the
    # height anchor is refused
    out = tmp_path / "x"
    box = ["--a", "-1e-5", "--domain", "1.5,2,0,1", "--res", "8x8", "--out", str(out)]
    assert main(["verify", "--family", "euclidean_rotational", *box]) == 0
    assert out.read_text().splitlines()[1].endswith(",PASS")
    assert main(["generate", "--family", "euclidean_rotational", *box]) == 1
    assert capsys.readouterr().err == ("error: euclidean_rotational: the edge 0.9^(1/a) "
                                       "is not below 1e+12 at a = -1e-05\n")
    assert main(["verify", "--family", "all", *box[:2], "--res", "8x8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verify: skipped euclidean_rotational a=-1.0000000000000001e-05: ")
    assert "Traceback" not in err and len(out.read_text().splitlines()) == 1 + 13
    box[1] = "-1e-3"  # an edge below the overflow, past the bound
    assert main(["verify", "--family", "euclidean_rotational", *box]) == 0
    assert out.read_text().splitlines()[1].endswith(",PASS")


READ_FLAGS = {
    "list": {"json", "out", "config"},
    "generate": {"family", "a", "params", "domain", "res", "out", "config"},
    "dual": {"family", "a", "params", "domain", "res", "out", "config"},
    "verify": {"family", "a", "params", "domain", "res", "out", "config", "tol", "seed"},
    "trace": {"family", "a", "params", "seed", "kind", "steps", "dt", "out", "config"},
}
ALL_FLAGS = set().union(*READ_FLAGS.values())


@pytest.mark.parametrize("subcommand, flag", [
    (sub, flag) for sub in READ_FLAGS for flag in sorted(ALL_FLAGS - READ_FLAGS[sub])])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(subcommand, flag):
    value = [] if flag == "json" else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, f"--{flag}", *value])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["generate", "--family", "helicoid", "--res", "5x5", "--tol", "1e-3", "--seed", "7",
     "--json"],
    ["list", "--family", "nope", "--res", "2x2", "--a", "5"],
    ["trace", "--family", "helicoid", "--seed", "1,1", "--steps", "20", "--dt", "0.01",
     "--domain", "5,6,5,6", "--res", "3x3", "--tol", "9", "--json"],
])
def test_flags_that_once_did_nothing_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_config_key_the_subcommand_does_not_read_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "helicoid", "res": "4x4", "tol": 1e-3}))
    out = tmp_path / "m.obj"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_can_ask_list_for_json(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"json": True}))
    assert main(["list", "--config", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 14


# --- refused verify combinations, the grid cap -----------------------------------

def test_verify_names_every_refused_combination(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "all", "--params", "a=2", "--res", "6x6",
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 8
    skipped = capsys.readouterr().err.splitlines()
    assert len(skipped) == 6
    assert "verify: skipped spiral_ruled a=2: spiral_ruled: requires a < 0" in skipped
    for fid in ("logarithmoid", "helicoid", "helical_log", "trans_noniso_noniso",
                "dual_trans_minimal"):
        assert f"verify: skipped {fid} a=2: {fid} does not take parameter 'a'" in skipped


def test_verify_names_the_error_of_every_error_row_in_row_order(tmp_path, capsys):
    # sin^a u underflows on helical_general's default box at a large ratio,
    # so every node is masked and the row is all NaN
    out = tmp_path / "v.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--family", "helical_general", "--a", "1e8,-2,1e7",
                   "--res", "8x8", "--out", str(out)])
    assert rc == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[1], r[-1]) for r in rows] == [
        ("-2", "PASS"), ("10000000", "ERROR"), ("100000000", "ERROR")]
    assert rows[1][4:8] == rows[2][4:8] == ["nan"] * 4
    assert capsys.readouterr().err.splitlines() == [
        f"verify: helical_general a={a}: helical_general: every grid node is masked"
        for a in ("10000000", "100000000")]


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--family", "trans_paraboloid", "--a", "-2,2", "--res", "8x8"],
     "247ee5d4f72135c104df54cf97f4e6099e5d2b17b468012fe63dc259dd045692"),
    (["verify", "--family", "spiral_ruled", "--res", "8x8", "--seed", "3"],
     "6efed02802a9d42ece29e6dc1af1bd3acce5f12b459a19fb7f22334fd4dec36c"),
])
def test_single_family_verify_output_bytes(capsys, argv, digest):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def test_grid_above_the_cap_fails_before_allocating(tmp_path, capsys):
    out = tmp_path / "m.obj"
    tracemalloc.start()
    try:
        rc = main(["generate", "--family", "helicoid", "--res", "100000x100000",
                   "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert peak < 2**20
    assert not out.exists()


def test_euclidean_profile_past_its_end_is_masked_without_warning(tmp_path):
    # u = 1 ends the profile of euclidean_rotational a = 2; the adaptive
    # quadrature once ran past it and warned about the integrand
    out = tmp_path / "v.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--family", "euclidean_rotational", "--domain", "0.5,2,0,1",
                   "--res", "4x4", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1].endswith(",PASS")


@pytest.mark.parametrize("a", ["0.5", "-0.5", "1.5", "-1.5"])
def test_euclidean_profile_is_not_integrated_at_negative_u(a, tmp_path, capsys):
    # for odd 2a the slope law u^(2a) < 1 also holds at u < 0, where the
    # quadrature once integrated r^a over negative r and raised a TypeError
    box = ["--family", "euclidean_rotational", "--a", a, "--domain", "-2,2,0,1", "--res", "17x5"]
    spec = make_spec("euclidean_rotational", {"a": float(a)}, (-2.0, 2.0, 0.0, 1.0))
    U, V = np.meshgrid(np.linspace(-2.0, 2.0, 17), np.linspace(0.0, 1.0, 5), indexing="ij")
    valid = int(isocrpc.families.hard_valid(spec, U, V).sum())  # whole columns of 5
    assert 0 < valid < U.size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["generate", *box, "--out", str(tmp_path / "e.obj")]) == 0
        quads, masked = 4 * (valid // 5 - 1), U.size - valid
        assert capsys.readouterr().err == (f"euclidean_rotational: {valid} vertices, "
                                           f"{quads} quads, {masked} nodes masked\n")
        assert main(["verify", *box, "--out", str(tmp_path / "e.csv")]) == 0
        assert capsys.readouterr().err == ""
    assert len(read_obj_vertices(tmp_path / "e.obj")) == valid
    assert (tmp_path / "e.csv").read_text().splitlines()[1].endswith(",PASS")


@pytest.mark.parametrize("a", ["0.99", "1.01", "1.05"])
def test_flat_grid_reports_nan_residual_without_warning(a, tmp_path, capsys):
    # the default box of trans_iso_noniso is nearly flat for a near 1 and
    # every ratio residual is NaN there; np.nanmax once warned about it
    box = ["--family", "trans_iso_noniso", "--a", a]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", *box, "--out", str(tmp_path / "v.csv")]) == 1
        assert main(["generate", *box, "--res", "20x20", "--out", str(tmp_path / "t.obj")]) == 0
    assert capsys.readouterr().err == "trans_iso_noniso: 400 vertices, 361 quads, 0 nodes masked\n"
    row = (tmp_path / "v.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "nan" and row[-1] == "FAIL"


def _entries(value):
    """Entries of a dict, list or set, with those of the dicts and lists in it."""
    if isinstance(value, dict):
        return len(value) + sum(_entries(v) for v in value.values())
    if isinstance(value, (list, set)):
        return len(value) + sum(_entries(v) for v in value)
    return 0


def _module_state():
    """Entries of every module-level dict, list and set of the isocrpc modules."""
    return {f"{name}.{attr}": _entries(value)
            for name, module in list(sys.modules.items())
            if name == "isocrpc" or name.startswith("isocrpc.")
            for attr, value in vars(module).items()
            if not attr.startswith("__") and isinstance(value, (dict, list, set))}


def test_repeated_commands_leave_module_state_as_it_was(tmp_path, capsys):
    # new grids and start points each time: a cache keyed by them would grow
    def run_all(k):
        for i, argv in enumerate([
            ["verify", "--family", "euclidean_rotational", "--res", f"{5 + k}x4"],
            ["verify", "--family", "euclidean_rotational", "--a", "-1.5", "--res", f"{5 + k}x4"],
            ["generate", "--family", "euclidean_rotational", "--res", f"{7 + k}x3"],
            ["trace", "--family", "euclidean_rotational", "--seed", f"{0.5 + 0.01 * k},0.5",
             "--steps", "3"],
            ["trace", "--family", "rotational_power_1", "--seed", f"{1 + 0.01 * k},0.5",
             "--steps", "3"],
        ]):
            assert main(argv + ["--out", str(tmp_path / f"out-{k}-{i}")]) == 0, argv

    run_all(0)
    before = _module_state()
    assert "isocrpc.families._REGISTRY" in before
    for k in (1, 2, 3):
        run_all(k)
    assert _module_state() == before


@pytest.mark.parametrize("steps", [str(isocrpc.curves.MAX_TRACE_STEPS + 1), "100000000000"])
def test_trace_steps_above_the_cap_fail_before_tracing(steps, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(isocrpc.cli, "trace_direction_field", None)  # calling it would fail
    out = tmp_path / "t.csv"
    rc = main(["trace", "--family", "helicoid", "--seed", "1,1", "--steps", steps,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and steps in err
    assert not out.exists()


@pytest.mark.parametrize("tol,why", [
    ("nan", "crpc must be finite"),  # once a FAIL row and exit 1 without a message
    ("crpc=-1", "crpc must be finite and >= 0"),  # once failed every row
    ("inf", "crpc must be finite"),  # once turned the residual checks off
    ("dual=nan", "dual must be finite"),
    ("crpc=1e-3,bad", "name=value, got 'bad'"),  # once "not enough values to unpack"
])
def test_verify_rejects_a_bad_tolerance(tol, why, tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = main(["verify", "--family", "paraboloid", "--tol", tol, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and why in err
    assert not out.exists()


def test_verify_rejects_a_negative_tolerance_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"family": "paraboloid", "tol": {"ode": -1e-3}}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == 1
    assert "ode must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["inf", "nan"])
def test_trace_step_that_is_not_finite_is_an_error(dt, tmp_path, capsys):
    # an infinite step once ran the chart at u = -inf and warned in np.mod
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["trace", "--family", "trans_iso_noniso", "--steps", "3", "--seed", "1,0.5",
                   "--dt", dt, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dt" in err
    assert not out.exists()


# --- any argv from a small grammar exits 0, 1 or 2, without traceback or warning

ARGV_VALUES = {
    "--family": ("helicoid", "paraboloid", "spiral_ruled", "trans_iso_noniso",
                 "euclidean_rotational", "rotational_power", "helical_general", "all",
                 "nope", ""),
    "--a": ("2", "-2", "0", "1", "-1", "0.5", "nan", "inf", "-0.5,2", "1e-320", "1e200",
            "-1e-5", "x", ""),
    "--params": ("a=2", "a=-2", "a=nan", "b=1", "a", "a=1e-320", "c=0.5", ""),
    "--domain": ("0.5,2,0,1", "-1,1,-1,1", "0,inf,0,1", "1,-1,-1,1", "nan,1,0,1",
                 "0,1,0", "a,b,c,d", "0,0,0,1", "-1e-300,1e-300,0,1"),
    "--res": ("2x2", "3x8", "8x8", "5X4", "1x5", "0x0", "-2x4", "ax3", "4", "2x3x4",
              "100000x100000", "8x600000"),
    "--tol": ("1e-3", "crpc=1e-7,dual=1e-3", "bogus=1", "nan", "x", "crpc"),
    "--seed": ("0", "7", "-1", "x", "1.5"),
    "--kind": ("char+", "char-", "principal1", "principal2", "bogus"),
    "--steps": ("1", "4", "0", "-1", "x"),
    "--dt": ("0.01", "0", "-0.01", "nan", "inf", "1e-300", "1e300", "x"),
    "--config": ("missing.json",),
}
TRACE_SEEDS = ("1,0.5", "0.7,0.3", "-0.5,0.5", "nan,0", "inf,1", "1", "x,y", "1,2,3")
OTHER_FLAGS = ("--json", "--bogus", "-x", "--", "--res")


@st.composite
def cli_argv(draw):
    sub = draw(st.sampled_from(("list", "generate", "verify", "trace", "dual")))
    own = [f"--{flag}" for flag in isocrpc.cli.SUBCOMMANDS[sub][1]]
    argv = [sub]
    if sub != "list":
        argv += ["--family", draw(st.sampled_from(ARGV_VALUES["--family"]))]
    if "--res" in own:
        argv += ["--res", draw(st.sampled_from(ARGV_VALUES["--res"][:3]))]
    if sub == "trace":
        argv += ["--steps", "3", "--seed", draw(st.sampled_from(TRACE_SEEDS))]
    for flag in draw(st.lists(st.sampled_from(own + ["--config"]), max_size=4)):
        if flag == "--json":
            argv.append(flag)
        elif flag != "--out":
            values = TRACE_SEEDS if (sub, flag) == ("trace", "--seed") else ARGV_VALUES[flag]
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(OTHER_FLAGS)))
    return argv


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
@example(argv=["trace", "--family", "trans_iso_noniso", "--steps", "3", "--seed", "1,0.5",
               "--dt", "inf"])
@example(argv=["trace", "--family", "helicoid", "--steps", "3", "--seed", "1,0.5", "--dt", "1e300"])
@example(argv=["trace", "--family", "helicoid", "--seed", "1,1", "--steps", "100000000000"])
@example(argv=["trace", "--family", "euclidean_rotational", "--a", "-0.5", "--steps", "3",
               "--seed", "inf,1.5"])
@example(argv=["generate", "--family", "euclidean_rotational", "--a", "0.5", "--domain",
               "-0.5,0.5,0,1", "--res", "5x5"])
@example(argv=["verify", "--family", "euclidean_rotational", "--a", "-1.5", "--domain",
               "-0.5,0.5,0,1", "--res", "5x5"])
@example(argv=["verify", "--family", "trans_iso_noniso", "--a", "0.99"])
@example(argv=["verify", "--family", "all", "--a", "-1e-5", "--res", "8x8"])
@example(argv=["generate", "--family", "euclidean_rotational", "--a", "-1e-5", "--domain",
               "1.5,2,0,1", "--res", "8x8"])
def test_any_argv_exits_cleanly(tmp_path, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            rc = main(argv + ["--out", str(tmp_path / "out")])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
