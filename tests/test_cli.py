"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from isocrpc.cli import main
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


# --- input boundary ---------------------------------------------------------------

def test_generate_rejects_non_finite_domain(tmp_path, capsys):
    out = tmp_path / "m.obj"
    rc = main(["generate", "--family", "helicoid", "--domain", "0,inf,0,1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_generate_rejects_reversed_domain(tmp_path, capsys):
    out = tmp_path / "m.obj"
    rc = main(["generate", "--family", "helicoid", "--domain", "1,-1,-1,1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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


def test_trace_needs_a_seed(tmp_path, capsys):
    rc = main(["trace", "--family", "helicoid", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


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


def test_config_file_must_be_flat(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    assert main(["generate", "--config", str(cfg)]) == 1


# --- module execution --------------------------------------------------------------

def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "isocrpc", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "helicoid" in proc.stdout
