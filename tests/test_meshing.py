"""Grid sampling, singularity masking, and OBJ export."""

import io
import math
import warnings

import numpy as np
import pytest

import isocrpc.meshing
from isocrpc.cli import main
from isocrpc.errors import EmptyGrid, InvalidParams, NonAdmissiblePoint
from isocrpc.families import evaluate, make_spec
from isocrpc.geometry import height_jet_from_param
from isocrpc.meshing import MeshGrid, fmt_float, obj_text, sample_grid, write_obj

LOCUS = math.atan(math.sqrt(2.0))  # radial turning point of helical_general a=2


def test_helicoid_grid_is_fully_valid():
    grid = sample_grid(make_spec("helicoid", {}), 10, 10)
    s = grid.stats()
    assert s["n_nodes"] == 100
    assert s["n_masked"] == 0
    assert s["n_valid"] == 100
    assert s["n_quads"] == 81
    assert grid.vertex_rows().shape == (100, 3)


def test_grid_needs_two_samples_per_direction():
    spec = make_spec("helicoid", {})
    with pytest.raises(ValueError):
        sample_grid(spec, 1, 10)
    with pytest.raises(ValueError):
        sample_grid(spec, 10, 1)


BAND = (LOCUS - 0.4, LOCUS + 0.4, 0.0, 1.0)  # grid center lands on the locus


def test_singular_band_is_masked():
    spec = make_spec("helical_general", {"a": 2.0}, domain=BAND)
    grid = sample_grid(spec, 33, 5)
    s = grid.stats()
    assert 0 < s["n_masked"] < s["n_nodes"]
    # masked nodes hug the locus tan^2 u = a
    masked_us = np.broadcast_to(grid.us[:, None], grid.mask.shape)[grid.mask]
    assert np.all(np.abs(masked_us - LOCUS) < 0.05)
    # nodes clearly off the locus survive
    assert not grid.mask[0].any()
    assert not grid.mask[-1].any()


def test_no_quad_touches_a_masked_vertex():
    spec = make_spec("helical_general", {"a": 2.0}, domain=BAND)
    grid = sample_grid(spec, 33, 5)
    quads = grid.quad_indices()
    n_valid = grid.stats()["n_valid"]
    assert quads.shape[1] == 4
    assert quads.min() >= 1
    assert quads.max() <= n_valid
    # quads beside the masked column are dropped
    n_masked = grid.stats()["n_masked"]
    assert n_masked >= 5
    assert len(quads) <= 32 * 4 - 8


def test_domain_pinned_to_locus_is_empty():
    spec = make_spec("helical_general", {"a": 2.0},
                     domain=(LOCUS - 1e-4, LOCUS + 1e-4, 0.0, 1.0))
    with pytest.raises(EmptyGrid):
        sample_grid(spec, 5, 5)


def test_ratio_residual_channel_is_tight():
    grid = sample_grid(make_spec("trans_paraboloid", {"a": 2.0}), 20, 20)
    assert grid.stats()["max_abs_residual"] <= 1e-12


def test_minimal_member_H_channel_is_tight():
    grid = sample_grid(make_spec("logarithmoid", {}), 20, 20)
    assert grid.stats()["max_abs_H"] <= 1e-12


def test_residual_channel_accepts_ratio_override():
    grid = sample_grid(make_spec("trans_paraboloid", {"a": 2.0}), 8, 8, a=3.0)
    # 9/8 (actual) vs 16/12 (hypothesis a=3) leaves a constant gap
    assert grid.stats()["max_abs_residual"] == pytest.approx(abs(9.0 / 8.0 - 16.0 / 12.0))


def test_mask_mirrors_under_orientation_reversal():
    spec_f = make_spec("helical_general", {"a": 2.0}, domain=BAND)
    spec_r = make_spec("helical_general", {"a": 2.0},
                       domain=(BAND[1], BAND[0], BAND[2], BAND[3]))
    g_f = sample_grid(spec_f, 33, 5)
    g_r = sample_grid(spec_r, 33, 5)
    assert np.array_equal(g_f.mask, g_r.mask[::-1])


def test_unmasked_nodes_are_admissible():
    # the tangent plane of trans_noniso_noniso is vertical on u + v = 0; the
    # anti-diagonal of this box sits at u + v = 1.5e-12, just inside the
    # admissibility bound, and margin 0 leaves the decision to that bound
    delta = 1.5e-12
    spec = make_spec("trans_noniso_noniso", {}, domain=(-0.5, 0.5, -0.5 + delta, 0.5 + delta))
    grid = sample_grid(spec, 11, 11, margin=0.0)
    rejected = np.zeros_like(grid.mask)
    for i, u in enumerate(grid.us):
        for j, v in enumerate(grid.vs):
            try:
                height_jet_from_param(evaluate(spec, u, v, check=False))
            except NonAdmissiblePoint:
                rejected[i, j] = True
    assert rejected.sum() == 11
    assert np.array_equal(grid.mask, rejected)


def test_euclidean_comparison_family_uses_euclidean_residual():
    grid = sample_grid(make_spec("euclidean_rotational", {"a": 2.0}), 12, 12)
    assert grid.stats()["max_abs_residual"] <= 1e-8


@pytest.mark.parametrize("a", [0.99, 1.01, 1.05])
def test_flat_grid_stats_give_nan_residual_without_warning(a):
    # every ratio residual is NaN on this nearly flat box; np.nanmax warned
    grid = sample_grid(make_spec("trans_iso_noniso", {"a": a}), 20, 20)
    assert not grid.mask.any() and np.isnan(grid.residual).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(grid.stats()["max_abs_residual"])


def test_obj_text_layout():
    grid = sample_grid(make_spec("helicoid", {}), 3, 3)
    text = obj_text(grid)
    lines = text.splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 9
    assert len(f_lines) == 4
    assert set(l.split()[0] for l in lines) == {"v", "f"}
    assert text.endswith("\n")
    assert "-0 " not in text and not text.endswith("-0\n")
    # faces are 1-based quads
    first = f_lines[0].split()
    assert first == ["f", "1", "4", "5", "2"] or len(first) == 5


def test_obj_deterministic_across_calls(tmp_path):
    grid = sample_grid(make_spec("spiral_ruled", {"a": -2.0}), 12, 12)
    p1, p2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    write_obj(grid, p1)
    write_obj(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()
    buf = io.StringIO()
    write_obj(grid, buf)
    assert buf.getvalue() == p1.read_text()


def test_vertices_match_chart_positions():
    spec = make_spec("helicoid", {})
    grid = sample_grid(spec, 4, 4)
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, 4)
    vs = np.linspace(v0, v1, 4)
    want = np.array([us[2] * math.cos(vs[1]), us[2] * math.sin(vs[1]), vs[1]])
    assert np.allclose(grid.vertices[2, 1], want)


def test_grid_above_the_node_cap_is_refused_before_sampling(monkeypatch):
    spec = make_spec("helicoid", {})
    monkeypatch.setattr(isocrpc.meshing, "MAX_GRID_NODES", 100)
    assert sample_grid(spec, 10, 10).mask.size == 100
    with pytest.raises(InvalidParams):
        sample_grid(spec, 10, 11)


# --- the vectorized emitter against the scalar loops it replaced --------------

def _reference_quad_indices(grid):
    idx = np.full((grid.nu, grid.nv), -1, dtype=int)
    idx[~grid.mask] = np.arange(int((~grid.mask).sum()))
    quads = []
    for i in range(grid.nu - 1):
        for j in range(grid.nv - 1):
            c = (idx[i, j], idx[i + 1, j], idx[i + 1, j + 1], idx[i, j + 1])
            if all(k >= 0 for k in c):
                quads.append([k + 1 for k in c])
    return np.array(quads, dtype=int).reshape(-1, 4)


def _reference_obj_text(grid):
    lines = []
    for p in grid.vertex_rows():
        lines.append("v " + " ".join(fmt_float(c) for c in p))
    for q in _reference_quad_indices(grid):
        lines.append("f %d %d %d %d" % tuple(q))
    return "\n".join(lines) + "\n"


def _checkerboard_grid():
    us, vs = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
    U, V = np.meshgrid(us, vs, indexing="ij")
    mask = (np.add.outer(np.arange(5), np.arange(4)) % 2).astype(bool)
    nan = np.full(mask.shape, np.nan)
    return MeshGrid(spec=make_spec("paraboloid", {"a": 2.0}), us=us, vs=vs,
                    vertices=np.stack((U, -V, U * V), axis=-1), mask=mask,
                    H=nan, K=nan, residual=None)


EMITTER_GRIDS = {
    # the screw axis u = 0 crosses this box, so a band of nodes is masked
    "helicoid_axis": lambda: sample_grid(make_spec("helicoid", {}, (-1.0, 1.0, 0.0, 3.0)), 9, 6),
    # linspace ends exactly at the bound -0.0, so some coordinates are -0.0
    "paraboloid_negative_zero": lambda: sample_grid(
        make_spec("paraboloid", {"a": 2.0}, (-1.0, -0.0, -1.0, -0.0)), 4, 5),
    "checkerboard": _checkerboard_grid,
    "two_by_two": lambda: sample_grid(make_spec("trans_paraboloid", {"a": -2.0}), 2, 2),
}


@pytest.mark.parametrize("block_rows", [3, isocrpc.meshing.FORMAT_BLOCK_ROWS])
@pytest.mark.parametrize("name", sorted(EMITTER_GRIDS))
def test_emitter_matches_scalar_reference(name, block_rows, monkeypatch):
    monkeypatch.setattr(isocrpc.meshing, "FORMAT_BLOCK_ROWS", block_rows)
    grid = EMITTER_GRIDS[name]()
    quads = grid.quad_indices()
    assert quads.dtype == _reference_quad_indices(grid).dtype
    assert np.array_equal(quads, _reference_quad_indices(grid))
    assert obj_text(grid).encode() == _reference_obj_text(grid).encode()
    assert grid.stats()["n_quads"] == len(quads)


def test_emitter_grids_cover_their_cases():
    grids = {name: make() for name, make in EMITTER_GRIDS.items()}
    assert grids["helicoid_axis"].mask.any() and len(grids["helicoid_axis"].quads)
    v = grids["paraboloid_negative_zero"].vertex_rows()
    assert np.any((v == 0.0) & np.signbit(v))
    assert len(grids["checkerboard"].quad_indices()) == 0
    assert grids["checkerboard"].vertex_rows().shape == (10, 3)
    assert len(grids["two_by_two"].quads) == 1


def test_generate_extracts_quads_once(tmp_path, monkeypatch):
    calls = []
    quad_indices = MeshGrid.quad_indices

    def counted(self):
        calls.append(self)
        return quad_indices(self)

    monkeypatch.setattr(MeshGrid, "quad_indices", counted)
    out = tmp_path / "m.obj"
    assert main(["generate", "--family", "helicoid", "--res", "6x5", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_text().count("\nf ") == 20


@pytest.mark.parametrize("chunk", [5, isocrpc.meshing.WRITE_CHUNK_CHARS])
def test_write_text_in_slices_matches_one_write(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(isocrpc.meshing, "WRITE_CHUNK_CHARS", chunk)
    # a multi-byte character and a newline sit on slice boundaries
    text = ("abcdé\nv 1 2 3\n" * (2 * chunk // 13 + 3))[:2 * chunk + 7]
    whole = tmp_path / "whole.txt"
    with open(whole, "w", newline="\n") as fh:
        fh.write(text)
    sliced = tmp_path / "sliced.txt"
    isocrpc.meshing.write_text(text, sliced)
    assert sliced.read_bytes() == whole.read_bytes()
    stream = io.StringIO()
    isocrpc.meshing.write_text(text, stream)
    assert stream.getvalue() == text


def test_write_text_hands_the_file_slices(monkeypatch):
    monkeypatch.setattr(isocrpc.meshing, "WRITE_CHUNK_CHARS", 4)
    writes = []

    class Sink:
        def write(self, s):
            writes.append(s)

    isocrpc.meshing.write_text("0123456789", Sink())
    assert writes == ["0123", "4567", "89"]
    writes.clear()
    isocrpc.meshing.write_text("", Sink())
    assert writes == []
