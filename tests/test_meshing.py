"""Grid sampling, singularity masking, and OBJ export."""

import io
import math

import numpy as np
import pytest

from isocrpc.errors import EmptyGrid, NonAdmissiblePoint
from isocrpc.families import evaluate, make_spec
from isocrpc.geometry import height_jet_from_param
from isocrpc.meshing import obj_text, sample_grid, write_obj

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
