"""Grid sampling, singularity masking, and OBJ export."""

import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocrpc.meshing
from isocrpc.cli import main
from isocrpc.duality import dual_surface_point
from isocrpc.errors import EmptyGrid, GeometryError, InvalidParams, NonAdmissiblePoint
from isocrpc.families import (SINGULAR_MARGIN, evaluate, hard_valid, make_spec,
                              ratio_for_residual, ratio_kind, singular_distance)
from isocrpc.geometry import (K_EPS, crpc_target, euclidean_curvatures, height_jet_from_param,
                              monge_jet, principal_ratio_residual, relative_curvatures)
from isocrpc.meshing import (MeshGrid, dual_grid, fmt_float, format_rows, obj_text, sample_grid,
                             write_text)
from test_families import quad_calls  # noqa: F401 (a fixture)
from test_residuals import FAMILY_CASES

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
    with pytest.raises(InvalidParams, match="^1x5 needs at least 2 samples per direction$"):
        sample_grid(spec, 1, 5)
    with pytest.raises(InvalidParams, match="^5x1 needs"):
        sample_grid(spec, 5, 1)
    with pytest.raises(InvalidParams, match="^1x5 needs"):
        dual_grid(make_spec("paraboloid"), 1, 5)


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


def test_unmasked_nodes_are_admissible(monkeypatch):
    # the tangent plane of trans_noniso_noniso is vertical on u + v = 0; the
    # anti-diagonal of this box sits at u + v = 1.5e-12, just inside the
    # admissibility bound, and margin 0 leaves the decision to that bound
    delta = 1.5e-12
    spec = make_spec("trans_noniso_noniso", {}, domain=(-0.5, 0.5, -0.5 + delta, 0.5 + delta))
    monkeypatch.setattr(isocrpc.meshing, "SINGULAR_MARGIN", 0.0)
    grid = sample_grid(spec, 11, 11)
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
    write_text(obj_text(grid), p1)
    write_text(obj_text(grid), p2)
    assert p1.read_bytes() == p2.read_bytes()
    buf = io.StringIO()
    write_text(obj_text(grid), buf)
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
    with pytest.raises(InvalidParams, match="^10x11 has more than 100 nodes$"):
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
    return MeshGrid(us=us, vs=vs, vertices=np.stack((U, -V, U * V), axis=-1), mask=mask,
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


# --- the format_rows text kernel ----------------------------------------------

# the (head, conversion, sep, width) of obj_text's and CurveTrace.to_csv's rows; the
# conversion is the reference's, format_rows picks it from the dtype
ROW_SHAPES = (
    ("v ", "%.17g", " ", 3),
    ("f ", "%d", " ", 4),
    ("", "%.17g", ",", 6),
)


def _percent_rows(head, conversion, sep, rows):
    """The reference: one % operation per row on its values + 0, so -0.0
    prints as 0 (Python arithmetic: a signaling NaN raises no numpy warning)."""
    row_fmt = head + sep.join([conversion] * rows.shape[1]) + "\n"
    return "".join(row_fmt % tuple(v + 0 for v in row) for row in rows.tolist())


def _assert_rows_match_percent(values, shapes):
    """values cycled into whole rows of each shape, in one block and in two."""
    for head, conversion, sep, width in shapes:
        rows = np.resize(values, (-(-len(values) // width), width))
        want = _percent_rows(head, conversion, sep, rows)
        for block_rows in (isocrpc.meshing.FORMAT_BLOCK_ROWS, len(rows) // 2 + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(isocrpc.meshing, "FORMAT_BLOCK_ROWS", block_rows)
                assert "".join(format_rows(head, sep, rows)) == want


FLOAT_SHAPES = tuple(shape for shape in ROW_SHAPES if shape[1] == "%.17g")
INT_SHAPES = tuple(shape for shape in ROW_SHAPES if shape[1] == "%d")
RAW_FLOATS = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))
INT64S = st.lists(st.one_of(st.integers(0, 10 ** 8 + 5), st.integers(-2 ** 63, 2 ** 63 - 1)),
                  min_size=1, max_size=40).map(lambda ints: np.array(ints, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(RAW_FLOATS)
def test_kernel_matches_percent_on_any_float64_bits(values):
    # subnormals, -0.0, NaN (signaling too), inf and huge values all occur
    _assert_rows_match_percent(values, FLOAT_SHAPES)


@settings(max_examples=200, deadline=None)
@given(INT64S)
def test_kernel_matches_percent_on_any_int64(values):
    _assert_rows_match_percent(values, INT_SHAPES)


def _edge_floats():
    vals = [2.0 ** 53, 5e-324, 1.7976931348623157e308, 0.0, -0.0,
            999043027220165.625,  # an exact tie at 17 digits: % rounds it to even
            3 * 2.0 ** -24]  # a tie where 10**(16 - e10) is no double
    for k in range(-300, 301):
        x = float(f"1e{k}")
        vals += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    for switch in (1e-5, 1e-4, 1e16, 1e17):  # fixed or exponent form
        below = above = switch
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            vals += [switch, below, above]
    vals = np.array(vals, dtype=np.float64)
    return np.concatenate([vals, -vals])


def test_kernel_matches_percent_on_powers_of_ten_and_form_switches():
    _assert_rows_match_percent(_edge_floats(), FLOAT_SHAPES)
    assert "".join(format_rows("", ",", _edge_floats()[:, None])) == "".join(
        fmt_float(x) + "\n" for x in _edge_floats().tolist())


def test_kernel_leaves_only_nan_inf_and_inexact_ties_to_percent():
    values = np.array([np.nan, np.inf, -np.inf, 3 * 2.0 ** -24, 999043027220165.625,
                       0.0, -0.0, 1.0, 0.1, 5e-324], dtype=np.float64)
    fallback = isocrpc.meshing._text_fields(values)[1]
    assert fallback.tolist() == [True] * 4 + [False] * 6
    ints = np.array([0, 7, 10 ** 8 - 1, 10 ** 8, -1], dtype=np.int64)
    assert isocrpc.meshing._text_fields(ints)[1].tolist() == [False] * 3 + [True] * 2


def test_kernel_writes_every_value_of_a_helicoid_grid():
    grid = sample_grid(make_spec("helicoid", {}), 60, 40)
    vertices = grid.vertex_rows().ravel()
    assert isocrpc.meshing._text_fields(vertices)[1].sum() == 0
    assert isocrpc.meshing._text_fields(grid.quads.ravel())[1].sum() == 0
    # face indices stay inside the %d kernel's range
    assert isocrpc.meshing.MAX_GRID_NODES < 10 ** 8


def test_power_of_ten_tables_hold_what_the_kernel_assumes():
    t = isocrpc.meshing._tables()
    e10s = range(isocrpc.meshing._E10_MIN, isocrpc.meshing._E10_MAX + 1)
    for k, e10 in enumerate(e10s):
        exact = Fraction(10) ** (16 - e10) / Fraction(2) ** int(t.b[k])
        assert 1 <= t.hi[k] <= 2
        assert abs(Fraction(t.hi[k]) + Fraction(t.lo[k]) - exact) <= Fraction(2) ** -106 * exact
        # lo is 0 exactly where the power is a double, which decides ties
        assert (t.lo[k] == 0) == (0 <= 16 - e10 <= 22)
        # the least double >= 10**(e10 + 1)
        if e10 < isocrpc.meshing._E10_MAX:
            least = Fraction(t.ceil_next[k])
            below = Fraction(np.nextafter(t.ceil_next[k], -1.0))
            assert least >= Fraction(10) ** (e10 + 1) > below
    assert t.ceil_next[-1] == np.inf
    for i, e2 in enumerate(range(isocrpc.meshing._E2_MIN, isocrpc.meshing._E2_MAX + 1)):
        # the decimal exponent of 2**(e2 - 1), the binade's least double
        e10 = e10s[t.floor_k[i]]
        assert Fraction(10) ** e10 <= Fraction(2) ** (e2 - 1) < Fraction(10) ** (e10 + 1)


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


# --- masks from per-component tests against the trailing-axis reductions ------

JET_FIELDS = ("r", "ru", "rv", "ruu", "ruv", "rvv")


def _reference_masks(spec, jet, U, V):
    """sample_grid's and dual_grid's masks, with every test over the last axis."""
    bad = ~hard_valid(spec, U, V) | (singular_distance(spec, U, V) < SINGULAR_MARGIN)
    with np.errstate(all="ignore"):
        for field in JET_FIELDS:
            bad |= ~np.all(np.isfinite(getattr(jet, field)), axis=-1)
        hj, singular = monge_jet(jet)
        H, K = relative_curvatures(hj)
        bad |= singular | ~(np.isfinite(H) & np.isfinite(K))
        dual = bad | ~np.all(np.isfinite(dual_surface_point(hj)), axis=-1)
    return bad, dual | ~(np.abs(K) >= K_EPS)


# a huge finite r makes the dual point overflow where the jet is finite
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
@pytest.mark.parametrize("field", JET_FIELDS)
def test_one_bad_component_masks_as_the_trailing_axis_reduction(field, value, monkeypatch):
    # the axis u = 0 crosses the box: a masked half-plane and a margin band
    spec = make_spec("rotational_power_1", {"a": -2.0}, (-1.0, 1.0, 0.0, 3.0))
    nu, nv = 14, 11
    rng = np.random.default_rng(JET_FIELDS.index(field))
    nodes = rng.choice(nu * nv, size=12, replace=False)
    comps = rng.integers(0, 3, size=12)  # one component per node
    jets = []

    def poisoned(spec, U, V, check=True, heights=True):
        jet = evaluate(spec, U, V, check=check, heights=heights)
        getattr(jet, field)[(*np.unravel_index(nodes, (nu, nv)), comps)] = value
        jets.append(jet)
        return jet

    monkeypatch.setattr(isocrpc.meshing, "evaluate", poisoned)
    grid = sample_grid(spec, nu, nv)
    dual = dual_grid(spec, nu, nv)
    U, V = np.meshgrid(grid.us, grid.vs, indexing="ij")
    want, want_dual = _reference_masks(spec, jets[0], U, V)
    assert (~want).sum() > 2 * nu
    if math.isfinite(value):
        assert field != "r" or (want_dual & ~want).any()
    else:
        assert want.ravel()[nodes].all()
    assert np.array_equal(grid.mask, want)
    assert np.array_equal(dual.mask, want_dual)
    for g in (grid, dual):
        quads = g.quad_indices()
        assert quads.dtype == int and np.array_equal(quads, _reference_quad_indices(g))
        assert g.stats()["n_quads"] == len(quads) > 0


# --- row-block sampling against the grid sampled in one block -----------------

BLOCK_CASES = {f"{fid}-{params}": (fid, params, None) for fid, params in FAMILY_CASES}
BLOCK_CASES.update({
    # u <= 0 is masked: rows 0-5 of an 11-row grid, so the band's edge falls
    # inside a 4-row block
    "helicoid_axis": ("helicoid", {}, (-1.0, 1.0, 0.0, 3.0)),
    # every block is masked: EmptyGrid
    "pinned_to_locus": ("helical_general", {"a": 2.0}, (LOCUS - 1e-4, LOCUS + 1e-4, 0.0, 1.0)),
    # K is about 0 on every node: dual_grid raises DegenerateK
    "flat": ("trans_iso_noniso", {"a": 1.01}, None),
})
GRID_FIELDS = ("vertices", "mask", "H", "K", "residual")


def _sampled(spec, nu, nv):
    """sample_grid's and dual_grid's grids, or the error each raises."""
    out = []
    for make in (sample_grid, dual_grid):
        try:
            out.append(make(spec, nu, nv))
        except GeometryError as exc:
            out.append(repr(exc))
    return out


# 11x7 grids: one-row blocks (of 1 node, and of fewer nodes than a row) and
# 4-row blocks with a ragged last block of 3 rows
@pytest.mark.parametrize("block_nodes", [1, 6, 28])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_row_blocks_match_one_block_bit_for_bit(case, block_nodes, monkeypatch):
    fid, params, domain = BLOCK_CASES[case]
    spec = make_spec(fid, params, domain)
    monkeypatch.setattr(isocrpc.meshing, "SAMPLE_BLOCK_NODES", 1 << 40)
    whole = _sampled(spec, 11, 7)
    monkeypatch.setattr(isocrpc.meshing, "SAMPLE_BLOCK_NODES", block_nodes)
    blocked = _sampled(spec, 11, 7)
    for want, got in zip(whole, blocked):
        if isinstance(want, str):
            assert got == want
            continue
        for field in GRID_FIELDS:
            a, b = getattr(want, field), getattr(got, field)
            if a is None:
                assert b is None
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes(), field
        assert obj_text(got).encode() == obj_text(want).encode()


def test_block_cases_cover_their_cases():
    sampled = {case: _sampled(make_spec(*BLOCK_CASES[case]), 11, 7)
               for case in ("helicoid_axis", "pinned_to_locus", "flat")}
    grid, dual = sampled["helicoid_axis"]
    assert grid.mask[:6].all() and not grid.mask[6:].any() and not dual.mask[6:].any()
    assert all(s.startswith("EmptyGrid(") for s in sampled["pinned_to_locus"])
    grid, dual = sampled["flat"]
    assert not grid.mask.any() and dual.startswith("DegenerateK(")


# --- the chart sampled on its axes against the chart on the full meshgrid -----

def _meshgrid_reference(spec, nu, nv):
    """sample_grid's and dual_grid's fields as tuples in GRID_FIELDS order, from
    one chart evaluation and one predicate call each on the whole meshgrid."""
    u0, u1, v0, v1 = spec.domain
    U, V = np.meshgrid(np.linspace(u0, u1, nu), np.linspace(v0, v1, nv), indexing="ij")
    jet = evaluate(spec, U, V, check=False)
    bad, bad_dual = _reference_masks(spec, jet, U, V)
    a = ratio_for_residual(spec)
    with np.errstate(all="ignore"):
        hj, _singular = monge_jet(jet)
        H, K = relative_curvatures(hj)
        H[bad] = K[bad] = np.nan
        if ratio_kind(spec) == "euclidean":
            residual = principal_ratio_residual(*euclidean_curvatures(hj)[2:], a)
        else:
            residual = np.where(np.abs(K) < K_EPS, np.nan, H * H / K - crpc_target(a))
        residual[bad] = np.nan
        return (jet.r, bad, H, K, residual), (dual_surface_point(hj), bad_dual, H, K, None)


AXIS_CASES = {f"{fid}-{params}": (fid, params, None) for fid, params in FAMILY_CASES}
# the middle row or column of an odd grid over these boxes is HALF_MARGIN off
# a locus, where the chart is finite and only the singular margin masks it
HALF_MARGIN = 0.5 * SINGULAR_MARGIN
TIN_ROOT = math.asin(1.0 / 3.0)  # sin v = 1/b: trans_iso_noniso's isotropic tangent plane
AXIS_CASES.update({
    # across the axis u = 0, into u < 0 off the hard region
    "rotational_axis": ("rotational_power_1", {"a": -2.0},
                        (HALF_MARGIN - 1.0, HALF_MARGIN + 1.0, 0.0, 3.0)),
    # across the singular parallel u = LOCUS, a u-locus
    "helical_parallel": ("helical_general", {"a": 2.0},
                         (LOCUS + HALF_MARGIN - 0.6, LOCUS + HALF_MARGIN + 0.6, 0.0, 3.0)),
    # across a root of sin v = 1/3, a v-locus
    "tin_root": ("trans_iso_noniso", {"a": 2.0},
                 (-1.0, 1.0, TIN_ROOT + HALF_MARGIN - 1.0, TIN_ROOT + HALF_MARGIN + 1.0)),
})


# odd, non-square grids in one-row blocks, blocks of several rows with a
# ragged last one, and one block
@pytest.mark.parametrize("block_nodes", [1, 60, 1 << 13])
@pytest.mark.parametrize("case", sorted(AXIS_CASES))
def test_axis_sampling_matches_the_meshgrid_bit_for_bit(case, block_nodes, monkeypatch):
    fid, params, domain = AXIS_CASES[case]
    spec = make_spec(fid, params, domain)
    monkeypatch.setattr(isocrpc.meshing, "SAMPLE_BLOCK_NODES", block_nodes)
    for nu, nv in ((13, 19), (31, 5)):
        grids = (sample_grid(spec, nu, nv), dual_grid(spec, nu, nv))
        for grid, want in zip(grids, _meshgrid_reference(spec, nu, nv)):
            for field, a in zip(GRID_FIELDS, want):
                b = getattr(grid, field)
                if a is None:
                    assert b is None
                    continue
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field
                assert a.tobytes() == b.tobytes(), (field, nu, nv)
        if domain is not None:
            assert grids[0].mask.any() and not grids[0].mask.all()


@pytest.mark.parametrize("make", [sample_grid, dual_grid])
def test_sampling_peak_memory_is_near_the_returned_arrays(make):
    # blocks of whole rows: no full-grid chart jet or Monge jet is held
    spec = make_spec("helicoid", {})
    tracemalloc.start()
    try:
        grid = make(spec, 600, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (grid.us, grid.vs, *(getattr(grid, field) for field in GRID_FIELDS))
    returned = sum(a.nbytes for a in arrays if a is not None)
    assert peak <= 1.5 * returned


def test_each_distinct_u_is_integrated_once(quad_calls):
    # euclidean_rotational integrates its profile once per distinct u of a
    # chart evaluation; a block of whole rows holds each u of the grid once
    nu, nv = 120, 90
    assert nu > isocrpc.meshing.SAMPLE_BLOCK_NODES // nv  # more than one block
    grid = sample_grid(make_spec("euclidean_rotational", {"a": 2.0}), nu, nv)
    assert not grid.mask.all(axis=1).any()
    assert quad_calls == grid.us.tolist()


@pytest.mark.parametrize("a", ["2", "-1.5"])
def test_verify_integrates_no_height_and_generate_one_per_grid_u(a, tmp_path, quad_calls):
    # no verify column reads a height; generate writes one per vertex
    out = tmp_path / "out"
    family = ["--family", "euclidean_rotational", "--a", a]
    assert main(["verify", *family, "--res", "200x200", "--out", str(out)]) == 0
    assert quad_calls == []
    # the box leaves the profile on both sides of it
    assert main(["generate", *family, "--domain", "-2,2,0,1", "--res", "200x20",
                 "--out", str(out)]) == 0
    us = np.linspace(-2.0, 2.0, 200)
    on_profile = us[hard_valid(make_spec("euclidean_rotational", {"a": float(a)}), us, 0.0)]
    assert 0 < len(on_profile) < 100
    assert quad_calls == on_profile.tolist()


@pytest.mark.parametrize("a", [0.5, -0.5, 1.5, -1.5])
def test_a_grid_without_heights_keeps_its_mask_and_curvature_bits(a):
    # the box leaves the profile and crosses both loci, u = 0 and u = 1
    spec = make_spec("euclidean_rotational", {"a": a}, (-2.0, 2.0, 0.0, 1.0))
    full, bare = sample_grid(spec, 81, 9), sample_grid(spec, 81, 9, heights=False)
    assert full.mask.any() and not full.mask.all()
    for name in ("mask", "H", "K", "residual"):
        assert getattr(full, name).tobytes() == getattr(bare, name).tobytes(), name
    assert full.vertices[..., :2].tobytes() == bare.vertices[..., :2].tobytes()
    z_full, z_bare = full.vertices[..., 2], bare.vertices[..., 2]
    assert np.array_equal(np.isfinite(z_full), np.isfinite(z_bare))
    assert (z_bare[np.isfinite(z_bare)] == 0.0).all()
