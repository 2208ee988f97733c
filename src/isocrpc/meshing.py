"""Grid sampling of family charts with singularity masking, plus OBJ export.

Grids are uniform in the chart parameters. Nodes are masked (excluded)
when they leave the hard validity region, come within the singular margin
of a locus, produce non-finite jet data, or are not admissible by the test
of geometry.monge_gradient (a vertical tangent plane). Quads are emitted
only when all four corners survive.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .duality import dual_surface_point
from .errors import DegenerateK, EmptyGrid, InvalidParams
from .families import (
    SINGULAR_MARGIN,
    FamilySpec,
    evaluate,
    hard_valid,
    ratio_for_residual,
    ratio_kind,
    singular_distance,
)
from .geometry import (
    K_EPS,
    crpc_target,
    euclidean_curvatures,
    monge_jet,
    principal_ratio_residual,
    relative_curvatures,
)

# a 1000x1000 generate peaks near 345 MB, while obj_text joins the text; the
# cap keeps a grid under 4x that
MAX_GRID_NODES = 4_000_000
# nodes sampled at once by _sample, in whole u-rows
SAMPLE_BLOCK_NODES = 1 << 13
# rows of text made by one % operation in format_rows
FORMAT_BLOCK_ROWS = 1 << 14
# characters handed to one write call by write_text (1 MiB of ASCII)
WRITE_CHUNK_CHARS = 1 << 20


def _finite_rows(vectors: np.ndarray) -> np.ndarray:
    """np.all(np.isfinite(vectors), axis=-1) for (..., 3) vectors, several times
    faster: three tests on the component views instead of a length-3 reduction."""
    return (np.isfinite(vectors[..., 0]) & np.isfinite(vectors[..., 1])
            & np.isfinite(vectors[..., 2]))


def fmt_float(x: float) -> str:
    """x at 17 significant digits; adding 0 turns -0.0 into 0."""
    return "%.17g" % (x + 0.0)


def format_rows(row_fmt: str, rows: np.ndarray) -> Iterator[str]:
    """Text of row_fmt applied to each row of a 2-D array, in blocks of rows.

    One % operation formats each block. Floats are written as fmt_float
    writes them: adding 0 turns -0.0 into 0.
    """
    rows = np.asarray(rows)
    for start in range(0, len(rows), FORMAT_BLOCK_ROWS):
        block = rows[start:start + FORMAT_BLOCK_ROWS]
        yield (row_fmt * len(block)) % tuple((block + 0).ravel().tolist())


def write_text(text: str, path) -> None:
    """Write text to a file-like object, or to the file at path with LF endings.

    The text goes out in slices of WRITE_CHUNK_CHARS characters, so a
    file's encoder never holds an encoded copy of the whole text.
    """
    if not hasattr(path, "write"):
        with open(path, "w", newline="\n") as fh:
            write_text(text, fh)
        return
    for start in range(0, len(text), WRITE_CHUNK_CHARS):
        path.write(text[start:start + WRITE_CHUNK_CHARS])


@dataclass(frozen=True)
class MeshGrid:
    """Sampled chart: nodes, mask, and per-node curvature channels.

    mask is True where a node is EXCLUDED. H and K are NaN at masked
    nodes; residual is the family's ratio-law residual (isotropic
    curvature-ratio residual, or the Euclidean principal-ratio residual
    for the Euclidean comparison entry), None on a dual_grid.
    """

    spec: FamilySpec
    us: np.ndarray  # (nu,)
    vs: np.ndarray  # (nv,)
    vertices: np.ndarray  # (nu, nv, 3)
    mask: np.ndarray  # (nu, nv) bool, True = excluded
    H: np.ndarray
    K: np.ndarray
    residual: np.ndarray | None

    @property
    def nu(self) -> int:
        return len(self.us)

    @property
    def nv(self) -> int:
        return len(self.vs)

    def vertex_rows(self) -> np.ndarray:
        """Unmasked vertices, row-major in (u, v)."""
        return self.vertices[~self.mask]

    def quad_indices(self) -> np.ndarray:
        """(m, 4) one-based indices into vertex_rows(), one row per whole quad.

        Corners run (i, j), (i+1, j), (i+1, j+1), (i, j+1); quads are
        row-major in (i, j). A quad with a masked corner is left out.
        """
        valid = ~self.mask
        idx = np.zeros((self.nu, self.nv), dtype=int)  # 0 = masked
        idx[valid] = np.arange(1, int(valid.sum()) + 1)
        corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:])
        whole = valid[corners[0]] & valid[corners[1]] & valid[corners[2]] & valid[corners[3]]
        return np.stack([idx[c][whole] for c in corners], axis=-1)

    @functools.cached_property
    def quads(self) -> np.ndarray:
        """quad_indices(), computed once per grid.

        quad_indices stays a plain method, which perfbench's tracer wraps.
        """
        return self.quad_indices()

    def stats(self) -> dict:
        valid = ~self.mask
        out = {
            "n_nodes": int(self.mask.size),
            "n_masked": int(self.mask.sum()),
            "n_valid": int(valid.sum()),
            "n_quads": len(self.quads),
            "max_abs_H": float(np.max(np.abs(self.H[valid]))) if valid.any() else float("nan"),
            "max_abs_K": float(np.max(np.abs(self.K[valid]))) if valid.any() else float("nan"),
        }
        if self.residual is not None and valid.any():
            # NaN where every residual is NaN (a flat grid), without nanmax's warning
            out["max_abs_residual"] = float(np.fmax.reduce(np.abs(self.residual[valid])))
        return out


def _sample(spec: FamilySpec, nu: int, nv: int, margin: float, channel) -> MeshGrid:
    """The masked grid, sampled in blocks of whole u-rows.

    A block holds SAMPLE_BLOCK_NODES nodes or fewer, but at least one row,
    so no full-grid jet exists, and each distinct u is in one chart
    evaluation. channel(jet, hj, H, K, bad) gives a block's vertices, mask
    and residual (None on a grid without one) from its chart jet, Monge
    jet, curvatures (NaN where bad) and the surface's own mask.
    """
    if nu < 2 or nv < 2:
        raise ValueError("grid needs at least 2 samples per direction")
    if nu * nv > MAX_GRID_NODES:
        raise InvalidParams(f"a {nu}x{nv} grid has more than {MAX_GRID_NODES} nodes")
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    vertices = np.empty((nu, nv, 3))
    mask = np.empty((nu, nv), bool)
    H, K = np.empty((nu, nv)), np.empty((nu, nv))
    residual = None
    rows = max(1, SAMPLE_BLOCK_NODES // nv)
    for start in range(0, nu, rows):
        block = np.s_[start:start + rows]
        U, V = np.meshgrid(us[block], vs, indexing="ij")
        with np.errstate(all="ignore"):
            jet = evaluate(spec, U, V, check=False)
            bad = ~hard_valid(spec, U, V)
            bad |= singular_distance(spec, U, V) < margin
            for arr in (jet.r, jet.ru, jet.rv, jet.ruu, jet.ruv, jet.rvv):
                bad |= ~_finite_rows(arr)
            hj, singular = monge_jet(jet)
            bad |= singular
            h, k = relative_curvatures(hj)
            bad |= ~(np.isfinite(h) & np.isfinite(k))
            h[bad] = k[bad] = np.nan
            vertices[block], mask[block], res = channel(jet, hj, h, k, bad)
        H[block], K[block] = h, k
        if res is not None:
            if residual is None:
                residual = np.empty((nu, nv))
            residual[block] = res
    if np.isnan(H).all():  # H is NaN exactly where the surface is masked
        raise EmptyGrid(f"{spec.family_id}: every grid node is masked")
    return MeshGrid(spec=spec, us=us, vs=vs, vertices=vertices, mask=mask,
                    H=H, K=K, residual=residual)


def sample_grid(
    spec: FamilySpec,
    nu: int,
    nv: int,
    margin: float = SINGULAR_MARGIN,
    a: float | None = None,
) -> MeshGrid:
    """Sample an nu-by-nv grid over spec.domain with singularity masking.

    `a` overrides the ratio hypothesis behind the residual channel; by
    default the family's own ratio is checked.
    """
    if a is None:
        a = ratio_for_residual(spec)
    euclidean = ratio_kind(spec) == "euclidean"
    target = None if euclidean else crpc_target(a)

    def ratio_residual(jet, hj, H, K, bad):
        if euclidean:
            _Ke, _He, k1e, k2e = euclidean_curvatures(hj)
            residual = principal_ratio_residual(k1e, k2e, a)
        else:
            residual = np.where(np.abs(K) < K_EPS, np.nan, H * H / K - target)
        residual[bad] = np.nan
        return jet.r, bad, residual

    return _sample(spec, nu, nv, margin, ratio_residual)


def dual_grid(spec: FamilySpec, nu: int, nv: int) -> MeshGrid:
    """The grid with the metric dual's points as vertices, from one evaluation.

    Also masks nodes where the dual point is not finite or |K| < K_EPS, and
    raises DegenerateK when no node is left. The curvature channels stay
    the primal surface's.
    """
    def dual_points(jet, hj, H, K, bad):
        points = dual_surface_point(hj)
        # the dual surface degenerates where K = 0
        return points, bad | ~_finite_rows(points) | ~(np.abs(K) >= K_EPS), None

    grid = _sample(spec, nu, nv, SINGULAR_MARGIN, dual_points)
    if grid.mask.all():
        raise DegenerateK(f"{spec.family_id}: relative curvature is numerically "
                          "zero on the whole grid; dual surface undefined")
    return grid


def obj_text(grid: MeshGrid) -> str:
    """Wavefront OBJ text: unmasked vertices row-major, whole quads as faces."""
    return "".join([*format_rows("v %.17g %.17g %.17g\n", grid.vertex_rows()),
                    *format_rows("f %d %d %d %d\n", grid.quads)])
