"""Grid sampling of family charts with singularity masking, plus OBJ export.

Grids are uniform in the chart parameters. Nodes are masked (excluded)
when they leave the hard validity region, come within the singular margin
of a locus, produce non-finite jet data, or are not admissible by the test
of geometry.monge_gradient (a vertical tangent plane). Quads are emitted
only when all four corners survive.
"""

from __future__ import annotations

import dataclasses
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

# a 1000x1000 generate peaks near 420 MB; the cap keeps a grid under 4x that
MAX_GRID_NODES = 4_000_000
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
    """x at 17 significant digits, with -0.0 written as 0."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.17g" % x


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


def _sample(spec: FamilySpec, nu: int, nv: int, margin: float):
    """The masked grid without a residual channel, and its Monge jet."""
    if nu < 2 or nv < 2:
        raise ValueError("grid needs at least 2 samples per direction")
    if nu * nv > MAX_GRID_NODES:
        raise InvalidParams(f"a {nu}x{nv} grid has more than {MAX_GRID_NODES} nodes")
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    with np.errstate(all="ignore"):
        jet = evaluate(spec, U, V, check=False)
        bad = ~np.asarray(hard_valid(spec, U, V), bool)
        bad |= np.asarray(singular_distance(spec, U, V), float) < margin
        for arr in (jet.r, jet.ru, jet.rv, jet.ruu, jet.ruv, jet.rvv):
            bad |= ~_finite_rows(arr)

        hj, singular = monge_jet(jet)
        bad |= singular
        H, K = relative_curvatures(hj)
        bad |= ~(np.isfinite(H) & np.isfinite(K))

    if bad.all():
        raise EmptyGrid(f"{spec.family_id}: every grid node is masked")
    H[bad] = K[bad] = np.nan
    return MeshGrid(spec=spec, us=us, vs=vs, vertices=np.asarray(jet.r, float),
                    mask=bad, H=H, K=K, residual=None), hj


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
    grid, hj = _sample(spec, nu, nv, margin)
    if a is None:
        a = ratio_for_residual(spec)
    with np.errstate(all="ignore"):
        if ratio_kind(spec) == "euclidean":
            _Ke, _He, k1e, k2e = euclidean_curvatures(hj)
            residual = principal_ratio_residual(k1e, k2e, a)
        else:
            H, K = grid.H, grid.K
            residual = np.where(np.abs(K) < K_EPS, np.nan, H * H / K - crpc_target(a))
    residual[grid.mask] = np.nan
    return dataclasses.replace(grid, residual=residual)


def dual_grid(spec: FamilySpec, nu: int, nv: int) -> MeshGrid:
    """The grid with the metric dual's points as vertices, from one evaluation.

    Also masks nodes where the dual point is not finite or |K| < K_EPS, and
    raises DegenerateK when no node is left. The curvature channels stay
    the primal surface's.
    """
    grid, hj = _sample(spec, nu, nv, SINGULAR_MARGIN)
    with np.errstate(all="ignore"):
        vertices = dual_surface_point(hj)
    mask = grid.mask | ~_finite_rows(vertices)
    mask |= ~(np.abs(grid.K) >= K_EPS)  # the dual surface degenerates where K = 0
    if mask.all():
        raise DegenerateK(f"{spec.family_id}: relative curvature is numerically "
                          "zero on the whole grid; dual surface undefined")
    return dataclasses.replace(grid, vertices=vertices, mask=mask)


def obj_text(grid: MeshGrid) -> str:
    """Wavefront OBJ text: unmasked vertices row-major, whole quads as faces."""
    return "".join([*format_rows("v %.17g %.17g %.17g\n", grid.vertex_rows()),
                    *format_rows("f %d %d %d %d\n", grid.quads)])


def write_obj(grid: MeshGrid, path) -> None:
    write_text(obj_text(grid), path)
