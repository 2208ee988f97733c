"""Grid sampling of family charts with singularity masking, plus OBJ export.

Grids are uniform in the chart parameters. Nodes are masked (excluded)
when they leave the hard validity region, come within the singular margin
of a locus, produce non-finite jet data, or are not admissible by the test
of geometry.monge_gradient (a vertical tangent plane). Quads are emitted
only when all four corners survive.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .duality import dual_surface_point
from .errors import DegenerateK, EmptyGrid, InvalidParams
from .families import (SINGULAR_MARGIN, FamilySpec, catalog_entry, evaluate,
                       ratio_for_residual, ratio_kind)
from .geometry import K_EPS, monge_jet, ratio_law_residual, relative_curvatures

# a 1000x1000 generate peaks near 345 MB, while obj_text joins the text; the
# cap keeps a grid under 4x that, and face indices below 10**8, the bound of
# format_rows's %d kernel
MAX_GRID_NODES = 4_000_000
# nodes sampled at once by _sample, in whole u-rows
SAMPLE_BLOCK_NODES = 1 << 13
# rows of text made at once by format_rows, whose kernel arrays are per
# block; 16,384 was no faster and left a 1000x1000 generate 1-3 MB higher
FORMAT_BLOCK_ROWS = 1 << 12
# characters handed to one write call by write_text (1 MiB of ASCII)
WRITE_CHUNK_CHARS = 1 << 20

# the decimal exponent e10 and the binary one e2 (of np.frexp) of a nonzero
# finite double span these ranges; %.17g scales by 10**(16 - e10)
_E10_MIN, _E10_MAX = -324, 308
_E2_MIN, _E2_MAX = -1073, 1024
# the scaled value is known to within 1e-14 (see _decimal); a fraction
# this close to one half may be a tie, which % settles
_TIE_MARGIN = 1e-9
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_NUL, _DOT, _MINUS = np.uint64(0), np.uint64(ord(".")), np.uint64(ord("-"))
_VELTKAMP = np.float64(2.0 ** 27 + 1)
_E8, _E16, _E17 = np.uint64(10 ** 8), np.int64(10 ** 16), np.int64(10 ** 17)
_POW10_8 = np.array([10 ** k for k in range(1, 8)], dtype=np.uint64)  # digit counts of n < 10**8
# The 16 digits after a float's leading one sit in two words, digits 0-7 in
# A and 8-15 in B, a digit a byte. For j in 0..16, by row A and B: the mask
# of the first j digits in the word; the word of the byte put in before
# digit j (0 when j is past the word; below 8, B's byte 0 takes the digit A
# pushes out); and the mask of B's top byte when it is pushed out.
_LOW_BYTES = [(1 << 8 * k) - 1 for k in range(9)]
_HEADS = np.array([[_LOW_BYTES[min(j, 8)] for j in range(17)],
                   [_LOW_BYTES[max(j - 8, 0)] for j in range(17)]], dtype=np.uint64)
_BYTE_AT = np.array([[1 << 8 * j if j < 8 else 0 for j in range(17)],
                     [1 << 8 * max(j - 8, 0) if j < 16 else 0 for j in range(17)]],
                    dtype=np.uint64)
_PUSHED_OUT = np.array([0xFF] * 16 + [0], dtype=np.uint64)


def _finite_rows(xyz) -> np.ndarray:
    """Where all three components of an (x, y, z) triple are finite."""
    x, y, z = xyz
    return np.isfinite(x) & np.isfinite(y) & np.isfinite(z)


def fmt_float(x: float) -> str:
    """x at 17 significant digits; adding 0 turns -0.0 into 0."""
    return "%.17g" % (x + 0.0)


class _Tables(NamedTuple):
    """Tables of the %.17g kernel, all but floor_k indexed by k = e10 - _E10_MIN.

    floor_k: by e2 - _E2_MIN, the k of 2**(e2 - 1), the least double of that
    binade; a binade spans a factor 2, so a value's k is this or one more.
    ceil_next: the least double >= 10**(e10 + 1) (inf past the doubles), so
    x >= 10**(e10 + 1) exactly when x >= ceil_next. hi, lo, b: 10**(16 -
    e10) = (hi + lo) * 2**b with hi in [1, 2] its nearest 53-bit head and lo
    the rest, rounded: the pair is off by at most 2**-106 of the power, and
    lo is 0 where the power is a double. Exact int arithmetic builds them.
    prefix: the word of "0." and -e10 - 1 zeros after a sign byte, for
    e10 in [-4, -1] (fixed form, below 1). exponent: the word of "e+XX"
    after one free byte where e10 < -4 or e10 >= 17 (exponent form).
    whole: digits after the leading one that are integer digits (e10 in
    [0, 16]). point: digits after the leading one before the point (16, no
    point, when the point is in the prefix).
    """

    floor_k: np.ndarray
    ceil_next: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    b: np.ndarray
    prefix: np.ndarray
    exponent: np.ndarray
    whole: np.ndarray
    point: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built once per process, in 2-3 ms."""
    powers = [1]
    for _ in range(16 - _E10_MIN):
        powers.append(powers[-1] * 10)
    ceil_pow10, his, los, bs = [], [], [], []
    for e10 in range(_E10_MIN, _E10_MAX + 1):
        if e10 >= 0:  # int -> float rounds correctly
            least = float(powers[e10])
            low = int(least) < powers[e10]
        else:  # so does int / int
            least = 1 / powers[-e10]
            num, den = least.as_integer_ratio()
            low = num * powers[-e10] < den
        ceil_pow10.append(math.nextafter(least, math.inf) if low else least)
        s = 16 - e10
        num, den = (powers[s], 1) if s >= 0 else (1, powers[-s])
        b = num.bit_length() - den.bit_length()
        num, den = (num, den << b) if b >= 0 else (num << -b, den)
        if num < den:  # num / den in (1/2, 1): one binary place more
            num, b = num << 1, b - 1
        scaled = (num << 160) // den  # 10**s / 2**b to 160 binary places
        top = (scaled + (1 << 107)) >> 108  # its nearest 53-bit head
        his.append(math.ldexp(top, -52))
        los.append(math.ldexp(scaled - (top << 108), -160))
        bs.append(b)
    e10 = np.arange(_E10_MIN, _E10_MAX + 1)
    ceil_pow10 = np.array(ceil_pow10)
    binade_floor = np.ldexp(1.0, np.arange(_E2_MIN - 1, _E2_MAX, dtype=np.int32))
    floor_k = np.searchsorted(ceil_pow10, binade_floor, side="right") - 1
    exp_form, below_one = (e10 < -4) | (e10 >= 17), (e10 >= -4) & (e10 < 0)
    # "e", the sign and three digit bytes, the first one NUL below 100
    mag = np.abs(e10).astype(np.uint64)
    ten, zero_char = np.uint64(10), np.uint64(ord("0"))
    digits = (np.where(mag >= 100, mag // np.uint64(100) + zero_char, _NUL),
              mag // ten % ten + zero_char, mag % ten + zero_char)
    sign = np.where(e10 < 0, _MINUS, np.uint64(ord("+")))
    exponent = np.uint64(ord("e") << 8) | (sign << np.uint64(16))
    for byte, digit in enumerate(digits, start=3):
        exponent |= digit << np.uint64(8 * byte)
    prefix = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-e - 1), "little")
                       for e in range(-4, 0)], dtype=np.uint64)
    whole = np.where((e10 >= 0) & (e10 < 17), e10, 0)
    return _Tables(floor_k.astype(np.intp), np.append(ceil_pow10[1:], np.inf),
                   np.array(his), np.array(los), np.array(bs, dtype=np.int32),
                   np.where(below_one, prefix[(e10 + 4) % 4], _NUL),
                   np.where(exp_form, exponent, _NUL), whole.astype(np.intp),
                   np.where(below_one, 16, whole).astype(np.intp))


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of a into two 26-bit halves, hi + lo == a."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _decimal(ax: np.ndarray) -> tuple:
    """For finite ax > 0: the 17 significant digits d in [10**16, 10**17)
    of ax, k = e10 - _E10_MIN of its exponent once rounded to them, and the
    mask of values whose rounding the kernel cannot decide (a possible tie).

    y = ax * 10**(16 - e10), with e10 exact, is in [10**16, 10**17). It is
    formed as the double-double p + c from ax = m * 2**e2: Dekker's
    TwoProduct gives the exact m * hi', and c adds m * lo', where hi' and
    lo' are the table pair scaled by 2**(e2 + b) (exact). With |e| <= 8 and
    |m * lo'| <= 16, the rounding of m * lo', of the sum and the table's
    2**-106 leave y - (p + c) below 1e-14. p is an even integer, as y >=
    2**53, so rint of c rounds y to even on a tie, as % does, wherever the
    power is a double (lo == 0) and p + c is y.
    """
    t = _tables()
    m, e2 = np.frexp(ax)
    k = t.floor_k[e2 - _E2_MIN]
    k += ax >= t.ceil_next[k]
    shift = e2 + t.b[k]
    q = np.ldexp(t.hi[k], shift)
    lo = t.lo[k]
    m_hi, m_lo = _split(m)
    q_hi, q_lo = _split(q)
    p = m * q
    e = ((m_hi * q_hi - p) + m_hi * q_lo + m_lo * q_hi) + m_lo * q_lo
    c = e + m * np.ldexp(lo, shift)
    r = np.rint(c)
    d = p.astype(np.int64) + r.astype(np.int64)
    undecided = (np.abs(c - r) > 0.5 - _TIE_MARGIN) & (lo != 0)
    top = d == _E17  # y in [10**17 - 1/2, 10**17) rounds up to the next exponent
    d[top] = _E16
    return d, k + top, undecided


def _digit_word(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10**8 (uint64), one digit value a byte,
    the leading digit in the low byte: the printing order of a little-endian
    word. Each step splits every lane of the word in two at once (SWAR):
    with q = lane // base, x * 2**w - q * (base * 2**w - 1) keeps q in the
    lane's low half and puts lane - base * q in its high half."""
    q = n // np.uint64(10_000)
    x = n * np.uint64(1 << 32) - q * np.uint64((10_000 << 32) - 1)
    # lanes of 32 bits below 10**4: lane * 5243 >> 19 == lane // 100
    q = ((x * np.uint64(5243)) >> np.uint64(19)) & np.uint64(0x0000007F0000007F)
    x = x * np.uint64(1 << 16) - q * np.uint64((100 << 16) - 1)
    # lanes of 16 bits below 100: lane * 103 >> 10 == lane // 10
    q = ((x * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return x * np.uint64(1 << 8) - q * np.uint64((10 << 8) - 1)


def _float_words(x: np.ndarray) -> tuple:
    """(n, 4) uint64 words of the %.17g text of x + 0, zero bytes as padding,
    and the mask of values the kernel leaves to %: NaN, inf and ties.

    Word 0 holds the sign, the "0.000" of a fixed-form value below 1 and the
    leading digit; words 1 and 2 (A and B) the other 16 digits with
    trailing zeros cut and the point put in; word 3 the digit the point
    pushed out and the exponent. The form follows e10 as % chooses it.
    """
    t = _tables()
    finite = np.isfinite(x)
    x = np.where(finite, x, 1.0)  # no arithmetic on NaN: % writes those
    ax = np.abs(x)
    zero = ax == 0  # written as 1, then its lead digit made 0
    d, k, fallback = _decimal(ax + zero)
    fallback |= ~finite
    lead, rest = np.divmod(d.astype(np.uint64), np.uint64(_E16))
    ab = np.empty((2, len(x)), dtype=np.uint64)
    np.divmod(rest, _E8, out=(ab[0], ab[1]))
    ab = _digit_word(ab)
    # digits through the last nonzero one: the bytes up to a word's top set
    # bit, which frexp finds (no digit byte exceeds 9, so the conversion to
    # float cannot round up into the next byte)
    used = (np.frexp(ab.astype(np.float64))[1] + 7) >> 3
    keep = np.maximum(np.where(used[1] > 0, used[1] + 8, used[0]), t.whole[k])
    ab = (ab | _ASCII_ZEROS) & _HEADS[:, keep]
    # the point goes in before digit `at`; what it pushes out of A opens B
    at = t.point[k]
    put = np.empty_like(ab)
    put[0] = np.multiply(keep > at, _DOT, dtype=np.uint64)
    put[1] = np.where(at < 8, ab[0] >> np.uint64(56), put[0])
    heads = _HEADS[:, at]
    words = np.empty((len(x), 4), dtype=np.uint64)
    words[:, 0] = (t.prefix[k] | np.multiply(x < 0, _MINUS, dtype=np.uint64)
                   | ((lead - zero + np.uint64(ord("0"))) << np.uint64(56)))
    words[:, 1:3] = ((ab & heads) | (put * _BYTE_AT[:, at]) | ((ab & ~heads) << np.uint64(8))).T
    words[:, 3] = ((ab[1] >> np.uint64(56)) & _PUSHED_OUT[at]) | t.exponent[k]
    return words, fallback


def _int_words(n: np.ndarray) -> tuple:
    """(n, 1) uint64 words of the %d text of integers 0 <= n < 10**8, zero
    bytes as padding, and the mask of the other values, which % writes."""
    u = n.astype(np.uint64)  # a negative n wraps to 2**64 + n
    fallback = u >= _E8  # their words are garbage, replaced by % text
    leading_zeros = 7 - np.searchsorted(_POW10_8, u, side="right")
    words = (_digit_word(u) | _ASCII_ZEROS) & ~_HEADS[0, leading_zeros]
    return words[:, None], fallback


def _text_fields(values: np.ndarray) -> tuple:
    """(n, width) uint8 text of each value (%d if integer, else %.17g), padded
    with zero bytes, and the mask of values that % wrote."""
    if values.dtype.kind in "iu":
        conversion = "%d"
        words, fallback = _int_words(values)
    else:
        conversion = "%.17g"
        words, fallback = _float_words(values.astype(np.float64, copy=False))
    fields = words.astype("<u8", copy=False).view(np.uint8)
    if fallback.any():
        where = np.flatnonzero(fallback)
        texts = [(conversion % (v + 0)).encode("ascii") for v in values[where].tolist()]
        width = max(fields.shape[1], *map(len, texts))
        fields = np.pad(fields, ((0, 0), (0, width - fields.shape[1])))
        fields[where] = 0
        for i, text in zip(where, texts):
            fields[i, :len(text)] = np.frombuffer(text, np.uint8)
    return fields, fallback


def format_rows(head: str, sep: str, rows: np.ndarray) -> Iterator[str]:
    """Text of the rows of a 2-D array, in blocks of rows: each row is head,
    its values joined by sep, and a newline.

    Integer rows are written as %d, all others as %.17g. The text is byte
    for byte that of one % operation per row on the values + 0, so -0.0
    prints as 0. A numpy kernel writes the digits: %.17g from an exact
    double-double scaling, %d for 0 <= n < 10**8. % writes the rest: NaN,
    inf, other ints, and a float within _TIE_MARGIN of a 17-digit tie where
    10**(16 - e10) is no double (e10 < -6 or e10 > 16), which sampled grids
    do not hold.
    """
    width = rows.shape[1]
    first = np.frombuffer(head.encode("ascii"), np.uint8)
    # the literal after each value: sep, and a newline after the last
    after = np.zeros((width, max(len(sep), 1)), np.uint8)
    after[:-1, :len(sep)] = np.frombuffer(sep.encode("ascii"), np.uint8)
    after[-1, 0] = ord("\n")
    for start in range(0, len(rows), FORMAT_BLOCK_ROWS):
        block = rows[start:start + FORMAT_BLOCK_ROWS]
        field = _text_fields(block.ravel())[0]
        # each row: first, then one cell a value: its field and the literal
        # after it; every byte is written, and the zero bytes are dropped
        out = np.empty((len(block), len(first) + after.size + width * field.shape[1]), np.uint8)
        out[:, :len(first)] = first
        cells = out[:, len(first):].reshape(len(block), width, -1)  # a view
        cells[:, :, :field.shape[1]] = field.reshape(len(block), width, -1)
        cells[:, :, field.shape[1]:] = after
        yield out.tobytes().translate(None, b"\0").decode("ascii")


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

    mask is True where a node is EXCLUDED. H and K are NaN where the
    surface itself is masked, which on a dual_grid leaves nodes masked for
    |K| < K_EPS or a non-finite dual point with finite H and K; residual is
    the family's ratio-law residual (isotropic curvature-ratio residual, or
    the Euclidean principal-ratio residual for the Euclidean comparison
    entry), None on a dual_grid.
    """

    us: np.ndarray  # (nu,)
    vs: np.ndarray  # (nv,)
    vertices: np.ndarray  # (nu, nv, 3)
    mask: np.ndarray  # (nu, nv) bool, True = excluded
    H: np.ndarray
    K: np.ndarray
    residual: np.ndarray | None

    def vertex_rows(self) -> np.ndarray:
        """Unmasked vertices, row-major in (u, v)."""
        return self.vertices[~self.mask]

    def quad_indices(self) -> np.ndarray:
        """(m, 4) one-based indices into vertex_rows(), one row per whole quad.

        Corners run (i, j), (i+1, j), (i+1, j+1), (i, j+1); quads are
        row-major in (i, j). A quad with a masked corner is left out.
        """
        valid = ~self.mask
        idx = np.zeros(self.mask.shape, dtype=int)  # 0 = masked
        idx[valid] = np.arange(1, int(valid.sum()) + 1)
        corners = (np.s_[:-1, :-1], np.s_[1:, :-1], np.s_[1:, 1:], np.s_[:-1, 1:])
        whole = valid[corners[0]] & valid[corners[1]] & valid[corners[2]] & valid[corners[3]]
        return np.stack([idx[c][whole] for c in corners], axis=-1)

    def stats(self) -> dict:
        """Node counts, max |H| and, on a grid with a residual channel, its
        NaN-skipping max |residual|, over the unmasked nodes.

        Builds no quads. A grid has an unmasked node: _sample raises
        EmptyGrid and dual_grid DegenerateK before one without exists.
        """
        valid = ~self.mask
        out = {
            "n_nodes": int(self.mask.size),
            "n_masked": int(self.mask.sum()),
            "n_valid": int(valid.sum()),
            "max_abs_H": float(np.max(np.abs(self.H[valid]))),
        }
        if self.residual is not None:
            # NaN where every residual is NaN (a flat grid), without nanmax's warning
            out["max_abs_residual"] = float(np.fmax.reduce(np.abs(self.residual[valid])))
        return out


def grid_shape(nu: int, nv: int) -> tuple[int, int]:
    """(nu, nv) if 2 or more and at most MAX_GRID_NODES nodes, else InvalidParams."""
    if nu < 2 or nv < 2:
        raise InvalidParams(f"{nu}x{nv} needs at least 2 samples per direction")
    if nu * nv > MAX_GRID_NODES:
        raise InvalidParams(f"{nu}x{nv} has more than {MAX_GRID_NODES} nodes")
    return nu, nv


def _sample(spec: FamilySpec, nu: int, nv: int, channel, heights: bool = True) -> MeshGrid:
    """The masked grid, sampled in blocks of whole u-rows.

    A block holds SAMPLE_BLOCK_NODES nodes or fewer, but at least one row,
    so no full-grid jet exists, and each distinct u is in one chart
    evaluation. The chart and its predicates see one u column and one v row,
    so work that reads u or v alone runs once per row or column; the jet's
    components keep their shapes up to the writes to the grid's arrays.
    channel(jet, hj, H, K, bad) gives a block's vertices, an (x, y, z)
    triple, and residual (None on a grid without one) from its chart jet,
    Monge jet, curvatures (NaN where bad) and the mask, which it may widen.
    heights is passed to the chart evaluation.
    """
    grid_shape(nu, nv)
    u0, u1, v0, v1 = spec.domain
    us = np.linspace(u0, u1, nu)
    vs = np.linspace(v0, v1, nv)
    vertices = np.empty((nu, nv, 3))
    mask = np.empty((nu, nv), bool)
    H, K = np.empty((nu, nv)), np.empty((nu, nv))
    residual = None
    entry = catalog_entry(spec.family_id)
    V = vs[None, :]
    rows = max(1, SAMPLE_BLOCK_NODES // nv)
    for start in range(0, nu, rows):
        block = np.s_[start:start + rows]
        U = us[block][:, None]
        # the block's rows of the grid's arrays, written in place
        bad, h, k, points = mask[block], H[block], K[block], vertices[block]
        with np.errstate(all="ignore"):
            jet = evaluate(spec, U, V, check=False, heights=heights)
            # a non-finite derivative leaves the frame singular or H, K
            # non-finite, which the mask tests below
            bad[...] = ~_finite_rows(jet.r)
            bad |= ~entry.hard_valid(spec.params, U, V)
            bad |= entry.locus_distance(spec.params, U, V) < SINGULAR_MARGIN
            hj, singular = monge_jet(jet)
            bad |= singular
            h[...], k[...] = relative_curvatures(hj)
            bad |= ~(np.isfinite(h) & np.isfinite(k))
            h[bad] = k[bad] = np.nan
            xyz, res = channel(jet, hj, h, k, bad)
        points[..., 0], points[..., 1], points[..., 2] = xyz
        if res is not None:
            if residual is None:
                residual = np.empty((nu, nv))
            residual[block] = res
            residual[block][bad] = np.nan
    if np.isnan(H).all():  # H is NaN exactly where the surface is masked
        raise EmptyGrid(f"{spec.family_id}: every grid node is masked")
    return MeshGrid(us=us, vs=vs, vertices=vertices, mask=mask, H=H, K=K, residual=residual)


def sample_grid(spec: FamilySpec, nu: int, nv: int, a: float | None = None,
                heights: bool = True) -> MeshGrid:
    """Sample an nu-by-nv grid over spec.domain with singularity masking.

    Nodes within SINGULAR_MARGIN of a singular locus are masked. `a`
    overrides the ratio hypothesis behind the residual channel; by default
    the family's own ratio is checked. heights=False is for a caller that
    reads no vertex height: as in families.evaluate, the vertices' z may
    then be a stand-in, while mask, H, K and residual keep their bits.
    """
    if a is None:
        a = ratio_for_residual(spec)
    euclidean = ratio_kind(spec) == "euclidean"

    def ratio_residual(jet, hj, H, K, bad):
        return jet.r, ratio_law_residual(hj, H, K, a, euclidean)

    return _sample(spec, nu, nv, ratio_residual, heights)


def dual_grid(spec: FamilySpec, nu: int, nv: int) -> MeshGrid:
    """The grid with the metric dual's points as vertices, from one evaluation.

    Also masks nodes where the dual point is not finite or |K| < K_EPS, and
    raises DegenerateK when no node is left. The curvature channels stay
    the primal surface's.
    """
    def dual_points(jet, hj, H, K, bad):
        points = dual_surface_point(hj)
        # the dual surface degenerates where K = 0
        bad |= ~_finite_rows(points) | ~(np.abs(K) >= K_EPS)
        return points, None

    grid = _sample(spec, nu, nv, dual_points)
    if grid.mask.all():
        raise DegenerateK(f"{spec.family_id}: relative curvature is numerically "
                          "zero on the whole grid; dual surface undefined")
    return grid


def obj_text(vertices: np.ndarray, quads: np.ndarray) -> str:
    """Wavefront OBJ text of a quad mesh: (n, 3) vertices, (m, 4) one-based faces."""
    return "".join([*format_rows("v ", " ", vertices), *format_rows("f ", " ", quads)])
