"""Seeded job generators for the three benchmark workloads.

A job is one `isocrpc` command line (without `--out`, which the worker
adds) plus what its output is expected to contain. The generator uses only
the seed and the catalog rules written down here, never the library, so the
same seed gives the same jobs whatever the code under test does.

Every generated (family, parameters) pair is admissible, so every job is
expected to succeed. Within one workload no two jobs share a (family,
params, domain, res) tuple: the library keeps per-process caches keyed by
those values (`families._euclid_cache`), and a repeated tuple would get
cache hits that a fresh CLI process never gets.

The structure of each workload (which families, kinds, grid sizes) is fixed;
the seed draws the ratios, sub-domains, start points and sampling seeds.
That keeps the cost of a workload nearly the same from seed to seed, so a
change in the figures points at the code and not at the draw.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 0
WORKLOADS = ("verify", "trace", "mesh")
# what one unit of `work_per_s` is on each workload
WORK_UNIT = {"verify": "rows", "trace": "rk4_steps", "mesh": "nodes"}

PI = math.pi

# family -> (ratios it must not take, negative ratios only, special ratios)
RATIO_FAMILIES = {
    "paraboloid": ((0.0,), False, (1.0, -1.0)),
    "trans_paraboloid": ((0.0,), False, (1.0, -1.0)),
    "rotational_power_1": ((0.0, -1.0), False, (1.0,)),
    "rotational_power_2": ((0.0, -1.0), False, (1.0,)),
    # a = 1 is the Euclidean sphere, umbilic everywhere: the ratio check fails
    "euclidean_rotational": ((0.0, 1.0), False, (-1.0,)),
    "spiral_ruled": ((0.0, -1.0), True, ()),
    "helical_general": ((0.0, 1.0, -1.0), False, ()),
    "trans_iso_noniso": ((0.0, 1.0), False, (-1.0,)),
    "dual_trans_iso_noniso": ((0.0, 1.0), False, (-1.0,)),
}
# open intervals of ratios that random draws skip, each next to a ratio the
# family must not take, where the CLI stops with an error for that family:
# - trans_iso_noniso near a = 1: |K| < 1e-6 on the whole default box, so
#   `verify` reports FAIL (dualK_residual nan), `dual` finds no relative
#   curvature and `trace --kind char+/-` fails at a seed with K = 0.
# - helical_general near a = -1: K = 0 crosses the default box and
#   `trace --kind char+/-` fails at seeds near it or near an umbilic.
RATIO_GAPS = {
    "trans_iso_noniso": ((0.63, 1.58),),
    "helical_general": ((-1.2, -0.8),),
}
# `trace` draws also skip negative ratios of dual_trans_iso_noniso. There,
# about one trace in fifteen walks onto a singular locus where the chart
# point is infinite while (u, v) is still finite, and the CSV ends with a
# non-finite row. No trace with a > 0 did so.
TRACE_RATIO_GAPS = {**RATIO_GAPS, "dual_trans_iso_noniso": ((-math.inf, 0.0),)}
COMMON_RATIOS = (-2.0, -0.5, 0.5, 2.0)
RANDOM_RATIOS = 2

# families without a ratio parameter, with their default chart boxes
FIXED_FAMILIES = {
    "logarithmoid": (0.5, 3.0, 0.0, 2.0 * PI),
    "helicoid": (0.5, 2.0, 0.0, PI),
    "helical_log": (0.5, 2.0, 0.0, PI),
    "trans_noniso_noniso": (-1.3, -0.8, 0.2, 0.65),
    "dual_trans_minimal": (0.2, 1.3, 0.2, 1.3),
}
# default chart boxes of the ratio families that the trace seeds are drawn in
RATIO_DOMAINS = {
    "paraboloid": lambda a: (-1.0, 1.0, -1.0, 1.0),
    "trans_paraboloid": lambda a: (-1.0, 1.0, -1.0, 1.0),
    "rotational_power_1": lambda a: (0.5, 2.0, 0.0, PI),
    "rotational_power_2": lambda a: (0.5, 2.0, 0.0, PI),
    "spiral_ruled": lambda a: (0.5, 2.0, 0.0, PI),
    "helical_general": lambda a: _helical_general_domain(a),
    "trans_iso_noniso": lambda a: (-1.0, 1.0) + _tin_v_interval(a),
    "dual_trans_iso_noniso": lambda a: (-1.0, 1.0) + _tin_v_interval(a),
}
VERIFY_RES = ((50, 50), (200, 200))
SUBDOMAINS = 2

TRACE_FAMILIES = (
    "rotational_power_1", "rotational_power_2", "spiral_ruled", "helicoid",
    "logarithmoid", "paraboloid", "trans_paraboloid", "helical_general",
    "helical_log", "trans_iso_noniso", "dual_trans_iso_noniso",
    "trans_noniso_noniso", "dual_trans_minimal",
)
TRACE_KINDS = ("char+", "char-", "principal1", "principal2")
# the larger step walks far enough for some traces to leave the chart
TRACE_DT = (1e-3, 1e-2)

# (subcommand, family, ratio rule, domain or None for the default, grid side)
# Three large grids, then a cluster of similar middle-sized ones, so that the
# median job is a typical job and not one particular grid, then small ones.
# Two domains cross a singular locus so that part of the grid is masked.
MESH_SLOTS = (
    ("generate", "helicoid", None, (-2.0, 2.0, 0.0, PI), 540),
    ("generate", "paraboloid", "any", None, 300),
    ("dual", "trans_iso_noniso", "any", None, 230),
    ("generate", "euclidean_rotational", "positive", None, 150),
    ("generate", "logarithmoid", None, (-1.0, 3.0, 0.0, 2.0 * PI), 146),
    ("generate", "rotational_power_1", "any", None, 142),
    ("dual", "paraboloid", "any", None, 138),
    ("generate", "spiral_ruled", "negative", None, 135),
    ("generate", "euclidean_rotational", "negative", None, 132),
    ("generate", "helical_general", "any", None, 129),
    ("dual", "rotational_power_2", "any", None, 126),
    ("generate", "trans_noniso_noniso", None, (-1.0, 0.2, -0.2, 1.0), 123),
    ("generate", "trans_iso_noniso", "any", None, 120),
    ("generate", "rotational_power_2", "any", None, 118),
    ("dual", "helical_log", None, None, 116),
    ("generate", "dual_trans_iso_noniso", "any", None, 112),
    ("generate", "trans_paraboloid", "any", None, 109),
    ("generate", "helicoid", None, None, 106),
    ("dual", "logarithmoid", None, None, 103),
    ("generate", "helical_log", None, None, 100),
)


def _helical_general_domain(a: float) -> tuple:
    lo, hi = 0.1, PI / 2.0 - 0.1
    if a > 0:
        ustar = math.atan(math.sqrt(a))
        if ustar - 0.05 - lo >= 0.2:
            hi = ustar - 0.05
        else:
            lo = ustar + 0.05
    return (lo, hi, 0.0, PI)


def _tin_v_interval(a: float) -> tuple:
    """Widest v-interval of trans_iso_noniso(a) free of its singular loci."""
    b = (a + 1.0) / (a - 1.0)
    roots = []
    for rhs in (b, 1.0 / b if b != 0.0 else math.inf):
        if abs(rhs) <= 1.0:
            r1 = math.asin(rhs)
            roots += [r for r in (r1, PI - r1, -PI - r1) if -PI <= r <= PI]
    pts = sorted(set([-PI, PI] + roots))
    lo, hi = max(zip(pts[:-1], pts[1:]), key=lambda seg: seg[1] - seg[0])
    return (lo + 0.1, hi - 0.1)


def _random_ratio(rng: random.Random, fid: str, sign: float | None = None,
                  gaps: dict = RATIO_GAPS) -> float:
    """An admissible ratio of `fid` with |a| in [0.25, 4], outside `gaps`.

    The sign is `sign`, or negative for families that only take negative
    ratios, or drawn.
    """
    bad, negative_only, _ = RATIO_FAMILIES[fid]
    if negative_only:
        sign = -1.0
    while True:
        s = sign if sign is not None else (-1.0 if rng.random() < 0.5 else 1.0)
        a = round(s * 10.0 ** rng.uniform(-0.6, 0.6), 6)
        if a not in bad and not any(lo < a < hi for lo, hi in gaps.get(fid, ())):
            return a


def _ratio(rng: random.Random, fid: str, rule: str) -> float:
    return _random_ratio(rng, fid, {"positive": 1.0, "negative": -1.0}.get(rule))


def _num(x: float) -> str:
    return repr(float(x))


def _box(dom) -> str:
    return ",".join(_num(t) for t in dom)


def _shrink(rng: random.Random, dom, most: float) -> tuple:
    """dom with each side moved inward by a random share (< most) of its width."""
    u0, u1, v0, v1 = dom
    du, dv = u1 - u0, v1 - v0
    return (u0 + du * rng.uniform(0, most), u1 - du * rng.uniform(0, most),
            v0 + dv * rng.uniform(0, most), v1 - dv * rng.uniform(0, most))


def _job(jid: str, argv: list, key: tuple, **expect) -> dict:
    return {"id": jid, "argv": argv, "key": repr(key), **expect}


def verify_jobs(rng: random.Random, tiny: bool = False) -> list[dict]:
    """Single-row `verify` jobs over every admissible (family, ratio) pair."""
    jobs = []
    for nu, nv in VERIFY_RES[:1] if tiny else VERIFY_RES:
        res = f"{nu}x{nv}"
        cases = []  # (family, ratio or None, params, domain or None)
        for fid, (bad, neg, special) in RATIO_FAMILIES.items():
            ratios = [a for a in COMMON_RATIOS + special if not (neg and a > 0)]
            ratios += [_random_ratio(rng, fid) for _ in range(RANDOM_RATIOS)]
            cases += [(fid, a, {"a": a}, None) for a in ratios if a not in bad]
        for fid, dom in FIXED_FAMILIES.items():
            cases.append((fid, None, {}, None))
            for _ in range(SUBDOMAINS):
                params = {"c": round(rng.uniform(0.5, 2.0), 6)} if fid == "helical_log" else {}
                cases.append((fid, None, params, _shrink(rng, dom, 0.15)))
        if tiny:
            cases = cases[::25]
        for fid, a, params, dom in cases:
            argv = ["verify", "--family", fid, "--res", res,
                    "--seed", str(rng.randrange(2 ** 31))]
            if a is not None:
                argv += ["--a", _num(a)]
            if fid == "helical_log" and params:
                argv += ["--params", f"c={_num(params['c'])}"]
            if dom is not None:
                argv += ["--domain", _box(dom)]
            jobs.append(_job(f"verify-{len(jobs):03d}", argv,
                             (fid, sorted(params.items()), dom, res),
                             family=fid, a=-1.0 if a is None else a, res=[nu, nv]))
    return jobs


def trace_jobs(rng: random.Random, tiny: bool = False) -> list[dict]:
    """`trace` jobs: every traced family x every direction field x two step sizes."""
    jobs = []
    combos = [(fid, kind, dt) for fid in TRACE_FAMILIES for kind in TRACE_KINDS
              for dt in TRACE_DT]
    if tiny:
        combos = combos[::26]
    for n, (fid, kind, dt) in enumerate(combos):
        steps = 20 if tiny else 100 + (37 * n) % 51
        argv = ["trace", "--family", fid, "--kind", kind, "--steps", str(steps),
                "--dt", _num(dt)]
        params = {}
        if fid in RATIO_FAMILIES:
            a = _random_ratio(rng, fid, gaps=TRACE_RATIO_GAPS)
            params = {"a": a}
            dom = RATIO_DOMAINS[fid](a)
            argv += ["--a", _num(a)]
        elif fid == "helical_log":
            params = {"c": round(rng.uniform(0.5, 2.0), 6)}
            dom = FIXED_FAMILIES[fid]
            argv += ["--params", f"c={_num(params['c'])}"]
        else:
            dom = FIXED_FAMILIES[fid]
        u = dom[0] + (dom[1] - dom[0]) * rng.uniform(0.2, 0.8)
        v = dom[2] + (dom[3] - dom[2]) * rng.uniform(0.2, 0.8)
        argv += ["--seed", f"{_num(u)},{_num(v)}"]
        # No traced family has a per-process cache (only euclidean_rotational
        # does), so kind and dt stand in for the domain to keep keys distinct.
        jobs.append(_job(f"trace-{n:03d}", argv,
                         (fid, sorted(params.items()), (kind, dt), None),
                         family=fid, steps=steps))
    return jobs


def mesh_jobs(rng: random.Random, tiny: bool = False) -> list[dict]:
    """`generate` and `dual` jobs with grid sides from 100 to 540."""
    jobs = []
    slots = MESH_SLOTS[::6] if tiny else MESH_SLOTS
    for n, (cmd, fid, rule, dom, side) in enumerate(slots):
        if tiny:
            side = 30
        nu = round(side * rng.uniform(0.98, 1.02))
        nv = round(side * rng.uniform(0.98, 1.02))
        argv = [cmd, "--family", fid, "--res", f"{nu}x{nv}"]
        params = {}
        if rule is not None:
            params = {"a": _ratio(rng, fid, rule)}
            argv += ["--a", _num(params["a"])]
        elif fid == "helical_log":
            params = {"c": round(rng.uniform(0.5, 2.0), 6)}
            argv += ["--params", f"c={_num(params['c'])}"]
        if dom is not None:
            dom = _shrink(rng, dom, 0.01)
            argv += ["--domain", _box(dom)]
        jobs.append(_job(f"mesh-{n:03d}", argv,
                         (fid, sorted(params.items()), dom, (nu, nv)),
                         family=fid, res=[nu, nv]))
    return jobs


GENERATORS = {"verify": verify_jobs, "trace": trace_jobs, "mesh": mesh_jobs}


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The job list of `workload` for `seed`, in the order the worker runs it.

    The order is the generator's, the same for every seed: the allocator
    keeps memory from earlier jobs, so the peak memory of the largest mesh
    job, which runs first, would otherwise depend on what ran before it.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng, tiny)
    keys = [j["key"] for j in jobs]
    if len(set(keys)) != len(keys):
        raise AssertionError(f"{workload}: two jobs share a (family, params, domain, res) tuple")
    return jobs
