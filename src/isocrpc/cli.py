"""Command line front end: catalog listing, meshes, checks, traces, duals.

Subcommands: list | generate | verify | trace | dual, each with only the
flags it reads (SUBCOMMANDS). Options may come from flags or from a flat
JSON config file (--config) with the same keys; flags win. All
emitters use fixed float formatting and fixed iteration order, so outputs
are byte-deterministic for a given configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import families as fam
from .duality import dual_curvature_check
from .errors import GeometryError, InvalidParams, NonAdmissiblePoint
from .meshing import dual_grid, fmt_float, obj_text, sample_grid, write_text
from .curves import MAX_TRACE_STEPS, TRACE_KINDS, trace_direction_field
from .residuals import family_ode_residual

FAMILY_ALIASES = {"rotational_power": "rotational_power_1"}
KIND_ALIASES = {"char+": "characteristic+", "char-": "characteristic-"}
DEFAULT_TOL = {"crpc": 1e-8, "H": 1e-9, "ode": 1e-8, "dual": 1e-4}
VERIFY_HEADER = ("family,a,nu,nv,max_abs_crpc_residual,max_abs_H,"
                 "ode_residual,dualK_residual,status")

# accept "-2", "-0.5,2", "-1e-3,2" etc. as option values, not option names
_NUM_U = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEG_NUMBER_LIST = re.compile(rf"^-{_NUM_U}(?:,-?{_NUM_U})*$")

FLAGS = {
    "family": {"help": "family id (see the list subcommand)"},
    "a": {"help": "curvature ratio; comma list for verify"},
    "params": {"help": "extra parameters, k=v,..."},
    "domain": {"help": "umin,umax,vmin,vmax chart box"},
    "res": {"help": "grid resolution NUxNV (default 50x50)"},
    "tol": {"help": "tolerance or name=value,... (crpc, H, ode, dual)"},
    "seed": {"help": "verify: RNG seed; trace: start point u,v"},
    "kind": {"help": "characteristic+|characteristic-|principal1|principal2 "
                     "(char+/char- ok)"},
    "steps": {"type": int, "help": "integration steps"},
    "dt": {"type": float, "help": "top-view arclength step"},
    "json": {"action": "store_true", "default": None, "help": "JSON output"},
    "out": {"help": "output file (default: stdout)"},
}
_MESH_FLAGS = ("family", "a", "params", "domain", "res", "out")
# subcommand -> (help, the flags and config keys it reads besides --config)
SUBCOMMANDS = {
    "list": ("print the family catalog", ("json", "out")),
    "generate": ("sample a family and write an OBJ mesh", _MESH_FLAGS),
    "verify": ("run residual checks, write a CSV report", _MESH_FLAGS + ("tol", "seed")),
    "trace": ("trace a direction field, write a CSV curve",
              ("family", "a", "params", "seed", "kind", "steps", "dt", "out")),
    "dual": ("write the OBJ mesh of the dual surface", _MESH_FLAGS),
}


@dataclass
class RunConfig:
    """Resolved options for one invocation, defaults filled in by config_from_args."""

    subcommand: str
    family: str | None
    a: str | None  # single value, or comma list for verify
    params: dict
    domain: tuple | None
    res: tuple
    tol: dict
    out: str | None
    seed: str | None
    json_out: bool
    kind: str
    steps: int
    dt: float


def _parse_params(value) -> dict:
    if value is None:
        return {}
    if isinstance(value, dict):
        return {str(k): float(v) for k, v in value.items()}
    out = {}
    for item in str(value).split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--params entries must look like k=v, got '{item}'")
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    return out


def _parse_domain(value):
    if value is None:
        return None
    parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
    vals = tuple(float(p) for p in parts)
    if len(vals) != 4:
        raise ValueError("--domain must be umin,umax,vmin,vmax")
    if not (vals[0] < vals[1] and vals[2] < vals[3]):
        raise InvalidParams(f"--domain needs umin < umax and vmin < vmax, got {vals}")
    return vals


def _parse_res(value) -> tuple:
    if value is None:
        return (50, 50)
    if isinstance(value, (list, tuple)):
        nu, nv = value
    else:
        txt = str(value).lower()
        if "x" not in txt:
            raise ValueError("--res must look like NUxNV, e.g. 50x50")
        nu, nv = txt.split("x", 1)
    nu, nv = int(nu), int(nv)
    if nu < 2 or nv < 2:
        raise ValueError("--res needs at least 2 samples per direction")
    return (nu, nv)


def _parse_tol(value) -> dict:
    if value is None:
        return {}
    if isinstance(value, dict):
        out = {str(k): float(v) for k, v in value.items()}
    elif "=" not in str(value):
        # a bare number tightens the residual checks, not the H/dual ones
        out = dict.fromkeys(("crpc", "ode"), float(value))
    else:
        out = {}
        for item in str(value).split(","):
            if "=" not in item:
                raise ValueError(f"--tol entries must look like name=value, got '{item}'")
            k, v = item.split("=", 1)
            out[k.strip()] = float(v)
    for k, v in out.items():
        if k not in DEFAULT_TOL:
            raise ValueError(f"unknown tolerance '{k}' (use {sorted(DEFAULT_TOL)})")
        # a NaN or negative bound fails every row, an infinite one none
        if not 0.0 <= v < math.inf:
            raise InvalidParams(f"tolerance {k} must be finite and >= 0, got {v}")
    return out


def _parse_steps(value) -> int:
    steps = int(value)
    if steps > MAX_TRACE_STEPS:
        raise InvalidParams(f"--steps {steps} is more than {MAX_TRACE_STEPS}")
    return steps


def _parse_a_list(value: str | None) -> list | None:
    if value is None:
        return None
    vals = [float(p) for p in value.split(",") if p.strip()]
    if not np.all(np.isfinite(vals)):
        raise InvalidParams(f"--a values must be finite, got {value}")
    return vals


def _resolve_family(name: str) -> str:
    return FAMILY_ALIASES.get(name, name)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="isocrpc",
        description="Surfaces with a constant ratio of principal curvatures: "
                    "meshes, traces, duals, and numerical verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.add_argument("--config", help="JSON file with flat keys mirroring the flags")
        p._negative_number_matcher = _NEG_NUMBER_LIST
    parser._negative_number_matcher = _NEG_NUMBER_LIST
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a flat JSON object")
        unread = sorted(set(file_cfg) - set(SUBCOMMANDS[args.subcommand][1]))
        if unread:
            raise ValueError(f"{args.subcommand} does not read config keys {unread}")

    def pick(name, default=None):
        v = getattr(args, name, None)
        return file_cfg.get(name, default) if v is None else v

    return RunConfig(
        subcommand=args.subcommand,
        family=pick("family"),
        a=None if pick("a") is None else str(pick("a")),
        params=_parse_params(pick("params")),
        domain=_parse_domain(pick("domain")),
        res=_parse_res(pick("res")),
        tol=_parse_tol(pick("tol")),
        out=pick("out"),
        seed=None if pick("seed") is None else str(pick("seed")),
        json_out=bool(pick("json", False)),
        kind=str(pick("kind", "characteristic+")),
        steps=_parse_steps(pick("steps", 1000)),
        dt=float(pick("dt", 1e-3)),
    )


def _write_text(text: str, out: str | None) -> None:
    write_text(text, out or sys.stdout)


def _spec_from_cfg(cfg: RunConfig) -> fam.FamilySpec:
    if not cfg.family:
        raise InvalidParams("a --family is required")
    fid = _resolve_family(cfg.family)
    params = dict(cfg.params)
    if cfg.a is not None and "a" not in params:
        params["a"] = float(cfg.a)
    return fam.make_spec(fid, params, cfg.domain)


def cmd_list(cfg: RunConfig) -> int:
    rows = []
    for fid in fam.family_ids():
        entry = fam.catalog_entry(fid)
        spec = fam.make_spec(fid)
        rows.append({
            "family": fid,
            "constraint": entry.constraint_text,
            "ratio": entry.ratio_text,
            "params": dict(spec.params),
            "default_domain": list(spec.domain),
            "singular_loci": list(spec.singular_loci),
        })
    if cfg.json_out:
        _write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", cfg.out)
        return 0
    lines = []
    for r in rows:
        d = r["default_domain"]
        dom = "[%g, %g] x [%g, %g]" % tuple(d)
        lines.append(f"{r['family']:22s} {r['constraint']}  |  ratio: {r['ratio']}"
                     f"  |  default domain: {dom}")
    _write_text("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_generate(cfg: RunConfig) -> int:
    spec = _spec_from_cfg(cfg)
    grid = sample_grid(spec, *cfg.res)
    _write_text(obj_text(grid), cfg.out)
    st = grid.stats()
    print(f"{spec.family_id}: {st['n_valid']} vertices, {st['n_quads']} quads, "
          f"{st['n_masked']} nodes masked", file=sys.stderr)
    return 0


def cmd_dual(cfg: RunConfig) -> int:
    _write_text(obj_text(dual_grid(_spec_from_cfg(cfg), *cfg.res)), cfg.out)
    return 0


def cmd_trace(cfg: RunConfig) -> int:
    spec = _spec_from_cfg(cfg)
    if cfg.seed is None:
        raise ValueError("trace needs --seed u,v (the start point)")
    parts = cfg.seed.split(",")
    if len(parts) != 2:
        raise ValueError("trace --seed must be two numbers u,v")
    seed_uv = (float(parts[0]), float(parts[1]))
    if not all(map(math.isfinite, seed_uv)):
        raise InvalidParams(f"trace --seed must be finite, got {cfg.seed}")
    kind = KIND_ALIASES.get(cfg.kind, cfg.kind)
    if kind not in TRACE_KINDS:
        raise ValueError(f"--kind must be one of {TRACE_KINDS} (or char+/char-)")
    tr = trace_direction_field(spec, seed_uv, kind, steps=cfg.steps, dt=cfg.dt)
    tr.to_csv(cfg.out or sys.stdout)
    if tr.stopped:
        print(f"{spec.family_id}: trace stopped after {len(tr) - 1} steps "
              f"({tr.stopped})", file=sys.stderr)
    return 0


def _verify_combos(fid: str, cfg: RunConfig, hyps: list | None):
    """(hypothesis a, params) pairs for one family; --params a=... wins over --a.

    The hypothesis is None, to be read off the spec, without --a and for a
    family that takes no ratio.
    """
    if hyps is None or "a" not in fam.catalog_entry(fid).defaults:
        yield None, dict(cfg.params)
    else:
        for aval in hyps:
            yield aval, {"a": aval, **cfg.params}


def _verify_row(spec: fam.FamilySpec, a_hyp: float, nu: int, nv: int,
                seed: int) -> tuple:
    grid = sample_grid(spec, nu, nv, a=a_hyp)
    valid = ~grid.mask
    # NaN skipped as by nanmax, which warns where every residual is NaN
    crpc = float(np.fmax.reduce(np.abs(grid.residual[valid])))
    max_h = float(np.max(np.abs(grid.H[valid])))

    ii, jj = np.where(valid)
    rng = np.random.default_rng(seed)
    take = rng.choice(len(ii), size=min(64, len(ii)), replace=False)
    take.sort()
    us, vs = grid.us[ii[take]], grid.vs[jj[take]]
    # a NaN residual is ignored (fmax), as in dual_curvature_check
    ode = float(np.fmax.reduce(family_ode_residual(spec, us, vs), initial=0.0))

    # the dual law K* K = 1 on the sampled nodes that are not too flat
    try:
        dual_val, _ = dual_curvature_check(spec, us, vs)
    except NonAdmissiblePoint:
        dual_val = float("nan")  # every sampled node is too flat
    return crpc, max_h, ode, dual_val


def cmd_verify(cfg: RunConfig) -> int:
    hyps = _parse_a_list(cfg.a)
    if cfg.family in (None, "all"):
        fids = fam.family_ids()
    else:
        fids = (_resolve_family(cfg.family),)
        fam.catalog_entry(fids[0])  # fail fast on unknown names
    nu, nv = cfg.res
    tol = dict(DEFAULT_TOL)
    tol.update(cfg.tol)
    seed = int(cfg.seed) if cfg.seed is not None else 0

    # a family that refuses a combination drops it, named on stderr, but
    # every --a value must give at least one row
    specs, refused, skipped = [], {}, []
    for fid in fids:
        for a_hyp, params in _verify_combos(fid, cfg, hyps):
            try:
                specs.append((fam.make_spec(fid, params, cfg.domain), a_hyp))
            except InvalidParams as exc:
                refused.setdefault(a_hyp, exc)
                shown = ",".join(f"{k}={fmt_float(v)}" for k, v in params.items())
                skipped.append(f"verify: skipped {fid} {shown or '(defaults)'}: {exc}")
    for aval in hyps or ():
        if not any(a_hyp == aval for _spec, a_hyp in specs):
            why = refused.get(aval, "the requested families take no ratio")
            raise InvalidParams(f"--a {aval!r} gives no row: {why}")
    for line in skipped:
        print(line, file=sys.stderr)

    rows = []
    any_fail = False
    for spec, a_hyp in specs:
        if a_hyp is None:
            a_hyp = fam.ratio_for_residual(spec)
        try:
            crpc, max_h, ode, dual_val = _verify_row(spec, a_hyp, nu, nv, seed)
            ok = (crpc <= tol["crpc"] and ode <= tol["ode"]
                  and dual_val <= tol["dual"])
            if fam.is_minimal(spec):
                ok = ok and max_h <= tol["H"]
            status = "PASS" if ok else "FAIL"
        except GeometryError:
            crpc = max_h = ode = dual_val = float("nan")
            status = "ERROR"
        any_fail = any_fail or status != "PASS"
        rows.append((spec.family_id, float(a_hyp), crpc, max_h, ode, dual_val, status))

    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [VERIFY_HEADER]
    for fid, a_hyp, crpc, max_h, ode, dual_val, status in rows:
        lines.append(",".join([
            fid, fmt_float(a_hyp), str(nu), str(nv),
            fmt_float(crpc), fmt_float(max_h), fmt_float(ode), fmt_float(dual_val), status,
        ]))
    _write_text("\n".join(lines) + "\n", cfg.out)
    if not rows:
        print("verify: no valid (family, a) combination", file=sys.stderr)
        return 1
    return 1 if any_fail else 0


_DISPATCH = {
    "list": cmd_list,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "trace": cmd_trace,
    "dual": cmd_dual,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _DISPATCH[cfg.subcommand](cfg)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
