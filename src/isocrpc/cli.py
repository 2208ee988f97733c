"""Command line front end: catalog listing, meshes, checks, traces, duals.

Subcommands: list | generate | verify | trace | dual. Options may come
from flags or from a flat JSON config file (--config); flags win. All
emitters use fixed float formatting and fixed iteration order, so outputs
are byte-deterministic for a given configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from .duality import dual_map_jet
from .errors import DegenerateK, GeometryError, InvalidParams
from .geometry import K_EPS, height_jet_from_param, isotropic_curvatures
from .meshing import obj_text, sample_grid
from .curves import TRACE_KINDS, trace_direction_field
from .residuals import family_ode_residual

FAMILY_ALIASES = {"rotational_power": "rotational_power_1"}
KIND_ALIASES = {"char+": "characteristic+", "char-": "characteristic-"}
DEFAULT_TOL = {"crpc": 1e-8, "H": 1e-9, "ode": 1e-8, "dual": 1e-4}
VERIFY_HEADER = ("family,a,nu,nv,max_abs_crpc_residual,max_abs_H,"
                 "ode_residual,dualK_residual,status")

_FLOAT_FMT = "%.17g"

# accept "-2", "-0.5,2", "-1e-3,2" etc. as option values, not option names
_NUM_U = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEG_NUMBER_LIST = re.compile(rf"^-{_NUM_U}(?:,-?{_NUM_U})*$")


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return _FLOAT_FMT % x


@dataclass
class RunConfig:
    """Resolved options for one invocation; flags override the config file."""

    subcommand: str
    family: str | None = None
    a: str | None = None  # single value, or comma list for verify
    params: dict = field(default_factory=dict)
    domain: tuple | None = None
    res: tuple = (50, 50)
    tol: dict = field(default_factory=dict)
    out: str | None = None
    seed: str | None = None
    json_out: bool = False
    kind: str = "characteristic+"
    steps: int = 1000
    dt: float = 1e-3


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
    elif isinstance(value, (int, float)):
        out = {"crpc": float(value), "ode": float(value)}
    else:
        txt = str(value)
        if "=" not in txt:
            # a bare number tightens the residual checks, not the H/dual ones
            return {"crpc": float(txt), "ode": float(txt)}
        out = {}
        for item in txt.split(","):
            k, v = item.split("=", 1)
            out[k.strip()] = float(v)
    for k in out:
        if k not in DEFAULT_TOL:
            raise ValueError(f"unknown tolerance '{k}' (use {sorted(DEFAULT_TOL)})")
    return out


def _parse_a_list(value) -> list | None:
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return [float(value)]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(p) for p in str(value).split(",") if p.strip()]


def _resolve_family(name: str) -> str:
    return FAMILY_ALIASES.get(name, name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isocrpc",
        description="Surfaces with a constant ratio of principal curvatures: "
                    "meshes, traces, duals, and numerical verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, trace_opts: bool = False):
        p.add_argument("--family", help="family id (see the list subcommand)")
        p.add_argument("--a", help="curvature ratio; comma list for verify")
        p.add_argument("--params", help="extra parameters, k=v,...")
        p.add_argument("--domain", help="umin,umax,vmin,vmax chart box")
        p.add_argument("--res", help="grid resolution NUxNV (default 50x50)")
        p.add_argument("--tol", help="tolerance or name=value,... "
                                     "(crpc, H, ode, dual)")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--config", help="JSON file with flat keys mirroring flags")
        p.add_argument("--seed", help="verify: RNG seed; trace: start point u,v")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output where supported")
        if trace_opts:
            p.add_argument("--kind", help="characteristic+|characteristic-|"
                                          "principal1|principal2 (char+/char- ok)")
            p.add_argument("--steps", type=int, help="integration steps")
            p.add_argument("--dt", type=float, help="top-view arclength step")

    subparsers = [
        sub.add_parser("list", help="print the family catalog"),
        sub.add_parser("generate", help="sample a family and write an OBJ mesh"),
        sub.add_parser("verify", help="run residual checks, write a CSV report"),
        sub.add_parser("trace", help="trace a direction field, write a CSV curve"),
        sub.add_parser("dual", help="write the OBJ mesh of the dual surface"),
    ]
    for p in subparsers:
        common(p, trace_opts=(p.prog.endswith("trace")))
        p._negative_number_matcher = _NEG_NUMBER_LIST
    parser._negative_number_matcher = _NEG_NUMBER_LIST
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a flat JSON object")

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
        json_out=bool(getattr(args, "json", False) or file_cfg.get("json", False)),
        kind=str(pick("kind", "characteristic+")),
        steps=int(pick("steps", 1000)),
        dt=float(pick("dt", 1e-3)),
    )


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    spec = _spec_from_cfg(cfg)
    grid = sample_grid(spec, *cfg.res)
    U, V = np.meshgrid(grid.us, grid.vs, indexing="ij")
    with np.errstate(all="ignore"):
        jet = fam.evaluate(spec, U, V, check=False)
        xu, yu, zu = jet.ru[..., 0], jet.ru[..., 1], jet.ru[..., 2]
        xv, yv, zv = jet.rv[..., 0], jet.rv[..., 1], jet.rv[..., 2]
        det = xu * yv - yu * xv
        p1 = (zu * yv - zv * yu) / det
        p2 = (xu * zv - xv * zu) / det
        p3 = jet.r[..., 0] * p1 + jet.r[..., 1] * p2 - jet.r[..., 2]
        dual_pts = np.stack([p1, p2, p3], axis=-1)
    mask = grid.mask | ~np.all(np.isfinite(dual_pts), axis=-1)
    mask |= ~(np.abs(grid.K) >= K_EPS)  # dual surface degenerates where K = 0
    if mask.all():
        raise DegenerateK(f"{spec.family_id}: relative curvature is numerically "
                          "zero on the whole grid; dual surface undefined")
    dual_grid = dataclasses.replace(grid, vertices=dual_pts, mask=mask)
    _write_text(obj_text(dual_grid), cfg.out)
    return 0


def cmd_trace(cfg: RunConfig) -> int:
    spec = _spec_from_cfg(cfg)
    if cfg.seed is None:
        raise ValueError("trace needs --seed u,v (the start point)")
    parts = cfg.seed.split(",")
    if len(parts) != 2:
        raise ValueError("trace --seed must be two numbers u,v")
    seed_uv = (float(parts[0]), float(parts[1]))
    kind = KIND_ALIASES.get(cfg.kind, cfg.kind)
    if kind not in TRACE_KINDS:
        raise ValueError(f"--kind must be one of {TRACE_KINDS} (or char+/char-)")
    tr = trace_direction_field(spec, seed_uv, kind, steps=cfg.steps, dt=cfg.dt)
    if cfg.out:
        tr.to_csv(cfg.out)
    else:
        tr.to_csv(sys.stdout)
    if tr.stopped:
        print(f"{spec.family_id}: trace stopped after {len(tr) - 1} steps "
              f"({tr.stopped})", file=sys.stderr)
    return 0


def _verify_combos(fid: str, cfg: RunConfig, hyps: list | None):
    """(hypothesis a, params) pairs for one family; invalid ones are dropped."""
    takes_a = "a" in fam.catalog_entry(fid).param_names
    if hyps is None:
        yield None, dict(cfg.params)
        return
    if not takes_a:
        yield -1.0, dict(cfg.params)
        return
    for aval in hyps:
        p = dict(cfg.params)
        if "a" not in p:
            p["a"] = aval
        yield aval, p


def _verify_row(spec: fam.FamilySpec, a_hyp: float, nu: int, nv: int,
                seed: int) -> tuple:
    grid = sample_grid(spec, nu, nv, a=a_hyp)
    valid = ~grid.mask
    crpc = float(np.nanmax(np.abs(grid.residual[valid])))
    max_h = float(np.max(np.abs(grid.H[valid])))

    ii, jj = np.where(valid)
    rng = np.random.default_rng(seed)
    take = rng.choice(len(ii), size=min(64, len(ii)), replace=False)
    take.sort()

    ode = 0.0
    for t in take:
        ode = max(ode, family_ode_residual(spec, grid.us[ii[t]], grid.vs[jj[t]]))

    def jet_fn(uu, vv):
        return fam.evaluate(spec, uu, vv, check=False)

    # the dual law K* K = 1 on the sampled nodes that are not too flat
    it, jt = ii[take], jj[take]
    K = grid.K[it, jt]
    keep = ~(np.abs(K) < 1e-6)
    dual_val = float("nan")
    if keep.any():
        dj = dual_map_jet(jet_fn, grid.us[it[keep]], grid.vs[jt[keep]])
        dcur = isotropic_curvatures(height_jet_from_param(dj))
        # NaN deviations are ignored, as a running Python max would
        dual_val = float(np.fmax.reduce(np.abs(dcur.K * K[keep] - 1.0), initial=0.0))
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

    rows = []
    any_fail = False
    for fid in fids:
        for a_hyp, params in _verify_combos(fid, cfg, hyps):
            try:
                spec = fam.make_spec(fid, params, cfg.domain)
            except InvalidParams:
                if len(fids) == 1 and hyps is not None and len(hyps) == 1:
                    raise  # a single explicit request should not vanish silently
                continue
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
            rows.append((fid, float(a_hyp), crpc, max_h, ode, dual_val, status))

    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [VERIFY_HEADER]
    for fid, a_hyp, crpc, max_h, ode, dual_val, status in rows:
        lines.append(",".join([
            fid, _fmt(a_hyp), str(nu), str(nv),
            _fmt(crpc), _fmt(max_h), _fmt(ode), _fmt(dual_val), status,
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
