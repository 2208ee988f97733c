"""Command line front end: catalog listing, meshes, checks, traces, duals.

Subcommands: list | generate | verify | trace | dual, each with only the
flags it reads (SUBCOMMANDS); argparse only splits argv. A value comes from
the flag, else from a flat JSON config file (--config) with the same keys,
else from the default, and the flag's one reader reads it (Flag). A value
that cannot be read exits 1 with an `error: --<flag> ...` line; a flag the
subcommand does not read exits 2. All emitters use fixed float formatting
and fixed iteration order, so outputs are byte-deterministic for a given
configuration and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import default_rng  # numpy 2 loads it lazily: here, not in the first verify row

from . import families as fam
from .duality import dual_law_deviation
from .errors import GeometryError, InvalidParams, NonAdmissiblePoint
from .geometry import crpc_target
from .meshing import dual_grid, fmt_float, grid_shape, obj_text, sample_grid, write_text
from .curves import TRACE_KINDS, trace_direction_field, trace_dt, trace_steps
from .residuals import family_ode_residual

FAMILY_ALIASES = {"rotational_power": "rotational_power_1"}
# trace --kind: each direction field by its name and by its alias
KINDS = {**dict(zip(TRACE_KINDS, TRACE_KINDS)), "char+": "characteristic+",
         "char-": "characteristic-"}
DEFAULT_TOL = {"crpc": 1e-8, "H": 1e-9, "ode": 1e-8, "dual": 1e-4}
VERIFY_HEADER = ("family,a,nu,nv,max_abs_crpc_residual,max_abs_H,"
                 "ode_residual,dualK_residual,status")

# accept "-2", "-0.5,2", "-1e-3,2" etc. as option values, not option names
_NUM_U = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NEG_NUMBER_LIST = re.compile(rf"^-{_NUM_U}(?:,-?{_NUM_U})*$")


@dataclass(frozen=True)
class Flag:
    """A flag's help, its one reader, and the values a config file may give.

    read turns argv text into what the commands use. It raises ValueError (or
    KeyError) where the text is not of the form, and InvalidParams, which
    reads on after the flag's name, where a well-formed value is refused.
    json_types are the
    types a config value may have, where float is any number and true is
    none; a list's or an object's entries are numbers, and sep joins a list.
    A flag that takes no str is a switch. default is argv text, or a
    switch's bool.
    """

    help: str
    read: Callable
    form: str = ""
    json_types: tuple = (str,)
    sep: str = ","
    default: object = None


def _ratio(text: str) -> float:
    a = float(text)
    crpc_target(a)
    return a


def _pairs(text: str, form: str) -> dict:
    """k=v,... as {k: float(v)}; blank entries are skipped."""
    out = {}
    for item in filter(str.strip, text.split(",")):
        if "=" not in item:
            raise InvalidParams(f"entries must look like {form}, got {item.strip()!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = float(v)
    return out


def _domain(text: str) -> tuple:
    box = tuple(map(float, text.split(",")))
    if not fam.valid_domain(box):
        raise InvalidParams(f"needs umin < umax, vmin < vmax, finite widths: {box}")
    return box


def _res(text: str) -> tuple:
    nu, nv = map(int, text.lower().split("x"))
    return grid_shape(nu, nv)


def _tol(text: str) -> dict:
    if text.strip() and "=" not in text:
        # a bare number tightens the residual checks, not the H/dual ones
        tol = dict.fromkeys(("crpc", "ode"), float(text))
    else:
        tol = _pairs(text, "name=value")
    for k, v in tol.items():
        if k not in DEFAULT_TOL:
            raise InvalidParams(f"names unknown tolerance {k!r} (use {sorted(DEFAULT_TOL)})")
        # a NaN or negative bound fails every row, an infinite one none
        if not 0.0 <= v < math.inf:
            raise InvalidParams(f"{k} must be finite and >= 0, got {v}")
    return tol


def _rng_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise InvalidParams(f"must be >= 0 for verify, got {seed}")
    return seed


def _start_point(text: str) -> tuple:
    u, v = map(float, text.split(","))
    if not (math.isfinite(u) and math.isfinite(v)):
        raise InvalidParams(f"must be finite, got {text!r}")
    return u, v


FLAGS = {
    "family": Flag("family id (see the list subcommand)",
                   lambda text: FAMILY_ALIASES.get(text, text)),
    "a": Flag("curvature ratio", _ratio, "a number", (str, float)),
    "params": Flag("extra parameters, k=v,...",
                   lambda text: _pairs(text, "k=v"), "k=v,... with numbers v",
                   (str, dict), default=""),
    "domain": Flag("umin,umax,vmin,vmax chart box", _domain, "umin,umax,vmin,vmax", (str, list)),
    "res": Flag("grid resolution NUxNV (default 50x50)", _res, "NUxNV", (str, list), "x",
                default="50x50"),
    "tol": Flag("tolerance or name=value,... (crpc, H, ode, dual)", _tol,
                "a number or name=value,...", (str, float, dict), default=""),
    "kind": Flag("characteristic+|characteristic-|principal1|principal2 (char+/char- ok)",
                 KINDS.__getitem__, "one of " + ", ".join(KINDS),
                 default="characteristic+"),
    "steps": Flag("integration steps", lambda text: trace_steps(int(text)), "an integer",
                  (str, int), default="1000"),
    "dt": Flag("top-view arclength step", lambda text: trace_dt(float(text)), "a number",
               (str, float), default="1e-3"),
    "json": Flag("JSON output", bool, json_types=(bool,), default=False),
    "out": Flag("output file (default: stdout)", str),
}
# verify reads --a as a comma list of ratios; --seed is verify's RNG seed
# and trace's start point
RATIOS = Flag("curvature ratios, comma list",
               lambda text: tuple(map(_ratio, filter(str.strip, text.split(",")))),
               "numbers a1,a2,...", (str, float))
RNG_SEED = Flag("RNG seed (default 0)", _rng_seed, "an integer for verify", (str, int),
                default="0")
START_POINT = Flag("start point u,v", _start_point, "two numbers u,v")


def _table(names: str, **own: Flag) -> dict:
    """name -> Flag for the flags a subcommand reads besides --config."""
    flags = {**FLAGS, **own}
    return {name: flags[name] for name in names.split()}


_JSON_NAMES = {float: "number", list: "list of numbers", dict: "dict of numbers"}


def _is(value, kind: type) -> bool:
    """Whether value has the JSON type kind: float is any number, and true is none."""
    return (isinstance(value, (int, float) if kind is float else kind)
            and isinstance(value, bool) == (kind is bool))


def _read(name: str, flag: Flag, value):
    """What the commands use for one flag's argv text or config value; an
    error that starts with the flag's name where the value cannot be read."""
    entries = (value.values() if isinstance(value, dict)
               else value if isinstance(value, list) else ())
    if not (any(_is(value, kind) for kind in flag.json_types)
            and all(_is(entry, float) for entry in entries)):
        names = " or ".join(_JSON_NAMES.get(kind, kind.__name__) for kind in flag.json_types)
        raise ValueError(f"--{name} must be {names}, got {value!r}")
    if isinstance(value, dict):
        text = ",".join(f"{k}={v!r}" for k, v in value.items())
    elif isinstance(value, list):
        text = flag.sep.join(map(repr, value))
    else:
        text = value if isinstance(value, (str, bool)) else repr(value)
    try:
        return flag.read(text)
    except InvalidParams as exc:
        raise InvalidParams(f"--{name} {exc}") from None
    except (ValueError, KeyError):
        raise ValueError(f"--{name} must be {flag.form}, got {text!r}") from None


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="isocrpc",
        description="Surfaces with a constant ratio of principal curvatures: "
                    "meshes, traces, duals, and numerical verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags, _cmd) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag_name, flag in flags.items():
            switch = {} if str in flag.json_types else {"action": "store_const", "const": True}
            p.add_argument(f"--{flag_name}", help=flag.help, **switch)
        p.add_argument("--config", help="JSON file with flat keys mirroring the flags")
        p._negative_number_matcher = _NEG_NUMBER_LIST
    parser._negative_number_matcher = _NEG_NUMBER_LIST
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The subcommand and the values of the flags it reads, each read by its
    flag's reader; None where no value is given and the flag has no default,
    and for the flags of FLAGS that the subcommand does not read."""
    flags = SUBCOMMANDS[args.subcommand][1]
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a flat JSON object")
        unread = sorted(set(file_cfg) - set(flags))
        if unread:
            raise ValueError(f"{args.subcommand} does not read config keys {unread}")
    values = dict.fromkeys(FLAGS)
    for name, flag in flags.items():
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name)
        if value is None:
            value = flag.default
        values[name] = None if value is None else _read(name, flag, value)
    return argparse.Namespace(subcommand=args.subcommand, **values)


def _write_text(text: str, out: str | None) -> None:
    write_text(text, out or sys.stdout)


def _spec_from_cfg(cfg: argparse.Namespace) -> fam.FamilySpec:
    if not cfg.family:
        raise InvalidParams("a --family is required")
    params = dict(cfg.params)
    if cfg.a is not None:
        params.setdefault("a", cfg.a)
    return fam.make_spec(cfg.family, params, cfg.domain)


def cmd_list(cfg: argparse.Namespace) -> int:
    rows = []
    for fid in fam.family_ids():
        entry = fam.catalog_entry(fid)
        spec = fam.make_spec(fid)
        rows.append({
            "family": fid,
            "constraint": entry.constraint_text,
            "ratio": entry.ratio_text or ("a" if "a" in spec.params else "-1"),
            "params": dict(spec.params),
            "default_domain": list(spec.domain),
            "singular_loci": [name for name, _dist in entry.loci(spec.params)],
        })
    if cfg.json:
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


def cmd_generate(cfg: argparse.Namespace) -> int:
    spec = _spec_from_cfg(cfg)
    grid = sample_grid(spec, *cfg.res)
    _write_text(obj_text(grid), cfg.out)
    st = grid.stats()
    print(f"{spec.family_id}: {st['n_valid']} vertices, {len(grid.quads)} quads, "
          f"{st['n_masked']} nodes masked", file=sys.stderr)
    return 0


def cmd_dual(cfg: argparse.Namespace) -> int:
    _write_text(obj_text(dual_grid(_spec_from_cfg(cfg), *cfg.res)), cfg.out)
    return 0


def cmd_trace(cfg: argparse.Namespace) -> int:
    spec = _spec_from_cfg(cfg)
    if cfg.seed is None:
        raise ValueError("trace needs --seed u,v (the start point)")
    tr = trace_direction_field(spec, cfg.seed, cfg.kind, steps=cfg.steps, dt=cfg.dt)
    tr.to_csv(cfg.out or sys.stdout)
    if tr.stopped:
        print(f"{spec.family_id}: trace stopped after {len(tr) - 1} steps "
              f"({tr.stopped})", file=sys.stderr)
    return 0


def _verify_combos(fid: str, cfg: argparse.Namespace):
    """(hypothesis a, params) pairs for one family; --params a=... wins over --a.

    The hypothesis is None, to be read off the spec, without --a and for a
    family that takes no ratio.
    """
    if cfg.a is None or "a" not in fam.catalog_entry(fid).defaults:
        yield None, dict(cfg.params)
    else:
        for aval in cfg.a:
            yield aval, {"a": aval, **cfg.params}


def _verify_row(spec: fam.FamilySpec, a_hyp: float, nu: int, nv: int,
                seed: int) -> tuple:
    grid = sample_grid(spec, nu, nv, a=a_hyp, heights=False)
    st = grid.stats()

    ii, jj = np.where(~grid.mask)
    rng = default_rng(seed)
    take = rng.choice(len(ii), size=min(64, len(ii)), replace=False)
    take.sort()
    ii, jj = ii[take], jj[take]
    us, vs = grid.us[ii], grid.vs[jj]
    # the equations read chart derivatives the grid does not keep, so the
    # nodes are evaluated again; a NaN residual is ignored (fmax), unless
    # every one is NaN (the sample is never empty: sample_grid raises first)
    ode = float(np.fmax.reduce(family_ode_residual(spec, us, vs)))

    # the dual law K* K = 1 on the sampled nodes that are not too flat, from
    # the grid's curvatures there
    try:
        dual_val, _ = dual_law_deviation(spec, us, vs, grid.H[ii, jj], grid.K[ii, jj])
    except NonAdmissiblePoint:
        dual_val = float("nan")  # every sampled node is too flat
    return st["max_abs_residual"], st["max_abs_H"], ode, dual_val


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.family in (None, "all"):
        fids = fam.family_ids()
    else:
        fids = (cfg.family,)
        fam.catalog_entry(fids[0])  # fail fast on unknown names
    nu, nv = cfg.res
    tol = {**DEFAULT_TOL, **cfg.tol}

    # a family that refuses a combination drops it, named on stderr, but
    # every --a value must give at least one row
    specs, refused, skipped = [], {}, []
    for fid in fids:
        for a_hyp, params in _verify_combos(fid, cfg):
            try:
                specs.append((fam.make_spec(fid, params, cfg.domain), a_hyp))
            except InvalidParams as exc:
                refused.setdefault(a_hyp, exc)
                shown = ",".join(f"{k}={fmt_float(v)}" for k, v in params.items())
                skipped.append(f"verify: skipped {fid} {shown or '(defaults)'}: {exc}")
    for aval in cfg.a or ():
        if not any(a_hyp == aval for _spec, a_hyp in specs):
            why = refused.get(aval, "the requested families take no ratio")
            raise InvalidParams(f"--a {aval!r} gives no row: {why}")
    for line in skipped:
        print(line, file=sys.stderr)

    rows = []
    for spec, a_hyp in specs:
        if a_hyp is None:
            a_hyp = fam.ratio_for_residual(spec)
        error = None
        try:
            crpc, max_h, ode, dual_val = _verify_row(spec, a_hyp, nu, nv, cfg.seed)
            ok = (crpc <= tol["crpc"] and ode <= tol["ode"]
                  and dual_val <= tol["dual"])
            if fam.is_minimal(spec):
                ok = ok and max_h <= tol["H"]
            status = "PASS" if ok else "FAIL"
        except GeometryError as exc:
            crpc = max_h = ode = dual_val = math.nan
            status, error = "ERROR", exc
        rows.append((spec.family_id, a_hyp, crpc, max_h, ode, dual_val, status, error))

    # an ERROR row is all NaN; its reason goes to stderr, one line a row
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = [VERIFY_HEADER]
    for fid, a_hyp, crpc, max_h, ode, dual_val, status, error in rows:
        lines.append(",".join([
            fid, fmt_float(a_hyp), str(nu), str(nv),
            fmt_float(crpc), fmt_float(max_h), fmt_float(ode), fmt_float(dual_val), status,
        ]))
        if error is not None:
            print(f"verify: {fid} a={fmt_float(a_hyp)}: {error}", file=sys.stderr)
    _write_text("\n".join(lines) + "\n", cfg.out)
    if not rows:
        print("verify: no valid (family, a) combination", file=sys.stderr)
        return 1
    return 1 if any(row[6] != "PASS" for row in rows) else 0


_MESH_FLAGS = "family a params domain res out"
# subcommand -> (help, the flags it reads besides --config, its command)
SUBCOMMANDS = {
    "list": ("print the family catalog", _table("json out"), cmd_list),
    "generate": ("sample a family and write an OBJ mesh", _table(_MESH_FLAGS), cmd_generate),
    "verify": ("run residual checks, write a CSV report",
               _table(f"{_MESH_FLAGS} tol seed", a=RATIOS, seed=RNG_SEED), cmd_verify),
    "trace": ("trace a direction field, write a CSV curve",
              _table("family a params seed kind steps dt out", seed=START_POINT), cmd_trace),
    "dual": ("write the OBJ mesh of the dual surface", _table(_MESH_FLAGS), cmd_dual),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return SUBCOMMANDS[cfg.subcommand][2](cfg)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
