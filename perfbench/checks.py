"""Output checks for benchmark jobs.

Each check reads what one CLI call wrote and returns (work, problem): the
amount of work the output shows (verify rows, accepted RK4 steps, grid
nodes) and None, or a one-line description of what is wrong. Residual
digits of `verify` rows are not compared, because reordering float
operations may change their last digits. Warnings on stderr are allowed;
only the lines the CLI prints on purpose are read from it.
"""

from __future__ import annotations

import math
import re

import numpy as np

VERIFY_HEADER = ("family,a,nu,nv,max_abs_crpc_residual,max_abs_H,"
                 "ode_residual,dualK_residual,status")
TRACE_HEADER = "t,x,y,z,tx,ty"
STATS_LINE = re.compile(r"^(\S+): (\d+) vertices, (\d+) quads, (\d+) nodes masked$")
STOP_LINE = re.compile(r"^(\S+): trace stopped after (\d+) steps \((.+)\)$")


def _fmt(x: float) -> str:
    return "%.17g" % (x + 0.0)


def check_verify(job: dict, text: str, stderr: str):
    lines = text.split("\n")
    if len(lines) != 3 or lines[0] != VERIFY_HEADER or lines[2] != "":
        return 0, "verify output is not a header and one row"
    cols = lines[1].split(",")
    if len(cols) != 9:
        return 0, f"verify row has {len(cols)} columns"
    nu, nv = job["res"]
    want = [job["family"], _fmt(job["a"]), str(nu), str(nv)]
    if cols[:4] != want or cols[8] != "PASS":
        return 0, f"verify row {cols[:4] + cols[8:]} != {want + ['PASS']}"
    if not all(math.isfinite(float(c)) for c in cols[4:8]):
        return 0, "verify residual is not finite"
    return 1, None


def check_trace(job: dict, text: str, stderr: str):
    header, _, body = text.partition("\n")
    if header != TRACE_HEADER or not body.endswith("\n"):
        return 0, "trace CSV header or line ending is wrong"
    rows = body.count("\n")
    vals = body.replace("\n", ",").split(",")[:-1]
    if len(vals) != 6 * rows:
        return 0, "trace CSV rows do not have 6 columns"
    if not np.all(np.isfinite(np.array(vals, dtype=float))):
        return 0, "trace CSV has a non-finite value"
    steps = rows - 1
    stops = [m for m in map(STOP_LINE.match, stderr.splitlines()) if m]
    if steps == job["steps"] and not stops:
        return steps, None
    if (len(stops) != 1 or stops[0].group(1) != job["family"]
            or int(stops[0].group(2)) != steps):
        return 0, f"trace has {steps} of {job['steps']} steps and stderr {stderr[-200:]!r}"
    return steps, None


def check_obj(job: dict, text: str, stderr: str, subcommand: str):
    nu, nv = job["res"]
    if not text.endswith("\n"):
        return 0, "OBJ does not end with a newline"
    cut = text.find("\nf ") + 1
    vpart, fpart = (text[:cut], text[cut:]) if cut else (text, "")
    n_v, n_f = vpart.count("\n"), fpart.count("\n")
    if ("\n" + vpart).count("\nv ") != n_v or ("\n" + fpart).count("\nf ") != n_f:
        return 0, "OBJ has a line that is neither a vertex nor a face, or they interleave"
    coords = vpart.replace("v ", " ").split()
    if len(coords) != 3 * n_v or not np.all(np.isfinite(np.array(coords, dtype=float))):
        return 0, "OBJ vertex lines are not 3 finite numbers"
    faces = fpart.replace("f ", " ").split()
    if len(faces) != 4 * n_f:
        return 0, "OBJ face lines do not have 4 indices"
    if n_f:
        idx = np.array(faces, dtype=np.int64)
        if idx.min() < 1 or idx.max() > n_v:
            return 0, "OBJ face index out of range"
    if not 0 < n_v <= nu * nv:
        return 0, f"OBJ has {n_v} vertices for a {nu}x{nv} grid"
    if subcommand == "dual":
        return nu * nv, None
    stats = [m for m in map(STATS_LINE.match, stderr.splitlines()) if m]
    if len(stats) != 1:
        return 0, "generate did not print one vertex/quad line"
    fid, verts, quads, masked = stats[0].group(1), *map(int, stats[0].group(2, 3, 4))
    if fid != job["family"] or (verts, quads) != (n_v, n_f) or verts + masked != nu * nv:
        return 0, (f"generate reported {verts} vertices, {quads} quads, {masked} masked; "
                   f"OBJ has {n_v} and {n_f} on a {nu}x{nv} grid")
    return nu * nv, None


def check(job: dict, text: str, stderr: str):
    subcommand = job["argv"][0]
    if subcommand == "verify":
        return check_verify(job, text, stderr)
    if subcommand == "trace":
        return check_trace(job, text, stderr)
    return check_obj(job, text, stderr, subcommand)
