"""isocrpc benchmark: end-to-end figures per workload, or per-layer figures.

    python3 perfbench/run.py --workload {verify,trace,mesh} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout; the library is imported from `src/`, nothing
is installed. README.md is the one account of how a run works, what each
workload and metric is, and why times are scaled to a reference speed.
The last line of stdout is the result JSON; the line before it records the
environment, the job count and the fraction of bad outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# worker.reference_seconds() at the machine speed that times are scaled to
REFERENCE_S = 0.012
JOB_TIMEOUT_S = 170

# layers each workload must reach; a traced run that misses one fails
EXPECTED_LAYERS = {
    "verify": ("cli.main", "cli._write_text", "families.evaluate",
               "geometry.height_jet_from_param", "geometry.isotropic_curvatures",
               "duality.dual_map_jet", "duality.dual_velocity",
               "residuals.family_ode_residual", "meshing.sample_grid"),
    "trace": ("cli.main", "families.evaluate", "geometry.height_jet_from_param",
              "geometry.isotropic_curvatures", "geometry.characteristic_directions",
              "curves.trace_direction_field", "curves.CurveTrace.to_csv"),
    "mesh": ("cli.main", "cli._write_text", "families.evaluate", "meshing.sample_grid",
             "meshing.MeshGrid.quad_indices", "meshing.MeshGrid.stats",
             "meshing.obj_text"),
}
UNITS = {"calls": "count", "self_s": "s", "points": "count", "points_per_call": "count",
         "calls_per_rk4_step": "count", "nodes": "count", "masked_frac": "fraction",
         "bytes": "bytes", "steps": "count", "stopped_frac": "fraction",
         "calls_per_generate": "count", "spans": "count", "overhead_s": "s",
         "scipy_s": "s", "isocrpc_self_s": "s"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    return env


def _python(args: list, stdin: str | None = None) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                              text=True, env=_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish in {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} failed:\n{proc.stderr.strip()[-2000:]}")
    return proc


def run_pass(workload: str, jobs: list, trace: bool = False) -> dict:
    """One worker pass over `jobs`, then the check of every output it left."""
    outdir = os.path.join(OUT, workload)
    shutil.rmtree(outdir, ignore_errors=True)
    spec = {"src": SRC, "outdir": outdir, "jobs": jobs, "trace": trace,
            "spans": os.path.join(OUT, f"spans-{workload}.tsv") if trace else None}
    out = _python([os.path.join(HERE, "worker.py")], json.dumps(spec)).stdout
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {out[-500:]!r}") from exc
    for job, r in zip(jobs, report["jobs"]):
        r["work"], r["sha256"] = 0, None
        if r["problem"] is None:
            try:
                with open(r["out"], "rb") as fh:
                    data = fh.read()
                r["sha256"] = hashlib.sha256(data).hexdigest()
                r["work"], r["problem"] = checks.check(job, data.decode("ascii"), r["stderr"])
            except (OSError, ValueError) as exc:
                r["problem"] = f"output unreadable: {exc}"
        with contextlib.suppress(FileNotFoundError):
            os.remove(r["out"])
    return report


def import_breakdown() -> dict:
    """scipy's share and isocrpc's own share of `import isocrpc.cli`, in seconds."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import isocrpc.cli"
    err = _python(["-X", "importtime", "-c", code]).stderr
    rows = []  # (depth, self_us, cumulative_us, module), children before parents
    for line in err.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(self_us), int(cum_us), name.strip()))
    scipy_us = isocrpc_us = 0
    ancestors: list[str] = []
    for depth, self_us, cum_us, name in reversed(rows):  # parents first
        del ancestors[depth:]
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy"
                                                     for a in ancestors):
            scipy_us += cum_us
        if name.split(".")[0] == "isocrpc":
            isocrpc_us += self_us
        ancestors.append(name)
    return {"import.scipy_s": scipy_us / 1e6, "import.isocrpc_self_s": isocrpc_us / 1e6}


def check_passes(workload: str, seed: int, passes: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) over all passes, digests included."""
    digests = {}
    if seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh).get(workload, {})
    attempted = failed = 0
    problems = []
    for p in passes:
        for r in p["jobs"]:
            attempted += 1
            problem = r["problem"]
            if problem is None and r["id"] in digests and r["sha256"] != digests[r["id"]]:
                problem = "output differs from the recorded sha256"
            if problem is not None:
                failed += 1
                problems.append(f"{r['id']}: {problem}")
    return attempted, failed, problems


def _scaled_job_seconds(report: dict) -> float:
    """Total job time of one pass, scaled to the reference speed."""
    return sum(r["seconds"] * REFERENCE_S / r["reference_s"] for r in report["jobs"])


def _time_figures(probes: list, passes: list, scaled: bool) -> dict:
    """Set-up and per-job times, and work per second, scaled or as measured."""
    def t(seconds: float, reference_s: float) -> float:
        return seconds * REFERENCE_S / reference_s if scaled else seconds

    per_job = {}
    for p in passes:
        for r in p["jobs"]:
            per_job.setdefault(r["id"], []).append(t(r["seconds"], r["reference_s"]))
    job_s = [statistics.median(v) for v in per_job.values()]  # median over passes
    return {
        "setup_s": statistics.median(t(p["import_s"], p["import_reference_s"])
                                     for p in probes),
        "job_p50_s": statistics.median(job_s),
        "job_p90_s": statistics.quantiles(job_s, n=10)[-1],
        "work_per_s": statistics.median(
            sum(r["work"] for r in p["jobs"])
            / sum(t(r["seconds"], r["reference_s"]) for r in p["jobs"]) for p in passes),
    }


def end_to_end(workload: str, jobs: list, seconds: float) -> tuple[dict, list, dict]:
    start = time.perf_counter()
    run_pass(workload, [])  # warm-up: byte-compiles a fresh checkout
    probes = [run_pass(workload, []) for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, jobs))
        now = time.perf_counter()
        if now + (now - t) > start + seconds:
            break
    scaled = _time_figures(probes, passes, scaled=True)
    metrics = {name: (value, "1/s" if name == "work_per_s" else "s")
               for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    info = {"passes": len(passes), "job_samples": len(passes[0]["jobs"]),
            f"{workloads.WORK_UNIT[workload]}_per_s": scaled["work_per_s"],
            "reference_s": statistics.median(
                r["reference_s"] for p in passes for r in p["jobs"]),
            "unscaled": _time_figures(probes, passes, scaled=False),
            "versions": passes[0]["versions"]}
    return metrics, passes, info


def per_layer(workload: str, jobs: list) -> tuple[dict, list, dict]:
    plain = run_pass(workload, jobs)
    traced = run_pass(workload, jobs, trace=True)
    layers = traced["layers"]
    missing = [name for name in EXPECTED_LAYERS[workload] if not layers[f"{name}.calls"]]
    layers["tracing.overhead_s"] = _scaled_job_seconds(traced) - _scaled_job_seconds(plain)
    layers.update(import_breakdown())
    metrics = {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in layers.items()}
    info = {"passes": 2, "lookup_sites": traced["sites"], "layers_without_calls": missing,
            "versions": traced["versions"]}
    return metrics, [plain, traced], info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "isocrpc", "cli.py")):
        print(f"no isocrpc sources under {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.make_jobs(args.workload, args.seed)
    try:
        if args.trace:
            metrics, passes, info = per_layer(args.workload, jobs)
        else:
            metrics, passes, info = end_to_end(args.workload, jobs, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = check_passes(args.workload, args.seed, passes)
    for line in problems[:20]:
        print(f"bad output: {line}", file=sys.stderr)
    correct = failed == 0
    if args.trace and info["layers_without_calls"]:
        print(f"layers with no calls: {info['layers_without_calls']}", file=sys.stderr)
        correct = False
    info.update({
        "workload": args.workload, "seed": args.seed, "jobs": len(jobs),
        "work_unit": workloads.WORK_UNIT[args.workload],
        "bad_output_frac": failed / attempted,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: _env()[k] for k in THREAD_VARS},
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
