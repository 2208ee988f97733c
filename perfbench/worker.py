"""Run one pass of benchmark jobs in this (fresh) interpreter.

Reads {"src", "outdir", "jobs", "trace", "spans"} as JSON on stdin, imports
`isocrpc.cli` from `src` once, then calls `isocrpc.cli.main(argv)` for each
job in order and times each call. Outputs stay in `outdir`; run.py checks
them after this process has ended, so that `peak_rss_mb` is the library's
and not the checker's. Prints one JSON object on stdout: the import time,
per-job seconds, output paths, stderr and problems, the reference-kernel
times, the peak resident memory, the library versions and, when traced, the
per-layer summary. With no jobs it is a set-up probe. README.md explains
the reference kernel and how run.py uses its times.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


REFERENCE_ROWS = 6000
REFERENCE_RUNS = 2


def reference_seconds() -> float:
    """Time of a fixed float-formatting loop, a gauge of the machine's current speed.

    Of the kernels tried (a bare float loop, small numpy calls, float
    formatting, large numpy arrays), formatting followed the time of the same
    job from one pass to the next most closely on all three workloads.
    """
    t = time.perf_counter()
    for _ in range(REFERENCE_RUNS):
        "\n".join("%.17g %.17g" % (i * 0.1, i * 0.3) for i in range(REFERENCE_ROWS))
    return time.perf_counter() - t


def main() -> int:
    spec = json.load(sys.stdin)
    src = spec["src"]
    sys.path.insert(0, src)
    ref_before = reference_seconds()
    t0 = time.perf_counter()
    import isocrpc.cli as cli
    import_s = time.perf_counter() - t0
    ref_after = reference_seconds()
    import_ref_s = (ref_before + ref_after) / 2
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"isocrpc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from tracer import Tracer

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    jobs = spec["jobs"]
    os.makedirs(spec["outdir"], exist_ok=True)
    results = []
    for i, job in enumerate(jobs):
        ext = {"verify": ".csv", "trace": ".csv"}.get(job["argv"][0], ".obj")
        out = os.path.join(spec["outdir"], job["id"] + ext)
        argv = job["argv"] + ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        problem = None
        if tracer is not None:
            tracer.job = i
        ref_before = ref_after  # the kernel run after one job is the one before the next
        t = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception:  # noqa: BLE001 - a traceback is a failed job, not a crash
                rc, problem = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - t
        ref_after = reference_seconds()
        ref_s = (ref_before + ref_after) / 2
        if tracer is not None:
            tracer.job = -1
        if problem is None and rc != 0:
            problem = f"exit code {rc}: {stderr.getvalue().strip()[:200]}"
        elif problem is None and stdout.getvalue():
            problem = "unexpected output on stdout"
        results.append({"id": job["id"], "seconds": seconds, "reference_s": ref_s,
                        "out": out, "stderr": stderr.getvalue(), "problem": problem})

    report = {
        "import_s": import_s,
        "import_reference_s": import_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "jobs": results,
    }
    if tracer is not None:
        generate = {i for i, job in enumerate(jobs) if job["argv"][0] == "generate"}
        report["layers"] = tracer.summary(generate)
        report["sites"] = tracer.sites
        if spec["spans"]:
            tracer.write(spec["spans"], [job["id"] for job in jobs])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
