"""Quick self-check of the benchmark: a tiny version of each workload.

    python3 perfbench/selfcheck.py

Runs a few small jobs of every workload once untraced and once traced,
with all output checks, and fails if any output is bad, if a layer the
workload must reach records no calls, or if the per-layer metrics differ
from those BENCHMARK.json declares. Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    bad = 0
    for name in workloads.WORKLOADS:
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED, tiny=True)
        metrics, passes, info = run.per_layer(name, jobs)
        _, failed, problems = run.check_passes(name, -1, passes)
        missing = info["layers_without_calls"]
        print(f"{name}: {len(jobs)} jobs, {failed} bad outputs, "
              f"layers without calls: {missing or 'none'}")
        for line in problems + [f"no calls: {k}" for k in missing]:
            print(f"  {line}")
        bad += failed + len(missing)
    if sorted(metrics) != sorted(declared):
        print(f"per-layer metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}")
        bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
