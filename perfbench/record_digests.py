"""Record the sha256 of every default-seed `mesh` and `trace` output.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py compares the outputs of the
default seed against. Record it again only when the job generator changes;
a change to the library that alters these bytes is a regression.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    digests = {"seed": workloads.DEFAULT_SEED}
    for name in ("mesh", "trace"):
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED)
        result = run.run_pass(name, jobs)
        bad = [r for r in result["jobs"] if r["problem"] is not None]
        if bad:
            print(f"{name}: not recording, {len(bad)} bad outputs: {bad[0]}", file=sys.stderr)
            return 1
        digests[name] = {r["id"]: r["sha256"] for r in sorted(result["jobs"],
                                                              key=lambda r: r["id"])}
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
