"""Output fingerprints of the benchmark jobs, to show that a change keeps them.

    python tools/same_outputs.py --seed 0 --seed 1 > after.jsonl
    python tools/same_outputs.py --diff before.jsonl after.jsonl

The first form runs every job of the given seeds of the verify, trace and
mesh workloads in one interpreter through isocrpc.cli.main, with isocrpc
imported from the src/ of this checkout, and writes one JSON line per job:
its workload, seed and id, the sha256 of its output file, its stdout, its
stderr and its exit code; a verify job's record also keeps its one CSV row,
field by field. Outputs go to a temporary directory, whose path is written
as <out> wherever a message names it. The job lists come from
perfbench/workloads.py, which is only read.

The second form lists every job whose line differs between two such files,
or that only one of them has, with what differs in brackets (the verify
row's fields, else the record's keys), and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprints(seeds: list[int]):
    """One record per job of every workload of each seed, in the worker's order."""
    sys.path.insert(0, str(ROOT / "src"))
    from isocrpc import cli

    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                for job in workloads.make_jobs(workload, seed):
                    ext = ".csv" if job["argv"][0] in ("verify", "trace") else ".obj"
                    out = pathlib.Path(tmp, job["id"] + ext)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        try:
                            rc = cli.main(job["argv"] + ["--out", str(out)])
                        except SystemExit as exc:  # argparse rejected the command line
                            rc = exc.code
                    data = out.read_bytes() if out.exists() else None
                    out.unlink(missing_ok=True)
                    record = {"workload": workload, "seed": seed, "id": job["id"],
                              "sha256": data and hashlib.sha256(data).hexdigest(),
                              "stdout": stdout.getvalue().replace(tmp, "<out>"),
                              "stderr": stderr.getvalue().replace(tmp, "<out>"), "rc": rc}
                    if workload == "verify" and data is not None:
                        header, row = data.decode().splitlines()
                        record["row"] = dict(zip(header.split(","), row.split(",")))
                    yield record


def _read(path: str) -> dict:
    records = (json.loads(line) for line in pathlib.Path(path).read_text().splitlines())
    return {(r["workload"], r["seed"], r["id"]): r for r in records}


def _differing(old: dict | None, new: dict | None) -> list[str]:
    """What differs between two records of one job: the fields of a verify
    row, which then stand for the sha256 of its file, and the other keys."""
    if old is None or new is None:
        return ["only in " + ("after" if old is None else "before")]
    keys = {k for k in old.keys() | new.keys() if old.get(k) != new.get(k)}
    rows = old.get("row") or {}, new.get("row") or {}
    fields = sorted(f for f in rows[0].keys() | rows[1].keys() if rows[0].get(f) != rows[1].get(f))
    if fields:
        keys -= {"row", "sha256"}
    return fields + sorted(keys)


def diff(before: str, after: str) -> int:
    old, new = _read(before), _read(after)
    differ = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in differ:
        workload, seed, job_id = key
        names = ", ".join(_differing(old.get(key), new.get(key)))
        print(f"differs: {workload} seed {seed} {job_id} [{names}]")
    print(f"same_outputs: {len(differ)} of {len(old.keys() | new.keys())} jobs differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="a workload seed; repeat for more (default: 0)")
    parser.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two fingerprint files instead of running jobs")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    for record in fingerprints(args.seed or [0]):
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
