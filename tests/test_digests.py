"""Default-seed benchmark outputs against the sha256 digests recorded for them.

perfbench/digests.json holds the sha256 of every default-seed `trace` and
`mesh` output of the benchmark, which checks all of them in its own runs.
Here every eighth trace job and the three smallest mesh jobs run
in-process, so that a change to those bytes fails the tests as well. Both
perfbench files are only read.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from isocrpc.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
_MESH = sorted(WORKLOADS.make_jobs("mesh", DIGESTS["seed"]),
               key=lambda job: job["res"][0] * job["res"][1])
JOBS = ([("trace", job) for job in WORKLOADS.make_jobs("trace", DIGESTS["seed"])[::8]]
        + [("mesh", job) for job in _MESH[:3]])


@pytest.mark.parametrize("workload,job", JOBS, ids=[job["id"] for _, job in JOBS])
def test_output_matches_the_recorded_digest(workload, job, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(job["argv"] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[workload][job["id"]]
