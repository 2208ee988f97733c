"""Default-seed benchmark outputs against the sha256 digests recorded for them.

perfbench/digests.json holds the sha256 of every default-seed `trace` and
`mesh` output of the benchmark, which checks all of them in its own runs.
Here each family's first trace job, one more per family that rotates
through the kinds and step sizes, and the three smallest mesh jobs run
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
# trace jobs come family by family, 8 (kind, dt) pairs each. Job 8k is
# family k's characteristic+ trace at dt 1e-3; job 8k + 7 - k % 8 walks
# through the other kinds and both step sizes, and two of those dt 1e-2
# traces (trace-085, trace-099) stop early
_TRACE = WORKLOADS.make_jobs("trace", DIGESTS["seed"])
_PICKED = sorted({i for k in range(len(_TRACE) // 8) for i in (8 * k, 8 * k + 7 - k % 8)})
JOBS = ([("trace", _TRACE[i]) for i in _PICKED]
        + [("mesh", job) for job in _MESH[:3]])


@pytest.mark.parametrize("workload,job", JOBS, ids=[job["id"] for _, job in JOBS])
def test_output_matches_the_recorded_digest(workload, job, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(job["argv"] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[workload][job["id"]]
