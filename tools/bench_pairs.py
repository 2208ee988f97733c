"""Alternating pairs of benchmark runs: this checkout against a git revision.

    python tools/bench_pairs.py --rev HEAD~1 --workload verify --seed 0 --seconds 40 --pairs 10

One side of each pair is this checkout, as it is on disk; the other is
`git archive` of --rev, unpacked in a temporary directory, so nothing is
written under .git or in the checkout. A pair runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

once on each side, in a fresh interpreter, and the side that runs first
alternates from one pair to the next. The two trees must hold the same
perfbench/, or the runs would not measure the same thing: if they differ,
nothing runs.

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change wins and the verdict on a speed claim:
the change wins at least 9 of every 10 pairs, and the gap between the
medians, in the metric's better direction, exceeds the interquartile range
of the revision's runs. The exit code says only whether the runs worked:
0 when every run printed its result with correct outputs and no failed job,
1 when one did not, 2 when the perfbench/ trees differ.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SKIP = {"__pycache__", "_out"}  # what running the benchmark leaves in perfbench/


def _files(tree: pathlib.Path) -> dict[str, pathlib.Path]:
    base = tree / "perfbench"
    return {str(p.relative_to(base)): p for p in base.rglob("*")
            if p.is_file() and not SKIP & set(p.relative_to(base).parts)}


def same_perfbench(a: pathlib.Path, b: pathlib.Path) -> bool:
    """Whether two source trees hold the same files, byte for byte, in perfbench/."""
    fa, fb = _files(a), _files(b)
    return fa.keys() == fb.keys() and all(filecmp.cmp(fa[k], fb[k], shallow=False) for k in fa)


def unpack(rev: str, into: pathlib.Path) -> pathlib.Path:
    """`git archive` of rev, unpacked in the directory into."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    tree = into / "tree"
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter, where this Python has it, refuses links out of tree
        archive.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result JSON of one untraced run in tree, or None if it printed none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over pairs.

    parent[i] and change[i] are the two runs of pair i; better is "higher"
    or "lower". A pair is won when the change is strictly better. The verdict
    passes when the change wins at least 9 of every 10 pairs and the gap
    between the medians, counted in the better direction, exceeds the
    parent's interquartile range.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75]).tolist()
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75]).tolist()
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    gap = sign * (c_med - p_med)
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent), "gap": gap, "parent_iqr": p_q3 - p_q1,
            "passes": 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, choices=("verify", "trace", "mesh"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory() as tmp:
        base = unpack(args.rev, pathlib.Path(tmp))
        if not same_perfbench(ROOT, base):
            print(f"bench_pairs: perfbench/ differs between {args.rev} and this checkout")
            return 2
        runs = {"parent": [], "change": []}
        ok = True
        for i in range(args.pairs):
            order = [("change", ROOT), ("parent", base)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                result = run_once(tree, args.workload, args.seed, args.seconds)
                ok = ok and bool(result) and result["correct"] and result["failed"] == 0
                runs[side].append({m["name"]: result["metrics"][m["name"]]["value"]
                                   for m in metrics} if result else None)
            figures = "  ".join(f"{m['name']} {runs['parent'][-1][m['name']]:.6g} -> "
                                f"{runs['change'][-1][m['name']]:.6g}"
                                for m in metrics if runs["parent"][-1] and runs["change"][-1])
            print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): {figures}", flush=True)
        if not ok:
            print("bench_pairs: a run failed or gave wrong outputs")
            return 1
    for m in metrics:
        v = verdict([r[m["name"]] for r in runs["parent"]],
                    [r[m["name"]] for r in runs["change"]], m["better"])
        (p1, pm, p3), (c1, cm, c3) = v["parent"], v["change"]
        print(f"{m['name']} ({m['better']} is better): {args.rev} {pm:.6g} [{p1:.6g}, {p3:.6g}]"
              f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  wins {v['wins']}/{v['pairs']}"
              f"  gap {v['gap']:.6g} vs IQR {v['parent_iqr']:.6g}: "
              f"{'passes' if v['passes'] else 'does not pass'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
