"""The verdict of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ten pairs of rows/s: the parent's quartiles are 177.25 and 181.75 (IQR 4.5)
PARENT = [170.0, 178.0, 180.0, 182.0, 176.0, 179.0, 181.0, 183.0, 177.0, 185.0]


def test_a_clear_gain_passes(bench_pairs):
    change = [p + 15.0 for p in PARENT]
    v = bench_pairs.verdict(PARENT, change, "higher")
    assert v["parent"] == (177.25, 179.5, 181.75)
    assert v["wins"] == 10 and v["pairs"] == 10 and v["gap"] == 15.0
    assert v["parent_iqr"] == 4.5 and v["passes"]


def test_a_lower_is_better_metric_counts_falls_as_wins(bench_pairs):
    change = [p - 15.0 for p in PARENT]
    v = bench_pairs.verdict(PARENT, change, "lower")
    assert v["wins"] == 10 and v["gap"] == 15.0 and v["passes"]
    assert not bench_pairs.verdict(PARENT, change, "higher")["passes"]


def test_nine_wins_of_ten_pass_and_eight_do_not(bench_pairs):
    change = [p + 15.0 for p in PARENT]
    change[0] = PARENT[0] - 1.0
    assert bench_pairs.verdict(PARENT, change, "higher")["wins"] == 9
    assert bench_pairs.verdict(PARENT, change, "higher")["passes"]
    change[1] = PARENT[1]  # a tie is no win
    v = bench_pairs.verdict(PARENT, change, "higher")
    assert v["wins"] == 8 and not v["passes"]


def test_a_gap_within_the_parents_spread_does_not_pass(bench_pairs):
    # every pair won, but the medians are 4 apart and the parent's IQR is 4.5
    v = bench_pairs.verdict(PARENT, [p + 4.0 for p in PARENT], "higher")
    assert v["wins"] == 10 and v["gap"] == 4.0 and not v["passes"]


def test_one_pair_has_a_verdict(bench_pairs):
    v = bench_pairs.verdict([100.0], [101.0], "higher")
    assert v["wins"] == 1 and v["parent_iqr"] == 0.0 and v["passes"]
