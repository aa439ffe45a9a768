"""Tests for tools/bench_pairs.py: the verdict, the pairs the change won and
whether that is a resolved gain (at least nine tenths of the pairs, ties
counting for neither, and the medians further apart than the parent's
quartiles), and the command line the file records."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.0 + 0.01 * k for k in range(10)]  # quartiles 1.0175 and 1.0725


def test_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr_is_resolved():
    change = [p - 0.2 for p in PARENT]
    change[0] = PARENT[0] + 0.1
    verdict = bench_pairs.won(PARENT, change, "lower")
    assert verdict.startswith("change lower in 9 of 10 pairs; median gap 0.19 ")
    assert verdict.endswith("gain resolved")


def test_eight_of_ten_pairs_is_not_resolved():
    change = [p - 0.2 for p in PARENT]
    change[0] = change[1] = PARENT[1] + 0.1
    verdict = bench_pairs.won(PARENT, change, "lower")
    assert verdict.startswith("change lower in 8 of 10 pairs")
    assert verdict.endswith("gain not resolved")


def test_a_gap_inside_the_parent_iqr_is_not_resolved():
    change = [p - 0.01 for p in PARENT]
    verdict = bench_pairs.won(PARENT, change, "lower")
    assert verdict.startswith("change lower in 10 of 10 pairs")
    assert verdict.endswith("gain not resolved")


def test_ties_count_for_neither_side():
    verdict = bench_pairs.won([1.0] * 10, [1.0] * 10, "higher")
    assert verdict.startswith("change higher in 0 of 10 pairs, equal in 10")
    assert verdict.endswith("gain not resolved")


def test_a_higher_is_better_metric_wins_upwards():
    change = [p + 0.2 for p in PARENT]
    assert bench_pairs.won(PARENT, change, "higher").endswith("gain resolved")
    assert bench_pairs.won(PARENT, change, "lower").startswith("change lower in 0 of 10")


def test_the_recorded_command_names_no_local_path():
    args = bench_pairs.parse(["/work/a/parent-copy", "../b", "--pr", "27", "--workloads", "fine",
                              "--out", "/work/BENCH_27.json", "--seconds", "8"])
    assert bench_pairs.command(args) == ("python3 tools/bench_pairs.py parent change --pr 27 "
                                         "--workloads fine --pairs 10 --seconds 8.0 --first-seed 1")
    defaults = bench_pairs.parse(["--pr", "3", "x", "y", "--first-seed", "301"])
    assert bench_pairs.command(defaults) == ("python3 tools/bench_pairs.py parent change --pr 3 "
                                             "--pairs 10 --first-seed 301")
