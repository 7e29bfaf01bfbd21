"""The verdicts of scripts/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]  # q3 - q1 = 0.2


def runs(parent: list[float], change: list[float], name: str = "cycle_s") -> list[dict]:
    """The result lines of one workload's pairs, as bench_pairs keeps them."""
    return [
        {"workload": "w", "seed": seed, "side": side, "metrics": {name: {"value": value}}}
        for seed, pair in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), pair)
    ]


@pytest.mark.parametrize(
    "change, better, expected",
    [
        # better in every pair by more than the parent's spread
        ([v - 0.5 for v in PARENT], "lower", "gain"),
        ([v + 0.5 for v in PARENT], "higher", "gain"),
        # 9 of 10 pairs is enough; the 10th may lose
        ([v - 0.5 for v in PARENT[:9]] + [PARENT[9] + 1.0], "lower", "gain"),
        # 8 wins and 2 ties are not 9 wins
        ([v - 0.5 for v in PARENT[:8]] + PARENT[8:], "lower", "no change"),
        # every pair won, but by less than the parent's q3 - q1
        ([v - 0.1 for v in PARENT], "lower", "no change"),
        ([v + 0.1 for v in PARENT], "lower", "no change"),
        # worse by more than bound x median (2.5 of 10)
        ([v + 3.0 for v in PARENT], "lower", "regression"),
        ([v - 3.0 for v in PARENT], "higher", "regression"),
        ([v + 2.4 for v in PARENT], "lower", "no change"),
    ],
)
def test_verdict(change, better, expected):
    assert bench_pairs.verdict(PARENT, change, better, 0.25) == expected


# peak_rss_mb of BENCH_33.json's gbdt_fit pairs, seeds 3301-3310: 10 wins, a -0.13% median move
RSS_PARENT = [122.578125, 122.703125, 122.6875, 122.7421875, 122.6953125,
              122.74609375, 122.734375, 122.66015625, 122.62109375, 122.7109375]
RSS_CHANGE = [122.52734375, 122.4921875, 122.5546875, 122.6015625, 122.5078125,
              122.62890625, 122.52734375, 122.546875, 122.45703125, 122.609375]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # every pair won by more than the parent's spread, but by 0.13%
        (RSS_PARENT, RSS_CHANGE, "no change"),
        # every pair won by 1.5% over a parent spread of 0.2%
        ([v + 90.0 for v in PARENT], [(v + 90.0) * 0.985 for v in PARENT], "gain"),
    ],
    ids=["sub-noise", "above-floor"],
)
def test_verdict_gain_needs_bound_over_20_of_the_median(parent, change, expected):
    assert bench_pairs.verdict(parent, change, "lower", 0.25) == expected


def test_wide_parent_is_unresolved():
    parent = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]  # q3 - q1 > 2.5
    assert bench_pairs.verdict(parent, parent, "lower", 0.25) == "unresolved"
    # a regression is named as one however wide the parent runs spread
    assert bench_pairs.verdict(parent, [v + 5.0 for v in parent], "lower", 0.25) == "regression"


def test_summary_carries_the_verdict_under_the_benchmark_bound():
    metrics = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = bench_pairs.summarize(runs(PARENT, [v - 0.5 for v in PARENT]), metrics)
    entry = summary["w"]["cycle_s"]
    assert (entry["verdict"], entry["change_wins"], entry["ties"], entry["pairs"]) == ("gain", 10, 0, 10)
    regressed = bench_pairs.summarize(runs(PARENT, [v * 1.3 for v in PARENT]), metrics)
    assert regressed["w"]["cycle_s"]["verdict"] == "regression"
