"""Every committed BENCH_*.json record matches the benchmark it reports on.

A record holds paired parent/change runs of perfbench/run.py: for each
workload of BENCHMARK.json and each of its end-to-end metrics, the
[q1, median, q3] of both sides, and how many of the pairs the change won.
Newer records also carry `ratio_median`, the median over the pairs of
change / parent; it must lie on the side of 1 that most pairs fell on.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_the_benchmark(path):
    record = json.loads(path.read_text())
    for key in ("parent", "change", "python", "cpu_count", "seeds", "workloads", "traced"):
        assert key in record, key
    assert record["seeds"]
    workloads = record["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, runs in workloads.items():
        assert set(runs) >= {m["name"] for m in BENCHMARK["end_to_end"]}, name
        for metric, stats in runs.items():
            for side in ("parent", "change"):
                q1, median, q3 = stats[side]
                assert q1 <= median <= q3, (name, metric, side)
            assert 0 <= stats["wins"] <= stats["pairs"], (name, metric)
            if "ratio_median" in stats and metric in BETTER:
                # a win is a ratio below 1 (lower is better) or above 1;
                # a majority of wins or of the rest fixes the median's side
                ratio, wins, pairs = stats["ratio_median"], stats["wins"], stats["pairs"]
                assert ratio > 0, (name, metric)
                below = ratio < 1 if BETTER[metric] == "lower" else ratio > 1
                if 2 * wins > pairs:
                    assert below, (name, metric, ratio, wins)
                elif 2 * wins < pairs:
                    assert not below, (name, metric, ratio, wins)
