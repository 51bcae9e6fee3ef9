"""Smoke check of the benchmark on tiny instances, with no timing gate.

Every workload must run in both modes with every check passing, exact
counts must repeat across two traced runs of one seed, and a directory
without the program's sources must be refused.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ["kdm", "kdm_2w", "xkc_yes", "xkc_no"]


def bench(workload: str, trace: int, seed: int = 0, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=120)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_every_check_passes(workload, trace):
    res = result(bench(workload, trace))
    assert res["correct"], res
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    def counts():
        assert result(bench(workload, 1, seed=3))["correct"]
        record = json.loads((OUT / f"{workload}-seed3-smoke-trace1.json").read_text())
        return {name: m["value"] for name, m in record["metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first["solver.probes"] > 0
    assert counts() == first


def test_refused_without_program_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("kdm", 0, root=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    shutil.rmtree(bare)
