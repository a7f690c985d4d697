"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Counts from two traced runs of the same seed must repeat exactly, and a
checkout without the twohop sources must make the benchmark fail without a
result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"

# counts each workload must produce (non-zero) and repeat
COUNTS = {
    "table-sweep": ("gridsearch.candidates", "model.exact_evals", "cli.grid_solves_per_request",
                    "greedy.iterations"),
    "simulate": ("mcsim.batches", "mcsim.node_draws"),
}


def run(workload: str, cwd: Path = ROOT, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "5", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_traced_counts_repeat(workload):
    first, second = result(run(workload)), result(run(workload))
    assert first["correct"] and second["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_fails_without_sources():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("table-sweep", cwd=SCRATCH, trace=0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
