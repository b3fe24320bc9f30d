"""Tests of the benchmark itself: python3 -m pytest bench -q

They run ``run.py`` in subprocesses, about a minute and a half in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

# counts later changes may cite: they must repeat exactly for a seed
EXACT_COUNTS = {
    "network_sweep": ("fock.apply_beamsplitter.calls", "fock.terms_in",
                      "cloner.run_physical.calls"),
    "tomo_report": ("tomography.mle.calls", "tomography.mle.iterations"),
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_requests(name):
    workload = workloads.WORKLOADS[name]()
    first = [workloads.block(workload, 11, k) for k in range(2)]
    again = [workloads.block(workload, 11, k) for k in range(2)]
    other = [workloads.block(workload, 12, k) for k in range(2)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert len(first[0]) == len(first[1])


@pytest.mark.parametrize("name", sorted(EXACT_COUNTS))
def test_traced_counts_repeat_exactly(name):
    results = []
    for _ in range(2):
        proc = run_bench(ROOT, "--workload", name, "--seed", "5",
                         "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append({k: result["metrics"][k]["value"]
                        for k in EXACT_COUNTS[name]})
    assert results[0] == results[1]
    assert all(v > 0 for v in results[0].values())


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, "--workload", "network_sweep", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
