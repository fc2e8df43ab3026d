"""The benchmark's result line: one round of bench/run.py per workload and mode."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


@pytest.mark.parametrize("workload,trace", [
    ("certified-m12", 0), ("certified-m12", 1), ("sweep-users", 1),
])
def test_bench_run_ends_in_a_strict_json_result(workload, trace):
    # --seconds 0 runs exactly one round; a stray print or a NaN/inf metric
    # would leave a last line that strict JSON readers refuse
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--seed", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    if not trace:
        declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
        assert {m["name"] for m in declared["end_to_end"]} <= result["metrics"].keys()
