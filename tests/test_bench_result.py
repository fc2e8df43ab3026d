"""The benchmark's result line: one round of bench/run.py per workload and mode."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reject_non_finite

REPO = Path(__file__).resolve().parents[1]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload,trace", [
    ("certified-m12", 0), ("certified-m12", 1), ("sweep-users", 1), ("solve-default", 1),
])
def test_bench_run_ends_in_a_strict_json_result(workload, trace):
    # --seconds 0 runs exactly one round; a stray print or a NaN/inf metric
    # would leave a last line that strict JSON readers refuse
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"), "--workload", workload,
         "--seconds", "0", "--seed", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_non_finite)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    # a traced run leaves out the metrics of every name it could not wrap,
    # and counts 0 calls of a name the solver binds but no longer calls
    wanted = {m["name"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert wanted <= result["metrics"].keys(), sorted(wanted - result["metrics"].keys())
    if trace:
        assert result["metrics"]["pair_opt.subproblem_calls"]["value"] > 0


def test_every_traced_name_exists_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = list(tracer.PUBLIC)
    names += [("sscn.dual", name) for name in tracer.DUAL_BOUND]
    names += [("sscn.pair_opt", name) for name in tracer.PAIR_OPT_GLOBALS]
    missing = [(home, name) for home, name in names
               if not hasattr(importlib.import_module(home), name)]
    assert not missing
