"""What ``import sscn`` loads, and the sweep CSV of scripts/run_benchmark.py."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import sscn
from sscn.dual import SolverParams
from sscn.expcli import SweepSpec, rows_to_csv, run_sweep
from sscn.pair_opt import PairOptParams
from sscn.scenario import ScenarioConfig

REPO = Path(__file__).resolve().parents[1]


def test_import_sscn_loads_the_solver_modules_and_numpy():
    # the benchmark's setup_s times a fresh `import sscn`; that import must
    # keep doing the solver's module and numpy loading
    code = ("import json, sys, sscn; print(json.dumps({m: m in sys.modules for m in "
            "('sscn.dual', 'sscn.pair_opt', 'sscn.matching', 'numpy')}))")
    src = str(Path(sscn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = json.loads(proc.stdout)
    assert all(loaded.values()), loaded


def test_run_benchmark_script_writes_the_sweep_csv(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "run_benchmark", REPO / "scripts" / "run_benchmark.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "benchmark.csv"
    assert script.main(["--users", "4", "--trials", "1", "--dual-iters", "1",
                        "--out", str(out)]) == 0
    same = SweepSpec(
        axis="num_users", axis_values=(4,), variant="capacity", variant_values=(24,),
        trials=1, seed=0, base=ScenarioConfig(num_kbs=8),
        solver=SolverParams(dual_iters=1, pair=PairOptParams(
            sigma=1, max_iters=4, power_grid_points=32, power_refine=False)))
    assert out.read_bytes() == rows_to_csv(run_sweep(same)).encode("utf-8")
