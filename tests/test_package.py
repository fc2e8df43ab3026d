"""What ``import sscn`` loads, and what the scripts under scripts/ print and write."""

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


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_benchmark_script_writes_the_sweep_csv(tmp_path):
    script = _load_script("run_benchmark")
    out = tmp_path / "benchmark.csv"
    assert script.main(["--users", "4", "--trials", "1", "--dual-iters", "1",
                        "--out", str(out)]) == 0
    same = SweepSpec(
        axis="num_users", axis_values=(4,), variant="capacity", variant_values=(24,),
        trials=1, seed=0, base=ScenarioConfig(num_kbs=8),
        solver=SolverParams(dual_iters=1, pair=PairOptParams(
            sigma=1, max_iters=4, power_grid_points=32, power_refine=False)))
    assert out.read_bytes() == rows_to_csv(run_sweep(same)).encode("utf-8")


def test_show_convergence_script_prints_trace_and_summary(capsys):
    script = _load_script("show_convergence")
    assert script.main(["--users", "6", "--kbs", "4", "--iters", "2", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["iter", "dual", "value"]
    assert [line.split()[0] for line in lines[1:3]] == ["1", "2"]
    assert lines[3] == ""
    assert lines[4].startswith("final assignment: 3 pairs")
    assert lines[5].startswith("network SST ")
    assert lines[6].startswith("mean satisfaction ")
    assert lines[7] == "structural constraints ok: True"
    assert lines[-1].startswith(("delay cap exceeded", "minimum secrecy value missed",
                                 "all per-user delay and value targets met"))
