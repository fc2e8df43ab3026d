#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sscn solver.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-users --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

    sweep-users    run_sweep over num_users in {20, 40} with the acceptance-suite
                   knobs and the schemes proposed, rpd and mpk
    solve-default  library-default solver knobs (dual_iters=2) on 12-user,
                   8-KB scenarios written by save_scenario and read back by
                   load_scenario in every trial
    certified-m12  exhaustive pair enumeration plus exact matching for 10 dual
                   iterations on dense 12-user cells

Every workload runs in this one process.  Its inputs (scenario seeds) are
drawn from ``--seed`` first, untimed.  Set-up then runs nine times, each time
after a short probe process that times a fresh interpreter's ``import sscn``;
``setup_s`` is the median over the nine of import time plus set-up time.
The run then repeats whole rounds of the workload's fixed trial set while the
next round is expected to end within ``--seconds``; the first round always
runs.  Each round's outputs are checked by ``check.py`` against
recomputations from the scenario arrays as soon as the round ends, outside
the timed section.  With ``--trace 1`` the calls into sscn's public functions are timed as spans
(``tracer.py``) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import csv
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 9


def import_sscn():
    """Import sscn from this checkout's src/, and refuse any other copy."""
    if not (SRC / "sscn" / "__init__.py").is_file():
        raise SystemExit(f"bench: no sscn package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import sscn

    where = Path(sscn.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported sscn from {where}, not from {SRC}")
    return where


SSCN_FILE = import_sscn()

import numpy as np  # noqa: E402
from sscn import dual, expcli, scenario  # noqa: E402
from sscn.pair_opt import PairOptParams  # noqa: E402

import check  # noqa: E402
from tracer import Tracer  # noqa: E402


def provenance() -> dict:
    """The imported sscn path, plus the commit and dirty flag if ROOT is a git tree."""
    info = {"sscn_file": str(SSCN_FILE), "commit": None, "dirty": None}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=30)
            info["commit"] = lines[1]
            info["dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def import_probe_s() -> float:
    """Seconds a fresh interpreter spends importing sscn (numpy included)."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import sscn; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def seed_rng(workload: str, seed: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{workload}|{seed}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


class Trial:
    """One scheme on one scenario: its inputs, result and solve time."""

    def __init__(self, scheme: str, scn, res=None, solve_s=None, error=None):
        self.scheme, self.scn, self.res = scheme, scn, res
        self.solve_s, self.error = solve_s, error


# --------------------------------------------------------------------------
# workloads: inputs(seed) -> inputs (untimed), setup(inputs) -> state (timed),
# run_round(state) -> list[Trial].  ``solve_s_p50`` is the median over
# proposed solves of ``timed_users`` users (all of them when None).
# --------------------------------------------------------------------------

def capture_sweep(spec) -> tuple[str, list[Trial]]:
    """Run one sweep and write its CSV text, capturing every trial it solves."""
    trials: list[Trial] = []
    solve_orig, base_orig = expcli.run_solver, expcli.run_baseline

    def solve(scn, params=None):
        t0 = time.perf_counter()
        try:
            res = solve_orig(scn, params)
        except Exception as exc:
            trials.append(Trial("proposed", scn, error=f"{type(exc).__name__}: {exc}"))
            raise
        trials.append(Trial("proposed", scn, res, time.perf_counter() - t0))
        return res

    def baseline(scn, kind, seed):
        try:
            res = base_orig(scn, kind, seed)
        except Exception as exc:
            trials.append(Trial(str(kind), scn, error=f"{type(exc).__name__}: {exc}"))
            raise
        trials.append(Trial(str(kind), scn, res))
        return res

    expcli.run_solver, expcli.run_baseline = solve, baseline
    try:
        text = expcli.rows_to_csv(expcli.run_sweep(spec))
    finally:
        expcli.run_solver, expcli.run_baseline = solve_orig, base_orig
    return text, trials


class SweepUsers:
    """run_sweep over num_users in {20, 40} with the acceptance-suite knobs."""

    name = "sweep-users"
    trials = 4
    timed_users = 40

    def inputs(self, seed: int) -> dict:
        return {"seed": seed, "sweep_seed": int(seed_rng(self.name, seed).integers(2**31))}

    def setup(self, inputs: dict):
        solver = dual.SolverParams(
            dual_iters=2,
            pair=PairOptParams(sigma=1, max_iters=4, power_grid_points=32, power_refine=False))
        spec = expcli.SweepSpec(
            axis="num_users", axis_values=(20, self.timed_users), variant="capacity",
            variant_values=(24,), schemes=("proposed", "rpd", "mpk"), trials=self.trials,
            seed=inputs["sweep_seed"], base=scenario.ScenarioConfig(num_kbs=8), solver=solver)
        return {"spec": spec, "csv": OUT / f"sweep-users-{inputs['seed']}.csv"}

    def run_round(self, state) -> list[Trial]:
        text, trials = capture_sweep(state["spec"])
        state["csv"].write_text(text, encoding="utf-8")
        state["csv_text"] = text
        return trials


class SolveDefault:
    """Library-default knobs except dual_iters=2, scenarios read from files."""

    name = "solve-default"
    scenarios = 6
    eligible_pairs = 30
    timed_users = None

    @staticmethod
    def config(rng_seed: int):
        return scenario.ScenarioConfig(num_users=12, num_kbs=8, rng_seed=rng_seed)

    def inputs(self, seed: int) -> dict:
        """Seeds of six scenarios with exactly 30 eligible pairs.

        The search takes a seed-dependent number of draws, so it picks the
        inputs and is not set-up; set-up makes the same six files every time.
        """
        rng = seed_rng(self.name, seed)
        seeds: list[int] = []
        while len(seeds) < self.scenarios:
            rng_seed = int(rng.integers(2**31))
            scn = scenario.generate_scenario(self.config(rng_seed))
            if len(scn.eligible_pairs()) == self.eligible_pairs:
                seeds.append(rng_seed)
        return {"seed": seed, "scenario_seeds": seeds}

    def setup(self, inputs: dict):
        paths = []
        for n, rng_seed in enumerate(inputs["scenario_seeds"]):
            path = OUT / "scenarios" / f"solve-default-{inputs['seed']}-{n}.scn"
            scenario.save_scenario(scenario.generate_scenario(self.config(rng_seed)), str(path))
            paths.append(path)
        return {"paths": paths, "params": dual.SolverParams(dual_iters=2)}

    def run_round(self, state) -> list[Trial]:
        return [solve_trial(lambda: scenario.load_scenario(str(path)), state["params"])
                for path in state["paths"]]


class CertifiedM12:
    """Exhaustive pair search plus exact matching on dense 12-user cells."""

    name = "certified-m12"
    scenarios = 4
    timed_users = None

    def inputs(self, seed: int) -> dict:
        rng = seed_rng(self.name, seed)
        return {"scenario_seeds": [int(rng.integers(2**31)) for _ in range(self.scenarios)]}

    def setup(self, inputs: dict):
        scns = []
        for rng_seed in inputs["scenario_seeds"]:
            cfg = scenario.ScenarioConfig(num_users=12, num_kbs=6, cell_radius_m=100.0,
                                          rng_seed=rng_seed)
            scns.append(scenario.generate_scenario(cfg))
            if len(scns[-1].eligible_pairs()) != 66:
                raise RuntimeError("a 100 m cell must make all 66 pairs eligible")
        params = dual.SolverParams(
            dual_iters=10, matching_mode="exact",
            pair=PairOptParams(exhaustive=True, power_grid_points=32, power_refine=False))
        return {"scenarios": scns, "params": params}

    def run_round(self, state) -> list[Trial]:
        return [solve_trial(lambda scn=scn: scn, state["params"])
                for scn in state["scenarios"]]


WORKLOADS = {w.name: w for w in (SweepUsers(), SolveDefault(), CertifiedM12())}


def solve_trial(get_scenario, params) -> Trial:
    """Read or fetch one scenario, then one timed proposed-scheme solve."""
    scn = None
    try:
        scn = get_scenario()
        t0 = time.perf_counter()
        res = dual.run_solver(scn, params)
        return Trial("proposed", scn, res, time.perf_counter() - t0)
    except Exception as exc:
        return Trial("proposed", scn, error=f"{type(exc).__name__}: {exc}")


def solve_times(work, trials) -> list[float]:
    return [t.solve_s for t in trials
            if t.scheme == "proposed" and t.res is not None
            and work.timed_users in (None, t.scn.num_users)]


# --------------------------------------------------------------------------
# checks, run outside the timed section
# --------------------------------------------------------------------------

def sweep_rows(csv_text: str) -> dict:
    return {(row["scheme"], int(row["axis_value"])): row
            for row in csv.DictReader(io.StringIO(csv_text))}


def check_round(state, trials: list[Trial], reference: dict) -> tuple[list[list[str]], list]:
    """Problems per trial of one round, and the checked outcomes.

    ``reference`` holds round 0's SSTs and sweep rows; every round must
    reproduce them exactly.  A sweep row's problems go to the trials of that
    row's (scheme, num_users) cell only.
    """
    problems: list[list[str]] = [[] for _ in trials]
    outcomes, sweep_trials = [], []
    for t, trial in enumerate(trials):
        if trial.error is not None:
            problems[t].append(trial.error)
            continue
        out = check.outcome_from_result(trial.scheme, trial.res,
                                        expcli.trial_metrics(trial.res))
        problems[t] += check.check_outcome(trial.scn, out)
        if t >= len(reference["sst"]) or reference["sst"][t] != out.sst:
            problems[t].append(f"trial {t} differs from round 0")
        outcomes.append(out)
        sweep_trials.append((trial.scheme, trial.scn.num_users,
                             check.recomputed_per_link(trial.scn, out)))
    if "csv_text" in state:
        sweep = check.check_sweep(state["csv_text"], sweep_trials)
        rows, ref = sweep_rows(state["csv_text"]), reference["rows"]
        sweep += [(cell, f"sweep row {cell} differs from round 0")
                  for cell in sorted(rows.keys() | ref.keys()) if rows.get(cell) != ref.get(cell)]
        for cell, problem in sweep:
            for t, trial in enumerate(trials):
                if cell is None or cell == (trial.scheme, trial.scn.num_users):
                    problems[t].append(problem)
    return problems, outcomes


def check_matchings(tracer) -> tuple[list[float], list[str]]:
    """Chosen/optimum weight ratios of every pairing, and exact-pairing problems.

    The captured matchings are not tied to trials, so a non-optimal exact
    pairing fails no trial; it makes the run incorrect.
    """
    ratios, problems = [], []
    for scores, mode, partner in tracer.matchings:
        best = check.optimum_matching_weight(scores)
        if best > 0.0:
            ratios.append(check.pairing_weight(scores, partner) / best)
        if mode == "exact":
            problems += check.check_exact_matching(scores, partner)
    return ratios, problems


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def measure(work, state, seconds: float) -> dict:
    """Run whole rounds while the next is expected to fit in ``seconds``.

    Each round is checked, outside the timed section, as soon as it ends.
    Only its checked outcomes, a few small arrays per trial, are kept; its
    scenarios and solver results are dropped.
    """
    run = {"timed_s": 0.0, "problems": [], "outcomes": [], "solve_times": [], "raised": 0}
    reference = None
    while True:
        start = time.perf_counter()
        trials = work.run_round(state)
        took = time.perf_counter() - start
        run["timed_s"] += took
        if reference is None:
            reference = {"sst": [None if t.res is None else float(t.res.sst) for t in trials],
                         "rows": sweep_rows(state.get("csv_text", ""))}
        problems, outcomes = check_round(state, trials, reference)
        run["problems"].append(problems)
        run["outcomes"] += outcomes
        run["solve_times"] += solve_times(work, trials)
        run["raised"] += sum(1 for t in trials if t.error is not None)
        if run["timed_s"] + took > seconds:
            return run


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    (OUT / "scenarios").mkdir(parents=True, exist_ok=True)
    info = provenance()
    print("provenance " + json.dumps(info), flush=True)

    inputs = work.inputs(args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_probe_s())
        t0 = time.perf_counter()
        state = work.setup(inputs)
        setup_times.append(time.perf_counter() - t0)
    import_s = statistics.median(import_times)
    setup_s = statistics.median(imp + up for imp, up in zip(import_times, setup_times))

    if tracer is not None:
        tracer.start_timed_section()
    run = measure(work, state, args.seconds)
    if tracer is not None:
        tracer.uninstall()

    problems, rounds = run["problems"], len(run["problems"])
    ratios, matching_problems = check_matchings(tracer) if tracer is not None else ([], [])
    flat = [p for round_problems in problems for p in round_problems]
    attempted = len(flat)
    failed = sum(1 for p in flat if p)
    trials_per_s = attempted / run["timed_s"]
    proposed = [out for out in run["outcomes"] if out.scheme == "proposed"]

    if tracer is not None:
        layers = tracer.layer_metrics(rounds, import_s, ratios)
        if proposed:
            layers["expcli.mean_delay_per_link_ms"] = (
                1e3 * statistics.fmean(out.per_link[1] for out in proposed), "ms")
        layers["trace.trials_per_s"] = (trials_per_s, "1/s")
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    else:
        # median over links: after few dual iterations the mean is dominated by
        # the handful of directions close to saturation
        delays = [rep[k] for out in proposed for rep in out.pair_reports.values() for k in (2, 3)]
        times = run["solve_times"]
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "solve_s_p50": metric(statistics.median(times) if times else float("nan"), "s"),
            "trials_per_s": metric(trials_per_s, "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB"),
            "sst_per_link": metric(statistics.fmean(out.per_link[0] for out in proposed)
                                   if proposed else float("nan"), "value/s"),
            "delay_per_link_ms": metric(1e3 * statistics.median(delays)
                                        if delays else float("nan"), "ms"),
        }

    for round_problems in problems:
        for p in round_problems:
            for line in p[:5]:
                print(f"check: {line}", file=sys.stderr)
    for line in matching_problems:
        print(f"check: {line}", file=sys.stderr)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": info, "rounds": rounds,
              "timed_s": run["timed_s"], "setup_times_s": setup_times,
              "import_times_s": import_times,
              "solve_times_s": run["solve_times"],
              "problems": problems, "matching_problems": matching_problems,
              "metrics": metrics}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        (OUT / f"trace-{tag}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "note"],
                        "spans": tracer.spans}), encoding="utf-8")
    correct = failed == run["raised"] and not matching_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
