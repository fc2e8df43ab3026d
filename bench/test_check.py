"""The checker accepts sscn's output and rejects each deliberate corruption.

Run from the repository root:  python3 -m pytest -q bench/test_check.py
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import check  # noqa: E402
import run  # noqa: E402
from sscn import expcli  # noqa: E402
from sscn.baselines import run_baseline  # noqa: E402
from sscn.dual import SolverParams, run_solver  # noqa: E402
from sscn.pair_opt import PairOptParams  # noqa: E402
from sscn.scenario import ScenarioConfig, generate_scenario  # noqa: E402

KNOBS = SolverParams(dual_iters=2, pair=PairOptParams(sigma=1, max_iters=4,
                                                       power_grid_points=32,
                                                       power_refine=False))


@pytest.fixture(scope="module")
def scn():
    return generate_scenario(ScenarioConfig(num_users=12, num_kbs=8, capacity=16, rng_seed=3))


@pytest.fixture(scope="module")
def proposed(scn):
    res = run_solver(scn, KNOBS)
    return check.outcome_from_result("proposed", res, expcli.trial_metrics(res))


def matched(out):
    return [(u, int(v)) for u, v in enumerate(out.partner) if v > u]


def assert_rejected(problems, fragment):
    assert any(fragment in p for p in problems), problems


@pytest.mark.parametrize("scheme", ["proposed", "rpd", "mpk"])
def test_accepts_sscn_output(scn, scheme):
    res = run_solver(scn, KNOBS) if scheme == "proposed" else run_baseline(scn, scheme, 5)
    out = check.outcome_from_result(scheme, res, expcli.trial_metrics(res))
    assert matched(out)
    assert check.check_outcome(scn, out) == []


def test_rejects_power_above_p_max(scn, proposed):
    bad = copy.deepcopy(proposed)
    bad.powers[matched(bad)[0][0]] = scn.config.p_max_w * 1.01
    assert_rejected(check.check_outcome(scn, bad), "powers outside")


def test_rejects_one_sided_partner(scn, proposed):
    bad = copy.deepcopy(proposed)
    i, j = matched(bad)[0]
    bad.partner[j] = -1
    assert_rejected(check.check_outcome(scn, bad), f"not symmetric at user {i}")


def test_rejects_sst_off_by_one_part_per_million(scn, proposed):
    bad = copy.deepcopy(proposed)
    bad.sst *= 1.0 + 1e-6
    assert_rejected(check.check_outcome(scn, bad), "sst ")


def test_rejects_cache_over_capacity(scn, proposed):
    assert int(scn.catalog.sizes.sum()) > scn.config.capacity
    bad = copy.deepcopy(proposed)
    bad.caches[0, :] = 1
    assert_rejected(check.check_outcome(scn, bad), "> capacity")


def test_rejects_direction_past_unit_utilisation(scn, proposed):
    bad = copy.deepcopy(proposed)
    for i, j in matched(bad):
        full = check.direction(scn, i, j, bad.caches[i], bad.caches[j], scn.config.p_max_w)
        if full["util"] > 1.0:
            bad.powers[i] = scn.config.p_max_w
            break
    else:
        pytest.fail("no matched direction overloads at full power")
    assert_rejected(check.check_outcome(scn, bad), f"solver direction {i}->{j} is unstable")


def test_sweep_check_accepts_and_rejects():
    spec = expcli.SweepSpec(axis="num_users", axis_values=(12,), variant="capacity",
                            variant_values=(24,), trials=2, seed=4,
                            base=ScenarioConfig(num_kbs=8), solver=KNOBS)
    text, captured = run.capture_sweep(spec)
    trials = []
    for trial in captured:
        out = check.outcome_from_result(trial.scheme, trial.res, expcli.trial_metrics(trial.res))
        trials.append((trial.scheme, 12, check.recomputed_per_link(trial.scn, out)))
    assert check.check_sweep(text, trials) == []
    shifted = [(s, m, (v[0] * (1 + 1e-6),) + v[1:]) if s == "rpd" else (s, m, v)
               for s, m, v in trials]
    bad = check.check_sweep(text, shifted)
    assert {cell for cell, _ in bad} == {("rpd", 12)}
    assert_rejected([p for _, p in bad], "mean_sst")
    lines = text.splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith("proposed,"))
    fields = lines[row].split(",")
    fields[5] = "0.0"  # mean_sst
    lines[row] = ",".join(fields)
    bad = check.check_sweep("\n".join(lines) + "\n", trials)
    assert_rejected([p for cell, p in bad if cell == ("proposed", 12)], "does not exceed rpd")


def test_exact_matching_check():
    scores = np.full((4, 4), -np.inf)
    for (i, j), w in {(0, 1): 3.0, (1, 2): 4.0, (2, 3): 3.0}.items():
        scores[i, j] = scores[j, i] = w
    assert check.check_exact_matching(scores, np.array([1, 0, 3, 2])) == []
    assert_rejected(check.check_exact_matching(scores, np.array([-1, 2, 1, -1])),
                    "max-weight matching")
