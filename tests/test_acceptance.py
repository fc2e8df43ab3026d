"""End-to-end acceptance checks for the whole package.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see
them on success; on failure the line shows up in the captured output) and then
asserts, so a red criterion is never silently skipped.  Tolerances and time
budgets are stated inline next to each check.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from conftest import ZIPF3, make_hand_pair

from sscn.baselines import run_baseline
from sscn.dual import SolverParams, delivered_sst, run_solver
from sscn.expcli import CSV_HEADER, SweepSpec, rows_to_csv, run_sweep
from sscn.matching import (
    OmegaMatrix,
    build_omega,
    matching_weight,
    solve_dup,
)
from sscn.metrics import CacheVector, cache_fits, meets_eta
from sscn.pair_opt import (
    InfeasiblePairError,
    PairOptParams,
    pair_score,
    solve_pair_subproblem,
    stable_power_upper_bound,
)
from sscn.queueing import QueueStats, pk_delay, simulate_mg1
from sscn.scenario import (
    ScenarioConfig,
    ScenarioGenerationError,
    generate_scenario,
    zipf_probabilities,
)

# Fast-but-faithful solver settings used by the benchmark-scale criteria.
BENCH = SolverParams(
    dual_iters=2,
    pair=PairOptParams(sigma=1, max_iters=4, power_grid_points=32, power_refine=False),
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Closed-form mean queueing delay vs discrete-event simulation: 20 random
#    multi-class configs, utilization 0.1-0.8, 1e6 packets each, every config
#    within 5% relative error, whole check under 2 minutes.
# ---------------------------------------------------------------------------
def test_criterion_1_delay_formula_matches_simulation():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for t in range(20):
        classes = 1 + t % 4
        means = rng.uniform(2e-3, 2e-2, classes)
        shares = rng.dirichlet(np.ones(classes))
        util = rng.uniform(0.1, 0.8)
        per_class = shares * means
        mean_s = float(per_class.sum())
        lam = util / mean_s
        stats = QueueStats(lam, mean_s, float(np.sum(per_class**2)))
        sim = simulate_mg1(lam * shares, means, horizon=1_000_000, seed=1000 + t)
        ref = pk_delay(stats)
        worst = max(worst, abs(sim - ref) / ref)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and elapsed < 120.0
    _report(
        "criterion 1 (delay formula vs simulation)",
        ok,
        f"worst relative error {worst:.4f} (tol 0.05) over 20 configs, "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 2. Single-class special case: arrival rate 50/s, exponential interpretation
#    at rate 200/s -> mean wait 50 / (200 * 150) exactly, tolerance 1e-9.
# ---------------------------------------------------------------------------
def test_criterion_2_single_class_special_case():
    got = pk_delay(QueueStats(50.0, 1.0 / 200.0, (1.0 / 200.0) ** 2))
    expected = 50.0 / (200.0 * 150.0)
    err = abs(got - expected)
    _report(
        "criterion 2 (single-class closed form)",
        err <= 1e-9,
        f"|{got!r} - {expected!r}| = {err:.3e} (tol 1e-9)",
    )


# ---------------------------------------------------------------------------
# 3. On 20 tiny instances (4 users, 3 KBs) the two-stage pipeline --
#    exhaustive per-pair cache search over a 5-level power grid, then exact
#    matching -- must equal a from-scratch brute force over every cache pair,
#    power level and matching, within 1e-9, in under 5 minutes total.
# ---------------------------------------------------------------------------
_LEVELS = 5


def _direction_best(scn, s, r, cache_s, cache_r, tau_s, rho_s):
    ub = stable_power_upper_bound(scn, s, r, cache_s, cache_r)
    best = -math.inf
    for level in range(_LEVELS):
        p = ub * level / (_LEVELS - 1)
        best = max(
            best, pair_score(scn, s, r, cache_s, cache_r, p, 0.0, tau_s, 0.0, rho_s, 0.0)
        )
    return best


def _pair_best(scn, i, j, tau, rho):
    cfg = scn.config
    best = -math.inf
    for bits_i in itertools.product((0, 1), repeat=cfg.num_kbs):
        ci = CacheVector(i, bits_i)
        if not cache_fits(ci, scn.catalog.sizes, cfg.capacity):
            continue
        if not meets_eta(ci, scn.catalog.user_probs[i], cfg.eta_min):
            continue
        for bits_j in itertools.product((0, 1), repeat=cfg.num_kbs):
            cj = CacheVector(j, bits_j)
            if not cache_fits(cj, scn.catalog.sizes, cfg.capacity):
                continue
            if not meets_eta(cj, scn.catalog.user_probs[j], cfg.eta_min):
                continue
            score = _direction_best(scn, i, j, ci, cj, tau[i], rho[i]) + _direction_best(
                scn, j, i, cj, ci, tau[j], rho[j]
            )
            best = max(best, score)
    return best


def _all_matchings(pairs):
    out = [[]]

    def extend(base, used, start):
        for k in range(start, len(pairs)):
            i, j = pairs[k]
            if i in used or j in used:
                continue
            chosen = base + [pairs[k]]
            out.append(chosen)
            extend(chosen, used | {i, j}, k + 1)

    extend([], set(), 0)
    return out


def test_criterion_3_two_stage_equals_brute_force():
    t0 = time.monotonic()
    worst = 0.0
    params = PairOptParams(exhaustive=True, power_grid_points=_LEVELS, power_refine=False)
    for t in range(20):
        cfg = ScenarioConfig(
            num_users=4, num_kbs=3, cell_radius_m=40.0, rng_seed=3000 + t
        )
        scn = generate_scenario(cfg)
        tau = np.ones(4)
        rho = np.ones(4)
        pairs = scn.eligible_pairs()
        sols = {p: solve_pair_subproblem(scn, p[0], p[1], tau, rho, params) for p in pairs}
        omega = build_omega(sols, 4)
        two_stage = matching_weight(omega, solve_dup(omega, mode="exact"))
        cell = {p: _pair_best(scn, p[0], p[1], tau, rho) for p in pairs}
        brute = max(sum(cell[p] for p in m) for m in _all_matchings(pairs))
        worst = max(worst, abs(two_stage - brute))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 300.0
    _report(
        "criterion 3 (two-stage pipeline vs brute force)",
        ok,
        f"worst |two_stage - brute_force| = {worst:.3e} (tol 1e-9) on 20 instances, "
        f"{elapsed:.1f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# 4. Tabu search must reach at least 95% of the exhaustive per-pair optimum on
#    at least 90 of 100 random two-user scenarios with 3-5 KBs.
# ---------------------------------------------------------------------------
def test_criterion_4_tabu_near_exhaustive():
    t0 = time.monotonic()
    successes = 0
    total = 0
    ratios = []
    t = 0
    while total < 100:
        k = 3 + t % 3
        cfg = ScenarioConfig(num_users=2, num_kbs=k, cell_radius_m=50.0, rng_seed=4000 + t)
        t += 1
        try:
            scn = generate_scenario(cfg)
        except ScenarioGenerationError:
            continue
        total += 1
        tau = np.ones(2)
        rho = np.ones(2)
        try:
            exact = solve_pair_subproblem(scn, 0, 1, tau, rho, PairOptParams(exhaustive=True))
            tabu = solve_pair_subproblem(scn, 0, 1, tau, rho, PairOptParams())
        except InfeasiblePairError:
            total -= 1
            continue
        if exact.score > 0.0:
            successes += tabu.score >= 0.95 * exact.score
            ratios.append(tabu.score / exact.score)
        else:
            successes += tabu.score >= exact.score - 1e-9
            ratios.append(1.0)
    elapsed = time.monotonic() - t0
    ok = successes >= 90
    _report(
        "criterion 4 (tabu vs exhaustive subproblem)",
        ok,
        f"{successes}/100 instances at >=95% of optimum (need >=90), "
        f"min ratio {min(ratios):.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Greedy matching keeps at least half the exact optimum: 100 random
#    10-user score matrices plus a hand-built chain where greedy provably
#    picks the suboptimal middle edge.
# ---------------------------------------------------------------------------
def test_criterion_5_greedy_matching_half_bound():
    rng = np.random.default_rng(5)
    worst_ratio = math.inf
    for _ in range(100):
        mat = np.full((10, 10), -np.inf)
        for i in range(10):
            for j in range(i + 1, 10):
                mat[i, j] = mat[j, i] = rng.uniform(0.0, 100.0)
        omega = OmegaMatrix(scores=mat)
        greedy = matching_weight(omega, solve_dup(omega, mode="greedy"))
        exact = matching_weight(omega, solve_dup(omega, mode="exact"))
        assert greedy >= exact / 2.0 - 1e-9
        worst_ratio = min(worst_ratio, greedy / exact)

    # Chain 0-1 (10), 1-2 (18), 2-3 (10): exact takes the two outer edges for
    # 20, greedy grabs the heavy middle edge first and ends at 18 >= 20/2.
    chain = np.full((4, 4), -np.inf)
    chain[0, 1] = chain[1, 0] = 10.0
    chain[1, 2] = chain[2, 1] = 18.0
    chain[2, 3] = chain[3, 2] = 10.0
    omega = OmegaMatrix(scores=chain)
    exact_chain = matching_weight(omega, solve_dup(omega, mode="exact"))
    greedy_chain = matching_weight(omega, solve_dup(omega, mode="greedy"))
    hand_ok = abs(exact_chain - 20.0) <= 1e-12 and greedy_chain >= 10.0
    ok = worst_ratio >= 0.5 and hand_ok
    _report(
        "criterion 5 (greedy matching half bound)",
        ok,
        f"worst greedy/exact ratio {worst_ratio:.3f} over 100 matrices (bound 0.5); "
        f"hand chain exact {exact_chain:.1f}, greedy {greedy_chain:.1f}",
    )


# ---------------------------------------------------------------------------
# 6. Benchmark ordering: with 8 KBs and 50 trials per cell the solver's mean
#    per-link SST strictly beats both baselines at 20 and 40 users and at
#    every power budget in {9, 15, 21} dBm; on 50 fixed topologies the mean
#    network SST is nondecreasing in the power budget.
# ---------------------------------------------------------------------------
def test_criterion_6_beats_baselines_and_power_trend():
    t0 = time.monotonic()
    details = []
    ok = True

    for m in (20, 40):
        spec = SweepSpec(
            axis="num_users",
            axis_values=(m,),
            variant="capacity",
            variant_values=(24,),
            trials=50,
            seed=20260825,
            base=ScenarioConfig(num_kbs=8),
            solver=BENCH,
        )
        by_scheme = {row.scheme: row for row in run_sweep(spec, threads=2)}
        prop = by_scheme["proposed"]
        beat = (
            prop.mean_sst > by_scheme["rpd"].mean_sst
            and prop.mean_sst > by_scheme["mpk"].mean_sst
        )
        clean = all(row.errors == 0 for row in by_scheme.values())
        ok = ok and beat and clean
        details.append(
            f"M={m}: {prop.mean_sst:.1f} vs rpd {by_scheme['rpd'].mean_sst:.2f} / "
            f"mpk {by_scheme['mpk'].mean_sst:.2f}"
        )

    spec = SweepSpec(
        axis="p_max",
        axis_values=(9.0, 15.0, 21.0),
        variant="capacity",
        variant_values=(24,),
        trials=50,
        seed=20260825,
        base=ScenarioConfig(num_users=20, num_kbs=8),
        solver=BENCH,
    )
    rows = run_sweep(spec, threads=2)
    for value in (9.0, 15.0, 21.0):
        cell = {row.scheme: row for row in rows if row.axis_value == value}
        beat = (
            cell["proposed"].mean_sst > cell["rpd"].mean_sst
            and cell["proposed"].mean_sst > cell["mpk"].mean_sst
        )
        ok = ok and beat
        details.append(
            f"p_max={value:g}: {cell['proposed'].mean_sst:.1f} vs "
            f"rpd {cell['rpd'].mean_sst:.2f} / mpk {cell['mpk'].mean_sst:.2f}"
        )

    # The sweep's proposed cells solved the same 50 topologies at each budget
    # (only the power cap and the eligibility it implies change), so the
    # comparison is paired.  A failed trial fails the check.
    proposed = {row.axis_value: row.trial_results for row in rows if row.scheme == "proposed"}
    solved = all(None not in proposed[v] for v in (9.0, 15.0, 21.0))
    totals = {v: [r.sst for r in proposed[v] if r is not None] for v in (9.0, 15.0, 21.0)}
    means = [float(np.mean(totals[v])) for v in (9.0, 15.0, 21.0)]
    monotone = means[0] <= means[1] + 1e-9 and means[1] <= means[2] + 1e-9
    ok = ok and solved and monotone
    details.append(
        "fixed-topology means "
        + " <= ".join(f"{m:.0f}" for m in means)
        + (" (monotone)" if monotone else " (NOT monotone)")
        + ("" if solved else " (a trial failed)")
    )

    elapsed = time.monotonic() - t0
    _report(
        "criterion 6 (solver beats baselines; SST monotone in power budget)",
        ok,
        "; ".join(details) + f"; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Constraint hygiene on solver and baseline output: structural constraints
#    (capacity, satisfaction, binary caches, power range, pairing validity,
#    SST consistency) always hold, and any delay / minimum-value violations
#    are reported explicitly with positive magnitudes.
# ---------------------------------------------------------------------------
def test_criterion_7_constraint_hygiene():
    t0 = time.monotonic()
    issues = []
    soft_counts = {"delay": 0, "value": 0}
    for seed in (7000, 7001, 7002):
        scn = generate_scenario(ScenarioConfig(num_users=10, num_kbs=6, rng_seed=seed))
        runs = {"proposed": run_solver(scn, BENCH)}
        for kind in ("rpd", "mpk"):
            runs[kind] = run_baseline(scn, kind, seed)
        for kind, res in runs.items():
            tag = f"{kind}@{seed}"
            fb = res.feasibility
            if not fb.hard_ok:
                issues.append(f"{tag}: structural checks failed")
            if not all(
                cache_fits(c, scn.catalog.sizes, scn.config.capacity) for c in res.caches
            ):
                issues.append(f"{tag}: capacity recheck failed")
            if not all(set(np.unique(c.bits)) <= {0, 1} for c in res.caches):
                issues.append(f"{tag}: non-binary cache bits")
            if not bool(
                np.all((res.powers >= 0.0) & (res.powers <= scn.config.p_max_w + 1e-12))
            ):
                issues.append(f"{tag}: power outside [0, p_max]")
            res.pairing.validate(scn)
            delivered = delivered_sst(res.pair_reports)
            if not math.isclose(res.sst, delivered, rel_tol=1e-9, abs_tol=1e-9):
                issues.append(f"{tag}: sst {res.sst!r} != delivered {delivered!r}")
            if not all(v > 0.0 for v in fb.delay_violations.values()):
                issues.append(f"{tag}: non-positive delay-violation magnitude")
            if not all(v > 0.0 for v in fb.value_violations.values()):
                issues.append(f"{tag}: non-positive value-violation magnitude")
            soft_counts["delay"] += len(fb.delay_violations)
            soft_counts["value"] += len(fb.value_violations)

    # Force both soft violations on a hand pair to prove they are surfaced
    # with magnitudes rather than hidden: the tight delay cap is exceeded by
    # ~2.5e-4 s and each user's secrecy value (9) misses the floor (50) by 41.
    tight = make_hand_pair(delay_max_s=1e-5)
    res = run_solver(tight, SolverParams(dual_iters=1))
    fb = res.feasibility
    forced_ok = (
        set(fb.delay_violations) == {0, 1}
        and set(fb.value_violations) == {0, 1}
        and all(2e-4 < v < 3e-4 for v in fb.delay_violations.values())
        and all(abs(v - 41.0) < 1e-6 for v in fb.value_violations.values())
    )
    if not forced_ok:
        issues.append(
            f"forced violations misreported: delay={fb.delay_violations} "
            f"value={fb.value_violations}"
        )

    elapsed = time.monotonic() - t0
    _report(
        "criterion 7 (constraint hygiene)",
        not issues,
        (
            f"9 solver/baseline runs clean; observed soft violations "
            f"delay={soft_counts['delay']} value={soft_counts['value']}; forced hand-pair "
            f"case reports delay excess {max(fb.delay_violations.values()):.2e}s and "
            f"value shortfall {max(fb.value_violations.values()):.1f}; {elapsed:.0f}s"
        )
        if not issues
        else "; ".join(issues),
    )


# ---------------------------------------------------------------------------
# 8. Sweep reproducibility: the same sweep specification twice in a row must
#    produce byte-identical CSV output.
# ---------------------------------------------------------------------------
def test_criterion_8_sweep_csv_reproducible():
    spec = SweepSpec(
        axis="num_users",
        axis_values=(6,),
        variant="capacity",
        variant_values=(12,),
        trials=2,
        seed=99,
        base=ScenarioConfig(num_kbs=4, cell_radius_m=120.0),
        solver=BENCH,
    )
    first = rows_to_csv(run_sweep(spec)).encode()
    second = rows_to_csv(run_sweep(spec)).encode()
    ok = first == second and first.startswith(CSV_HEADER.encode()) and len(first) > len(CSV_HEADER)
    _report(
        "criterion 8 (byte-identical sweep CSV)",
        ok,
        f"two runs -> {len(first)} bytes each, identical={first == second}",
    )


# ---------------------------------------------------------------------------
# 9. Popularity distribution: normalization to 1e-12 across catalogue sizes
#    and skews, plus the 3-KB skew-1.2 hand values.
# ---------------------------------------------------------------------------
def test_criterion_9_popularity_distribution():
    worst = 0.0
    for k in list(range(1, 9)) + [100]:
        ranks = list(range(1, k + 1))
        for skew in (0.0, 0.5, 1.2, 3.0):
            worst = max(worst, abs(zipf_probabilities(ranks, skew).sum() - 1.0))
    hand = zipf_probabilities([1, 2, 3], 1.2)
    hand_err = float(np.max(np.abs(hand - np.array(ZIPF3))))
    ok = worst <= 1e-12 and hand_err <= 1e-4
    _report(
        "criterion 9 (popularity distribution)",
        ok,
        f"worst |sum-1| = {worst:.2e} (tol 1e-12) over 36 (K, skew) combos; "
        f"3-KB hand values off by {hand_err:.2e} (tol 1e-4)",
    )
