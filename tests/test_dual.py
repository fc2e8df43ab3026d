"""Dual decomposition loop: price updates, relaxed objective, full solve."""

import math
import sys

import numpy as np
import pytest

from conftest import HAND, assert_close, make_hand_pair, make_scenario
from sscn.dual import (DualState, SolveResult, SolverParams, audit_assignment,
                       delivered_sst, lagrangian_value, measure_pair,
                       run_solver, update_duals)
from sscn.matching import UNPAIRED, Pairing
from sscn.metrics import CacheVector, network_sst, satisfaction
from sscn.pair_opt import (InfeasiblePairError, PairOptParams, UserTables, _superset_min,
                           solve_pair_subproblem)
from sscn.queueing import UnstableQueueError
from sscn.scenario import ScenarioConfig, generate_scenario

FULL1 = (CacheVector(0, [1]), CacheVector(1, [1]))


def _slow_pair():
    """Hand pair variant whose queue cannot keep up at full power."""
    return make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                         interp_rates=[[9.0], [9.0]],
                         user_skew=0.0, eaves_skew=0.0)


# ---------------------------------------------------------------- dual state

def test_dual_state_step_schedule():
    state = DualState(tau=np.ones(2), rho=np.ones(2))
    assert state.step_sizes() == (100.0, 0.01)
    later = DualState(tau=np.ones(2), rho=np.ones(2), t=4)
    assert later.step_sizes() == (50.0, 0.005)


def test_dual_state_rejects_negative_prices():
    with pytest.raises(ValueError):
        DualState(tau=np.array([-0.1]), rho=np.zeros(1))
    with pytest.raises(ValueError):
        DualState(tau=np.zeros(1), rho=np.array([-1.0]))


def test_update_duals_hand_step():
    # tau' = [tau - nu * (cap - measured delay)]+ with nu = 0.1 at t = 1
    state = DualState(tau=np.array([1.0]), rho=np.array([0.0]),
                      step_delay0=0.1, step_value0=0.0)
    new = update_duals(state, delay_sums=np.array([0.007]),
                       value_sums=np.array([0.0]),
                       delay_max_s=0.005, sst_min=0.0)
    assert_close(float(new.tau[0]), 1.0002, rel=1e-12)
    assert float(new.rho[0]) == 0.0
    assert new.t == 2


def test_update_duals_zero_subgradient_is_fixed_point():
    state = DualState(tau=np.array([2.0, 3.0]), rho=np.array([1.0, 0.5]))
    new = update_duals(state, delay_sums=np.full(2, 0.005),
                       value_sums=np.full(2, 50.0),
                       delay_max_s=0.005, sst_min=50.0)
    assert np.array_equal(new.tau, state.tau)
    assert np.array_equal(new.rho, state.rho)
    assert new.t == state.t + 1


def test_update_duals_projects_to_nonnegative():
    state = DualState(tau=np.array([0.001]), rho=np.array([0.001]))
    new = update_duals(state, delay_sums=np.array([0.0]),
                       value_sums=np.array([100.0]),
                       delay_max_s=0.005, sst_min=50.0)
    assert float(new.tau[0]) == 0.0   # delay far under cap pushes tau down
    assert float(new.rho[0]) == 0.0   # value far over floor pushes rho down


def test_update_duals_uses_diminishing_steps():
    state = DualState(tau=np.array([1.0]), rho=np.array([0.0]),
                      step_delay0=1.0, step_value0=0.0, t=1)
    first = update_duals(state, np.array([0.006]), np.zeros(1), 0.005, 0.0)
    fourth = update_duals(
        DualState(tau=np.array([1.0]), rho=np.zeros(1),
                  step_delay0=1.0, step_value0=0.0, t=4),
        np.array([0.006]), np.zeros(1), 0.005, 0.0)
    assert float(first.tau[0] - 1.0) > float(fourth.tau[0] - 1.0) > 0.0
    assert_close(float(first.tau[0] - 1.0), 2.0 * float(fourth.tau[0] - 1.0),
                 rel=1e-9)


# ----------------------------------------------------------- relaxed objective

def test_lagrangian_reduces_to_sst_at_zero_prices(hand_pair):
    caches = list(FULL1)
    pairing = Pairing.from_pairs(2, [(0, 1)])
    powers = np.ones(2)
    value = lagrangian_value(hand_pair, caches, pairing, powers,
                             np.zeros(2), np.zeros(2))
    assert_close(value, network_sst(hand_pair, caches, pairing, powers), rel=1e-12)
    assert_close(value, 2.0 * HAND["v_s"], rel=1e-9)


def test_lagrangian_empty_pairing_is_price_terms_only(hand_pair):
    cfg = hand_pair.config
    tau = np.array([2.0, 3.0])
    rho = np.array([0.5, 0.25])
    value = lagrangian_value(hand_pair, list(FULL1), Pairing.from_pairs(2, []),
                             np.zeros(2), tau, rho)
    assert_close(value, cfg.delay_max_s * 5.0 - cfg.sst_min * 0.75, rel=1e-12)


def test_lagrangian_hand_expansion(hand_pair):
    cfg = hand_pair.config
    tau = np.ones(2)
    rho = np.ones(2)
    value = lagrangian_value(hand_pair, list(FULL1),
                             Pairing.from_pairs(2, [(0, 1)]), np.ones(2),
                             tau, rho)
    expect = (2.0 * (2.0 * HAND["v_s"] - HAND["delay"])
              + cfg.delay_max_s * 2.0 - cfg.sst_min * 2.0)
    assert_close(value, expect, rel=1e-9)


def test_lagrangian_raises_on_unstable_matched_direction():
    scn = _slow_pair()
    with pytest.raises(UnstableQueueError):
        lagrangian_value(scn, list(FULL1), Pairing.from_pairs(2, [(0, 1)]),
                         np.ones(2), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("pair", [
    PairOptParams(sigma=1, max_iters=4, power_grid_points=32, power_refine=False),
    PairOptParams(exhaustive=True, power_grid_points=32, power_refine=False),
], ids=["tabu-greedy", "exhaustive-exact"])
def test_reported_dual_value_is_lagrangian_of_the_iterate(seed, pair):
    # the solver's dual value sums the vectorised pair scores; the scalar
    # lagrangian_value recomputes it from the assembled caches and powers
    scn = generate_scenario(ScenarioConfig(num_users=8, num_kbs=5,
                                           cell_radius_m=100.0, rng_seed=seed))
    tau0, rho0 = 0.3, 2.5
    params = SolverParams(dual_iters=1, pair=pair, tau_init=tau0, rho_init=rho0,
                          matching_mode="exact" if pair.exhaustive else "greedy")
    res = run_solver(scn, params)
    m = scn.num_users
    assert res.pairing.matched_pairs()
    want = lagrangian_value(scn, res.caches, res.pairing, res.powers,
                            np.full(m, tau0), np.full(m, rho0))
    assert_close(res.trace[0].dual_value, want, rel=1e-9)


# ------------------------------------------------------------- measurements

def test_measure_pair_stable_reports_value_and_delay(hand_pair):
    rep = measure_pair(hand_pair, 0, 1, list(FULL1), np.ones(2))
    assert_close(rep.secrecy_ij, HAND["v_s"], rel=1e-9)
    assert_close(rep.secrecy_ji, HAND["v_s"], rel=1e-9)
    assert_close(rep.delay_ij, HAND["delay"], rel=1e-9)
    assert_close(rep.delay_ji, HAND["delay"], rel=1e-9)


def test_measure_pair_unstable_delivers_nothing():
    scn = _slow_pair()
    rep = measure_pair(scn, 0, 1, list(FULL1), np.ones(2))
    assert rep.secrecy_ij == 0.0 and rep.secrecy_ji == 0.0
    assert rep.delay_ij == math.inf and rep.delay_ji == math.inf


def test_measure_pair_mixed_stability():
    # only user 0 transmits fast enough to overload its receiver
    scn = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                        interp_rates=[[9.0], [9.0]],
                        user_skew=0.0, eaves_skew=0.0)
    rep = measure_pair(scn, 0, 1, list(FULL1), np.array([1.0, 0.01]))
    assert rep.secrecy_ij == 0.0 and rep.delay_ij == math.inf
    assert rep.secrecy_ji > 0.0 and math.isfinite(rep.delay_ji)


def test_delivered_sst_sums_reports(hand_pair):
    rep = measure_pair(hand_pair, 0, 1, list(FULL1), np.ones(2))
    assert_close(delivered_sst({(0, 1): rep}), rep.secrecy_ij + rep.secrecy_ji,
                 rel=1e-12)
    assert delivered_sst({}) == 0.0


# ---------------------------------------------------------------- audits

def test_audit_hand_pair_reports_value_shortfall(hand_pair):
    # sst floor is 50 but each user only delivers 9: both violations reported
    caches = list(FULL1)
    pairing = Pairing.from_pairs(2, [(0, 1)])
    powers = np.ones(2)
    reports = {(0, 1): measure_pair(hand_pair, 0, 1, caches, powers)}
    audit = audit_assignment(hand_pair, caches, pairing, powers, reports)
    assert audit.hard_ok
    assert not audit.delay_violations
    assert set(audit.value_violations) == {0, 1}
    assert_close(audit.value_violations[0],
                 hand_pair.config.sst_min - HAND["v_s"], rel=1e-9)
    assert not audit.soft_ok


def test_audit_reports_delay_violation_magnitude():
    scn = make_hand_pair(delay_max_s=1.0e-5)
    caches = list(FULL1)
    pairing = Pairing.from_pairs(2, [(0, 1)])
    powers = np.ones(2)
    reports = {(0, 1): measure_pair(scn, 0, 1, caches, powers)}
    audit = audit_assignment(scn, caches, pairing, powers, reports)
    assert set(audit.delay_violations) == {0, 1}
    assert_close(audit.delay_violations[0], HAND["delay"] - 1.0e-5, rel=1e-9)


def test_audit_flags_structural_problems(hand_pair):
    caches = [CacheVector(0, [0]), CacheVector(1, [1])]  # eta 0 < 0.5
    pairing = Pairing.from_pairs(2, [(0, 1)])
    audit = audit_assignment(hand_pair, caches, pairing, np.ones(2), {})
    assert not audit.eta_ok
    assert not audit.hard_ok
    bad_power = audit_assignment(hand_pair, list(FULL1), pairing,
                                 np.array([2.0, 1.0]), {})
    assert not bad_power.power_ok


# ---------------------------------------------------------------- run_solver

def test_solver_single_iteration_matches_subproblem(hand_pair):
    params = SolverParams(dual_iters=1, tau_init=0.0, rho_init=0.0)
    res = run_solver(hand_pair, params)
    sol = solve_pair_subproblem(hand_pair, 0, 1, np.zeros(2), np.zeros(2),
                                params.pair)
    assert res.pairing.matched_pairs() == [(0, 1)]
    assert res.caches[0] == sol.cache_i and res.caches[1] == sol.cache_j
    assert np.allclose(res.powers, [sol.power_i, sol.power_j], rtol=1e-15)
    assert_close(res.sst, sol.secrecy_ij + sol.secrecy_ji, rel=1e-12)
    assert len(res.trace) == 1
    assert res.trace[0].pairs_matched == 1
    # with zero prices the dual value is exactly the matched score sum
    assert_close(res.trace[0].dual_value, sol.score, rel=1e-12)
    assert res.dual_final.t == 2


def test_solver_best_feasible_tracking(hand_pair):
    # default sst floor (50) is unreachable for this pair -> never feasible
    res = run_solver(hand_pair, SolverParams(dual_iters=2))
    assert res.best_feasible is None
    assert set(res.feasibility.value_violations) == {0, 1}
    relaxed = make_hand_pair(sst_min=0.0)
    res2 = run_solver(relaxed, SolverParams(dual_iters=2))
    assert res2.best_feasible is not None
    assert_close(res2.best_feasible.sst, res2.sst, rel=1e-12)
    assert res2.feasibility.soft_ok


FAST_PAIR = PairOptParams(max_iters=4, power_grid_points=32, power_refine=False)


def _relaxed_network():
    """6 users, sst floor 0, delay cap 0.3 s: over 6 iterations only the
    third iterate meets the cap, and the final one has a higher SST."""
    return generate_scenario(ScenarioConfig(num_users=6, num_kbs=4, cell_radius_m=60.0,
                                            sst_min=0.0, delay_max_s=0.3, rng_seed=14))


def test_best_feasible_is_the_best_feasible_iterates_result():
    res = run_solver(_relaxed_network(), SolverParams(dual_iters=6, pair=FAST_PAIR))
    feasible_ssts = [rec.sst for rec in res.trace
                     if rec.max_delay_violation == 0.0 and rec.max_value_violation == 0.0]
    assert 0 < len(feasible_ssts) < len(res.trace)
    assert not res.feasibility.feasible and res.sst > max(feasible_ssts)
    best = res.best_feasible
    assert isinstance(best, SolveResult)
    assert best.feasibility.feasible
    assert best.sst == max(feasible_ssts)
    assert best.sst == delivered_sst(best.pair_reports)
    assert best.trace == () and best.dual_final is None


@pytest.mark.parametrize("scn", [_relaxed_network(), generate_scenario(
    ScenarioConfig(num_users=6, num_kbs=4, cell_radius_m=60.0, rng_seed=11))],
    ids=["delay-violated", "value-violated"])
def test_last_trace_record_reports_the_final_audit(scn):
    res = run_solver(scn, SolverParams(dual_iters=6, pair=FAST_PAIR))
    feas, last = res.feasibility, res.trace[-1]
    assert feas.delay_violations or feas.value_violations
    assert last.max_delay_violation == max(feas.delay_violations.values(), default=0.0)
    assert last.max_value_violation == max(feas.value_violations.values(), default=0.0)
    assert last.sst == res.sst


def test_solver_structural_invariants_on_generated_network():
    cfg = ScenarioConfig(num_users=6, num_kbs=4, cell_radius_m=60.0, rng_seed=11)
    scn = generate_scenario(cfg)
    params = SolverParams(dual_iters=3, pair=PairOptParams(
        max_iters=6, power_grid_points=64, power_refine=False))
    res = run_solver(scn, params)
    assert len(res.trace) == 3
    assert all(math.isfinite(rec.dual_value) for rec in res.trace)
    running_min = np.minimum.accumulate([rec.dual_value for rec in res.trace])
    assert all(a >= b for a, b in zip(running_min, running_min[1:]))
    assert res.feasibility.hard_ok
    assert_close(res.sst, delivered_sst(res.pair_reports), rel=1e-12)
    for i in range(scn.num_users):
        assert_close(float(res.eta[i]),
                     satisfaction(res.caches[i], scn.catalog.user_probs[i]),
                     rel=1e-12)
    assert np.all(res.powers >= 0.0)
    assert np.all(res.powers <= cfg.p_max_w * (1 + 1e-12))
    matched = {u for ij in res.pairing.matched_pairs() for u in ij}
    for i, j in res.pair_reports:
        assert i in matched and j in matched
        assert math.isfinite(res.pair_reports[(i, j)].delay_ij)


def test_solver_deterministic():
    cfg = ScenarioConfig(num_users=6, num_kbs=4, cell_radius_m=60.0, rng_seed=12)
    scn = generate_scenario(cfg)
    pair = PairOptParams(max_iters=5, power_grid_points=32, power_refine=False)
    first = run_solver(scn, SolverParams(dual_iters=2, pair=pair))
    again = run_solver(scn, SolverParams(dual_iters=2, pair=pair))
    assert first.sst == again.sst
    assert first.pairing.partner.tolist() == again.pairing.partner.tolist()
    assert np.array_equal(first.powers, again.powers)


# run_solver on the certified oracle path (exhaustive pair enumeration plus
# exact matching), recorded from the per-row tuple-keyed power memo and the
# recursive exact-matching search; every later scheme must reproduce it.
CERTIFIED_FINGERPRINT = dict(
    sst=709.9323856905072,
    powers=[0.0003686128157943188, 0.006158651156004319, 0.010855349866310334,
            0.0001057206263759782, 0.006158651156004319, 0.0002339235936982221,
            0.010855349866310334, 0.0001057206263759782],
    partner=[5, 4, 6, 7, 1, 0, 2, 3],
    dual_values=[1070.7979644037732, 814.6725209881868, 715.2025235720669],
)


def test_solver_fingerprint_certified_oracle_path():
    scn = generate_scenario(ScenarioConfig(num_users=8, num_kbs=5,
                                           cell_radius_m=100.0, rng_seed=5))
    params = SolverParams(dual_iters=3, matching_mode="exact", pair=PairOptParams(
        exhaustive=True, power_grid_points=32, power_refine=False))
    res = run_solver(scn, params)
    want = CERTIFIED_FINGERPRINT
    assert_close(res.sst, want["sst"], rel=1e-12)
    assert len(res.powers) == len(want["powers"])
    for got, p in zip(res.powers, want["powers"]):
        assert_close(float(got), p, rel=1e-12, abs_tol=0.0)
    assert res.pairing.partner.tolist() == want["partner"]
    assert len(res.trace) == len(want["dual_values"])
    for rec, d in zip(res.trace, want["dual_values"]):
        assert_close(rec.dual_value, d, rel=1e-12)


def test_exact_solve_builds_each_users_tables_once(monkeypatch):
    # a user's feasible caches and superset-min table depend on neither the
    # prices nor the partner, so one solve builds them once per user, and its
    # answer is the one where every pair search builds its own.  Users 1 and
    # 4 have no feasible cache: 9 of the 15 pairs fail, with the same text.
    scn = generate_scenario(ScenarioConfig(num_users=6, num_kbs=5, cell_radius_m=100.0,
                                           eta_min=0.7, capacity=8, rng_seed=3))
    params = SolverParams(dual_iters=3, matching_mode="exact", pair=PairOptParams(
        exhaustive=True, power_grid_points=32, power_refine=False))
    built = []

    def counted(leak, feasible):
        built.append(len(leak))
        return _superset_min(leak, feasible)

    monkeypatch.setattr("sscn.pair_opt._superset_min", counted)
    shared = run_solver(scn, params)
    assert 0 < len(built) <= scn.num_users
    built.clear()

    def own_tables(*args, tables=None, **kwargs):
        return solve_pair_subproblem(*args, **kwargs)

    monkeypatch.setattr("sscn.dual.solve_pair_subproblem", own_tables)
    alone = run_solver(scn, params)
    assert len(built) == 2 * len(scn.eligible_pairs()) * params.dual_iters
    assert len(shared.feasibility.pair_failures) == 9
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        assert repr(shared) == repr(alone)
    with pytest.raises(ValueError, match="another scenario"):
        solve_pair_subproblem(scn, 0, 2, np.ones(6), np.ones(6), params.pair,
                              tables=UserTables(make_hand_pair()))


def test_solver_warm_start_stays_deterministic():
    cfg = ScenarioConfig(num_users=6, num_kbs=4, cell_radius_m=60.0, rng_seed=13)
    scn = generate_scenario(cfg)
    pair = PairOptParams(max_iters=5, power_grid_points=32, power_refine=False)
    warm1 = run_solver(scn, SolverParams(dual_iters=3, pair=pair, warm_start=True))
    warm2 = run_solver(scn, SolverParams(dual_iters=3, pair=pair, warm_start=True))
    assert warm1.sst == warm2.sst
    assert warm1.feasibility.hard_ok


def test_solver_prices_stay_zero_when_targets_are_slack():
    scn = make_hand_pair(delay_max_s=1.0, sst_min=0.0)
    params = SolverParams(dual_iters=3, tau_init=0.0, rho_init=0.0)
    res = run_solver(scn, params)
    assert np.all(res.dual_final.tau == 0.0)
    assert np.all(res.dual_final.rho == 0.0)
    ssts = [rec.sst for rec in res.trace]
    assert max(ssts) - min(ssts) <= 1e-12  # same subproblem every iteration
    assert_close(res.sst, 2.0 * HAND["v_s"], rel=1e-9)


def test_solver_records_partial_pair_failures():
    # user 1 wants the opposite KB of everyone else and the shared slot
    # cannot satisfy both; every pair involving user 1 is infeasible
    scn = make_scenario(user_ranks=[[1, 2], [2, 1], [1, 2], [1, 2]],
                        eaves_ranks=[1, 2], sizes=[1, 1],
                        interp_rates=[[200.0] * 2] * 4,
                        capacity=1, eta_min=0.6, user_skew=1.0)
    res = run_solver(scn, SolverParams(dual_iters=1))
    assert set(res.feasibility.pair_failures) == {(0, 1), (1, 2), (1, 3)}
    assert 1 in res.feasibility.unpaired
    assert res.pairing.partner[1] == UNPAIRED
    assert len(res.pairing.matched_pairs()) == 1
    assert res.feasibility.eta_ok          # solo fallback reaches 2/3 >= 0.6
    assert not res.feasibility.eta_shortfalls
    assert res.feasibility.hard_ok


def test_solver_raises_when_every_pair_is_infeasible():
    scn = make_scenario(user_ranks=[[1, 2], [2, 1]], eaves_ranks=[1, 2],
                        sizes=[1, 1], interp_rates=[[200.0] * 2] * 2,
                        capacity=1, eta_min=0.6, user_skew=1.0)
    with pytest.raises(InfeasiblePairError):
        run_solver(scn, SolverParams(dual_iters=1))


@pytest.mark.parametrize("kwargs", [
    dict(dual_iters=0), dict(tau_init=-1.0), dict(rho_init=-0.5),
    dict(tau_init=math.nan), dict(rho_init=math.inf), dict(matching_mode="psychic"),
    dict(dual_iters=1.5),
])
def test_solver_params_validation(kwargs):
    with pytest.raises(ValueError):
        SolverParams(**kwargs)
