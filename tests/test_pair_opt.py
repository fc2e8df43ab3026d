"""Per-pair cache/power subproblem: scoring, power search, tabu machinery."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import HAND, ZIPF3, assert_close, make_hand_pair, make_scenario
from sscn.dual import SolverParams, run_solver
from sscn.metrics import ETA_SLACK, CacheVector, pair_value_rates
from sscn.pair_opt import (InfeasiblePairError, PairOptParams, TabuState,
                           _best_completion, _cache_table, _enumerate_table,
                           _feasible, _PairContext, enumerate_pair_optimum,
                           greedy_single_cache, initial_kbc, neighborhood,
                           optimize_powers, pair_score, solve_pair_subproblem,
                           stable_power_upper_bound)
from sscn.queueing import STABILITY_GUARD, pk_delay, queue_stats
from sscn.scenario import ScenarioConfig, generate_scenario

FULL1 = (CacheVector(0, [1]), CacheVector(1, [1]))


def _small_generated(seed: int, num_kbs: int = 3):
    cfg = ScenarioConfig(num_users=2, num_kbs=num_kbs, cell_radius_m=50.0,
                         rng_seed=seed)
    return generate_scenario(cfg)


def _direction_score(scn, s, r, cache_s, cache_r, power, tau_s, rho_s):
    """Scalar one-direction score via the public metric/queue functions."""
    rates = pair_value_rates(scn, s, r, cache_s, cache_r, power)
    stats = queue_stats(cache_s, cache_r, scn.catalog.user_probs[s],
                        scn.catalog.interp_rates[r], rates.r_d,
                        scn.config.packet_bits)
    if not stats.stable:
        return -math.inf
    return (1.0 + rho_s) * rates.v_s - tau_s * pk_delay(stats)


# ---------------------------------------------------------------- pair_score

def test_pair_score_hand_values(hand_pair):
    base = pair_score(hand_pair, 0, 1, *FULL1, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert_close(base, 2.0 * HAND["v_s"], rel=1e-10)
    priced = pair_score(hand_pair, 0, 1, *FULL1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert_close(priced, 2.0 * HAND["v_s"] - 2.0 * HAND["delay"], rel=1e-10)
    boosted = pair_score(hand_pair, 0, 1, *FULL1, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
    assert_close(boosted, 2.0 * 2.0 * HAND["v_s"], rel=1e-10)


def test_pair_score_unstable_direction_is_minus_inf():
    # interpretation at 9/s cannot keep up with 10 packets/s
    scn = make_hand_pair()
    slow = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                         interp_rates=[[9.0], [9.0]],
                         user_skew=0.0, eaves_skew=0.0)
    assert pair_score(scn, 0, 1, *FULL1, 1.0, 1.0, 0, 0, 0, 0) > 0
    assert pair_score(slow, 0, 1, *FULL1, 1.0, 1.0, 0, 0, 0, 0) == -math.inf


def test_pair_score_is_separable_in_powers(hand_pair):
    # score(p_i, p_j) = score(p_i, 0) + score(0, p_j): each direction depends
    # on its sender's power only, and a silent direction contributes zero
    for p_i, p_j in [(0.3, 0.7), (1.0, 0.1), (0.55, 0.55)]:
        joint = pair_score(hand_pair, 0, 1, *FULL1, p_i, p_j, 1.0, 1.0, 1.0, 1.0)
        only_i = pair_score(hand_pair, 0, 1, *FULL1, p_i, 0.0, 1.0, 1.0, 1.0, 1.0)
        only_j = pair_score(hand_pair, 0, 1, *FULL1, 0.0, p_j, 1.0, 1.0, 1.0, 1.0)
        assert_close(joint, only_i + only_j, rel=1e-12)


# ------------------------------------------------------------- power search

def test_optimize_powers_hand_optimum_is_full_power(hand_pair):
    tau = np.zeros(2)
    rho = np.zeros(2)
    p_i, p_j, score = optimize_powers(hand_pair, 0, 1, *FULL1, tau, rho)
    assert_close(p_i, 1.0, rel=1e-9)
    assert_close(p_j, 1.0, rel=1e-9)
    assert_close(score, 2.0 * HAND["v_s"], rel=1e-9)


def test_optimize_powers_dominated_direction_stays_silent():
    scn = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                        interp_rates=[[200.0], [200.0]],
                        user_skew=0.0, eaves_skew=0.0,
                        gain_d=np.array([[0.0, 2.0**0.008 - 1.0],
                                         [2.0**0.008 - 1.0, 0.0]]),
                        gain_e=np.full(2, 2.0**0.08 - 1.0))
    tau = np.ones(2)
    rho = np.zeros(2)
    p_i, p_j, score = optimize_powers(scn, 0, 1, *FULL1, tau, rho)
    assert p_i == 0.0 and p_j == 0.0
    assert score == 0.0


def test_optimize_powers_beats_dense_scalar_scan():
    scn = _small_generated(seed=21)
    tau = np.ones(2)
    rho = np.ones(2)
    cache_i, cache_j = initial_kbc(scn, 0, 1)
    p_i, p_j, total = optimize_powers(scn, 0, 1, cache_i, cache_j, tau, rho)
    for s, r, c_s, c_r, p_opt in ((0, 1, cache_i, cache_j, p_i),
                                  (1, 0, cache_j, cache_i, p_j)):
        ub = stable_power_upper_bound(scn, s, r, c_s, c_r)
        dense = max(_direction_score(scn, s, r, c_s, c_r, p, tau[s], rho[s])
                    for p in np.linspace(0.0, ub * (1 - 1e-12), 4001))
        got = _direction_score(scn, s, r, c_s, c_r, p_opt, tau[s], rho[s])
        assert got >= dense - 1e-6 * abs(dense) - 1e-12
    recomposed = (_direction_score(scn, 0, 1, cache_i, cache_j, p_i, 1.0, 1.0)
                  + _direction_score(scn, 1, 0, cache_j, cache_i, p_j, 1.0, 1.0))
    assert_close(total, recomposed, rel=1e-9)


def test_stable_power_upper_bound_hand_values():
    scn = make_hand_pair()
    # load so light the whole budget is stable
    assert stable_power_upper_bound(scn, 0, 1, *FULL1) == scn.config.p_max_w
    # no matched traffic -> no queue -> full budget
    empty = CacheVector(1, [0])
    assert stable_power_upper_bound(scn, 0, 1, FULL1[0], empty) == scn.config.p_max_w
    # slower interpretation pushes the bound inside the budget
    slow = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                         interp_rates=[[5.0], [5.0]],
                         user_skew=0.0, eaves_skew=0.0)
    bound = stable_power_upper_bound(slow, 0, 1, *FULL1)
    assert 0.0 < bound < slow.config.p_max_w
    rates = pair_value_rates(slow, 0, 1, *FULL1, bound)
    util = rates.r_d / slow.config.packet_bits * (1.0 / 5.0)
    assert_close(util, 1.0, rel=1e-9)


def test_power_search_respects_stability_bound():
    slow = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                         interp_rates=[[5.0], [5.0]],
                         user_skew=0.0, eaves_skew=0.0)
    bound = stable_power_upper_bound(slow, 0, 1, *FULL1)
    tau = np.zeros(2)
    rho = np.zeros(2)
    p_i, p_j, score = optimize_powers(slow, 0, 1, *FULL1, tau, rho)
    assert p_i <= bound * (1 + 1e-12) and p_j <= bound * (1 + 1e-12)
    assert math.isfinite(score)
    assert pair_score(slow, 0, 1, *FULL1, p_i, p_j, 0, 0, 0, 0) > -math.inf


# Rows of the exact power search, each made from a generated direction's
# search inputs: (k = gain_e / gain_d, leak / legit, a factor on interp, tau),
# None keeping the generated value; then the curvature signs of the
# unclipped score g over the rate interval (+1 convex, -1 concave), the cap
# that sets the top rate, and whether the secrecy value is positive anywhere.
RATE_SEARCH_ROWS = {
    "k <= 1": ((None, None, 1.0, None), [-1], "stability", True),
    "k <= 1, tau 1e4": ((None, None, 1.0, 1e4), [-1], "stability", True),
    "k <= 1, tau 0": ((None, None, 0.01, 0.0), [-1], "p_max", True),
    "k > 1, convex then concave": ((2.0, 1 / 3, 1.0, None), [1, -1], "stability", True),
    "k > 1, convex then concave, tau 30": ((2.0, 1 / 3, 1.0, 30.0), [1, -1], "stability", True),
    "k > 1, convex": ((20.0, 1 / 3, 0.01, None), [1], "p_max", True),
    "share 0": ((None, None, 0.0, None), [-1], "p_max", False),
    "value negative everywhere": ((2.0, 2.0, 1.0, None), [1, -1], "stability", False),
}


def _rate_top(ctx, row):
    """Top of the row's rate interval, and the cap that sets it."""
    interp, gain_d = row[2], row[5]
    top = ctx.bandwidth * math.log2(1.0 + ctx.p_max * gain_d / ctx.noise)
    stable = (1.0 - 2.0 * STABILITY_GUARD) * ctx.bits_per_packet / interp if interp else top
    return (stable, "stability") if stable < top else (top, "p_max")


def _scanned_best(ctx, row, points=100_001):
    """Best score of the row on ``points`` rates evenly spread over its rate
    interval, then on as many across the two steps around the best of those."""
    def best_on(rates):
        powers = ctx.noise * np.expm1(rates * math.log(2.0) / ctx.bandwidth) / row[5]
        scores = ctx._score_at(row[:, None], np.minimum(ctx.p_max, powers))
        return int(np.argmax(scores)), scores.max()

    rates = np.linspace(0.0, _rate_top(ctx, row)[0], points)
    at, coarse = best_on(rates)
    return max(coarse, best_on(np.linspace(rates[max(at - 1, 0)],
                                           rates[min(at + 1, points - 1)], points))[1])


def test_rate_search_is_exact_on_every_row_shape():
    scn = _small_generated(seed=7, num_kbs=4)
    tau, rho = np.ones(2), np.full(2, 0.5)
    ctx = _PairContext(scn, 0, 1, tau, rho, PairOptParams())
    full = np.ones((1, 4))
    base = ctx._coeffs(full, full, 0)[0]
    rows = []
    for (k, leak, interp, tau_s), _, _, _ in RATE_SEARCH_ROWS.values():
        row = base.copy()
        row[2:4] *= (interp, interp**2)
        if interp == 0.0:
            row[:2] = 0.0  # nothing matched: no legit value, no share
        row[6] = row[6] if k is None else k * row[5]
        row[4] = row[4] if leak is None else leak * row[0]
        row[7] = row[7] if tau_s is None else tau_s
        rows.append(row)
    # every distinct row of three more generated pairs' joint caches, each
    # pair at its own price
    joint = _cache_table(6).astype(float)
    for seed, tau_s in ((3, 0.0), (4, 1e2), (5, 1e4)):
        other = _PairContext(_small_generated(seed=seed), 0, 1, np.full(2, tau_s), rho,
                             PairOptParams())
        for w, sender in enumerate((joint[:, :3], joint[:, 3:])):
            rows.extend(np.unique(other._coeffs(sender, joint[:, :3] * joint[:, 3:], w), axis=0))
    rows = np.array(rows)
    band, bits = ctx.bandwidth, ctx.bits_per_packet
    for (_, shape, cap, positive), row in zip(RATE_SEARCH_ROWS.values(), rows):
        legit, share, interp, interp_sq, leak, gain_d, gain_e, tau_s, rho_s = row
        top, row_cap = _rate_top(ctx, row)
        rates = np.linspace(0.0, top, 2001)
        value = legit * rates - leak * band * np.log2(
            1.0 + gain_e / gain_d * np.expm1(rates * math.log(2.0) / band))
        c = (interp**2 + interp_sq) / (2.0 * bits * share) if share > 0.0 else 0.0
        g = (1.0 + rho_s) * value / bits - tau_s * c * rates / (1.0 - rates * interp / bits)
        signs = np.sign(np.diff(g, 2))
        assert [int(s) for s in signs[np.r_[True, signs[1:] != signs[:-1]]]] == shape
        assert row_cap == cap and bool((value[1:] > 0.0).any()) == positive

    score, power = ctx._rate_search(rows.T)
    grid, _ = _PairContext(scn, 0, 1, tau, rho, PairOptParams(power_refine=False)) \
        ._grid_search(rows.T)
    assert np.all(score >= grid - 1e-10 * np.abs(grid))
    assert np.all((power >= 0.0) & (power <= ctx.p_max))
    assert ctx._compose(rows.T, *ctx._rates_at(rows.T, power))[3].all()
    for n, row in enumerate(rows):
        scan = _scanned_best(ctx, row)
        assert_close(score[n], scan, rel=1e-9)
    for n, (_, _, cap, positive) in enumerate(RATE_SEARCH_ROWS.values()):
        assert (score[n] > 0.0) == positive
        # the delay pole puts a stability-capped row's peak inside the interval,
        # where the Newton steps run; the p_max-capped rows peak at an end
        top = ctx.noise * np.expm1(_rate_top(ctx, rows[n])[0] * math.log(2.0) / band) / rows[n, 5]
        assert (0.0 < power[n] < top * (1.0 - 1e-9)) == (positive and cap == "stability")
        assert (power[n] == ctx.p_max) == (positive and cap == "p_max")
    # a row's result is the same bits alone as in any batch
    for batch in (rows[::-1], np.tile(rows, (2, 1)), rows[1::3]):
        got = ctx._rate_search(batch.T)
        for s, p, row in zip(*got, batch):
            alone = ctx._rate_search(row[:, None])
            assert (s, p) == (alone[0][0], alone[1][0])
            n = int(np.flatnonzero((rows == row).all(axis=1))[0])
            assert (s, p) == (score[n], power[n])


# ------------------------------------------------------------ cache seeding

def test_greedy_single_cache_hand_cases():
    probs = np.array(ZIPF3)
    sizes = np.array([1, 1, 1])
    bits, ok = greedy_single_cache(probs, sizes, capacity=3, eta_min=0.5)
    assert bits.tolist() == [1, 0, 0] and ok            # rank-1 KB suffices
    bits, ok = greedy_single_cache(probs, sizes, capacity=3, eta_min=0.9)
    assert bits.tolist() == [1, 1, 1] and ok            # needs the whole catalog
    bits, ok = greedy_single_cache(probs, np.array([5, 1, 1]),
                                   capacity=2, eta_min=0.5)
    assert bits.tolist() == [0, 1, 1] and not ok        # favorite does not fit


def test_initial_kbc_hand_pair(hand_pair):
    cache_i, cache_j = initial_kbc(hand_pair, 0, 1)
    assert cache_i.bits.tolist() == [1]
    assert cache_j.bits.tolist() == [1]
    assert cache_i.owner == 0 and cache_j.owner == 1


def test_initial_kbc_evicts_oversized_favorite():
    # favorite KB is too large to keep; repair evicts it and the construction
    # settles on the three unit-size KBs
    scn = make_scenario(user_ranks=[[1, 2, 3, 4]] * 2, eaves_ranks=[1, 2, 3, 4],
                        sizes=[5, 1, 1, 1], interp_rates=[[200.0] * 4] * 2,
                        capacity=3, eta_min=0.4)
    cache_i, cache_j = initial_kbc(scn, 0, 1)
    assert cache_i.bits.tolist() == [0, 1, 1, 1]
    assert cache_j.bits.tolist() == [0, 1, 1, 1]


def test_initial_kbc_raises_when_target_unreachable():
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[1, 1, 1], interp_rates=[[200.0] * 3] * 2,
                        capacity=2, eta_min=1.0)
    with pytest.raises(InfeasiblePairError):
        initial_kbc(scn, 0, 1)


def test_initial_kbc_conflicting_preferences_can_be_infeasible():
    # one shared slot, users want opposite KBs, both need eta 0.6
    scn = make_scenario(user_ranks=[[1, 2], [2, 1]], eaves_ranks=[1, 2],
                        sizes=[1, 1], interp_rates=[[200.0] * 2] * 2,
                        capacity=1, eta_min=0.6, user_skew=1.0)
    with pytest.raises(InfeasiblePairError):
        initial_kbc(scn, 0, 1)


# ------------------------------------------------------------- neighborhood

def _loose_two_kb_scenario():
    return make_scenario(user_ranks=[[1, 2]] * 2, eaves_ranks=[1, 2],
                         sizes=[1, 1], interp_rates=[[200.0] * 2] * 2,
                         eta_min=0.0)


def test_neighborhood_radius_one_counts():
    scn = _loose_two_kb_scenario()
    current = np.array([1, 1, 1, 1], dtype=np.uint8)
    cands = neighborhood(current, 1, TabuState(8), scn, 0, 1)
    assert cands.shape == (4, 4)
    assert all(int(np.sum(row != current)) == 1 for row in cands)


def test_neighborhood_excludes_tabu_and_can_be_empty():
    scn = _loose_two_kb_scenario()
    current = np.array([1, 1, 1, 1], dtype=np.uint8)
    tabu = TabuState(16)
    for flip in range(4):
        cand = current.copy()
        cand[flip] ^= 1
        tabu.add(cand)
    assert neighborhood(current, 1, tabu, scn, 0, 1).shape[0] == 0


def test_neighborhood_feasibility_filter_matches_enumeration():
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[2, 1, 1], interp_rates=[[200.0] * 3] * 2,
                        capacity=2, eta_min=0.25)
    current = np.array([0, 1, 1, 0, 1, 1], dtype=np.uint8)
    got = {tuple(row) for row in neighborhood(current, 2, TabuState(64), scn, 0, 1)}
    sizes = scn.catalog.sizes
    probs = scn.catalog.user_probs
    expect = set()
    for dist in (1, 2):
        for flips in itertools.combinations(range(6), dist):
            cand = current.copy()
            cand[list(flips)] ^= 1
            ci, cj = cand[:3], cand[3:]
            if (ci @ sizes <= 2 and cj @ sizes <= 2
                    and ci @ probs[0] >= 0.25 - ETA_SLACK
                    and cj @ probs[1] >= 0.25 - ETA_SLACK):
                expect.add(tuple(cand))
    assert got == expect
    assert len(got) < sum(math.comb(6, d) for d in (1, 2))  # filter bites


def test_neighborhood_keeps_combination_order():
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[2, 1, 1], interp_rates=[[200.0] * 3] * 2,
                        capacity=3, eta_min=0.25)
    current = np.array([0, 1, 1, 0, 1, 1], dtype=np.uint8)
    tabu = TabuState(8)
    for flips in ((1,), (0, 4), (2, 5)):
        cand = current.copy()
        cand[list(flips)] ^= 1
        tabu.add(cand)
    got = neighborhood(current, 3, tabu, scn, 0, 1)
    sizes = scn.catalog.sizes
    probs = scn.catalog.user_probs
    expect = []
    for dist in (1, 2, 3):
        for flips in itertools.combinations(range(6), dist):
            cand = current.copy()
            cand[list(flips)] ^= 1
            ci, cj = cand[:3], cand[3:]
            if (cand not in tabu and ci @ sizes <= 3 and cj @ sizes <= 3
                    and ci @ probs[0] >= 0.25 - ETA_SLACK
                    and cj @ probs[1] >= 0.25 - ETA_SLACK):
                expect.append(cand)
    assert got.dtype == np.uint8
    assert got.tolist() == np.array(expect).tolist()


def test_tabu_state_fifo_eviction():
    tabu = TabuState(2)
    a, b, c = (np.array(v, dtype=np.uint8)
               for v in ([1, 0], [0, 1], [1, 1]))
    tabu.add(a)
    tabu.add(b)
    tabu.add(a)           # duplicate: no reorder, no growth
    assert len(tabu) == 2
    tabu.add(c)           # evicts the oldest (a)
    assert a not in tabu
    assert b in tabu and c in tabu
    assert len(tabu) == 2


# ------------------------------------------------------ candidate evaluation

@pytest.mark.parametrize("refine", [True, False])
def test_evaluate_repeats_and_overlapping_batches_match_fresh_context(refine):
    # Repeated rows, repeated batches and overlapping batches must all score
    # exactly as a context that has seen nothing else.
    scn = _small_generated(seed=3, num_kbs=5)
    tau = np.array([20.0, 5.0])
    rho = np.array([0.5, 1.0])
    params = PairOptParams(power_refine=refine)
    cache_i, cache_j = initial_kbc(scn, 0, 1)
    start = np.concatenate((cache_i.bits, cache_j.bits))
    cands = neighborhood(start, 2, TabuState(8), scn, 0, 1)
    assert cands.shape[0] >= 8
    ctx = _PairContext(scn, 0, 1, tau, rho, params)
    batches = [np.vstack((cands, cands[:4], cands[::-1])),
               cands[1::2], cands[::3], np.vstack((cands[:1], cands[:1]))]
    for batch in batches + batches:
        got = ctx.evaluate(batch)
        want = _PairContext(scn, 0, 1, tau, rho, params).evaluate(batch)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    # a row's search inputs depend on its caches alone: at K = 5, 8 and 12
    # every row gets the same bits alone (slices of 1 row), inside each
    # slice of 2-37 rows, and inside the full 2^K table.  Sender and matched
    # bits are column views of one array, as in evaluate.
    for num_kbs in (5, 8, 12):
        table = _cache_table(num_kbs).astype(float)
        partner = table[np.random.default_rng(num_kbs).permutation(len(table))]
        joint = np.hstack((table, table * partner))
        sender, matched = joint[:, :num_kbs], joint[:, num_kbs:]
        wide = _PairContext(_small_generated(seed=num_kbs, num_kbs=num_kbs), 0, 1,
                            tau, rho, params)
        for w in (0, 1):
            full = wide._coeffs(sender, matched, w)
            for size in range(1, 38):
                for lo in range(0, len(table), size):
                    assert np.array_equal(wide._coeffs(sender[lo:lo + size],
                                                       matched[lo:lo + size], w),
                                          full[lo:lo + size])
    ci, cj = cands[:, :5].astype(float), cands[:, 5:].astype(float)
    rows = [ctx._coeffs(ci, ci * cj, 0), ctx._coeffs(cj, ci * cj, 1)]
    # the search, refined or on the grid, depends on its own row alone: each
    # coefficient row gets the same bits searched alone as inside the whole
    # batch
    whole = _PairContext(scn, 0, 1, tau, rho, params).search(rows)
    for n in range(len(cands)):
        alone = _PairContext(scn, 0, 1, tau, rho, params).search([r[n:n + 1] for r in rows])
        for a, w in zip(alone, whole):
            assert np.array_equal(a[0], w[n])


# run_solver outputs with the default SolverParams (apart from dual_iters=2)
# on two small scenarios, recorded with the exact rate-space power search;
# every later evaluation scheme must reproduce them.
SOLVER_FINGERPRINTS = [
    (dict(num_users=6, num_kbs=5, cell_radius_m=100.0, rng_seed=11),
     477.8952791311757,
     [0.0001363236084266449, 0.01073365893769187, 0.00023641068070267933,
      0.0011480567535124212, 0.00044101578446033735, 0.013382070055686195],
     ["11000", "10100", "00011", "10111", "00011", "10100"]),
    (dict(num_users=8, num_kbs=8, rng_seed=12),
     715.301332334106,
     [0.0, 0.11460897071826737, 0.0007987874765336312, 0.08756993596173225,
      0.0, 0.014347889170496649, 0.014348267898831524, 0.0007686622095032104],
     ["10000100", "00010110", "01100100", "00110100", "00010001", "00010010",
      "10100010", "01000110"]),
]


@pytest.mark.parametrize("cfg,sst,powers,caches", SOLVER_FINGERPRINTS)
def test_solver_fingerprint_default_knobs(cfg, sst, powers, caches):
    res = run_solver(generate_scenario(ScenarioConfig(**cfg)), SolverParams(dual_iters=2))
    assert_close(res.sst, sst, rel=1e-12)
    assert len(res.powers) == len(powers)
    for got, want in zip(res.powers, powers):
        assert_close(float(got), want, rel=1e-12)
    assert ["".join(map(str, c.bits.tolist())) for c in res.caches] == caches


# ---------------------------------------------------------- full subproblem

def test_subproblem_hand_pair_only_feasible_cache():
    scn = make_hand_pair()
    tau = np.zeros(2)
    rho = np.zeros(2)
    sol = solve_pair_subproblem(scn, 0, 1, tau, rho)
    ref = enumerate_pair_optimum(scn, 0, 1, tau, rho)
    assert sol.cache_i == ref.cache_i and sol.cache_j == ref.cache_j
    assert_close(sol.score, ref.score, rel=1e-12)
    assert_close(sol.score, 2.0 * HAND["v_s"], rel=1e-9)
    assert_close(sol.power_i, 1.0, rel=1e-9)
    assert_close(sol.secrecy_ij, HAND["v_s"], rel=1e-9)


@pytest.mark.parametrize("seed,num_kbs", [(1, 3), (2, 4), (3, 5), (4, 4)])
def test_tabu_close_to_exhaustive_on_small_instances(seed, num_kbs):
    scn = _small_generated(seed=seed, num_kbs=num_kbs)
    tau = np.ones(2)
    rho = np.ones(2)
    sol = solve_pair_subproblem(scn, 0, 1, tau, rho)
    ref = enumerate_pair_optimum(scn, 0, 1, tau, rho)
    assert sol.score <= ref.score + 1e-9 * max(abs(ref.score), 1.0)
    if ref.score > 0:
        assert sol.score >= 0.95 * ref.score
    else:
        assert sol.score >= ref.score - 1e-9


def test_subproblem_zero_iterations_returns_greedy_start():
    scn = _small_generated(seed=5)
    tau = np.zeros(2)
    rho = np.zeros(2)
    params = PairOptParams(max_iters=0)
    sol = solve_pair_subproblem(scn, 0, 1, tau, rho, params)
    seed_i, seed_j = initial_kbc(scn, 0, 1)
    assert sol.cache_i == seed_i and sol.cache_j == seed_j


def test_subproblem_incumbent_history_is_nondecreasing():
    scn = _small_generated(seed=6, num_kbs=5)
    sol, state = solve_pair_subproblem(scn, 0, 1, np.ones(2), np.ones(2),
                                       return_state=True)
    hist = state.best_history
    assert len(hist) >= 1
    assert all(a <= b + 1e-15 for a, b in zip(hist, hist[1:]))
    assert_close(hist[-1], state.best_score, rel=1e-15)
    assert_close(sol.score, state.best_score, rel=1e-9)


def test_exhaustive_param_equals_enumerator():
    scn = _small_generated(seed=7)
    tau = np.ones(2)
    rho = np.zeros(2)
    via_param = solve_pair_subproblem(scn, 0, 1, tau, rho,
                                      PairOptParams(exhaustive=True))
    direct = enumerate_pair_optimum(scn, 0, 1, tau, rho)
    assert via_param.cache_i == direct.cache_i
    assert via_param.cache_j == direct.cache_j
    assert via_param.score == direct.score
    assert via_param.power_i == direct.power_i


@pytest.mark.parametrize("num_kbs", [1, 3])
def test_joint_cache_table_is_product_order_and_read_only(num_kbs):
    table = _cache_table(2 * num_kbs)
    expect = list(itertools.product((0, 1), repeat=2 * num_kbs))
    assert table.dtype == np.uint8
    assert [tuple(row) for row in table.tolist()] == expect
    assert not table.flags.writeable
    assert _cache_table(2 * num_kbs) is table


def test_enumerator_rejects_large_catalogs():
    # the exact search stops past 12 KBs, its reference table scan past 8
    for search, num_kbs in ((enumerate_pair_optimum, 13), (_enumerate_table, 9)):
        scn = make_scenario(user_ranks=[list(range(1, num_kbs + 1))] * 2,
                            eaves_ranks=list(range(1, num_kbs + 1)),
                            sizes=[1] * num_kbs, interp_rates=[[200.0] * num_kbs] * 2)
        with pytest.raises(ValueError):
            search(scn, 0, 1, np.zeros(2), np.zeros(2), PairOptParams())


def _exact_outcome(search, scn, tau, rho, params):
    """Every field of ``search``'s PairSolution, or its InfeasiblePairError text."""
    try:
        sol = search(scn, 0, 1, tau, rho, params)
    except InfeasiblePairError as exc:
        return str(exc)
    return (sol.i, sol.j, sol.cache_i.bits.tolist(), sol.cache_j.bits.tolist(),
            sol.power_i, sol.power_j, sol.score, sol.secrecy_ij, sol.secrecy_ji,
            sol.delay_ij, sol.delay_ji)


# (config, tau, rho, grid points) of pairs that take the exact search off
# its main path.  In the first three a silent direction (best power 0, so
# its leak does not matter) makes several joint caches tie: within one
# matched set, and across sets when every joint cache scores 0.  The last
# has one feasible joint cache, so the search meets a one-row batch.
EDGE_CASES = [
    (dict(num_kbs=5, cell_radius_m=300.0, rng_seed=477730046),
     [40864.297, 34898.986], [4.9741491, 2.5817409], 5),
    (dict(num_kbs=5, cell_radius_m=300.0, rng_seed=262403145),
     [0.3245296, 0.89519088], [0.0, 0.0], 3),
    (dict(num_kbs=8, cell_radius_m=50.0, rng_seed=165109323, eta_min=0.72152202,
          capacity=11, user_skew=0.0, eaves_skew=0.0),
     [559.04370, 985.88642], [3.0213537, 2.6036187], 2),
    (dict(num_kbs=4, cell_radius_m=300.0, rng_seed=895711521, eta_min=0.79497155,
          capacity=12),
     [0.85780057, 0.33709714], [1.7969001, 0.04835384], 32),
]


# (config, tau, rho, grid points) of pairs whose best opened set is searched
# over its completions.  In the first, one direction is silent at its least
# leak and a lower code may tie; in the second, the two least-leak caches
# overlap outside the matched set.  Both lose their answer if the search
# skips a user's highest-code completion.
COMPLETION_CASES = [
    (dict(num_kbs=6, cell_radius_m=300.0, rng_seed=2146142127, eta_min=0.7222, capacity=10),
     [0.4348, 0.7793], [3.4314, 4.5067], 2),
    (dict(num_kbs=6, cell_radius_m=50.0, rng_seed=1893918326, eta_min=0.7483, capacity=10),
     [181.1685, 877.3535], [0.6707, 1.5987], 32),
]


def test_matched_set_search_equals_table_enumeration(monkeypatch):
    # The matched-set branch and bound must return the table scan's answer
    # bit for bit: the same error for an infeasible pair, else the same
    # caches (ties to the product-order first maximum), powers, score and
    # per-direction reports.  Each case runs on its own grid without
    # refinement, and with refinement on its own grid and on 32, 64 and 256
    # levels.
    grid = PairOptParams(power_grid_points=32, power_refine=False)
    cases = [(make_hand_pair(), np.zeros(2), np.zeros(2), grid)]
    cases += [(generate_scenario(ScenarioConfig(num_users=2, **cfg)), np.array(tau),
               np.array(rho), PairOptParams(power_grid_points=levels, power_refine=False))
              for cfg, tau, rho, levels in EDGE_CASES + COMPLETION_CASES]
    completion = slice(len(cases) - len(COMPLETION_CASES), len(cases))
    rng = np.random.default_rng(77)
    for num_kbs in (1, 3, 5, 6, 8):
        for case in range(8):
            tight = (dict(eta_min=float(rng.uniform(0.75, 0.8)),
                          capacity=int(rng.integers(10, 13))) if case % 2 else {})
            scn = generate_scenario(ScenarioConfig(
                num_users=2, num_kbs=num_kbs, cell_radius_m=50.0,
                rng_seed=int(rng.integers(2**31)), **tight))
            tau = rng.choice([0.0, 1.0, 1e3, 1e5]) * rng.random(2)
            rho = rng.choice([0.0, 1.0, 5.0]) * rng.random(2)
            cases.append((scn, tau, rho, grid))
    calls = []

    def counted(*args):
        calls.append(args)
        return _best_completion(*args)

    monkeypatch.setattr("sscn.pair_opt._best_completion", counted)
    outcomes, reached = [], []
    for scn, tau, rho, params in cases:
        want = _exact_outcome(_enumerate_table, scn, tau, rho, params)
        before = len(calls)
        assert _exact_outcome(enumerate_pair_optimum, scn, tau, rho, params) == want
        outcomes.append(want)
        reached.append(len(calls) > before)
        for levels in sorted({params.power_grid_points, 32, 64, 256}):
            refined = replace(params, power_grid_points=levels, power_refine=True)
            assert (_exact_outcome(enumerate_pair_optimum, scn, tau, rho, refined)
                    == _exact_outcome(_enumerate_table, scn, tau, rho, refined))
    # premises: the completion cases search completions, infeasible pairs,
    # and answers with a silent direction
    assert all(reached[completion])
    assert sum(isinstance(out, str) for out in outcomes) >= 3
    assert sum(not isinstance(out, str) and 0.0 in out[4:6] for out in outcomes) >= 5


def test_tabu_close_to_exact_at_twelve_kbs():
    # the library-default catalog size, beyond the joint-cache table's reach:
    # the exact search bounds every tabu score, and tabu stays within 2 %
    params = PairOptParams(power_grid_points=32, power_refine=False)
    ratios = []
    for seed in range(9000, 9012):
        scn = generate_scenario(ScenarioConfig(num_users=2, num_kbs=12,
                                               cell_radius_m=50.0, rng_seed=seed))
        tau, rho = np.ones(2), np.ones(2)
        exact = enumerate_pair_optimum(scn, 0, 1, tau, rho, params)
        tabu = solve_pair_subproblem(scn, 0, 1, tau, rho, params)
        assert tabu.score <= exact.score + 1e-12 * abs(exact.score)
        ratios.append(tabu.score / exact.score)
    assert min(ratios) >= 0.98


def test_solution_score_matches_scalar_recomputation():
    # the vectorized search and the scalar reference must agree on the
    # reported optimum, or matching decisions could drift between the two
    scn = _small_generated(seed=8, num_kbs=4)
    tau = np.array([1.0, 2.0])
    rho = np.array([0.5, 0.0])
    sol = solve_pair_subproblem(scn, 0, 1, tau, rho)
    ref = pair_score(scn, 0, 1, sol.cache_i, sol.cache_j,
                     sol.power_i, sol.power_j,
                     tau[0], tau[1], rho[0], rho[1])
    assert abs(sol.score - ref) <= 1e-9 * max(abs(ref), 1.0)
    # per-direction reports recompose to the same score
    manual = ((1.0 + rho[0]) * sol.secrecy_ij - tau[0] * sol.delay_ij
              + (1.0 + rho[1]) * sol.secrecy_ji - tau[1] * sol.delay_ji)
    assert_close(sol.score, manual, rel=1e-12)


def test_sigma_beyond_the_joint_length_flips_the_same_sets():
    # K = 3 gives a 6-entry joint cache and no flip set is larger, so any
    # sigma past 6 searches the same neighborhood
    scn = _small_generated(seed=4)
    tau = np.ones(2)
    rho = np.ones(2)
    whole = solve_pair_subproblem(scn, 0, 1, tau, rho, PairOptParams(sigma=6))
    huge = solve_pair_subproblem(scn, 0, 1, tau, rho, PairOptParams(sigma=10**12))
    assert huge == whole


def test_tabu_start_without_a_move_scores_as_optimize_powers():
    # the start is scored in one batch with its first neighborhood.  With no
    # iterations, or a first neighborhood that is empty (the hand pair must
    # cache its one KB at both users, so every flip is infeasible), the
    # search returns the start at optimize_powers' powers and score.
    scn = _small_generated(seed=5, num_kbs=4)
    tau, rho = np.array([2.0, 0.5]), np.array([0.5, 1.0])
    start = initial_kbc(scn, 0, 1)
    warm = neighborhood(np.concatenate([c.bits for c in start]), 1, TabuState(8), scn, 0, 1)[0]
    warm_start = (CacheVector(0, warm[:4]), CacheVector(1, warm[4:]))
    cases = [(scn, PairOptParams(max_iters=0), None, start),
             (scn, PairOptParams(max_iters=0), warm, warm_start),
             (make_hand_pair(), PairOptParams(), None, FULL1)]
    for case, params, initial, (cache_i, cache_j) in cases:
        sol, state = solve_pair_subproblem(case, 0, 1, tau, rho, params, return_state=True,
                                           initial=initial)
        p_i, p_j, score = optimize_powers(case, 0, 1, cache_i, cache_j, tau, rho, params)
        assert (sol.cache_i, sol.cache_j) == (cache_i, cache_j)
        assert (sol.power_i, sol.power_j) == (p_i, p_j)
        assert state.best_history == [score]
        assert_close(sol.score, score, rel=1e-12)


def test_warm_start_seed_validation_and_quality():
    scn = _small_generated(seed=9)
    tau = np.ones(2)
    rho = np.ones(2)
    with pytest.raises(ValueError):
        solve_pair_subproblem(scn, 0, 1, tau, rho,
                              initial=np.array([1, 0, 1], dtype=np.uint8))
    cold = solve_pair_subproblem(scn, 0, 1, tau, rho)
    warm_joint = np.concatenate((cold.cache_i.bits, cold.cache_j.bits))
    warm = solve_pair_subproblem(scn, 0, 1, tau, rho, initial=warm_joint)
    assert warm.score >= cold.score - 1e-9 * max(abs(cold.score), 1.0)
    # entries other than 0/1, and a joint cache over capacity, are refused
    # before any search runs
    with pytest.raises(ValueError, match="0/1"):
        solve_pair_subproblem(scn, 0, 1, tau, rho, initial=np.full(6, 2))
    tight = generate_scenario(ScenarioConfig(num_users=2, num_kbs=5, capacity=6,
                                             cell_radius_m=50.0, rng_seed=9))
    over = np.ones(10, dtype=np.uint8)
    assert not _feasible(over[None, :], tight, 0, 1)[0]
    with pytest.raises(ValueError, match="infeasible"):
        solve_pair_subproblem(tight, 0, 1, tau, rho, initial=over)


@pytest.mark.parametrize("kwargs", [
    dict(sigma=0), dict(max_iters=-1), dict(power_grid_points=1),
    # NaN compares false against every bound, so only the finiteness check
    # catches these
    dict(sigma=math.nan), dict(max_iters=math.nan),
    dict(power_grid_points=math.nan), dict(sigma=math.inf),
    # a non-integral count would pass the bounds and fail inside numpy
    dict(sigma=1.5), dict(max_iters=2.5),
])
def test_pair_opt_params_validation(kwargs):
    with pytest.raises(ValueError):
        PairOptParams(**kwargs)
