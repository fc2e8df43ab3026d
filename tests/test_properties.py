"""Property-based invariants that should hold on arbitrary valid inputs.

Each property pins structure rather than numbers: normalization, monotonicity,
ordering bounds, round trips.  Hand-value checks live in the per-module tests.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import make_hand_pair, make_scenario

from sscn.dual import DualState, update_duals
from sscn.matching import OmegaMatrix, Pairing, matching_weight, solve_dup
from sscn.metrics import CacheVector, pair_value_rates, satisfaction
from sscn.pair_opt import pair_score
from sscn.queueing import QueueStats, pk_delay, queue_stats
from sscn.scenario import channel_gain_from_distance, zipf_probabilities

COMMON = settings(max_examples=50, deadline=None)

# One stable two-user scenario reused by the cache/power properties: K=4,
# distinct user/eaves rankings, interpretation fast enough that every power
# in [0, p_max] keeps both queues stable.
PAIR4 = make_scenario(
    user_ranks=[[1, 2, 3, 4], [2, 1, 4, 3]],
    eaves_ranks=[3, 1, 4, 2],
    sizes=[1, 1, 1, 1],
    interp_rates=[[200.0, 200.0, 200.0, 200.0]] * 2,
)
HAND_PAIR = make_hand_pair()


@st.composite
def rank_perms(draw, max_k: int = 8):
    k = draw(st.integers(min_value=1, max_value=max_k))
    return draw(st.permutations(list(range(1, k + 1))))


def bits4(label: str):
    return st.lists(st.integers(0, 1), min_size=4, max_size=4).map(
        lambda b: np.array(b, dtype=np.uint8)
    )


@COMMON
@given(ranks=rank_perms(), skew=st.floats(0.0, 4.0, allow_nan=False))
def test_zipf_normalized_and_positive(ranks, skew):
    probs = zipf_probabilities(ranks, skew)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all(probs > 0.0)


@COMMON
@given(ranks=rank_perms(), skew=st.floats(0.0, 4.0, allow_nan=False))
def test_zipf_probability_never_increases_with_rank(ranks, skew):
    probs = zipf_probabilities(ranks, skew)
    by_rank = probs[np.argsort(ranks)]
    assert np.all(np.diff(by_rank) <= 1e-15)


@COMMON
@given(
    d1=st.floats(0.1, 1.0e4, allow_nan=False),
    factor=st.floats(1.0 + 1e-6, 100.0, allow_nan=False),
)
def test_channel_gain_decreases_with_distance(d1, factor):
    assert channel_gain_from_distance(d1) > channel_gain_from_distance(d1 * factor)


@COMMON
@given(base=bits4("a"), extra=bits4("b"))
def test_satisfaction_monotone_under_superset(base, extra):
    superset = np.maximum(base, extra)
    probs = PAIR4.catalog.user_probs[0]
    assert satisfaction(CacheVector(0, superset), probs) >= satisfaction(
        CacheVector(0, base), probs
    )


@COMMON
@given(
    bits_i=bits4("i"),
    bits_j=bits4("j"),
    power=st.floats(0.0, 1.0, allow_nan=False),
)
def test_secrecy_rate_ordering_bounds(bits_i, bits_j, power):
    rates = pair_value_rates(
        PAIR4, 0, 1, CacheVector(0, bits_i), CacheVector(1, bits_j), power
    )
    assert rates.v_e >= 0.0
    assert 0.0 <= rates.v_s <= rates.v_d + 1e-15


@COMMON
@given(
    bits_i=bits4("i"),
    bits_j=bits4("j"),
    r_d=st.floats(0.0, 1.0e5, allow_nan=False),
)
def test_queue_stats_utilization_identity_and_variance_bound(bits_i, bits_j, r_d):
    stats = queue_stats(
        CacheVector(0, bits_i),
        CacheVector(1, bits_j),
        PAIR4.catalog.user_probs[0],
        PAIR4.catalog.interp_rates[1],
        r_d,
        PAIR4.config.packet_bits,
    )
    assert math.isclose(
        stats.utilization, stats.lambda_eff * stats.mean_interp_s, rel_tol=1e-12
    )
    # Class means are nonnegative, so sum of squares <= square of sums.
    assert stats.var_interp <= stats.mean_interp_s**2 + 1e-18
    assert stats.lambda_eff <= r_d / PAIR4.config.packet_bits + 1e-12


@COMMON
@given(
    mean=st.floats(1.0e-4, 1.0e-2, allow_nan=False),
    var_frac=st.floats(0.0, 1.0, allow_nan=False),
    utils=st.tuples(st.floats(0.01, 0.95), st.floats(0.01, 0.95)),
)
def test_pk_delay_nonnegative_and_increasing_in_arrivals(mean, var_frac, utils):
    var = var_frac * mean**2
    lo, hi = sorted(utils)
    d_lo = pk_delay(QueueStats(lo / mean, mean, var))
    d_hi = pk_delay(QueueStats(hi / mean, mean, var))
    assert 0.0 <= d_lo <= d_hi


@st.composite
def symmetric_scores(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    mat = np.full((n, n), -np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = draw(st.floats(0.0, 100.0, allow_nan=False))
    return mat


@COMMON
@given(mat=symmetric_scores())
def test_greedy_matching_within_half_of_exact(mat):
    omega = OmegaMatrix(scores=mat)
    greedy = matching_weight(omega, solve_dup(omega, mode="greedy"))
    exact = matching_weight(omega, solve_dup(omega, mode="exact"))
    assert exact >= greedy - 1e-9
    assert greedy >= exact / 2.0 - 1e-9


@st.composite
def disjoint_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    order = draw(st.permutations(list(range(n))))
    count = draw(st.integers(min_value=0, max_value=n // 2))
    pairs = [
        (min(order[2 * k], order[2 * k + 1]), max(order[2 * k], order[2 * k + 1]))
        for k in range(count)
    ]
    return n, pairs


@COMMON
@given(data=disjoint_pairs())
def test_pairing_round_trip(data):
    n, pairs = data
    pairing = Pairing.from_pairs(n, pairs)
    assert pairing.matched_pairs() == sorted(pairs)
    matched = {u for pair in pairs for u in pair}
    assert sorted(pairing.unpaired()) == sorted(set(range(n)) - matched)


@COMMON
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=16))
def test_cache_vector_round_trip(bits):
    cache = CacheVector(3, np.array(bits, dtype=np.uint8))
    rebuilt = CacheVector.from_indices(3, cache.indices(), len(bits))
    assert rebuilt == cache


@COMMON
@given(
    p_i=st.floats(0.0, 1.0, allow_nan=False),
    p_j=st.floats(0.0, 1.0, allow_nan=False),
    tau=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
    rho=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)
def test_pair_score_separates_across_directions(p_i, p_j, tau, rho):
    scn = HAND_PAIR
    full = CacheVector(0, [1]), CacheVector(1, [1])
    args = (scn, 0, 1, full[0], full[1])
    total = pair_score(*args, p_i, p_j, tau[0], tau[1], rho[0], rho[1])
    fwd = pair_score(*args, p_i, 0.0, tau[0], tau[1], rho[0], rho[1])
    bwd = pair_score(*args, 0.0, p_j, tau[0], tau[1], rho[0], rho[1])
    assert math.isclose(total, fwd + bwd, rel_tol=1e-9, abs_tol=1e-9)


@COMMON
@given(
    tau=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
    rho=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
    delays=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    values=st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3),
    t=st.integers(1, 1000),
)
def test_dual_update_stays_nonnegative_and_advances_time(tau, rho, delays, values, t):
    state = DualState(
        tau=np.array(tau), rho=np.array(rho),
        step_delay0=100.0, step_value0=0.01, t=t,
    )
    new = update_duals(
        state,
        delay_sums=np.array(delays),
        value_sums=np.array(values),
        delay_max_s=0.005,
        sst_min=50.0,
    )
    assert np.all(new.tau >= 0.0)
    assert np.all(new.rho >= 0.0)
    assert new.t == t + 1
