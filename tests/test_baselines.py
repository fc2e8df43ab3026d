"""Benchmark schemes: popularity caching, random/max power, simple pairing."""

import math

import numpy as np
import pytest

from conftest import line_positions, make_hand_pair, make_scenario
from sscn.baselines import preference_first_kbc, run_baseline
from sscn.metrics import cache_fits, satisfaction
from sscn.scenario import ScenarioConfig, generate_scenario


def _four_users_two_camps():
    """Users 0/2 favor KB 0, users 1/3 favor KB 1; one cache slot each.

    Adjacent users are closest, but cache overlap links (0,2) and (1,3):
    the two baselines must pair this network differently.
    """
    return make_scenario(user_ranks=[[1, 2], [2, 1], [1, 2], [2, 1]],
                         eaves_ranks=[1, 2], sizes=[1, 1],
                         interp_rates=[[200.0] * 2] * 4,
                         capacity=1, eta_min=0.5, user_skew=1.0,
                         positions=line_positions(4, spacing=1.0))


# ------------------------------------------------------------------ caching

def test_preference_first_is_deterministic():
    scn = generate_scenario(ScenarioConfig(num_users=6, num_kbs=5,
                                           cell_radius_m=50.0, rng_seed=2))
    a = preference_first_kbc(scn, seed=9)
    b = preference_first_kbc(scn, seed=9)
    assert all(x == y for x, y in zip(a, b))


def test_preference_first_respects_capacity_and_favorite():
    scn = generate_scenario(ScenarioConfig(num_users=6, num_kbs=5,
                                           cell_radius_m=50.0, rng_seed=2))
    for seed in range(5):
        caches = preference_first_kbc(scn, seed=seed)
        for i, cache in enumerate(caches):
            assert cache_fits(cache, scn.catalog.sizes, scn.config.capacity)
            favorite = int(np.argmax(scn.catalog.user_probs[i]))
            assert cache.bits[favorite] == 1


def test_preference_first_fills_leftover_capacity():
    # capacity covers the whole catalog: every KB ends up cached
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[1, 1, 1], interp_rates=[[200.0] * 3] * 2,
                        capacity=3, eta_min=0.5)
    for cache in preference_first_kbc(scn, seed=0):
        assert cache.bits.tolist() == [1, 1, 1]


def test_preference_first_empty_when_nothing_fits():
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[2, 2, 2], interp_rates=[[200.0] * 3] * 2,
                        capacity=1, eta_min=0.5)
    for cache in preference_first_kbc(scn, seed=0):
        assert cache.bits.tolist() == [0, 0, 0]


def test_unreachable_eta_is_reported_as_shortfall():
    scn = make_scenario(user_ranks=[[1, 2, 3]] * 2, eaves_ranks=[1, 2, 3],
                        sizes=[2, 2, 2], interp_rates=[[200.0] * 3] * 2,
                        capacity=1, eta_min=0.5)
    res = run_baseline(scn, "mpk", seed=0)
    assert set(res.feasibility.eta_shortfalls) == {0, 1}
    assert res.feasibility.eta_shortfalls[0] == pytest.approx(0.5)
    assert not res.feasibility.eta_ok


# ------------------------------------------------------------------ schemes

def test_mpk_transmits_at_full_power():
    scn = _four_users_two_camps()
    res = run_baseline(scn, "mpk", seed=1)
    assert np.all(res.powers == scn.config.p_max_w)


def test_rpd_powers_are_random_in_budget():
    scn = _four_users_two_camps()
    res = run_baseline(scn, "rpd", seed=1)
    assert np.all(res.powers > 0.0)
    assert np.all(res.powers <= scn.config.p_max_w)
    assert len(set(res.powers.tolist())) == scn.num_users  # actually random
    other = run_baseline(scn, "rpd", seed=2)
    assert not np.array_equal(res.powers, other.powers)


def test_rpd_pairs_nearest_neighbors():
    scn = _four_users_two_camps()
    res = run_baseline(scn, "rpd", seed=0)
    assert res.pairing.matched_pairs() == [(0, 1), (2, 3)]


def test_mpk_pairs_by_cache_overlap():
    scn = _four_users_two_camps()
    res = run_baseline(scn, "mpk", seed=0)
    # capacity 1 pins each cache to its favorite, so overlap beats distance
    assert res.pairing.matched_pairs() == [(0, 2), (1, 3)]


def test_baselines_are_deterministic_in_seed():
    scn = _four_users_two_camps()
    for kind in ("rpd", "mpk"):
        a = run_baseline(scn, kind, seed=7)
        b = run_baseline(scn, kind, seed=7)
        assert a.sst == b.sst
        assert np.array_equal(a.powers, b.powers)
        assert a.pairing.partner.tolist() == b.pairing.partner.tolist()


def test_overloaded_baseline_delivers_zero_value():
    # interpretation at 9/s, full-power arrivals at 10/s: queues blow up and
    # the measured assignment delivers nothing, with infinite delays on record
    scn = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                        interp_rates=[[9.0], [9.0]],
                        user_skew=0.0, eaves_skew=0.0)
    res = run_baseline(scn, "mpk", seed=0)
    assert res.sst == 0.0
    rep = res.pair_reports[(0, 1)]
    assert rep.delay_ij == math.inf and rep.delay_ji == math.inf
    assert res.feasibility.delay_violations  # inf exceeds any cap
    assert not res.feasibility.soft_ok


def test_baseline_results_share_solver_invariants():
    scn = generate_scenario(ScenarioConfig(num_users=8, num_kbs=5,
                                           cell_radius_m=50.0, rng_seed=4))
    for kind in ("rpd", "mpk"):
        res = run_baseline(scn, kind, seed=3)
        res.pairing.validate(scn)
        assert res.trace == ()
        assert res.dual_final is None
        for i in range(scn.num_users):
            assert cache_fits(res.caches[i], scn.catalog.sizes, scn.config.capacity)
            assert res.eta[i] == pytest.approx(
                satisfaction(res.caches[i], scn.catalog.user_probs[i]))
        assert set(res.pair_reports) == set(res.pairing.matched_pairs())


def test_baseline_best_feasible_snapshot_mirrors_soft_feasibility():
    strict = make_hand_pair()              # sst floor 50 unreachable
    relaxed = make_hand_pair(sst_min=0.0)
    assert run_baseline(strict, "mpk", seed=0).best_feasible is None
    snap = run_baseline(relaxed, "mpk", seed=0).best_feasible
    assert snap is not None and snap.sst > 0.0


@pytest.mark.parametrize("kind", ["rpd", "mpk"])
def test_feasible_baseline_is_its_own_best_feasible(kind):
    res = run_baseline(make_hand_pair(sst_min=0.0), kind, seed=0)
    assert res.feasibility.feasible
    best = res.best_feasible
    assert best.sst == res.sst
    assert best.caches == res.caches
    assert np.array_equal(best.pairing.partner, res.pairing.partner)
    assert np.array_equal(best.powers, res.powers)


def test_unknown_baseline_kind_rejected():
    scn = make_hand_pair()
    with pytest.raises(ValueError):
        run_baseline(scn, "fancy", seed=0)
