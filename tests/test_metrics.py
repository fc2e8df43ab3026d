"""Per-link value metrics: rates, weights, satisfaction, secrecy values."""

import numpy as np
import pytest

from conftest import HAND, ZIPF3, assert_close, make_hand_pair, make_scenario
from sscn.matching import Pairing
from sscn.metrics import (CacheVector, cache_fits, cache_size, link_rates,
                          meets_eta, network_sst, pair_value_rates,
                          satisfaction, shannon_rate)
from sscn.scenario import zipf_weights


# ---------------------------------------------------------------- rates

def test_shannon_rate_zero_power_is_zero():
    assert shannon_rate(0.0, 1.0, 1e5, 1.0) == 0.0


def test_shannon_rate_hand_value():
    # SNR = 3 -> log2(4) = 2 -> rate = 2 * bandwidth
    assert_close(shannon_rate(3.0, 1.0, 1.0e5, 1.0), 2.0e5, rel=1e-12)


def test_shannon_rate_monotone_in_power():
    rates = [shannon_rate(p, 0.5, 1e5, 1.0) for p in (0.1, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("kwargs", [
    dict(power_w=-1.0, gain=1.0, bandwidth_hz=1e5, noise_w=1.0),
    dict(power_w=1.0, gain=0.0, bandwidth_hz=1e5, noise_w=1.0),
    dict(power_w=1.0, gain=1.0, bandwidth_hz=0.0, noise_w=1.0),
    dict(power_w=1.0, gain=1.0, bandwidth_hz=1e5, noise_w=0.0),
])
def test_shannon_rate_validation(kwargs):
    with pytest.raises(ValueError):
        shannon_rate(**kwargs)


def test_link_rates_pairs_direct_and_leak():
    r_d, r_e = link_rates(1.0, 3.0, 1.0, 1.0e5, 1.0)
    assert_close(r_d, 2.0e5, rel=1e-12)
    assert_close(r_e, 1.0e5, rel=1e-12)


# ---------------------------------------------------------------- weights/satisfaction

def test_semantic_weights_hand():
    w = zipf_weights(np.array([1, 2, 4]), 1.0)
    assert np.allclose(w, [1.0, 0.5, 0.25], rtol=1e-15)
    assert np.allclose(zipf_weights(np.array([1, 2, 3]), 0.0), 1.0, rtol=0)


def test_satisfaction_hand_values():
    probs = np.array(ZIPF3)
    full = CacheVector(0, [1, 1, 1])
    empty = CacheVector(0, [0, 0, 0])
    ranks_1_and_3 = CacheVector(0, [1, 0, 1])
    assert_close(satisfaction(full, probs), 1.0, rel=1e-12)
    assert satisfaction(empty, probs) == 0.0
    assert_close(satisfaction(ranks_1_and_3, probs), 0.7444, abs_tol=2e-4)


def test_cache_size_and_fits():
    sizes = np.array([5, 1, 2])
    cache = CacheVector(0, [1, 0, 1])
    assert cache_size(cache, sizes) == 7
    assert cache_fits(cache, sizes, 7)
    assert not cache_fits(cache, sizes, 6)


def test_meets_eta_tolerates_float_dust():
    probs = np.array(ZIPF3)
    full = CacheVector(0, [1, 1, 1])
    # the probability sum is 1 only up to rounding; eta_min = 1 must pass
    assert meets_eta(full, probs, 1.0)
    assert not meets_eta(CacheVector(0, [0, 1, 1]), probs, 0.5)


# ---------------------------------------------------------------- CacheVector

def test_cache_vector_round_trip_and_eq():
    c = CacheVector.from_indices(3, [0, 2], 4)
    assert c.indices() == [0, 2]
    assert c.bits.dtype == np.uint8
    assert c == CacheVector(3, [1, 0, 1, 0])
    assert c != CacheVector(2, [1, 0, 1, 0])
    assert c != CacheVector(3, [1, 0, 0, 0])


@pytest.mark.parametrize("bits", [[0, 2], [[1, 0]], [0.5]])
def test_cache_vector_rejects_non_binary(bits):
    with pytest.raises(ValueError):
        CacheVector(0, bits)


# ---------------------------------------------------------------- pair values

def test_pair_value_rates_hand_instance(hand_pair):
    full = [CacheVector(0, [1]), CacheVector(1, [1])]
    r = pair_value_rates(hand_pair, 0, 1, full[0], full[1], 1.0)
    assert_close(r.r_d, HAND["r_d"], rel=1e-10)
    assert_close(r.r_e, HAND["r_e"], rel=1e-10)
    assert_close(r.v_d, HAND["v_d"], rel=1e-10)
    assert_close(r.v_e, HAND["v_e"], rel=1e-10)
    assert_close(r.v_s, HAND["v_s"], rel=1e-10)


def test_pair_value_no_overlap_zeroes_legitimate_value(hand_pair):
    r = pair_value_rates(hand_pair, 0, 1,
                         CacheVector(0, [1]), CacheVector(1, [0]), 1.0)
    assert r.v_d == 0.0
    assert r.v_e > 0.0      # the sender still leaks what it caches
    assert r.v_s == 0.0     # clamped at zero


def test_pair_value_empty_sender_cache_leaks_nothing(hand_pair):
    r = pair_value_rates(hand_pair, 0, 1,
                         CacheVector(0, [0]), CacheVector(1, [1]), 1.0)
    assert r.v_d == 0.0 and r.v_e == 0.0 and r.v_s == 0.0


def test_pair_value_rejects_ineligible_receiver():
    scn = make_scenario(user_ranks=[[1], [1], [1]], eaves_ranks=[1],
                        sizes=[1], interp_rates=[[200.0]] * 3,
                        neighbors=((1,), (0,), ()))
    with pytest.raises(ValueError):
        pair_value_rates(scn, 0, 2, CacheVector(0, [1]), CacheVector(2, [1]), 1.0)


def test_secrecy_clamp_when_leak_dominates():
    # swap the gains so the eavesdropper hears better than the receiver
    scn = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                        interp_rates=[[200.0]] * 2, user_skew=0.0, eaves_skew=0.0,
                        gain_d=np.array([[0.0, 2.0**0.008 - 1.0],
                                         [2.0**0.008 - 1.0, 0.0]]),
                        gain_e=np.full(2, 2.0**0.08 - 1.0))
    r = pair_value_rates(scn, 0, 1, CacheVector(0, [1]), CacheVector(1, [1]), 1.0)
    assert r.v_d < r.v_e
    assert r.v_s == 0.0


# ---------------------------------------------------------------- network SST

def test_network_sst_empty_pairing_is_zero(hand_pair):
    caches = [CacheVector(0, [1]), CacheVector(1, [1])]
    pairing = Pairing.from_pairs(2, [])
    assert network_sst(hand_pair, caches, pairing, [0.0, 0.0]) == 0.0


def test_network_sst_sums_both_directions(hand_pair):
    caches = [CacheVector(0, [1]), CacheVector(1, [1])]
    pairing = Pairing.from_pairs(2, [(0, 1)])
    total = network_sst(hand_pair, caches, pairing, [1.0, 1.0])
    assert_close(total, 2.0 * HAND["v_s"], rel=1e-10)
    fwd = pair_value_rates(hand_pair, 0, 1, caches[0], caches[1], 1.0).v_s
    rev = pair_value_rates(hand_pair, 1, 0, caches[1], caches[0], 1.0).v_s
    assert_close(total, fwd + rev, rel=1e-12)


def test_network_sst_brute_force_two_pairs():
    scn = make_scenario(user_ranks=[[1, 2]] * 4, eaves_ranks=[1, 2],
                        sizes=[1, 1], interp_rates=[[200.0, 100.0]] * 4)
    caches = [CacheVector(i, [1, 1]) for i in range(4)]
    pairing = Pairing.from_pairs(4, [(0, 1), (2, 3)])
    powers = [1.0, 0.5, 0.25, 1.0]
    total = network_sst(scn, caches, pairing, powers)
    manual = sum(pair_value_rates(scn, s, r, caches[s], caches[r], powers[s]).v_s
                 for s, r in [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert_close(total, manual, rel=1e-12)
    assert total > 0.0


def test_network_sst_validates_powers(hand_pair):
    caches = [CacheVector(0, [1]), CacheVector(1, [1])]
    pairing = Pairing.from_pairs(2, [(0, 1)])
    with pytest.raises(ValueError):
        network_sst(hand_pair, caches, pairing, [1.0, 2.0])   # above p_max
    with pytest.raises(ValueError):
        network_sst(hand_pair, caches, pairing, [-0.1, 1.0])
    with pytest.raises(ValueError):
        network_sst(hand_pair, caches, pairing, [1.0])        # wrong shape
