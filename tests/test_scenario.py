"""Scenario generation, channel model, Zipf popularity, serialization."""

import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import ZIPF3, assert_close
from sscn.scenario import (ScenarioConfig, ScenarioFormatError,
                           ScenarioGenerationError, channel_gain_from_distance,
                           config_from_mapping, dbm_to_watts, fields_from_strings,
                           generate_scenario, scenario_from_text,
                           scenario_to_text, with_p_max, zipf_probabilities)


# ---------------------------------------------------------------- units

def test_dbm_to_watts_hand_values():
    assert dbm_to_watts(30.0) == 1.0
    assert_close(dbm_to_watts(0.0), 1.0e-3, rel=1e-12)
    assert_close(dbm_to_watts(21.0), 10.0 ** -0.9, rel=1e-15)
    assert_close(dbm_to_watts(-111.45), 10.0 ** (-141.45 / 10.0), rel=1e-15)


def test_config_converts_dbm_once():
    cfg = ScenarioConfig(num_users=2, p_max_dbm=21.0, noise_dbm=-111.45)
    assert_close(cfg.p_max_w, 10.0 ** -0.9, rel=1e-15)
    assert_close(cfg.noise_w, 10.0 ** (-141.45 / 10.0), rel=1e-15)


# ---------------------------------------------------------------- path loss

def test_channel_gain_hand_values():
    # 34 + 40*log10(d) dB: 34 dB at 1 m, 114 dB at 100 m
    assert_close(channel_gain_from_distance(1.0), 10.0 ** -3.4, rel=1e-15)
    assert_close(channel_gain_from_distance(100.0), 10.0 ** -11.4, rel=1e-15)


def test_channel_gain_monotone_decreasing():
    d = np.linspace(0.5, 500.0, 80)
    g = [channel_gain_from_distance(x) for x in d]
    assert all(a > b for a, b in zip(g, g[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_channel_gain_rejects_nonpositive_distance(bad):
    with pytest.raises(ValueError):
        channel_gain_from_distance(bad)


# ---------------------------------------------------------------- zipf

def test_zipf_hand_values_k3_skew12():
    probs = zipf_probabilities(np.array([1, 2, 3]), 1.2)
    assert np.allclose(probs, ZIPF3, atol=1e-4)
    assert_close(float(probs.sum()), 1.0, rel=0.0, abs_tol=1e-12)


def test_zipf_hand_values_k2_skew1_permuted():
    # entry holding rank 2 gets (1/2)/(1 + 1/2), entry holding rank 1 gets 1/1.5
    probs = zipf_probabilities(np.array([2, 1]), 1.0)
    assert_close(probs[0], 1.0 / 3.0, rel=1e-15)
    assert_close(probs[1], 2.0 / 3.0, rel=1e-15)


def test_zipf_zero_skew_is_uniform():
    probs = zipf_probabilities(np.array([3, 1, 4, 2]), 0.0)
    assert np.allclose(probs, 0.25, rtol=0, atol=1e-15)


def test_zipf_depends_only_on_rank():
    base = zipf_probabilities(np.array([1, 2, 3, 4]), 0.8)
    perm = zipf_probabilities(np.array([4, 2, 1, 3]), 0.8)
    assert_close(perm[2], base[0], rel=1e-15)  # rank 1
    assert_close(perm[1], base[1], rel=1e-15)  # rank 2
    assert_close(perm[3], base[2], rel=1e-15)  # rank 3
    assert_close(perm[0], base[3], rel=1e-15)  # rank 4


@pytest.mark.parametrize("ranks", [[1, 1, 2], [0, 1, 2], [2, 3, 4], [1, 2, 2, 3]])
def test_zipf_rejects_non_permutations(ranks):
    with pytest.raises(ValueError):
        zipf_probabilities(np.array(ranks), 1.0)


def test_zipf_rejects_negative_skew():
    with pytest.raises(ValueError):
        zipf_probabilities(np.array([1, 2]), -0.1)


# ---------------------------------------------------------------- generation

@pytest.fixture(scope="module")
def generated():
    cfg = ScenarioConfig(num_users=8, num_kbs=5, cell_radius_m=50.0, rng_seed=7)
    return cfg, generate_scenario(cfg)


def test_generate_is_deterministic(generated):
    cfg, scn = generated
    again = generate_scenario(cfg)
    assert scenario_to_text(again) == scenario_to_text(scn)


def test_generated_geometry(generated):
    cfg, scn = generated
    assert scn.positions.shape == (cfg.num_users + 1, 2)
    radii = np.hypot(scn.positions[:, 0], scn.positions[:, 1])
    assert np.all(radii <= cfg.cell_radius_m + 1e-9)
    assert np.allclose(scn.gain_d, scn.gain_d.T)
    assert np.all(np.diag(scn.gain_d) == 0.0)
    assert np.all(scn.gain_e > 0.0)
    # gains follow the path-loss law applied to the drawn positions
    d01 = scn.distance(0, 1)
    assert_close(scn.gain_d[0, 1], channel_gain_from_distance(d01), rel=1e-12)
    d0e = float(np.hypot(*(scn.positions[0] - scn.positions[cfg.num_users])))
    assert_close(scn.gain_e[0], channel_gain_from_distance(d0e), rel=1e-12)


def test_generated_catalog(generated):
    cfg, scn = generated
    k = cfg.num_kbs
    lo, hi = cfg.kb_size_min, cfg.kb_size_max
    assert np.all((scn.catalog.sizes >= lo) & (scn.catalog.sizes <= hi))
    for row in scn.catalog.user_ranks:
        assert sorted(row.tolist()) == list(range(1, k + 1))
    assert sorted(scn.catalog.eaves_ranks.tolist()) == list(range(1, k + 1))
    tlo, thi = cfg.interp_time_min, cfg.interp_time_max
    assert np.all(scn.catalog.interp_rates >= 1.0 / thi - 1e-9)
    assert np.all(scn.catalog.interp_rates <= 1.0 / tlo + 1e-9)
    assert np.allclose(scn.catalog.user_probs.sum(axis=1), 1.0, atol=1e-12)
    # weights are rank**-skew, aligned with probabilities
    expected_w = scn.catalog.user_ranks.astype(float) ** -cfg.user_skew
    assert np.allclose(scn.catalog.user_weights, expected_w, rtol=1e-15)


def test_generated_eligibility_matches_snr_rule(generated):
    cfg, scn = generated
    snr = cfg.p_max_w * scn.gain_d / cfg.noise_w
    for i in range(cfg.num_users):
        expect = {j for j in range(cfg.num_users)
                  if j != i and snr[i, j] >= cfg.snr_threshold}
        assert set(scn.neighbors[i]) == expect
        assert len(scn.neighbors[i]) > 0
    for i, j in scn.eligible_pairs():
        assert i < j and j in scn.neighbors[i] and i in scn.neighbors[j]


def test_shared_interpretation_rates_by_default(generated):
    _, scn = generated
    assert np.all(scn.catalog.interp_rates == scn.catalog.interp_rates[0])


def test_per_user_interpretation_rates():
    cfg = ScenarioConfig(num_users=4, num_kbs=6, cell_radius_m=50.0,
                         per_user_interp=True, rng_seed=3)
    scn = generate_scenario(cfg)
    assert not np.all(scn.catalog.interp_rates == scn.catalog.interp_rates[0])


def test_generation_fails_when_no_topology_is_eligible():
    cfg = ScenarioConfig(num_users=2, snr_threshold=1e30, rng_seed=0)
    with pytest.raises(ScenarioGenerationError):
        generate_scenario(cfg)


# ---------------------------------------------------------------- with_p_max

def test_with_p_max_keeps_environment(generated):
    _, scn = generated
    raised = with_p_max(scn, scn.config.p_max_dbm + 12.0)
    assert raised.config.p_max_dbm == scn.config.p_max_dbm + 12.0
    assert np.array_equal(raised.positions, scn.positions)
    assert np.array_equal(raised.gain_d, scn.gain_d)
    assert np.array_equal(raised.catalog.sizes, scn.catalog.sizes)
    assert np.array_equal(raised.catalog.user_ranks, scn.catalog.user_ranks)
    assert np.array_equal(raised.catalog.interp_rates, scn.catalog.interp_rates)


def test_with_p_max_eligibility_grows_with_budget(generated):
    _, scn = generated
    low = with_p_max(scn, scn.config.p_max_dbm - 30.0)
    high = with_p_max(scn, scn.config.p_max_dbm + 30.0)
    for i in range(scn.num_users):
        assert set(low.neighbors[i]) <= set(scn.neighbors[i]) <= set(high.neighbors[i])


# ---------------------------------------------------------------- serialization

def test_text_round_trip_is_exact(generated, tmp_path):
    _, scn = generated
    text = scenario_to_text(scn)
    loaded = scenario_from_text(text)
    assert scenario_to_text(loaded) == text
    assert np.array_equal(loaded.positions, scn.positions)
    assert np.array_equal(loaded.gain_d, scn.gain_d)
    assert np.array_equal(loaded.catalog.interp_rates, scn.catalog.interp_rates)
    assert loaded.neighbors == scn.neighbors
    assert loaded.config == scn.config


def test_scenario_from_text_missing_section():
    with pytest.raises(ScenarioFormatError):
        scenario_from_text("[config]\nnum_users = 2\n")


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(ScenarioFormatError):
        config_from_mapping({"num_users": "4", "bogus": "1"})


def test_config_from_mapping_round_trip():
    cfg = ScenarioConfig(num_users=5, num_kbs=4, p_max_dbm=18.0,
                         kb_size_min=2, kb_size_max=3, per_user_interp=True)
    text = scenario_to_text(generate_scenario(
        ScenarioConfig(num_users=2, cell_radius_m=10.0, rng_seed=1)))
    assert "# sscn scenario v1" in text
    mapping = {
        "num_users": "5", "num_kbs": "4", "p_max_dbm": "18.0",
        "kb_size_min": "2", "kb_size_max": "3", "per_user_interp": "true",
    }
    rebuilt = config_from_mapping(mapping)
    assert rebuilt.num_users == cfg.num_users
    assert (rebuilt.kb_size_min, rebuilt.kb_size_max) == (cfg.kb_size_min, cfg.kb_size_max)
    assert rebuilt.per_user_interp is True
    assert_close(rebuilt.p_max_w, cfg.p_max_w, rel=1e-15)


def test_fields_from_strings_types_by_field_default():
    kwargs = fields_from_strings(ScenarioConfig, {
        "num_users": "7", "eta_min": "1", "per_user_interp": "TRUE"})
    assert kwargs == {"num_users": 7, "eta_min": 1.0, "per_user_interp": True}
    assert type(kwargs["eta_min"]) is float
    for bad in ({"num_users": "7.0"}, {"per_user_interp": "yes"}, {"eta_min": "half"},
                {"kb_size_min": "1 5"}, {"noise_w": "1.0"}, {"bogus": "1"}):
        with pytest.raises(ScenarioFormatError):
            fields_from_strings(ScenarioConfig, bad)
    # a renamed field is set through its config name only
    names = {"size": "num_users"}
    assert fields_from_strings(ScenarioConfig, {"size": "3"}, names=names) == {"num_users": 3}
    with pytest.raises(ScenarioFormatError, match="unknown config key 'num_users'"):
        fields_from_strings(ScenarioConfig, {"num_users": "3"}, names=names)


@pytest.mark.parametrize("kwargs", [
    dict(num_users=1),
    dict(num_users=2, num_kbs=0),
    dict(num_users=2, eta_min=1.5),
    dict(num_users=2, kb_size_min=0),
    dict(num_users=2, capacity=0),
    dict(num_users=2, interp_time_min=0.0),
    dict(num_users=2, delay_max_s=0.0),
    dict(num_users=4.5),
    dict(num_users=2, kb_size_max=2.5),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(kb_size_min=6), "need 0 < kb_size_min <= kb_size_max"),
    (dict(kb_size_max=0), "need 0 < kb_size_min <= kb_size_max"),
    (dict(interp_time_min=0.02), "need 0 < interp_time_min <= interp_time_max"),
    (dict(interp_time_max=-1.0), "need 0 < interp_time_min <= interp_time_max"),
    (dict(kb_size_min=1.5), "kb_size_min must be an integer"),
    (dict(rng_seed=-1), "rng_seed must be nonnegative"),
])
def test_config_validation_names_the_key(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioConfig(**kwargs)


def test_config_from_mapping_takes_a_missing_bound_from_its_default():
    cfg = config_from_mapping({"kb_size_min": "2", "interp_time_max": "0.02"})
    assert (cfg.kb_size_min, cfg.kb_size_max) == (2, 5)
    assert (cfg.interp_time_min, cfg.interp_time_max) == (5.0e-3, 0.02)
    with pytest.raises(ScenarioFormatError, match="need 0 < kb_size_min <= kb_size_max"):
        config_from_mapping({"kb_size_min": "6"})


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["gain_d", "gain_e"])
def test_scenario_rejects_non_finite_gains(generated, field, bad):
    _, scn = generated
    gains = getattr(scn, field).copy()
    if field == "gain_d":
        gains[0, 1] = gains[1, 0] = bad
    else:
        gains[1] = bad
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(scn, **{field: gains})
