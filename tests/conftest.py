"""Shared fixtures: hand-built scenarios with exactly known metrics.

``make_scenario`` constructs a Scenario directly from explicit channel gains
and catalog data, bypassing the random generator, so tests can pin every
input of a computation.  The two-user "hand pair" instance is engineered so
that at 1 W transmit power the legitimate link rate is exactly 8000 bit/s and
the leakage rate 800 bit/s; with one unit-size KB, uniform preferences
(skew 0) and 800-bit packets this gives clean round numbers for every metric:

    v_d = 8000/800 * 1 = 10        value units/s to the receiver
    v_e =  800/800 * 1 =  1        value units/s leaked
    v_s = 10 - 1       =  9        secrecy value per direction
    lambda_eff = 8000/800 = 10     packets/s into the interpretation queue
    E[S] = 1/200, Var[S] = 1/200^2 (exponential interpretation at 200 /s)
    delay = 10 * 2*(1/200)^2 / (2*(1 - 10/200)) = 5e-4 / 1.9 s
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sscn.scenario import KbCatalog, Scenario, ScenarioConfig

# Gains chosen so W*log2(1 + 1.0*g/1.0) hits the target rates at 1 W / 1 W noise.
HAND_GAIN_D = 2.0**0.08 - 1.0    # -> r_d = 1e5 * 0.08  = 8000 bit/s
HAND_GAIN_E = 2.0**0.008 - 1.0   # -> r_e = 1e5 * 0.008 =  800 bit/s

HAND = {
    "r_d": 8000.0,
    "r_e": 800.0,
    "v_d": 10.0,
    "v_e": 1.0,
    "v_s": 9.0,
    "lambda_eff": 10.0,
    "interp_mean": 1.0 / 200.0,
    "interp_var": (1.0 / 200.0) ** 2,
    "utilization": 10.0 / 200.0,
    "delay": 10.0 * 2.0 * (1.0 / 200.0) ** 2 / (2.0 * (1.0 - 10.0 / 200.0)),
}

# Zipf probabilities for K = 3, skew 1.2, ranks (1, 2, 3).  Exact values are
# (0.587249, 0.255615, 0.157136); these four-digit approximations carry the
# rounding used throughout the hand examples, so comparisons against them use
# an absolute tolerance of 1e-4.
ZIPF3 = (0.5872, 0.2556, 0.1572)


def line_positions(num_users: int, spacing: float = 10.0) -> np.ndarray:
    """Users on the x axis ``spacing`` apart; eavesdropper far off-axis."""
    pos = np.zeros((num_users + 1, 2))
    pos[:num_users, 0] = spacing * np.arange(num_users)
    pos[num_users] = (0.0, 1.0e3)
    return pos


def make_scenario(
    *,
    user_ranks,
    eaves_ranks,
    sizes,
    interp_rates,
    gain_d=None,
    gain_e=None,
    positions=None,
    neighbors=None,
    **config_overrides,
) -> Scenario:
    """Scenario with explicit gains/catalog and a complete eligibility graph.

    Defaults: every off-diagonal direct gain is HAND_GAIN_D, every
    eavesdropper gain HAND_GAIN_E, all pairs mutually eligible, 1 W power
    budget and 1 W noise (so SNR == power * gain), uniform preferences only
    if the caller passes skew overrides.
    """
    user_ranks = np.asarray(user_ranks, dtype=int)
    m, k = user_ranks.shape
    defaults = dict(
        num_users=m,
        num_kbs=k,
        cell_radius_m=1.0e3,
        bandwidth_hz=1.0e5,
        packet_bits=800.0,
        noise_dbm=30.0,   # 1 W
        p_max_dbm=30.0,   # 1 W
        snr_threshold=0.0,
        eta_min=0.5,
        capacity=int(np.sum(sizes)),
    )
    defaults.update(config_overrides)
    config = ScenarioConfig(**defaults)
    if gain_d is None:
        gain_d = np.full((m, m), HAND_GAIN_D)
        np.fill_diagonal(gain_d, 0.0)
    if gain_e is None:
        gain_e = np.full(m, HAND_GAIN_E)
    if positions is None:
        positions = line_positions(m)
    if neighbors is None:
        neighbors = tuple(tuple(j for j in range(m) if j != i) for i in range(m))
    catalog = KbCatalog.build(
        np.asarray(sizes, dtype=int), user_ranks, np.asarray(eaves_ranks, dtype=int),
        np.asarray(interp_rates, dtype=float), config.user_skew, config.eaves_skew)
    return Scenario(config=config, positions=np.asarray(positions, dtype=float),
                    gain_d=np.asarray(gain_d, dtype=float),
                    gain_e=np.asarray(gain_e, dtype=float),
                    catalog=catalog, neighbors=neighbors)


def make_hand_pair(**config_overrides) -> Scenario:
    """The two-user single-KB instance documented in the module docstring."""
    overrides = dict(user_skew=0.0, eaves_skew=0.0)
    overrides.update(config_overrides)
    return make_scenario(
        user_ranks=[[1], [1]],
        eaves_ranks=[1],
        sizes=[1],
        interp_rates=[[200.0], [200.0]],
        **overrides,
    )


@pytest.fixture(scope="session")
def hand_pair() -> Scenario:
    return make_hand_pair()


def assert_close(actual: float, expected: float, rel: float = 1.0e-9,
                 abs_tol: float = 1.0e-12) -> None:
    assert math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_tol), (
        f"{actual!r} != {expected!r} (rel {rel}, abs {abs_tol})")


def reject_non_finite(name: str):
    """``parse_constant`` hook of ``json.loads`` that refuses the NaN,
    Infinity and -Infinity tokens strict JSON readers reject."""
    raise ValueError(f"non-finite value {name} in JSON output")
