"""Per-link semantic value metrics.

A D2D link carries packets whose usefulness to the receiver depends on both
endpoints caching the packet's knowledge base (KB); the same transmission
leaks value to an eavesdropper for every KB the *sender* caches.  The
directed semantic secrecy value of a link is the legitimate semantic value
rate minus the eavesdropped one, clamped at zero.  Network-wide semantic
secrecy throughput (SST) sums that quantity over both directions of every
matched pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .scenario import Scenario

# Slack for satisfaction-threshold comparisons: float sums of probabilities
# land within 1e-12 of exact values, so a full cache must still pass
# eta_min = 1.0.
ETA_SLACK = 1.0e-9


@dataclass(frozen=True, eq=False)
class CacheVector:
    """Binary KB selection for one user (entry k is 1 iff KB k is cached)."""

    owner: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("cache bits must be a flat 0/1 vector")
        object.__setattr__(self, "bits", bits.astype(np.uint8))

    @classmethod
    def from_indices(cls, owner: int, indices: Sequence[int], num_kbs: int) -> "CacheVector":
        bits = np.zeros(num_kbs, dtype=np.uint8)
        bits[list(indices)] = 1
        return cls(owner, bits)

    def indices(self) -> list[int]:
        return np.flatnonzero(self.bits).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheVector):
            return NotImplemented
        return self.owner == other.owner and np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class PairValueRates:
    """Directed link metrics: Shannon rates and semantic value rates.

    ``v_d`` is the legitimate semantic value rate (value units/second),
    ``v_e`` the eavesdropped one, and ``v_s = max(v_d - v_e, 0)`` the
    semantic secrecy value of the direction.
    """

    r_d: float
    r_e: float
    v_d: float
    v_e: float
    v_s: float


def shannon_rate(power_w: float, gain: float, bandwidth_hz: float, noise_w: float) -> float:
    """Achievable rate W*log2(1 + p*g/noise) in bits/second."""
    if power_w < 0.0:
        raise ValueError("power must be nonnegative")
    if gain <= 0.0 or noise_w <= 0.0 or bandwidth_hz <= 0.0:
        raise ValueError("gain, noise and bandwidth must be positive")
    # np.log2 keeps this scalar path bit-identical to the vectorized power
    # search, so stability decisions never flip between the two.
    return bandwidth_hz * float(np.log2(1.0 + power_w * gain / noise_w))


def link_rates(
    power_w: float, gain_d: float, gain_e: float, bandwidth_hz: float, noise_w: float
) -> tuple[float, float]:
    """Rates of the legitimate link and the leakage to the eavesdropper."""
    return (shannon_rate(power_w, gain_d, bandwidth_hz, noise_w),
            shannon_rate(power_w, gain_e, bandwidth_hz, noise_w))


def satisfaction(cache: CacheVector, probs: np.ndarray) -> float:
    """Semantic knowledge satisfaction: request mass covered by the cache."""
    return float(cache.bits @ np.asarray(probs, dtype=float))


def cache_size(cache: CacheVector, sizes: np.ndarray) -> int:
    return int(cache.bits @ np.asarray(sizes))


def cache_fits(cache: CacheVector, sizes: np.ndarray, capacity: int) -> bool:
    return cache_size(cache, sizes) <= capacity


def meets_eta(cache: CacheVector, probs: np.ndarray, eta_min: float) -> bool:
    return satisfaction(cache, probs) >= eta_min - ETA_SLACK


def pair_value_rates(
    scn: Scenario,
    i: int,
    j: int,
    cache_i: CacheVector,
    cache_j: CacheVector,
    power_i: float,
) -> PairValueRates:
    """Directed metrics of link i -> j when user i transmits at ``power_i``.

    Legitimate value counts only KBs cached at both endpoints; leaked value
    counts every KB the sender caches, weighted by the eavesdropper's own
    preference for it.
    """
    cfg = scn.config
    if j not in scn.neighbors[i]:
        raise ValueError(f"user {j} is not an eligible neighbor of user {i}")
    r_d, r_e = link_rates(power_i, scn.gain_d[i, j], scn.gain_e[i],
                          cfg.bandwidth_hz, cfg.noise_w)
    probs_i = scn.catalog.user_probs[i]
    weights_i = scn.catalog.user_weights[i]
    matched = cache_i.bits * cache_j.bits
    v_d = r_d / cfg.packet_bits * float(np.sum(matched * probs_i * weights_i))
    v_e = r_e / cfg.packet_bits * float(
        np.sum(cache_i.bits * probs_i * scn.catalog.eaves_probs * weights_i))
    return PairValueRates(r_d=r_d, r_e=r_e, v_d=v_d, v_e=v_e, v_s=max(v_d - v_e, 0.0))


def network_sst(scn, caches, pairing, powers) -> float:
    """Network semantic secrecy throughput of a full assignment.

    ``pairing`` must be a feasible matching (see ``matching.Pairing``); every
    matched pair contributes both directed secrecy values.  Powers are per
    user, in watts, and must respect [0, p_max].

    This is the nominal value-rate sum, meaningful when every matched queue
    is stable (always true for solver output, whose power search excludes the
    unstable region); it is a test reference.  Reported SST, of solver and
    baselines alike, sums ``dual.measure_pair`` reports, which zero the
    delivered value of unstable directions.
    """
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (scn.num_users,):
        raise ValueError("need one transmit power per user")
    if np.any(powers < 0.0) or np.any(powers > scn.config.p_max_w * (1.0 + 1e-12)):
        raise ValueError("powers must lie in [0, p_max]")
    if len(caches) != scn.num_users:
        raise ValueError("need one cache vector per user")
    pairing.validate(scn)
    total = 0.0
    for i, j in pairing.matched_pairs():
        total += pair_value_rates(scn, i, j, caches[i], caches[j], powers[i]).v_s
        total += pair_value_rates(scn, j, i, caches[j], caches[i], powers[j]).v_s
    return total
