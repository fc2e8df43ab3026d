"""Benchmark schemes against which the dual-decomposition solver is judged.

Both baselines cache by popularity alone (greedy satisfaction-first fill,
then uniform random stuffing of leftover capacity) and skip power/pairing
optimization: RPD draws every transmit power uniformly from (0, p_max] and
pairs nearest eligible neighbors; MPK transmits at full power and pairs by
largest cache overlap.  Results are scored by the solver's own
``evaluated``, with exactly the same metrics and audit as a solver iterate,
so unstable queues show up as infinite delays rather than being hidden.
"""

from __future__ import annotations

import numpy as np

from .dual import SolveResult, evaluated, measure_pair, solo_cache
from .matching import Pairing, greedy_walk
from .metrics import CacheVector
from .scenario import Scenario


KINDS = ("rpd", "mpk")


def _preference_first(scn: Scenario, rng: np.random.Generator
                      ) -> tuple[list[CacheVector], dict[int, float]]:
    cfg = scn.config
    sizes = scn.catalog.sizes
    caches: list[CacheVector] = []
    shortfalls: dict[int, float] = {}
    for i in range(scn.num_users):
        solo, shortfall = solo_cache(scn, i)
        if shortfall > 0.0:
            shortfalls[i] = shortfall
        bits = solo.bits.copy()
        used = int(bits @ sizes)
        while True:
            fits = [k for k in range(cfg.num_kbs)
                    if not bits[k] and used + sizes[k] <= cfg.capacity]
            if not fits:
                break
            pick = fits[int(rng.integers(len(fits)))]
            bits[pick] = 1
            used += int(sizes[pick])
        caches.append(CacheVector(i, bits))
    return caches, shortfalls


def preference_first_kbc(scn: Scenario, seed: int) -> list[CacheVector]:
    """Popularity-greedy caches with random fill; deterministic in seed."""
    return _preference_first(scn, np.random.default_rng(seed))[0]


def run_baseline(scn: Scenario, kind: str, seed: int) -> SolveResult:
    """Evaluate one baseline scheme (one of ``KINDS``) on a scenario.

    The RNG stream covers the random cache fill and, for RPD, the power
    draws, so identical (scenario, kind, seed) runs are identical.  The
    result has no trace or prices; its ``best_feasible`` is itself when it
    is feasible.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}; expected one of {KINDS}")
    cfg = scn.config
    rng = np.random.default_rng(seed)
    caches, shortfalls = _preference_first(scn, rng)
    if kind == "rpd":
        # 1 - U lands in (0, 1], keeping zero power out of the draw
        powers = cfg.p_max_w * (1.0 - rng.random(scn.num_users))
        cells = sorted(scn.eligible_pairs(),
                       key=lambda ij: (scn.distance(ij[0], ij[1]), ij[0], ij[1]))
    else:
        powers = np.full(scn.num_users, cfg.p_max_w)
        cells = sorted(scn.eligible_pairs(),
                       key=lambda ij: (-int(caches[ij[0]].bits @ caches[ij[1]].bits),
                                       scn.distance(ij[0], ij[1]), ij[0], ij[1]))
    pairing = Pairing.from_pairs(scn.num_users, greedy_walk(scn.num_users, cells))
    reports = {(i, j): measure_pair(scn, i, j, caches, powers)
               for i, j in pairing.matched_pairs()}
    return evaluated(scn, caches, pairing, powers, reports, shortfalls)
