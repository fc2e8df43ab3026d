"""Benchmark schemes against which the dual-decomposition solver is judged.

Both baselines cache by popularity alone (greedy satisfaction-first fill,
then uniform random stuffing of leftover capacity) and skip power/pairing
optimization: RPD draws every transmit power uniformly from (0, p_max] and
pairs nearest eligible neighbors; MPK transmits at full power and pairs by
largest cache overlap.  Results are measured with exactly the same metrics
and audit as the main solver, so unstable queues show up as infinite delays
rather than being hidden.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dual import (IterateSnapshot, SolveResult, audit_assignment,
                   delivered_sst, measure_pair)
from .matching import Pairing, greedy_walk
from .metrics import CacheVector, satisfaction
from .pair_opt import greedy_single_cache
from .scenario import Scenario


class BaselineKind(str, Enum):
    RPD = "rpd"  # random power, nearest-neighbor pairing
    MPK = "mpk"  # max power, max cache-overlap pairing


def _preference_first(scn: Scenario, rng: np.random.Generator
                      ) -> tuple[list[CacheVector], dict[int, float]]:
    cfg = scn.config
    sizes = scn.catalog.sizes
    caches: list[CacheVector] = []
    shortfalls: dict[int, float] = {}
    for i in range(scn.num_users):
        probs = scn.catalog.user_probs[i]
        bits, reached = greedy_single_cache(probs, sizes, cfg.capacity, cfg.eta_min)
        if not reached:
            shortfalls[i] = float(cfg.eta_min - bits @ probs)
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


def run_baseline(scn: Scenario, kind: BaselineKind | str, seed: int) -> SolveResult:
    """Evaluate one baseline scheme on a scenario.

    The RNG stream covers the random cache fill and, for RPD, the power
    draws, so identical (scenario, kind, seed) runs are identical.
    """
    kind = BaselineKind(kind)
    cfg = scn.config
    rng = np.random.default_rng(seed)
    caches, shortfalls = _preference_first(scn, rng)
    if kind is BaselineKind.RPD:
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
    sst = delivered_sst(reports)
    feas = audit_assignment(scn, caches, pairing, powers, reports,
                            eta_shortfalls=shortfalls)
    eta = np.array([satisfaction(caches[i], scn.catalog.user_probs[i])
                    for i in range(scn.num_users)])
    best = None
    if feas.soft_ok and not shortfalls:
        best = IterateSnapshot(t=0, sst=sst, caches=tuple(caches),
                               pairing=pairing, powers=powers.copy())
    return SolveResult(
        caches=tuple(caches), pairing=pairing, powers=powers, sst=sst, eta=eta,
        pair_reports=reports, feasibility=feas, trace=(),
        best_feasible=best, dual_final=None)
