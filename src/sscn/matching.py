"""Network-wide pairing of users from per-pair scores.

The pairing stage sees only a symmetric score matrix: each solved pair's
optimized score in both of its cells, ``-inf`` for ineligible pairs and for
pairs whose subproblem had no feasible solution.  It selects disjoint pairs
maximizing the summed score, with at most one partner per user (users may
stay unpaired).  ``greedy`` mode is the greedy rounding that repeatedly fixes
the best-scoring remaining pair; it carries the classic 1/2-approximation
guarantee of greedy matching.  ``exact`` mode is a memoised DP over subsets
of free users (<= 12 users) and exists purely as a desk-scale oracle.

Pairs whose score is not strictly positive are never selected: they cannot
improve the objective, and leaving their users unpaired is reported
explicitly downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # only for annotations; avoids an import cycle
    from .pair_opt import PairSolution
    from .scenario import Scenario

UNPAIRED = -1

EXACT_MODE_MAX_USERS = 12

# pairing-stage modes, in the order the CLI lists them
MODES = ("greedy", "exact")


@dataclass(frozen=True)
class Pairing:
    """Symmetric partner assignment; ``partner[i] == UNPAIRED`` if i is alone."""

    partner: np.ndarray

    def __post_init__(self) -> None:
        partner = np.asarray(self.partner, dtype=int)
        object.__setattr__(self, "partner", partner)
        for i, p in enumerate(partner):
            if p == UNPAIRED:
                continue
            if p == i or not 0 <= p < len(partner) or partner[p] != i:
                raise ValueError(f"pairing is not a symmetric matching at user {i}")

    @classmethod
    def from_pairs(cls, num_users: int, pairs: Sequence[tuple[int, int]]) -> "Pairing":
        partner = np.full(num_users, UNPAIRED, dtype=int)
        for i, j in pairs:
            if partner[i] != UNPAIRED or partner[j] != UNPAIRED:
                raise ValueError(f"user appears in two pairs: ({i}, {j})")
            partner[i], partner[j] = j, i
        return cls(partner)

    def matched_pairs(self) -> list[tuple[int, int]]:
        return [(i, int(p)) for i, p in enumerate(self.partner)
                if p != UNPAIRED and i < p]

    def unpaired(self) -> list[int]:
        return [i for i, p in enumerate(self.partner) if p == UNPAIRED]

    def validate(self, scn: "Scenario") -> None:
        """Check mutual eligibility against a scenario's neighbor sets."""
        if len(self.partner) != scn.num_users:
            raise ValueError("pairing size disagrees with scenario")
        for i, j in self.matched_pairs():
            if j not in scn.neighbors[i] or i not in scn.neighbors[j]:
                raise ValueError(f"pair ({i}, {j}) is not mutually eligible")


@dataclass(frozen=True)
class OmegaMatrix:
    """Symmetric per-pair score matrix; cells without a solved pair are -inf."""

    scores: np.ndarray

    @property
    def num_users(self) -> int:
        return self.scores.shape[0]


def build_omega(
    pair_solutions: Mapping[tuple[int, int], "PairSolution"], num_users: int
) -> OmegaMatrix:
    """Score matrix holding each solved pair's score in both of its cells."""
    scores = np.full((num_users, num_users), -math.inf)
    for (i, j), sol in pair_solutions.items():
        scores[i, j] = scores[j, i] = sol.score
    return OmegaMatrix(scores)


def greedy_walk(num_users: int, cells: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Pairs taken by walking ``cells`` in order and keeping each cell whose
    two users are both still free."""
    free = np.ones(num_users, dtype=bool)
    chosen = []
    for i, j in cells:
        if free[i] and free[j]:
            free[i] = free[j] = False
            chosen.append((i, j))
    return chosen


def _greedy_matching(omega: OmegaMatrix) -> list[tuple[int, int]]:
    m = omega.num_users
    cells = [(i, j) for i in range(m) for j in range(i + 1, m)
             if omega.scores[i, j] > 0.0]
    # static descending sort == repeatedly taking the max remaining pair
    cells.sort(key=lambda ij: (-omega.scores[ij[0], ij[1]], ij[0], ij[1]))
    return greedy_walk(m, cells)


def check_mode(mode: str, num_users: int) -> None:
    """Raise ValueError unless ``mode`` is a pairing mode that can pair
    ``num_users`` users; ``exact`` is limited to EXACT_MODE_MAX_USERS."""
    if mode not in MODES:
        raise ValueError(f"unknown matching mode {mode!r}")
    if mode == "exact" and num_users > EXACT_MODE_MAX_USERS:
        raise ValueError(
            "exact matching is a memoised DP over subsets of free users; "
            f"limited to {EXACT_MODE_MAX_USERS} users, got {num_users}")


def _exact_matching(omega: OmegaMatrix) -> list[tuple[int, int]]:
    m = omega.num_users
    scores = omega.scores.tolist()
    partners = [[(v, scores[u][v]) for v in range(u + 1, m) if scores[u][v] > 0.0]
                for u in range(m)]

    @functools.lru_cache(maxsize=None)
    def best(free: int) -> tuple[float, int]:
        """Best weight over the users in bitmask ``free`` and the partner of
        its lowest user (UNPAIRED if it stays alone).  That user is left
        unpaired first, then offered partners in ascending order; only a
        strictly heavier matching replaces the incumbent."""
        if not free:
            return 0.0, UNPAIRED
        u = (free & -free).bit_length() - 1
        rest = free ^ (1 << u)
        best_w, best_v = best(rest)[0], UNPAIRED
        for v, score in partners[u]:
            if rest >> v & 1:
                w = best(rest ^ (1 << v))[0] + score
                if w > best_w:
                    best_w, best_v = w, v
        return best_w, best_v

    pairs = []
    free = (1 << m) - 1
    try:
        while free:
            u = (free & -free).bit_length() - 1
            v = best(free)[1]
            free ^= 1 << u
            if v != UNPAIRED:
                pairs.append((u, v))
                free ^= 1 << v
    finally:  # ``best`` and its memo form a cycle: free it now, not at the next GC
        best.cache_clear()
    return pairs


def solve_dup(omega: OmegaMatrix, mode: str = "greedy") -> Pairing:
    """Select disjoint pairs maximizing total score (at most one partner).

    Only strictly positive scores are ever matched.  ``greedy`` is the
    greedy max-first rounding with lexicographic tie-breaks; ``exact`` is the
    oracle, a memoised DP over subsets of free users (<= 12 users).
    """
    check_mode(mode, omega.num_users)
    pairs = _greedy_matching(omega) if mode == "greedy" else _exact_matching(omega)
    return Pairing.from_pairs(omega.num_users, pairs)


def matching_weight(omega: OmegaMatrix, pairing: Pairing) -> float:
    """Total score of a pairing under a score matrix."""
    return float(sum(omega.scores[i, j] for i, j in pairing.matched_pairs()))
