"""Per-pair joint caching and power optimization.

For one eligible pair (i, j) and fixed dual prices, the pair's contribution
to the relaxed network objective is

    score = (1 + rho_i) * v_s(i->j) - tau_i * delay(i->j)
          + (1 + rho_j) * v_s(j->i) - tau_j * delay(j->i)

where each direction's secrecy value and queueing delay depend on the joint
cache selection and on the sender's transmit power only.  With caches fixed
the score is separable in the two powers, so each direction is maximized by
a dense grid search over [0, p_max] plus golden-section refinement, with the
queue-unstable power region excluded.  The cache selection itself is handled
by a tabu search over joint cache vectors seeded from a greedy
satisfaction-first construction.  The exact optimum, the tabu search's
oracle, comes from a branch and bound over matched sets S = c_i & c_j
(catalogs of up to 12 KBs, grid search only) or, with refinement, from a
scan of every joint cache (up to 8 KBs).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .metrics import ETA_SLACK, CacheVector, pair_value_rates
from .queueing import STABILITY_GUARD, pk_delay, queue_stats
from .scenario import Scenario, check_finite

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class InfeasiblePairError(RuntimeError):
    """Raised when no joint cache satisfies capacity and eta_min for a pair."""


# Tabu memory length and stagnation stop: the search ends once the incumbent
# improves by less than GROWTH_EPS (relative) over GROWTH_WINDOW iterations.
TABU_LEN = 64
GROWTH_EPS = 1.0e-4
GROWTH_WINDOW = 10
# golden-section refinement stops at this fraction of p_max
POWER_TOL_FRAC = 1.0e-6
# Largest catalogs of the exact search: the matched-set branch and bound
# (grid search only) and the joint-cache table (with refinement).
MATCHED_SET_MAX_KBS = 12
TABLE_MAX_KBS = 8


@dataclass(frozen=True)
class PairOptParams:
    """Knobs of the per-pair search.

    ``sigma`` is the Hamming radius of the tabu neighborhood, ``max_iters``
    the tabu iteration budget.  Powers are searched on ``power_grid_points``
    levels and, when ``power_refine`` is set, golden-section refined to
    ``POWER_TOL_FRAC * p_max``.  ``exhaustive`` replaces the tabu search with
    the exact search of ``enumerate_pair_optimum``: catalogs of up to 12 KBs
    without refinement, up to 8 with it.
    """

    sigma: int = 2
    max_iters: int = 40
    power_grid_points: int = 256
    power_refine: bool = True
    exhaustive: bool = False

    def __post_init__(self) -> None:
        check_finite(self)
        if self.sigma < 1 or self.max_iters < 0:
            raise ValueError("sigma must be positive and max_iters >= 0")
        if self.power_grid_points < 2:
            raise ValueError("need at least two power levels")


@dataclass(frozen=True)
class PairSolution:
    """Best joint cache/power assignment found for one unordered pair i < j."""

    i: int
    j: int
    cache_i: CacheVector
    cache_j: CacheVector
    power_i: float
    power_j: float
    score: float
    secrecy_ij: float
    secrecy_ji: float
    delay_ij: float
    delay_ji: float


class TabuState:
    """Bounded FIFO memory of visited joint caches plus the incumbent's score
    after each tabu iteration."""

    def __init__(self, maxlen: int) -> None:
        self.maxlen = maxlen
        self._order: deque[bytes] = deque()
        self._members: set[bytes] = set()
        self.best_score: float = -math.inf
        self.best_history: list[float] = []

    def add(self, joint: np.ndarray) -> None:
        key = np.asarray(joint, dtype=np.uint8).tobytes()
        if key in self._members:
            return
        if len(self._order) == self.maxlen:
            self._members.discard(self._order.popleft())
        self._order.append(key)
        self._members.add(key)

    def __contains__(self, joint: np.ndarray) -> bool:
        return np.asarray(joint, dtype=np.uint8).tobytes() in self._members

    def __len__(self) -> int:
        return len(self._order)


# --------------------------------------------------------------------------
# score evaluation
# --------------------------------------------------------------------------

def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, as hashable keys."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


@dataclass(frozen=True)
class _Direction:
    """Per-KB coefficient vectors of one link direction (sender -> receiver)."""

    legit: np.ndarray     # probs_s * weights_s, matched KBs only contribute
    leak: np.ndarray      # probs_s * eaves_probs * weights_s, sender cache only
    share: np.ndarray     # probs_s, matched traffic share
    interp: np.ndarray    # probs_s / interp_rates_r, mean interpretation
    interp_sq: np.ndarray
    gain_d: float
    gain_e: float
    tau_s: float
    rho_s: float


class _SearchMemo:
    """Search results of one direction at one step count: ``slot_of`` maps a
    coefficient key to its row of the ``rows`` array."""

    def __init__(self) -> None:
        self.slot_of: dict[bytes, int] = {}
        self.rows: np.ndarray | None = None

    def add(self, keys: list[bytes], rows: np.ndarray) -> None:
        start = len(self.slot_of)
        self.slot_of.update(zip(keys, range(start, start + len(keys))))
        self.rows = rows if self.rows is None else np.concatenate((self.rows, rows))

    def gather(self, keys: list[bytes]) -> np.ndarray:
        slots = np.fromiter(map(self.slot_of.__getitem__, keys), dtype=np.intp,
                            count=len(keys))
        return self.rows[slots]


class _PairContext:
    """Precomputed constants for vectorized candidate evaluation of one pair."""

    def __init__(self, scn: Scenario, i: int, j: int,
                 tau: np.ndarray, rho: np.ndarray, params: PairOptParams) -> None:
        cfg = scn.config
        self.scn = scn
        self.i, self.j = i, j
        self.params = params
        self.k = cfg.num_kbs
        self.bandwidth = cfg.bandwidth_hz
        self.noise = cfg.noise_w
        self.bits_per_packet = cfg.packet_bits
        self.p_max = cfg.p_max_w
        self.unit_grid = np.linspace(0.0, 1.0, params.power_grid_points)
        self.dirs = (
            self._make_direction(i, j, tau, rho),
            self._make_direction(j, i, tau, rho),
        )
        self._scalars = [np.array([d.gain_d, d.gain_e, d.tau_s, d.rho_s]) for d in self.dirs]
        # per direction and step count (0 for the grid), a _SearchMemo of grid
        # (score, power, lo, hi) or golden-section refined (score, power) rows
        self._grid_memo = (defaultdict(_SearchMemo), defaultdict(_SearchMemo))
        self._refine_memo = (defaultdict(_SearchMemo), defaultdict(_SearchMemo))

    def _make_direction(self, s: int, r: int, tau: np.ndarray, rho: np.ndarray) -> _Direction:
        cat = self.scn.catalog
        probs_s = cat.user_probs[s]
        interp = probs_s / cat.interp_rates[r]
        return _Direction(
            legit=probs_s * cat.user_weights[s],
            leak=probs_s * cat.eaves_probs * cat.user_weights[s],
            share=probs_s,
            interp=interp,
            interp_sq=interp**2,
            gain_d=float(self.scn.gain_d[s, r]),
            gain_e=float(self.scn.gain_e[s]),
            tau_s=float(tau[s]),
            rho_s=float(rho[s]),
        )

    def _coeffs(self, sender_bits: np.ndarray, matched: np.ndarray, which: int) -> np.ndarray:
        """(n, 9) search inputs of direction ``which``, one row per candidate:
        the five coefficients legit, leak, share, interp and interp_sq, on
        which its power search depends, then the direction's gain_d, gain_e,
        tau_s and rho_s.  A single candidate (1-D bits) gives one (9,) row."""
        d = self.dirs[which]
        rows = np.empty(matched.shape[:-1] + (9,))
        rows[..., 0] = matched @ d.legit
        rows[..., 1] = sender_bits @ d.leak
        rows[..., 2] = matched @ d.share
        rows[..., 3] = matched @ d.interp
        rows[..., 4] = matched @ d.interp_sq
        rows[..., 5:] = self._scalars[which]
        return rows

    def _compose(self, cols, rd, re):
        """Directed score, secrecy value and delay (broadcasting helper).
        ``cols`` holds the nine search inputs of ``_coeffs`` along axis 0."""
        legit, leak, share, interp, interp_sq, _, _, tau_s, rho_s = cols
        v_s = np.maximum((rd * legit - re * leak) / self.bits_per_packet, 0.0)
        util = rd * interp / self.bits_per_packet
        stable = util < 1.0 - STABILITY_GUARD
        safe_share = np.where(share > 0.0, share, 1.0)
        safe_gap = np.maximum(1.0 - util, STABILITY_GUARD)
        delay = np.where(
            share > 0.0,
            rd * (interp**2 + interp_sq) / (self.bits_per_packet * safe_share * 2.0 * safe_gap),
            0.0,
        )
        score = np.where(stable, (1.0 + rho_s) * v_s - tau_s * delay, -np.inf)
        return score, v_s, np.where(stable, delay, np.inf), stable

    def _rates_at(self, cols, power):
        gain_d, gain_e = cols[5], cols[6]
        rd = self.bandwidth * np.log2(1.0 + power * gain_d / self.noise)
        re = self.bandwidth * np.log2(1.0 + power * gain_e / self.noise)
        return rd, re

    def _score_at(self, cols, power):
        return self._compose(cols, *self._rates_at(cols, power))[0]

    def _power_bound(self, cols):
        """Per-candidate top of the stable power interval, capped at p_max.

        Utilization is rate * (mean interpretation load) / packet bits, so the
        queue is stable up to the power where the rate hits
        packet_bits / load; beyond it the score is -inf anyway.  Searching
        [0, bound] instead of [0, p_max] keeps the grid resolution of the
        stable interval independent of the power budget.
        """
        interp, gain_d = cols[3], cols[5]
        with np.errstate(over="ignore"):
            exponent = np.where(interp > 0.0,
                                self.bits_per_packet / (np.maximum(interp, 1e-300)
                                                        * self.bandwidth),
                                np.inf)
            boundary = (np.exp2(np.minimum(exponent, 2000.0)) - 1.0) * self.noise / gain_d
        return np.minimum(self.p_max, boundary)

    def _grid_search(self, cols):
        """Best grid power of each column of search inputs.  Returns (best
        score, best power, bracket lo, bracket hi) arrays; the bracket spans
        the grid neighbours of the best level."""
        upper = self._power_bound(cols)
        grid = upper[:, None] * self.unit_grid[None, :]
        scores = self._score_at(cols[:, :, None], grid)
        idx = np.argmax(scores, axis=1)
        at = np.arange(scores.shape[0])
        last = len(self.unit_grid) - 1
        return (scores[at, idx], grid[at, idx],
                grid[at, np.maximum(idx - 1, 0)], grid[at, np.minimum(idx + 1, last)])

    def _golden(self, cols, best, best_p, lo, hi, iters):
        """Golden-section refinement of each column's bracket.  Every column
        steps ``max(iters)`` times, but column n keeps improving its best only
        during its first ``iters[n]`` steps, so its result is the one an
        ``iters[n]``-step search would give."""
        a, b = lo, hi
        x1 = a + _INVPHI2 * (b - a)
        x2 = a + _INVPHI * (b - a)
        f1, f2 = self._score_at(cols, x1), self._score_at(cols, x2)
        for x, fx in ((x1, f1), (x2, f2)):
            better = fx > best
            best = np.where(better, fx, best)
            best_p = np.where(better, x, best_p)
        for step in range(int(iters.max())):
            left = f1 >= f2
            x1o, x2o, f1o, f2o = x1, x2, f1, f2
            b = np.where(left, x2o, b)
            a = np.where(left, a, x1o)
            x1 = np.where(left, a + _INVPHI2 * (b - a), x2o)
            x2 = np.where(left, x1o, a + _INVPHI * (b - a))
            fresh = np.where(left, x1, x2)
            ff = self._score_at(cols, fresh)
            f1 = np.where(left, ff, f2o)
            f2 = np.where(left, f1o, ff)
            better = (ff > best) & (step < iters)
            best = np.where(better, ff, best)
            best_p = np.where(better, fresh, best_p)
        return best, best_p

    def _refine_iters(self, lo: np.ndarray, hi: np.ndarray) -> int:
        """Golden-section step count of a batch, set by its widest bracket;
        0 when every bracket is already within tolerance."""
        tol = POWER_TOL_FRAC * self.p_max
        width = float(np.max(hi - lo))
        if width <= tol:
            return 0
        return min(100, int(math.ceil(math.log(tol / width) / math.log(_INVPHI))))

    def _memoised(self, memo, keys, steps, coeffs, search):
        """Per-direction results of ``search`` for every candidate.

        ``memo[which][steps[which]]`` is a _SearchMemo of that direction's
        results at that step count; a direction whose ``steps`` entry is None
        is skipped.  The rows missing from both directions are searched
        together in one call, ``search(cols, todo)``, where ``cols`` holds
        their search inputs as columns and ``todo`` lists (which, keys, batch
        row indices) per direction in column order.
        """
        tables = [None if steps[which] is None else memo[which][steps[which]]
                  for which in (0, 1)]
        todo = []
        for which, table in enumerate(tables):
            if table is None:
                continue
            row_of = dict(zip(keys[which], range(len(keys[which]))))  # one row per key
            fresh = [key for key in row_of if key not in table.slot_of]
            if fresh:
                todo.append((which, fresh, [row_of[key] for key in fresh]))
        if todo:
            cols = np.vstack([coeffs[which][at] for which, _, at in todo]).T
            found = search(cols, todo)
            n = 0
            for which, fresh, _ in todo:
                tables[which].add(fresh, found[n:n + len(fresh)])
                n += len(fresh)
        return [None if table is None else table.gather(keys[which])
                for which, table in enumerate(tables)]

    def evaluate(self, cands: np.ndarray):
        """Scores and per-direction optimized powers for (n, 2K) candidates.

        Keys are the exact coefficient bytes rather than the cache bits: a
        batched matrix product can round a row differently depending on the
        batch around it, and keying on its output keeps every result equal
        to a fresh search of the same batch.
        """
        cands = np.asarray(cands, dtype=float)
        k = self.k
        ci, cj = cands[:, :k], cands[:, k:]
        matched = ci * cj
        out = self.search((self._coeffs(ci, matched, 0), self._coeffs(cj, matched, 1)))
        return out[0][:, 0] + out[1][:, 0], out[0][:, 1], out[1][:, 1]

    def search(self, coeffs):
        """(n, 2) arrays of best (score, power), one per direction, for the
        rows of that direction's search inputs (``_coeffs`` rows).

        Each direction is maximized by a grid search over its stable power
        interval plus golden-section refinement of the best grid bracket.
        Both depend only on the row, so each distinct row is grid searched
        once per context, i.e. once per subproblem call, where prices are
        fixed.  The refinement's step count is set by the widest bracket in
        the batch, so refined results are kept per (row, step count).  The
        searches missing from both directions run together in one grid pass
        and one golden-section pass.
        """
        keys = [_row_keys(c) for c in coeffs]
        grid = self._memoised(self._grid_memo, keys, (0, 0), coeffs,
                              lambda cols, todo: np.column_stack(self._grid_search(cols)))
        out = [g[:, :2] for g in grid]
        if self.params.power_refine:
            iters = [self._refine_iters(g[:, 2], g[:, 3]) or None for g in grid]

            def refine(cols, todo):
                start = np.vstack([grid[which][at] for which, _, at in todo])
                steps = np.concatenate([np.full(len(at), iters[which]) for which, _, at in todo])
                return np.column_stack(self._golden(cols, *start.T, steps))

            refined = self._memoised(self._refine_memo, keys, iters, coeffs, refine)
            out = [o if r is None else r for o, r in zip(out, refined)]
        return out

    def direction_detail(self, cands_row: np.ndarray, which: int, power: float):
        """Scalar (v_s, delay, stable) of one direction at a given power."""
        ci, cj = cands_row[:self.k].astype(float), cands_row[self.k:].astype(float)
        cols = self._coeffs(ci if which == 0 else cj, ci * cj, which)
        _, v_s, delay, stable = self._compose(cols, *self._rates_at(cols, np.asarray([power])))
        return float(v_s[0]), float(delay[0]), bool(stable[0])

    def finalize(self, joint: np.ndarray, power_i: float, power_j: float) -> PairSolution:
        vs_ij, delay_ij, ok_ij = self.direction_detail(joint, 0, power_i)
        vs_ji, delay_ji, ok_ji = self.direction_detail(joint, 1, power_j)
        if not (ok_ij and ok_ji):
            raise RuntimeError("optimized powers landed in the unstable region")
        d0, d1 = self.dirs
        score = ((1.0 + d0.rho_s) * vs_ij - d0.tau_s * delay_ij
                 + (1.0 + d1.rho_s) * vs_ji - d1.tau_s * delay_ji)
        return PairSolution(
            i=self.i, j=self.j,
            cache_i=CacheVector(self.i, joint[:self.k]),
            cache_j=CacheVector(self.j, joint[self.k:]),
            power_i=float(power_i), power_j=float(power_j),
            score=float(score),
            secrecy_ij=vs_ij, secrecy_ji=vs_ji,
            delay_ij=delay_ij, delay_ji=delay_ji,
        )


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def pair_score(
    scn: Scenario, i: int, j: int,
    cache_i: CacheVector, cache_j: CacheVector,
    power_i: float, power_j: float,
    tau_i: float, tau_j: float, rho_i: float, rho_j: float,
) -> float:
    """Reference (scalar) pair score; -inf when either direction's queue is
    unstable at the given powers."""
    total = 0.0
    for s, r, c_s, c_r, p, t, rh in (
        (i, j, cache_i, cache_j, power_i, tau_i, rho_i),
        (j, i, cache_j, cache_i, power_j, tau_j, rho_j),
    ):
        rates = pair_value_rates(scn, s, r, c_s, c_r, p)
        stats = queue_stats(c_s, c_r, scn.catalog.user_probs[s],
                            scn.catalog.interp_rates[r], rates.r_d, scn.config.packet_bits)
        if not stats.stable:
            return -math.inf
        total += (1.0 + rh) * rates.v_s - t * pk_delay(stats)
    return total


def optimize_powers(
    scn: Scenario, i: int, j: int,
    cache_i: CacheVector, cache_j: CacheVector,
    tau: np.ndarray, rho: np.ndarray,
    params: PairOptParams | None = None,
) -> tuple[float, float, float]:
    """Best (power_i, power_j, score) for fixed caches.

    The score is separable, so each power is maximized independently on its
    stable sub-interval of [0, p_max].
    """
    params = params or PairOptParams()
    ctx = _PairContext(scn, i, j, tau, rho, params)
    joint = np.concatenate((cache_i.bits, cache_j.bits)).astype(float)
    score, p_i, p_j = ctx.evaluate(joint[None, :])
    return float(p_i[0]), float(p_j[0]), float(score[0])


def stable_power_upper_bound(
    scn: Scenario, s: int, r: int, cache_s: CacheVector, cache_r: CacheVector
) -> float:
    """Top of direction s -> r's stable power interval, capped at p_max.

    This is the domain the power search runs on: beyond it the receiver's
    interpretation queue is overloaded and the pair score is -inf.  No
    matched traffic means no queue, so the bound is just p_max.
    """
    cfg = scn.config
    matched = cache_s.bits.astype(float) * cache_r.bits.astype(float)
    load = float(matched @ (scn.catalog.user_probs[s] / scn.catalog.interp_rates[r]))
    if load <= 0.0:
        return cfg.p_max_w
    with np.errstate(over="ignore"):
        exponent = cfg.packet_bits / (load * cfg.bandwidth_hz)
        boundary = float((np.exp2(min(exponent, 2000.0)) - 1.0) * cfg.noise_w
                         / scn.gain_d[s, r])
    return min(cfg.p_max_w, boundary)


def greedy_single_cache(
    probs: np.ndarray, sizes: np.ndarray, capacity: int, eta_min: float
) -> tuple[np.ndarray, bool]:
    """Single-user preference-first cache: walk KBs by descending request
    probability, skip entries that would overflow capacity, stop once
    eta_min is met.  Returns (bits, reached_eta)."""
    probs = np.asarray(probs, dtype=float)
    order = np.argsort(-probs, kind="stable")
    bits = np.zeros(len(probs), dtype=np.uint8)
    used = 0
    eta = 0.0
    for k in order:
        if eta >= eta_min - ETA_SLACK:
            break
        if used + sizes[k] <= capacity:
            bits[k] = 1
            used += int(sizes[k])
            eta += probs[k]
    return bits, eta >= eta_min - ETA_SLACK


def initial_kbc(scn: Scenario, i: int, j: int) -> tuple[CacheVector, CacheVector]:
    """Greedy joint cache construction for a pair.

    Repeatedly caches (at both users) the KB with the highest combined
    request probability until both satisfactions reach eta_min, evicting the
    largest cached KB whenever capacity is exceeded.  Evicted KBs do not
    return to the candidate set, which guarantees termination; exhausting
    the candidates first raises InfeasiblePairError.
    """
    cfg = scn.config
    sizes = scn.catalog.sizes
    probs_i = scn.catalog.user_probs[i]
    probs_j = scn.catalog.user_probs[j]
    available = list(range(cfg.num_kbs))
    cached: list[int] = []
    bits = np.zeros(cfg.num_kbs, dtype=np.uint8)

    def eta(probs: np.ndarray) -> float:
        return float(bits @ probs)

    while (eta(probs_i) < cfg.eta_min - ETA_SLACK
           or eta(probs_j) < cfg.eta_min - ETA_SLACK):
        if not available:
            raise InfeasiblePairError(
                f"pair ({i}, {j}) cannot reach eta_min={cfg.eta_min} within capacity")
        best_k, best_v = available[0], -1.0
        for k in available:  # ascending index, strict > keeps the lowest on ties
            v = probs_i[k] + probs_j[k]
            if v > best_v:
                best_k, best_v = k, v
        available.remove(best_k)
        cached.append(best_k)
        bits[best_k] = 1
        while int(bits @ sizes) > cfg.capacity:
            evict, evict_size = cached[0], -1
            for k in cached:
                if sizes[k] > evict_size:
                    evict, evict_size = k, int(sizes[k])
            cached.remove(evict)
            bits[evict] = 0
    return CacheVector(i, bits.copy()), CacheVector(j, bits.copy())


@functools.lru_cache(maxsize=16)
def _flip_masks(length: int, sigma: int) -> np.ndarray:
    """Read-only 0/1 masks of every flip set of size 1..sigma of ``length``
    positions, in ``itertools.combinations`` order by increasing size."""
    masks = np.zeros((sum(math.comb(length, d) for d in range(1, sigma + 1)), length),
                     dtype=np.uint8)
    flips = itertools.chain.from_iterable(
        itertools.combinations(range(length), d) for d in range(1, sigma + 1))
    for row, flip in zip(masks, flips):
        row[list(flip)] = 1
    masks.flags.writeable = False
    return masks


@functools.lru_cache(maxsize=8)
def _cache_table(width: int) -> np.ndarray:
    """Read-only table of all 2^width 0/1 rows, in the row order of
    ``itertools.product((0, 1), repeat=width)`` (first column most
    significant), so row n holds the bits of code n.  Width K lists one
    user's caches, width 2K the joint caches of a pair."""
    codes = np.arange(1 << width)[:, None]
    table = ((codes >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    table.flags.writeable = False
    return table


def _cache_feasible(caches: np.ndarray, scn: Scenario, user: int) -> np.ndarray:
    """Mask of the (n, K) float caches that fit the capacity and reach
    eta_min for ``user``."""
    cfg, cat = scn.config, scn.catalog
    return ((caches @ cat.sizes.astype(float) <= cfg.capacity)
            & (caches @ cat.user_probs[user] >= cfg.eta_min - ETA_SLACK))


def _feasible(cands: np.ndarray, scn: Scenario, i: int, j: int) -> np.ndarray:
    """Mask of the (n, 2K) joint caches whose halves are feasible for user i
    (first half) and user j (second half)."""
    k = scn.config.num_kbs
    cands = np.asarray(cands, dtype=float)
    return _cache_feasible(cands[:, :k], scn, i) & _cache_feasible(cands[:, k:], scn, j)


def neighborhood(
    current: np.ndarray, sigma: int, tabu: TabuState, scn: Scenario, i: int, j: int
) -> np.ndarray:
    """Feasible, non-tabu joint caches within Hamming distance 1..sigma of
    ``current``, in deterministic flip order.  May be empty."""
    current = np.asarray(current, dtype=np.uint8)
    cands = current ^ _flip_masks(len(current), sigma)
    cands = cands[[key not in tabu._members for key in _row_keys(cands)]]
    return cands[_feasible(cands, scn, i, j)]


def _no_joint_cache(scn: Scenario, i: int, j: int) -> InfeasiblePairError:
    return InfeasiblePairError(
        f"pair ({i}, {j}) has no feasible joint cache for eta_min={scn.config.eta_min}")


def _enumerate_table(
    scn: Scenario, i: int, j: int,
    tau: np.ndarray, rho: np.ndarray, params: PairOptParams,
) -> PairSolution:
    """Scan of every feasible joint cache; the product-order first maximum
    wins.  Catalogs of up to TABLE_MAX_KBS KBs."""
    k = scn.config.num_kbs
    if k > TABLE_MAX_KBS:
        raise ValueError(f"the joint-cache scan is limited to num_kbs <= {TABLE_MAX_KBS}")
    cands = _cache_table(2 * k)
    cands = cands[_feasible(cands, scn, i, j)]
    if cands.shape[0] == 0:
        raise _no_joint_cache(scn, i, j)
    ctx = _PairContext(scn, i, j, tau, rho, params)
    scores, p_i, p_j = ctx.evaluate(cands)
    idx = int(np.argmax(scores))
    return ctx.finalize(cands[idx], float(p_i[idx]), float(p_j[idx]))


def _superset_min(leak: np.ndarray, feasible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every mask S of the 2^K caches (indexed by code), the code of the
    least-leak feasible cache containing S, ties to the lower code, and the
    lowest feasible code containing S; 2^K where no feasible cache contains
    S.  Each of K passes folds every mask holding one KB into the mask
    without it: the min form of the superset zeta transform (Yates 1937)."""
    n = leak.shape[0]
    codes = np.arange(n)
    order = np.lexsort((codes, leak))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = codes
    # row 0: rank in (leak, code) order; row 1: code; n marks infeasible
    best = np.where(feasible, np.vstack((rank, codes)), n)
    half = 1
    while half < n:
        folded = best.reshape(2, -1, 2, half)
        np.minimum(folded[:, :, 0], folded[:, :, 1], out=folded[:, :, 0])
        half *= 2
    return np.append(order, n)[best[0]], best[1]


def _with_leak(rows: np.ndarray, sets, caches) -> np.ndarray:
    """One direction's search inputs for matched sets ``sets`` sent from
    caches ``caches``; ``rows[c]`` holds its inputs for matched set c sent
    from cache c."""
    out = rows[sets]
    out[:, 1] = rows[caches, 1]
    return out


def _best_completion(ctx: _PairContext, rows, feasible, s: int, tops, floor: float):
    """Best (score, code_i, code_j, power_i, power_j) among the joint caches
    whose matched set is exactly ``s`` and whose score is at least
    ``floor``, ties to the lower (code_i, code_j); None if there is none.

    ``tops[w]`` is direction w's (score, power) at its least-leak completion
    of ``s``.  A direction's score is nonincreasing in the sender's leak, so
    each user's completions are searched in leak order, and only while,
    added to the other direction's top score, they can still reach
    ``floor``.  A direction silent at its least leak is silent at every leak.
    """
    codes = np.arange(feasible[0].shape[0])
    members = []
    for w in (0, 1):
        m = np.flatnonzero(feasible[w] & ((codes & s) == s))
        members.append(m[np.lexsort((m, rows[w][m, 1]))])
    if floor < tops[0][0] + tops[1][0]:
        # each user's least-leak completion with the other's least-leak
        # disjoint one is a joint cache of this set, so its score is a floor
        partners = [m[(m & members[1 - w][0]) == s][:1] for w, m in enumerate(members)]
        got = ctx.search([_with_leak(rows[w], np.full(len(p), s), p)
                          for w, p in enumerate(partners)])
        for w in (0, 1):
            if len(partners[w]):
                floor = max(floor, float(got[w][0, 0] + tops[1 - w][0]))
    done, scores, searching = [0, 0], [[], []], [True, True]
    for w, m in enumerate(members):
        if tops[w][1] == 0.0:
            done[w] = len(m) if tops[1 - w][0] >= floor else 0
            scores[w].append(np.zeros((done[w], 2)))
            searching[w] = False
    size = 2
    while any(searching):
        chunks = [members[w][done[w]:done[w] + (size if searching[w] else 0)] for w in (0, 1)]
        out = ctx.search([_with_leak(rows[w], np.full(len(c), s), c)
                          for w, c in enumerate(chunks)])
        for w in (0, 1):
            if searching[w]:
                ok = out[w][:, 0] + tops[1 - w][0] >= floor
                cut = len(ok) if ok.all() else int(np.argmin(ok))
                scores[w].append(out[w][:cut])
                done[w] += cut
                searching[w] = cut == size and done[w] < len(members[w])
        size = min(4 * size, 1024)
    ci, cj = (members[w][:done[w]] for w in (0, 1))
    gi, gj = (np.concatenate(scores[w]) for w in (0, 1))
    if not (len(ci) and len(cj)):
        return None
    n = len(codes)
    best = None
    step = max(1, (1 << 20) // len(cj))
    for lo in range(0, len(ci), step):
        x = ci[lo:lo + step]
        total = gi[lo:lo + step, 0, None] + gj[None, :, 0]
        total[(x[:, None] & cj[None, :]) != s] = -np.inf
        top = total.max()
        if top == -np.inf or top < floor:
            continue
        r, c = np.nonzero(total == top)
        joint = x[r] * n + cj[c]
        pick = int(np.argmin(joint))
        cand = (float(top), int(x[r[pick]]), int(cj[c[pick]]),
                float(gi[lo + r[pick], 1]), float(gj[c[pick], 1]))
        if best is None or (-cand[0], cand[1:3]) < (-best[0], best[1:3]):
            best = cand
    return best


def _matched_set_optimum(ctx: _PairContext) -> PairSolution:
    """Grid-search optimum over every feasible joint cache, by branch and
    bound over matched sets S = c_i & c_j (Land & Doig 1960).

    S fixes a direction's legit, share, interp and interp_sq coefficients
    and its stable power interval, which reads only interp and gain_d; the
    sender's leak is the one coefficient left, and the score at every grid
    power, hence the grid maximum, is nonincreasing in it.  So the bound
    R(S) = f_ij(S, least leak of i over feasible c_i >= S)
         + f_ji(S, least leak of j over feasible c_j >= S)
    holds for every joint cache matching in S, and is attained when the two
    least-leak caches meet exactly in S.  Sets are opened in descending R
    until R drops below the best score found; a set whose least-leak caches
    overlap elsewhere, or where a lower code may tie, is searched over its
    completions.  Ties go to the lowest (c_i, c_j) code, the product-order
    first maximum of ``_enumerate_table``.
    """
    scn, k = ctx.scn, ctx.k
    table = _cache_table(k)
    bits = table.astype(float)
    n = bits.shape[0]
    feasible = [_cache_feasible(bits, scn, user) for user in (ctx.i, ctx.j)]
    if not (feasible[0].any() and feasible[1].any()):
        raise _no_joint_cache(scn, ctx.i, ctx.j)
    if feasible[0].sum() == feasible[1].sum() == 1:
        # numpy takes a one-row product as a dot, which rounds unlike a
        # batch; score the one joint cache as the table scan does
        joint = table[[int(np.argmax(feasible[0])), int(np.argmax(feasible[1]))]].ravel()
        _, p_i, p_j = ctx.evaluate(joint[None, :])
        return ctx.finalize(joint, float(p_i[0]), float(p_j[0]))
    # rows[w][c]: direction w's search inputs with matched set c sent from cache c
    rows = [ctx._coeffs(bits, bits, w) for w in (0, 1)]
    (arg_i, low_i), (arg_j, low_j) = (_superset_min(rows[w][:, 1], feasible[w]) for w in (0, 1))
    sets = np.flatnonzero((arg_i < n) & (arg_j < n))
    a_i, a_j = arg_i[sets], arg_j[sets]
    f_ij, f_ji = ctx.search((_with_leak(rows[0], sets, a_i), _with_leak(rows[1], sets, a_j)))
    bound = f_ij[:, 0] + f_ji[:, 0]
    if bound.max() == 0.0:
        # every joint cache scores 0 at power 0: the lowest feasible code wins
        return ctx.finalize(table[[low_i[0], low_j[0]]].ravel(), 0.0, 0.0)
    meets = (a_i & a_j) == sets
    lowest = meets & (low_i[sets] == a_i) & (low_j[sets] == a_j)
    floor = float(bound[meets].max()) if meets.any() else -math.inf
    best = None  # (score, code_i, code_j, power_i, power_j)
    for node in np.argsort(-bound, kind="stable"):
        if bound[node] < floor:
            break
        if lowest[node]:
            found = (float(bound[node]), int(a_i[node]), int(a_j[node]),
                     float(f_ij[node, 1]), float(f_ji[node, 1]))
        else:
            found = _best_completion(ctx, rows, feasible, int(sets[node]),
                                     (f_ij[node], f_ji[node]),
                                     float(bound[node]) if meets[node] else floor)
        if found is not None and (best is None
                                  or (-found[0], found[1:3]) < (-best[0], best[1:3])):
            best = found
            floor = max(floor, found[0])
    return ctx.finalize(table[list(best[1:3])].ravel(), best[3], best[4])


def enumerate_pair_optimum(
    scn: Scenario, i: int, j: int,
    tau: np.ndarray, rho: np.ndarray,
    params: PairOptParams | None = None,
) -> PairSolution:
    """Exact joint-cache optimum (the tabu search's oracle): the maximum over
    every feasible joint cache, ties to the product-order first.

    Without power refinement this is the matched-set branch and bound,
    catalogs of up to MATCHED_SET_MAX_KBS KBs.  Refined scores depend on the
    batch they are refined in, so with refinement every joint cache is
    scored in one batch, catalogs of up to TABLE_MAX_KBS KBs.
    """
    params = params or PairOptParams()
    if params.power_refine:
        return _enumerate_table(scn, i, j, tau, rho, params)
    if scn.config.num_kbs > MATCHED_SET_MAX_KBS:
        raise ValueError(
            f"exhaustive search is limited to num_kbs <= {MATCHED_SET_MAX_KBS}")
    return _matched_set_optimum(_PairContext(scn, i, j, tau, rho, params))


def solve_pair_subproblem(
    scn: Scenario, i: int, j: int,
    tau: np.ndarray, rho: np.ndarray,
    params: PairOptParams | None = None,
    return_state: bool = False,
    initial: np.ndarray | None = None,
):
    """Tabu search over joint caches with per-candidate optimized powers.

    Starts from the greedy joint construction (or ``initial``, a warm-start
    joint cache of length 2 * num_kbs), moves to the best feasible non-tabu
    neighbor each iteration (accepting downhill moves), records non-improving
    visits in the tabu memory, and stops on the iteration budget, an empty
    neighborhood, or stagnation of the incumbent.  With ``params.exhaustive``
    the tabu search is replaced by the exact ``enumerate_pair_optimum``.
    """
    params = params or PairOptParams()
    if params.exhaustive:
        sol = enumerate_pair_optimum(scn, i, j, tau, rho, params)
        return (sol, TabuState(TABU_LEN)) if return_state else sol
    if initial is None:
        cache_i, cache_j = initial_kbc(scn, i, j)  # may raise InfeasiblePairError
        joint = np.concatenate((cache_i.bits, cache_j.bits))
    else:
        joint = np.asarray(initial, dtype=np.uint8).copy()
        if joint.shape != (2 * scn.config.num_kbs,):
            raise ValueError("warm-start joint cache has the wrong length")
    ctx = _PairContext(scn, i, j, tau, rho, params)
    state = TabuState(TABU_LEN)
    scores, p_i, p_j = ctx.evaluate(joint[None, :])
    best = (joint.copy(), float(p_i[0]), float(p_j[0]))
    state.best_score = float(scores[0])
    state.best_history.append(state.best_score)
    current = joint

    for _ in range(params.max_iters):
        cands = neighborhood(current, params.sigma, state, scn, i, j)
        if cands.shape[0] == 0:
            break
        scores, cand_pi, cand_pj = ctx.evaluate(cands)
        pick = int(np.argmax(scores))  # first max wins: deterministic
        current = cands[pick].copy()
        if scores[pick] > state.best_score:
            state.best_score = float(scores[pick])
            best = (current.copy(), float(cand_pi[pick]), float(cand_pj[pick]))
        else:
            state.add(current)
        state.best_history.append(state.best_score)
        if len(state.best_history) > GROWTH_WINDOW:
            ref = state.best_history[-1 - GROWTH_WINDOW]
            if state.best_score - ref <= GROWTH_EPS * max(abs(ref), 1e-12):
                break

    sol = ctx.finalize(best[0], best[1], best[2])
    return (sol, state) if return_state else sol
