"""Per-pair joint caching and power optimization.

For one eligible pair (i, j) and fixed dual prices, the pair's contribution
to the relaxed network objective is

    score = (1 + rho_i) * v_s(i->j) - tau_i * delay(i->j)
          + (1 + rho_j) * v_s(j->i) - tau_j * delay(j->i)

where each direction's secrecy value and queueing delay depend on the joint
cache selection and on the sender's transmit power only.  With caches fixed
the score is separable in the two powers, so each direction is maximized
exactly in rate space over its stable interval (or, without refinement, on
a power grid), and its result depends on its own coefficients alone.  The
cache selection itself is handled by a tabu search over joint cache vectors
seeded from a greedy satisfaction-first construction.  The exact optimum,
the tabu search's oracle, comes from a branch and bound over matched sets
S = c_i & c_j (catalogs of up to 12 KBs, with or without refinement).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .metrics import ETA_SLACK, CacheVector, pair_value_rates
from .queueing import STABILITY_GUARD, pk_delay, queue_stats
from .scenario import Scenario, check_finite


class InfeasiblePairError(RuntimeError):
    """Raised when no joint cache satisfies capacity and eta_min for a pair."""


# Tabu memory length and stagnation stop: the search ends once the incumbent
# improves by less than GROWTH_EPS (relative) over GROWTH_WINDOW iterations.
TABU_LEN = 64
GROWTH_EPS = 1.0e-4
GROWTH_WINDOW = 10
# Largest catalogs of the exact search, the matched-set branch and bound, and
# of the joint-cache table scan that tests judge it against.
MATCHED_SET_MAX_KBS = 12
TABLE_MAX_KBS = 8


@dataclass(frozen=True)
class PairOptParams:
    """Knobs of the per-pair search.

    ``sigma`` is the Hamming radius of the tabu neighborhood, ``max_iters``
    the tabu iteration budget.  With ``power_refine`` each direction's power
    is the exact maximum of ``_PairContext._rate_search``; without it, the
    best of ``power_grid_points`` levels.  ``exhaustive`` replaces the tabu
    search with the exact search of ``enumerate_pair_optimum``, for catalogs
    of up to 12 KBs.
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
    """Best joint cache/power assignment found for one unordered pair i < j
    and its priced score; ``dual.measure_pair`` measures its metrics."""

    i: int
    j: int
    cache_i: CacheVector
    cache_j: CacheVector
    power_i: float
    power_j: float
    score: float


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
        self.weights, self.scalars = zip(self._direction(i, j, tau, rho),
                                         self._direction(j, i, tau, rho))

    def _direction(self, s: int, r: int, tau: np.ndarray, rho: np.ndarray):
        """Direction s -> r's (5, K) per-KB weights of legit, share, interp,
        interp_sq and leak, and its scalars gain_d, gain_e, tau_s and rho_s."""
        cat = self.scn.catalog
        probs_s = cat.user_probs[s]
        interp = probs_s / cat.interp_rates[r]
        weights = np.vstack((probs_s * cat.user_weights[s], probs_s, interp, interp**2,
                             probs_s * cat.eaves_probs * cat.user_weights[s]))
        return weights, np.array([self.scn.gain_d[s, r], self.scn.gain_e[s], tau[s], rho[s]])

    def _coeffs(self, sender_bits: np.ndarray, matched: np.ndarray, which: int) -> np.ndarray:
        """(n, 9) search inputs of direction ``which``, one row per candidate:
        legit, share, interp and interp_sq summed over the matched KBs, leak
        summed over the sender's cache, then the direction's gain_d, gain_e,
        tau_s and rho_s.  einsum sums each row on its own, so a row's inputs
        do not depend on the batch it comes in, as a matrix product's may."""
        weights = self.weights[which]
        rows = np.empty((matched.shape[0], 9))
        rows[:, :4] = np.einsum("nk,ck->nc", matched, weights[:4])
        rows[:, 4] = np.einsum("nk,k->n", sender_bits, weights[4])
        rows[:, 5:] = self.scalars[which]
        return rows

    def _compose(self, cols, rd, re):
        """Directed score, secrecy value and delay (broadcasting helper).
        ``cols`` holds the nine search inputs of ``_coeffs`` along axis 0."""
        legit, share, interp, interp_sq, leak, _, _, tau_s, rho_s = cols
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
        interp, gain_d = cols[2], cols[5]
        with np.errstate(over="ignore"):
            exponent = np.where(interp > 0.0,
                                self.bits_per_packet / (np.maximum(interp, 1e-300)
                                                        * self.bandwidth),
                                np.inf)
            boundary = (np.exp2(np.minimum(exponent, 2000.0)) - 1.0) * self.noise / gain_d
        return np.minimum(self.p_max, boundary)

    def _grid_search(self, cols):
        """Best grid power of each column of search inputs, as (best score,
        best power) arrays."""
        upper = self._power_bound(cols)
        grid = upper[:, None] * _unit_grid(self.params.power_grid_points)[None, :]
        scores = self._score_at(cols[:, :, None], grid)
        idx = np.argmax(scores, axis=1)
        at = np.arange(scores.shape[0])
        return scores[at, idx], grid[at, idx]

    @np.errstate(divide="ignore", invalid="ignore")
    def _rate_search(self, cols):
        """Exact best (score, power) arrays of the columns of search inputs.

        In rate space x = rd on [0, x_top], x_top = min(rate at p_max, (1 - 2 *
        STABILITY_GUARD) * bits / interp), the optimum is max(0, max g) for the
        unclipped score g(x) = A * (legit * x - leak * re(x)) - tau * c * x /
        (1 - u*x), A = (1 + rho) / bits, u = interp / bits.  g'' falls with x,
        so g is concave, or convex then concave.  Rows settled by the signs of
        g' and g'' at the ends take an end; the others take safeguarded Newton
        steps on h = (1 - u*x)^2 * g', which has no pole, in the bracket where
        "g'' > 0 or g' > 0" turns false, each row stopping on its own test.  Of
        the powers at 0, the root and x_top, the first best scoring wins.
        """
        legit, share, interp, interp_sq, leak, gain_d, gain_e, tau_s, rho_s = cols
        bits, band, ln2_b = self.bits_per_packet, self.bandwidth, math.log(2.0) / self.bandwidth
        c = np.where(share > 0.0, (interp**2 + interp_sq) / (2.0 * bits * share), 0.0)
        # per row: A, legit, leak, k = gain_e / gain_d, u and tau * c
        rows = np.array([(1.0 + rho_s) / bits, legit, leak, gain_e / gain_d, interp / bits,
                         tau_s * c])
        full = band * np.log2(1.0 + self.p_max * gain_d / self.noise)  # the rate at p_max
        top = np.minimum(full, (1.0 - 2.0 * STABILITY_GUARD) / rows[4])

        def slopes(x, at):
            """(A * (legit - leak * re'), 1 - u*x, h, h', g'') at x of rows ``at``."""
            amp, legit, leak, k, u, tc = rows[:, at]
            y = np.exp2(x / band)
            den = 1.0 - k + k * y
            dq = k * (1.0 - k) * y * ln2_b / den**2
            gap = 1.0 - u * x
            val = amp * (legit - leak * k * y / den)
            return (val, gap, gap**2 * val - tc, -gap * (2.0 * u * val + gap * amp * leak * dq),
                    -amp * leak * dq - 2.0 * tc * u / gap**3)

        every = np.arange(top.shape[0])
        val_top, _, h_top, _, d2_top = slopes(top, every)
        _, _, h_0, _, d2_0 = slopes(np.zeros_like(top), every)
        best = np.where((h_top >= 0.0) | (d2_top >= 0.0), top, 0.0)
        at = np.flatnonzero((h_top < 0.0) & (d2_top < 0.0) & ((h_0 > 0.0) | (d2_0 > 0.0)))
        lo, hi, tol = np.zeros(at.shape), top[at], 1e-12 * top[at]
        # start at the root of g' with re' frozen at its value at x_top
        x = (1.0 - np.sqrt(rows[5, at] / val_top[at])) / rows[4, at]
        x = np.where((x > lo) & (x < hi), x, 0.5 * hi)
        for _ in range(64):  # a guard: rows stop on their own test in a few steps
            if not at.size:
                break
            _, gap, h, dh, d2 = slopes(x, at)
            left = (h > 0.0) | (d2 > 0.0)
            lo, hi = np.where(left, x, lo), np.where(left, hi, x)
            # g'' falls: past a convex x, g' <= g'(x) + g''(x) (hi - x); if that is <= 0, 0 wins
            stuck = (h <= 0.0) & (d2 > 0.0) & (h + gap**2 * d2 * (hi - x) <= 0.0)
            best[at] = np.where(stuck, 0.0, x)
            newton = x - h / dh
            going = ~stuck & (np.abs(newton - x) > tol) & (hi - lo > tol)
            step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
            at, x, lo, hi, tol = at[going], step[going], lo[going], hi[going], tol[going]
        rates = np.vstack((np.zeros_like(top), best, top))
        powers = np.where(rates < full, np.minimum(
            self.p_max, self.noise * np.expm1(rates * ln2_b) / gain_d), self.p_max)
        scores = self._score_at(cols[:, None, :], powers)
        pick = np.argmax(scores, axis=0)
        return scores[pick, every], powers[pick, every]

    def _joint_coeffs(self, cands: np.ndarray):
        """Both directions' search inputs for (n, 2K) joint caches."""
        cands = np.asarray(cands, dtype=float)
        ci, cj = cands[:, :self.k], cands[:, self.k:]
        matched = ci * cj
        return self._coeffs(ci, matched, 0), self._coeffs(cj, matched, 1)

    def evaluate(self, cands: np.ndarray):
        """Scores and per-direction optimized powers for (n, 2K) candidates.
        Each candidate's search inputs, hence its result, depend on its caches
        alone, whatever batch it comes in."""
        out = self.search(self._joint_coeffs(cands))
        return out[0][:, 0] + out[1][:, 0], out[0][:, 1], out[1][:, 1]

    def search(self, coeffs):
        """(n, 2) arrays of best (score, power), one per direction, for the
        rows of that direction's search inputs (``_coeffs`` rows).

        Each direction is maximized exactly in rate space with
        ``power_refine``, else on a grid over its stable power interval.
        Every row is searched where it is asked, both directions' rows in one
        pass, and its result depends on the row alone.
        """
        cols = np.vstack(coeffs).T
        found = np.column_stack((self._rate_search if self.params.power_refine
                                 else self._grid_search)(cols))
        return np.split(found, [len(coeffs[0])])

    def finalize(self, joint: np.ndarray, power_i: float, power_j: float,
                 coeffs=None) -> PairSolution:
        """The pair's solution at ``joint`` and the given powers, both
        directions scored in one pass.  ``coeffs`` are the two directions'
        search-input rows of ``joint`` when the caller already holds them."""
        cols = np.vstack(self._joint_coeffs(joint[None, :]) if coeffs is None else coeffs).T
        _, v_s, delay, stable = self._compose(
            cols, *self._rates_at(cols, np.array([power_i, power_j])))
        if not stable.all():
            raise RuntimeError("optimized powers landed in the unstable region")
        (vs_ij, vs_ji), (delay_ij, delay_ji) = v_s.tolist(), delay.tolist()
        (_, _, tau_i, rho_i), (_, _, tau_j, rho_j) = self.scalars
        score = ((1.0 + rho_i) * vs_ij - tau_i * delay_ij
                 + (1.0 + rho_j) * vs_ji - tau_j * delay_ji)
        return PairSolution(
            i=self.i, j=self.j,
            cache_i=CacheVector(self.i, joint[:self.k]),
            cache_j=CacheVector(self.j, joint[self.k:]),
            power_i=float(power_i), power_j=float(power_j),
            score=float(score),
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
    positions, in ``itertools.combinations`` order by increasing size.  No
    flip set is larger than ``length``, so any larger sigma gives the same
    masks as ``sigma = length``."""
    sizes = range(1, min(sigma, length) + 1)
    masks = np.zeros((sum(math.comb(length, d) for d in sizes), length), dtype=np.uint8)
    flips = itertools.chain.from_iterable(
        itertools.combinations(range(length), d) for d in sizes)
    for row, flip in zip(masks, flips):
        row[list(flip)] = 1
    masks.flags.writeable = False
    return masks


@functools.lru_cache(maxsize=8)
def _unit_grid(points: int) -> np.ndarray:
    """Read-only ``points`` power levels evenly spread over [0, 1], scaled by
    each row's stable power bound in the grid search."""
    grid = np.linspace(0.0, 1.0, points)
    grid.flags.writeable = False
    return grid


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


class UserTables:
    """One scenario's per-user tables of the exact search, built on each
    user's first search: its feasible-cache mask over the 2^K caches and
    ``_superset_min`` of its leak column.  Neither depends on the prices or
    the partner, so ``run_solver`` keeps one object per solve."""

    def __init__(self, scn: Scenario) -> None:
        self.scn = scn
        self._users: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def get(self, user: int, leak: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``user``'s (feasible, arg, low); ``leak`` is read only to build them."""
        if user not in self._users:
            bits = _cache_table(self.scn.config.num_kbs).astype(float)
            feasible = _cache_feasible(bits, self.scn, user)
            self._users[user] = (feasible, *_superset_min(leak, feasible))
        return self._users[user]


def _with_leak(rows: np.ndarray, sets, caches) -> np.ndarray:
    """One direction's search inputs for matched sets ``sets`` sent from
    caches ``caches``; ``rows[c]`` holds its inputs for matched set c sent
    from cache c."""
    out = rows[sets]
    out[:, 4] = rows[caches, 4]
    return out


def _best_completion(ctx: _PairContext, rows, feasible, s: int, floor: float):
    """Best (score, code_i, code_j, power_i, power_j) among the joint caches
    whose matched set is exactly ``s`` and whose score is at least
    ``floor``, ties to the lower (code_i, code_j); None if there is none.
    Every feasible completion of ``s`` of both users is searched in one
    batch, then paired in chunks of at most 2^20 (c_i, c_j) cells.
    """
    codes = np.arange(feasible[0].shape[0])
    ci, cj = (np.flatnonzero(feasible[w] & ((codes & s) == s)) for w in (0, 1))
    gi, gj = ctx.search([_with_leak(rows[w], np.full(len(c), s), c)
                         for w, c in enumerate((ci, cj))])
    best = None
    step = max(1, (1 << 20) // len(cj))
    for lo in range(0, len(ci), step):
        x = ci[lo:lo + step]
        total = gi[lo:lo + step, 0, None] + gj[None, :, 0]
        total[(x[:, None] & cj[None, :]) != s] = -np.inf
        # codes ascend along rows, columns and chunks, so the first maximum
        # in C order of the first chunk that reaches it has the lowest codes
        r, c = np.unravel_index(int(np.argmax(total)), total.shape)
        top = float(total[r, c])
        if top > -np.inf and top >= floor and (best is None or top > best[0]):
            best = (top, int(x[r]), int(cj[c]), float(gi[lo + r, 1]), float(gj[c, 1]))
    return best


def _matched_set_optimum(ctx: _PairContext, tables: UserTables) -> PairSolution:
    """Optimum over every feasible joint cache, by branch and bound over
    matched sets S = c_i & c_j (Land & Doig 1960).

    S fixes a direction's legit, share, interp and interp_sq coefficients
    and its stable power interval, which reads only interp and gain_d; the
    sender's leak is the one coefficient left, and the score at every power,
    hence both the grid maximum and the exact maximum, is nonincreasing in
    it.  So the bound
    R(S) = f_ij(S, least leak of i over feasible c_i >= S)
         + f_ji(S, least leak of j over feasible c_j >= S)
    holds for every joint cache matching in S, and is attained bit for bit
    when the two least-leak caches meet exactly in S: a row's search inputs
    are per-row sums, the same here as in the table scan's batch.  Only this
    bound needs the monotonicity in the leak; an opened set scores every
    completion.  With refinement it holds up to the rounding of the exact
    search, which the equivalence test with the table scan checks.  Sets are
    opened in descending R until R drops below the best score found; a set
    whose least-leak caches overlap elsewhere, or where a lower code may
    tie, is searched over all its completions in one batch.  Ties go to the
    lowest (c_i, c_j) code, the product-order first maximum of
    ``_enumerate_table``.
    """
    table = _cache_table(ctx.k)
    bits = table.astype(float)
    n = bits.shape[0]
    # rows[w][c]: direction w's search inputs with matched set c sent from cache c
    rows = [ctx._coeffs(bits, bits, w) for w in (0, 1)]
    (feas_i, arg_i, low_i), (feas_j, arg_j, low_j) = (
        tables.get(user, rows[w][:, 4]) for w, user in enumerate((ctx.i, ctx.j)))
    if not (feas_i.any() and feas_j.any()):
        raise _no_joint_cache(ctx.scn, ctx.i, ctx.j)

    def finish(code_i, code_j, power_i, power_j):  # reads the rows the search read
        s = [code_i & code_j]
        return ctx.finalize(table[[code_i, code_j]].ravel(), power_i, power_j,
                            [_with_leak(rows[w], s, [c]) for w, c in enumerate((code_i, code_j))])

    sets = np.flatnonzero((arg_i < n) & (arg_j < n))
    a_i, a_j = arg_i[sets], arg_j[sets]
    f_ij, f_ji = ctx.search((_with_leak(rows[0], sets, a_i), _with_leak(rows[1], sets, a_j)))
    bound = f_ij[:, 0] + f_ji[:, 0]
    if bound.max() == 0.0:
        # every joint cache scores 0 at power 0: the lowest feasible code wins
        return finish(low_i[0], low_j[0], 0.0, 0.0)
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
            found = _best_completion(ctx, rows, (feas_i, feas_j), int(sets[node]),
                                     float(bound[node]) if meets[node] else floor)
        if found is not None and (best is None
                                  or (-found[0], found[1:3]) < (-best[0], best[1:3])):
            best = found
            floor = max(floor, found[0])
    return finish(*best[1:])


def enumerate_pair_optimum(
    scn: Scenario, i: int, j: int,
    tau: np.ndarray, rho: np.ndarray,
    params: PairOptParams | None = None,
    tables: UserTables | None = None,
) -> PairSolution:
    """Exact joint-cache optimum (the tabu search's oracle): the maximum over
    every feasible joint cache, ties to the product-order first.  This is the
    matched-set branch and bound, for catalogs of up to MATCHED_SET_MAX_KBS
    KBs, with or without power refinement.  Without ``tables`` (per-user
    tables shared by one scenario's searches) the search builds its own.
    """
    params = params or PairOptParams()
    if scn.config.num_kbs > MATCHED_SET_MAX_KBS:
        raise ValueError(
            f"exhaustive search is limited to num_kbs <= {MATCHED_SET_MAX_KBS}")
    if tables is not None and tables.scn is not scn:
        raise ValueError("user tables belong to another scenario")
    return _matched_set_optimum(_PairContext(scn, i, j, tau, rho, params),
                                tables or UserTables(scn))


def solve_pair_subproblem(
    scn: Scenario, i: int, j: int,
    tau: np.ndarray, rho: np.ndarray,
    params: PairOptParams | None = None,
    return_state: bool = False,
    initial: np.ndarray | None = None,
    tables: UserTables | None = None,
):
    """Tabu search over joint caches with per-candidate optimized powers.

    Starts from the greedy joint construction (or ``initial``, a warm-start
    joint cache of length 2 * num_kbs), moves to the best feasible non-tabu
    neighbor each iteration (accepting downhill moves), records non-improving
    visits in the tabu memory, and stops on the iteration budget, an empty
    neighborhood, or stagnation of the incumbent.  With ``params.exhaustive``
    the tabu search is replaced by the exact ``enumerate_pair_optimum``,
    which keeps its per-user tables in ``tables`` when given.
    """
    params = params or PairOptParams()
    if params.exhaustive:
        sol = enumerate_pair_optimum(scn, i, j, tau, rho, params, tables)
        return (sol, TabuState(TABU_LEN)) if return_state else sol
    if initial is None:
        cache_i, cache_j = initial_kbc(scn, i, j)  # may raise InfeasiblePairError
        joint = np.concatenate((cache_i.bits, cache_j.bits))
    else:
        joint = np.asarray(initial)
        if joint.shape != (2 * scn.config.num_kbs,):
            raise ValueError("warm-start joint cache has the wrong length")
        if not np.isin(joint, (0, 1)).all():
            raise ValueError("warm-start joint cache must hold only 0/1 entries")
        joint = joint.astype(np.uint8)
        if not _feasible(joint[None, :], scn, i, j)[0]:
            raise ValueError(f"warm-start joint cache is infeasible for pair ({i}, {j})")
    ctx = _PairContext(scn, i, j, tau, rho, params)
    state = TabuState(TABU_LEN)
    current = joint
    cands = (neighborhood(current, params.sigma, state, scn, i, j) if params.max_iters
             else joint[None][:0])
    # the start is scored in one batch with its first neighborhood; a row's
    # result does not depend on its batch
    scores, cand_pi, cand_pj = ctx.evaluate(np.vstack((joint, cands)))
    best = (joint.copy(), float(cand_pi[0]), float(cand_pj[0]))
    state.best_score = float(scores[0])
    state.best_history.append(state.best_score)
    scores, cand_pi, cand_pj = scores[1:], cand_pi[1:], cand_pj[1:]

    for step in range(params.max_iters):
        if step:
            cands = neighborhood(current, params.sigma, state, scn, i, j)
            if cands.shape[0] == 0:
                break
            scores, cand_pi, cand_pj = ctx.evaluate(cands)
        elif cands.shape[0] == 0:
            break
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
