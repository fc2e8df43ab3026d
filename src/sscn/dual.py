"""Lagrangian dual decomposition over per-pair subproblems.

The network problem maximizes SST subject to per-user average-delay and
minimum-SST constraints.  Relaxing those two constraint families with dual
prices (tau for delay, rho for value) decouples the network into independent
per-pair cache/power subproblems plus a pairing stage; projected subgradient
steps with a diminishing 1/sqrt(t) schedule update the prices between
iterations.  The solver reports the final iterate, the full iteration trace,
and the best iterate whose primal tuple satisfied both relaxed constraint
families (when one exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .matching import Pairing, build_omega, solve_dup
from .metrics import (ETA_SLACK, CacheVector, cache_fits, pair_value_rates,
                      satisfaction)
from .pair_opt import (InfeasiblePairError, PairOptParams, PairSolution,
                       greedy_single_cache, solve_pair_subproblem)
from .queueing import pk_delay, queue_stats
from .scenario import Scenario


@dataclass(frozen=True)
class SolverParams:
    """Configuration of the dual loop.

    ``warm_start`` seeds each pair's tabu search with the joint cache it
    settled on in the previous dual iteration instead of rebuilding the
    greedy start; off by default so iterations stay independent.
    """

    dual_iters: int = 50
    pair: PairOptParams = field(default_factory=PairOptParams)
    matching_mode: str = "greedy"
    step_delay0: float = 100.0
    step_value0: float = 0.01
    tau_init: float = 1.0
    rho_init: float = 1.0
    warm_start: bool = False

    def __post_init__(self) -> None:
        if self.dual_iters < 1:
            raise ValueError("need at least one dual iteration")
        if self.step_delay0 < 0 or self.step_value0 < 0:
            raise ValueError("step sizes must be nonnegative")
        if self.tau_init < 0 or self.rho_init < 0:
            raise ValueError("initial duals must be nonnegative")


@dataclass(frozen=True)
class DualState:
    """Per-user dual prices and the diminishing step schedule."""

    tau: np.ndarray
    rho: np.ndarray
    step_delay0: float = 100.0
    step_value0: float = 0.01
    t: int = 1

    def __post_init__(self) -> None:
        if np.any(self.tau < 0.0) or np.any(self.rho < 0.0):
            raise ValueError("dual prices must be nonnegative")

    def step_sizes(self) -> tuple[float, float]:
        scale = math.sqrt(self.t)
        return self.step_delay0 / scale, self.step_value0 / scale


def update_duals(
    state: DualState, delay_sums: np.ndarray, value_sums: np.ndarray,
    delay_max_s: float, sst_min: float,
) -> DualState:
    """One projected subgradient step.

    ``delay_sums[i]`` / ``value_sums[i]`` are user i's matched outgoing delay
    and secrecy value (zero when unpaired).  Delay prices rise where delay
    exceeds the cap; value prices rise where secrecy value falls short.
    """
    nu_delay, nu_value = state.step_sizes()
    tau = np.maximum(state.tau - nu_delay * (delay_max_s - delay_sums), 0.0)
    rho = np.maximum(state.rho + nu_value * (sst_min - value_sums), 0.0)
    return replace(state, tau=tau, rho=rho, t=state.t + 1)


def lagrangian_value(
    scn: Scenario, caches, pairing: Pairing, powers, tau: np.ndarray, rho: np.ndarray
) -> float:
    """Relaxed objective of a primal tuple at given dual prices.

    Reduces to plain network SST when all prices are zero.  Raises
    UnstableQueueError if a matched direction has an unstable queue.
    """
    cfg = scn.config
    total = 0.0
    for i, j in pairing.matched_pairs():
        for s, r in ((i, j), (j, i)):
            rates = pair_value_rates(scn, s, r, caches[s], caches[r], powers[s])
            stats = queue_stats(caches[s], caches[r], scn.catalog.user_probs[s],
                                scn.catalog.interp_rates[r], rates.r_d, cfg.packet_bits)
            total += (1.0 + rho[s]) * rates.v_s - tau[s] * pk_delay(stats)
    return total + cfg.delay_max_s * float(np.sum(tau)) - cfg.sst_min * float(np.sum(rho))


@dataclass(frozen=True)
class PairReport:
    """Directed metrics of one matched pair in a final assignment."""

    i: int
    j: int
    secrecy_ij: float
    secrecy_ji: float
    delay_ij: float
    delay_ji: float


@dataclass(frozen=True)
class IterationRecord:
    """One dual iteration: prices were updated from these measurements."""

    t: int
    dual_value: float
    sst: float
    max_delay_violation: float
    max_value_violation: float
    pairs_matched: int


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint audit of a final assignment.

    Capacity, satisfaction, binary-cache, pairing and power-range checks are
    structural and should always pass for solver output; delay and
    minimum-value violations are reported with magnitudes instead of being
    repaired, since the dual relaxation does not guarantee them at any given
    iterate.  ``eta_shortfalls`` lists users whose satisfaction target was
    unreachable within capacity.
    """

    capacity_ok: bool
    eta_ok: bool
    power_ok: bool
    pairing_ok: bool
    unpaired: tuple[int, ...]
    delay_violations: dict[int, float]
    value_violations: dict[int, float]
    eta_shortfalls: dict[int, float]
    pair_failures: dict[tuple[int, int], str]

    @property
    def hard_ok(self) -> bool:
        return self.capacity_ok and self.eta_ok and self.power_ok and self.pairing_ok

    @property
    def soft_ok(self) -> bool:
        return not self.delay_violations and not self.value_violations


@dataclass(frozen=True)
class IterateSnapshot:
    t: int
    sst: float
    caches: tuple[CacheVector, ...]
    pairing: Pairing
    powers: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    """Final assignment plus audit trail of a solver or baseline run."""

    caches: tuple[CacheVector, ...]
    pairing: Pairing
    powers: np.ndarray
    sst: float
    eta: np.ndarray
    pair_reports: dict[tuple[int, int], PairReport]
    feasibility: FeasibilityReport
    trace: tuple[IterationRecord, ...]
    best_feasible: IterateSnapshot | None
    dual_final: DualState | None


def _pair_report_from_solution(sol: PairSolution) -> PairReport:
    return PairReport(i=sol.i, j=sol.j,
                      secrecy_ij=sol.secrecy_ij, secrecy_ji=sol.secrecy_ji,
                      delay_ij=sol.delay_ij, delay_ji=sol.delay_ji)


def measure_pair(scn: Scenario, i: int, j: int, caches, powers) -> PairReport:
    """Directed secrecy values and delays of pair (i, j) for given caches and
    powers.

    The queueing model (and with it the steady-state value delivery the
    secrecy metric counts) is only defined while the interpretation queue is
    stable.  A direction whose queue is overloaded therefore reports infinite
    queuing delay and zero delivered secrecy value: packets pile up without
    bound and are never interpreted in steady state.  Solver output is always
    stable by construction, so this only bites assignments chosen without
    regard to the queue, e.g. the max-power baseline.
    """
    vals = {}
    for s, r in ((i, j), (j, i)):
        rates = pair_value_rates(scn, s, r, caches[s], caches[r], powers[s])
        stats = queue_stats(caches[s], caches[r], scn.catalog.user_probs[s],
                            scn.catalog.interp_rates[r], rates.r_d, scn.config.packet_bits)
        if stats.stable:
            vals[(s, r)] = (rates.v_s, pk_delay(stats))
        else:
            vals[(s, r)] = (0.0, math.inf)
    return PairReport(i=i, j=j,
                      secrecy_ij=vals[(i, j)][0], secrecy_ji=vals[(j, i)][0],
                      delay_ij=vals[(i, j)][1], delay_ji=vals[(j, i)][1])


def _per_user_sums(
    num_users: int, pair_reports: dict[tuple[int, int], PairReport]
) -> tuple[np.ndarray, np.ndarray]:
    """Each user's matched outgoing (delay, secrecy value); zero when unpaired."""
    delay_sums = np.zeros(num_users)
    value_sums = np.zeros(num_users)
    for (i, j), rep in pair_reports.items():
        delay_sums[i] += rep.delay_ij
        delay_sums[j] += rep.delay_ji
        value_sums[i] += rep.secrecy_ij
        value_sums[j] += rep.secrecy_ji
    return delay_sums, value_sums


def delivered_sst(pair_reports: dict[tuple[int, int], PairReport]) -> float:
    """Network SST of an assignment as the sum of delivered directed values."""
    return float(sum(rep.secrecy_ij + rep.secrecy_ji for rep in pair_reports.values()))


def audit_assignment(
    scn: Scenario,
    caches,
    pairing: Pairing,
    powers,
    pair_reports: dict[tuple[int, int], PairReport],
    eta_shortfalls: dict[int, float] | None = None,
    pair_failures: dict[tuple[int, int], str] | None = None,
) -> FeasibilityReport:
    """Constraint audit shared by the solver and the baselines."""
    cfg = scn.config
    capacity_ok = all(cache_fits(c, scn.catalog.sizes, cfg.capacity) for c in caches)
    eta_ok = all(satisfaction(caches[i], scn.catalog.user_probs[i])
                 >= cfg.eta_min - ETA_SLACK for i in range(scn.num_users))
    powers = np.asarray(powers, dtype=float)
    power_ok = bool(np.all(powers >= 0.0) and np.all(powers <= cfg.p_max_w * (1 + 1e-12)))
    try:
        pairing.validate(scn)
        pairing_ok = True
    except ValueError:
        pairing_ok = False
    delay_sums, value_sums = _per_user_sums(scn.num_users, pair_reports)
    delay_violations = {
        int(i): float(delay_sums[i] - cfg.delay_max_s)
        for i in range(scn.num_users) if delay_sums[i] > cfg.delay_max_s
    }
    value_violations = {
        int(i): float(cfg.sst_min - value_sums[i])
        for i in range(scn.num_users) if value_sums[i] < cfg.sst_min
    }
    return FeasibilityReport(
        capacity_ok=capacity_ok, eta_ok=eta_ok, power_ok=power_ok, pairing_ok=pairing_ok,
        unpaired=tuple(pairing.unpaired()),
        delay_violations=delay_violations, value_violations=value_violations,
        eta_shortfalls=dict(eta_shortfalls or {}),
        pair_failures=dict(pair_failures or {}),
    )


def _solo_cache(scn: Scenario, i: int) -> tuple[CacheVector, float]:
    """Fallback cache for an unpaired user; returns the eta shortfall (0 if
    the satisfaction target was reached)."""
    cfg = scn.config
    bits, reached = greedy_single_cache(
        scn.catalog.user_probs[i], scn.catalog.sizes, cfg.capacity, cfg.eta_min)
    shortfall = 0.0 if reached else float(
        cfg.eta_min - bits @ scn.catalog.user_probs[i])
    return CacheVector(i, bits), shortfall


def _assemble(scn: Scenario, solutions: dict[tuple[int, int], PairSolution],
              pairing: Pairing) -> tuple[list[CacheVector], np.ndarray,
                                         dict[tuple[int, int], PairReport],
                                         dict[int, float]]:
    """Primal tuple from matched pair solutions plus solo fallbacks."""
    caches: list[CacheVector | None] = [None] * scn.num_users
    powers = np.zeros(scn.num_users)
    reports: dict[tuple[int, int], PairReport] = {}
    shortfalls: dict[int, float] = {}
    for i, j in pairing.matched_pairs():
        sol = solutions[(i, j)]
        caches[i], caches[j] = sol.cache_i, sol.cache_j
        powers[i], powers[j] = sol.power_i, sol.power_j
        reports[(i, j)] = _pair_report_from_solution(sol)
    for i in pairing.unpaired():
        caches[i], shortfall = _solo_cache(scn, i)
        if shortfall > 0.0:
            shortfalls[i] = shortfall
    return caches, powers, reports, shortfalls  # type: ignore[return-value]


def run_solver(scn: Scenario, params: SolverParams | None = None) -> SolveResult:
    """Full dual-decomposition solve of one scenario.

    Deterministic given (scenario, params).  Per-pair subproblem
    infeasibilities surface as absent score cells plus entries in
    ``feasibility.pair_failures``; if no pair is feasible at all the solver
    raises InfeasiblePairError.
    """
    params = params or SolverParams()
    cfg = scn.config
    m = scn.num_users
    pairs = scn.eligible_pairs()
    state = DualState(tau=np.full(m, params.tau_init), rho=np.full(m, params.rho_init),
                      step_delay0=params.step_delay0, step_value0=params.step_value0)
    trace: list[IterationRecord] = []
    best: IterateSnapshot | None = None
    final: tuple | None = None
    warm: dict[tuple[int, int], np.ndarray] = {}

    for t in range(1, params.dual_iters + 1):
        failures: dict[tuple[int, int], str] = {}
        solutions: dict[tuple[int, int], PairSolution] = {}
        for i, j in pairs:
            try:
                solutions[(i, j)] = solve_pair_subproblem(
                    scn, i, j, state.tau, state.rho, params.pair, initial=warm.get((i, j)))
            except InfeasiblePairError as exc:
                failures[(i, j)] = str(exc)
                solutions[(i, j)] = PairSolution.infeasible_pair(i, j, cfg.num_kbs)
        if params.warm_start:
            for pair, sol in solutions.items():
                if sol.feasible:
                    warm[pair] = np.concatenate(
                        (sol.cache_i.bits, sol.cache_j.bits))
        if pairs and all(not s.feasible for s in solutions.values()):
            raise InfeasiblePairError(
                "every eligible pair is infeasible; see per-pair diagnostics")
        omega = build_omega(solutions, m, pairs)
        pairing = solve_dup(omega, params.matching_mode)
        caches, powers, reports, shortfalls = _assemble(scn, omega.solutions, pairing)
        sst = delivered_sst(reports)
        delay_sums, value_sums = _per_user_sums(m, reports)
        inner_value = float(sum(omega.scores[i, j] for i, j in pairing.matched_pairs()))
        dual_value = (inner_value + cfg.delay_max_s * float(np.sum(state.tau))
                      - cfg.sst_min * float(np.sum(state.rho)))
        max_delay_violation = float(np.max(np.maximum(delay_sums - cfg.delay_max_s, 0.0)))
        max_value_violation = float(np.max(np.maximum(cfg.sst_min - value_sums, 0.0)))
        trace.append(IterationRecord(
            t=t, dual_value=dual_value, sst=sst,
            max_delay_violation=max_delay_violation,
            max_value_violation=max_value_violation,
            pairs_matched=len(pairing.matched_pairs())))
        feasible_now = (max_delay_violation == 0.0 and max_value_violation == 0.0
                        and not shortfalls)
        if feasible_now and (best is None or sst > best.sst):
            best = IterateSnapshot(t=t, sst=sst, caches=tuple(caches),
                                   pairing=pairing, powers=powers.copy())
        final = (caches, pairing, powers, reports, shortfalls, failures, sst)
        state = update_duals(state, delay_sums, value_sums, cfg.delay_max_s, cfg.sst_min)

    caches, pairing, powers, reports, shortfalls, failures, sst = final
    report = audit_assignment(scn, caches, pairing, powers, reports,
                              eta_shortfalls=shortfalls, pair_failures=failures)
    eta = np.array([satisfaction(caches[i], scn.catalog.user_probs[i]) for i in range(m)])
    return SolveResult(
        caches=tuple(caches), pairing=pairing, powers=powers, sst=sst, eta=eta,
        pair_reports=reports, feasibility=report, trace=tuple(trace),
        best_feasible=best, dual_final=state)
