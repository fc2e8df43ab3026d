#!/usr/bin/env python3
"""Share of directional power searches whose coefficients repeat.

For fixed caches a direction's score depends on the joint cache only through
five coefficients (legit, leak, share, interp, interp_sq), so a power search
whose tuple was already searched under the same prices could be reused.  This
script runs one round of each workload, records every batch of candidates the
pair subproblem evaluates (the tabu start, each neighbourhood, or the
enumerated table), recomputes the two directions' tuples from the scenario
arrays, and reports the share of directional searches that repeat an earlier
tuple within the same batch and within the same subproblem call.

    python3 bench/coeff_repeats.py --seed 1
"""

import argparse
import itertools
import sys

import numpy as np

import run
from sscn import pair_opt


def coefficients(scn, s: int, r: int, sender: np.ndarray, other: np.ndarray) -> np.ndarray:
    cat = scn.catalog
    p, w, mu = cat.user_probs[s], cat.user_weights[s], cat.interp_rates[r]
    m = sender * other
    return np.column_stack((m @ (p * w), sender @ (p * cat.eaves_probs * w), m @ p,
                            m @ (p / mu), m @ (p / mu) ** 2))


def feasible_table(scn, i: int, j: int) -> np.ndarray:
    cfg, cat = scn.config, scn.catalog
    k = cfg.num_kbs
    rows = np.array(list(itertools.product((0, 1), repeat=2 * k)), dtype=float)
    ci, cj = rows[:, :k], rows[:, k:]
    keep = ((ci @ cat.sizes <= cfg.capacity) & (cj @ cat.sizes <= cfg.capacity)
            & (ci @ cat.user_probs[i] >= cfg.eta_min - 1e-9)
            & (cj @ cat.user_probs[j] >= cfg.eta_min - 1e-9))
    return rows[keep]


def record_calls(work, state) -> list[tuple]:
    """(scenario, i, j, [candidate batches]) per subproblem call of one round."""
    calls: list[tuple] = []
    orig_sub, orig_nb, orig_kbc = (pair_opt.solve_pair_subproblem, pair_opt.neighborhood,
                                   pair_opt.initial_kbc)

    def sub(scn, i, j, tau, rho, params=None, return_state=False, initial=None):
        calls.append((scn, i, j, []))
        if params is not None and params.exhaustive:
            calls[-1][3].append(feasible_table(scn, i, j))
        elif initial is not None:
            calls[-1][3].append(np.asarray(initial, dtype=float)[None, :])
        return orig_sub(scn, i, j, tau, rho, params, return_state, initial)

    def kbc(scn, i, j):
        ci, cj = orig_kbc(scn, i, j)
        calls[-1][3].append(np.concatenate((ci.bits, cj.bits)).astype(float)[None, :])
        return ci, cj

    def nb(current, sigma, tabu, scn, i, j):
        cands = orig_nb(current, sigma, tabu, scn, i, j)
        if cands.shape[0]:
            calls[-1][3].append(cands.astype(float))
        return cands

    run.dual.solve_pair_subproblem = sub
    pair_opt.neighborhood, pair_opt.initial_kbc = nb, kbc
    try:
        work.run_round(state)
    finally:
        run.dual.solve_pair_subproblem = orig_sub
        pair_opt.neighborhood, pair_opt.initial_kbc = orig_nb, orig_kbc
    return calls


def repeat_shares(calls) -> tuple[int, float, float]:
    searches = batch_repeats = call_repeats = 0
    for scn, i, j, batches in calls:
        k = scn.config.num_kbs
        for s, r, lo, hi in ((i, j, 0, k), (j, i, k, 2 * k)):
            seen = set()
            for batch in batches:
                other = batch[:, k:] if lo == 0 else batch[:, :k]
                tuples = [tuple(row) for row in coefficients(scn, s, r, batch[:, lo:hi], other)]
                searches += len(tuples)
                batch_repeats += len(tuples) - len(set(tuples))
                for t in tuples:
                    call_repeats += t in seen
                    seen.add(t)
    return searches, batch_repeats / searches, call_repeats / searches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.OUT.joinpath("scenarios").mkdir(parents=True, exist_ok=True)
    for name in sorted(run.WORKLOADS):
        work = run.WORKLOADS[name]
        state = work.setup(work.inputs(args.seed))
        searches, in_batch, in_call = repeat_shares(record_calls(work, state))
        print(f"{name:14s} directional searches {searches:9d}  repeated within batch "
              f"{in_batch:6.1%}  within subproblem call {in_call:6.1%}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
