#!/usr/bin/env python3
"""Solve one random scenario and print the dual-ascent trace.

Shows, per dual iteration: the relaxed objective (dual value), the network
semantic secrecy throughput of that iterate, how many pairs were matched, and
the largest outstanding delay / minimum-value violation.  Ends with a summary
of the returned assignment.

Example:
    python3 scripts/show_convergence.py --users 12 --kbs 6 --iters 25 --seed 3
"""

from __future__ import annotations

import argparse

import numpy as np

from sscn.dual import SolverParams, run_solver
from sscn.matching import MODES
from sscn.pair_opt import PairOptParams
from sscn.scenario import ScenarioConfig, generate_scenario


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--users", type=int, default=12)
    parser.add_argument("--kbs", type=int, default=6)
    parser.add_argument("--radius", type=float, default=300.0,
                        help="cell radius in metres (default: 300)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--iters", type=int, default=25,
                        help="dual ascent iterations (default: 25)")
    parser.add_argument("--mode", choices=MODES, default="greedy",
                        help="pairing stage (exact only for small networks)")
    args = parser.parse_args(argv)

    scn = generate_scenario(ScenarioConfig(
        num_users=args.users, num_kbs=args.kbs,
        cell_radius_m=args.radius, rng_seed=args.seed,
    ))
    params = SolverParams(
        dual_iters=args.iters,
        matching_mode=args.mode,
        pair=PairOptParams(sigma=1, max_iters=12, power_grid_points=64,
                           power_refine=False),
    )
    res = run_solver(scn, params)

    print(f"{'iter':>4} {'dual value':>14} {'network SST':>12} {'pairs':>5} "
          f"{'max delay excess':>17} {'max value shortfall':>20}")
    for rec in res.trace:
        print(f"{rec.t:>4} {rec.dual_value:>14.4f} {rec.sst:>12.4f} "
              f"{rec.pairs_matched:>5} {rec.max_delay_violation:>15.3e} s "
              f"{rec.max_value_violation:>20.4f}")

    matched = res.pairing.matched_pairs()
    links = 2 * len(matched)
    print(f"\nfinal assignment: {len(matched)} pairs "
          f"({len(res.pairing.unpaired())} unpaired users)")
    print(f"network SST {res.sst:.4f}" +
          (f" ({res.sst / links:.4f} per link)" if links else ""))
    print(f"mean satisfaction {float(np.mean(res.eta)):.4f}")
    fb = res.feasibility
    print(f"structural constraints ok: {fb.hard_ok}")
    if fb.delay_violations:
        worst = max(fb.delay_violations.values())
        print(f"delay cap exceeded for {len(fb.delay_violations)} users "
              f"(worst excess {worst:.3e} s)")
    if fb.value_violations:
        worst = max(fb.value_violations.values())
        print(f"minimum secrecy value missed for {len(fb.value_violations)} users "
              f"(worst shortfall {worst:.4f})")
    if not fb.delay_violations and not fb.value_violations:
        print("all per-user delay and value targets met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
