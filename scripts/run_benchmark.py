#!/usr/bin/env python3
"""Benchmark the solver against both baselines across network sizes.

Runs a common-random-numbers sweep (every scheme sees the same topologies),
writes the full CSV, and prints a per-cell summary: mean per-link semantic
secrecy throughput, mean per-link queueing delay, and trial error counts.

Example:
    python3 scripts/run_benchmark.py --users 10 20 30 40 --trials 20 --out benchmark.csv
"""

from __future__ import annotations

import argparse
from pathlib import Path

from sscn.dual import SolverParams
from sscn.expcli import SweepSpec, rows_to_csv, run_sweep
from sscn.pair_opt import PairOptParams
from sscn.scenario import ScenarioConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--users", type=int, nargs="+", default=[10, 20, 30, 40],
                        help="network sizes to sweep (default: 10 20 30 40)")
    parser.add_argument("--kbs", type=int, default=8,
                        help="knowledge bases in the catalogue (default: 8)")
    parser.add_argument("--trials", type=int, default=10,
                        help="random topologies per cell (default: 10)")
    parser.add_argument("--seed", type=int, default=0, help="sweep seed (default: 0)")
    parser.add_argument("--dual-iters", type=int, default=2,
                        help="dual ascent iterations per solve (default: 2)")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel trial workers (default: 1)")
    parser.add_argument("--out", type=Path, default=Path("benchmark.csv"),
                        help="CSV output path (default: benchmark.csv)")
    args = parser.parse_args(argv)

    solver = SolverParams(
        dual_iters=args.dual_iters,
        pair=PairOptParams(sigma=1, max_iters=4, power_grid_points=32,
                           power_refine=False),
    )
    spec = SweepSpec(
        axis="num_users",
        axis_values=tuple(args.users),
        variant="capacity",
        variant_values=(24,),
        trials=args.trials,
        seed=args.seed,
        base=ScenarioConfig(num_kbs=args.kbs),
        solver=solver,
    )
    rows = run_sweep(spec, threads=args.threads)
    args.out.write_text(rows_to_csv(rows))

    print(f"{'scheme':>8} {'users':>5} {'per-link SST':>14} {'per-link delay':>15} {'errors':>6}")
    for row in rows:
        print(f"{row.scheme:>8} {row.axis_value:>5} {row.mean_sst:>14.3f} "
              f"{row.mean_delay_s:>13.2e} s {row.errors:>6}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
