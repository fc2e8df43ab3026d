"""Experiment command-line interface.

Subcommands
    gen       draw a scenario from a config file and write its text form
    solve     run the dual-decomposition solver on one scenario
    baseline  evaluate the rpd or mpk benchmark on one scenario
    sweep     run a benchmark sweep over an axis and write a CSV

Config files are INI-style text.  ``[scenario]`` holds ScenarioConfig keys
(``num_users``, ``p_max_dbm``, ...), ``[solver]`` optional solver knobs
(``dual_iters``, ``sigma``, ``tabu_iters``, ``power_grid_points``, ...) and
``[sweep]`` the sweep description (``axis``, ``axis_values``, ``variant``,
``variant_values``, ``schemes``, ``trials``, ``seed``).

Exit codes: 0 success, 2 infeasible scenario or solve, 3 unparseable or
invalid config/arguments (unknown keys, NaN or infinite values included).

Sweep CSVs are byte-reproducible: trial seeds are a pure hash of the sweep
spec (see ``derive_trial_seeds`` for the common-random-numbers layout) and
floats are serialized with repr.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import KINDS, run_baseline
from .dual import SolveResult, SolverParams, run_solver
from .matching import MODES, UNPAIRED
from .pair_opt import InfeasiblePairError, PairOptParams
from .scenario import (Scenario, ScenarioConfig, ScenarioFormatError,
                       ScenarioGenerationError, config_from_mapping,
                       fields_from_strings, generate_scenario, load_scenario,
                       scenario_to_text, with_p_max)

CSV_HEADER = ("scheme,axis,axis_value,variant,variant_value,"
              "mean_sst,mean_delay_s,mean_eta,trials,seed,errors")

# axis / variant names accepted in sweep specs -> ScenarioConfig field
AXIS_FIELDS = {"num_users": "num_users", "num_kbs": "num_kbs", "p_max": "p_max_dbm"}
VARIANT_FIELDS = {"user_skew": "user_skew", "capacity": "capacity", "eta_min": "eta_min"}
SCHEMES = ("proposed",) + KINDS


# config files, scenario files and sweep specs share one error type
ConfigError = ScenarioFormatError


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark sweep: an axis, a variant parameter, and schemes."""

    axis: str
    axis_values: tuple
    variant: str
    variant_values: tuple
    schemes: tuple[str, ...] = SCHEMES
    trials: int = 20
    seed: int = 0
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self) -> None:
        if self.axis not in AXIS_FIELDS:
            raise ConfigError(f"unknown sweep axis {self.axis!r}")
        if self.variant not in VARIANT_FIELDS:
            raise ConfigError(f"unknown sweep variant {self.variant!r}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}")
        if self.trials < 1 or not (self.schemes and self.axis_values and self.variant_values):
            raise ConfigError("sweep needs trials >= 1 and nonempty scheme and value lists")
        # an invalid cell config fails the spec here, not every trial of the cell
        for a in self.axis_values:
            for v in self.variant_values:
                try:
                    _trial_config(self, a, v, self.base.rng_seed)
                except ValueError as exc:
                    raise ConfigError(f"sweep cell {self.axis}={_fmt(a)} "
                                      f"{self.variant}={_fmt(v)}: {exc}") from exc


@dataclass(frozen=True)
class TrialResult:
    """One sweep trial: network SST and the three ``trial_metrics`` values."""

    sst: float
    per_link_sst: float
    per_link_delay_s: float
    mean_eta: float


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    axis: str
    axis_value: object
    variant: str
    variant_value: object
    mean_sst: float
    mean_delay_s: float
    mean_eta: float
    trials: int
    seed: int
    errors: int
    error_messages: tuple[str, ...] = ()   # one per failed trial; not written to CSV
    trial_results: tuple[TrialResult | None, ...] = ()  # in trial order; not written to CSV


def derive_trial_seeds(seed: int, axis: str, axis_value, variant: str,
                       variant_value, scheme: str, trial: int) -> tuple[int, int]:
    """Deterministic (scenario seed, scheme-RNG seed) for one trial.

    Common-random-numbers design: the scenario seed deliberately ignores the
    axis value and the scheme, so every scheme is scored on the same random
    topologies and axis points differ only through the swept parameter.  That
    pairs the comparisons a sweep exists to make (scheme ordering, trends
    along the axis) and strips topology noise out of their differences.  The
    scheme seed keys on everything, keeping e.g. baseline power draws
    independent across cells.  Both seeds remain pure functions of
    (sweep seed, axis value, variant value, scheme, trial), so identical
    specs reproduce identical CSVs.
    """
    scenario_key = f"{seed}|{variant}|{variant_value!r}|{trial}"
    scheme_key = (f"{seed}|{axis}|{axis_value!r}|{variant}|{variant_value!r}"
                  f"|{scheme}|{trial}")
    scenario_digest = hashlib.sha256(scenario_key.encode("utf-8")).digest()
    scheme_digest = hashlib.sha256(scheme_key.encode("utf-8")).digest()
    return (int.from_bytes(scenario_digest[:8], "big"),
            int.from_bytes(scheme_digest[:8], "big"))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trial_metrics(res: SolveResult) -> tuple[float, float, float]:
    """(per-link SST, per-link delay, mean eta of matched users, or of all if none)."""
    links = 2 * len(res.pairing.matched_pairs())
    if links == 0:
        return 0.0, 0.0, float(np.mean(res.eta))
    delay_total = sum(rep.delay_ij + rep.delay_ji for rep in res.pair_reports.values())
    matched = res.pairing.partner != UNPAIRED
    return res.sst / links, delay_total / links, float(np.mean(res.eta[matched]))


def _trial_config(spec: SweepSpec, axis_value, variant_value, scn_seed: int) -> ScenarioConfig:
    changes = {AXIS_FIELDS[spec.axis]: axis_value,
               VARIANT_FIELDS[spec.variant]: variant_value,
               "rng_seed": scn_seed}
    return replace(spec.base, **changes)


def _run_trial(task) -> tuple[TrialResult | None, str | None]:
    spec, axis_value, variant_value, scheme, trial = task
    scn_seed, aux_seed = derive_trial_seeds(
        spec.seed, spec.axis, axis_value, spec.variant, variant_value, scheme, trial)
    try:
        # a p_max trial draws its one topology at the lowest budget, where
        # eligibility is narrowest, and re-budgets it for this cell
        drawn_at = min(spec.axis_values) if spec.axis == "p_max" else axis_value
        scn = generate_scenario(_trial_config(spec, drawn_at, variant_value, scn_seed))
        if spec.axis == "p_max":
            scn = with_p_max(scn, axis_value)
        if scheme == "proposed":
            res = run_solver(scn, spec.solver)
        else:
            res = run_baseline(scn, scheme, aux_seed)
        return TrialResult(res.sst, *trial_metrics(res)), None
    except Exception as exc:  # recorded per trial; a sweep never aborts
        return None, f"{type(exc).__name__}: {exc}"


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[ResultRow]:
    """Execute every (axis value, variant value, scheme) cell of a sweep.

    Deterministic regardless of ``threads``: results are assembled in task
    order and every trial's RNG seeds derive from the spec alone.  Tasks run
    cell by cell, ``spec.trials`` each, so a cell's outcomes are one slice.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cells = [(a, v, s) for a in spec.axis_values
             for v in spec.variant_values for s in spec.schemes]
    tasks = [(spec, a, v, s, trial) for a, v, s in cells for trial in range(spec.trials)]
    # a fork pool starts all its workers at once; start no idle ones, and no
    # more than there are cores to run them
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks, chunksize=1))
    else:
        outcomes = [_run_trial(t) for t in tasks]

    rows: list[ResultRow] = []
    for n, (axis_value, variant_value, scheme) in enumerate(cells):
        cell = outcomes[n * spec.trials:(n + 1) * spec.trials]
        results = tuple(r for r, _ in cell)
        messages = tuple(f"trial {trial}: {err}" for trial, (_, err) in enumerate(cell)
                         if err is not None)
        done = [(r.per_link_sst, r.per_link_delay_s, r.mean_eta)
                for r in results if r is not None]
        mean_sst, mean_delay, mean_eta = (
            [float(col.mean()) for col in np.array(done).T] if done else [math.nan] * 3)
        rows.append(ResultRow(
            scheme=scheme, axis=spec.axis, axis_value=axis_value,
            variant=spec.variant, variant_value=variant_value,
            mean_sst=mean_sst, mean_delay_s=mean_delay, mean_eta=mean_eta,
            trials=spec.trials, seed=spec.seed, errors=len(messages),
            error_messages=messages, trial_results=results))
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.scheme, r.axis, _fmt(r.axis_value), r.variant, _fmt(r.variant_value),
            _fmt(r.mean_sst), _fmt(r.mean_delay_s), _fmt(r.mean_eta),
            str(r.trials), str(r.seed), str(r.errors)]))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# config file loading
# --------------------------------------------------------------------------

def _read_ini(path: str) -> configparser.ConfigParser:
    # a value may end in a "# ..." comment, as in the README's examples
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # type: ignore[method-assign]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return parser


def _scenario_config(parser: configparser.ConfigParser, path: str) -> ScenarioConfig:
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path} has no [scenario] section")
    return config_from_mapping(dict(parser.items("scenario")))


def _solver_params(parser: configparser.ConfigParser) -> SolverParams:
    # [solver] holds SolverParams and PairOptParams keys in one section
    if not parser.has_section("solver"):
        return SolverParams()
    names = {"tabu_iters": "max_iters"}
    solver_items = dict(parser.items("solver"))
    pair_keys = {f.name for f in fields(PairOptParams)} | set(names)
    pair_items = {k: solver_items.pop(k) for k in list(solver_items) if k in pair_keys}
    pair_kwargs = fields_from_strings(PairOptParams, pair_items, "solver", names)
    solver_kwargs = fields_from_strings(SolverParams, solver_items, "solver")
    try:
        return SolverParams(pair=PairOptParams(**pair_kwargs), **solver_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc


def _parse_values(raw: str, field_name: str | None) -> tuple:
    # typed by the ScenarioConfig field they set; strings for an unknown
    # axis or variant, which SweepSpec rejects
    tokens = raw.replace(",", " ").split()
    if field_name is None:
        return tuple(tokens)
    return tuple(fields_from_strings(ScenarioConfig, {field_name: token})[field_name]
                 for token in tokens)


def load_sweep_spec(path: str) -> SweepSpec:
    parser = _read_ini(path)
    if not parser.has_section("sweep"):
        raise ConfigError(f"{path} has no [sweep] section")
    sweep = dict(parser.items("sweep"))
    base = _scenario_config(parser, path) if parser.has_section("scenario") else ScenarioConfig()
    solver = _solver_params(parser)
    try:
        axis = sweep.pop("axis")
        variant = sweep.pop("variant")
        axis_values = _parse_values(sweep.pop("axis_values"), AXIS_FIELDS.get(axis))
        variant_values = _parse_values(sweep.pop("variant_values"), VARIANT_FIELDS.get(variant))
        schemes = tuple(sweep.pop("schemes", " ".join(SCHEMES)).replace(",", " ").split())
        options = fields_from_strings(SweepSpec, sweep, "sweep")
    except KeyError as exc:
        raise ConfigError(f"sweep spec missing key {exc}") from exc
    return SweepSpec(axis=axis, axis_values=axis_values, variant=variant,
                     variant_values=variant_values, schemes=schemes, base=base,
                     solver=solver, **options)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

class _CliError(Exception):
    """Bad arguments, or an output file that cannot be written: exit 3."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; 2 is reserved for infeasible
    def error(self, message):  # noqa: D102
        raise _CliError(message)


def _load_input_scenario(args) -> Scenario:
    if getattr(args, "scenario", None):
        try:
            return load_scenario(args.scenario)
        except OSError as exc:
            raise ScenarioFormatError(f"cannot read scenario {args.scenario}: {exc}") from exc
    if getattr(args, "config", None):
        cfg = _scenario_config(_read_ini(args.config), args.config)
        if args.seed is not None:
            cfg = replace(cfg, rng_seed=args.seed)
        return generate_scenario(cfg)
    raise _CliError("provide --scenario or --config")


def _check_out_dir(out: str | None) -> None:
    """Refuse an ``--out`` path whose directory is missing, before any work."""
    folder = os.path.dirname(out or "") or "."
    if not os.path.isdir(folder):
        raise _CliError(f"cannot write {out}: no directory {folder}")


def _write_out(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _finite_or_null(value) -> float | None:
    """``value`` as a float, or None (JSON null) where it is inf or NaN."""
    value = float(value)
    return value if math.isfinite(value) else None


def _result_summary(res: SolveResult) -> dict:
    """The CLI's JSON result; every non-finite number is written as null."""
    per_link_sst, per_link_delay, mean_eta = trial_metrics(res)
    feas = res.feasibility

    def per_user(values: dict) -> dict:
        return {str(k): _finite_or_null(v) for k, v in values.items()}

    return {
        "sst": _finite_or_null(res.sst),
        "per_link_sst": _finite_or_null(per_link_sst),
        "per_link_delay_s": _finite_or_null(per_link_delay),
        "mean_eta": _finite_or_null(mean_eta),
        "pairs": [[int(i), int(j)] for i, j in res.pairing.matched_pairs()],
        "unpaired": [int(i) for i in feas.unpaired],
        "powers_w": [_finite_or_null(p) for p in res.powers],
        "delay_violations": per_user(feas.delay_violations),
        "value_violations": per_user(feas.value_violations),
        "eta_shortfalls": per_user(feas.eta_shortfalls),
        "pair_failures": {f"{i},{j}": msg for (i, j), msg in feas.pair_failures.items()},
        "best_feasible_sst": (None if res.best_feasible is None
                              else _finite_or_null(res.best_feasible.sst)),
        "dual_value_last": _finite_or_null(res.trace[-1].dual_value) if res.trace else None,
    }


def _write_summary(res: SolveResult, out: str | None) -> None:
    _write_out(json.dumps(_result_summary(res), indent=2, allow_nan=False) + "\n", out)


def _cmd_gen(args) -> int:
    _write_out(scenario_to_text(_load_input_scenario(args)), args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.scenario and args.seed is not None:
        raise _CliError("--seed overrides rng_seed only with --config; "
                        "a scenario file is already drawn")
    scn = _load_input_scenario(args)
    params = _solver_params(_read_ini(args.config)) if args.config else SolverParams()
    if args.iters is not None:
        params = replace(params, dual_iters=args.iters)
    if args.mode is not None:
        params = replace(params, matching_mode=args.mode)
    res = run_solver(scn, params)
    if args.trace:
        for rec in res.trace:
            sys.stderr.write(
                f"iter {rec.t}: dual={rec.dual_value!r} sst={rec.sst!r} "
                f"delay_viol={rec.max_delay_violation!r} "
                f"value_viol={rec.max_value_violation!r} pairs={rec.pairs_matched}\n")
    _write_summary(res, args.out)
    return 0


def _cmd_baseline(args) -> int:
    scn = _load_input_scenario(args)
    res = run_baseline(scn, args.kind, args.seed if args.seed is not None else 0)
    _write_summary(res, args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    rows = run_sweep(spec, threads=args.threads)
    for r in rows:
        for msg in r.error_messages:
            print(f"sweep error: {r.scheme} {r.axis}={_fmt(r.axis_value)} "
                  f"{r.variant}={_fmt(r.variant_value)} {msg}", file=sys.stderr)
    _write_out(rows_to_csv(rows), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sscn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("--config", required=True, help="config file with a [scenario] section")
    gen.add_argument("--seed", type=int, default=None, help="override rng_seed")
    gen.add_argument("--out", default=None, help="scenario file to write (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run the dual-decomposition solver")
    solve.add_argument("--scenario", default=None, help="scenario file from gen")
    solve.add_argument("--config", default=None,
                       help="config file ([scenario] + optional [solver]) to generate from")
    solve.add_argument("--seed", type=int, default=None, help="override rng_seed with --config")
    solve.add_argument("--iters", type=int, default=None, help="override dual iterations")
    solve.add_argument("--mode", choices=MODES, default=None,
                       help="pairing mode (exact is a small-instance oracle)")
    solve.add_argument("--trace", action="store_true", help="print per-iteration trace to stderr")
    solve.add_argument("--out", default=None, help="JSON result path (default stdout)")
    solve.set_defaults(func=_cmd_solve)

    base = sub.add_parser("baseline", help="evaluate the rpd or mpk benchmark")
    base.add_argument("--scenario", default=None)
    base.add_argument("--config", default=None)
    base.add_argument("--kind", choices=KINDS, required=True)
    base.add_argument("--seed", type=int, default=None,
                      help="baseline RNG seed (and rng_seed override with --config)")
    base.add_argument("--out", default=None)
    base.set_defaults(func=_cmd_baseline)

    sweep = sub.add_parser("sweep", help="run a benchmark sweep, write CSV")
    sweep.add_argument("--config", required=True, help="config file with a [sweep] section")
    sweep.add_argument("--seed", type=int, default=None, help="override sweep seed")
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out_dir(args.out)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (ScenarioGenerationError, InfeasiblePairError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
