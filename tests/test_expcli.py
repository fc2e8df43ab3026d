"""Experiment CLI: config parsing, sweep engine, CSV output, exit codes."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
from sscn.dual import SolverParams, run_solver
from sscn.expcli import (AXIS_FIELDS, CSV_HEADER, ConfigError, ResultRow,
                         SweepSpec, _fmt, _read_ini, _scenario_config,
                         _solver_params, derive_trial_seeds, load_sweep_spec,
                         main, rows_to_csv, run_sweep, trial_metrics)
from sscn.pair_opt import PairOptParams
from sscn.scenario import (ScenarioConfig, ScenarioFormatError, _config_items,
                           generate_scenario, load_scenario, save_scenario)

REPO = Path(__file__).resolve().parents[1]

FAST_SOLVER = ("[solver]\ndual_iters = 1\ntabu_iters = 3\n"
               "power_grid_points = 16\npower_refine = false\n")

SCENARIO_4 = ("[scenario]\nnum_users = 4\nnum_kbs = 3\ncell_radius_m = 40.0\n"
              "capacity = 6\nrng_seed = 5\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- seeds

def test_trial_seeds_are_deterministic():
    a = derive_trial_seeds(1, "num_users", 20, "capacity", 24, "proposed", 0)
    b = derive_trial_seeds(1, "num_users", 20, "capacity", 24, "proposed", 0)
    assert a == b


def test_scenario_seed_shared_across_schemes_and_axis():
    # common random numbers: every scheme and axis point must see the same
    # topology draw for a given (seed, variant, trial)
    base = derive_trial_seeds(1, "num_users", 20, "capacity", 24, "proposed", 0)
    for scheme in ("rpd", "mpk"):
        other = derive_trial_seeds(1, "num_users", 20, "capacity", 24, scheme, 0)
        assert other[0] == base[0]
        assert other[1] != base[1]
    shifted_axis = derive_trial_seeds(1, "num_users", 40, "capacity", 24,
                                      "proposed", 0)
    assert shifted_axis[0] == base[0]
    assert shifted_axis[1] != base[1]


def test_seeds_differ_across_trials_and_variants():
    keys = {derive_trial_seeds(1, "num_users", 20, "capacity", c, "rpd", t)
            for c in (12, 24) for t in range(4)}
    assert len(keys) == 8
    scenario_seeds = {k[0] for k in keys}
    assert len(scenario_seeds) == 8  # variant and trial both move the topology


# ---------------------------------------------------------------- formatting

def test_fmt_primitives():
    assert _fmt(1.5) == "1.5"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(0.1) == repr(0.1)
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(np.int64(3)) == "3"
    assert _fmt("rpd") == "rpd"


def test_rows_to_csv_golden():
    rows = [ResultRow(scheme="proposed", axis="num_users", axis_value=20,
                      variant="capacity", variant_value=24,
                      mean_sst=1.5, mean_delay_s=0.25, mean_eta=0.875,
                      trials=2, seed=7, errors=0)]
    expect = (CSV_HEADER + "\n"
              "proposed,num_users,20,capacity,24,1.5,0.25,0.875,2,7,0\n")
    assert rows_to_csv(rows) == expect


def test_trial_metrics_per_link_and_empty():
    scn = generate_scenario(ScenarioConfig(num_users=4, num_kbs=3,
                                           cell_radius_m=40.0, rng_seed=5))
    res = run_solver(scn, SolverParams(dual_iters=1))
    per_link_sst, per_link_delay, mean_eta = trial_metrics(res)
    links = 2 * len(res.pairing.matched_pairs())
    assert links > 0
    assert per_link_sst == pytest.approx(res.sst / links)
    assert per_link_delay >= 0.0
    assert 0.0 <= mean_eta <= 1.0 + 1e-9
    # no eligible pairs at all -> zero links, eta averaged over everyone
    from sscn.baselines import run_baseline
    lonely = make_scenario(user_ranks=[[1], [1]], eaves_ranks=[1], sizes=[1],
                           interp_rates=[[200.0]] * 2, neighbors=((), ()),
                           user_skew=0.0, eaves_skew=0.0)
    empty = run_baseline(lonely, "mpk", seed=0)
    sst, delay, eta = trial_metrics(empty)
    assert sst == 0.0 and delay == 0.0 and eta == pytest.approx(1.0)


# ---------------------------------------------------------------- spec files

def test_load_sweep_spec_full(tmp_path):
    path = write(tmp_path, "sweep.ini", SCENARIO_4 + FAST_SOLVER +
                 "[sweep]\naxis = num_users\naxis_values = 4, 6\n"
                 "variant = capacity\nvariant_values = 6\n"
                 "schemes = proposed rpd\ntrials = 2\nseed = 9\n")
    spec = load_sweep_spec(path)
    assert spec.axis == "num_users" and spec.axis_values == (4, 6)
    assert spec.variant == "capacity" and spec.variant_values == (6,)
    assert spec.schemes == ("proposed", "rpd")
    assert spec.trials == 2 and spec.seed == 9
    assert spec.base.num_kbs == 3
    assert spec.solver.dual_iters == 1
    assert spec.solver.pair.max_iters == 3         # tabu_iters alias
    assert spec.solver.pair.power_refine is False


def test_load_sweep_spec_defaults(tmp_path):
    path = write(tmp_path, "sweep.ini",
                 "[sweep]\naxis = p_max\naxis_values = 9 15 21\n"
                 "variant = eta_min\nvariant_values = 0.5\n")
    spec = load_sweep_spec(path)
    assert spec.schemes == ("proposed", "rpd", "mpk")
    assert spec.trials == 20 and spec.seed == 0
    assert spec.axis_values == (9.0, 15.0, 21.0)   # p_max parses as float
    assert spec.base == ScenarioConfig()


@pytest.mark.parametrize("body", [
    "[sweep]\naxis = bogus\naxis_values = 1\nvariant = capacity\nvariant_values = 6\n",
    "[sweep]\naxis = num_users\naxis_values = 4\nvariant = bogus\nvariant_values = 1\n",
    "[sweep]\naxis = num_users\naxis_values = 4\nvariant = capacity\n"
    "variant_values = 6\nschemes = teleport\n",
    "[sweep]\naxis = num_users\naxis_values = 4\nvariant = capacity\n"
    "variant_values = 6\ntrials = 0\n",
    "[sweep]\naxis = num_users\naxis_values = 4\nvariant = capacity\n"
    "variant_values = 6\nunexpected = 1\n",
    "[sweep]\nvariant = capacity\nvariant_values = 6\n",
    "[scenario]\nnum_users = 4\n",
])
def test_load_sweep_spec_rejects_bad_files(tmp_path, body):
    path = write(tmp_path, "bad.ini", body)
    with pytest.raises(ConfigError):
        load_sweep_spec(path)


def test_solver_section_rejects_unknown_keys(tmp_path):
    path = write(tmp_path, "solver.ini", "[solver]\nwarp = 9\n")
    with pytest.raises(ConfigError):
        _solver_params(_read_ini(path))
    bad_bool = write(tmp_path, "b.ini", "[solver]\npower_refine = maybe\n")
    with pytest.raises(ConfigError):
        _solver_params(_read_ini(bad_bool))


def test_solver_section_parses_warm_start(tmp_path):
    path = write(tmp_path, "solver.ini",
                 "[solver]\nwarm_start = true\nmatching_mode = exact\n")
    params = _solver_params(_read_ini(path))
    assert params.warm_start is True
    assert params.matching_mode == "exact"


def _changed(default):
    """A valid non-default value of the same type as a config field default."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, tuple):
        return (default[0], default[1] * 2)
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default / 2 + 0.125
    return default


def _changed_fields(cls):
    return {f.name: _changed(f.default) for f in fields(cls)
            if f.init and isinstance(f.default, (bool, int, float, str, tuple))}


def test_every_config_field_reads_back_from_config_text(tmp_path):
    # the reader types each value by its field, so a new field needs no table
    cfg = ScenarioConfig(**_changed_fields(ScenarioConfig))
    pair = PairOptParams(**_changed_fields(PairOptParams))
    solver = SolverParams(pair=pair, **_changed_fields(SolverParams))
    lines = ["[scenario]"] + [f"{k} = {v}" for k, v in _config_items(cfg)] + ["[solver]"]
    for params in (pair, solver):
        for name, value in _changed_fields(type(params)).items():
            key = "tabu_iters" if name == "max_iters" else name
            lines.append(f"{key} = {_fmt(value)}")
    parser = _read_ini(write(tmp_path, "all.ini", "\n".join(lines) + "\n"))
    assert _scenario_config(parser, "all.ini") == cfg
    assert _solver_params(parser) == solver
    assert cfg != ScenarioConfig() and solver != SolverParams()


@pytest.mark.parametrize("key", ["tabu_len", "growth_eps", "growth_window",
                                 "power_tol_frac", "step_delay0", "step_value0"])
def test_removed_solver_keys_exit_3(tmp_path, capsys, key):
    path = write(tmp_path, "cfg.ini", SCENARIO_4 + f"[solver]\n{key} = 1\n")
    assert main(["solve", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: unknown solver key {key!r}\n"


@pytest.mark.parametrize("section,key,raw", [
    ("scenario", "delay_max_s", "nan"), ("scenario", "sst_min", "inf"),
    ("scenario", "p_max_dbm", "nan"), ("solver", "tau_init", "nan"),
    ("solver", "rho_init", "inf"),
])
def test_non_finite_values_exit_3(tmp_path, capsys, section, key, raw):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        if section == "scenario":
            ScenarioConfig(**{key: float(raw)})
        else:
            SolverParams(**{key: float(raw)})
    text = SCENARIO_4 + FAST_SOLVER
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {raw}\n")
    path = write(tmp_path, "cfg.ini", text)
    assert main(["solve", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ") and f"{key} must be finite" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,raw", [
    ("p_max_dbm", "1e10"), ("noise_dbm", "-1e4"), ("p_max_dbm", "-1e4"),
    ("noise_dbm", "-3200"),
])
def test_power_levels_without_finite_positive_watts_exit_3(tmp_path, capsys, key, raw):
    # 1e10 dBm overflows the conversion; -1e4 dBm rounds to 0 W; -3200 dBm
    # is a subnormal 1e-323 W, over which every SNR overflows
    with pytest.raises(ValueError, match=f"{key} = .* not a positive, finite power"):
        ScenarioConfig(**{key: float(raw)})
    path = write(tmp_path, "cfg.ini", SCENARIO_4 + f"{key} = {raw}\n" + FAST_SOLVER)
    assert main(["solve", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ") and key in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,lines", [
    # an interpretation time this long overflows its square
    ("interp_time_max", "interp_time_min = 1e300\ninterp_time_max = 1e300\n"),
    # a cell this wide underflows the path-loss gain to 0
    ("cell_radius_m", "cell_radius_m = 1e300\n"),
])
def test_scenario_scales_that_overflow_exit_3(tmp_path, capsys, key, lines):
    scenario = SCENARIO_4.replace("cell_radius_m = 40.0\n", "") + lines
    path = write(tmp_path, "cfg.ini", scenario + FAST_SOLVER)
    assert main(["solve", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("config error: ") and key in captured.err


def test_unknown_matching_mode_exits_3_before_any_pair_is_solved(tmp_path, capsys,
                                                                  monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a pair subproblem ran before the mode was checked")

    monkeypatch.setattr("sscn.dual.solve_pair_subproblem", no_solve)
    path = write(tmp_path, "cfg.ini", SCENARIO_4 + FAST_SOLVER + "matching_mode = psychic\n")
    assert main(["solve", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "matching_mode" in captured.err


def _readme_ini_blocks():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```ini\n(.*?)```", text, flags=re.S)


def test_readme_ini_examples_load(tmp_path):
    # the README's values carry trailing "# ..." comments
    blocks = _readme_ini_blocks()
    assert len(blocks) == 2
    scenario_block, sweep_block = blocks
    path = write(tmp_path, "scenario.ini", scenario_block)
    assert _scenario_config(_read_ini(path), path) == ScenarioConfig(num_users=20, num_kbs=8)
    spec = load_sweep_spec(write(tmp_path, "sweep.ini", sweep_block))
    assert spec.axis == "num_users" and spec.axis_values == (10, 20, 30, 40)
    assert spec.variant == "capacity" and spec.variant_values == (24,)
    assert spec.schemes == ("proposed", "rpd", "mpk")
    assert spec.base.num_kbs == 8 and spec.solver.pair.max_iters == 4


SWEEP_CELL = ("[sweep]\naxis = num_users\naxis_values = 4\n"
              "variant = eta_min\nvariant_values = 0.5\ntrials = 1\n")


@pytest.mark.parametrize("edit,message", [
    (("variant_values = 0.5", "variant_values = 0.5 nan"), "eta_min must be finite"),
    (("variant_values = 0.5", "variant_values = 1.5"), "eta_min must lie in [0, 1]"),
    (("trials = 1", "trials = 1\nschemes ="), "nonempty scheme and value lists"),
])
def test_sweep_spec_fails_at_load(tmp_path, capsys, edit, message):
    # an empty scheme list or a cell whose config is invalid would otherwise
    # write a header-only CSV or fail every trial of the cell with exit 0
    path = write(tmp_path, "sweep.ini", SCENARIO_4 + FAST_SOLVER + SWEEP_CELL.replace(*edit))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_sweep_spec(path)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.mark.parametrize("name,raw,kind", [
    ("num_kbs", "3, 4", int), ("capacity", "6 7", int),
    ("p_max", "9, 15", float), ("eta_min", "0.5 1", float),
])
def test_sweep_values_are_typed_by_their_fields(tmp_path, name, raw, kind):
    is_axis = name in AXIS_FIELDS
    axis, variant = (name, "capacity") if is_axis else ("num_users", name)
    axis_values, variant_values = (raw, "6") if is_axis else ("4", raw)
    path = write(tmp_path, "sweep.ini", SCENARIO_4 +
                 f"[sweep]\naxis = {axis}\naxis_values = {axis_values}\n"
                 f"variant = {variant}\nvariant_values = {variant_values}\n")
    spec = load_sweep_spec(path)
    values = spec.axis_values if is_axis else spec.variant_values
    assert [type(v) for v in values] == [kind, kind]
    assert values == tuple(kind(float(t)) for t in raw.replace(",", " ").split())


# ---------------------------------------------------------------- run_sweep

def _tiny_spec(**overrides):
    kwargs = dict(
        axis="num_users", axis_values=(4,), variant="capacity",
        variant_values=(6,), schemes=("proposed", "rpd", "mpk"),
        trials=2, seed=3,
        base=ScenarioConfig(num_users=4, num_kbs=3, cell_radius_m=40.0),
        solver=SolverParams(dual_iters=1),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_run_sweep_shape_and_determinism():
    spec = _tiny_spec(axis_values=(4, 6))
    rows = run_sweep(spec)
    assert len(rows) == 2 * 1 * 3
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(spec))
    for row in rows:
        assert row.errors == 0
        assert math.isfinite(row.mean_sst)
        assert row.trials == 2


def test_run_sweep_thread_count_does_not_change_results():
    spec = _tiny_spec()
    assert rows_to_csv(run_sweep(spec, threads=1)) == rows_to_csv(
        run_sweep(spec, threads=2))


@pytest.mark.parametrize("threads", [0, -1])
def test_run_sweep_rejects_worker_counts_below_one(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_sweep(_tiny_spec(), threads=threads)


def test_run_sweep_records_errors_instead_of_aborting():
    # unit-size KBs, capacity 2: eta floor 1.0 needs all three -> infeasible
    spec = _tiny_spec(variant="eta_min", variant_values=(0.5, 1.0),
                      base=ScenarioConfig(num_users=4, num_kbs=3,
                                          cell_radius_m=40.0, capacity=2,
                                          kb_size_range=(1, 1)))
    rows = run_sweep(spec)
    by_cell = {(r.scheme, r.variant_value): r for r in rows}
    ok = by_cell[("proposed", 0.5)]
    assert ok.errors == 0 and math.isfinite(ok.mean_sst)
    assert ok.error_messages == ()
    broken = by_cell[("proposed", 1.0)]
    assert broken.errors == spec.trials
    assert math.isnan(broken.mean_sst)
    assert [msg.split(":")[:2] for msg in broken.error_messages] == [
        [f"trial {t}", " InfeasiblePairError"] for t in range(spec.trials)]
    # baselines never raise: they report shortfalls instead
    assert by_cell[("rpd", 1.0)].errors == 0
    assert by_cell[("mpk", 1.0)].errors == 0


def test_sweep_proposed_cell_matches_direct_solver_run():
    spec = _tiny_spec(trials=1)
    rows = run_sweep(spec)
    row = next(r for r in rows if r.scheme == "proposed")
    scn_seed, _ = derive_trial_seeds(spec.seed, spec.axis, 4, spec.variant, 6,
                                     "proposed", 0)
    from dataclasses import replace
    cfg = replace(spec.base, num_users=4, capacity=6, rng_seed=scn_seed)
    res = run_solver(generate_scenario(cfg), spec.solver)
    sst, delay, eta = trial_metrics(res)
    assert row.mean_sst == sst
    assert row.mean_delay_s == delay
    assert row.mean_eta == eta


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        _tiny_spec(axis="bogus")
    with pytest.raises(ConfigError):
        _tiny_spec(trials=0)
    with pytest.raises(ConfigError):
        _tiny_spec(schemes=("proposed", "other"))
    assert set(AXIS_FIELDS) == {"num_users", "num_kbs", "p_max"}


# ---------------------------------------------------------------- CLI

def test_cli_gen_solve_baseline_round_trip(tmp_path, capsys):
    cfg_path = write(tmp_path, "cfg.ini", SCENARIO_4 + FAST_SOLVER)
    scn_path = str(tmp_path / "scn.txt")
    assert main(["gen", "--config", cfg_path, "--out", scn_path]) == 0
    text = (tmp_path / "scn.txt").read_text()
    assert text.startswith("# sscn scenario v1")

    out_path = str(tmp_path / "res.json")
    assert main(["solve", "--scenario", scn_path, "--config", cfg_path,
                 "--out", out_path]) == 0
    payload = json.loads((tmp_path / "res.json").read_text())
    for key in ("sst", "per_link_sst", "pairs", "powers_w", "unpaired",
                "delay_violations", "value_violations", "dual_value_last"):
        assert key in payload
    assert payload["sst"] > 0.0

    assert main(["baseline", "--scenario", scn_path, "--kind", "rpd",
                 "--seed", "4", "--out", str(tmp_path / "base.json")]) == 0
    base = json.loads((tmp_path / "base.json").read_text())
    assert base["sst"] >= 0.0

    # stdout route plus trace logging
    assert main(["solve", "--scenario", scn_path, "--trace", "--iters", "1"]) == 0
    captured = capsys.readouterr()
    assert "\"sst\"" in captured.out
    assert "iter 1:" in captured.err


def test_cli_solve_from_config_with_seed_and_mode(tmp_path):
    cfg_path = write(tmp_path, "cfg.ini", SCENARIO_4 + FAST_SOLVER)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert main(["solve", "--config", cfg_path, "--seed", "11",
                 "--mode", "exact", "--out", out_a]) == 0
    assert main(["solve", "--config", cfg_path, "--seed", "11",
                 "--mode", "exact", "--out", out_b]) == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()


def test_cli_sweep_writes_reproducible_csv(tmp_path):
    sweep_path = write(tmp_path, "sweep.ini", SCENARIO_4 + FAST_SOLVER +
                       "[sweep]\naxis = num_users\naxis_values = 4\n"
                       "variant = capacity\nvariant_values = 6\n"
                       "trials = 1\nseed = 2\n")
    out_a = str(tmp_path / "a.csv")
    out_b = str(tmp_path / "b.csv")
    assert main(["sweep", "--config", sweep_path, "--out", out_a]) == 0
    assert main(["sweep", "--config", sweep_path, "--out", out_b]) == 0
    text = (tmp_path / "a.csv").read_text()
    assert text == (tmp_path / "b.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3
    assert {ln.split(",")[0] for ln in lines[1:]} == {"proposed", "rpd", "mpk"}


def test_cli_sweep_prints_trial_errors_and_keeps_csv(tmp_path, capsys):
    # unit-size KBs, capacity 2: eta floor 1.0 needs all three -> infeasible
    sweep_path = write(tmp_path, "sweep.ini",
                       "[scenario]\nnum_users = 4\nnum_kbs = 3\ncell_radius_m = 40.0\n"
                       "kb_size_min = 1\nkb_size_max = 1\ncapacity = 2\n"
                       + FAST_SOLVER +
                       "[sweep]\naxis = num_users\naxis_values = 4\n"
                       "variant = eta_min\nvariant_values = 1.0\n"
                       "schemes = proposed\ntrials = 1\nseed = 2\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", sweep_path, "--out", str(out)]) == 0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith("sweep error: proposed num_users=4 eta_min=1.0 trial 0: "
                             "InfeasiblePairError: ")
    spec = load_sweep_spec(sweep_path)
    assert out.read_text() == rows_to_csv(run_sweep(spec))
    assert out.read_text().strip().split("\n")[1].endswith(",1")


@pytest.mark.parametrize("edits,names", [
    ({"user_2": "nan 0.0"}, "user_2 position is not finite"),
    ({"user_3": "<user_1>"}, "user_1 and user_3 are too close"),
    ({"user_0": "1e-300 0.0", "user_1": "2e-300 0.0"}, "user_0 and user_1 are too close"),
    ({"eaves": "<user_0>"}, "user_0 is too close to the eavesdropper"),
])
def test_bad_positions_are_rejected_on_load(tmp_path, capsys, edits, names):
    # the path-loss law has no finite gain at (or very near) distance 0
    path = tmp_path / "scn.txt"
    save_scenario(generate_scenario(ScenarioConfig(num_users=4, num_kbs=3,
                                                   cell_radius_m=40.0)), str(path))
    lines = path.read_text().split("\n")
    first = lines.index("[positions]") + 1
    section = lines[first:lines.index("", first)]
    coords = dict(line.split(" = ") for line in section)
    for key, value in edits.items():
        if value.startswith("<"):
            value = coords[value[1:-1]]
        lines[first + list(coords).index(key)] = f"{key} = {value}"
    path.write_text("\n".join(lines))
    with pytest.raises(ScenarioFormatError, match=names):
        load_scenario(str(path))
    assert main(["solve", "--scenario", str(path), "--iters", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and names in err


def test_cli_missing_scenario_file_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    for argv in (["solve", "--scenario", missing, "--iters", "1"],
                 ["baseline", "--scenario", missing, "--kind", "rpd"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: cannot read scenario") and missing in err


def test_cli_rejects_solver_threads_and_bad_sweep_workers(tmp_path, capsys):
    cfg_path = write(tmp_path, "cfg.ini", SCENARIO_4 + FAST_SOLVER)
    threads_key = write(tmp_path, "threads.ini", SCENARIO_4 + "[solver]\nthreads = 2\n")
    sweep_path = write(tmp_path, "sweep.ini", SCENARIO_4 + FAST_SOLVER +
                       "[sweep]\naxis = num_users\naxis_values = 4\n"
                       "variant = capacity\nvariant_values = 6\ntrials = 1\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    for argv in (["solve", "--config", cfg_path, "--threads", "2"],
                 ["solve", "--config", threads_key],
                 ["sweep", "--config", sweep_path, "--threads", "0", "--out", str(out)],
                 ["sweep", "--config", sweep_path, "--threads", "-1", "--out", str(out)]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert "threads" in captured.err
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # 3: unreadable / unparseable / invalid arguments
    assert main(["gen", "--config", str(tmp_path / "missing.ini")]) == 3
    no_section = write(tmp_path, "empty.ini", "[other]\nx = 1\n")
    assert main(["gen", "--config", no_section]) == 3
    assert main(["solve"]) == 3                      # no scenario source
    assert main(["bogus-subcommand"]) == 3
    cfg_path = write(tmp_path, "cfg.ini", SCENARIO_4)
    assert main(["solve", "--config", cfg_path, "--mode", "psychic"]) == 3
    # 2: infeasible generation or solve
    sparse = write(tmp_path, "sparse.ini",
                   "[scenario]\nnum_users = 2\nsnr_threshold = 1e30\n")
    assert main(["gen", "--config", sparse]) == 2
    impossible = write(tmp_path, "impossible.ini",
                       "[scenario]\nnum_users = 2\nnum_kbs = 3\n"
                       "cell_radius_m = 40.0\nkb_size_min = 1\nkb_size_max = 1\n"
                       "capacity = 2\neta_min = 1.0\n")
    assert main(["solve", "--config", impossible]) == 2
    capsys.readouterr()  # drain error prints
