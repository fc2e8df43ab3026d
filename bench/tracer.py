"""Span tracing of sscn's public functions, installed from outside the package.

The tracer swaps module attributes for timing wrappers; nothing inside
``src/`` is edited.  Each call becomes a span ``[name, start, end, parent,
note]`` kept in memory; ``note`` holds the exception name when the call
raised, or a small per-call count (neighbourhood rows, catalogue size).
Self time is a span's duration minus the durations of its child spans.

Three groups of names are wrapped:

* public module attributes, replaced in every ``sscn`` module that binds the
  same object (so calls made by ``expcli`` are seen too);
* the names ``sscn.dual`` binds, replaced in ``sscn.dual`` only, so the
  solver's calls are seen and the baselines' own bindings are not;
* ``sscn.pair_opt`` globals, replaced in ``sscn.pair_opt`` only.

A name a later version of sscn no longer has is skipped, and the metrics
built from it are left out of the report rather than reported as zero.
"""

from __future__ import annotations

import math
import statistics
import sys
from time import perf_counter

import numpy as np

PUBLIC = (("sscn.scenario", "generate_scenario"), ("sscn.scenario", "save_scenario"),
          ("sscn.scenario", "load_scenario"), ("sscn.dual", "run_solver"),
          ("sscn.baselines", "run_baseline"), ("sscn.expcli", "run_sweep"),
          ("sscn.expcli", "rows_to_csv"))
DUAL_BOUND = ("solve_pair_subproblem", "build_omega", "solve_dup", "update_duals",
              "audit_assignment", "queue_stats", "pair_value_rates")
PAIR_OPT_GLOBALS = ("neighborhood", "initial_kbc", "enumerate_pair_optimum")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()
        # (scores copy, mode, partner) per solve_dup call
        self.matchings: list[tuple] = []
        # (iterations, feasible iterates, final max delay violation) per solve
        self.solves: list[tuple[int, int, float]] = []
        self.csv_bytes: list[int] = []
        self.timed_from = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sscn" or name.startswith("sscn.")}
        for home, name in PUBLIC:
            orig = getattr(modules.get(home), name, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules.values():
                if getattr(mod, name, None) is orig:
                    self._patch(mod, name, wrapper)
        for home, names in (("sscn.dual", DUAL_BOUND), ("sscn.pair_opt", PAIR_OPT_GLOBALS)):
            mod = modules.get(home)
            for name in names:
                orig = getattr(mod, name, None)
                if orig is not None:
                    self._patch(mod, name, self._wrap(name, orig))

    def start_timed_section(self) -> None:
        """Spans before this point (set-up) count only towards medians."""
        self.timed_from = len(self.spans)
        self.matchings.clear()
        self.solves.clear()
        self.csv_bytes.clear()

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()

    def _patch(self, mod, name: str, wrapper) -> None:
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)
        self.wrapped.add(name)

    def _wrap(self, name: str, orig):
        spans, stack = self.spans, self._stack
        observe = getattr(self, f"_observe_{name}", None)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[4] = type(exc).__name__
                raise
            span[2] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        return traced

    # -- per-call observations (outside the observed span) -----------------

    def _observe_neighborhood(self, span, args, kwargs, result) -> None:
        span[4] = int(result.shape[0])

    def _observe_enumerate_pair_optimum(self, span, args, kwargs, result) -> None:
        span[4] = int(args[0].config.num_kbs)

    def _observe_solve_dup(self, span, args, kwargs, result) -> None:
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "greedy")
        self.matchings.append((np.array(args[0].scores, dtype=float), mode,
                               np.array(result.partner, dtype=np.int64)))

    def _observe_run_solver(self, span, args, kwargs, result) -> None:
        feasible = sum(1 for rec in result.trace
                       if rec.max_delay_violation == 0.0 and rec.max_value_violation == 0.0)
        final = result.trace[-1].max_delay_violation if result.trace else 0.0
        self.solves.append((len(result.trace), feasible, float(final)))

    def _observe_rows_to_csv(self, span, args, kwargs, result) -> None:
        self.csv_bytes.append(len(result.encode("utf-8")))

    # -- reduction to per-layer metrics ------------------------------------

    def layer_metrics(self, rounds: int, import_s: float, matching_ratios: list[float]) -> dict:
        """Per-layer metrics.

        Medians (``*_ms_p50``) cover every span, set-up included, so that
        calls made only while setting up (``save_scenario``) are measured.
        Counts and totals cover the timed section and are given per round.
        """
        child = [0.0] * len(self.spans)
        enum_parents = set()
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
                if span[0] == "enumerate_pair_optimum":
                    enum_parents.add(span[3])
        every: dict[str, list[float]] = {}
        dur: dict[str, list[float]] = {}
        self_s: dict[str, float] = {}
        for idx, span in enumerate(self.spans):
            d = span[2] - span[1]
            every.setdefault(span[0], []).append(d)
            if idx >= self.timed_from:
                dur.setdefault(span[0], []).append(d)
                self_s[span[0]] = self_s.get(span[0], 0.0) + d - child[idx]
        spans = self.spans[self.timed_from:]
        first = self.timed_from

        def calls(name):
            return len(dur.get(name, ())) / rounds

        def total(name):
            return math.fsum(dur.get(name, ())) / rounds

        def p50_ms(name):
            d = every.get(name)
            return 1e3 * statistics.median(d) if d else 0.0

        def own(name):
            return self_s.get(name, 0.0) / rounds

        have = self.wrapped.__contains__
        out: dict[str, tuple[float, str]] = {"process.import_s": (import_s, "s")}
        if have("generate_scenario"):
            out["scenario.generate_calls"] = (calls("generate_scenario"), "count")
            out["scenario.generate_ms_p50"] = (p50_ms("generate_scenario"), "ms")
        if have("save_scenario"):
            out["scenario.save_ms_p50"] = (p50_ms("save_scenario"), "ms")
        if have("load_scenario"):
            out["scenario.load_ms_p50"] = (p50_ms("load_scenario"), "ms")
        if have("solve_pair_subproblem"):
            sub = [(first + i, s) for i, s in enumerate(spans)
                   if s[0] == "solve_pair_subproblem"]
            out["pair_opt.subproblem_calls"] = (calls("solve_pair_subproblem"), "count")
            out["pair_opt.subproblem_ms_p50"] = (p50_ms("solve_pair_subproblem"), "ms")
            out["pair_opt.subproblem_s"] = (total("solve_pair_subproblem"), "s")
            out["pair_opt.self_s"] = (own("solve_pair_subproblem"), "s")
            out["pair_opt.infeasible_pairs"] = (
                sum(1 for _, s in sub if s[4] == "InfeasiblePairError") / rounds, "count")
            if have("neighborhood"):
                # one initial evaluation per tabu search that got past its start
                starts = sum(1 for i, s in sub if s[4] is None and i not in enum_parents)
                cands = (sum(s[4] for s in spans if s[0] == "neighborhood") + starts) / rounds
                pair_self = own("solve_pair_subproblem")
                out["pair_opt.candidates"] = (cands, "count")
                out["pair_opt.candidates_per_s"] = (cands / pair_self if pair_self > 0 else 0.0,
                                                    "1/s")
        if have("neighborhood"):
            out["pair_opt.neighborhood_calls"] = (calls("neighborhood"), "count")
            out["pair_opt.neighborhood_s"] = (total("neighborhood"), "s")
        if have("initial_kbc"):
            out["pair_opt.initial_kbc_s"] = (total("initial_kbc"), "s")
        if have("enumerate_pair_optimum"):
            out["pair_opt.enumerate_calls"] = (calls("enumerate_pair_optimum"), "count")
            out["pair_opt.enumerate_ms_p50"] = (p50_ms("enumerate_pair_optimum"), "ms")
            out["pair_opt.enumerated_candidates"] = (
                sum(4 ** s[4] for s in spans
                    if s[0] == "enumerate_pair_optimum" and s[4] is not None) / rounds,
                "count")
        if have("build_omega"):
            out["matching.build_omega_s"] = (total("build_omega"), "s")
        if have("solve_dup"):
            out["matching.solve_dup_calls"] = (calls("solve_dup"), "count")
            out["matching.solve_dup_ms_p50"] = (p50_ms("solve_dup"), "ms")
            out["matching.weight_vs_optimum"] = (
                statistics.fmean(matching_ratios) if matching_ratios else 1.0, "ratio")
            out["matching.pairs_matched"] = (
                sum(int(np.sum(m[2] >= 0)) // 2 for m in self.matchings) / rounds, "count")
        if have("run_solver"):
            out["dual.run_solver_s"] = (total("run_solver"), "s")
            out["dual.iterations"] = (sum(s[0] for s in self.solves) / rounds, "count")
            out["dual.self_s"] = (own("run_solver"), "s")
            out["dual.final_max_delay_violation_s"] = (
                statistics.fmean(s[2] for s in self.solves) if self.solves else 0.0, "s")
            out["dual.feasible_iterates"] = (sum(s[1] for s in self.solves) / rounds, "count")
        if have("update_duals"):
            out["dual.update_duals_s"] = (total("update_duals"), "s")
        if have("audit_assignment"):
            out["dual.audit_s"] = (total("audit_assignment"), "s")
        if have("run_baseline"):
            out["baselines.calls"] = (calls("run_baseline"), "count")
            out["baselines.run_ms_p50"] = (p50_ms("run_baseline"), "ms")
        if have("queue_stats"):
            out["queueing.queue_stats_calls"] = (calls("queue_stats"), "count")
            out["queueing.queue_stats_s"] = (total("queue_stats"), "s")
        if have("pair_value_rates"):
            out["metrics.pair_value_rates_calls"] = (calls("pair_value_rates"), "count")
            out["metrics.pair_value_rates_s"] = (total("pair_value_rates"), "s")
        if have("run_sweep"):
            out["expcli.run_sweep_s"] = (total("run_sweep"), "s")
            out["expcli.sweep_self_s"] = (own("run_sweep"), "s")
        if have("rows_to_csv"):
            out["expcli.csv_bytes"] = (sum(self.csv_bytes) / rounds, "bytes")
        return out
