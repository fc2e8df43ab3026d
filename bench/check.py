"""Independent output checker for the sscn benchmark.

Every number sscn reports for a trial is recomputed here from the scenario
arrays alone (channel gains, catalog probabilities and weights, KB sizes,
interpretation rates and the config scalars), with formulas written out
below rather than imported from sscn:

    rate        r = W log2(1 + p g / N)
    value       v_d = r_d / L * sum_k m_k p_k w_k,  v_e = r_e / L * sum_k c_k p_k q_k w_k
    secrecy     v_s = max(v_d - v_e, 0)
    queue       lambda = r_d / L * sum_k m_k p_k,  eps_k = m_k p_k / share
                E[S] = sum_k eps_k / mu_k,  Var[S] = sum_k (eps_k / mu_k)^2
                rho = lambda E[S],  delay = lambda (E[S]^2 + Var[S]) / (2 (1 - rho))

where m = c_s * c_r is the KB set cached at both ends of a direction s -> r.
A direction whose utilisation reaches 1 delivers no value and has infinite
delay; solver output must never contain one.

Each check returns a list of problem strings; an empty list accepts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

REL_TOL = 1.0e-9
# Satisfaction and utilisation thresholds carry this much float slack.
SLACK = 1.0e-9


@dataclass
class Outcome:
    """One trial's reported result, reduced to plain arrays and numbers."""

    scheme: str
    caches: np.ndarray            # (M, K) 0/1
    partner: np.ndarray           # (M,) partner index or -1
    powers: np.ndarray            # (M,) watts
    sst: float
    eta: np.ndarray               # (M,) reported satisfaction
    pair_reports: dict            # (i, j) -> (v_ij, v_ji, delay_ij, delay_ji)
    eta_shortfalls: dict          # user -> shortfall
    per_link: tuple               # (sst per link, delay per link, mean eta of matched)


def outcome_from_result(scheme: str, res, per_link) -> Outcome:
    """Copy the fields of an sscn SolveResult that the checks read."""
    return Outcome(
        scheme=scheme,
        caches=np.array([c.bits for c in res.caches], dtype=np.int64),
        partner=np.array(res.pairing.partner, dtype=np.int64),
        powers=np.array(res.powers, dtype=float),
        sst=float(res.sst),
        eta=np.array(res.eta, dtype=float),
        pair_reports={(int(i), int(j)): (float(r.secrecy_ij), float(r.secrecy_ji),
                                         float(r.delay_ij), float(r.delay_ji))
                      for (i, j), r in res.pair_reports.items()},
        eta_shortfalls={int(k): float(v) for k, v in res.feasibility.eta_shortfalls.items()},
        per_link=tuple(float(x) for x in per_link),
    )


def close(a: float, b: float, scale: float = 0.0) -> bool:
    """Equal to REL_TOL relative to max(|a|, |b|, scale); infinities must match."""
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def direction(scn, s: int, r: int, cache_s: np.ndarray, cache_r: np.ndarray,
              power: float) -> dict:
    """Rates, secrecy value, utilisation and delay of direction s -> r."""
    cfg, cat = scn.config, scn.catalog
    cs = np.asarray(cache_s, dtype=float)
    m = cs * np.asarray(cache_r, dtype=float)
    probs = np.asarray(cat.user_probs[s], dtype=float)
    weights = np.asarray(cat.user_weights[s], dtype=float)
    mu = np.asarray(cat.interp_rates[r], dtype=float)
    r_d = cfg.bandwidth_hz * math.log2(1.0 + power * float(scn.gain_d[s, r]) / cfg.noise_w)
    r_e = cfg.bandwidth_hz * math.log2(1.0 + power * float(scn.gain_e[s]) / cfg.noise_w)
    v_d = r_d / cfg.packet_bits * math.fsum(m * probs * weights)
    v_e = r_e / cfg.packet_bits * math.fsum(cs * probs * np.asarray(cat.eaves_probs) * weights)
    share = math.fsum(m * probs)
    if share <= 0.0:
        return {"v_d": v_d, "v_e": v_e, "v_s": max(v_d - v_e, 0.0), "util": 0.0,
                "delay": 0.0, "stable": True}
    lam = r_d / cfg.packet_bits * share
    per_kb = m * probs / share / mu
    mean = math.fsum(per_kb)
    var = math.fsum(per_kb**2)
    util = lam * mean
    if util >= 1.0 - SLACK:
        return {"v_d": v_d, "v_e": v_e, "v_s": 0.0, "util": util,
                "delay": math.inf, "stable": False}
    delay = lam * (mean**2 + var) / (2.0 * (1.0 - util))
    return {"v_d": v_d, "v_e": v_e, "v_s": max(v_d - v_e, 0.0), "util": util,
            "delay": delay, "stable": True}


def check_structure(scn, out: Outcome) -> list[str]:
    """Capacity, satisfaction, power range and a symmetric eligible pairing."""
    cfg, cat = scn.config, scn.catalog
    problems = []
    m_users, k = scn.gain_d.shape[0], len(cat.sizes)
    if out.caches.shape != (m_users, k) or not np.all((out.caches == 0) | (out.caches == 1)):
        return [f"caches are not a ({m_users}, {k}) 0/1 array"]
    used = out.caches @ np.asarray(cat.sizes, dtype=np.int64)
    for u in np.flatnonzero(used > cfg.capacity):
        problems.append(f"user {u} caches {used[u]} units > capacity {cfg.capacity}")
    eta = (out.caches * np.asarray(cat.user_probs, dtype=float)).sum(axis=1)
    for u in range(m_users):
        if not close(eta[u], out.eta[u]):
            problems.append(f"user {u} satisfaction {out.eta[u]!r} != {eta[u]!r}")
        if eta[u] < cfg.eta_min - SLACK:
            listed = out.eta_shortfalls.get(u)
            if listed is None:
                problems.append(f"user {u} satisfaction {eta[u]:.6f} < eta_min, not listed")
            elif not close(listed, cfg.eta_min - eta[u], scale=1.0):
                problems.append(f"user {u} shortfall {listed!r} != {cfg.eta_min - eta[u]!r}")
    p = out.powers
    if p.shape != (m_users,) or np.any(~np.isfinite(p)) or np.any(p < 0.0) \
            or np.any(p > cfg.p_max_w * (1.0 + 1e-12)):
        problems.append(f"powers outside [0, p_max={cfg.p_max_w!r}]: max {np.max(p)!r}")
    partner = out.partner
    for u, v in enumerate(partner):
        if v < 0:
            continue
        if v == u or v >= m_users or partner[v] != u:
            problems.append(f"pairing is not symmetric at user {u} (partner {v})")
            continue
        snr = cfg.p_max_w * float(scn.gain_d[u, v]) / cfg.noise_w
        if u < v and snr < cfg.snr_threshold:
            problems.append(f"pair ({u}, {v}) SNR {snr:.4g} at full power < threshold")
    return problems


def check_physics(scn, out: Outcome) -> list[str]:
    """Recompute every matched direction and the trial's per-link figures."""
    problems = []
    pairs = [(u, int(v)) for u, v in enumerate(out.partner) if v > u]
    if set(out.pair_reports) != set(pairs):
        return [f"pair reports {sorted(out.pair_reports)} != matched pairs {pairs}"]
    total_value = 0.0
    for i, j in pairs:
        reported = out.pair_reports[(i, j)]
        for idx, (s, r) in enumerate(((i, j), (j, i))):
            d = direction(scn, s, r, out.caches[s], out.caches[r], float(out.powers[s]))
            if not d["stable"] and out.scheme == "proposed":
                problems.append(f"solver direction {s}->{r} is unstable "
                                f"(utilisation {d['util']:.6f})")
            if not close(reported[idx], d["v_s"], scale=d["v_d"]):
                problems.append(f"secrecy {s}->{r} {reported[idx]!r} != {d['v_s']!r}")
            if not close(reported[2 + idx], d["delay"]):
                problems.append(f"delay {s}->{r} {reported[2 + idx]!r} != {d['delay']!r}")
            total_value += d["v_s"]
    if not close(out.sst, total_value):
        problems.append(f"sst {out.sst!r} != recomputed {total_value!r}")
    for name, got, want in zip(("sst", "delay", "eta"), out.per_link,
                               recomputed_per_link(scn, out)):
        if not close(got, want):
            problems.append(f"per-link {name} {got!r} != recomputed {want!r}")
    return problems


def check_outcome(scn, out: Outcome) -> list[str]:
    return check_structure(scn, out) + check_physics(scn, out)


def recomputed_per_link(scn, out: Outcome) -> tuple[float, float, float]:
    """Per-link (SST, delay, eta) of a trial from the scenario arrays alone."""
    pairs = [(u, int(v)) for u, v in enumerate(out.partner) if v > u]
    eta = (out.caches * np.asarray(scn.catalog.user_probs, dtype=float)).sum(axis=1)
    if not pairs:
        return 0.0, 0.0, float(np.mean(eta))
    dirs = [direction(scn, s, r, out.caches[s], out.caches[r], float(out.powers[s]))
            for i, j in pairs for s, r in ((i, j), (j, i))]
    links = len(dirs)
    return (sum(d["v_s"] for d in dirs) / links, sum(d["delay"] for d in dirs) / links,
            float(np.mean(eta[out.partner >= 0])))


def check_sweep(csv_text: str, trials: list[tuple[str, int, tuple]]) -> list[tuple]:
    """CSV means against per-trial recomputations, and the paper's ordering.

    ``trials`` holds (scheme, num_users, recomputed per-link triple) for every
    trial of the sweep.  Each row's means must equal the means of its trials,
    no row may count errors, and the proposed scheme's mean per-link SST must
    exceed both baselines' at every axis value.  Returns (cell, problem)
    pairs, where cell is the (scheme, num_users) the problem belongs to, or
    None when the CSV's cells do not match the trials' cells.
    """
    problems = []
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    by_cell: dict[tuple[str, int], list[tuple]] = {}
    for scheme, users, triple in trials:
        by_cell.setdefault((scheme, users), []).append(triple)
    seen = set()
    for row in rows:
        key = (row["scheme"], int(row["axis_value"]))
        seen.add(key)
        cell = by_cell.get(key, [])
        if int(row["errors"]) != 0:
            problems.append((key, f"row {key} reports {row['errors']} errors"))
        if len(cell) != int(row["trials"]):
            problems.append((key, f"row {key} has {len(cell)} captured trials, "
                                  f"csv says {row['trials']}"))
            continue
        for col, idx in (("mean_sst", 0), ("mean_delay_s", 1), ("mean_eta", 2)):
            want = math.fsum(t[idx] for t in cell) / len(cell)
            if not close(float(row[col]), want):
                problems.append((key, f"row {key} {col} {row[col]} != mean of trials {want!r}"))
    if seen != set(by_cell):
        problems.append((None, f"csv cells {sorted(seen)} != trial cells {sorted(by_cell)}"))
    means = {(r["scheme"], int(r["axis_value"])): float(r["mean_sst"]) for r in rows}
    for users in sorted({u for _, u in means}):
        prop = means.get(("proposed", users), math.nan)
        for base in ("rpd", "mpk"):
            other = means.get((base, users), math.nan)
            if not prop > other:
                problems.append((("proposed", users),
                                 f"M={users}: proposed per-link SST {prop!r} "
                                 f"does not exceed {base} {other!r}"))
    return problems


def optimum_matching_weight(scores: np.ndarray) -> float:
    """Max-weight matching weight over strictly positive scores (networkx)."""
    import networkx as nx

    g = nx.Graph()
    m = scores.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            if scores[i, j] > 0.0:
                g.add_edge(i, j, weight=float(scores[i, j]))
    pairs = nx.max_weight_matching(g)
    return math.fsum(float(scores[i, j]) for i, j in pairs)


def pairing_weight(scores: np.ndarray, partner: np.ndarray) -> float:
    return math.fsum(float(scores[u, v]) for u, v in enumerate(partner) if v > u)


def check_exact_matching(scores: np.ndarray, partner: np.ndarray) -> list[str]:
    """An exact pairing must reach the networkx optimum on its score matrix."""
    got, best = pairing_weight(scores, partner), optimum_matching_weight(scores)
    if not close(got, best):
        return [f"exact pairing weight {got!r} != max-weight matching {best!r}"]
    return []
