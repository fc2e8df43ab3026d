"""Scenario model for secure D2D semantic communication networks.

A scenario places ``num_users`` users plus one eavesdropping receiver
uniformly at random in a disk-shaped cell, draws a catalog of ``num_kbs``
knowledge bases (KBs) with integer storage sizes, and assigns every KB an
exponential interpretation rate at each receiver.  Request popularity follows
a per-user Zipf law over a private preference ranking of the catalog; the
eavesdropper ranks the catalog independently.  Channel gains follow the
log-distance path-loss law ``34 + 40 log10(d)`` dB and two users are mutually
eligible for D2D communication when the SNR at full transmit power clears a
configurable threshold.

All internal math is in SI units (watts, hertz, seconds, bits); dBm config
inputs are converted exactly once, at config construction.
"""

from __future__ import annotations

import configparser
import io
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

# Attempts to draw a topology where every user has at least one eligible
# neighbor before generation gives up.
MAX_TOPOLOGY_DRAWS = 100
# Longest accepted interpretation time (seconds per packet).  Queueing delay
# squares it and multiplies the square by a rate; far beyond any physical
# time, this keeps both finite.
MAX_INTERP_TIME_S = 1.0e100


class ScenarioGenerationError(RuntimeError):
    """Raised when no valid topology exists for a config (over-sparse cell)."""


class ScenarioFormatError(ValueError):
    """Raised when a scenario file, config file or sweep spec is malformed."""


def check_finite(obj) -> None:
    """Raise ValueError naming the first attribute of dataclass ``obj`` that is
    a NaN or infinite float, or is not an integer in an int field."""
    integral = {f.name for f in fields(obj) if f.type == "int"}
    for name, value in vars(obj).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if name in integral and not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def channel_gain_from_distance(distance_m: float) -> float:
    """Linear power gain of the 34 + 40*log10(d [m]) dB path-loss law."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    path_loss_db = 34.0 + 40.0 * math.log10(distance_m)
    return 10.0 ** (-path_loss_db / 10.0)


def zipf_weights(ranks: np.ndarray, skew: float) -> np.ndarray:
    """Un-normalized Zipf weights ``rank**-skew``, elementwise over ``ranks``;
    also the per-KB semantic value weight."""
    return np.asarray(ranks, dtype=float) ** -skew


def zipf_probabilities(ranks: np.ndarray, skew: float) -> np.ndarray:
    """Zipf request probabilities for a full preference ranking.

    ``ranks`` must be a permutation of 1..K; the entry holding rank ``r``
    gets probability ``r**-skew / sum_{e=1..K} e**-skew``, so the rank-1
    entry is the most popular and ``skew`` controls how steeply popularity
    decays.  ``skew = 0`` yields the uniform distribution.
    """
    ranks = np.asarray(ranks)
    if skew < 0.0:
        raise ValueError(f"skew must be nonnegative, got {skew}")
    if ranks.ndim != 1:
        raise ValueError("ranks must be one-dimensional")
    k = ranks.shape[0]
    if sorted(ranks.tolist()) != list(range(1, k + 1)):
        raise ValueError("ranks must be a permutation of 1..K")
    return zipf_weights(ranks, skew) / np.sum(zipf_weights(np.arange(1, k + 1), skew))


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable scenario parameters.

    Power levels are supplied in dBm and exposed in watts via the derived
    ``noise_w`` / ``p_max_w`` fields.  KB sizes are drawn from
    ``kb_size_min..kb_size_max`` and interpretation times from
    ``[interp_time_min, interp_time_max]``, both bounds inclusive;
    interpretation times are seconds per packet, storage sizes and
    ``capacity`` share one abstract storage unit.
    """

    num_users: int = 100
    num_kbs: int = 12
    cell_radius_m: float = 300.0
    bandwidth_hz: float = 1.0e5
    packet_bits: float = 800.0
    noise_dbm: float = -111.45
    p_max_dbm: float = 21.0
    snr_threshold: float = 1.0
    eta_min: float = 0.5
    delay_max_s: float = 5.0e-3
    sst_min: float = 50.0
    user_skew: float = 1.2
    eaves_skew: float = 1.2
    kb_size_min: int = 1
    kb_size_max: int = 5
    capacity: int = 24
    interp_time_min: float = 5.0e-3
    interp_time_max: float = 1.0e-2
    per_user_interp: bool = False
    rng_seed: int = 0
    noise_w: float = field(init=False, repr=False)
    p_max_w: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_finite(self)
        if self.num_users < 2:
            raise ValueError("need at least two users")
        if self.num_kbs < 1:
            raise ValueError("need at least one knowledge base")
        for name in ("cell_radius_m", "bandwidth_hz", "packet_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if channel_gain_from_distance(2.0 * self.cell_radius_m) < sys.float_info.min:
            raise ValueError(f"cell_radius_m = {self.cell_radius_m!r} m is too large: the "
                             "path-loss gain across the cell underflows")
        if self.snr_threshold < 0 or self.user_skew < 0 or self.eaves_skew < 0:
            raise ValueError("snr_threshold and skews must be nonnegative")
        if not 0.0 <= self.eta_min <= 1.0:
            raise ValueError("eta_min must lie in [0, 1]")
        if self.delay_max_s <= 0 or self.sst_min < 0:
            raise ValueError("delay_max_s must be positive and sst_min nonnegative")
        if not 0 < self.kb_size_min <= self.kb_size_max:
            raise ValueError("need 0 < kb_size_min <= kb_size_max")
        if self.capacity < 1:
            raise ValueError("capacity must be at least one storage unit")
        if not 0.0 < self.interp_time_min <= self.interp_time_max:
            raise ValueError("need 0 < interp_time_min <= interp_time_max")
        if self.interp_time_max > MAX_INTERP_TIME_S:
            raise ValueError(f"interp_time_max = {self.interp_time_max!r} s exceeds "
                             f"{MAX_INTERP_TIME_S!r} s")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed!r}")
        # dBm -> watts happens here, exactly once; everything downstream is SI.
        # A level so large it overflows, or so small it rounds to 0 W or to a
        # subnormal float, is rejected: each ends in NaN, division by zero or
        # an overflowing SNR downstream.
        for name, watts_name in (("noise_dbm", "noise_w"), ("p_max_dbm", "p_max_w")):
            value = getattr(self, name)
            try:
                watts = dbm_to_watts(value)
            except OverflowError:
                watts = math.inf
            if not sys.float_info.min <= watts < math.inf:
                raise ValueError(f"{name} = {value!r} dBm is not a positive, finite power "
                                 f"in watts of at least {sys.float_info.min!r} W")
            object.__setattr__(self, watts_name, watts)
        if self.p_max_w / self.noise_w == math.inf:
            raise ValueError(f"p_max_dbm = {self.p_max_dbm!r} dBm over noise_dbm = "
                             f"{self.noise_dbm!r} dBm overflows the SNR p_max / noise")


@dataclass(frozen=True)
class KbCatalog:
    """Knowledge-base catalog: sizes, rankings, popularity, interpretation.

    ``user_ranks[i, k]`` is user i's preference rank of KB k (1 = favorite),
    ``user_probs`` the matching Zipf probabilities and ``user_weights`` the
    un-normalized Zipf weights ``rank**-skew`` (the per-KB semantic value
    weight).  ``interp_rates[j, k]`` is receiver j's interpretation rate for
    KB-k packets in packets/second.
    """

    sizes: np.ndarray
    user_ranks: np.ndarray
    eaves_ranks: np.ndarray
    interp_rates: np.ndarray
    user_probs: np.ndarray
    eaves_probs: np.ndarray
    user_weights: np.ndarray

    @classmethod
    def build(
        cls,
        sizes: np.ndarray,
        user_ranks: np.ndarray,
        eaves_ranks: np.ndarray,
        interp_rates: np.ndarray,
        user_skew: float,
        eaves_skew: float,
    ) -> "KbCatalog":
        """Derive probabilities and weights from rankings and skews."""
        sizes = np.asarray(sizes, dtype=int)
        user_ranks = np.asarray(user_ranks, dtype=int)
        eaves_ranks = np.asarray(eaves_ranks, dtype=int)
        interp_rates = np.asarray(interp_rates, dtype=float)
        user_probs = np.vstack([zipf_probabilities(row, user_skew) for row in user_ranks])
        eaves_probs = zipf_probabilities(eaves_ranks, eaves_skew)
        user_weights = zipf_weights(user_ranks, user_skew)
        return cls(sizes, user_ranks, eaves_ranks, interp_rates,
                   user_probs, eaves_probs, user_weights)

    def __post_init__(self) -> None:
        k = self.sizes.shape[0]
        if np.any(self.sizes < 1):
            raise ValueError("KB sizes must be positive integers")
        for row in self.user_ranks:
            if sorted(row.tolist()) != list(range(1, k + 1)):
                raise ValueError("each user ranking must be a permutation of 1..K")
        if sorted(self.eaves_ranks.tolist()) != list(range(1, k + 1)):
            raise ValueError("eavesdropper ranking must be a permutation of 1..K")
        if self.interp_rates.shape != self.user_ranks.shape:
            raise ValueError("interp_rates must be per user per KB")
        if np.any(self.interp_rates <= 0.0):
            raise ValueError("interpretation rates must be positive")


@dataclass(frozen=True)
class Scenario:
    """A fully realized network instance.

    ``positions`` holds user coordinates in rows 0..M-1 and the eavesdropping
    receiver in the final row.  ``gain_d[i, j]`` is the symmetric user-to-user
    channel gain (zero on the diagonal), ``gain_e[i]`` the gain from user i to
    the eavesdropper.  ``neighbors[i]`` lists the users whose SNR from user i
    at full power clears ``snr_threshold``; the relation is symmetric.
    """

    config: ScenarioConfig
    positions: np.ndarray
    gain_d: np.ndarray
    gain_e: np.ndarray
    catalog: KbCatalog
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = self.config.num_users
        if self.positions.shape != (m + 1, 2):
            raise ValueError("positions must be (num_users + 1, 2)")
        if not (np.isfinite(self.gain_d).all() and np.isfinite(self.gain_e).all()):
            raise ValueError("channel gains must be finite")
        if self.gain_d.shape != (m, m) or not np.allclose(self.gain_d, self.gain_d.T):
            raise ValueError("gain_d must be a symmetric (M, M) matrix")
        if np.any(np.diag(self.gain_d) != 0.0):
            raise ValueError("gain_d diagonal must be zero")
        if np.any(self.gain_e <= 0.0):
            raise ValueError("eavesdropper gains must be positive")

    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_kbs(self) -> int:
        return self.config.num_kbs

    def distance(self, i: int, j: int) -> float:
        return float(np.hypot(*(self.positions[i] - self.positions[j])))

    def eligible_pairs(self) -> list[tuple[int, int]]:
        """All unordered eligible pairs (i, j) with i < j."""
        return [(i, j) for i in range(self.num_users)
                for j in self.neighbors[i] if j > i]


def _draw_disk_points(rng: np.random.Generator, count: int, radius: float) -> np.ndarray:
    # sqrt(u) makes the density uniform over the disk area
    r = radius * np.sqrt(rng.random(count))
    theta = 2.0 * math.pi * rng.random(count)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def _gains_and_neighbors(
    config: ScenarioConfig, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    # the path-loss law needs finite points and gives no finite gain at
    # (or very near) distance 0, so such inputs are rejected here; so are
    # links close enough for the full-power SNR to overflow, which every rate
    # log2(1 + p * gain / noise), p <= p_max, would then do too
    m = config.num_users
    bad = np.flatnonzero(~np.isfinite(positions).all(axis=1))
    if bad.size:
        name = "eaves" if bad[0] == m else f"user_{bad[0]}"
        raise ValueError(f"{name} position is not finite: {positions[bad[0]].tolist()}")
    users = positions[:m]
    deltas = users[:, None, :] - users[None, :, :]
    dist = np.hypot(deltas[..., 0], deltas[..., 1])
    dist_e = np.hypot(*(users - positions[m]).T)
    gain_d = np.zeros((m, m))
    off = ~np.eye(m, dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        gain_d[off] = 10.0 ** (-(34.0 + 40.0 * np.log10(dist[off])) / 10.0)
        gain_e = 10.0 ** (-(34.0 + 40.0 * np.log10(dist_e)) / 10.0)
        snr_full = config.p_max_w * gain_d / config.noise_w
        snr_eaves = config.p_max_w * gain_e / config.noise_w
    clash = np.argwhere(~np.isfinite(snr_full))
    if clash.size:
        i, j = clash[0]
        raise ValueError(f"user_{i} and user_{j} are too close for the path-loss law "
                         f"(distance {float(dist[i, j])!r} m)")
    at_eaves = np.flatnonzero(~np.isfinite(snr_eaves))
    if at_eaves.size:
        raise ValueError(f"user_{at_eaves[0]} is too close to the eavesdropper for the "
                         f"path-loss law (distance {float(dist_e[at_eaves[0]])!r} m)")
    eligible = (snr_full >= config.snr_threshold) & off
    neighbors = tuple(tuple(np.flatnonzero(eligible[i]).tolist()) for i in range(m))
    return gain_d, gain_e, neighbors


def _build_scenario(
    config: ScenarioConfig,
    positions: np.ndarray,
    sizes: np.ndarray,
    user_ranks: np.ndarray,
    eaves_ranks: np.ndarray,
    interp_rates: np.ndarray,
) -> Scenario:
    gain_d, gain_e, neighbors = _gains_and_neighbors(config, positions)
    catalog = KbCatalog.build(sizes, user_ranks, eaves_ranks, interp_rates,
                              config.user_skew, config.eaves_skew)
    return Scenario(config, positions, gain_d, gain_e, catalog, neighbors)


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw a random scenario from ``config`` (deterministic in rng_seed).

    Topologies that leave any user without an eligible neighbor are redrawn,
    up to MAX_TOPOLOGY_DRAWS attempts; each attempt consumes a fresh slice of
    the seeded RNG stream so identical (config, seed) always yield identical
    scenarios.
    """
    rng = np.random.default_rng(config.rng_seed)
    m, k = config.num_users, config.num_kbs
    for _ in range(MAX_TOPOLOGY_DRAWS):
        positions = _draw_disk_points(rng, m + 1, config.cell_radius_m)
        sizes = rng.integers(config.kb_size_min, config.kb_size_max + 1, size=k)
        user_ranks = np.vstack([rng.permutation(k) + 1 for _ in range(m)])
        eaves_ranks = rng.permutation(k) + 1
        tlo, thi = config.interp_time_min, config.interp_time_max
        if config.per_user_interp:
            times = rng.uniform(tlo, thi, size=(m, k))
        else:
            times = np.tile(rng.uniform(tlo, thi, size=k), (m, 1))
        scn = _build_scenario(config, positions, sizes, user_ranks, eaves_ranks, 1.0 / times)
        if all(len(n) > 0 for n in scn.neighbors):
            return scn
    raise ScenarioGenerationError(
        f"no topology with fully connected users after {MAX_TOPOLOGY_DRAWS} draws; "
        "the cell is too sparse for the SNR threshold")


def with_p_max(scn: Scenario, p_max_dbm: float) -> Scenario:
    """The same realized network under a different power budget.

    Positions, channel gains and the KB catalog are kept; only the power cap
    and the eligibility relation (which depends on full-power SNR) are
    re-derived.  This pins the random environment when sweeping the power
    budget, so paired comparisons across budgets see identical topologies.
    Raising the budget can only widen eligibility; lowering it may leave
    users without neighbors, which is allowed here (unlike in generation).
    """
    config = replace(scn.config, p_max_dbm=p_max_dbm)
    return _build_scenario(config, scn.positions, scn.catalog.sizes,
                           scn.catalog.user_ranks, scn.catalog.eaves_ranks,
                           scn.catalog.interp_rates)


# --------------------------------------------------------------------------
# text serialization
#
# Sectioned key = value format; floats are written with repr() so round trips
# are bit exact.  Gains, probabilities and neighbor sets are derived data and
# are recomputed on load.
# --------------------------------------------------------------------------

def fields_from_strings(cls, mapping: dict[str, str], what: str = "config",
                        names: dict[str, str] | None = None) -> dict[str, object]:
    """Keyword arguments for dataclass ``cls`` from string key/value pairs,
    each typed like its field's default: bool (``true``/``false``), int, float
    or str.  ``names`` maps a key to the field it sets when the two differ (the
    field's own name is then no key).  Unknown keys, fields without a scalar
    default (tuples, nested parameters) and bad values raise
    ScenarioFormatError."""
    names = names or {}
    kinds = {f.name: type(f.default) for f in fields(cls)
             if f.init and type(f.default) in (bool, int, float, str)}
    kwargs: dict[str, object] = {}
    for key, raw in mapping.items():
        name = names.get(key, key)
        if name not in kinds or (name == key and key in names.values()):
            raise ScenarioFormatError(f"unknown {what} key {key!r}")
        kind = kinds[name]
        if kind is bool and raw.lower() not in ("true", "false"):
            raise ScenarioFormatError(f"{key} must be true or false, got {raw!r}")
        try:
            kwargs[name] = raw.lower() == "true" if kind is bool else kind(raw)
        except ValueError:
            raise ScenarioFormatError(f"{key} must be {kind.__name__}, got {raw!r}") from None
    return kwargs


def _config_items(config: ScenarioConfig) -> list[tuple[str, str]]:
    values = [(f.name, getattr(config, f.name)) for f in fields(config) if f.init]
    return [(name, ("true" if value else "false") if isinstance(value, bool) else repr(value))
            for name, value in values]


def config_from_mapping(mapping: dict[str, str]) -> ScenarioConfig:
    """Build a ScenarioConfig from string key/value pairs (file contents)."""
    try:
        kwargs = fields_from_strings(ScenarioConfig, mapping)
        return ScenarioConfig(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        if isinstance(exc, ScenarioFormatError):
            raise
        raise ScenarioFormatError(f"bad scenario config: {exc}") from exc


def scenario_to_text(scn: Scenario) -> str:
    out = io.StringIO()
    out.write("# sscn scenario v1\n[config]\n")
    for key, value in _config_items(scn.config):
        out.write(f"{key} = {value}\n")
    out.write("\n[positions]\n")
    for i in range(scn.num_users):
        x, y = scn.positions[i]
        out.write(f"user_{i} = {float(x)!r} {float(y)!r}\n")
    ex, ey = scn.positions[scn.num_users]
    out.write(f"eaves = {float(ex)!r} {float(ey)!r}\n")
    out.write("\n[kb_sizes]\nsizes = ")
    out.write(" ".join(str(int(s)) for s in scn.catalog.sizes))
    out.write("\n\n[user_ranks]\n")
    for i in range(scn.num_users):
        out.write(f"user_{i} = " + " ".join(str(int(r)) for r in scn.catalog.user_ranks[i]) + "\n")
    out.write("\n[eaves_ranks]\nranks = ")
    out.write(" ".join(str(int(r)) for r in scn.catalog.eaves_ranks))
    out.write("\n\n[interp_rates]\n")
    for i in range(scn.num_users):
        row = " ".join(repr(float(v)) for v in scn.catalog.interp_rates[i])
        out.write(f"user_{i} = {row}\n")
    return out.getvalue()


def scenario_from_text(text: str) -> Scenario:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # type: ignore[method-assign]
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioFormatError(f"unparseable scenario file: {exc}") from exc
    required = ["config", "positions", "kb_sizes", "user_ranks", "eaves_ranks", "interp_rates"]
    for section in required:
        if not parser.has_section(section):
            raise ScenarioFormatError(f"missing [{section}] section")
    config = config_from_mapping(dict(parser.items("config")))
    m, k = config.num_users, config.num_kbs
    try:
        positions = np.zeros((m + 1, 2))
        for i in range(m):
            positions[i] = [float(v) for v in parser.get("positions", f"user_{i}").split()]
        positions[m] = [float(v) for v in parser.get("positions", "eaves").split()]
        sizes = np.array([int(v) for v in parser.get("kb_sizes", "sizes").split()])
        user_ranks = np.vstack(
            [[int(v) for v in parser.get("user_ranks", f"user_{i}").split()] for i in range(m)])
        eaves_ranks = np.array([int(v) for v in parser.get("eaves_ranks", "ranks").split()])
        rates = np.vstack(
            [[float(v) for v in parser.get("interp_rates", f"user_{i}").split()]
             for i in range(m)])
    except (configparser.Error, ValueError) as exc:
        raise ScenarioFormatError(f"bad scenario data: {exc}") from exc
    if sizes.shape != (k,) or user_ranks.shape != (m, k) or rates.shape != (m, k):
        raise ScenarioFormatError("scenario arrays disagree with config dimensions")
    try:
        return _build_scenario(config, positions, sizes, user_ranks, eaves_ranks, rates)
    except ValueError as exc:
        raise ScenarioFormatError(f"inconsistent scenario: {exc}") from exc


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_text(scn))


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_text(fh.read())
