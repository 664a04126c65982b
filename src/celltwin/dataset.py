"""Training-sample construction: oracle rollouts -> normalized series + conditions.

Every sample pairs one series window with a fixed-layout condition vector
covering three families: spatio-temporal context (POI class, clock features,
grid density), a behavioral demand scalar, and network configuration
(tx power, carrier frequency, user-to-cell distance, sleep context). The
layout is positionally frozen; models and datasets carry a fingerprint of it
and refuse to mix when the fingerprints differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DomainError, FormatError, read_json
from .nn import load_npz, save_npz
from .scenario import POI_PROFILES, Oracle, associate_users

DATASET_VERSION = 1
KINDS = ("traffic", "users", "rsrp")

CONDITION_FIELDS = (
    ("poi", 4),
    ("hour_sin", 1),
    ("hour_cos", 1),
    ("day_phase", 1),
    ("grid_density", 1),
    ("demand", 1),
    ("tx_power_dbm", 1),
    ("carrier_freq_mhz", 1),
    ("distance_km", 1),
    ("sleep_frac", 1),
)
COND_DIM = sum(size for _, size in CONDITION_FIELDS)

_OFFSETS = {}
_pos = 0
for _name, _size in CONDITION_FIELDS:
    _OFFSETS[_name] = (_pos, _pos + _size)
    _pos += _size

STD_FLOOR = 1e-6
COND_CLIP = 5.0

# Collection policy for RSRP measurements: randomized sleep/offload exploration
# so the (tx, freq, distance) conditions cover re-attachment, not just the
# nearest cell.
_RSRP_SLEEP_PROB = 0.35
_RSRP_USERS_PER_STEP = 24
_BIAS_CHOICES = (0.0, 3.0, 6.0)


@dataclass(frozen=True)
class NormalizationStats:
    mean: float
    std: float

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.std + self.mean


def fit_stats(values: np.ndarray) -> NormalizationStats:
    v = np.asarray(values, dtype=float).ravel()
    return NormalizationStats(mean=float(v.mean()), std=float(max(v.std(), STD_FLOOR)))


class ConditionLayout:
    """Frozen field order plus per-dimension train-split statistics."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        mean = np.asarray(mean, dtype=float)
        std = np.maximum(np.asarray(std, dtype=float), STD_FLOOR)
        if mean.shape != (COND_DIM,) or std.shape != (COND_DIM,):
            raise ConfigError(f"condition stats must have dimension {COND_DIM}")
        self.mean = mean
        self.std = std

    @staticmethod
    def fingerprint() -> str:
        blob = json.dumps([[n, s] for n, s in CONDITION_FIELDS]).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def fit(cls, raw_conditions: np.ndarray) -> "ConditionLayout":
        raw = np.asarray(raw_conditions, dtype=float)
        return cls(mean=raw.mean(axis=0), std=raw.std(axis=0))

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        z = (np.asarray(raw, dtype=float) - self.mean) / self.std
        return np.clip(z, -COND_CLIP, COND_CLIP)

    def normalize_partial(self, fields: dict[str, float | np.ndarray]) -> np.ndarray:
        """Normalized condition with unspecified fields held at the train mean."""
        raw = self.mean.copy()
        for name, value in fields.items():
            if name not in _OFFSETS:
                raise ConfigError(f"unknown condition field {name!r}")
            lo, hi = _OFFSETS[name]
            raw[lo:hi] = value
        return self.normalize(raw)

    @staticmethod
    def field_slice(name: str) -> slice:
        lo, hi = _OFFSETS[name]
        return slice(lo, hi)


@dataclass
class SampleSet:
    """All samples of one kind plus split indices and train-split statistics."""

    kind: str
    series: np.ndarray       # (N, L) raw units
    conditions: np.ndarray   # (N, COND_DIM) raw units
    masks: np.ndarray        # (N, L) bool, True = generate
    stats: NormalizationStats
    layout: ConditionLayout
    split: dict[str, np.ndarray]

    def __len__(self) -> int:
        return self.series.shape[0]

    @property
    def series_len(self) -> int:
        return self.series.shape[1]

    def normalized_series(self, idx: np.ndarray | None = None) -> np.ndarray:
        sel = self.series if idx is None else self.series[idx]
        return self.stats.normalize(sel)

    def normalized_conditions(self, idx: np.ndarray | None = None) -> np.ndarray:
        sel = self.conditions if idx is None else self.conditions[idx]
        return self.layout.normalize(sel)


def make_mask(task: str, length: int, horizon_h: int = 0) -> np.ndarray:
    """Generation mask: full for long_term_generation, suffix for short_term_prediction."""
    if task == "long_term_generation":
        return np.ones(length, dtype=bool)
    if task == "short_term_prediction":
        if not 0 < horizon_h <= length:
            raise DomainError(f"horizon_h must be in (0, {length}], got {horizon_h}")
        mask = np.zeros(length, dtype=bool)
        mask[length - horizon_h:] = True
        return mask
    raise ConfigError(f"unknown task {task!r}")


def split_dataset(
    n: int, fractions: tuple[float, float, float], seed: int
) -> dict[str, np.ndarray]:
    """Seed-deterministic disjoint covering split by largest-remainder rounding."""
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ConfigError(f"split fractions must be nonnegative and sum to 1, got {fractions}")
    perm = np.random.default_rng(np.random.SeedSequence((seed, 815))).permutation(n)
    exact = [f * n for f in fractions]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = np.argsort([-(e - s) for e, s in zip(exact, sizes)], kind="stable")
    for i in range(n - sum(sizes)):
        sizes[remainders[i % 3]] += 1
    a, b = sizes[0], sizes[0] + sizes[1]
    return {
        "train": np.sort(perm[:a]),
        "val": np.sort(perm[a:b]),
        "test": np.sort(perm[b:]),
    }


# -- raw condition tables ------------------------------------------------------


def condition_rows(n: int, **fields) -> np.ndarray:
    """(n, COND_DIM) raw condition rows: each named field in its slice, every other field 0.

    A value broadcasts over the rows: a scalar, one value per row, or for the
    multi-wide `poi` a (width,) or (n, width) block.
    """
    rows = np.zeros((n, COND_DIM))
    for name, value in fields.items():
        lo, hi = _OFFSETS[name]
        value = np.asarray(value, dtype=float)
        rows[:, lo:hi] = value[:, None] if hi - lo == 1 and value.ndim else value
    return rows


def _poi_onehot(cells) -> np.ndarray:
    return np.eye(len(POI_PROFILES))[[POI_PROFILES.index(c.poi_profile) for c in cells]]


def hour_features(hour: float) -> dict[str, float]:
    """Clock condition fields at an hour: its angle on the day as sine and cosine, and the day phase."""
    h = hour % 24.0
    angle = 2.0 * np.pi * h / 24.0
    return {"hour_sin": float(np.sin(angle)), "hour_cos": float(np.cos(angle)), "day_phase": h / 24.0}


def traffic_conditions(oracle: Oracle) -> np.ndarray:
    """One row per cell, in cell order, for a day starting at hour 0.

    `grid_density` is the mean grid weight over the grids the cell is nearest
    to (0 for a cell nearest to none); `demand` is the cell's capacity.
    """
    mine = [oracle.grid_weight[oracle.nearest_cell == c] for c in range(oracle.n_cells)]
    density = [float(np.mean(w)) if w.size else 0.0 for w in mine]
    a = oracle.arrays
    return condition_rows(
        oracle.n_cells, poi=_poi_onehot(oracle.cells), **hour_features(0), grid_density=density,
        demand=a.capacity_mbps, tx_power_dbm=a.tx_power_dbm, carrier_freq_mhz=a.carrier_freq_mhz,
    )


def users_conditions(oracle: Oracle) -> np.ndarray:
    """One row per grid, in grid order, for a day starting at hour 0.

    The cell fields describe the grid's nearest cell, and `distance_km` is the
    grid centre's distance to it.
    """
    near = oracle.nearest_cell
    a = oracle.arrays
    return condition_rows(
        oracle.n_grids, poi=_poi_onehot(oracle.cells)[near], **hour_features(0),
        grid_density=oracle.grid_weight, demand=a.capacity_mbps[near], tx_power_dbm=a.tx_power_dbm[near],
        carrier_freq_mhz=a.carrier_freq_mhz[near],
        distance_km=oracle.grid_cell_km[np.arange(oracle.n_grids), near],
    )


def rsrp_conditions(oracle: Oracle, cells, distance_km, hour: int, sleep_frac: float) -> np.ndarray:
    """One link row per entry of `cells` (cell indices) at `distance_km` from it.

    The (tx power, frequency, distance) triple drives the link. Fields tied to
    cell identity (POI class, density, demand) stay 0, so the head cannot
    shortcut around the link parameters and stays queryable on arbitrary
    off-topology triples.
    """
    a = oracle.arrays
    return condition_rows(
        len(cells), **hour_features(hour), tx_power_dbm=a.tx_power_dbm[cells],
        carrier_freq_mhz=a.carrier_freq_mhz[cells], distance_km=distance_km, sleep_frac=sleep_frac,
    )


# -- collection -----------------------------------------------------------------


def _window_mask(rng: np.random.Generator, length: int) -> np.ndarray:
    """Task mix for one window: half long-term, half short-term with random horizon."""
    if rng.random() < 0.5:
        return make_mask("long_term_generation", length)
    horizon = int(rng.integers(1, length))
    return make_mask("short_term_prediction", length, horizon)


def _day_windows(read_day, conds: np.ndarray, n_days: int, rng: np.random.Generator):
    """One window per (day, row) of the daily series, each with its task mask drawn in that order."""
    series = np.concatenate([read_day(day) for day in range(n_days)])
    masks = np.array([_window_mask(rng, series.shape[1]) for _ in series])
    return series, np.tile(conds, (n_days, 1)), masks


def _collect_rsrp(oracle: Oracle, n_days: int, rng: np.random.Generator):
    series, conds = [], []
    n_cells = oracle.n_cells
    for t in range(0, oracle.config.hour(n_days), oracle.config.user_step_hours):
        sleep = rng.random(n_cells) < _RSRP_SLEEP_PROB
        if sleep.sum() > n_cells - 2:
            sleep[:] = False
        bias = rng.choice(_BIAS_CHOICES, size=n_cells)
        _, positions, shadowing = oracle.users_and_shadowing(t)
        if positions.shape[0] == 0:
            continue
        rsrp = oracle.rsrp_matrix(positions, shadowing)
        # Measure the cell each user targets regardless of the drop floor, so
        # the learned conditional keeps its below-floor tail (no survivor bias).
        serving = associate_users(rsrp, sleep, bias, -np.inf)
        pick = rng.permutation(positions.shape[0])[:_RSRP_USERS_PER_STEP]
        series.append(rsrp[pick, serving[pick], None])
        # A dot per row: bit-equal to np.linalg.norm of each row, unlike its axis=1 form.
        d = positions[pick] - oracle.cell_positions[serving[pick]]
        dist = np.sqrt(np.vecdot(d, d))
        conds.append(rsrp_conditions(oracle, serving[pick], dist, t % 24, float(sleep.mean())))
    if not series:
        raise DomainError(f"rsrp collection found no users in {n_days} days; the scenario needs a grid "
                          "with base_users > 0 and poi_weight > 0")
    series = np.concatenate(series)
    return series, np.concatenate(conds), np.ones(series.shape, dtype=bool)


def collect_dataset(
    oracle: Oracle,
    n_days: int,
    kinds: tuple[str, ...] = KINDS,
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> dict[str, SampleSet]:
    """Roll the oracle forward and package one SampleSet per requested kind.

    Normalization statistics (series channel and every condition dimension)
    come from the training split only; an empty one, or one whose statistics
    are not finite, is a ConfigError.
    """
    if n_days < 1:
        raise ConfigError(f"n_days must be >= 1, got {n_days}")
    if n_days > oracle.config.n_days:
        raise ConfigError(
            f"n_days {n_days} exceeds scenario horizon {oracle.config.horizon_hours} hours"
        )
    if not kinds:
        raise ConfigError("kinds must be nonempty")
    for kind in kinds:
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}")
    out: dict[str, SampleSet] = {}
    for kind in kinds:
        rng = np.random.default_rng(np.random.SeedSequence((oracle.config.seed, 90, KINDS.index(kind))))
        if kind == "traffic":
            series, conds, masks = _day_windows(oracle.traffic_day, traffic_conditions(oracle), n_days, rng)
        elif kind == "users":
            series, conds, masks = _day_windows(oracle.users_day, users_conditions(oracle), n_days, rng)
        else:
            series, conds, masks = _collect_rsrp(oracle, n_days, rng)
        split = split_dataset(len(series), split_fractions, seed=oracle.config.seed)
        train = split["train"]
        if not len(train):
            raise ConfigError(f"config key dataset.split gives the {kind} training split none of its "
                              f"{len(series)} samples")
        stats, layout = fit_stats(series[train]), ConditionLayout.fit(conds[train])
        if not np.isfinite([stats.mean, stats.std, *layout.mean, *layout.std]).all():
            raise ConfigError(f"the scenario gives the {kind} training split a non-finite mean or spread")
        out[kind] = SampleSet(
            kind=kind,
            series=series,
            conditions=conds,
            masks=masks,
            stats=stats,
            layout=layout,
            split=split,
        )
    return out


# -- persistence ------------------------------------------------------------------

_SPLITS = ("train", "val", "test")
_ARRAYS = ("series", "conditions", "masks", "cond_mean", "cond_std", *(f"split_{p}" for p in _SPLITS))


@dataclass(frozen=True)
class _DatasetHeader:
    version: int
    kind: str
    series_len: int
    cond_dim: int
    layout_fingerprint: str
    series_mean: float
    series_std: float


def write_dataset(sample_set: SampleSet, path: str) -> None:
    header = asdict(_DatasetHeader(DATASET_VERSION, sample_set.kind, sample_set.series_len, COND_DIM,
                                   ConditionLayout.fingerprint(), sample_set.stats.mean, sample_set.stats.std))
    arrays = {
        "series": sample_set.series,
        "conditions": sample_set.conditions,
        "masks": sample_set.masks,
        "cond_mean": sample_set.layout.mean,
        "cond_std": sample_set.layout.std,
        **{f"split_{part}": sample_set.split[part] for part in _SPLITS},
    }
    save_npz(path, header, arrays, DATASET_VERSION)


def read_dataset(path: str) -> SampleSet:
    raw, arrays = load_npz(path, DATASET_VERSION, "dataset file", required=_ARRAYS)
    header = read_json(_DatasetHeader, raw, FormatError, lambda key: f"dataset file {path} field {key!r}")
    if header.cond_dim != COND_DIM or header.layout_fingerprint != ConditionLayout.fingerprint():
        raise FormatError(
            f"condition layout mismatch in {path}: expected {ConditionLayout.fingerprint()} "
            f"(D_c={COND_DIM}), found {header.layout_fingerprint} (D_c={header.cond_dim})"
        )
    return SampleSet(
        kind=header.kind,
        series=arrays["series"],
        conditions=arrays["conditions"],
        masks=arrays["masks"].astype(bool),
        stats=NormalizationStats(mean=header.series_mean, std=header.series_std),
        layout=ConditionLayout(mean=arrays["cond_mean"], std=arrays["cond_std"]),
        split={part: arrays[f"split_{part}"] for part in _SPLITS},
    )
