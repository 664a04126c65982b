"""Deterministic synthetic multi-cell radio network.

The oracle is the ground-truth "physical world" of the pipeline: it produces
per-cell traffic, per-grid user counts, per-user RSRP, user association and
energy consumption, all as pure functions of (config, seed, query). It is the
source of training data for the generative model and the final judge of any
optimization policy.

Modelling choices (stand-ins; the real quantities these mimic are unspecified):
  * propagation: free-space path loss + log-normal shadowing,
  * energy: linear load-dependent model (EARTH-style macro figures),
  * demand: per-profile diurnal template = sum of two circular Gaussian bumps.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, make_dataclass
from typing import Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, DomainError, UnknownIdError, read_json

POI_PROFILES = ("residential", "office", "mixed", "event")

# Diurnal bump parameters per profile: (peak_hour, width_h, weight).
_BUMPS = {
    "residential": ((8.0, 3.0, 0.35), (20.0, 2.5, 1.0)),
    "office": ((11.0, 2.0, 1.0), (15.0, 2.5, 0.85)),
    "mixed": ((10.0, 2.5, 0.7), (19.0, 3.0, 0.9)),
    "event": ((19.0, 1.2, 1.0), (22.0, 1.5, 0.6)),
}

# RNG stream tags; every random draw is keyed by (seed, tag, *query) so any
# query is reproducible in isolation and evaluation order cannot matter.
_S_TRAFFIC = 1
_S_USERS = 2
_S_POS = 3
_S_SHADOW = 4

# np.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx), for `key_states`.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

MIN_DISTANCE_KM = 0.01  # 10 m clamp keeps the path-loss log finite
# Bound on the expected users per step, sum(poi_weight * base_users), each with its own rows in a step.
MAX_USERS_PER_STEP = 10**6


def _circular_hour_distance(hour: float, peak: float) -> float:
    d = abs(hour - peak) % 24.0
    return min(d, 24.0 - d)


def _raw_diurnal(profile: str, hour: float) -> float:
    total = 0.0
    for peak, width, weight in _BUMPS[profile]:
        d = _circular_hour_distance(hour, peak)
        total += weight * math.exp(-0.5 * (d / width) ** 2)
    return total


# -- keyed seeding in bulk ---------------------------------------------------------


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for many keys of one width at once.

    Row k of ``entropy`` (keys, words), uint32 with words >= 4, is key k's
    entropy words. The result is (keys, 4) uint64. This is numpy's hash step
    for step, vectorised over the keys: the first four words fill the pool,
    every pool word is mixed into every other, and each word past the pool
    is mixed into all four. The hash constants depend only on the call
    count, so every key uses the same ones.
    """
    def constants(init, mult):
        while True:
            after = init * mult & _MASK32
            yield init, after
            init = after

    hash_a = constants(_INIT_A, _MULT_A)

    def hashmix(value):
        before, after = next(hash_a)
        value = (value ^ before) * after
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ (result >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy.T[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((len(entropy), 8), np.uint32)
    for i, (before, after) in zip(range(8), constants(_INIT_B, _MULT_B)):
        value = (pool[i % 4] ^ before) * after
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)  # word pairs read little-endian, as numpy does


def key_states(prefix: Sequence[int], ids: Sequence[int], hours: Sequence[int]) -> np.ndarray:
    """(ids, hours, 4): ``np.random.SeedSequence((seed, tag, id, hour)).generate_state(4, np.uint64)``
    of every key of ``prefix = (seed, tag)``.

    With a non-negative prefix and every id and hour in [0, 2**32), each key is
    the prefix's 32-bit words plus one word each for id and hour, so all have
    one width and `_seed_states` hashes them at once, a wide seed included.
    Otherwise numpy hashes each key: a wider id or hour keeps its bits, and a
    negative integer raises numpy's ValueError.
    """
    if min(prefix) < 0 or not all(0 <= v <= _MASK32 for v in (*ids, *hours)):
        return np.array([[np.random.SeedSequence((*prefix, i, h)).generate_state(4, np.uint64) for h in hours]
                         for i in ids]).reshape(len(ids), len(hours), 4)
    head = [v >> shift & _MASK32 for v in map(int, prefix) for shift in range(0, max(v.bit_length(), 1), 32)]
    entropy = np.empty((len(ids), len(hours), len(head) + 2), np.uint32)
    entropy[..., :-2] = head
    entropy[..., -2] = np.array(ids)[:, None]
    entropy[..., -1] = hours
    return _seed_states(entropy.reshape(-1, len(head) + 2)).reshape(len(ids), len(hours), 4)


@functools.cache
def _key_state_type() -> type:
    """The class that gives PCG64 one key's precomputed state through numpy's seeding
    interface. It is made on first use: importing numpy.random costs about 10 ms, which a
    process that draws nothing need not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class KeyState(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("a key state holds the four uint64 words PCG64 asks for")
            return self.state

    return KeyState


# Normalize each template to peak 1.0 on a fine grid, so `amp` is the peak
# demand fraction added on top of `base`.
_TEMPLATE_PEAK = {
    p: max(_raw_diurnal(p, h) for h in np.arange(0.0, 24.0, 0.05)) for p in POI_PROFILES
}

# Daily demand shape in [0, 1], (profile in POI_PROFILES order, hour of day).
DIURNAL = np.array([[_raw_diurnal(p, h) / _TEMPLATE_PEAK[p] for h in range(24)] for p in POI_PROFILES])


@dataclass(frozen=True)
class CellConfig:
    id: int
    position: tuple[float, float]
    tx_power_dbm: float
    carrier_freq_mhz: float
    capacity_mbps: float
    poi_profile: str
    neighbors: tuple[int, ...]
    p0_watts: float = 130.0
    delta_p: float = 4.7
    p_max_out_watts: float = 20.0
    p_sleep_watts: float = 75.0


@dataclass(frozen=True)
class GridCell:
    position: tuple[float, float]
    poi_weight: float
    base_users: int


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    cell_configs: tuple[CellConfig, ...]
    grids: tuple[GridCell, ...]
    horizon_hours: int
    traffic_step_hours: int = 2
    user_step_hours: int = 1
    counterfactual_peak_fraction: float | None = None
    rsrp_floor_dbm: float = -110.0
    shadowing_sigma_db: float = 4.0
    traffic_base: float = 0.15
    traffic_amp: float = 0.55
    traffic_noise_sigma: float = 0.05

    # -- the day clock; validate_scenario makes each step split 24 hours into 2+ windows --

    @property
    def steps_per_day(self) -> int:
        return 24 // self.traffic_step_hours

    @property
    def user_steps_per_day(self) -> int:
        return 24 // self.user_step_hours

    @property
    def n_days(self) -> int:
        """Whole days in the horizon."""
        return self.horizon_hours // 24

    def hour(self, day: int, step: int = 0) -> int:
        """Hour at which traffic step `step` of day `day` starts."""
        return day * 24 + step * self.traffic_step_hours

    def user_column(self, step: int) -> int:
        """Column of a users day holding the hour traffic step `step` starts at; equally,
        the number of user windows that the first `step` traffic windows cover."""
        return step * self.traffic_step_hours // self.user_step_hours


@dataclass
class NetworkState:
    """Outcome of one decision step over units: users in the oracle, grids in the twin.

    `serving_cell[u]` is -1 where nothing of unit u is served, and
    `per_user_rsrp_dbm[u]`, the mean RSRP over its served draws, is NaN there.
    `served_users[u]` is the unit's weight times its served share; the
    dropped users are the weight not served, and `rsrp_avg_dbm` weighs each
    unit's RSRP by its served users. A state `serve` returns for a batch has
    a leading episode axis on every field. The properties reduce along the
    last (unit or cell) axis, so they give one value per episode, and a
    scalar for a state of one episode.
    """

    per_cell_load_mbps: np.ndarray
    per_cell_overload_mbps: np.ndarray
    per_cell_power_watts: np.ndarray
    reference_power_watts: np.ndarray | float
    serving_cell: np.ndarray
    per_user_rsrp_dbm: np.ndarray
    served_users: np.ndarray
    total_users: np.ndarray | int

    @property
    def dropped_users(self):
        return self.total_users - self.served_users.sum(axis=-1)

    @property
    def rsrp_avg_dbm(self):
        """Served-weighted mean RSRP; NaN where nobody is served.

        Each episode's weighted sum is a 1-D sum over its served units alone,
        hence the loop over episodes: a masked, zero-padded or `np.add.reduceat`
        sum over the batch groups the additions differently and changes bits.
        """
        served = self.served_users.sum(axis=-1)
        mean = np.full(np.shape(served), np.nan)
        for i in np.ndindex(mean.shape):
            if served[i] > 0:
                weight, rsrp = self.served_users[i], self.per_user_rsrp_dbm[i]
                mean[i] = (weight[weight > 0] * rsrp[weight > 0]).sum() / served[i]
        return mean[()]

    def energy_wh(self, step_hours: float):
        return self.per_cell_power_watts.sum(axis=-1) * step_hours


@dataclass(frozen=True)
class CellArrays:
    """Per-cell numeric parameters as arrays in cell order, named as in CellConfig."""

    tx_power_dbm: np.ndarray
    carrier_freq_mhz: np.ndarray
    capacity_mbps: np.ndarray
    p0_watts: np.ndarray
    delta_p: np.ndarray
    p_max_out_watts: np.ndarray
    p_sleep_watts: np.ndarray

    @classmethod
    def of(cls, cells: Sequence[CellConfig]) -> "CellArrays":
        return cls(**{
            f.name: np.array([getattr(c, f.name) for c in cells], dtype=float) for f in fields(cls)
        })


def path_loss_db(distance_km, freq_mhz):
    """Free-space path loss, elementwise; distance clamped at 10 m to avoid the d→0 pole."""
    freq = np.asarray(freq_mhz, dtype=float)
    if (freq <= 0).any():
        raise DomainError(f"freq_mhz must be > 0, got {freq_mhz}")
    d = np.maximum(distance_km, MIN_DISTANCE_KM)
    return 32.45 + 20.0 * np.log10(d) + 20.0 * np.log10(freq)


def cell_power_watts(cell: CellConfig | CellArrays, load_fraction, asleep):
    """Linear power model: p0 + delta_p * rho * p_max_out when active, p_sleep otherwise.

    Takes one CellConfig with scalar arguments, or a CellArrays with one
    argument entry per cell.
    """
    rho = np.asarray(load_fraction, dtype=float)
    if not ((0.0 <= rho) & (rho <= 1.0)).all():
        raise DomainError(f"load_fraction must be in [0, 1], got {load_fraction}")
    active = cell.p0_watts + cell.delta_p * rho * cell.p_max_out_watts
    return np.where(asleep, cell.p_sleep_watts, active)


def neighbor_pairs(neighbors: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell neighbour lists of cell indices as (cell, neighbour) index arrays: cell by
    ascending cell, each cell's neighbours in list order."""
    cells = np.repeat(np.arange(len(neighbors)), [len(nbs) for nbs in neighbors])
    return cells, np.array([nb for nbs in neighbors for nb in nbs], dtype=np.intp)


def step_physics(
    cells: CellArrays,
    native_mbps: np.ndarray,
    sleep: np.ndarray,
    natural: np.ndarray,
    serving: np.ndarray,
    weight: np.ndarray,
    served: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Carried load, overload, per-cell power and reference power of one step.

    A unit carries demand: one user in the oracle, one grid in the world-model
    twin. `natural` and `serving` are each unit's cell with everything active
    and under the action (-1 for none), `weight` its size and `served` the
    fraction of it that is attached. Active cells keep their native load. A
    sleeping cell's native load is split over its natural units by weight, and
    each unit's served share moves to its serving cell. Re-routed load is capped
    at capacity and the excess reported as overload. A sleeping cell whose native
    load is below the smallest normal float moves nothing: subnormal shares round
    to whole steps of about 5e-324, and their sum could exceed the load they split.
    Reference power is the all-active draw with every cell carrying its native load.

    Every argument but `cells` may carry one leading episode axis, and each
    episode's row of the results then has the bits of a call on that row alone.
    """
    n = len(cells.capacity_mbps)
    load = np.where(sleep, 0.0, native_mbps)
    # Units index the flattened (..., n) cell arrays by episode * n + cell, so one
    # bincount and one np.add.at serve every episode.
    offset = n * np.arange(load.size // n).reshape(load.shape[:-1] + (1,))
    source, attached = natural + offset, natural >= 0
    total_weight = np.bincount(source[attached], weights=weight[attached], minlength=load.size)
    splits = sleep.reshape(-1) & (total_weight > 0) & (native_mbps.reshape(-1) >= np.finfo(float).tiny)
    moved = attached & (serving >= 0) & splits[source]
    # A stable sort by (episode, natural cell) makes np.add.at add each episode's
    # shares cell by ascending cell and unit by unit within a cell: the order,
    # and so the bits, of a loop over the sleeping cells.
    order = np.argsort(source[moved], kind="stable")
    origin = source[moved][order]
    share = native_mbps.reshape(-1)[origin] * weight[moved][order] * served[moved][order] / total_weight[origin]
    np.add.at(load.reshape(-1), (serving + offset)[moved][order], share)
    load[sleep] = 0.0
    overload = np.maximum(load - cells.capacity_mbps, 0.0)
    load = np.minimum(load, cells.capacity_mbps)
    power = cell_power_watts(cells, load / cells.capacity_mbps, sleep)
    per_cell = cell_power_watts(cells, np.minimum(native_mbps / cells.capacity_mbps, 1.0), False)
    # A running sum adds each episode's cells left to right, as the one-episode
    # code has always added them; np.sum pairs them differently.
    reference = np.cumsum(per_cell, axis=-1)[..., -1]
    return load, overload, power, reference[()]


def associate_users(
    rsrp_matrix: np.ndarray,
    sleep_mask: np.ndarray,
    bias_db: np.ndarray,
    rsrp_floor_dbm: float,
) -> np.ndarray:
    """Each user's serving cell: the active cell maximizing rsrp + bias, -1 when dropped.

    Ties break toward the lowest cell id. A user is dropped when the selected
    cell's unbiased RSRP is below the floor, or when every cell sleeps. The
    (users, cells) RSRP and the (cells,) sleep and bias may share a leading
    episode axis.
    """
    active = ~np.asarray(sleep_mask, dtype=bool)
    biased = rsrp_matrix + np.asarray(bias_db, dtype=float)[..., None, :]
    biased = np.where(active[..., None, :], biased, -np.inf)
    best = np.argmax(biased, axis=-1)  # argmax takes the first (lowest id) on ties
    picked = rsrp_matrix[(*np.indices(best.shape, sparse=True), best)]
    return np.where((picked >= rsrp_floor_dbm) & active.any(axis=-1)[..., None], best, -1)


def serve(
    cells: CellArrays,
    native_mbps: np.ndarray,
    natural: np.ndarray,
    attach: np.ndarray,
    draws: np.ndarray,
    weight: np.ndarray,
    rsrp_floor_dbm: float,
    sleep: np.ndarray,
    bias_db: np.ndarray,
) -> NetworkState:
    """One decision step over units, the rule both the oracle and the twin follow.

    Each unit attaches to the active cell maximizing its `attach` RSRP (units,
    cells) plus bias. The floor then applies per draw of `draws` (units, cells,
    draws) on that cell: a unit's served share is the fraction of its draws at
    or above it, and its RSRP the mean of those draws. `natural` is each unit's
    cell with everything active (-1 for none) and `weight` its size. A unit
    with nothing served reaches step_physics on its attached cell with share 0,
    which moves no load.

    Every argument but `cells` and the floor may carry one leading episode
    axis, as the world-model env's lockstep episodes do. The state then has
    it too, and each episode's row has the bits of a call on that row alone.
    """
    serving = associate_users(attach, sleep, bias_db, -np.inf)
    # (..., units, draws); the rows of -1 units are masked next.
    drawn = draws[(*np.indices(serving.shape, sparse=True), serving)]
    above = (drawn >= rsrp_floor_dbm) & (serving >= 0)[..., None]
    count = above.sum(axis=-1)
    share = count / above.shape[-1]
    load, overload, power, reference = step_physics(cells, native_mbps, sleep, natural, serving, weight, share)
    served = count > 0
    return NetworkState(
        per_cell_load_mbps=load,
        per_cell_overload_mbps=overload,
        per_cell_power_watts=power,
        reference_power_watts=reference,
        serving_cell=np.where(served, serving, -1),
        per_user_rsrp_dbm=np.where(
            served, np.where(above, drawn, 0.0).sum(axis=-1) / np.maximum(count, 1), np.nan
        ),
        served_users=weight * share,
        total_users=weight.sum(axis=-1).astype(np.int64),
    )


class Oracle:
    """Query interface over one scenario; every answer is a pure function of (config, seed, query).

    Tables in config order: `grid_positions`, `cell_positions`, `grid_cell_km`, `nearest_cell`
    (ties to the lowest index), `grid_weight` (poi_weight * base_users), `neighbors` (cell
    indices) and `neighbor_pairs`, the same lists as the (cell, neighbour) index arrays
    `agent.resolve_bias` takes; `grid_edge_km` is the lattice pitch. Per hour of day, as array expressions over
    the module's `DIURNAL` table, built once at import: `hourly_demand`, each cell's
    noise-free demand fraction of capacity, and `hourly_user_rate`, each grid's Poisson user
    rate.

    Every random draw is keyed (see `_rng`). A key store keeps, for the oracle's lifetime, the
    hashed seed state of every key of each (tag, day) block that has been drawn from, 32
    bytes per key.

    The other mutable parts are two stores of read-only arrays. The column store keeps, for the
    oracle's lifetime, each step's traffic vector (per cell, in Mbps) and user-count vector
    (per grid) under (kind, the step's first hour); it holds at most one column per traffic
    and per user step of the horizon. Day reads stack a day's columns into a fresh array and
    steps read t's column, so each value is drawn once however the oracle is queried. The
    snapshot store keeps, for the last `config.steps_per_day` distinct t that `step_network`
    queried, dropping the oldest first: t's traffic column, the per-user RSRP matrix and the
    natural attachment, so a scheme or greedy candidate stepping a seen t runs `serve` alone.
    Every answer has the bits a fresh Oracle gives. The stores are not locked, so an Oracle
    is not for sharing between threads; `--jobs` builds one per seed in each worker process.
    """

    def __init__(self, config: ScenarioConfig):
        validate_scenario(config)
        self.config = config
        self.cells = tuple(config.cell_configs)
        self._cell_index = {c.id: i for i, c in enumerate(self.cells)}
        self.n_cells = len(self.cells)
        self.n_grids = len(config.grids)
        self.arrays = CellArrays.of(self.cells)
        self.neighbors = tuple(tuple(self._cell_index[nb] for nb in c.neighbors) for c in self.cells)
        self.neighbor_pairs = neighbor_pairs(self.neighbors)
        self.grid_positions = np.array([g.position for g in config.grids])
        self.cell_positions = np.array([c.position for c in self.cells])
        xs = sorted(set(self.grid_positions[:, 0].tolist()))
        self.grid_edge_km = xs[1] - xs[0] if len(xs) > 1 else 1.0
        offsets = self.grid_positions[:, None, :] - self.cell_positions[None, :, :]
        self.grid_cell_km = np.linalg.norm(offsets, axis=2)
        self.nearest_cell = np.argmin(self.grid_cell_km, axis=1)
        self.grid_weight = np.array([g.poi_weight * g.base_users for g in config.grids], dtype=float)
        shape = DIURNAL[[POI_PROFILES.index(c.poi_profile) for c in self.cells]]
        demand = config.traffic_base + config.traffic_amp * shape
        # A counterfactual rescales each cell's demand so its peak over the traffic steps is phi.
        phi = config.counterfactual_peak_fraction
        if phi is not None:
            demand *= phi / demand[:, ::config.traffic_step_hours].max(axis=1, keepdims=True)
        self.hourly_demand = demand
        # The 0.2 floor keeps grids from emptying out.
        self.hourly_user_rate = self.grid_weight[:, None] * (0.2 + 0.8 * shape[self.nearest_cell])
        self._snapshots: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._columns: dict[tuple[str, int], np.ndarray] = {}
        self._key_states: dict[tuple[int, int], np.ndarray] = {}

    # -- keyed randomness ----------------------------------------------------

    def _rng(self, tag: int, index: int, t_hours: int) -> np.random.Generator:
        """The generator of key (seed, tag, id, t_hours), which draws what
        ``np.random.default_rng(np.random.SeedSequence(key))`` draws.

        The id is the cell id of cell row `index` for traffic and the grid index
        `index` otherwise; `t_hours` is a step's first hour. The key's state is
        read from its (tag, day) block, hashed on first use by `key_states`.
        """
        traffic = tag == _S_TRAFFIC
        step = self.config.traffic_step_hours if traffic else self.config.user_step_hours
        day, hour = divmod(t_hours, 24)
        states = self._key_states.get((tag, day))
        if states is None:
            ids = [c.id for c in self.cells] if traffic else range(self.n_grids)
            states = key_states((self.config.seed, tag), ids, range(day * 24, day * 24 + 24, step))
            self._key_states[tag, day] = states
        return np.random.Generator(np.random.PCG64(_key_state_type()(states[index, hour // step])))

    # -- element queries -----------------------------------------------------

    def _cell_row(self, cell_id: int) -> int:
        try:
            return self._cell_index[cell_id]
        except KeyError:
            raise UnknownIdError(f"unknown cell id {cell_id}") from None

    def _check_t(self, t_hours: int) -> None:
        if not 0 <= t_hours < self.config.horizon_hours:
            raise DomainError(
                f"t_hours {t_hours} outside horizon [0, {self.config.horizon_hours})"
            )

    def traffic_at(self, cell_id: int, t_hours: int) -> float:
        """Load in Mbps at the traffic-step granularity, with seeded noise."""
        row = self._cell_row(cell_id)
        self._check_t(t_hours)
        tq = t_hours - t_hours % self.config.traffic_step_hours
        raw = float(self.hourly_demand[row, tq % 24])
        sigma = self.config.traffic_noise_sigma
        if sigma > 0:
            eta = float(self._rng(_S_TRAFFIC, row, tq).normal(0.0, sigma))
            raw *= 1.0 + eta
        return self.cells[row].capacity_mbps * min(max(raw, 0.0), 1.0)

    def users_at(self, grid_index: int, t_hours: int) -> int:
        """Users in a grid at the user-step granularity: a seeded Poisson draw at `hourly_user_rate`."""
        if not 0 <= grid_index < self.n_grids:
            raise UnknownIdError(f"grid index {grid_index} out of range")
        self._check_t(t_hours)
        tq = t_hours - t_hours % self.config.user_step_hours
        rate = float(self.hourly_user_rate[grid_index, tq % 24])
        if rate == 0.0:
            return 0
        return int(self._rng(_S_USERS, grid_index, tq).poisson(rate))

    # -- per-step columns and day reads --------------------------------------

    def _column(self, kind: str, t_hours: int) -> np.ndarray:
        """t's step of `kind`, read-only: "traffic" per cell in Mbps or "users" per grid. Drawn
        once, through traffic_at or users_at, and kept under (kind, the step's first hour)."""
        traffic = kind == "traffic"
        step = self.config.traffic_step_hours if traffic else self.config.user_step_hours
        key = (kind, t_hours - t_hours % step)
        column = self._columns.get(key)
        if column is None:
            column = np.array([self.traffic_at(c.id, t_hours) for c in self.cells] if traffic
                              else [self.users_at(g, t_hours) for g in range(self.n_grids)])
            column.flags.writeable = False
            self._columns[key] = column
        return column

    def traffic_day(self, day: int) -> np.ndarray:
        """traffic_at over one day, (n_cells, steps_per_day) in Mbps; a fresh array on every call."""
        clock = self.config
        return np.stack([self._column("traffic", clock.hour(day, k)) for k in range(clock.steps_per_day)], axis=1)

    def users_day(self, day: int) -> np.ndarray:
        """users_at over one day as floats, (n_grids, user_steps_per_day); a fresh array on every call."""
        clock = self.config
        return np.stack([self._column("users", clock.hour(day) + k * clock.user_step_hours)
                         for k in range(clock.user_steps_per_day)], axis=1, dtype=float)

    # -- composite step ------------------------------------------------------

    def users_and_shadowing(self, t_hours: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Seeded user counts per grid (t's read-only column), then each user's position and
        per-cell shadowing at t."""
        tq = t_hours - t_hours % self.config.user_step_hours
        counts = self._column("users", t_hours)
        half, sigma = self.grid_edge_km / 2.0, self.config.shadowing_sigma_db
        jitter, shadows = [np.zeros((0, 2))], [np.zeros((0, self.n_cells))]
        for g in np.flatnonzero(counts).tolist():
            jitter.append(self._rng(_S_POS, g, tq).uniform(-half, half, size=(counts[g], 2)))
            if sigma > 0:
                shadows.append(self._rng(_S_SHADOW, g, tq).normal(0.0, sigma, size=(counts[g], self.n_cells)))
        positions = np.repeat(self.grid_positions, counts, axis=0) + np.concatenate(jitter)
        shadowing = np.concatenate(shadows) if sigma > 0 else np.zeros((len(positions), self.n_cells))
        return counts, positions, shadowing

    def rsrp_matrix(self, positions: np.ndarray, shadowing: np.ndarray) -> np.ndarray:
        """Per-(user, cell) RSRP in dBm, vectorized free-space + shadowing."""
        d = np.linalg.norm(positions[:, None, :] - self.cell_positions[None, :, :], axis=2)
        return self.arrays.tx_power_dbm - path_loss_db(d, self.arrays.carrier_freq_mhz) + shadowing

    def step_network(
        self,
        t_hours: int,
        sleep_mask: Sequence[bool] | np.ndarray | None = None,
        bias_db: Sequence[float] | np.ndarray | None = None,
    ) -> NetworkState:
        """One decision step: demand, association, offloaded load, power.

        Each user is one unit of `serve` with one RSRP draw, so a sleeping
        cell's native load travels in equal per-user shares to wherever its
        natural users re-attach. The query is checked before the snapshot
        store is read, and a t seen before runs `serve` alone.
        """
        self._check_t(t_hours)
        sleep = np.zeros(self.n_cells, dtype=bool) if sleep_mask is None else np.asarray(sleep_mask, dtype=bool)
        bias = np.zeros(self.n_cells) if bias_db is None else np.asarray(bias_db, dtype=float)
        if sleep.shape != (self.n_cells,) or bias.shape != (self.n_cells,):
            raise DomainError("sleep_mask and bias_db must have one entry per cell")

        native, rsrp, natural = self._snapshot(t_hours)
        floor = self.config.rsrp_floor_dbm
        return serve(self.arrays, native, natural, rsrp, rsrp[:, :, None], np.ones(len(rsrp)), floor, sleep, bias)

    def _snapshot(self, t_hours: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The action-free draw of step_network at t, held in the snapshot store: native load,
        user RSRP and natural cell."""
        snap = self._snapshots.get(t_hours)
        if snap is not None:
            return snap
        native = self._column("traffic", t_hours)
        _, positions, shadowing = self.users_and_shadowing(t_hours)
        rsrp = self.rsrp_matrix(positions, shadowing)
        # Natural attachment (everything active, no bias) fixes per-user demand.
        natural = associate_users(
            rsrp, np.zeros(self.n_cells, dtype=bool), np.zeros(self.n_cells), self.config.rsrp_floor_dbm
        )
        for a in (rsrp, natural):
            a.flags.writeable = False
        if len(self._snapshots) >= self.config.steps_per_day:
            del self._snapshots[next(iter(self._snapshots))]  # dicts keep insertion order
        snap = self._snapshots[t_hours] = (native, rsrp, natural)
        return snap


def validate_scenario(config: ScenarioConfig) -> None:
    """Raise a ConfigError for a scenario the oracle cannot run."""
    if len(config.cell_configs) < 2:
        raise ConfigError(f"cell_configs must hold at least 2 cells, got {len(config.cell_configs)}")
    if not config.grids:
        raise ConfigError("grids must be nonempty")
    if config.seed < 0:  # the first word of every draw's key, which SeedSequence takes only non-negative
        raise ConfigError(f"config key scenario.seed must be >= 0, got {config.seed}")
    if config.horizon_hours <= 0:
        raise ConfigError("horizon_hours must be positive")
    for key in ("traffic_step_hours", "user_step_hours"):
        step = getattr(config, key)
        if step <= 0 or config.horizon_hours % step:
            raise ConfigError(f"scenario.{key} {step} must divide horizon_hours {config.horizon_hours}")
        if 24 % step:
            raise ConfigError(f"scenario.{key} {step} must divide 24")
        if 24 // step < 2:
            raise ConfigError(f"scenario.{key} {step} must leave at least two windows a day")
    phi = config.counterfactual_peak_fraction
    if phi is not None and not 0.0 < phi <= 1.0:
        raise ConfigError(f"counterfactual_peak_fraction must be in (0, 1], got {phi}")
    if config.shadowing_sigma_db < 0:
        raise ConfigError("shadowing_sigma_db must be >= 0")
    if config.traffic_noise_sigma < 0:
        raise ConfigError("traffic_noise_sigma must be >= 0")
    for key in ("traffic_base", "traffic_amp"):
        if not getattr(config, key) >= 0:
            raise ConfigError(f"scenario.{key} {getattr(config, key)} must be >= 0")
    if not config.traffic_base + config.traffic_amp > 0:
        raise ConfigError("scenario.traffic_base + traffic_amp must be > 0")
    ids = [c.id for c in config.cell_configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("cell ids must be unique")
    known = set(ids)
    for cell in config.cell_configs:
        if cell.id < 0:  # a key of the cell's traffic draws, which SeedSequence takes only non-negative
            raise ConfigError(f"cell {cell.id}: id must be >= 0")
        if cell.tx_power_dbm <= 0 or cell.carrier_freq_mhz <= 0 or cell.capacity_mbps <= 0:
            raise ConfigError(f"cell {cell.id}: tx_power_dbm, carrier_freq_mhz, capacity_mbps must be > 0")
        if cell.p_sleep_watts >= cell.p0_watts:
            raise ConfigError(f"cell {cell.id}: p_sleep_watts must be < p0_watts")
        if cell.poi_profile not in POI_PROFILES:
            raise ConfigError(f"cell {cell.id}: unknown poi_profile {cell.poi_profile!r}")
        if not cell.neighbors:
            raise ConfigError(f"cell {cell.id}: neighbors must be nonempty")
        for nb in cell.neighbors:
            if nb == cell.id:
                raise ConfigError(f"cell {cell.id}: neighbors must exclude self")
            if nb not in known:
                raise ConfigError(f"cell {cell.id}: neighbor id {nb} not in scenario")
    for i, g in enumerate(config.grids):
        if not math.isfinite(g.poi_weight) or g.poi_weight < 0:
            raise ConfigError(f"grid {i}: poi_weight must be finite and >= 0")
        if g.base_users < 0:
            raise ConfigError(f"grid {i}: base_users must be >= 0")
    try:
        users = sum(g.poi_weight * g.base_users for g in config.grids)
    except OverflowError:  # an integer past the float range
        users = math.inf
    if not users <= MAX_USERS_PER_STEP:
        raise ConfigError(f"scenario base_users give {users:.6g} expected users per step "
                          f"(sum of poi_weight * base_users); at most {MAX_USERS_PER_STEP} are allowed")


def build_scenario(config: ScenarioConfig) -> Oracle:
    """Validate a config and return the immutable oracle over it."""
    return Oracle(config)


# -- canned topology ----------------------------------------------------------

_HEX_PROFILES = ("office", "residential", "office", "mixed", "event", "residential", "mixed")
# Small-cell transmit powers: with free-space loss over a ~2 km map these land
# user RSRP in the -65..-105 dBm band, so the reward's coverage term is live
# and aggressive sleeping pushes edge users toward the drop floor. The (tx,
# freq) pairs form a near-factorial design so the two link effects stay
# separately identifiable from rollout data.
_HEX_TX = (13.0, 10.0, 13.0, 10.0, 11.5, 10.0, 11.5)
_HEX_FREQ = (2100.0, 2100.0, 3500.0, 700.0, 3500.0, 3500.0, 1800.0)
_HEX_CAP = (150.0, 120.0, 130.0, 100.0, 140.0, 110.0, 125.0)


def make_hex_scenario(
    seed: int = 0,
    grid_dim: int = 6,
    horizon_hours: int = 1440,
    ring_radius_km: float = 1.6,
    base_users: int = 10,
    counterfactual_peak_fraction: float | None = None,
    rsrp_floor_dbm: float = -94.0,
    **overrides,
) -> ScenarioConfig:
    """Seven-cell hexagonal layout: one center cell plus a ring of six.

    The center neighbors every ring cell; each ring cell neighbors the center
    and its two ring-adjacent cells. Grid user weights fall off with distance
    to the nearest cell so downtown grids are denser.
    """
    if grid_dim < 1:
        raise ConfigError(f"grid_dim must be positive, got {grid_dim}")
    positions = [(0.0, 0.0)]
    for k in range(6):
        a = math.pi / 3.0 * k
        positions.append((ring_radius_km * math.cos(a), ring_radius_km * math.sin(a)))
    cells = []
    for i in range(7):
        if i == 0:
            neighbors = tuple(range(1, 7))
        else:
            left = 1 + (i - 1 - 1) % 6
            right = 1 + (i - 1 + 1) % 6
            neighbors = (0, left, right)
        cells.append(
            CellConfig(
                id=i,
                position=positions[i],
                tx_power_dbm=_HEX_TX[i],
                carrier_freq_mhz=_HEX_FREQ[i],
                capacity_mbps=_HEX_CAP[i],
                poi_profile=_HEX_PROFILES[i],
                neighbors=neighbors,
            )
        )
    half_span = ring_radius_km + 0.8
    centers = np.linspace(-half_span + half_span / grid_dim, half_span - half_span / grid_dim, grid_dim)
    grids = []
    cell_pos = np.array(positions)
    for iy, y in enumerate(centers):
        for ix, x in enumerate(centers):
            d_min = float(np.min(np.linalg.norm(cell_pos - np.array([x, y]), axis=1)))
            weight = round(0.5 + math.exp(-((d_min / 1.2) ** 2)) + 0.1 * ((ix + iy) % 3), 3)
            grids.append(GridCell(position=(float(x), float(y)), poi_weight=weight, base_users=base_users))
    return ScenarioConfig(
        seed=seed,
        cell_configs=tuple(cells),
        grids=tuple(grids),
        horizon_hours=horizon_hours,
        counterfactual_peak_fraction=counterfactual_peak_fraction,
        rsrp_floor_dbm=rsrp_floor_dbm,
        **overrides,
    )


# -- JSON persistence ----------------------------------------------------------

def _preset_form() -> type:
    """The preset form as a dataclass: ``preset``, make_hex_scenario's named parameters and
    every defaulted ScenarioConfig field, each with its type and default."""
    hints = {**get_type_hints(ScenarioConfig), **get_type_hints(make_hex_scenario)}
    defaults = {f.name: f.default for f in fields(ScenarioConfig) if f.default is not MISSING}
    defaults.update((name, p.default) for name, p in inspect.signature(make_hex_scenario).parameters.items()
                    if name != "overrides")
    return make_dataclass("HexPreset", [("preset", str, "hex7"), *((k, hints[k], v) for k, v in defaults.items())],
                          frozen=True)


HexPreset = _preset_form()


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def scenario_from_dict(data, name=lambda key: f"scenario key {key}" if key else "scenario",
                       key: str = "") -> ScenarioConfig:
    """Strict scenario reader for the full form or a hex preset; errors name keys by ``name``."""
    if not (isinstance(data, dict) and "preset" in data):
        return read_json(ScenarioConfig, data, ConfigError, name, key)
    preset = read_json(HexPreset, data, ConfigError, name, key)
    if preset.preset != "hex7":
        raise ConfigError(f"unknown scenario preset {preset.preset!r}")
    return make_hex_scenario(**{k: v for k, v in vars(preset).items() if k != "preset"})


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"scenario file {path}: {exc}") from None
    return scenario_from_dict(data, lambda key: f"scenario file {path}" + (f" key {key}" if key else ""))


def save_scenario(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
