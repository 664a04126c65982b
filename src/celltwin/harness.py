"""Closed loop: train the agent inside the generative twin, judge it on the oracle.

Separation of worlds is the organizing rule here. During policy training every
observation and reward comes from world-model samples (the oracle contributes
only static configuration: topology, power model, capacities). During
evaluation the roles flip: rewards, energy and coverage come from the oracle,
while the world model only supplies the forecast features inside the agent's
observation. Every result row is tagged with its environment so the two can
never be conflated in a report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import dataset as ds
from .agent import (
    Action,
    Observation,
    Policy,
    RewardWeights,
    baseline_greedy,
    compute_reward,
    resolve_bias,
    sleep_below,
)
from .diffusion import DenoiserArch, DiffusionModel, MemoryConfig, NoiseSchedule
from .errors import ConfigError, DomainError, EnvelopeError, ModelError, ShapeError
from .nn import LoraSpec
from .scenario import NetworkState, Oracle, ScenarioConfig, associate_users, serve

SCHEMES = ("agent", "empirical", "custom", "greedy", "always_on", "all_sleep")

# First key words of the oracle env's forecasts, of the traffic and RSRP samples the metrics score,
# of the world-model env's pools and episodes, and of a counterfactual traffic head's adaptation.
PREDICT_SEED = 5
_TRAFFIC_SAMPLE_SEED = 23
_RSRP_SAMPLE_SEED = 29
_WM_ENV_SEED = 19
_ADAPT_SEED = 43

REPORT_COLUMNS = (
    "scheme", "scenario", "peak_fraction", "seed", "environment", "utility",
    "energy_wh", "energy_saved_pct", "rsrp_avg_dbm", "rsrp_delta_db", "dropped_rate",
)


@dataclass
class EpisodeResult:
    policy_id: str
    environment: str  # "worldmodel" | "oracle"
    seed: int
    energy_wh: np.ndarray
    rsrp_avg_dbm: np.ndarray  # NaN on steps with nobody served
    dropped_rate: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        n = len(self.rewards)
        if not (len(self.energy_wh) == len(self.rsrp_avg_dbm) == len(self.dropped_rate) == n):
            raise ConfigError("episode result fields must have equal length")
        if not np.isfinite(self.rewards).all():
            raise ConfigError("episode rewards must be finite")

    @property
    def utility(self) -> float:
        return float(self.rewards.mean())

    @property
    def total_energy_wh(self) -> float:
        return float(self.energy_wh.sum())

    @property
    def mean_rsrp_dbm(self) -> float:
        served = ~np.isnan(self.rsrp_avg_dbm)
        return float(self.rsrp_avg_dbm[served].mean()) if served.any() else float("nan")

    @property
    def mean_dropped_rate(self) -> float:
        return float(self.dropped_rate.mean())


# -- world-model bundle -----------------------------------------------------------


@dataclass
class WMTrainConfig:
    schedule: NoiseSchedule = field(default_factory=lambda: NoiseSchedule(100, 1e-4, 0.02))
    n_experts: int = 3
    expert_hidden: tuple[int, ...] = (64, 64)
    gate_hidden: tuple[int, ...] = (32,)
    cond_emb_dim: int = 8
    time_dim: int = 8
    train_steps: int = 2500
    batch_size: int = 64
    lr: float = 1e-3
    p_uncond: float = 0.1
    guidance_w: float = 1.0
    memory_kinds: tuple[str, ...] = ("traffic", "users")
    seed: int = 11


@dataclass
class WorldModelBundle:
    """The three generation heads the optimization loop consumes."""

    traffic: DiffusionModel
    users: DiffusionModel
    rsrp: DiffusionModel

    @classmethod
    def train_from_datasets(
        cls,
        datasets: dict[str, ds.SampleSet],
        config: WMTrainConfig = WMTrainConfig(),
    ) -> tuple["WorldModelBundle", dict[str, list[float]]]:
        missing = set(ds.KINDS) - set(datasets)
        if missing:
            raise ConfigError(f"datasets missing kind {sorted(missing)[0]!r}")
        heads, curves = {}, {}
        for kind in ds.KINDS:
            sample_set = datasets[kind]
            arch = DenoiserArch(
                series_len=sample_set.series_len,
                cond_emb_dim=config.cond_emb_dim,
                time_dim=config.time_dim,
                n_experts=config.n_experts,
                expert_hidden=config.expert_hidden,
                gate_hidden=config.gate_hidden,
                memory=MemoryConfig() if kind in config.memory_kinds else None,
            )
            model = DiffusionModel(
                kind=kind,
                arch=arch,
                schedule=config.schedule,
                stats=sample_set.stats,
                layout=sample_set.layout,
                seed=config.seed,
                p_uncond=config.p_uncond,
                guidance_w=config.guidance_w,
            )
            train_idx = sample_set.split["train"]
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 21, ds.KINDS.index(kind))))
            curves[kind] = model.train(
                sample_set.normalized_series(train_idx),
                sample_set.normalized_conditions(train_idx),
                sample_set.masks[train_idx],
                steps=config.train_steps,
                batch_size=config.batch_size,
                rng=rng,
                lr=config.lr,
            )
            heads[kind] = model
        return cls(**heads), curves

    def save(self, paths: dict[str, str]) -> None:
        for kind in ds.KINDS:
            getattr(self, kind).save(paths[kind])

    @classmethod
    def load(cls, paths: dict[str, str]) -> "WorldModelBundle":
        models = {kind: DiffusionModel.load(paths[kind]) for kind in ds.KINDS}
        for kind, model in models.items():
            if model.kind != kind:
                raise ModelError(f"checkpoint at {paths[kind]} holds kind {model.kind!r}, expected {kind!r}")
        return cls(**models)


# -- condition tables --------------------------------------------------------------------


def _conditions_traffic(oracle: Oracle, layout: ds.ConditionLayout) -> np.ndarray:
    return layout.normalize(ds.traffic_conditions(oracle))


def _conditions_rsrp_table(
    oracle: Oracle, layout: ds.ConditionLayout, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Link conditions for every (grid, cell, draw) triple, rows in that order.

    With multiple draws per link the distances are jittered within the grid
    square, so the draws stand for users spread over the grid rather than a
    single point at its center.
    """
    shape = (oracle.n_grids, oracle.n_cells, draws, 2)
    pos = np.broadcast_to(oracle.grid_positions[:, None, None, :], shape)
    if draws > 1:
        pos = pos + rng.uniform(-oracle.grid_edge_km / 2, oracle.grid_edge_km / 2, size=shape)
    d = (pos - oracle.cell_positions[None, :, None, :]).reshape(-1, 2)
    cells = np.tile(np.repeat(np.arange(oracle.n_cells), draws), oracle.n_grids)
    # A dot per row: bit-equal to np.linalg.norm of each row, unlike its axis=1 form.
    raw = ds.rsrp_conditions(oracle, cells, np.sqrt(np.vecdot(d, d)), hour=12, sleep_frac=0.3)
    return layout.normalize(raw)


# -- forecasts -------------------------------------------------------------------------


def _sample_days(head, cond, length: int, revealed, context, rngs) -> np.ndarray:
    """One sampled day per condition row for each problem, (problems, rows, length) in raw units.

    Problem k draws from `rngs[k]`, and its first `revealed[k]` windows are
    inpainted from `context`, the matching rows of a realised day. The
    problems with something left to generate are one stacked `sample` call;
    the others are `context` as it is, and their generators are not drawn from.
    """
    revealed = np.asarray(revealed)
    days = np.empty((len(revealed), len(cond), length))
    if context is not None:
        days[:] = context
    todo = np.flatnonzero(revealed < length)
    if len(todo):
        shape = (len(todo), len(cond), length)
        mask = np.broadcast_to(np.arange(length) >= revealed[todo, None, None], shape)
        days[todo] = head.sample(
            np.broadcast_to(cond, shape[:2] + cond.shape[1:]), mask,
            None if context is None else np.broadcast_to(context, shape), [rngs[k] for k in todo],
        )
    return days


def _forecast(
    bundle: WorldModelBundle, oracle: Oracle, n: int, rngs: Sequence[np.random.Generator],
    revealed=(0,), realised: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """For each generator, n sampled days of traffic, (problems, n, n_cells, steps), and users,
    (problems, n, n_grids, user steps).

    Problem k draws its traffic, then its users, from `rngs[k]`. Its first
    `revealed[k]` traffic windows, and the user windows they cover, come from
    `realised`, the oracle's (traffic_day, users_day) pair. Traffic is clipped
    to [0, capacity] and users to non-negative whole counts.
    """
    clock = oracle.config
    context_t, context_u = (None, None) if realised is None else (np.tile(day, (n, 1)) for day in realised)
    traffic = _sample_days(
        bundle.traffic, np.tile(_conditions_traffic(oracle, bundle.traffic.layout), (n, 1)),
        clock.steps_per_day, revealed, context_t, rngs,
    )
    users = _sample_days(
        bundle.users, np.tile(bundle.users.layout.normalize(ds.users_conditions(oracle)), (n, 1)),
        clock.user_steps_per_day, [clock.user_column(r) for r in revealed], context_u, rngs,
    )
    problems = len(rngs)
    return (
        np.clip(traffic.reshape(problems, n, oracle.n_cells, -1), 0.0, oracle.arrays.capacity_mbps[:, None]),
        np.rint(np.clip(users.reshape(problems, n, oracle.n_grids, -1), 0.0, None)),
    )


# -- environments ----------------------------------------------------------------------


def neighbor_groups(neighbors) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cells grouped by neighbour count: (cell ids, one row of neighbour ids per cell)."""
    by_degree: dict[int, list[int]] = {}
    for cell, nbs in enumerate(neighbors):
        by_degree.setdefault(len(nbs), []).append(cell)
    return [(np.array(cells), np.array([neighbors[c] for c in cells])) for cells in by_degree.values()]


def neighbor_mean(values: np.ndarray, groups: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Each cell's mean of ``values`` (..., n_cells) over its neighbours, from ``neighbor_groups``.

    One row mean per group of equal width gives the bits of a separate
    ``values[nbs].mean()`` per cell.
    """
    out = np.empty(values.shape)
    for cells, idx in groups:
        out[..., cells] = values[..., idx].mean(axis=-1)
    return out


class _DayEnv:
    """One day in decision steps for `episodes` episodes in lockstep; subclasses define `reset`
    and `step`.

    `reset` sets `_day`, the traffic the episodes carry, (episodes, n_cells, steps)
    in Mbps, and `_forecast`, None or the (traffic, users) pair the agent is shown:
    (k, episodes, n_cells, steps) and (k, episodes, n_grids, user steps), with k = 1
    for one forecast of the whole day or one forecast per step.
    Observations, actions, rewards and infos carry a leading episode axis.
    `step` raises a DomainError before the first `reset` and once the day is over.
    """

    def __init__(self, oracle: Oracle, weights: RewardWeights):
        self.oracle = oracle
        self.weights = weights
        self.users_scale = np.maximum(
            np.bincount(oracle.nearest_cell, weights=oracle.grid_weight, minlength=oracle.n_cells), 1.0
        )
        self._neighbor_groups = neighbor_groups(oracle.neighbors)
        self.episodes = 0
        self._step = None  # no episode before the first reset
        self._day = None
        self._forecast = None

    @property
    def steps_per_episode(self) -> int:
        return self.oracle.config.steps_per_day

    def _begin_step(self, action: Action) -> int:
        """The step `action` is for: one (episodes, n_cells) row per episode, inside the day."""
        if self._step is None:
            raise DomainError(f"{type(self).__name__}.step before reset: no episode has started")
        if self._step >= self.steps_per_episode:
            raise DomainError(
                f"{type(self).__name__}.step after the day ended at step {self.steps_per_episode}: "
                "reset to start another episode"
            )
        want = (self.episodes, self.oracle.n_cells)
        if np.shape(action.sleep) != want or np.shape(action.bias_level_db) != want:
            raise ShapeError(f"action of shape {np.shape(action.sleep)} for {want[0]} episodes of {want[1]} cells")
        return self._step

    def _observation(self) -> Observation:
        """Agent view at the current step: each episode's load fractions plus the forecast's next window.

        Step d reads the forecast at d, or the last one there is. Without a
        forecast the next window is the current load and no users are predicted.
        """
        oracle, clock, d = self.oracle, self.oracle.config, self._step
        load = self._day[..., d] / oracle.arrays.capacity_mbps
        if self._forecast is None:
            pred, users = load, np.zeros((self.episodes, oracle.n_grids))
        else:
            nxt = min(d + 1, clock.steps_per_day - 1)
            traffic, users = (f[min(d, len(f) - 1)] for f in self._forecast)
            pred = traffic[..., nxt] / oracle.arrays.capacity_mbps
            users = users[..., clock.user_column(nxt)]
        hour = ds.hour_features(clock.hour(0, d))
        return Observation(
            load_frac=load,
            pred_load_frac=pred,
            pred_users_norm=np.array([
                np.bincount(oracle.nearest_cell, weights=row, minlength=oracle.n_cells) for row in users
            ]) / self.users_scale,
            neighbor_pred_load=neighbor_mean(pred, self._neighbor_groups),
            hour_sin=hour["hour_sin"],
            hour_cos=hour["hour_cos"],
        )

    def _finish_step(self, state: NetworkState):
        """Reward each episode's step, advance the clock and observe the next step unless the day is over.

        `state` is the step of every episode, batched as `serve` returns it or,
        for one episode, as `Oracle.step_network` does. Rewards and every info
        entry are (episodes,) arrays; an RSRP average is NaN on a step with
        nobody served.
        """
        hours = self.oracle.config.traffic_step_hours
        info = {name: np.atleast_1d(value) for name, value in (
            ("energy_wh", state.energy_wh(hours)), ("reference_energy_wh", state.reference_power_watts * hours),
            ("rsrp_avg_dbm", state.rsrp_avg_dbm), ("dropped", state.dropped_users), ("total_users", state.total_users),
        )}
        reward = compute_reward(**info, weights=self.weights)
        self._step += 1
        done = self._step >= self.steps_per_episode
        return None if done else self._observation(), reward, done, info


@dataclass
class WorldModelEnvConfig:
    day_pool: int = 32
    rsrp_pool: int = 12
    rsrp_draws: int = 4


class WorldModelEnv(_DayEnv):
    """Virtual days built entirely from world-model samples, one per episode, in lockstep.

    On construction the environment pre-samples a pool of full synthetic days
    (traffic per cell, users per grid) and per-(grid, cell) RSRP tables; each
    episode draws one of each, which keeps per-step cost at array lookups while
    every quantity the agent sees still comes from the generative model. Each
    table holds several draws per (grid, cell) link so a grid near the drop
    floor loses a fraction of its users rather than all or none.

    `reset` starts one episode per generator, and every `step` then steps all
    of them with one `serve` call over a leading episode axis. Each episode's
    numbers have the bits of stepping it alone.
    """

    environment_id = "worldmodel"

    def __init__(
        self,
        bundle: WorldModelBundle,
        oracle: Oracle,
        weights: RewardWeights,
        config: WorldModelEnvConfig = WorldModelEnvConfig(),
    ):
        super().__init__(oracle, weights)
        self.bundle = bundle
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence((_WM_ENV_SEED, 3)))
        self.traffic_pool, self.users_pool = (pool[0] for pool in _forecast(bundle, oracle, config.day_pool, [rng]))

        # Guidance-free sampling keeps the conditional spread honest, which is
        # what calibrates the fraction of below-floor draws on far links.
        cond_r = _conditions_rsrp_table(oracle, bundle.rsrp.layout, config.rsrp_draws, rng)
        tiled = np.tile(cond_r, (config.rsrp_pool, 1))
        flat = bundle.rsrp.sample(
            tiled, np.ones((tiled.shape[0], 1), dtype=bool), None, rng, guidance_w=0.0
        )
        self.rsrp_pool = flat.reshape(
            config.rsrp_pool, oracle.n_grids, oracle.n_cells, config.rsrp_draws
        )

        self._users_day = None      # (episodes, n_grids, user steps)
        self._table = None          # (episodes, n_grids, n_cells, rsrp_draws)
        self._table_mean = None
        self._natural = None

    def reset(self, rngs: Sequence[np.random.Generator]) -> Observation:
        """One episode per generator, which draws its traffic day, users day and RSRP table in that order."""
        pools = (self.traffic_pool, self.users_pool, self.rsrp_pool)
        picks = np.array([[rng.integers(0, len(pool)) for pool in pools] for rng in rngs], dtype=int)
        self._day, self._users_day, self._table = (pool[pick] for pool, pick in zip(pools, picks.reshape(-1, 3).T))
        self._forecast = (self._day[None], self._users_day[None])
        self._table_mean = self._table.mean(axis=-1)
        self.episodes, n = len(picks), self.oracle.n_cells
        self._natural = associate_users(
            self._table_mean, np.zeros((self.episodes, n), dtype=bool), np.zeros((self.episodes, n)), -np.inf
        )
        self._step = 0
        return self._observation()

    def step(self, action: Action) -> tuple[Observation | None, np.ndarray, bool, dict]:
        """Each grid is one unit of `serve`: it attaches by its mean RSRP and the floor applies per draw."""
        oracle, clock = self.oracle, self.oracle.config
        d = self._begin_step(action)
        return self._finish_step(serve(
            oracle.arrays, self._day[..., d], self._natural, self._table_mean, self._table,
            self._users_day[..., clock.user_column(d)], clock.rsrp_floor_dbm, action.sleep,
            resolve_bias(action, oracle.neighbor_pairs),
        ))


class OracleEnv(_DayEnv):
    """Ground-truth day; the world model contributes only forecast features.

    The env runs one episode, its arrays carrying an episode axis of length 1.
    It reads its realised day from the oracle once, at reset. The
    forecast is a sampled day whose first ``revealed`` windows are the
    realised ones: ``long_term`` samples it once per episode with
    ``revealed = 0``; ``short_term`` shows at every step a forecast with the
    windows up to and including the current one revealed, each drawn from its
    own keyed generator, and `reset` samples all of them at once. Without a
    bundle the forecast is the current load and no users.
    """

    environment_id = "oracle"

    def __init__(
        self,
        oracle: Oracle,
        weights: RewardWeights,
        bundle: WorldModelBundle | None = None,
        day: int = 1,
        predict_mode: str = "long_term",
    ):
        if predict_mode not in ("long_term", "short_term"):
            raise ConfigError(f"unknown predict_mode {predict_mode!r}")
        if day >= oracle.config.n_days:
            raise ConfigError(f"day {day} exceeds the scenario horizon")
        super().__init__(oracle, weights)
        self.bundle = bundle
        self.day = day
        self.predict_mode = predict_mode

    def greedy_evaluator(self):
        """The oracle's step at the current hour, as a function of (sleep mask, bias); the clock does not move."""
        t = self.oracle.config.hour(self.day, self._step)
        return lambda sleep_mask, bias_vec: self.oracle.step_network(t, sleep_mask, bias_vec)

    def reset(self, rngs=None) -> Observation:
        """Start the day; the oracle's day is fixed, so `rngs` is not read."""
        self.episodes, self._step = 1, 0
        self._day = self.oracle.traffic_day(self.day)[None]
        if self.bundle is not None:
            key = (PREDICT_SEED, self.oracle.config.seed, self.day)
            if self.predict_mode == "short_term":  # step d's forecast reveals d + 1 windows and has its own generator
                steps = range(self.steps_per_episode)
                keys, revealed = [key + (d,) for d in steps], [d + 1 for d in steps]
                # Only short-term forecasts reveal the realised users.
                realised = (self._day[0], self.oracle.users_day(self.day))
            else:
                keys, revealed, realised = [key], [0], None
            rngs = [np.random.default_rng(np.random.SeedSequence(k)) for k in keys]
            self._forecast = _forecast(self.bundle, self.oracle, 1, rngs, revealed, realised)
        return self._observation()

    def step(self, action: Action) -> tuple[Observation | None, np.ndarray, bool, dict]:
        d = self._begin_step(action)
        return self._finish_step(self.oracle.step_network(
            self.oracle.config.hour(self.day, d), action.sleep[0],
            resolve_bias(action, self.oracle.neighbor_pairs)[0],
        ))


# -- actors ------------------------------------------------------------------------


def _rollout(env, act, policy_id: str, seed: int, rngs=None) -> list[EpisodeResult]:
    """Run `env`'s episodes in lockstep, taking each step's actions from `act(observation)`;
    one result per episode."""
    obs = env.reset(rngs)
    steps = []
    done = False
    while not done:
        obs, reward, done, info = env.step(act(obs))
        steps.append((
            info["energy_wh"], info["rsrp_avg_dbm"], info["dropped"] / np.maximum(info["total_users"], 1), reward,
        ))
    # (episodes, steps) each, so every episode's row is contiguous.
    energy, rsrp, dropped, rewards = (np.stack(column, axis=1) for column in zip(*steps))
    return [
        EpisodeResult(policy_id, env.environment_id, seed, *row) for row in zip(energy, rsrp, dropped, rewards)
    ]


def run_wm_episodes(
    env: WorldModelEnv, policy: Policy, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[EpisodeResult]]:
    """World-model days in lockstep, one per generator, with actions drawn from the policy: the
    (episodes, steps, ...) observations, choices and rewards `Policy.update` takes, and the results."""
    obs_rows, choice_rows = [], []

    def act(obs: Observation) -> Action:
        vec = obs.vector()
        action, choices = policy.sample(vec, rngs)
        obs_rows.append(vec)
        choice_rows.append(choices)
        return action

    results = _rollout(env, act, "agent", _WM_ENV_SEED, rngs)
    return np.stack(obs_rows, axis=1), np.stack(choice_rows, axis=1), np.stack([r.rewards for r in results]), results


@dataclass
class AgentTrainConfig:
    updates: int = 300
    episodes_per_update: int = 6
    lr: float = 0.03
    hidden: tuple[int, ...] = (32,)
    bias_levels: tuple[float, ...] = (0.0, 3.0, 6.0)
    seed: int = 3
    env: WorldModelEnvConfig = field(default_factory=WorldModelEnvConfig)


def run_training(
    bundle: WorldModelBundle,
    oracle: Oracle,
    weights: RewardWeights,
    config: AgentTrainConfig = AgentTrainConfig(),
) -> tuple[Policy, list[float]]:
    """REINFORCE inside the world-model environment ``config.env``; returns the learning curve."""
    env = WorldModelEnv(bundle, oracle, weights, config.env)
    policy = Policy(
        n_cells=oracle.n_cells,
        hidden=config.hidden,
        bias_levels=config.bias_levels,
        seed=config.seed,
    )
    curve = []
    for update in range(config.updates):
        rngs = [
            np.random.default_rng(np.random.SeedSequence((config.seed, 9, update, episode)))
            for episode in range(config.episodes_per_update)
        ]
        observations, choices, rewards, _ = run_wm_episodes(env, policy, rngs)
        diag = policy.update(observations, choices, rewards, lr=config.lr)
        curve.append(diag["mean_return"])
    return policy, curve


# -- oracle evaluation ----------------------------------------------------------------


@dataclass
class EvalConfig:
    tau: float = 0.2
    percentile: float = 25.0
    greedy_margin_db: float = 8.0
    baseline_bias_db: float = 3.0
    day: int = 1
    predict_mode: str = "long_term"
    schemes: tuple[str, ...] = ("agent", "empirical", "custom", "greedy")
    n_gen_samples: int = 48


def _actor(scheme: str, env: _DayEnv, policy: Policy | None, cfg: EvalConfig):
    """`act(observation) -> Action` for `scheme`, one action row per episode of `env`.

    The agent takes each cell's most probable choice, one stacked row per
    episode as `Policy.sample` does. always_on, all_sleep, empirical and custom
    are one rule, `sleep_below`, at a threshold of -inf, +inf, `cfg.tau`, or
    each cell's `cfg.percentile` of its load on the oracle's day before
    `env.day`. greedy searches the oracle env's one episode with
    `baseline_greedy`, looked up at every step.
    """
    if scheme == "agent":
        if policy is None:
            raise ConfigError("agent scheme needs a policy")

        def agent(obs: Observation) -> Action:
            probs, _ = policy.distribution(obs.vector()[:, None, :])
            return Action.from_choices(np.argmax(probs, axis=-1), policy.bias_levels)
        return agent
    if scheme == "greedy":
        def greedy(obs: Observation) -> Action:
            rule = baseline_greedy(
                obs.load_frac[0], env.oracle.neighbor_pairs, env.greedy_evaluator(),
                rsrp_floor_dbm=env.oracle.config.rsrp_floor_dbm,
                margin_db=cfg.greedy_margin_db, bias_db=cfg.baseline_bias_db,
            )
            return Action(rule.sleep[None], rule.bias_level_db[None])
        return greedy
    if scheme == "custom":
        tau = np.percentile(env.oracle.traffic_day(env.day - 1) / env.oracle.arrays.capacity_mbps[:, None],
                            cfg.percentile, axis=1)
    elif scheme in ("always_on", "all_sleep", "empirical"):
        tau = {"always_on": -np.inf, "all_sleep": np.inf, "empirical": cfg.tau}[scheme]
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    return lambda obs: sleep_below(obs.load_frac, tau, cfg.baseline_bias_db)


def run_oracle_episode(
    scheme: str,
    env: OracleEnv,
    seed: int,
    policy: Policy | None = None,
    cfg: EvalConfig = EvalConfig(),
) -> EpisodeResult:
    """One evaluated day on the oracle for one scheme; deterministic per inputs."""
    return _rollout(env, _actor(scheme, env, policy, cfg), scheme, seed)[0]


def _check_envelope(results: dict[str, EpisodeResult], weights: RewardWeights) -> None:
    """No scheme may beat the all-sleep energy bound or the always-on coverage bound."""
    sleep_floor = results["all_sleep"].total_energy_wh
    ref = results["always_on"]

    def rsrp_term(r: EpisodeResult) -> float:
        vals = r.rsrp_avg_dbm[~np.isnan(r.rsrp_avg_dbm)]
        if vals.size == 0:
            return 0.0
        return float(weights.rsrp_score(vals).mean())

    for name, res in results.items():
        if res.total_energy_wh < sleep_floor - 1e-6:
            raise EnvelopeError(f"sanity envelope: {name} reports energy below the all-sleep bound")
        if res.mean_dropped_rate == 0.0 and ref.mean_dropped_rate == 0.0:
            if rsrp_term(res) > rsrp_term(ref) + 1e-9:
                raise EnvelopeError(f"sanity envelope: {name} reports coverage above the always-on bound")


def evaluate_policy(
    scenario: ScenarioConfig,
    schemes: tuple[str, ...],
    seeds: tuple[int, ...],
    weights: RewardWeights,
    bundle: WorldModelBundle | None = None,
    policy: Policy | None = None,
    cfg: EvalConfig = EvalConfig(),
) -> list[EpisodeResult]:
    """Evaluate schemes on full oracle days, one scenario seed at a time.

    The always-on and all-sleep references are always evaluated; every result
    set is checked against the sanity envelope before being returned.
    """
    out: list[EpisodeResult] = []
    run = tuple(dict.fromkeys(tuple(schemes) + ("always_on", "all_sleep")))
    for seed in seeds:
        oracle = Oracle(replace(scenario, seed=int(seed)))
        per_seed: dict[str, EpisodeResult] = {}
        for scheme in run:
            env = OracleEnv(
                oracle, weights,
                bundle=bundle if scheme == "agent" else None,
                day=cfg.day, predict_mode=cfg.predict_mode,
            )
            per_seed[scheme] = run_oracle_episode(scheme, env, seed, policy=policy, cfg=cfg)
        _check_envelope(per_seed, weights)
        out.extend(per_seed.values())
    return out


# -- generation metrics ----------------------------------------------------------------


def _wasserstein_1d(u: np.ndarray, v: np.ndarray) -> float:
    """W1 of two 1-D samples: the integral of |F_u - F_v| over their merged sorted values.

    Each CDF is read at the left end of every gap between merged values, and the
    gaps are summed in one ``np.vecdot``; the tests hold this order to a reference
    implementation's bits.
    """
    u, v = np.sort(u), np.sort(v)
    merged = np.sort(np.concatenate((u, v)), kind="mergesort")
    u_cdf = u.searchsorted(merged[:-1], "right") / u.size
    v_cdf = v.searchsorted(merged[:-1], "right") / v.size
    return float(np.vecdot(np.abs(u_cdf - v_cdf), np.diff(merged)))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: Pearson's r of the average ranks; NaN if an input is constant or holds NaN."""
    if not (np.ptp(x) > 0 and np.ptp(y) > 0):  # a NaN spread fails the test too
        return float("nan")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[1, 0])


def _lag1_autocorr(series: np.ndarray) -> float:
    a, b = series[:-1], series[1:]
    if a.std() < 1e-12 or b.std() < 1e-12:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def traffic_generation_metrics(
    model: DiffusionModel,
    scenario: ScenarioConfig,
    task: str,
    n_samples: int,
    history_steps: int = 6,
) -> dict[str, float]:
    """Fidelity of generated traffic against the oracle, normalized by its range.

    ``task`` is ``long_term_generation`` (context-free) or
    ``short_term_prediction`` (the day's first ``history_steps`` windows are
    revealed from a held-out oracle realization and only the tail is scored).
    """
    if task == "long_term_generation":
        revealed = 0
    elif task == "short_term_prediction":
        if not 0 < history_steps < scenario.steps_per_day:
            raise ConfigError(f"history_steps must be in (0, {scenario.steps_per_day})")
        revealed = history_steps
    else:
        raise ConfigError(f"unknown task {task!r}")
    return _score_traffic(model, _traffic_reference(scenario, n_samples), revealed)


def _traffic_reference(scenario: ScenarioConfig, n_samples: int) -> tuple[Oracle, np.ndarray, float]:
    """What generated traffic is scored against: the scenario's oracle, ``n_samples``
    reseeded day draws, (n_samples, n_cells, steps), and the range of the noise-free daily load profile."""
    oracle = Oracle(scenario)
    # Noise-free daily load profile, (n_cells, steps_per_day).
    det_profile = oracle.arrays.capacity_mbps[:, None] * np.clip(
        oracle.hourly_demand[:, ::scenario.traffic_step_hours], 0.0, 1.0
    )
    draws = np.array([Oracle(replace(scenario, seed=1_000_003 + k)).traffic_day(0) for k in range(n_samples)])
    return oracle, draws, float(det_profile.max() - det_profile.min())


def _score_traffic(model: DiffusionModel, reference: tuple[Oracle, np.ndarray, float],
                   revealed: int) -> dict[str, float]:
    """``traffic_generation_metrics`` against a ``_traffic_reference``, with as many samples as it has draws:
    each sampled day's first ``revealed`` windows are the oracle's day 0, and only the rest are scored."""
    oracle, draws, value_range = reference
    n_samples, n_cells, steps = draws.shape
    mean_profile = draws.mean(axis=0)  # empirical, same estimator as the generated side

    rng = np.random.default_rng(np.random.SeedSequence((_TRAFFIC_SAMPLE_SEED, 31)))
    conds = np.repeat(_conditions_traffic(oracle, model.layout), n_samples, axis=0)
    context = np.repeat(oracle.traffic_day(0), n_samples, axis=0) if revealed else None
    gen = _sample_days(model, conds, steps, [revealed], context, [rng])[0]
    gen = np.clip(gen, 0.0, None).reshape(n_cells, n_samples, steps)

    scored = np.arange(steps) >= revealed
    gen_mean = gen.mean(axis=1)
    mae = float(np.abs(gen_mean[:, scored] - mean_profile[:, scored]).mean())
    w1_vals = [
        _wasserstein_1d(gen[c, :, s], draws[:, c, s])
        for c in range(n_cells)
        for s in np.flatnonzero(scored)
    ]
    w1 = float(np.mean(w1_vals))
    # A lag-1 autocorrelation of the scored windows needs at least two pairs of them.
    acf_gap = np.nan if steps - revealed < 3 else float(np.mean([
        abs(
            np.mean([_lag1_autocorr(gen[c, i, revealed:]) for i in range(n_samples)])
            - np.mean([_lag1_autocorr(draws[i, c, revealed:]) for i in range(n_samples)])
        )
        for c in range(n_cells)
    ]))
    # A flat profile has no range: a fraction of it is undefined, like Spearman's rho on a constant input.
    value_range = value_range or np.nan
    return {
        "mae": mae,
        "mae_frac_of_range": mae / value_range,
        "w1": w1,
        "w1_frac_of_range": w1 / value_range,
        "acf_lag1_gap": acf_gap,
    }


def rsrp_controllability(
    model: DiffusionModel,
    tx_range: tuple[float, float],
    freq_range: tuple[float, float],
    dist_range: tuple[float, float],
    grid_points: int = 5,
    replicates: int = 16,
) -> dict[str, float]:
    """Spearman rank checks over a (tx, freq, distance) condition lattice.

    Controllability is judged on axis-marginal means: for each tx level the
    generated RSRP is averaged over every (freq, distance, replicate) cell
    before ranking, and likewise per distance level.
    """
    tx = np.linspace(*tx_range, grid_points)
    freq = np.linspace(*freq_range, grid_points)
    dist = np.linspace(*dist_range, grid_points)
    conds = []
    for a in tx:
        for f in freq:
            for d in dist:
                conds.append(model.layout.normalize_partial(
                    {"tx_power_dbm": a, "carrier_freq_mhz": f, "distance_km": d}
                ))
    conds = np.repeat(np.stack(conds), replicates, axis=0)
    rng = np.random.default_rng(np.random.SeedSequence((_RSRP_SAMPLE_SEED, 37)))
    gen = model.sample(conds, np.ones((conds.shape[0], 1), dtype=bool), None, rng)
    cube = gen.reshape(grid_points, grid_points, grid_points, replicates)
    tx_means = cube.mean(axis=(1, 2, 3))
    dist_means = cube.mean(axis=(0, 1, 3))
    rho_tx = _spearman(tx, tx_means)
    rho_dist = _spearman(dist, dist_means)
    return {"spearman_tx": rho_tx, "spearman_distance": rho_dist}


def generation_metrics(
    bundle: WorldModelBundle,
    scenario: ScenarioConfig,
    n_samples: int,
) -> dict[str, float]:
    """Combined fidelity + controllability report for one bundle and scenario.

    Short-term prediction reveals the day's first 6 windows, or all but the last
    on a day of 7 windows or fewer.
    """
    tx_vals = [c.tx_power_dbm for c in scenario.cell_configs]
    freq_vals = [c.carrier_freq_mhz for c in scenario.cell_configs]
    reference = _traffic_reference(scenario, n_samples)
    scores = {
        f"{prefix}_{key}": value
        for prefix, revealed in (("long", 0), ("short", min(6, scenario.steps_per_day - 1)))
        for key, value in _score_traffic(bundle.traffic, reference, revealed).items()
    }
    ctrl = rsrp_controllability(
        bundle.rsrp,
        tx_range=(min(tx_vals), max(tx_vals)),
        freq_range=(min(freq_vals), max(freq_vals)),
        dist_range=(0.2, 2.4),
    )
    return {**scores, **ctrl}


# -- counterfactual suite ----------------------------------------------------------------


@dataclass
class CounterfactualConfig:
    fractions: tuple[float, ...] = (0.5, 0.6, 0.8)
    lora: LoraSpec = field(default_factory=lambda: LoraSpec(4, 8.0))
    adapt_steps: int = 200
    adapt_days: int = 4
    adapt_lr: float = 2e-3
    retrain_agent: bool = False
    retrain_updates: int = 120


def adapt_traffic_model(
    base: DiffusionModel, oracle_cf: Oracle, cfg: CounterfactualConfig
) -> DiffusionModel:
    """Low-rank adaptation of the traffic head on a small counterfactual rollout.

    The clone keeps the base model's normalization and condition statistics so
    the adapted head stays drop-in compatible with the rest of the bundle.
    """
    clone = DiffusionModel.from_manifest(base.manifest())
    clone.store.assign({name: base.store[name] for name in base.store.names()}, f"{base.kind} head")
    clone.lora_attach(cfg.lora, seed=_ADAPT_SEED)
    cf_sets = ds.collect_dataset(oracle_cf, n_days=cfg.adapt_days, kinds=("traffic",))
    cf = cf_sets["traffic"]
    rng = np.random.default_rng(np.random.SeedSequence((_ADAPT_SEED, 47)))
    clone.train(
        base.stats.normalize(cf.series),
        base.layout.normalize(cf.conditions),
        cf.masks,
        steps=cfg.adapt_steps,
        batch_size=32,
        rng=rng,
        lr=cfg.adapt_lr,
    )
    return clone


def counterfactual_suite(
    scenario: ScenarioConfig,
    bundle: WorldModelBundle,
    policy: Policy,
    seeds: tuple[int, ...],
    weights: RewardWeights,
    cfg: CounterfactualConfig = CounterfactualConfig(),
    eval_cfg: EvalConfig = EvalConfig(),
    agent_cfg: AgentTrainConfig = AgentTrainConfig(),
) -> tuple[list[dict], list[dict]]:
    """Re-run every scheme under scaled-peak scenarios with an adapted twin.

    Returns (episode rows, world-model adaptation rows). The agent is evaluated
    zero-shot with the adapted traffic head supplying its forecasts; when
    ``cfg.retrain_agent`` is set an additionally retrained agent is reported
    under the scheme name ``agent_retrained``.
    """
    episode_rows: list[dict] = []
    wm_rows: list[dict] = []
    for phi in cfg.fractions:
        scen_cf = replace(scenario, counterfactual_peak_fraction=float(phi))
        oracle_cf = Oracle(scen_cf)
        adapted = adapt_traffic_model(bundle.traffic, oracle_cf, cfg)
        reference = _traffic_reference(scen_cf, eval_cfg.n_gen_samples)
        frozen_m = _score_traffic(bundle.traffic, reference, 0)
        adapted_m = _score_traffic(adapted, reference, 0)
        wm_rows.append({
            "peak_fraction": float(phi),
            "mae_frozen": frozen_m["mae"],
            "mae_adapted": adapted_m["mae"],
            "mae_frac_frozen": frozen_m["mae_frac_of_range"],
            "mae_frac_adapted": adapted_m["mae_frac_of_range"],
        })
        bundle_cf = WorldModelBundle(traffic=adapted, users=bundle.users, rsrp=bundle.rsrp)
        results = evaluate_policy(
            scen_cf, SCHEMES, seeds, weights, bundle=bundle_cf, policy=policy, cfg=eval_cfg,
        )
        episode_rows.extend(
            episode_row(r, scenario_name="counterfactual", peak_fraction=float(phi), results=results)
            for r in results
        )
        if cfg.retrain_agent:
            retrained, _ = run_training(
                bundle_cf, oracle_cf, weights,
                config=replace(agent_cfg, updates=cfg.retrain_updates),
            )
            extra = evaluate_policy(
                scen_cf, ("agent",), seeds, weights, bundle=bundle_cf, policy=retrained, cfg=eval_cfg,
            )
            for r in extra:
                if r.policy_id == "agent":
                    row = episode_row(r, "counterfactual", float(phi), extra)
                    row["scheme"] = "agent_retrained"
                    episode_rows.append(row)
    return episode_rows, wm_rows


# -- report assembly -----------------------------------------------------------------


def episode_row(
    result: EpisodeResult,
    scenario_name: str,
    peak_fraction: float | None,
    results: list[EpisodeResult],
) -> dict:
    """Flatten one episode against its same-seed always-on reference."""
    ref = next(
        (r for r in results if r.policy_id == "always_on"
         and r.seed == result.seed and r.environment == result.environment),
        None,
    )
    saved = float("nan")
    delta = float("nan")
    if ref is not None and ref.total_energy_wh > 0:
        saved = 100.0 * (ref.total_energy_wh - result.total_energy_wh) / ref.total_energy_wh
        delta = result.mean_rsrp_dbm - ref.mean_rsrp_dbm
    return {
        "scheme": result.policy_id,
        "scenario": scenario_name,
        "peak_fraction": float("nan") if peak_fraction is None else peak_fraction,
        "seed": result.seed,
        "environment": result.environment,
        "utility": result.utility,
        "energy_wh": result.total_energy_wh,
        "energy_saved_pct": saved,
        "rsrp_avg_dbm": result.mean_rsrp_dbm,
        "rsrp_delta_db": delta,
        "dropped_rate": result.mean_dropped_rate,
    }


def _format_value(value) -> str:
    if isinstance(value, (float, np.floating)):  # repr of a NumPy float is "np.float64(...)"
        return repr(float(value))
    return str(value)


def write_rows_csv(rows: list[dict], path: str, columns: tuple[str, ...] = REPORT_COLUMNS) -> None:
    """Deterministic CSV: fixed column order, shortest-roundtrip float text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row.get(c, "")) for c in columns) + "\n")


def read_rows_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            for key in row:
                if key not in ("scheme", "scenario", "environment"):
                    try:
                        row[key] = float(row[key])
                    except ValueError:
                        pass
            rows.append(row)
    return rows


def write_manifest(manifest: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
