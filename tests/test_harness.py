import concurrent.futures
import inspect
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from celltwin.agent import Action, Policy, Observation, RewardWeights, compute_reward, sleep_below
from celltwin.dataset import COND_DIM, ConditionLayout, collect_dataset, hour_features, users_conditions
from celltwin import harness
from celltwin.errors import ConfigError, DomainError, EnvelopeError, ShapeError
from celltwin.harness import (
    AgentTrainConfig,
    CounterfactualConfig,
    EvalConfig,
    EpisodeResult,
    OracleEnv,
    WMTrainConfig,
    WorldModelBundle,
    WorldModelEnv,
    WorldModelEnvConfig,
    _conditions_rsrp_table,
    _forecast,
    _spearman,
    _traffic_reference,
    _wasserstein_1d,
    counterfactual_suite,
    episode_row,
    evaluate_policy,
    generation_metrics,
    neighbor_groups,
    neighbor_mean,
    read_rows_csv,
    rsrp_controllability,
    run_training,
    run_wm_episodes,
    traffic_generation_metrics,
    write_manifest,
    write_rows_csv,
)
from celltwin.scenario import NetworkState, Oracle, cell_power_watts, make_hex_scenario

WEIGHTS = RewardWeights()


def always_on(n_cells: int, episodes: int = 1) -> Action:
    """Every cell awake, in each of `episodes` lockstep episodes."""
    return sleep_below(np.zeros((episodes, n_cells)), -np.inf, 3.0)


def all_sleep(n_cells: int, episodes: int = 1) -> Action:
    """Every cell asleep granting 3 dB, in each of `episodes` lockstep episodes."""
    return sleep_below(np.zeros((episodes, n_cells)), np.inf, 3.0)


# -- the per-episode world-model step that lockstep episodes replaced, kept as the reference --


def reference_associate_users(rsrp_matrix, sleep_mask, bias_db, rsrp_floor_dbm):
    n_users = rsrp_matrix.shape[0]
    active = ~np.asarray(sleep_mask, dtype=bool)
    if n_users == 0 or not active.any():
        return np.full(n_users, -1, dtype=np.int64)
    biased = rsrp_matrix + np.asarray(bias_db, dtype=float)[None, :]
    biased = np.where(active[None, :], biased, -np.inf)
    best = np.argmax(biased, axis=1)
    return np.where(rsrp_matrix[np.arange(n_users), best] >= rsrp_floor_dbm, best, -1)


def reference_step_physics(cells, native_mbps, sleep, natural, serving, weight, served):
    load = np.where(sleep, 0.0, native_mbps)
    attached = natural >= 0
    total_weight = np.bincount(natural[attached], weights=weight[attached], minlength=len(native_mbps))
    for c in np.flatnonzero(sleep):
        if total_weight[c] <= 0 or native_mbps[c] < np.finfo(float).tiny:
            continue
        moved = (natural == c) & (serving >= 0)
        share = native_mbps[c] * weight[moved] * served[moved] / total_weight[c]
        np.add.at(load, serving[moved], share)
    load[sleep] = 0.0
    overload = np.maximum(load - cells.capacity_mbps, 0.0)
    load = np.minimum(load, cells.capacity_mbps)
    power = cell_power_watts(cells, load / cells.capacity_mbps, sleep)
    reference = cell_power_watts(cells, np.minimum(native_mbps / cells.capacity_mbps, 1.0), False)
    return load, overload, power, sum(reference.tolist())


def reference_serve(cells, native_mbps, natural, attach, draws, weight, rsrp_floor_dbm, sleep, bias_db):
    serving = reference_associate_users(attach, sleep, bias_db, -np.inf)
    drawn = draws[np.arange(len(serving)), serving]
    above = (drawn >= rsrp_floor_dbm) & (serving >= 0)[:, None]
    share = above.mean(axis=1)
    load, overload, power, reference = reference_step_physics(
        cells, native_mbps, sleep, natural, serving, weight, share)
    served = share > 0
    return NetworkState(
        per_cell_load_mbps=load,
        per_cell_overload_mbps=overload,
        per_cell_power_watts=power,
        reference_power_watts=reference,
        serving_cell=np.where(served, serving, -1),
        per_user_rsrp_dbm=np.where(
            served, np.where(above, drawn, 0.0).sum(axis=1) / np.maximum(above.sum(axis=1), 1), np.nan
        ),
        served_users=weight * share,
        total_users=int(weight.sum()),
    )


def reference_wm_episode(env, policy, rng):
    """One world-model day drawn and stepped alone, as `WorldModelEnv` did one episode at a time:
    (observations, choices, rewards, energy, RSRP average, dropped rate), one row per step."""
    oracle, clock = env.oracle, env.oracle.config
    capacity, n = oracle.arrays.capacity_mbps, oracle.n_cells
    day = env.traffic_pool[rng.integers(0, len(env.traffic_pool))]
    users_day = env.users_pool[rng.integers(0, len(env.users_pool))]
    table = env.rsrp_pool[rng.integers(0, len(env.rsrp_pool))]
    table_mean = table.mean(axis=2)
    natural = reference_associate_users(table_mean, np.zeros(n, dtype=bool), np.zeros(n), -np.inf)
    rows = []
    for d in range(clock.steps_per_day):
        nxt = min(d + 1, clock.steps_per_day - 1)
        pred = day[:, nxt] / capacity
        users = users_day[:, clock.user_column(nxt)]
        hour = hour_features(clock.hour(0, d))
        vec = np.concatenate([
            day[:, d] / capacity, pred,
            np.bincount(oracle.nearest_cell, weights=users, minlength=n) / env.users_scale,
            [pred[list(nbs)].mean() for nbs in oracle.neighbors], [hour["hour_sin"], hour["hour_cos"]],
        ])
        probs, _ = policy.distribution(vec)
        u = rng.random(n)
        choices = (u[:, None] > np.cumsum(probs[0], axis=1)).sum(axis=1)
        sleep = choices > 0
        level = np.zeros(n)
        level[sleep] = np.asarray(policy.bias_levels)[choices[sleep] - 1]
        bias = np.zeros(n)
        for c in np.flatnonzero(sleep):
            for nb in oracle.neighbors[c]:
                bias[nb] += level[c]
        state = reference_serve(oracle.arrays, day[:, d], natural, table_mean, table,
                                users_day[:, clock.user_column(d)], clock.rsrp_floor_dbm, sleep, bias)
        hours = clock.traffic_step_hours
        energy, rsrp = state.energy_wh(hours), state.rsrp_avg_dbm
        reward = compute_reward(energy, state.reference_power_watts * hours, rsrp, state.dropped_users,
                                state.total_users, WEIGHTS)
        rows.append((vec, choices, reward, energy, rsrp, state.dropped_users / max(state.total_users, 1)))
    return [np.array(column) for column in zip(*rows)]


def reference_short_term_forecast(env, d):
    """Step d's short-term forecast as `OracleEnv` sampled it at each step, (traffic, users): one
    `sample()` call per head, revealing the windows up to and including step d, traffic first, from
    the generator keyed (PREDICT_SEED, scenario seed, day, d)."""
    oracle, clock, bundle = env.oracle, env.oracle.config, env.bundle
    rng = np.random.default_rng(np.random.SeedSequence((harness.PREDICT_SEED, clock.seed, env.day, d)))
    heads = (
        (bundle.traffic, harness._conditions_traffic(oracle, bundle.traffic.layout),
         oracle.traffic_day(env.day), d + 1),
        (bundle.users, bundle.users.layout.normalize(users_conditions(oracle)),
         oracle.users_day(env.day), clock.user_column(d + 1)),
    )
    days = []
    for head, cond, realised, revealed in heads:
        if revealed >= realised.shape[1]:
            days.append(realised)
            continue
        mask = np.zeros(realised.shape, dtype=bool)
        mask[:, revealed:] = True
        days.append(head.sample(cond, mask, realised, rng))
    return np.clip(days[0], 0.0, oracle.arrays.capacity_mbps[:, None]), np.rint(np.clip(days[1], 0.0, None))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class _FillHead:
    """Stands in for a trained head: every value it generates is `fill`; context it keeps, as
    inpainting does."""

    layout = ConditionLayout(mean=np.zeros(COND_DIM), std=np.ones(COND_DIM))

    def __init__(self, fill: float):
        self.fill = fill

    def sample(self, cond, mask, context, rng, guidance_w=None):
        return np.where(mask, self.fill, 0.0 if context is None else context)


ZERO_BUNDLE = WorldModelBundle(traffic=_FillHead(0.0), users=_FillHead(0.0), rsrp=_FillHead(0.0))
NAN_BUNDLE = WorldModelBundle(traffic=_FillHead(np.nan), users=_FillHead(np.nan), rsrp=_FillHead(np.nan))
# A 24-hour step leaves one window a day, which validate_scenario rejects.
DAY_DIVISORS = (1, 2, 3, 4, 6, 8, 12)


@pytest.fixture(scope="module")
def scenario():
    return make_hex_scenario(seed=0, horizon_hours=480)


@pytest.fixture(scope="module")
def oracle(scenario):
    return Oracle(scenario)


@pytest.fixture(scope="module")
def bundle(oracle):
    datasets = collect_dataset(oracle, n_days=6)
    bundle, _ = WorldModelBundle.train_from_datasets(datasets, WMTrainConfig(train_steps=600))
    return bundle


@pytest.fixture(scope="module")
def env_config():
    return WorldModelEnvConfig(day_pool=6, rsrp_pool=3, rsrp_draws=3)


class TestWorldModelEnv:
    def test_observation_matches_policy_contract(self, bundle, oracle, env_config):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        obs = env.reset([np.random.default_rng(0), np.random.default_rng(1)])
        assert obs.vector().shape == (2, Observation.dim(oracle.n_cells))

    def test_deterministic_given_seed(self, bundle, oracle, env_config):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        action = always_on(oracle.n_cells)

        def run():
            obs = env.reset([np.random.default_rng(7)])
            rewards = []
            done = False
            while not done:
                _, r, done, _ = env.step(action)
                rewards.append(r)
            return np.array(rewards)

        assert np.array_equal(run(), run())

    def test_sleep_saves_energy(self, bundle, oracle, env_config):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        env.reset([np.random.default_rng(1)])
        _, _, _, info_active = env.step(always_on(oracle.n_cells))
        env.reset([np.random.default_rng(1)])
        _, _, _, info_sleep = env.step(all_sleep(oracle.n_cells))
        assert info_sleep["energy_wh"][0] < info_active["energy_wh"][0]

    @pytest.mark.parametrize("make_action", [always_on, all_sleep])
    def test_mirrors_oracle_on_its_realised_day(self, bundle, oracle, env_config, make_action):
        # Feed the twin the oracle's day 1: native traffic, users per grid and
        # one RSRP draw per (grid, cell) at the grid centre.
        oracle_env = OracleEnv(oracle, WEIGHTS, day=1)
        centres = np.array([g.position for g in oracle.config.grids])
        rsrp = oracle.rsrp_matrix(centres, np.zeros((oracle.n_grids, oracle.n_cells)))
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        env.traffic_pool, env.users_pool = oracle.traffic_day(1)[None], oracle.users_day(1)[None]
        env.rsrp_pool = rsrp[None, :, :, None]
        env.reset([np.random.default_rng(0)])
        oracle_env.reset()
        action = make_action(oracle.n_cells)
        for _ in range(env.steps_per_episode):
            _, _, _, twin = env.step(action)
            _, _, _, truth = oracle_env.step(action)
            for key in ("energy_wh", "reference_energy_wh", "total_users"):
                assert np.array_equal(twin[key], truth[key])

    def test_user_column_follows_the_hour(self, env_config):
        # 2-hour traffic steps over 3-hour user steps: step k reads the user window holding hour 2k.
        oracle = Oracle(make_hex_scenario(seed=0, grid_dim=3, horizon_hours=48,
                                                  traffic_step_hours=2, user_step_hours=3))
        env = WorldModelEnv(ZERO_BUNDLE, oracle, WEIGHTS, env_config)
        env.traffic_pool, env.users_pool = oracle.traffic_day(1)[None], oracle.users_day(1)[None]
        env.reset([np.random.default_rng(0)])
        for k in range(12):
            _, _, _, info = env.step(always_on(oracle.n_cells))
            assert info["total_users"] == [sum(oracle.users_at(g, 24 + 2 * k) for g in range(oracle.n_grids))]

    def test_episode_tagged_as_worldmodel(self, bundle, oracle, env_config):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        policy = Policy(oracle.n_cells, seed=1)
        _, _, (rewards,), (result,) = run_wm_episodes(env, policy, [np.random.default_rng(2)])
        assert result.environment == "worldmodel"
        assert len(rewards) == env.steps_per_episode
        assert np.isfinite(rewards).all()

    @pytest.mark.parametrize("episodes", [1, 2, 6, 7])
    def test_lockstep_episodes_have_the_bits_of_separate_ones(self, bundle, oracle, env_config, episodes):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        policy = Policy(oracle.n_cells, seed=5)
        seeds = [np.random.SeedSequence((3, 9, 1, e)) for e in range(episodes)]
        observations, choice_rows, reward_rows, results = run_wm_episodes(
            env, policy, [np.random.default_rng(s) for s in seeds])
        assert len(observations) == len(choice_rows) == len(reward_rows) == len(results) == episodes
        sleeping = dropped = 0
        for got_obs, got_choices, got_rewards, result, seed in zip(
                observations, choice_rows, reward_rows, results, seeds):
            obs, choices, rewards, energy, rsrp, dropped_rate = reference_wm_episode(
                env, policy, np.random.default_rng(seed))
            for got, want in ((got_obs, obs), (got_choices, choices), (got_rewards, rewards),
                              (result.rewards, rewards), (result.energy_wh, energy),
                              (result.rsrp_avg_dbm, rsrp), (result.dropped_rate, dropped_rate)):
                assert_same_bits(got, want)
            sleeping += int((choices > 0).sum())
            dropped += int((dropped_rate > 0).sum())
        # The episodes did what the comparison needs: cells slept and users were dropped.
        assert sleeping > 0 and dropped > 0

    @pytest.mark.parametrize("scheme", ["always_on", "all_sleep", "empirical", "agent"])
    def test_actors_run_lockstep_episodes_with_the_bits_of_separate_ones(self, bundle, oracle, env_config, scheme):
        env = WorldModelEnv(bundle, oracle, WEIGHTS, env_config)
        policy = Policy(oracle.n_cells, seed=5)
        cfg = EvalConfig(tau=0.4)
        seeds = [np.random.SeedSequence((4, e)) for e in range(3)]
        sleeps = []

        def act(obs):
            action = actor(obs)
            sleeps.append(action.sleep)
            return action

        actor = harness._actor(scheme, env, policy, cfg)
        together = harness._rollout(env, act, scheme, 7, [np.random.default_rng(s) for s in seeds])
        assert len(together) == 3 and len({r.rewards.tobytes() for r in together}) == 3
        for got, seed in zip(together, seeds):
            (alone,) = harness._rollout(env, harness._actor(scheme, env, policy, cfg), scheme, 7,
                                        [np.random.default_rng(seed)])
            assert (got.policy_id, got.environment, got.seed) == (scheme, "worldmodel", 7)
            for name in ("energy_wh", "rsrp_avg_dbm", "dropped_rate", "rewards"):
                assert_same_bits(getattr(got, name), getattr(alone, name))
        sleeps = np.array(sleeps)
        assert sleeps.shape == (env.steps_per_episode, 3, oracle.n_cells)
        if scheme in ("always_on", "all_sleep"):
            assert (sleeps == (scheme == "all_sleep")).all()
        if scheme == "empirical":
            assert sleeps.any() and not sleeps.all()

    def test_steps_only_inside_an_episode(self, oracle, env_config):
        env = WorldModelEnv(ZERO_BUNDLE, oracle, WEIGHTS, env_config)
        action = always_on(oracle.n_cells, 2)
        with pytest.raises(DomainError, match="before reset"):
            env.step(action)
        env.reset([np.random.default_rng(0), np.random.default_rng(1)])
        with pytest.raises(ShapeError, match="2 episodes"):
            env.step(always_on(oracle.n_cells, 3))
        for _ in range(env.steps_per_episode):
            env.step(action)
        with pytest.raises(DomainError, match="after the day ended"):
            env.step(action)

    @pytest.mark.parametrize("draws", [1, 3])
    def test_rsrp_table_matches_per_link_loop(self, oracle, draws):
        # Reference: one row per (grid, cell, draw), every field written at its position.
        rng = np.random.default_rng(7)
        edge = oracle.grid_edge_km
        angle = 2.0 * np.pi * 12 / 24.0
        rows = []
        for grid in oracle.config.grids:
            for cell in oracle.cells:
                for _ in range(draws):
                    pos = np.array(grid.position)
                    if draws > 1:
                        pos = pos + rng.uniform(-edge / 2, edge / 2, size=2)
                    dist = float(np.linalg.norm(pos - np.array(cell.position)))
                    rows.append([0.0, 0.0, 0.0, 0.0, np.sin(angle), np.cos(angle), 0.5, 0.0, 0.0,
                                 cell.tx_power_dbm, cell.carrier_freq_mhz, dist, 0.3])
        layout = ConditionLayout(mean=np.zeros(COND_DIM), std=np.full(COND_DIM, 1e4))  # no clipping
        table = _conditions_rsrp_table(oracle, layout, draws, np.random.default_rng(7))
        assert np.array_equal(table, layout.normalize(np.array(rows)))


@st.composite
def _neighbor_tables(draw):
    """Values per cell and, per cell, 1-20 neighbour ids (repeats allowed, as the ids are only read)."""
    n = draw(st.integers(1, 30))
    values = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    neighbors = tuple(tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20)))
                      for _ in range(n))
    return values, neighbors


class TestNeighborMean:
    @settings(max_examples=200, deadline=None)
    @given(_neighbor_tables())
    def test_bits_of_one_mean_per_cell(self, table):
        values, neighbors = table
        want = np.array([values[list(nbs)].mean() for nbs in neighbors])
        got = neighbor_mean(values, neighbor_groups(neighbors))
        assert np.array_equal(got, want)


class TestRunTraining:
    def test_curve_length_and_determinism(self, bundle, oracle, env_config):
        cfg = AgentTrainConfig(updates=5, episodes_per_update=2, seed=4, env=env_config)
        p1, c1 = run_training(bundle, oracle, WEIGHTS, cfg)
        p2, c2 = run_training(bundle, oracle, WEIGHTS, cfg)
        assert len(c1) == 5
        assert c1 == c2
        for name in p1.store.names():
            assert np.array_equal(p1.store[name], p2.store[name])


class TestOracleEvaluation:
    def test_always_on_energy_matches_reference(self, scenario, oracle):
        env = OracleEnv(oracle, WEIGHTS, day=1)
        result = None
        results = evaluate_policy(scenario, ("always_on",), (0,), WEIGHTS)
        result = next(r for r in results if r.policy_id == "always_on")
        # Always-on serves native loads, so its energy equals the reference.
        env.reset()
        _, _, _, info = env.step(always_on(oracle.n_cells))
        assert info["energy_wh"] == pytest.approx(info["reference_energy_wh"])
        assert result.environment == "oracle"

    def test_steps_only_inside_the_day(self):
        # Day 1 of a four-day horizon: a 13th step would read day 2's hours.
        oracle = Oracle(make_hex_scenario(seed=0, horizon_hours=96))
        env = OracleEnv(oracle, WEIGHTS, day=1)
        action = always_on(oracle.n_cells)
        with pytest.raises(DomainError, match="before reset"):
            env.step(action)
        env.reset()
        for _ in range(env.steps_per_episode):
            env.step(action)
        for _ in range(2):
            with pytest.raises(DomainError, match="after the day ended"):
                env.step(action)

    def test_all_sleep_degenerate(self, scenario):
        results = evaluate_policy(scenario, ("all_sleep",), (0,), WEIGHTS)
        result = next(r for r in results if r.policy_id == "all_sleep")
        assert result.mean_dropped_rate == 1.0
        assert np.isnan(result.rsrp_avg_dbm).all()

    def test_deterministic_repeat(self, scenario):
        a = evaluate_policy(scenario, ("greedy",), (1,), WEIGHTS)
        b = evaluate_policy(scenario, ("greedy",), (1,), WEIGHTS)
        ra = next(r for r in a if r.policy_id == "greedy")
        rb = next(r for r in b if r.policy_id == "greedy")
        assert np.array_equal(ra.rewards, rb.rewards)
        assert np.array_equal(ra.energy_wh, rb.energy_wh)

    @staticmethod
    def _count_users_at(monkeypatch) -> dict[str, int]:
        """Count Oracle.users_at calls made inside and outside step_network from now on."""
        from celltwin.scenario import Oracle

        depth, calls = [0], {"inside": 0, "outside": 0}
        users_at, step_network = Oracle.users_at, Oracle.step_network

        def counted_users_at(self, *args):
            calls["inside" if depth[0] else "outside"] += 1
            return users_at(self, *args)

        def nested_step_network(self, *args, **kwargs):
            depth[0] += 1
            try:
                return step_network(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(Oracle, "users_at", counted_users_at)
        monkeypatch.setattr(Oracle, "step_network", nested_step_network)
        return calls

    @pytest.mark.parametrize("scheme", ["empirical", "custom", "greedy"])
    def test_rule_scheme_reads_users_only_in_step_network(self, scenario, scheme, monkeypatch):
        from celltwin.harness import run_oracle_episode

        # A fresh oracle: one that stepped day 1 before holds its draws and reads no users.
        oracle = Oracle(scenario)
        calls = self._count_users_at(monkeypatch)
        run_oracle_episode(scheme, OracleEnv(oracle, WEIGHTS, day=1), 0)
        assert calls["inside"] > 0 and calls["outside"] == 0

    def test_custom_actor_sleeps_below_each_cells_previous_day_percentile(self, oracle):
        env = OracleEnv(oracle, WEIGHTS, day=2)
        act = harness._actor("custom", env, None, EvalConfig(percentile=40.0))
        previous = oracle.traffic_day(1) / oracle.arrays.capacity_mbps[:, None]
        tau = [np.percentile(previous[c], 40.0) for c in range(oracle.n_cells)]
        obs, slept = env.reset(), []
        while obs is not None:
            action = act(obs)
            assert action.sleep.tolist() == [[load < t for load, t in zip(obs.load_frac[0], tau)]]
            slept.append(action.sleep[0])
            obs = env.step(action)[0]
        assert np.any(slept) and not np.all(slept)

    def test_greedy_looks_up_the_module_baseline_greedy_at_every_step(self, oracle, monkeypatch):
        # A benchmark times greedy by patching harness.baseline_greedy.
        calls, greedy = [], harness.baseline_greedy
        monkeypatch.setattr(harness, "baseline_greedy",
                            lambda *args, **kwargs: calls.append(1) or greedy(*args, **kwargs))
        env = OracleEnv(oracle, WEIGHTS, day=1)
        harness.run_oracle_episode("greedy", env, 0)
        assert len(calls) == env.steps_per_episode

    def test_evaluate_policy_runs_one_episode_per_seed_and_scheme(self, scenario, monkeypatch):
        # A benchmark times each scheme by patching harness.run_oracle_episode and reading its first argument.
        calls, run = [], harness.run_oracle_episode

        def recording(*args, **kwargs):
            bound = inspect.signature(run).bind(*args, **kwargs).arguments
            calls.append((args[:1], bound["seed"]))
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "run_oracle_episode", recording)
        evaluate_policy(scenario, ("custom", "empirical"), (0, 1), WEIGHTS)
        schemes = ("custom", "empirical", "always_on", "all_sleep")
        assert calls == [((scheme,), seed) for seed in (0, 1) for scheme in schemes]

    def _evaluate_counting_users_at(self, scenario, monkeypatch, mode) -> dict[str, int]:
        from celltwin.harness import SCHEMES

        policy = Policy(len(scenario.cell_configs), seed=2)
        calls = self._count_users_at(monkeypatch)
        results = evaluate_policy(scenario, SCHEMES, (3,), WEIGHTS, bundle=ZERO_BUNDLE, policy=policy,
                                  cfg=EvalConfig(predict_mode=mode))
        assert sorted(r.policy_id for r in results) == sorted(SCHEMES)
        return calls

    def test_every_scheme_of_a_seed_shares_one_draw_per_step(self, scenario, monkeypatch):
        calls = self._evaluate_counting_users_at(scenario, monkeypatch, "short_term")
        # Short-term resets read the users day once, and every step of six schemes and
        # greedy's n_cells candidates per step takes its counts from that read.
        assert calls == {"inside": 0, "outside": len(scenario.grids) * scenario.user_steps_per_day}

    def test_every_scheme_of_a_long_term_seed_shares_one_draw_per_step(self, scenario, monkeypatch):
        calls = self._evaluate_counting_users_at(scenario, monkeypatch, "long_term")
        # No users day is read: six schemes and greedy's n_cells candidates per step reuse one draw per t.
        assert calls == {"inside": len(scenario.grids) * scenario.steps_per_day, "outside": 0}

    def test_agent_scheme_requires_policy(self, scenario):
        with pytest.raises(ConfigError, match="policy"):
            evaluate_policy(scenario, ("agent",), (0,), WEIGHTS)

    def test_short_term_forecasts_equal_one_sample_call_per_step(self, oracle, bundle):
        env = OracleEnv(oracle, WEIGHTS, bundle=bundle, day=2, predict_mode="short_term")
        obs = env.reset()
        action = always_on(oracle.n_cells)
        for d in range(env.steps_per_episode):
            traffic, users = reference_short_term_forecast(env, d)
            assert_same_bits(env._forecasts[0][d, 0], traffic)
            assert_same_bits(env._forecasts[1][d, 0], users)
            want = env._observe(d, env.current_load_fraction()[None], traffic[None], users[None])
            assert_same_bits(obs.vector(), want.vector())
            obs = env.step(action)[0]
        assert obs is None

    def test_short_term_jobs_equal_a_sequential_run(self, scenario, bundle, tmp_path):
        from celltwin.cli import _evaluate_one_seed

        policy = Policy(len(scenario.cell_configs), seed=2)
        cfg = EvalConfig(schemes=("agent", "empirical"), predict_mode="short_term")
        payloads = [(scenario, cfg.schemes, seed, WEIGHTS, bundle, policy, cfg) for seed in (0, 1)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            parallel = list(pool.map(_evaluate_one_seed, payloads))
        for name, per_seed in (("sequential", [_evaluate_one_seed(p) for p in payloads]), ("parallel", parallel)):
            write_rows_csv([row for rows in per_seed for row in rows], str(tmp_path / f"{name}.csv"))
        assert (tmp_path / "sequential.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()

    def test_short_term_predictions_exercised(self, scenario, oracle, bundle):
        policy = Policy(oracle.n_cells, seed=2)
        results = evaluate_policy(
            scenario, ("agent",), (0,), WEIGHTS, bundle=bundle, policy=policy,
            cfg=EvalConfig(predict_mode="short_term"),
        )
        agent = next(r for r in results if r.policy_id == "agent")
        assert np.isfinite(agent.rewards).all()

    @staticmethod
    def _envelope_results(cheater_energy_wh, cheater_rsrp_dbm):
        """Always-on at 1000 Wh and -100 dBm, all-sleep at 500 Wh dropping everyone."""
        def result(name, energy, rsrp, dropped):
            return EpisodeResult(policy_id=name, environment="oracle", seed=0,
                                 energy_wh=np.full(12, energy), rsrp_avg_dbm=np.full(12, rsrp),
                                 dropped_rate=np.full(12, dropped), rewards=np.zeros(12))

        return {
            "always_on": result("always_on", 1000.0, -100.0, 0.0),
            "all_sleep": result("all_sleep", 500.0, np.nan, 1.0),
            "cheater": result("cheater", cheater_energy_wh, cheater_rsrp_dbm, 0.0),
        }

    def test_envelope_violation_detected(self):
        from celltwin.harness import _check_envelope

        with pytest.raises(EnvelopeError, match="all-sleep"):
            _check_envelope(self._envelope_results(100.0, -100.0), WEIGHTS)

    def test_coverage_envelope_violation_detected(self):
        from celltwin.harness import _check_envelope

        _check_envelope(self._envelope_results(800.0, -100.0), WEIGHTS)
        with pytest.raises(EnvelopeError, match="always-on"):
            _check_envelope(self._envelope_results(800.0, -90.0), WEIGHTS)


class TestDayClock:
    """Every reader of the day clock agrees with plain hour arithmetic, for any pair of steps."""

    @pytest.mark.parametrize("traffic_step", DAY_DIVISORS)
    @pytest.mark.parametrize("user_step", DAY_DIVISORS)
    def test_day_reads_user_columns_and_revealed_split(self, traffic_step, user_step, env_config):
        oracle = Oracle(make_hex_scenario(seed=5, grid_dim=2, horizon_hours=48,
                                                  traffic_step_hours=traffic_step, user_step_hours=user_step))
        steps, user_steps = 24 // traffic_step, 24 // user_step
        traffic, users = oracle.traffic_day(1), oracle.users_day(1)
        assert traffic.shape == (7, steps) and users.shape == (4, user_steps)
        for c, cell in enumerate(oracle.cells):
            assert traffic[c].tolist() == [oracle.traffic_at(cell.id, 24 + k * traffic_step) for k in range(steps)]
        for g in range(4):
            assert users[g].tolist() == [oracle.users_at(g, 24 + j * user_step) for j in range(user_steps)]

        # Both environments count, at step k, the users of the hour 24 + k * traffic_step.
        twin = WorldModelEnv(ZERO_BUNDLE, oracle, WEIGHTS, env_config)
        twin.traffic_pool, twin.users_pool = traffic[None], users[None]
        twin.reset([np.random.default_rng(0)])
        truth = OracleEnv(oracle, WEIGHTS, day=1)
        truth.reset()
        action = always_on(7)
        for k in range(steps):
            want = sum(oracle.users_at(g, 24 + k * traffic_step) for g in range(4))
            assert twin.step(action)[3]["total_users"] == want
            assert truth.step(action)[3]["total_users"] == want

        # r revealed traffic windows reveal the user windows that end by hour r * traffic_step.
        revealed = range(steps + 1)
        rngs = [np.random.default_rng(r) for r in revealed]
        got_t, got_u = _forecast(NAN_BUNDLE, oracle, 1, rngs, revealed, (traffic, users))
        for r in revealed:
            shown_u = np.array([(j + 1) * user_step <= r * traffic_step for j in range(user_steps)])
            assert np.array_equal(got_t[r, 0][:, :r], traffic[:, :r]) and np.isnan(got_t[r, 0][:, r:]).all()
            assert np.array_equal(got_u[r, 0][:, shown_u], users[:, shown_u]) and np.isnan(got_u[r, 0][:, ~shown_u]).all()


class TestGenerationMetrics:
    def test_oracle_against_itself_is_zero(self, scenario, monkeypatch):
        draws = _traffic_reference(scenario, 16)[1]
        assert draws.shape == (16, 7, scenario.steps_per_day)

        class EchoModel:
            layout = None

            def sample(self, conds, masks, contexts, rng, guidance_w=None):
                return np.concatenate([draws[:, c, :] for c in range(draws.shape[1])])

        import celltwin.harness as hz

        monkeypatch.setattr(hz, "_conditions_traffic", lambda o, lay: np.zeros((7, COND_DIM)))
        metrics = traffic_generation_metrics(EchoModel(), scenario, "long_term_generation", 16)
        assert metrics["mae"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["w1"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["acf_lag1_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_monotone_fake_head_gives_unit_spearman(self):
        # Wide stats keep the normalized grid inside the +-5 clip.
        layout = ConditionLayout(mean=np.zeros(COND_DIM), std=np.full(COND_DIM, 1000.0))
        tx_slice = ConditionLayout.field_slice("tx_power_dbm")
        dist_slice = ConditionLayout.field_slice("distance_km")

        class LinearHead:
            def __init__(self):
                self.layout = layout

            def sample(self, conds, masks, contexts, rng, guidance_w=None):
                return (conds[:, tx_slice] - 25.0 * conds[:, dist_slice])

        metrics = rsrp_controllability(LinearHead(), (10, 13), (700, 3500), (0.2, 2.4))
        assert metrics["spearman_tx"] == pytest.approx(1.0)
        assert metrics["spearman_distance"] == pytest.approx(-1.0)

    def test_trained_model_beats_untrained(self, scenario, oracle, bundle):
        datasets = collect_dataset(oracle, n_days=6)
        fresh, _ = WorldModelBundle.train_from_datasets(datasets, WMTrainConfig(train_steps=1))
        trained = traffic_generation_metrics(bundle.traffic, scenario, "long_term_generation", 16)
        untrained = traffic_generation_metrics(fresh.traffic, scenario, "long_term_generation", 16)
        assert trained["mae"] < untrained["mae"]

    def test_short_term_scores_only_masked_tail(self, scenario, bundle):
        metrics = traffic_generation_metrics(
            bundle.traffic, scenario, "short_term_prediction", 8, history_steps=6
        )
        assert metrics["task"] == "short_term_prediction"
        assert np.isfinite(metrics["mae"])

    def test_unknown_task_rejected(self, scenario, bundle):
        with pytest.raises(ConfigError):
            traffic_generation_metrics(bundle.traffic, scenario, "imputation", 4)

    @staticmethod
    def reseeded_builds(monkeypatch) -> list:
        """Records the seed of every reseeded scenario the harness builds: reference draws use seeds from 1_000_003."""
        seeds, build = [], harness.Oracle

        def recording(scen):
            if scen.seed >= 1_000_003:
                seeds.append(scen.seed)
            return build(scen)

        monkeypatch.setattr(harness, "Oracle", recording)
        return seeds

    def test_generation_metrics_draws_its_reference_once(self, monkeypatch):
        built = self.reseeded_builds(monkeypatch)
        generation_metrics(ZERO_BUNDLE, make_hex_scenario(seed=0, grid_dim=2, horizon_hours=48), 5)
        assert len(built) == 5

    @pytest.mark.parametrize("eval_cfg, draws", [(EvalConfig(), 48), (EvalConfig(n_gen_samples=5), 5)])
    def test_counterfactual_fraction_draws_its_reference_once(self, monkeypatch, eval_cfg, draws):
        # The reference holds evaluation.n_gen_samples draws, as generation_metrics' does.
        monkeypatch.setattr(harness, "adapt_traffic_model", lambda base, oracle_cf, cfg: base)
        monkeypatch.setattr(harness, "evaluate_policy", lambda *args, **kwargs: [])
        built = self.reseeded_builds(monkeypatch)
        counterfactual_suite(make_hex_scenario(seed=0, grid_dim=2, horizon_hours=48), ZERO_BUNDLE, None, (0,),
                             WEIGHTS, CounterfactualConfig(fractions=(0.6,)), eval_cfg)
        assert len(built) == draws

    def test_metrics_load_no_scipy(self, child_env):
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from celltwin.dataset import COND_DIM, ConditionLayout, NormalizationStats
            from celltwin.diffusion import DenoiserArch, DiffusionModel, NoiseSchedule
            from celltwin.harness import rsrp_controllability, traffic_generation_metrics
            from celltwin.scenario import make_hex_scenario

            scenario = make_hex_scenario(seed=0, grid_dim=2, horizon_hours=48)
            layout = ConditionLayout(np.zeros(COND_DIM), np.ones(COND_DIM))
            heads = {
                kind: DiffusionModel(kind, DenoiserArch(series_len=n, cond_emb_dim=2, time_dim=2,
                                                        expert_hidden=(4,), gate_hidden=(4,)),
                                     NoiseSchedule(2, 1e-4, 0.02), NormalizationStats(0.0, 1.0), layout)
                for kind, n in (("traffic", scenario.steps_per_day), ("rsrp", 1))
            }
            for task in ("long_term_generation", "short_term_prediction"):
                traffic_generation_metrics(heads["traffic"], scenario, task, 4)
            rsrp_controllability(heads["rsrp"], (10, 13), (700, 3500), (0.2, 2.4), grid_points=3, replicates=2)
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env)
        assert proc.stdout.strip() == "[]"


# name: (u, v), each case one path of the rank and CDF code; Spearman pairs only equal sizes.
STATISTIC_CASES = {
    "ties": ([1.0, 2.0, 2.0, 3.0, 2.0], [2.0, 2.0, 1.0, 1.0, 5.0]),
    "negative": ([-3.5, -0.25, -7.0, 1.5], [-1.0, -9.0, 2.25, -0.5]),
    "size_one": ([4.0], [-1.5]),
    "constant": ([2.0, 2.0, 2.0, 2.0], [0.5, 1.0, 3.0, -2.0]),
    "holds_nan": ([1.0, np.nan, 3.0], [2.0, 1.0, 0.5]),
    "unequal_sizes": ([0.1, 0.7, 0.3], [1.2, -0.4, 0.3, 0.9, 2.5, 0.0, 0.3]),
}
_VALUES = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _samples(draw, size=None):
    n = draw(st.integers(1, 40)) if size is None else size
    return np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))


@st.composite
def _paired_samples(draw):
    n = draw(st.integers(1, 40))
    return draw(_samples(n)), draw(_samples(n))


@pytest.fixture(scope="module")
def scipy_stats():
    return pytest.importorskip("scipy.stats")


def assert_bits_or_both_nan(got, want):
    got, want = np.float64(got), np.float64(want)
    assert (np.isnan(got) and np.isnan(want)) or got.tobytes() == want.tobytes()


class TestStatisticsMatchScipy:
    """The numpy W1 and Spearman give scipy.stats' bits; scipy is a test-only reference."""

    @staticmethod
    def _spearman_reference(stats, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on a constant input, then returns NaN
            return stats.spearmanr(x, y).statistic

    @pytest.mark.parametrize("case", sorted(STATISTIC_CASES))
    def test_w1_cases(self, scipy_stats, case):
        u, v = map(np.array, STATISTIC_CASES[case])
        assert_bits_or_both_nan(_wasserstein_1d(u, v), scipy_stats.wasserstein_distance(u, v))

    @pytest.mark.parametrize("case", sorted(set(STATISTIC_CASES) - {"unequal_sizes"}))
    def test_spearman_cases(self, scipy_stats, case):
        x, y = map(np.array, STATISTIC_CASES[case])
        assert_bits_or_both_nan(_spearman(x, y), self._spearman_reference(scipy_stats, x, y))

    @settings(max_examples=300, deadline=None)
    @given(_samples(), _samples())
    def test_w1_property(self, scipy_stats, u, v):
        assert_bits_or_both_nan(_wasserstein_1d(u, v), scipy_stats.wasserstein_distance(u, v))

    @settings(max_examples=300, deadline=None)
    @given(_paired_samples())
    def test_spearman_property(self, scipy_stats, pair):
        assert_bits_or_both_nan(_spearman(*pair), self._spearman_reference(scipy_stats, *pair))


class TestCounterfactualBehavior:
    def test_greedy_sleeps_fewer_cells_under_higher_peak(self, scenario):
        from celltwin.agent import baseline_greedy
        from dataclasses import replace

        def sleep_count(phi):
            oracle = Oracle(replace(scenario, counterfactual_peak_fraction=phi))
            env = OracleEnv(oracle, WEIGHTS, day=1)
            env.reset()
            total = 0
            for step in (4, 5, 6):  # busy midday windows
                env._step = step
                action = baseline_greedy(
                    env.current_load_fraction(), env.oracle.neighbor_pairs, env.greedy_evaluator(),
                    rsrp_floor_dbm=oracle.config.rsrp_floor_dbm,
                )
                total += int(action.sleep.sum())
            return total

        assert sleep_count(0.8) <= sleep_count(0.5)

    def test_retrain_uses_the_runs_env_config(self, scenario, monkeypatch):
        """The agent retrained in a counterfactual twin samples that twin as the run configures."""
        calls = []
        monkeypatch.setattr(harness, "adapt_traffic_model", lambda base, oracle_cf, cfg: base)
        monkeypatch.setattr(harness, "_traffic_reference", lambda scenario, n_samples: None)
        monkeypatch.setattr(harness, "_score_traffic", lambda *args: {"mae": 0.0, "mae_frac_of_range": 0.0})
        monkeypatch.setattr(harness, "evaluate_policy", lambda *args, **kwargs: [])
        monkeypatch.setattr(harness, "run_training", lambda *args, **kwargs: calls.append(kwargs) or (None, []))
        env = WorldModelEnvConfig(day_pool=2, rsrp_pool=1, rsrp_draws=2)
        cfg = CounterfactualConfig(fractions=(0.6,), retrain_agent=True, retrain_updates=1)
        counterfactual_suite(scenario, WorldModelBundle(None, None, None), None, (0,), WEIGHTS, cfg,
                             EvalConfig(), AgentTrainConfig(env=env))
        assert [(c["config"].updates, c["config"].env) for c in calls] == [(1, env)]


class TestReportIO:
    def _rows(self, scenario):
        results = evaluate_policy(scenario, ("empirical",), (0, 1), WEIGHTS)
        return [episode_row(r, "default", None, results) for r in results]

    def test_rows_have_reference_columns(self, scenario):
        rows = self._rows(scenario)
        always = next(r for r in rows if r["scheme"] == "always_on")
        assert always["energy_saved_pct"] == pytest.approx(0.0)
        assert always["rsrp_delta_db"] == pytest.approx(0.0)
        emp = next(r for r in rows if r["scheme"] == "empirical")
        assert emp["environment"] == "oracle"

    def test_csv_roundtrip_and_bit_exact_rewrite(self, scenario, tmp_path):
        rows = self._rows(scenario)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_rows_csv(rows, p1)
        write_rows_csv(rows, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        back = read_rows_csv(p1)
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            assert a["scheme"] == b["scheme"]
            assert float(a["utility"]) == pytest.approx(b["utility"], rel=1e-12)

    def test_manifest_written_sorted(self, tmp_path):
        path = str(tmp_path / "m.json")
        write_manifest({"b": 1, "a": [2, 3]}, path)
        text = open(path).read()
        assert text.index('"a"') < text.index('"b"')
