from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from celltwin.agent import (
    Action,
    Observation,
    Policy,
    RewardWeights,
    baseline_custom,
    baseline_empirical,
    baseline_greedy,
    compute_reward,
    resolve_bias,
)
from celltwin.errors import DomainError, ShapeError, TrainingError
from celltwin.nn import finite_difference_check
from celltwin.scenario import build_scenario, make_hex_scenario, neighbor_pairs

W = RewardWeights()
HEX7 = build_scenario(make_hex_scenario(seed=0, grid_dim=2, horizon_hours=48))
HEX7_NEIGHBORS = HEX7.neighbors


def reference_resolve_bias(action: Action, neighbors: list[tuple[int, ...]]) -> np.ndarray:
    """The per-grant Python loop ``resolve_bias`` replaced: Python float sums, zero grants skipped."""
    granted = np.where(action.sleep, action.bias_level_db, 0.0)
    rows = []
    for grants in granted.reshape(-1, len(neighbors)).tolist():
        bias = [0.0] * len(neighbors)
        for c, grant in enumerate(grants):
            if grant:
                for nb in neighbors[c]:
                    bias[nb] += grant
        rows.append(bias)
    return np.array(rows).reshape(granted.shape)


class TestReward:
    def test_boundary_case_is_zero(self):
        r = compute_reward(
            energy_wh=100.0, reference_energy_wh=100.0, rsrp_avg_dbm=-80.0,
            dropped=0, total_users=50,
            weights=RewardWeights(lambda_e=1.0, lambda_r=1.0, lambda_d=1.0),
        )
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_zero_users_vacuous_coverage(self):
        r = compute_reward(50.0, 100.0, np.nan, 0, 0, W)
        assert r == pytest.approx(-0.5 + 1.0)

    def test_served_nobody_zero_coverage_term(self):
        r = compute_reward(50.0, 100.0, np.nan, 10, 10, W)
        assert r == pytest.approx(-0.5 + 0.0 - 2.0)

    @pytest.mark.parametrize("reference", [0.0, -1.0, np.array([100.0, 0.0, 50.0])])
    def test_non_positive_reference_is_a_domain_error(self, reference):
        with pytest.raises(DomainError, match="reference_energy_wh must be positive"):
            compute_reward(np.full(3, 50.0), reference, np.full(3, -90.0), np.zeros(3), np.full(3, 10), W)

    def test_halving_energy_raises_reward_by_half_lambda(self):
        lo = compute_reward(100.0, 100.0, -90.0, 0, 10, W)
        hi = compute_reward(50.0, 100.0, -90.0, 0, 10, W)
        assert hi - lo == pytest.approx(W.lambda_e / 2.0)

    def test_monotone_in_energy_and_rsrp(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e = rng.uniform(10, 200)
            rsrp = rng.uniform(-125, -75)
            base = compute_reward(e, 100.0, rsrp, 0, 20, W)
            assert compute_reward(e - 5.0, 100.0, rsrp, 0, 20, W) >= base
            assert compute_reward(e, 100.0, min(rsrp + 5.0, -80.0), 0, 20, W) >= base

    def test_clip_bounds_rsrp_term(self):
        low = compute_reward(100.0, 100.0, -150.0, 0, 10, W)
        high = compute_reward(100.0, 100.0, -10.0, 0, 10, W)
        assert low == pytest.approx(-1.0)
        assert high == pytest.approx(0.0)


class TestPolicyDistribution:
    def test_uniform_logits_joint_log_prob(self):
        policy = Policy(n_cells=7, obs_dim=Observation.dim(7))
        for name in policy.store.names():
            policy.store.set(name, np.zeros_like(policy.store[name]))
        probs, _ = policy.distribution(np.zeros(policy.obs_dim))
        assert probs.shape == (1, 7, 4)
        assert np.allclose(probs, 1.0 / 4.0)
        assert np.log(probs[0, np.arange(7), 0]).sum() == pytest.approx(7 * np.log(1.0 / 4.0))

    def test_probabilities_sum_to_one(self):
        policy = Policy(n_cells=5, obs_dim=Observation.dim(5), seed=2)
        probs, _ = policy.distribution(np.random.default_rng(3).normal(size=(9, policy.obs_dim)))
        assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-12

    def test_fixed_seed_same_action(self):
        policy = Policy(n_cells=4, obs_dim=Observation.dim(4), seed=4)
        obs = np.random.default_rng(5).normal(size=(1, policy.obs_dim))
        a1, c1 = policy.sample(obs, [np.random.default_rng(6)])
        a2, c2 = policy.sample(obs, [np.random.default_rng(6)])
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1.sleep, a2.sleep)

    def test_each_row_draws_from_its_own_generator(self):
        policy = Policy(n_cells=4, obs_dim=Observation.dim(4), seed=4)
        obs = np.random.default_rng(5).normal(size=(3, policy.obs_dim))
        _, together = policy.sample(obs, [np.random.default_rng(s) for s in (6, 7, 8)])
        for row, s in enumerate((6, 7, 8)):
            _, alone = policy.sample(obs[row:row + 1], [np.random.default_rng(s)])
            assert np.array_equal(together[row], alone[0])
        with pytest.raises(ShapeError, match="2 generators"):
            policy.sample(obs, [np.random.default_rng(6), np.random.default_rng(7)])

    def test_uniform_above_the_rounded_total_stays_in_range(self):
        # Logits whose softmax sums, cumulatively, to less than 1 - 2**-53; with u
        # at that value a count over every cumulative probability reaches n_choices.
        policy = Policy(n_cells=3, obs_dim=4, hidden=(2,), seed=0)
        for name in policy.store.names():
            policy.store.set(name, np.zeros_like(policy.store[name]))
        u = 1.0 - 2.0**-53
        rng = np.random.default_rng(17)
        while True:
            row = rng.normal(0.0, 3.0, size=policy.n_choices)
            policy.store.set("policy/b1", np.tile(row, policy.n_cells))
            probs, _ = policy.distribution(np.zeros((1, 4)))
            if np.cumsum(probs[0, 0])[-1] < u:
                break

        class TopUniform:
            def random(self, n):
                return np.full(n, u)

        action, choices = policy.sample(np.zeros((1, 4)), [TopUniform()])
        assert choices.tolist() == [[policy.n_choices - 1] * policy.n_cells]
        assert action.bias_level_db.tolist() == [[policy.bias_levels[-1]] * policy.n_cells]

    def test_choices_see_the_bits_of_one_row_forwards(self):
        # Every uniform sits exactly on a cumulative probability of its row's
        # one-row forward, so a forward one ulp lower there moves the choice.
        policy = Policy(n_cells=7, obs_dim=Observation.dim(7), seed=3)
        obs = np.random.default_rng(8).normal(size=(7, policy.obs_dim))
        edges = [np.cumsum(policy.distribution(row)[0][0], axis=1) for row in obs]

        class Fixed:
            def __init__(self, u):
                self.u = u

            def random(self, n):
                return self.u

        for k in range(policy.n_choices - 1):
            _, choices = policy.sample(obs, [Fixed(edge[:, k].copy()) for edge in edges])
            assert (choices == k).all()

    @pytest.mark.parametrize("rows", [1, 6, 7, 36, 64])
    def test_stacked_rows_forward_with_the_bits_of_single_rows(self, rows):
        # Policy.sample forwards B observations as a (B, 1, obs_dim) stack on this
        # premise: a change in how numpy or BLAS dispatches the stack fails here.
        policy = Policy(n_cells=7, obs_dim=Observation.dim(7), seed=3)
        x = np.random.default_rng(rows).normal(size=(rows, policy.obs_dim))
        stacked, _ = policy.mlp.forward(x[:, None, :])
        assert stacked.shape == (rows, 1, policy.n_cells * policy.n_choices)
        for b in range(rows):
            single, _ = policy.mlp.forward(x[b:b + 1])
            assert stacked[b].tobytes() == single.tobytes()

    def test_obs_dim_checked(self):
        policy = Policy(n_cells=3, obs_dim=Observation.dim(3))
        with pytest.raises(ShapeError):
            policy.distribution(np.zeros(5))


def reference_update(policy, observations, choices, rewards, lr):
    """Policy.update by the per-episode path: one return per episode row, the rows'
    observations and choices stacked, and one constant weight block per episode."""
    returns = np.array([float(row.sum()) for row in rewards])
    baseline = returns.mean() if policy._baseline is None else policy._baseline
    advantages = returns - baseline
    obs = np.vstack(list(observations))
    stacked = np.vstack(list(choices)).astype(int)
    weights = np.concatenate([np.full(len(row), adv / len(rewards)) for row, adv in zip(rewards, advantages)])
    loss, grads = policy.surrogate_loss_and_grads(obs, stacked, weights)
    policy.store.adam_step(grads, lr=lr)
    policy._baseline = float(baseline * 0.9 + returns.mean() * 0.1)
    probs, _ = policy.distribution(obs)
    entropy = float(-(probs * np.log(probs + 1e-12)).sum(axis=2).mean())
    return {"mean_return": float(returns.mean()), "baseline": policy._baseline, "entropy": entropy, "loss": loss}


class TestPolicyUpdate:
    def _batch(self, policy, rng, rewards):
        """Observations and choices drawn episode by episode for a (episodes, steps) reward array."""
        rewards = np.asarray(rewards, dtype=float)
        obs, choices = [], []
        for row in rewards:
            obs.append(rng.normal(size=(len(row), policy.obs_dim)))
            choices.append(rng.integers(0, policy.n_choices, size=(len(row), policy.n_cells)))
        return np.stack(obs), np.stack(choices), rewards

    def test_zero_advantages_leave_parameters_unchanged(self):
        policy = Policy(n_cells=2, obs_dim=Observation.dim(2), seed=7)
        rng = np.random.default_rng(8)
        batch = self._batch(policy, rng, np.full((4, 3), 1.0))
        before = {n: policy.store[n].copy() for n in policy.store.names()}
        policy.update(*batch, lr=0.1)  # equal returns -> advantage exactly zero
        for name in before:
            assert np.array_equal(policy.store[name], before[name])

    def test_surrogate_gradient_matches_finite_differences(self):
        policy = Policy(n_cells=2, obs_dim=Observation.dim(2), hidden=(8,), seed=9)
        rng = np.random.default_rng(10)
        obs = rng.normal(size=(5, policy.obs_dim))
        choices = rng.integers(0, policy.n_choices, size=(5, policy.n_cells))
        weights = rng.normal(size=5)

        def loss_fn():
            return policy.surrogate_loss_and_grads(obs, choices, weights)

        assert finite_difference_check(policy.store, loss_fn) < 1e-4

    def test_bandit_convergence(self):
        # One cell, two choices; choice 0 pays +1, anything else pays 0.
        policy = Policy(n_cells=1, obs_dim=3, hidden=(8,), bias_levels=(0.0,), seed=11)
        rng = np.random.default_rng(12)
        obs = np.zeros(3)
        for _ in range(300):
            choices, rewards = [], []
            for _ in range(8):
                _, c = policy.sample(obs[None, :], [rng])
                choices.append(c)
                rewards.append([1.0 if c[0, 0] == 0 else 0.0])
            policy.update(np.tile(obs, (8, 1, 1)), np.stack(choices), np.array(rewards), lr=0.05)
        probs, _ = policy.distribution(obs)
        assert probs[0, 0, 0] > 0.95

    def test_empty_update_rejected(self):
        policy = Policy(n_cells=2, obs_dim=Observation.dim(2))
        with pytest.raises(TrainingError):
            policy.update(np.zeros((0, 3, policy.obs_dim)), np.zeros((0, 3, 2), dtype=int), np.zeros((0, 3)), lr=0.1)

    @pytest.mark.parametrize("episodes, steps", [(6, 12), (8, 1)])
    def test_matches_the_per_episode_reference_bit_for_bit(self, episodes, steps):
        policy, reference = (Policy(n_cells=3, obs_dim=Observation.dim(3), hidden=(8,), seed=15) for _ in range(2))
        rng = np.random.default_rng(16)
        for _ in range(3):  # the first update sets the baseline, the later ones read it
            obs, choices, rewards = self._batch(policy, rng, rng.normal(size=(episodes, steps)))
            got = policy.update(obs, choices, rewards, lr=0.05)
            want = reference_update(reference, obs, choices, rewards, lr=0.05)
            assert got == want
            for name in policy.store.names():
                assert policy.store[name].tobytes() == reference.store[name].tobytes()

    @pytest.mark.parametrize("case, error", [
        ("zero_episodes", TrainingError),
        ("one_dim_rewards", ShapeError),
        ("observation_episodes", ShapeError),
        ("choice_steps", ShapeError),
        ("nan_reward", TrainingError),
    ])
    def test_bad_batch_rejected_with_parameters_unchanged(self, case, error):
        policy = Policy(n_cells=2, obs_dim=Observation.dim(2), seed=17)
        rng = np.random.default_rng(18)
        obs, choices, rewards = self._batch(policy, rng, rng.normal(size=(4, 3)))
        if case == "zero_episodes":
            obs, choices, rewards = obs[:0], choices[:0], rewards[:0]
        elif case == "one_dim_rewards":
            rewards = rewards.sum(axis=1)
        elif case == "observation_episodes":
            obs = obs[:3]
        elif case == "choice_steps":
            choices = choices[:, :2]
        else:
            rewards[2, 1] = np.nan
        before = {n: policy.store[n].copy() for n in policy.store.names()}
        with pytest.raises(error):
            policy.update(obs, choices, rewards, lr=0.1)
        for name in before:
            assert policy.store[name].tobytes() == before[name].tobytes()
        assert policy._baseline is None

    def test_checkpoint_roundtrip(self, tmp_path):
        policy = Policy(n_cells=3, obs_dim=Observation.dim(3), seed=13)
        rng = np.random.default_rng(14)
        batch = self._batch(policy, rng, np.repeat(np.arange(3.0)[:, None], 3, axis=1))
        policy.update(*batch, lr=0.05)
        path = str(tmp_path / "policy.npz")
        policy.save(path)
        back = Policy.load(path)
        obs = rng.normal(size=policy.obs_dim)
        p1, _ = policy.distribution(obs)
        p2, _ = back.distribution(obs)
        assert np.array_equal(p1, p2)
        assert back._baseline == policy._baseline


class TestBaselines:
    def test_empirical_threshold(self):
        action = baseline_empirical(np.array([0.1, 0.5]), tau=0.2)
        assert action.sleep.tolist() == [True, False]
        assert action.bias_level_db.tolist() == [3.0, 0.0]

    def test_empirical_tau_zero_nobody_sleeps(self):
        action = baseline_empirical(np.array([0.0, 0.3, 0.9]), tau=0.0)
        assert not action.sleep.any()

    def test_empirical_tau_one_everyone_sleeps(self):
        action = baseline_empirical(np.array([0.1, 0.5, 0.99]), tau=1.0)
        assert action.sleep.all()

    def test_custom_identical_histories_identical_thresholds(self):
        history = np.tile(np.linspace(0.1, 0.9, 9)[:, None], (1, 3))
        a = baseline_custom(np.array([0.2, 0.2, 0.2]), history)
        assert a.sleep[0] == a.sleep[1] == a.sleep[2]

    def test_custom_constant_history_never_sleeps(self):
        history = np.full((10, 2), 0.4)
        action = baseline_custom(np.array([0.4, 0.4]), history)
        assert not action.sleep.any()

    def test_custom_thresholds_adapt_to_each_cells_history(self):
        # Shared realized day: the cell with the richer load history carries the
        # higher percentile threshold, so it sleeps on more of the shared steps.
        t = np.linspace(0, 2 * np.pi, 24)
        history = np.stack([0.1 + 0.05 * np.sin(t), 0.6 + 0.05 * np.sin(t)], axis=1)
        shared_day = 0.3 + 0.25 * np.sin(t + 1.0)
        sleeps = np.array([
            baseline_custom(np.array([v, v]), history).sleep for v in shared_day
        ])
        assert sleeps[:, 1].sum() > sleeps[:, 0].sum()
        # Against its own history each cell sleeps around the percentile fraction.
        own = np.array([
            baseline_custom(history[i], history).sleep for i in range(len(t))
        ])
        assert 0 < own[:, 0].sum() <= len(t) // 2

    def test_baselines_are_deterministic(self):
        load = np.array([0.15, 0.4, 0.05])
        history = np.random.default_rng(16).random((20, 3))
        a1 = baseline_custom(load, history)
        a2 = baseline_custom(load, history)
        assert np.array_equal(a1.sleep, a2.sleep)
        assert np.array_equal(a1.bias_level_db, a2.bias_level_db)


class TestGreedy:
    PAIRS = neighbor_pairs([(1,), (0, 2), (1,)])

    def test_unconstrained_floor_sleeps_everyone(self):
        def evaluate(sleep, bias):
            return SimpleNamespace(rsrp_avg_dbm=np.nan, per_cell_overload_mbps=np.zeros(3))

        action = baseline_greedy(
            np.array([0.3, 0.3, 0.3]), self.PAIRS, evaluate, rsrp_floor_dbm=-np.inf
        )
        assert action.sleep.all()

    def test_unreachable_floor_sleeps_nobody(self):
        def evaluate(sleep, bias):
            return SimpleNamespace(rsrp_avg_dbm=-70.0, per_cell_overload_mbps=np.zeros(3))

        action = baseline_greedy(
            np.array([0.3, 0.3, 0.3]), self.PAIRS, evaluate, rsrp_floor_dbm=-20.0
        )
        assert not action.sleep.any()

    def test_nobody_served_under_a_finite_floor_reverts_every_sleep(self):
        calls = []

        def evaluate(sleep, bias):
            calls.append(sleep.copy())
            return SimpleNamespace(rsrp_avg_dbm=np.nan, per_cell_overload_mbps=np.zeros(3))

        action = baseline_greedy(
            np.array([0.3, 0.1, 0.2]), self.PAIRS, evaluate, rsrp_floor_dbm=-110.0
        )
        assert not action.sleep.any()
        assert [c.tolist() for c in calls] == [
            [False, True, False], [False, False, True], [True, False, False],
        ]

    def test_overloaded_neighbor_reverts_one_sleep(self):
        # Line topology 0-1-2. Cell 0 has the lowest load so it is tried first;
        # sleeping it overloads neighbor 1, so that tentative sleep is reverted.
        # Cell 2 is tried next and sticks; cell 1 then also sticks.
        calls = []

        def evaluate(sleep, bias):
            calls.append(sleep.copy())
            overload = np.zeros(3)
            if sleep[0]:
                overload[1] = 5.0
            return SimpleNamespace(rsrp_avg_dbm=-80.0, per_cell_overload_mbps=overload)

        action = baseline_greedy(
            np.array([0.1, 0.5, 0.3]), self.PAIRS, evaluate, rsrp_floor_dbm=-110.0
        )
        assert action.sleep.tolist() == [False, True, True]
        assert [c.tolist() for c in calls] == [
            [True, False, False],   # try cell 0 -> overload, revert
            [False, False, True],   # try cell 2 -> ok
            [False, True, True],    # try cell 1 -> ok
        ]

    def test_priority_order_is_ascending_load_with_id_ties(self):
        seen = []

        def evaluate(sleep, bias):
            seen.append(int(np.flatnonzero(sleep)[-1]) if sleep.any() else -1)
            return SimpleNamespace(rsrp_avg_dbm=np.nan, per_cell_overload_mbps=np.zeros(3))

        baseline_greedy(np.array([0.2, 0.2, 0.1]), self.PAIRS, evaluate, rsrp_floor_dbm=-np.inf)
        first_tried = seen[0]
        assert first_tried == 2


class TestActionHelpers:
    def test_resolve_bias_accumulates_from_sleepers(self):
        action = Action(sleep=np.array([True, False, True]),
                        bias_level_db=np.array([3.0, 0.0, 6.0]))
        bias = resolve_bias(action, neighbor_pairs([(1,), (0, 2), (1,)]))
        assert bias.tolist() == [0.0, 9.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_batched_resolve_bias_equals_the_loop_and_unbatched_calls(self, data):
        if data.draw(st.booleans()):
            neighbors = HEX7_NEIGHBORS
        else:
            n = data.draw(st.integers(1, 8))
            neighbors = [tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=6))) for _ in range(n)]
        n = len(neighbors)
        episodes = data.draw(st.integers(1, 8))
        levels = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, -2.5, 3.0, 6.0, 9.0]))
        sleep = data.draw(st.lists(st.booleans(), min_size=episodes * n, max_size=episodes * n))
        level = data.draw(st.lists(levels, min_size=episodes * n, max_size=episodes * n))
        action = Action(np.array(sleep).reshape(episodes, n), np.array(level).reshape(episodes, n))
        with np.errstate(over="ignore", invalid="ignore"):  # huge grants may sum past the float range
            pairs = HEX7.neighbor_pairs if neighbors is HEX7_NEIGHBORS else neighbor_pairs(neighbors)
            got = resolve_bias(action, pairs)
            rows = [resolve_bias(Action(action.sleep[b], action.bias_level_db[b]), pairs) for b in range(episodes)]
        assert got.dtype == np.float64 and got.shape == (episodes, n)
        assert got.tobytes() == reference_resolve_bias(action, neighbors).tobytes()
        assert got.tobytes() == np.stack(rows).tobytes()

    def test_from_choices(self):
        action = Action.from_choices(np.array([0, 1, 3]))
        assert action.sleep.tolist() == [False, True, True]
        assert action.bias_level_db.tolist() == [0.0, 0.0, 6.0]
        batched = Action.from_choices(np.array([[0, 1, 3], [2, 0, 0]]))
        assert batched.bias_level_db.tolist() == [[0.0, 0.0, 6.0], [3.0, 0.0, 0.0]]

    def test_observation_vector_dim(self):
        obs = Observation(
            load_frac=np.zeros((3, 7)), pred_load_frac=np.zeros((3, 7)),
            pred_users_norm=np.zeros((3, 7)), neighbor_pred_load=np.zeros((3, 7)),
            hour_sin=0.0, hour_cos=1.0,
        )
        assert obs.vector().shape == (3, Observation.dim(7))
        assert (obs.vector()[:, -2:] == [0.0, 1.0]).all()
