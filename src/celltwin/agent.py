"""Sleep/offload optimization: policy-gradient agent and rule-based baselines.

The joint action is factorized per cell into one categorical choice over
{stay active} + {sleep with bias b : b in the bias set}; a sleeping cell's
bias is granted to its compensation neighbors during user association. The
learner is score-function policy gradient with a running-mean return baseline,
kept deliberately simple so its gradient can be checked against the
finite-difference oracle. The environment interface is agent-agnostic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DomainError, FormatError, ShapeError, TrainingError, read_json
from .nn import MLP, ParamStore, softmax

DEFAULT_BIAS_LEVELS = (0.0, 3.0, 6.0)


@dataclass(frozen=True)
class RewardWeights:
    lambda_e: float = 1.0
    lambda_r: float = 1.0
    lambda_d: float = 2.0
    rsrp_lo_dbm: float = -120.0
    rsrp_hi_dbm: float = -80.0

    def __post_init__(self):
        for name in ("lambda_e", "lambda_r", "lambda_d"):
            if getattr(self, name) < 0:
                raise ConfigError(f"reward weight {name} must be nonnegative")
        if self.lambda_e + self.lambda_r <= 0:
            raise ConfigError("reward weights lambda_e + lambda_r must be positive")
        if self.rsrp_hi_dbm <= self.rsrp_lo_dbm:
            raise ConfigError("reward rsrp_hi_dbm must exceed rsrp_lo_dbm")

    def rsrp_score(self, dbm):
        """RSRP mapped linearly from [rsrp_lo_dbm, rsrp_hi_dbm] onto [0, 1], clipped; elementwise."""
        return np.clip((dbm - self.rsrp_lo_dbm) / (self.rsrp_hi_dbm - self.rsrp_lo_dbm), 0.0, 1.0)


def compute_reward(energy_wh, reference_energy_wh, rsrp_avg_dbm, dropped, total_users, weights: RewardWeights):
    """Energy-normalized, coverage-weighted step reward, elementwise over its array arguments.

    The RSRP term is vacuously 1 when the step has no users at all, and 0 when
    users exist but none is served (a NaN RSRP average).
    """
    if np.any(reference_energy_wh <= 0):
        raise DomainError("reference_energy_wh must be positive")
    nobody = total_users == 0
    rsrp_term = np.where(nobody, 1.0, np.where(np.isnan(rsrp_avg_dbm), 0.0, weights.rsrp_score(rsrp_avg_dbm)))
    dropped_frac = np.where(nobody, 0.0, dropped / np.maximum(total_users, 1))
    return (
        -weights.lambda_e * (energy_wh / reference_energy_wh)
        + weights.lambda_r * rsrp_term
        - weights.lambda_d * dropped_frac
    )


@dataclass(frozen=True)
class Action:
    """One joint action, or with a leading axis one per episode."""

    sleep: np.ndarray            # (..., n_cells) bool
    bias_level_db: np.ndarray    # (..., n_cells) bias granted by each sleeping cell

    @classmethod
    def from_choices(cls, choices: np.ndarray, bias_levels=DEFAULT_BIAS_LEVELS) -> "Action":
        choices = np.asarray(choices)
        sleep = choices > 0
        bias = np.zeros(choices.shape)
        bias[sleep] = np.asarray(bias_levels)[choices[sleep] - 1]
        return cls(sleep=sleep, bias_level_db=bias)


def resolve_bias(action: Action, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-cell association bias: each sleeping cell grants its bias to its neighbors.

    ``pairs`` are the (cell, neighbor) index arrays of ``scenario.neighbor_pairs``,
    built once per oracle as ``Oracle.neighbor_pairs``. An action with a leading
    episode axis gives one bias row per episode. Each row is one ``np.add.at``
    over the pairs in ascending cell order, so grants add in that order; an
    awake cell grants 0.0, and adding a zero to a sum that starts at +0.0
    leaves its bits alone.
    """
    granted = np.where(action.sleep, action.bias_level_db, 0.0)
    cells, targets = pairs
    bias = np.zeros(granted.shape)
    np.add.at(bias, (..., targets), granted[..., cells])
    return bias


@dataclass
class Observation:
    """Agent input: current state plus world-model-predicted next window.

    The per-cell fields are (episodes, n_cells), one row per episode of an
    env; the hour is the same for every episode.
    """

    load_frac: np.ndarray
    pred_load_frac: np.ndarray
    pred_users_norm: np.ndarray
    neighbor_pred_load: np.ndarray
    hour_sin: float
    hour_cos: float

    def vector(self) -> np.ndarray:
        """The policy input, one (dim,) row per episode."""
        hour = np.broadcast_to([self.hour_sin, self.hour_cos], self.load_frac.shape[:-1] + (2,))
        return np.concatenate([
            self.load_frac, self.pred_load_frac, self.pred_users_norm, self.neighbor_pred_load, hour,
        ], axis=-1)

    @staticmethod
    def dim(n_cells: int) -> int:
        return 4 * n_cells + 2


@dataclass(frozen=True)
class PolicyManifest:
    """What a policy checkpoint records to rebuild its policy."""

    n_cells: int
    obs_dim: int
    hidden: tuple[int, ...]
    bias_levels: tuple[float, ...]
    baseline: float | None = None


class Policy:
    """Factorized categorical policy over per-cell sleep/bias choices."""

    def __init__(
        self,
        n_cells: int,
        hidden: tuple[int, ...] = (32,),
        bias_levels: tuple[float, ...] = DEFAULT_BIAS_LEVELS,
        seed: int = 0,
    ):
        self.n_cells = n_cells
        self.obs_dim = Observation.dim(n_cells)
        self.bias_levels = tuple(bias_levels)
        self.n_choices = 1 + len(bias_levels)
        self.hidden = tuple(hidden)
        self.store = ParamStore()
        rng = np.random.default_rng(np.random.SeedSequence((seed, 52)))
        self.mlp = MLP(self.store, "policy", (self.obs_dim, *hidden, n_cells * self.n_choices),
                       hidden_activation="tanh", rng=rng)
        self._baseline: float | None = None

    # -- distribution --------------------------------------------------------

    def distribution(self, obs: np.ndarray) -> tuple[np.ndarray, list]:
        """Per-cell choice probabilities, shape (B, n_cells, n_choices)."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        if obs.shape[-1] != self.obs_dim:
            raise ShapeError(f"observation dim {obs.shape[-1]} != expected {self.obs_dim}")
        logits, cache = self.mlp.forward(obs)
        probs = softmax(logits.reshape(obs.shape[0], self.n_cells, self.n_choices))
        return probs, cache

    def sample(self, obs: np.ndarray, rngs: Sequence[np.random.Generator]) -> tuple[Action, np.ndarray]:
        """Joint actions and their (B, n_cells) choices for B observation rows, (B, obs_dim).

        Row b draws its n_cells uniforms from ``rngs[b]``, so each episode keeps
        its own stream. The rows go through the network as a (B, 1, obs_dim)
        stack, whose items each have the bits of a one-row forward; a flat
        (B, obs_dim) product does not.
        """
        obs = np.asarray(obs, dtype=float)
        if obs.ndim != 2 or len(obs) != len(rngs):
            raise ShapeError(f"{len(rngs)} generators for observations of shape {obs.shape}")
        probs, _ = self.distribution(obs[:, None, :])
        u = np.array([rng.random(self.n_cells) for rng in rngs])
        # The last cumulative probability can round below 1, so u counts only
        # against the first n_choices - 1 and the choice stays in range.
        choices = (u[..., None] > np.cumsum(probs[..., :-1], axis=-1)).sum(axis=-1)
        return Action.from_choices(choices, self.bias_levels), choices

    # -- learning --------------------------------------------------------------

    def surrogate_loss_and_grads(
        self, obs: np.ndarray, choices: np.ndarray, step_weights: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss -sum_k w_k log pi(choice_k | obs_k) and its exact gradients."""
        probs, cache = self.distribution(obs)
        k = probs.shape[0]
        rows = np.arange(k)[:, None]
        cols = np.arange(self.n_cells)[None, :]
        chosen = probs[rows, cols, choices]
        loss = float(-(step_weights * np.log(chosen).sum(axis=1)).sum())
        onehot = np.zeros_like(probs)
        onehot[rows, cols, choices] = 1.0
        dlogits = -step_weights[:, None, None] * (onehot - probs)
        grads: dict[str, np.ndarray] = {}
        self.mlp.backward(cache, dlogits.reshape(k, -1), grads)
        return loss, grads

    def update(self, observations: np.ndarray, choices: np.ndarray, rewards: np.ndarray, lr: float) -> dict:
        """One REINFORCE step with a running-mean return baseline, on the lockstep batch:
        observations (episodes, steps, obs_dim), choices (episodes, steps, n_cells), rewards (episodes, steps)."""
        if rewards.ndim != 2 or not observations.shape[:2] == choices.shape[:2] == rewards.shape:
            raise ShapeError(f"batch axes differ: {observations.shape}, {choices.shape}, {rewards.shape}")
        if not rewards.size:
            raise TrainingError("need at least one episode of at least one step")
        if not np.isfinite(rewards).all():
            raise TrainingError("non-finite reward in batch")
        episodes, steps = rewards.shape
        returns = rewards.sum(axis=1)
        baseline = returns.mean() if self._baseline is None else self._baseline
        advantages = returns - baseline
        obs = np.reshape(observations, (episodes * steps, -1))
        choices = np.reshape(choices, (episodes * steps, -1)).astype(int)
        weights = np.repeat(advantages / episodes, steps)
        loss, grads = self.surrogate_loss_and_grads(obs, choices, weights)
        self.store.adam_step(grads, lr=lr)
        self._baseline = float(baseline * 0.9 + returns.mean() * 0.1)
        probs, _ = self.distribution(obs)
        entropy = float(-(probs * np.log(probs + 1e-12)).sum(axis=2).mean())
        return {
            "mean_return": float(returns.mean()),
            "baseline": self._baseline,
            "entropy": entropy,
            "loss": loss,
        }

    # -- persistence --------------------------------------------------------------

    def save(self, path: str) -> None:
        self.store.save(path, manifest=asdict(PolicyManifest(
            self.n_cells, self.obs_dim, self.hidden, self.bias_levels, self._baseline)))

    @classmethod
    def load(cls, path: str) -> "Policy":
        store, manifest = ParamStore.load(path)
        m = read_json(PolicyManifest, manifest, FormatError, lambda key: f"checkpoint {path} field {key!r}",
                      "manifest")
        policy = cls(n_cells=m.n_cells, hidden=m.hidden, bias_levels=m.bias_levels)
        if m.obs_dim != policy.obs_dim:
            raise FormatError(f"checkpoint {path} field 'manifest.obs_dim' is {m.obs_dim}, "
                              f"expected {policy.obs_dim} for {m.n_cells} cells")
        policy.store.assign(store, f"policy checkpoint {path}")
        policy._baseline = m.baseline
        return policy


# -- rule-based baselines ------------------------------------------------------------


def sleep_below(load_frac: np.ndarray, tau, bias_db: float) -> Action:
    """Sleep every cell whose load fraction is strictly below its threshold, elementwise.

    ``tau`` is one threshold for every cell or one per cell; -inf sleeps no
    cell and +inf every cell. A sleeping cell grants ``bias_db``.
    """
    sleep = np.asarray(load_frac, dtype=float) < tau
    return Action(sleep=sleep, bias_level_db=np.where(sleep, bias_db, 0.0))


def baseline_greedy(
    load_frac: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    evaluate_fn,
    rsrp_floor_dbm: float,
    margin_db: float = 8.0,
    bias_db: float = 3.0,
) -> Action:
    """Iteratively sleep cells in ascending-load priority order, with rollback.

    ``pairs`` are the (cell, neighbor) index arrays of ``Oracle.neighbor_pairs``.
    ``evaluate_fn(sleep_mask, bias_vector)`` returns each tentative pattern's
    ``scenario.NetworkState``; the sleep is reverted when its ``rsrp_avg_dbm``
    is not at least floor + margin (NaN, nobody served, is not) or any
    compensation neighbor overloads.
    """
    load_frac = np.asarray(load_frac, dtype=float)
    n = load_frac.shape[0]
    order = np.lexsort((np.arange(n), load_frac))
    sleep = np.zeros(n, dtype=bool)
    threshold = rsrp_floor_dbm + margin_db
    for c in order:
        tentative = sleep.copy()
        tentative[c] = True
        action = Action(sleep=tentative, bias_level_db=np.where(tentative, bias_db, 0.0))
        ev = evaluate_fn(tentative, resolve_bias(action, pairs))
        if np.isfinite(threshold) and not ev.rsrp_avg_dbm >= threshold:
            continue
        if (ev.per_cell_overload_mbps[pairs[1][pairs[0] == c]] > 1e-9).any():
            continue
        sleep = tentative
    return Action(sleep=sleep, bias_level_db=np.where(sleep, bias_db, 0.0))
