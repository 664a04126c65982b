"""Conditional denoising-diffusion model over normalized series windows.

The denoiser is a mixture-of-experts MLP: a softmax gating net weights M
expert nets, all reading one assembled input

    z = [x_t | time-embed(t) | cond-embed(c) or null | mask | context | prompts]

so the output is the gate-weighted sum of expert outputs. Training is
mask-restricted noise regression (revealed context carries no loss), with the
condition embedding replaced by a learned null vector at rate ``p_uncond`` to
enable classifier-free guidance at sampling time. Sampling is ancestral DDPM;
revealed history is enforced by re-noising it to the current step after every
update (inpainting), so unmasked positions come back exactly.

``sample()`` takes one problem, B rows of (condition, mask, context) with one
generator, or K such problems stacked on a leading problem axis with K
generators. A one-problem call is the K = 1 case of the same loop. Every
problem gets the bits of sampling it alone, because its GEMMs keep its own B
rows: below about 512 rows a GEMM's per-row result depends on its row count,
so the K problems are never flattened into one K * B-row batch.

Precision. Training (forward, backward, Adam), checkpoints and the raw-input
``denoise``, ``gate_weights`` and ``expert_output`` are float64; the raw-input
``denoise`` is training's forward without its caches. The sampler
runs its gate and expert forwards in float32, on one float32 copy of their
tensors (adapters included) made per call, because that is where sampling
spends its time and an eps estimate needs no more precision than single
(standard for DDPM inference). Everything else in a sampler step stays
float64: the time and condition embeddings, the guided mix of the two passes,
the sampler state x, every generator draw, the mean update, and the re-noising
of revealed history, so that history comes back exactly.

A call's ``Conditioning`` is also its workspace, allocated once per call and
dropped with it. ``condition`` embeds the condition and retrieves the prompts,
(K, B, ...), without the caches only training's backward reads. The first step
lays them out, with the mask and context, as one float32 z template whose
leading pass axis holds the conditional pass and, under guidance, the null
pass: (passes, K, B, input_dim), plus one float32 eps buffer of the same lead.
Each step writes only the x_t and time-embedding columns; ``t`` is one scalar
per step, so the time embedding is computed on one row and broadcast to every
row of every pass and problem. The gate and experts then run one tile at a
time through one set of float32 layer buffers sized for the largest tile, in
place and without caches (``MLP.forward(..., keep_cache=False, out=...,
params=...)``), with the ops of training's forward in the same order. A tile
(``problem_tiles``) holds every pass of as many whole problems as fit in
``_PROBLEM_TILE_ROWS`` rows per pass; each layer on it is one stacked matmul,
which numpy runs as one GEMM per (pass, problem) slice. A problem of 2,048 rows
or more, such as a world-model pool, is one problem per tile, split into
1,024-row ``row_tiles`` (the remainder merged into the last): from 1,024 rows
up a GEMM's per-row result matches the whole-batch GEMM's, in float32 as in
float64, while smaller row tiles would change bits. So the samples are those
of a plain per-step loop of whole-batch float32 forwards on inputs laid out
afresh from the raw ones (``tests/test_diffusion.py`` checks this).

The M experts are one stacked ``MLP`` (``stack=M``): each expert layer is one
(M, out, in) tensor ``experts/W{i}``, and one call runs every expert on the
shared input.

Fine-tuning hooks: low-rank adapters on the expert layers, stacked the same
way (base frozen while attached, foldable on merge), and a retrieval memory of
learnable key-prompt pairs appended to the denoiser input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .dataset import COND_DIM, ConditionLayout, NormalizationStats
from .errors import ConfigError, DomainError, FormatError, ModelError, ShapeError, TrainingError, read_json
from .nn import MLP, LoraSpec, ParamStore, softmax, softmax_backward

_TIME_FEATURES = 8
_NORM_EPS = 1e-12


# -- noise schedule -------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule; alpha_bar[t] is the survival product with alpha_bar[0] = 1. Both derive once."""

    steps: int
    beta_min: float
    beta_max: float

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise ConfigError(f"need 0 < beta_min <= beta_max < 1, got ({self.beta_min}, {self.beta_max})")

    @cached_property
    def beta(self) -> np.ndarray:
        return np.linspace(self.beta_min, self.beta_max, self.steps)

    @cached_property
    def alpha_bar(self) -> np.ndarray:
        return np.concatenate([[1.0], np.cumprod(1.0 - self.beta)])

    def beta_at(self, t: int) -> float:
        return float(self.beta[t - 1])


def make_schedule(steps: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    return NoiseSchedule(steps, beta_min, beta_max)


def forward_noise(x0: np.ndarray, alpha_bar, eps: np.ndarray) -> np.ndarray:
    """Closed-form noising: sqrt(a) x0 + sqrt(1 - a) eps. Exact at a = 1 and a = 0."""
    a = np.asarray(alpha_bar, dtype=float)
    if a.ndim > 0:
        a = a.reshape(a.shape + (1,) * (np.ndim(x0) - a.ndim))
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps


def q_sample(x0: np.ndarray, t, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    t_arr = np.asarray(t)
    if (t_arr < 0).any() or (t_arr > schedule.steps).any():
        raise DomainError(f"t must be within [0, {schedule.steps}]")
    return forward_noise(x0, schedule.alpha_bar[t_arr], eps)


def time_features(t, steps: int) -> np.ndarray:
    """Sinusoidal features of the diffusion step, 8 dims, in [-1, 1]."""
    frac = np.atleast_1d(np.asarray(t, dtype=float)) / steps
    ks = np.arange(1, _TIME_FEATURES // 2 + 1)
    angles = 2.0 * np.pi * frac[:, None] * ks[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


# -- prompt memory ----------------------------------------------------------------


@dataclass(frozen=True)
class MemoryConfig:
    n_pairs: int = 16
    top_n: int = 2
    prompt_dim: int = 4
    key_dim: int = 8
    pull_weight: float = 0.1


def prompt_retrieve(
    keys: np.ndarray, prompts: np.ndarray, query: np.ndarray, top_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-n keys by cosine similarity; ties go to the lowest index.

    The selected prompts are concatenated in ascending index order. A query of
    shape (..., key_dim) gives indices (..., top_n) and prompts (..., top_n *
    prompt_dim).
    """
    n_pairs = keys.shape[0]
    if top_n > n_pairs:
        raise ConfigError(f"top_n {top_n} exceeds memory size {n_pairs}")
    q = np.atleast_2d(query)
    sims = _cosine_sims(q, keys)
    order = np.argsort(-sims, axis=-1, kind="stable")[..., :top_n]
    indices = np.sort(order, axis=-1)
    flat = prompts[indices].reshape(q.shape[:-1] + (-1,))
    if np.ndim(query) == 1:
        return indices[0], flat[0]
    return indices, flat


def _cosine_sims(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    qn = np.linalg.norm(q, axis=-1, keepdims=True) + _NORM_EPS
    kn = np.linalg.norm(keys, axis=1, keepdims=True) + _NORM_EPS
    return (q / qn) @ (keys / kn).T


def _add_by_slot(grad: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """grad[idx[b, j]] += values[b, j] for every (b, j), slot j by slot j and row by row within
    a slot: the order, and so the bits, of one ``np.add.at`` per slot."""
    np.add.at(grad, np.ascontiguousarray(idx.T), np.ascontiguousarray(values.swapaxes(0, 1)))


# -- denoiser architecture -----------------------------------------------------------


_TILE_ROWS = 1024
# Rows per pass in one tile of small problems: 2 problems of 36 rows, 10 of 7.
# Picked from a sweep of tile sizes on a short-term day's forecasts: larger
# tiles were no faster beyond the runs' spread but raised peak memory.
_PROBLEM_TILE_ROWS = 72


def row_tiles(batch: int) -> list[slice]:
    """Consecutive row slices of ``_TILE_ROWS`` covering ``batch`` rows; the last takes the remainder.

    No tile is shorter than ``_TILE_ROWS`` unless the whole batch is, and a
    batch under twice that is one tile.
    """
    bounds = [i * _TILE_ROWS for i in range(max(batch // _TILE_ROWS, 1))] + [batch]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def problem_tiles(problems: int, batch: int) -> list[tuple[slice, slice]]:
    """(problems, rows) slices covering ``problems`` problems of ``batch`` rows, in order.

    A tile holds as many whole problems as fit in ``_PROBLEM_TILE_ROWS`` rows,
    at least one; a problem of more than one ``row_tiles`` tile is split into them.
    """
    per = max(_PROBLEM_TILE_ROWS // max(batch, 1), 1)
    return [(slice(lo, min(lo + per, problems)), rows)
            for lo in range(0, problems, per) for rows in row_tiles(batch)]


def _per_row(value, batch: int) -> np.ndarray:
    """A scalar or per-row value as one entry per row."""
    return np.broadcast_to(np.atleast_1d(value), (batch,))


@dataclass(frozen=True)
class DenoiserArch:
    series_len: int
    cond_dim: int = COND_DIM
    cond_emb_dim: int = 8
    time_dim: int = 8
    n_experts: int = 3
    expert_hidden: tuple[int, ...] = (64, 64)
    gate_hidden: tuple[int, ...] = (32,)
    memory: MemoryConfig | None = None

    @property
    def prompt_dim(self) -> int:
        return self.memory.top_n * self.memory.prompt_dim if self.memory else 0

    @property
    def input_dim(self) -> int:
        return 3 * self.series_len + self.time_dim + self.cond_emb_dim + self.prompt_dim

    def z_columns(self) -> dict[str, slice]:
        """Column block of each part of the denoiser input z, in layout order."""
        L = self.series_len
        widths = {"x_t": L, "time": self.time_dim, "cond": self.cond_emb_dim,
                  "mask": L, "context": L, "prompts": self.prompt_dim}
        ends = np.cumsum(list(widths.values()))
        return {name: slice(end - width, end) for (name, width), end in zip(widths.items(), ends)}


_CondVector = tuple[(float,) * COND_DIM]


@dataclass(frozen=True)
class _LayoutManifest:
    fingerprint: str
    mean: _CondVector
    std: _CondVector


@dataclass(frozen=True)
class HeadManifest:
    """What a head checkpoint records to rebuild its model."""

    kind: str
    arch: DenoiserArch
    schedule: NoiseSchedule
    stats: NormalizationStats
    layout: _LayoutManifest
    p_uncond: float
    guidance_w: float
    lora: LoraSpec | None = None


@dataclass
class Conditioning:
    """The fixed denoiser inputs of B rows, or of K problems of B rows, and a sampler's workspace.

    ``DiffusionModel.condition`` embeds the inputs, with the leading shape of
    the mask: (B,) for the raw-input ``denoise`` and training, (K, B) for
    ``sample()``. The first ``denoise`` with a stacked one lays the inputs out
    as the float32 z template, (passes, K, B, input_dim): pass 0 holds the
    condition embedding and, when ``guided``, pass 1 the null embedding. It
    also builds the float32 eps buffer, (passes, K, B, L), ``params``, the
    float32 copies of the gate and expert tensors, and ``workspace``: for each
    tile of ``problem_tiles``, one float32 output buffer per gate and expert
    layer covering every pass of the tile, all views into one set sized for
    the largest tile. Each step writes only the x_t and time columns of every
    pass and returns the eps buffer, overwritten by the next step. The gate mix
    weights the expert outputs in their own buffer before summing them into
    eps. Everything here lives as long as the object, and the embeddings and
    ``params`` hold parameter values, so it is valid only while the model's
    parameters stay unchanged.
    """

    c_emb: np.ndarray  # (..., B, cond_emb_dim) condition embedding
    mask: np.ndarray  # (..., B, L) float, 1 = generate
    context: np.ndarray  # (..., B, L) normalized history
    prompts: np.ndarray  # (..., B, top_n * prompt_dim) retrieved prompts, (..., B, 0) without memory
    cache: dict  # embedding internals the backward pass reads, {} when not kept
    guided: bool = False  # a null pass beside the conditional one
    z: np.ndarray | None = None  # (passes, K, B, input_dim) float32 template
    eps: np.ndarray | None = None  # (passes, K, B, L) float32 noise estimates of the last step
    params: dict | None = None  # float32 copies of the gate and expert tensors
    workspace: list | None = None  # per tile: (problems, rows, gate buffers, expert buffers)

    @property
    def batch(self) -> int:
        return self.mask.shape[-2]


class DiffusionModel:
    """One generation head: schedule + MoE denoiser + channel/condition statistics."""

    def __init__(
        self,
        kind: str,
        arch: DenoiserArch,
        schedule: NoiseSchedule,
        stats: NormalizationStats,
        layout: ConditionLayout,
        seed: int = 0,
        p_uncond: float = 0.1,
        guidance_w: float = 1.0,
    ):
        if arch.cond_dim != layout.dim:
            raise ModelError(
                f"arch cond_dim {arch.cond_dim} != condition layout dim {layout.dim}"
            )
        if not 0.0 <= p_uncond < 1.0:
            raise ConfigError(f"p_uncond must be in [0, 1), got {p_uncond}")
        self.kind = kind
        self.arch = arch
        self.schedule = schedule
        self.stats = stats
        self.layout = layout
        self.p_uncond = p_uncond
        self.guidance_w = guidance_w
        self.store = ParamStore()
        self._columns = arch.z_columns()
        self._build(seed)

    def _build(self, seed: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 41)))
        a = self.arch
        self.cond_mlp = MLP(self.store, "cond", (a.cond_dim, 16, a.cond_emb_dim),
                            hidden_activation="tanh", output_activation="tanh", rng=rng)
        self.time_mlp = MLP(self.store, "time", (_TIME_FEATURES, a.time_dim),
                            output_activation="tanh", rng=rng)
        self.store.add("null_embed", rng.normal(0.0, 0.1, size=a.cond_emb_dim))
        zin = a.input_dim
        self.gate_mlp = MLP(self.store, "gate", (zin, *a.gate_hidden, a.n_experts), rng=rng)
        self.experts = MLP(self.store, "experts", (zin, *a.expert_hidden, a.series_len),
                           rng=rng, stack=a.n_experts)
        if a.memory:
            m = a.memory
            self.query_mlp = MLP(self.store, "memory/query", (2 * a.series_len, m.key_dim),
                                 output_activation="tanh", rng=rng)
            keys = rng.normal(size=(m.n_pairs, m.key_dim))
            keys /= np.linalg.norm(keys, axis=1, keepdims=True)
            self.store.add("memory/keys", keys)
            self.store.add("memory/prompts", rng.normal(0.0, 0.1, size=(m.n_pairs, m.prompt_dim)))
        else:
            self.query_mlp = None

    # -- forward ---------------------------------------------------------------

    def condition(
        self, cond: np.ndarray, mask: np.ndarray, context: np.ndarray, guided: bool = False,
        keep_cache: bool = True,
    ) -> Conditioning:
        """Embed what stays fixed across steps: the condition, mask, context and prompts.

        Axes before the rows are stacked problems, each embedded with the bits
        of embedding it alone. ``keep_cache=False`` keeps none of the
        internals that only training's backward reads; the embeddings are the same.
        """
        L, dc = self.arch.series_len, self.arch.cond_dim
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        mask_f = np.atleast_2d(np.asarray(mask, dtype=float))
        context = np.atleast_2d(np.asarray(context, dtype=float))
        if mask_f.shape[-1] != L or context.shape != mask_f.shape:
            raise ShapeError(f"series inputs must be (..., B, {L})")
        if cond.shape != mask_f.shape[:-1] + (dc,):
            raise ShapeError(f"condition must be (..., B, {dc}), got {cond.shape}")
        cache: dict = {}

        def embed(mlp: MLP, x: np.ndarray, key: str) -> np.ndarray:
            if not keep_cache:
                return mlp.forward(x, keep_cache=False)
            h, cache[key] = mlp.forward(x)
            return h

        c_emb = embed(self.cond_mlp, cond, "cache_cond")
        if self.arch.memory:
            q = embed(self.query_mlp, np.concatenate([context, mask_f], axis=-1), "cache_query")
            indices, prompts = prompt_retrieve(
                self.store["memory/keys"], self.store["memory/prompts"], q, self.arch.memory.top_n
            )
            if keep_cache:
                cache.update(query=q, indices=indices)
        else:
            prompts = np.zeros(mask_f.shape[:-1] + (0,))
        return Conditioning(c_emb, mask_f, context, prompts, cache, guided)

    def _lay_out(
        self, cnd: Conditioning, null_mask: np.ndarray, x_t: np.ndarray, t_emb: np.ndarray, dtype=None
    ) -> np.ndarray:
        """The denoiser input z, blocks in ``z_columns`` order; null rows carry the null embedding.

        ``t_emb`` has one row per row of a problem, or one row for all, shared
        by every problem. z is made as ``dtype`` (default float64).
        """
        blocks = {
            "x_t": x_t,
            "time": np.broadcast_to(t_emb, cnd.mask.shape[:-1] + t_emb.shape[-1:]),
            "cond": np.where(null_mask[..., None], self.store["null_embed"], cnd.c_emb),
            "mask": cnd.mask,
            "context": cnd.context,
            "prompts": cnd.prompts,
        }
        return np.concatenate([blocks[name] for name in self._columns], axis=-1, dtype=dtype)

    def assemble_input(
        self,
        x_t: np.ndarray,
        t: np.ndarray,
        cond: np.ndarray,
        null_mask: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray,
    ) -> tuple[np.ndarray, dict]:
        """Build the shared expert/gate input; cache carries embedding internals."""
        x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
        t_emb, cache_time = self.time_mlp.forward(time_features(_per_row(t, len(x_t)), self.schedule.steps))
        cnd = self.condition(cond, mask, context)
        if x_t.shape != (cnd.batch, self.arch.series_len):
            raise ShapeError(f"series inputs must be (B, {self.arch.series_len})")
        null_mask = _per_row(null_mask, cnd.batch).astype(bool)
        z = self._lay_out(cnd, null_mask, x_t, t_emb)
        return z, {"null_mask": null_mask, "cache_time": cache_time, **cnd.cache}

    def gate_weights(self, z: np.ndarray) -> np.ndarray:
        return softmax(self.gate_mlp.forward(z, keep_cache=False))

    def expert_output(self, i: int, z: np.ndarray) -> np.ndarray:
        return self.experts.forward(z, keep_cache=False)[i]

    def denoise(
        self,
        x_t: np.ndarray,
        t,
        cond: np.ndarray | Conditioning,
        mask: np.ndarray | None = None,
        context: np.ndarray | None = None,
    ) -> np.ndarray:
        """Predicted noise: gate-weighted sum of expert outputs on the shared input.

        ``cond`` is either the raw conditions, (B, cond_dim) with (B, L)
        ``mask`` and ``context``, and then ``t`` may be per row; or a stacked
        ``Conditioning`` from ``condition`` that already holds them, for one
        sampler step at integer step ``t``. That form takes ``x_t`` as
        (K, B, L), runs every pass of every problem in tiles through the
        ``Conditioning``'s workspace in float32 and returns its float32 eps
        buffer, (passes, K, B, L). The raw-input form is training's float64
        forward, ``_forward``, with no row null and its caches dropped on return.
        """
        if isinstance(cond, Conditioning):
            return self._denoise_passes(x_t, int(t), cond)
        return self._forward(x_t, t, cond, False, mask, context)[0]

    def _denoise_passes(self, x_t: np.ndarray, t: int, cnd: Conditioning) -> np.ndarray:
        """Every pass of one sampler step through ``cnd``'s workspace, tile by tile (see ``Conditioning``)."""
        cols = self._columns
        x_t = np.asarray(x_t, dtype=float)
        if cnd.mask.ndim != 3 or x_t.shape != cnd.mask.shape:
            raise ShapeError(f"x_t of shape {x_t.shape} for stacked series inputs of shape {cnd.mask.shape}")
        t_emb = self.time_mlp.forward(time_features(t, self.schedule.steps), keep_cache=False)  # one row
        if cnd.z is None:
            nulls = (False, True) if cnd.guided else (False,)
            cnd.z = np.stack([self._lay_out(cnd, np.full(x_t.shape[:-1], null), x_t, t_emb, np.float32)
                              for null in nulls])
            cnd.eps = np.empty(cnd.z.shape[:-1] + (self.arch.series_len,), np.float32)
            cnd.params = {**self.gate_mlp.tensors(np.float32), **self.experts.tensors(np.float32)}
            cnd.workspace = self._workspace(*cnd.z.shape[:-1])
        z, eps, params = cnd.z, cnd.eps, cnd.params
        z[..., cols["x_t"]] = x_t
        z[..., cols["time"]] = t_emb
        for problems, rows, gate_out, expert_out in cnd.workspace:
            tile = z[:, problems, rows]
            gate = softmax(self.gate_mlp.forward(tile, keep_cache=False, out=gate_out, params=params))
            expert = self.experts.forward(tile, keep_cache=False, out=expert_out, params=params)
            # The gate mix weights the expert outputs in their own buffer.
            np.sum(np.multiply(np.moveaxis(gate, -1, -2)[..., None], expert, out=expert), axis=-3,
                   out=eps[:, problems, rows])
        return eps

    def _workspace(self, passes: int, problems: int, batch: int) -> list[tuple]:
        """Per tile: its problems, its rows and its float32 gate and expert buffers, views into the largest tile's."""
        tiles = [(ks, rows, (passes, ks.stop - ks.start, rows.stop - rows.start))
                 for ks, rows in problem_tiles(problems, batch)]
        most = max((lead for *_, lead in tiles), key=math.prod, default=(passes, 0, 0))
        gate, experts = (mlp.scratch(most, dtype=np.float32) for mlp in (self.gate_mlp, self.experts))
        return [(ks, rows, self.gate_mlp.scratch(lead, gate), self.experts.scratch(lead, experts))
                for ks, rows, lead in tiles]

    def _forward(self, x_t, t, cond, null_mask, mask, context) -> tuple[np.ndarray, dict]:
        z, cache = self.assemble_input(x_t, t, cond, null_mask, mask, context)
        logits, cache_gate = self.gate_mlp.forward(z)
        gate = softmax(logits)
        expert_out, cache_e = self.experts.forward(z)  # (M, B, L)
        cache.update(gate=gate, expert_out=expert_out, cache_gate=cache_gate, cache_e=cache_e)
        return (gate.T[:, :, None] * expert_out).sum(axis=0), cache  # the gate-weighted sum over experts

    def _backward(self, cache: dict, d_eps: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        gate, expert_out = cache["gate"], cache["expert_out"]
        d_gate = (d_eps[None] * expert_out).sum(axis=2).T
        d_logits = softmax_backward(gate, d_gate)
        dz = self.gate_mlp.backward(cache["cache_gate"], d_logits, grads)
        dz_e = self.experts.backward(cache["cache_e"], gate.T[:, :, None] * d_eps, grads)
        # Gate first, then expert by expert: a fixed summation order keeps the bits.
        dz = np.concatenate([dz[None], dz_e]).sum(axis=0)

        # Mask and context are inputs, with no parameters behind them.
        cols = self._columns
        d_temb, d_cemb, d_prompt = dz[:, cols["time"]], dz[:, cols["cond"]], dz[:, cols["prompts"]]

        self.time_mlp.backward(cache["cache_time"], d_temb, grads)
        null = cache["null_mask"]
        if null.any():
            grads["null_embed"] = np.add.reduce(d_cemb[null], axis=0, out=self.store.grad_out("null_embed"))
        self.cond_mlp.backward(cache["cache_cond"], np.where(null[:, None], 0.0, d_cemb), grads)
        if self.arch.memory and d_prompt.size:
            idx = cache["indices"]
            g_prompts = grads["memory/prompts"] = self._zeroed_grad("memory/prompts")
            slots = d_prompt.reshape(idx.shape + (self.arch.memory.prompt_dim,))
            _add_by_slot(g_prompts, idx, slots)

    def _pull_loss(self, cache: dict, grads: dict[str, np.ndarray]) -> float:
        """Retrieval alignment: pull each query toward its retrieved keys.

        All top_n slots run in one pass over (batch, top_n, key_dim) arrays.
        The loss, the query gradient and the key gradient add the slots in
        ascending order onto sums that start at zero, as a loop over the slots
        does, so the bits are that loop's.
        """
        m = self.arch.memory
        q, idx = cache["query"], cache["indices"]
        keys = self.store["memory/keys"]
        batch, top_n = idx.shape
        w = m.pull_weight / (batch * top_n)
        qn = (np.linalg.norm(q, axis=1, keepdims=True) + _NORM_EPS)[:, None]
        q = q[:, None]
        k = keys[idx]
        kn = np.linalg.norm(k, axis=2, keepdims=True) + _NORM_EPS
        cos = (q * k).sum(axis=2, keepdims=True) / (qn * kn)
        # A slot's loss sums its batch as one contiguous row, as the loop's 1-D sum did.
        per_slot = np.ascontiguousarray((1.0 - cos)[..., 0].T).sum(axis=1)
        loss = sum((w * per_slot).tolist(), 0.0)
        dq = np.add.reduce(-w * (k / (qn * kn) - cos * q / (qn * qn)), axis=1, initial=0.0)
        self.query_mlp.backward(cache["cache_query"], dq, grads)
        dk = grads["memory/keys"] = self._zeroed_grad("memory/keys")
        _add_by_slot(dk, idx, -w * (q / (qn * kn) - cos * k / (kn * kn)))
        return loss

    def _zeroed_grad(self, name: str) -> np.ndarray:
        """A zero gradient for ``name`` where ``ParamStore.grad_out`` says, for a sum to add into."""
        out = self.store.grad_out(name)
        if out is None:
            return np.zeros_like(self.store[name])
        out.fill(0.0)
        return out

    # -- training ----------------------------------------------------------------

    def loss_and_grads(
        self,
        x0: np.ndarray,
        cond: np.ndarray,
        mask: np.ndarray,
        t: np.ndarray,
        eps: np.ndarray,
        null_mask: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mask-restricted noise-regression loss and its gradients; deterministic given its inputs.

        A trainable tensor's gradient is its view of the store's packed gradient
        buffer (``ParamStore.grad_out``), valid until the next backward or Adam step.
        """
        mask = np.asarray(mask, dtype=bool)
        counts = mask.sum(axis=1)
        if (counts == 0).any():
            raise DomainError("every sample needs at least one masked position")
        x_t = q_sample(x0, t, eps, self.schedule)
        context = np.where(mask, 0.0, x0)
        eps_hat, cache = self._forward(x_t, t, cond, null_mask, mask, context)
        diff = np.where(mask, eps_hat - eps, 0.0)
        batch = x0.shape[0]
        loss = float((np.square(diff).sum(axis=1) / counts).mean())
        grads: dict[str, np.ndarray] = {}
        d_eps_hat = 2.0 * diff / counts[:, None] / batch
        self._backward(cache, d_eps_hat, grads)
        if self.arch.memory:
            loss += self._pull_loss(cache, grads)
        return loss, grads

    def train_step(
        self,
        x0: np.ndarray,
        cond: np.ndarray,
        mask: np.ndarray,
        rng: np.random.Generator,
        lr: float = 1e-3,
    ) -> float:
        batch = x0.shape[0]
        t = rng.integers(1, self.schedule.steps + 1, size=batch)
        eps = rng.standard_normal(x0.shape)
        null_mask = rng.random(batch) < self.p_uncond
        loss, grads = self.loss_and_grads(x0, cond, mask, t, eps, null_mask)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite training loss {loss}")
        self.store.adam_step(grads, lr=lr)
        if self.arch.memory and self.store.is_trainable("memory/keys"):
            keys = self.store["memory/keys"]
            self.store.set("memory/keys", keys / (np.linalg.norm(keys, axis=1, keepdims=True) + _NORM_EPS))
        return loss

    def train(
        self,
        series_norm: np.ndarray,
        cond_norm: np.ndarray,
        masks: np.ndarray,
        steps: int,
        batch_size: int,
        rng: np.random.Generator,
        lr: float = 1e-3,
    ) -> list[float]:
        n = series_norm.shape[0]
        losses = []
        for _ in range(steps):
            idx = rng.integers(0, n, size=min(batch_size, n))
            losses.append(self.train_step(series_norm[idx], cond_norm[idx], masks[idx], rng, lr=lr))
        return losses

    # -- sampling -----------------------------------------------------------------

    def sample(
        self,
        cond: np.ndarray,
        mask: np.ndarray,
        context: np.ndarray | None,
        rng: np.random.Generator,
        guidance_w: float | None = None,
    ) -> np.ndarray:
        """Ancestral sampling; returns series in raw units, history honored exactly.

        One problem is ``cond`` (B, cond_dim), ``mask`` and ``context`` (B, L)
        and one generator ``rng``; K stacked problems are (K, B, ...) inputs
        with a sequence of K generators. The output has the mask's shape.
        Problem k draws only from ``rng[k]`` and gets the bits of sampling it
        alone: a one-problem call is the K = 1 case of the same loop.
        ``context`` is raw-unit history (ignored at masked positions); it may be
        omitted only for fully masked generation. ``guidance_w`` mixes the
        conditional and null-condition noise estimates as (1+w) cond - w null.
        The denoiser forwards run in float32 (see the module docstring); the
        output, like the sampler state, is float64.
        """
        w = self.guidance_w if guidance_w is None else guidance_w
        if not (np.isfinite(w) and w >= 0):
            raise ConfigError(f"guidance_w must be finite and >= 0, got {w}")
        cond = np.asarray(cond, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        L, dc = self.arch.series_len, self.arch.cond_dim
        if mask.ndim not in (2, 3) or mask.shape[-1] != L:
            raise ShapeError(f"mask must be (B, {L}) or (K, B, {L}), got shape {mask.shape}")
        if cond.shape != mask.shape[:-1] + (dc,):
            raise ShapeError(f"condition of shape {cond.shape} for a mask of shape {mask.shape}")
        if context is not None and np.shape(context) != mask.shape:
            raise ShapeError(f"context of shape {np.shape(context)} for a mask of shape {mask.shape}")
        single = mask.ndim == 2
        if single:
            cond, mask, context = cond[None], mask[None], None if context is None else np.asarray(context)[None]
        rngs = [rng] if single else rng
        if isinstance(rngs, np.random.Generator) or len(rngs) != len(mask):
            raise ShapeError(f"{len(mask)} stacked problems need a sequence of {len(mask)} generators")
        if context is None:
            if not mask.all():
                raise ModelError("context required when any position is revealed")
            ctx = np.zeros(mask.shape)
        else:
            ctx = np.where(mask, 0.0, self.stats.normalize(context))
        for name in self.store.names():
            if not np.isfinite(self.store[name]).all():
                raise ModelError(f"model parameter {name!r} is non-finite")

        def draw(into: np.ndarray) -> np.ndarray:
            for gen, rows in zip(rngs, into):
                gen.standard_normal(out=rows)
            return into

        sched = self.schedule
        cnd = self.condition(cond, mask, ctx, guided=w > 0, keep_cache=False)
        # Each step updates x in place, in float64 and in the operand order of the expressions in the comments.
        x, revealed = draw(np.empty(mask.shape)), ~mask
        noise, eps_hat = np.empty(mask.shape), np.empty(mask.shape)
        for t in range(sched.steps, 0, -1):
            eps = self.denoise(x, t, cnd)
            # (1 + w) * cond - w * null, of the float32 estimates; a factor of 1.0 is exact.
            np.multiply(eps[0], 1.0 + w, out=eps_hat, dtype=np.float64)
            if w > 0:
                eps_hat -= np.multiply(eps[1], w, out=noise, dtype=np.float64)
            beta_t = sched.beta_at(t)
            a_bar_t = sched.alpha_bar[t]
            # The mean: (x - beta_t / sqrt(1 - a_bar_t) * eps_hat) / sqrt(1 - beta_t).
            np.subtract(x, np.multiply(eps_hat, beta_t / np.sqrt(1.0 - a_bar_t), out=eps_hat), out=x)
            x /= np.sqrt(1.0 - beta_t)
            if t > 1:  # mean + sqrt(beta_t) * noise
                x += np.multiply(draw(noise), np.sqrt(beta_t), out=noise)
            # Re-noise the revealed history to step t-1 and overwrite (inpainting).
            np.copyto(x, forward_noise(ctx, sched.alpha_bar[t - 1], draw(noise)), where=revealed)
        out = self.stats.denormalize(x)
        return out[0] if single else out

    # -- low-rank adaptation ---------------------------------------------------------

    @property
    def lora(self) -> LoraSpec | None:
        """The adapter setting of every expert layer; None without adapters."""
        return self.experts.lora.get(0)

    def lora_attach(self, rank: int, alpha: float, seed: int = 0) -> None:
        """Adapter pair on every expert layer; everything else freezes."""
        if self.lora is not None:
            raise ConfigError("adapters already attached")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
        self.store.freeze(self.store.names())
        self.experts.attach_lora(range(self.experts.n_layers), rank, alpha, rng=rng)

    def lora_merge(self) -> None:
        if self.lora is None:
            raise ConfigError("no adapters attached")
        self.experts.merge_lora()
        self.store.unfreeze(self.store.names())

    # -- persistence -------------------------------------------------------------------

    def manifest(self) -> dict:
        return asdict(HeadManifest(
            kind=self.kind,
            arch=self.arch,
            schedule=self.schedule,
            stats=self.stats,
            layout=_LayoutManifest(ConditionLayout.fingerprint(), tuple(self.layout.mean.tolist()),
                                   tuple(self.layout.std.tolist())),
            p_uncond=self.p_uncond,
            guidance_w=self.guidance_w,
            lora=self.lora,
        ))

    def save(self, path: str) -> None:
        self.store.save(path, manifest=self.manifest())

    @classmethod
    def from_manifest(cls, manifest: dict, where: str = "head") -> "DiffusionModel":
        """A freshly initialized model of the architecture ``manifest`` records, adapters included.

        A manifest field of the wrong type, or a schedule or adapter record
        that fails its own check, is a FormatError naming ``where`` and the field.
        """
        try:
            m = read_json(HeadManifest, manifest, FormatError, lambda key: f"{where} field {key!r}", "manifest")
        except (ConfigError, ShapeError) as exc:  # raised here only by a NoiseSchedule's or a LoraSpec's own check
            key = "manifest.schedule" if isinstance(exc, ConfigError) else "manifest.lora.rank"
            raise FormatError(f"{where} field {key!r}: {exc}") from None
        if m.layout.fingerprint != ConditionLayout.fingerprint():
            raise ModelError(f"{where} was written under a different condition layout")
        model = cls(
            kind=m.kind,
            arch=m.arch,
            schedule=m.schedule,
            stats=m.stats,
            layout=ConditionLayout(mean=np.array(m.layout.mean), std=np.array(m.layout.std)),
            p_uncond=m.p_uncond,
            guidance_w=m.guidance_w,
        )
        if m.lora:
            model.lora_attach(m.lora.rank, m.lora.alpha)
        return model

    @classmethod
    def load(cls, path: str) -> "DiffusionModel":
        store, manifest = ParamStore.load(path)
        model = cls.from_manifest(manifest, f"checkpoint {path}")
        model.store.assign(store, f"checkpoint {path}")
        return model
