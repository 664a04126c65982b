import dataclasses
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from celltwin.dataset import COND_DIM, ConditionLayout, NormalizationStats
from celltwin.diffusion import (
    DenoiserArch,
    DiffusionModel,
    MemoryConfig,
    NoiseSchedule,
    forward_noise,
    problem_tiles,
    prompt_retrieve,
    q_sample,
    row_tiles,
    time_features,
)
from celltwin import diffusion
from celltwin.errors import ConfigError, DomainError, FormatError, ModelError, ShapeError
from celltwin.nn import LoraSpec, finite_difference_check, softmax


def unit_layout() -> ConditionLayout:
    return ConditionLayout(mean=np.zeros(COND_DIM), std=np.ones(COND_DIM))


def tiny_model(series_len=6, memory=None, seed=0, n_experts=2, stats=None,
               expert_hidden=(8,), gate_hidden=(8,)) -> DiffusionModel:
    arch = DenoiserArch(
        series_len=series_len,
        cond_emb_dim=4,
        time_dim=4,
        n_experts=n_experts,
        expert_hidden=expert_hidden,
        gate_hidden=gate_hidden,
        memory=memory,
    )
    return DiffusionModel(
        kind="traffic",
        arch=arch,
        schedule=NoiseSchedule(10, 1e-4, 0.02),
        stats=stats or NormalizationStats(mean=0.0, std=1.0),
        layout=unit_layout(),
        seed=seed,
    )


def random_inputs(model, batch, rng):
    L = model.arch.series_len
    x_t = rng.standard_normal((batch, L))
    t = rng.integers(1, model.schedule.steps + 1, size=batch)
    cond = rng.standard_normal((batch, COND_DIM))
    mask = np.ones((batch, L), dtype=bool)
    mask[:, : L // 3] = False
    context = np.where(mask, 0.0, rng.standard_normal((batch, L)))
    return x_t, t, cond, mask, context


class TestSchedule:
    def test_single_step(self):
        sched = NoiseSchedule(1, 1e-4, 1e-4)
        assert sched.alpha_bar[1] == pytest.approx(0.9999, abs=1e-12)

    def test_default_schedule_monotone_and_small_tail(self):
        sched = NoiseSchedule(100, 1e-4, 0.02)
        assert (np.diff(sched.alpha_bar) < 0).all()
        assert sched.alpha_bar[0] == 1.0
        assert sched.alpha_bar[-1] < 0.4

    def test_bounds_validation(self):
        with pytest.raises(ConfigError):
            NoiseSchedule(10, 0.5, 0.1)
        with pytest.raises(ConfigError):
            NoiseSchedule(0, 1e-4, 0.02)

    def test_record_derives_its_arrays_once(self):
        sched = NoiseSchedule(5, 1e-3, 0.1)
        assert sched.beta is sched.beta and sched.alpha_bar is sched.alpha_bar
        assert sched.beta.tobytes() == np.linspace(1e-3, 0.1, 5).tobytes()
        assert sched.alpha_bar.tobytes() == np.concatenate([[1.0], np.cumprod(1.0 - sched.beta)]).tobytes()
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.steps = 6

    def test_one_step_head_records_its_beta_max(self, tmp_path):
        model = DiffusionModel("traffic", tiny_model().arch, NoiseSchedule(1, 1e-4, 0.02),
                               NormalizationStats(0.0, 1.0), unit_layout())
        assert model.manifest()["schedule"] == {"steps": 1, "beta_min": 1e-4, "beta_max": 0.02}
        path = str(tmp_path / "model.npz")
        model.save(path)
        back = DiffusionModel.load(path)
        assert back.schedule == NoiseSchedule(1, 1e-4, 0.02)
        assert back.schedule.beta.tolist() == [1e-4]


class TestForwardProcess:
    def test_identity_endpoint(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((3, 5))
        eps = rng.standard_normal((3, 5))
        assert np.array_equal(forward_noise(x0, 1.0, eps), x0)

    def test_pure_noise_endpoint(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((3, 5))
        eps = rng.standard_normal((3, 5))
        assert np.array_equal(forward_noise(x0, 0.0, eps), eps)

    def test_first_step_plug_in(self):
        sched = NoiseSchedule(10, 1e-4, 1e-4)
        x0 = np.array([[1.0, -1.0]])
        eps = np.array([[0.5, 0.5]])
        got = q_sample(x0, 1, eps, sched)
        want = np.sqrt(0.9999) * x0 + np.sqrt(1e-4) * eps
        assert np.allclose(got, want, atol=1e-15)

    def test_domain_check(self):
        sched = NoiseSchedule(10, 1e-4, 0.02)
        with pytest.raises(DomainError):
            q_sample(np.zeros((1, 2)), 11, np.zeros((1, 2)), sched)
        with pytest.raises(DomainError):
            q_sample(np.zeros((1, 2)), -1, np.zeros((1, 2)), sched)


class TestMoEStructure:
    @pytest.mark.parametrize("edit, message", [
        ({"series_len": 0}, "series_len must be >= 1, got 0"),
        ({"cond_emb_dim": -1}, "cond_emb_dim must be >= 1, got -1"),
        ({"time_dim": 0}, "time_dim must be >= 1, got 0"),
        ({"n_experts": 0}, "n_experts must be >= 1, got 0"),
        ({"expert_hidden": (0, 64)}, "expert_hidden must be >= 1, got (0, 64)"),
        ({"gate_hidden": (-3,)}, "gate_hidden must be >= 1, got (-3,)"),
    ])
    def test_arch_checks_itself(self, edit, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            DenoiserArch(**{"series_len": 6, **edit})

    def test_arch_without_hidden_layers_is_legal(self):
        assert DenoiserArch(series_len=1, expert_hidden=(), gate_hidden=()).input_dim == 3 + 8 + 8

    def test_gate_rows_sum_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        x_t, t, cond, mask, context = random_inputs(model, 16, rng)
        z, _ = model.assemble_input(x_t, t, cond, np.zeros(16, bool), mask, context)
        gate = model.gate_weights(z)
        assert np.abs(gate.sum(axis=1) - 1.0).max() < 1e-12

    def test_output_is_gate_weighted_expert_sum(self):
        model = tiny_model(n_experts=3)
        rng = np.random.default_rng(3)
        x_t, t, cond, mask, context = random_inputs(model, 8, rng)
        eps_hat = model.forward(x_t, t, cond, False, mask, context)[0]
        z, _ = model.assemble_input(x_t, t, cond, np.zeros(8, bool), mask, context)
        gate = model.gate_weights(z)
        recomputed = sum(
            gate[:, i : i + 1] * model.expert_output(i, z) for i in range(3)
        )
        assert np.abs(eps_hat - recomputed).max() < 1e-12

    def test_one_hot_gate_selects_single_expert(self):
        model = tiny_model(n_experts=2)
        # Saturate the gate toward expert 1 via its output bias.
        bias = model.store["gate/b1"].copy()
        bias[:] = (-1000.0, 1000.0)
        model.store.set("gate/b1", bias)
        rng = np.random.default_rng(4)
        x_t, t, cond, mask, context = random_inputs(model, 4, rng)
        z, _ = model.assemble_input(x_t, t, cond, np.zeros(4, bool), mask, context)
        assert np.allclose(model.gate_weights(z)[:, 1], 1.0)
        eps_hat = model.forward(x_t, t, cond, False, mask, context)[0]
        assert np.allclose(eps_hat, model.expert_output(1, z), atol=1e-12)

    def test_constant_experts_average(self):
        model = tiny_model(n_experts=2)
        # Zero every expert weight and pin outputs at 1.0 and 3.0; uniform gate.
        last = model.experts.n_layers - 1
        for i, const in enumerate((1.0, 3.0)):
            for layer in range(last + 1):
                for name in (f"experts/W{layer}", f"experts/b{layer}"):
                    model.store[name][i] = 0.0
            model.store[f"experts/b{last}"][i] = const
        for layer in range(model.gate_mlp.n_layers):
            model.store.set(f"gate/W{layer}", np.zeros_like(model.store[f"gate/W{layer}"]))
            model.store.set(f"gate/b{layer}", np.zeros_like(model.store[f"gate/b{layer}"]))
        rng = np.random.default_rng(5)
        x_t, t, cond, mask, context = random_inputs(model, 4, rng)
        eps_hat = model.forward(x_t, t, cond, False, mask, context)[0]
        assert np.allclose(eps_hat, 2.0, atol=1e-12)


def reference_mlp_backward(mlp, cache, dout, grads):
    """``MLP.backward`` before gradients went into the packed buffer: every gradient a new array."""
    d = np.asarray(dout, dtype=np.float64)
    store, p = mlp.store, mlp.prefix
    for i in range(mlp.n_layers - 1, -1, -1):
        x_in, post, low = cache[i]
        act = mlp.acts[i]
        deriv = ((post > 0.0).astype(float) if act == "relu" else 1.0 - post * post if act == "tanh"
                 else np.ones_like(post))
        dpre = d * deriv
        dpre_t = np.swapaxes(dpre, -1, -2)
        grads[f"{p}/W{i}"] = dpre_t @ x_in
        grads[f"{p}/b{i}"] = dpre.sum(axis=-2)
        d = dpre @ store[f"{p}/W{i}"]
        if i in mlp.lora:
            scale = mlp.lora[i].scale
            grads[f"{p}/B{i}"] = scale * (dpre_t @ low)
            dlow = scale * (dpre @ store[f"{p}/B{i}"])
            grads[f"{p}/A{i}"] = np.swapaxes(dlow, -1, -2) @ x_in
            d = d + dlow @ store[f"{p}/A{i}"]
    return d


def reference_loss_and_grads(model, x0, cond, mask, t, eps, null_mask):
    """``loss_and_grads`` with the dict path it replaced: new arrays, and a loop over the top_n slots."""
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    x_t = q_sample(x0, t, eps, model.schedule)
    eps_hat, cache = model.forward(x_t, t, cond, null_mask, mask, np.where(mask, 0.0, x0))
    diff = np.where(mask, eps_hat - eps, 0.0)
    loss = float((np.square(diff).sum(axis=1) / counts).mean())
    grads = {}
    d_eps = 2.0 * diff / counts[:, None] / x0.shape[0]
    gate, expert_out = cache["gate"], cache["expert_out"]
    d_logits = diffusion.softmax_backward(gate, (d_eps[None] * expert_out).sum(axis=2).T)
    dz = reference_mlp_backward(model.gate_mlp, cache["cache_gate"], d_logits, grads)
    dz_e = reference_mlp_backward(model.experts, cache["cache_e"], gate.T[:, :, None] * d_eps, grads)
    dz = np.concatenate([dz[None], dz_e]).sum(axis=0)
    cols = model.arch.z_columns()
    d_temb, d_cemb, d_prompt = dz[:, cols["time"]], dz[:, cols["cond"]], dz[:, cols["prompts"]]
    reference_mlp_backward(model.time_mlp, cache["cache_time"], d_temb, grads)
    null = cache["null_mask"]
    if null.any():
        grads["null_embed"] = d_cemb[null].sum(axis=0)
    reference_mlp_backward(model.cond_mlp, cache["cache_cond"], np.where(null[:, None], 0.0, d_cemb), grads)
    m = model.arch.memory
    if m is None:
        return loss, grads
    idx = cache["indices"]
    g_prompts = np.zeros_like(model.store["memory/prompts"])
    for j in range(m.top_n):
        np.add.at(g_prompts, idx[:, j], d_prompt[:, j * m.prompt_dim:(j + 1) * m.prompt_dim])
    grads["memory/prompts"] = g_prompts
    q, keys = cache["query"], model.store["memory/keys"]
    w = m.pull_weight / (idx.size)
    qn = np.linalg.norm(q, axis=1, keepdims=True) + diffusion._NORM_EPS
    pull, dq, dk = 0.0, np.zeros_like(q), np.zeros_like(keys)
    for j in range(m.top_n):
        k = keys[idx[:, j]]
        kn = np.linalg.norm(k, axis=1, keepdims=True) + diffusion._NORM_EPS
        cos = (q * k).sum(axis=1, keepdims=True) / (qn * kn)
        pull += float(w * (1.0 - cos).sum())
        dq += -w * (k / (qn * kn) - cos * q / (qn * qn))
        np.add.at(dk, idx[:, j], -w * (q / (qn * kn) - cos * k / (kn * kn)))
    reference_mlp_backward(model.query_mlp, cache["cache_query"], dq, grads)
    grads["memory/keys"] = dk
    return loss + pull, grads


def reference_train_step(model, x0, cond, mask, rng, lr):
    """``train_step`` on the reference gradients, each a new array that Adam copies into its buffer."""
    t = rng.integers(1, model.schedule.steps + 1, size=len(x0))
    eps = rng.standard_normal(x0.shape)
    null_mask = rng.random(len(x0)) < model.p_uncond
    loss, grads = reference_loss_and_grads(model, x0, cond, mask, t, eps, null_mask)
    assert not any(np.shares_memory(g, model.store._packed.grad) for g in grads.values()
                   if model.store._packed is not None)
    model.store.adam_step(grads, lr=lr)
    if model.arch.memory and model.store.is_trainable("memory/keys"):
        keys = model.store["memory/keys"]
        model.store.set("memory/keys", keys / (np.linalg.norm(keys, axis=1, keepdims=True) + diffusion._NORM_EPS))
    return loss


def adam_state(store):
    """Every tensor's value, moments, step count and flag, as bytes."""
    return {name: (t.value.tobytes(), t.m.tobytes(), t.v.tobytes(), t.step, t.trainable)
            for name, t in store._tensors.items()}


class TestTraining:
    def test_loss_nonnegative(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((8, 6))
        cond = rng.standard_normal((8, COND_DIM))
        mask = np.ones((8, 6), dtype=bool)
        loss = model.train_step(x0, cond, mask, rng)
        assert loss >= 0.0

    def test_always_null_means_condition_is_unused(self):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        model_a = tiny_model(seed=9)
        model_b = tiny_model(seed=9)
        model_a.p_uncond = 1.0
        model_b.p_uncond = 1.0
        x0 = np.random.default_rng(8).standard_normal((8, 6))
        mask = np.ones((8, 6), dtype=bool)
        cond_a = np.random.default_rng(9).standard_normal((8, COND_DIM))
        cond_b = np.random.default_rng(10).standard_normal((8, COND_DIM))
        losses_a = [model_a.train_step(x0, cond_a, mask, rng_a) for _ in range(5)]
        losses_b = [model_b.train_step(x0, cond_b, mask, rng_b) for _ in range(5)]
        assert losses_a == losses_b
        for name in model_a.store.names():
            assert np.array_equal(model_a.store[name], model_b.store[name])

    def test_loss_decreases_on_gaussian_toy(self):
        model = tiny_model(series_len=4)
        rng = np.random.default_rng(11)
        data = rng.standard_normal((256, 4))
        cond = np.zeros((256, COND_DIM))
        masks = np.ones((256, 4), dtype=bool)
        losses = model.train(data, cond, masks, steps=500, batch_size=32, rng=rng, lr=2e-3)
        assert np.mean(losses[-50:]) < np.mean(losses[:50])

    @pytest.mark.parametrize("head", ["memory", "plain", "lora"])
    def test_steps_match_the_dict_path_bit_for_bit(self, head):
        mem = MemoryConfig(n_pairs=12, top_n=3, prompt_dim=3, key_dim=10) if head == "memory" else None
        # One-value series, as the rsrp head's, where the experts' output gradient is not C-ordered.
        L = 1 if head == "plain" else 12

        def build():
            model = tiny_model(series_len=L, memory=mem, seed=3, n_experts=3, expert_hidden=(16, 12),
                               gate_hidden=(10,))
            model.p_uncond = 0.2
            if head == "lora":
                model.lora_attach(LoraSpec(2, 4.0), seed=5)
                for name in model.store.trainable_names():  # nonzero adapters, so every one gets a gradient
                    model.store.set(name, np.random.default_rng(6).normal(0.0, 0.3, size=model.store[name].shape))
            return model

        data = np.random.default_rng(7)
        x0 = data.standard_normal((64, L))
        cond = data.standard_normal((64, COND_DIM))
        mask = data.random((64, L)) < 0.7
        mask[:, -1] = True
        # Batches of 64 rows and of 3: the small ones often hold no null row.
        batches = [slice(0, 64), slice(5, 8), slice(0, 64), slice(10, 13), slice(20, 23), slice(0, 64)]
        got, want = build(), build()
        rng_got, rng_want = np.random.default_rng(8), np.random.default_rng(8)
        for rows in batches:
            loss_got = got.train_step(x0[rows], cond[rows], mask[rows], rng_got, lr=0.01)
            loss_want = reference_train_step(want, x0[rows], cond[rows], mask[rows], rng_want, lr=0.01)
            assert loss_got == loss_want
            assert adam_state(got.store) == adam_state(want.store)
        null_steps = got.store._tensors["null_embed"].step
        if head == "lora":
            assert null_steps == 0 and not got.store.is_trainable("experts/W0")
        else:
            assert 0 < null_steps < len(batches)  # some batches had no null row and left null_embed alone
        # A backward writes a trainable tensor's gradient into the buffer and a frozen one's elsewhere.
        _, grads = got.loss_and_grads(x0, cond, mask, np.full(64, 3), np.ones((64, L)), np.arange(64) % 5 == 0)
        assert set(grads) == set(got.store.names())
        for name, g in grads.items():
            assert (g is got.store.grad_out(name)) == got.store.is_trainable(name)
            assert np.shares_memory(g, got.store._packed.grad) == got.store.is_trainable(name)

    def test_gradients_match_finite_differences(self):
        model = tiny_model(series_len=4, n_experts=2)
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal((3, 4))
        cond = rng.standard_normal((3, COND_DIM))
        mask = np.array([[True] * 4, [False, True, True, True], [True, True, False, False]])
        t = np.array([1, 5, 9])
        eps = rng.standard_normal((3, 4))
        null = np.array([False, True, False])

        def loss_fn():
            return model.loss_and_grads(x0, cond, mask, t, eps, null)

        assert finite_difference_check(model.store, loss_fn) < 1e-4

    def test_gradients_with_memory_match_finite_differences(self):
        mem = MemoryConfig(n_pairs=5, top_n=2, prompt_dim=3, key_dim=4, pull_weight=0.1)
        model = tiny_model(series_len=4, n_experts=2, memory=mem)
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((3, 4))
        cond = rng.standard_normal((3, COND_DIM))
        mask = np.ones((3, 4), dtype=bool)
        t = np.array([2, 4, 8])
        eps = rng.standard_normal((3, 4))
        null = np.zeros(3, dtype=bool)

        def loss_fn():
            return model.loss_and_grads(x0, cond, mask, t, eps, null)

        assert finite_difference_check(model.store, loss_fn) < 1e-4


class TestSampling:
    def test_fixed_seed_reproduces(self):
        model = tiny_model()
        cond = np.zeros((3, COND_DIM))
        mask = np.ones((3, 6), dtype=bool)
        a = model.sample(cond, mask, None, np.random.default_rng(14))
        b = model.sample(cond, mask, None, np.random.default_rng(14))
        assert np.array_equal(a, b)

    def test_zero_guidance_ignores_null_embedding(self):
        model = tiny_model()
        cond = np.zeros((2, COND_DIM))
        mask = np.ones((2, 6), dtype=bool)
        a = model.sample(cond, mask, None, np.random.default_rng(15), guidance_w=0.0)
        model.store.set("null_embed", model.store["null_embed"] + 100.0)
        b = model.sample(cond, mask, None, np.random.default_rng(15), guidance_w=0.0)
        assert np.array_equal(a, b)

    def test_inpainting_returns_history_exactly(self):
        stats = NormalizationStats(mean=5.0, std=2.5)
        model = tiny_model(stats=stats)
        rng = np.random.default_rng(16)
        history = rng.normal(5.0, 2.5, size=(4, 6))
        mask = np.zeros((4, 6), dtype=bool)
        mask[:, 3:] = True
        out = model.sample(np.zeros((4, COND_DIM)), mask, history, np.random.default_rng(17))
        assert np.abs(out[:, :3] - history[:, :3]).max() < 1e-9

    def test_context_required_when_revealed(self):
        model = tiny_model()
        mask = np.zeros((1, 6), dtype=bool)
        mask[:, 5] = True
        with pytest.raises(ModelError):
            model.sample(np.zeros((1, COND_DIM)), mask, None, np.random.default_rng(0))

    @pytest.mark.parametrize("w", [np.inf, np.nan, -1.0])
    def test_bad_guidance_refuses_to_sample(self, w):
        model = tiny_model()
        with pytest.raises(ConfigError, match="guidance_w"):
            model.sample(np.zeros((1, COND_DIM)), np.ones((1, 6), bool), None,
                         np.random.default_rng(0), guidance_w=w)

    def test_non_finite_parameters_refuse_to_sample(self):
        model = tiny_model()
        bad = model.store["gate/W0"].copy()
        bad[0, 0] = np.nan
        model.store.set("gate/W0", bad)
        with pytest.raises(ModelError, match="gate/W0"):
            model.sample(np.zeros((1, COND_DIM)), np.ones((1, 6), bool), None,
                         np.random.default_rng(0))

    def test_learns_scalar_gaussian(self):
        # Brute-force check of the whole train/sample loop on N(3, 0.5^2).
        rng = np.random.default_rng(18)
        data_raw = rng.normal(3.0, 0.5, size=(512, 1))
        stats = NormalizationStats(mean=float(data_raw.mean()), std=float(data_raw.std()))
        arch = DenoiserArch(series_len=1, cond_emb_dim=4, time_dim=4, n_experts=2,
                            expert_hidden=(16,), gate_hidden=(8,))
        model = DiffusionModel(
            kind="rsrp", arch=arch, schedule=NoiseSchedule(50, 1e-4, 0.02), stats=stats,
            layout=unit_layout(), seed=1,
        )
        cond = np.zeros((512, COND_DIM))
        masks = np.ones((512, 1), dtype=bool)
        model.train(stats.normalize(data_raw), cond, masks, steps=800, batch_size=64,
                    rng=np.random.default_rng(19), lr=3e-3)
        out = model.sample(np.zeros((500, COND_DIM)), np.ones((500, 1), bool), None,
                           np.random.default_rng(20), guidance_w=0.0)
        assert abs(out.mean() - 3.0) < 0.15
        assert abs(out.std() - 0.5) < 0.15


def reference_denoise(model, params, x, t, cond, null, mask, ctx):
    """One float32 noise estimate over a whole batch, on an input laid out afresh from raw inputs.

    ``assemble_input`` lays out z with per-row null masks, so nothing is shared
    with the sampler's kept z template. Its time columns then take the step's
    one-row time embedding, and z goes through whole-batch gate and expert
    forwards on the float32 ``params``. The estimate comes back as float64.
    """
    batch = len(x)
    z, _ = model.assemble_input(x, np.full(batch, t), cond, np.full(batch, null), mask, ctx)
    z[:, model.arch.z_columns()["time"]] = model.time_mlp.forward(
        time_features(t, model.schedule.steps), keep_cache=False)
    z = z.astype(np.float32)
    gate = softmax(model.gate_mlp.forward(z, keep_cache=False, params=params))
    return (gate.T[:, :, None] * model.experts.forward(z, keep_cache=False, params=params)).sum(axis=0).astype(float)


def reference_sample(model, cond, mask, context, rng, w):
    """The sampler as a plain per-step loop of ``reference_denoise`` calls, float64 outside them."""
    sched = model.schedule
    batch, L = mask.shape
    params = {**model.gate_mlp.tensors(np.float32), **model.experts.tensors(np.float32)}
    ctx = np.zeros((batch, L)) if context is None else np.where(mask, 0.0, model.stats.normalize(context))
    x = rng.standard_normal((batch, L))
    for t in range(sched.steps, 0, -1):
        eps_hat = reference_denoise(model, params, x, t, cond, False, mask, ctx)
        if w > 0:
            eps_null = reference_denoise(model, params, x, t, cond, True, mask, ctx)
            eps_hat = (1.0 + w) * eps_hat - w * eps_null
        beta_t = sched.beta_at(t)
        mean = (x - beta_t / np.sqrt(1.0 - sched.alpha_bar[t]) * eps_hat) / np.sqrt(1.0 - beta_t)
        x = mean + np.sqrt(beta_t) * rng.standard_normal((batch, L)) if t > 1 else mean
        known = forward_noise(ctx, sched.alpha_bar[t - 1], rng.standard_normal((batch, L)))
        x = np.where(mask, x, known)
    return model.stats.denormalize(x)


class TestSamplerMatchesReference:
    MEMORY = MemoryConfig(n_pairs=4, top_n=2, prompt_dim=2, key_dim=4)

    @pytest.mark.parametrize("memory, w, lora, revealed", [
        (MEMORY, 1.0, False, 2),
        (None, 0.0, False, 0),
        (MEMORY, 1.0, True, 2),
        (None, 1.5, False, 2),  # a weight whose products round, in float64 as in the sampler
    ], ids=["memory_guided_inpainting", "unguided", "lora_attached", "guided_weight_1.5"])
    def test_bytes_equal_per_step_denoise(self, memory, w, lora, revealed):
        model = tiny_model(memory=memory, stats=NormalizationStats(mean=2.0, std=1.5), n_experts=3)
        rng = np.random.default_rng(23)
        if lora:
            model.lora_attach(LoraSpec(2, 4.0))
            for i in range(model.experts.n_layers):  # nonzero, so the adapters change the output
                name = f"experts/B{i}"
                model.store.set(name, rng.normal(0.0, 0.3, size=model.store[name].shape))
        batch = 5
        for call in range(2):  # two calls in a row on different inputs: nothing may carry over
            cond = rng.standard_normal((batch, COND_DIM))
            mask = np.ones((batch, 6), dtype=bool)
            mask[:, :revealed] = False
            mask[0, :] = True  # rows differ in what they reveal
            context = rng.normal(2.0, 1.5, size=(batch, 6)) if revealed else None
            got = model.sample(cond, mask, context, np.random.default_rng(call), guidance_w=w)
            want = reference_sample(model, cond, mask, context, np.random.default_rng(call), w)
            assert np.array_equal(got, want)

    def model(self, memory, lora):
        # The default layer widths: at these, a GEMM's bits depend on its row count below ~512 rows.
        model = tiny_model(memory=memory, stats=NormalizationStats(mean=2.0, std=1.5), n_experts=3,
                           expert_hidden=(64, 64), gate_hidden=(32,))
        if lora:
            rng = np.random.default_rng(23)
            model.lora_attach(LoraSpec(2, 4.0))
            for i in range(model.experts.n_layers):  # nonzero, so the adapters change the output
                name = f"experts/B{i}"
                model.store.set(name, rng.normal(0.0, 0.3, size=model.store[name].shape))
        return model

    @staticmethod
    def inputs(batch, revealed, seed):
        rng = np.random.default_rng(seed)
        cond = rng.standard_normal((batch, COND_DIM))
        mask = np.ones((batch, 6), dtype=bool)
        mask[:, :revealed] = False
        mask[0, :] = True  # rows differ in what they reveal
        context = rng.normal(2.0, 1.5, size=(batch, 6)) if revealed else None
        return cond, mask, context

    @pytest.mark.parametrize("batch", [1, 7, 36, 1023, 2047, 3000])
    @pytest.mark.parametrize("w, memory, lora", [  # every pair of settings appears once
        (0.0, None, False), (1.0, MEMORY, False), (1.0, None, True), (0.0, MEMORY, True),
    ], ids=["unguided", "guided_memory", "guided_lora", "unguided_memory_lora"])
    def test_tiled_bytes_equal_per_step_denoise(self, batch, w, memory, lora):
        model = self.model(memory, lora)
        cond, mask, context = self.inputs(batch, 2, batch)
        got = model.sample(cond, mask, context, np.random.default_rng(batch), guidance_w=w)
        want = reference_sample(model, cond, mask, context, np.random.default_rng(batch), w)
        assert np.array_equal(got, want)

    def test_calls_of_different_sizes_equal_calls_on_fresh_loads(self, tmp_path):
        model = self.model(self.MEMORY, lora=True)
        path = str(tmp_path / "head.npz")
        model.save(path)
        attrs = set(vars(model))
        for problems, batch, revealed in [(None, 3000, 2), (11, 36, 2), (None, 7, 0), (3, 7, 0), (None, 2047, 3)]:
            if problems is None:
                cond, mask, context = self.inputs(batch, revealed, batch)
                rngs = np.random.default_rng(batch)
                fresh_rngs = np.random.default_rng(batch)
            else:
                cond, mask, context = self.stacked_inputs(problems, batch, batch)
                rngs = [np.random.default_rng((batch, k)) for k in range(problems)]
                fresh_rngs = [np.random.default_rng((batch, k)) for k in range(problems)]
            got = model.sample(cond, mask, context, rngs)
            fresh = DiffusionModel.load(path).sample(cond, mask, context, fresh_rngs)
            assert np.array_equal(got, fresh)
        assert set(vars(model)) == attrs  # the workspace stays off the model

    @staticmethod
    def stacked_inputs(problems, batch, seed):
        """K problems of `batch` rows; problem k reveals k % 5 windows, and its row 0 reveals none."""
        rng = np.random.default_rng(seed)
        cond = rng.standard_normal((problems, batch, COND_DIM))
        mask = np.arange(6) >= (np.arange(problems) % 5)[:, None, None]
        mask = np.broadcast_to(mask, (problems, batch, 6)).copy()
        mask[:, 0, :] = True
        context = rng.normal(2.0, 1.5, size=(problems, batch, 6))
        return cond, mask, context

    @pytest.mark.parametrize("batch", [1, 7, 36])
    @pytest.mark.parametrize("problems", [1, 2, 11, "crossing"])
    @pytest.mark.parametrize("w, memory, lora", [  # every pair of settings appears once
        (0.0, None, False), (1.0, MEMORY, False), (1.0, None, True), (0.0, MEMORY, True),
    ], ids=["unguided", "guided_memory", "guided_lora", "unguided_memory_lora"])
    def test_stacked_problems_equal_separate_reference_calls(self, batch, problems, w, memory, lora):
        if problems == "crossing":  # one problem more than a tile holds
            problems = diffusion._PROBLEM_TILE_ROWS // batch + 1
            assert len({ks.start for ks, _ in problem_tiles(problems, batch)}) == 2
        model = self.model(memory, lora)
        cond, mask, context = self.stacked_inputs(problems, batch, 100 * problems + batch)
        rngs = [np.random.default_rng((batch, k)) for k in range(problems)]
        got = model.sample(cond, mask, context, rngs, guidance_w=w)
        assert got.shape == (problems, batch, 6)
        for k in range(problems):
            want = reference_sample(model, cond[k], mask[k], context[k], np.random.default_rng((batch, k)), w)
            assert got[k].tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_two_dimensional_call_is_the_one_problem_stacked_call(self, w):
        model = self.model(self.MEMORY, lora=True)
        cond, mask, context = self.inputs(36, 2, 5)
        flat = model.sample(cond, mask, context, np.random.default_rng(5), guidance_w=w)
        stacked = model.sample(cond[None], mask[None], context[None], [np.random.default_rng(5)], guidance_w=w)
        assert stacked.shape == (1,) + flat.shape and stacked[0].tobytes() == flat.tobytes()

    def check_stacked_forward(self, batch, dtype):
        # The sampler runs each layer on a (passes, K, B, in) stack on this premise:
        # a change in how numpy or BLAS dispatches the stack, such as one flat GEMM, fails here.
        model = self.model(memory=None, lora=True)
        params = None if dtype == np.float64 else {**model.gate_mlp.tensors(dtype), **model.experts.tensors(dtype)}
        z = np.random.default_rng(batch).normal(size=(2, 11, batch, model.arch.input_dim)).astype(dtype)
        gate = model.gate_mlp.forward(z, keep_cache=False, params=params)
        experts = model.experts.forward(z, keep_cache=False, params=params)
        assert gate.shape == (2, 11, batch, 3) and experts.shape == (2, 11, 3, batch, 6)
        assert gate.dtype == experts.dtype == dtype
        for p in range(2):
            for k in range(11):
                one_gate = model.gate_mlp.forward(z[p, k], keep_cache=False, params=params)
                one_experts = model.experts.forward(z[p, k], keep_cache=False, params=params)
                assert gate[p, k].tobytes() == one_gate.tobytes()
                assert experts[p, k].tobytes() == one_experts.tobytes()

    @pytest.mark.parametrize("batch", [7, 36])
    def test_stacked_problems_forward_with_the_bits_of_separate_ones(self, batch):
        self.check_stacked_forward(batch, np.float64)

    @pytest.mark.parametrize("batch", [7, 36])
    def test_stacked_float32_problems_forward_with_the_bits_of_separate_ones(self, batch):
        self.check_stacked_forward(batch, np.float32)

    @pytest.mark.parametrize("w", [0.0, 1.0])
    def test_float64_out_history_exact_and_parameters_untouched(self, w):
        model = self.model(self.MEMORY, lora=True)
        before = {name: model.store[name].copy() for name in model.store.names()}
        cond, mask, context = self.stacked_inputs(3, 36, 7)
        got = model.sample(cond, mask, context, [np.random.default_rng(k) for k in range(3)], guidance_w=w)
        assert got.dtype == np.float64 and not mask.all()
        # Revealed positions are the history itself, round-tripped through the normalization.
        history = model.stats.denormalize(model.stats.normalize(context))
        assert got[~mask].tobytes() == history[~mask].tobytes()
        assert model.store.names() == list(before)
        for name, value in before.items():
            assert model.store[name].dtype == np.float64 and model.store[name].tobytes() == value.tobytes(), name

    def test_sampling_keeps_no_backward_caches(self, monkeypatch):
        model = self.model(self.MEMORY, lora=False)
        cond, mask, context = self.inputs(36, 2, 9)
        ctx = np.where(mask, 0.0, model.stats.normalize(context))
        kept, free = model.condition(cond, mask, ctx), model.condition(cond, mask, ctx, keep_cache=False)
        assert set(kept.cache) == {"cache_cond", "cache_query", "query", "indices"} and free.cache == {}
        assert kept.c_emb.tobytes() == free.c_emb.tobytes() and kept.prompts.tobytes() == free.prompts.tobytes()
        seen, condition = [], model.condition

        def spy(*args, **kwargs):
            seen.append(condition(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(model, "condition", spy)
        model.sample(cond, mask, context, np.random.default_rng(0))
        assert len(seen) == 1 and seen[0].cache == {}

    def test_bits_do_not_depend_on_blas_threads(self, child_env):
        # 2,048 rows at the default widths: enough for BLAS to split each float32 GEMM across threads.
        code = (
            "import sys, numpy as np\n"
            "from test_diffusion import TestSamplerMatchesReference as T\n"
            "model = T().model(T.MEMORY, lora=True)\n"
            "cond, mask, context = T.inputs(2048, 2, 3)\n"
            "out = model.sample(cond, mask, context, np.random.default_rng(3), guidance_w=1.0)\n"
            "sys.stdout.buffer.write(out.tobytes())\n"
        )
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, timeout=120,
                               env={**child_env, "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert len(runs[0]) == 2048 * 6 * 8 and runs[0] == runs[1]


class TestSampleShapes:
    """A wrongly shaped input is a ShapeError naming its shape and the mask's, before any sampling."""

    B = 4

    @pytest.fixture(scope="class")
    def model(self):
        return tiny_model()

    def sample(self, model, cond=None, mask=None, context=None, rng=None):
        mask = np.ones((self.B, 6), dtype=bool) if mask is None else mask
        cond = np.zeros(mask.shape[:-1] + (COND_DIM,)) if cond is None else cond
        return model.sample(cond, mask, context, np.random.default_rng(0) if rng is None else rng)

    @pytest.mark.parametrize("shape", [(1, 6), (B, 1), (6,), (B + 1, 6), (1, B, 6)])
    def test_context_shape_checked(self, model, shape):
        with pytest.raises(ShapeError, match=rf"context of shape \({shape[0]},.*\({self.B}, 6\)"):
            self.sample(model, context=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(1, COND_DIM), (B, COND_DIM + 1), (COND_DIM,), (B + 1, COND_DIM)])
    def test_condition_shape_checked(self, model, shape):
        with pytest.raises(ShapeError, match=rf"condition of shape \({shape[0]},.*\({self.B}, 6\)"):
            self.sample(model, cond=np.zeros(shape))

    @pytest.mark.parametrize("shape", [(6,), (B, 5), (2, 2, B, 6)])
    def test_mask_shape_checked(self, model, shape):
        with pytest.raises(ShapeError, match="mask must be"):
            self.sample(model, mask=np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("rngs", [1, 2, 4, "one generator"])
    def test_one_generator_per_problem(self, model, rngs):
        rng = np.random.default_rng(0) if rngs == "one generator" else [np.random.default_rng(k) for k in range(rngs)]
        with pytest.raises(ShapeError, match="3 stacked problems need a sequence of 3 generators"):
            self.sample(model, mask=np.ones((3, self.B, 6), dtype=bool), rng=rng)


class TestRowTiles:
    @given(st.integers(0, 20_000))
    def test_tiles_cover_rows_in_order(self, batch):
        tiles = row_tiles(batch)
        assert tiles[0].start == 0 and tiles[-1].stop == batch
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        sizes = [tile.stop - tile.start for tile in tiles]
        assert min(sizes) >= min(batch, 1024)
        assert len(tiles) == max(batch // 1024, 1)

    @given(st.integers(0, 200), st.integers(1, 5000))
    def test_problem_tiles_hold_whole_problems_in_order(self, problems, batch):
        tiles = problem_tiles(problems, batch)
        covered = [(k, rows.start, rows.stop) for ks, rows in tiles for k in range(ks.start, ks.stop)]
        assert covered == [(k, rows.start, rows.stop) for k in range(problems) for rows in row_tiles(batch)]
        for ks, rows in tiles:
            if ks.stop - ks.start > 1:  # several problems: whole ones, within the row budget
                assert rows == slice(0, batch) and (ks.stop - ks.start) * batch <= diffusion._PROBLEM_TILE_ROWS


class TestLora:
    def test_attach_is_identity(self):
        model = tiny_model()
        rng = np.random.default_rng(21)
        x_t, t, cond, mask, context = random_inputs(model, 4, rng)
        before = model.forward(x_t, t, cond, False, mask, context)[0]
        model.lora_attach(LoraSpec(2, 4.0))
        after = model.forward(x_t, t, cond, False, mask, context)[0]
        assert np.array_equal(before, after)

    def test_alpha_scales_adapted_layer_delta_linearly(self):
        from celltwin.nn import MLP, ParamStore

        rng = np.random.default_rng(22)
        x = rng.normal(size=(5, 4))

        def layer_output(alpha):
            store = ParamStore()
            net = MLP(store, "lin", (4, 3), output_activation="linear",
                      rng=np.random.default_rng(1))
            net.attach_lora([0], LoraSpec(2, alpha), rng=np.random.default_rng(2))
            store.set("lin/B0", np.random.default_rng(3).normal(size=(3, 2)))
            out, _ = net.forward(x)
            return out

        y0 = layer_output(0.0)
        y1 = layer_output(2.0)
        y2 = layer_output(4.0)
        assert np.allclose(y2 - y0, 2.0 * (y1 - y0), atol=1e-12)

    def test_merge_matches_adapted_forward(self):
        model = tiny_model(seed=4)
        model.lora_attach(LoraSpec(2, 4.0), seed=6)
        rng = np.random.default_rng(23)
        for expert in range(model.arch.n_experts):
            for i in range(model.experts.n_layers):
                for mat in ("A", "B"):
                    name = f"experts/{mat}{i}"
                    model.store[name][expert] = rng.normal(size=model.store[name].shape[1:]) * 0.1
        x_t, t, cond, mask, context = random_inputs(model, 4, rng)
        adapted = model.forward(x_t, t, cond, False, mask, context)[0]
        model.lora_merge()
        merged = model.forward(x_t, t, cond, False, mask, context)[0]
        assert np.abs(adapted - merged).max() < 1e-10

    def test_base_frozen_while_adapted(self):
        model = tiny_model(seed=5)
        model.lora_attach(LoraSpec(2, 4.0))
        base_names = [n for n in model.store.names() if "/A" not in n and "/B" not in n]
        before = {n: model.store[n].copy() for n in base_names}
        rng = np.random.default_rng(24)
        x0 = rng.standard_normal((16, 6))
        cond = rng.standard_normal((16, COND_DIM))
        mask = np.ones((16, 6), dtype=bool)
        for _ in range(10):
            model.train_step(x0, cond, mask, rng, lr=1e-2)
        for name in base_names:
            assert np.array_equal(model.store[name], before[name])

    def test_rank_too_large(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.lora_attach(LoraSpec(64, 1.0))


class TestPromptMemory:
    def test_exact_key_is_top_one(self):
        rng = np.random.default_rng(25)
        keys = rng.normal(size=(6, 4))
        prompts = rng.normal(size=(6, 3))
        idx, flat = prompt_retrieve(keys, prompts, keys[3], top_n=1)
        assert idx.tolist() == [3]
        assert np.array_equal(flat, prompts[3])

    def test_all_keys_returned_sorted(self):
        rng = np.random.default_rng(26)
        keys = rng.normal(size=(5, 4))
        prompts = rng.normal(size=(5, 2))
        idx, flat = prompt_retrieve(keys, prompts, rng.normal(size=4), top_n=5)
        assert idx.tolist() == [0, 1, 2, 3, 4]
        assert np.array_equal(flat, prompts.reshape(-1))

    def test_duplicate_keys_tie_break_low_index(self):
        rng = np.random.default_rng(27)
        query = rng.normal(size=4)
        far = -query / np.linalg.norm(query)
        keys = np.stack([far, query, far, query, far])
        prompts = np.arange(10.0).reshape(5, 2)
        idx, _ = prompt_retrieve(keys, prompts, query, top_n=2)
        assert idx.tolist() == [1, 3]

    def test_top_n_bounds(self):
        with pytest.raises(ConfigError):
            prompt_retrieve(np.ones((3, 2)), np.ones((3, 2)), np.ones(2), top_n=4)

    def test_keys_stay_unit_norm_during_training(self):
        mem = MemoryConfig(n_pairs=4, top_n=2, prompt_dim=2, key_dim=4)
        model = tiny_model(memory=mem)
        rng = np.random.default_rng(28)
        x0 = rng.standard_normal((8, 6))
        cond = rng.standard_normal((8, COND_DIM))
        mask = np.ones((8, 6), dtype=bool)
        for _ in range(5):
            model.train_step(x0, cond, mask, rng)
        norms = np.linalg.norm(model.store["memory/keys"], axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        mem = MemoryConfig(n_pairs=4, top_n=2, prompt_dim=2, key_dim=4)
        model = tiny_model(memory=mem, seed=6)
        rng = np.random.default_rng(29)
        x_t, t, cond, mask, context = random_inputs(model, 4, rng)
        want = model.forward(x_t, t, cond, False, mask, context)[0]
        path = str(tmp_path / "model.npz")
        model.save(path)
        back = DiffusionModel.load(path)
        got = back.forward(x_t, t, cond, False, mask, context)[0]
        assert np.array_equal(want, got)
        assert back.kind == model.kind
        assert back.stats == model.stats

    def test_lora_spec_survives_roundtrip(self, tmp_path):
        model = tiny_model(seed=7)
        model.lora_attach(LoraSpec(2, 4.0))
        path = str(tmp_path / "model.npz")
        model.save(path)
        back = DiffusionModel.load(path)
        assert back.lora == LoraSpec(rank=2, alpha=4.0)
        assert back.experts.lora == {0: back.lora, 1: back.lora}
        assert not back.store.is_trainable("gate/W0")
        back.lora_merge()
        assert back.lora is None and back.manifest()["lora"] is None

    def test_manifest_of_an_adapted_head_keeps_its_bytes(self):
        model = tiny_model(seed=7)
        model.lora_attach(LoraSpec(2, 4.0))
        want = {
            "kind": "traffic",
            "arch": {"series_len": 6, "cond_emb_dim": 4, "time_dim": 4, "n_experts": 2,
                     "expert_hidden": (8,), "gate_hidden": (8,), "memory": None},
            "schedule": {"steps": 10, "beta_min": 1e-4, "beta_max": 0.02},
            "stats": {"mean": 0.0, "std": 1.0},
            "layout": {"fingerprint": ConditionLayout.fingerprint(), "mean": (0.0,) * COND_DIM,
                       "std": (1.0,) * COND_DIM},
            "p_uncond": 0.1,
            "guidance_w": 1.0,
            "lora": {"rank": 2, "alpha": 4.0},
        }
        got = model.manifest()
        assert got == want
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_version_1_checkpoint_rejected(self, tmp_path, monkeypatch):
        from celltwin import nn

        path = str(tmp_path / "model.npz")
        monkeypatch.setattr(nn, "CHECKPOINT_VERSION", 1)
        tiny_model().save(path)
        monkeypatch.undo()
        with pytest.raises(FormatError, match="version"):
            DiffusionModel.load(path)


class TestTimeFeatures:
    def test_bounded_and_shaped(self):
        f = time_features(np.arange(1, 11), 10)
        assert f.shape == (10, 8)
        assert (np.abs(f) <= 1.0 + 1e-12).all()
