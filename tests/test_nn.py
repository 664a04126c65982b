import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from celltwin.errors import FormatError, ShapeError, TrainingError
from celltwin.nn import (
    CHECKPOINT_VERSION,
    MLP,
    LoraSpec,
    ParamStore,
    finite_difference_check,
    load_checkpoint,
    load_npz,
    save_npz,
    softmax,
    softmax_backward,
)


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries and its gradient wrt pred."""
    diff = pred - target
    loss = float((diff * diff).mean())
    return loss, 2.0 * diff / diff.size


def reference_adam_step(store, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam loop the packed step replaced: fresh arrays, one tensor at a time."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for {name!r}")
    for name, g in grads.items():
        t = store._tensors[name]
        if not t.trainable:
            continue
        if g.shape != t.value.shape:
            raise ShapeError(f"gradient shape {g.shape} != {t.value.shape} for {name!r}")
        t.step += 1
        t.m = beta1 * t.m + (1.0 - beta1) * g
        t.v = beta2 * t.v + (1.0 - beta2) * g * g
        m_hat = t.m / (1.0 - beta1**t.step)
        v_hat = t.v / (1.0 - beta2**t.step)
        t.value = t.value - lr * m_hat / (np.sqrt(v_hat) + eps)


def adam_state(store):
    """Copies of every tensor's value and moments, with its step count and flag."""
    return {
        name: (t.value.copy(), t.m.copy(), t.v.copy(), t.step, t.trainable)
        for name, t in store._tensors.items()
    }


def assert_same_state(a, b):
    assert list(a) == list(b)
    for name in a:
        for got, want in zip(a[name], b[name]):
            assert np.array_equal(got, want), name


class TestForward:
    def test_identity_network(self):
        store = ParamStore()
        net = MLP(store, "net", (3, 3), output_activation="linear")
        store.set("net/W0", np.eye(3))
        store.set("net/b0", np.zeros(3))
        x = np.array([[1.0, -2.0, 0.5]])
        out, _ = net.forward(x)
        assert np.array_equal(out, x)

    def test_zero_weights_yield_activated_bias(self):
        store = ParamStore()
        net = MLP(store, "net", (4, 2), output_activation="tanh")
        store.set("net/W0", np.zeros((2, 4)))
        store.set("net/b0", np.array([0.5, -0.5]))
        out, _ = net.forward(np.ones((3, 4)))
        assert np.allclose(out, np.tanh([0.5, -0.5]))

    def test_two_layer_hand_computed(self):
        # x = [1, 2]; W0 = [[1, 1], [0, 1]], b0 = [0, -1]; relu
        # h = relu([3, 1]) = [3, 1]
        # W1 = [[2, -1]], b1 = [0.5] -> y = 6 - 1 + 0.5 = 5.5
        store = ParamStore()
        net = MLP(store, "net", (2, 2, 1), hidden_activation="relu")
        store.set("net/W0", np.array([[1.0, 1.0], [0.0, 1.0]]))
        store.set("net/b0", np.array([0.0, -1.0]))
        store.set("net/W1", np.array([[2.0, -1.0]]))
        store.set("net/b1", np.array([0.5]))
        out, _ = net.forward(np.array([[1.0, 2.0]]))
        assert out[0, 0] == pytest.approx(5.5, abs=1e-12)

    def test_shape_mismatch_names_network(self):
        store = ParamStore()
        net = MLP(store, "enc", (3, 2))
        with pytest.raises(ShapeError, match="enc"):
            net.forward(np.ones((1, 4)))


def _mse_closure(store, net, x, target):
    def loss_fn():
        out, cache = net.forward(x)
        loss, dout = mse_loss(out, target)
        grads = {}
        net.backward(cache, dout, grads)
        return loss, grads

    return loss_fn


class TestBackward:
    def test_matches_finite_differences_on_200_param_net(self):
        rng = np.random.default_rng(0)
        store = ParamStore()
        net = MLP(store, "net", (6, 12, 8, 2), hidden_activation="tanh", rng=rng)
        assert 150 <= sum(store[name].size for name in store.names()) <= 300
        x = rng.normal(size=(5, 6))
        target = rng.normal(size=(5, 2))
        err = finite_difference_check(store, _mse_closure(store, net, x, target))
        assert err < 1e-4

    def test_relu_path_finite_differences(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        net = MLP(store, "net", (4, 8, 3), hidden_activation="relu", rng=rng)
        x = rng.normal(size=(4, 4))
        target = rng.normal(size=(4, 3))
        err = finite_difference_check(store, _mse_closure(store, net, x, target))
        assert err < 1e-4

    def test_zero_upstream_gradient_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        store = ParamStore()
        net = MLP(store, "net", (3, 5, 2), rng=rng)
        out, cache = net.forward(rng.normal(size=(2, 3)))
        grads = {}
        net.backward(cache, np.zeros_like(out), grads)
        assert all((g == 0).all() for g in grads.values())

    def test_frozen_gradients_computed_but_not_applied(self):
        rng = np.random.default_rng(3)
        store = ParamStore()
        net = MLP(store, "net", (3, 4, 2), rng=rng)
        store.freeze(["net/W0"])
        out, cache = net.forward(rng.normal(size=(2, 3)))
        grads = {}
        net.backward(cache, np.ones_like(out), grads)
        assert (grads["net/W0"] != 0).any()
        before = store["net/W0"].copy()
        store.adam_step(grads, lr=0.1)
        assert np.array_equal(store["net/W0"], before)
        assert not np.array_equal(store["net/W1"], np.zeros_like(store["net/W1"]))

    def test_corrupted_backward_fails_the_oracle(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        net = MLP(store, "net", (3, 4, 2), rng=rng)
        x = rng.normal(size=(3, 3))
        target = rng.normal(size=(3, 2))
        honest = _mse_closure(store, net, x, target)

        def corrupted():
            loss, grads = honest()
            grads["net/W1"] = grads["net/W1"] * 2.0
            return loss, grads

        assert finite_difference_check(store, corrupted, names=["net/W1"]) > 1e-2


class TestStack:
    def test_matches_separate_nets_drawn_in_turn(self):
        x = np.random.default_rng(10).normal(size=(4, 3))
        stacked = MLP(ParamStore(), "s", (3, 5, 2), rng=np.random.default_rng(11), stack=3)
        rng, store = np.random.default_rng(11), ParamStore()
        singles = [MLP(store, f"e{m}", (3, 5, 2), rng=rng) for m in range(3)]
        out, _ = stacked.forward(x)
        assert stacked.store["s/W0"].shape == (3, 5, 3)
        assert np.array_equal(out, np.stack([net.forward(x)[0] for net in singles]))

    def test_lora_finite_differences_with_broadcast_input(self):
        rng = np.random.default_rng(12)
        store = ParamStore()
        net = MLP(store, "net", (4, 5, 3), hidden_activation="tanh", rng=rng, stack=3)
        net.attach_lora([0, 1], LoraSpec(2, 4.0), rng=rng)
        store.unfreeze(store.names())
        for name in ("net/B0", "net/B1"):  # nonzero, so the A adapters get a gradient
            store.set(name, rng.normal(size=store[name].shape))
        store.add("x", rng.normal(size=(6, 4)))  # one input shared by the 3 members
        target = rng.normal(size=(3, 6, 3))

        def loss_fn():
            out, cache = net.forward(store["x"])
            loss, dout = mse_loss(out, target)
            grads = {}
            grads["x"] = net.backward(cache, dout, grads).sum(axis=0)
            return loss, grads

        assert store["net/A1"].shape == (3, 2, 5) and store["net/B1"].shape == (3, 3, 2)
        assert finite_difference_check(store, loss_fn) < 1e-4


class TestLoraSpec:
    def test_every_adapted_layer_holds_the_one_record(self):
        net = MLP(ParamStore(), "net", (4, 5, 3), rng=np.random.default_rng(13))
        net.attach_lora([0, 1], LoraSpec(2, 3.0))
        assert net.lora == {0: LoraSpec(2, 3.0), 1: LoraSpec(2, 3.0)}
        assert net.lora[0].scale == 3.0 / 2

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_is_a_shape_error(self, rank):
        with pytest.raises(ShapeError, match=f"lora rank must be >= 1, got {rank}"):
            LoraSpec(rank, 4.0)

    def test_rank_past_a_layer_dim_is_a_shape_error_that_adds_nothing(self):
        store = ParamStore()
        net = MLP(store, "net", (4, 3), rng=np.random.default_rng(14))
        with pytest.raises(ShapeError, match="lora rank 4 exceeds min dim 3 of layer 0"):
            net.attach_lora([0], LoraSpec(4, 4.0))
        assert store.names() == ["net/W0", "net/b0"] and net.lora == {}
        assert store.trainable_names() == ["net/W0", "net/b0"]


NETS = pytest.mark.parametrize("stack, lora, hidden", [
    (None, False, "relu"), (3, False, "relu"), (3, True, "tanh"),
], ids=["plain", "stack3_shared_input", "stack3_lora"])


def cache_free_net(stack, lora, hidden) -> tuple[MLP, np.ndarray]:
    """A net with nonzero biases and adapters, and a 2-D input shared by every member of a stack."""
    rng = np.random.default_rng(13)
    store = ParamStore()
    net = MLP(store, "net", (6, 9, 7, 4), hidden_activation=hidden,
              output_activation="tanh", rng=rng, stack=stack)
    for name in store.names():  # nonzero biases, so the in-place add is exercised
        store.set(name, store[name] + rng.normal(0.0, 0.1, size=store[name].shape))
    if lora:
        net.attach_lora([0, 1, 2], LoraSpec(2, 3.0), rng=rng)
        for i in range(3):  # nonzero, so the adapters change the output
            store.set(f"net/B{i}", rng.normal(size=store[f"net/B{i}"].shape))
    return net, rng.normal(size=(33, 6))


class TestCacheFree:
    @NETS
    def test_matches_cached_forward(self, stack, lora, hidden):
        net, x = cache_free_net(stack, lora, hidden)
        cached, cache = net.forward(x)
        free = net.forward(x, keep_cache=False)
        assert len(cache) == 3
        assert free.shape == ((stack, 33, 4) if stack else (33, 4))
        assert np.array_equal(free, cached)
        # Into views of buffers sized for more rows, shared by two row counts.
        big = net.scratch((40,))
        for rows in (33, 17):
            into = net.forward(x[:rows], keep_cache=False, out=net.scratch((rows,), big))
            assert np.shares_memory(into, big[-1][0])
            assert np.array_equal(into, net.forward(x[:rows])[0])

    @NETS
    def test_runs_on_tensor_copies_in_their_dtype(self, stack, lora, hidden):
        net, x = cache_free_net(stack, lora, hidden)
        before = {name: net.store[name].copy() for name in net.store.names()}
        want = net.forward(x, keep_cache=False)
        assert net.tensors(np.float64).keys() == set(before)  # adapters included
        assert np.array_equal(net.forward(x, keep_cache=False, params=net.tensors(np.float64)), want)
        params = net.tensors(np.float32)
        assert all(p.dtype == np.float32 for p in params.values())
        got = net.forward(x, keep_cache=False, params=params)
        assert got.dtype == np.float32 and np.allclose(got, want, rtol=1e-4, atol=1e-5)
        into = net.forward(x, keep_cache=False, out=net.scratch((33,), dtype=np.float32), params=params)
        assert into.dtype == np.float32 and into.tobytes() == got.tobytes()
        for name, value in before.items():  # the store keeps its float64 values
            assert net.store[name].dtype == np.float64 and net.store[name].tobytes() == value.tobytes()


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        probs = softmax(rng.normal(size=(10, 4)) * 5.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def f(lg):
            return float((softmax(lg) * w).sum())

        probs = softmax(logits)
        analytic = softmax_backward(probs, w)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                up = logits.copy()
                up[i, j] += eps
                down = logits.copy()
                down[i, j] -= eps
                fd = (f(up) - f(down)) / (2 * eps)
                assert fd == pytest.approx(analytic[i, j], abs=1e-6)


def _adam_run(step_fn, n_steps=12):
    """A seeded run of steps with store edits between them; the state after each step.

    It covers a trainable tensor without a gradient on some steps
    (``null_embed``), a frozen tensor with a gradient on every step, a ``set``
    with no repack before the next step, a tensor added mid-run, and a LoRA
    attach -> train -> merge cycle (add, freeze, set, remove, unfreeze).
    """
    rng = np.random.default_rng(30)
    store = ParamStore()
    net = MLP(store, "net", (4, 6, 3), rng=rng)
    store.add("null_embed", rng.normal(size=5))
    store.add("frozen", rng.normal(size=(2, 3)))
    store.freeze(["frozen"])
    states = []
    for k in range(n_steps):
        grads = {name: rng.normal(0.0, 0.5, size=store[name].shape)
                 for name in store.names() if not (name == "null_embed" and k in (1, 2, 6, 9))}
        step_fn(store, grads, lr=0.05)
        states.append(adam_state(store))
        if k == 3:
            store.set("net/b0", rng.normal(size=6))
        elif k == 4:
            net.attach_lora([0, 1], LoraSpec(2, 4.0), rng=rng)
        elif k == 6:
            store.add("late", rng.normal(size=(3, 2)))
        elif k == 7:
            net.merge_lora()
        elif k == 9:
            embed = store["null_embed"]
            store.set("null_embed", embed / np.linalg.norm(embed))
    return states


@pytest.mark.filterwarnings("error")
class TestAdam:
    def test_first_step_moves_by_lr(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        g = np.array([0.3, -0.7, 0.001])
        before = store["w"].copy()
        store.adam_step({"w": g}, lr=0.01)
        delta = store["w"] - before
        # Bias-corrected first step is -lr * g / (|g| + eps) ~= -lr * sign(g).
        assert np.allclose(delta, -0.01 * np.sign(g), atol=1e-5)

    def test_zero_gradient_zero_update(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        before = store["w"].copy()
        store.adam_step({"w": np.zeros(2)}, lr=0.5)
        assert np.array_equal(store["w"], before)

    def test_frozen_tensor_bit_exact(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        store.freeze(["w"])
        before = store["w"].copy()
        store.adam_step({"w": np.ones(2)}, lr=0.5)
        assert np.array_equal(store["w"], before)

    def test_nan_gradient_fails_fast(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        with pytest.raises(TrainingError):
            store.adam_step({"w": np.array([np.nan])}, lr=0.1)

    def test_nothing_trainable_is_a_noop(self):
        store = ParamStore()
        store.adam_step({}, lr=0.1)
        store.add("w", np.array([1.0, 2.0]))
        store.add("b", np.array([3.0]))
        store.freeze(["w", "b"])
        before = adam_state(store)
        store.adam_step({"w": np.ones(2), "b": np.ones(1)}, lr=0.1)
        assert_same_state(adam_state(store), before)

    def test_tensor_without_gradient_left_alone(self):
        store = ParamStore()
        store.add("a", np.array([1.0, 2.0]))
        store.add("b", np.array([3.0]))
        store.add("c", np.array([4.0, 5.0, 6.0]))
        store.adam_step({"a": np.ones(2), "b": np.ones(1), "c": np.ones(3)}, lr=0.1)
        before = adam_state(store)["b"]
        store.adam_step({"a": np.ones(2), "c": np.ones(3)}, lr=0.1)
        after = adam_state(store)
        assert all(np.array_equal(x, y) for x, y in zip(after["b"], before))
        assert after["a"][3] == after["c"][3] == 2 and after["b"][3] == 1

    def test_matches_per_tensor_reference(self):
        packed = _adam_run(lambda store, grads, lr: store.adam_step(grads, lr=lr))
        reference = _adam_run(reference_adam_step)
        assert len(packed) == len(reference) == 12
        for got, want in zip(packed, reference):
            assert_same_state(got, want)
        # The run did what it is meant to: adapters came and went, step counts drifted apart.
        assert "net/A0" in reference[5] and "net/A0" not in reference[-1] and "late" in reference[-1]
        assert [reference[-1][n][3] for n in ("null_embed", "net/W0", "late", "frozen")] == [8, 9, 5, 0]

    @pytest.mark.parametrize("bad, value", [
        ("w", np.nan), ("frozen", np.inf), ("late", -np.inf),
    ], ids=["trainable_nan", "frozen_inf", "unpacked_inf"])
    def test_non_finite_gradient_changes_nothing(self, bad, value):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        store.add("frozen", np.array([0.5]))
        store.freeze(["frozen"])
        store.adam_step({"w": np.ones(3), "frozen": np.ones(1)}, lr=0.1)
        store.add("late", np.array([4.0, 5.0]))
        before = adam_state(store)
        grads = {"w": np.full(3, 0.2), "frozen": np.ones(1), "late": np.ones(2)}
        grads[bad] = grads[bad].copy()
        grads[bad][0] = value
        with pytest.raises(TrainingError, match=repr(bad)):
            store.adam_step(grads, lr=0.1)
        assert_same_state(adam_state(store), before)

    def test_bad_gradient_shape_changes_nothing(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0, 3.0]))
        store.add("b", np.array([1.0]))
        store.adam_step({"w": np.ones(3), "b": np.ones(1)}, lr=0.1)
        before = adam_state(store)
        with pytest.raises(ShapeError, match="'b'"):
            store.adam_step({"w": np.ones(3), "b": np.ones(2)}, lr=0.1)
        assert_same_state(adam_state(store), before)

    def test_set_writes_through_into_packed_buffer(self):
        store = ParamStore()
        store.add("w", np.array([1.0, 2.0]))
        store.adam_step({"w": np.ones(2)}, lr=0.1)
        view = store["w"]
        store.set("w", np.array([7.0, 8.0]))
        assert store["w"] is view and np.array_equal(view, [7.0, 8.0])

    def test_add_copies_its_value(self):
        value = np.array([1.0, 2.0])
        store = ParamStore()
        store.add("w", value)
        store.freeze(["w"])
        store.set("w", np.zeros(2))
        assert np.array_equal(value, [1.0, 2.0])

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(7)
            store = ParamStore()
            net = MLP(store, "net", (2, 4, 1), rng=rng)
            x = rng.normal(size=(8, 2))
            y = rng.normal(size=(8, 1))
            for _ in range(20):
                out, cache = net.forward(x)
                loss, dout = mse_loss(out, y)
                grads = {}
                net.backward(cache, dout, grads)
                store.adam_step(grads, lr=0.01)
            return store["net/W0"].copy()

        assert np.array_equal(run(), run())


class TestFiniteDifferenceOracle:
    def test_quadratic_loss_analytic_gradient(self):
        store = ParamStore()
        store.add("theta", np.array([0.5, -1.5, 2.0]))

        def loss_fn():
            th = store["theta"]
            return float((th * th).sum()), {"theta": 2.0 * th}

        assert finite_difference_check(store, loss_fn) < 1e-7


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        store = ParamStore()
        MLP(store, "net", (3, 4, 2), rng=np.random.default_rng(8))
        path = str(tmp_path / "ckpt.npz")
        store.save(path, manifest={"kind": "traffic"})
        tensors, manifest = load_checkpoint(path)
        assert manifest == {"kind": "traffic"}
        assert list(tensors) == store.names()
        for name in store.names():
            assert np.array_equal(tensors[name], store[name])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_keeps_names_and_values(self, data):
        names = data.draw(st.lists(st.from_regex(r"[a-z]{1,5}(/[a-zA-Z]{1,3}[0-9]?)?", fullmatch=True),
                                   max_size=6, unique=True))
        store = ParamStore()
        for name in names:
            shape = data.draw(st.lists(st.integers(1, 4), max_size=3).map(tuple))
            store.add(name, data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))))
        store.freeze(data.draw(st.lists(st.sampled_from(names), unique=True)) if names else [])
        # Adam steps leave the trainable tensors as views into the packed buffer.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(data.draw(st.integers(0, 3))):
            store.adam_step({n: rng.normal(size=store[n].shape) for n in store.names()}, lr=0.1)
        with tempfile.TemporaryDirectory() as tmp:
            store.save(f"{tmp}/ckpt.npz")
            tensors, manifest = load_checkpoint(f"{tmp}/ckpt.npz")
        assert list(tensors) == names and manifest == {}
        for name in names:
            assert tensors[name].shape == store[name].shape
            assert np.array_equal(tensors[name], store[name])

    def test_header_holds_only_the_manifest(self, tmp_path):
        store = ParamStore()
        store.add("w", np.zeros(4))
        store.freeze(["w"])
        path = str(tmp_path / "ckpt.npz")
        store.save(path, manifest={"kind": "traffic"})
        header, _ = load_npz(path, CHECKPOINT_VERSION, "checkpoint")
        assert header == {"manifest": {"kind": "traffic"}, "version": CHECKPOINT_VERSION}

    def test_truncated_checkpoint(self, tmp_path):
        store = ParamStore()
        store.add("w", np.zeros(4))
        path = tmp_path / "ckpt.npz"
        store.save(str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(str(path))


def raw_npz(path, header: bytes, **arrays) -> str:
    """An npz with the given header bytes, written around the format functions."""
    np.savez(path, header=np.frombuffer(header, dtype=np.uint8), **arrays)
    return str(path)


class TestArtifactFile:
    def test_roundtrip_adds_version(self, tmp_path):
        path = str(tmp_path / "a.npz")
        save_npz(path, {"kind": "x", "nested": {"k": [1, 2]}}, {"w": np.arange(3.0)}, version=5)
        header, arrays = load_npz(path, 5, "artifact", required=("w",))
        assert header == {"kind": "x", "nested": {"k": [1, 2]}, "version": 5}
        assert list(arrays) == ["w"] and np.array_equal(arrays["w"], np.arange(3.0))

    @pytest.mark.parametrize("header, match", [
        (b"\xff\xfe{", "corrupt header"),
        (b"{not json", "corrupt header"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"version": 4}', "version mismatch: expected 5, found 4"),
        (b"{}", "version mismatch: expected 5, found None"),
    ])
    def test_bad_header_names_file(self, tmp_path, header, match):
        path = raw_npz(tmp_path / "a.npz", header, w=np.zeros(2))
        with pytest.raises(FormatError, match=match) as err:
            load_npz(path, 5, "artifact")
        assert path in str(err.value)

    def test_missing_array_named(self, tmp_path):
        path = raw_npz(tmp_path / "a.npz", b'{"version": 5}', w=np.zeros(2))
        with pytest.raises(FormatError, match=re.escape(f"artifact {path} missing array 'v'")):
            load_npz(path, 5, "artifact", required=("w", "v"))

    def test_missing_header_field_names_file_and_field(self, tmp_path):
        path = raw_npz(tmp_path / "a.npz", b'{"version": 3}', **{"param::w": np.zeros(2)})
        with pytest.raises(FormatError, match=re.escape(f"checkpoint {path} field 'manifest' is missing")):
            load_checkpoint(path)

    def test_old_flag_map_is_an_unknown_field(self, tmp_path):
        path = raw_npz(tmp_path / "a.npz", b'{"version": 3, "manifest": {}, "trainable": {"w": true}}',
                       **{"param::w": np.zeros(2)})
        with pytest.raises(FormatError, match=re.escape(f"unknown checkpoint {path} field 'trainable'")):
            load_checkpoint(path)

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "a.npz"
        path.write_bytes(b"not an npz file")
        with pytest.raises(FormatError, match="unreadable artifact"):
            load_npz(str(path), 5, "artifact")


class TestAssign:
    def test_copies_every_value(self):
        source, target = ParamStore(), ParamStore()
        MLP(source, "net", (3, 4, 2), rng=np.random.default_rng(1))
        MLP(target, "net", (3, 4, 2), rng=np.random.default_rng(2))
        target.assign({name: source[name] for name in source.names()}, "source")
        for name in source.names():
            assert np.array_equal(target[name], source[name])

    def test_missing_tensor_named(self):
        target = ParamStore()
        target.add("a", np.zeros(2))
        target.add("b", np.zeros(2))
        with pytest.raises(FormatError, match="src missing tensor 'b'"):
            target.assign({"a": np.zeros(2)}, "src")

    def test_misshapen_tensor_named(self):
        target = ParamStore()
        target.add("a", np.zeros(2))
        with pytest.raises(FormatError, match=r"src tensor 'a' has shape \(3,\), expected \(2,\)"):
            target.assign({"a": np.zeros(3)}, "src")
