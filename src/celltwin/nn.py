"""Minimal differentiable substrate: dense nets, explicit reverse mode, Adam.

There is no computational graph. Each forward pass returns a cache holding
exactly what its matching backward pass needs; composites chain these caches
by hand. The model set is small and fixed, so this stays verifiable against
the central-difference oracle, which is the module's acceptance gate.

All math is float64. A ``ParamStore`` keeps its trainable tensors packed:
their values and Adam moments live back to back in three contiguous float64
buffers, so one optimizer step is a few in-place vector ops over them.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FormatError, ShapeError, TrainingError

CHECKPOINT_VERSION = 2


# Activations write into ``out`` when given (``out=x`` works in place).


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.tanh(x, out=out)


def identity(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return x


_ACT = {"relu": relu, "tanh": tanh, "linear": identity}


def _act_grad(name: str, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (pre > 0.0).astype(float)
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(pre)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    inner = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - inner)


@dataclass
class Tensor:
    value: np.ndarray
    trainable: bool = True
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    step: int = field(default=0, init=False)

    def __post_init__(self):
        self.value = np.array(self.value, dtype=np.float64)  # a copy, since ``set`` writes into it
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


@dataclass
class _Segment:
    name: str
    tensor: Tensor
    start: int
    stop: int


class _Packed:
    """The trainable tensors of a store, back to back in store order.

    ``value``, ``m`` and ``v`` hold the tensors' state; each tensor's
    attributes of the same names become reshaped views into them. ``grad`` and
    ``scratch`` are the step's two work vectors, allocated with the layout so
    that a step allocates no array of the buffers' size.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self.segments: list[_Segment] = []
        size = 0
        for name, t in tensors.items():
            if t.trainable:
                self.segments.append(_Segment(name, t, size, size + t.value.size))
                size += t.value.size
        self.value, self.m, self.v, self.grad, self.scratch = (np.empty(size) for _ in range(5))
        for seg in self.segments:
            shape = seg.tensor.value.shape
            for attr in ("value", "m", "v"):
                view = getattr(self, attr)[seg.start:seg.stop].reshape(shape)
                view[...] = getattr(seg.tensor, attr)
                setattr(seg.tensor, attr, view)

    def runs(self, grads: dict[str, np.ndarray]) -> list[tuple[list[_Segment], int, int]]:
        """Maximal stretches of adjacent segments that have a gradient and one step count.

        Each run is its segments and its ``start:stop`` in the buffers.
        """
        runs: list[list[_Segment]] = []
        for seg in self.segments:
            if seg.name not in grads:
                continue
            last = runs[-1][-1] if runs else None
            if last is not None and last.stop == seg.start and last.tensor.step == seg.tensor.step:
                runs[-1].append(seg)
            else:
                runs.append([seg])
        return [(run, run[0].start, run[-1].stop) for run in runs]


class ParamStore:
    """Named tensors with per-parameter Adam moments and freeze flags.

    The first ``adam_step`` after an ``add``, ``remove``, ``freeze`` or
    ``unfreeze`` packs the trainable tensors, in store order, into one
    contiguous buffer each for value, ``m`` and ``v``; every such tensor's
    arrays are then views into those buffers, which Adam updates in place.
    Frozen tensors stay where they are. ``set`` writes into the existing array,
    so a packed tensor stays packed. An array read through ``store[name]``
    therefore sees later steps and sets until the next repack moves it.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._packed: _Packed | None = None

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        if name in self._tensors:
            raise ShapeError(f"parameter {name!r} already exists")
        self._tensors[name] = Tensor(value, trainable)
        self._packed = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name].value

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def set(self, name: str, value: np.ndarray) -> None:
        t = self._tensors[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != t.value.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {t.value.shape}, got {value.shape}"
            )
        t.value[...] = value

    def remove(self, name: str) -> None:
        del self._tensors[name]
        self._packed = None

    def freeze(self, names: Iterable[str]) -> None:
        for name in names:
            self._tensors[name].trainable = False
        self._packed = None

    def unfreeze(self, names: Iterable[str]) -> None:
        for name in names:
            self._tensors[name].trainable = True
        self._packed = None

    def is_trainable(self, name: str) -> bool:
        return self._tensors[name].trainable

    def names(self) -> list[str]:
        return list(self._tensors)

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._tensors.items() if t.trainable]

    # -- optimization ---------------------------------------------------------

    def adam_step(
        self,
        grads: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        """Standard Adam with bias correction; frozen tensors are never touched.

        Every gradient's shape and finiteness is checked before any state
        changes, frozen tensors' too. A trainable tensor without a gradient
        keeps its value, moments and step count; since each tensor counts its
        own steps, the update runs once per stretch of adjacent tensors that
        share a count (usually the whole buffer). The operand order is that of
        ``m = b1 m + (1-b1) g``, ``v = b2 v + ((1-b2) g) g`` and
        ``x = x - (lr m_hat) / (sqrt(v_hat) + eps)``, bit for bit.
        """
        for name, g in grads.items():
            shape = self._tensors[name].value.shape
            if g.shape != shape:
                raise ShapeError(f"gradient shape {g.shape} != {shape} for {name!r}")
        if self._packed is None:
            self._packed = _Packed(self._tensors)
        p = self._packed
        runs = p.runs(grads)
        for run, a, b in runs:
            np.concatenate([grads[seg.name] for seg in run], axis=None, out=p.grad[a:b])
        checked = [p.grad[a:b] for _, a, b in runs]
        checked += [g for n, g in grads.items() if not self._tensors[n].trainable]
        if not all(np.isfinite(x).all() for x in checked):
            name = next(n for n, g in grads.items() if not np.isfinite(g).all())
            raise TrainingError(f"non-finite gradient for {name!r}")
        for run, a, b in runs:
            step = run[0].tensor.step + 1
            for seg in run:
                seg.tensor.step = step
            g, s = p.grad[a:b], p.scratch[a:b]
            m, v, x = p.m[a:b], p.v[a:b], p.value[a:b]
            m *= beta1
            m += np.multiply(g, 1.0 - beta1, out=s)
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=s)
            v += np.multiply(s, g, out=s)
            m_hat = np.divide(m, 1.0 - beta1**step, out=g)  # g is spent
            v_hat = np.divide(v, 1.0 - beta2**step, out=s)
            denom = np.add(np.sqrt(v_hat, out=s), eps, out=s)
            m_hat *= lr
            x -= np.divide(m_hat, denom, out=m_hat)

    # -- persistence ------------------------------------------------------------

    def save(self, path: str, manifest: dict | None = None) -> None:
        header = {
            "version": CHECKPOINT_VERSION,
            "trainable": {n: t.trainable for n, t in self._tensors.items()},
            "manifest": manifest or {},
        }
        arrays = {f"param::{n}": t.value for n, t in self._tensors.items()}
        np.savez(
            path,
            header=np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8),
            **arrays,
        )

    @classmethod
    def load(cls, path: str) -> tuple["ParamStore", dict]:
        try:
            with np.load(path) as data:
                payload = {k: data[k] for k in data.files}
        except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
            raise FormatError(f"unreadable checkpoint {path}: {exc}") from None
        if "header" not in payload:
            raise FormatError(f"checkpoint {path} missing header")
        header = json.loads(bytes(payload["header"]).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise FormatError(
                f"checkpoint version mismatch: expected {CHECKPOINT_VERSION}, found {header.get('version')}"
            )
        store = cls()
        for key, value in payload.items():
            if not key.startswith("param::"):
                continue
            name = key[len("param::"):]
            store.add(name, value, trainable=header["trainable"].get(name, True))
        return store, header.get("manifest", {})


def add_grad(grads: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    if name in grads:
        grads[name] = grads[name] + g
    else:
        grads[name] = g


@dataclass
class LoraSpec:
    rank: int
    scale: float  # alpha / rank


class MLP:
    """Dense stack over a ParamStore; forward returns the cache backward needs.

    Layer ``i`` owns ``{prefix}/W{i}`` (out x in) and ``{prefix}/b{i}``. An
    attached low-rank adapter adds ``{prefix}/A{i}`` (r x in) and
    ``{prefix}/B{i}`` (out x r); the adapted layer computes
    ``W x + scale * B (A x)`` with the base frozen.

    ``stack=M`` holds M independent nets of the same dims as one leading axis
    on every tensor: ``W{i}`` is (M, out, in), ``b{i}`` is (M, out), and the
    adapters stack the same way. A 2-D input (B, in) is shared by all M and
    the output is (M, B, out); the gradient of such a broadcast input comes
    back per member, (M, B, in), for the caller to sum.
    """

    def __init__(
        self,
        store: ParamStore,
        prefix: str,
        dims: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        rng: np.random.Generator | None = None,
        stack: int | None = None,
    ):
        if len(dims) < 2:
            raise ShapeError(f"{prefix}: need at least input and output dims")
        self.store = store
        self.prefix = prefix
        self.dims = tuple(int(d) for d in dims)
        self.stack = stack
        self.acts = [hidden_activation] * (len(dims) - 2) + [output_activation]
        for a in self.acts:
            if a not in _ACT:
                raise ShapeError(f"{prefix}: unknown activation {a!r}")
        self.lora: dict[int, LoraSpec] = {}
        rng = rng or np.random.default_rng(0)
        inits = [(np.sqrt((2.0 if act == "relu" else 1.0) / d_in), (d_out, d_in))
                 for d_in, d_out, act in zip(self.dims[:-1], self.dims[1:], self.acts)]
        for i, w in enumerate(self._normal(rng, inits)):
            store.add(f"{prefix}/W{i}", w)
            store.add(f"{prefix}/b{i}", np.zeros(w.shape[:-1]))

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def _normal(self, rng: np.random.Generator, specs: list[tuple[float, tuple]]) -> list[np.ndarray]:
        """One normal draw per (std, shape), member by member: the draws of M separate nets."""
        draws = [[rng.normal(0.0, std, size=shape) for std, shape in specs] for _ in range(self.stack or 1)]
        return [np.stack(d) if self.stack else d[0] for d in zip(*draws)]

    def base_names(self) -> list[str]:
        return [n for i in range(self.n_layers) for n in (f"{self.prefix}/W{i}", f"{self.prefix}/b{i}")]

    def forward(self, x: np.ndarray, keep_cache: bool = True):
        """Output and the cache ``backward`` needs; with ``keep_cache=False``, the output alone.

        Without a cache nothing needs the pre-activations, so the bias and the
        activation are applied in place on each matmul output: the same ops in
        the same order, hence the same bits, without the copies.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != self.dims[0]:
            raise ShapeError(
                f"{self.prefix}: input dim {x.shape[-1]} != expected {self.dims[0]}"
            )
        cache = []
        out = x
        for i in range(self.n_layers):
            w = self.store[f"{self.prefix}/W{i}"]
            b = self.store[f"{self.prefix}/b{i}"]
            pre = out @ np.swapaxes(w, -1, -2)
            pre += b[..., None, :]
            low = None
            if i in self.lora:
                spec = self.lora[i]
                a = self.store[f"{self.prefix}/A{i}"]
                bb = self.store[f"{self.prefix}/B{i}"]
                low = out @ np.swapaxes(a, -1, -2)
                pre += spec.scale * (low @ np.swapaxes(bb, -1, -2))
            if keep_cache:
                post = _ACT[self.acts[i]](pre)
                cache.append((out, pre, post, low))
            else:
                post = _ACT[self.acts[i]](pre, out=pre)
            out = post
        return (out, cache) if keep_cache else out

    def backward(self, cache: list, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        d = np.asarray(dout, dtype=np.float64)
        for i in range(self.n_layers - 1, -1, -1):
            x_in, pre, post, low = cache[i]
            dpre = d * _act_grad(self.acts[i], pre, post)
            dpre_t = np.swapaxes(dpre, -1, -2)
            w = self.store[f"{self.prefix}/W{i}"]
            add_grad(grads, f"{self.prefix}/W{i}", dpre_t @ x_in)
            add_grad(grads, f"{self.prefix}/b{i}", dpre.sum(axis=-2))
            d = dpre @ w
            if i in self.lora:
                spec = self.lora[i]
                a = self.store[f"{self.prefix}/A{i}"]
                bb = self.store[f"{self.prefix}/B{i}"]
                add_grad(grads, f"{self.prefix}/B{i}", spec.scale * (dpre_t @ low))
                dlow = spec.scale * (dpre @ bb)
                add_grad(grads, f"{self.prefix}/A{i}", np.swapaxes(dlow, -1, -2) @ x_in)
                d = d + dlow @ a
        return d

    # -- low-rank adaptation -------------------------------------------------

    def attach_lora(
        self,
        layers: Sequence[int],
        rank: int,
        alpha: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Add zero-initialized adapters and freeze the base weights."""
        rng = rng or np.random.default_rng(0)
        for i in layers:
            d_in, d_out = self.dims[i], self.dims[i + 1]
            if rank > min(d_in, d_out):
                raise ShapeError(
                    f"{self.prefix}: lora rank {rank} exceeds min dim {min(d_in, d_out)} of layer {i}"
                )
            if i in self.lora:
                raise ShapeError(f"{self.prefix}: layer {i} already adapted")
        downs = self._normal(rng, [(1.0 / rank, (rank, self.dims[i])) for i in layers])
        for i, a in zip(layers, downs):
            self.store.add(f"{self.prefix}/A{i}", a)
            self.store.add(f"{self.prefix}/B{i}", np.zeros(a.shape[:-2] + (self.dims[i + 1], rank)))
            self.lora[i] = LoraSpec(rank=rank, scale=alpha / rank)
        self.store.freeze(self.base_names())

    def merge_lora(self) -> None:
        """Fold scale * B A into W, drop the adapters, unfreeze the base."""
        for i, spec in sorted(self.lora.items()):
            a = self.store[f"{self.prefix}/A{i}"]
            bb = self.store[f"{self.prefix}/B{i}"]
            w = self.store[f"{self.prefix}/W{i}"]
            self.store.set(f"{self.prefix}/W{i}", w + spec.scale * (bb @ a))
            self.store.remove(f"{self.prefix}/A{i}")
            self.store.remove(f"{self.prefix}/B{i}")
        self.lora.clear()
        self.store.unfreeze(self.base_names())


def finite_difference_check(
    store: ParamStore,
    loss_fn: Callable[[], tuple[float, dict[str, np.ndarray]]],
    eps: float = 1e-5,
    names: Sequence[str] | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must be deterministic and must return the loss along with
    gradients for every checked tensor (missing entries count as zero).
    """
    _, grads = loss_fn()
    checked = names if names is not None else store.trainable_names()
    max_rel = 0.0
    for name in checked:
        value = store[name]
        analytic = grads.get(name, np.zeros_like(value))
        flat = value.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = loss_fn()
            flat[j] = orig - eps
            down, _ = loss_fn()
            flat[j] = orig
            fd[j] = (up - down) / (2.0 * eps)
        a = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(a)), 1e-6)
        max_rel = max(max_rel, float((np.abs(fd - a) / denom).max()))
    return max_rel
