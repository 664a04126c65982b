"""Minimal differentiable substrate: dense nets, explicit reverse mode, Adam.

There is no computational graph. Each forward pass returns a cache holding
exactly what its matching backward pass needs; composites chain these caches
by hand. The model set is small and fixed, so this stays verifiable against
the central-difference oracle, which is the module's acceptance gate.

The store, every gradient and every optimizer step are float64. A
``ParamStore`` keeps its trainable tensors packed: their values, Adam moments
and gradients live back to back in contiguous float64 buffers, so one optimizer
step is a few in-place vector ops over them. A backward pass writes each
trainable tensor's gradient straight into its view of the gradient buffer. A
cache-free ``MLP.forward`` can instead run on copies of a net's tensors in
another dtype (``MLP.tensors``); the diffusion sampler runs its denoiser
forwards that way in float32.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FormatError, ShapeError, TrainingError, read_json

CHECKPOINT_VERSION = 2

# Adam's b1, b2 and eps (Kingma & Ba's defaults), and finite_difference_check's step.
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
_FD_STEP = 1e-5


# Activations write into ``out`` when given (``out=x`` works in place).


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.tanh(x, out=out)


def identity(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return x


_ACT = {"relu": relu, "tanh": tanh, "linear": identity}


def _act_grad(name: str, out: np.ndarray) -> np.ndarray:
    """Activation derivative from the activation's output alone; relu's as a boolean mask,
    which a float product reads as 1.0 and 0.0."""
    if name == "relu":
        return out > 0.0
    if name == "tanh":
        return 1.0 - out * out
    return np.ones_like(out)


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
    attributes of the same names become reshaped views into them. ``grad``
    holds the gradients, ``grad_views`` each tensor's reshaped view into it,
    and ``scratch`` is the step's work vector; all are allocated with the
    layout, so that a step allocates no array of the buffers' size.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self.segments: list[_Segment] = []
        size = 0
        for name, t in tensors.items():
            if t.trainable:
                self.segments.append(_Segment(name, t, size, size + t.value.size))
                size += t.value.size
        self.value, self.m, self.v, self.grad, self.scratch = (np.empty(size) for _ in range(5))
        self.grad_views: dict[str, np.ndarray] = {}
        for seg in self.segments:
            shape = seg.tensor.value.shape
            for attr in ("value", "m", "v"):
                view = getattr(self, attr)[seg.start:seg.stop].reshape(shape)
                view[...] = getattr(seg.tensor, attr)
                setattr(seg.tensor, attr, view)
            self.grad_views[seg.name] = self.grad[seg.start:seg.stop].reshape(shape)

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

    The first ``grad_out`` or ``adam_step`` after an ``add``, ``remove``,
    ``freeze`` or ``unfreeze`` packs the trainable tensors, in store order, into
    one contiguous buffer each for value, ``m``, ``v`` and the gradient; every
    such tensor's arrays are then views into those buffers, which Adam updates
    in place. Frozen tensors stay where they are. ``set`` writes into the
    existing array, so a packed tensor stays packed. An array read through
    ``store[name]`` therefore sees later steps and sets until the next repack
    moves it.
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

    def grad_out(self, name: str) -> np.ndarray | None:
        """Where a backward writes ``name``'s gradient: the tensor's view of the packed
        gradient buffer, or None for a frozen tensor, whose gradient is a new array.

        The view is overwritten by the next backward, and ``adam_step`` spends it
        as work space.
        """
        if not self._tensors[name].trainable:
            return None
        if self._packed is None:
            self._packed = _Packed(self._tensors)
        return self._packed.grad_views[name]

    # -- optimization ---------------------------------------------------------

    def adam_step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """Standard Adam with bias correction; frozen tensors are never touched.

        Every gradient's shape and finiteness is checked before any state
        changes, frozen tensors' too. A trainable tensor's gradient is read
        where ``grad_out`` put it, so a backward's gradients are not copied; any
        other array is copied there first. A trainable tensor without a
        gradient keeps its value, moments and step count; since each tensor
        counts its own steps, the update runs once per stretch of adjacent
        tensors that share a count (usually the whole buffer), and finiteness
        is checked once per stretch. The operand order is that of
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
        for run, _, _ in runs:
            for seg in run:
                view = p.grad_views[seg.name]
                if grads[seg.name] is not view:
                    view[...] = grads[seg.name]
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
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=s)
            v *= _ADAM_BETA2
            np.multiply(g, 1.0 - _ADAM_BETA2, out=s)
            v += np.multiply(s, g, out=s)
            m_hat = np.divide(m, 1.0 - _ADAM_BETA1**step, out=g)  # g is spent
            v_hat = np.divide(v, 1.0 - _ADAM_BETA2**step, out=s)
            denom = np.add(np.sqrt(v_hat, out=s), _ADAM_EPS, out=s)
            m_hat *= lr
            x -= np.divide(m_hat, denom, out=m_hat)

    def assign(self, source: "ParamStore", where: str) -> None:
        """Copy every tensor's value from ``source``, which ``where`` names in errors."""
        for name, t in self._tensors.items():
            if name not in source:
                raise FormatError(f"{where} missing tensor {name!r}")
            if source[name].shape != t.value.shape:
                raise FormatError(
                    f"{where} tensor {name!r} has shape {source[name].shape}, expected {t.value.shape}"
                )
            t.value[...] = source[name]

    # -- persistence ------------------------------------------------------------

    def save(self, path: str, manifest: dict | None = None) -> None:
        trainable = {n: t.trainable for n, t in self._tensors.items()}
        arrays = {f"param::{n}": t.value for n, t in self._tensors.items()}
        save_npz(path, {"trainable": trainable, "manifest": manifest or {}}, arrays, CHECKPOINT_VERSION)

    @classmethod
    def load(cls, path: str) -> tuple["ParamStore", dict]:
        raw, arrays = load_npz(path, CHECKPOINT_VERSION, "checkpoint")
        header = read_json(_CheckpointHeader, raw, FormatError, lambda key: f"checkpoint {path} field {key!r}")
        store = cls()
        for key, value in arrays.items():
            if key.startswith("param::"):
                name = key.removeprefix("param::")
                store.add(name, value, trainable=header.trainable.get(name, True))
        return store, header.manifest


# -- artifact files: one npz of named arrays plus a versioned JSON header stored as uint8 ----


@dataclass(frozen=True)
class _CheckpointHeader:
    version: int
    trainable: dict[str, bool]
    manifest: dict


def save_npz(path: str, header: dict, arrays: dict[str, np.ndarray], version: int) -> None:
    blob = json.dumps({**header, "version": version}, sort_keys=True).encode()
    np.savez(path, header=np.frombuffer(blob, dtype=np.uint8), **arrays)


def load_npz(
    path: str, version: int, what: str, required: Iterable[str] = ()
) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, arrays) of an artifact file; every defect is a FormatError naming ``what`` and ``path``."""
    where = f"{what} {path}"
    try:
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise FormatError(f"unreadable {where}: {exc}") from None
    missing = sorted({"header", *required} - set(arrays))
    if missing:
        raise FormatError(f"{where} missing array {missing[0]!r}")
    try:
        header = json.loads(bytes(arrays.pop("header")).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt header in {where}: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"header in {where} is not a JSON object")
    if header.get("version") != version:
        raise FormatError(f"{where} version mismatch: expected {version}, found {header.get('version')}")
    return header, arrays


@dataclass(frozen=True)
class LoraSpec:
    rank: int
    alpha: float  # the adapted layer adds (alpha / rank) B (A x)

    def __post_init__(self):
        if self.rank < 1:
            raise ShapeError(f"lora rank must be >= 1, got {self.rank}")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


class MLP:
    """Dense stack over a ParamStore; forward returns the cache backward needs.

    Layer ``i`` owns ``{prefix}/W{i}`` (out x in) and ``{prefix}/b{i}``. An
    attached low-rank adapter adds ``{prefix}/A{i}`` (r x in) and
    ``{prefix}/B{i}`` (out x r); the adapted layer computes
    ``W x + scale * B (A x)`` with the base frozen.

    ``stack=M`` holds M independent nets of the same dims as one leading axis
    on every tensor: ``W{i}`` is (M, out, in), ``b{i}`` is (M, out), and the
    adapters stack the same way. An input (..., B, in) is shared by all M and
    the output is (..., M, B, out); the gradient of such a broadcast input
    comes back per member, (M, B, in) for a 2-D input, for the caller to sum.

    Leading axes of an input are stacked matmuls: numpy runs one GEMM per
    (B, in) slice, so each slice gets the bits of a separate (B, in) forward.
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
        # Per layer: the store names of its weight, bias and adapter pair.
        self._names = [tuple(f"{prefix}/{t}{i}" for t in ("W", "b", "A", "B")) for i in range(len(dims) - 1)]
        rng = rng or np.random.default_rng(0)
        inits = [(np.sqrt((2.0 if act == "relu" else 1.0) / d_in), (d_out, d_in))
                 for d_in, d_out, act in zip(self.dims[:-1], self.dims[1:], self.acts)]
        for (w_name, b_name, _, _), w in zip(self._names, self._normal(rng, inits)):
            store.add(w_name, w)
            store.add(b_name, np.zeros(w.shape[:-1]))

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def _normal(self, rng: np.random.Generator, specs: list[tuple[float, tuple]]) -> list[np.ndarray]:
        """One normal draw per (std, shape), member by member: the draws of M separate nets."""
        draws = [[rng.normal(0.0, std, size=shape) for std, shape in specs] for _ in range(self.stack or 1)]
        return [np.stack(d) if self.stack else d[0] for d in zip(*draws)]

    def base_names(self) -> list[str]:
        return [n for names in self._names for n in names[:2]]

    def tensors(self, dtype) -> dict[str, np.ndarray]:
        """Copies of this net's tensors, adapters included, as ``dtype``, keyed by store name."""
        names = self.base_names() + [n for i in self.lora for n in self._names[i][2:]]
        return {name: self.store[name].astype(dtype) for name in names}

    def scratch(
        self, lead: tuple[int, ...], within: list[tuple] | None = None, dtype=np.float64
    ) -> list[tuple]:
        """Output buffers for ``forward(x, keep_cache=False, out=...)`` on an ``x`` of shape ``lead + (in,)``.

        One tuple per layer: its output and, for an adapted layer, its two
        adapter products (``None`` otherwise), as ``dtype``. With ``within``,
        the scratch of an input at least as large, they are views into its
        buffers, not new arrays.
        """
        *outer, rows = lead
        lead = (*outer, self.stack, rows) if self.stack else (*outer, rows)
        bufs = []
        for i, d_out in enumerate(self.dims[1:]):
            out = lead + (d_out,)
            shapes = (out, lead + (self.lora[i].rank,), out) if i in self.lora else (out,)
            parts = within[i] if within is not None else (None,) * 3
            made = tuple(
                np.empty(shape, dtype) if part is None else part.reshape(-1)[: math.prod(shape)].reshape(shape)
                for shape, part in zip(shapes, parts)
            )
            bufs.append(made + (None,) * (3 - len(made)))
        return bufs

    def forward(
        self,
        x: np.ndarray,
        keep_cache: bool = True,
        out: list[tuple] | None = None,
        params: dict[str, np.ndarray] | None = None,
    ):
        """Output and the cache ``backward`` needs; with ``keep_cache=False``, the output alone.

        Backward reads each layer's input, output and adapter projection, never
        its pre-activation, so the bias, the adapter and the activation are
        applied in place on each matmul output on both paths.

        ``out`` (cache-free pass only), from ``scratch``, takes every layer's
        matmul products, so the pass allocates no layer array. The output is
        then the last layer's buffer, overwritten by the next call with it.

        ``params`` (cache-free pass only), from ``tensors``, replaces the
        store's tensors; ``x`` is cast to their dtype, and so is every layer.
        """
        p = self.store if params is None else params
        x = np.atleast_2d(np.asarray(x, dtype=p[self._names[0][0]].dtype))
        if x.shape[-1] != self.dims[0]:
            raise ShapeError(
                f"{self.prefix}: input dim {x.shape[-1]} != expected {self.dims[0]}"
            )
        cache = []
        h = x[..., None, :, :] if self.stack else x  # the member axis, just before the rows
        for i in range(self.n_layers):
            post_out, low_out, up_out = out[i] if out is not None else (None, None, None)
            w_name, b_name, a_name, bb_name = self._names[i]
            pre = np.matmul(h, p[w_name].mT, out=post_out)
            pre += p[b_name][..., None, :]
            low = None
            if i in self.lora:
                low = np.matmul(h, p[a_name].mT, out=low_out)
                up = np.matmul(low, p[bb_name].mT, out=up_out)
                up *= self.lora[i].scale
                pre += up
            post = _ACT[self.acts[i]](pre, out=pre)
            if keep_cache:
                cache.append((h, post, low))
            h = post
        return (h, cache) if keep_cache else h

    def backward(self, cache: list, dout: np.ndarray, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Input gradient; sets ``grads[name]`` for every tensor of the net, adapters included.

        Each gradient is written where ``ParamStore.grad_out`` says: a trainable
        tensor's lands in the packed gradient buffer, a frozen one's in a new
        array. ``out=`` gives the bits of the allocating products and sums.
        """
        store = self.store
        d = np.asarray(dout, dtype=np.float64)
        for i in range(self.n_layers - 1, -1, -1):
            x_in, post, low = cache[i]
            w_name, b_name, a_name, bb_name = self._names[i]
            dpre = d * _act_grad(self.acts[i], post)
            grads[w_name] = np.matmul(dpre.mT, x_in, out=store.grad_out(w_name))
            grads[b_name] = np.add.reduce(dpre, axis=-2, out=store.grad_out(b_name))
            d = dpre @ store[w_name]
            if i in self.lora:
                scale = self.lora[i].scale
                g_up = grads[bb_name] = np.matmul(dpre.mT, low, out=store.grad_out(bb_name))
                g_up *= scale
                dlow = scale * (dpre @ store[bb_name])
                grads[a_name] = np.matmul(dlow.mT, x_in, out=store.grad_out(a_name))
                d = d + dlow @ store[a_name]
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
        spec = LoraSpec(rank, alpha)
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
            _, _, a_name, bb_name = self._names[i]
            self.store.add(a_name, a)
            self.store.add(bb_name, np.zeros(a.shape[:-2] + (self.dims[i + 1], rank)))
            self.lora[i] = spec
        self.store.freeze(self.base_names())

    def merge_lora(self) -> None:
        """Fold scale * B A into W, drop the adapters, unfreeze the base."""
        for i, spec in sorted(self.lora.items()):
            w_name, _, a_name, bb_name = self._names[i]
            self.store.set(w_name, self.store[w_name] + spec.scale * (self.store[bb_name] @ self.store[a_name]))
            self.store.remove(a_name)
            self.store.remove(bb_name)
        self.lora.clear()
        self.store.unfreeze(self.base_names())


def finite_difference_check(
    store: ParamStore,
    loss_fn: Callable[[], tuple[float, dict[str, np.ndarray]]],
    names: Sequence[str] | None = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` must be deterministic and must return the loss along with
    gradients for every checked tensor (missing entries count as zero). The
    gradients are copied, since a backward's land in the store's buffer, which
    the perturbed calls overwrite.
    """
    grads = {name: np.array(g) for name, g in loss_fn()[1].items()}
    checked = names if names is not None else store.trainable_names()
    max_rel = 0.0
    for name in checked:
        value = store[name]
        analytic = grads.get(name, np.zeros_like(value))
        flat = value.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + _FD_STEP
            up, _ = loss_fn()
            flat[j] = orig - _FD_STEP
            down, _ = loss_fn()
            flat[j] = orig
            fd[j] = (up - down) / (2.0 * _FD_STEP)
        a = analytic.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(a)), 1e-6)
        max_rel = max(max_rel, float((np.abs(fd - a) / denom).max()))
    return max_rel
