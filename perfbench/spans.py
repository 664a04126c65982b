"""In-memory span recorder wrapped around the public functions of each celltwin module.

Spans live only in this benchmark: `install` swaps a timing wrapper into the
attribute each call site looks up, and `uninstall` puts the originals back.
A function imported by name into another module (``baseline_greedy`` into
``harness``, ``collect_dataset`` into ``cli``) is patched in the importing
module, because patching only the defining module records silent zeros.

A span's self time is its duration minus the time covered by spans that start
inside it. Per-call durations are kept only for spans that report percentiles.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np

from workloads import SCHEMES

# Ladder for `tail_us`: the highest of these percentiles that still has at
# least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

KINDS = ("traffic", "users", "rsrp")

# Spans whose per-call durations feed p50_us / tail_us.
_KEEP_DURATIONS = {
    "scenario.step_network", "nn.ParamStore.adam_step", "diffusion.train_step",
    "diffusion.denoise", "agent.Policy.sample", "harness.WorldModelEnv.step",
}


class Tracer:
    """Stack of open spans plus per-name totals and labelled counters."""

    def __init__(self):
        self.stack: list[list] = []  # [name, child_seconds]
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.top_level_s = 0.0  # time under spans opened with no span above them

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name: str, fn, hook=None):
        """Return `fn` timed as span `name`; `hook(tracer, seconds, args, kwargs)` adds counters."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += seconds
                else:
                    self.top_level_s += seconds
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + seconds
                self.self_s[name] = self.self_s.get(name, 0.0) + seconds - frame[1]
                if name in _KEEP_DURATIONS:
                    self.durations.setdefault(name, []).append(seconds)
                if hook is not None:
                    hook(self, seconds, args, kwargs)

        return timed


# -- hooks that turn call arguments into counters --------------------------------


def _forward_flops(tracer, seconds, args, kwargs):
    """Computed, not measured: 2 * rows * in * out per dense layer, adapters included."""
    mlp, x = args[0], args[1]
    rows = np.atleast_2d(x).shape[0]
    flops = 0
    for i, (d_in, d_out) in enumerate(zip(mlp.dims[:-1], mlp.dims[1:])):
        flops += 2 * rows * d_in * d_out
        if i in mlp.lora:
            flops += 2 * rows * mlp.lora[i].rank * (d_in + d_out)
    tracer.count("nn.MLP.forward.flops", flops)


def _step_network(tracer, seconds, args, kwargs):
    if tracer.inside("agent.baseline_greedy"):
        tracer.count("agent.greedy.evaluations", 1)


def _write_dataset(tracer, seconds, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    if os.path.exists(path):
        tracer.count("dataset.write_dataset.bytes", os.path.getsize(path))


def _train(tracer, seconds, args, kwargs):
    tracer.count(f"diffusion.train.{args[0].kind}.s", seconds)


def _sample(tracer, seconds, args, kwargs):
    model = args[0]
    rows = np.atleast_2d(args[2] if len(args) > 2 else kwargs["mask"]).shape[0]
    tracer.count(f"diffusion.sample.{model.kind}.s", seconds)
    tracer.count("diffusion.sample.rows", rows)
    tracer.count("diffusion.sample.row_steps", rows * model.schedule.steps)
    tracer.count("diffusion.sample.total_s", seconds)


def _oracle_episode(tracer, seconds, args, kwargs):
    scheme = args[0] if args else kwargs["scheme"]
    tracer.count(f"harness.run_oracle_episode.{scheme}.s", seconds)


def _patch_table():
    """(owner, attribute, span name, hook) for every boundary the benchmark times."""
    from celltwin import cli, harness
    from celltwin.agent import Policy
    from celltwin.diffusion import DiffusionModel
    from celltwin.harness import OracleEnv, WorldModelBundle, WorldModelEnv
    from celltwin.nn import MLP, ParamStore
    from celltwin.scenario import Oracle

    return [
        (Oracle, "traffic_at", "scenario.traffic_at", None),
        (Oracle, "users_at", "scenario.users_at", None),
        (Oracle, "step_network", "scenario.step_network", _step_network),
        (cli, "collect_dataset", "dataset.collect_dataset", None),
        (cli, "write_dataset", "dataset.write_dataset", _write_dataset),
        (cli, "read_dataset", "dataset.read_dataset", None),
        (MLP, "forward", "nn.MLP.forward", _forward_flops),
        (MLP, "backward", "nn.MLP.backward", None),
        (ParamStore, "adam_step", "nn.ParamStore.adam_step", None),
        (DiffusionModel, "train", "diffusion.train", _train),
        (DiffusionModel, "train_step", "diffusion.train_step", None),
        (DiffusionModel, "loss_and_grads", "diffusion.loss_and_grads", None),
        (DiffusionModel, "sample", "diffusion.sample", _sample),
        (DiffusionModel, "denoise", "diffusion.denoise", None),
        (Policy, "sample", "agent.Policy.sample", None),
        (Policy, "update", "agent.Policy.update", None),
        (harness, "baseline_greedy", "agent.baseline_greedy", None),
        (WorldModelEnv, "__init__", "harness.WorldModelEnv.init", None),
        (WorldModelEnv, "step", "harness.WorldModelEnv.step", None),
        (OracleEnv, "step", "harness.OracleEnv.step", None),
        (OracleEnv, "reset", "harness.OracleEnv.reset", None),
        (harness, "run_oracle_episode", "harness.run_oracle_episode", _oracle_episode),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "write_rows_csv", "cli.write_rows_csv", None),
        # No metrics of their own: these keep the rest of each stage under a
        # top-level span, so trace.uncovered_s measures what the spans miss.
        (cli, "run_training", "harness.run_training", None),
        (cli, "evaluate_policy", "harness.evaluate_policy", None),
        (WorldModelBundle, "load", "harness.WorldModelBundle.load", None),
        (WorldModelBundle, "save", "harness.WorldModelBundle.save", None),
        (Policy, "load", "agent.Policy.load", None),
        (Policy, "save", "agent.Policy.save", None),
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Patch every boundary; returns what `uninstall` needs to restore it."""
    saved = []
    for owner, attr, name, hook in _patch_table():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(tracer.wrap(name, raw.__func__, hook))
        else:
            patched = tracer.wrap(name, raw, hook)
        saved.append((owner, attr, raw))
        setattr(owner, attr, patched)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


# -- per-layer metrics -------------------------------------------------------------


def _tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, microseconds) of the highest ladder percentile with enough samples beyond it."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(durations, pct)) * 1e6
    return 0.0, 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat name -> value map of every per-layer metric; absent work reads 0."""
    m: dict[str, float] = {}

    def calls(name):
        m[f"{name}.calls"] = float(tracer.calls.get(name, 0))

    def self_s(name):
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)

    def total_s(name, key=None):
        m[key or f"{name}.s"] = tracer.total_s.get(name, 0.0)

    def p50(name):
        d = tracer.durations.get(name, [])
        m[f"{name}.p50_us"] = float(np.median(d)) * 1e6 if d else 0.0

    def tail(name):
        d = tracer.durations.get(name, [])
        pct, us = _tail(d)
        m[f"{name}.tail_us"] = us
        m[f"{name}.tail_pct"] = pct
        m[f"{name}.samples"] = float(len(d))

    for name in ("scenario.traffic_at", "scenario.users_at"):
        calls(name)
        self_s(name)
    calls("scenario.step_network")
    self_s("scenario.step_network")
    p50("scenario.step_network")
    tail("scenario.step_network")

    self_s("dataset.collect_dataset")
    total_s("dataset.write_dataset")
    m["dataset.write_dataset.bytes"] = tracer.counters.get("dataset.write_dataset.bytes", 0.0)
    total_s("dataset.read_dataset")

    calls("nn.MLP.forward")
    self_s("nn.MLP.forward")
    m["nn.MLP.forward.flops"] = tracer.counters.get("nn.MLP.forward.flops", 0.0)
    calls("nn.MLP.backward")
    self_s("nn.MLP.backward")
    calls("nn.ParamStore.adam_step")
    self_s("nn.ParamStore.adam_step")
    p50("nn.ParamStore.adam_step")

    calls("diffusion.train_step")
    self_s("diffusion.train_step")
    p50("diffusion.train_step")
    tail("diffusion.train_step")
    self_s("diffusion.loss_and_grads")
    for kind in KINDS:
        m[f"diffusion.train.{kind}.s"] = tracer.counters.get(f"diffusion.train.{kind}.s", 0.0)
    calls("diffusion.sample")
    m["diffusion.sample.rows"] = tracer.counters.get("diffusion.sample.rows", 0.0)
    self_s("diffusion.sample")
    sample_s = tracer.counters.get("diffusion.sample.total_s", 0.0)
    row_steps = tracer.counters.get("diffusion.sample.row_steps", 0.0)
    m["diffusion.sample.row_steps_per_s"] = row_steps / sample_s if sample_s > 0 else 0.0
    for kind in KINDS:
        m[f"diffusion.sample.{kind}.s"] = tracer.counters.get(f"diffusion.sample.{kind}.s", 0.0)
    calls("diffusion.denoise")
    self_s("diffusion.denoise")
    p50("diffusion.denoise")
    tail("diffusion.denoise")

    calls("agent.Policy.sample")
    self_s("agent.Policy.sample")
    p50("agent.Policy.sample")
    calls("agent.Policy.update")
    self_s("agent.Policy.update")
    calls("agent.baseline_greedy")
    self_s("agent.baseline_greedy")
    m["agent.greedy.evaluations"] = tracer.counters.get("agent.greedy.evaluations", 0.0)

    total_s("harness.WorldModelEnv.init")
    calls("harness.WorldModelEnv.step")
    self_s("harness.WorldModelEnv.step")
    p50("harness.WorldModelEnv.step")
    tail("harness.WorldModelEnv.step")
    calls("harness.OracleEnv.step")
    self_s("harness.OracleEnv.step")
    self_s("harness.OracleEnv.reset")
    for scheme in SCHEMES:
        key = f"harness.run_oracle_episode.{scheme}.s"
        m[key] = tracer.counters.get(key, 0.0)

    total_s("cli.parse_config")
    total_s("cli.write_rows_csv")
    return m
