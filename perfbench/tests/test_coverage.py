"""Coverage self-test: every layer span records work where the workload does that work.

Runs the real traced benchmark once per workload (about 20-35 s each on two
cores) and checks each per-layer metric against the workload's expected
non-zeros and zeros. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import spans
from conftest import PERFBENCH, ROOT

_CLI = ("cli.parse_config.", "cli.write_rows_csv.", "cli.import_s")

# Metric-name prefixes that must be non-zero on each workload; every other
# per-layer metric (the trace.* self-checks aside) must read exactly zero.
ACTIVE = {
    "twin_fit": (
        "scenario.traffic_at.", "scenario.users_at.", "dataset.", "nn.MLP.forward.",
        "nn.MLP.backward.", "nn.ParamStore.adam_step.", "diffusion.train_step.",
        "diffusion.loss_and_grads.", "diffusion.train.", "cli.stage.collect.",
        "cli.stage.train-wm.", *_CLI,
    ),
    "agent_train": (
        "nn.MLP.forward.", "nn.MLP.backward.", "nn.ParamStore.adam_step.", "diffusion.sample.",
        "diffusion.denoise.", "agent.Policy.sample.", "agent.Policy.update.",
        "harness.WorldModelEnv.", "cli.stage.optimize.", *_CLI,
    ),
    "oracle_eval_short": (
        "scenario.", "nn.MLP.forward.", "diffusion.sample.calls", "diffusion.sample.rows",
        "diffusion.sample.self_s", "diffusion.sample.row_steps_per_s", "diffusion.sample.traffic.",
        "diffusion.sample.users.", "diffusion.denoise.", "agent.baseline_greedy.", "agent.greedy.",
        "harness.OracleEnv.", "harness.run_oracle_episode.", "cli.stage.evaluate.", *_CLI,
    ),
}

MAX_UNCOVERED = 0.10


def _traced(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(ACTIVE))
def test_layer_spans_cover_the_workload(workload):
    result = _traced(workload)
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    wrong = []
    for name, value in values.items():
        if name.startswith("trace."):
            continue
        expect_work = name.startswith(ACTIVE[workload])
        if expect_work != (value != 0):
            wrong.append(f"{name}={value} (expected {'non-zero' if expect_work else 'zero'})")
    assert not wrong, wrong
    assert values["trace.untraced_s"] > 0
    assert values["trace.uncovered_s"] < MAX_UNCOVERED * values["trace.traced_s"]


@pytest.mark.parametrize("workload, metric", [
    ("oracle_eval_short", "nn.ParamStore.adam_step.calls"),
    ("agent_train", "scenario.step_network.calls"),
    ("twin_fit", "scenario.step_network.calls"),
])
def test_layer_map_expects_these_zeros(workload, metric):
    assert not metric.startswith(ACTIVE[workload])


def test_install_patches_call_sites_and_uninstall_restores_them():
    from celltwin import cli, harness
    from celltwin.harness import WorldModelBundle

    before = (harness.baseline_greedy, cli.collect_dataset, WorldModelBundle.__dict__["load"])
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        assert harness.baseline_greedy is not before[0]
        assert cli.collect_dataset is not before[1]
        assert isinstance(WorldModelBundle.__dict__["load"], classmethod)
    finally:
        spans.uninstall(saved)
    after = (harness.baseline_greedy, cli.collect_dataset, WorldModelBundle.__dict__["load"])
    assert after == before


def test_self_time_excludes_nested_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.self_s["outer"] == pytest.approx(tracer.total_s["outer"] - tracer.total_s["inner"])
    assert tracer.top_level_s == tracer.total_s["outer"]


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    durations = list(np.linspace(0.001, 0.002, 780))
    pct, us = spans._tail(durations)
    assert pct == 90.0
    assert us == pytest.approx(np.percentile(durations, 90) * 1e6)
    assert spans._tail(list(range(15))) == (0.0, 0.0)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twin_fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
