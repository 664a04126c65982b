"""Golden output bytes: a few-second pipeline run reproduces recorded digests.

Runs ``collect -> train-wm -> optimize -> evaluate -> eval-gen -> simulate ->
counterfactual`` through ``cli.main`` on a small config (three experts per
head; evaluation with short-term forecasts for the agent, both sequential and
with ``--jobs 2``, then once more with long-term forecasts; one counterfactual
fraction, whose adapted traffic head samples with its adapters attached, run
once as is and once with an agent retrained in the counterfactual twin) and
compares the sha256 of every dataset and checkpoint npz file,
``wm_losses.csv``, ``learning_curve.csv``, each ``evaluation.csv``,
``generation.csv``, a two-day ``traffic.csv``, ``counterfactual.csv`` and
``counterfactual_wm.csv``, the retrained run's ``counterfactual.csv`` (with its
``agent_retrained`` rows), plus the config hash of ``{}``, of each pipeline
config and of one config that reads a full scenario file, gives an integer for
a float key and a null for a defaulted key, against ``tests/golden.json``. Float results depend on the numpy build and its BLAS,
so the file records both and a mismatch names the recorded and the running
environment.

A change that alters numerics on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from celltwin.cli import main, parse_config
from celltwin.scenario import make_hex_scenario

GOLDEN = Path(__file__).with_name("golden.json")

CONFIG = {
    "scenario": {"preset": "hex7", "seed": 0, "grid_dim": 4, "horizon_hours": 96},
    "seeds": [0, 1],
    "dataset": {"n_days": 3},
    "worldmodel": {"schedule": {"steps": 20, "beta_min": 1e-4, "beta_max": 0.02}, "train_steps": 40,
                   "batch_size": 16, "n_experts": 3, "expert_hidden": [16], "gate_hidden": [8]},
    "agent": {"updates": 2, "episodes_per_update": 2,
              "env": {"day_pool": 2, "rsrp_pool": 1, "rsrp_draws": 2}},
    "evaluation": {"schemes": ["agent", "empirical", "custom", "greedy"],
                   "n_gen_samples": 4, "predict_mode": "short_term"},
}

# The same run with long-term forecasts; it shares out_dir, so it reads the same models.
LONG_TERM = {**CONFIG, "evaluation": {**CONFIG["evaluation"], "predict_mode": "long_term"}}

# One peak fraction and a few adapter steps on two days of the 96-hour horizon.
COUNTERFACTUAL = {**CONFIG, "counterfactual": {"fractions": [0.6], "lora": {"rank": 2, "alpha": 8.0},
                                               "adapt_steps": 4, "adapt_days": 2}}

# The same, plus an agent retrained for one update in each counterfactual twin.
RETRAIN = {**COUNTERFACTUAL, "counterfactual": {**COUNTERFACTUAL["counterfactual"],
                                                "retrain_agent": True, "retrain_updates": 1}}

# A full scenario file (one float key given as an integer) and a config that reads it,
# with an integer for a float key and a null that stands for the default.
SCENARIO_FILE = {**asdict(make_hex_scenario(seed=5, grid_dim=3, horizon_hours=96)),
                 "traffic_noise_sigma": 0}
FULL_SCENARIO = {"scenario": "scenario.json", "seeds": [3], "dataset": {"n_days": 4},
                 "worldmodel": {"lr": 1, "guidance_w": None}}

# Configs hashed as written (default out_dir): {digest key: config}
HASHED = {
    "config_hash {}": {},
    "config_hash config": CONFIG,
    "config_hash long_term": LONG_TERM,
    "config_hash counterfactual": COUNTERFACTUAL,
    "config_hash retrain_agent": RETRAIN,
    "config_hash full scenario file": FULL_SCENARIO,
}

KINDS = ("traffic", "users", "rsrp")

# (command line, config, {digest key: file the command writes under out_dir}), in pipeline order
STAGES = (
    (["collect"], CONFIG, {f"datasets/{k}.npz": f"datasets/{k}.npz" for k in KINDS}),
    (["train-wm"], CONFIG, {"wm_losses.csv": "models/wm_losses.csv",
                            **{f"models/{k}.npz": f"models/{k}.npz" for k in KINDS}}),
    (["optimize"], CONFIG, {"learning_curve.csv": "models/learning_curve.csv",
                            "models/policy.npz": "models/policy.npz"}),
    (["evaluate"], CONFIG, {"evaluation.csv": "reports/evaluation.csv"}),
    (["evaluate", "--jobs", "2"], CONFIG, {"evaluation.csv --jobs 2": "reports/evaluation.csv"}),
    (["evaluate"], LONG_TERM, {"evaluation.csv long_term": "reports/evaluation.csv"}),
    (["eval-gen"], CONFIG, {"generation.csv": "reports/generation.csv"}),
    (["simulate", "--days", "2"], CONFIG, {"traffic.csv --days 2": "traffic.csv"}),
    (["counterfactual"], COUNTERFACTUAL, {"counterfactual.csv": "reports/counterfactual.csv",
                                          "counterfactual_wm.csv": "reports/counterfactual_wm.csv"}),
    (["counterfactual"], RETRAIN, {"counterfactual.csv retrain_agent": "reports/counterfactual.csv"}),
)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run_pipeline(root: Path) -> dict[str, str]:
    """sha256 of every golden output, keyed as in ``golden.json``."""
    digests = {}
    for k, (command, config, outputs) in enumerate(STAGES):
        path = root / f"config{k}.json"
        path.write_text(json.dumps({**config, "out_dir": str(root / "out")}))
        if main([*command, "--config", str(path)]) != 0:
            raise RuntimeError(f"celltwin {' '.join(command)} failed")
        for key, output in outputs.items():
            digests[key] = hashlib.sha256((root / "out" / output).read_bytes()).hexdigest()
    return {**digests, **config_hashes(root)}


def config_hashes(root: Path) -> dict[str, str]:
    """The config hash of each config in ``HASHED``, keyed as in ``golden.json``."""
    (root / "scenario.json").write_text(json.dumps(SCENARIO_FILE))
    hashes = {}
    for key, config in HASHED.items():
        path = root / "hashed.json"
        path.write_text(json.dumps(config))
        hashes[key] = parse_config(str(path)).config_hash
    return hashes


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", [key for _, _, outputs in STAGES for key in outputs] + list(HASHED))
def test_digest_matches_golden(digests, golden, key):
    assert digests[key] == golden["digests"][key], (
        f"{key} changed: golden.json was recorded with {golden['environment']}, "
        f"this run uses {environment()}. If the numerics changed on purpose, regenerate "
        f"with `PYTHONPATH=src python tests/test_golden.py`."
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": run_pipeline(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
