"""Output checks and quality numbers read from a stage's artifacts under ``<root>/out``."""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

from workloads import EPISODES_PER_UPDATE, N_EVAL_SEEDS, SCHEMES, STEPS_PER_DAY

ARTIFACTS = {
    "collect": ("datasets/traffic.npz", "datasets/users.npz", "datasets/rsrp.npz", "datasets/manifest.json"),
    "train-wm": ("models/traffic.npz", "models/users.npz", "models/rsrp.npz",
                 "models/wm_losses.csv", "models/manifest.json"),
    "optimize": ("models/policy.npz", "models/learning_curve.csv", "models/policy_manifest.json"),
    "evaluate": ("reports/evaluation.csv", "reports/evaluation_manifest.json"),
}

# The deterministic CSV each stage writes; reruns of one seed must match byte for byte.
REPORT_CSV = {
    "train-wm": "models/wm_losses.csv",
    "optimize": "models/learning_curve.csv",
    "evaluate": "reports/evaluation.csv",
}

MANIFESTS = {
    "collect": "datasets/manifest.json",
    "train-wm": "models/manifest.json",
    "optimize": "models/policy_manifest.json",
    "evaluate": "reports/evaluation_manifest.json",
}


def _out(root: Path) -> Path:
    return Path(root) / "out"


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def stage_problems(root: Path, stage: str) -> list[str]:
    """Why the stage's output under `root` is wrong; empty when it is fine."""
    out = _out(root)
    missing = [name for name in ARTIFACTS[stage] if not (out / name).is_file()]
    if missing:
        return [f"{stage}: missing {', '.join(missing)}"]
    if stage == "evaluate":
        return _evaluation_problems(out / REPORT_CSV["evaluate"])
    return []


def _evaluation_problems(path: Path) -> list[str]:
    rows = _rows(path)
    want = {(scheme, seed) for scheme in SCHEMES for seed in range(N_EVAL_SEEDS)}
    seeds = sorted({int(r["seed"]) for r in rows})
    got = {(r["scheme"], seeds.index(int(r["seed"]))) for r in rows}
    problems = []
    if len(rows) != len(want) or got != want:
        problems.append(f"evaluate: {len(rows)} rows, expected {len(SCHEMES)} schemes x {N_EVAL_SEEDS} seeds")
    for r in rows:
        if not (math.isfinite(float(r["utility"])) and math.isfinite(float(r["energy_wh"]))):
            problems.append(f"evaluate: non-finite utility or energy for {r['scheme']} seed {r['seed']}")
    return problems


def same_reports(root_a: Path, root_b: Path, stage: str) -> bool:
    """True when the stage's report CSV is byte-identical under both roots."""
    name = REPORT_CSV.get(stage)
    if name is None:
        return True
    a, b = _out(root_a) / name, _out(root_b) / name
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


def config_hashes(root: Path) -> dict[str, str]:
    hashes = {}
    for stage, name in MANIFESTS.items():
        path = _out(root) / name
        if path.is_file():
            hashes[stage] = json.loads(path.read_text(encoding="utf-8"))["config_hash"]
    return hashes


# -- work and quality ----------------------------------------------------------------


def work_done(root: Path, stage: str) -> int:
    """Units of work the stage did: train steps, WM-env steps or oracle days."""
    rows = len(_rows(_out(root) / REPORT_CSV[stage]))
    return rows * EPISODES_PER_UPDATE * STEPS_PER_DAY if stage == "optimize" else rows


def quality(root: Path, stages: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Quality numbers of the twin in use and of each measured stage's output."""
    out = _out(root)
    by_kind: dict[str, list[float]] = {}
    for r in _rows(out / REPORT_CSV["train-wm"]):
        by_kind.setdefault(r["kind"], []).append(float(r["loss"]))
    # Mean over heads of each head's mean loss over its last 50 steps.
    found = {"wm_loss_tail": (statistics.fmean(statistics.fmean(v[-50:]) for v in by_kind.values()), "loss")}
    if "optimize" in stages:
        curve = [float(r["mean_return"]) for r in _rows(out / REPORT_CSV["optimize"])]
        found["policy_return_tail"] = (statistics.fmean(curve[-max(1, len(curve) // 10):]), "return")
    if "evaluate" in stages:
        agent = [r for r in _rows(out / REPORT_CSV["evaluate"]) if r["scheme"] == "agent"]
        found["agent_utility_median"] = (statistics.median(float(r["utility"]) for r in agent), "utility")
        found["agent_energy_saved_pct"] = (statistics.median(float(r["energy_saved_pct"]) for r in agent), "%")
    return found
