"""Command-line pipeline: simulate, collect, train, optimize, evaluate, report.

Configuration is one strict JSON document read into a typed RunConfig; unknown
keys fail loudly, absent or null keys take their defaults, and the canonical
content hash of the typed config's JSON form is stamped into every artifact
manifest so any result can be traced back to exactly one (config, seeds) pair. Stages communicate only through files under
the output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .agent import Policy, RewardWeights
from .dataset import KINDS, collect_dataset, read_dataset, write_dataset
from .errors import CelltwinError, ConfigError, DomainError, read_json
from .harness import (
    SCHEMES,
    AgentTrainConfig,
    CounterfactualConfig,
    EvalConfig,
    WMTrainConfig,
    WorldModelBundle,
    counterfactual_suite,
    episode_row,
    evaluate_policy,
    generation_metrics,
    read_rows_csv,
    run_training,
    write_manifest,
    write_rows_csv,
)
from .scenario import Oracle, ScenarioConfig, load_scenario, make_hex_scenario, scenario_from_dict

OUT_ROOT_ENV = "CELLTWIN_OUT_ROOT"


@dataclass(frozen=True)
class DatasetConfig:
    n_days: int = 16
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)


def _config_key(key: str) -> str:
    return f"config key {key}"


@dataclass(frozen=True)
class RunConfig:
    """One run config, typed section by section. Its JSON form, with the scenario resolved
    to the full form, is what ``config_hash`` covers."""

    scenario: ScenarioConfig = field(default_factory=make_hex_scenario)
    out_dir: str = "out"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    jobs: int = 1
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    worldmodel: WMTrainConfig = field(default_factory=WMTrainConfig)
    agent: AgentTrainConfig = field(default_factory=AgentTrainConfig)
    reward: RewardWeights = field(default_factory=RewardWeights)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    counterfactual: CounterfactualConfig = field(default_factory=CounterfactualConfig)

    @cached_property
    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- artifact layout -------------------------------------------------------

    @property
    def out_path(self) -> Path:
        out_root = os.environ.get(OUT_ROOT_ENV, "")
        return Path(out_root) / self.out_dir if out_root else Path(self.out_dir)

    def dataset_path(self, kind: str) -> Path:
        return self.out_path / "datasets" / f"{kind}.npz"

    def model_path(self, kind: str) -> Path:
        return self.out_path / "models" / f"{kind}.npz"

    def model_paths(self) -> dict[str, str]:
        return {k: str(self.model_path(k)) for k in KINDS}

    @property
    def policy_path(self) -> Path:
        return self.out_path / "models" / "policy.npz"

    @property
    def reports_dir(self) -> Path:
        return self.out_path / "reports"

    def manifest(self, command: str) -> dict:
        return {
            "command": command,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "versions": {"celltwin": __version__, "numpy": np.__version__},
        }


# Value checks the types cannot express: (dotted key, test, what the value must be).
_VALUE_CHECKS = (
    ("evaluation.schemes", lambda v: set(v) <= set(SCHEMES), f"a list of schemes from {', '.join(SCHEMES)}"),
    ("evaluation.predict_mode", lambda v: v in ("long_term", "short_term"), "long_term or short_term"),
    ("worldmodel.guidance_w", lambda v: v >= 0, ">= 0"),
    ("counterfactual.fractions", lambda v: all(0 < f <= 1 for f in v), "a list of peak fractions in (0, 1]"),
    ("dataset.split", lambda v: min(v) >= 0 and v[0] > 0 and abs(sum(v) - 1.0) <= 1e-9,
     "three non-negative fractions summing to 1, the first (train) positive"),
    ("seeds", lambda v: v and min(v) >= 0, "a nonempty array of integers >= 0"),
    ("worldmodel.memory_kinds", lambda v: set(v) <= set(KINDS), f"a list of kinds from {', '.join(KINDS)}"),
    ("worldmodel.p_uncond", lambda v: 0 <= v < 1, "in [0, 1)"),
    ("evaluation.percentile", lambda v: 0 <= v <= 100, "in [0, 100]"),
    *((key, lambda v: v >= 0, ">= 0") for key in ("worldmodel.seed", "agent.seed")),
    *((key, lambda v: v >= 1, ">= 1") for key in (
        "jobs", "evaluation.n_gen_samples", "worldmodel.batch_size", "worldmodel.train_steps",
        "worldmodel.n_experts", "worldmodel.time_dim", "worldmodel.cond_emb_dim", "agent.updates",
        "agent.episodes_per_update", "agent.env.day_pool", "agent.env.rsrp_pool", "agent.env.rsrp_draws")),
    *((key, lambda v: all(width >= 1 for width in v), "a list of layer widths >= 1") for key in (
        "worldmodel.expert_hidden", "worldmodel.gate_hidden", "agent.hidden")),
    *((key, lambda v: v > 0, "> 0") for key in (
        "worldmodel.lr", "agent.lr", "counterfactual.adapt_lr")),
)


def _value_at(run: RunConfig, key: str):
    """The value at a dotted config key."""
    for part in key.split("."):
        run = getattr(run, part)
    return run


def parse_config(path: str) -> RunConfig:
    """Load one strict config file as a typed RunConfig."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            given = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(given, dict):
        raise ConfigError("config root must be a JSON object")
    scenario = given.pop("scenario", None)
    run = read_json(RunConfig, given, ConfigError, _config_key)
    if isinstance(scenario, str):
        scenario_path = Path(scenario)
        if not scenario_path.is_absolute():
            scenario_path = Path(path).parent / scenario_path
        run = replace(run, scenario=load_scenario(str(scenario_path)))
    elif scenario is not None:
        run = replace(run, scenario=scenario_from_dict(scenario, _config_key, "scenario"))
    for key, valid, want in _VALUE_CHECKS:
        if not valid(_value_at(run, key)):
            raise ConfigError(f"config key {key} must be {want}")
    # Adapters go on every expert layer of the traffic head. The smallest layer dim
    # is a hidden width or the series length; the input dim exceeds three series lengths.
    max_rank = min([*run.worldmodel.expert_hidden, run.scenario.steps_per_day])
    days = run.scenario.n_days
    # The custom baseline, which counterfactual always runs, reads the day before evaluation.day.
    for key, last in (("counterfactual.lora.rank", max_rank), ("evaluation.day", days - 1),
                      ("counterfactual.adapt_days", days), ("dataset.n_days", days)):
        if not 1 <= _value_at(run, key) <= last:
            raise ConfigError(f"config key {key} must be in [1, {last}]")
    # An absolute path would not move under the root: Path(root) / "/abs" is "/abs".
    if os.environ.get(OUT_ROOT_ENV, "") and Path(run.out_dir).is_absolute():
        raise ConfigError(f"config key out_dir must be a relative path while {OUT_ROOT_ENV} is set, "
                          f"got {run.out_dir}")
    return run


# -- subcommands --------------------------------------------------------------------


def cmd_simulate(run: RunConfig, args) -> int:
    n_days = run.scenario.n_days
    if not 1 <= args.days <= n_days:
        raise DomainError(f"--days must be in [1, {n_days}] for a {run.scenario.horizon_hours}-hour "
                          f"scenario horizon, got {args.days}")
    oracle = Oracle(run.scenario)
    out = Path(args.out) if args.out else run.out_path / "traffic.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = [
        {"cell_id": cell.id, "t_hours": run.scenario.hour(day, k), "load_mbps": load}
        for day in range(args.days)
        for k, loads in enumerate(oracle.traffic_day(day).T.tolist())
        for cell, load in zip(oracle.cells, loads)
    ]
    write_rows_csv(rows, str(out), ("cell_id", "t_hours", "load_mbps"))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_collect(run: RunConfig, args) -> int:
    oracle = Oracle(run.scenario)
    datasets = collect_dataset(oracle, n_days=run.dataset.n_days, split_fractions=run.dataset.split)
    (run.out_path / "datasets").mkdir(parents=True, exist_ok=True)
    for kind, sample_set in datasets.items():
        write_dataset(sample_set, str(run.dataset_path(kind)))
        print(f"{kind}: {len(sample_set)} samples -> {run.dataset_path(kind)}")
    write_manifest(run.manifest("collect"), str(run.out_path / "datasets" / "manifest.json"))
    return 0


def cmd_train_wm(run: RunConfig, args) -> int:
    datasets = {kind: read_dataset(str(run.dataset_path(kind))) for kind in KINDS}
    bundle, curves = WorldModelBundle.train_from_datasets(datasets, run.worldmodel)
    (run.out_path / "models").mkdir(parents=True, exist_ok=True)
    bundle.save(run.model_paths())
    rows = [
        {"kind": kind, "step": i, "loss": loss}
        for kind, losses in curves.items()
        for i, loss in enumerate(losses)
    ]
    write_rows_csv(rows, str(run.out_path / "models" / "wm_losses.csv"), ("kind", "step", "loss"))
    write_manifest(run.manifest("train-wm"), str(run.out_path / "models" / "manifest.json"))
    for kind, losses in curves.items():
        print(f"{kind}: final loss {np.mean(losses[-50:]):.4f} -> {run.model_path(kind)}")
    return 0


def cmd_eval_gen(run: RunConfig, args) -> int:
    bundle = WorldModelBundle.load(run.model_paths())
    metrics = generation_metrics(bundle, run.scenario, run.evaluation.n_gen_samples)
    run.reports_dir.mkdir(parents=True, exist_ok=True)
    columns = tuple(["metric", "value"])
    rows = [{"metric": k, "value": v} for k, v in sorted(metrics.items())]
    write_rows_csv(rows, str(run.reports_dir / "generation.csv"), columns)
    write_manifest(run.manifest("eval-gen"), str(run.reports_dir / "generation_manifest.json"))
    for row in rows:
        print(f"{row['metric']}: {row['value']:.4f}")
    return 0


def cmd_optimize(run: RunConfig, args) -> int:
    bundle = WorldModelBundle.load(run.model_paths())
    oracle = Oracle(run.scenario)
    policy, curve = run_training(bundle, oracle, run.reward, run.agent)
    run.policy_path.parent.mkdir(parents=True, exist_ok=True)
    policy.save(str(run.policy_path))
    rows = [{"update": i, "mean_return": r} for i, r in enumerate(curve)]
    write_rows_csv(rows, str(run.out_path / "models" / "learning_curve.csv"), ("update", "mean_return"))
    write_manifest(run.manifest("optimize"), str(run.out_path / "models" / "policy_manifest.json"))
    print(f"trained policy over {len(curve)} updates; "
          f"return {curve[0]:+.3f} -> {np.mean(curve[-max(1, len(curve) // 10):]):+.3f}")
    return 0


def _evaluate_one_seed(payload) -> list[dict]:
    scenario, schemes, seed, weights, bundle, policy, cfg = payload
    results = evaluate_policy(scenario, schemes, (seed,), weights, bundle=bundle, policy=policy, cfg=cfg)
    return [episode_row(r, "default", None, results) for r in results]


def cmd_evaluate(run: RunConfig, args) -> int:
    jobs = args.jobs if args.jobs is not None else run.jobs
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    schemes = run.evaluation.schemes
    bundle = WorldModelBundle.load(run.model_paths()) if "agent" in schemes else None
    policy = Policy.load(str(run.policy_path)) if "agent" in schemes else None
    payloads = [
        (run.scenario, schemes, seed, run.reward, bundle, policy, run.evaluation)
        for seed in run.seeds
    ]
    # A forking pool starts every worker at its first submit, so it gets no more workers than seeds.
    workers = min(jobs, len(payloads))
    if workers > 1:
        import concurrent.futures  # here, since with logging it costs about 9 ms that only a pool needs

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_evaluate_one_seed, payloads))
    else:
        per_seed = [_evaluate_one_seed(p) for p in payloads]
    rows = [row for chunk in per_seed for row in chunk]
    run.reports_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, str(run.reports_dir / "evaluation.csv"))
    write_manifest(run.manifest("evaluate"), str(run.reports_dir / "evaluation_manifest.json"))
    print(f"wrote {run.reports_dir / 'evaluation.csv'} ({len(rows)} rows)")
    return 0


def cmd_counterfactual(run: RunConfig, args) -> int:
    bundle = WorldModelBundle.load(run.model_paths())
    policy = Policy.load(str(run.policy_path))
    rows, wm_rows = counterfactual_suite(
        run.scenario, bundle, policy, run.seeds, run.reward,
        run.counterfactual, run.evaluation, run.agent,
    )
    run.reports_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(rows, str(run.reports_dir / "counterfactual.csv"))
    write_rows_csv(
        wm_rows, str(run.reports_dir / "counterfactual_wm.csv"),
        ("peak_fraction", "mae_frozen", "mae_adapted", "mae_frac_frozen", "mae_frac_adapted"),
    )
    write_manifest(run.manifest("counterfactual"), str(run.reports_dir / "counterfactual_manifest.json"))
    print(f"wrote {run.reports_dir / 'counterfactual.csv'} ({len(rows)} rows)")
    return 0


def cmd_report(run: RunConfig, args) -> int:
    summary_rows = []
    for name in ("evaluation", "counterfactual"):
        path = run.reports_dir / f"{name}.csv"
        if not path.exists():
            continue
        rows = read_rows_csv(str(path))
        by_key: dict = {}
        for row in rows:
            phi = row["peak_fraction"]
            # NaN marks "no counterfactual"; canonicalize it or every row is its own group.
            phi = "" if isinstance(phi, float) and np.isnan(phi) else phi
            key = (row["scheme"], row["scenario"], phi)
            by_key.setdefault(key, []).append(row)
        for (scheme, scenario_name, phi), group in sorted(by_key.items(), key=str):
            summary_rows.append({
                "scheme": scheme,
                "scenario": scenario_name,
                "peak_fraction": phi,
                "n_seeds": len(group),
                "utility_median": float(np.median([g["utility"] for g in group])),
                "energy_saved_pct_median": float(np.median([g["energy_saved_pct"] for g in group])),
                "rsrp_delta_db_median": float(np.median([g["rsrp_delta_db"] for g in group])),
                "dropped_rate_median": float(np.median([g["dropped_rate"] for g in group])),
            })
    if not summary_rows:
        print("no report CSVs found; run evaluate or counterfactual first", file=sys.stderr)
        return 1
    columns = ("scheme", "scenario", "peak_fraction", "n_seeds", "utility_median",
               "energy_saved_pct_median", "rsrp_delta_db_median", "dropped_rate_median")
    run.reports_dir.mkdir(parents=True, exist_ok=True)
    write_rows_csv(summary_rows, str(run.reports_dir / "summary.csv"), columns)
    widths = [10, 15, 13, 7, 15, 24, 21, 19]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in summary_rows:
        cells = [str(row[c]) if not isinstance(row[c], float) else f"{row[c]:.4f}" for c in columns]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    print(f"wrote {run.reports_dir / 'summary.csv'}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "collect": cmd_collect,
    "train-wm": cmd_train_wm,
    "eval-gen": cmd_eval_gen,
    "optimize": cmd_optimize,
    "evaluate": cmd_evaluate,
    "counterfactual": cmd_counterfactual,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="celltwin",
        description="Synthetic cellular twin with a diffusion world model and sleep/offload agent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="path to the run config JSON")
        if name == "simulate":
            p.add_argument("--days", type=int, default=1, help="number of days to simulate")
            p.add_argument("--out", default=None, help="output CSV path")
        if name == "evaluate":
            p.add_argument("--jobs", type=int, default=None, help="per-seed parallelism")
    return parser


def main(argv=None) -> int:
    """Run one stage. The warnings it raises are held: shown if it returns, dropped if it fails,
    so a failure prints one `error:` line and nothing else on stderr."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as held:
        try:
            run = parse_config(args.config)
            run.out_path.mkdir(parents=True, exist_ok=True)
            code = COMMANDS[args.command](run, args)
        except (CelltwinError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    sys.exit(main())
