"""The three workloads: the config each runs, what set-up builds, what is measured.

Every workload starts from the CLI defaults (``{}``) and overrides only sizes,
so one run fits the benchmark's time budget; `README.md` lists each size next
to its default. The workload seed sets ``scenario.seed`` and the evaluation
``seeds``. Set-up sections (the stages that build a workload's inputs) are
sized for a fast, repeatable build; the measured stage's section keeps the
default batch shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

N_EVAL_SEEDS = 5
# celltwin.harness.SCHEMES: every evaluation runs these, the references included.
SCHEMES = ("agent", "empirical", "custom", "greedy", "always_on", "all_sleep")
EPISODES_PER_UPDATE = 6
STEPS_PER_DAY = 12  # hex7 preset: 2-hour traffic steps


@dataclass(frozen=True)
class Workload:
    name: str
    setup_stages: tuple[str, ...]  # run in one fresh process through cli.main
    stages: tuple[str, ...]        # measured, one fresh `celltwin` process each
    rate_stage: str                # throughput is work done by this stage over its wall time
    rate_name: str
    rate_unit: str
    overrides: dict

    def config(self, seed: int) -> dict:
        return {
            "scenario": {"preset": "hex7", "seed": seed},
            "seeds": [N_EVAL_SEEDS * seed + i for i in range(N_EVAL_SEEDS)],
            **self.overrides,
        }


# Set-up sizes shared by the workloads that need a trained bundle.
_SMALL_TWIN = {"dataset": {"n_days": 4}, "worldmodel": {"train_steps": 100}}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Training path: keyed oracle draws, batch-64 forward, backward and Adam.
            # No sampler calls and no oracle steps.
            name="twin_fit",
            setup_stages=(),
            stages=("collect", "train-wm"),
            rate_stage="train-wm", rate_name="wm_train_steps_per_s", rate_unit="steps/s",
            overrides={"worldmodel": {"train_steps": 600}},
        ),
        Workload(
            # Large-batch sampling of the WM-env pool, then the per-step env and
            # policy Python paths. No oracle steps.
            name="agent_train",
            setup_stages=("collect", "train-wm"),
            stages=("optimize",),
            rate_stage="optimize", rate_name="env_steps_per_s", rate_unit="steps/s",
            overrides={
                **_SMALL_TWIN,
                "agent": {
                    "updates": 100,
                    "episodes_per_update": EPISODES_PER_UPDATE,
                    "env": {"day_pool": 16, "rsrp_pool": 6},
                },
            },
        ),
        Workload(
            # Small-batch inpainting sampling each step, oracle step physics and
            # keyed draws. No training.
            name="oracle_eval_short",
            setup_stages=("collect", "train-wm", "optimize"),
            stages=("evaluate",),
            rate_stage="evaluate", rate_name="oracle_episodes_per_s", rate_unit="days/s",
            overrides={
                **_SMALL_TWIN,
                "agent": {
                    "updates": 10,
                    "episodes_per_update": EPISODES_PER_UPDATE,
                    "env": {"day_pool": 4, "rsrp_pool": 1},
                },
                "evaluation": {"predict_mode": "short_term"},
            },
        ),
    )
}
