"""Acceptance suite: the release gate for the whole pipeline.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them live).
Everything runs at desk scale: the default 7-cell hex scenario, one simulated
day per episode, 100 diffusion steps, and medians over five evaluation seeds
where statistical claims are made.
"""

import json
import time

import numpy as np
import pytest

from celltwin.agent import Policy, RewardWeights
from celltwin.dataset import COND_DIM, collect_dataset
from celltwin.diffusion import (
    DenoiserArch,
    DiffusionModel,
    MemoryConfig,
    NoiseSchedule,
    forward_noise,
    prompt_retrieve,
)
from celltwin.harness import (
    AgentTrainConfig,
    CounterfactualConfig,
    SCHEMES,
    WMTrainConfig,
    WorldModelBundle,
    counterfactual_suite,
    episode_row,
    evaluate_policy,
    rsrp_controllability,
    run_training,
    traffic_generation_metrics,
)
from celltwin.nn import LoraSpec, finite_difference_check
from celltwin.scenario import Oracle, make_hex_scenario

SEEDS = (0, 1, 2, 3, 4)
WEIGHTS = RewardWeights(lambda_e=1.0, lambda_r=1.0, lambda_d=2.0)

TIMINGS: dict[str, float] = {}


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:>2}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


@pytest.fixture(scope="module")
def scenario():
    return make_hex_scenario(seed=0)


@pytest.fixture(scope="module")
def oracle(scenario):
    return Oracle(scenario)


@pytest.fixture(scope="module")
def datasets(oracle):
    t0 = time.perf_counter()
    out = collect_dataset(oracle, n_days=16)
    TIMINGS["collect"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def bundle(datasets):
    t0 = time.perf_counter()
    models, _ = WorldModelBundle.train_from_datasets(datasets, WMTrainConfig())
    TIMINGS["train_wm"] = time.perf_counter() - t0
    return models


@pytest.fixture(scope="module")
def policy(bundle, oracle):
    t0 = time.perf_counter()
    trained, curve = run_training(bundle, oracle, WEIGHTS, AgentTrainConfig())
    TIMINGS["optimize"] = time.perf_counter() - t0
    TIMINGS["curve_first"] = float(np.mean(curve[: max(1, len(curve) // 10)]))
    TIMINGS["curve_last"] = float(np.mean(curve[-max(1, len(curve) // 10):]))
    return trained


@pytest.fixture(scope="module")
def evaluation(scenario, bundle, policy):
    t0 = time.perf_counter()
    results = evaluate_policy(scenario, SCHEMES, SEEDS, WEIGHTS, bundle=bundle, policy=policy)
    TIMINGS["evaluate"] = time.perf_counter() - t0
    return [episode_row(r, "default", None, results) for r in results]


def _tiny_denoiser(memory=None) -> DiffusionModel:
    from celltwin.dataset import ConditionLayout, NormalizationStats

    arch = DenoiserArch(series_len=6, cond_emb_dim=4, time_dim=4, n_experts=2,
                        expert_hidden=(8,), gate_hidden=(8,), memory=memory)
    return DiffusionModel(
        kind="traffic", arch=arch, schedule=NoiseSchedule(10, 1e-4, 0.02),
        stats=NormalizationStats(0.0, 1.0),
        layout=ConditionLayout(np.zeros(COND_DIM), np.ones(COND_DIM)),
        seed=0,
    )


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    model = _tiny_denoiser(memory=MemoryConfig(n_pairs=4, top_n=2, prompt_dim=2, key_dim=4))
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 6))
    cond = rng.standard_normal((3, COND_DIM))
    mask = np.array([[True] * 6, [False, False, True, True, True, True], [True] * 6])
    t = np.array([1, 5, 9])
    eps = rng.standard_normal((3, 6))
    null = np.array([False, True, False])
    denoiser_err = finite_difference_check(
        model.store, lambda: model.loss_and_grads(x0, cond, mask, t, eps, null)
    )

    agent = Policy(n_cells=2, hidden=(8,), seed=1)
    obs = rng.normal(size=(5, agent.obs_dim))
    choices = rng.integers(0, agent.n_choices, size=(5, agent.n_cells))
    weights = rng.normal(size=5)
    policy_err = finite_difference_check(
        agent.store, lambda: agent.surrogate_loss_and_grads(obs, choices, weights)
    )
    elapsed = time.perf_counter() - t0
    ok = denoiser_err < 1e-4 and policy_err < 1e-4 and elapsed < 60.0
    report(1, "gradient correctness", ok,
           f"denoiser {denoiser_err:.2e}, policy {policy_err:.2e}, {elapsed:.1f}s")
    assert denoiser_err < 1e-4
    assert policy_err < 1e-4
    assert elapsed < 60.0


def test_02_mixture_structure(bundle):
    model = bundle.traffic
    rng = np.random.default_rng(2)
    L = model.arch.series_len
    worst_combo, worst_gate = 0.0, 0.0
    for _ in range(100):
        x_t = rng.standard_normal((1, L))
        t = rng.integers(1, model.schedule.steps + 1, size=1)
        cond = rng.standard_normal((1, COND_DIM))
        mask = rng.random((1, L)) < 0.7
        mask[:, 0] = True
        context = np.where(mask, 0.0, rng.standard_normal((1, L)))
        eps_hat = model.forward(x_t, t, cond, False, mask, context)[0]
        z, _ = model.assemble_input(x_t, t, cond, np.zeros(1, bool), mask, context)
        gate = model.gate_weights(z)
        recomputed = sum(
            gate[:, i : i + 1] * model.expert_output(i, z)
            for i in range(model.arch.n_experts)
        )
        worst_combo = max(worst_combo, float(np.abs(eps_hat - recomputed).max()))
        worst_gate = max(worst_gate, float(abs(gate.sum(axis=1) - 1.0).max()))
    ok = worst_combo < 1e-12 and worst_gate < 1e-12
    report(2, "mixture-of-experts structure", ok,
           f"combine err {worst_combo:.2e}, gate sum err {worst_gate:.2e}")
    assert worst_combo < 1e-12
    assert worst_gate < 1e-12


def test_03_forward_process_endpoints():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 12))
    eps = rng.standard_normal((4, 12))
    identity = np.array_equal(forward_noise(x0, 1.0, eps), x0)
    pure_noise = np.array_equal(forward_noise(x0, 0.0, eps), eps)
    sched = NoiseSchedule(100, 1e-4, 0.02)
    monotone = bool((np.diff(sched.alpha_bar) < 0).all())
    ok = identity and pure_noise and monotone
    report(3, "forward-process endpoints", ok,
           f"identity {identity}, pure-noise {pure_noise}, alpha_bar monotone {monotone}")
    assert identity and pure_noise and monotone


def test_04_generation_fidelity(bundle, scenario):
    train_seconds = TIMINGS["train_wm"]
    rows = {}
    for task in ("long_term_generation", "short_term_prediction"):
        rows[task] = traffic_generation_metrics(bundle.traffic, scenario, task, n_samples=48)
    ok = all(m["mae_frac_of_range"] <= 0.15 and m["w1_frac_of_range"] <= 0.20
             for m in rows.values()) and train_seconds <= 180.0
    detail = ", ".join(
        f"{task.split('_')[0]} mae {m['mae_frac_of_range']:.3f} w1 {m['w1_frac_of_range']:.3f}"
        for task, m in rows.items()
    )
    report(4, "generation fidelity", ok, f"{detail}, train {train_seconds:.0f}s")
    for m in rows.values():
        assert m["mae_frac_of_range"] <= 0.15
        assert m["w1_frac_of_range"] <= 0.20
    assert train_seconds <= 180.0


def test_05_rsrp_controllability(bundle, oracle):
    tx_vals = [c.tx_power_dbm for c in oracle.cells]
    freq_vals = [c.carrier_freq_mhz for c in oracle.cells]
    metrics = rsrp_controllability(
        bundle.rsrp,
        tx_range=(min(tx_vals), max(tx_vals)),
        freq_range=(min(freq_vals), max(freq_vals)),
        dist_range=(0.2, 2.4),
        grid_points=5,
        replicates=16,
    )
    tol = 1e-9  # the >= 0.9 bound is inclusive; keep float repr noise out of it
    ok = metrics["spearman_tx"] >= 0.9 - tol and metrics["spearman_distance"] <= -0.9 + tol
    report(5, "rsrp controllability", ok,
           f"rho_tx {metrics['spearman_tx']:+.3f}, rho_dist {metrics['spearman_distance']:+.3f}")
    assert metrics["spearman_tx"] >= 0.9 - tol
    assert metrics["spearman_distance"] <= -0.9 + tol


def test_06_inpainting_fidelity(bundle, oracle):
    model = bundle.traffic
    step = oracle.config.traffic_step_hours
    history = np.array([
        [oracle.traffic_at(c.id, k * step) for k in range(12)] for c in oracle.cells
    ])
    mask = np.zeros((oracle.n_cells, 12), dtype=bool)
    mask[:, 6:] = True
    from celltwin.harness import _conditions_traffic

    conds = _conditions_traffic(oracle, model.layout)
    out = model.sample(conds, mask, history, np.random.default_rng(6))
    err = float(np.abs(out[:, :6] - history[:, :6]).max())
    ok = err < 1e-9
    report(6, "inpainting fidelity", ok, f"max revealed-history error {err:.2e}")
    assert err < 1e-9


def test_07_lora_contracts(bundle, tmp_path):
    path = str(tmp_path / "traffic.npz")
    bundle.traffic.save(path)
    model = DiffusionModel.load(path)
    rng = np.random.default_rng(7)
    L = model.arch.series_len
    x_t = rng.standard_normal((4, L))
    t = np.array([3, 10, 50, 97])
    cond = rng.standard_normal((4, COND_DIM))
    mask = np.ones((4, L), dtype=bool)
    context = np.zeros((4, L))

    before = model.forward(x_t, t, cond, False, mask, context)[0]
    model.lora_attach(LoraSpec(4, 8.0), seed=7)
    at_attach = model.forward(x_t, t, cond, False, mask, context)[0]
    zero_init_ok = np.array_equal(before, at_attach)

    base_names = [n for n in model.store.names() if "/A" not in n and "/B" not in n]
    frozen_before = {n: model.store[n].copy() for n in base_names}
    train_rng = np.random.default_rng(8)
    x0 = train_rng.standard_normal((16, L))
    cond_b = train_rng.standard_normal((16, COND_DIM))
    for _ in range(15):
        model.train_step(x0, cond_b, np.ones((16, L), dtype=bool), train_rng, lr=5e-3)
    frozen_ok = all(np.array_equal(model.store[n], frozen_before[n]) for n in base_names)

    adapted = model.forward(x_t, t, cond, False, mask, context)[0]
    model.lora_merge()
    merged = model.forward(x_t, t, cond, False, mask, context)[0]
    merge_err = float(np.abs(adapted - merged).max())

    ok = zero_init_ok and frozen_ok and merge_err < 1e-10
    report(7, "low-rank adapter contracts", ok,
           f"zero-init {zero_init_ok}, frozen base {frozen_ok}, merge err {merge_err:.2e}")
    assert zero_init_ok and frozen_ok
    assert merge_err < 1e-10


def test_08_prompt_retrieval():
    rng = np.random.default_rng(9)
    keys = rng.normal(size=(8, 6))
    prompts = rng.normal(size=(8, 3))
    idx_exact, _ = prompt_retrieve(keys, prompts, keys[5], top_n=1)
    exact_ok = idx_exact.tolist() == [5]
    query = rng.normal(size=6)
    dup = np.stack([-query, query, -query, query, -query])
    idx_dup, _ = prompt_retrieve(dup, np.arange(10.0).reshape(5, 2), query, top_n=2)
    tie_ok = idx_dup.tolist() == [1, 3]
    a = prompt_retrieve(keys, prompts, query[:6], top_n=3)
    b = prompt_retrieve(keys, prompts, query[:6], top_n=3)
    det_ok = np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    ok = exact_ok and tie_ok and det_ok
    report(8, "prompt retrieval", ok,
           f"exact-key {exact_ok}, tie-break {tie_ok}, deterministic {det_ok}")
    assert ok


def test_09_optimization_beats_baselines(evaluation):
    rows = evaluation
    agent = {r["seed"]: r for r in rows if r["scheme"] == "agent"}
    wins = 0
    for seed in SEEDS:
        a = agent[seed]["utility"]
        rivals = [r["utility"] for r in rows
                  if r["seed"] == seed and r["scheme"] in ("empirical", "custom", "greedy")]
        wins += all(a >= u for u in rivals)
    saved = float(np.median([agent[s]["energy_saved_pct"] for s in SEEDS]))
    degradation = -float(np.median([agent[s]["rsrp_delta_db"] for s in SEEDS]))
    total = sum(TIMINGS[k] for k in ("collect", "train_wm", "optimize", "evaluate"))
    curve_ok = TIMINGS["curve_last"] >= TIMINGS["curve_first"]
    ok = wins >= 4 and saved >= 20.0 and degradation <= 3.0 and total <= 600.0 and curve_ok
    report(9, "optimization beats baselines", ok,
           f"wins {wins}/5, saved {saved:.1f}%, rsrp degradation {degradation:.2f} dB, "
           f"learning {TIMINGS['curve_first']:+.2f}->{TIMINGS['curve_last']:+.2f}, "
           f"end-to-end {total:.0f}s")
    assert wins >= 4
    assert saved >= 20.0
    assert degradation <= 3.0
    assert curve_ok
    assert total <= 600.0


def test_10_counterfactual_robustness(scenario, bundle, policy):
    rows, wm_rows = counterfactual_suite(
        scenario, bundle, policy, SEEDS, WEIGHTS, CounterfactualConfig()
    )
    adaptation_ok = all(w["mae_adapted"] < w["mae_frozen"] for w in wm_rows)
    fractions_ok = {}
    for phi in (0.5, 0.6, 0.8):
        sub = [r for r in rows if r["peak_fraction"] == phi]
        agent = {r["seed"]: r for r in sub if r["scheme"] == "agent"}
        greedy = {r["seed"]: r for r in sub if r["scheme"] == "greedy"}
        good = 0
        for seed in SEEDS:
            drop_ok = agent[seed]["dropped_rate"] <= greedy[seed]["dropped_rate"]
            rivals = [r["utility"] for r in sub
                      if r["seed"] == seed and r["scheme"] in ("empirical", "custom")]
            util_ok = all(agent[seed]["utility"] >= u for u in rivals)
            good += drop_ok and util_ok
        fractions_ok[phi] = good
    ok = adaptation_ok and all(v >= 4 for v in fractions_ok.values())
    gains = ", ".join(
        f"phi={w['peak_fraction']}: mae {w['mae_frozen']:.2f}->{w['mae_adapted']:.2f}"
        for w in wm_rows
    )
    report(10, "counterfactual robustness", ok,
           f"seed wins {fractions_ok}, adaptation {gains}")
    assert adaptation_ok
    for phi, good in fractions_ok.items():
        assert good >= 4, f"fraction {phi}: only {good}/5 seeds pass"


def test_10b_adapted_model_lowers_generation_error(scenario, bundle):
    # Direct check of the fine-tuned vs frozen comparison at one fraction.
    from dataclasses import replace
    from celltwin.harness import adapt_traffic_model

    scen = replace(scenario, counterfactual_peak_fraction=0.5)
    adapted = adapt_traffic_model(bundle.traffic, Oracle(scen), CounterfactualConfig())
    frozen = traffic_generation_metrics(bundle.traffic, scen, "long_term_generation", 24)
    tuned = traffic_generation_metrics(adapted, scen, "long_term_generation", 24)
    assert tuned["mae"] < frozen["mae"]


def test_11_report_reproducibility(scenario, bundle, policy, tmp_path):
    from celltwin.cli import main

    out_dir = tmp_path / "out"
    (out_dir / "models").mkdir(parents=True)
    bundle.save({k: str(out_dir / "models" / f"{k}.npz") for k in ("traffic", "users", "rsrp")})
    policy.save(str(out_dir / "models" / "policy.npz"))
    config = {
        "scenario": {"preset": "hex7", "seed": 0},
        "out_dir": str(out_dir),
        "seeds": list(SEEDS),
        "evaluation": {"schemes": ["agent", "empirical", "custom", "greedy"]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    first = (out_dir / "reports" / "evaluation.csv").read_bytes()
    first_manifest = json.loads((out_dir / "reports" / "evaluation_manifest.json").read_text())
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    second = (out_dir / "reports" / "evaluation.csv").read_bytes()
    second_manifest = json.loads((out_dir / "reports" / "evaluation_manifest.json").read_text())
    ok = first == second and first_manifest["config_hash"] == second_manifest["config_hash"]
    report(11, "report reproducibility", ok,
           f"csv bytes equal {first == second}, config hash {first_manifest['config_hash'][:12]}")
    assert ok
