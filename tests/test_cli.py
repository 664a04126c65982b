import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from celltwin.agent import RewardWeights
from celltwin.cli import DEFAULTS, _merge_strict, main, parse_config
from celltwin.errors import ConfigError
from celltwin.harness import (
    AgentTrainConfig,
    CounterfactualConfig,
    EvalConfig,
    WMTrainConfig,
    WorldModelEnvConfig,
)


def write_config(tmp_path, **overrides):
    cfg = {
        "scenario": {"preset": "hex7", "seed": 0, "grid_dim": 4, "horizon_hours": 240},
        "out_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "dataset": {"n_days": 3},
        "worldmodel": {"train_steps": 120, "expert_hidden": [16], "gate_hidden": [8]},
        "agent": {"updates": 4, "episodes_per_update": 2,
                  "env": {"day_pool": 4, "rsrp_pool": 2, "rsrp_draws": 2}},
        "evaluation": {"schemes": ["empirical", "custom", "greedy"], "n_gen_samples": 6},
        "counterfactual": {"fractions": [0.8], "adapt_steps": 20, "adapt_days": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _section(config: dict, path: tuple) -> dict:
    for name in path:
        config = config[name]
    return config


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        run = parse_config(str(path))
        assert run.effective["dataset"]["n_days"] == 16
        assert run.seeds == (0, 1, 2, 3, 4)
        assert run.scenario.n_cells == 7
        assert run.worldmodel == WMTrainConfig()
        assert run.agent == AgentTrainConfig()
        assert run.env == WorldModelEnvConfig()
        assert run.reward == RewardWeights()
        assert run.evaluation == EvalConfig()
        assert run.counterfactual == CounterfactualConfig()

    def test_array_becomes_tuple(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"worldmodel": {"expert_hidden": [16]}}')
        assert parse_config(str(path)).worldmodel.expert_hidden == (16,)

    def test_negative_reward_weight_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"reward": {"lambda_d": -0.5}}')
        with pytest.raises(ConfigError, match="lambda_d"):
            parse_config(str(path))

    @pytest.mark.parametrize("text, key", [
        ('{"worldmodel": {"train_steps": 10.5}}', "worldmodel.train_steps"),
        ('{"jobs": 1.5}', "jobs"),
        ('{"jobs": true}', "jobs"),
        ('{"worldmodel": {"expert_hidden": [16.5]}}', "worldmodel.expert_hidden[0]"),
        ('{"agent": {"hidden": ["x"]}}', "agent.hidden[0]"),
    ])
    def test_fractional_integer_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be an integer")):
            parse_config(str(path))

    @pytest.mark.parametrize("text, key", [
        ('{"evaluation": {"schemes": ["agent", "bogus"]}}', "evaluation.schemes"),
        ('{"evaluation": {"predict_mode": "bogus"}}', "evaluation.predict_mode"),
        ('{"worldmodel": {"guidance_w": -1}}', "worldmodel.guidance_w"),
        ('{"dataset": {"split": [0.8, 0.1]}}', "dataset.split"),
        ('{"dataset": {"split": [0.8, 0.3, -0.1]}}', "dataset.split"),
        ('{"dataset": {"split": [0.8, 0.1, 0.2]}}', "dataset.split"),
        ('{"counterfactual": {"lora_rank": 0}}', "counterfactual.lora_rank"),
        ('{"counterfactual": {"lora_rank": -1}}', "counterfactual.lora_rank"),
        ('{"counterfactual": {"lora_rank": 100}}', "counterfactual.lora_rank"),
        ('{"worldmodel": {"expert_hidden": [64, 3]}}', "counterfactual.lora_rank"),
        ('{"scenario": {"preset": "hex7", "seed": 0, "traffic_step_hours": 8}}', "counterfactual.lora_rank"),
    ])
    def test_bad_value_rejected_at_parse(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config key {key} must be")):
            parse_config(str(path))

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ConfigError, match="foo"):
            parse_config(str(path))

    def test_nested_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"dataset": {"n_day": 4}}')
        with pytest.raises(ConfigError, match="dataset.n_day"):
            parse_config(str(path))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unknown_key_at_any_depth_named(self, data):
        defaults = {k: v for k, v in DEFAULTS.items() if k != "scenario"}
        sections = [()]
        for path in sections:  # grows as nested sections are found
            level = _section(defaults, path)
            sections += [(*path, k) for k, v in level.items() if isinstance(v, dict)]
        path = data.draw(st.sampled_from(sections))
        known = _section(defaults, path)
        key = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in known))
        given = {key: data.draw(st.one_of(st.integers(), st.text(max_size=3), st.none()))}
        for name in reversed(path):
            given = {name: given}
        dotted = ".".join((*path, key))
        with pytest.raises(ConfigError, match=re.escape(f"unknown config key {dotted}") + "$"):
            _merge_strict(defaults, given, "")

    def test_hash_stable_under_key_reordering(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"seeds": [1, 2], "out_dir": "x"}')
        b.write_text('{"out_dir": "x", "seeds": [1, 2]}')
        assert parse_config(str(a)).config_hash == parse_config(str(b)).config_hash

    def test_hash_covers_scenario_content(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"scenario": {"preset": "hex7", "seed": 1}}')
        b.write_text('{"scenario": {"preset": "hex7", "seed": 2}}')
        assert parse_config(str(a)).config_hash != parse_config(str(b)).config_hash

    def test_scenario_by_path(self, tmp_path):
        from celltwin.scenario import make_hex_scenario, save_scenario

        scen_path = tmp_path / "scenario.json"
        save_scenario(make_hex_scenario(seed=9), str(scen_path))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "scenario.json"}))
        run = parse_config(str(cfg))
        assert run.scenario.seed == 9

    def test_empty_seeds_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seeds": []}')
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(str(path))

    def test_fractional_seed_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"seeds": [0.5]}')
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(str(path))

    def test_evaluation_day_without_previous_day_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"evaluation": {"day": 0, "schemes": ["custom"]}}')
        with pytest.raises(ConfigError, match="evaluation.day"):
            parse_config(str(path))

    def test_out_root_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CELLTWIN_OUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "c.json"
        path.write_text('{"out_dir": "runs"}')
        run = parse_config(str(path))
        assert str(run.out_dir) == str(tmp_path / "root" / "runs")


class TestCliCommands:
    def test_simulate_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "traffic.csv"
        assert main(["simulate", "--config", cfg, "--days", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "cell_id,t_hours,load_mbps"
        assert len(lines) - 1 == 7 * 12

    def test_simulate_past_horizon_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, scenario={"preset": "hex7", "seed": 0, "horizon_hours": 96})
        out = tmp_path / "traffic.csv"
        assert main(["simulate", "--config", cfg, "--days", "6", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--days" in err
        assert not out.exists()

    def test_unknown_flag_exits_two(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "celltwin.cli", "simulate", "--config", cfg, "--bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_command_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "celltwin.cli", "frobnicate", "--config", "x"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"foo": 1}')
        assert main(["collect", "--config", str(path)]) == 1
        assert "foo" in capsys.readouterr().err

    def test_negative_reward_weight_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reward={"lambda_e": -1})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda_e" in err
        assert "Traceback" not in err

    def test_missing_models_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval-gen", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_import_does_not_load_scipy(self):
        code = "import sys, celltwin.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


@pytest.mark.slow
class TestPipelineEndToEnd:
    def test_stages_chain_and_reports_reproduce(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for command in ("collect", "train-wm", "optimize"):
            assert main([command, "--config", cfg]) == 0, command
        assert main(["evaluate", "--config", cfg]) == 0
        report = tmp_path / "out" / "reports" / "evaluation.csv"
        first = report.read_bytes()
        assert main(["evaluate", "--config", cfg]) == 0
        assert report.read_bytes() == first  # bit-identical rerun
        assert main(["report", "--config", cfg]) == 0
        summary_rows = (tmp_path / "out" / "reports" / "summary.csv").read_text().strip().split("\n")
        emp = [r for r in summary_rows if r.startswith("empirical")]
        assert len(emp) == 1  # one aggregate row per scheme, covering both seeds
        assert ",2," in emp[0]
        manifest = json.loads((tmp_path / "out" / "reports" / "evaluation_manifest.json").read_text())
        assert manifest["config_hash"] == parse_config(cfg).config_hash
        assert manifest["seeds"] == [0, 1]

    def test_evaluate_with_agent_and_jobs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            evaluation={"schemes": ["agent", "empirical"], "n_gen_samples": 4},
        )
        for command in ("collect", "train-wm", "optimize"):
            assert main([command, "--config", cfg]) == 0, command
        assert main(["evaluate", "--config", cfg]) == 0
        sequential = (tmp_path / "out" / "reports" / "evaluation.csv").read_bytes()
        assert main(["evaluate", "--config", cfg, "--jobs", "2"]) == 0
        parallel = (tmp_path / "out" / "reports" / "evaluation.csv").read_bytes()
        assert sequential == parallel
