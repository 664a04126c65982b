import concurrent.futures
import contextlib
import io
import json
import re
from dataclasses import asdict, fields
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from celltwin import cli
from celltwin.agent import Policy, RewardWeights
from celltwin.cli import RunConfig, main, parse_config
from celltwin.dataset import (
    COND_DIM,
    ConditionLayout,
    NormalizationStats,
    collect_dataset,
    read_dataset,
    write_dataset,
)
from celltwin.diffusion import DenoiserArch, DiffusionModel, NoiseSchedule
from celltwin.errors import ConfigError, FormatError
from celltwin.harness import (
    AgentTrainConfig,
    CounterfactualConfig,
    EvalConfig,
    WMTrainConfig,
    WorldModelBundle,
    WorldModelEnvConfig,
)
from celltwin.scenario import Oracle, make_hex_scenario


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


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


def json_paths(node, path=()):
    """The path of every value in a JSON tree, the root's included."""
    yield path
    for key in _children(node):
        yield from json_paths(node[key], (*path, key))


@st.composite
def walked_paths(draw, node, path=()):
    """A path drawn by walking down from the root, so each section weighs the same however large."""
    keys = _children(node)
    if not keys or (path and draw(st.integers(0, 5)) == 0):
        return path
    key = draw(st.sampled_from(keys))
    return draw(walked_paths(node[key], (*path, key)))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _dotted(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def write_fuzz_config(root, config, form: str = "inline") -> str:
    """Write ``config``; in the ``file`` form its scenario object goes to a scenario file."""
    if form == "file" and isinstance(config, dict) and isinstance(config.get("scenario"), dict):
        (root / "scenario.json").write_text(json.dumps(config["scenario"]))
        config = {**config, "scenario": "scenario.json"}
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@st.composite
def base_configs(draw, root):
    """(config, form, how errors name the key at a path): a valid config with every key written
    out, its scenario a preset, or the full form inline or in a scenario file."""
    config = asdict(parse_config(write_config(root)))
    config["out_dir"] = "out"
    form = draw(st.sampled_from(["preset", "inline", "file"]))
    if form == "preset":
        config["scenario"] = {"preset": "hex7", "grid_dim": 2, "horizon_hours": 96}

    def named(path):
        if form == "file" and path[:1] == ("scenario",):
            return f"scenario file {root / 'scenario.json'} key {_dotted(path[1:])}"
        return f"config key {_dotted(path)}"
    return config, form, named


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        run = parse_config(str(path))
        assert run.dataset.n_days == 16
        assert run.seeds == (0, 1, 2, 3, 4)
        assert len(run.scenario.cell_configs) == 7
        assert run.worldmodel == WMTrainConfig()
        assert run.agent == AgentTrainConfig()
        assert run.agent.env == WorldModelEnvConfig()
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
        ('{"worldmodel": {"guidance_w": Infinity}}', "worldmodel.guidance_w"),
        ('{"worldmodel": {"guidance_w": NaN}}', "worldmodel.guidance_w"),
        ('{"dataset": {"split": [0.8, 0.3, -0.1]}}', "dataset.split"),
        ('{"dataset": {"split": [0.8, 0.1, 0.2]}}', "dataset.split"),
        ('{"counterfactual": {"lora": {"rank": 100, "alpha": 8.0}}}', "counterfactual.lora.rank"),
        ('{"worldmodel": {"expert_hidden": [64, 3]}}', "counterfactual.lora.rank"),
        ('{"scenario": {"preset": "hex7", "seed": 0, "traffic_step_hours": 8}}', "counterfactual.lora.rank"),
        ('{"scenario": {"preset": "hex7", "seed": 0.5}}', "scenario.seed"),
        ('{"scenario": {"preset": "hex7", "grid_dim": "x"}}', "scenario.grid_dim"),
        ('{"scenario": {"preset": "hex7", "horizon_hours": true}}', "scenario.horizon_hours"),
        ('{"scenario": {"preset": "hex7", "shadowing_sigma_db": "4"}}', "scenario.shadowing_sigma_db"),
        ('{"seeds": [0, -1]}', "seeds"),
        ('{"worldmodel": {"seed": -1}}', "worldmodel.seed"),
        ('{"agent": {"seed": -1}}', "agent.seed"),
        ('{"worldmodel": {"batch_size": 0}}', "worldmodel.batch_size"),
        ('{"agent": {"updates": 0}}', "agent.updates"),
        ('{"agent": {"episodes_per_update": 0}}', "agent.episodes_per_update"),
        ('{"agent": {"env": {"day_pool": 0}}}', "agent.env.day_pool"),
        ('{"agent": {"env": {"rsrp_pool": 0}}}', "agent.env.rsrp_pool"),
        ('{"agent": {"env": {"rsrp_draws": 0}}}', "agent.env.rsrp_draws"),
        ('{"counterfactual": {"fractions": [0.5, 5.0]}}', "counterfactual.fractions"),
        ('{"counterfactual": {"fractions": [0.0]}}', "counterfactual.fractions"),
        ('{"evaluation": {"n_gen_samples": 0}}', "evaluation.n_gen_samples"),
        ('{"evaluation": {"n_gen_samples": -2}}', "evaluation.n_gen_samples"),
        ('{"jobs": 0}', "jobs"),
        ('{"jobs": -4}', "jobs"),
        ('{"worldmodel": {"n_experts": 0}}', "worldmodel.n_experts"),
        ('{"worldmodel": {"time_dim": 0}}', "worldmodel.time_dim"),
        ('{"worldmodel": {"cond_emb_dim": 0}}', "worldmodel.cond_emb_dim"),
        ('{"worldmodel": {"expert_hidden": [0]}}', "worldmodel.expert_hidden"),
        ('{"worldmodel": {"expert_hidden": [16, -2]}}', "worldmodel.expert_hidden"),
        ('{"worldmodel": {"gate_hidden": [0]}}', "worldmodel.gate_hidden"),
        ('{"agent": {"hidden": [32, 0]}}', "agent.hidden"),
        ('{"evaluation": {"percentile": -1}}', "evaluation.percentile"),
        ('{"evaluation": {"percentile": 100.5}}', "evaluation.percentile"),
        ('{"evaluation": {"percentile": NaN}}', "evaluation.percentile"),
        ('{"worldmodel": {"p_uncond": 1}}', "worldmodel.p_uncond"),
        ('{"worldmodel": {"p_uncond": -0.1}}', "worldmodel.p_uncond"),
        ('{"dataset": {"n_days": 0}}', "dataset.n_days"),
        ('{"counterfactual": {"adapt_days": 0}}', "counterfactual.adapt_days"),
        ('{"scenario": {"preset": "hex7", "horizon_hours": 96}, "dataset": {"n_days": 4}, '
         '"counterfactual": {"adapt_days": 5}}', "counterfactual.adapt_days"),
        ('{"worldmodel": {"lr": 0}}', "worldmodel.lr"),
        ('{"worldmodel": {"lr": NaN}}', "worldmodel.lr"),
        ('{"agent": {"lr": -1}}', "agent.lr"),
        ('{"counterfactual": {"adapt_lr": Infinity}}', "counterfactual.adapt_lr"),
        ('{"worldmodel": {"train_steps": 0}}', "worldmodel.train_steps"),
        ('{"worldmodel": {"memory_kinds": ["traffic", "bogus"]}}', "worldmodel.memory_kinds"),
    ])
    def test_bad_value_rejected_at_parse(self, tmp_path, text, key):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config key {key} must be")):
            parse_config(str(path))

    @pytest.mark.parametrize("split", ["[0.8, 0.2]", "[0.7, 0.1, 0.1, 0.1]"])
    def test_split_of_another_length_rejected_by_its_type(self, tmp_path, split):
        path = tmp_path / "c.json"
        path.write_text(f'{{"dataset": {{"split": {split}}}}}')
        with pytest.raises(ConfigError, match=re.escape("config key dataset.split must be an array of 3 numbers") + "$"):
            parse_config(str(path))

    # A record's own check, named under the record's key.
    @pytest.mark.parametrize("text, key, message", [
        ('{"worldmodel": {"schedule": {"steps": 0, "beta_min": 1e-4, "beta_max": 0.02}}}',
         "worldmodel.schedule", "steps must be >= 1, got 0"),
        ('{"worldmodel": {"schedule": {"steps": 100, "beta_min": 0, "beta_max": 0.02}}}',
         "worldmodel.schedule", "need 0 < beta_min <= beta_max < 1, got (0, 0.02)"),
        ('{"worldmodel": {"schedule": {"steps": 100, "beta_min": 1.5, "beta_max": 2}}}',
         "worldmodel.schedule", "need 0 < beta_min <= beta_max < 1, got (1.5, 2)"),
        ('{"worldmodel": {"schedule": {"steps": 100, "beta_min": 0.05, "beta_max": 0.02}}}',
         "worldmodel.schedule", "need 0 < beta_min <= beta_max < 1, got (0.05, 0.02)"),
        ('{"worldmodel": {"schedule": {"steps": 100, "beta_min": 1e-4, "beta_max": 1}}}',
         "worldmodel.schedule", "need 0 < beta_min <= beta_max < 1, got (0.0001, 1)"),
        ('{"counterfactual": {"lora": {"rank": 0, "alpha": 8.0}}}', "counterfactual.lora",
         "lora rank must be >= 1, got 0"),
        ('{"counterfactual": {"lora": {"rank": -1, "alpha": 8.0}}}', "counterfactual.lora",
         "lora rank must be >= 1, got -1"),
        ('{"reward": {"lambda_d": -0.5}}', "reward", "reward weight lambda_d must be nonnegative"),
        # A scenario's own checks name the scenario, not a key under it.
        ('{"scenario": {"preset": "hex7", "seed": -1}}', "scenario", "seed must be >= 0, got -1"),
        ('{"scenario": {"preset": "hex7", "shadowing_sigma_db": -1}}', "scenario", "shadowing_sigma_db must be >= 0"),
        ('{"worldmodel": {"schedule": {"steps": 1, "beta_min": 1e-300, "beta_max": 1e-300}}}', "worldmodel.schedule",
         "beta_min 1e-300 is below float64 resolution: 1 - beta_min rounds to 1"),
    ])
    def test_record_check_named_by_its_key(self, tmp_path, text, key, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"config key {key}: {message}") + "$"):
            parse_config(str(path))

    def test_a_set_record_names_every_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"worldmodel": {"schedule": {"steps": 50}}}')
        with pytest.raises(ConfigError, match=re.escape("config key worldmodel.schedule.beta_min is missing")):
            parse_config(str(path))

    @pytest.mark.parametrize("text", [
        '{"worldmodel": {"expert_hidden": [], "gate_hidden": []}, "agent": {"hidden": []}}',
        '{"worldmodel": {"memory_kinds": []}}',
        '{"worldmodel": {"p_uncond": 0, "schedule": {"steps": 1, "beta_min": 0.01, "beta_max": 0.01}}}',
    ])
    def test_boundary_values_parse(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
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
    def test_unknown_key_at_any_depth_named(self, fuzz_dir, data):
        config, form, named = data.draw(base_configs(fuzz_dir))
        paths = [p for p in json_paths(config) if isinstance(_at(config, p), dict)]
        path = data.draw(st.sampled_from(paths))
        known = _at(config, path)
        key = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(lambda k: k not in known))
        known[key] = data.draw(st.one_of(st.integers(), st.text(max_size=3), st.none()))
        with pytest.raises(ConfigError, match=re.escape(f"unknown {named((*path, key))}") + "$"):
            parse_config(write_fuzz_config(fuzz_dir, config, form))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_config_is_config_error_or_typed(self, fuzz_dir, data):
        """A wrong type or an out-of-range value anywhere: a ConfigError, or a config that re-reads as itself."""
        config, form, _ = data.draw(base_configs(fuzz_dir))
        path = data.draw(walked_paths(config))
        value = data.draw(st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.floats(-3, 3), st.text(max_size=3),
            st.sampled_from([-1, 0, -0.5, 1e-9, -1e6]), st.lists(st.integers(-2, 2), max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
        ))
        _at(config, path[:-1])[path[-1]] = value  # the walk never stops at the root
        try:
            run = parse_config(write_fuzz_config(fuzz_dir, config, form))
        except ConfigError:
            return
        sections = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
        assert all(type(getattr(run, name)) is kind for name, kind in sections.items())
        again = parse_config(write_fuzz_config(fuzz_dir, asdict(run)))
        assert again.config_hash == run.config_hash

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
        assert str(run.out_path) == str(tmp_path / "root" / "runs")

    def test_out_root_refuses_an_absolute_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CELLTWIN_OUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "elsewhere"))
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config(cfg)
        assert main(["collect", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key out_dir must be") and err.count("\n") == 1
        assert not (tmp_path / "elsewhere").exists() and not (tmp_path / "root").exists()


def _full_scenario(edit):
    data = asdict(make_hex_scenario(seed=0, grid_dim=2, horizon_hours=96))
    edit(data)
    return data


# case: (the config's scenario value, or a scenario file's content, and what the error names). A file's
# row is what follows "scenario file <path>": " key ..." for a key, ": ..." for the scenario's own check.
SOURCE = "config key scenario: "
BAD_SCENARIOS = {
    "file_tx_power_string": ("file", _full_scenario(lambda d: d["cell_configs"][0].update(tx_power_dbm="13")),
                             " key cell_configs[0].tx_power_dbm must be a number"),
    "file_seed_string": ("file", _full_scenario(lambda d: d.update(seed="0")), " key seed must be an integer"),
    "file_base_users_fraction": ("file", _full_scenario(lambda d: d["grids"][3].update(base_users=2.5)),
                                 " key grids[3].base_users must be an integer"),
    "file_shadowing_negative": ("file", _full_scenario(lambda d: d.update(shadowing_sigma_db=-1)),
                                ": shadowing_sigma_db must be >= 0"),
    "file_seed_negative": ("file", _full_scenario(lambda d: d.update(seed=-1)), ": seed must be >= 0, got -1"),
    "file_traffic_step_five": ("file", _full_scenario(lambda d: d.update(traffic_step_hours=5)),
                               ": traffic_step_hours 5 must divide horizon_hours 96"),
    "file_one_cell": ("file", _full_scenario(lambda d: d.update(cell_configs=d["cell_configs"][:1])),
                      ": cell_configs must hold at least 2 cells, got 1"),
    "file_preset_grid_dim_zero": ("file", {"preset": "hex7", "grid_dim": 0}, ": grid_dim must be positive, got 0"),
    "inline_tx_power_string": ("inline", _full_scenario(lambda d: d["cell_configs"][2].update(tx_power_dbm="13")),
                               "config key scenario.cell_configs[2].tx_power_dbm must be a number"),
    "inline_shadowing_negative": ("inline", _full_scenario(lambda d: d.update(shadowing_sigma_db=-1)),
                                  SOURCE + "shadowing_sigma_db must be >= 0"),
    "inline_traffic_step_five": ("inline", _full_scenario(lambda d: d.update(traffic_step_hours=5)),
                                 SOURCE + "traffic_step_hours 5 must divide horizon_hours 96"),
    "preset_peak_fraction_string": ("inline", {"preset": "hex7", "counterfactual_peak_fraction": "x"},
                                    "config key scenario.counterfactual_peak_fraction must be a number"),
    "preset_grid_dim_zero": ("inline", {"preset": "hex7", "grid_dim": 0}, SOURCE + "grid_dim must be positive"),
    "preset_grid_dim_negative": ("inline", {"preset": "hex7", "grid_dim": -1}, SOURCE + "grid_dim must be positive"),
    "preset_traffic_step_zero": ("inline", {"preset": "hex7", "traffic_step_hours": 0},
                                 SOURCE + "traffic_step_hours 0 must divide horizon_hours 1440"),
    # 1440 is a multiple of 5 and 16, but a day of 24 hours is not.
    "preset_traffic_step_five": ("inline", {"preset": "hex7", "traffic_step_hours": 5},
                                 SOURCE + "traffic_step_hours 5 must divide 24"),
    "preset_traffic_step_sixteen": ("inline", {"preset": "hex7", "traffic_step_hours": 16},
                                    SOURCE + "traffic_step_hours 16 must divide 24"),
    "preset_user_step_five": ("inline", {"preset": "hex7", "user_step_hours": 5},
                              SOURCE + "user_step_hours 5 must divide 24"),
    # A day of one window leaves no short-term horizon to draw for the task mix.
    "preset_traffic_step_day": ("inline", {"preset": "hex7", "traffic_step_hours": 24},
                                SOURCE + "traffic_step_hours 24 must leave at least two windows a day"),
    "preset_user_step_day": ("inline", {"preset": "hex7", "user_step_hours": 24},
                             SOURCE + "user_step_hours 24 must leave at least two windows a day"),
    "preset_traffic_base_negative": ("inline", {"preset": "hex7", "traffic_base": -1.0, "traffic_amp": 0.2},
                                     SOURCE + "traffic_base -1.0 must be >= 0"),
    "preset_traffic_amp_negative": ("inline", {"preset": "hex7", "traffic_amp": -5},
                                    SOURCE + "traffic_amp -5 must be >= 0"),
    # With no demand at all, the peak rescale divides by a zero peak.
    "preset_traffic_shape_zero": ("inline", {"preset": "hex7", "traffic_base": 0, "traffic_amp": 0,
                                             "counterfactual_peak_fraction": 0.5},
                                  SOURCE + "traffic_base + traffic_amp must be > 0"),
    # A peak fraction this small over a peak this large rescales every demand to exactly 0.
    "preset_peak_rescale_underflow": ("inline", {"preset": "hex7", "traffic_amp": 1e300,
                                                 "counterfactual_peak_fraction": 1e-300},
                                      SOURCE + "counterfactual_peak_fraction 1e-300 over a peak demand of up to "
                                      "traffic_base + traffic_amp = 1e+300 rescales every demand to 0"),
    # A step's Poisson draws would ask for more users than a step can hold.
    "preset_base_users_huge": ("inline", {"preset": "hex7", "base_users": 10**30},
                               SOURCE + "base_users give 4.6284e+31 expected users per step"),
    "preset_base_users_past_float": ("inline", {"preset": "hex7", "base_users": 10**400},
                                     SOURCE + "base_users give inf expected users per step"),
    "inline_grid_base_users_huge": ("inline", _full_scenario(lambda d: d["grids"][1].update(base_users=10**7)),
                                    SOURCE + "base_users give"),
    # Cell ids key the traffic draws, and a negative one used to fail mid-collect with numpy's ValueError.
    "inline_cell_id_negative": ("inline", _full_scenario(lambda d: d["cell_configs"][0].update(id=-1)),
                                SOURCE + "cell -1: id must be >= 0"),
    # The counts come from the lists, so a full form that states one has an unknown key.
    "file_n_cells_key": ("file", _full_scenario(lambda d: d.update(n_cells=7)), " key n_cells"),
    "inline_grid_dim_key": ("inline", _full_scenario(lambda d: d.update(grid_dim=2)),
                            "unknown config key scenario.grid_dim"),
    "inline_one_cell": ("inline", _full_scenario(lambda d: d.update(cell_configs=d["cell_configs"][:1])),
                        SOURCE + "cell_configs must hold at least 2 cells, got 1"),
    "inline_no_grids": ("inline", _full_scenario(lambda d: d.update(grids=[])), SOURCE + "grids must be nonempty"),
    # The seed keys every draw, and a negative one used to fail at the first draw with numpy's ValueError.
    "preset_seed_negative": ("inline", {"preset": "hex7", "seed": -1}, SOURCE + "seed must be >= 0, got -1"),
    "path_is_a_directory": ("inline", "", "scenario file"),
    "path_does_not_exist": ("inline", "nowhere.json", "scenario file"),
}


class TestBadScenario:
    @pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
    def test_config_error_and_one_cli_line(self, tmp_path, capsys, case):
        form, scenario, names = BAD_SCENARIOS[case]
        if form == "file":
            (tmp_path / "scenario.json").write_text(json.dumps(scenario))
            scenario, names = "scenario.json", f"scenario file {tmp_path / 'scenario.json'}{names}"
        cfg = write_config(tmp_path, scenario=scenario)
        with pytest.raises(ConfigError, match=re.escape(names)):
            parse_config(cfg)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err


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

    @pytest.mark.parametrize("scenario, dataset, error", [
        ({"horizon_hours": 96, "base_users": 0}, {"n_days": 3}, "error: rsrp collection"),
        # Shadowing this wide overflows numpy's spread of the rsrp split, which warns before the error.
        ({"horizon_hours": 48, "shadowing_sigma_db": 1e300}, {"n_days": 2},
         "error: the scenario gives the rsrp training split a non-finite mean or spread"),
    ], ids=["no_users", "shadowing_overflow"])
    def test_collect_without_users_is_one_error_line(self, tmp_path, child_env, scenario, dataset, error):
        cfg = write_config(tmp_path, scenario={"preset": "hex7", "seed": 0, "grid_dim": 2, **scenario},
                           dataset=dataset)
        proc = subprocess.run(
            [sys.executable, "-m", "celltwin.cli", "collect", "--config", cfg],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1
        assert not (tmp_path / "out" / "datasets").exists()

    def test_a_stage_that_returns_shows_its_warnings(self, tmp_path, monkeypatch):
        def warns(run, args):
            warnings.warn("overflow in a stage", RuntimeWarning)
            return 0

        monkeypatch.setitem(cli.COMMANDS, "report", warns)
        with pytest.warns(RuntimeWarning, match="overflow in a stage"):
            assert main(["report", "--config", write_config(tmp_path)]) == 0

    def test_unknown_flag_exits_two(self, tmp_path, child_env):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "celltwin.cli", "simulate", "--config", cfg, "--bogus"],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_command_exits_two(self, tmp_path, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "celltwin.cli", "frobnicate", "--config", "x"],
            capture_output=True, text=True, env=child_env,
        )
        assert proc.returncode == 2

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"foo": 1}')
        assert main(["collect", "--config", str(path)]) == 1
        assert "foo" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_is_not_utf8", "out_dir_is_a_file"])
    def test_unreadable_config_or_out_dir_is_one_error_line(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, out_dir=str(tmp_path / "taken"))
        if case == "config_is_a_directory":
            cfg = str(tmp_path)
        elif case == "config_is_not_utf8":
            (tmp_path / "config.json").write_bytes(b'{"seeds": [0], "out_dir": "caf\xe9"}')
        else:
            (tmp_path / "taken").write_text("")
        assert main(["collect", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_reward_weight_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reward={"lambda_e": -1})
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda_e" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_evaluate_jobs_below_one_is_one_error_line(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path, evaluation={"schemes": ["empirical"]})
        assert main(["evaluate", "--config", cfg, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--jobs" in err
        assert not (tmp_path / "out" / "reports").exists()

    def test_evaluate_asks_for_no_more_workers_than_seeds(self, tmp_path, monkeypatch):
        requested = []

        class InlinePool:
            """Records the pool size asked for and runs the work in this process."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)  # cli imports it when it pools
        cfg = write_config(tmp_path, evaluation={"schemes": ["empirical"]})
        assert main(["evaluate", "--config", cfg, "--jobs", "64"]) == 0
        assert requested == [len(parse_config(cfg).seeds)] == [2]

    @pytest.mark.parametrize("stage, section, values, key", [
        ("train-wm", "worldmodel", {"n_experts": 0}, "worldmodel.n_experts"),
        ("train-wm", "worldmodel", {"gate_hidden": [0]}, "worldmodel.gate_hidden"),
        ("train-wm", "worldmodel", {"lr": -1}, "worldmodel.lr"),
        ("train-wm", "worldmodel", {"train_steps": 0}, "worldmodel.train_steps"),
        ("optimize", "agent", {"hidden": [0]}, "agent.hidden"),
        ("evaluate", "evaluation", {"percentile": 101}, "evaluation.percentile"),
        ("counterfactual", "evaluation", {"percentile": -1}, "evaluation.percentile"),
        ("collect", "dataset", {"n_days": 0}, "dataset.n_days"),
        # json.load reads NaN and Infinity; each non-finite number is refused by its own key.
        *(("collect", "reward", {name: float("nan")}, f"reward.{name}")
          for name in ("lambda_e", "lambda_r", "lambda_d", "rsrp_lo_dbm", "rsrp_hi_dbm")),
        *(("collect", "evaluation", {name: float("inf")}, f"evaluation.{name}")
          for name in ("tau", "greedy_margin_db", "baseline_bias_db")),
        ("collect", "agent", {"bias_levels": [0.0, float("nan"), 6.0]}, "agent.bias_levels[1]"),
        ("collect", "counterfactual", {"lora": {"rank": 4, "alpha": float("-inf")}}, "counterfactual.lora.alpha"),
        *(("collect", "scenario", {"preset": "hex7", "grid_dim": 3, name: float("nan")}, f"scenario.{name}")
          for name in ("shadowing_sigma_db", "traffic_noise_sigma", "rsrp_floor_dbm", "traffic_amp",
                       "ring_radius_km")),
        ("collect", "worldmodel", {"guidance_w": float("inf")}, "worldmodel.guidance_w"),
        ("collect", "worldmodel", {"lr": float("nan")}, "worldmodel.lr"),
        ("collect", "reward", {"lambda_d": 10**400}, "reward.lambda_d"),
    ])
    def test_bad_value_is_one_error_line_before_the_stage(self, tmp_path, capsys, stage, section, values, key):
        cfg = write_config(tmp_path, **{section: values})
        assert main([stage, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key} must be") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # Keys the schedule and adapter records replaced, and the dropped dataset.kinds.
    @pytest.mark.parametrize("section, values, key", [
        ("worldmodel", {"diffusion_steps": 50}, "worldmodel.diffusion_steps"),
        ("worldmodel", {"beta_min": 1e-4}, "worldmodel.beta_min"),
        ("worldmodel", {"beta_max": 0.02}, "worldmodel.beta_max"),
        ("counterfactual", {"lora_rank": 2}, "counterfactual.lora_rank"),
        ("counterfactual", {"lora_alpha": 8.0}, "counterfactual.lora_alpha"),
        ("dataset", {"kinds": ["traffic", "users", "rsrp"]}, "dataset.kinds"),
    ])
    def test_removed_key_is_one_error_line(self, tmp_path, capsys, section, values, key):
        cfg = write_config(tmp_path, **{section: values})
        assert main(["collect", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {key}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stages, section, values", [
        (("collect", "train-wm"), "worldmodel", {"n_experts": 1}),
        (("collect", "train-wm"), "worldmodel", {"gate_hidden": [1]}),
        (("collect", "train-wm", "optimize"), "agent", {"hidden": [1]}),
        (("evaluate",), "evaluation", {"percentile": 0}),
        (("evaluate",), "evaluation", {"percentile": 100}),
    ])
    def test_boundary_value_runs_the_stage_it_crashed(self, tmp_path, stages, section, values):
        tiny = {
            "scenario": {"preset": "hex7", "seed": 0, "grid_dim": 2, "horizon_hours": 96},
            "seeds": [0],
            "dataset": {"n_days": 2},
            "worldmodel": {"schedule": {"steps": 4, "beta_min": 1e-4, "beta_max": 0.02}, "train_steps": 4,
                           "batch_size": 8, "expert_hidden": [8], "gate_hidden": [4]},
            "agent": {"updates": 1, "episodes_per_update": 1,
                      "env": {"day_pool": 1, "rsrp_pool": 1, "rsrp_draws": 1}},
            "evaluation": {"schemes": ["custom"]},
        }
        tiny[section] = {**tiny[section], **values}
        cfg = write_config(tmp_path, **tiny)
        for stage in stages:
            assert main([stage, "--config", cfg]) == 0, stage

    @pytest.mark.parametrize("stage", ["collect", "evaluate"])
    def test_collect_past_the_horizon_is_one_error_line(self, tmp_path, capsys, stage):
        # Refused at parse time, so a stage that does not collect refuses it too.
        cfg = write_config(tmp_path, scenario={"preset": "hex7", "grid_dim": 2, "horizon_hours": 96},
                           dataset={"n_days": 5})
        with pytest.raises(ConfigError, match=re.escape("config key dataset.n_days must be in [1, 4]")):
            parse_config(cfg)
        assert main([stage, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == "error: config key dataset.n_days must be in [1, 4]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dataset, message", [
        # Refused at parse time.
        ({"n_days": 2, "split": [0, 0, 1]}, "config key dataset.split must be"),
        # Largest-remainder rounding leaves 7 traffic windows no training row.
        ({"n_days": 1, "split": [0.01, 0.5, 0.49]},
         "config key dataset.split gives the traffic training split none of its 7 samples"),
    ])
    def test_empty_training_split_is_one_error_line(self, tmp_path, capsys, dataset, message):
        cfg = write_config(tmp_path, dataset=dataset)
        assert main(["collect", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "datasets").exists()

    def test_missing_models_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["eval-gen", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_eval_gen_on_a_flat_load_profile(self, tmp_path):
        # Equal capacities and no diurnal swing: the noise-free profile has no range, so its fractions are NaN.
        scenario = asdict(make_hex_scenario(seed=0, grid_dim=2, horizon_hours=96))
        scenario["traffic_amp"] = 0.0
        for cell in scenario["cell_configs"]:
            cell["capacity_mbps"] = 120.0
        cfg = write_config(tmp_path, scenario=scenario, worldmodel={"train_steps": 20, "expert_hidden": [8],
                                                                     "gate_hidden": [4]})
        for command in ("collect", "train-wm", "eval-gen"):
            assert main([command, "--config", cfg]) == 0, command
        rows = (tmp_path / "out" / "reports" / "generation.csv").read_text().strip().split("\n")
        scores = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert all(np.isnan(v) == key.endswith("_frac_of_range") for key, v in scores.items()), scores
        assert sum(key.endswith("_frac_of_range") for key in scores) == 4

    def test_eval_gen_on_a_three_window_day(self, tmp_path):
        # Short-term prediction reveals all but the last of the three windows.
        cfg = write_config(
            tmp_path,
            scenario={"preset": "hex7", "seed": 0, "grid_dim": 2, "horizon_hours": 96, "traffic_step_hours": 8},
            worldmodel={"train_steps": 20, "expert_hidden": [8], "gate_hidden": [4]},
            counterfactual={"lora": {"rank": 2, "alpha": 8.0}},
        )
        for command in ("collect", "train-wm", "eval-gen"):
            assert main([command, "--config", cfg]) == 0, command
        rows = (tmp_path / "out" / "reports" / "generation.csv").read_text().strip().split("\n")
        short = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:] if r.startswith("short_")}
        assert len(short) == 5 and all(np.isfinite(v) for v in short.values())

    def test_import_does_not_load_scipy(self, child_env):
        # Nor numpy.ma (np.unique's first call imports it) or concurrent.futures (only a --jobs pool needs it).
        code = ("import sys, celltwin.cli; from celltwin.scenario import Oracle, make_hex_scenario; "
                "Oracle(make_hex_scenario()); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m == 'numpy.ma' or m.startswith(('numpy.ma.', 'concurrent.futures'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env)
        assert proc.stdout.strip() == "[]"


# A tiny config that parses; collect, train-wm and eval-gen each take well under a second on it.
RUN_TINY = {
    "scenario": {"preset": "hex7", "seed": 0, "grid_dim": 2, "horizon_hours": 48},
    "seeds": [0],
    "dataset": {"n_days": 2},
    "worldmodel": {"schedule": {"steps": 2, "beta_min": 1e-4, "beta_max": 0.02}, "train_steps": 2,
                   "batch_size": 8, "expert_hidden": [8], "gate_hidden": [4]},
    "evaluation": {"n_gen_samples": 2},
    "counterfactual": {"adapt_days": 2},
}


def _floats(lo, hi, *edges):
    """Floats in [lo, hi], the ``edges`` drawn as often as all the rest."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


_BETAS = st.lists(_floats(1e-300, 0.999999, 1e-300, 0.999999), min_size=2, max_size=2).map(sorted)

# (section, key): values inside the key's parse-valid range, finite extremes included
RUN_VALUES = {
    ("scenario", "shadowing_sigma_db"): _floats(0, 1e300, 0.0, 1e300),
    ("scenario", "traffic_noise_sigma"): _floats(0, 1e300, 0.0, 1e300),
    ("scenario", "traffic_base"): _floats(0, 1e300, 0.0, 1e300),
    ("scenario", "traffic_amp"): _floats(0, 1e300, 0.0, 1e300),
    ("scenario", "rsrp_floor_dbm"): _floats(-1e300, 1e300, -1e300, 1e300),
    ("scenario", "ring_radius_km"): _floats(-1e300, 1e300, 0.0, 1e-300, 1e300),
    ("scenario", "counterfactual_peak_fraction"): _floats(1e-300, 1.0, 1e-300),
    ("scenario", "base_users"): st.integers(0, 1000),
    ("worldmodel", "schedule"): st.builds(lambda steps, b: {"steps": steps, "beta_min": b[0], "beta_max": b[1]},
                                          st.integers(1, 4), _BETAS),
    ("worldmodel", "lr"): _floats(1e-300, 1e6, 1e-300, 1e6),
    ("worldmodel", "guidance_w"): _floats(0, 1e6, 0.0, 1e6),
    ("worldmodel", "p_uncond"): _floats(0, 0.999, 0.0),
    ("worldmodel", "expert_hidden"): st.sampled_from([[4], [64, 64]]),
    ("worldmodel", "batch_size"): st.integers(1, 64),
    ("dataset", "split"): st.sampled_from([[1.0, 0.0, 0.0], [0.34, 0.33, 0.33]]),
}


@st.composite
def run_edits(draw):
    """One or two leaves of ``RUN_VALUES``, each with a value from its range."""
    keys = draw(st.lists(st.sampled_from(sorted(RUN_VALUES)), min_size=1, max_size=2, unique=True))
    return {key: draw(RUN_VALUES[key]) for key in keys}


class TestRunSide:
    @settings(max_examples=10, deadline=None)
    # Used to write an rsrp.npz with an infinite series_std, which train-wm then refused.
    @example({("scenario", "shadowing_sigma_db"): 1e300})
    # A peak rescale that underflowed to all-zero demand: eval-gen used to divide by its zero range.
    @example({("scenario", "counterfactual_peak_fraction"): 1e-300, ("scenario", "traffic_amp"): 1e300})
    # A diverged head whose float32 forward overflows: eval-gen used to write nan for every metric.
    @example({("worldmodel", "lr"): 1e6, ("worldmodel", "expert_hidden"): [64, 64]})
    @given(run_edits())
    def test_each_stage_runs_or_fails_with_one_error_line(self, fuzz_dir, edits):
        config = json.loads(json.dumps(RUN_TINY))
        for (section, key), value in edits.items():
            config[section][key] = value
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as root:
            config["out_dir"] = str(Path(root) / "out")
            path = Path(root) / "config.json"
            path.write_text(json.dumps(config))
            for stage in ("collect", "train-wm", "eval-gen"):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main([stage, "--config", str(path)])
                if code:
                    err = err.getvalue()
                    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
                    # collect refuses what train-wm would refuse, so train-wm reads every dataset it writes.
                    assert not (stage == "train-wm" and "dataset file" in err), err
                    return
            rows = (Path(root) / "out" / "reports" / "generation.csv").read_text().split()[1:]
            scores = {k: float(v) for k, v in (row.split(",") for row in rows) if k.endswith(("_mae", "_w1"))}
            assert len(scores) == 4 and all(np.isfinite(v) for v in scores.values()), scores


def _edit_npz(path, header=None, raw_header=None, drop=(), **arrays):
    """Rewrite an artifact: ``header`` edits the decoded header, ``raw_header`` replaces its bytes."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files if k not in drop}
    if header is not None:
        decoded = json.loads(bytes(payload["header"]).decode())
        header(decoded)
        raw_header = json.dumps(decoded).encode()
    if raw_header is not None:
        payload["header"] = np.frombuffer(raw_header, dtype=np.uint8)
    np.savez(path, **{**payload, **arrays})


# case: (file under out_dir, how it is spoiled, what the error names besides the file)
BAD_ARTIFACTS = {
    "truncated": ("models/traffic.npz", lambda p: p.write_bytes(p.read_bytes()[:300]), "unreadable checkpoint"),
    "non_utf8_header": ("models/users.npz", lambda p: _edit_npz(p, raw_header=b"\xff\xfe{"), "corrupt header"),
    "non_object_header": ("models/rsrp.npz", lambda p: _edit_npz(p, raw_header=b"[2]"), "not a JSON object"),
    "version_mismatch": ("models/policy.npz", lambda p: _edit_npz(p, header=lambda h: h.update(version=1)),
                         "version mismatch: expected 2, found 1"),
    "dataset_version_mismatch": ("datasets/traffic.npz",
                                 lambda p: _edit_npz(p, header=lambda h: h.update(version=3)),
                                 "version mismatch: expected 1, found 3"),
    "missing_array": ("datasets/traffic.npz", lambda p: _edit_npz(p, drop=("masks",)), "missing array 'masks'"),
    "dataset_mean_string": ("datasets/traffic.npz", lambda p: _edit_npz(p, header=lambda h: h.update(series_mean="x")),
                            "field 'series_mean' must be a number"),
    "dataset_std_nan": ("datasets/traffic.npz", lambda p: _edit_npz(p, header=lambda h: h.update(series_std=float("nan"))),
                        "field 'series_std' must be a finite number"),
    "no_trainable": ("models/traffic.npz", lambda p: _edit_npz(p, header=lambda h: h.pop("trainable")),
                     "field 'trainable' is missing"),
    "manifest_missing_key": ("models/users.npz",
                             lambda p: _edit_npz(p, header=lambda h: h["manifest"]["arch"].pop("series_len")),
                             "field 'manifest.arch.series_len' is missing"),
    "missing_tensor": ("models/rsrp.npz", lambda p: _edit_npz(p, drop=("param::gate/W0",)),
                       "missing tensor 'gate/W0'"),
    "misshapen_tensor": ("models/traffic.npz", lambda p: _edit_npz(p, **{"param::null_embed": np.zeros(3)}),
                         "tensor 'null_embed' has shape (3,), expected (2,)"),
    "policy_holds_head": ("models/policy.npz", lambda p: shutil.copy(p.parent / "traffic.npz", p),
                          "field 'manifest.n_cells' is missing"),
    "expert_hidden_not_array": ("models/traffic.npz",
                                lambda p: _edit_npz(p, header=lambda h: h["manifest"]["arch"].update(expert_hidden=5)),
                                "field 'manifest.arch.expert_hidden' must be an array of integers"),
    "schedule_steps_string": ("models/users.npz",
                              lambda p: _edit_npz(p, header=lambda h: h["manifest"]["schedule"].update(steps="x")),
                              "field 'manifest.schedule.steps' must be an integer"),
    "series_len_string": ("models/rsrp.npz",
                          lambda p: _edit_npz(p, header=lambda h: h["manifest"]["arch"].update(series_len="3")),
                          "field 'manifest.arch.series_len' must be an integer"),
    "trainable_not_object": ("models/policy.npz", lambda p: _edit_npz(p, header=lambda h: h.update(trainable=[1])),
                             "field 'trainable' must be an object of booleans"),
    "policy_hidden_not_array": ("models/policy.npz",
                                lambda p: _edit_npz(p, header=lambda h: h["manifest"].update(hidden=5)),
                                "field 'manifest.hidden' must be an array of integers"),
    "policy_n_cells_string": ("models/policy.npz",
                              lambda p: _edit_npz(p, header=lambda h: h["manifest"].update(n_cells="7")),
                              "field 'manifest.n_cells' must be an integer"),
    "layout_mean_string": ("models/traffic.npz",
                           lambda p: _edit_npz(p, header=lambda h: h["manifest"]["layout"].update(mean="x")),
                           f"field 'manifest.layout.mean' must be an array of {COND_DIM} numbers"),
    "layout_mean_short": ("models/users.npz",
                          lambda p: _edit_npz(p, header=lambda h: h["manifest"]["layout"].update(mean=[0.0, 0.0])),
                          f"field 'manifest.layout.mean' must be an array of {COND_DIM} numbers"),
    "lora_rank_string": ("models/rsrp.npz",
                         lambda p: _edit_npz(p, header=lambda h: h["manifest"].update(lora={"rank": "4", "alpha": 8.0})),
                         "field 'manifest.lora.rank' must be an integer"),
    "lora_rank_zero": ("models/traffic.npz",
                       lambda p: _edit_npz(p, header=lambda h: h["manifest"].update(lora={"rank": 0, "alpha": 8.0})),
                       "field 'manifest.lora': lora rank must be >= 1, got 0"),
    "lora_rank_negative": ("models/traffic.npz",
                           lambda p: _edit_npz(
                               p, header=lambda h: h["manifest"].update(lora={"rank": -1, "alpha": 8.0})),
                           "field 'manifest.lora': lora rank must be >= 1, got -1"),
    "schedule_beta_max_past_one": ("models/users.npz",
                                   lambda p: _edit_npz(
                                       p, header=lambda h: h["manifest"]["schedule"].update(beta_max=1.5)),
                                   "field 'manifest.schedule': need 0 < beta_min <= beta_max < 1, got (0.0001, 1.5)"),
    "schedule_beta_min_unresolved": ("models/traffic.npz",
                                     lambda p: _edit_npz(
                                         p, header=lambda h: h["manifest"]["schedule"].update(beta_min=1e-300)),
                                     "field 'manifest.schedule': beta_min 1e-300 is below float64 resolution: "
                                     "1 - beta_min rounds to 1"),
    "policy_obs_dim_wrong": ("models/policy.npz",
                             lambda p: _edit_npz(p, header=lambda h: h["manifest"].update(obs_dim=3)),
                             "field 'manifest.obs_dim'"),
    "schedule_no_steps": ("models/rsrp.npz",
                          lambda p: _edit_npz(p, header=lambda h: h["manifest"]["schedule"].update(steps=0)),
                          "field 'manifest.schedule': steps must be >= 1, got 0"),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A traffic dataset, three untrained heads and a policy, as the stages lay them out."""
    out = tmp_path_factory.mktemp("artifacts")
    (out / "datasets").mkdir()
    (out / "models").mkdir()
    oracle = Oracle(make_hex_scenario(seed=0, grid_dim=2, horizon_hours=48))
    traffic = collect_dataset(oracle, n_days=1, kinds=("traffic",))["traffic"]
    write_dataset(traffic, str(out / "datasets/traffic.npz"))
    layout = ConditionLayout(mean=np.zeros(COND_DIM), std=np.ones(COND_DIM))
    for kind in ("traffic", "users", "rsrp"):
        arch = DenoiserArch(series_len=3, cond_emb_dim=2, time_dim=2, expert_hidden=(4,), gate_hidden=(4,))
        head = DiffusionModel(kind, arch, NoiseSchedule(2, 1e-4, 0.02), NormalizationStats(0.0, 1.0), layout)
        head.save(str(out / "models" / f"{kind}.npz"))
    Policy(n_cells=7).save(str(out / "models/policy.npz"))
    return out


def _load(out, target: str) -> None:
    """What the stage that reads ``target`` loads, through the API."""
    if target.startswith("datasets/"):
        read_dataset(str(out / target))
    else:
        WorldModelBundle.load({k: str(out / "models" / f"{k}.npz") for k in ("traffic", "users", "rsrp")})
        Policy.load(str(out / "models/policy.npz"))


class TestBadArtifacts:
    def test_intact_artifacts_load(self, artifacts):
        _load(artifacts, "datasets/traffic.npz")
        _load(artifacts, "models/policy.npz")

    @pytest.mark.parametrize("case", sorted(BAD_ARTIFACTS))
    def test_format_error_and_one_cli_line(self, artifacts, tmp_path, capsys, case):
        target, spoil, names = BAD_ARTIFACTS[case]
        cfg = write_config(tmp_path, evaluation={"schemes": ["agent"], "n_gen_samples": 4})
        out = tmp_path / "out"
        shutil.copytree(artifacts, out)
        spoil(out / target)
        with pytest.raises(FormatError, match=re.escape(names)) as raised:
            _load(out, target)
        assert str(out / target) in str(raised.value)
        command = "train-wm" if target.startswith("datasets/") else "evaluate"
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err
        assert "Traceback" not in err


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
