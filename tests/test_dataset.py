import numpy as np
import pytest

from celltwin.dataset import (
    COND_DIM,
    ConditionLayout,
    NormalizationStats,
    collect_dataset,
    condition_for_rsrp,
    fit_stats,
    make_mask,
    read_dataset,
    split_dataset,
    write_dataset,
)
from celltwin.errors import ConfigError, DomainError, FormatError
from celltwin.scenario import build_scenario, make_hex_scenario


@pytest.fixture(scope="module")
def oracle():
    return build_scenario(make_hex_scenario(seed=7, grid_dim=4, horizon_hours=240))


@pytest.fixture(scope="module")
def datasets(oracle):
    return collect_dataset(oracle, n_days=4)


class TestCollect:
    def test_one_day_seven_cells_gives_seven_windows(self, oracle):
        ds = collect_dataset(oracle, n_days=1, kinds=("traffic",))["traffic"]
        assert len(ds) == 7
        assert ds.series_len == 12

    def test_users_window_length(self, datasets):
        ds = datasets["users"]
        assert ds.series_len == 24
        assert len(ds) == 4 * 16

    def test_train_split_is_zero_mean_unit_std(self, datasets):
        ds = datasets["traffic"]
        z = ds.normalized_series(ds.split["train"])
        assert abs(z.mean()) < 1e-6
        assert abs(z.std() - 1.0) < 1e-6

    def test_rsrp_conditions_carry_link_parameters(self, oracle, datasets):
        ds = datasets["rsrp"]
        assert ds.series_len == 1
        tx = ds.conditions[:, ConditionLayout.field_slice("tx_power_dbm")].ravel()
        freq = ds.conditions[:, ConditionLayout.field_slice("carrier_freq_mhz")].ravel()
        dist = ds.conditions[:, ConditionLayout.field_slice("distance_km")].ravel()
        cell_pairs = {(c.tx_power_dbm, c.carrier_freq_mhz) for c in oracle.cells}
        assert set(zip(tx, freq)) <= cell_pairs
        assert (dist > 0).all()
        assert ds.masks.all()

    def test_stats_recompute_only_from_train(self, datasets):
        ds = datasets["traffic"]
        again = fit_stats(ds.series[ds.split["train"]])
        assert again == ds.stats

    def test_normalized_conditions_bounded(self, datasets):
        for ds in datasets.values():
            z = ds.normalized_conditions()
            assert (np.abs(z) <= 5.0).all()

    def test_empty_kinds_rejected(self, oracle):
        with pytest.raises(ConfigError, match="kinds"):
            collect_dataset(oracle, n_days=1, kinds=())

    def test_n_days_beyond_horizon_rejected(self, oracle):
        with pytest.raises(ConfigError, match="horizon"):
            collect_dataset(oracle, n_days=100, kinds=("traffic",))


class TestNormalization:
    def test_mean_maps_to_zero(self):
        stats = NormalizationStats(mean=4.2, std=2.0)
        assert stats.normalize(np.array([4.2]))[0] == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(5.0, 3.0, size=64)
        stats = fit_stats(x)
        back = stats.denormalize(stats.normalize(x))
        assert np.allclose(back, x, rtol=1e-9, atol=1e-12)

    def test_constant_series_floors_std(self):
        x = np.full(16, 7.0)
        stats = fit_stats(x)
        assert stats.std == 1e-6
        assert (stats.normalize(x) == 0.0).all()


class TestMasks:
    def test_short_term_suffix(self):
        mask = make_mask("short_term_prediction", 12, 3)
        assert mask.tolist() == [False] * 9 + [True] * 3

    def test_long_term_full(self):
        assert make_mask("long_term_generation", 12).all()

    def test_horizon_too_long(self):
        with pytest.raises(DomainError):
            make_mask("short_term_prediction", 12, 13)

    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            make_mask("inpainting", 12, 1)


class TestSplit:
    def test_sizes(self):
        split = split_dataset(100, (0.8, 0.1, 0.1), seed=0)
        assert (len(split["train"]), len(split["val"]), len(split["test"])) == (80, 10, 10)

    def test_deterministic(self):
        a = split_dataset(57, (0.7, 0.2, 0.1), seed=5)
        b = split_dataset(57, (0.7, 0.2, 0.1), seed=5)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_partition(self):
        for n in (10, 57, 101):
            split = split_dataset(n, (0.6, 0.2, 0.2), seed=2)
            merged = np.concatenate([split["train"], split["val"], split["test"]])
            assert len(merged) == n
            assert len(np.unique(merged)) == n

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            split_dataset(10, (0.5, 0.2, 0.1), seed=0)


class TestPersistence:
    def test_roundtrip_bit_exact(self, datasets, tmp_path):
        ds = datasets["traffic"]
        path = str(tmp_path / "traffic.npz")
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.kind == ds.kind
        assert np.array_equal(back.series, ds.series)
        assert np.array_equal(back.conditions, ds.conditions)
        assert np.array_equal(back.masks, ds.masks)
        assert back.stats == ds.stats
        assert np.array_equal(back.layout.mean, ds.layout.mean)
        assert np.array_equal(back.layout.std, ds.layout.std)
        for key in ds.split:
            assert np.array_equal(back.split[key], ds.split[key])

    def test_truncated_file_is_format_error(self, datasets, tmp_path):
        ds = datasets["traffic"]
        path = tmp_path / "traffic.npz"
        write_dataset(ds, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(FormatError, match="unreadable"):
            read_dataset(str(path))

    def test_version_mismatch_names_versions(self, datasets, tmp_path, monkeypatch):
        import celltwin.dataset as dsmod

        path = str(tmp_path / "traffic.npz")
        monkeypatch.setattr(dsmod, "DATASET_VERSION", 99)
        write_dataset(datasets["traffic"], path)
        monkeypatch.setattr(dsmod, "DATASET_VERSION", 1)
        with pytest.raises(FormatError, match="expected 1, found 99"):
            read_dataset(path)


class TestConditionLayout:
    def test_partial_defaults_to_train_mean(self, datasets):
        layout = datasets["rsrp"].layout
        z = layout.normalize_partial({"tx_power_dbm": 46.0, "distance_km": 1.0})
        # Mean-imputed fields normalize to exactly zero.
        assert np.allclose(z[ConditionLayout.field_slice("poi")], 0.0)
        assert z[ConditionLayout.field_slice("hour_sin")] == pytest.approx(0.0)
        assert z[ConditionLayout.field_slice("distance_km")][0] != 0.0

    def test_unknown_field_rejected(self, datasets):
        with pytest.raises(ConfigError, match="antenna"):
            datasets["rsrp"].layout.normalize_partial({"antenna": 1.0})

    def test_positional_stability(self, oracle, datasets):
        cond = condition_for_rsrp(oracle, 2, 0.7, hour=13, sleep_frac=0.25)
        assert cond.shape == (COND_DIM,)
        assert cond[ConditionLayout.field_slice("tx_power_dbm")][0] == oracle.cells[2].tx_power_dbm
        assert cond[ConditionLayout.field_slice("distance_km")][0] == 0.7
        assert cond[ConditionLayout.field_slice("sleep_frac")][0] == 0.25
