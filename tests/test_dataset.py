import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from celltwin.dataset import (
    COND_DIM,
    ConditionLayout,
    NormalizationStats,
    SampleSet,
    collect_dataset,
    fit_stats,
    make_mask,
    read_dataset,
    rsrp_conditions,
    split_dataset,
    traffic_conditions,
    users_conditions,
    write_dataset,
)
from celltwin.errors import ConfigError, DomainError, FormatError
from celltwin.scenario import POI_PROFILES, Oracle, make_hex_scenario


@pytest.fixture(scope="module")
def oracle():
    return Oracle(make_hex_scenario(seed=7, grid_dim=4, horizon_hours=240))


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

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_roundtrip_keeps_every_array(self, data):
        n = data.draw(st.integers(1, 6))
        length = data.draw(st.integers(1, 8))
        reals = st.floats(-1e6, 1e6)
        positive = st.floats(1e-3, 1e3)
        original = SampleSet(
            kind=data.draw(st.sampled_from(["traffic", "users", "rsrp"])),
            series=data.draw(arrays(np.float64, (n, length), elements=reals)),
            conditions=data.draw(arrays(np.float64, (n, COND_DIM), elements=reals)),
            masks=data.draw(arrays(bool, (n, length))),
            stats=NormalizationStats(mean=data.draw(reals), std=data.draw(positive)),
            layout=ConditionLayout(mean=data.draw(arrays(np.float64, COND_DIM, elements=reals)),
                                   std=data.draw(arrays(np.float64, COND_DIM, elements=positive))),
            split=dict(zip(("train", "val", "test"),
                           np.split(data.draw(st.permutations(range(n))), sorted(
                               data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))))),
        )
        with tempfile.TemporaryDirectory() as tmp:
            write_dataset(original, f"{tmp}/set.npz")
            back = read_dataset(f"{tmp}/set.npz")
        assert back.kind == original.kind and back.stats == original.stats
        for field in ("series", "conditions", "masks"):
            got, want = getattr(back, field), getattr(original, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert np.array_equal(back.layout.mean, original.layout.mean)
        assert np.array_equal(back.layout.std, original.layout.std)
        assert list(back.split) == list(original.split)
        for key in original.split:
            assert np.array_equal(back.split[key], original.split[key]), key

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
        def field(rows, name):
            return rows[:, ConditionLayout.field_slice(name)]

        rsrp = rsrp_conditions(oracle, [2], [0.7], hour=13, sleep_frac=0.25)
        assert rsrp.shape == (1, COND_DIM)
        assert field(rsrp, "tx_power_dbm")[0, 0] == oracle.cells[2].tx_power_dbm
        assert field(rsrp, "distance_km")[0, 0] == 0.7
        assert field(rsrp, "sleep_frac")[0, 0] == 0.25
        for name in ("poi", "grid_density", "demand"):
            assert (field(rsrp, name) == 0.0).all()

        traffic = traffic_conditions(oracle)
        assert traffic.shape == (oracle.n_cells, COND_DIM)
        assert field(traffic, "demand")[:, 0].tolist() == [c.capacity_mbps for c in oracle.cells]
        assert field(traffic, "carrier_freq_mhz")[:, 0].tolist() == [c.carrier_freq_mhz for c in oracle.cells]
        assert field(traffic, "poi").tolist() == [
            [float(p == c.poi_profile) for p in POI_PROFILES] for c in oracle.cells
        ]

        users = users_conditions(oracle)
        assert users.shape == (oracle.n_grids, COND_DIM)
        for g, grid in enumerate(oracle.config.grids):
            near = int(np.argmin([math.dist(grid.position, c.position) for c in oracle.cells]))
            assert field(users, "distance_km")[g, 0] == oracle.grid_cell_km[g, near]
            assert field(users, "tx_power_dbm")[g, 0] == oracle.cells[near].tx_power_dbm
            assert field(users, "grid_density")[g, 0] == grid.poi_weight * grid.base_users
