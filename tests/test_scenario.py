import itertools
import math
import re
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from celltwin.agent import RewardWeights, compute_reward
from celltwin.dataset import collect_dataset
from celltwin.errors import ConfigError, DomainError, UnknownIdError
from celltwin.scenario import (
    MAX_USERS_PER_STEP,
    _TEMPLATE_PEAK,
    POI_PROFILES,
    CellArrays,
    CellConfig,
    GridCell,
    NetworkState,
    Oracle,
    ScenarioConfig,
    associate_users,
    cell_power_watts,
    make_hex_scenario,
    key_states,
    path_loss_db,
    _raw_diurnal,
    _S_POS,
    _S_SHADOW,
    scenario_from_dict,
    serve,
    step_physics,
)


def two_cell_config(**overrides) -> ScenarioConfig:
    cells = (
        CellConfig(id=0, position=(0.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                   capacity_mbps=100.0, poi_profile="office", neighbors=(1,)),
        CellConfig(id=1, position=(1.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                   capacity_mbps=100.0, poi_profile="residential", neighbors=(0,)),
    )
    grids = tuple(
        GridCell(position=(float(x), float(y)), poi_weight=1.0, base_users=5)
        for y in (0.0, 1.0) for x in (0.0, 1.0)
    )
    base = dict(seed=0, cell_configs=cells, grids=grids, horizon_hours=48)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestValidation:
    def test_unknown_neighbor_id_rejected(self):
        cells = (
            CellConfig(id=0, position=(0.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(99,)),
            CellConfig(id=1, position=(1.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(0,)),
        )
        with pytest.raises(ConfigError, match="neighbor id 99"):
            Oracle(two_cell_config(cell_configs=cells))

    def test_self_neighbor_rejected(self):
        cells = (
            CellConfig(id=0, position=(0.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(0,)),
            CellConfig(id=1, position=(1.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(0,)),
        )
        with pytest.raises(ConfigError, match="exclude self"):
            Oracle(two_cell_config(cell_configs=cells))

    def test_step_must_divide_horizon(self):
        # The message names the field alone; the reader that found the scenario adds its source.
        with pytest.raises(ConfigError, match=r"^traffic_step_hours 2 must divide horizon_hours 23$"):
            Oracle(two_cell_config(horizon_hours=23))

    def test_sleep_power_below_idle_power(self):
        cells = list(two_cell_config().cell_configs)
        cells[0] = CellConfig(id=0, position=(0.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                              capacity_mbps=100.0, poi_profile="office", neighbors=(1,),
                              p_sleep_watts=200.0)
        with pytest.raises(ConfigError, match="p_sleep"):
            Oracle(two_cell_config(cell_configs=tuple(cells)))

    def test_negative_seed_rejected_before_any_draw(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            Oracle(make_hex_scenario(seed=-1))

    def test_counterfactual_fraction_bounds(self):
        with pytest.raises(ConfigError, match="counterfactual"):
            Oracle(two_cell_config(counterfactual_peak_fraction=1.5))

    @pytest.mark.parametrize("weight, base_users, ok", [
        (1.0, MAX_USERS_PER_STEP // 4, True),  # four grids at exactly the bound
        (1.0, MAX_USERS_PER_STEP // 4 + 1, False),
        (0.0, 10**30, True),  # a zero weight expects no users however large the base
        (0.0, 10**400, False),  # past the float range, so the oracle cannot weigh it
    ])
    def test_expected_users_per_step_bounded(self, weight, base_users, ok):
        grids = tuple(GridCell(position=g.position, poi_weight=weight, base_users=base_users)
                      for g in two_cell_config().grids)
        if ok:
            assert Oracle(two_cell_config(grids=grids)).grid_weight.sum() <= MAX_USERS_PER_STEP
        else:
            with pytest.raises(ConfigError, match="base_users"):
                Oracle(two_cell_config(grids=grids))

    def test_hex_layout_has_seven_cells_with_neighbors(self):
        oracle = Oracle(make_hex_scenario(seed=3))
        assert oracle.n_cells == 7
        for cell in oracle.cells:
            assert len(cell.neighbors) >= 2


class TestTraffic:
    def test_constant_profile(self):
        cfg = two_cell_config(traffic_base=0.1, traffic_amp=0.0, traffic_noise_sigma=0.0)
        oracle = Oracle(cfg)
        for t in range(0, 48, 2):
            assert oracle.traffic_at(0, t) == pytest.approx(10.0, abs=1e-12)

    def test_zero_sigmas_give_the_noise_free_bits(self):
        # A sigma of 0 is a parameter of the same draw: normal(0, 0) is +0.0, so traffic is
        # capacity * clip(hourly_demand) exactly and every shadowing value is +0.0.
        oracle = Oracle(make_hex_scenario(seed=4, grid_dim=2, horizon_hours=48,
                                          traffic_noise_sigma=0.0, shadowing_sigma_db=0.0))
        for t in range(0, 48, oracle.config.traffic_step_hours):
            want = oracle.arrays.capacity_mbps * np.clip(oracle.hourly_demand[:, t % 24], 0.0, 1.0)
            assert np.array([oracle.traffic_at(c.id, t) for c in oracle.cells]).tobytes() == want.tobytes()
        for t in range(0, 48, oracle.config.user_step_hours):
            shadowing = oracle.users_and_shadowing(t)[2]
            assert shadowing.size and shadowing.tobytes() == np.zeros(shadowing.shape).tobytes()

    def test_counterfactual_peak_hits_fraction_of_capacity(self):
        cfg = two_cell_config(traffic_noise_sigma=0.0, counterfactual_peak_fraction=0.8)
        oracle = Oracle(cfg)
        peak = max(oracle.traffic_at(0, t) for t in range(0, 24))
        assert peak == pytest.approx(80.0, rel=1e-9)

    @pytest.mark.parametrize("phi", [0.5, 0.6, 0.8])
    def test_counterfactual_scaling_invariant(self, phi):
        cfg = make_hex_scenario(seed=1, counterfactual_peak_fraction=phi, traffic_noise_sigma=0.0)
        oracle = Oracle(cfg)
        for cell in oracle.cells:
            peak = max(oracle.traffic_at(cell.id, t) for t in range(0, 24))
            assert abs(peak - phi * cell.capacity_mbps) <= 1e-9 * phi * cell.capacity_mbps

    def test_office_beats_residential_at_midday(self):
        cfg = two_cell_config(traffic_noise_sigma=0.0)
        oracle = Oracle(cfg)
        assert oracle.traffic_at(0, 14) > oracle.traffic_at(1, 14)

    def test_determinism_across_constructions(self):
        cfg = make_hex_scenario(seed=11)
        a, b = Oracle(cfg), Oracle(cfg)
        for t in range(0, 48, 2):
            for cell in a.cells:
                assert a.traffic_at(cell.id, t) == b.traffic_at(cell.id, t)

    def test_unknown_cell(self):
        oracle = Oracle(two_cell_config())
        with pytest.raises(UnknownIdError):
            oracle.traffic_at(99, 0)

    def test_time_out_of_horizon(self):
        oracle = Oracle(two_cell_config())
        with pytest.raises(DomainError):
            oracle.traffic_at(0, 48)


def scalar_tables(oracle) -> tuple[np.ndarray, np.ndarray]:
    """The reference: `hourly_demand` and `hourly_user_rate` built one scalar diurnal value at a time."""
    cfg = oracle.config

    def diurnal(profile, hour):
        return _raw_diurnal(profile, hour) / _TEMPLATE_PEAK[profile]

    phi = cfg.counterfactual_peak_fraction
    demand = {}
    for p in POI_PROFILES:
        raw = [cfg.traffic_base + cfg.traffic_amp * diurnal(p, h) for h in range(24)]
        scale = 1.0 if phi is None else phi / max(raw[::cfg.traffic_step_hours])
        demand[p] = [d * scale for d in raw]
    rate = [[w * (0.2 + 0.8 * diurnal(oracle.cells[c].poi_profile, h)) for h in range(24)]
            for w, c in zip(oracle.grid_weight, oracle.nearest_cell)]
    return np.array([demand[c.poi_profile] for c in oracle.cells]), np.array(rate)


class TestDemandTables:
    @pytest.mark.parametrize("phi", [None, 0.5, 0.6, 0.8, 1.0])
    def test_tables_have_the_scalar_formulas_bits(self, phi):
        for traffic_step, user_step, seed in itertools.product((1, 2, 3, 4, 6, 8, 12), (1, 2, 3), (0, 7)):
            oracle = Oracle(make_hex_scenario(
                seed=seed, counterfactual_peak_fraction=phi,
                traffic_step_hours=traffic_step, user_step_hours=user_step,
            ))
            for got, want in zip((oracle.hourly_demand, oracle.hourly_user_rate), scalar_tables(oracle)):
                assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestUsers:
    def test_zero_base_users(self):
        grids = tuple(GridCell(position=g.position, poi_weight=g.poi_weight, base_users=0)
                      for g in two_cell_config().grids)
        oracle = Oracle(two_cell_config(grids=grids))
        assert all(oracle.users_at(g, t) == 0 for g in range(4) for t in range(0, 24))
        state = oracle.step_network(12)
        assert state.total_users == 0 and state.serving_cell.shape == (0,)

    def test_repeat_query_is_identical(self):
        oracle = Oracle(two_cell_config())
        assert oracle.users_at(2, 19) == oracle.users_at(2, 19)

    def test_monte_carlo_mean_matches_rate(self):
        cfg = two_cell_config()
        rate = Oracle(cfg).hourly_user_rate[1, 20]
        draws = [
            Oracle(two_cell_config(seed=s)).users_at(1, 20) for s in range(1000)
        ]
        assert rate > 1.0
        assert abs(np.mean(draws) - rate) <= 0.05 * rate

    def test_bad_grid_index(self):
        oracle = Oracle(two_cell_config())
        with pytest.raises(UnknownIdError):
            oracle.users_at(4, 0)


class TestDayReads:
    @pytest.mark.parametrize("traffic_step, user_step", [(2, 1), (3, 2)])
    def test_days_equal_scalar_queries(self, traffic_step, user_step):
        oracle = Oracle(make_hex_scenario(
            seed=3, grid_dim=3, horizon_hours=72,
            traffic_step_hours=traffic_step, user_step_hours=user_step,
        ))
        traffic, users = oracle.traffic_day(2), oracle.users_day(2)
        assert traffic.shape == (7, 24 // traffic_step)
        assert users.shape == (9, 24 // user_step) and users.dtype == float
        for c, cell in enumerate(oracle.cells):
            for k in range(24 // traffic_step):
                assert traffic[c, k] == oracle.traffic_at(cell.id, 48 + k * traffic_step)
        for g in range(9):
            for k in range(24 // user_step):
                assert users[g, k] == oracle.users_at(g, 48 + k * user_step)

    def test_day_past_horizon_rejected(self):
        oracle = Oracle(two_cell_config())
        with pytest.raises(DomainError):
            oracle.traffic_day(2)
        with pytest.raises(DomainError):
            oracle.users_day(2)


class TestPropagation:
    def test_reference_point(self):
        assert path_loss_db(1.0, 1.0) == pytest.approx(32.45, abs=1e-12)

    def test_one_km_one_ghz(self):
        assert path_loss_db(1.0, 1000.0) == pytest.approx(92.45, abs=1e-9)

    def test_two_km_two_ghz(self):
        assert path_loss_db(2.0, 2000.0) == pytest.approx(104.49, abs=0.01)

    def test_monotone_in_distance_and_frequency(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.uniform(0.02, 10.0)
            f = rng.uniform(100.0, 6000.0)
            assert path_loss_db(d * 1.5, f) > path_loss_db(d, f)
            assert path_loss_db(d, f * 1.5) > path_loss_db(d, f)

    def test_distance_clamp(self):
        assert path_loss_db(0.0001, 1000.0) == path_loss_db(0.01, 1000.0)

    def test_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            path_loss_db(1.0, 0.0)


class TestRsrp:
    CELL = CellConfig(id=0, position=(0.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=1000.0,
                      capacity_mbps=100.0, poi_profile="office", neighbors=(1,))

    def cell0_rsrp(self, positions, tx_power_dbm=46.0):
        """Cell 0's RSRP without shadowing, from the array formula the oracle steps with."""
        cell0 = CellConfig(**{**self.CELL.__dict__, "tx_power_dbm": tx_power_dbm})
        cell1 = two_cell_config().cell_configs[1]
        oracle = Oracle(two_cell_config(cell_configs=(cell0, cell1)))
        positions = np.array(positions, dtype=float)
        return oracle.rsrp_matrix(positions, np.zeros((len(positions), 2)))[:, 0]

    def test_link_budget(self):
        assert self.cell0_rsrp([(1.0, 0.0)])[0] == pytest.approx(-46.45, abs=1e-9)

    def test_linear_in_tx_power(self):
        boosted = self.cell0_rsrp([(1.0, 0.0)], tx_power_dbm=49.0)[0]
        assert boosted == pytest.approx(self.cell0_rsrp([(1.0, 0.0)])[0] + 3.0)

    def test_distance_doubling(self):
        near, far = self.cell0_rsrp([(1.0, 0.0), (2.0, 0.0)])
        assert near - far == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_no_users(self):
        rsrp = Oracle(two_cell_config()).rsrp_matrix(np.zeros((0, 2)), np.zeros((0, 2)))
        assert rsrp.shape == (0, 2) and rsrp.dtype == np.float64


class TestPower:
    CELL = TestRsrp.CELL

    def test_sleep_power(self):
        assert cell_power_watts(self.CELL, 0.0, asleep=True) == 75.0

    def test_idle_power(self):
        assert cell_power_watts(self.CELL, 0.0, asleep=False) == 130.0

    def test_full_load(self):
        assert cell_power_watts(self.CELL, 1.0, asleep=False) == pytest.approx(224.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            cell_power_watts(self.CELL, 1.2, asleep=False)


class TestStepNetwork:
    def test_single_active_cell_takes_everyone(self):
        oracle = Oracle(two_cell_config())
        state = oracle.step_network(8, sleep_mask=[False, True])
        served = state.serving_cell[state.serving_cell >= 0]
        assert state.dropped_users == 0
        assert (served == 0).all()

    def test_large_bias_moves_every_served_user(self):
        # Users near the bisector of two identical cells: a 50 dB bias on cell 1
        # outweighs any RSRP gap the position jitter leaves and steers everyone there.
        cells = (
            CellConfig(id=0, position=(-1.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(1,)),
            CellConfig(id=1, position=(1.0, 0.0), tx_power_dbm=46.0, carrier_freq_mhz=2100.0,
                       capacity_mbps=100.0, poi_profile="office", neighbors=(0,)),
        )
        grids = (
            GridCell(position=(0.0, -0.5), poi_weight=1.0, base_users=8),
            GridCell(position=(0.0, 0.5), poi_weight=1.0, base_users=8),
            GridCell(position=(0.0, 1.5), poi_weight=0.0, base_users=0),
            GridCell(position=(0.0, 2.5), poi_weight=0.0, base_users=0),
        )
        cfg = two_cell_config(cell_configs=cells, grids=grids, shadowing_sigma_db=0.0)
        oracle = Oracle(cfg)
        state = oracle.step_network(12, bias_db=[0.0, 50.0])
        served = state.serving_cell[state.serving_cell >= 0]
        assert served.size and (served == 1).all()

    def test_bias_breaks_exact_ties(self):
        # Every unit sees the same RSRP from both cells: with no bias the tie goes
        # to cell 0, and 0.5 dB on cell 1 moves every unit to cell 1.
        cells = CellArrays.of(two_cell_config().cell_configs)
        rsrp = np.repeat(np.linspace(-100.0, -70.0, 9)[:, None], 2, axis=1)
        natural = associate_users(rsrp, np.zeros(2, dtype=bool), np.zeros(2), -110.0)
        awake = np.zeros(2, dtype=bool)
        for bias, cell in (([0.0, 0.0], 0), ([0.0, 0.5], 1)):
            state = serve(cells, np.array([40.0, 40.0]), natural, rsrp, rsrp[:, :, None], np.ones(9),
                          -110.0, awake, np.array(bias))
            assert (state.serving_cell == cell).all()

    def test_all_asleep_drops_everyone(self):
        oracle = Oracle(two_cell_config())
        state = oracle.step_network(12, sleep_mask=[True, True])
        assert state.dropped_users == state.total_users > 0
        assert np.isnan(state.rsrp_avg_dbm)

    def test_sleeping_cell_serves_nothing_at_sleep_power(self):
        oracle = Oracle(two_cell_config())
        state = oracle.step_network(12, sleep_mask=[True, False])
        assert (state.serving_cell != 0).all()
        assert state.per_cell_load_mbps[0] == 0.0
        assert state.per_cell_power_watts[0] == 75.0

    def test_accounting(self):
        oracle = Oracle(make_hex_scenario(seed=5))
        for t in (0, 8, 14, 20):
            state = oracle.step_network(t, sleep_mask=[False, True, False, True, False, False, False])
            assert int((state.serving_cell >= 0).sum()) + state.dropped_users == state.total_users
            assert state.total_users == oracle.users_and_shadowing(t)[0].sum()

    def test_energy_conservation(self):
        oracle = Oracle(make_hex_scenario(seed=5))
        state = oracle.step_network(10)
        total = state.energy_wh(2.0)
        assert total == pytest.approx(sum(state.per_cell_power_watts) * 2.0, rel=1e-12)

    def test_all_active_keeps_native_load(self):
        cfg = make_hex_scenario(seed=5)
        oracle = Oracle(cfg)
        state = oracle.step_network(14)
        native = np.array([oracle.traffic_at(c.id, 14) for c in oracle.cells])
        capped = np.minimum(native, np.array([c.capacity_mbps for c in oracle.cells]))
        assert np.allclose(state.per_cell_load_mbps, capped)

    def test_bit_exact_determinism(self):
        cfg = make_hex_scenario(seed=9)
        a, b = Oracle(cfg), Oracle(cfg)
        sa = a.step_network(16, sleep_mask=[False, True, False, False, True, False, False],
                            bias_db=[0, 0, 3, 0, 0, 3, 0])
        sb = b.step_network(16, sleep_mask=[False, True, False, False, True, False, False],
                            bias_db=[0, 0, 3, 0, 0, 3, 0])
        assert np.array_equal(sa.per_user_rsrp_dbm, sb.per_user_rsrp_dbm, equal_nan=True)
        assert np.array_equal(sa.serving_cell, sb.serving_cell)
        assert np.array_equal(sa.per_cell_load_mbps, sb.per_cell_load_mbps)
        assert np.array_equal(sa.per_cell_power_watts, sb.per_cell_power_watts)

    def test_tx_power_monotonicity(self):
        # Raising one cell's tx power never lowers any user's RSRP from it.
        base_cfg = make_hex_scenario(seed=2, shadowing_sigma_db=0.0)
        oracle = Oracle(base_cfg)
        cells = list(base_cfg.cell_configs)
        cells[3] = CellConfig(**{**cells[3].__dict__, "tx_power_dbm": cells[3].tx_power_dbm + 2.0})
        boosted = Oracle(
            ScenarioConfig(**{**base_cfg.__dict__, "cell_configs": tuple(cells)})
        )
        _, pos, shadow = oracle.users_and_shadowing(12)
        low = oracle.rsrp_matrix(pos, shadow)
        high = boosted.rsrp_matrix(pos, shadow)
        assert (high[:, 3] >= low[:, 3]).all()
        assert np.allclose(high[:, :3], low[:, :3])


HEX_CELLS = make_hex_scenario().cell_configs
HEX_ARRAYS = CellArrays.of(HEX_CELLS)
N_HEX = len(HEX_ARRAYS.capacity_mbps)


@st.composite
def step_inputs(draw, sleeping=True):
    """Random step: sleep mask, bias, native load and units attached by real association.

    Units are unit-weight fully served users (oracle) or weighted, partly
    served grids (world-model twin).
    """
    cells = st.lists(st.booleans(), min_size=N_HEX, max_size=N_HEX)
    sleep = np.array(draw(cells)) if sleeping else np.zeros(N_HEX, dtype=bool)
    bias = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=N_HEX, max_size=N_HEX)))
    frac = draw(st.lists(st.floats(0.0, 1.5), min_size=N_HEX, max_size=N_HEX))
    native = HEX_ARRAYS.capacity_mbps * np.array(frac)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_units = draw(st.integers(0, 40))
    rsrp = rng.normal(-88.0, 8.0, size=(n_units, N_HEX))
    natural = associate_users(rsrp, np.zeros(N_HEX, dtype=bool), np.zeros(N_HEX), -95.0)
    serving = associate_users(rsrp, sleep, bias, -95.0)
    if draw(st.booleans()):
        weight, served = np.ones(n_units), np.ones(n_units)
    else:
        weight, served = rng.integers(0, 6, n_units).astype(float), rng.uniform(0.0, 1.0, n_units)
    served = np.where(serving >= 0, served, 0.0)
    return native, sleep, natural, serving, weight, served


class TestStepPhysicsProperties:
    @settings(max_examples=150, deadline=None)
    @given(step_inputs())
    def test_sleeping_cells_draw_sleep_power(self, inputs):
        native, sleep, *units = inputs
        _, _, power, _ = step_physics(HEX_ARRAYS, native, sleep, *units)
        assert np.array_equal(power[sleep], HEX_ARRAYS.p_sleep_watts[sleep])

    @settings(max_examples=100, deadline=None)
    @given(step_inputs(sleeping=False))
    def test_all_active_carries_native_at_reference_power(self, inputs):
        native, sleep, *units = inputs
        load, _, power, reference = step_physics(HEX_ARRAYS, native, sleep, *units)
        assert np.array_equal(load, np.minimum(native, HEX_ARRAYS.capacity_mbps))
        assert sum(power.tolist()) == reference

    @settings(max_examples=150, deadline=None)
    @given(step_inputs())
    def test_carried_plus_overload_within_native(self, inputs):
        native, sleep, *units = inputs
        load, overload, _, _ = step_physics(HEX_ARRAYS, native, sleep, *units)
        assert load.sum() + overload.sum() <= native.sum() * (1.0 + 1e-12)


@st.composite
def association_inputs(draw):
    """Whole-dB RSRP and biases, so that ties between cells are common."""
    n_users, n_cells = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    db = st.lists(st.integers(-130, -70), min_size=n_users * n_cells, max_size=n_users * n_cells)
    rsrp = np.array(draw(db), dtype=float).reshape(n_users, n_cells)
    sleep = np.array(draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells)), dtype=bool)
    bias = np.array(draw(st.lists(st.sampled_from([0.0, 3.0, 6.0]), min_size=n_cells, max_size=n_cells)))
    return rsrp, sleep, bias, float(draw(st.integers(-125, -75)))


class TestAssociationProperties:
    @settings(max_examples=150, deadline=None)
    @given(association_inputs())
    def test_ties_go_to_lowest_id(self, inputs):
        rsrp, sleep, bias, _ = inputs
        serving = associate_users(rsrp, sleep, bias, -np.inf)
        active = np.flatnonzero(~sleep)
        for u in range(rsrp.shape[0]):
            scores = [rsrp[u, c] + bias[c] for c in active]
            best = [c for c, score in zip(active, scores) if score == max(scores)]
            assert serving[u] == (best[0] if best else -1)

    @settings(max_examples=150, deadline=None)
    @given(association_inputs())
    def test_no_served_user_below_floor(self, inputs):
        rsrp, sleep, bias, floor = inputs
        serving = associate_users(rsrp, sleep, bias, floor)
        served = serving >= 0
        assert (rsrp[served, serving[served]] >= floor).all()
        assert not sleep[serving[served]].any()

    @settings(max_examples=50, deadline=None)
    @given(association_inputs())
    def test_all_sleep_drops_everyone(self, inputs):
        rsrp, sleep, bias, floor = inputs
        serving = associate_users(rsrp, np.ones_like(sleep), bias, floor)
        assert (serving == -1).all() and len(serving) == rsrp.shape[0]


class TestServeProperties:
    @settings(max_examples=150, deadline=None)
    @given(association_inputs(), st.integers(0, 2**32 - 1))
    def test_one_draw_is_the_oracle_rule(self, inputs, seed):
        rsrp, sleep, bias, floor = inputs
        rng = np.random.default_rng(seed)
        n_users, n_cells = rsrp.shape
        cells = CellArrays.of([HEX_CELLS[c % N_HEX] for c in range(n_cells)])
        native = cells.capacity_mbps * rng.uniform(0.0, 1.5, n_cells)
        natural = associate_users(rsrp, np.zeros(n_cells, dtype=bool), np.zeros(n_cells), floor)
        state = serve(cells, native, natural, rsrp, rsrp[:, :, None], np.ones(n_users), floor, sleep, bias)
        serving = associate_users(rsrp, sleep, bias, floor)
        served = serving >= 0
        assert np.array_equal(state.serving_cell, serving)
        if served.any():
            assert state.rsrp_avg_dbm == float(rsrp[served, serving[served]].mean())
        else:
            assert np.isnan(state.rsrp_avg_dbm)
        assert state.dropped_users == int((serving == -1).sum())
        assert state.total_users == n_users

    @settings(max_examples=150, deadline=None)
    @given(association_inputs(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_weighted_draws_account_for_every_user(self, inputs, n_draws, seed):
        attach, sleep, bias, floor = inputs
        rng = np.random.default_rng(seed)
        n_units, n_cells = attach.shape
        draws = attach[:, :, None] + rng.normal(0.0, 6.0, size=(n_units, n_cells, n_draws))
        weight = rng.integers(0, 9, n_units).astype(float)
        cells = CellArrays.of([HEX_CELLS[c % N_HEX] for c in range(n_cells)])
        native = cells.capacity_mbps * rng.uniform(0.0, 1.5, n_cells)
        natural = associate_users(attach, np.zeros(n_cells, dtype=bool), np.zeros(n_cells), -np.inf)
        state = serve(cells, native, natural, attach, draws, weight, floor, sleep, bias)
        assert state.dropped_users + state.served_users.sum() == state.total_users == weight.sum()
        share = np.divide(state.served_users, weight, out=np.zeros(n_units), where=weight > 0)
        assert np.allclose(share * n_draws, np.rint(share * n_draws), rtol=0.0, atol=1e-12)
        served = state.serving_cell >= 0
        assert (state.per_user_rsrp_dbm[served] >= floor).all()
        assert np.isnan(state.per_user_rsrp_dbm[~served]).all()


@st.composite
def batched_steps(draw, max_episodes=5):
    """Steps of 1-`max_episodes` episodes over the same cells, each with its own loads, units, action
    and floor draws: all-sleep rows, units of weight 0, units that attach nowhere and biases that are
    not whole dB all come up. Eight or more cells make numpy's sum over them pair its terms."""
    n_cells, n_units = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    episodes, n_draws = draw(st.integers(1, max_episodes)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = CellArrays.of([HEX_CELLS[c % N_HEX] for c in range(n_cells)])
    sleep = rng.random((episodes, n_cells)) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    sleep[draw(st.lists(st.integers(0, episodes - 1), max_size=2))] = True
    bias = rng.choice([0.0, 0.1, 1.0 / 3.0, 2.5, 3.0, 6.0], size=(episodes, n_cells))
    attach = np.rint(rng.normal(-90.0, 8.0, size=(episodes, n_units, n_cells)))
    draws = attach[..., None] + rng.normal(0.0, 5.0, size=(episodes, n_units, n_cells, n_draws))
    weight = rng.integers(0, 4, size=(episodes, n_units)).astype(float)
    native = cells.capacity_mbps * rng.uniform(0.0, 1.5, size=(episodes, n_cells))
    floor = float(draw(st.sampled_from([-np.inf, -95.0, -90.0, -85.0])))
    natural = associate_users(attach, np.zeros((episodes, n_cells), dtype=bool), np.zeros((episodes, n_cells)),
                              draw(st.sampled_from([-np.inf, -92.0])))
    return cells, native, natural, attach, draws, weight, floor, sleep, bias


def assert_rows_have_the_bits(batched, rows):
    for b, one in enumerate(rows):
        got, want = np.asarray(batched[b]), np.asarray(one)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_step_tail(state: NetworkState, step_hours: float, weights: RewardWeights):
    """The one-episode step tail the batched `NetworkState` properties and `compute_reward` replaced:
    Python floats, None for the RSRP average when nobody is served. (RSRP average or None, dropped
    users, energy, reward) of one episode's state."""
    served_total = float(state.served_users.sum())
    dropped = float(state.total_users - served_total)
    if served_total <= 0:
        rsrp_avg = None
    else:
        valid = state.served_users > 0
        rsrp_avg = float((state.served_users[valid] * state.per_user_rsrp_dbm[valid]).sum() / served_total)
    energy = float(state.per_cell_power_watts.sum() * step_hours)
    reference_energy, total_users = state.reference_power_watts * step_hours, state.total_users
    if reference_energy <= 0:
        raise DomainError("reference_energy_wh must be positive")
    if total_users == 0:
        rsrp_term = 1.0
    elif rsrp_avg is None:
        rsrp_term = 0.0
    else:
        rsrp_term = float(weights.rsrp_score(rsrp_avg))
    dropped_frac = 0.0 if total_users == 0 else dropped / total_users
    reward = (
        -weights.lambda_e * (energy / reference_energy)
        + weights.lambda_r * rsrp_term
        - weights.lambda_d * dropped_frac
    )
    return rsrp_avg, dropped, energy, reward


class TestBatchedServing:
    """Row b of a call with a leading episode axis has the bits of the call on row b alone."""

    @settings(max_examples=200, deadline=None)
    @given(batched_steps())
    def test_associate_users(self, step):
        _, _, _, attach, _, _, floor, sleep, bias = step
        got = associate_users(attach, sleep, bias, floor)
        assert_rows_have_the_bits(got, [associate_users(*row, floor) for row in zip(attach, sleep, bias)])

    @settings(max_examples=200, deadline=None)
    @given(batched_steps(), st.integers(0, 2**32 - 1))
    def test_step_physics(self, step, seed):
        cells, native, natural, attach, _, weight, floor, sleep, bias = step
        serving = associate_users(attach, sleep, bias, floor)
        served = np.where(serving >= 0, np.random.default_rng(seed).random(serving.shape), 0.0)
        got = step_physics(cells, native, sleep, natural, serving, weight, served)
        want = [step_physics(cells, *row) for row in zip(native, sleep, natural, serving, weight, served)]
        for k in range(4):
            assert_rows_have_the_bits(got[k], [w[k] for w in want])
        # Reference power is Python's sum over each episode's all-active cells.
        assert_rows_have_the_bits(got[3], [
            np.float64(sum(cell_power_watts(cells, np.minimum(row / cells.capacity_mbps, 1.0), False).tolist()))
            for row in native
        ])

    @settings(max_examples=200, deadline=None)
    @given(batched_steps())
    def test_serve(self, step):
        cells, native, natural, attach, draws, weight, floor, sleep, bias = step
        state = serve(cells, native, natural, attach, draws, weight, floor, sleep, bias)
        want = [serve(cells, n, nat, a, d, w, floor, s, b)
                for n, nat, a, d, w, s, b in zip(native, natural, attach, draws, weight, sleep, bias)]
        for f in fields(NetworkState):
            assert_rows_have_the_bits(getattr(state, f.name), [getattr(w, f.name) for w in want])
        for name in ("rsrp_avg_dbm", "dropped_users"):
            assert_rows_have_the_bits(getattr(state, name), [getattr(w, name) for w in want])
        assert_rows_have_the_bits(state.energy_wh(2.0), [w.energy_wh(2.0) for w in want])

    @settings(max_examples=300, deadline=None)
    @given(batched_steps(max_episodes=8), st.data())
    def test_outcome_and_reward_equal_the_one_episode_tail(self, step, data):
        """Rows with no users and rows where nobody is served come up in every example."""
        cells, native, natural, attach, draws, weight, floor, sleep, bias = step
        weight[data.draw(st.lists(st.integers(0, len(weight) - 1), max_size=2))] = 0.0
        sleep[data.draw(st.lists(st.integers(0, len(sleep) - 1), max_size=2))] = True
        weights = data.draw(st.sampled_from([RewardWeights(), RewardWeights(0.5, 2.0, 0.0, -110.0, -95.0)]))
        hours = data.draw(st.sampled_from([1, 2, 0.5]))
        state = serve(cells, native, natural, attach, draws, weight, floor, sleep, bias)
        got = (state.rsrp_avg_dbm, state.dropped_users, state.energy_wh(hours))
        got += (compute_reward(got[2], state.reference_power_watts * hours, got[0], got[1], state.total_users,
                               weights),)
        for b, row in enumerate(zip(*(getattr(state, f.name) for f in fields(NetworkState)))):
            want = reference_step_tail(NetworkState(*row), hours, weights)
            want = (np.nan if want[0] is None else want[0],) + want[1:]
            assert [np.float64(g[b]).tobytes() for g in got] == [np.float64(w).tobytes() for w in want]


SNAPSHOT_CFG = two_cell_config()


@st.composite
def snapshot_queries(draw):
    """(t, sleep, bias) queries over more distinct in-horizon t than one day has steps, with
    out-of-horizon t and wrong-length masks mixed in."""
    horizon, n_cells = SNAPSHOT_CFG.horizon_hours, len(SNAPSHOT_CFG.cell_configs)
    distinct = draw(st.lists(st.integers(0, horizon - 1), min_size=SNAPSHOT_CFG.steps_per_day + 1,
                             max_size=SNAPSHOT_CFG.steps_per_day + 6, unique=True))
    bad_t = draw(st.lists(st.sampled_from([-1, horizon, 10**6]), max_size=3))
    ts = draw(st.permutations(distinct + bad_t + draw(st.lists(st.sampled_from(distinct), max_size=12))))
    queries = []
    for t in ts:
        size = draw(st.sampled_from([n_cells] * 9 + [n_cells + 1]))
        sleep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        bias = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, -2.0]), min_size=n_cells, max_size=n_cells))
        queries.append((t, sleep, bias))
    return queries


class TestSnapshotStore:
    @settings(max_examples=25, deadline=None)
    @given(snapshot_queries())
    def test_reused_draws_match_a_fresh_oracle(self, queries):
        oracle = Oracle(SNAPSHOT_CFG)
        store = oracle._snapshots
        for t, sleep, bias in queries:
            if not 0 <= t < SNAPSHOT_CFG.horizon_hours or len(sleep) != len(SNAPSHOT_CFG.cell_configs):
                before = list(store.items())
                with pytest.raises(DomainError):
                    oracle.step_network(t, sleep, bias)
                after = list(store.items())
                assert [k for k, _ in after] == [k for k, _ in before]
                assert all(a is b for (_, a), (_, b) in zip(after, before))
                continue
            got = oracle.step_network(t, sleep, bias)
            want = Oracle(SNAPSHOT_CFG).step_network(t, sleep, bias)
            for f in fields(NetworkState):
                g, w = np.asarray(getattr(got, f.name)), np.asarray(getattr(want, f.name))
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), f.name
            assert 0 < len(store) <= SNAPSHOT_CFG.steps_per_day
            assert not any(a.flags.writeable for snap in store.values() for a in snap)


def count_draws(oracle) -> list[tuple[str, int]]:
    """From now on, log (kind, step start) for each value traffic_at or users_at returns."""
    calls = []

    def counted(kind, draw, step):
        def wrapper(i, t):
            value = draw(i, t)
            calls.append((kind, t - t % step))
            return value
        return wrapper

    clock = oracle.config
    oracle.traffic_at = counted("traffic", oracle.traffic_at, clock.traffic_step_hours)
    oracle.users_at = counted("users", oracle.users_at, clock.user_step_hours)
    return calls


def columns_read(clock: ScenarioConfig, name: str, arg: int) -> set[tuple[str, int]]:
    """The (kind, step start) columns a valid day read or step of `name` at `arg` needs."""
    if name.endswith("_day"):
        kinds, hours = (name.removesuffix("_day"),), range(clock.hour(arg), clock.hour(arg + 1))
    else:
        kinds, hours = ("traffic", "users") if name == "step_network" else ("users",), (arg,)
    step = {"traffic": clock.traffic_step_hours, "users": clock.user_step_hours}
    return {(kind, h - h % step[kind]) for kind in kinds for h in hours}


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@st.composite
def oracle_queries(draw):
    """A day clock, then day reads (valid and out-of-horizon) and steps at any hour, interleaved
    and with repeats mixed in."""
    steps = st.sampled_from([1, 2, 3, 4, 6, 8, 12])
    clock = two_cell_config(horizon_hours=5 * 24, traffic_step_hours=draw(steps), user_step_hours=draw(steps))
    days = st.tuples(st.sampled_from(["traffic_day", "users_day"]), st.integers(-1, clock.n_days))
    hours = st.tuples(st.sampled_from(["step_network", "users_and_shadowing"]),
                      st.integers(0, clock.horizon_hours - 1))
    queries = draw(st.lists(st.one_of(days, hours), min_size=1, max_size=12))
    return clock, draw(st.permutations(queries + draw(st.lists(st.sampled_from(queries), max_size=6))))


class TestColumnStore:
    @settings(max_examples=40, deadline=None)
    @given(oracle_queries())
    def test_any_interleaving_matches_a_fresh_oracle_and_draws_each_column_once(self, case):
        clock, queries = case
        oracle = Oracle(clock)
        calls, columns = count_draws(oracle), set()
        width = {"traffic": len(clock.cell_configs), "users": len(clock.grids)}
        for name, arg in queries:
            if name.endswith("_day") and not 0 <= arg < clock.n_days:
                with pytest.raises(DomainError):
                    getattr(oracle, name)(arg)
            else:
                got, want = getattr(oracle, name)(arg), getattr(Oracle(clock), name)(arg)
                if name == "step_network":
                    got, want = ([getattr(s, f.name) for f in fields(NetworkState)] for s in (got, want))
                elif name.endswith("_day"):
                    got, want = [got], [want]
                assert_same_bits(got, want)
                columns |= columns_read(clock, name, arg)
            # Each column read so far is held and was drawn once, one value per cell or grid.
            assert oracle._columns.keys() == columns
            assert Counter(calls) == {col: width[col[0]] for col in columns}


class ReferenceOracle(Oracle):
    """The per-value seeding the bulk path replaced: one SeedSequence and one Generator per value."""

    def _rng(self, tag, index, t_hours):
        ident = self.cells[index].id if tag == 1 else index  # tag 1 is traffic, keyed by cell id
        return np.random.default_rng(np.random.SeedSequence((self.config.seed, tag, ident, t_hours)))


# Integers of one 32-bit word and of several: key_states hashes keys whose id and
# hour are one word each itself, at any seed, and hands a key with a wider id or
# hour to numpy's SeedSequence.
KEY_INTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70),
                     st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]))


class TestKeyedDraws:
    @settings(max_examples=150, deadline=None)
    @given(KEY_INTS, st.integers(1, 4), st.lists(KEY_INTS, min_size=1, max_size=4),
           st.lists(KEY_INTS, min_size=1, max_size=4))
    def test_bulk_hash_is_the_seed_sequence_state(self, seed, tag, ids, hours):
        got = key_states((seed, tag), ids, hours)
        assert got.dtype == np.uint64 and got.shape == (len(ids), len(hours), 4)
        for i, ident in enumerate(ids):
            for j, hour in enumerate(hours):
                want = np.random.SeedSequence((seed, tag, ident, hour)).generate_state(4, np.uint64)
                assert got[i, j].tobytes() == want.tobytes()

    @pytest.mark.parametrize("position", ["seed", "id", "hour"])
    @pytest.mark.parametrize("value", [2**32 - 1, 2**32])  # the widest one-word integer, then two words
    def test_each_key_position_at_the_word_edge(self, position, value):
        key = {"seed": 7, "id": 3, "hour": 30, position: value}
        ids, hours = [key["id"], 4], [key["hour"], 31]
        got = key_states((key["seed"], 2), ids, hours)
        for (i, ident), (j, hour) in itertools.product(enumerate(ids), enumerate(hours)):
            want = np.random.SeedSequence((key["seed"], 2, ident, hour)).generate_state(4, np.uint64)
            assert got[i, j].tobytes() == want.tobytes()

    def test_a_negative_id_raises_numpys_error(self):
        with pytest.raises(ValueError):
            key_states((0, 1), [0, -1], range(24))

    # 2**32 - 1 keeps every key at four words. A seed of 2**32 or more widens every key of a
    # block alike, so the block stays on the bulk path too: per-key hashing there made a
    # 16-day hex7 collect about 3x slower.
    @pytest.mark.parametrize("seed", [2**32 - 1, 10**12 + 7])
    def test_a_day_of_keys_never_builds_a_seed_sequence(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("a key of a day block was handed to np.random.SeedSequence")

        config = make_hex_scenario(seed=seed)
        reference = ReferenceOracle(config)
        want = (reference.traffic_day(1), reference.users_day(1), *reference.users_and_shadowing(30))
        oracle = Oracle(config)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert_same_bits((oracle.traffic_day(1), oracle.users_day(1), *oracle.users_and_shadowing(30)), want)
        assert set(oracle._key_states) == {(tag, 1) for tag in (1, 2, 3, 4)}

    @settings(max_examples=40, deadline=None)
    @given(KEY_INTS, st.lists(KEY_INTS, min_size=7, max_size=7, unique=True), st.integers(0, 47))
    def test_every_draw_is_the_per_value_draw(self, seed, ids, t):
        config = make_hex_scenario(seed=seed, grid_dim=2, horizon_hours=48)
        new_id = {c.id: i for c, i in zip(config.cell_configs, ids)}
        config = replace(config, cell_configs=tuple(
            replace(c, id=new_id[c.id], neighbors=tuple(new_id[nb] for nb in c.neighbors))
            for c in config.cell_configs))
        oracle, reference = Oracle(config), ReferenceOracle(config)
        # Normal draws (traffic), Poisson draws (user counts), then uniform positions and normal shadowing.
        for name in ("traffic_day", "users_day"):
            assert_same_bits([getattr(oracle, name)(t // 24)], [getattr(reference, name)(t // 24)])
        counts, positions, shadowing = oracle.users_and_shadowing(t)
        assert counts.any() and shadowing.shape == (counts.sum(), 7)
        assert_same_bits((counts, positions, shadowing), reference.users_and_shadowing(t))


class TestPrefixDraws:
    """numpy's Generator fills a uniform or normal array in row-major order, so the first m
    rows of a grid's draw are what a draw of m rows from the same key gives. Drawing only the
    users a caller keeps would leave each kept user's bits alone. Pinned per numpy build: CI
    runs it on the oldest numpy allowed as well."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**40), st.integers(0, 47), st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_a_grids_first_users_are_a_shorter_draw_of_its_key(self, seed, t, shares):
        oracle = Oracle(make_hex_scenario(seed=seed, grid_dim=2, horizon_hours=48))
        counts, positions, shadowing = oracle.users_and_shadowing(t)
        half, sigma = oracle.grid_edge_km / 2.0, oracle.config.shadowing_sigma_db
        starts = np.cumsum(counts) - counts
        for g, share in enumerate(shares):
            m = int(share * counts[g])
            pos, shadow = (np.random.default_rng(np.random.SeedSequence((seed, tag, g, t)))
                           for tag in (_S_POS, _S_SHADOW))
            rows = slice(starts[g], starts[g] + m)
            assert np.array_equal(positions[rows], oracle.grid_positions[g] + pos.uniform(-half, half, size=(m, 2)))
            assert np.array_equal(shadowing[rows], shadow.normal(0.0, sigma, size=(m, oracle.n_cells)))


DAY_CFG = two_cell_config(horizon_hours=5 * 24)


@st.composite
def day_reads(draw):
    """(reader, day) calls over up to every valid and out-of-horizon read, with repeats mixed in."""
    reads = st.tuples(st.sampled_from(["traffic_day", "users_day"]), st.integers(-1, DAY_CFG.n_days))
    distinct = draw(st.lists(reads, min_size=5, max_size=2 * (DAY_CFG.n_days + 2), unique=True))
    return draw(st.permutations(distinct + draw(st.lists(st.sampled_from(distinct), max_size=8))))


class TestDayStore:
    @settings(max_examples=25, deadline=None)
    @given(day_reads())
    def test_day_reads_match_a_fresh_oracle(self, reads):
        oracle, columns = Oracle(DAY_CFG), set()
        for name, day in reads:
            if not 0 <= day < DAY_CFG.n_days:
                with pytest.raises(DomainError):
                    getattr(oracle, name)(day)
            else:
                got = getattr(oracle, name)(day)
                assert_same_bits([got], [getattr(Oracle(DAY_CFG), name)(day)])
                got[...] = -1.0  # the caller owns what it is given; a repeat read is unchanged
                columns |= columns_read(DAY_CFG, name, day)
            # The store holds each column of every valid day read, and a bad day adds none.
            assert oracle._columns.keys() == columns

    def test_collect_draws_each_user_count_once(self):
        oracle = Oracle(DAY_CFG)
        calls = []
        users_at = oracle.users_at
        oracle.users_at = lambda *args: calls.append(args) or users_at(*args)
        collect_dataset(oracle, n_days=DAY_CFG.n_days)
        assert len(calls) == DAY_CFG.n_days * len(DAY_CFG.grids) * DAY_CFG.user_steps_per_day

    def test_a_repeated_day_read_draws_nothing(self):
        oracle = Oracle(DAY_CFG)
        calls = count_draws(oracle)
        first = (oracle.traffic_day(1), oracle.users_day(1), oracle.traffic_day(0))
        drawn = len(calls)
        for day in first:
            day[...] = -1.0  # writing into a returned day leaves the next read unchanged
        again = (oracle.traffic_day(1), oracle.users_day(1), oracle.traffic_day(0))
        assert drawn == 2 * len(DAY_CFG.cell_configs) * DAY_CFG.steps_per_day + len(DAY_CFG.grids) * DAY_CFG.user_steps_per_day
        assert len(calls) == drawn
        fresh = Oracle(DAY_CFG)
        assert_same_bits(again, (fresh.traffic_day(1), fresh.users_day(1), fresh.traffic_day(0)))

    @settings(max_examples=25, deadline=None)
    @given(day_reads(), st.lists(st.integers(0, DAY_CFG.horizon_hours - 1), min_size=1, max_size=12))
    def test_steps_after_day_reads_match_a_fresh_oracle(self, reads, ts):
        oracle = Oracle(DAY_CFG)
        for name, day in reads:
            if 0 <= day < DAY_CFG.n_days:
                getattr(oracle, name)(day)
        for t in ts:  # any hour, not only a step's first
            got, want = oracle.step_network(t), Oracle(DAY_CFG).step_network(t)
            pairs = [(getattr(got, f.name), getattr(want, f.name)) for f in fields(NetworkState)]
            pairs += zip(oracle.users_and_shadowing(t), Oracle(DAY_CFG).users_and_shadowing(t))
            for g, w in pairs:
                g, w = np.asarray(g), np.asarray(w)
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_steps_of_a_read_day_draw_no_traffic_or_users(self):
        oracle = Oracle(DAY_CFG)
        calls = []
        traffic_at, users_at = oracle.traffic_at, oracle.users_at
        oracle.traffic_at = lambda *args: calls.append("traffic") or traffic_at(*args)
        oracle.users_at = lambda *args: calls.append("users") or users_at(*args)
        oracle.traffic_day(1), oracle.users_day(1)
        drawn = len(calls)
        for t in range(24, 48):
            oracle.step_network(t)
        assert drawn > 0 and len(calls) == drawn
        oracle.step_network(48)  # a day the store lacks draws as before
        assert sorted(calls[drawn:]) == ["traffic"] * len(DAY_CFG.cell_configs) + ["users"] * len(DAY_CFG.grids)


class TestScenarioJson:
    def test_roundtrip(self):
        cfg = make_hex_scenario(seed=4)
        again = scenario_from_dict(asdict(cfg))
        assert again == cfg

    def test_unknown_key_rejected(self):
        data = asdict(make_hex_scenario())
        data["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("edit, key", [
        (lambda data: data.update(traffic_amp=math.inf), "traffic_amp"),
        (lambda data: data.update(shadowing_sigma_db=math.nan), "shadowing_sigma_db"),
        (lambda data: data["cell_configs"][0].update(tx_power_dbm=-math.inf), "cell_configs[0].tx_power_dbm"),
    ])
    def test_non_finite_number_rejected(self, edit, key):
        data = asdict(make_hex_scenario())
        edit(data)
        with pytest.raises(ConfigError, match=re.escape(f"scenario key {key} must be a finite number")):
            scenario_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({**asdict(two_cell_config()), "traffic_noise_sigma": -0.5}, "scenario: traffic_noise_sigma must be >= 0"),
        ({"preset": "hex7", "seed": -2}, "scenario: seed must be >= 0, got -2"),
        ({"preset": "hex7", "grid_dim": 0}, "scenario: grid_dim must be positive, got 0"),
    ])
    def test_own_check_named_by_the_reader(self, data, message):
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            scenario_from_dict(data)

    def test_preset_form(self):
        cfg = scenario_from_dict({"preset": "hex7", "seed": 12, "grid_dim": 4})
        assert cfg.seed == 12 and len(cfg.grids) == 16 and len(cfg.cell_configs) == 7
