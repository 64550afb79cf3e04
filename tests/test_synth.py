import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillm.simulate import (
    FAULT_KINDS,
    FEATURES,
    HYSTERESIS_C,
    SENSOR_FAULT_SPAN_C,
    SETPOINT_C,
    FaultSpec,
    SimConfig,
    SimulationError,
    generate_corpus,
    thermostat_step,
    zone_step,
)
from pillm.timeseries import incidents_from_labels, save_csv

CFG = SimConfig(length=2000, seed=5)
WINDOW = (700, 900)


@pytest.fixture(scope="module")
def clean():
    return generate_corpus(CFG)


def faulted(kind: str, intensity: float = 1.0):
    return generate_corpus(CFG, FaultSpec(kind, intensity, WINDOW))


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(SimulationError):
            SimConfig(length=1)
        with pytest.raises(SimulationError, match="seed must be >= 0"):
            SimConfig(seed=-1)
        with pytest.raises(SimulationError):
            SimConfig(sigma=-0.1)
        with pytest.raises(SimulationError):
            SimConfig(a=0.0)
        with pytest.raises(SimulationError):
            SimConfig(a=1.5)

    def test_bad_fault_spec(self):
        with pytest.raises(SimulationError):
            FaultSpec("coil_explosion", 1.0, (0, 10))
        with pytest.raises(SimulationError):
            FaultSpec("sensor_bias", 0.0, (0, 10))
        with pytest.raises(SimulationError):
            FaultSpec("sensor_bias", 1.5, (0, 10))
        with pytest.raises(SimulationError):
            FaultSpec("sensor_bias", 1.0, (-1, 10))
        with pytest.raises(SimulationError):
            FaultSpec("sensor_bias", 1.0, (10, 10))

    @pytest.mark.parametrize("kind", ["sensor_bias", "heating_coil_leak"])
    def test_window_past_end_rejected(self, kind):
        spec = FaultSpec(kind, 1.0, (1990, 2010))
        with pytest.raises(SimulationError, match=r"fault window \(1990, 2010\) extends past 2000 rows"):
            generate_corpus(CFG, spec)


class TestCleanRun:
    def test_shape_and_schema(self, clean):
        assert clean.num_rows == CFG.length
        assert clean.feature_names == tuple(m.name for m in FEATURES)
        assert clean.has_labels
        np.testing.assert_array_equal(clean.timestamps, np.arange(CFG.length))

    def test_labels_all_zero(self, clean):
        assert clean.labels.sum() == 0

    def test_determinism(self, clean):
        assert generate_corpus(CFG) == clean

    def test_seed_changes_output(self, clean):
        other = generate_corpus(SimConfig(length=2000, seed=6))
        assert other != clean

    def test_commands_are_binary_and_exclusive(self, clean):
        heat, cool = clean.column("heat_cmd"), clean.column("cool_cmd")
        assert set(np.unique(heat)) <= {0.0, 1.0}
        assert set(np.unique(cool)) <= {0.0, 1.0}
        assert not np.any((heat == 1.0) & (cool == 1.0))

    def test_damper_tracks_command(self, clean):
        np.testing.assert_array_equal(clean.column("damper_pos"), clean.column("damper_cmd"))

    def test_occupancy_schedule(self, clean):
        minute = np.arange(CFG.length) % 1440
        expected = ((minute >= 480) & (minute < 1080)).astype(float)
        np.testing.assert_array_equal(clean.column("occupancy"), expected)
        np.testing.assert_array_equal(clean.column("fan_status"), expected)

    def test_fan_speed_law(self, clean):
        zone = clean.column("zone_temp")
        expected = clean.column("occupancy") * np.minimum(np.abs(zone - SETPOINT_C) / 2.0, 1.0)
        np.testing.assert_allclose(clean.column("fan_speed"), expected, atol=1e-12)

    def test_damper_schedule_bounds(self, clean):
        cmd = clean.column("damper_cmd")
        occupied = clean.column("occupancy").astype(bool)
        assert np.all(cmd[~occupied] == 0.05)
        assert np.all(cmd[occupied] >= 0.3 - 0.2 - 1e-12)
        assert np.all(cmd[occupied] <= 0.3 + 0.2 + 1e-12)

    def test_zone_held_near_setpoint(self, clean):
        zone = clean.column("zone_temp")[100:]
        assert np.all(zone > SETPOINT_C - 2.0)
        assert np.all(zone < SETPOINT_C + 2.0)

    def test_outdoor_sinusoid_noise_free(self):
        cfg = SimConfig(length=1500, seed=0, sigma=0.0)
        table = generate_corpus(cfg)
        t = np.arange(1500)
        expected = cfg.outdoor_mean + cfg.outdoor_amplitude * np.sin(2 * np.pi * t / 1440)
        np.testing.assert_allclose(table.column("outdoor_temp"), expected, atol=1e-12)


class TestStepLaws:
    def test_zone_step_hand_numbers(self):
        cfg = SimConfig(length=2, a=0.1, b=0.5, c=0.3, d=0.05)
        assert zone_step(cfg, 20.0, 10.0, 1.0, 0.0, 1.0) == pytest.approx(
            20.0 + 0.1 * (10.0 - 20.0) + 0.5 + 0.05
        )
        assert zone_step(cfg, 24.0, 30.0, 0.0, 1.0, 0.0) == pytest.approx(
            24.0 + 0.1 * (30.0 - 24.0) - 0.3
        )

    def test_zone_step_signs(self):
        cfg = SimConfig(length=2)
        base = zone_step(cfg, 22.0, 22.0, 0.0, 0.0, 0.0)
        assert zone_step(cfg, 22.0, 22.0, 1.0, 0.0, 0.0) > base
        assert zone_step(cfg, 22.0, 22.0, 0.0, 1.0, 0.0) < base
        assert zone_step(cfg, 22.0, 22.0, 0.0, 0.0, 1.0) > base
        assert zone_step(cfg, 22.0, 30.0, 0.0, 0.0, 0.0) > base

    def test_thermostat_engages_below_deadband(self):
        assert thermostat_step(0, SETPOINT_C - HYSTERESIS_C - 0.1) == 1
        assert thermostat_step(0, SETPOINT_C - HYSTERESIS_C + 0.1) == 0
        assert thermostat_step(0, SETPOINT_C + HYSTERESIS_C + 0.1) == -1
        assert thermostat_step(0, SETPOINT_C + HYSTERESIS_C - 0.1) == 0

    def test_thermostat_holds_until_setpoint(self):
        assert thermostat_step(1, SETPOINT_C - 0.1) == 1
        assert thermostat_step(1, SETPOINT_C) == 0
        assert thermostat_step(-1, SETPOINT_C + 0.1) == -1
        assert thermostat_step(-1, SETPOINT_C) == 0

    def test_noise_free_convergence_toward_outdoor(self):
        # With no coils and no noise the zone relaxes geometrically.
        cfg = SimConfig(length=2, a=0.2, sigma=0.0)
        zone, outdoor = 30.0, 20.0
        gaps = []
        for _ in range(10):
            zone = zone_step(cfg, zone, outdoor, 0.0, 0.0, 0.0)
            gaps.append(zone - outdoor)
        np.testing.assert_allclose(gaps, [10.0 * 0.8 ** (k + 1) for k in range(10)], rtol=1e-12)


class TestFaults:
    def test_every_kind_labels_exactly_the_window(self):
        for kind in FAULT_KINDS:
            table = faulted(kind)
            expected = np.zeros(CFG.length, dtype=np.uint8)
            expected[WINDOW[0] : WINDOW[1]] = 1
            np.testing.assert_array_equal(table.labels, expected, err_msg=kind)

    def test_sensor_bias_is_exact_offset(self, clean):
        table = faulted("sensor_bias", 0.6)
        delta = table.column("zone_temp") - clean.column("zone_temp")
        np.testing.assert_allclose(
            delta[WINDOW[0] : WINDOW[1]], SENSOR_FAULT_SPAN_C * 0.6, atol=1e-12
        )
        assert np.all(delta[: WINDOW[0]] == 0.0)
        assert np.all(delta[WINDOW[1] :] == 0.0)

    @pytest.mark.parametrize(
        "kind, column",
        [("sensor_bias", "zone_temp"), ("sensor_drift", "zone_temp"), ("damper_stuck", "damper_pos")],
    )
    def test_sensor_bias_leaves_dynamics_alone(self, clean, kind, column):
        table = faulted(kind)
        for name in table.feature_names:
            if name == column:
                continue
            np.testing.assert_array_equal(table.column(name), clean.column(name), err_msg=name)

    def test_sensor_drift_ramp(self, clean):
        table = faulted("sensor_drift", 0.8)
        delta = table.column("zone_temp") - clean.column("zone_temp")
        ramp = delta[WINDOW[0] : WINDOW[1]]
        assert ramp[0] == pytest.approx(0.0, abs=1e-12)
        assert ramp[-1] == pytest.approx(SENSOR_FAULT_SPAN_C * 0.8, abs=1e-12)
        assert np.all(np.diff(ramp) > 0)
        assert np.all(delta[WINDOW[1] :] == 0.0)

    def test_damper_stuck_freezes_position(self, clean):
        table = faulted("damper_stuck")
        pos = table.column("damper_pos")
        cmd = table.column("damper_cmd")
        stuck = pos[WINDOW[0] : WINDOW[1]]
        assert np.all(stuck == stuck[0])
        assert np.std(cmd[WINDOW[0] : WINDOW[1]]) > 0.01
        np.testing.assert_array_equal(pos[: WINDOW[0]], cmd[: WINDOW[0]])
        np.testing.assert_array_equal(pos[WINDOW[1] :], cmd[WINDOW[1] :])

    def test_simultaneous_heat_cool_forces_both(self, clean):
        table = faulted("simultaneous_heat_cool")
        heat = table.column("heat_cmd")[WINDOW[0] : WINDOW[1]]
        cool = table.column("cool_cmd")[WINDOW[0] : WINDOW[1]]
        assert np.all(heat == 1.0)
        assert np.all(cool == 1.0)
        # Outside the window the interlock is intact again.
        both = (table.column("heat_cmd") == 1.0) & (table.column("cool_cmd") == 1.0)
        assert not np.any(both[: WINDOW[0]])

    def test_heating_coil_leak_warms_the_zone(self, clean):
        table = faulted("heating_coil_leak")
        zone_delta = table.column("zone_temp") - clean.column("zone_temp")
        in_window = zone_delta[WINDOW[0] + 1 : WINDOW[1]]
        assert in_window.mean() > 0.1
        assert np.all(zone_delta[: WINDOW[0] + 1] == 0.0)

    def test_resimulated_faults_share_clean_prefix(self, clean):
        for kind in ("damper_stuck", "simultaneous_heat_cool", "heating_coil_leak"):
            table = faulted(kind)
            np.testing.assert_array_equal(
                table.values[: WINDOW[0]], clean.values[: WINDOW[0]], err_msg=kind
            )

    def test_faulted_corpus_is_deterministic(self):
        spec = FaultSpec("damper_stuck", 1.0, WINDOW)
        assert generate_corpus(CFG, spec) == generate_corpus(CFG, spec)


# One fault of each kind, on windows that neither overlap nor touch.
FIVE = tuple(
    FaultSpec(kind, 0.7, (100 + 400 * i, 300 + 400 * i)) for i, kind in enumerate(FAULT_KINDS)
)


def inclusive(faults) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((f.window[0], f.window[1] - 1) for f in faults))


def assert_causal(cfg: SimConfig, faults) -> None:
    """With faults sorted by start, rows before each start match the corpus of the earlier faults only."""
    faults = sorted(faults, key=lambda f: f.window)
    table = generate_corpus(cfg, *faults)
    for i, fault in enumerate(faults):
        start = fault.window[0]
        earlier = generate_corpus(cfg, *faults[:i])
        np.testing.assert_array_equal(table.values[:start], earlier.values[:start])
        np.testing.assert_array_equal(table.labels[:start], earlier.labels[:start])


class TestManyFaults:
    def test_two_reported_faults_compose(self, clean):
        bias = FaultSpec("sensor_bias", 0.6, (200, 500))
        stuck = FaultSpec("damper_stuck", 1.0, (900, 1200))
        table = generate_corpus(CFG, bias, stuck)
        assert incidents_from_labels(table.labels) == ((200, 499), (900, 1199))
        want = {"zone_temp": generate_corpus(CFG, bias), "damper_pos": generate_corpus(CFG, stuck)}
        for name in table.feature_names:
            np.testing.assert_array_equal(
                table.column(name), want.get(name, clean).column(name), err_msg=name
            )

    def test_two_dynamic_faults(self):
        leak = FaultSpec("heating_coil_leak", 1.0, WINDOW)
        forced = FaultSpec("simultaneous_heat_cool", 1.0, (1500, 1600))
        table = generate_corpus(CFG, forced, leak)
        assert incidents_from_labels(table.labels) == ((700, 899), (1500, 1599))
        # Until the second window the run is the leak's alone.
        np.testing.assert_array_equal(table.values[:1500], faulted("heating_coil_leak").values[:1500])
        assert np.all(table.column("heat_cmd")[1500:1600] == 1.0)
        assert np.all(table.column("cool_cmd")[1500:1600] == 1.0)

    def test_all_five_kinds_in_one_corpus(self):
        table = generate_corpus(CFG, *FIVE)
        assert incidents_from_labels(table.labels) == inclusive(FIVE)
        windows = {f.kind: slice(*f.window) for f in FIVE}
        heat, cool = table.column("heat_cmd"), table.column("cool_cmd")
        forced = windows["simultaneous_heat_cool"]
        assert np.all(heat[forced] == 1.0) and np.all(cool[forced] == 1.0)
        assert not np.any((heat == 1.0) & (cool == 1.0) & (table.labels == 0))
        stuck = table.column("damper_pos")[windows["damper_stuck"]]
        assert np.all(stuck == stuck[0])
        assert_causal(CFG, FIVE)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((700, 900), (800, 1000)),
            ((700, 900), (750, 800)),
            ((700, 900), (700, 900)),
            ((700, 900), (900, 950)),
        ],
        ids=["overlap", "inside", "same", "touch"],
    )
    def test_overlapping_or_touching_windows_raise(self, first, second):
        a = FaultSpec("sensor_bias", 1.0, first)
        b = FaultSpec("heating_coil_leak", 1.0, second)
        for faults, named in (((a, b), second), ((b, a), first)):
            with pytest.raises(SimulationError, match=rf"fault window \({named[0]}, {named[1]}\) overlaps"):
                generate_corpus(CFG, *faults)

    def test_a_gap_of_one_row_is_two_incidents(self):
        table = generate_corpus(
            CFG, FaultSpec("sensor_bias", 1.0, (700, 900)), FaultSpec("sensor_drift", 1.0, (901, 950))
        )
        assert incidents_from_labels(table.labels) == ((700, 899), (901, 949))

    def test_fault_order_does_not_matter(self):
        table = generate_corpus(CFG, *FIVE)
        for order in (FIVE[::-1], FIVE[2:] + FIVE[:2], (FIVE[3], FIVE[0], FIVE[4], FIVE[1], FIVE[2])):
            assert generate_corpus(CFG, *order) == table

    def test_one_row_drift_changes_no_column(self, clean):
        # np.linspace(0, span, 1) is [0.0], so the ramp's only row adds nothing.
        table = generate_corpus(CFG, FaultSpec("sensor_drift", 1.0, (700, 701)))
        np.testing.assert_array_equal(table.values, clean.values)
        assert incidents_from_labels(table.labels) == ((700, 700),)


@st.composite
def disjoint_faults(draw, length: int):
    """Faults of random kinds on random windows that neither overlap nor touch, in random order."""
    faults, start = [], draw(st.integers(0, 40))
    for _ in range(draw(st.integers(0, 5))):
        end = start + draw(st.integers(1, 60))
        if end > length:
            break
        kind = draw(st.sampled_from(FAULT_KINDS))
        intensity = draw(st.floats(0.1, 1.0))
        faults.append(FaultSpec(kind, intensity, (start, end)))
        start = end + draw(st.integers(1, 60))
    return draw(st.permutations(faults))


SMALL = SimConfig(length=300, seed=9)


@settings(max_examples=60, deadline=None)
@given(faults=disjoint_faults(SMALL.length), shuffle=st.randoms(use_true_random=False))
def test_any_disjoint_faults_are_their_windows_in_any_order(faults, shuffle):
    table = generate_corpus(SMALL, *faults)
    assert incidents_from_labels(table.labels) == inclusive(faults)
    reordered = list(faults)
    shuffle.shuffle(reordered)
    assert generate_corpus(SMALL, *reordered) == table
    assert_causal(SMALL, faults)


# sha256 of the data.csv that `pillm gen-data --length 2880 --seed 42` writes,
# clean and for every fault kind at intensity 0.6, with windows at the start,
# in the middle and at the very end of the series.
CORPUS_SHA256 = {
    None: "b1b40ead1d3903dc17d6371ce604494db57c306a372b9916bbe05b91ec770ac1",
    ("heating_coil_leak", (1000, 1400)): "f33d1ca06e0c7fc5e113d51e8d53f51923cf5ec5285aa490c3054d4dfc60716c",
    ("damper_stuck", (1000, 1400)): "6e1333e4d90ae0866269445727a48c4e02ecd98a7ce195101d4354e5cb9e55d8",
    ("sensor_bias", (1000, 1400)): "a34e037861a975f8f2318c5317243e072f38180ac853f6c03bdd394fb506f9a3",
    ("sensor_drift", (1000, 1400)): "2633abd024423229d5f01961c6ff9508fa693add981845a019dae9818f3e91b7",
    ("simultaneous_heat_cool", (1000, 1400)): "ee96e40ad4a593dc7159ce40bc4d590e98ada5eccc6c19edd73e2952c97e8ec7",
    ("heating_coil_leak", (0, 400)): "eb0b14b1c2fb3f1fce7a52f4be794a0e94f0fadb0f42eebbe11985509d314fa1",
    ("damper_stuck", (0, 400)): "2de8612f64a0c2c7ce92e768d36e82a4fc7fd57d3c9bf3c04a239c2280cf2286",
    ("sensor_bias", (0, 400)): "a4b46e29aefcf85df948bdb461395e95f9a222f473b3394527cb3460555a4d99",
    ("sensor_drift", (0, 400)): "93462f2e6c2b7b5addf06b03f1bcd6b1b87ab2567eebcc1be084432a8641e97d",
    ("simultaneous_heat_cool", (0, 400)): "9bc6dd1932ce6dd9d490ff3724ef11c453de1fd68ef39ff3d3e4fa115ade2c1d",
    ("heating_coil_leak", (2480, 2880)): "471cd242fe20e257ce32e63f56097ed127b447e6c90b46accdd51e84cef48e84",
    ("damper_stuck", (2480, 2880)): "4159869e4f5682da72230eff9ea5292d9c60c0a1a05c1da8807aeafd269ee27b",
    ("sensor_bias", (2480, 2880)): "37322bb882fb42665432b3a56f73eeb22a44654f786d254009d7b5c505955203",
    ("sensor_drift", (2480, 2880)): "1217a34fbd1a69afd6acb85ee13f83e5c2ddda6124b46c0aa94b164d0c43160b",
    ("simultaneous_heat_cool", (2480, 2880)): "13cda181bfbe6ae7d1680ce2c1303fe5a85141b1b3d96d481e38e93744041aa0",
}


@pytest.mark.parametrize("case", list(CORPUS_SHA256), ids=str)
def test_corpus_bytes_are_pinned(case):
    faults = [] if case is None else [FaultSpec(case[0], 0.6, case[1])]
    data = save_csv(generate_corpus(SimConfig(length=2880, seed=42), *faults))
    assert hashlib.sha256(data).hexdigest() == CORPUS_SHA256[case]


# The same pins in a warm climate (outdoor mean 22 °C), where the thermostat
# itself cools: the default climate never enters mode -1 on a clean run. The
# second value is the number of rows with the cooling valve open.
WARM_CORPUS_SHA256 = {
    None: ("553cc53e1a82995492b5b7150a144b9f29518761107f3fe39a9dcf5dacebedd7", 319),
    "heating_coil_leak": ("5e29cf502bd751f6b4974f4c7485b205d8257e1948399dd461726adbf19e00f8", 470),
    "simultaneous_heat_cool": ("b1adfc90fca193ece792807d2b20de508b1abf2c81bddc3c7f8e8f2f8cffaa70", 719),
}


@pytest.mark.parametrize("kind", list(WARM_CORPUS_SHA256), ids=str)
def test_warm_corpus_bytes_are_pinned(kind):
    faults = [] if kind is None else [FaultSpec(kind, 0.6, (1000, 1400))]
    table = generate_corpus(SimConfig(length=2880, seed=42, outdoor_mean=22.0), *faults)
    digest, cooling_rows = WARM_CORPUS_SHA256[kind]
    assert int(table.column("cool_cmd").sum()) == cooling_rows
    assert hashlib.sha256(save_csv(table)).hexdigest() == digest
