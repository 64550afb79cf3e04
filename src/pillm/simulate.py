"""Deterministic single-zone HVAC simulator with fault injection.

The model is a first-order thermal zone under a bang-bang thermostat:

    outdoor[t]   = mean + amplitude * sin(2*pi*t / 1440) + noise
    zone[t + 1]  = zone[t] + a*(outdoor[t] - zone[t]) + b*heat[t]
                   - c*cool[t] + d*occupancy[t] + noise

One row per minute; the default horizon is two days. `generate_corpus` runs
the model once and applies any number of faults, from a small taxonomy, on
windows that neither overlap nor touch. Every fault is a per-row array, set
in one block per fault before the simulation loop; the loop itself steps only
the thermostat mode and the true zone temperature.

- `heating_coil_leak` (heat added while the valve is shut) and
  `simultaneous_heat_cool` (both valves forced open) are read by the loop.
  They change the dynamics, so the zone temperature, the thermostat and the
  fan respond downstream.
- `sensor_bias`, `sensor_drift` and `damper_stuck` change only what is
  reported: an offset added to `zone_temp` after the loop, or `damper_pos`
  held at the command of the window's first row. Nothing in the model reads
  the reported value, so no other column changes.

Labels are 1 exactly on the fault windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import FeatureMeta, TimeSeriesTable

SETPOINT_C = 22.0
HYSTERESIS_C = 0.5
MINUTES_PER_DAY = 1440
OCCUPIED_START_MIN = 480
OCCUPIED_END_MIN = 1080

FAULT_KINDS = (
    "heating_coil_leak",
    "damper_stuck",
    "sensor_bias",
    "sensor_drift",
    "simultaneous_heat_cool",
)

# Maximum sensor-fault magnitude; intensity scales it linearly.
SENSOR_FAULT_SPAN_C = 5.0

FEATURES = (
    FeatureMeta("outdoor_temp", "degC", "outdoor air dry-bulb temperature", "sensor"),
    FeatureMeta("zone_temp", "degC", "zone air temperature reported by the thermostat sensor", "sensor"),
    FeatureMeta("heat_cmd", "binary", "heating coil valve command, 0 closed or 1 open", "command"),
    FeatureMeta("cool_cmd", "binary", "cooling coil valve command, 0 closed or 1 open", "command"),
    FeatureMeta("damper_cmd", "fraction", "outdoor-air damper position command, fraction open", "command"),
    FeatureMeta("damper_pos", "fraction", "actual outdoor-air damper position, fraction open", "sensor"),
    FeatureMeta("fan_status", "binary", "supply fan on/off status from the schedule", "status"),
    FeatureMeta("fan_speed", "fraction", "supply fan speed, fraction of maximum", "sensor"),
    FeatureMeta("occupancy", "binary", "zone occupancy flag from the schedule", "status"),
)


class SimulationError(ValueError):
    """Invalid simulator configuration or fault specification."""


@dataclass(frozen=True)
class SimConfig:
    length: int = 2880
    seed: int = 0
    outdoor_mean: float = 15.0
    outdoor_amplitude: float = 4.0
    a: float = 0.03  # conduction gain toward outdoor, per step
    b: float = 0.4  # heating coil gain, degC per step
    c: float = 0.4  # cooling coil gain, degC per step
    d: float = 0.05  # occupancy heat gain, degC per step
    sigma: float = 0.02  # process/measurement noise, degC

    def __post_init__(self) -> None:
        if self.length < 2:
            raise SimulationError("length must be >= 2")
        if self.seed < 0:
            raise SimulationError("seed must be >= 0")
        if self.sigma < 0:
            raise SimulationError("sigma must be >= 0")
        if not 0.0 < self.a < 1.0:
            raise SimulationError("a must be in (0, 1)")


@dataclass(frozen=True)
class FaultSpec:
    kind: str
    intensity: float
    window: tuple[int, int]  # half-open row span [start, end)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(f"unknown fault kind {self.kind!r}")
        if not 0.0 < self.intensity <= 1.0:
            raise SimulationError("intensity must be in (0, 1]")
        start, end = self.window
        if start < 0 or end <= start:
            raise SimulationError("fault window must satisfy 0 <= start < end")


def thermostat_step(mode: int, zone: float) -> int:
    """Advance the bang-bang state: -1 cooling, 0 idle, +1 heating.

    Heating engages below setpoint - hysteresis and holds until the zone
    recovers to the setpoint; cooling mirrors it above.
    """
    if mode == 1 and zone >= SETPOINT_C:
        mode = 0
    elif mode == -1 and zone <= SETPOINT_C:
        mode = 0
    if mode == 0:
        if zone < SETPOINT_C - HYSTERESIS_C:
            mode = 1
        elif zone > SETPOINT_C + HYSTERESIS_C:
            mode = -1
    return mode


def zone_step(cfg: SimConfig, zone: float, outdoor: float, heat: float, cool: float, occupancy: float) -> float:
    """Deterministic part of the zone temperature update."""
    return zone + cfg.a * (outdoor - zone) + cfg.b * heat - cfg.c * cool + cfg.d * occupancy


def generate_corpus(cfg: SimConfig, *faults: FaultSpec) -> TimeSeriesTable:
    """Simulate one run with any number of faults; labels are 1 exactly on their windows.

    No two windows may overlap or touch, so each window is one incident of the labels.
    """
    n = cfg.length
    rng = np.random.default_rng(cfg.seed)
    outdoor_noise = rng.normal(0.0, cfg.sigma, n)
    zone_noise = rng.normal(0.0, cfg.sigma, n)

    t_arr = np.arange(n)
    outdoor = (
        cfg.outdoor_mean
        + cfg.outdoor_amplitude * np.sin(2.0 * np.pi * t_arr / MINUTES_PER_DAY)
        + outdoor_noise
    )
    minute_of_day = t_arr % MINUTES_PER_DAY
    occupancy = (
        (minute_of_day >= OCCUPIED_START_MIN) & (minute_of_day < OCCUPIED_END_MIN)
    ).astype(np.float64)
    # Demand-controlled ventilation: modulate around a base fraction while
    # occupied, minimum leakage position otherwise.
    damper_cmd = np.where(occupancy > 0.0, 0.3 + 0.2 * np.sin(2.0 * np.pi * t_arr / 240.0), 0.05)

    forced = np.zeros(n, dtype=bool)
    leak = np.zeros(n)
    sensor_offset = np.zeros(n)
    damper_pos = damper_cmd.copy()
    labels = np.zeros(n, dtype=np.uint8)
    # Each fault writes only its own rows, so the order of `faults` does not matter.
    for fault in faults:
        start, end = fault.window
        if end > n:
            raise SimulationError(f"fault window {fault.window} extends past {n} rows")
        if labels[max(start - 1, 0) : end + 1].any():
            raise SimulationError(f"fault window {fault.window} overlaps or touches another window")
        labels[start:end] = 1
        span = SENSOR_FAULT_SPAN_C * fault.intensity
        if fault.kind == "simultaneous_heat_cool":
            forced[start:end] = True
        elif fault.kind == "heating_coil_leak":
            leak[start:end] = cfg.b * fault.intensity
        elif fault.kind == "sensor_bias":
            sensor_offset[start:end] = span
        elif fault.kind == "sensor_drift":
            sensor_offset[start:end] = np.linspace(0.0, span, end - start)
        elif fault.kind == "damper_stuck":
            damper_pos[start:end] = damper_cmd[start]

    # A memoryview yields plain floats and bools, which step faster than numpy
    # scalars, without copying the inputs into lists.
    zone, heat_cmd, cool_cmd = [], [], []
    temp, mode = SETPOINT_C, 0
    rows = zip(*map(memoryview, (outdoor, occupancy, forced, leak, zone_noise)))
    for out, occ, force, leak_t, noise in rows:
        zone.append(temp)
        mode = thermostat_step(mode, temp)
        heat = 1.0 if mode == 1 or force else 0.0
        cool = 1.0 if mode == -1 or force else 0.0
        heat_cmd.append(heat)
        cool_cmd.append(cool)
        # The step after the last row is computed and dropped.
        temp = zone_step(cfg, temp, out, heat, cool, occ) + (0.0 if heat else leak_t) + noise
    zone, heat_cmd, cool_cmd = np.array(zone), np.array(heat_cmd), np.array(cool_cmd)
    fan_speed = occupancy * np.minimum(np.abs(zone - SETPOINT_C) / 2.0, 1.0)

    values = np.column_stack(
        [
            outdoor,
            zone + sensor_offset,
            heat_cmd,
            cool_cmd,
            damper_cmd,
            damper_pos,
            occupancy,  # fan_status tracks the occupancy schedule
            fan_speed,
            occupancy,
        ]
    )
    return TimeSeriesTable(
        features=FEATURES,
        values=values,
        timestamps=t_arr.astype(np.int64),
        labels=labels,
    )
