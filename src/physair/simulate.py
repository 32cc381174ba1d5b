"""Convection-diffusion simulator for synthetic ground-truth datasets.

Advances dx/dt = d * laplacian(x) - v . grad(x) + R(s, t) on a regular
grid with explicit finite differences: flux-form central differences
for diffusion, first-order donor-cell upwinding for convection, and
explicit source addition. Both stencils move mass between neighboring
cells in equal and opposite amounts, so with zero-flux boundaries and
no sources the total mass is conserved to rounding error.

The grid is row 0 = southern edge, rows increase northward, columns
increase eastward. Wind is hourly and spatially uniform, given as
(speed km/h, meteorological from-direction degrees), the same
convention as the sensor datasets.

Each simulated hour is divided into equal sub-steps small enough that
dt <= min(cell / |v|, cell^2 / (4 d)) holds with room to spare; the
combined stability bound dt * ((|vx|+|vy|)/cell + 4 d / cell^2) <= 1 is
what the solver actually enforces, which implies the looser pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, floor_hour, parse_timestamp
from .errors import ValidationError
from .geo import EARTH_RADIUS_KM, SensorMeta

logger = logging.getLogger(__name__)

MAX_SUBSTEPS_PER_HOUR = 10000
KM_PER_DEG_LAT = EARTH_RADIUS_KM * math.pi / 180.0
DEFAULT_START = "2024-01-01T00:00:00+00:00"


@dataclass(frozen=True)
class PointSource:
    """Constant emission into one cell over [start_hour, end_hour)."""

    row: int
    col: int
    rate: float          # concentration added per hour while active
    start_hour: int = 0
    end_hour: int = 10 ** 9

    def active(self, hour: int) -> bool:
        return self.start_hour <= hour < self.end_hour


@dataclass
class SynthSpec:
    """Everything needed to regenerate one synthetic dataset."""

    height: int = 32
    width: int = 32
    cell_km: float = 0.5
    diffusion_km2h: float = 0.3
    decay_per_h: float = 0.0
    hours: int = 240
    wind: np.ndarray = None          # (hours, 2): speed km/h, from-dir deg
    sources: tuple = ()
    sensor_cells: tuple = ()         # ((row, col), ...)
    noise_sd: float = 0.5
    background: float = 0.0
    seed: int = 0
    origin_lat: float = 36.7
    origin_lon: float = -119.8
    start: str = DEFAULT_START

    def validate(self) -> "SynthSpec":
        for name in ("cell_km", "diffusion_km2h", "decay_per_h", "noise_sd",
                     "background", "origin_lat", "origin_lon"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.height < 3 or self.width < 3:
            raise ValidationError("grid must be at least 3x3")
        if self.hours < 1:
            raise ValidationError("hours must be >= 1")
        if self.cell_km <= 0:
            raise ValidationError("cell_km must be positive")
        if self.diffusion_km2h < 0 or self.decay_per_h < 0:
            raise ValidationError("diffusion and decay must be >= 0")
        if self.noise_sd < 0 or self.background < 0:
            raise ValidationError("noise_sd and background must be >= 0")
        wind = np.asarray(self.wind, dtype=float)
        if wind.shape != (self.hours, 2):
            raise ValidationError(
                f"wind must be ({self.hours}, 2), got {wind.shape}")
        if not np.isfinite(wind).all() or np.any(wind[:, 0] < 0):
            raise ValidationError("wind must be finite with speed >= 0")
        self.wind = wind
        for s in self.sources:
            if not (0 <= s.row < self.height and 0 <= s.col < self.width):
                raise ValidationError(f"source cell {(s.row, s.col)} outside grid")
            if not (math.isfinite(s.rate) and s.rate >= 0):
                raise ValidationError(f"source rate must be finite and >= 0, got {s.rate!r}")
        for (r, c) in self.sensor_cells:
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ValidationError(f"sensor cell {(r, c)} outside grid")
        return self

    def to_dict(self) -> dict:
        # Wind is kept out: the exported wind.csv already carries it.
        return {
            "height": self.height, "width": self.width,
            "cell_km": self.cell_km,
            "diffusion_km2h": self.diffusion_km2h,
            "decay_per_h": self.decay_per_h,
            "hours": self.hours,
            "sources": [[s.row, s.col, s.rate, s.start_hour, s.end_hour]
                        for s in self.sources],
            "sensor_cells": [list(rc) for rc in self.sensor_cells],
            "noise_sd": self.noise_sd,
            "background": self.background,
            "seed": self.seed,
            "origin_lat": self.origin_lat,
            "origin_lon": self.origin_lon,
            "start": self.start,
        }


@dataclass
class SimulationResult:
    spec: SynthSpec
    fields: np.ndarray        # (hours, height, width), end-of-hour state
    readings: np.ndarray      # (hours, n_sensors), noisy, clamped >= 0
    mass: np.ndarray          # (hours,) total concentration after each hour
    clamped_cells: int = 0
    clamped_readings: int = 0


def wind_velocity(speed_kmh: float, from_dir_deg: float) -> tuple[float, float]:
    """East/north velocity components of wind given in from-direction."""
    toward = math.radians((from_dir_deg + 180.0) % 360.0)
    return speed_kmh * math.sin(toward), speed_kmh * math.cos(toward)


def _substeps_needed(spec: SynthSpec, vx: float, vy: float) -> int:
    rate = ((abs(vx) + abs(vy)) / spec.cell_km
            + 4.0 * spec.diffusion_km2h / spec.cell_km ** 2
            + spec.decay_per_h)
    n = max(1, math.ceil(rate))
    if n > MAX_SUBSTEPS_PER_HOUR:
        raise ValidationError(
            f"stability requires {n} sub-steps per hour "
            f"(> {MAX_SUBSTEPS_PER_HOUR}); reduce wind speed, diffusion, "
            "or use a coarser time base")
    return n


def advance_hour(x: np.ndarray, spec: SynthSpec, hour: int) -> tuple[np.ndarray, int]:
    """One simulated hour; returns the new field and clamp count."""
    speed, from_dir = float(spec.wind[hour][0]), float(spec.wind[hour][1])
    vx, vy = wind_velocity(speed, from_dir)
    n_sub = _substeps_needed(spec, vx, vy)
    dt = 1.0 / n_sub
    dx = spec.cell_km
    c_diff = spec.diffusion_km2h * dt / dx ** 2
    cx = vx * dt / dx
    cy = vy * dt / dx
    active = [s for s in spec.sources if s.active(hour)]
    clamped = 0

    for _ in range(n_sub):
        upd = np.zeros_like(x)
        if c_diff > 0.0:
            dv = x[1:, :] - x[:-1, :]
            upd[:-1, :] += c_diff * dv
            upd[1:, :] -= c_diff * dv
            dh = x[:, 1:] - x[:, :-1]
            upd[:, :-1] += c_diff * dh
            upd[:, 1:] -= c_diff * dh
        if cx != 0.0:
            flux = cx * (x[:, :-1] if cx > 0 else x[:, 1:])
            upd[:, :-1] -= flux
            upd[:, 1:] += flux
        if cy != 0.0:
            flux = cy * (x[:-1, :] if cy > 0 else x[1:, :])
            upd[:-1, :] -= flux
            upd[1:, :] += flux
        if spec.decay_per_h > 0.0:
            upd -= spec.decay_per_h * dt * x
        for s in active:
            upd[s.row, s.col] += s.rate * dt
        x = x + upd
        negative = x < 0.0
        if negative.any():
            clamped += int(negative.sum())
            x[negative] = 0.0
    return x, clamped


def simulate_field(spec: SynthSpec) -> SimulationResult:
    """Run the full simulation and sample noisy sensor readings."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    x = np.full((spec.height, spec.width), float(spec.background))
    fields = np.empty((spec.hours, spec.height, spec.width))
    mass = np.empty(spec.hours)
    n_sensors = len(spec.sensor_cells)
    readings = np.empty((spec.hours, n_sensors))
    clamped_cells = 0
    clamped_readings = 0

    for hour in range(spec.hours):
        x, clamped = advance_hour(x, spec, hour)
        clamped_cells += clamped
        fields[hour] = x
        mass[hour] = x.sum()
        if n_sensors:
            truth = np.array([x[r, c] for (r, c) in spec.sensor_cells])
            noisy = truth + rng.normal(0.0, spec.noise_sd, n_sensors) \
                if spec.noise_sd > 0 else truth.copy()
            below = noisy < 0.0
            clamped_readings += int(below.sum())
            noisy[below] = 0.0
            readings[hour] = noisy

    if clamped_cells:
        logger.info("clamped %d negative cell values across the run",
                    clamped_cells)
    return SimulationResult(spec=spec, fields=fields, readings=readings,
                            mass=mass, clamped_cells=clamped_cells,
                            clamped_readings=clamped_readings)


def cell_coordinates(spec: SynthSpec, row: int, col: int) -> tuple[float, float]:
    """Latitude/longitude of a grid cell center (equirectangular)."""
    lat = spec.origin_lat + (row * spec.cell_km) / KM_PER_DEG_LAT
    lon = spec.origin_lon + (col * spec.cell_km) / (
        KM_PER_DEG_LAT * math.cos(math.radians(spec.origin_lat)))
    return lat, lon


def make_synthetic_dataset(spec: SynthSpec) -> tuple[Dataset, SimulationResult]:
    """Simulate and package readings as a canonical-format dataset."""
    result = simulate_field(spec)
    width = max(2, len(str(len(spec.sensor_cells) - 1)))
    sensors = []
    for i, (r, c) in enumerate(spec.sensor_cells):
        lat, lon = cell_coordinates(spec, r, c)
        sensors.append(SensorMeta(f"s{i:0{width}d}", lat, lon))
    dataset = Dataset(
        sensors=tuple(sensors),
        start=floor_hour(parse_timestamp(spec.start)),
        pm25=result.readings.copy(),
        wind=np.asarray(spec.wind, dtype=float).copy(),
        provenance="synthetic",
        seed=spec.seed,
        extra={"generator": spec.to_dict()},
    )
    return dataset.validate(), result


def sinusoidal_wind(hours: int, base_speed: float = 8.0,
                    speed_amp: float = 5.0, mean_dir: float = 300.0,
                    dir_swing: float = 50.0, phase: float = 0.0) -> np.ndarray:
    """Daily-periodic wind schedule: (hours, 2) speed and from-direction."""
    h = np.arange(hours)
    angle = 2.0 * np.pi * (h % 24) / 24.0
    speed = np.maximum(0.0, base_speed + speed_amp * np.sin(angle + phase))
    direction = (mean_dir + dir_swing * np.sin(angle + 1.0 + phase)) % 360.0
    return np.column_stack([speed, direction])


def default_synth_spec(hours: int = 2928, seed: int = 0, n_sensors: int = 40,
                       noise_sd: float = 0.5, height: int = 32,
                       width: int = 32) -> SynthSpec:
    """The standard verification dataset recipe.

    32x32 grid of 0.5 km cells, diffusion 0.3 km2/h, a gentle uniform
    decay so concentrations reach a bounded quasi-steady state, two to
    four point sources switching through random on/off windows, a
    sinusoidal daily wind, and random sensor placement. The default
    horizon of 2928 hours matches the four-month stretch the benchmark
    runs on; tests pass shorter horizons explicitly.
    """
    if height < 9 or width < 9:
        raise ValidationError(
            f"grid {height}x{width} too small; sources need interior cells "
            "at least 4 from every border")
    if n_sensors < 1 or n_sensors > height * width:
        raise ValidationError(
            f"cannot place {n_sensors} sensors on {height * width} cells")
    rng = np.random.default_rng(seed)
    n_sources = int(rng.integers(2, 5))
    sources = []
    for _ in range(n_sources):
        row = int(rng.integers(4, height - 4))
        col = int(rng.integers(4, width - 4))
        rate = float(rng.uniform(60.0, 160.0))
        hour = 0
        while hour < hours:
            on = int(rng.integers(6, 25))
            off = int(rng.integers(4, 16))
            sources.append(PointSource(row=row, col=col, rate=rate,
                                       start_hour=hour,
                                       end_hour=min(hours, hour + on)))
            hour += on + off
    cells = rng.choice(height * width, size=n_sensors, replace=False)
    sensor_cells = tuple((int(c) // width, int(c) % width) for c in cells)
    wind = sinusoidal_wind(hours, phase=float(rng.uniform(0, 2 * np.pi)))
    return SynthSpec(height=height, width=width, hours=hours,
                     decay_per_h=0.15, wind=wind, sources=tuple(sources),
                     sensor_cells=sensor_cells, noise_sd=noise_sd,
                     background=6.0, seed=seed).validate()
