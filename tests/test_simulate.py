"""Physics checks on the convection-diffusion simulator."""

import numpy as np
import pytest

from physair.data import export_dataset, load_dataset
from physair.errors import ValidationError
from physair.simulate import (
    PointSource,
    SynthSpec,
    default_synth_spec,
    make_synthetic_dataset,
    simulate_field,
    sinusoidal_wind,
    wind_velocity,
)


def calm_wind(hours):
    return np.zeros((hours, 2))


def pulse_spec(hours, **overrides):
    """A single pulse injected during hour 0, nothing afterwards."""
    base = dict(
        height=32, width=32, cell_km=0.5, diffusion_km2h=0.3,
        decay_per_h=0.0, hours=hours, wind=calm_wind(hours),
        sources=(PointSource(row=16, col=16, rate=100.0, end_hour=1),),
        sensor_cells=(), noise_sd=0.0, background=0.0, seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base).validate()


def center_of_mass(field):
    total = field.sum()
    rows, cols = np.indices(field.shape)
    return (rows * field).sum() / total, (cols * field).sum() / total


def spatial_variance(field):
    cr, cc = center_of_mass(field)
    rows, cols = np.indices(field.shape)
    w = field / field.sum()
    return ((rows - cr) ** 2 * w).sum() + ((cols - cc) ** 2 * w).sum()


# ---------------------------------------------------------------------------
# Wind conversion.
# ---------------------------------------------------------------------------

def test_wind_velocity_from_direction_convention():
    # Wind FROM the west (270) blows toward the east: +vx, no vy.
    vx, vy = wind_velocity(10.0, 270.0)
    assert abs(vx - 10.0) < 1e-12 and abs(vy) < 1e-12
    # Wind FROM the north (0) blows southward: -vy.
    vx, vy = wind_velocity(4.0, 0.0)
    assert abs(vx) < 1e-12 and abs(vy + 4.0) < 1e-12


# ---------------------------------------------------------------------------
# Conservation, transport, spreading.
# ---------------------------------------------------------------------------

def test_mass_conserved_without_wind_or_sources():
    result = simulate_field(pulse_spec(12))
    reference = result.mass[1]
    assert reference > 0
    rel = np.abs(result.mass[1:] - reference) / reference
    assert rel.max() < 1e-8


def test_pulse_translates_downwind_by_v_per_hour():
    # 0.5 km/h from the west over 0.5 km cells: one column per hour.
    hours = 12
    wind = np.column_stack([np.full(hours, 0.5), np.full(hours, 270.0)])
    spec = pulse_spec(hours, wind=wind, diffusion_km2h=0.0,
                      sources=(PointSource(row=16, col=6, rate=100.0,
                                           end_hour=1),))
    result = simulate_field(spec)
    for t in range(1, hours - 1):
        r0, c0 = center_of_mass(result.fields[t])
        r1, c1 = center_of_mass(result.fields[t + 1])
        assert abs((c1 - c0) - 1.0) < 1.0       # v * 1h within one cell
        assert abs(r1 - r0) < 1e-9              # no crosswind drift


def test_pulse_translates_north_under_southerly_wind():
    hours = 8
    wind = np.column_stack([np.full(hours, 0.5), np.full(hours, 180.0)])
    spec = pulse_spec(hours, wind=wind, diffusion_km2h=0.0,
                      sources=(PointSource(row=6, col=16, rate=100.0,
                                           end_hour=1),))
    result = simulate_field(spec)
    r1, _ = center_of_mass(result.fields[1])
    r7, _ = center_of_mass(result.fields[7])
    assert r7 - r1 > 5.0


def test_diffusion_spreads_variance_monotonically():
    result = simulate_field(pulse_spec(10))
    variances = [spatial_variance(result.fields[t]) for t in range(1, 10)]
    diffs = np.diff(variances)
    assert np.all(diffs > 0)


def test_fields_stay_nonnegative():
    spec = default_synth_spec(hours=48, seed=1)
    result = simulate_field(spec)
    assert result.fields.min() >= 0.0
    assert result.readings.min() >= 0.0


# ---------------------------------------------------------------------------
# Stability control.
# ---------------------------------------------------------------------------

def test_unreachable_stability_is_a_configuration_error():
    spec = pulse_spec(1, diffusion_km2h=1000.0)
    with pytest.raises(ValidationError):
        simulate_field(spec)


def test_substeps_respect_cfl_bound():
    from physair.simulate import _substeps_needed
    spec = pulse_spec(1, diffusion_km2h=0.3)
    vx, vy = 7.0, -3.0
    n = _substeps_needed(spec, vx, vy)
    dt = 1.0 / n
    assert dt <= spec.cell_km / np.hypot(vx, vy)
    assert dt <= spec.cell_km ** 2 / (4.0 * spec.diffusion_km2h)


# ---------------------------------------------------------------------------
# Dataset generation.
# ---------------------------------------------------------------------------

def test_simulation_deterministic_for_same_spec():
    a = simulate_field(default_synth_spec(hours=24, seed=3))
    b = simulate_field(default_synth_spec(hours=24, seed=3))
    np.testing.assert_array_equal(a.readings, b.readings)
    np.testing.assert_array_equal(a.fields, b.fields)


def test_noiseless_readings_equal_cell_values():
    spec = pulse_spec(6, sensor_cells=((16, 16), (10, 20)), noise_sd=0.0)
    result = simulate_field(spec)
    for t in range(6):
        assert result.readings[t, 0] == result.fields[t, 16, 16]
        assert result.readings[t, 1] == result.fields[t, 10, 20]


def test_make_synthetic_dataset_roundtrips(tmp_path):
    dataset, result = make_synthetic_dataset(default_synth_spec(hours=24,
                                                                seed=7))
    assert dataset.provenance == "synthetic"
    assert dataset.pm25.shape == (24, 40)
    assert not np.isnan(dataset.pm25).any()
    np.testing.assert_array_equal(dataset.pm25, result.readings)
    export_dataset(dataset, tmp_path / "synth")
    back = load_dataset(tmp_path / "synth")
    np.testing.assert_array_equal(back.pm25, dataset.pm25)
    np.testing.assert_array_equal(back.wind, dataset.wind)
    assert back.extra["generator"]["seed"] == 7


def test_synth_spec_validation_errors():
    with pytest.raises(ValidationError):
        SynthSpec(hours=0, wind=calm_wind(0)).validate()
    with pytest.raises(ValidationError):
        SynthSpec(hours=2, wind=calm_wind(2),
                  sensor_cells=((40, 0),)).validate()
    with pytest.raises(ValidationError):
        SynthSpec(hours=2, wind=calm_wind(3)).validate()


@pytest.mark.parametrize("overrides", [
    {"noise_sd": np.nan}, {"noise_sd": np.inf}, {"background": np.nan},
    {"diffusion_km2h": np.inf}, {"decay_per_h": np.nan}, {"cell_km": np.inf},
    {"origin_lat": np.nan},
    {"sources": (PointSource(row=16, col=16, rate=np.inf),)},
    {"sources": (PointSource(row=16, col=16, rate=np.nan),)},
], ids=["noise_sd=nan", "noise_sd=inf", "background=nan", "diffusion_km2h=inf",
        "decay_per_h=nan", "cell_km=inf", "origin_lat=nan", "rate=inf", "rate=nan"])
def test_synth_spec_refuses_non_finite_settings(overrides):
    # a NaN passes every < check: noise_sd=nan simulated a noiseless panel
    name = "rate" if "sources" in overrides else next(iter(overrides))
    with pytest.raises(ValidationError, match=name):
        pulse_spec(2, **overrides)


def test_sinusoidal_wind_schedule_shape_and_range():
    wind = sinusoidal_wind(72)
    assert wind.shape == (72, 2)
    assert wind[:, 0].min() >= 0.0
    assert np.all((wind[:, 1] >= 0.0) & (wind[:, 1] < 360.0))
    # daily periodicity
    np.testing.assert_allclose(wind[:24, 0], wind[24:48, 0], atol=1e-12)
