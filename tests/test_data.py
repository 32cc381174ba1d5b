"""Ingestion, gap filtering, and canonical dataset round-trips."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from physair.data import (
    HOUR,
    Dataset,
    IngestReport,
    export_dataset,
    floor_hour,
    gap_filter,
    ingest_pm25,
    ingest_wind,
    load_dataset,
    longest_missing_run,
    parse_timestamp,
)
from physair.errors import ValidationError
from physair.geo import SensorMeta

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def make_dataset(pm25, wind=None, sensors=None):
    pm25 = np.asarray(pm25, dtype=float)
    t, n = pm25.shape
    if sensors is None:
        sensors = tuple(SensorMeta(f"s{j}", 32.7 + 0.01 * j, -117.1 - 0.01 * j)
                        for j in range(n))
    if wind is None:
        wind = np.column_stack([np.full(t, 5.0), np.full(t, 270.0)])
    return Dataset(sensors=sensors, start=T0, pm25=pm25,
                   wind=np.asarray(wind, dtype=float)).validate()


# ---------------------------------------------------------------------------
# Timestamp handling.
# ---------------------------------------------------------------------------

def test_parse_timestamp_accepts_z_suffix_and_naive():
    a = parse_timestamp("2024-03-01T05:00:00Z")
    b = parse_timestamp("2024-03-01T05:00:00+00:00")
    c = parse_timestamp("2024-03-01T05:00:00")
    assert a == b == c
    assert a.tzinfo is not None


def test_floor_hour_truncates_minutes():
    dt = parse_timestamp("2024-03-01T05:45:31Z")
    assert floor_hour(dt) == parse_timestamp("2024-03-01T05:00:00Z")


# ---------------------------------------------------------------------------
# Raw PM2.5 ingestion.
# ---------------------------------------------------------------------------

def test_ingest_averages_within_hour(tmp_path):
    rows = ["sensor_id,timestamp,value"]
    for minute in range(30):
        rows.append(f"a,2024-03-01T00:{minute:02d}:00Z,5.0")
    path = write(tmp_path / "raw.csv", "\n".join(rows) + "\n")
    series, start, report = ingest_pm25(path)
    assert start == T0
    assert series["a"].shape == (1,)
    assert series["a"][0] == 5.0
    assert report.rows_malformed == 0


def test_ingest_mean_of_alternating_values(tmp_path):
    rows = ["sensor_id,timestamp,value"]
    for minute in range(10):
        rows.append(f"a,2024-03-01T00:{minute:02d}:00Z,"
                    f"{0.0 if minute % 2 == 0 else 10.0}")
    path = write(tmp_path / "raw.csv", "\n".join(rows) + "\n")
    series, _, _ = ingest_pm25(path)
    assert series["a"][0] == 5.0


def test_ingest_empty_hour_is_missing_not_zero(tmp_path):
    text = ("sensor_id,timestamp,value\n"
            "a,2024-03-01T00:10:00Z,4.0\n"
            "a,2024-03-01T02:10:00Z,6.0\n")
    path = write(tmp_path / "raw.csv", text)
    series, _, _ = ingest_pm25(path)
    assert series["a"].shape == (3,)
    assert series["a"][0] == 4.0
    assert np.isnan(series["a"][1])
    assert series["a"][2] == 6.0


def test_ingest_counts_malformed_and_clamped_rows(tmp_path):
    text = ("sensor_id,timestamp,value\n"
            "a,2024-03-01T00:00:00Z,3.0\n"
            "a,not-a-time,3.0\n"
            "a,2024-03-01T00:20:00Z,banana\n"
            "shortrow\n"
            "a,2024-03-01T00:30:00Z,-5.0\n"
            "a,2024-03-01T00:40:00Z,nan\n")
    path = write(tmp_path / "raw.csv", text)
    series, _, report = ingest_pm25(path)
    assert report.rows_malformed == 4
    assert report.values_clamped == 1
    # mean of 3.0 and the clamped 0.0
    assert series["a"][0] == 1.5


def test_ingest_rejects_wrong_header(tmp_path):
    path = write(tmp_path / "raw.csv", "id,time,pm\n")
    with pytest.raises(ValidationError):
        ingest_pm25(path)


def test_ingest_pins_axis_with_explicit_range(tmp_path):
    path = write(tmp_path / "raw.csv",
                 "sensor_id,timestamp,value\na,2024-03-01T05:00:00Z,2.0\n")
    series, start, _ = ingest_pm25(
        path, start=T0, end=datetime(2024, 3, 1, 7, tzinfo=timezone.utc))
    assert start == T0
    assert series["a"].shape == (8,)
    assert np.isnan(series["a"][0]) and series["a"][5] == 2.0


def reference_ingest_pm25(path, start=None, end=None):
    """The row-at-a-time ingest_pm25 that the table-filling one replaced:
    one timestamp parse and one dict bucket per row."""
    import csv

    report = IngestReport()
    sums = {}
    lo = hi = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            report.rows_read += 1
            if len(row) < 3:
                report.rows_malformed += 1
                continue
            sensor_id = row[0].strip()
            try:
                ts = parse_timestamp(row[1])
                value = float(row[2])
            except (ValueError, TypeError):
                report.rows_malformed += 1
                continue
            if not sensor_id or not np.isfinite(value):
                report.rows_malformed += 1
                continue
            if value < 0:
                report.values_clamped += 1
                value = 0.0
            hour = floor_hour(ts)
            bucket = sums.setdefault(sensor_id, {}).setdefault(hour, [0.0, 0])
            bucket[0] += value
            bucket[1] += 1
            lo = hour if lo is None or hour < lo else lo
            hi = hour if hi is None or hour > hi else hi
    if start is not None:
        lo = floor_hour(start)
    if end is not None:
        hi = floor_hour(end)
    if lo is None or hi is None or hi < lo:
        raise ValidationError(f"{path}: no usable rows in the requested range")
    n_hours = int((hi - lo) / HOUR) + 1
    series = {}
    for sensor_id, buckets in sorted(sums.items()):
        values = np.full(n_hours, np.nan)
        for hour, (total, count) in buckets.items():
            idx = int((hour - lo) / HOUR)
            if 0 <= idx < n_hours:
                values[idx] = total / count
        series[sensor_id] = values
    return series, lo, report


BAD_ROWS = [
    "short",                                    # too few fields
    "s1,2024-03-01T02:10:00Z",
    "s1,not-a-time,3.0",                        # bad timestamps
    "s1,2024-13-01T00:00:00Z,3.0",
    "s1,,3.0",
    "s1,2024-03-01T02:10:00Z,banana",           # bad values
    "s1,2024-03-01T02:10:00Z,",
    "s1,2024-03-01T02:10:00Z,nan",
    "s1,2024-03-01T02:10:00Z,inf",
    "s1,2024-03-01T02:10:00Z,-inf",
    ",2024-03-01T02:10:00Z,4.0",                # empty ids
    "  ,2024-03-01T02:10:00Z,4.0",
    # malformed rows far outside the valid rows' hours must not widen the axis
    "s1,2023-01-01T00:00:00Z,nan",
    ",2025-06-01T00:00:00Z,4.0",
    "s1,2025-06-01T00:00:00Z,banana",
]


def messy_raw_rows(seed):
    """Sub-hourly rows in shuffled order over 30 hours, with timestamps in
    several spellings and zones, values spanning 1e-3..1e16 (so the sum
    order shows in the last bits), negatives, -0.0 and the malformed rows
    above."""
    rng = np.random.default_rng(seed)
    t0 = datetime(2024, 3, 1, tzinfo=timezone.utc)
    plus_5_30 = timezone(timedelta(hours=5, minutes=30))
    rows = []
    for _ in range(400):
        ts = t0 + timedelta(minutes=int(rng.integers(30 * 60)))
        spelling = int(rng.integers(4))
        if spelling == 0:
            text = ts.strftime("%Y-%m-%dT%H:%M:%SZ")
        elif spelling == 1:
            text = ts.strftime("%Y-%m-%dT%H:%M:%S")                 # naive = UTC
        elif spelling == 2:
            text = " " + ts.astimezone(plus_5_30).isoformat() + " "
        else:
            text = ts.isoformat()
        kind = int(rng.integers(10))
        if kind == 0:
            value = "-0.0"
        elif kind == 1:
            value = repr(-float(rng.uniform(0, 5)))
        elif kind == 2:
            value = repr(float(10.0 ** rng.integers(8, 17)))
        else:
            value = repr(float(rng.uniform(0, 60)) * 10.0 ** int(rng.integers(-3, 3)))
        rows.append(f"s{int(rng.integers(6))},{text},{value}")
    rows += BAD_ROWS
    return [rows[i] for i in rng.permutation(len(rows))]


def assert_same_ingest(got, want):
    series, lo, report = got
    ref_series, ref_lo, ref_report = want
    assert lo == ref_lo and lo.tzinfo is timezone.utc
    assert report == ref_report
    assert list(series) == list(ref_series)
    for sensor_id, values in ref_series.items():
        assert series[sensor_id].dtype == values.dtype
        assert series[sensor_id].tobytes() == values.tobytes(), sensor_id


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ingest_pm25_matches_the_row_loop_oracle(tmp_path, seed):
    rows = messy_raw_rows(seed)
    path = write(tmp_path / "raw.csv", "\n".join(["sensor_id,timestamp,value"] + rows) + "\n")
    want = reference_ingest_pm25(path)
    assert want[2].rows_malformed == len(BAD_ROWS)
    assert want[2].values_clamped > 0
    assert_same_ingest(ingest_pm25(path), want)
    # an explicit range that cuts rows off at both ends, one that reaches
    # past the data, and one given in another whole-hour zone
    plus_2 = timezone(timedelta(hours=2))
    for start, end in [(T0 + 5 * HOUR, T0 + 20 * HOUR),
                       (T0 - 3 * HOUR, T0 + 40 * HOUR),
                       (datetime(2024, 3, 1, 9, 40, tzinfo=plus_2), T0 + 12 * HOUR)]:
        assert_same_ingest(ingest_pm25(path, start=start, end=end),
                           reference_ingest_pm25(path, start=start, end=end))


def test_ingest_pm25_takes_an_explicit_start_to_its_utc_hour(tmp_path):
    # 09:10 at +05:30 is 03:40 UTC: the axis starts at 03:00 UTC, and the
    # rows of 03:xx and 04:xx UTC keep hours of their own
    text = ("sensor_id,timestamp,value\n"
            "a,2024-03-01T03:20:00Z,1.0\n"
            "a,2024-03-01T04:10:00Z,2.0\n")
    start = datetime(2024, 3, 1, 9, 10, tzinfo=timezone(timedelta(hours=5, minutes=30)))
    series, axis_start, _ = ingest_pm25(write(tmp_path / "raw.csv", text),
                                        start=start, end=T0 + 4 * HOUR)
    assert axis_start == T0 + 3 * HOUR and axis_start.tzinfo is timezone.utc
    assert series["a"].tolist() == [1.0, 2.0]


def test_ingest_pm25_axis_spans_only_accepted_rows(tmp_path):
    text = ("sensor_id,timestamp,value\n"
            "a,2024-03-01T02:00:00Z,1.0\n"
            "a,2024-02-01T00:00:00Z,nan\n"
            ",2024-04-01T00:00:00Z,1.0\n"
            "a,2024-03-01T03:30:00Z,2.0\n")
    series, start, report = ingest_pm25(write(tmp_path / "raw.csv", text))
    assert start == T0 + 2 * HOUR
    assert series["a"].tolist() == [1.0, 2.0]
    assert report.rows_malformed == 2


# ---------------------------------------------------------------------------
# Wind ingestion and unit conversion.
# ---------------------------------------------------------------------------

def test_ingest_wind_converts_mph(tmp_path):
    text = ("timestamp,wind_speed_mph,wind_dir_deg\n"
            "2024-03-01T00:00:00Z,10.0,90.0\n")
    wind = ingest_wind(write(tmp_path / "wind.csv", text), T0, 1)
    assert abs(wind[0, 0] - 16.09344) < 1e-12
    assert wind[0, 1] == 90.0


def test_ingest_wind_rejects_unknown_unit(tmp_path):
    text = "timestamp,wind_speed_knots,wind_dir_deg\n"
    with pytest.raises(ValidationError):
        ingest_wind(write(tmp_path / "wind.csv", text), T0, 1)


def test_ingest_wind_requires_full_coverage(tmp_path):
    text = ("timestamp,wind_speed_kmh,wind_dir_deg\n"
            "2024-03-01T00:00:00Z,5.0,180.0\n")
    with pytest.raises(ValidationError):
        ingest_wind(write(tmp_path / "wind.csv", text), T0, 3)


def test_ingest_wind_rejects_a_second_row_for_an_hour(tmp_path):
    text = ("timestamp,wind_speed_kmh,wind_dir_deg\n"
            "2024-03-01T00:00:00Z,5.0,180.0\n"
            "2024-03-01T01:00:00Z,5.63,180.0\n"
            "2024-03-01T01:30:00Z,99.0,180.0\n")
    with pytest.raises(ValidationError, match=r"line 4: a second row for hour "
                       r"2024-03-01T01:00:00\+00:00"):
        ingest_wind(write(tmp_path / "wind.csv", text), T0, 2)


def test_ingest_wind_ignores_rows_outside_the_axis(tmp_path):
    text = ("timestamp,wind_speed_kmh,wind_dir_deg\n"
            "2024-02-29T23:00:00Z,7.0,10.0\n"
            "2024-03-01T00:00:00Z,5.0,370.0\n"
            "2024-03-01T01:00:00Z,7.0,10.0\n")
    wind = ingest_wind(write(tmp_path / "wind.csv", text), T0, 1)
    assert wind.tolist() == [[5.0, 10.0]]


@pytest.mark.parametrize("row, message", [
    pytest.param("2024-03-01T01:00:00Z,fast,180.0",
                 "line 3: wind speed or direction is not a finite number", id="speed"),
    pytest.param("2024-03-01T01:00:00Z,5.0,north",
                 "line 3: wind speed or direction is not a finite number", id="direction"),
    pytest.param("2024-03-01T01:00:00Z,nan,180.0",
                 "line 3: wind speed or direction is not a finite number", id="nan-speed"),
    pytest.param("2024-03-01T01:00:00Z,5.0,inf",
                 "line 3: wind speed or direction is not a finite number", id="inf-direction"),
    pytest.param("yesterday,5.0,180.0", "line 3: unparsable timestamp 'yesterday'",
                 id="timestamp"),
    pytest.param("2024-03-01T01:00:00Z,5.0", "line 3: short wind row", id="short"),
])
def test_ingest_wind_names_the_line_of_a_malformed_row(tmp_path, row, message):
    text = ("timestamp,wind_speed_kmh,wind_dir_deg\n"
            f"2024-03-01T00:00:00Z,5.0,180.0\n{row}\n")
    path = write(tmp_path / "wind.csv", text)
    with pytest.raises(ValidationError, match=message) as info:
        ingest_wind(path, T0, 2)
    assert str(path) in str(info.value)


# ---------------------------------------------------------------------------
# Gap filter.
# ---------------------------------------------------------------------------

def test_longest_missing_run():
    v = np.array([1.0, np.nan, 2.0, np.nan, np.nan, 3.0])
    assert longest_missing_run(v) == 2
    assert longest_missing_run(np.array([1.0, 2.0])) == 0


def test_gap_filter_fills_isolated_hour_with_neighbor_average():
    ds = make_dataset([[4.0], [np.nan], [8.0], [5.0]])
    out, dropped, filled = gap_filter(ds)
    assert dropped == []
    assert filled == 1
    assert out.pm25[1, 0] == 6.0


def test_gap_filter_drops_two_consecutive_missing():
    ds = make_dataset([
        [4.0, 1.0], [np.nan, 2.0], [np.nan, 3.0], [5.0, 4.0],
    ])
    out, dropped, filled = gap_filter(ds)
    assert dropped == ["s0"]
    assert out.sensor_ids() == ["s1"]
    assert filled == 0


@pytest.mark.parametrize("max_gap_hours, match", [
    (-1, "max_gap_hours must be >= 0"), (0, "dropped all 2 sensors")])
def test_gap_filter_refuses_a_negative_gap_and_dropping_every_sensor(max_gap_hours, match):
    # -1 once dropped every sensor without a word
    ds = make_dataset([[4.0, 1.0], [np.nan, 2.0], [5.0, np.nan]])
    with pytest.raises(ValidationError, match=match):
        gap_filter(ds, max_gap_hours=max_gap_hours)


def test_gap_filter_boundary_hour_uses_single_neighbor():
    ds = make_dataset([[np.nan], [8.0], [6.0], [np.nan]])
    out, dropped, filled = gap_filter(ds)
    assert dropped == []
    assert filled == 2
    assert out.pm25[0, 0] == 8.0
    assert out.pm25[3, 0] == 6.0


@pytest.mark.parametrize("series, filled", [
    ([10.0, np.nan, np.nan, 40.0], [10.0, 20.0, 30.0, 40.0]),    # once 10, 10, 25, 40
    ([np.nan, np.nan, 5.0, 7.0], [5.0, 5.0, 5.0, 7.0]),          # once raised
    ([5.0, 7.0, np.nan, np.nan], [5.0, 7.0, 7.0, 7.0]),
    ([2.0, np.nan, np.nan, np.nan, 4.0, np.nan], [2.0, 2.5, 3.0, 3.5, 4.0, 4.0]),
])
def test_gap_filter_interpolates_a_run_linearly_and_carries_an_end_run(series, filled):
    ds = make_dataset(np.array(series)[:, None])
    out, dropped, count = gap_filter(ds, max_gap_hours=3)
    assert dropped == []
    assert count == int(np.isnan(series).sum())
    assert out.pm25[:, 0].tolist() == filled


def test_gap_filter_drops_a_sensor_with_no_reading():
    # a gap limit at least the series length once kept it, then raised
    # "cannot fill a missing hour with no observed neighbors"
    ds = make_dataset([[np.nan, 1.0], [np.nan, 2.0], [np.nan, 3.0]])
    out, dropped, filled = gap_filter(ds, max_gap_hours=3)
    assert dropped == ["s0"]
    assert out.sensor_ids() == ["s1"] and filled == 0


# ---------------------------------------------------------------------------
# Canonical directory round-trip.
# ---------------------------------------------------------------------------

def test_export_load_roundtrip_is_value_identical(tmp_path):
    rng = np.random.default_rng(5)
    pm25 = rng.uniform(0, 60, (12, 3))
    pm25[4, 1] = np.nan
    pm25[0, 2] = np.nan
    wind = np.column_stack([rng.uniform(0, 20, 12), rng.uniform(0, 360, 12)])
    ds = make_dataset(pm25, wind)
    export_dataset(ds, tmp_path / "data")
    back = load_dataset(tmp_path / "data")

    assert back.sensor_ids() == ds.sensor_ids()
    np.testing.assert_array_equal(back.coords(), ds.coords())
    np.testing.assert_array_equal(np.isnan(back.pm25), np.isnan(ds.pm25))
    both = np.isfinite(ds.pm25)
    np.testing.assert_array_equal(back.pm25[both], ds.pm25[both])
    np.testing.assert_array_equal(back.wind, ds.wind)
    assert back.start == ds.start and back.hours == ds.hours


def test_export_is_idempotent(tmp_path):
    ds = make_dataset(np.arange(8.0).reshape(4, 2))
    export_dataset(ds, tmp_path / "d1")
    export_dataset(load_dataset(tmp_path / "d1"), tmp_path / "d2")
    for name in ("manifest.json", "sensors.csv", "pm25.csv", "wind.csv"):
        assert (tmp_path / "d1" / name).read_bytes() == \
            (tmp_path / "d2" / name).read_bytes()


def test_manifest_hours_matches_series_length(tmp_path):
    import json
    ds = make_dataset(np.ones((7, 2)))
    export_dataset(ds, tmp_path / "d")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["hours"] == 7
    assert manifest["sensor_count"] == 2


def test_dataset_rejects_mismatched_wind_length():
    with pytest.raises(Exception):
        make_dataset(np.ones((5, 2)), wind=np.ones((4, 2)) * [5.0, 90.0])


def test_dataset_rejects_negative_pm25():
    with pytest.raises(ValidationError):
        make_dataset([[-1.0], [2.0]])


@pytest.mark.parametrize("reading", [np.inf, -np.inf])
def test_dataset_rejects_an_infinite_reading(reading):
    # NaN marks a missing reading; an infinite one was once exported as 0.0
    make_dataset([[np.nan, 3.0], [2.0, 4.0]])
    with pytest.raises(ValidationError, match="infinite"):
        make_dataset([[1.0, 3.0], [reading, 4.0]])


@pytest.mark.parametrize("sensors, match", [
    ((SensorMeta("s0", 32.7, -117.1), SensorMeta("s0", 32.71, -117.11)),
     "duplicate sensor ids: s0"),
    ((), "no sensors")])
def test_export_refuses_duplicate_ids_and_an_empty_panel(tmp_path, sensors, match):
    # either panel was once exported to a directory that load_dataset refused
    ds = Dataset(sensors=sensors, start=T0, pm25=np.ones((3, len(sensors))),
                 wind=np.column_stack([np.full(3, 5.0), np.full(3, 270.0)]))
    with pytest.raises(ValidationError, match=match):
        export_dataset(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda m: m.pop("hours"), "missing field 'hours'", id="no-hours"),
    pytest.param(lambda m: m.pop("start"), "missing field 'start'", id="no-start"),
    pytest.param(lambda m: m.update(hours="many"), "bad field value", id="bad-hours"),
    pytest.param(lambda m: m.update(start="soon"), "bad field value", id="bad-start"),
])
def test_load_dataset_names_a_malformed_manifest(tmp_path, edit, message):
    import json
    export_dataset(make_dataset(np.ones((3, 2))), tmp_path / "d")
    path = tmp_path / "d" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match=message) as info:
        load_dataset(tmp_path / "d")
    assert "manifest.json" in str(info.value)


def test_load_dataset_names_the_line_of_a_bad_manifest_or_sensor(tmp_path):
    export_dataset(make_dataset(np.ones((3, 2))), tmp_path / "d")
    sensors = tmp_path / "d" / "sensors.csv"
    lines = sensors.read_text().splitlines()
    lines[2] = "s1,north,-117.1"
    sensors.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r"sensors.csv, line 3: non-numeric latitude"):
        load_dataset(tmp_path / "d")
    (tmp_path / "d" / "manifest.json").write_text('{\n"hours": 3,\n}\n')
    with pytest.raises(ValidationError, match=r"manifest.json, line 3: not valid JSON"):
        load_dataset(tmp_path / "d")
