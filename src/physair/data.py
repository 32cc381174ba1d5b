"""Dataset ingestion, gap filtering, and the canonical on-disk layout.

A dataset is an hourly panel: N sensors with fixed coordinates, T
contiguous UTC hours, one PM2.5 value per sensor-hour (NaN where the
sensor reported nothing), and one city-level wind record per hour.

The canonical directory layout is self-describing:

    manifest.json   hour range, sensor count, provenance, seed
    sensors.csv     sensor_id,latitude,longitude
    pm25.csv        sensor_id,timestamp,value   (long form, missing
                    hours are absent rows, never zeros)
    wind.csv        timestamp,wind_speed_kmh,wind_dir_deg

Raw ingestion accepts the same long form at any sub-hourly cadence and
averages within each hour. Wind speeds may arrive in mph or m/s; the
column header must name the unit and the loader converts to km/h.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import math
import os
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .errors import ShapeError, ValidationError
from .geo import SensorMeta

logger = logging.getLogger(__name__)

MANIFEST_SCHEMA_VERSION = 1
HOUR = timedelta(hours=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

WIND_SPEED_UNITS = {
    "wind_speed_kmh": 1.0,
    "wind_speed_mph": 1.609344,
    "wind_speed_ms": 3.6,
}


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO 8601 timestamp; naive times are taken as UTC."""
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S+00:00")


def floor_hour(dt: datetime) -> datetime:
    return dt.replace(minute=0, second=0, microsecond=0)


class _HourNumbers(dict):
    """Timestamp text -> whole UTC hours from the Unix epoch to the hour it
    falls in, or None where it does not parse.

    Each distinct string is parsed on its first lookup only, so a file's
    repeated timestamps cost one dict lookup each. Make one per file read.
    """

    def __missing__(self, raw: str):
        try:
            hour = _hour_number(parse_timestamp(raw))
        except (ValueError, TypeError):
            hour = None
        self[raw] = hour
        return hour


def _hour_number(dt: datetime) -> int:
    """Whole hours from the Unix epoch to the UTC hour ``dt`` falls in;
    naive times are taken as UTC."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // HOUR


def _hour_start(hour: int) -> datetime:
    return _EPOCH + hour * HOUR


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """A file handle staged next to path and moved into place on a clean exit.

    The temp file is fsynced, then os.replace'd onto path, so a crash
    mid-write never leaves a truncated file under the real name. Its name
    carries the writer's pid, so two processes writing one path never
    truncate or rename each other's temp file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


@dataclass
class Dataset:
    """One hourly sensor panel plus its wind series."""

    sensors: tuple
    start: datetime
    pm25: np.ndarray            # (hours, n_sensors), NaN = missing
    wind: np.ndarray            # (hours, 2): speed km/h, from-direction deg
    provenance: str = "real"
    seed: int | None = None
    extra: dict = field(default_factory=dict)

    def validate(self) -> "Dataset":
        if self.provenance not in ("real", "synthetic"):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        n = len(self.sensors)
        if n == 0:
            raise ValidationError("dataset has no sensors")
        ids = self.sensor_ids()
        if len(set(ids)) != n:
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate sensor ids: {', '.join(dupes)}")
        if self.pm25.ndim != 2 or self.pm25.shape[1] != n:
            raise ShapeError(
                f"pm25 must be (hours, {n}), got {self.pm25.shape}")
        t = self.pm25.shape[0]
        if t < 1:
            raise ValidationError("dataset needs at least one hour")
        if self.wind.shape != (t, 2):
            raise ShapeError(
                f"wind must be ({t}, 2), got {self.wind.shape}: "
                "hour ranges of pm25 and wind must match")
        if not np.isfinite(self.wind).all():
            raise ValidationError("wind contains non-finite entries")
        if np.any(self.wind[:, 0] < 0):
            raise ValidationError("wind speed must be >= 0")
        if np.isinf(self.pm25).any():
            raise ValidationError("pm25 contains infinite values; NaN marks a missing reading")
        finite = self.pm25[np.isfinite(self.pm25)]
        if finite.size and finite.min() < 0:
            raise ValidationError("pm25 values must be >= 0")
        if self.start != floor_hour(self.start):
            raise ValidationError("start must lie on an hour boundary")
        for s in self.sensors:
            s.validate()
        return self

    @property
    def hours(self) -> int:
        return self.pm25.shape[0]

    def timestamps(self) -> list[datetime]:
        return [self.start + i * HOUR for i in range(self.hours)]

    def sensor_ids(self) -> list[str]:
        return [s.sensor_id for s in self.sensors]

    def coords(self) -> np.ndarray:
        return np.array([[s.latitude, s.longitude] for s in self.sensors])

    def fingerprint(self) -> str:
        """sha256 hex digest of the sensor ids and coordinates plus the
        pm25 and wind values, byte for byte."""
        digest = hashlib.sha256(json.dumps(
            [[s.sensor_id, s.latitude, s.longitude] for s in self.sensors]).encode("utf-8"))
        for values in (self.pm25, self.wind):
            digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        return digest.hexdigest()


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_malformed: int = 0
    values_clamped: int = 0

    def log(self) -> None:
        if self.rows_malformed:
            logger.warning("skipped %d malformed rows (of %d)",
                           self.rows_malformed, self.rows_read)
        if self.values_clamped:
            logger.warning("clamped %d negative values to 0 (of %d rows)",
                           self.values_clamped, self.rows_read)


def ingest_pm25(path, start: datetime | None = None,
                end: datetime | None = None):
    """Average raw PM2.5 rows into hourly series per sensor.

    The file is long-form csv with header ``sensor_id,timestamp,value``
    at any cadence. Returns ``(series, axis_start, report)`` where
    ``series`` maps sensor_id to a (T,) array over the common hour axis;
    hours with no rows are NaN, never zero. Malformed rows are skipped
    and counted; negative values are clamped to zero and counted.
    ``start``/``end`` (inclusive; each taken to the UTC hour it falls in,
    naive times as UTC) pin the axis explicitly, otherwise it spans the
    accepted rows. Each sensor-hour's rows are summed in file order.
    """
    report = IngestReport()
    hour_numbers = _HourNumbers()
    codes: dict[str, int] = {}            # sensor_id -> row of the table
    sensor_col, hour_col, value_col = array("q"), array("q"), array("d")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != \
                ["sensor_id", "timestamp", "value"]:
            raise ValidationError(
                f"{path}: expected header sensor_id,timestamp,value")
        for row in reader:
            report.rows_read += 1
            if len(row) < 3:
                report.rows_malformed += 1
                continue
            sensor_id = row[0].strip()
            hour = hour_numbers[row[1]]
            try:
                value = float(row[2])
            except ValueError:
                report.rows_malformed += 1
                continue
            if hour is None or not sensor_id or not math.isfinite(value):
                report.rows_malformed += 1
                continue
            if value < 0:
                report.values_clamped += 1
                value = 0.0
            sensor_col.append(codes.setdefault(sensor_id, len(codes)))
            hour_col.append(hour)
            value_col.append(value)
    report.log()
    hours = np.frombuffer(hour_col, dtype=np.int64)
    lo = hi = None
    if hours.size:
        lo, hi = int(hours.min()), int(hours.max())
    if start is not None:
        lo = _hour_number(start)
    if end is not None:
        hi = _hour_number(end)
    if lo is None or hi is None or hi < lo:
        raise ValidationError(f"{path}: no usable rows in the requested range")
    n_hours = hi - lo + 1
    idx = hours - lo
    keep = (idx >= 0) & (idx < n_hours)
    cells = (np.frombuffer(sensor_col, dtype=np.int64)[keep], idx[keep])
    totals = np.zeros((len(codes), n_hours))
    counts = np.zeros((len(codes), n_hours), dtype=np.int64)
    np.add.at(totals, cells, np.frombuffer(value_col, dtype=np.float64)[keep])
    np.add.at(counts, cells, 1)
    table = np.full((len(codes), n_hours), np.nan)
    np.divide(totals, counts, out=table, where=counts > 0)
    series = {sensor_id: table[codes[sensor_id]] for sensor_id in sorted(codes)}
    return series, _hour_start(lo), report


def ingest_wind(path, start: datetime, n_hours: int) -> np.ndarray:
    """Load hourly wind onto a fixed hour axis, converting speed to km/h.

    The speed column header must name its unit (wind_speed_kmh,
    wind_speed_mph, or wind_speed_ms). Every hour of the axis, from the
    UTC hour ``start`` falls in, must be covered exactly once; rows
    outside the axis are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 3:
            raise ValidationError(f"{path}: missing wind header")
        header = [h.strip() for h in header]
        if header[0] != "timestamp" or header[2] != "wind_dir_deg":
            raise ValidationError(
                f"{path}: expected timestamp,wind_speed_<unit>,wind_dir_deg")
        if header[1] not in WIND_SPEED_UNITS:
            raise ValidationError(
                f"{path}: unknown wind speed unit column {header[1]!r}; "
                f"use one of {sorted(WIND_SPEED_UNITS)}")
        to_kmh = WIND_SPEED_UNITS[header[1]]
        hour_numbers = _HourNumbers()
        first = _hour_number(start)
        wind = np.full((n_hours, 2), np.nan)
        seen = np.zeros(n_hours, dtype=bool)
        for row in reader:
            if len(row) < 3:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: short wind row {row!r}")
            hour = hour_numbers[row[0]]
            if hour is None:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: unparsable timestamp {row[0]!r}")
            try:
                speed, direction = float(row[1]), float(row[2])
            except ValueError:
                speed = direction = math.nan
            if not (math.isfinite(speed) and math.isfinite(direction)):
                raise ValidationError(
                    f"{path}, line {reader.line_num}: wind speed or direction "
                    f"is not a finite number in {row!r}")
            idx = hour - first
            if 0 <= idx < n_hours:
                if seen[idx]:
                    raise ValidationError(
                        f"{path}, line {reader.line_num}: a second row for hour "
                        f"{format_timestamp(_hour_start(hour))}; wind needs "
                        "exactly one row per hour")
                seen[idx] = True
                wind[idx, 0] = speed * to_kmh
                wind[idx, 1] = direction % 360.0
    if not np.isfinite(wind).all():
        missing = int(np.isnan(wind[:, 0]).sum())
        raise ValidationError(
            f"{path}: wind does not cover the hour axis ({missing} hours "
            "missing); pm25 and wind hour ranges must match")
    return wind


def longest_missing_run(values: np.ndarray) -> int:
    """Length of the longest consecutive NaN run in a 1-d series."""
    longest = run = 0
    for missing in np.isnan(values):
        run = run + 1 if missing else 0
        longest = max(longest, run)
    return longest


def gap_filter(dataset: Dataset, max_gap_hours: int = 1):
    """Drop sensors with missing runs longer than ``max_gap_hours``, or
    with no reading at all.

    Surviving sensors get each missing run filled by linear interpolation
    between the observed hours i0 and i1 around it,
    ``(a*(i1-i) + b*(i-i0)) / (i1-i0)``, so an isolated hour gets the
    average of its two neighbors; a run at either end of the series takes
    its one observed neighbor. Returns ``(filtered_dataset, dropped_ids,
    filled_count)``. Dropping every sensor raises.
    """
    if max_gap_hours < 0:
        raise ValidationError(f"max_gap_hours must be >= 0, got {max_gap_hours}")
    keep = []
    dropped = []
    for j, sensor in enumerate(dataset.sensors):
        col = dataset.pm25[:, j]
        if np.isfinite(col).any() and longest_missing_run(col) <= max_gap_hours:
            keep.append(j)
        else:
            dropped.append(sensor.sensor_id)
    if not keep:
        raise ValidationError(f"gap filter dropped all {len(dropped)} sensors "
                              f"(max_gap_hours={max_gap_hours})")
    if dropped:
        logger.info("gap filter dropped %d of %d sensors: %s",
                    len(dropped), len(dataset.sensors), ", ".join(dropped))
    pm25 = dataset.pm25[:, keep].copy()
    filled = 0
    for j in range(pm25.shape[1]):
        col = pm25[:, j]
        seen = np.flatnonzero(np.isfinite(col))
        for i in np.flatnonzero(np.isnan(col)):
            k = np.searchsorted(seen, i)
            if k == 0 or k == len(seen):
                col[i] = col[seen[min(k, len(seen) - 1)]]
            else:
                i0, i1 = seen[k - 1], seen[k]
                col[i] = (col[i0] * (i1 - i) + col[i1] * (i - i0)) / (i1 - i0)
            filled += 1
    out = Dataset(sensors=tuple(dataset.sensors[j] for j in keep),
                  start=dataset.start, pm25=pm25, wind=dataset.wind,
                  provenance=dataset.provenance, seed=dataset.seed,
                  extra=dict(dataset.extra))
    return out.validate(), dropped, filled


def export_dataset(dataset: Dataset, out_dir) -> Path:
    """Write the canonical dataset directory; returns its path."""
    dataset.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = ["sensor_id,latitude,longitude"]
    for s in dataset.sensors:
        rows.append(f"{s.sensor_id},{s.latitude!r},{s.longitude!r}")
    _atomic_write_text(out / "sensors.csv", "\n".join(rows) + "\n")

    stamps = [format_timestamp(ts) for ts in dataset.timestamps()]
    rows = ["sensor_id,timestamp,value"]
    for j, s in enumerate(dataset.sensors):
        col = dataset.pm25[:, j]
        for i in np.flatnonzero(np.isfinite(col)):
            rows.append(f"{s.sensor_id},{stamps[i]},{float(col[i])!r}")
    _atomic_write_text(out / "pm25.csv", "\n".join(rows) + "\n")

    rows = ["timestamp,wind_speed_kmh,wind_dir_deg"]
    for i, stamp in enumerate(stamps):
        rows.append(f"{stamp},{float(dataset.wind[i, 0])!r},"
                    f"{float(dataset.wind[i, 1])!r}")
    _atomic_write_text(out / "wind.csv", "\n".join(rows) + "\n")

    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "provenance": dataset.provenance,
        "seed": dataset.seed,
        "start": format_timestamp(dataset.start),
        "hours": dataset.hours,
        "sensor_count": len(dataset.sensors),
        "files": {"sensors": "sensors.csv", "pm25": "pm25.csv",
                  "wind": "wind.csv"},
        "extra": dataset.extra,
    }
    _atomic_write_text(out / "manifest.json",
                       json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def load_sensors(path) -> tuple:
    sensors = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != \
                ["sensor_id", "latitude", "longitude"]:
            raise ValidationError(
                f"{path}: expected header sensor_id,latitude,longitude")
        for row in reader:
            if len(row) < 3:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: short sensor row {row!r}")
            try:
                meta = SensorMeta(row[0].strip(), float(row[1]), float(row[2]))
            except ValueError:
                raise ValidationError(
                    f"{path}, line {reader.line_num}: non-numeric latitude "
                    f"or longitude in {row!r}") from None
            meta.validate()
            sensors.append(meta)
    if not sensors:
        raise ValidationError(f"{path}: no sensors")
    ids = [s.sensor_id for s in sensors]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate sensor ids")
    return tuple(sensors)


def load_dataset(dataset_dir) -> Dataset:
    """Read a canonical dataset directory back into memory."""
    root = Path(dataset_dir)
    manifest_path = root / "manifest.json"
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{manifest_path}, line {exc.lineno}: not valid JSON: {exc.msg}") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"{manifest_path}: expected a JSON object")
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported manifest schema {manifest.get('schema_version')!r}")
    files = manifest.get("files", {})
    try:
        start = parse_timestamp(str(manifest["start"]))
        n_hours = int(manifest["hours"])
        sensor_count = int(manifest["sensor_count"])
    except KeyError as exc:
        raise ValidationError(
            f"{manifest_path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{manifest_path}: bad field value: {exc}") from None
    end = start + (n_hours - 1) * HOUR

    sensors = load_sensors(root / files.get("sensors", "sensors.csv"))
    if len(sensors) != sensor_count:
        raise ValidationError(
            f"manifest says {sensor_count} sensors, file has {len(sensors)}")

    series, axis_start, _ = ingest_pm25(
        root / files.get("pm25", "pm25.csv"), start=start, end=end)
    if axis_start != start:
        raise ValidationError("pm25 axis does not match the manifest start")
    pm25 = np.full((n_hours, len(sensors)), np.nan)
    known = {s.sensor_id for s in sensors}
    for sensor_id in series:
        if sensor_id not in known:
            raise ValidationError(
                f"pm25.csv references unknown sensor {sensor_id!r}")
    for j, s in enumerate(sensors):
        if s.sensor_id in series:
            pm25[:, j] = series[s.sensor_id]

    wind = ingest_wind(root / files.get("wind", "wind.csv"), start, n_hours)
    return Dataset(sensors=sensors, start=start, pm25=pm25, wind=wind,
                   provenance=manifest.get("provenance", "real"),
                   seed=manifest.get("seed"),
                   extra=manifest.get("extra", {})).validate()
