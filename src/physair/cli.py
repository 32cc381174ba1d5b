"""Command-line entry point tying the pieces into reproducible runs.

Five subcommands: ``ingest`` raw csv files into a canonical dataset
directory, ``synth`` a verification dataset from the simulator,
``train`` a seed ensemble, ``evaluate`` every model on the held-out
sensors, and ``interpolate`` a trained ensemble at arbitrary
coordinates.

Every knob can come from three places. Precedence, highest first:

1. a command-line flag,
2. a ``key = value`` line in the file named by ``--config``,
3. the built-in default (for ``dataset`` only, the PHYSAIR_DATA_DIR
   environment variable slots in between 2 and 3).

One table per command declares each knob once: its config key, the
coercer that parses and checks its value, its default and its help.
The flag is the key with dashes for underscores (``--max-epochs``);
a boolean also takes ``--no-<key>``, so a flag can undo a file's
``resume = true``.

Commands that produce an output directory write ``resolved.cfg`` into
it with every knob that has a value expanded, so any run can be
repeated with just ``--config <out>/resolved.cfg``. Path knobs
(``dataset``, ``models``, ``raw``, ``out``) are made absolute as they
are resolved, so the file replays from any working directory.

Exit codes: 0 success, 2 anything wrong with the user's request or
data, 1 an internal failure worth a bug report.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    export_dataset,
    format_timestamp,
    gap_filter,
    ingest_pm25,
    ingest_wind,
    load_dataset,
    load_sensors,
    _atomic_write_text,
)
from .errors import ShapeError, ValidationError
from .evaluation import (
    SH_BIN_EDGES,
    benchmark_runners,
    binned_mae,
    density_experiment,
    evaluate_models,
    format_binned_table,
    format_density_table,
    format_metrics_table,
    ground_truth_bin_edges,
    high_sh_hours,
    infer_at_location,
    mae_ratio,
    summary_json,
    write_summary,
)
from .model import ModelConfig
from .simulate import default_synth_spec, make_synthetic_dataset
from .training import (
    EVAL_BATCH,
    TrainConfig,
    TrainingDiverged,
    check_training_inputs,
    load_trained,
    make_split,
    train_ensemble,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USER = 2

DATA_DIR_ENV = "PHYSAIR_DATA_DIR"


# ---------------------------------------------------------------------------
# Flat key = value config files.
# ---------------------------------------------------------------------------

def read_config_file(path) -> dict:
    """Parse a flat config file: one ``key = value`` per line, # comments."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key in out:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _cfg_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def write_resolved_config(out_dir, options: dict) -> Path:
    """Write ``resolved.cfg``: one line per option, unset (None) ones left
    out, since no coercer reads the text ``None`` back."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved.cfg"
    lines = [f"{key} = {_cfg_text(options[key])}" for key in sorted(options)
             if options[key] is not None]
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


# Coercers turn flag and config-file strings into typed values. They
# are the argparse ``type=`` callables too, and they raise ValueError
# (ValidationError is one), so argparse turns a bad flag into its usual
# usage error (exit 2).

def parse_seeds(raw) -> tuple:
    try:
        seeds = tuple(int(p) for p in str(raw).split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"bad seeds list {raw!r}; expected e.g. 0,1,2") from None
    if not seeds:
        raise ValidationError("seeds list is empty")
    if len(set(seeds)) != len(seeds):
        raise ValidationError(f"duplicate seeds in {seeds}")
    return seeds


def _to_bool(raw) -> bool:
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {raw!r}")


def _path(raw) -> str:
    """A path made absolute, so that ``resolved.cfg`` replays from any
    working directory; an empty one stays empty for _require to refuse."""
    return os.path.abspath(raw) if raw else raw


def _one_of(*allowed):
    """A coercer that accepts exactly the given strings; --help lists them."""
    def choice(raw):
        if raw not in allowed:
            raise ValidationError(f"expected one of {', '.join(allowed)}, got {raw!r}")
        return raw
    choice.choices = allowed
    return choice


# One table per command: key -> (coercer, default, help). build_parser
# adds --key (underscores become dashes) from it; boolean keys take
# --key/--no-key. Flags resolved by argparse take precedence.

_DATASET = (_path, None, f"canonical dataset dir (default ${DATA_DIR_ENV})")

_INGEST_SCHEMA = {
    "raw": (_path, None, "directory with sensors.csv, pm25.csv, wind.csv"),
    "out": (_path, None, "canonical dataset output directory"),
    "max_gap_hours": (int, 1, "longest missing run a sensor may have (default 1)"),
}

_SYNTH_SCHEMA = {
    "out": (_path, None, None),
    "hours": (int, 2928, None),
    "seed": (int, 0, None),
    "n_sensors": (int, 40, None),
    "noise_sd": (float, 0.5, None),
    "height": (int, 32, None),
    "width": (int, 32, None),
}

_TRAIN_SCHEMA = {
    "dataset": _DATASET,
    "out": (_path, None, None),
    "preset": (_one_of("S", "M", "L"), "S", None),
    "window": (int, 1, None),
    "seeds": (parse_seeds, (0, 1, 2, 3, 4), "e.g. 0,1,2,3,4"),
    "split_seed": (int, 0, None),
    "workers": (int, 1, None),
    "resume": (_to_bool, False, None),
    "batch_size": (int, 32, None),
    "lr": (float, 1e-4, None),
    "max_epochs": (int, 500, None),
    "patience": (int, 20, None),
    "val_every": (int, 1, None),
    "val_hour_stride": (int, 1, None),
}

_EVALUATE_SCHEMA = {
    "dataset": _DATASET,
    "models": (_path, None, "training output dir or one .ckpt file"),
    "out": (_path, None, None),
    "workers": (int, 1, None),
    "density": (_to_bool, True, "run the sensor-removal sweep (default) or skip it"),
}

_INTERPOLATE_SCHEMA = {
    "dataset": _DATASET,
    "models": (_path, None, None),
    "out": (_path, None, "also write predictions.csv here"),
    "lat": (float, None, None),
    "lon": (float, None, None),
    "hours": (str, None, "H or LO:HI (half-open); default all hours"),
    "grid_lat": (str, None, "LO:HI:COUNT sweep"),
    "grid_lon": (str, None, "LO:HI:COUNT sweep"),
    "context": (_one_of("train", "all"), "train", None),
}


def resolve_options(args, schema: dict) -> dict:
    """Merge flags, config-file entries, and defaults into one dict."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = read_config_file(args.config)
        unknown = sorted(set(file_cfg) - set(schema))
        if unknown:
            raise ValidationError(
                f"unknown config keys for this command: {', '.join(unknown)}")
    out = {}
    for key, (coerce, default, _) in schema.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            try:
                out[key] = coerce(file_cfg[key])
            except ValueError as exc:
                raise ValidationError(f"config key {key!r}: {exc}") from None
        elif key == "dataset" and os.environ.get(DATA_DIR_ENV):
            out[key] = coerce(os.environ[DATA_DIR_ENV])
        else:
            out[key] = default
    return out


def _require(options: dict, *keys: str) -> None:
    for key in keys:
        if options.get(key) in (None, ""):
            hint = f" or set {DATA_DIR_ENV}" if key == "dataset" else ""
            raise ValidationError(
                f"missing required option {key!r}; pass --{key.replace('_', '-')}"
                f" or put it in the config file{hint}")


def _check_workers(options: dict) -> None:
    """Refuse a worker count below 1 before any file is read."""
    if options["workers"] < 1:
        raise ValidationError("workers must be at least 1")


def _load_dataset_arg(options: dict) -> Dataset:
    path = Path(options["dataset"])
    if not path.exists():
        raise ValidationError(f"dataset path does not exist: {path}")
    return load_dataset(path)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    options = resolve_options(args, _INGEST_SCHEMA)
    _require(options, "raw", "out")
    raw = Path(options["raw"])
    sensors = load_sensors(raw / "sensors.csv")
    series, start, report = ingest_pm25(raw / "pm25.csv")
    known = {s.sensor_id for s in sensors}
    orphans = sorted(set(series) - known)
    if orphans:
        logger.warning("pm25.csv has %d sensor ids with no coordinates, "
                       "skipping: %s", len(orphans), ", ".join(orphans))
    n_hours = len(next(iter(series.values())))
    pm25 = np.full((n_hours, len(sensors)), np.nan)
    for j, sensor in enumerate(sensors):
        if sensor.sensor_id in series:
            pm25[:, j] = series[sensor.sensor_id]
    wind = ingest_wind(raw / "wind.csv", start, n_hours)
    dataset = Dataset(sensors=sensors, start=start, pm25=pm25, wind=wind,
                      provenance="real").validate()
    filtered, dropped, filled = gap_filter(
        dataset, max_gap_hours=options["max_gap_hours"])
    out = export_dataset(filtered, options["out"])
    write_resolved_config(out, options)
    print(f"ingested {len(filtered.sensors)} sensors x {filtered.hours} hours "
          f"-> {out}")
    print(f"dropped {len(dropped)} gappy sensors, filled {filled} isolated "
          f"hours; {report.rows_malformed} malformed rows skipped, "
          f"{report.values_clamped} negative values clamped")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    options = resolve_options(args, _SYNTH_SCHEMA)
    _require(options, "out")
    spec = default_synth_spec(
        hours=options["hours"], seed=options["seed"],
        n_sensors=options["n_sensors"], noise_sd=options["noise_sd"],
        height=options["height"], width=options["width"])
    dataset, result = make_synthetic_dataset(spec)
    out = export_dataset(dataset, options["out"])
    write_resolved_config(out, options)
    print(f"simulated {spec.height}x{spec.width} grid for {spec.hours} hours "
          f"({len(spec.sources)} source windows), sampled "
          f"{len(dataset.sensors)} sensors -> {out}")
    if result.clamped_readings:
        print(f"{result.clamped_readings} noisy readings clamped at zero")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    options = resolve_options(args, _TRAIN_SCHEMA)
    _require(options, "dataset", "out")
    _check_workers(options)
    model_config = ModelConfig(preset=options["preset"], window=options["window"])
    train_config = TrainConfig(
        batch_size=options["batch_size"], lr=options["lr"],
        max_epochs=options["max_epochs"], patience=options["patience"],
        val_every=options["val_every"],
        val_hour_stride=options["val_hour_stride"])
    dataset = _load_dataset_arg(options)
    split = make_split(dataset.sensor_ids(), seed=options["split_seed"])
    check_training_inputs(dataset, split, train_config)
    out = Path(options["out"])
    write_resolved_config(out, options)
    results = train_ensemble(dataset, split, model_config, train_config, out,
                             seeds=options["seeds"],
                             workers=options["workers"],
                             resume=options["resume"])
    for seed, result in zip(options["seeds"], results):
        state = result.state
        print(f"seed {seed}: best val mse "
              f"{state.best_val_mse:.4f} at epoch {state.best_epoch} "
              f"({result.wall_seconds:.0f}s) -> {result.checkpoint_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _discover_checkpoints(models_arg) -> list:
    path = Path(models_arg)
    if path.is_file():
        return [path]
    if path.is_dir():
        found = sorted(path.glob("seed*/best.ckpt"))
        if not found and (path / "best.ckpt").exists():
            found = [path / "best.ckpt"]
        if found:
            return found
    raise ValidationError(
        f"no checkpoints under {path}; expected a .ckpt file or a training "
        "output directory with seed*/best.ckpt")


def _load_ensemble(models_arg):
    """Load every checkpoint and insist they belong to one experiment."""
    paths = _discover_checkpoints(models_arg)
    models, normalizer, split = [], None, None
    for path in paths:
        model, norm, spl, _ = load_trained(path)
        if normalizer is None:
            normalizer, split = norm, spl
        elif norm != normalizer or spl.to_dict() != split.to_dict():
            raise ValidationError(
                f"{path} was trained with a different split or normalizer "
                "than its ensemble siblings")
        if models and model.config.to_dict() != models[0].config.to_dict():
            raise ValidationError(f"{path} has a mismatched model config")
        models.append(model)
    return paths, models, normalizer, split


_worker_gnn = None  # the serial GNN runner, sent once to each worker process


def _install_gnn(serial):
    global _worker_gnn
    _worker_gnn = serial


def _gnn_columns(dataset, context_ids, hours, targets):
    return _worker_gnn(dataset, context_ids, targets, hours)


def _pooled_gnn_run(pool, workers, dataset, context_ids, target_ids, hours):
    """The GNN runner over worker processes: one contiguous group of
    targets per worker, in target order, so each group shares its
    context's edge path."""
    groups = [tuple(g) for g in np.array_split(np.asarray(target_ids, dtype=object), workers)
              if len(g)]
    columns = functools.partial(_gnn_columns, dataset, tuple(context_ids), hours)
    return np.hstack(list(pool.map(columns, groups)))


def _bit_facts() -> dict:
    """What fixes a report's bits beside its inputs: numpy, its BLAS and
    the BLAS thread settings (null when unset), and the inference hour
    chunk, training.EVAL_BATCH."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds before meson have no dict mode
        blas = {}
    return {"numpy": np.__version__,
            "blas": {key: str(blas.get(key, "unknown")) for key in ("name", "version")},
            "blas_threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "eval_batch": EVAL_BATCH}


def cmd_evaluate(args) -> int:
    options = resolve_options(args, _EVALUATE_SCHEMA)
    _require(options, "dataset", "models", "out")
    _check_workers(options)
    dataset = _load_dataset_arg(options)
    paths, models, normalizer, split = _load_ensemble(options["models"])
    runners = benchmark_runners(dataset, split.train, models=models, normalizer=normalizer)
    pool = None
    try:
        if options["workers"] > 1:
            pool = ProcessPoolExecutor(max_workers=options["workers"],
                                       initializer=_install_gnn,
                                       initargs=(runners["gnn"],))
            runners["gnn"] = functools.partial(_pooled_gnn_run, pool, options["workers"])
        run = evaluate_models(dataset, split.train, split.test, runners,
                              label="test")
        high = high_sh_hours(run.sh)
        reports = run.reports() + run.reports(hour_mask=high,
                                              label="test-high-sh")
        gt_binned, sh_binned = {}, {}
        for name in runners:
            preds, truths, sh = run.flat(name)
            gt_binned[name] = binned_mae(
                truths, preds, truths,
                ground_truth_bin_edges(float(truths.max())),
                axis="ground_truth")
            sh_binned[name] = binned_mae(sh, preds, truths, SH_BIN_EDGES, axis="sh")
        sections = [format_metrics_table(reports),
                    "MAE by ground-truth bin (ug/m3):",
                    format_binned_table(gt_binned),
                    "MAE by spatial-heterogeneity bin:",
                    format_binned_table(sh_binned)]
        ratios = {}
        if "gnn" in runners:
            ratios = {
                "ground_truth": {n: mae_ratio(gt_binned[n], gt_binned["gnn"])
                                 for n in runners if n != "gnn"},
                "sh": {n: mae_ratio(sh_binned[n], sh_binned["gnn"])
                       for n in runners if n != "gnn"},
            }
        density = None
        if options["density"]:
            density = density_experiment(dataset, split.train, split.test,
                                         runners, main=run)
            sections += ["Mean MAE by removed context fraction:",
                         format_density_table(density)]
    finally:
        if pool is not None:
            pool.shutdown()
    out = Path(options["out"])
    out.mkdir(parents=True, exist_ok=True)
    text = "\n\n".join(sections) + "\n"
    _atomic_write_text(out / "report.txt", text)
    payload = summary_json(
        reports, density=density,
        binned={f"{b.axis}:{name}": b
                for table in (gt_binned, sh_binned)
                for name, b in table.items()},
        extra={"mae_ratio_vs_gnn": ratios,
               "checkpoints": [str(p) for p in paths],
               "context_sensors": list(split.train),
               "target_sensors": list(split.test)})
    payload["facts"] = _bit_facts()
    write_summary(out / "report.json", payload)
    write_resolved_config(out, options)
    print(text, end="")
    print(f"report written to {out / 'report.txt'} and {out / 'report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------

def _parse_hour_range(raw, n_hours: int) -> np.ndarray:
    """'12' -> [12]; '0:48' -> [0..47]; None -> every hour."""
    if raw is None:
        return np.arange(n_hours)
    text = str(raw)
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = int(text)
            hi = lo + 1
    except ValueError:
        raise ValidationError(
            f"bad hour range {raw!r}; expected H or LO:HI") from None
    if lo < 0 or hi > n_hours or lo >= hi:
        raise ValidationError(
            f"hour range [{lo}, {hi}) outside the dataset's {n_hours} hours")
    return np.arange(lo, hi)


def _parse_axis(raw, name: str) -> np.ndarray:
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise ValidationError(f"bad {name} sweep {raw!r}; expected LO:HI:COUNT")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"bad {name} sweep {raw!r}") from None
    if count < 1:
        raise ValidationError(f"{name} sweep needs at least 1 point")
    return np.linspace(lo, hi, count)


def cmd_interpolate(args) -> int:
    options = resolve_options(args, _INTERPOLATE_SCHEMA)
    _require(options, "dataset", "models")
    dataset = _load_dataset_arg(options)
    paths, models, normalizer, split = _load_ensemble(options["models"])
    if options["context"] == "train":
        context = split.train
    else:
        context = tuple(dataset.sensor_ids())
    hours = _parse_hour_range(options["hours"], dataset.hours)
    grid_mode = options["grid_lat"] is not None or options["grid_lon"] is not None
    point_mode = options["lat"] is not None or options["lon"] is not None
    if grid_mode == point_mode:
        raise ValidationError("pass either --lat/--lon or "
                              "--grid-lat/--grid-lon, not both or neither")
    timestamps = dataset.timestamps()
    lines = []
    if point_mode:
        if options["lat"] is None or options["lon"] is None:
            raise ValidationError("point mode needs both --lat and --lon")
        points = [(options["lat"], options["lon"])]
        lines.append("hour,timestamp,pm25")
    else:
        if options["grid_lat"] is None or options["grid_lon"] is None:
            raise ValidationError("grid mode needs both --grid-lat and --grid-lon")
        lats = _parse_axis(options["grid_lat"], "latitude")
        lons = _parse_axis(options["grid_lon"], "longitude")
        points = [(float(lat), float(lon)) for lat in lats for lon in lons]
        lines.append("latitude,longitude,hour,pm25")
    preds = infer_at_location(models, normalizer, dataset, context,
                              [lat for lat, _ in points], [lon for _, lon in points],
                              hours)
    for (lat, lon), column in zip(points, preds.T):
        for hour, value in zip(hours, column):
            lead = (f"{hour},{format_timestamp(timestamps[hour])}" if point_mode
                    else f"{lat!r},{lon!r},{hour}")
            lines.append(f"{lead},{float(value)!r}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if options["out"]:
        out = Path(options["out"])
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(out / "predictions.csv", text)
        write_resolved_config(out, options)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and entry.
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": ("raw csv directory -> canonical dataset", _INGEST_SCHEMA),
    "synth": ("simulate a synthetic dataset", _SYNTH_SCHEMA),
    "train": ("train a seed ensemble", _TRAIN_SCHEMA),
    "evaluate": ("score every model on held-out sensors", _EVALUATE_SCHEMA),
    "interpolate": ("predict at coordinates with a trained ensemble",
                    _INTERPOLATE_SCHEMA),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physair",
        description="Sparse-network PM2.5 interpolation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, schema) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", metavar="FILE",
                       help="flat key = value config file; flags override it")
        for key, (coerce, _, text) in schema.items():
            flag = "--" + key.replace("_", "-")
            if coerce is _to_bool:
                p.add_argument(flag, action=argparse.BooleanOptionalAction, help=text)
            else:
                p.add_argument(flag, type=coerce, help=text,
                               choices=getattr(coerce, "choices", None))
        # looked up per call, not at import, so a cmd_* replaced on the
        # module is the one that runs
        p.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


_VALUE_FLAGS = frozenset(["--config"] + [
    "--" + key.replace("_", "-") for _, schema in _COMMANDS.values()
    for key, (coerce, _, _) in schema.items() if coerce is not _to_bool])


def _attach_dash_values(argv) -> list:
    """Join each value that starts with a dash and a digit to its flag.

    argparse reads such a token as an option unless it is a plain
    number, so the sweep in ``--grid-lon -119.85:-119.75:3`` would leave
    its flag without a value. No option starts with a dash and a digit,
    so the pair is passed on as ``--grid-lon=-119.85:-119.75:3``.
    """
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_FLAGS and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_dash_values(sys.argv[1:] if argv is None else argv))
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValidationError, ShapeError, TrainingDiverged) as exc:
        print(f"physair: error: {exc}", file=sys.stderr)
        return EXIT_USER
    except OSError as exc:
        print(f"physair: error: {exc}", file=sys.stderr)
        return EXIT_USER
    except KeyboardInterrupt:
        print("physair: interrupted", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
