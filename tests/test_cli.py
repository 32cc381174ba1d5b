"""End-to-end checks of the command line against real artifacts.

The expensive fixtures (a small synthetic dataset and a two-seed
ensemble trained on it) are built once per module and shared; every
test drives ``main(argv)`` directly and inspects exit codes, stdout,
and the files left behind.
"""

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from physair import cli, evaluation
from physair.autodiff import load_arrays, save_arrays
from physair.cli import build_parser, main, parse_seeds, read_config_file, resolve_options
from physair.data import export_dataset, load_dataset
from physair.errors import ValidationError
from physair.evaluation import benchmark_runners, build_report, density_experiment, \
    evaluate_models, infer_at_location, write_summary
from physair.model import FIXED_DESIGN
from physair.training import load_trained, make_split


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    rc = main(["synth", "--out", str(out), "--hours", "36",
               "--n-sensors", "10", "--height", "12", "--width", "12",
               "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("runs") / "ens"
    rc = main(["train", "--dataset", str(synth_dir), "--out", str(out),
               "--seeds", "0,1", "--max-epochs", "2", "--batch-size", "8",
               "--patience", "5", "--lr", "1e-3"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, synth_dir, train_dir):
    out = tmp_path_factory.mktemp("runs") / "eval"
    rc = main(["evaluate", "--dataset", str(synth_dir),
               "--models", str(train_dir), "--out", str(out)])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------

def test_read_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment\nhours = 24\n\nseed=5\n")
    assert read_config_file(cfg) == {"hours": "24", "seed": "5"}


def test_config_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("hours = 2\nhours = 3\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_config_file(cfg)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("bogus = 1\n")
    rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("hours = 24\nseed = 5\nn_sensors = 6\n"
                   "height = 12\nwidth = 12\n")
    out = tmp_path / "d"
    rc = main(["synth", "--config", str(cfg), "--out", str(out),
               "--hours", "12"])
    assert rc == 0
    assert load_dataset(out).hours == 12
    resolved = read_config_file(out / "resolved.cfg")
    assert resolved["hours"] == "12"      # flag won
    assert resolved["seed"] == "5"        # file value kept
    assert resolved["noise_sd"] == "0.5"  # default expanded


def _resolve(argv):
    args = build_parser().parse_args(argv)
    return resolve_options(args, cli._COMMANDS[argv[0]][1])


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_flag_and_config_line_resolve_alike(command, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    samples = {int: "7", float: "0.25", str: "some/where", cli._path: "some/where",
               parse_seeds: "3,5"}
    schema = cli._COMMANDS[command][1]
    defaults = _resolve([command])
    for key, (coerce, default, _) in schema.items():
        assert defaults[key] == default
        flag = "--" + key.replace("_", "-")
        if coerce is cli._to_bool:
            cases = [([flag], "true"), (["--no-" + flag[2:]], "false")]
        else:
            choices = getattr(coerce, "choices", None)
            value = next(c for c in choices if c != default) if choices else samples[coerce]
            cases = [([flag, value], value)]
        for flag_argv, line in cases:
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {line}\n")
            from_flag = _resolve([command] + flag_argv)[key]
            from_file = _resolve([command, "--config", str(cfg)])[key]
            assert from_flag == from_file, (key, from_flag, from_file)
            assert type(from_flag) is type(from_file)
        if coerce is not cli._to_bool:
            assert from_flag != default


def test_no_resume_overrides_the_config_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("resume = true\n")
    assert _resolve(["train", "--config", str(cfg)])["resume"] is True
    assert _resolve(["train", "--config", str(cfg), "--no-resume"])["resume"] is False


@pytest.mark.parametrize("command, key, allowed", [
    ("train", "preset", "{S,M,L}"),
    ("interpolate", "context", "{train,all}"),
])
def test_choice_options_list_and_check_their_values(command, key, allowed,
                                                     tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert allowed in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main([command, "--" + key.replace("_", "-"), "bogus"])
    assert err.value.code == 2
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"{key} = bogus\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


def test_parse_seeds():
    assert parse_seeds("0,1, 2") == (0, 1, 2)
    with pytest.raises(ValidationError):
        parse_seeds("0,0")
    with pytest.raises(ValidationError):
        parse_seeds("a,b")


def test_duplicate_seed_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["train", "--seeds", "1,1"])
    assert err.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_dataset_loads(synth_dir):
    ds = load_dataset(synth_dir)
    assert ds.provenance == "synthetic"
    assert (ds.hours, len(ds.sensors)) == (36, 10)
    assert np.isfinite(ds.pm25).all()
    assert (synth_dir / "resolved.cfg").exists()


def test_synth_deterministic(tmp_path, synth_dir):
    again = tmp_path / "again"
    assert main(["synth", "--out", str(again), "--hours", "36",
                 "--n-sensors", "10", "--height", "12", "--width", "12",
                 "--seed", "3"]) == 0
    assert (again / "pm25.csv").read_bytes() == \
        (synth_dir / "pm25.csv").read_bytes()
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), "--hours", "36",
                 "--n-sensors", "10", "--height", "12", "--width", "12",
                 "--seed", "4"]) == 0
    assert (other / "pm25.csv").read_bytes() != \
        (again / "pm25.csv").read_bytes()


def test_resolved_config_reproduces_run(tmp_path, synth_dir):
    rerun = tmp_path / "rerun"
    rc = main(["synth", "--config", str(synth_dir / "resolved.cfg"),
               "--out", str(rerun)])
    assert rc == 0
    assert (rerun / "pm25.csv").read_bytes() == \
        (synth_dir / "pm25.csv").read_bytes()


def test_synth_bad_grid_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--height", "4"])
    assert rc == 2
    assert "too small" in capsys.readouterr().err


@pytest.mark.parametrize("noise_sd", ["nan", "inf"])
def test_synth_non_finite_noise_exits_2_writing_nothing(tmp_path, capsys, noise_sd):
    # nan simulated a noiseless panel; inf wrote zeros for infinite readings
    out = tmp_path / "d"
    rc = main(["synth", "--out", str(out), "--hours", "24", "--noise-sd", noise_sd])
    assert rc == 2
    assert "noise_sd must be finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _write_raw(raw, with_wind=True):
    raw.mkdir()
    coords = {"s1": (36.70, -119.80), "s2": (36.71, -119.79),
              "s3": (36.72, -119.81), "s4": (36.69, -119.78)}
    lines = ["sensor_id,latitude,longitude"]
    lines += [f"{sid},{lat},{lon}" for sid, (lat, lon) in coords.items()]
    (raw / "sensors.csv").write_text("\n".join(lines) + "\n")

    rows = ["sensor_id,timestamp,value"]
    for hour in range(6):
        ts = f"2024-03-01T{hour:02d}:00:00Z"
        rows.append(f"s1,{ts},{10 + hour}")
        if hour != 3:                       # isolated gap, filled
            rows.append(f"s2,{ts},{20 + hour}")
        rows.append(f"s3,{ts},{5 + hour}")
        if hour < 2:                        # 4-hour gap, dropped
            rows.append(f"s4,{ts},{30 + hour}")
        rows.append(f"s9,{ts},1.0")         # no coordinates, skipped
    rows.append("s1,not-a-time,4.0")        # malformed, skipped
    rows.append("s3,2024-03-01T05:30:00Z,-2.0")   # clamped to zero
    (raw / "pm25.csv").write_text("\n".join(rows) + "\n")

    if with_wind:
        wrows = ["timestamp,wind_speed_kmh,wind_dir_deg"]
        wrows += [f"2024-03-01T{hour:02d}:00:00Z,{5 + hour},{30 * hour}"
                  for hour in range(6)]
        (raw / "wind.csv").write_text("\n".join(wrows) + "\n")


def test_ingest_happy_path(tmp_path, capsys):
    raw = tmp_path / "raw"
    _write_raw(raw)
    out = tmp_path / "canon"
    rc = main(["ingest", "--raw", str(raw), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "dropped 1 gappy sensors, filled 1 isolated hours" in stdout
    assert "1 malformed rows skipped" in stdout
    assert "1 negative values clamped" in stdout

    ds = load_dataset(out)
    assert ds.provenance == "real"
    assert ds.sensor_ids() == ["s1", "s2", "s3"]
    assert ds.hours == 6
    # the isolated s2 gap was filled with the mean of its neighbors
    j = ds.sensor_ids().index("s2")
    assert ds.pm25[3, j] == pytest.approx((22 + 24) / 2)
    # hour 5 of s3 averages the on-the-hour reading with the clamped one
    k = ds.sensor_ids().index("s3")
    assert ds.pm25[5, k] == pytest.approx((10 + 0) / 2)
    assert np.isfinite(ds.pm25).all()


def test_ingest_of_isolated_gaps_keeps_its_bytes(tmp_path):
    # at the default --max-gap-hours 1 an isolated hour is the average of
    # its two neighbors, or its one neighbor at an end of the series
    raw = tmp_path / "raw"
    _write_raw(raw)
    series = {"s1": [0.1, None, 0.7, 1.3, None, 2.9], "s2": [None, 3.3, 4.1, 5.0, 6.2, None],
              "s3": [0.3, 1 / 3, None, 2 / 3, 0.2, 0.35], "s4": [7.0, 7.5, 8.25, 9.0, 9.9, 11.1]}
    (raw / "pm25.csv").write_text("sensor_id,timestamp,value\n" + "".join(
        f"{sid},2024-03-01T{hour:02d}:00:00Z,{value!r}\n"
        for sid, values in series.items() for hour, value in enumerate(values)
        if value is not None))
    out = tmp_path / "canon"
    assert main(["ingest", "--raw", str(raw), "--out", str(out)]) == 0
    rows = (out / "pm25.csv").read_text().splitlines()
    for row in ("s1,2024-03-01T01:00:00+00:00,0.39999999999999997",
                "s1,2024-03-01T04:00:00+00:00,2.1",
                "s2,2024-03-01T00:00:00+00:00,3.3", "s2,2024-03-01T05:00:00+00:00,6.2",
                "s3,2024-03-01T02:00:00+00:00,0.5"):
        assert row in rows
    assert hashlib.sha256((out / "pm25.csv").read_bytes()).hexdigest() == \
        "8bf1a812fee8e31daae77c116734a384d37adc43d502ed3080694009fe48c69a"


def test_ingest_missing_wind_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw"
    _write_raw(raw, with_wind=False)
    rc = main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "wind.csv" in capsys.readouterr().err


def test_ingest_that_keeps_no_sensor_exits_2_writing_nothing(tmp_path, capsys):
    # every sensor reports only at hours 0 and 5; this once exited 0 with
    # "ingested 0 sensors" and wrote a directory load_dataset refused
    raw = tmp_path / "raw"
    _write_raw(raw)
    (raw / "pm25.csv").write_text("sensor_id,timestamp,value\n" + "".join(
        f"s{j},2024-03-01T0{hour}:00:00Z,{j}\n" for j in range(1, 5) for hour in (0, 5)))
    rc = main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "gap filter dropped all 4 sensors" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_ingest_negative_max_gap_exits_2_writing_nothing(tmp_path, capsys):
    # -1 once dropped every sensor without a word
    raw = tmp_path / "raw"
    _write_raw(raw)
    rc = main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "c"),
               "--max-gap-hours=-1"])
    assert rc == 2
    assert "max_gap_hours must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_train_on_three_sensors_exits_2_before_writing(tmp_path, capsys):
    # a 3-sensor split once left one train sensor, and train only failed
    # at the graph, after it had written resolved.cfg and seed0/
    raw = tmp_path / "raw"
    _write_raw(raw)
    assert main(["ingest", "--raw", str(raw), "--out", str(tmp_path / "c")]) == 0
    assert len(load_dataset(tmp_path / "c").sensors) == 3
    rc = main(["train", "--dataset", str(tmp_path / "c"), "--out", str(tmp_path / "t"),
               "--seeds", "0", "--max-epochs", "1"])
    assert rc == 2
    assert "need at least 4 sensors to split, got 3" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("lr", ["1e-2", "3e-2"])
def test_a_finite_training_blow_up_exits_2_before_any_checkpoint(synth_dir, tmp_path, capsys, lr):
    # epoch 1's train MSE reads 5.8e10 at lr 1e-2 and 1.05e17 at 3e-2,
    # against a train readings' variance of 8.5e4: finite, so once it
    # trained on and wrote a best.ckpt
    rc = main(["train", "--dataset", str(synth_dir), "--out", str(tmp_path / "t"),
               "--lr", lr, "--batch-size", "8", "--patience", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "at epoch 1 exceeds 10000 times the train readings' variance" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "t").rglob("*.ckpt"))


def test_train_without_validation_readings_exits_2_before_any_checkpoint(synth_dir, tmp_path,
                                                                         capsys):
    dataset = load_dataset(synth_dir)
    val = make_split(dataset.sensor_ids(), seed=0).val
    pm25 = dataset.pm25.copy()
    pm25[:, [dataset.sensor_ids().index(s) for s in val]] = np.nan
    export_dataset(replace(dataset, pm25=pm25), tmp_path / "data")
    rc = main(["train", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "t"),
               "--seeds", "0", "--max-epochs", "1", "--val-hour-stride", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"val sensors {', '.join(val)} have no reading at any validation hour "
            f"(val_hour_stride 3)") in err and "Traceback" not in err
    # the check runs before cmd_train writes resolved.cfg, which it once left behind
    assert not (tmp_path / "t").exists()


def test_train_with_a_gap_in_a_train_sensor_exits_2_writing_nothing(synth_dir, tmp_path,
                                                                     capsys):
    # train_model's input checks run before cmd_train writes resolved.cfg,
    # which a refused run once left behind
    dataset = load_dataset(synth_dir)
    sensor = make_split(dataset.sensor_ids(), seed=0).train[0]
    pm25 = dataset.pm25.copy()
    pm25[5, dataset.sensor_ids().index(sensor)] = np.nan
    export_dataset(replace(dataset, pm25=pm25), tmp_path / "data")
    rc = main(["train", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "t"),
               "--seeds", "0", "--max-epochs", "1"])
    assert rc == 2
    assert "train sensors have missing hours" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def _break_line(path, line, text):
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")


def _drop_manifest_hours(data):
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["hours"]
    (data / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda d: _break_line(d / "wind.csv", 3, "2024-01-01T01:00:00+00:00,fast,90.0"),
                 "wind.csv, line 3: wind speed or direction is not a finite number", id="wind-speed"),
    pytest.param(lambda d: _break_line(d / "wind.csv", 3, "2024-01-01T01:00:00+00:00,5.0,east"),
                 "wind.csv, line 3: wind speed or direction is not a finite number", id="wind-direction"),
    pytest.param(lambda d: _break_line(d / "wind.csv", 3, "tomorrow,5.0,90.0"),
                 "wind.csv, line 3: unparsable timestamp", id="wind-timestamp"),
    pytest.param(lambda d: _break_line(d / "wind.csv", 3, "2024-01-01T00:00:00+00:00,5.0,90.0"),
                 "wind.csv, line 3: a second row for hour 2024-01-01T00:00:00",
                 id="wind-duplicate-hour"),
    pytest.param(lambda d: _break_line(d / "sensors.csv", 2, "s00,north,-119.7"),
                 "sensors.csv, line 2: non-numeric latitude or longitude", id="sensor-latitude"),
    pytest.param(_drop_manifest_hours, "manifest.json: missing field 'hours'",
                 id="manifest-hours"),
])
def test_malformed_dataset_files_exit_2_naming_the_file(synth_dir, tmp_path, damage,
                                                        message, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    damage(data)
    rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "t"),
               "--seeds", "0", "--max-epochs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_outputs(train_dir):
    for seed in (0, 1):
        assert (train_dir / f"seed{seed}" / "best.ckpt").exists()
    resolved = read_config_file(train_dir / "resolved.cfg")
    assert resolved["seeds"] == "0,1"
    assert resolved["preset"] == "S"
    assert resolved["max_epochs"] == "2"
    model, _, split, _ = load_trained(train_dir / "seed0" / "best.ckpt")
    # preset S resolves to its fixed architecture in the saved config
    assert (model.config.n_layers, model.config.hidden_dim) == (3, 128)
    assert len(split.train) + len(split.val) + len(split.test) == 10


def test_train_resolved_config_reproduces_run(tmp_path, train_dir):
    # the README's promise: --config <out>/resolved.cfg repeats the run
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", str(train_dir / "resolved.cfg"),
                 "--out", str(rerun)]) == 0
    for seed in (0, 1):
        for name in ("best.ckpt", "state.json"):
            assert (rerun / f"seed{seed}" / name).read_bytes() == \
                (train_dir / f"seed{seed}" / name).read_bytes(), (seed, name)


def test_train_config_holding_a_retired_key_exits_2_naming_it(tmp_path, train_dir, capsys):
    # a resolved.cfg written while local_norm, aggregation and eval_batch
    # were options holds those lines; the README says to delete them
    cfg = tmp_path / "old.cfg"
    cfg.write_text((train_dir / "resolved.cfg").read_text()
                   + "local_norm = inverse\naggregation = sum\neval_batch = 64\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "aggregation, eval_batch, local_norm" in err
    assert not (tmp_path / "t").exists()
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(train_dir / "resolved.cfg"),
              "--out", str(tmp_path / "t"), "--eval-batch", "64"])
    assert exc.value.code == 2 and "--eval-batch" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_train_config_holding_val_every_exits_2_before_any_work(tmp_path, train_dir,
                                                                 monkeypatch, capsys):
    # every epoch validates, so a resolved.cfg written while --val-every
    # was an option holds a line that must go, and the flag is gone
    def no_work(*args, **kwargs):
        raise AssertionError("train read its dataset")

    monkeypatch.setattr(cli, "load_dataset", no_work)
    cfg = tmp_path / "old.cfg"
    cfg.write_text((train_dir / "resolved.cfg").read_text() + "val_every = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys for this command: val_every" in err
    assert not (tmp_path / "t").exists()
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(train_dir / "resolved.cfg"),
              "--out", str(tmp_path / "t"), "--val-every", "1"])
    assert exc.value.code == 2 and "--val-every" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_train_seeds_differ(train_dir):
    a = (train_dir / "seed0" / "best.ckpt").read_bytes()
    b = (train_dir / "seed1" / "best.ckpt").read_bytes()
    assert a != b


def test_train_resume_completed_run(synth_dir, train_dir, capsys):
    rc = main(["train", "--dataset", str(synth_dir), "--out", str(train_dir),
               "--seeds", "0,1", "--max-epochs", "2", "--batch-size", "8",
               "--patience", "5", "--lr", "1e-3", "--resume"])
    assert rc == 0
    assert "seed 0: best val mse" in capsys.readouterr().out


def test_train_resume_of_an_early_stopped_run_changes_no_file(synth_dir, tmp_path):
    # patience 1 stops this run at epoch 2 of 4; a resume must not train on
    argv = ["train", "--dataset", str(synth_dir), "--out", str(tmp_path / "run"),
            "--seeds", "0", "--max-epochs", "4", "--batch-size", "8",
            "--patience", "1", "--lr", "1e-3"]
    assert main(argv) == 0
    run = tmp_path / "run" / "seed0"
    assert json.loads((run / "state.json").read_text())["epoch"] < 4
    files = {name: (run / name).read_bytes()
             for name in ("best.ckpt", "last.ckpt", "last.optim", "state.json")}
    assert main(argv + ["--resume"]) == 0
    assert {name: (run / name).read_bytes() for name in files} == files


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

MODEL_LINEUP = ["mean_fill", "idw", "kriging", "gp", "gnn"]


def test_evaluate_report_files(eval_dir):
    text = (eval_dir / "report.txt").read_text()
    for name in MODEL_LINEUP:
        assert name in text
    assert "test-high-sh" in text
    assert "MAE by spatial-heterogeneity bin:" in text
    for row in ("0%", "20%", "40%", "60%", "80%"):
        assert row in text
    assert (eval_dir / "resolved.cfg").exists()


def test_evaluate_json_payload(eval_dir):
    payload = json.loads((eval_dir / "report.json").read_text())
    metrics = payload["metrics"]
    assert len(metrics) == 2 * len(MODEL_LINEUP)   # test + test-high-sh
    by_label = {}
    for entry in metrics:
        by_label.setdefault(entry["label"], {})[entry["model"]] = entry
    assert sorted(by_label) == ["test", "test-high-sh"]
    counts = {m["count"] for m in by_label["test"].values()}
    assert len(counts) == 1 and counts.pop() > 0
    for entry in by_label["test"].values():
        assert entry["mae"] > 0 and entry["mse"] >= entry["mae"] ** 2
    assert payload["density"]["fractions"] == [0.0, 0.2, 0.4, 0.6, 0.8]
    assert set(payload["extra"]["mae_ratio_vs_gnn"]) == {"ground_truth", "sh"}
    assert len(payload["extra"]["checkpoints"]) == 2


def test_evaluate_report_names_what_fixes_its_bits(eval_dir):
    facts = json.loads((eval_dir / "report.json").read_text())["facts"]
    assert facts["numpy"] == np.__version__
    assert set(facts["blas"]) == {"name", "version"}
    assert all(isinstance(v, str) and v for v in facts["blas"].values())
    assert facts["blas_threads"] == {var: os.environ.get(var) for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert facts["eval_batch"] == 64


def test_evaluate_no_density(synth_dir, train_dir, tmp_path):
    out = tmp_path / "nodensity"
    rc = main(["evaluate", "--dataset", str(synth_dir),
               "--models", str(train_dir), "--out", str(out), "--no-density"])
    assert rc == 0
    assert "removed" not in (out / "report.txt").read_text()
    assert "density" not in json.loads((out / "report.json").read_text())


def test_evaluate_on_a_network_too_small_for_the_density_sweep_exits_2_before_any_run(
        tmp_path, monkeypatch, capsys):
    # 6 sensors split 4/1/1, and removing 80% of 4 context sensors leaves 1
    data, runs, out = tmp_path / "data6", tmp_path / "runs6", tmp_path / "eval6"
    assert main(["synth", "--out", str(data), "--hours", "36", "--n-sensors", "6",
                 "--height", "12", "--width", "12", "--seed", "3"]) == 0
    assert main(["train", "--dataset", str(data), "--out", str(runs), "--seeds", "0",
                 "--max-epochs", "1", "--batch-size", "8"]) == 0
    # every runner, and the gp search, comes from benchmark_runners
    calls = []
    real_runners = cli.benchmark_runners

    def recorded_runners(*args, **kwargs):
        calls.append(args)
        return real_runners(*args, **kwargs)

    monkeypatch.setattr(cli, "benchmark_runners", recorded_runners)
    capsys.readouterr()
    argv = ["evaluate", "--dataset", str(data), "--models", str(runs), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "removing 3 of 4 context sensors leaves 1" in err and "--no-density" in err
    assert calls == []
    assert not out.exists()
    assert main(argv + ["--no-density"]) == 0
    assert len(calls) == 1
    assert (out / "report.json").is_file()


@pytest.mark.parametrize("density", ["--density", "--no-density"])
def test_evaluate_parallel_matches_serial(synth_dir, train_dir, tmp_path, density):
    # with the sweep, the pooled runner also runs every removal's context
    serial, parallel = tmp_path / "w1", tmp_path / "w2"
    for out, workers in ((serial, "1"), (parallel, "2")):
        rc = main(["evaluate", "--dataset", str(synth_dir),
                   "--models", str(train_dir), "--out", str(out),
                   "--workers", workers, density])
        assert rc == 0
    for name in ("report.txt", "report.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_evaluate_starts_no_more_workers_than_test_sensors(synth_dir, train_dir, eval_dir,
                                                           tmp_path, monkeypatch):
    # every run scores the test sensors, one group of them per worker; a
    # worker past their count once started and never had work
    started = []

    class Recording(cli.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
    n_test = len(load_trained(train_dir / "seed0" / "best.ckpt")[2].test)
    out = tmp_path / "many"
    assert main(["evaluate", "--dataset", str(synth_dir), "--models", str(train_dir),
                 "--out", str(out), "--workers", str(n_test + 1)]) == 0
    assert started == [n_test]
    for name in ("report.txt", "report.json"):
        assert (out / name).read_bytes() == (eval_dir / name).read_bytes(), name


def test_library_report_has_the_cli_report_bytes(synth_dir, train_dir, eval_dir, tmp_path):
    # the steps evaluate takes, without the CLI
    ds = load_dataset(synth_dir)
    paths = sorted(train_dir.glob("seed*/best.ckpt"))
    loaded = [load_trained(p) for p in paths]
    _, normalizer, split, _ = loaded[0]
    runners = benchmark_runners(ds, split.train, models=[m for m, _, _, _ in loaded],
                                normalizer=normalizer)
    run = evaluate_models(ds, split.train, split.test, runners)
    density = density_experiment(ds, split.train, split.test, runners, main=run)
    text, payload = build_report(run, density, checkpoints=paths)
    assert list(payload) == ["metrics", "density", "binned_mae", "extra", "facts"]
    assert text.encode() == (eval_dir / "report.txt").read_bytes()
    write_summary(tmp_path / "report.json", payload)
    assert (tmp_path / "report.json").read_bytes() == (eval_dir / "report.json").read_bytes()


@pytest.mark.parametrize("below", ["", "sub"])
def test_evaluate_out_naming_a_file_exits_2_before_any_run(synth_dir, train_dir, tmp_path,
                                                           monkeypatch, capsys, below):
    # once, the gp search, the main table and the density sweep all ran
    # before creating the output directory failed
    calls = []
    real_runners = cli.benchmark_runners

    def recorded_runners(*args, **kwargs):
        calls.append(args)
        return real_runners(*args, **kwargs)

    monkeypatch.setattr(cli, "benchmark_runners", recorded_runners)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["evaluate", "--dataset", str(synth_dir), "--models", str(train_dir),
               "--out", str(taken / below)])
    assert rc == 2
    assert str(taken) in capsys.readouterr().err
    assert calls == []
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command, first_read", [
    (["synth", "--hours", "4"], "make_synthetic_dataset"),
    (["ingest", "--raw", "raw"], "load_sensors"),
    (["train", "--dataset", "SYNTH", "--seeds", "0"], "load_dataset"),
])
def test_out_naming_a_file_exits_2_before_any_input_is_read(synth_dir, tmp_path, monkeypatch,
                                                             capsys, command, first_read, below):
    # once, synth simulated every hour and train loaded the dataset before
    # creating the output directory failed with a raw [Errno 17] or [Errno 20]
    def never(*args, **kwargs):
        raise AssertionError(f"{first_read} ran")

    monkeypatch.setattr(cli, first_read, never)
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    command = [str(synth_dir) if arg == "SYNTH" else arg for arg in command]
    rc = main(command + ["--out", str(taken / below)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{taken} is not a directory" in err and "Traceback" not in err
    assert taken.read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_evaluate_without_checkpoints_exits_2(synth_dir, tmp_path, capsys):
    rc = main(["evaluate", "--dataset", str(synth_dir),
               "--models", str(tmp_path / "empty"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "no checkpoints" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------

def _library_point(train_dir, ds, lat, lon, hours, context=None):
    """infer_at_location on train_dir's ensemble, from its train sensors
    or from the given context ids."""
    loaded = [load_trained(p) for p in sorted(train_dir.glob("seed*/best.ckpt"))]
    models = [model for model, _, _, _ in loaded]
    _, normalizer, split, _ = loaded[-1]
    return infer_at_location(models, normalizer, ds, context or split.train, lat, lon, hours)


def test_interpolate_point_matches_library(synth_dir, train_dir, capsys):
    ds = load_dataset(synth_dir)
    lat = float(np.mean([s.latitude for s in ds.sensors]))
    lon = float(np.mean([s.longitude for s in ds.sensors]))
    rc = main(["interpolate", "--dataset", str(synth_dir),
               "--models", str(train_dir),
               "--lat", repr(lat), "--lon", repr(lon), "--hours", "0:12"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "hour,timestamp,pm25"
    assert len(lines) == 13

    want = _library_point(train_dir, ds, lat, lon, np.arange(12))
    got = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.array_equal(got, want)
    assert lines[1].split(",")[1] == "2024-01-01T00:00:00+00:00"


def test_interpolate_context_all_predicts_from_every_sensor(synth_dir, train_dir, capsys):
    # --context all joins the query to the graph of all 10 sensors, held-out
    # ones included; at a sensor's own coordinates too
    ds = load_dataset(synth_dir)
    sensor = ds.sensors[0]
    for lat, lon in ((36.75, -119.75), (sensor.latitude, sensor.longitude)):
        assert main(["interpolate", "--dataset", str(synth_dir), "--models", str(train_dir),
                     "--context", "all", "--lat", repr(lat), "--lon", repr(lon),
                     "--hours", "0:3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        got = np.array([float(line.split(",")[2]) for line in lines[1:]])
        want = _library_point(train_dir, ds, lat, lon, np.arange(3),
                              context=ds.sensor_ids())
        assert np.array_equal(got, want)
        assert not np.array_equal(got, _library_point(train_dir, ds, lat, lon, np.arange(3)))


def test_models_may_name_one_run_directory(synth_dir, train_dir, capsys):
    # a run directory holding best.ckpt is that one checkpoint
    outputs = []
    for models in (train_dir / "seed0", train_dir / "seed0" / "best.ckpt"):
        assert main(_point_query(synth_dir, models)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert main(_point_query(synth_dir, train_dir)) == 0
    assert capsys.readouterr().out != outputs[0]


@pytest.mark.parametrize("flag, value", [("--gp-selection-stride", "0"),
                                         ("--gp-selection-stride", "-3"),
                                         ("--idw-power", "0"), ("--idw-power", "-1"),
                                         ("--idw-power", "nan"), ("--idw-power", "inf"),
                                         ("--eval-batch", "64"), ("--eval-batch", "0")])
def test_bad_baseline_settings_are_refused_before_any_work(synth_dir, train_dir, eval_dir,
                                                           tmp_path, monkeypatch, capsys,
                                                           flag, value):
    # the idw power, the gp selection stride and the inference hour chunk
    # are constants: an evaluate resolved.cfg written while they were
    # options names their keys, and each one, whatever its value, is
    # refused before the gp search runs
    def no_search(*args, **kwargs):
        raise AssertionError(f"the gp search ran before {flag} was refused")

    monkeypatch.setattr(evaluation, "select_gp_hyperparameters", no_search)
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "old.cfg"
    cfg.write_text((eval_dir / "resolved.cfg").read_text() + f"{key} = {value}\n")
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err and key in err
    assert not (tmp_path / "e").exists()
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--dataset", str(synth_dir), "--models", str(train_dir),
              "--out", str(tmp_path / "e"), f"{flag}={value}"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["0", "-0.01", "nan", "inf"])
def test_bad_learning_rate_exits_2_before_any_work(tmp_path, capsys, lr):
    # lr 0 once wrote an untrained checkpoint, and -0.01 one with a val
    # mse of 4e15, each with exit 0; the dataset path is never read
    rc = main(["train", "--dataset", str(tmp_path / "missing"),
               "--out", str(tmp_path / "t"), f"--lr={lr}"])
    assert rc == 2
    assert "lr must be" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_interpolate_grid(synth_dir, train_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["interpolate", "--dataset", str(synth_dir),
               "--models", str(train_dir), "--out", str(out),
               "--grid-lat", "36.70:36.72:2",
               "--grid-lon=-119.81:-119.79:2",
               "--hours", "5"])
    assert rc == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == "latitude,longitude,hour,pm25"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        lat, lon, hour, value = line.split(",")
        assert hour == "5"
        assert np.isfinite(float(value))
    assert (out / "predictions.csv").read_text() == text


def test_interpolate_out_naming_a_file_exits_2_printing_nothing(synth_dir, train_dir,
                                                               tmp_path, capsys):
    # once, every prediction row went to stdout before creating the output
    # directory failed
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["interpolate", "--dataset", str(synth_dir), "--models", str(train_dir),
               "--lat", "36.75", "--lon", "-119.75", "--hours", "0:2", "--out", str(taken)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(taken) in captured.err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("query", [
    ["--grid-lat", "36.70:36.72:2", "--grid-lon=-119.81:-119.79:2", "--hours", "5"],
    ["--lat", "36.71", "--lon", "-119.8"],
], ids=["grid", "point-every-hour"])
def test_interpolate_resolved_config_reproduces_run(synth_dir, train_dir, tmp_path, query):
    # the other mode's keys, and --hours when left out, are unset: their
    # lines once read "None", which no coercer takes back
    out, replay = tmp_path / "run", tmp_path / "replay"
    assert main(["interpolate", "--dataset", str(synth_dir), "--models", str(train_dir),
                 "--out", str(out)] + query) == 0
    assert "None" not in (out / "resolved.cfg").read_text()
    assert main(["interpolate", "--config", str(out / "resolved.cfg"),
                 "--out", str(replay)]) == 0
    assert (replay / "predictions.csv").read_bytes() == (out / "predictions.csv").read_bytes()


def test_interpolate_config_holding_a_retired_key_exits_2_naming_it(synth_dir, train_dir,
                                                                    tmp_path, capsys):
    # an interpolate resolved.cfg written while eval_batch was an option
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"dataset = {synth_dir}\nmodels = {train_dir}\n"
                   "lat = 36.7\nlon = -119.8\neval_batch = 64\n")
    assert main(["interpolate", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    captured = capsys.readouterr()
    assert "unknown config keys" in captured.err and "eval_batch" in captured.err
    assert captured.out == "" and not (tmp_path / "p").exists()
    with pytest.raises(SystemExit) as exc:
        main(["interpolate", "--config", str(cfg), "--eval-batch", "64"])
    assert exc.value.code == 2 and "--eval-batch" in capsys.readouterr().err


def test_resolved_config_replays_from_another_directory(synth_dir, train_dir, tmp_path,
                                                       monkeypatch):
    # paths given relative to the run's directory are recorded absolute;
    # they were once recorded as given, and a replay started elsewhere
    # exited 2 with "dataset path does not exist"
    monkeypatch.chdir(tmp_path)
    data, models = os.path.relpath(synth_dir), os.path.relpath(train_dir)
    runs = {"interpolate": ("grid", ["--grid-lat", "36.70:36.72:2",
                                     "--grid-lon=-119.81:-119.79:2", "--hours", "0:2"],
                            ["predictions.csv"]),
            "evaluate": ("eval", ["--no-density"], ["report.txt", "report.json"])}
    for command, (out, argv, _) in runs.items():
        assert main([command, "--dataset", data, "--models", models, "--out", out] + argv) == 0
        resolved = read_config_file(tmp_path / out / "resolved.cfg")
        assert all(os.path.isabs(resolved[key]) for key in ("dataset", "models", "out"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    for command, (out, _, outputs) in runs.items():
        assert main([command, "--config", str(tmp_path / out / "resolved.cfg"),
                     "--out", "replay-" + out]) == 0
        for name in outputs:
            assert (elsewhere / f"replay-{out}" / name).read_bytes() == \
                (tmp_path / out / name).read_bytes(), (command, name)


def test_negative_sweep_parses_with_or_without_equals(synth_dir, train_dir, tmp_path):
    # argparse alone reads "-119.81:-119.79:2" as an option and exits 2
    written = []
    for spelling in (["--grid-lon=-119.81:-119.79:2"], ["--grid-lon", "-119.81:-119.79:2"]):
        out = tmp_path / str(len(written))
        rc = main(["interpolate", "--dataset", str(synth_dir), "--models", str(train_dir),
                   "--out", str(out), "--grid-lat", "36.70:36.72:2", "--hours", "5"] + spelling)
        assert rc == 0
        written.append((out / "predictions.csv").read_bytes())
    assert written[0] == written[1]


def test_dash_values_join_only_their_flag():
    parse = build_parser().parse_args
    argv = ["interpolate", "--lat", "36.7", "--lon", "-119.8", "--grid-lat", "-1:-.5:3"]
    joined = cli._attach_dash_values(argv)
    assert joined == argv[:3] + ["--lon=-119.8", "--grid-lat=-1:-.5:3"]
    # a plain negative number parsed before and parses the same now
    assert vars(parse(joined)) == vars(parse(argv[:5] + ["--grid-lat=-1:-.5:3"]))
    assert parse(joined).lon == -119.8
    # a flag followed by a real option still lacks its value
    with pytest.raises(SystemExit) as err:
        main(["interpolate", "--grid-lon", "--context", "all"])
    assert err.value.code == 2


@pytest.mark.parametrize("extra", [
    ["--hours", "40:50", "--lat", "36.7", "--lon", "-119.8"],
    ["--hours", "abc", "--lat", "36.7", "--lon", "-119.8"],
    ["--hours", "5:5", "--lat", "36.7", "--lon", "-119.8"],
    ["--lat", "36.7"],                                   # lon missing
    ["--lat", "36.7", "--lon", "-119.8", "--grid-lat", "36:37:2",
     "--grid-lon=-120:-119:2"],                          # both modes
    [],                                                  # neither mode
    ["--grid-lat", "36:37:0", "--grid-lon=-120:-119:2"],
])
def test_interpolate_bad_requests_exit_2(synth_dir, train_dir, extra):
    rc = main(["interpolate", "--dataset", str(synth_dir),
               "--models", str(train_dir)] + extra)
    assert rc == 2


def _point_query(synth_dir, models):
    return ["interpolate", "--dataset", str(synth_dir), "--models", str(models),
            "--lat", "36.75", "--lon", "-119.75", "--hours", "0:2"]


def test_optimizer_state_as_models_exits_2_naming_the_file(synth_dir, train_dir, capsys):
    # last.optim is a checkpoint-format file that holds no model
    optim = train_dir / "seed0" / "last.optim"
    assert main(_point_query(synth_dir, optim)) == 2
    err = capsys.readouterr().err
    assert str(optim) in err and "model_config" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, other", [("activation", "identity"), ("local_norm", "direct"),
                                        ("aggregation", "mean")])
def test_checkpoint_naming_another_design_exits_2(synth_dir, train_dir, tmp_path, capsys,
                                                  key, other):
    # every checkpoint records the one design, relu, inverse and sum; one
    # that names another was trained by some other model
    manifest, arrays = load_arrays(str(train_dir / "seed0" / "best.ckpt"))
    assert manifest["extra"]["model_config"][key] == FIXED_DESIGN[key]
    extra = json.loads(json.dumps(manifest["extra"]))
    extra["model_config"][key] = other
    ckpt = tmp_path / f"{other}.ckpt"
    save_arrays(str(ckpt), list(arrays.items()), extra=extra)
    for argv in (_point_query(synth_dir, ckpt),
                 ["evaluate", "--dataset", str(synth_dir), "--models", str(ckpt),
                  "--out", str(tmp_path / "eval")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"{key} must be" in err and f"'{other}'" in err
    assert not (tmp_path / "eval").exists()


def test_checkpoint_of_a_one_layer_model_exits_2(synth_dir, train_dir, tmp_path, capsys):
    # every model shares its first layer at inference, so none is that layer alone
    manifest, arrays = load_arrays(str(train_dir / "seed0" / "best.ckpt"))
    extra = json.loads(json.dumps(manifest["extra"]))
    extra["model_config"].update(preset=None, n_layers=1)
    ckpt = tmp_path / "one-layer.ckpt"
    save_arrays(str(ckpt), [(name, value) for name, value in arrays.items()
                            if not name.startswith(("layer1.", "layer2."))], extra=extra)
    for argv in (_point_query(synth_dir, ckpt),
                 ["evaluate", "--dataset", str(synth_dir), "--models", str(ckpt),
                  "--out", str(tmp_path / "eval")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "at least 2 layers" in err and "Traceback" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("damage", ["missing", "misshaped"])
def test_checkpoint_with_a_missing_or_misshaped_param_exits_2(synth_dir, train_dir, tmp_path,
                                                              capsys, damage):
    manifest, arrays = load_arrays(str(train_dir / "seed0" / "best.ckpt"))
    name = list(arrays)[-1]
    if damage == "missing":
        del arrays[name]
    else:
        arrays[name] = np.zeros(arrays[name].size + 1)
    ckpt = tmp_path / f"{damage}.ckpt"
    save_arrays(str(ckpt), list(arrays.items()), extra=manifest["extra"])
    assert main(_point_query(synth_dir, ckpt)) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and repr(name) in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# dataset default from the environment
# ---------------------------------------------------------------------------

def test_dataset_env_var_default(synth_dir, train_dir, monkeypatch, capsys):
    monkeypatch.setenv("PHYSAIR_DATA_DIR", str(synth_dir))
    rc = main(["interpolate", "--models", str(train_dir),
               "--lat", "36.7", "--lon", "-119.8", "--hours", "0"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("hour,timestamp,pm25")


def test_missing_dataset_names_env_var(monkeypatch, capsys):
    monkeypatch.delenv("PHYSAIR_DATA_DIR", raising=False)
    rc = main(["train", "--out", "/tmp/never-used"])
    assert rc == 2
    assert "PHYSAIR_DATA_DIR" in capsys.readouterr().err
