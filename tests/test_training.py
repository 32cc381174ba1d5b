"""Split logic, the masking protocol, and the training loop."""

import dataclasses
import json
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from physair import training
from physair.data import Dataset
from physair.errors import ValidationError
from physair.evaluation import infer_at_location
from dataclasses import replace

from physair.geo import SensorMeta, build_graph, convection_edge_features
from physair.autodiff import load_arrays, load_params
from physair.model import GraphWiring, ModelConfig, PhysicsGnn
from physair.training import (
    Normalizer,
    SensorSplit,
    TrainConfig,
    TrainingDiverged,
    build_node_inputs,
    epoch_sample_plan,
    evaluate_target_sensor,
    load_trained,
    make_split,
    masked_batch_predictions,
    predict_masked_node,
    train_model,
    validation_mse,
)

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)


def toy_dataset(hours=24, n=6, seed=0):
    rng = np.random.default_rng(seed)
    sensors = tuple(
        SensorMeta(f"s{j}", 32.70 + 0.02 * rng.uniform(), -117.1 - 0.02 * rng.uniform())
        for j in range(n))
    base = 15.0 + 8.0 * np.sin(np.arange(hours) / 4.0)[:, None]
    pm25 = np.clip(base + rng.normal(0, 2.0, (hours, n)), 0, None)
    wind = np.column_stack([rng.uniform(2, 12, hours), rng.uniform(0, 360, hours)])
    return Dataset(sensors=sensors, start=T0, pm25=pm25, wind=wind).validate()


def tiny_model_config():
    return ModelConfig(preset=None, n_layers=2, hidden_dim=8)


# ---------------------------------------------------------------------------
# Splits.
# ---------------------------------------------------------------------------

def test_split_counts_follow_ratio_at_41():
    split = make_split([f"s{i}" for i in range(41)], seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (28, 4, 9)


def test_split_counts_follow_ratio_at_40():
    split = make_split([f"s{i}" for i in range(40)], seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (27, 4, 9)


def test_split_is_a_disjoint_cover():
    ids = [f"s{i}" for i in range(17)]
    split = make_split(ids, seed=3)
    combined = sorted(split.train + split.val + split.test)
    assert combined == sorted(ids)


def test_split_deterministic_and_seed_sensitive():
    ids = [f"s{i}" for i in range(20)]
    assert make_split(ids, seed=5) == make_split(ids, seed=5)
    assert make_split(ids, seed=5) != make_split(ids, seed=6)


def test_split_rejects_overlap():
    with pytest.raises(ValidationError):
        SensorSplit(("a", "b"), ("b",), ("c",), seed=0).validate()


# ---------------------------------------------------------------------------
# Sampling protocol.
# ---------------------------------------------------------------------------

def test_one_sample_per_hour_each_epoch():
    hours, masked = epoch_sample_plan(2928, 28, seed=0, epoch=1)
    assert len(hours) == 2928 and len(masked) == 2928
    np.testing.assert_array_equal(np.sort(hours), np.arange(2928))
    assert masked.min() >= 0 and masked.max() < 28


def test_masked_sensor_uniform_over_two_sensors():
    counts = np.zeros(2)
    for epoch in range(10):
        _, masked = epoch_sample_plan(1000, 2, seed=1, epoch=epoch)
        counts += np.bincount(masked, minlength=2)
    fractions = counts / counts.sum()
    assert abs(fractions[0] - 0.5) < 0.02


def test_plan_changes_between_epochs_but_not_between_runs():
    a1 = epoch_sample_plan(100, 5, seed=2, epoch=1)
    a2 = epoch_sample_plan(100, 5, seed=2, epoch=2)
    b1 = epoch_sample_plan(100, 5, seed=2, epoch=1)
    assert not np.array_equal(a1[0], a2[0]) or not np.array_equal(a1[1], a2[1])
    np.testing.assert_array_equal(a1[0], b1[0])
    np.testing.assert_array_equal(a1[1], b1[1])


def test_masked_sample_inputs_zeroed_with_flag_zero():
    values = np.random.default_rng(0).normal(size=(24, 4))
    hours, masked = epoch_sample_plan(24, 4, seed=0, epoch=1)
    for hour, pos in zip(hours, masked):
        x = build_node_inputs(values, int(hour), int(pos), window=2)
        np.testing.assert_array_equal(x[pos], 0.0)
        np.testing.assert_array_equal(np.delete(x[:, -1], pos), 1.0)
        np.testing.assert_array_equal(np.delete(x[:, 1], pos), np.delete(values[hour], pos))


def test_train_model_rejects_overlapping_split(tmp_path):
    ds = toy_dataset(hours=8)
    ids = ds.sensor_ids()
    # construct the broken split directly; validate() would refuse it
    bad = SensorSplit(train=tuple(ids[:3]), val=(ids[3],),
                      test=(ids[2], ids[4]), seed=0)
    with pytest.raises(ValidationError, match="overlap"):
        train_model(ds, bad, tiny_model_config(), run_config(max_epochs=1), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_window_lookback_clamps_at_series_start():
    values = np.arange(12.0).reshape(6, 2)
    x = build_node_inputs(values, hour=0, masked_pos=1, window=3)
    # hour 0 with window 3 repeats the first hour
    np.testing.assert_array_equal(x[0], [0.0, 0.0, 0.0, 1.0])
    x2 = build_node_inputs(values, hour=4, masked_pos=0, window=3)
    np.testing.assert_array_equal(x2[1], [values[2, 1], values[3, 1],
                                          values[4, 1], 1.0])


def test_normalizer_roundtrip_and_degenerate_std():
    norm = Normalizer.from_values(np.array([2.0, 4.0, 6.0]))
    x = np.array([1.0, 9.0])
    np.testing.assert_allclose(norm.denormalize(norm.normalize(x)), x,
                               atol=1e-12)
    flat = Normalizer.from_values(np.full(5, 3.0))
    assert flat.std == 1.0


# ---------------------------------------------------------------------------
# Training runs (small and fast).
# ---------------------------------------------------------------------------

def run_config(**over):
    base = dict(batch_size=32, lr=1e-3, max_epochs=3, patience=20, seed=0)
    base.update(over)
    return TrainConfig(**base)


def test_training_descends(tmp_path):
    ds = toy_dataset(hours=48)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=50, patience=50),
                         tmp_path / "run")
    history = result.state.history
    assert history[49]["train_mse"] < history[0]["train_mse"]


def test_overfits_single_hour(tmp_path):
    ds = toy_dataset(hours=1)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(lr=3e-3, max_epochs=300, patience=300),
                         tmp_path / "run")
    assert result.state.history[-1]["train_mse"] < 1e-2


def test_history_bit_identical_across_runs(tmp_path):
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    r1 = train_model(ds, split, tiny_model_config(), run_config(),
                     tmp_path / "a")
    r2 = train_model(ds, split, tiny_model_config(), run_config(),
                     tmp_path / "b")
    assert json.dumps(r1.state.history) == json.dumps(r2.state.history)
    assert (tmp_path / "a" / "best.ckpt").read_bytes() == \
        (tmp_path / "b" / "best.ckpt").read_bytes()


def test_history_records_a_finite_positive_grad_norm_per_epoch(tmp_path):
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(), run_config(),
                         tmp_path / "run")
    norms = [h["grad_norm"] for h in result.state.history]
    assert len(norms) == 3
    assert all(np.isfinite(v) and v > 0 for v in norms)
    saved = json.loads((tmp_path / "run" / "state.json").read_text())
    assert [h["grad_norm"] for h in saved["history"]] == norms


def test_saved_best_is_minimum_of_recorded_vals(tmp_path):
    # every epoch validates, so every record holds a float val_mse and
    # best.ckpt is the epoch of the lowest one
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=6), tmp_path / "run")
    vals = [h["val_mse"] for h in result.state.history]
    assert len(vals) == 6 and all(type(v) is float for v in vals)
    assert result.state.best_val_mse == min(vals)
    best = 1 + vals.index(min(vals))
    assert result.state.best_epoch == best
    saved = load_arrays(str(result.checkpoint_path))[0]["extra"]
    assert (saved["epoch"], saved["val_mse"]) == (best, min(vals))


def test_training_loop_never_reads_held_out_sensors(tmp_path):
    # a held-out reading that reached a training input would move the
    # weights; poisoned validation readings move only the validation
    # scores, so with them only last.ckpt and last.optim must match
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    config = run_config(max_epochs=2)
    train_model(ds, split, tiny_model_config(), config, tmp_path / "clean")
    for poisoned_ids, same in ((split.test, ("best.ckpt", "last.ckpt", "last.optim")),
                               (split.val + split.test, ("last.ckpt", "last.optim"))):
        poisoned = ds.pm25.copy()
        poisoned[:, [ds.sensor_ids().index(s) for s in poisoned_ids]] = 1e9
        decoy = replace(ds, pm25=poisoned).validate()
        run = tmp_path / f"decoy{len(poisoned_ids)}"
        train_model(decoy, split, tiny_model_config(), config, run)
        for name in same:
            # everything but the dataset fingerprint, which covers the
            # poisoned readings on purpose, matches bit for bit
            clean_manifest, clean = load_arrays(str(tmp_path / "clean" / name))
            decoy_manifest, poisoned_run = load_arrays(str(run / name))
            if name.endswith(".ckpt"):
                prints = [m["extra"]["dataset"].pop("fingerprint")
                          for m in (clean_manifest, decoy_manifest)]
                assert prints == [ds.fingerprint(), decoy.fingerprint()]
            assert clean_manifest == decoy_manifest
            assert all(clean[k].tobytes() == poisoned_run[k].tobytes() for k in clean)
        if split.val[0] in poisoned_ids:
            # the poison reached validation, so the check has teeth there
            assert json.loads((run / "state.json").read_text()) != \
                json.loads((tmp_path / "clean" / "state.json").read_text())


def test_a_validation_set_without_readings_is_refused_before_training(tmp_path):
    # with every val reading NaN, a whole epoch once trained and then
    # raised TrainingDiverged for a validation MSE over no samples
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    pm25 = ds.pm25.copy()
    pm25[:, [ds.sensor_ids().index(s) for s in split.val]] = np.nan
    ds = replace(ds, pm25=pm25).validate()
    with pytest.raises(ValidationError,
                       match=f"val sensors {', '.join(split.val)} have no reading .*"
                             r"val_hour_stride 1\)"):
        train_model(ds, split, tiny_model_config(), run_config(max_epochs=1), tmp_path / "run")
    assert not (tmp_path / "run").exists()
    # a reading at an hour that a stride skips does not count
    pm25[1, ds.sensor_ids().index(split.val[0])] = 20.0
    with pytest.raises(ValidationError, match="val_hour_stride 2"):
        train_model(replace(ds, pm25=pm25), split, tiny_model_config(),
                    run_config(max_epochs=1, val_hour_stride=2), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_resume_matches_uninterrupted_run(tmp_path):
    ds = toy_dataset(hours=24)
    split = make_split(ds.sensor_ids(), seed=0)
    full = train_model(ds, split, tiny_model_config(),
                       run_config(max_epochs=4), tmp_path / "full")
    train_model(ds, split, tiny_model_config(), run_config(max_epochs=2),
                tmp_path / "split")
    resumed = train_model(ds, split, tiny_model_config(),
                          run_config(max_epochs=4), tmp_path / "split",
                          resume=True)
    assert json.dumps(full.state.history) == json.dumps(resumed.state.history)
    assert (tmp_path / "full" / "last.ckpt").read_bytes() == \
        (tmp_path / "split" / "last.ckpt").read_bytes()


RUN_FILES = ("best.ckpt", "last.ckpt", "last.optim", "state.json")


def test_resuming_an_early_stopped_run_trains_nothing(tmp_path):
    # patience 1 stops the run at its first validation without a new best;
    # an uninterrupted run ends there, so a resume must leave it as it is
    ds = toy_dataset(hours=48, n=10)
    split = make_split(ds.sensor_ids(), seed=0)
    config = run_config(lr=3e-2, max_epochs=10, patience=1)
    first = train_model(ds, split, tiny_model_config(), config, tmp_path / "run")
    assert first.state.epoch < config.max_epochs
    assert first.state.evals_since_best == config.patience
    files = {name: (tmp_path / "run" / name).read_bytes() for name in RUN_FILES}
    for _ in range(2):
        resumed = train_model(ds, split, tiny_model_config(), config, tmp_path / "run",
                              resume=True)
        assert resumed.state.to_dict() == first.state.to_dict()
        assert {name: (tmp_path / "run" / name).read_bytes() for name in RUN_FILES} == files


def test_checkpoint_carries_a_dataset_fingerprint(tmp_path):
    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(), run_config(max_epochs=1),
                         tmp_path / "run")
    _, _, _, extra = load_trained(result.checkpoint_path)
    stored = extra["dataset"]["fingerprint"]
    assert stored == ds.fingerprint() and len(stored) == 64
    moved = replace(ds, sensors=(replace(ds.sensors[0], latitude=32.5),) + ds.sensors[1:])
    for other in (replace(ds, pm25=ds.pm25 + 1.0), replace(ds, wind=ds.wind[::-1].copy()),
                  moved):
        assert other.fingerprint() != stored


def test_checkpoint_records_the_fixed_train_config(tmp_path):
    # every epoch validating, the hour chunk and Adam's values are
    # constants, recorded beside the six fields, so a checkpoint names
    # every value that fixes its bits
    ds = toy_dataset(hours=12)
    split = make_split(ds.sensor_ids(), seed=0)
    assert len(dataclasses.fields(TrainConfig)) == 6
    train_model(ds, split, tiny_model_config(), run_config(max_epochs=1), tmp_path / "run")
    recorded = load_trained(tmp_path / "run" / "last.ckpt")[3]["train_config"]
    assert set(recorded) == {"batch_size", "lr", "max_epochs", "patience", "val_every",
                             "val_hour_stride", "seed", "eval_batch", "beta1", "beta2", "eps"}
    assert recorded["eval_batch"] == training.EVAL_BATCH == 64
    assert recorded["val_every"] == 1
    # so a checkpoint of a run at --eval-batch 64, the old option's default, resumes
    resumed = train_model(ds, split, tiny_model_config(), run_config(max_epochs=2),
                          tmp_path / "run", resume=True)
    assert [r["epoch"] for r in resumed.state.history] == [1, 2]


@pytest.mark.parametrize("change", ["readings", "lr", "beta1", "eval_batch", "val_every",
                                    "split", "model"])
def test_resume_refuses_other_data_or_config(tmp_path, change):
    from physair.autodiff import save_arrays

    ds = toy_dataset(hours=12)
    split = make_split(ds.sensor_ids(), seed=0)
    # preset S and its explicit sizes build the same params, so only the
    # recorded model_config tells those two runs apart
    model_config = (ModelConfig(preset=None, n_layers=3, hidden_dim=128) if change == "model"
                    else tiny_model_config())
    train_model(ds, split, model_config, run_config(max_epochs=1), tmp_path / "run")
    config = run_config(max_epochs=2)
    if change == "readings":
        ds = replace(ds, pm25=ds.pm25 * 1.01)
    elif change == "lr":
        config = run_config(max_epochs=2, lr=5e-4)
    elif change in ("beta1", "eval_batch", "val_every"):
        # Adam's values, the hour chunk and validating every epoch are
        # fixed, so only a checkpoint can name another, as one of a run
        # with --eval-batch 16 or --val-every 5 did
        last = tmp_path / "run" / "last.ckpt"
        manifest, arrays = load_arrays(str(last))
        manifest["extra"]["train_config"][change] = \
            {"beta1": 0.5, "eval_batch": 16, "val_every": 5}[change]
        save_arrays(str(last), list(arrays.items()), extra=manifest["extra"])
    elif change == "split":
        split = make_split(ds.sensor_ids(), seed=1)
    else:
        model_config = ModelConfig(preset="S")
    expected = {"readings": "dataset fingerprint", "lr": "train_config.lr",
                "beta1": "train_config.beta1", "eval_batch": "train_config.eval_batch",
                "val_every": "train_config.val_every",
                "split": "split", "model": "model_config"}[change]
    with pytest.raises(ValidationError, match=expected):
        train_model(ds, split, model_config, config, tmp_path / "run", resume=True)


def test_divergence_aborts_with_diagnostic(tmp_path):
    # Adam moves each weight by roughly lr per step, so an absurd lr
    # pushes the second forward pass past float64 range; at batch 4 that
    # is epoch 1's second batch, before its validation.
    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    with pytest.raises(TrainingDiverged, match="non-finite loss"), \
            np.errstate(over="ignore", invalid="ignore"):
        train_model(ds, split, tiny_model_config(),
                    run_config(lr=1e150, max_epochs=30, batch_size=4),
                    tmp_path / "run")


@pytest.mark.parametrize("name, value", [
    ("lr", 0.0), ("lr", -0.01), ("lr", float("nan")), ("lr", float("inf"))])
def test_optimizer_settings_are_checked(name, value):
    # lr 0 once trained nothing and -0.01 climbed to a val mse of 4e15,
    # both without an error
    with pytest.raises(ValidationError, match=name):
        run_config(**{name: value})


def test_edge_optimizer_settings_stay_legal():
    run_config(lr=1e150)


def test_train_config_records_the_fixed_adam_values():
    assert {k: TrainConfig().to_dict()[k] for k in ("beta1", "beta2", "eps")} == \
        {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    with pytest.raises(TypeError):
        TrainConfig(beta1=0.5)


def test_missing_train_hours_are_a_data_error(tmp_path):
    ds = toy_dataset(hours=8)
    ds.pm25[3, 0] = np.nan
    split = SensorSplit(train=("s0", "s1", "s2", "s3"), val=("s4",),
                        test=("s5",), seed=0)
    with pytest.raises(ValidationError):
        train_model(ds, split, tiny_model_config(), run_config(),
                    tmp_path / "run")


def test_checkpoint_roundtrip_restores_predictions(tmp_path):
    ds = toy_dataset(hours=12)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=2), tmp_path / "run")
    model, normalizer, split_back, extra = load_trained(result.checkpoint_path)
    assert split_back == split
    assert extra["model_config"]["hidden_dim"] == 8
    # an inference model carries no gradient buffers
    assert all(p.grad is None for p in model.params())
    preds, truths = evaluate_target_sensor(
        [model], normalizer, ds, split.train, split.test[0],
        np.arange(ds.hours))
    assert preds.shape == truths.shape == (12,)
    assert np.isfinite(preds).all()
    # same predictions as the trained model, whose params have gradients
    trained = PhysicsGnn(tiny_model_config(), seed=run_config().seed)
    load_params(str(result.checkpoint_path), trained.params())
    assert all(p.grad is not None for p in trained.params())
    same, _ = evaluate_target_sensor(
        [trained], normalizer, ds, split.train, split.test[0],
        np.arange(ds.hours))
    assert np.array_equal(preds, same)


def test_load_trained_reads_each_checkpoint_once(tmp_path, monkeypatch):
    import builtins

    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=1), tmp_path / "run")
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    model, _, _, _ = load_trained(result.checkpoint_path)
    monkeypatch.undo()
    assert opened == [str(result.checkpoint_path)]
    _, arrays = load_arrays(str(result.checkpoint_path))
    assert [p.name for p in model.params()] == list(arrays)
    for p in model.params():
        assert p.data.tobytes() == arrays[p.name].tobytes()
        assert p.data.flags.writeable and p.data.flags.c_contiguous


@pytest.mark.parametrize("damage", ["missing", "misshaped"])
def test_load_trained_refuses_a_missing_or_misshaped_param(tmp_path, damage):
    from physair.autodiff import save_arrays

    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=1), tmp_path / "run")
    manifest, arrays = load_arrays(str(result.checkpoint_path))
    name = next(iter(arrays))
    if damage == "missing":
        del arrays[name]
    else:
        arrays[name] = np.zeros(arrays[name].size + 1)
    bad = tmp_path / "bad.ckpt"
    save_arrays(str(bad), list(arrays.items()), extra=manifest["extra"])
    with pytest.raises(ValidationError, match=f"{bad}.* param {name!r}"):
        load_trained(bad)


def test_load_trained_draws_nothing_and_allocates_no_grad(tmp_path, monkeypatch):
    # an unfilled member: load_params gives every param the checkpoint's array
    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, ModelConfig(preset=None, n_layers=2, hidden_dim=8),
                         run_config(max_epochs=1), tmp_path / "run")
    _, arrays = load_arrays(str(result.checkpoint_path))

    def no_generator(*args, **kwargs):
        raise AssertionError("load_trained drew initial values")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model, _, _, _ = load_trained(result.checkpoint_path)
    monkeypatch.undo()
    assert [p.name for p in model.params()] == list(arrays)
    for p in model.params():
        assert p.data.tobytes() == arrays[p.name].tobytes() and p.grad is None
    # with nothing loaded, an unfilled model has its shapes and NaN values
    unfilled = PhysicsGnn(model.config, seed=None)
    assert [p.data.shape for p in unfilled.params()] == [a.shape for a in arrays.values()]
    assert all(np.isnan(p.data).all() and p.grad is None for p in unfilled.params())


@pytest.mark.parametrize("drop", ["model_config", "normalizer", "split", "train_config.seed"])
def test_load_trained_names_the_file_and_what_it_lacks(tmp_path, drop):
    from physair.autodiff import save_arrays

    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=1), tmp_path / "run")
    manifest, arrays = load_arrays(str(result.checkpoint_path))
    extra = json.loads(json.dumps(manifest["extra"]))
    *outer, key = drop.split(".")
    del (extra[outer[0]] if outer else extra)[key]
    bad = tmp_path / "bad.ckpt"
    save_arrays(str(bad), list(arrays.items()), extra=extra)
    with pytest.raises(ValidationError, match=f"{bad}.* has no '{key}'"):
        load_trained(bad)


@pytest.mark.parametrize("key, other", [("activation", "identity"), ("local_norm", "direct"),
                                        ("aggregation", "mean")])
def test_load_trained_refuses_another_design_naming_the_file(tmp_path, key, other):
    from physair.autodiff import save_arrays

    ds = toy_dataset(hours=8)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=1), tmp_path / "run")
    manifest, arrays = load_arrays(str(result.checkpoint_path))
    extra = json.loads(json.dumps(manifest["extra"]))
    extra["model_config"][key] = other
    bad = tmp_path / "bad.ckpt"
    save_arrays(str(bad), list(arrays.items()), extra=extra)
    with pytest.raises(ValidationError, match=f"{bad}: {key} must be .*'{other}'"):
        load_trained(bad)


def test_validation_mse_finite_and_reproducible(tmp_path):
    ds = toy_dataset(hours=12)
    split = make_split(ds.sensor_ids(), seed=0)
    result = train_model(ds, split, tiny_model_config(),
                         run_config(max_epochs=1), tmp_path / "run")
    model, normalizer, _, _ = load_trained(result.checkpoint_path)
    a = validation_mse([model], normalizer, ds, split)
    b = validation_mse([model], normalizer, ds, split)
    assert np.isfinite(a) and a == b


def test_train_ensemble_per_seed_dirs_and_parallel_equivalence(tmp_path):
    ds = toy_dataset(hours=12)
    split = make_split(ds.sensor_ids(), seed=0)
    cfg = TrainConfig(batch_size=8, lr=1e-3, max_epochs=2, patience=5, seed=99)
    from physair.training import train_ensemble
    seq = train_ensemble(ds, split, tiny_model_config(), cfg,
                         tmp_path / "seq", seeds=(0, 1), workers=1)
    assert [r.state.history[0]["epoch"] for r in seq] == [1, 1]
    assert (tmp_path / "seq" / "seed0" / "best.ckpt").exists()
    assert (tmp_path / "seq" / "seed1" / "best.ckpt").exists()
    # different seeds must not share weights
    a = (tmp_path / "seq" / "seed0" / "best.ckpt").read_bytes()
    b = (tmp_path / "seq" / "seed1" / "best.ckpt").read_bytes()
    assert a != b
    par = train_ensemble(ds, split, tiny_model_config(), cfg,
                         tmp_path / "par", seeds=(0, 1), workers=2)
    assert (tmp_path / "par" / "seed0" / "best.ckpt").read_bytes() == a
    assert (tmp_path / "par" / "seed1" / "best.ckpt").read_bytes() == b
    assert [r.checkpoint_path.parent.name for r in par] == ["seed0", "seed1"]


@pytest.mark.parametrize("workers", [1, 2])
def test_train_ensemble_refuses_no_seeds(tmp_path, workers):
    # no seeds once returned [] with one worker and raised the pool's bare
    # ValueError with two
    ds = toy_dataset(hours=12)
    with pytest.raises(ValidationError, match="at least one ensemble seed"):
        training.train_ensemble(ds, make_split(ds.sensor_ids(), seed=0), tiny_model_config(),
                                run_config(max_epochs=1), tmp_path / "run", seeds=(),
                                workers=workers)
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# The multi-target predictor.
# ---------------------------------------------------------------------------

def shared_context(c, g, seed):
    """(context graph, targets): c context sensors and g target sensors."""
    rng = np.random.default_rng(seed)
    points = 36.0 + 0.3 * rng.random((c + g, 2))
    metas = [SensorMeta(f"s{i}", lat, lon - 156.0) for i, (lat, lon) in enumerate(points)]
    return build_graph(metas[:c]), metas[c:]


def predictor_batch(context, config, bsz, rng):
    """(x, conv_feats) for masked_batch_predictions: random node inputs on
    the context and a query node, masked and zeroed, and one random wind
    per sample."""
    x = rng.normal(size=(bsz, context.n_nodes + 1, config.input_dim))
    x[:, -1] = 0.0
    winds = [[rng.uniform(0, 15), rng.uniform(0, 360)] for _ in range(bsz)]
    return x, lambda graph, edges=slice(None): convection_edge_features(graph, winds, edges)


def predict(models, context, targets, x, conv_feats, normalizer=Normalizer(0.0, 1.0)):
    return masked_batch_predictions(models, context, targets, x, conv_feats, normalizer)


def assert_predictor_matches_per_target_forward(config, c, bsz, g):
    models = [PhysicsGnn(config, seed=s) for s in (c, c + 1)]
    context, targets = shared_context(c, g, seed=c * 10 + g)
    x, conv_feats = predictor_batch(context, config, bsz,
                                    np.random.default_rng(config.n_layers * 100 + bsz))
    got = predict(models, context, targets, x, conv_feats)
    assert got.shape == (bsz, g)
    for col, target in enumerate(targets):
        graph = build_graph(context.sensors + (target,))
        want = sum(m.forward(x, GraphWiring(graph), conv_feats(graph), c).data
                   for m in models) / len(models)
        assert np.max(np.abs(got[:, col] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("c", [2, 3, 7, 28])
@pytest.mark.parametrize("later_layers", [1, 2, 3])
@pytest.mark.parametrize("bsz", [1, 4])
@pytest.mark.parametrize("g", [1, 2, 9])
def test_multi_target_predictor_matches_per_target_forward(c, later_layers, bsz, g):
    # the layers after the shared first one: the readout, and 0-2 stacked
    config = ModelConfig(preset=None, n_layers=1 + later_layers, hidden_dim=8)
    assert_predictor_matches_per_target_forward(config, c, bsz, g)


def test_predictor_peak_memory_does_not_grow_with_ensemble_members():
    # each member's shared context is freed before the next member builds
    # its own, so a call peaks at one member's working set however many
    # members it averages; holding two at once adds ~0.5 MB to this ~1.6 MB
    config = ModelConfig(preset=None, n_layers=3, hidden_dim=16)
    context, targets = shared_context(27, 9, seed=3)
    x, conv_feats = predictor_batch(context, config, 4, np.random.default_rng(4))
    peaks = {}
    for members in (1, 2, 3):
        models = [PhysicsGnn(config, seed=s) for s in range(members)]
        predict(models, context, targets, x, conv_feats)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict(models, context, targets, x, conv_feats)
            peaks[members] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert max(peaks[2], peaks[3]) <= 1.02 * peaks[1], peaks


def one_target_calls(models, context, targets, x, conv_feats) -> np.ndarray:
    return np.concatenate([predict(models, context, [target], x, conv_feats,
                                   Normalizer(10.0, 2.0)) for target in targets], axis=1)


@pytest.mark.parametrize("aggregation", ["sum"])
@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("c", [2, 3, 7, 28])
@pytest.mark.parametrize("later_layers", [1, 2, 3])
def test_stacked_targets_equal_one_target_calls(aggregation, window, c, later_layers):
    # a stack's forward gives each target the bits of its own forward, so
    # a prediction depends on neither G nor the other targets of its call
    config = ModelConfig.from_dict(dict(preset=None, n_layers=1 + later_layers, hidden_dim=8,
                                        aggregation=aggregation, window=window))
    models = [PhysicsGnn(config, seed=s) for s in (c, c + 1)]
    context, targets = shared_context(c, 16, seed=c * 10 + window)
    for bsz in (1, 3, 4):
        x, conv_feats = predictor_batch(context, config, bsz, np.random.default_rng(bsz))
        singles = one_target_calls(models, context, targets, x, conv_feats)
        for g in (1, 2, 9, 16):
            got = predict(models, context, targets[:g], x, conv_feats, Normalizer(10.0, 2.0))
            assert got.tobytes() == singles[:, :g].tobytes(), (bsz, g)


def test_a_row_budget_splits_the_targets_into_stacks(monkeypatch):
    config = ModelConfig(preset=None, n_layers=3, hidden_dim=8)
    models = [PhysicsGnn(config, seed=s) for s in (0, 1)]
    context, targets = shared_context(6, 9, seed=5)
    x, conv_feats = predictor_batch(context, config, 3, np.random.default_rng(5))
    singles = one_target_calls(models, context, targets, x, conv_feats)
    # 3 samples of 7 nodes: 84 rows hold 4 targets, so 9 split 4, 4, 1
    monkeypatch.setattr(training, "_STACK_ROWS", 84)
    stacks = []
    for model in models:
        def spy(x, wiring, *args, forward=model.forward, **kwargs):
            stacks.append(wiring.groups)
            return forward(x, wiring, *args, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
    got = predict(models, context, targets, x, conv_feats, Normalizer(10.0, 2.0))
    assert stacks == [4, 4, 1] * 2
    assert got.tobytes() == singles.tobytes()


def test_a_nine_target_call_peaks_below_nine_edge_buffers():
    # the row budget stacks 2 of these targets at a time, and layers
    # 1..L-2 finish each target's edge messages in one reused (B, N, N-1, d)
    # buffer, so the call peaks near 1.6 MB, below a 9-fold layer-1 edge
    # buffer (3.5 MB); 9 targets in one stack with 9 buffers held 6.3 MB
    config = ModelConfig(preset=None, n_layers=3, hidden_dim=16)
    context, targets = shared_context(27, 9, seed=3)
    x, conv_feats = predictor_batch(context, config, 4, np.random.default_rng(4))
    models = [PhysicsGnn(config, seed=0)]
    predict(models, context, targets, x, conv_feats)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict(models, context, targets, x, conv_feats)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 9 * 4 * 28 * 27 * 16 * 8, peak


def test_shared_context_pass_runs_once_per_member_and_chunk(monkeypatch):
    ds = toy_dataset(hours=6)
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    models = [PhysicsGnn(ModelConfig(preset=None, n_layers=2, hidden_dim=8), seed=s)
              for s in (0, 1)]
    calls = {id(m): [] for m in models}
    for model in models:
        share = model.share_context

        def spy(x, feats, share=share, seen=calls[id(model)]):
            seen.append(x.shape[0])
            return share(x, feats)

        monkeypatch.setattr(model, "share_context", spy)
    preds, _ = evaluate_target_sensor(models, Normalizer(10.0, 2.0), ds,
                                      ("s0", "s1", "s2"), ("s3", "s4", "s5"), None)
    assert preds.shape == (6, 3)
    assert all(seen == [4, 2] for seen in calls.values())


def test_predictor_records_no_tape(monkeypatch):
    ds = toy_dataset(hours=6)
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    model = PhysicsGnn(tiny_model_config(), seed=0)
    seen = []
    forward = model.forward

    def spy(*args, **kwargs):
        out = forward(*args, **kwargs)
        seen.append(out)
        return out

    monkeypatch.setattr(model, "forward", spy)
    preds, _ = evaluate_target_sensor([model], Normalizer(10.0, 2.0), ds,
                                      ("s0", "s1", "s2"), ("s3", "s4"), None)
    # one stack of both targets per hour chunk
    assert preds.shape == (6, 2) and len(seen) == 2
    assert all(out._vjp is None and out._parents == () for out in seen)


def test_multi_target_evaluation_matches_one_target_at_a_time(monkeypatch):
    ds = toy_dataset(hours=9)
    monkeypatch.setattr(training, "EVAL_BATCH", 4)
    models = [PhysicsGnn(ModelConfig(preset=None, n_layers=2, hidden_dim=8), seed=s)
              for s in (0, 1)]
    norm = Normalizer(15.0, 3.0)
    context, targets = ("s0", "s2", "s4"), ("s5", "s1", "s3")
    preds, truths = evaluate_target_sensor(models, norm, ds, context, targets, None)
    assert preds.shape == truths.shape == (9, 3)
    for col, target in enumerate(targets):
        one, truth = evaluate_target_sensor(models, norm, ds, context, target, None)
        assert np.array_equal(preds[:, col], one)
        assert np.array_equal(truths[:, col], truth)


def test_predictor_refuses_graphs_without_a_shared_context():
    # the context graph must be of the dataset's own sensors, and each
    # target passes build_graph's checks as it joins it
    ds = toy_dataset(hours=4)
    model = PhysicsGnn(tiny_model_config(), seed=0)
    metas = {s.sensor_id: s for s in ds.sensors}
    moved = replace(metas["s1"], latitude=metas["s1"].latitude + 0.01)
    for context, match in ((build_graph([metas["s0"], moved]), "must be the dataset's"),
                           (build_graph([metas["s0"], replace(moved, sensor_id="x")]),
                            "unknown sensor ids")):
        with pytest.raises(ValidationError, match=match):
            predict_masked_node([model], Normalizer(0.0, 1.0), context, [metas["s5"]], ds, None)
    context = build_graph([metas["s0"], metas["s1"]])
    for targets, match in (([metas["s1"]], "duplicate sensor ids"),
                           ([metas["s5"], replace(metas["s5"], latitude=91.0)], "latitude"),
                           ([], "at least one target")):
        with pytest.raises(ValidationError, match=match):
            predict_masked_node([model], Normalizer(0.0, 1.0), context, targets, ds, None)
    with pytest.raises(ValidationError, match="at least one target"):
        evaluate_target_sensor([model], Normalizer(0.0, 1.0), ds, ("s0", "s1"), (), None)


def test_a_one_sensor_context_is_refused():
    # a context graph has at least 2 sensors, as the baselines' contexts do
    ds = toy_dataset(hours=4)
    model = PhysicsGnn(tiny_model_config(), seed=0)
    with pytest.raises(ValidationError, match="at least 2 sensors"):
        evaluate_target_sensor([model], Normalizer(0.0, 1.0), ds, ("s0",), ("s1",), None)
    with pytest.raises(ValidationError, match="at least 2 sensors"):
        infer_at_location([model], Normalizer(0.0, 1.0), ds, ("s0",), 32.71, -117.11)
