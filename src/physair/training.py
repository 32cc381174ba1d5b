"""Masked-sensor training: splits, sampling, the loop, and ensembling.

The protocol is spatial hold-out. Sensors are partitioned once into
train/val/test groups. A training sample is one hour of readings over
the train sensors with a single randomly chosen sensor masked: its
input features are zeroed and its observed-flag set to 0, and the model
is scored on recovering that sensor's true value. Validation and test
sensors never appear in any training input; they are attached to the
train graph one at a time, masked, only when being evaluated.

One path per half of the protocol. ``train_model`` cuts each batch
from ``epoch_sample_plan`` and one matrix, the train sensors' readings,
so no held-out reading can reach a training input: that matrix holds
none. Every prediction at a masked node, a held-out sensor or an
arbitrary coordinate, goes through ``predict_masked_node``. It
predicts G targets that share one context at once: per chunk of
EVAL_BATCH hours and member, the context's edge path and its
first-layer messages run once for all of them, each stack of them runs
one forward, and every forward runs inside ``autodiff.no_record()``, so
inference keeps no tape. No caller sets the chunk: it moves the last
bits of a prediction, so it is a constant that checkpoints record.

Inputs are standardized by the train-set mean/std. The flag channel is
left raw, and predictions are mapped back to concentration units before
the MSE loss, so reported losses are in (ug/m3)^2.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import (
    ADAM_FIXED,
    Adam,
    Tensor,
    add,
    load_params,
    mse,
    mul,
    no_record,
    save_arrays,
    load_arrays,
    save_params,
)
from .data import Dataset, _atomic_write_text
from .errors import ValidationError
from .geo import Graph, add_node, build_graph, convection_edge_features, last_node_edges
from .model import EdgePath, GraphWiring, ModelConfig, PhysicsGnn

logger = logging.getLogger(__name__)

SPLIT_RATIO = (28, 4, 9)


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite, or an epoch's train MSE
    exceeds DIVERGED_MSE_RATIO times the train readings' variance."""


# A healthy epoch's train MSE stays under a thousand times the train
# readings' variance (perfbench's runs reach 891x); blow-ups from a
# too-large lr read 6.8e5x and more.
DIVERGED_MSE_RATIO = 1e4


# ---------------------------------------------------------------------------
# Sensor split.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensorSplit:
    train: tuple
    val: tuple
    test: tuple
    seed: int

    def validate(self, all_ids=None) -> "SensorSplit":
        groups = (set(self.train), set(self.val), set(self.test))
        total = len(self.train) + len(self.val) + len(self.test)
        if sum(len(g) for g in groups) != total:
            raise ValidationError("split contains duplicate sensor ids")
        if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
            raise ValidationError("split groups overlap")
        if not (self.train and self.val and self.test):
            raise ValidationError("every split group needs at least one sensor")
        if all_ids is not None and set().union(*groups) != set(all_ids):
            raise ValidationError("split does not cover the sensor set")
        return self

    def to_dict(self) -> dict:
        return {"train": list(self.train), "val": list(self.val),
                "test": list(self.test), "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "SensorSplit":
        return cls(tuple(d["train"]), tuple(d["val"]), tuple(d["test"]),
                   int(d["seed"])).validate()


def make_split(sensor_ids, seed: int = 0) -> SensorSplit:
    """Random sensor partition following the 28:4:9 ratio, of at least 4
    sensors: one each to validate and test, and the 2 a train graph needs."""
    ids = list(sensor_ids)
    n = len(ids)
    if n < 4:
        raise ValidationError(f"need at least 4 sensors to split, got {n}")
    total = sum(SPLIT_RATIO)
    n_val = max(1, round(n * SPLIT_RATIO[1] / total))
    n_train = min(round(n * SPLIT_RATIO[0] / total), n - n_val - 1)
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in order]
    return SensorSplit(
        train=tuple(sorted(shuffled[:n_train])),
        val=tuple(sorted(shuffled[n_train:n_train + n_val])),
        test=tuple(sorted(shuffled[n_train + n_val:])),
        seed=seed,
    ).validate(ids)


# ---------------------------------------------------------------------------
# Normalization.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normalizer:
    mean: float
    std: float

    def normalize(self, x):
        return (x - self.mean) / self.std

    def denormalize(self, y):
        return y * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(float(d["mean"]), float(d["std"]))

    @classmethod
    def from_values(cls, values: np.ndarray) -> "Normalizer":
        values = np.asarray(values, dtype=float)
        std = float(values.std())
        return cls(float(values.mean()), std if std > 0 else 1.0)


# ---------------------------------------------------------------------------
# Masked samples.
# ---------------------------------------------------------------------------

def epoch_sample_plan(n_hours: int, n_train: int, seed: int, epoch: int):
    """(hours, masked train positions) for one epoch, deterministically.

    One sample per hour, masked sensor uniform over train sensors, and
    the visit order reshuffled. Derived from (seed, epoch) alone so a
    resumed run continues exactly where an uninterrupted one would be.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
    masked = rng.integers(0, n_train, size=n_hours)
    order = rng.permutation(n_hours)
    return order, masked[order]


def build_node_inputs(values_norm: np.ndarray, hour: int, masked_pos: int,
                      window: int) -> np.ndarray:
    """Node features for one sample: windowed values plus observed flag.

    values_norm is (hours, n_nodes) already standardized. The window
    covers hours [hour-window+1, hour], clamped at the series start.
    The masked node is zeroed, flag included.
    """
    n = values_norm.shape[1]
    out = np.empty((n, window + 1))
    for w in range(window):
        h = max(0, hour - (window - 1 - w))
        out[:, w] = values_norm[h]
    out[:, window] = 1.0
    out[masked_pos, :] = 0.0
    return out


# ---------------------------------------------------------------------------
# Graph plumbing shared by training and evaluation.
# ---------------------------------------------------------------------------

def subset_dataset_values(dataset: Dataset, ids) -> np.ndarray:
    idx = {s: i for i, s in enumerate(dataset.sensor_ids())}
    missing = [s for s in ids if s not in idx]
    if missing:
        raise ValidationError(f"unknown sensor ids: {missing}")
    return dataset.pm25[:, [idx[s] for s in ids]]


def complete_readings(dataset: Dataset, ids, group: str) -> np.ndarray:
    """The readings of sensors that must report every hour, (hours, len(ids))."""
    values = subset_dataset_values(dataset, ids)
    if np.isnan(values).any():
        raise ValidationError(f"{group} sensors have missing hours; gap-filter first")
    return values


def sensor_metas(dataset: Dataset, ids) -> tuple:
    by_id = {s.sensor_id: s for s in dataset.sensors}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValidationError(f"unknown sensor ids: {missing}")
    return tuple(by_id[i] for i in ids)


def graph_for_ids(dataset: Dataset, ids) -> Graph:
    return build_graph(sensor_metas(dataset, ids))


def check_hours(hours, n_hours: int) -> np.ndarray:
    """Hour indices as an int array, each whole and in [0, n_hours).

    None means every hour. Anything else fails rather than wrapping to
    the series end (negative) or truncating (fractional).
    """
    if hours is None:
        return np.arange(n_hours)
    raw = np.asarray(hours)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise ValidationError(f"hours must be a 1-d sequence of integers: {hours!r}")
    bad = raw[(raw != np.round(raw)) | (raw < 0) | (raw >= n_hours)]
    if bad.size:
        raise ValidationError(
            f"hours {bad.tolist()} are not whole hour indices in [0, {n_hours})")
    return raw.astype(int)


def hourly_conv_features(graph: Graph, dataset: Dataset, hours,
                         edges=slice(None)) -> np.ndarray:
    """Per-edge wind triples for the given hours, (len, E, 3), or only on
    the edge positions ``edges`` (see convection_edge_features)."""
    return convection_edge_features(graph, np.take(dataset.wind, hours, axis=0), edges)


# Node rows per forward: the predictor runs its targets in stacks of
# max(1, _STACK_ROWS // (B * N)) to share a forward's fixed cost, and one
# at a time below 4 node rows each (B * N < 4): a stacked d-wide GEMM
# keeps each target's bits only in blocks of 4 rows or more at d = 512.
_STACK_ROWS = 256

# Hours per inference chunk, the B of every prediction forward. A
# prediction's last bits depend on it, so it is a constant: every
# checkpoint records it as train_config.eval_batch and every evaluate
# report as facts.eval_batch.
EVAL_BATCH = 64


def _member_predictions(model, x: np.ndarray, context_rows, stacks) -> np.ndarray:
    """One member's normalized predictions at each target, (B, G), from the
    context graph's wind triples and each stack's (wiring, query rows).

    A function of its own so that one member's shared context is freed
    when it returns, before the next member calls share_context: with the
    member loop inlined into masked_batch_predictions, the previous
    member's context stays alive while the next one is built, and perfbench
    evaluate peak_rss_mb rose from 60.1 to 65.4 MB in 3 of 3 pairs.
    """
    bsz, n = x.shape[:2]
    shared = model.share_context(x, context_rows)
    return np.concatenate([
        model.forward(x, wiring, None, n - 1, edges=EdgePath(*shared, *model.edge_path(query)))
        .data.reshape(-1, bsz) for wiring, query in stacks]).T


def masked_batch_predictions(models, context: Graph, targets, x: np.ndarray, conv_feats,
                             normalizer: Normalizer) -> np.ndarray:
    """Ensemble-mean predictions at G = len(targets) targets, (B, G), raw units.

    context: the graph of the C context sensors; targets: the targets'
    sensors, read by index; x: the targets' common (B, N, F) node inputs,
    N = C + 1; conv_feats: a function from a graph and its edge positions
    (an index array, or slice(None) for all) to those edges' (B, E, 3)
    wind triples. Target g's graph is context with targets[g] added as its
    masked last node (geo.add_node), and only its 2C query rows of wind
    triples are built. Each member runs the C(C-1) context edges and layer
    0's shared part once (PhysicsGnn.share_context), then one forward per
    stack of targets, without a tape. A stack's graphs, wirings and wind
    triples are built while it runs, the first stack's once for all
    members, so a call holds two stacks' at most however many targets it
    has. Its one caller is predict_masked_node.
    """
    bsz, n = x.shape[:2]
    size = max(1, _STACK_ROWS // (bsz * n)) if bsz * n >= 4 else 1
    context_rows = conv_feats(context, slice(None)).reshape(-1, 3)
    query_edges = last_node_edges(n)

    def stack(lo):
        graphs = [add_node(context, targets[i]) for i in range(lo, min(lo + size, len(targets)))]
        wiring = GraphWiring.stack([GraphWiring(graph) for graph in graphs], bsz)
        return wiring, np.concatenate([conv_feats(graph, query_edges).reshape(-1, 3)
                                       for graph in graphs])

    first_stack = stack(0)
    preds = np.zeros((bsz, len(targets)))
    with no_record():
        for model in models:
            later = (stack(lo) for lo in range(size, len(targets), size))
            preds += _member_predictions(model, x, context_rows,
                                         itertools.chain([first_stack], later))
    return normalizer.denormalize(preds / len(models))


def predict_masked_node(models, normalizer: Normalizer, context: Graph, targets,
                        dataset: Dataset, hours) -> np.ndarray:
    """Ensemble-mean prediction at G = len(targets) masked targets,
    (hours, G), raw units.

    context is the graph of the context sensors, which must be the
    dataset's and report every hour. targets holds the targets' SensorMeta,
    read by index a stack at a time, so it may make each when read; each
    joins context as its masked last node (see masked_batch_predictions),
    with inputs zero. The input window is the members' config.window,
    which every member must share. Hours run in chunks of EVAL_BATCH, and
    node inputs are built once per chunk. Predictions depend on how a
    call's hours fall into chunks, not on G.
    """
    if not len(targets):
        raise ValidationError("need at least one target to predict")
    windows = sorted({model.config.window for model in models})
    if len(windows) != 1:
        raise ValidationError(
            f"an ensemble needs members that share one input window, got windows {windows}")
    window = windows[0]
    hours = check_hours(hours, dataset.hours)
    ids = [s.sensor_id for s in context.sensors]
    if context.sensors != sensor_metas(dataset, ids):
        raise ValidationError("the context graph's sensors must be the dataset's")
    readings = complete_readings(dataset, ids, "context")
    values_norm = np.concatenate(
        [normalizer.normalize(readings), np.zeros((dataset.hours, 1))], axis=1)
    preds = np.empty((len(hours), len(targets)))
    for lo in range(0, len(hours), EVAL_BATCH):
        chunk = hours[lo:lo + EVAL_BATCH]
        x = np.stack([build_node_inputs(values_norm, int(h), context.n_nodes, window)
                      for h in chunk])
        preds[lo:lo + len(chunk)] = masked_batch_predictions(
            models, context, targets, x,
            lambda graph, edges: hourly_conv_features(graph, dataset, chunk, edges), normalizer)
    return preds


def evaluate_target_sensor(models, normalizer, dataset: Dataset,
                           context_ids, target_id, hours):
    """Predict held-out sensors from the context graph, hour by hour.

    Each target joins the context graph as its masked last node. With one
    target id, returns (predictions, truths), each (hours,); with a
    sequence of ids, each is (hours, G), and all targets share one
    context pass per hour chunk. ``hours`` None means every hour.
    """
    hours = check_hours(hours, dataset.hours)
    targets = (target_id,) if isinstance(target_id, str) else tuple(target_id)
    preds = predict_masked_node(models, normalizer, graph_for_ids(dataset, context_ids),
                                sensor_metas(dataset, targets), dataset, hours)
    truths = subset_dataset_values(dataset, targets)[hours]
    if isinstance(target_id, str):
        return preds[:, 0], truths[:, 0]
    return preds, truths


def validation_mse(models, normalizer, dataset, split, hours=None) -> float:
    preds, truths = evaluate_target_sensor(
        models, normalizer, dataset, split.train, split.val, hours)
    # transposed, the finite samples are taken, and summed, column by column
    keep = np.isfinite(truths.T)
    return float(((preds.T[keep] - truths.T[keep]) ** 2).mean())


# ---------------------------------------------------------------------------
# The training loop.
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    """Training knobs. Adam's betas and eps and the inference hour chunk
    are fixed, and every epoch is validated (recorded as val_every 1)."""

    batch_size: int = 32
    lr: float = 1e-4
    max_epochs: int = 500
    patience: int = 20          # epochs without a new best before stopping
    val_hour_stride: int = 1    # subsample validation hours by this step
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValidationError("batch_size and max_epochs must be >= 1")
        if self.patience < 1 or self.val_hour_stride < 1:
            raise ValidationError("patience and val_hour_stride must be >= 1")
        # a large finite lr stays legal: it is how a diverging run is made
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be finite and > 0, got {self.lr}")

    def to_dict(self) -> dict:
        return {**self.__dict__, "val_every": 1, "eval_batch": EVAL_BATCH, **ADAM_FIXED}


@dataclass
class TrainState:
    epoch: int = 0
    best_val_mse: float = float("inf")
    best_epoch: int = -1
    evals_since_best: int = 0
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "best_val_mse": self.best_val_mse,
                "best_epoch": self.best_epoch,
                "evals_since_best": self.evals_since_best,
                "history": self.history}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainState":
        return cls(epoch=int(d["epoch"]),
                   best_val_mse=float(d["best_val_mse"]),
                   best_epoch=int(d["best_epoch"]),
                   evals_since_best=int(d["evals_since_best"]),
                   history=list(d["history"]))


@dataclass
class TrainResult:
    checkpoint_path: Path
    state: TrainState
    wall_seconds: float


def _checkpoint_extra(model_config, train_config, split, normalizer,
                      dataset) -> dict:
    return {
        "model_config": model_config.to_dict(),
        "train_config": train_config.to_dict(),
        "split": split.to_dict(),
        "normalizer": normalizer.to_dict(),
        "dataset": {"provenance": dataset.provenance, "seed": dataset.seed,
                    "hours": dataset.hours,
                    "sensors": len(dataset.sensors),
                    "fingerprint": dataset.fingerprint()},
    }


def _check_resume(saved: dict, extra: dict, path) -> None:
    """Refuse to resume from a checkpoint of other data or another config.

    The dataset fingerprint, the model config, the split and every train
    config field but max_epochs must match; raising max_epochs is how a
    finished run is continued.
    """
    def comparable(d):
        return json.loads(json.dumps(d))

    differ = []
    if saved.get("dataset", {}).get("fingerprint") != extra["dataset"]["fingerprint"]:
        differ.append("dataset fingerprint")
    differ += [key for key in ("model_config", "split")
               if saved.get(key) != comparable(extra[key])]
    old_train = saved.get("train_config", {})
    new_train = comparable(extra["train_config"])
    differ += [f"train_config.{key}" for key in sorted(set(old_train) | set(new_train))
               if key != "max_epochs" and old_train.get(key) != new_train.get(key)]
    if differ:
        raise ValidationError(
            f"cannot resume from {path}: {', '.join(differ)} differ from this run's")


def _global_grad_norm(params) -> float:
    """L2 norm of all parameter gradients together, summed by numpy in
    parameter order (no BLAS), so equal gradients give equal bits."""
    return float(np.sqrt(sum(float(np.square(p.grad).sum()) for p in params)))


def check_training_inputs(dataset: Dataset, split: SensorSplit,
                          train_config: TrainConfig):
    """(train readings, validation hours) of a run, once its inputs pass
    the checks a run needs before it writes anything: the split covers
    the dataset's sensors, the train sensors report every hour, and some
    val sensor reports at some validation hour. Raises ValidationError."""
    split.validate(dataset.sensor_ids())
    values = complete_readings(dataset, split.train, "train")
    val_hours = np.arange(0, dataset.hours, train_config.val_hour_stride)
    if not np.isfinite(subset_dataset_values(dataset, split.val)[val_hours]).any():
        raise ValidationError(
            f"val sensors {', '.join(split.val)} have no reading at any validation hour "
            f"(val_hour_stride {train_config.val_hour_stride})")
    return values, val_hours


def train_model(dataset: Dataset, split: SensorSplit,
                model_config: ModelConfig, train_config: TrainConfig,
                out_dir, resume: bool = False) -> TrainResult:
    """Train one model; persists best/last checkpoints and a state file.

    Layout under out_dir: ``best.ckpt`` (weights + metadata at the best
    validation epoch), ``last.ckpt`` + ``last.optim`` + ``state.json``
    (for resuming), all written atomically. Each epoch's history record
    holds its train and validation MSE and grad_norm, the largest global
    gradient norm over its steps, taken before the optimizer step. Inputs
    that fail check_training_inputs raise ValidationError before anything
    is written, and an epoch whose train MSE exceeds DIVERGED_MSE_RATIO
    times the train readings' variance raises TrainingDiverged before it
    writes anything.
    """
    started = time.monotonic()
    values, val_hours = check_training_inputs(dataset, split, train_config)
    normalizer = Normalizer.from_values(values)
    values_norm = normalizer.normalize(values)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best_path, last_path = out / "best.ckpt", out / "last.ckpt"
    optim_path, state_path = out / "last.optim", out / "state.json"
    graph = graph_for_ids(dataset, split.train)
    wiring = GraphWiring(graph)

    model = PhysicsGnn(model_config, seed=train_config.seed)
    params = model.params()
    opt = Adam(params, lr=train_config.lr)
    state = TrainState()
    extra = _checkpoint_extra(model_config, train_config, split, normalizer,
                              dataset)

    if resume and state_path.exists():
        with open(state_path, encoding="utf-8") as fh:
            state = TrainState.from_dict(json.load(fh))
        _check_resume(load_params(str(last_path), params), extra, last_path)
        _, opt_arrays = load_arrays(str(optim_path))
        opt.load_state_arrays(opt_arrays)
        logger.info("resuming from epoch %d (best val %.4f at %d)",
                    state.epoch, state.best_val_mse, state.best_epoch)

    mean_t, std_t = Tensor(normalizer.mean), Tensor(normalizer.std)

    # a resumed run that had stopped early stays stopped, as it would have
    while (state.epoch < train_config.max_epochs
           and state.evals_since_best < train_config.patience):
        epoch = state.epoch + 1
        hours, masked = epoch_sample_plan(dataset.hours, len(split.train),
                                          train_config.seed, epoch)
        epoch_sq_err = 0.0
        grad_norms = []
        for lo in range(0, len(hours), train_config.batch_size):
            bh = hours[lo:lo + train_config.batch_size]
            bm = masked[lo:lo + train_config.batch_size]
            x = np.stack([build_node_inputs(values_norm, int(h), int(m), model_config.window)
                          for h, m in zip(bh, bm)])
            truth = values[bh, bm]
            conv = hourly_conv_features(graph, dataset, bh)

            pred = add(mul(model.forward(x, wiring, conv, bm), std_t), mean_t)
            loss = mse(pred, Tensor(truth))
            if not np.isfinite(loss.data):
                norms = {p.name: float(np.abs(p.data).max()) for p in params[:6]}
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} "
                    f"batch {lo // train_config.batch_size}: "
                    f"hours {bh[:4].tolist()}..., masked {bm[:4].tolist()}..., "
                    f"leading param max-abs {norms}")
            for p in params:
                p.zero_grad()
            loss.backward()
            grad_norms.append(_global_grad_norm(params))
            opt.step()
            epoch_sq_err += float(loss.data) * len(bh)

        train_loss = epoch_sq_err / len(hours)
        if train_loss > DIVERGED_MSE_RATIO * normalizer.std ** 2:
            raise TrainingDiverged(
                f"train MSE {train_loss:.4g} at epoch {epoch} exceeds {DIVERGED_MSE_RATIO:g} "
                f"times the train readings' variance {normalizer.std ** 2:.4g}")
        val = validation_mse([model], normalizer, dataset, split, hours=val_hours)
        if not np.isfinite(val):
            raise TrainingDiverged(f"non-finite validation MSE at epoch {epoch}")
        if val < state.best_val_mse:
            state.best_val_mse = val
            state.best_epoch = epoch
            state.evals_since_best = 0
            save_params(str(best_path), params,
                        extra={**extra, "epoch": epoch, "val_mse": val})
        else:
            state.evals_since_best += 1
        logger.info("epoch %d train %.4f val %.4f (best %.4f @ %d)",
                    epoch, train_loss, val, state.best_val_mse, state.best_epoch)

        state.epoch = epoch
        # np.max keeps a NaN; keys in state.json's sorted order, so a
        # resumed history dumps the same
        state.history.append({"epoch": epoch, "grad_norm": float(np.max(grad_norms)),
                              "train_mse": train_loss, "val_mse": val})
        save_params(str(last_path), params, extra={**extra, "epoch": epoch})
        save_arrays(str(optim_path), list(opt.state_arrays().items()))
        _atomic_write_text(state_path,
                           json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n")

    if state.evals_since_best >= train_config.patience:
        logger.info("early stop at epoch %d", state.epoch)
    return TrainResult(checkpoint_path=best_path, state=state,
                       wall_seconds=time.monotonic() - started)


def load_trained(checkpoint_path):
    """Rebuild (model, normalizer, split, extra) from a checkpoint.

    The model is for inference. It is built unfilled (PhysicsGnn with
    seed None): no initial value is drawn and no gradient buffer is
    allocated (backward allocates one on first use), and load_params,
    which checks every param's name and shape, gives each param its
    array from the one read of the file. So the model holds and pickles
    only its weights. A file that lacks what train_model records in
    extra (an optimizer state, say) raises ValidationError naming it.
    """
    loaded = load_arrays(str(checkpoint_path))
    extra = loaded[0].get("extra", {})
    try:
        config = ModelConfig.from_dict(extra["model_config"])
        int(extra["train_config"]["seed"])  # recorded by train_model, as the rest is
        normalizer = Normalizer.from_dict(extra["normalizer"])
        split = SensorSplit.from_dict(extra["split"])
    except KeyError as exc:
        raise ValidationError(f"{checkpoint_path} is not a trained model's checkpoint: "
                              f"it has no {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"{checkpoint_path}: {exc}") from None
    model = PhysicsGnn(config, seed=None)
    load_params(str(checkpoint_path), model.params(), loaded)
    return model, normalizer, split, extra


def train_ensemble(dataset: Dataset, split: SensorSplit,
                   model_config: ModelConfig, train_config: TrainConfig,
                   out_root, seeds=(0, 1, 2, 3, 4), workers: int = 1,
                   resume: bool = False) -> list:
    """Train one model per seed under ``out_root``/seed<k>.

    Each seed gets its own directory and an otherwise identical config,
    so any member can be retrained or resumed on its own. With
    ``workers`` > 1 the seeds run in separate processes; results come
    back in seed order either way. Worker processes each spin up their
    own BLAS threads, so on a small machine cap ``workers`` well below
    the core count.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValidationError("need at least one ensemble seed")
    if len(set(seeds)) != len(seeds):
        raise ValidationError(f"duplicate ensemble seeds: {seeds}")
    out_root = Path(out_root)
    jobs = []
    for seed in seeds:
        cfg = dataclasses.replace(train_config, seed=seed)
        jobs.append((dataset, split, model_config, cfg,
                     out_root / f"seed{seed}", resume))
    if workers <= 1 or len(jobs) == 1:
        return [train_model(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(train_model, *zip(*jobs)))
