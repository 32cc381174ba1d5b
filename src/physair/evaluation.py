"""Metrics, heterogeneity analysis, error breakdowns, and reports.

Everything downstream of a trained model lives here: the scalar metrics
behind the result tables, per-hour spatial heterogeneity, binned error
profiles, the sensor-density robustness experiment, and the report:
:func:`build_report` makes ``evaluate``'s text and JSON, for the CLI and
a library caller alike.

Model inference enters through small "runner" callables with one shared
signature, so the classical baselines and the graph model go through an
identical harness. The density experiment calls the exact same runners
on the exact same hours; with removal fraction 0 it reproduces the main
table to the last bit, which the test suite relies on.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .baselines import GaussianProcess, Idw, MeanFill, OrdinaryKriging, \
    finite_mask_runs, select_gp_hyperparameters
from .data import Dataset, _atomic_write_text
from .errors import ValidationError
from .estimators import BaseEstimator
from .geo import SensorMeta, build_graph
from .training import EVAL_BATCH, Normalizer, check_hours, evaluate_target_sensor, \
    predict_masked_node, sensor_metas, subset_dataset_values

logger = logging.getLogger(__name__)

# SH bins: width 20 up to 200, then three wide bins of width 200. The
# wide tail keeps sparse high-heterogeneity hours from smearing into
# dozens of single-sample bins. Callers with heavier tails pass their
# own edges.
SH_BIN_EDGES = tuple(float(v) for v in list(range(0, 201, 20)) + [400, 600, 800])

# The "high-SH" subset of a report: hours at or above this quantile of SH.
HIGH_SH_QUANTILE = 0.75

# GP hyperparameters are searched on every GP_SELECTION_STRIDE-th hour.
GP_SELECTION_STRIDE = 4

# Removal schedule for the sensor-density experiment.
DENSITY_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8)
DENSITY_SEED_COUNT = 5

_QUERY_ID = "__query__"


# ---------------------------------------------------------------------------
# Scalar metrics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    """MSE / MAE / R-squared over one set of test samples."""

    label: str
    model: str
    count: int
    mse: float
    mae: float
    r2: float

    def __post_init__(self):
        if self.mse < 0.0 or self.mae < 0.0:
            raise AssertionError("negative error metric in report")
        # Jensen: the mean absolute error squared never exceeds the
        # mean squared error. A tiny multiplicative slack absorbs the
        # rounding of two separately accumulated sums.
        if self.mae * self.mae > self.mse * (1.0 + 1e-12) + 1e-300:
            raise AssertionError(
                f"mae^2 = {self.mae ** 2} exceeds mse = {self.mse}")
        if self.r2 > 1.0 + 1e-12:
            raise AssertionError(f"r2 = {self.r2} exceeds 1")

    def to_dict(self) -> dict:
        return {"label": self.label, "model": self.model, "count": self.count,
                "mse": self.mse, "mae": self.mae, "r2": self.r2}


def metrics(predictions, truths, model: str = "", label: str = "") -> MetricReport:
    """Score predictions against ground truth.

    R-squared is 1 minus the squared-error sum over the squared
    deviation of the truths from their own mean, so a model that
    predicts the test mean everywhere scores exactly 0. Identical
    truths leave it undefined and raise instead of returning NaN.
    """
    preds = np.asarray(predictions, dtype=float).reshape(-1)
    obs = np.asarray(truths, dtype=float).reshape(-1)
    if preds.shape != obs.shape:
        raise ValidationError(
            f"got {preds.size} predictions for {obs.size} truths")
    if obs.size < 2:
        raise ValidationError("metrics need at least 2 samples")
    if not np.isfinite(preds).all() or not np.isfinite(obs).all():
        raise ValidationError("metrics require finite predictions and truths")
    residual = preds - obs
    sse = float(residual @ residual)
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst <= 0.0:
        raise ValidationError(
            "R^2 is undefined when every truth is identical")
    return MetricReport(label=label, model=model, count=obs.size,
                        mse=sse / obs.size,
                        mae=float(np.abs(residual).mean()),
                        r2=1.0 - sse / sst)


# ---------------------------------------------------------------------------
# Spatial heterogeneity.
# ---------------------------------------------------------------------------

def sh_series(values: np.ndarray) -> np.ndarray:
    """Per-hour spatial heterogeneity for a (hours, sensors) value grid.

    An hour's SH is the unbiased variance (divisor N-1) of its finite
    readings. Hours with fewer than two come back as NaN, since a
    variance over one point says nothing, so a gappy real-data grid can
    still be profiled.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 2:
        raise ValidationError(f"expected an (hours, sensors) grid, got {grid.shape}")
    out = np.full(grid.shape[0], np.nan)
    enough = np.isfinite(grid).sum(axis=1) >= 2
    if enough.any():
        out[enough] = np.nanvar(grid[enough], axis=1, ddof=1)
    return out


def high_sh_hours(sh: np.ndarray) -> np.ndarray:
    """Boolean mask of the hours at or above the HIGH_SH_QUANTILE of SH."""
    sh = np.asarray(sh, dtype=float)
    finite = sh[np.isfinite(sh)]
    if finite.size == 0:
        raise ValidationError("no finite heterogeneity values")
    cut = float(np.quantile(finite, HIGH_SH_QUANTILE))
    mask = np.zeros(sh.shape, dtype=bool)
    mask[np.isfinite(sh)] = sh[np.isfinite(sh)] >= cut
    return mask


# ---------------------------------------------------------------------------
# Binned error profiles.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinnedMae:
    """Per-bin MAE over half-open bins [lo, hi) of some sample axis.

    Empty bins carry count 0 and a NaN mae. ``dropped`` counts samples
    whose axis value fell outside the edge range (or was NaN); when it
    is zero, the count-weighted bin maes recombine to the global MAE.
    """

    axis: str
    edges: tuple
    counts: tuple
    maes: tuple
    dropped: int


def ground_truth_bin_edges(max_value: float) -> np.ndarray:
    """Width-10 bin edges from 0, extended to cover ``max_value``."""
    if not np.isfinite(max_value) or max_value < 0:
        raise ValidationError(f"bad maximum for bin edges: {max_value}")
    n_bins = int(max_value // 10) + 1
    return np.arange(0.0, (n_bins + 1) * 10.0, 10.0)


def binned_mae(axis_values, predictions, truths, edges,
               axis: str = "ground_truth") -> BinnedMae:
    """MAE of (predictions, truths) grouped by which bin the axis hits."""
    axis_v = np.asarray(axis_values, dtype=float).reshape(-1)
    preds = np.asarray(predictions, dtype=float).reshape(-1)
    obs = np.asarray(truths, dtype=float).reshape(-1)
    if not (axis_v.shape == preds.shape == obs.shape):
        raise ValidationError("axis values, predictions, and truths "
                              "must align one to one")
    if not np.isfinite(preds).all() or not np.isfinite(obs).all():
        raise ValidationError("binned mae requires finite predictions and truths")
    e = np.asarray(edges, dtype=float).reshape(-1)
    if e.size < 2 or not (np.diff(e) > 0).all():
        raise ValidationError("bin edges must be strictly increasing, length >= 2")
    errors = np.abs(preds - obs)
    inside = np.isfinite(axis_v) & (axis_v >= e[0]) & (axis_v < e[-1])
    # digitize is right-exclusive with right=False: edges[k-1] <= v < edges[k]
    which = np.digitize(axis_v[inside], e) - 1
    n_bins = e.size - 1
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=errors[inside], minlength=n_bins)
    maes = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return BinnedMae(axis=axis, edges=tuple(float(x) for x in e),
                     counts=tuple(int(c) for c in counts),
                     maes=tuple(float(m) for m in maes),
                     dropped=int(axis_v.size - inside.sum()))


def mae_ratio(baseline: BinnedMae, reference: BinnedMae) -> tuple:
    """Per-bin baseline MAE over reference MAE.

    Ratios only recombine into a global ratio when both sides binned
    the same samples, so mismatched edges or counts are rejected
    outright. Bins where the reference MAE is zero (or empty) come
    back as NaN.
    """
    if baseline.edges != reference.edges:
        raise ValidationError("mae ratio needs identical bin edges")
    if baseline.counts != reference.counts:
        raise ValidationError("per-bin sample counts differ; the two "
                              "profiles were not built from the same samples")
    out = []
    for count, base, ref in zip(baseline.counts, baseline.maes, reference.maes):
        if count == 0 or ref == 0.0:
            out.append(float("nan"))
        else:
            out.append(base / ref)
    return tuple(out)


# ---------------------------------------------------------------------------
# Model runners: one calling convention for baselines and the GNN.
# ---------------------------------------------------------------------------

# A runner maps (dataset, context_ids, target_ids, hours) to an
# (hours, targets) prediction matrix.
Runner = Callable[[Dataset, Sequence[str], Sequence[str], np.ndarray], np.ndarray]


def _coords_for(dataset: Dataset, ids) -> np.ndarray:
    return np.array([[s.latitude, s.longitude] for s in sensor_metas(dataset, ids)])


# Hours per baseline fit, at most. A kriging fit holds one (n+1, n+1)
# system per hour, so a gap-free run is fitted in pieces: at 27 sensors a
# 1024-hour fit peaked at 19.6 MB under tracemalloc, and 64-hour pieces
# at 1.6 MB with the same runner time.
_FIT_HOURS = 64


def estimator_runner(factory: Callable[[], BaseEstimator]) -> Runner:
    """Wrap a fit/predict estimator factory as a runner.

    Each call splits the requested hours into runs of consecutive hours
    with one finite context mask and fits one estimator per run, on the
    run's (hours, sensors) readings, at most ``_FIT_HOURS`` hours at a
    time. So coordinate-only work is built once per run (see
    :mod:`physair.baselines`); predictions are bit-identical to a fresh
    estimator per hour. Hours where fewer than
    two context sensors report are an error: one point cannot anchor an
    interpolation.
    """

    def run(dataset, context_ids, target_ids, hours):
        hours = check_hours(hours, dataset.hours)
        ctx_coords = _coords_for(dataset, context_ids)
        tgt_coords = _coords_for(dataset, target_ids)
        ctx_values = subset_dataset_values(dataset, context_ids)[hours]
        finite = np.isfinite(ctx_values)
        reporting = finite.sum(axis=1)
        if (reporting < 2).any():
            row = int(np.argmax(reporting < 2))
            raise ValidationError(
                f"hour {hours[row]}: only {reporting[row]} context sensors "
                "report a value; need at least 2")
        out = np.empty((len(hours), len(target_ids)))
        for run in finite_mask_runs(finite):
            mask = finite[run.start]
            for start in range(run.start, run.stop, _FIT_HOURS):
                rows = slice(start, min(start + _FIT_HOURS, run.stop))
                out[rows] = factory().fit(ctx_coords[mask],
                                          ctx_values[rows][:, mask]).predict(tgt_coords)
        return out

    return run


def gnn_runner(models, normalizer: Normalizer) -> Runner:
    """Run a trained model ensemble through the masked-node protocol.

    Each target sensor is appended to the context graph as a masked node
    and predicted over all requested hours in chunks of
    training.EVAL_BATCH; the targets of one call share the context's edge
    path per hour chunk. The returned value is the ensemble-mean
    prediction in raw units. The runner pickles, so worker processes can
    run it on a group of targets each.
    """
    return functools.partial(_gnn_run, models, normalizer)


def _gnn_run(models, normalizer, dataset, context_ids, target_ids, hours):
    preds, _ = evaluate_target_sensor(
        models, normalizer, dataset, context_ids, tuple(target_ids), hours)
    return preds


def benchmark_runners(dataset: Dataset, context_ids, models=None,
                      normalizer: Normalizer | None = None) -> dict:
    """Assemble the standard model lineup for an evaluation run.

    mean_fill, IDW and kriging take no settings. GP hyperparameters are
    grid-searched once by :func:`select_gp_hyperparameters` on the
    context sensors' readings at every GP_SELECTION_STRIDE-th hour and
    then frozen, including across density-experiment removals; retuning
    on a thinned network would conflate hyperparameter drift with density
    effects. Pass ``models`` plus ``normalizer`` to add the trained
    ensemble to the lineup.
    """
    rows = subset_dataset_values(dataset, context_ids)
    gp_params = select_gp_hyperparameters(_coords_for(dataset, context_ids),
                                          rows[::GP_SELECTION_STRIDE])
    logger.info("selected gp hyperparameters: %s", gp_params)
    runners = {
        "mean_fill": estimator_runner(MeanFill),
        "idw": estimator_runner(Idw),
        "kriging": estimator_runner(OrdinaryKriging),
        "gp": estimator_runner(lambda: GaussianProcess(**gp_params)),
    }
    if models is not None:
        if normalizer is None:
            raise ValidationError("a model lineup needs its normalizer")
        runners["gnn"] = gnn_runner(models, normalizer)
    return runners


# ---------------------------------------------------------------------------
# The evaluation harness.
# ---------------------------------------------------------------------------

@dataclass
class EvalRun:
    """Predictions from several models over one (hours x targets) grid.

    ``truths`` may hold NaN where a target sensor has no reading; those
    samples are excluded from every metric. ``sh`` is the per-hour
    spatial heterogeneity over all sensors in the dataset, aligned with
    ``hours``.
    """

    label: str
    context_ids: tuple
    target_ids: tuple
    hours: np.ndarray
    truths: np.ndarray
    sh: np.ndarray
    predictions: dict

    def sample_mask(self, hour_mask=None) -> np.ndarray:
        mask = np.isfinite(self.truths)
        if hour_mask is not None:
            hour_mask = np.asarray(hour_mask, dtype=bool)
            if hour_mask.shape != self.hours.shape:
                raise ValidationError("hour mask must align with the run's hours")
            mask &= hour_mask[:, None]
        return mask

    def flat(self, name: str, hour_mask=None):
        """Aligned 1-d (predictions, truths, sh) for one model."""
        mask = self.sample_mask(hour_mask)
        sh_grid = np.broadcast_to(self.sh[:, None], self.truths.shape)
        return (self.predictions[name][mask], self.truths[mask], sh_grid[mask])

    def mae(self, name: str, hour_mask=None) -> float:
        preds, obs, _ = self.flat(name, hour_mask)
        if obs.size == 0:
            raise ValidationError("no finite samples to score")
        return float(np.abs(preds - obs).mean())

    def report(self, name: str, hour_mask=None, label: str | None = None) -> MetricReport:
        preds, obs, _ = self.flat(name, hour_mask)
        return metrics(preds, obs, model=name,
                       label=self.label if label is None else label)

    def reports(self, hour_mask=None, label: str | None = None) -> list:
        return [self.report(name, hour_mask, label) for name in self.predictions]


def evaluate_models(dataset: Dataset, context_ids, target_ids,
                    runners: Mapping[str, Runner], hours=None,
                    label: str = "test") -> EvalRun:
    """Run every model on the same held-out targets and package the result."""
    context_ids = tuple(context_ids)
    target_ids = tuple(target_ids)
    overlap = sorted(set(context_ids) & set(target_ids))
    if overlap:
        raise ValidationError(f"targets appear in the context set: {overlap}")
    hours = check_hours(hours, dataset.hours)
    truths = subset_dataset_values(dataset, target_ids)[hours]
    sh = sh_series(dataset.pm25)[hours]
    predictions = {}
    for name, runner in runners.items():
        preds = np.asarray(runner(dataset, context_ids, target_ids, hours),
                           dtype=float)
        if preds.shape != truths.shape:
            raise ValidationError(
                f"runner {name!r} returned {preds.shape}, expected {truths.shape}")
        predictions[name] = preds
    return EvalRun(label=label, context_ids=context_ids, target_ids=target_ids,
                   hours=hours, truths=truths, sh=sh, predictions=predictions)


# ---------------------------------------------------------------------------
# Sensor-density robustness.
# ---------------------------------------------------------------------------

def density_removal(context_ids, fraction: float, seed: int) -> tuple:
    """Deterministically drop a fraction of the context sensors.

    The removal count is floor(fraction * n), matching densities quoted
    per remaining-sensor count. The draw is made against the sorted id
    list, so which sensors go depends only on the id set, the fraction,
    and the seed; the survivors come back in the caller's order, which
    keeps a fraction-0 call an exact no-op.
    """
    ids = tuple(context_ids)
    if not 0.0 <= fraction < 1.0:
        raise ValidationError(f"removal fraction must be in [0, 1), got {fraction}")
    n_remove = math.floor(fraction * len(ids) + 1e-9)
    n_keep = len(ids) - n_remove
    if n_keep < 2:
        raise ValidationError(
            f"removing {n_remove} of {len(ids)} context sensors leaves "
            f"{n_keep}; need at least 2")
    if n_remove == 0:
        return ids
    rng = np.random.default_rng(
        np.random.SeedSequence([0x0DE25, int(seed), int(round(fraction * 100))]))
    by_rank = sorted(ids)
    removed = {by_rank[i] for i in rng.permutation(len(ids))[:n_remove]}
    return tuple(i for i in ids if i not in removed)


def density_cells(context_ids) -> list:
    """Every (fraction, seed) cell's surviving context, drawn by
    :func:`density_removal`: one row per DENSITY_FRACTIONS entry and one
    entry per seed in range(DENSITY_SEED_COUNT).

    Drawing them all first refuses a network too small for some cell
    before any model runs: the fractions need at least 6 context
    sensors, since removing 80% of 5 leaves 1.
    """
    return [[density_removal(context_ids, f, s) for s in range(DENSITY_SEED_COUNT)]
            for f in DENSITY_FRACTIONS]


@dataclass
class DensityExperiment:
    """Mean MAE per model as the context network is thinned.

    ``per_seed_mae`` maps model name to a (fractions, seeds) array.
    Models are NOT retrained on the reduced context: the point is to
    measure how a fixed model degrades when its input network thins,
    so the GNN sees a distribution shift on purpose.
    """

    fractions: tuple
    seeds: tuple
    remaining: tuple
    per_seed_mae: dict

    def mean_mae(self, name: str) -> np.ndarray:
        return self.per_seed_mae[name].mean(axis=1)

    def to_dict(self) -> dict:
        return {
            "fractions": list(self.fractions),
            "seeds": list(self.seeds),
            "remaining_sensors": list(self.remaining),
            "mean_mae": {name: [float(v) for v in self.mean_mae(name)]
                         for name in self.per_seed_mae},
            "per_seed_mae": {name: arr.tolist()
                             for name, arr in self.per_seed_mae.items()},
        }


def density_experiment(dataset: Dataset, context_ids, target_ids,
                       runners: Mapping[str, Runner],
                       hours=None, main: EvalRun | None = None) -> DensityExperiment:
    """Re-evaluate every model as context sensors are randomly removed.

    Each cell, a fraction of DENSITY_FRACTIONS and a seed of
    range(DENSITY_SEED_COUNT), scores the unchanged target set with the
    surviving context only, through the same runners as the main run,
    so the fraction-0 rows equal the main-table MAE exactly. Identical
    surviving sets (fraction 0 in particular) are evaluated once and
    shared. ``main``, an EvalRun of the same runners on the same targets
    and hours, supplies the scores of cells whose surviving set is its
    context, so those are not evaluated again. Every cell's surviving set
    is drawn, by :func:`density_cells`, before any runner runs.
    """
    context_ids = tuple(context_ids)
    fractions, seeds = DENSITY_FRACTIONS, tuple(range(DENSITY_SEED_COUNT))
    cells = density_cells(context_ids)
    per_seed = {name: np.empty((len(fractions), len(seeds)))
                for name in runners}
    cache = {}
    if main is not None:
        if (main.target_ids != tuple(target_ids)
                or not np.array_equal(main.hours, check_hours(hours, dataset.hours))
                or set(main.predictions) != set(runners)):
            raise ValidationError(
                "the main run must score the same runners on the same targets and "
                f"hours: it has runners {sorted(main.predictions)}, targets "
                f"{list(main.target_ids)} and {len(main.hours)} hours")
        cache[main.context_ids] = {name: main.mae(name) for name in runners}
    for fi, (fraction, row) in enumerate(zip(fractions, cells)):
        for si, kept in enumerate(row):
            if kept not in cache:
                run = evaluate_models(dataset, kept, target_ids, runners,
                                      hours=hours,
                                      label=f"density-{fraction:.0%}")
                cache[kept] = {name: run.mae(name) for name in runners}
            for name, value in cache[kept].items():
                per_seed[name][fi, si] = value
    # every seed of a fraction removes the same count
    return DensityExperiment(fractions=fractions, seeds=seeds,
                             remaining=tuple(len(row[0]) for row in cells),
                             per_seed_mae=per_seed)


# ---------------------------------------------------------------------------
# Inference at arbitrary coordinates: a query is a virtual masked node,
# predicted by training.predict_masked_node as a held-out sensor is. A
# call's points go through one predictor call, sharing the context's edge
# path and node inputs per hour chunk, in stacks of one forward each.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _QuerySensors:
    """Query points as virtual sensors, each made only when read: a call
    holds the sensors and graphs of the stacks it is running, not of every
    point."""

    points: list

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> SensorMeta:
        return SensorMeta(_QUERY_ID, *self.points[i])


def infer_at_location(models, normalizer: Normalizer, dataset: Dataset,
                      context_ids, latitude, longitude, hours=None) -> np.ndarray:
    """Interpolate the field at arbitrary coordinates, hour by hour.

    A virtual node at each (latitude, longitude) joins the context graph
    and is predicted through the same masked-node path used for held-out
    sensors. With scalar coordinates, returns (hours,); with equal-length
    sequences of P latitudes and longitudes, returns (hours, P), each
    column bit for bit what a scalar call at that point returns. The
    context graph is built once; the predictor adds each point to it as
    the query node. Context sensors must report every hour; ``hours``
    defaults to all of them.
    """
    ids = tuple(context_ids)
    if _QUERY_ID in ids:
        raise ValidationError(f"{_QUERY_ID} is reserved for the query node")
    shape = np.shape(latitude)
    if np.shape(longitude) != shape or len(shape) > 1 or shape == (0,):
        raise ValidationError(
            "latitude and longitude must be two scalars or two sequences of one "
            f"nonzero length, got shapes {shape} and {np.shape(longitude)}")
    scalar = shape == ()
    points = [(latitude, longitude)] if scalar else list(zip(latitude, longitude))
    hours = check_hours(hours, dataset.hours)
    out = predict_masked_node(models, normalizer, build_graph(sensor_metas(dataset, ids)),
                              _QuerySensors(points), dataset, hours)
    return out[:, 0] if scalar else out


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------

def _fmt(value: float, places: int = 4) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.{places}f}"


def _table(header, rows) -> str:
    cells = [list(header)] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_metrics_table(reports: Sequence[MetricReport]) -> str:
    rows = [(r.label, r.model, r.count, _fmt(r.mse), _fmt(r.mae), _fmt(r.r2))
            for r in reports]
    return _table(("experiment", "model", "samples", "mse", "mae", "r2"), rows)


def format_density_table(result: DensityExperiment) -> str:
    header = ("removed", "remaining") + tuple(result.per_seed_mae)
    rows = []
    for fi, fraction in enumerate(result.fractions):
        row = [f"{fraction:.0%}", result.remaining[fi]]
        row += [_fmt(float(result.mean_mae(name)[fi]))
                for name in result.per_seed_mae]
        rows.append(row)
    return _table(header, rows)


def format_binned_table(binned: Mapping[str, BinnedMae]) -> str:
    """Bin-by-bin MAE for several models over one shared binning."""
    items = list(binned.items())
    if not items:
        raise ValidationError("nothing to tabulate")
    first = items[0][1]
    for name, b in items[1:]:
        if b.edges != first.edges or b.counts != first.counts:
            raise ValidationError(
                f"profile {name!r} uses a different binning than {items[0][0]!r}")
    header = ("bin", "count") + tuple(name for name, _ in items)
    rows = []
    for i in range(len(first.counts)):
        lo, hi = first.edges[i], first.edges[i + 1]
        rows.append([f"[{lo:g}, {hi:g})", first.counts[i]]
                    + [_fmt(b.maes[i]) for _, b in items])
    return _table(header, rows)


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


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


def build_report(run: EvalRun, density: DensityExperiment | None = None,
                 checkpoints=()) -> tuple:
    """The evaluation report as ``(text, payload)``: ``report.txt``'s text
    and the dict ``write_summary`` writes as ``report.json``, keyed in the
    order metrics, density (when given), binned_mae, extra, facts. A
    ``gnn`` runner adds every other runner's per-bin MAE ratio to it, and
    ``checkpoints``, the ensemble's checkpoint paths, go into extra as
    given."""
    reports = run.reports() + run.reports(hour_mask=high_sh_hours(run.sh),
                                          label=f"{run.label}-high-sh")
    gt_edges = ground_truth_bin_edges(float(run.truths[run.sample_mask()].max()))
    gt_binned, sh_binned = {}, {}
    for name in run.predictions:
        preds, truths, sh = run.flat(name)
        gt_binned[name] = binned_mae(truths, preds, truths, gt_edges, axis="ground_truth")
        sh_binned[name] = binned_mae(sh, preds, truths, SH_BIN_EDGES, axis="sh")
    sections = [format_metrics_table(reports),
                "MAE by ground-truth bin (ug/m3):", format_binned_table(gt_binned),
                "MAE by spatial-heterogeneity bin:", format_binned_table(sh_binned)]
    ratios = {}
    if "gnn" in run.predictions:
        ratios = {axis: {name: mae_ratio(table[name], table["gnn"])
                         for name in run.predictions if name != "gnn"}
                  for axis, table in (("ground_truth", gt_binned), ("sh", sh_binned))}
    payload = {"metrics": [r.to_dict() for r in reports]}
    if density is not None:
        sections += ["Mean MAE by removed context fraction:", format_density_table(density)]
        payload["density"] = density.to_dict()
    payload["binned_mae"] = {
        f"{b.axis}:{name}": {"axis": b.axis, "edges": list(b.edges),
                             "counts": list(b.counts), "mae": list(b.maes),
                             "dropped": b.dropped}
        for table in (gt_binned, sh_binned) for name, b in table.items()}
    payload["extra"] = {"mae_ratio_vs_gnn": ratios,
                        "checkpoints": [str(p) for p in checkpoints],
                        "context_sensors": list(run.context_ids),
                        "target_sensors": list(run.target_ids)}
    payload["facts"] = _bit_facts()
    return "\n\n".join(sections) + "\n", _json_safe(payload)


def write_summary(path, payload: dict) -> None:
    """Write a JSON report atomically (strict JSON, no NaN tokens)."""
    _atomic_write_text(path, json.dumps(_json_safe(payload), indent=2,
                                        allow_nan=False) + "\n")
