"""The four workloads: inputs made from the seed, set-up, a timed cycle, checks.

Every workload runs on ``default_synth_spec(seed=<seed>, n_sensors=40)``
(a 27/4/9 split) with preset S, over a short horizon so that a run fits
its time budget. The workload seed drives the synthetic field, the
sensor split and the checkpoint seeds; physair only ever sees the
generated inputs.

A workload's unit of work ("op") is what ``failed`` and ``attempted``
count: one epoch (train), one (runner, target, density cell) evaluation
(evaluate), one interpolate grid cell or point query (interpolate), one
baseline hour-fit (baselines). A cycle is one pass of the timed loop;
per-layer counts are per cycle, or per epoch on train.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import physair as pa
from physair import cli

N_SENSORS = 40
TRAIN_EPOCHS = 2          # per train_model call: epoch 2 rebuilds epoch 1's validation graphs
CHECKPOINT_EPOCHS = 1     # the short train_model behind evaluate's and interpolate's
CHECKPOINT_HOURS = 32     # ensemble: one B=32 step on the first 32 hours
VAL_HOUR_STRIDE = 24      # validation hours 0, 24, 48: a small share of an epoch
RTOL = 1e-9               # reference match: relative tolerance ...
ATOL = 1e-9               # ... plus an absolute floor, both in the values' units


@dataclass(frozen=True)
class Tier:
    hours: int                  # synthetic horizon, hours
    model: pa.ModelConfig
    eval_hours: tuple           # [lo, hi) hour window of the evaluate workload
    grid: int                   # interpolate grid points per axis
    points_per_cycle: int       # interpolate point queries per cycle
    min_points: int             # interpolate point queries per run, at least
    warm_points: int            # point queries run before timing starts
    kernel_reps: int            # repeats behind each module timing


TIERS = {
    # 64 hours = two B=32 train steps per epoch
    "full": Tier(hours=64, model=pa.ModelConfig(preset="S"), eval_hours=(32, 36),
                 grid=4, points_per_cycle=25, min_points=100, warm_points=60, kernel_reps=5),
    # same code paths on a tiny model, small enough for the self-test
    "short": Tier(hours=32, model=pa.ModelConfig(preset=None, n_layers=2, hidden_dim=8),
                  eval_hours=(16, 18), grid=2, points_per_cycle=5, min_points=5, warm_points=5,
                  kernel_reps=1),
}


def train_config(seed: int, epochs: int) -> pa.TrainConfig:
    return pa.TrainConfig(max_epochs=epochs, val_hour_stride=VAL_HOUR_STRIDE, seed=seed)


def checkpoint_seeds(seed: int) -> tuple:
    return (2 * seed, 2 * seed + 1)


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def digest(main, name: str) -> list:
    """The reference for one runner's main table.

    Sum, sum of squares, min and max, plus two values that change when a
    prediction moves to another (hour, target): a sum weighted by position
    in the (hour, target) grid, and the MAE against the truths.
    """
    v = np.asarray(main.predictions[name], dtype=float)
    position = np.arange(v.size, dtype=float).reshape(v.shape)
    return [float(v.sum()), float((v * v).sum()), float(v.min()), float(v.max()),
            float((v * position).sum()), main.mae(name)]


class Run:
    """Per-process state: inputs, tracer, counters and check results."""

    def __init__(self, seed: int, tier: Tier, work: Path, tracer, reference: dict | None):
        self.seed = seed
        self.tier = tier
        self.work = work
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        rec = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        rec["passed" if ok else "failed"] += 1
        if not ok and "first_failure" not in rec:
            rec["first_failure"] = detail
        return ok

    def reference_failures(self, values: dict) -> set:
        """Keys of values that differ from the stored reference beyond RTOL/ATOL."""
        if self.reference is None:
            self.checks.setdefault("reference", {"skipped": "no stored reference for this seed"})
            return set()
        bad = set()
        for key, got in values.items():
            want = self.reference.get(key)
            ok = (want is not None and len(want) == len(got)
                  and np.allclose(got, want, rtol=RTOL, atol=ATOL))
            if not self.check("reference", ok, f"{key}: got {got}, stored {want}"):
                bad.add(key)
        return bad

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def make_inputs(run: Run):
    """Synthesize, export and reload the workload's dataset; split it."""
    spec = pa.default_synth_spec(hours=run.tier.hours, seed=run.seed, n_sensors=N_SENSORS)
    dataset, _ = pa.make_synthetic_dataset(spec)
    with run.tracer.span("data.export"):
        path = pa.export_dataset(dataset, run.work / "data")
    with run.tracer.span("data.load"):
        dataset = pa.load_dataset(path)
    return path, dataset, pa.make_split(dataset.sensor_ids(), seed=run.seed)


def train_checkpoints(data_path, models_dir, seed: int, model_config) -> None:
    dataset = pa.load_dataset(data_path)
    split = pa.make_split(dataset.sensor_ids(), seed=seed)
    dataset = dataclasses.replace(dataset, pm25=dataset.pm25[:CHECKPOINT_HOURS],
                                  wind=dataset.wind[:CHECKPOINT_HOURS]).validate()
    for k in checkpoint_seeds(seed):
        pa.train_model(dataset, split, model_config, train_config(k, CHECKPOINT_EPOCHS),
                       Path(models_dir) / f"seed{k}")


def train_ensemble(run: Run, data_path):
    """Two seeded short checkpoints under work/models, loaded as the CLI loads them.

    Training runs in a child process, so the workload's own peak RSS is
    that of inference, not of the training tape.
    """
    models_dir = run.work / "models"
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        pool.submit(train_checkpoints, data_path, models_dir, run.seed, run.tier.model).result()
    models, normalizer = [], None
    for path in sorted(models_dir.glob("seed*/best.ckpt")):  # the CLI's order
        model, normalizer, _, _ = pa.load_trained(path)
        models.append(model)
    return models_dir, models, normalizer


class RunnerStats:
    """Wall time, predictions and hour-fits per runner, measured by wrapping runners."""

    def __init__(self):
        self.calls, self.predictions, self.hour_fits = {}, {}, {}

    def reset(self):
        self.__init__()

    def seconds(self, name: str) -> float:
        return sum(self.calls[name])

    def wrap(self, runners: dict, tracer) -> dict:
        def timed(name, runner):
            def run(dataset, context_ids, target_ids, hours):
                t0 = time.perf_counter()
                with tracer.span(f"evaluation.runner.{name}"):
                    out = runner(dataset, context_ids, target_ids, hours)
                self.calls.setdefault(name, []).append(time.perf_counter() - t0)
                self.predictions[name] = self.predictions.get(name, 0) + out.size
                self.hour_fits[name] = self.hour_fits.get(name, 0) + len(hours)
                return out
            return run
        return {name: timed(name, runner) for name, runner in runners.items()}


def table_digests(main) -> dict:
    return {name: digest(main, name) for name in main.predictions}


def check_tables(run: Run, main, density) -> set:
    """Check a main table against its density sweep; returns the failing runners."""
    zero = density.fractions.index(0.0)
    bad = set()
    for name, preds in main.predictions.items():
        ok = run.check("finite_predictions", np.isfinite(preds).all(), name)
        try:
            report = main.report(name)
            ok &= run.check("r2_at_most_1", report.r2 <= 1.0, f"{name}: r2 {report.r2}")
            ok &= run.check("mae_squared_at_most_mse",
                            report.mae ** 2 <= report.mse * (1.0 + 1e-12),
                            f"{name}: mae {report.mae} mse {report.mse}")
        except (AssertionError, pa.ValidationError) as exc:
            ok = run.check("metric_report", False, f"{name}: {exc}")
        ok &= run.check("fraction0_equals_main_bitwise",
                        (density.per_seed_mae[name][zero] == main.mae(name)).all(), name)
        ok &= run.check("density_finite", np.isfinite(density.per_seed_mae[name]).all(), name)
        if not ok:
            bad.add(name)
    return bad | run.reference_failures(table_digests(main))


class Train:
    name = "train"
    min_cycles = 1
    reason = ("the only workload with backward passes, Adam and checkpoint writes; "
              "one 27-node graph, so geo and baselines do almost nothing")
    e2e_meaning = {"work_per_s": "masked-sensor samples/s of train_model wall",
                   "op": "one epoch incl. validation and checkpoints (train_model wall / epochs)"}

    def setup(self, run: Run):
        _, self.dataset, self.split = make_inputs(run)
        self.run, self.out = run, run.work / "train"
        self.samples, self.walls, self.ckpt_hash = 0, [], None
        self._fit(1)  # warm-up

    def _fit(self, epochs: int):
        return pa.train_model(self.dataset, self.split, self.run.tier.model,
                              train_config(self.run.seed, epochs), self.out)

    def _hash(self):
        return hashlib.sha256((self.out / "best.ckpt").read_bytes()).hexdigest()

    def reference_values(self, result) -> dict:
        history = result.state.history
        return {"train_mse": [r["train_mse"] for r in history],
                "val_mse": [r["val_mse"] for r in history]}

    def cycle(self, run: Run):
        t0 = time.perf_counter()
        with run.tracer.span("training.train_model", epochs=TRAIN_EPOCHS):
            result = self._fit(TRAIN_EPOCHS)
        wall = time.perf_counter() - t0
        self.values = values = self.reference_values(result)
        ok = run.check("losses_finite", np.isfinite(values["train_mse"] + values["val_mse"]).all())
        ok &= not run.reference_failures(values)
        digest_now = self._hash()
        self.ckpt_hash = self.ckpt_hash or digest_now  # the first call's is the one to repeat
        ok &= run.check("best_ckpt_hash_repeats", digest_now == self.ckpt_hash)
        run.count(TRAIN_EPOCHS, 0 if ok else TRAIN_EPOCHS)
        self.samples += self.dataset.hours * TRAIN_EPOCHS
        self.walls.append(wall)

    def results(self):
        named = {"train.samples_per_s": self.samples / sum(self.walls)}
        facts = {"epochs": TRAIN_EPOCHS * len(self.walls), "best_ckpt_sha256": self.ckpt_hash}
        ops = [w * 1e3 / TRAIN_EPOCHS for w in self.walls]
        return named["train.samples_per_s"], ops, named, facts


class Evaluate:
    name = "evaluate"
    min_cycles = 1
    reason = ("forward-only inference on many distinct 7-28 node graphs: the main "
              "table plus the default density sweep, with a two-member ensemble")
    e2e_meaning = {"work_per_s": "GNN ensemble (target, hour) predictions/s over every GNN "
                                 "runner call, main table and density cells",
                   "op": "one density_experiment with all five runners"}

    def setup(self, run: Run):
        data_path, self.dataset, self.split = make_inputs(run)
        _, models, normalizer = train_ensemble(run, data_path)
        self.hours = np.arange(*run.tier.eval_hours)
        self.stats = RunnerStats()
        self.runners = self.stats.wrap(
            pa.benchmark_runners(self.dataset, self.split.train, models=models,
                                 normalizer=normalizer), run.tracer)
        self.main_preds, self.main_s, self.density_s = 0, 0.0, []
        self.gnn_preds, self.gnn_calls = 0, []
        self._main()  # warm-up

    def _main(self):
        return pa.evaluate_models(self.dataset, self.split.train, self.split.test,
                                  self.runners, hours=self.hours)

    def cycle(self, run: Run):
        self.stats.reset()
        main = self._main()
        self.values = table_digests(main)
        self.main_s += self.stats.seconds("gnn")
        self.main_preds += self.stats.predictions["gnn"]
        t0 = time.perf_counter()
        with run.tracer.span("evaluation.density_experiment"):
            density = pa.density_experiment(self.dataset, self.split.train, self.split.test,
                                            self.runners, hours=self.hours)
        self.density_s.append(time.perf_counter() - t0)
        self.gnn_preds += self.stats.predictions["gnn"]
        self.gnn_calls += self.stats.calls["gnn"]
        cells = 1 + len(density.fractions) * len(density.seeds)
        per_runner = len(self.split.test) * cells
        bad = check_tables(run, main, density)
        run.count(len(self.runners) * per_runner, len(bad) * per_runner)

    def results(self):
        # work_per_s pools every GNN call, not only the main table's one per
        # cycle: that is ~20x the measured work, so the run is steadier
        ops = [s * 1e3 for s in self.density_s]
        named = {"evaluate.gnn_preds_per_s": self.main_preds / self.main_s,
                 "evaluate.density_s": statistics.median(self.density_s)}
        facts = {"sweeps": len(ops), "gnn_runner_calls": len(self.gnn_calls)}
        return self.gnn_preds / sum(self.gnn_calls), ops, named, facts


class Interpolate:
    name = "interpolate"
    reason = ("each query builds a new 28-node graph and runs a B=1 forward, so graph "
              "building and per-call overhead dominate, not GEMMs")
    e2e_meaning = {"work_per_s": "(grid point x hour) cells/s of `physair interpolate --grid-*`",
                   "op": "one infer_at_location call, 1 point x 1 hour, closed loop, 1 caller"}

    def setup(self, run: Run):
        self.data_path, self.dataset, self.split = make_inputs(run)
        self.models_dir, self.models, self.normalizer = train_ensemble(run, self.data_path)
        coords = self.dataset.coords()
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        self.lo = tuple(float(v) for v in lo + 0.1 * (hi - lo))  # inside the sensors' box
        self.hi = tuple(float(v) for v in hi - 0.1 * (hi - lo))
        self.rng = np.random.default_rng([run.seed, 1])
        # enough point queries that more than 10 lie beyond their p90
        self.min_cycles = math.ceil(run.tier.min_points / run.tier.points_per_cycle)
        self.cells, self.grid_s, self.latencies, self.cycles = 0, 0.0, [], 0
        for _ in range(run.tier.warm_points):
            self._point(*self._random_query())
        code, _ = self._grid(run.tier.grid, 0)
        if code != 0:
            raise RuntimeError(f"warm-up `physair interpolate` exited with code {code}")
        self.values = None  # no stored reference: checked against the point path instead

    def _random_query(self):
        lat, lon = self.rng.uniform(self.lo, self.hi)
        return float(lat), float(lon), int(self.rng.integers(self.dataset.hours))

    def _point(self, lat, lon, hour):
        return pa.infer_at_location(self.models, self.normalizer, self.dataset,
                                    self.split.train, lat, lon, hours=[hour])[0]

    def _grid(self, count, hour):
        argv = ["interpolate", "--dataset", str(self.data_path), "--models", str(self.models_dir),
                # "=" keeps a negative longitude from reading as a flag
                f"--grid-lat={self.lo[0]!r}:{self.hi[0]!r}:{count}",
                f"--grid-lon={self.lo[1]!r}:{self.hi[1]!r}:{count}",
                "--hours", str(hour)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rows = [tuple(float(v) for v in line.split(","))
                for line in out.getvalue().splitlines()[1:]]
        return code, rows

    def cycle(self, run: Run):
        count = run.tier.grid
        hour = int(self.rng.integers(self.dataset.hours))
        t0 = time.perf_counter()
        code, rows = self._grid(count, hour)
        self.grid_s += time.perf_counter() - t0
        ok = run.check("cli_exit_0", code == 0, f"exit {code}")
        ok &= run.check("grid_rows", len(rows) == count * count, f"{len(rows)} rows")
        ok &= run.check("grid_finite", all(math.isfinite(r[3]) for r in rows))
        if rows:
            lat, lon, h, value = rows[self.cycles % len(rows)]
            point = self._point(lat, lon, int(h))
            ok &= run.check("grid_equals_point", point == value,
                            f"({lat}, {lon}, {int(h)}): grid {value!r}, point {point!r}")
        run.count(count * count, 0 if ok else count * count)
        self.cells += count * count
        self.cycles += 1
        for _ in range(run.tier.points_per_cycle):
            query = self._random_query()
            t0 = time.perf_counter()
            value = self._point(*query)
            self.latencies.append(time.perf_counter() - t0)
            run.count(1, 0 if run.check("point_finite", math.isfinite(value), str(query)) else 1)

    def results(self):
        ops = [s * 1e3 for s in self.latencies]
        named = {"interpolate.grid_cells_per_s": self.cells / self.grid_s,
                 "interpolate.point_p50_ms": percentile(ops, 50),
                 "interpolate.point_p90_ms": percentile(ops, 90)}
        return named["interpolate.grid_cells_per_s"], ops, named, {"point_queries": len(ops)}


class Baselines:
    name = "baselines"
    min_cycles = 1
    reason = ("the four geostatistical baselines alone on every hour: GP grid search, "
              "per-hour fits and the density sweep; no graph and no model")
    e2e_meaning = {"work_per_s": "(runner, target, hour) predictions/s, main table + density sweep",
                   "op": "one benchmark_runners call (select_gp_hyperparameters)"}

    def setup(self, run: Run):
        _, self.dataset, self.split = make_inputs(run)
        self.hours = np.arange(self.dataset.hours)
        self.stats = RunnerStats()
        self.preds, self.work_s, self.select_s = 0, 0.0, []
        runners = pa.benchmark_runners(self.dataset, self.split.train)  # warm-up
        pa.evaluate_models(self.dataset, self.split.train, self.split.test, runners,
                           hours=self.hours)

    def cycle(self, run: Run):
        t0 = time.perf_counter()
        with run.tracer.span("evaluation.benchmark_runners"):
            runners = pa.benchmark_runners(self.dataset, self.split.train)
        self.select_s.append(time.perf_counter() - t0)
        self.stats.reset()
        runners = self.stats.wrap(runners, run.tracer)
        t0 = time.perf_counter()
        main = pa.evaluate_models(self.dataset, self.split.train, self.split.test, runners,
                                  hours=self.hours)
        self.values = table_digests(main)
        with run.tracer.span("evaluation.density_experiment"):
            density = pa.density_experiment(self.dataset, self.split.train, self.split.test,
                                            runners, hours=self.hours)
        self.work_s += time.perf_counter() - t0
        self.preds += sum(self.stats.predictions.values())
        bad = check_tables(run, main, density)
        fits = self.stats.hour_fits
        run.count(sum(fits.values()), sum(fits[name] for name in bad))

    def results(self):
        ops = [s * 1e3 for s in self.select_s]
        named = {"baselines.preds_per_s": self.preds / self.work_s,
                 "baselines.gp_select_s": statistics.median(self.select_s)}
        return named["baselines.preds_per_s"], ops, named, {"cycles": len(ops)}


WORKLOADS = {w.name: w for w in (Train, Evaluate, Interpolate, Baselines)}
