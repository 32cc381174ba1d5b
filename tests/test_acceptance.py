"""End to end: synth -> train -> evaluate -> interpolate on a small ensemble.

One synthetic dataset (12 sensors, 24 hours) and a two-member ensemble
of a tiny model trained for one epoch are built once. The test then
drives the command line the way a user would and checks the invariants
the reports promise, not how good the numbers are:

- report.json is strict JSON (no NaN or Infinity tokens);
- every metric row has r2 <= 1 and MAE^2 <= MSE;
- the fraction-0 row of the density sweep equals the main table's MAE
  bit for bit, for every runner;
- every grid prediction is finite, and every grid cell equals the point
  query at the same coordinates and hour bit for bit.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from physair.cli import main
from physair.data import load_dataset
from physair.model import ModelConfig
from physair.training import TrainConfig, make_split, train_ensemble

# MAE^2 <= MSE holds exactly in real arithmetic; the two are computed by
# different float64 reductions, so allow a few units in the last place
ROUNDING = 4 * np.finfo(float).eps


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _run(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv)
    assert rc == 0, f"{argv[0]} exited with {rc}"
    return out.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    _run(["synth", "--out", str(data), "--hours", "24", "--n-sensors", "12",
          "--height", "12", "--width", "12", "--seed", "5"])
    dataset = load_dataset(data)
    split = make_split(dataset.sensor_ids(), seed=0)
    models = root / "models"
    train_ensemble(dataset, split, ModelConfig(preset=None, n_layers=2, hidden_dim=8),
                   TrainConfig(batch_size=8, max_epochs=1), models, seeds=(0, 1))
    return root, data, models, dataset


def test_evaluate_report_invariants(trained):
    root, data, models, _ = trained
    out = root / "eval"
    _run(["evaluate", "--dataset", str(data), "--models", str(models), "--out", str(out),
          "--density"])
    payload = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)

    main_mae = {}
    for row in payload["metrics"]:
        assert row["r2"] <= 1.0, row
        assert row["mae"] ** 2 <= row["mse"] * (1.0 + ROUNDING), row
        if row["label"] == "test":
            main_mae[row["model"]] = row["mae"]
    assert "gnn" in main_mae

    density = payload["density"]
    zero = density["fractions"].index(0.0)
    assert set(density["per_seed_mae"]) == set(main_mae)
    for name, per_seed in density["per_seed_mae"].items():
        assert all(v == main_mae[name] for v in per_seed[zero]), name


def test_interpolate_grid_matches_point(trained):
    _, data, models, dataset = trained
    coords = dataset.coords()
    (lat_lo, lon_lo), (lat_hi, lon_hi) = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    grid = _run(["interpolate", "--dataset", str(data), "--models", str(models),
                 f"--grid-lat={lat_lo!r}:{lat_hi!r}:3", f"--grid-lon={lon_lo!r}:{lon_hi!r}:3",
                 "--hours", "7"])
    rows = [line.split(",") for line in grid.strip().splitlines()[1:]]
    assert len(rows) == 9
    assert all(np.isfinite(float(row[3])) for row in rows)

    for lat, lon, hour, value in rows:
        point = _run(["interpolate", "--dataset", str(data), "--models", str(models),
                      f"--lat={lat}", f"--lon={lon}", "--hours", hour])
        lines = point.strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[2]) == float(value), (lat, lon)
