"""Metrics, heterogeneity, binning, density runs, and report output."""

import json
import logging
import statistics
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from physair import evaluation, training
from physair.baselines import GaussianProcess, Idw, MeanFill, OrdinaryKriging, \
    select_gp_hyperparameters
from physair.data import Dataset
from physair.errors import ValidationError
from physair.evaluation import (
    GP_SELECTION_STRIDE,
    HIGH_SH_QUANTILE,
    BinnedMae,
    EvalRun,
    MetricReport,
    SH_BIN_EDGES,
    benchmark_runners,
    binned_mae,
    build_report,
    density_cells,
    density_experiment,
    density_removal,
    estimator_runner,
    evaluate_models,
    format_binned_table,
    format_density_table,
    format_metrics_table,
    ground_truth_bin_edges,
    gnn_runner,
    high_sh_hours,
    infer_at_location,
    mae_ratio,
    metrics,
    sh_series,
    write_summary,
)
from physair.geo import SensorMeta
from physair.model import GraphWiring, ModelConfig, PhysicsGnn
from physair.training import (
    Normalizer,
    build_node_inputs,
    evaluate_target_sensor,
    graph_for_ids,
    hourly_conv_features,
    subset_dataset_values,
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


def tiny_models(dataset, n_models=1, hidden_dim=8):
    config = ModelConfig(preset=None, n_layers=2, hidden_dim=hidden_dim)
    models = [PhysicsGnn(config, seed=k) for k in range(n_models)]
    normalizer = Normalizer.from_values(dataset.pm25)
    return models, normalizer


# ---------------------------------------------------------------------------
# Scalar metrics.
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_perfectly():
    r = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.mse == 0.0 and r.mae == 0.0 and r.r2 == 1.0


def test_predicting_the_mean_gives_r2_zero():
    truths = np.array([2.0, 4.0, 9.0])
    r = metrics(np.full(3, truths.mean()), truths)
    assert r.r2 == pytest.approx(0.0, abs=1e-15)


def test_hand_worked_two_sample_metrics():
    # truths 0 and 10, predictions 1 and 9: squared errors 1 and 1,
    # deviations from the truth mean 5 are 25 and 25, so R2 = 1 - 2/50.
    r = metrics([1.0, 9.0], [0.0, 10.0])
    assert r.mse == 1.0
    assert r.mae == 1.0
    assert r.r2 == 0.96


def test_metrics_against_pure_python_accumulation():
    rng = np.random.default_rng(7)
    truths = rng.normal(10, 4, 40)
    preds = truths + rng.normal(0, 1.5, 40)
    r = metrics(preds, truths)
    sse = sum((p - t) ** 2 for p, t in zip(preds, truths))
    mean = sum(truths) / len(truths)
    sst = sum((t - mean) ** 2 for t in truths)
    assert r.mse == pytest.approx(sse / 40, rel=1e-12)
    assert r.mae == pytest.approx(sum(abs(p - t) for p, t in zip(preds, truths)) / 40,
                                  rel=1e-12)
    assert r.r2 == pytest.approx(1 - sse / sst, rel=1e-12)
    assert r.r2 <= 1.0


def test_identical_truths_make_r2_an_error():
    with pytest.raises(ValidationError, match="undefined"):
        metrics([1.0, 2.0], [5.0, 5.0])


def test_metrics_input_validation():
    with pytest.raises(ValidationError, match="2 samples"):
        metrics([1.0], [2.0])
    with pytest.raises(ValidationError, match="predictions for"):
        metrics([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValidationError, match="finite"):
        metrics([1.0, np.nan], [1.0, 2.0])


def test_report_rejects_jensen_violation():
    with pytest.raises(AssertionError, match="mae"):
        MetricReport(label="", model="", count=2, mse=1.0, mae=2.0, r2=0.5)


# ---------------------------------------------------------------------------
# Spatial heterogeneity.
# ---------------------------------------------------------------------------

def one_hour_sh(values) -> float:
    """sh_series of a grid whose one hour holds these readings."""
    (sh,) = sh_series(np.asarray(values, dtype=float)[None, :])
    return float(sh)


def test_uniform_field_has_zero_heterogeneity():
    assert one_hour_sh([3.0, 3.0, 3.0]) == 0.0


def test_two_point_heterogeneity_hand_value():
    # mean 1, deviations 1 and 1, divisor N-1 = 1.
    assert one_hour_sh([0.0, 2.0]) == 2.0


def test_heterogeneity_matches_statistics_variance():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 50, 11)
    assert one_hour_sh(values) == pytest.approx(
        statistics.variance(values.tolist()), rel=1e-12)


def test_heterogeneity_is_order_invariant():
    values = np.array([4.0, 9.0, 1.0, 16.0])
    assert one_hour_sh(values) == one_hour_sh(values[::-1])


def test_heterogeneity_translation_and_scaling():
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 80, 9)
    base = one_hour_sh(values)
    assert one_hour_sh(values + 13.7) == pytest.approx(base, abs=1e-10)
    assert one_hour_sh(values * 3.0) == pytest.approx(9.0 * base, rel=1e-12)


def test_sh_series_is_rowwise_and_nan_lenient():
    grid = np.array([[0.0, 2.0, np.nan],
                     [1.0, 1.0, 1.0],
                     [np.nan, np.nan, 5.0]])
    out = sh_series(grid)
    assert out[0] == 2.0
    assert out[1] == 0.0
    assert np.isnan(out[2])


def test_high_sh_hours_selects_the_upper_quantile():
    sh = np.array([1.0, 2.0, 3.0, 4.0, np.nan])
    mask = high_sh_hours(sh)
    # quantile of the finite values [1..4] at 0.75 is 3.25
    assert mask.tolist() == [False, False, False, True, False]


# ---------------------------------------------------------------------------
# Binned error profiles.
# ---------------------------------------------------------------------------

def test_single_bin_reproduces_global_mae():
    preds = np.array([1.0, 2.0, 4.0])
    truths = np.array([2.0, 2.0, 7.0])
    b = binned_mae(truths, preds, truths, [0.0, 10.0])
    assert b.counts == (3,)
    assert b.maes[0] == pytest.approx(np.abs(preds - truths).mean(), rel=1e-15)


def test_bins_are_half_open_on_the_right():
    b = binned_mae([10.0], [0.0], [1.0], ground_truth_bin_edges(15.0))
    assert b.counts == (0, 1)  # value 10 lands in [10, 20), not [0, 10)


def test_known_per_bin_errors_recombine_to_global():
    # two bins with per-bin MAE 1 and 3 and equal counts: global MAE 2.
    axis = [5.0, 5.0, 15.0, 15.0]
    preds = [1.0, 1.0, 3.0, 3.0]
    truths = [2.0, 0.0, 6.0, 0.0]
    b = binned_mae(axis, preds, truths, [0.0, 10.0, 20.0])
    assert b.maes == (1.0, 3.0)
    assert b.counts == (2, 2)


def test_recombination_matches_global_on_random_data():
    rng = np.random.default_rng(11)
    truths = rng.uniform(0, 70, 200)
    preds = truths + rng.normal(0, 3, 200)
    b = binned_mae(truths, preds, truths, ground_truth_bin_edges(truths.max()))
    assert b.dropped == 0
    recombined = sum(c * m for c, m in zip(b.counts, b.maes) if c) / sum(b.counts)
    assert recombined == pytest.approx(np.abs(preds - truths).mean(), abs=1e-10)


def test_empty_bins_report_count_zero_and_nan():
    b = binned_mae([5.0], [1.0], [2.0], [0.0, 10.0, 20.0])
    assert b.counts == (1, 0)
    assert np.isnan(b.maes[1])


def test_out_of_range_and_nan_axis_values_are_dropped():
    b = binned_mae([5.0, 25.0, np.nan], [1.0] * 3, [2.0] * 3, [0.0, 10.0])
    assert b.counts == (1,)
    assert b.dropped == 2


def test_bin_edge_validation():
    with pytest.raises(ValidationError, match="strictly increasing"):
        binned_mae([1.0], [1.0], [1.0], [0.0, 0.0, 10.0])
    with pytest.raises(ValidationError, match="align"):
        binned_mae([1.0, 2.0], [1.0], [1.0], [0.0, 10.0])


def test_sh_bin_edges_widen_after_200():
    widths = np.diff(SH_BIN_EDGES)
    assert set(widths[:10]) == {20.0}
    assert list(widths[10:]) == [200.0, 200.0, 200.0]


def test_mae_ratio_identity_and_hand_value():
    base = binned_mae([5.0, 15.0], [2.0, 2.0], [0.0, 0.0], [0.0, 10.0, 20.0])
    ref = binned_mae([5.0, 15.0], [1.0, 2.0], [0.0, 0.0], [0.0, 10.0, 20.0])
    assert mae_ratio(ref, ref) == (1.0, 1.0)
    assert mae_ratio(base, ref) == (2.0, 1.0)


def test_mae_ratio_rejects_mismatched_counts():
    a = binned_mae([5.0, 15.0], [1.0, 1.0], [0.0, 0.0], [0.0, 10.0, 20.0])
    b = binned_mae([5.0, 5.0], [1.0, 1.0], [0.0, 0.0], [0.0, 10.0, 20.0])
    with pytest.raises(ValidationError, match="counts differ"):
        mae_ratio(a, b)


def test_mae_ratio_is_nan_where_reference_is_exact():
    base = binned_mae([5.0], [3.0], [0.0], [0.0, 10.0])
    ref = binned_mae([5.0], [0.0], [0.0], [0.0, 10.0])
    ratio = mae_ratio(base, ref)
    assert np.isnan(ratio[0])


# ---------------------------------------------------------------------------
# Runners and the harness.
# ---------------------------------------------------------------------------

def test_mean_fill_runner_matches_per_hour_means():
    ds = toy_dataset(hours=10, n=5)
    run = estimator_runner(MeanFill)
    hours = np.arange(10)
    preds = run(ds, ("s0", "s1", "s2"), ("s3", "s4"), hours)
    ctx = subset_dataset_values(ds, ("s0", "s1", "s2"))
    for h in hours:
        assert np.allclose(preds[h], ctx[h].mean())


def test_estimator_runner_skips_missing_context_readings():
    ds = toy_dataset(hours=6, n=5)
    ds.pm25[2, 1] = np.nan  # s1 silent at hour 2
    preds = estimator_runner(MeanFill)(ds, ("s0", "s1", "s2"), ("s3",),
                                       np.arange(6))
    expected = np.nanmean(ds.pm25[2, [0, 1, 2]])
    assert preds[2, 0] == pytest.approx(expected, rel=1e-15)


def test_estimator_runner_needs_two_reporting_sensors():
    ds = toy_dataset(hours=4, n=4)
    ds.pm25[1, 0] = np.nan
    ds.pm25[1, 1] = np.nan
    with pytest.raises(ValidationError, match="hour 1"):
        estimator_runner(MeanFill)(ds, ("s0", "s1", "s2"), ("s3",),
                                   np.arange(4))


@pytest.mark.parametrize("hours", [[-1], [1.7], [8]])
def test_estimator_runner_rejects_bad_hours(hours):
    # called directly, not through evaluate_models: [-1] used to read
    # hour 7 and [1.7] hour 1
    ds = toy_dataset(hours=8)
    with pytest.raises(ValidationError, match="whole hour indices"):
        estimator_runner(MeanFill)(ds, ("s0", "s1", "s2", "s3"), ("s4",), hours)


def fresh_estimator_loop(factory, ds, context, targets, hours):
    """A fresh estimator fitted and queried per hour: the refit oracle."""
    ctx = subset_dataset_values(ds, context)
    ctx_coords = np.array([[s.latitude, s.longitude] for s in ds.sensors
                           if s.sensor_id in context])
    tgt_coords = np.array([[s.latitude, s.longitude] for s in ds.sensors
                           if s.sensor_id in targets])
    out = np.empty((len(hours), len(targets)))
    for row, hour in enumerate(hours):
        ok = np.isfinite(ctx[hour])
        out[row] = factory().fit(ctx_coords[ok], ctx[hour, ok][None]).predict(tgt_coords)[0]
    return out


ALL_BASELINES = {
    "mean_fill": MeanFill,
    "idw": Idw,
    "kriging": OrdinaryKriging,
    "gp": lambda: GaussianProcess(variance=20.0, lengthscale=3.0, noise=0.5),
}


@pytest.mark.parametrize("name", sorted(ALL_BASELINES))
def test_estimator_runner_refit_matches_a_fresh_estimator_per_hour(name):
    ds = toy_dataset(hours=14, n=7, seed=3)
    # The finite mask changes and changes back: s1 is silent at hours
    # 3-4 and 9, s2 at 6-7, both at 12.
    for hour, sensor in ((3, 1), (4, 1), (9, 1), (6, 2), (7, 2), (12, 1), (12, 2)):
        ds.pm25[hour, sensor] = np.nan
    context, targets, hours = ("s0", "s1", "s2", "s3", "s4"), ("s5", "s6"), np.arange(14)
    factory = ALL_BASELINES[name]
    got = estimator_runner(factory)(ds, context, targets, hours)
    want = fresh_estimator_loop(factory, ds, context, targets, hours)
    assert got.tobytes() == want.tobytes()


def gappy_network(hours=16, n=24, seed=5):
    """A 20-sensor context and 4 targets. The finite context mask changes
    and changes back: s1 is silent at hours 3-5 and 11, s13 at 8-9 and
    11."""
    ds = toy_dataset(hours=hours, n=n, seed=seed)
    ds.pm25[[3, 4, 5, 11], 1] = np.nan
    ds.pm25[[8, 9, 11], 13] = np.nan
    context = tuple(f"s{j}" for j in range(20))
    targets = tuple(f"s{j}" for j in range(20, n))
    return ds, context, targets


@pytest.mark.parametrize("name", sorted(ALL_BASELINES))
def test_estimator_runner_matches_a_fresh_estimator_per_hour_at_realistic_size(name):
    # The runner reads the context as subset_dataset_values gathers it, in
    # Fortran order. A row sum over that layout runs down the columns,
    # which differs from a 1-d sum from 8 entries up, so the fit must take
    # its rows C-ordered.
    ds, context, targets = gappy_network()
    assert not subset_dataset_values(ds, context).flags.c_contiguous
    hours = np.arange(ds.hours)
    factory = ALL_BASELINES[name]
    got = estimator_runner(factory)(ds, context, targets, hours)
    want = fresh_estimator_loop(factory, ds, context, targets, hours)
    assert got.tobytes() == want.tobytes()


def test_estimator_runner_fits_once_per_mask_run():
    ds, context, targets = gappy_network()
    fits = []

    class CountedIdw(Idw):
        def fit(self, coords, values):
            fits.append(np.shape(values))
            return super().fit(coords, values)

    estimator_runner(CountedIdw)(ds, context, targets, np.arange(ds.hours))
    # hours 0-2, 3-5 (no s1), 6-7, 8-9 (no s13), 10, 11 (neither), 12-15
    assert fits == [(3, 20), (3, 19), (2, 20), (2, 19), (1, 20), (1, 18), (4, 20)]


def test_estimator_runner_fits_a_long_run_in_bounded_pieces():
    ds, context, targets = gappy_network(hours=150)
    fits = []

    class CountedKriging(OrdinaryKriging):
        def fit(self, coords, values):
            fits.append(np.shape(values))
            return super().fit(coords, values)

    hours = np.arange(ds.hours)
    got = estimator_runner(CountedKriging)(ds, context, targets, hours)
    # hours 12-149 are one run of 138 hours: two 64-hour pieces and 10
    assert fits[6:] == [(64, 20), (64, 20), (10, 20)]
    want = fresh_estimator_loop(OrdinaryKriging, ds, context, targets, hours)
    assert got.tobytes() == want.tobytes()


def coincident_pair_dataset():
    """s0 and s1 coincide, so every hour both report has a singular
    kriging system; s1 is missing at hours 2, 5 and 6."""
    ds = toy_dataset(hours=12, n=6, seed=4)
    ds = Dataset(sensors=(ds.sensors[0], SensorMeta("s1", ds.sensors[0].latitude,
                                                    ds.sensors[0].longitude))
                 + ds.sensors[2:], start=T0, pm25=ds.pm25, wind=ds.wind).validate()
    ds.pm25[[2, 5, 6], 1] = np.nan
    return ds


def test_refit_kriging_warns_once_per_singular_hour(caplog):
    ds = coincident_pair_dataset()
    context, targets, hours = ("s0", "s1", "s2", "s3"), ("s4", "s5"), np.arange(12)
    with caplog.at_level(logging.WARNING, logger="physair.baselines"):
        got = estimator_runner(OrdinaryKriging)(ds, context, targets, hours)
    # the text perfbench's fallback counter matches
    fallbacks = [r for r in caplog.records if "falling back" in r.getMessage()]
    ctx = subset_dataset_values(ds, context)
    coords = np.array([[s.latitude, s.longitude] for s in ds.sensors])
    singular = 0
    for hour in hours:
        ok = np.isfinite(ctx[hour])
        est = OrdinaryKriging().fit(coords[:4][ok], ctx[hour, ok][None])
        singular += int(est._solutions(coords[4:])[1][0])
    assert 0 < singular < len(hours)
    assert len(fallbacks) == singular
    want = fresh_estimator_loop(OrdinaryKriging, ds, context, targets, hours)
    assert got.tobytes() == want.tobytes()


def test_kriging_runner_falls_back_only_on_the_singular_hours_of_a_run(caplog, monkeypatch):
    # Hour 6 reads one value at every context sensor, a zero variogram, in
    # the run of hours 6-7; hour 14's LU meets a zero pivot, in the run of
    # hours 12-15, so the run's stacked solve fails and it solves hour by hour.
    ds, context, targets = gappy_network()
    ds.pm25[6, :20] = 17.0
    coords = np.array([[s.latitude, s.longitude] for s in ds.sensors[:20]])
    pivotless = OrdinaryKriging().fit(coords, ds.pm25[14:15, :20]).matrix_[0].tobytes()
    real_solve = np.linalg.solve

    def solve(a, b):
        if any(m.tobytes() == pivotless for m in np.reshape(a, (-1,) + a.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    hours = np.arange(ds.hours)
    with caplog.at_level(logging.WARNING, logger="physair.baselines"):
        got = estimator_runner(OrdinaryKriging)(ds, context, targets, hours)
    assert len([r for r in caplog.records if "falling back" in r.getMessage()]) == 2
    assert got.tobytes() == fresh_estimator_loop(
        OrdinaryKriging, ds, context, targets, hours).tobytes()
    idw = fresh_estimator_loop(Idw, ds, context, targets, hours)
    assert (got[[6, 14]] == idw[[6, 14]]).all()
    assert not (got[[7, 12, 13, 15]] == idw[[7, 12, 13, 15]]).any()


def test_coincident_sensors_take_the_idw_fallback_at_a_zero_slope(caplog):
    # LU meets no zero pivot here: it returned -2.4e16 from weights of
    # +-6.2e15, with no warning
    ds = coincident_pair_dataset()
    ctx = subset_dataset_values(ds, ("s0", "s1", "s2", "s3"))[4:5]
    coords = np.array([[s.latitude, s.longitude] for s in ds.sensors])
    kriging = OrdinaryKriging().fit(coords[:4], ctx)
    assert kriging.slope_[0] == 0.0 and kriging.nugget_[0] > 0.0
    with caplog.at_level(logging.WARNING, logger="physair.baselines"):
        got = kriging.predict(coords[4:])
    assert len([r for r in caplog.records if "falling back" in r.getMessage()]) == 1
    assert got.tobytes() == Idw().fit(coords[:4], ctx).predict(coords[4:]).tobytes()
    assert abs(got[0, 0] - 21.51) < 0.01


def test_evaluate_models_rejects_context_target_overlap():
    ds = toy_dataset()
    with pytest.raises(ValidationError, match="context"):
        evaluate_models(ds, ("s0", "s1"), ("s1",),
                        {"mean_fill": estimator_runner(MeanFill)})


def test_evaluate_models_rejects_bad_hours():
    ds = toy_dataset(hours=8)
    with pytest.raises(ValidationError, match=r"\[-1\]"):
        evaluate_models(ds, ("s0", "s1"), ("s2",),
                        {"mean_fill": estimator_runner(MeanFill)}, hours=[-1, 5])


def test_evaluate_models_packages_predictions_and_sh():
    ds = toy_dataset(hours=12, n=6)
    run = evaluate_models(ds, ("s0", "s1", "s2", "s3"), ("s4", "s5"),
                          {"mean_fill": estimator_runner(MeanFill),
                           "idw": estimator_runner(Idw)},
                          label="toy")
    assert run.predictions["idw"].shape == (12, 2)
    assert run.sh.shape == (12,)
    assert np.allclose(run.sh, sh_series(ds.pm25))
    reports = run.reports()
    assert [r.model for r in reports] == ["mean_fill", "idw"]
    assert all(r.label == "toy" for r in reports)
    assert run.mae("idw") == pytest.approx(
        np.abs(run.predictions["idw"] - run.truths).mean(), rel=1e-15)


def test_nan_truths_are_excluded_from_scores():
    ds = toy_dataset(hours=8, n=5)
    ds.pm25[3, 4] = np.nan  # target s4 silent at hour 3
    run = evaluate_models(ds, ("s0", "s1", "s2"), ("s3", "s4"),
                          {"mean_fill": estimator_runner(MeanFill)})
    preds, obs, _ = run.flat("mean_fill")
    assert obs.size == 15
    assert np.isfinite(obs).all()
    assert run.report("mean_fill").count == 15


def test_hour_mask_restricts_the_sample_set():
    ds = toy_dataset(hours=10, n=5)
    run = evaluate_models(ds, ("s0", "s1", "s2"), ("s3", "s4"),
                          {"mean_fill": estimator_runner(MeanFill)})
    mask = high_sh_hours(run.sh)
    preds, obs, sh = run.flat("mean_fill", hour_mask=mask)
    assert obs.size == 2 * int(mask.sum())
    assert sh.min() >= np.quantile(run.sh, HIGH_SH_QUANTILE)


def test_gnn_runner_agrees_with_direct_target_evaluation():
    ds = toy_dataset(hours=10, n=6)
    models, norm = tiny_models(ds)
    context = ("s0", "s1", "s2", "s3")
    hours = np.arange(10)
    via_runner = gnn_runner(models, norm)(ds, context, ("s4", "s5"), hours)
    direct, _ = evaluate_target_sensor(models, norm, ds, context, "s4", hours)
    assert np.array_equal(via_runner[:, 0], direct)


def test_benchmark_runners_lineup():
    ds = toy_dataset(hours=8, n=6)
    lineup = benchmark_runners(ds, ("s0", "s1", "s2", "s3"))
    assert list(lineup) == ["mean_fill", "idw", "kriging", "gp"]
    models, norm = tiny_models(ds)
    lineup = benchmark_runners(ds, ("s0", "s1", "s2", "s3"), models=models,
                               normalizer=norm)
    assert "gnn" in lineup
    with pytest.raises(ValidationError, match="normalizer"):
        benchmark_runners(ds, ("s0", "s1"), models=models)


def test_benchmark_runners_fix_idw_and_the_gp_search(monkeypatch):
    ds = toy_dataset(hours=24, n=6)
    context, targets, hours = ("s0", "s1", "s2", "s3"), ("s4", "s5"), np.arange(24)
    searched = []

    def spy(coords, value_rows):
        searched.append(value_rows)
        return select_gp_hyperparameters(coords, value_rows)

    monkeypatch.setattr(evaluation, "select_gp_hyperparameters", spy)
    lineup = benchmark_runners(ds, context)
    rows = subset_dataset_values(ds, context)
    assert len(searched) == 1 and np.array_equal(searched[0], rows[::GP_SELECTION_STRIDE])
    coords = np.array([[s.latitude, s.longitude] for s in ds.sensors[:4]])
    targets_at = np.array([[s.latitude, s.longitude] for s in ds.sensors[4:]])
    gp = GaussianProcess(**select_gp_hyperparameters(coords, rows[::GP_SELECTION_STRIDE]))
    assert lineup["gp"](ds, context, targets, hours).tobytes() == \
        gp.fit(coords, rows).predict(targets_at).tobytes()
    assert lineup["idw"](ds, context, targets, hours).tobytes() == \
        estimator_runner(Idw)(ds, context, targets, hours).tobytes()


def window_models(dataset, windows):
    models = [PhysicsGnn(ModelConfig(preset=None, n_layers=2, hidden_dim=8, window=w),
                         seed=k) for k, w in enumerate(windows)]
    return models, Normalizer.from_values(dataset.pm25)


def per_target_forward(models, norm, ds, context, target, hours):
    """The ensemble mean of each member's own forward on context + target."""
    graph = graph_for_ids(ds, context + (target,))
    values = np.concatenate([norm.normalize(subset_dataset_values(ds, context)),
                             np.zeros((ds.hours, 1))], axis=1)
    window = models[0].config.window
    x = np.stack([build_node_inputs(values, int(h), len(context), window) for h in hours])
    conv = hourly_conv_features(graph, ds, hours)
    wiring = GraphWiring(graph)
    mean = sum(m.forward(x, wiring, conv, len(context)).data for m in models) / len(models)
    return norm.denormalize(mean)


def test_inference_reads_the_input_window_from_the_ensemble():
    ds = toy_dataset(hours=8, n=6)
    models, norm = window_models(ds, (3, 3))
    context, targets, hours = ("s0", "s1", "s2", "s3"), ("s4", "s5"), np.arange(8)
    want = np.column_stack([per_target_forward(models, norm, ds, context, t, hours)
                            for t in targets])
    runner = benchmark_runners(ds, context, models=models, normalizer=norm)["gnn"]
    points = [s for s in ds.sensors if s.sensor_id in targets]
    for got in (runner(ds, context, targets, hours),
                evaluate_target_sensor(models, norm, ds, context, targets, hours)[0],
                infer_at_location(models, norm, ds, context,
                                  [s.latitude for s in points],
                                  [s.longitude for s in points], hours)):
        assert got.shape == (8, 2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_an_ensemble_without_one_shared_window_is_refused():
    ds = toy_dataset(hours=6, n=5)
    models, norm = window_models(ds, (1, 3))
    context = ("s0", "s1", "s2")
    with pytest.raises(ValidationError, match=r"windows \[1, 3\]"):
        evaluate_target_sensor(models, norm, ds, context, "s3", None)
    with pytest.raises(ValidationError, match=r"windows \[1, 3\]"):
        infer_at_location(models, norm, ds, context, 32.71, -117.11)
    # an empty ensemble has no window either, and no mean to take
    with pytest.raises(ValidationError, match=r"windows \[\]"):
        evaluate_target_sensor([], norm, ds, context, "s3", None)


# ---------------------------------------------------------------------------
# Density experiment.
# ---------------------------------------------------------------------------

def test_density_removal_counts_follow_floor():
    ids = tuple(f"s{i:02d}" for i in range(28))
    # floor(f * 28) removed: the quoted remaining counts 23/17/12/6.
    for fraction, left in [(0.2, 23), (0.4, 17), (0.6, 12), (0.8, 6)]:
        assert len(density_removal(ids, fraction, seed=0)) == left


def test_density_removal_is_deterministic_and_order_preserving():
    ids = ("s3", "s1", "s4", "s0", "s2", "s5")
    kept_a = density_removal(ids, 0.4, seed=1)
    kept_b = density_removal(ids, 0.4, seed=1)
    assert kept_a == kept_b
    assert list(kept_a) == [i for i in ids if i in kept_a]
    assert density_removal(ids, 0.0, seed=3) == ids
    assert density_removal(ids, 0.4, seed=1) != density_removal(ids, 0.4, seed=2)


def test_density_removal_guards():
    with pytest.raises(ValidationError, match="fraction"):
        density_removal(("a", "b", "c"), 1.0, seed=0)
    with pytest.raises(ValidationError, match="at least 2"):
        density_removal(("a", "b", "c", "d"), 0.75, seed=0)


def density_schedule(monkeypatch, fractions, seed_count):
    """Run the density sweep over these fractions and seeds 0..seed_count-1."""
    monkeypatch.setattr(evaluation, "DENSITY_FRACTIONS", fractions)
    monkeypatch.setattr(evaluation, "DENSITY_SEED_COUNT", seed_count)


def test_density_fraction_zero_reproduces_the_main_run_exactly(monkeypatch):
    ds = toy_dataset(hours=12, n=7)
    context = ("s0", "s1", "s2", "s3", "s4")
    runners = {"mean_fill": estimator_runner(MeanFill),
               "idw": estimator_runner(Idw)}
    main = evaluate_models(ds, context, ("s5", "s6"), runners)
    density_schedule(monkeypatch, (0.0, 0.4), 2)
    result = density_experiment(ds, context, ("s5", "s6"), runners)
    assert (result.fractions, result.seeds) == ((0.0, 0.4), (0, 1))
    for name in runners:
        assert result.per_seed_mae[name][0, 0] == main.mae(name)
        assert result.per_seed_mae[name][0, 1] == main.mae(name)
    rerun = density_experiment(ds, context, ("s5", "s6"), runners)
    for name in runners:
        assert np.array_equal(result.per_seed_mae[name],
                              rerun.per_seed_mae[name])
    assert result.remaining == (5, 3)


def _counted(runners):
    """Wrap each runner so calls[name] counts how often it runs."""
    calls = {name: 0 for name in runners}

    def wrap(name, runner):
        def run(*args):
            calls[name] += 1
            return runner(*args)
        return run

    return {name: wrap(name, r) for name, r in runners.items()}, calls


def test_density_takes_the_main_runs_scores_for_its_context(monkeypatch):
    ds = toy_dataset(hours=12, n=7)
    monkeypatch.setattr(training, "EVAL_BATCH", 5)
    context, targets = ("s0", "s1", "s2", "s3", "s4"), ("s5", "s6")
    models, norm = tiny_models(ds)
    runners = {"mean_fill": estimator_runner(MeanFill),
               "idw": estimator_runner(Idw),
               "gnn": gnn_runner(models, norm)}
    main = evaluate_models(ds, context, targets, runners)
    density_schedule(monkeypatch, (0.0, 0.4), 2)
    counted, calls = _counted(runners)
    alone = density_experiment(ds, context, targets, counted)
    alone_calls = dict(calls)
    counted, calls = _counted(runners)
    reused = density_experiment(ds, context, targets, counted, main=main)
    for name in runners:
        assert calls[name] == alone_calls[name] - 1, name
        assert reused.per_seed_mae[name].tobytes() == alone.per_seed_mae[name].tobytes()
    assert reused.remaining == alone.remaining


def test_density_refuses_a_too_small_network_before_any_runner_runs(monkeypatch):
    # six sensors are the fewest the default fractions accept
    six = tuple("abcdef")
    assert [len(kept) for row in density_cells(six) for kept in row] == \
        [6] * 5 + [5] * 5 + [4] * 5 + [3] * 5 + [2] * 5
    with pytest.raises(ValidationError, match="leaves 1"):
        density_cells(six[:5])
    # the 0.2 cells keep 4 of 5 sensors, but the 0.8 cells would keep 1
    ds = toy_dataset(hours=12, n=7)
    context = ("s0", "s1", "s2", "s3", "s4")
    counted, calls = _counted({"mean_fill": estimator_runner(MeanFill)})
    density_schedule(monkeypatch, (0.2, 0.8), 2)
    with pytest.raises(ValidationError, match="removing 4 of 5 context sensors leaves 1"):
        density_experiment(ds, context, ("s5", "s6"), counted)
    assert calls == {"mean_fill": 0}


def test_density_refuses_a_main_run_of_another_experiment(monkeypatch):
    ds = toy_dataset(hours=12, n=7)
    context = ("s0", "s1", "s2", "s3", "s4")
    runners = {"mean_fill": estimator_runner(MeanFill),
               "idw": estimator_runner(Idw)}
    other_targets = evaluate_models(ds, context, ("s5",), runners)
    other_hours = evaluate_models(ds, context, ("s5", "s6"), runners, hours=np.arange(6))
    other_runners = evaluate_models(ds, context, ("s5", "s6"),
                                    {"mean_fill": runners["mean_fill"]})
    density_schedule(monkeypatch, (0.0,), 1)
    for main in (other_targets, other_hours, other_runners):
        with pytest.raises(ValidationError, match="same runners on the same targets"):
            density_experiment(ds, context, ("s5", "s6"), runners, main=main)


# ---------------------------------------------------------------------------
# Arbitrary-location inference.
# ---------------------------------------------------------------------------

def test_infer_at_location_matches_held_out_evaluation():
    ds = toy_dataset(hours=9, n=6)
    models, norm = tiny_models(ds, n_models=2)
    context = ("s0", "s1", "s2", "s3", "s4")
    target = next(s for s in ds.sensors if s.sensor_id == "s5")
    hours = np.arange(9)
    direct, _ = evaluate_target_sensor(models, norm, ds, context, "s5", hours)
    virtual = infer_at_location(models, norm, ds, context,
                                target.latitude, target.longitude, hours)
    assert np.array_equal(virtual, direct)


@pytest.mark.parametrize("hour", [-1, 1.7, 64])
def test_infer_at_location_rejects_bad_hours(hour):
    # read as given, a negative hour would take its wind from the series
    # end, a fractional one would truncate, and one past the end would
    # index out of range
    ds = toy_dataset(hours=64, n=4)
    models, norm = tiny_models(ds)
    with pytest.raises(ValidationError, match="whole hour indices"):
        infer_at_location(models, norm, ds, ("s0", "s1", "s2"), 32.71, -117.11,
                          hours=[hour])


def stacked_targets(monkeypatch, models) -> list:
    """The number of targets of each forward the models run from now on."""
    stacks = []
    for model in models:
        def spy(x, wiring, *args, forward=model.forward, **kwargs):
            stacks.append(wiring.groups)
            return forward(x, wiring, *args, **kwargs)

        monkeypatch.setattr(model, "forward", spy)
    return stacks


@pytest.mark.parametrize("points_per_stack", [2, 32])
def test_multi_point_inference_equals_single_point_calls(monkeypatch, points_per_stack):
    ds = toy_dataset(hours=24, n=6)
    models, norm = tiny_models(ds, n_models=2)
    context = ("s0", "s1", "s2", "s3")
    rng = np.random.default_rng(3)
    lats = (32.70 + 0.02 * rng.uniform(size=5)).tolist()
    lons = (-117.12 + 0.02 * rng.uniform(size=5)).tolist()
    # the last point sits on a context sensor: the distance floor, a zero
    # edge vector, and a graph derived from the first point's
    lats[-1], lons[-1] = ds.sensors[2].latitude, ds.sensors[2].longitude
    hours = np.arange(0, 20)
    monkeypatch.setattr(training, "EVAL_BATCH", 7)
    singles = [infer_at_location(models, norm, ds, context, lat, lon, hours)
               for lat, lon in zip(lats, lons)]
    # 5-node graphs in hour chunks of 7, 7 and 6 hours: a stack of p points
    # holds at most p * 35 node rows
    monkeypatch.setattr(training, "_STACK_ROWS", points_per_stack * 35)
    stacks = stacked_targets(monkeypatch, models)
    grid = infer_at_location(models, norm, ds, context, lats, lons, hours)
    assert grid.shape == (20, 5)
    # per hour chunk and member
    assert stacks == ([2, 2, 1] if points_per_stack == 2 else [5]) * 6
    for p, single in enumerate(singles):
        assert single.shape == (20,)
        assert grid[:, p].tobytes() == single.tobytes()


@pytest.mark.parametrize("dim", [8, 128, 256, 512])
@pytest.mark.parametrize("n_context", [2, 3])
@pytest.mark.parametrize("bsz", [1, 2])
def test_multi_point_call_keeps_each_points_bits_at_every_width(bsz, n_context, dim):
    # a stack runs its targets' node rows through one d-wide GEMM; at
    # d = 512 a block of 3 rows (B = 1, 2 context sensors) rounds
    # otherwise than the same rows multiplied alone, so such targets run
    # one by one. A unit normalizer keeps a last-bit difference in the
    # model's output from rounding away in the raw units' mean
    ds = toy_dataset(hours=bsz, n=n_context)
    models, _ = tiny_models(ds, hidden_dim=dim)
    norm = Normalizer(0.0, 1.0)
    context = tuple(s.sensor_id for s in ds.sensors)
    rng = np.random.default_rng([bsz, n_context, dim])
    lats = (32.70 + 0.02 * rng.uniform(size=5)).tolist()
    lons = (-117.12 + 0.02 * rng.uniform(size=5)).tolist()
    grid = infer_at_location(models, norm, ds, context, lats, lons)
    for p, (lat, lon) in enumerate(zip(lats, lons)):
        assert grid[:, p].tobytes() == infer_at_location(models, norm, ds, context, lat, lon).tobytes()


def test_a_grid_call_peak_does_not_grow_with_its_points():
    # a call builds each point's graph and wiring only while its stack
    # runs: holding every point's, a call grew by ~11 KB per point on these
    # 12-node graphs (1.3 MB at 100 points, 11.4 MB at 1000)
    ds = toy_dataset(hours=4, n=12)
    models, norm = tiny_models(ds)
    context = tuple(f"s{i}" for i in range(11))
    rng = np.random.default_rng(7)
    peaks = {}
    for count in (100, 1000):
        lats = (32.70 + 0.02 * rng.uniform(size=count)).tolist()
        lons = (-117.12 + 0.02 * rng.uniform(size=count)).tolist()
        infer_at_location(models, norm, ds, context, lats[:2], lons[:2], hours=[1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            infer_at_location(models, norm, ds, context, lats, lons, hours=[1])
            peaks[count] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[1000] - peaks[100] < 900 * 1024, peaks


def test_infer_at_location_refuses_mismatched_coordinates():
    ds = toy_dataset(hours=4, n=4)
    models, norm = tiny_models(ds)
    context = ("s0", "s1", "s2")
    for lat, lon in [([32.70, 32.71], [-117.11]), (32.70, [-117.11]), ([], []),
                     ([[32.70]], [[-117.11]])]:
        with pytest.raises(ValidationError, match="two scalars or two sequences"):
            infer_at_location(models, norm, ds, context, lat, lon)


def test_infer_at_location_requires_complete_context():
    ds = toy_dataset(hours=6, n=4)
    ds.pm25[1, 0] = np.nan
    models, norm = tiny_models(ds)
    with pytest.raises(ValidationError, match="missing"):
        infer_at_location(models, norm, ds, ("s0", "s1", "s2"), 32.71, -117.11)


def test_a_one_hour_dataset_predicts_as_its_hour_does():
    # one hour's snapshot, as a library caller predicts at it: a Dataset of
    # that hour's readings and wind, asked for its hour 0
    ds = toy_dataset(hours=7, n=6)
    models, norm = tiny_models(ds)
    context = ("s0", "s1", "s2", "s3", "s4")
    hour = 3
    snapshot = Dataset(sensors=ds.sensors, start=T0, pm25=ds.pm25[hour:hour + 1],
                       wind=ds.wind[hour:hour + 1])
    target = ds.sensors[5]
    pred = infer_at_location(models, norm, snapshot, context, target.latitude,
                             target.longitude, hours=[0])
    direct, _ = evaluate_target_sensor(models, norm, ds, context, "s5", [hour])
    assert pred.tobytes() == direct.tobytes()


def test_every_estimator_predicts_an_empty_query_as_empty():
    ds = toy_dataset(hours=4, n=5)
    coords = np.array([[s.latitude, s.longitude] for s in ds.sensors])
    for est in (MeanFill(), Idw(), OrdinaryKriging(), GaussianProcess()):
        assert est.fit(coords, ds.pm25[1:2]).predict(np.empty((0, 2))).shape == (1, 0)


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------

def test_metrics_table_lists_every_model():
    reports = [metrics([1.0, 9.0], [0.0, 10.0], model=m, label="test")
               for m in ("mean_fill", "gnn")]
    text = format_metrics_table(reports)
    lines = text.splitlines()
    assert "mean_fill" in text and "gnn" in text
    assert len(lines) == 4  # header, rule, two rows
    assert "0.9600" in text


def test_density_table_has_one_row_per_fraction(monkeypatch):
    ds = toy_dataset(hours=6, n=5)
    density_schedule(monkeypatch, (0.0, 0.4), 1)
    result = density_experiment(ds, ("s0", "s1", "s2"), ("s3", "s4"),
                                {"mean_fill": estimator_runner(MeanFill)})
    text = format_density_table(result)
    assert "0%" in text and "40%" in text and "mean_fill" in text


def test_binned_table_requires_one_shared_binning():
    a = binned_mae([5.0], [1.0], [0.0], [0.0, 10.0])
    b = binned_mae([5.0, 6.0], [1.0, 1.0], [0.0, 0.0], [0.0, 10.0])
    text = format_binned_table({"idw": a})
    assert "[0, 10)" in text
    with pytest.raises(ValidationError, match="binning"):
        format_binned_table({"idw": a, "gp": b})


def test_summary_json_is_strict_json(tmp_path):
    # truths 1-35 leave the ground-truth bin [20, 30) empty, so its mae and
    # its ratio to the gnn are NaN, which report.json writes as null
    truths = np.array([[1.0, 12.0], [3.0, 15.0], [5.0, 35.0], [2.0, 31.0]])
    run = EvalRun(label="test", context_ids=("s0", "s1"), target_ids=("s2", "s3"),
                  hours=np.arange(4), truths=truths, sh=np.array([1.0, 2.0, 3.0, 4.0]),
                  predictions={"idw": truths + 1.0, "gnn": truths - 2.0})
    text, payload = build_report(run, checkpoints=["a.ckpt"])
    assert "test-high-sh" in text and "removed" not in text
    json.dumps(payload, allow_nan=False)
    out = tmp_path / "report.json"
    write_summary(out, payload)
    parsed = json.loads(out.read_text())
    assert list(parsed) == ["metrics", "binned_mae", "extra", "facts"]
    assert list(parsed["extra"]) == ["mae_ratio_vs_gnn", "checkpoints",
                                     "context_sensors", "target_sensors"]
    assert parsed["metrics"][0]["mae"] == 1.0
    assert parsed["binned_mae"]["ground_truth:idw"]["mae"] == [1.0, 1.0, None, 1.0]
    assert parsed["extra"]["mae_ratio_vs_gnn"]["ground_truth"]["idw"] == [0.5, 0.5, None, 0.5]
    assert parsed["extra"]["checkpoints"] == ["a.ckpt"]


def test_a_summary_leaves_another_writers_temp_file_alone(tmp_path):
    # temp files carry the writer's pid: a second process writing the same
    # --out must not truncate the first one's staged report or rename it away
    out = tmp_path / "report.json"
    foreign = tmp_path / "report.json.tmp"
    foreign.write_text("staged by another process")
    write_summary(out, {"hours": 9})
    assert json.loads(out.read_text()) == {"hours": 9}
    assert foreign.read_text() == "staged by another process"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]
