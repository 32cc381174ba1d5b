"""Baseline interpolators against hand-built and brute-force oracles."""

import logging

import numpy as np
import pytest

from physair import baselines
from physair.baselines import (
    GP_JITTER,
    GP_LENGTHSCALES_KM,
    GP_NOISE_FACTORS,
    GP_VARIANCE_FACTORS,
    GaussianProcess,
    Idw,
    MeanFill,
    OrdinaryKriging,
    _gp_grid_scores,
    select_gp_hyperparameters,
)
from physair.errors import ShapeError, ValidationError
from physair.geo import SensorMeta, haversine_km, pairwise_distances_km

BASE_LAT, BASE_LON = 32.7, -117.15


def random_coords(rng, n, spread=0.15):
    lat = BASE_LAT + rng.uniform(-spread, spread, n)
    lon = BASE_LON + rng.uniform(-spread, spread, n)
    return np.column_stack([lat, lon])


def hav(p, q):
    return haversine_km(SensorMeta("a", p[0], p[1]), SensorMeta("b", q[0], q[1]))


# ---------------------------------------------------------------------------
# Mean fill.
# ---------------------------------------------------------------------------

def test_mean_fill_simple_average():
    est = MeanFill().fit([[0, 0], [0, 1], [1, 0]], [[2.0, 4.0, 6.0]])
    assert est.predict([[0.5, 0.5]])[0, 0] == 4.0


def test_mean_fill_single_sensor():
    est = MeanFill().fit([[10.0, 20.0]], [[3.25]])
    np.testing.assert_array_equal(est.predict([[0, 0], [5, 5]]), [[3.25, 3.25]])


def test_mean_fill_constant_field():
    est = MeanFill().fit([[0, 0], [0, 1], [1, 1], [1, 0]], [[7.0] * 4])
    assert np.all(est.predict([[0.2, 0.7]]) == 7.0)


def test_mean_fill_empty_context_raises():
    with pytest.raises(ValidationError):
        MeanFill().fit(np.empty((0, 2)), [[]])


def test_mean_fill_predict_before_fit_raises():
    with pytest.raises(ValidationError):
        MeanFill().predict([[0, 0]])


# ---------------------------------------------------------------------------
# Inverse distance weighting.
# ---------------------------------------------------------------------------

def test_idw_exact_at_sensor_location():
    coords = [[32.7, -117.1], [32.8, -117.2], [32.9, -117.0]]
    est = Idw().fit(coords, [[5.0, 9.0, 1.0]])
    assert est.predict([coords[1]])[0, 0] == 9.0


def test_idw_equidistant_pair_averages():
    est = Idw().fit([[0.0, 0.1], [0.0, -0.1]], [[3.0, 11.0]])
    pred = est.predict([[0.0, 0.0]])[0, 0]
    assert abs(pred - 7.0) < 1e-12


def test_idw_matches_brute_force_weights():
    rng = np.random.default_rng(11)
    coords = random_coords(rng, 4)
    values = rng.uniform(0, 50, 4)
    targets = random_coords(rng, 6)
    est = Idw().fit(coords, values[None])
    pred = est.predict(targets)[0]
    for t in range(6):
        w = np.array([1.0 / hav(targets[t], coords[i]) for i in range(4)])
        expected = float(w @ values / w.sum())
        assert abs(pred[t] - expected) < 1e-12


def test_idw_power_two_matches_brute_force(monkeypatch):
    # IDW_POWER is the exponent Idw applies: at power 1 the weights could
    # equally be a hard-coded 1 / d
    monkeypatch.setattr(baselines, "IDW_POWER", 2.0)
    rng = np.random.default_rng(12)
    coords = random_coords(rng, 5)
    values = rng.uniform(0, 30, 5)
    target = random_coords(rng, 1)
    pred = Idw().fit(coords, values[None]).predict(target)[0, 0]
    w = np.array([hav(target[0], coords[i]) ** -2.0 for i in range(5)])
    assert abs(pred - w @ values / w.sum()) < 1e-12


def test_idw_prediction_stays_in_value_hull():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = rng.integers(2, 9)
        coords = random_coords(rng, n)
        values = rng.uniform(-5, 40, n)
        preds = Idw().fit(coords, values[None]).predict(random_coords(rng, 5))
        assert np.all(preds >= values.min() - 1e-12)
        assert np.all(preds <= values.max() + 1e-12)


def test_idw_empty_context_raises():
    with pytest.raises(ValidationError):
        Idw().fit(np.empty((0, 2)), [[]])


def test_idw_deterministic():
    rng = np.random.default_rng(14)
    coords = random_coords(rng, 6)
    values = rng.uniform(0, 20, 6)
    targets = random_coords(rng, 3)
    a = Idw().fit(coords, values[None]).predict(targets)
    b = Idw().fit(coords, values[None]).predict(targets)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Ordinary kriging.
# ---------------------------------------------------------------------------

def test_kriging_weights_sum_to_one():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        coords = random_coords(rng, n)
        values = rng.uniform(0, 60, n)
        est = OrdinaryKriging().fit(coords, values[None])
        solution, singular = est._solutions(random_coords(rng, 4))
        assert not singular.any()
        # one (n+1, targets) solution per hour: n weights, then the multiplier
        np.testing.assert_allclose(solution[0, :n].sum(axis=0), 1.0, atol=1e-8)
        assert np.isfinite(solution[0, n]).all()


def test_kriging_exact_at_sample_point_with_zero_nugget():
    # a planar field: semivariance grows with distance, and the fitted
    # line's intercept clamps to a zero nugget
    rng = np.random.default_rng(22)
    coords = random_coords(rng, 5)
    values = 100.0 * (coords[:, 1] - coords[:, 1].min()) + 50.0 * (coords[:, 0] - coords[:, 0].min())
    est = OrdinaryKriging().fit(coords, values[None])
    assert est.slope_[0] > 0.0 and est.nugget_[0] == 0.0
    pred = est.predict(coords[2:3])[0, 0]
    assert abs(pred - values[2]) < 1e-6


def test_kriging_three_point_system_matches_dense_oracle():
    coords = np.array([[32.70, -117.10], [32.76, -117.18], [32.82, -117.06]])
    values = np.array([10.0, 15.0, 20.0])
    target = np.array([[32.75, -117.12]])
    est = OrdinaryKriging().fit(coords, values[None])
    slope, nugget = est.slope_[0], est.nugget_[0]
    assert slope > 0.0  # the weights depend on the distances

    def gamma(h):
        return nugget + slope * h

    g01 = gamma(hav(coords[0], coords[1]))
    g02 = gamma(hav(coords[0], coords[2]))
    g12 = gamma(hav(coords[1], coords[2]))
    a = np.array([
        [0.0, g01, g02, 1.0],
        [g01, 0.0, g12, 1.0],
        [g02, g12, 0.0, 1.0],
        [1.0, 1.0, 1.0, 0.0],
    ])
    rhs = np.array([gamma(hav(target[0], coords[i])) for i in range(3)] + [1.0])
    expected = np.linalg.solve(a, rhs)

    solution, singular = est._solutions(target)
    assert not singular.any()
    np.testing.assert_allclose(solution[0, :3, 0], expected[:3], atol=1e-10)
    assert abs(solution[0, 3, 0] - expected[3]) < 1e-10
    pred = est.predict(target)[0, 0]
    assert abs(pred - expected[:3] @ values) < 1e-10


def test_kriging_singular_system_falls_back_to_idw(caplog):
    # Two coincident sensors make identical matrix rows.
    coords = [[32.7, -117.1], [32.7, -117.1], [32.8, -117.2]]
    values = [[1.0, 2.0, 9.0]]
    target = [[32.75, -117.15]]
    est = OrdinaryKriging().fit(coords, values)
    with caplog.at_level(logging.WARNING, logger="physair.baselines"):
        pred = est.predict(target)
    assert "falling back" in caplog.text
    expected = Idw().fit(coords, values).predict(target)
    np.testing.assert_array_equal(pred, expected)


@pytest.mark.parametrize("coords, values, sloped, nugget", [
    # coinciding sensors give equal rows whatever the variogram; the pair
    # that coincides disagrees more than the far pairs (a flat fit) or less
    ([[32.7, -117.1], [32.7, -117.1], [32.8, -117.2]], [1.0, 5.0, 3.0], False, True),
    ([[32.7, -117.1], [32.7, -117.1], [32.8, -117.2]], [1.0, 1.0, 9.0], True, False),
    # equal readings fit a zero variogram, which leaves only the
    # unbiasedness row and column
    ([[32.7, -117.1], [32.75, -117.1], [32.8, -117.2]], [4.0, 4.0, 4.0], False, False),
], ids=["coinciding-flat", "coinciding-sloped", "zero-variogram"])
def test_kriging_refuses_an_exactly_singular_system_before_solving(coords, values, sloped,
                                                                    nugget, monkeypatch,
                                                                    caplog):
    est = OrdinaryKriging().fit(coords, [values])
    assert (est.slope_[0] > 0.0, est.nugget_[0] > 0.0) == (sloped, nugget)
    assert est.singular_[0]

    def no_solve(*args):
        raise AssertionError("solved a singular system")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    target = [[32.75, -117.15]]
    with caplog.at_level(logging.WARNING, logger="physair.baselines"):
        pred = est.predict(target)
    assert "falling back" in caplog.text
    assert pred.tobytes() == Idw().fit(coords, [values]).predict(target).tobytes()


def test_variogram_slope_clamped_nonnegative():
    # Near pairs disagree strongly, far pairs agree: the unconstrained
    # least-squares slope is negative and must clamp to zero.
    coords = np.array([[0.0, 0.0], [0.0, 0.01], [0.0, 0.10], [0.0, 0.11]])
    values = np.array([0.0, 10.0, 0.0, 10.0])
    est = OrdinaryKriging().fit(coords, values[None])
    assert est.slope_[0] == 0.0
    assert est.nugget_[0] >= 0.0


def test_variogram_recovers_linear_trend():
    # Values proportional to longitude give semivariance growing with
    # distance; the fitted slope must be positive.
    rng = np.random.default_rng(23)
    lon = np.sort(rng.uniform(-117.3, -117.0, 12))
    coords = np.column_stack([np.full(12, 32.7), lon])
    values = 100.0 * (lon - lon.min())
    est = OrdinaryKriging().fit(coords, values[None])
    assert est.slope_[0] > 0.0
    assert est.nugget_[0] >= 0.0


def test_variogram_bin_means_equal_np_mean_bit_for_bit():
    # the fit takes each bin's mean as np.add.reduce(g) / g.size, which is
    # what np.mean computes; bins hold 1 to 351 pairs (27 sensors, one bin)
    rng = np.random.default_rng(31)
    for size in range(1, 352):
        g = 0.5 * rng.normal(0.0, 10.0, size) ** 2
        assert (np.add.reduce(g) / g.size).tobytes() == np.mean(g).tobytes(), size
    for n in (3, 9, 27):
        coords = random_coords(rng, n)
        values = rng.uniform(5.0, 60.0, n)
        dist = pairwise_distances_km(coords[:, 0], coords[:, 1])
        # the same fit, written with np.mean
        iu, ju = np.triu_indices(n, k=1)
        h = dist[iu, ju]
        width = h.max() / 10
        idx = np.minimum((h / width).astype(int), 9)
        gamma = 0.5 * (values[iu] - values[ju]) ** 2
        kept = [b for b in range(10) if (idx == b).any()]
        means = [np.mean(gamma[idx == b]) for b in kept]
        slope, nugget = np.polyfit([(b + 0.5) * width for b in kept], means, 1)
        est = OrdinaryKriging().fit(coords, values[None])
        assert (est.slope_[0], est.nugget_[0]) == (max(0.0, float(slope)),
                                                   max(0.0, float(nugget)))


def polyfit_oracle(centers, means):
    """Each hour's clamped np.polyfit(centers, row, 1), as (slopes, nuggets)."""
    fits = np.array([np.polyfit(centers, row, 1) for row in means])
    return baselines._clamp(fits[:, 0]), baselines._clamp(fits[:, 1])


@pytest.mark.parametrize("hours", [1, 7, 64])
def test_variogram_line_fit_equals_np_polyfit_bit_for_bit(hours):
    # each bin holds one pair (sensor 0, sensor k), so its mean is that
    # pair's semivariance 0.5 * v_k^2 with v_0 = 0
    rng = np.random.default_rng(100 + hours)
    for trial in range(60):
        n_bins = int(rng.integers(2, 11))
        width = 10.0 ** rng.uniform(-3.0, np.log10(50.0))
        kept = np.sort(rng.choice(10, n_bins, replace=False))
        centers = np.array([(b + 0.5) * width for b in kept])
        low = (0.0, 1e-6)[trial % 2]
        targets = rng.uniform(low, 10.0 ** rng.uniform(-6.0, 6.0), (hours, n_bins))
        if trial % 3 == 0:  # every bin of an hour has the same mean
            targets[:] = targets[:, :1]
        if trial % 5 == 0:
            targets[0] = (0.0, 1e6)[trial % 2]
        values = np.zeros((hours, n_bins + 1))
        values[:, 1:] = np.sqrt(2.0 * targets)
        bins = (np.zeros(n_bins, dtype=int), np.arange(1, n_bins + 1), centers,
                [np.array([k]) for k in range(n_bins)])
        means = 0.5 * (values[:, :1] - values[:, 1:]) ** 2
        slope, nugget = baselines._fit_binned_variogram(bins, values)
        want_slope, want_nugget = polyfit_oracle(centers, means)
        assert slope.tobytes() == want_slope.tobytes(), trial
        assert nugget.tobytes() == want_nugget.tobytes(), trial


def test_kriging_variogram_equals_np_polyfit_on_a_fortran_ordered_panel():
    # 20 sensors in Fortran order, as subset_dataset_values gathers them
    rng = np.random.default_rng(66)
    n = 20
    coords = random_coords(rng, n)
    values = np.asfortranarray(rng.uniform(5.0, 60.0, (64, n)))
    est = OrdinaryKriging().fit(coords, values)
    dist = pairwise_distances_km(coords[:, 0], coords[:, 1])
    iu, ju = np.triu_indices(n, k=1)
    h = dist[iu, ju]
    width = h.max() / 10
    idx = np.minimum((h / width).astype(int), 9)
    kept = [b for b in range(10) if (idx == b).any()]
    means = []
    for row in values:
        gamma = 0.5 * (row[iu] - row[ju]) ** 2
        means.append([np.mean(gamma[idx == b]) for b in kept])
    slope, nugget = polyfit_oracle(np.array([(b + 0.5) * width for b in kept]),
                                   np.array(means))
    assert len(kept) >= 2
    assert est.slope_.tobytes() == slope.tobytes()
    assert est.nugget_.tobytes() == nugget.tobytes()


def test_kriging_fit_builds_one_vandermonde_matrix_and_calls_no_polyfit(monkeypatch):
    vander_calls = []
    real_vander = np.vander

    def counted_vander(*args, **kwargs):
        vander_calls.append(args)
        return real_vander(*args, **kwargs)

    def no_polyfit(*args, **kwargs):
        raise AssertionError("the variogram fit called np.polyfit")

    monkeypatch.setattr(np, "vander", counted_vander)
    monkeypatch.setattr(np, "polyfit", no_polyfit)
    rng = np.random.default_rng(67)
    OrdinaryKriging().fit(random_coords(rng, 12), rng.uniform(5.0, 60.0, (64, 12)))
    assert len(vander_calls) == 1


def test_kriging_requires_two_sensors():
    with pytest.raises(ValidationError):
        OrdinaryKriging().fit([[0.0, 0.0]], [[1.0]])


# ---------------------------------------------------------------------------
# Gaussian process.
# ---------------------------------------------------------------------------

def test_gp_two_point_closed_form():
    coords = np.array([[32.70, -117.10], [32.78, -117.20]])
    values = np.array([12.0, 30.0])
    target = np.array([[32.74, -117.16]])
    variance, lengthscale, noise = 3.0, 4.0, 0.25
    est = GaussianProcess(variance, lengthscale, noise).fit(coords, values[None])
    pred = est.predict(target)[0, 0]

    d12 = hav(coords[0], coords[1])
    s = variance + noise + GP_JITTER
    k12 = variance * np.exp(-d12 / lengthscale)
    det = s * s - k12 * k12
    c = values.mean()
    r = values - c
    alpha = np.array([s * r[0] - k12 * r[1], -k12 * r[0] + s * r[1]]) / det
    k_star = variance * np.exp(-np.array(
        [hav(target[0], coords[0]), hav(target[0], coords[1])]) / lengthscale)
    assert abs(pred - (c + k_star @ alpha)) < 1e-10


def test_gp_noiseless_exact_at_training_point():
    rng = np.random.default_rng(31)
    coords = random_coords(rng, 4, spread=0.2)
    values = rng.uniform(5, 45, 4)
    est = GaussianProcess(variance=2.0, lengthscale=5.0, noise=0.0)
    est.fit(coords, values[None])
    pred = est.predict(coords)[0]
    np.testing.assert_allclose(pred, values, atol=1e-6)


def test_gp_long_lengthscale_behaves_like_mean_fill():
    # As the kernel flattens (lengthscale >> span) with observation
    # noise present, the posterior mean collapses to the constant mean:
    # k_* -> sigma^2 * 1 and the zero-sum residuals cancel. Noise must
    # be nonzero; a noiseless GP interpolates exactly at any
    # lengthscale instead of averaging.
    coords = np.array([[32.70, -117.10], [32.71, -117.11], [32.705, -117.09]])
    values = np.array([10.0, 20.0, 18.0])
    est = GaussianProcess(variance=1.0, lengthscale=1e6, noise=1.0)
    pred = est.fit(coords, values[None]).predict(np.array([[32.707, -117.10]]))[0, 0]
    assert abs(pred - values.mean()) < 1e-3


def test_gp_constant_values_predict_the_constant():
    coords = np.array([[32.7, -117.1], [32.8, -117.2], [32.75, -117.0],
                       [32.72, -117.15]])
    est = GaussianProcess(variance=1.5, lengthscale=3.0, noise=0.1)
    est.fit(coords, np.full((1, 4), 7.5))
    preds = est.predict(np.array([[32.73, -117.12], [33.0, -117.3]]))
    np.testing.assert_allclose(preds, 7.5, atol=1e-10)


def test_gp_single_point_log_marginal_likelihood_hand_value():
    est = GaussianProcess(variance=2.0, lengthscale=5.0, noise=0.5)
    est.fit([[32.7, -117.1]], [[13.0]])
    s = 2.0 + 0.5 + GP_JITTER
    expected = -0.5 * np.log(s) - 0.5 * np.log(2.0 * np.pi)
    assert est.log_marginal_likelihood().shape == (1,)
    assert abs(est.log_marginal_likelihood()[0] - expected) < 1e-12


def test_gp_rejects_bad_hyperparameters():
    with pytest.raises(ValidationError):
        GaussianProcess(variance=-1.0).fit([[0, 0]], [[1.0]])
    with pytest.raises(ValidationError):
        GaussianProcess(lengthscale=0.0).fit([[0, 0]], [[1.0]])
    with pytest.raises(ValidationError):
        GaussianProcess(noise=-0.1).fit([[0, 0]], [[1.0]])


BAD_HYPERPARAMETERS = [
    # each of these once fit and gave numbers, NaN among them
    (GaussianProcess, {"noise": np.nan}, "noise"),
    (GaussianProcess, {"noise": np.inf}, "noise"),
    (GaussianProcess, {"variance": np.inf}, "variance"),
    (GaussianProcess, {"variance": np.nan}, "variance"),
    (GaussianProcess, {"lengthscale": np.inf}, "lengthscale"),
    (GaussianProcess, {"lengthscale": np.nan}, "lengthscale"),
]


@pytest.mark.parametrize("make, params, name", BAD_HYPERPARAMETERS,
                         ids=[f"{m.__name__}-{k}={v}" for m, p, _ in BAD_HYPERPARAMETERS
                              for k, v in p.items()])
def test_bad_hyperparameters_fail_at_fit(make, params, name):
    rng = np.random.default_rng(32)
    with pytest.raises(ValidationError, match=name):
        make(**params).fit(random_coords(rng, 5), rng.uniform(5, 40, (1, 5)))


EDGE_HYPERPARAMETERS = [
    (GaussianProcess, {"noise": 0.0}),
]


@pytest.mark.parametrize("make, params", EDGE_HYPERPARAMETERS,
                         ids=[f"{m.__name__}-{'-'.join(f'{k}={v}' for k, v in p.items())}"
                              for m, p in EDGE_HYPERPARAMETERS])
def test_edge_hyperparameters_still_fit(make, params):
    rng = np.random.default_rng(33)
    coords = random_coords(rng, 6)
    pred = make(**params).fit(coords[:5], rng.uniform(5, 40, (1, 5))).predict(coords[5:])
    assert np.isfinite(pred).all()


def test_gp_predict_before_fit_raises():
    with pytest.raises(ValidationError):
        GaussianProcess().predict([[0, 0]])


# ---------------------------------------------------------------------------
# GP hyperparameter selection.
# ---------------------------------------------------------------------------

def test_select_gp_hyperparameters_is_the_grid_argmax():
    rng = np.random.default_rng(41)
    coords = random_coords(rng, 6)
    rows = np.vstack([
        20.0 + 5.0 * np.sin(coords[:, 1] * 40.0) + rng.normal(0, 0.5, 6)
        for _ in range(8)
    ])
    rows[2, 3] = np.nan  # one missing reading
    chosen = select_gp_hyperparameters(coords, rows)

    def summed_lml(params):
        total = 0.0
        for t in range(rows.shape[0]):
            mask = np.isfinite(rows[t])
            est = GaussianProcess(**params).fit(coords[mask], rows[t, mask][None])
            total += est.log_marginal_likelihood()[0]
        return total

    best = summed_lml(chosen)
    var = rows[np.isfinite(rows)].var()
    for vf in (0.5, 4.0):
        for ls in (1.0, 20.0):
            for nf in (0.0, 1.0):
                params = {"variance": vf * var, "lengthscale": ls,
                          "noise": nf * var}
                assert summed_lml(params) <= best + 1e-9


def test_select_gp_hyperparameters_deterministic():
    rng = np.random.default_rng(42)
    coords = random_coords(rng, 5)
    rows = rng.uniform(5, 25, (6, 5))
    a = select_gp_hyperparameters(coords, rows)
    b = select_gp_hyperparameters(coords, rows)
    assert a == b


def test_select_gp_hyperparameters_rejects_empty():
    with pytest.raises(ValidationError):
        select_gp_hyperparameters([[32.7, -117.1]], np.full((3, 1), np.nan))


def test_select_gp_hyperparameters_rejects_hours_without_two_readings():
    # two finite readings in the pool but never two in one hour: every
    # grid point scored 0.0, and the first one came back as the winner
    with pytest.raises(ValidationError, match="no usable hours"):
        select_gp_hyperparameters([[32.7, -117.1], [32.71, -117.1]], [[1, np.nan], [np.nan, 3]])


# ---------------------------------------------------------------------------
# Estimator conventions shared by all baselines.
# ---------------------------------------------------------------------------

def test_all_baselines_deterministic_predictions():
    rng = np.random.default_rng(51)
    coords = random_coords(rng, 8)
    values = rng.uniform(0, 35, (1, 8))
    targets = random_coords(rng, 4)
    for make in (MeanFill, Idw,
                 lambda: OrdinaryKriging(),
                 lambda: GaussianProcess(variance=2.0, lengthscale=8.0)):
        a = make().fit(coords, values).predict(targets)
        b = make().fit(coords, values).predict(targets)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("make", [MeanFill, Idw, OrdinaryKriging, GaussianProcess],
                         ids=lambda make: make.__name__)
def test_fit_refuses_one_hour_as_a_1d_array(make):
    # one hour is the one-row case of (hours, sensors): values[None]
    rng = np.random.default_rng(52)
    with pytest.raises(ShapeError, match=r"\(hours, sensors\)"):
        make().fit(random_coords(rng, 5), rng.uniform(5, 40, 5))


# ---------------------------------------------------------------------------
# Refitting one estimator, and fitting many hours at once, match a fresh
# estimator per hour exactly.
# ---------------------------------------------------------------------------

def refit_gp(**params):
    return GaussianProcess(**{"variance": 4.0, "lengthscale": 6.0, "noise": 0.1, **params})


REFIT_BASELINES = (Idw, OrdinaryKriging, refit_gp)


def fresh_bytes(make, coords, values, targets, **params):
    return make(**params).fit(coords, values).predict(targets).tobytes()


@pytest.mark.parametrize("make", REFIT_BASELINES)
def test_refit_on_other_coords_and_back_matches_fresh(make):
    rng = np.random.default_rng(61)
    a, b = random_coords(rng, 7), random_coords(rng, 7)
    targets = random_coords(rng, 3)
    est = make()
    for coords in (a, b, a):
        values = rng.uniform(5, 40, (1, 7))
        for query in (targets, targets[:2], targets):
            got = est.fit(coords, values).predict(query).tobytes()
            assert got == fresh_bytes(make, coords, values, query)


@pytest.mark.parametrize("make", REFIT_BASELINES)
def test_refit_after_mutating_coords_in_place_matches_fresh(make):
    rng = np.random.default_rng(62)
    coords, targets = random_coords(rng, 6), random_coords(rng, 3)
    values = rng.uniform(5, 40, (1, 6))
    est = make()
    est.fit(coords, values).predict(targets)
    targets[0] -= 0.03
    assert est.predict(targets).tobytes() == fresh_bytes(make, coords, values, targets)
    coords[2] += 0.05
    got = est.fit(coords, values).predict(targets).tobytes()
    assert got == fresh_bytes(make, coords, values, targets)


REFIT_PARAMS = [
    (refit_gp, {"variance": 9.0}),
    (refit_gp, {"lengthscale": 1.5}),
    (refit_gp, {"noise": 2.0}),
]


@pytest.mark.parametrize("make, params", REFIT_PARAMS,
                         ids=[f"{m.__name__}-{k}={v}" for m, p in REFIT_PARAMS
                              for k, v in p.items()])
def test_refit_after_set_params_matches_fresh(make, params):
    rng = np.random.default_rng(63)
    coords, targets = random_coords(rng, 8), random_coords(rng, 4)
    values = rng.uniform(5, 40, (1, 8))
    est = make()
    est.fit(coords, values).predict(targets)
    for name, value in params.items():
        setattr(est, name, value)
    got = est.fit(coords, values).predict(targets).tobytes()
    assert got == fresh_bytes(make, coords, values, targets, **params)


def per_hour_grid_scores(coords, rows, variance_factors, lengthscales, noise_factors):
    """The grid search's per-hour loop before refits shared a factorization."""
    coords = np.asarray(coords, dtype=float)
    pooled = rows[np.isfinite(rows)]
    var = float(pooled.var())
    if var <= 0.0:
        var = 1.0
    dist = pairwise_distances_km(coords[:, 0], coords[:, 1])
    masks = np.isfinite(rows)
    scores = []
    for vf in variance_factors:
        for ls in lengthscales:
            kernel = vf * var * np.exp(-dist / ls)
            for nf in noise_factors:
                noise = nf * var
                score = 0.0
                for t in range(rows.shape[0]):
                    mask = masks[t]
                    n = int(mask.sum())
                    if n < 2:
                        continue
                    v = rows[t, mask]
                    cov = kernel[np.ix_(mask, mask)] + \
                        (noise + GP_JITTER) * np.eye(n)
                    try:
                        chol = np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        score = -np.inf
                        break
                    resid = v - v.mean()
                    alpha = np.linalg.solve(cov, resid)
                    score += (-0.5 * resid @ alpha
                              - np.log(np.diag(chol)).sum()
                              - 0.5 * n * np.log(2.0 * np.pi))
                scores.append(({"variance": vf * var, "lengthscale": ls,
                                "noise": noise}, score))
    return scores


@pytest.mark.parametrize("grid", [
    (GP_VARIANCE_FACTORS, GP_LENGTHSCALES_KM, GP_NOISE_FACTORS),
    # noise -10 x variance makes every covariance indefinite
    ((0.5, 2.0), (1.0, 5.0), (0.0, -10.0, 0.1)),
])
def test_gp_grid_scores_match_the_per_hour_loop_bit_for_bit(grid, monkeypatch):
    rng = np.random.default_rng(64)
    coords = random_coords(rng, 6)
    rows = rng.uniform(5, 40, (14, 6))
    # the mask changes and changes back; hour 10 has one reading (skipped)
    rows[[3, 4, 9], 2] = np.nan
    rows[[6, 7, 9], 4] = np.nan
    rows[10, 1:] = np.nan
    # the scores and the search read the module grid, so the small one stands in for it
    for name, axis in zip(("GP_VARIANCE_FACTORS", "GP_LENGTHSCALES_KM", "GP_NOISE_FACTORS"),
                          grid):
        monkeypatch.setattr(baselines, name, axis)
    got = _gp_grid_scores(coords, rows)
    want = per_hour_grid_scores(coords, rows, *grid)
    assert [p for p, _ in got] == [p for p, _ in want]
    assert np.array([s for _, s in got]).tobytes() == \
        np.array([s for _, s in want]).tobytes()
    if -10.0 in grid[2]:
        assert sum(s == -np.inf for _, s in got) == 4
    best = max(want, key=lambda ps: ps[1])[0]  # first maximum in grid order
    assert select_gp_hyperparameters(coords, rows) == best


def test_gp_grid_scores_match_the_per_hour_loop_at_realistic_size():
    # 20 sensors in Fortran order, as subset_dataset_values gathers them: a
    # row sum over that layout runs down the columns, which differs from a
    # 1-d sum from 8 entries up
    rng = np.random.default_rng(65)
    coords = random_coords(rng, 20)
    rows = np.asfortranarray(rng.uniform(5, 40, (16, 20)))
    # the mask changes and changes back
    rows[[3, 4, 5, 11], 2] = np.nan
    rows[[8, 9, 11], 13] = np.nan
    got = _gp_grid_scores(coords, rows)
    want = per_hour_grid_scores(coords, rows, GP_VARIANCE_FACTORS, GP_LENGTHSCALES_KM,
                                GP_NOISE_FACTORS)
    assert np.array([s for _, s in got]).tobytes() == \
        np.array([s for _, s in want]).tobytes()
