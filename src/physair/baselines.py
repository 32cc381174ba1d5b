"""Classical spatial interpolators used as reference models.

Four deterministic baselines, all operating on a single hour of context
sensor readings: a global mean fill, inverse distance weighting,
ordinary kriging with a linear variogram, and a Gaussian process with
an exponential kernel (the Matern family at nu = 1/2) and a constant
mean. Distances are great-circle kilometres throughout, matching the
rest of the toolkit.

Each interpolator is an estimator: construct with hyperparameters,
``fit(coords, values)`` on the hour's context sensors, then
``predict(targets)`` at query coordinates. Fitting is cheap (these are
closed-form solves), so per-hour refitting is the intended usage. The
one exception is GP hyperparameter selection, which is a grid search
over the whole training period done once via
:func:`select_gp_hyperparameters`.

Refitting one estimator is cheaper still: a fit or predict reuses the
previous call's coordinate-only work (distances, IDW weights, variogram
bins, the GP covariance and its Cholesky factor, cross kernels) while
the coordinates and the hyperparameters that work depends on are
unchanged. The reuse is exact: every step that reads the values runs as
on a fresh estimator, so predictions are bit-identical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimators import BaseEstimator, check_coords, check_values
from .geo import EPS_DIST_KM, cross_distances_km, pairwise_distances_km

logger = logging.getLogger(__name__)

GP_JITTER = 1e-8

# Hyperparameter grid for the GP, relative to the variance of the
# training values (lengthscales are absolute, in km).
GP_VARIANCE_FACTORS = (0.5, 1.0, 2.0, 4.0)
GP_LENGTHSCALES_KM = (1.0, 2.0, 5.0, 10.0, 20.0)
GP_NOISE_FACTORS = (0.0, 0.01, 0.1, 1.0)


class MeanFill(BaseEstimator):
    """Predict the arithmetic mean of all context values everywhere."""

    def __init__(self):
        self.mean_ = None

    def fit(self, coords, values) -> "MeanFill":
        coords = check_coords(coords)
        values = check_values(values, n=coords.shape[0])
        self.mean_ = float(values.mean())
        return self

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("mean_")
        coords = check_coords(coords)
        return np.full(coords.shape[0], self.mean_)


class Idw(BaseEstimator):
    """Inverse distance weighting.

    Weights are normalized inverse great-circle distances raised to
    ``power`` (default 1). A target closer than ``eps_dist`` km to some
    context sensor returns that sensor's value exactly, nearest first.
    """

    def __init__(self, power: float = 1.0, eps_dist: float = EPS_DIST_KM):
        self.power = power
        self.eps_dist = eps_dist
        self.coords_ = None
        self.values_ = None

    def fit(self, coords, values) -> "Idw":
        if not self.power > 0:
            raise ValidationError(f"power must be positive, got {self.power}")
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        return self

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("coords_", "values_")
        targets = check_coords(coords, name="targets")
        inv, row_sums, at_sensor, nearest = self._reuse(
            "weights", (targets, self.coords_, self.power, self.eps_dist),
            lambda: self._weights(targets))
        pred = (inv @ self.values_) / row_sums
        if at_sensor.any():
            pred[at_sensor] = self.values_[nearest]
        return pred

    def _weights(self, targets: np.ndarray) -> tuple:
        """Inverse weights, their row sums, and each exact row's nearest sensor."""
        dist = cross_distances_km(targets[:, 0], targets[:, 1],
                                  self.coords_[:, 0], self.coords_[:, 1])
        # Guard the power against the zero-distance rows that the
        # exactness rule will overwrite anyway.
        safe = np.maximum(dist, self.eps_dist)
        inv = safe ** (-self.power)
        at_sensor = dist.min(axis=1) <= self.eps_dist
        return inv, inv.sum(axis=1), at_sensor, dist[at_sensor].argmin(axis=1)


@dataclass(frozen=True)
class KrigingSystem:
    """One solved ordinary kriging system.

    ``matrix`` is the (n+1, n+1) augmented semivariance matrix with the
    Lagrange row; ``weights`` holds one weight row per target and each
    row sums to 1; ``multipliers`` are the per-target Lagrange values.
    """

    slope: float
    nugget: float
    matrix: np.ndarray
    weights: np.ndarray
    multipliers: np.ndarray


def fit_linear_variogram(dist: np.ndarray, values: np.ndarray,
                         n_bins: int = 10) -> tuple[float, float]:
    """Least-squares linear variogram gamma(h) = nugget + slope * h.

    Empirical semivariances 0.5 * (v_i - v_j)^2 for every pair are
    grouped into ``n_bins`` equal-width distance bins; a line is fit
    through the (bin centre, mean semivariance) points. Slope and
    nugget are both clamped to be non-negative.
    """
    return _fit_binned_variogram(_variogram_bins(dist, n_bins), values)


def _variogram_bins(dist: np.ndarray, n_bins: int) -> tuple:
    """The half of :func:`fit_linear_variogram` that reads only distances.

    Returns the pair indices ``(iu, ju)`` in ``triu_indices`` order, the
    non-empty bins' centres and each one's member mask over the pairs.
    Centres and masks are None when no pair has a positive distance.
    """
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    h = dist[iu, ju]
    h_max = h.max(initial=0.0)
    if h.size == 0 or h_max <= 0.0:
        return iu, ju, None, None
    width = h_max / n_bins
    idx = np.minimum((h / width).astype(int), n_bins - 1)
    centers = []
    members = []
    for b in range(n_bins):
        sel = idx == b
        if sel.any():
            centers.append((b + 0.5) * width)
            members.append(sel)
    return iu, ju, np.asarray(centers), members


def _fit_binned_variogram(bins: tuple, values: np.ndarray) -> tuple[float, float]:
    """The half of :func:`fit_linear_variogram` that reads the values."""
    iu, ju, centers, members = bins
    gamma = 0.5 * (values[iu] - values[ju]) ** 2
    if centers is None:
        return 0.0, float(gamma.mean()) if gamma.size else 0.0
    means = [gamma[sel].mean() for sel in members]
    if len(centers) < 2:
        return 0.0, max(0.0, float(means[0])) if means else 0.0
    slope, nugget = np.polyfit(centers, np.asarray(means), 1)
    return max(0.0, float(slope)), max(0.0, float(nugget))


class OrdinaryKriging(BaseEstimator):
    """Ordinary kriging with a linear variogram.

    The variogram is fit from the context data at ``fit`` time unless
    ``slope``/``nugget`` are given explicitly. Prediction solves the
    augmented system with the unbiasedness constraint (weights sum to
    one); a singular system falls back to inverse distance weighting
    with a logged warning.
    """

    def __init__(self, slope: float | None = None,
                 nugget: float | None = None, n_bins: int = 10):
        self.slope = slope
        self.nugget = nugget
        self.n_bins = n_bins
        self.coords_ = None
        self.values_ = None
        self.slope_ = None
        self.nugget_ = None
        self.matrix_ = None

    def _gamma(self, h: np.ndarray) -> np.ndarray:
        # gamma(0) is 0 by definition; the nugget applies only to h > 0.
        return np.where(h > 0.0, self.nugget_ + self.slope_ * h, 0.0)

    def fit(self, coords, values) -> "OrdinaryKriging":
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        n = self.coords_.shape[0]
        if n < 2:
            raise ValidationError(f"kriging needs at least 2 sensors, got {n}")
        dist = self._reuse("dist", (self.coords_,), lambda: pairwise_distances_km(
            self.coords_[:, 0], self.coords_[:, 1]))
        if self.slope is not None or self.nugget is not None:
            self.slope_ = float(self.slope if self.slope is not None else 0.0)
            self.nugget_ = float(self.nugget if self.nugget is not None else 0.0)
            if self.slope_ < 0 or self.nugget_ < 0:
                raise ValidationError("variogram slope and nugget must be >= 0")
        else:
            bins = self._reuse("bins", (self.coords_, self.n_bins),
                               lambda: _variogram_bins(dist, self.n_bins))
            self.slope_, self.nugget_ = _fit_binned_variogram(bins, self.values_)
        matrix = np.ones((n + 1, n + 1))
        matrix[:n, :n] = self._gamma(dist)
        matrix[n, n] = 0.0
        self.matrix_ = matrix
        return self

    def solve(self, coords) -> KrigingSystem:
        """Solve for kriging weights at the given targets."""
        self._check_fitted("matrix_")
        targets = check_coords(coords, name="targets")
        n = self.coords_.shape[0]
        cross = self._reuse("cross", (self.coords_, targets), lambda: cross_distances_km(
            self.coords_[:, 0], self.coords_[:, 1], targets[:, 0], targets[:, 1]))
        rhs = np.ones((n + 1, targets.shape[0]))
        rhs[:n] = self._gamma(cross)
        solution = np.linalg.solve(self.matrix_, rhs)
        if not np.isfinite(solution).all():
            raise np.linalg.LinAlgError("kriging solve produced non-finite weights")
        return KrigingSystem(slope=self.slope_, nugget=self.nugget_,
                             matrix=self.matrix_, weights=solution[:n].T,
                             multipliers=solution[n])

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("matrix_")
        try:
            system = self.solve(coords)
        except np.linalg.LinAlgError:
            logger.warning(
                "singular kriging system (n=%d, slope=%g, nugget=%g); "
                "falling back to inverse distance weighting",
                self.coords_.shape[0], self.slope_, self.nugget_)
            fallback = Idw().fit(self.coords_, self.values_)
            return fallback.predict(coords)
        return system.weights @ self.values_


class GaussianProcess(BaseEstimator):
    """GP posterior mean with an exponential kernel and constant mean.

    k(r) = variance * exp(-r / lengthscale) over great-circle distance,
    observation noise ``noise`` on the diagonal, and the constant mean
    taken as the arithmetic mean of the fitted values. ``fit`` performs
    the Cholesky factorization; a factorization failure after jitter
    means the covariance is numerically indefinite and is raised as-is.
    """

    def __init__(self, variance: float = 1.0, lengthscale: float = 5.0,
                 noise: float = 0.0, jitter: float = GP_JITTER):
        self.variance = variance
        self.lengthscale = lengthscale
        self.noise = noise
        self.jitter = jitter
        self.coords_ = None
        self.values_ = None
        self.mean_ = None
        self.alpha_ = None
        self.log_det_ = None

    def _kernel(self, dist: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-dist / self.lengthscale)

    def fit(self, coords, values) -> "GaussianProcess":
        if not self.variance > 0:
            raise ValidationError(f"variance must be positive, got {self.variance}")
        if not self.lengthscale > 0:
            raise ValidationError(
                f"lengthscale must be positive, got {self.lengthscale}")
        if self.noise < 0:
            raise ValidationError(f"noise must be >= 0, got {self.noise}")
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        cov, self.log_det_ = self._reuse(
            "cov", (self.coords_, self.variance, self.lengthscale, self.noise, self.jitter),
            self._covariance)
        self.mean_ = float(self.values_.mean())
        resid = self.values_ - self.mean_
        self.alpha_ = np.linalg.solve(cov, resid)
        return self

    def _covariance(self) -> tuple:
        """The fitted coordinates' covariance and its Cholesky log-determinant."""
        dist = pairwise_distances_km(self.coords_[:, 0], self.coords_[:, 1])
        cov = self._kernel(dist) + (self.noise + self.jitter) * np.eye(dist.shape[0])
        chol = np.linalg.cholesky(cov)
        return cov, float(2.0 * np.log(np.diag(chol)).sum())

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("alpha_")
        targets = check_coords(coords, name="targets")
        kernel = self._reuse(
            "cross", (targets, self.coords_, self.variance, self.lengthscale),
            lambda: self._kernel(cross_distances_km(
                targets[:, 0], targets[:, 1], self.coords_[:, 0], self.coords_[:, 1])))
        return self.mean_ + kernel @ self.alpha_

    def log_marginal_likelihood(self) -> float:
        """Log marginal likelihood of the fitted values under the prior."""
        self._check_fitted("alpha_")
        n = self.values_.shape[0]
        resid = self.values_ - self.mean_
        return float(-0.5 * resid @ self.alpha_ - 0.5 * self.log_det_
                     - 0.5 * n * np.log(2.0 * np.pi))


def select_gp_hyperparameters(coords, value_rows,
                              variance_factors=GP_VARIANCE_FACTORS,
                              lengthscales=GP_LENGTHSCALES_KM,
                              noise_factors=GP_NOISE_FACTORS) -> dict:
    """Grid-search GP hyperparameters on a stack of training hours.

    ``value_rows`` is a (t, n) array of sensor readings, one row per
    hour, NaN where a sensor has no reading that hour. Variance and
    noise candidates are the grid factors times the pooled variance of
    the finite values; lengthscales are absolute km. The combination
    maximizing the summed per-hour log marginal likelihood wins, first
    in grid order on ties. Returns kwargs for :class:`GaussianProcess`.
    """
    best = None
    best_score = -np.inf
    for params, score in _gp_grid_scores(coords, value_rows, variance_factors,
                                         lengthscales, noise_factors):
        if score > best_score:
            best_score = score
            best = params
    if best is None:
        raise ValidationError("no usable hours in value_rows")
    return best


def _gp_grid_scores(coords, value_rows, variance_factors, lengthscales,
                    noise_factors) -> list:
    """Each grid point's GP kwargs and summed score, in grid order.

    A grid point whose covariance fails to factor on some hour scores
    ``-inf``. Consecutive usable hours with one finite mask share each
    grid point's masked covariance and Cholesky factor; every hour still
    runs its own solve and adds its term to the score in hour order.
    """
    coords = check_coords(coords)
    rows = np.asarray(value_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != coords.shape[0]:
        raise ValidationError(
            f"value_rows must be (t, {coords.shape[0]}), got {rows.shape}")
    pooled = rows[np.isfinite(rows)]
    if pooled.size < 2:
        raise ValidationError("need at least two finite readings to fit")
    var = float(pooled.var())
    if var <= 0.0:
        var = 1.0  # constant data; any scale works, keep the grid sane
    dist = pairwise_distances_km(coords[:, 0], coords[:, 1])
    runs = []  # (finite mask, the residuals of its consecutive hours)
    for mask, row in zip(np.isfinite(rows), rows):
        if mask.sum() < 2:
            continue
        v = row[mask]
        if not (runs and runs[-1][0].tobytes() == mask.tobytes()):
            runs.append((mask, []))
        runs[-1][1].append(v - v.mean())
    if not runs:
        raise ValidationError("no usable hours in value_rows: none holds two finite readings")

    scores = []
    for vf in variance_factors:
        for ls in lengthscales:
            kernel = vf * var * np.exp(-dist / ls)
            for nf in noise_factors:
                noise = nf * var
                score = 0.0
                for mask, resids in runs:
                    n = resids[0].shape[0]
                    cov = kernel[np.ix_(mask, mask)] + \
                        (noise + GP_JITTER) * np.eye(n)
                    try:
                        chol = np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        score = -np.inf
                        break
                    half_log_det = np.log(np.diag(chol)).sum()
                    for resid in resids:
                        alpha = np.linalg.solve(cov, resid)
                        score += (-0.5 * resid @ alpha
                                  - half_log_det
                                  - 0.5 * n * np.log(2.0 * np.pi))
                scores.append(({"variance": vf * var, "lengthscale": ls,
                                "noise": noise}, score))
    return scores
