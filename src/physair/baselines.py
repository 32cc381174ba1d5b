"""Classical spatial interpolators used as reference models.

Four deterministic baselines: a global mean fill, inverse distance
weighting, ordinary kriging with a linear variogram, and a Gaussian
process with an exponential kernel (the Matern family at nu = 1/2) and
a constant mean. Distances are great-circle kilometres throughout,
matching the rest of the toolkit.

Each interpolator is an estimator: construct it (the GP with its
hyperparameters), ``fit(coords, values)`` on context sensors, then
``predict(targets)`` at query coordinates. ``values`` is an (hours,
sensors) matrix for a run of hours in which the same sensors report,
one hour being its one-row case; ``predict`` returns (hours, targets).
The settable hyperparameters are the GP's ``variance``,
``lengthscale`` and ``noise``; IDW's power is IDW_POWER and kriging
fits its variogram per hour. Fitting is cheap (these are closed-form solves), so an evaluation
fits once per such mask run, in pieces of at most 64 hours. The one
exception is GP hyperparameter selection, a search of the fixed grid
GP_VARIANCE_FACTORS x GP_LENGTHSCALES_KM x GP_NOISE_FACTORS over the
training period, done once via :func:`select_gp_hyperparameters`.

A fit builds its coordinate-only work (distances, IDW weights,
variogram bins, the GP covariance and its Cholesky factor, cross
kernels) once for all its hours. The steps that read the values run
over the hour axis and give each hour the bits a one-hour fit gives it:
values are taken C-ordered, so a row's reductions sum as a 1-d array's
do; linear systems go through stacked ``np.linalg.solve``, one solve per
hour; products go through ``np.matmul``, one BLAS call per hour. The
variogram's line fit is ``np.polyfit``'s own arithmetic with its
per-call work done once per fit: the scaled Vandermonde matrix and
``rcond`` are shared, and each hour gets its own ``np.linalg.lstsq``.
One ``lstsq`` with the hours as right-hand-side columns would not keep
``np.polyfit``'s bits.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import ValidationError
from .estimators import BaseEstimator, check_coords, check_param, check_values
from .geo import EPS_DIST_KM, cross_distances_km, pairwise_distances_km

logger = logging.getLogger(__name__)

IDW_POWER = 1.0  # inverse distance weights are distance ** -IDW_POWER
GP_JITTER = 1e-8  # added to the GP covariance diagonal, on top of the noise
VARIOGRAM_BINS = 10  # equal-width distance bins of the kriging variogram fit

# Hyperparameter grid for the GP, relative to the variance of the
# training values (lengthscales are absolute, in km).
GP_VARIANCE_FACTORS = (0.5, 1.0, 2.0, 4.0)
GP_LENGTHSCALES_KM = (1.0, 2.0, 5.0, 10.0, 20.0)
GP_NOISE_FACTORS = (0.0, 0.01, 0.1, 1.0)


def finite_mask_runs(finite: np.ndarray) -> list:
    """Slices of consecutive rows with one mask, in row order, over a
    (rows, sensors) boolean array."""
    if not len(finite):
        return []
    cuts = (np.flatnonzero((finite[1:] != finite[:-1]).any(axis=1)) + 1).tolist()
    return [slice(a, b) for a, b in zip([0] + cuts, cuts + [len(finite)])]


class MeanFill(BaseEstimator):
    """Predict the arithmetic mean of all context values everywhere."""

    def __init__(self):
        self.values_ = None
        self.mean_ = None

    def fit(self, coords, values) -> "MeanFill":
        coords = check_coords(coords)
        self.values_ = check_values(values, n=coords.shape[0])
        self.mean_ = self.values_.mean(axis=1)
        return self

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("mean_")
        coords = check_coords(coords)
        return np.repeat(self.mean_[:, None], coords.shape[0], axis=1)


class Idw(BaseEstimator):
    """Inverse distance weighting.

    Weights are normalized inverse great-circle distances raised to
    IDW_POWER. A target within EPS_DIST_KM of some context sensor
    returns that sensor's value exactly, nearest first.
    """

    def __init__(self):
        self.coords_ = None
        self.values_ = None

    def fit(self, coords, values) -> "Idw":
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        return self

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("coords_", "values_")
        targets = check_coords(coords, name="targets")
        dist = cross_distances_km(targets[:, 0], targets[:, 1],
                                  self.coords_[:, 0], self.coords_[:, 1])
        # Guard the power against the zero-distance rows that the
        # exactness rule will overwrite anyway.
        inv = np.maximum(dist, EPS_DIST_KM) ** (-IDW_POWER)
        pred = np.matmul(inv, self.values_[:, :, None])[..., 0] / inv.sum(axis=1)
        at_sensor = dist.min(axis=1) <= EPS_DIST_KM
        if at_sensor.any():
            pred[:, at_sensor] = self.values_[:, dist[at_sensor].argmin(axis=1)]
        return pred


def _variogram_bins(dist: np.ndarray) -> tuple:
    """The half of the variogram fit that reads only distances.

    Returns the pair indices ``(iu, ju)`` in ``triu_indices`` order, the
    non-empty bins' centres and each one's member indices into the pairs.
    Centres and members are None when no pair has a positive distance.
    """
    iu, ju = np.triu_indices(dist.shape[0], k=1)
    h = dist[iu, ju]
    h_max = h.max(initial=0.0)
    if h.size == 0 or h_max <= 0.0:
        return iu, ju, None, None
    width = h_max / VARIOGRAM_BINS
    idx = np.minimum((h / width).astype(int), VARIOGRAM_BINS - 1)
    centers = []
    members = []
    for b in range(VARIOGRAM_BINS):
        sel = np.flatnonzero(idx == b)
        if sel.size:
            centers.append((b + 0.5) * width)
            members.append(sel)
    return iu, ju, np.asarray(centers), members


def _fit_binned_variogram(bins: tuple, values: np.ndarray) -> tuple:
    """Each hour's least-squares linear variogram gamma(h) = nugget +
    slope * h, from its (hours, n) C-ordered rows, as two (hours,) arrays.

    Empirical semivariances 0.5 * (v_i - v_j)^2 for every pair are
    grouped into the distance bins of :func:`_variogram_bins`; a line is
    fit through the (bin centre, mean semivariance) points. Slope and
    nugget are both clamped to be non-negative.

    Each hour's line is ``np.polyfit(centers, row, 1)`` bit for bit: the
    Vandermonde matrix, its column scale and ``rcond`` are built once, as
    polyfit builds them, and each hour is solved by its own
    ``np.linalg.lstsq`` and unscaled. Solving all hours at once, as
    right-hand-side columns of one ``lstsq``, moves the last bits.
    """
    iu, ju, centers, members = bins
    hours = values.shape[0]
    # take, not a fancy index, keeps the pair and bin gathers C-ordered
    gamma = 0.5 * (values.take(iu, axis=1) - values.take(ju, axis=1)) ** 2
    if centers is None:
        return np.zeros(hours), gamma.mean(axis=1) if gamma.size else np.zeros(hours)
    # each bin's mean as np.mean computes it (sum, then divide by the
    # count), over each hour's C-ordered row
    means = np.column_stack([np.add.reduce(gamma.take(sel, axis=1), axis=1) / sel.size
                             for sel in members])
    if len(centers) < 2:
        return np.zeros(hours), _clamp(means[:, 0])
    lhs = np.vander(centers, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    rcond = len(centers) * np.finfo(float).eps
    fits = np.array([np.linalg.lstsq(lhs, row, rcond)[0] for row in means]) / scale
    return _clamp(fits[:, 0]), _clamp(fits[:, 1])


def _clamp(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise, as Python's max takes it: -0.0 and NaN give 0.0."""
    return np.where(x > 0.0, x, 0.0)


class OrdinaryKriging(BaseEstimator):
    """Ordinary kriging with a linear variogram.

    The variogram is fit per hour from the context data at ``fit`` time;
    ``slope_`` and ``nugget_`` hold one entry per fitted hour. Prediction
    solves each hour's augmented system with the unbiasedness constraint
    (weights sum to one); an hour whose system is singular falls back to
    inverse distance weighting with a logged warning. Two coinciding
    sensors (equal rows for any variogram) or a zero slope and nugget
    make it exactly singular, and it is refused before LU, which may
    meet no zero pivot.
    """

    def __init__(self):
        self.coords_ = None
        self.values_ = None
        self.slope_ = None
        self.nugget_ = None
        self.matrix_ = None
        self.singular_ = None

    def _gamma(self, h: np.ndarray) -> np.ndarray:
        """Each hour's semivariance at distances ``h``: (hours, *h.shape)."""
        # gamma(0) is 0 by definition; the nugget applies only to h > 0.
        at = (slice(None),) + (None,) * h.ndim
        return np.where(h > 0.0, self.nugget_[at] + self.slope_[at] * h, 0.0)

    def fit(self, coords, values) -> "OrdinaryKriging":
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        n = self.coords_.shape[0]
        if n < 2:
            raise ValidationError(f"kriging needs at least 2 sensors, got {n}")
        dist = pairwise_distances_km(self.coords_[:, 0], self.coords_[:, 1])
        self.slope_, self.nugget_ = _fit_binned_variogram(_variogram_bins(dist), self.values_)
        matrix = np.ones((len(self.values_), n + 1, n + 1))
        matrix[:, :n, :n] = self._gamma(dist)
        matrix[:, n, n] = 0.0
        self.matrix_ = matrix
        # two coinciding points leave a zero off the diagonal
        coincide = np.count_nonzero(dist == 0) > n
        self.singular_ = coincide | ((self.slope_ == 0.0) & (self.nugget_ == 0.0))
        return self

    def _solutions(self, targets: np.ndarray) -> tuple:
        """Each hour's (n+1, targets) solution, NaN where its system is
        singular, and which hours are."""
        n = self.coords_.shape[0]
        cross = cross_distances_km(self.coords_[:, 0], self.coords_[:, 1],
                                   targets[:, 0], targets[:, 1])
        solution = np.full((len(self.matrix_), n + 1, targets.shape[0]), np.nan)
        ok = ~self.singular_
        if ok.any():
            rhs = np.ones((np.count_nonzero(ok), n + 1, targets.shape[0]))
            rhs[:, :n] = self._gamma(cross)[ok]
            try:
                solution[ok] = np.linalg.solve(self.matrix_[ok], rhs)
            except np.linalg.LinAlgError:
                # some hour's LU met a zero pivot: solve hour by hour to find it
                for h, b in zip(np.flatnonzero(ok), rhs):
                    try:
                        solution[h] = np.linalg.solve(self.matrix_[h], b)
                    except np.linalg.LinAlgError:
                        pass
        return solution, ~np.isfinite(solution).all(axis=(1, 2))

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("matrix_")
        targets = check_coords(coords, name="targets")
        solution, singular = self._solutions(targets)
        n = self.coords_.shape[0]
        values = self.values_
        pred = np.matmul(solution[:, :n].transpose(0, 2, 1), values[:, :, None])[..., 0]
        if singular.any():
            for h in np.flatnonzero(singular):
                logger.warning(
                    "singular kriging system (n=%d, slope=%g, nugget=%g); "
                    "falling back to inverse distance weighting",
                    n, self.slope_[h], self.nugget_[h])
            pred[singular] = Idw().fit(self.coords_, values[singular]).predict(targets)
        return pred


def _quad(resid: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Each row's -0.5 * resid @ alpha, one dot product per row."""
    return np.matmul((-0.5 * resid)[:, None, :], alpha[:, :, None])[:, 0, 0]


class GaussianProcess(BaseEstimator):
    """GP posterior mean with an exponential kernel and constant mean.

    k(r) = variance * exp(-r / lengthscale) over great-circle distance,
    observation noise ``noise`` on the diagonal, and the constant mean
    taken per hour as the arithmetic mean of that hour's fitted values.
    ``fit`` performs the Cholesky factorization; a factorization failure
    after GP_JITTER means the covariance is numerically indefinite and is
    raised as-is.
    """

    def __init__(self, variance: float = 1.0, lengthscale: float = 5.0,
                 noise: float = 0.0):
        self.variance = variance
        self.lengthscale = lengthscale
        self.noise = noise
        self.coords_ = None
        self.values_ = None
        self.mean_ = None
        self.alpha_ = None
        self.log_det_ = None

    def _kernel(self, dist: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-dist / self.lengthscale)

    def fit(self, coords, values) -> "GaussianProcess":
        check_param(self.variance, "variance", positive=True)
        check_param(self.lengthscale, "lengthscale", positive=True)
        check_param(self.noise, "noise")
        self.coords_ = check_coords(coords)
        self.values_ = check_values(values, n=self.coords_.shape[0])
        dist = pairwise_distances_km(self.coords_[:, 0], self.coords_[:, 1])
        cov = self._kernel(dist) + (self.noise + GP_JITTER) * np.eye(dist.shape[0])
        self.log_det_ = float(2.0 * np.log(np.diag(np.linalg.cholesky(cov))).sum())
        self.mean_ = self.values_.mean(axis=1)
        self.alpha_ = np.linalg.solve(
            cov, (self.values_ - self.mean_[:, None])[:, :, None])[..., 0]
        return self

    def predict(self, coords) -> np.ndarray:
        self._check_fitted("alpha_")
        targets = check_coords(coords, name="targets")
        kernel = self._kernel(cross_distances_km(
            targets[:, 0], targets[:, 1], self.coords_[:, 0], self.coords_[:, 1]))
        return self.mean_[:, None] + np.matmul(kernel, self.alpha_[:, :, None])[..., 0]

    def log_marginal_likelihood(self) -> np.ndarray:
        """Each fitted hour's log marginal likelihood under the prior."""
        self._check_fitted("alpha_")
        n = self.values_.shape[1]
        quad = _quad(self.values_ - self.mean_[:, None], self.alpha_)
        return quad - 0.5 * self.log_det_ - 0.5 * n * np.log(2.0 * np.pi)


def select_gp_hyperparameters(coords, value_rows) -> dict:
    """Grid-search GP hyperparameters on a stack of training hours.

    ``value_rows`` is a (t, n) array of sensor readings, one row per
    hour, NaN where a sensor has no reading that hour. Variance and
    noise candidates are GP_VARIANCE_FACTORS and GP_NOISE_FACTORS times
    the pooled variance of the finite values; lengthscales are
    GP_LENGTHSCALES_KM. The combination maximizing the summed per-hour
    log marginal likelihood wins, first in grid order on ties. Returns
    kwargs for :class:`GaussianProcess`.
    """
    best = None
    best_score = -np.inf
    for params, score in _gp_grid_scores(coords, value_rows):
        if score > best_score:
            best_score = score
            best = params
    if best is None:
        raise ValidationError("no usable hours in value_rows")
    return best


def _gp_grid_scores(coords, value_rows) -> list:
    """Each grid point's GP kwargs and summed score, in grid order, over
    GP_VARIANCE_FACTORS x GP_LENGTHSCALES_KM x GP_NOISE_FACTORS.

    A grid point whose covariance fails to factor on some hour scores
    ``-inf``. Consecutive usable hours with one finite mask share each
    grid point's masked covariance and Cholesky factor and solve for all
    their hours in one stacked call; every hour still adds its own term
    to the score, in hour order.
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
    finite = np.isfinite(rows)
    usable = finite.sum(axis=1) >= 2
    rows, finite = rows[usable], finite[usable]
    runs = []  # (finite mask, the residuals of its consecutive hours, C-ordered)
    for run in finite_mask_runs(finite):
        mask = finite[run.start]
        v = np.ascontiguousarray(rows[run][:, mask])
        runs.append((mask, v - v.mean(axis=1, keepdims=True)))
    if not runs:
        raise ValidationError("no usable hours in value_rows: none holds two finite readings")

    scores = []
    for vf in GP_VARIANCE_FACTORS:
        for ls in GP_LENGTHSCALES_KM:
            kernel = vf * var * np.exp(-dist / ls)
            for nf in GP_NOISE_FACTORS:
                noise = nf * var
                score = 0.0
                for mask, resid in runs:
                    n = resid.shape[1]
                    cov = kernel[np.ix_(mask, mask)] + \
                        (noise + GP_JITTER) * np.eye(n)
                    try:
                        chol = np.linalg.cholesky(cov)
                    except np.linalg.LinAlgError:
                        score = -np.inf
                        break
                    half_log_det = np.log(np.diag(chol)).sum()
                    alpha = np.linalg.solve(cov, resid[:, :, None])[..., 0]
                    terms = (_quad(resid, alpha) - half_log_det
                             - 0.5 * n * np.log(2.0 * np.pi))
                    for term in terms.tolist():
                        score += term
                scores.append(({"variance": vf * var, "lengthscale": ls,
                                "noise": noise}, score))
    return scores
