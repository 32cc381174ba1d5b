"""Estimator base class and array validation helpers.

The interpolators in this package follow the familiar fit/predict
convention: hyperparameters, where an estimator has any (only the
Gaussian process does), are constructor arguments, ``fit`` learns state
from data and stores it on attributes ending in an underscore,
``predict`` maps new coordinates to values. ``fit`` takes an (hours,
sensors) matrix of hours that share the sensors, one hour being its
one-row case; ``predict`` returns one row per hour. ``fit`` checks the
hyperparameters, so one set after construction is checked as well. No
sklearn dependency; the convention is small enough to carry locally.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, ValidationError


class BaseEstimator:
    """Minimal fit/predict estimator contract."""

    def _check_fitted(self, *attrs: str) -> None:
        for attr in attrs:
            if getattr(self, attr, None) is None:
                raise ValidationError(
                    f"{type(self).__name__} is not fitted; call fit() first")


def check_coords(coords, name: str = "coords") -> np.ndarray:
    """Validate an (n, 2) array of latitude/longitude degrees."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError(f"{name} must have shape (n, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    if np.abs(arr[:, 0]).max(initial=0.0) > 90.0:
        raise ValidationError(f"{name} latitude out of [-90, 90]")
    if np.abs(arr[:, 1]).max(initial=0.0) > 180.0:
        raise ValidationError(f"{name} longitude out of [-180, 180]")
    return arr


def check_param(value, name: str, positive: bool = False) -> float:
    """Validate a finite hyperparameter, >= 0 or, when ``positive``, > 0."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        raise ValidationError(
            f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value!r}")
    return v


def check_values(values, n: int, name: str = "values") -> np.ndarray:
    """Validate an (hours, n) matrix of finite observations.

    The result is C-ordered, so each hour's row sums in the order a 1-d
    array of its values does.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be (hours, sensors), got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} is empty; need at least one observation")
    if arr.shape[1] != n:
        raise ShapeError(f"{name} has {arr.shape[1]} entries per hour, expected {n}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
