"""Estimator base class and array validation helpers.

The interpolators in this package follow the familiar fit/predict
convention: hyperparameters are constructor arguments, ``fit`` learns
state from data and stores it on attributes ending in an underscore,
``predict`` maps new coordinates to values. ``get_params`` and
``set_params`` round-trip the constructor arguments so estimators can
be cloned and configured generically. No sklearn dependency; the
convention is small enough to carry locally.
"""

from __future__ import annotations

import inspect
from typing import Callable

import numpy as np

from .errors import ShapeError, ValidationError


class BaseEstimator:
    """Minimal fit/predict estimator contract."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        names = [p.name for p in sig.parameters.values()
                 if p.name != "self" and p.kind != p.VAR_KEYWORD]
        return sorted(names)

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = self._param_names()
        for key, value in params.items():
            if key not in valid:
                raise ValidationError(
                    f"unknown parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {valid}")
            setattr(self, key, value)
        return self

    def _check_fitted(self, *attrs: str) -> None:
        for attr in attrs:
            if getattr(self, attr, None) is None:
                raise ValidationError(
                    f"{type(self).__name__} is not fitted; call fit() first")

    def _reuse(self, slot: str, key: tuple, compute: Callable[[], object]):
        """Return ``compute()``, or the value the last call on ``slot`` stored.

        The stored value is reused only when ``key`` equals that call's key
        exactly: arrays by dtype, shape and bytes, other parts by type and
        ``repr`` (so ``-0.0`` and ``0.0`` differ). The key is kept as one
        bytes copy (the parts' description, which fixes each array's length,
        a NUL, then the arrays' bytes), so mutating a key array in place
        makes the next call recompute. One value is kept per slot.
        """
        parts = [(k.dtype.str, k.shape) if isinstance(k, np.ndarray) else (type(k), k)
                 for k in key]
        frozen = b"\0".join([repr(parts).encode()]
                            + [k.tobytes() for k in key if isinstance(k, np.ndarray)])
        store = vars(self).setdefault("_reused", {})
        hit = store.get(slot)
        if hit is not None and hit[0] == frozen:
            return hit[1]
        value = compute()
        store[slot] = (frozen, value)
        return value


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


def check_values(values, n: int | None = None, name: str = "values") -> np.ndarray:
    """Validate a 1-d array of finite observations."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} is empty; need at least one observation")
    if n is not None and arr.shape[0] != n:
        raise ShapeError(f"{name} has {arr.shape[0]} entries, expected {n}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr
