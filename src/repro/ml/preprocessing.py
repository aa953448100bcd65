"""Data preprocessing: imputation, scaling, balancing.

These are the components of the AutoML space's *data preprocessing*
stage (Figures 4/5/11): ``SimpleImputer``, ``MinMaxScaler``,
``StandardScaler``, ``RobustScaler`` (with the tunable ``q_min``/``q_max``
quantiles from Figure 3c), ``Normalizer`` and a random oversampler.  The
``balancing:strategy = weighting`` option is the models' own
``class_weight="balanced"`` (:func:`repro.ml.base.balanced_weights`).
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X


def _guard_scale(scale: np.ndarray) -> np.ndarray:
    """Replace (near-)zero scale factors with 1 to avoid inf/overflow.

    Quantile ranges and standard deviations can come out denormally small
    (e.g. a column whose spread is 1e-309); dividing by them overflows.
    """
    scale = np.asarray(scale, dtype=np.float64).copy()
    scale[np.abs(scale) < 1e-100] = 1.0
    return scale


class SimpleImputer(BaseEstimator):
    """Fill NaN with a per-column statistic ("mean"/"median"/"constant")."""

    def __init__(self, strategy: str = "mean", fill_value: float = 0.0):
        if strategy not in ("mean", "median", "constant"):
            raise ValueError(
                f"strategy must be mean/median/constant, got {strategy!r}")
        self.strategy = strategy
        self.fill_value = fill_value

    def fit(self, X, y=None) -> "SimpleImputer":
        X = check_X(X, allow_nan=True)
        if self.strategy == "constant":
            self.statistics_ = np.full(X.shape[1], self.fill_value)
        else:
            import warnings
            with warnings.catch_warnings():
                # All-NaN columns legitimately produce an empty-slice
                # warning; they fall back to the constant below.
                warnings.simplefilter("ignore", RuntimeWarning)
                if self.strategy == "mean":
                    self.statistics_ = np.nanmean(X, axis=0)
                else:
                    self.statistics_ = np.nanmedian(X, axis=0)
        # Columns that are entirely missing fall back to the constant.
        self.statistics_ = np.where(np.isnan(self.statistics_),
                                    self.fill_value, self.statistics_)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("statistics_")
        X = check_X(X, allow_nan=True).copy()
        missing = np.isnan(X)
        if missing.any():
            X[missing] = np.broadcast_to(self.statistics_, X.shape)[missing]
        return X

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class StandardScaler(BaseEstimator):
    """Zero-mean unit-variance rescaling."""

    def __init__(self):
        pass

    def fit(self, X, y=None) -> "StandardScaler":
        X = check_X(X)
        self.mean_ = X.mean(axis=0)
        self.scale_ = _guard_scale(X.std(axis=0))
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("mean_")
        return (check_X(X) - self.mean_) / self.scale_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class MinMaxScaler(BaseEstimator):
    """Rescale each feature to [0, 1] from the training range."""

    def __init__(self):
        pass

    def fit(self, X, y=None) -> "MinMaxScaler":
        X = check_X(X)
        self.min_ = X.min(axis=0)
        self.range_ = _guard_scale(X.max(axis=0) - self.min_)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("min_")
        return (check_X(X) - self.min_) / self.range_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class RobustScaler(BaseEstimator):
    """Median/IQR rescaling with tunable quantiles.

    ``q_min``/``q_max`` are the lower/upper quantiles (in percent) of the
    "interquartile" range — the hyperparameters the paper sweeps in
    Figure 3c.
    """

    def __init__(self, q_min: float = 25.0, q_max: float = 75.0):
        if not 0.0 <= q_min < 100.0:
            raise ValueError(f"q_min must be in [0, 100), got {q_min}")
        if not 0.0 < q_max <= 100.0 or q_max <= q_min:
            raise ValueError(
                f"q_max must be in (q_min, 100], got {q_max} (q_min={q_min})")
        self.q_min = q_min
        self.q_max = q_max

    def fit(self, X, y=None) -> "RobustScaler":
        X = check_X(X)
        self.center_ = np.median(X, axis=0)
        low = np.percentile(X, self.q_min, axis=0)
        high = np.percentile(X, self.q_max, axis=0)
        self.scale_ = _guard_scale(high - low)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("center_")
        return (check_X(X) - self.center_) / self.scale_

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class Normalizer(BaseEstimator):
    """Scale each *sample* to unit L2 norm."""

    def __init__(self):
        pass

    def fit(self, X, y=None) -> "Normalizer":
        check_X(X)
        self.fitted_ = True
        return self

    def transform(self, X) -> np.ndarray:
        X = check_X(X)
        norms = np.linalg.norm(X, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0  # repro-lint: disable=REP005 - exact-zero norm guard
        return X / norms

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class NonNegativeShift(BaseEstimator):
    """Shift each feature so the training minimum maps to zero.

    chi2-based feature selection requires non-negative input; this
    adapter makes any rescaled matrix chi2-safe (negative values that
    only appear at transform time clip to zero).
    """

    def __init__(self):
        pass

    def fit(self, X, y=None) -> "NonNegativeShift":
        X = check_X(X)
        self.min_ = X.min(axis=0)
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("min_")
        return np.maximum(check_X(X) - self.min_, 0.0)

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)


class RandomOverSampler(BaseEstimator):
    """Duplicate minority-class rows until classes are balanced."""

    def __init__(self, random_state: int = 0):
        self.random_state = random_state

    def fit_resample(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(X)
        y = np.asarray(y)
        rng = np.random.default_rng(self.random_state)
        classes, counts = np.unique(y, return_counts=True)
        target = counts.max()
        keep = [np.arange(len(y))]
        for cls, count in zip(classes, counts):
            if count < target:
                members = np.flatnonzero(y == cls)
                extra = rng.choice(members, size=target - count, replace=True)
                keep.append(extra)
        idx = np.concatenate(keep)
        idx = rng.permutation(idx)
        return X[idx], y[idx]
