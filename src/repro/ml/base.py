"""Estimator plumbing: parameters, cloning, fit-state checks.

A miniature of scikit-learn's estimator contract, which the AutoML engine
relies on: every estimator exposes its constructor parameters through
``get_params``/``set_params`` so a configuration dict can instantiate and
re-instantiate pipelines, and ``clone`` produces an unfitted copy.
"""

from __future__ import annotations

import inspect

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when predict/transform is called before fit."""


class BaseEstimator:
    """Parameter introspection shared by all models and transformers.

    Subclasses must accept all hyperparameters as keyword constructor
    arguments and store each under the same attribute name.
    """

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name, p in signature.parameters.items()
                if name != "self"
                and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"{type(self).__name__} has no parameter {name!r}; "
                    f"valid: {sorted(valid)}")
            setattr(self, name, value)
        return self

    def _check_fitted(self, attribute: str) -> None:
        if not hasattr(self, attribute):
            raise NotFittedError(
                f"{type(self).__name__} is not fitted yet; call fit first")

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """An unfitted copy with the same hyperparameters."""
    return type(estimator)(**estimator.get_params())


def check_X_y(X, y, allow_nan: bool = False):
    """Validate and coerce a feature matrix and label vector."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not allow_nan and np.isnan(X).any():
        raise ValueError(
            "X contains NaN; impute missing values first "
            "(e.g. repro.ml.preprocessing.SimpleImputer)")
    return X, y


def check_X(X, allow_nan: bool = False):
    """Validate and coerce a feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if not allow_nan and np.isnan(X).any():
        raise ValueError("X contains NaN; impute missing values first")
    return X


def encode_labels(y) -> tuple[np.ndarray, np.ndarray]:
    """Map labels to 0..k-1; returns ``(classes, encoded)``."""
    classes, encoded = np.unique(y, return_inverse=True)
    return classes, encoded.astype(np.int64)


def check_at_most_two_classes(estimator: BaseEstimator,
                              classes: np.ndarray) -> None:
    """Reject multiclass labels: entity matching is match / non-match.

    One class passes, because a bagged tree's bootstrap sample can hold
    a single class.
    """
    if len(classes) > 2:
        raise ValueError(f"{type(estimator).__name__} is binary-only; got "
                         f"{len(classes)} classes")


def balanced_weights(y_encoded: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-sample 'balanced' class weights: n / (k * count(class))."""
    counts = np.bincount(y_encoded, minlength=n_classes)
    weights = len(y_encoded) / (n_classes * np.maximum(counts, 1))
    return weights[y_encoded]
