"""Linear classifiers: logistic regression and a linear SVM.

Both are in Magellan's default model zoo (the paper trains them with
default hyperparameters as part of the human-baseline protocol).
Logistic regression is fit with scipy's L-BFGS on the regularized
log-loss; the SVM minimizes squared hinge loss the same way.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from .base import (
    BaseEstimator,
    balanced_weights,
    check_X,
    check_X_y,
    encode_labels,
)


def _add_bias(X: np.ndarray) -> np.ndarray:
    return np.hstack([X, np.ones((X.shape[0], 1))])


class LogisticRegression(BaseEstimator):
    """Binary L2-regularized logistic regression (L-BFGS).

    ``C`` is the inverse regularization strength, as in scikit-learn.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200,
                 class_weight=None, random_state: int = 0):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.class_weight = class_weight
        self.random_state = random_state

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("LogisticRegression here is binary-only")
        target = 2.0 * encoded - 1.0  # ±1
        weights = np.ones(len(y))
        if self.class_weight == "balanced":
            weights = balanced_weights(encoded, 2)
        Xb = _add_bias(X)
        n_params = Xb.shape[1]
        penalty_mask = np.ones(n_params)
        penalty_mask[-1] = 0.0  # do not regularize the bias

        def loss_grad(w):
            margins = target * (Xb @ w)
            # log(1 + exp(-m)), numerically stable
            loss = weights @ np.logaddexp(0.0, -margins)
            sigma = 1.0 / (1.0 + np.exp(margins))
            grad = -Xb.T @ (weights * target * sigma)
            reg = penalty_mask * w
            return (loss + 0.5 / self.C * (reg @ w),
                    grad + (1.0 / self.C) * reg)

        w0 = np.zeros(n_params)
        result = optimize.minimize(loss_grad, w0, jac=True, method="L-BFGS-B",
                                   options={"maxiter": self.max_iter})
        self.coef_ = result.x[:-1]
        self.intercept_ = float(result.x[-1])
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        prob1 = 1.0 / (1.0 + np.exp(-self.decision_function(X)))
        return np.column_stack([1.0 - prob1, prob1])

    def predict(self, X) -> np.ndarray:
        return self.classes_[(self.decision_function(X) > 0).astype(np.int64)]


class LinearSVC(BaseEstimator):
    """Binary linear SVM with squared hinge loss (L-BFGS)."""

    def __init__(self, C: float = 1.0, max_iter: int = 200,
                 class_weight=None, random_state: int = 0):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.class_weight = class_weight
        self.random_state = random_state

    def fit(self, X, y) -> "LinearSVC":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("LinearSVC here is binary-only")
        target = 2.0 * encoded - 1.0
        weights = np.ones(len(y))
        if self.class_weight == "balanced":
            weights = balanced_weights(encoded, 2)
        Xb = _add_bias(X)
        penalty_mask = np.ones(Xb.shape[1])
        penalty_mask[-1] = 0.0

        def loss_grad(w):
            margins = target * (Xb @ w)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = self.C * (weights @ (slack ** 2))
            grad = -2.0 * self.C * Xb.T @ (weights * slack * target)
            reg = penalty_mask * w
            return loss + 0.5 * (reg @ w), grad + reg

        result = optimize.minimize(loss_grad, np.zeros(Xb.shape[1]), jac=True,
                                   method="L-BFGS-B",
                                   options={"maxiter": self.max_iter})
        self.coef_ = result.x[:-1]
        self.intercept_ = float(result.x[-1])
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_X(X)
        return X @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        return self.classes_[(self.decision_function(X) > 0).astype(np.int64)]

    def predict_proba(self, X) -> np.ndarray:
        # Platt-free pseudo-probability via a logistic squashing of the
        # margin; adequate for confidence *ranking*.
        prob1 = 1.0 / (1.0 + np.exp(-self.decision_function(X)))
        return np.column_stack([1.0 - prob1, prob1])
