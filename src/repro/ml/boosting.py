"""Boosted ensembles: AdaBoost (SAMME) and gradient boosting.

Both appear in the auto-sklearn model repository the paper's "all-model"
search space mirrors (Figure 4).  Gradient boosting fits regression trees
to logistic-loss gradients (binary deviance), AdaBoost reweights samples
around stump mistakes.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseEstimator,
    check_at_most_two_classes,
    check_X,
    check_X_y,
    encode_labels,
)
from .tree import DecisionTreeClassifier, DecisionTreeRegressor


class AdaBoostClassifier(BaseEstimator):
    """Two-class SAMME AdaBoost over depth-limited decision trees."""

    def __init__(self, n_estimators: int = 50, learning_rate: float = 1.0,
                 max_depth: int = 1, random_state: int = 0):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.random_state = random_state

    def fit(self, X, y) -> "AdaBoostClassifier":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        check_at_most_two_classes(self, self.classes_)
        n = X.shape[0]
        weights = np.full(n, 1.0 / n)
        rng = np.random.default_rng(self.random_state)
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []
        for _ in range(self.n_estimators):
            stump = DecisionTreeClassifier(
                max_depth=self.max_depth,
                random_state=int(rng.integers(2 ** 31)))
            stump.fit(X, encoded, sample_weight=weights)
            predictions = stump.predict(X)
            mistakes = predictions != encoded
            error = float(weights[mistakes].sum())
            if error <= 0:
                # Perfect stump: give it a large, finite say and stop.
                self.estimators_.append(stump)
                self.estimator_weights_.append(10.0)
                break
            if error >= 0.5:
                break  # no better than chance; further rounds won't help
            alpha = self.learning_rate * np.log((1.0 - error) / error)
            weights = weights * np.exp(alpha * mistakes)
            weights /= weights.sum()
            self.estimators_.append(stump)
            self.estimator_weights_.append(float(alpha))
        if not self.estimators_:
            # Degenerate data: fall back to a single stump.
            stump = DecisionTreeClassifier(max_depth=self.max_depth,
                                           random_state=self.random_state)
            stump.fit(X, encoded)
            self.estimators_.append(stump)
            self.estimator_weights_.append(1.0)
        self.n_features_in_ = X.shape[1]
        return self

    def decision_scores(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        scores = np.zeros((X.shape[0], len(self.classes_)))
        for stump, alpha in zip(self.estimators_, self.estimator_weights_):
            predictions = stump.predict(X).astype(np.int64)
            scores[np.arange(X.shape[0]), predictions] += alpha
        return scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]


class GradientBoostingClassifier(BaseEstimator):
    """Binary gradient boosting with logistic loss.

    Each round fits a regression tree to the negative gradient of the
    deviance; leaf values use the standard Newton step approximation.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, min_samples_leaf: int = 1,
                 subsample: float = 1.0, max_features=None,
                 random_state: int = 0):
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError(
                f"GradientBoostingClassifier is binary-only; got "
                f"{len(self.classes_)} classes")
        target = encoded.astype(np.float64)
        positive_rate = np.clip(target.mean(), 1e-6, 1.0 - 1e-6)
        self.init_score_ = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(X.shape[0], self.init_score_)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_: list[DecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            prob = 1.0 / (1.0 + np.exp(-raw))
            residual = target - prob
            if self.subsample < 1.0:
                take = max(2, int(round(self.subsample * n)))
                sample = rng.choice(n, size=take, replace=False)
            else:
                sample = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(2 ** 31)))
            tree.fit(X[sample], residual[sample])
            # Newton leaf update: sum(residual) / sum(p(1-p)) per leaf.
            leaves = tree.tree_.apply(X[sample])
            hessian = prob[sample] * (1.0 - prob[sample])
            for leaf in np.unique(leaves):
                members = leaves == leaf
                denominator = hessian[members].sum()
                if denominator < 1e-12:
                    continue
                tree.tree_.value[leaf, 0] = (
                    residual[sample][members].sum() / denominator)
            raw += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        raw = np.full(X.shape[0], self.init_score_)
        for tree in self.estimators_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def predict_proba(self, X) -> np.ndarray:
        prob1 = 1.0 / (1.0 + np.exp(-self.decision_function(X)))
        return np.column_stack([1.0 - prob1, prob1])

    def predict(self, X) -> np.ndarray:
        return self.classes_[(self.decision_function(X) > 0).astype(np.int64)]
