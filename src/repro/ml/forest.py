"""Bagged tree ensembles: random forest and extra-trees.

Random forest is the model AutoML-EM commits to (Section III-C): each
tree sees a bootstrap sample and a random feature subset per split, and
the forest averages tree probability estimates.  The per-tree *vote
disagreement* doubles as the label-confidence score that
AutoML-EM-Active's active-learning / self-training selection uses
(Figure 7).
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseEstimator,
    balanced_weights,
    check_X,
    check_X_y,
    encode_labels,
)
from .tree import DecisionTreeClassifier


class _BaseForest(BaseEstimator):
    """Shared fit/predict machinery for bagged tree ensembles."""

    _splitter = "best"
    _default_bootstrap = True

    def __init__(self, n_estimators: int = 100, criterion: str = "gini",
                 max_depth=None, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features="sqrt",
                 max_leaf_nodes=None, min_impurity_decrease: float = 0.0,
                 bootstrap: bool | None = None, class_weight=None,
                 random_state: int = 0):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_leaf_nodes = max_leaf_nodes
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = (self._default_bootstrap if bootstrap is None
                          else bootstrap)
        self.class_weight = class_weight
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "_BaseForest":
        X, y = check_X_y(X, y)
        self.classes_, encoded = encode_labels(y)
        if sample_weight is None:
            sample_weight = np.ones(len(y))
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if self.class_weight == "balanced":
            sample_weight = sample_weight * balanced_weights(
                encoded, len(self.classes_))
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_ = []
        for k in range(self.n_estimators):
            tree = DecisionTreeClassifier(
                criterion=self.criterion, max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                max_leaf_nodes=self.max_leaf_nodes,
                min_impurity_decrease=self.min_impurity_decrease,
                splitter=self._splitter,
                random_state=int(rng.integers(2 ** 31)))
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                tree.fit(X[sample], y[sample],
                         sample_weight=sample_weight[sample])
            else:
                tree.fit(X, y, sample_weight=sample_weight)
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Average of per-tree leaf class distributions."""
        self._check_fitted("estimators_")
        X = check_X(X)
        total = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            probs = tree.predict_proba(X)
            # Trees trained on bootstrap samples may have seen fewer
            # classes; align by class label.
            if len(tree.classes_) != len(self.classes_):
                aligned = np.zeros_like(total)
                for j, cls in enumerate(tree.classes_):
                    aligned[:, np.searchsorted(self.classes_, cls)] = probs[:, j]
                probs = aligned
            total += probs
        return total / self.n_estimators

    def predict(self, X) -> np.ndarray:
        scores = self.predict_proba(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def vote_fraction(self, X) -> np.ndarray:
        """Per-sample fraction of trees voting for the majority class.

        This is the paper's label-confidence score: 1.0 means every tree
        agrees (Figure 7's R1/R4 regions), 0.5 means a split vote (R2/R3).
        """
        self._check_fitted("estimators_")
        X = check_X(X)
        votes = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            predictions = tree.predict(X)
            for j, cls in enumerate(self.classes_):
                votes[:, j] += predictions == cls
        return votes.max(axis=1) / self.n_estimators

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances (how often each feature splits)."""
        self._check_fitted("estimators_")
        counts = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            features = tree.tree_.feature
            used = features[features >= 0]
            counts += np.bincount(used, minlength=self.n_features_in_)
        total = counts.sum()
        if total == 0:
            return counts
        return counts / total


class RandomForestClassifier(_BaseForest):
    """Bootstrap-bagged CART trees with per-split feature subsampling."""

    _splitter = "best"
    _default_bootstrap = True


class ExtraTreesClassifier(_BaseForest):
    """Extremely randomized trees: random thresholds, no bootstrap."""

    _splitter = "random"
    _default_bootstrap = False


class RandomForestRegressor(BaseEstimator):
    """Bagged regression trees; the SMAC surrogate model.

    Besides the mean prediction it exposes the across-tree standard
    deviation, which the expected-improvement acquisition needs.
    """

    def __init__(self, n_estimators: int = 30, max_depth=None,
                 min_samples_split: int = 2, min_samples_leaf: int = 1,
                 max_features=0.8, random_state: int = 0):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestRegressor":
        from .tree import DecisionTreeRegressor  # local to avoid cycle
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        n = X.shape[0]
        self.estimators_ = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(2 ** 31)))
            sample = rng.integers(0, n, size=n)
            tree.fit(X[sample], y[sample])
            self.estimators_.append(tree)
        self.n_features_in_ = X.shape[1]
        return self

    def _tree_predictions(self, X) -> np.ndarray:
        self._check_fitted("estimators_")
        X = check_X(X)
        return np.stack([tree.predict(X) for tree in self.estimators_])

    def predict(self, X) -> np.ndarray:
        return self._tree_predictions(X).mean(axis=0)

    def predict_with_std(self, X) -> tuple[np.ndarray, np.ndarray]:
        predictions = self._tree_predictions(X)
        return predictions.mean(axis=0), predictions.std(axis=0)
