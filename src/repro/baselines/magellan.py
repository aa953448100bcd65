"""The Magellan baseline: Table I features + default-hyperparameter models.

Magellan's how-to guide has the data scientist generate rule-based
features (Table I), train a handful of standard models with default
hyperparameters, and keep whichever scores best on the validation set
(Section III-C describes this workflow).  That protocol — features
chosen by heuristic, models never tuned — is exactly what this class
automates as the paper's "human developed model" stand-in.
"""

from __future__ import annotations

import numpy as np

from .. import ml
from ..data.pairs import PairSet
from ..features.vectorize import FeatureGenerator, make_magellan_features
from ..ml.metrics import f1_score, precision_recall_f1

#: Magellan's default model zoo (names → default-config factories).
DEFAULT_MODEL_ZOO: dict[str, type] = {
    "decision_tree": ml.DecisionTreeClassifier,
    "random_forest": ml.RandomForestClassifier,
    "svm": ml.LinearSVC,
    "logistic_regression": ml.LogisticRegression,
    "naive_bayes": ml.GaussianNB,
}


class MagellanMatcher:
    """Rule-based features, default models, pick-best-on-validation.

    >>> matcher = MagellanMatcher(seed=0)
    >>> matcher.fit(train_pairs, valid_pairs)
    >>> matcher.best_model_name_
    'random_forest'
    """

    def __init__(self, models: tuple[str, ...] | None = None,
                 forest_size: int = 100,
                 exclude_attributes: tuple[str, ...] = (),
                 seed: int = 0):
        self.models = tuple(models) if models else tuple(DEFAULT_MODEL_ZOO)
        unknown = set(self.models) - set(DEFAULT_MODEL_ZOO)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}; "
                             f"known: {sorted(DEFAULT_MODEL_ZOO)}")
        self.forest_size = forest_size
        self.exclude_attributes = tuple(exclude_attributes)
        self.seed = seed

    def make_feature_generator(self, pairs: PairSet) -> FeatureGenerator:
        return make_magellan_features(
            pairs.table_a, pairs.table_b,
            exclude_attributes=self.exclude_attributes)

    def _make_model(self, name: str):
        if name == "random_forest":
            return ml.RandomForestClassifier(n_estimators=self.forest_size,
                                             random_state=self.seed)
        cls = DEFAULT_MODEL_ZOO[name]
        try:
            return cls(random_state=self.seed)
        except TypeError:
            return cls()

    def fit(self, train: PairSet, valid: PairSet,
            feature_generator: FeatureGenerator | None = None
            ) -> "MagellanMatcher":
        self.feature_generator_ = (feature_generator
                                   or self.make_feature_generator(train))
        X_train = self.feature_generator_.transform(train)
        X_valid = self.feature_generator_.transform(valid)
        return self.fit_matrices(X_train, train.labels, X_valid, valid.labels)

    def fit_matrices(self, X_train, y_train, X_valid, y_valid
                     ) -> "MagellanMatcher":
        imputer = ml.SimpleImputer(strategy="mean")
        X_train = imputer.fit_transform(np.asarray(X_train, dtype=np.float64))
        X_valid = imputer.transform(np.asarray(X_valid, dtype=np.float64))
        self._imputer = imputer
        self.validation_scores_: dict[str, float] = {}
        best_name, best_score, best_model = None, -1.0, None
        for name in self.models:
            model = self._make_model(name)
            model.fit(X_train, y_train)
            score = f1_score(y_valid, model.predict(X_valid))
            self.validation_scores_[name] = score
            if score > best_score:
                best_name, best_score, best_model = name, score, model
        self.best_model_name_ = best_name
        self.best_score_ = best_score
        self.model_ = best_model
        return self

    def predict(self, pairs: PairSet) -> np.ndarray:
        self._check_fitted()
        X = self._imputer.transform(self.feature_generator_.transform(pairs))
        return self.model_.predict(X)

    def predict_matrix(self, X) -> np.ndarray:
        self._check_fitted()
        return self.model_.predict(
            self._imputer.transform(np.asarray(X, dtype=np.float64)))

    def evaluate(self, test: PairSet) -> dict:
        predictions = self.predict(test)
        precision, recall, f1 = precision_recall_f1(test.labels, predictions)
        return {"precision": precision, "recall": recall, "f1": f1}

    def evaluate_matrix(self, X_test, y_test) -> dict:
        predictions = self.predict_matrix(X_test)
        precision, recall, f1 = precision_recall_f1(y_test, predictions)
        return {"precision": precision, "recall": recall, "f1": f1}

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise RuntimeError(
                "MagellanMatcher is not fitted yet; call fit first")
