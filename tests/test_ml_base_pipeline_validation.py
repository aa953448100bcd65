"""Tests for estimator plumbing, input validation and Pipeline."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    NotFittedError,
    Pipeline,
    RandomForestClassifier,
    SelectPercentile,
    SimpleImputer,
    StandardScaler,
    clone,
    f1_score,
)
from repro.ml.base import balanced_weights, check_X_y, encode_labels


class TestBaseEstimator:
    def test_get_params_round_trip(self):
        tree = DecisionTreeClassifier(max_depth=7, criterion="entropy")
        params = tree.get_params()
        assert params["max_depth"] == 7
        assert params["criterion"] == "entropy"

    def test_set_params(self):
        tree = DecisionTreeClassifier()
        tree.set_params(max_depth=3)
        assert tree.max_depth == 3

    def test_set_unknown_param_raises(self):
        with pytest.raises(ValueError, match="no parameter"):
            DecisionTreeClassifier().set_params(depth=3)

    def test_clone_is_unfitted_copy(self, blob_data):
        X_train, y_train, _, _ = blob_data
        tree = DecisionTreeClassifier(max_depth=4).fit(X_train, y_train)
        copy = clone(tree)
        assert copy.max_depth == 4
        with pytest.raises(NotFittedError):
            copy.predict(X_train)

    def test_repr_contains_params(self):
        assert "max_depth=5" in repr(DecisionTreeClassifier(max_depth=5))


class TestValidationHelpers:
    def test_check_X_y_shapes(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_X_y(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="rows but"):
            check_X_y(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="empty"):
            check_X_y(np.zeros((0, 2)), np.zeros(0))

    def test_encode_labels(self):
        classes, encoded = encode_labels(["b", "a", "b"])
        assert classes.tolist() == ["a", "b"]
        assert encoded.tolist() == [1, 0, 1]

    def test_balanced_weights_formula(self):
        # n / (k * count): 4 / (2*3) and 4 / (2*1).
        weights = balanced_weights(np.asarray([0, 0, 0, 1]), 2)
        assert weights.tolist() == pytest.approx([2 / 3, 2 / 3, 2 / 3, 2.0])

    def test_balanced_weights_sum_equal_per_class(self):
        y = np.asarray([0] * 90 + [1] * 10)
        weights = balanced_weights(y, 2)
        assert weights[y == 0].sum() == pytest.approx(weights[y == 1].sum())


class TestPipeline:
    def test_full_chain(self, rng):
        X = rng.normal(size=(120, 10))
        X[rng.random(X.shape) < 0.1] = np.nan
        y = (np.nan_to_num(X[:, 0]) > 0).astype(int)
        pipe = Pipeline([
            ("impute", SimpleImputer()),
            ("scale", StandardScaler()),
            ("select", SelectPercentile(50)),
            ("clf", RandomForestClassifier(n_estimators=10,
                                           random_state=0)),
        ])
        pipe.fit(X[:100], y[:100])
        assert f1_score(y[100:], pipe.predict(X[100:])) > 0.5

    def test_predict_proba_passthrough(self, blob_data):
        X_train, y_train, X_test, _ = blob_data
        pipe = Pipeline([("scale", StandardScaler()),
                         ("clf", DecisionTreeClassifier())])
        pipe.fit(X_train, y_train)
        assert pipe.predict_proba(X_test).shape == (len(X_test), 2)

    def test_unfitted_raises(self, blob_data):
        _, _, X_test, _ = blob_data
        pipe = Pipeline([("clf", DecisionTreeClassifier())])
        with pytest.raises(NotFittedError):
            pipe.predict(X_test)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            Pipeline([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate step names"):
            Pipeline([("a", SimpleImputer()), ("a", StandardScaler())])
