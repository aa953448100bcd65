"""Tests for logistic regression and the linear SVM."""

import numpy as np
import pytest

from repro.ml import LinearSVC, LogisticRegression, f1_score


class TestLogisticRegression:
    def test_learns_blobs(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = LogisticRegression().fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.95

    def test_probabilities_calibrated_direction(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = LogisticRegression().fit(X_train, y_train)
        probs = model.predict_proba(X_test)[:, 1]
        assert probs[y_test == 1].mean() > probs[y_test == 0].mean()

    def test_regularization_shrinks_weights(self, blob_data):
        X_train, y_train, _, _ = blob_data
        loose = LogisticRegression(C=1000.0).fit(X_train, y_train)
        tight = LogisticRegression(C=0.001).fit(X_train, y_train)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_bias_not_regularized(self):
        # A dataset where the optimal separator needs a large intercept.
        rng = np.random.default_rng(0)
        X = rng.normal(loc=100.0, scale=1.0, size=(200, 1))
        y = (X[:, 0] > 100.0).astype(int)
        model = LogisticRegression(C=0.1).fit(X, y)
        assert f1_score(y, model.predict(X)) > 0.9

    def test_class_weight_balanced_raises_minority_recall(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(-0.4, 1, size=(270, 2)),
                       rng.normal(+0.8, 1, size=(30, 2))])
        y = np.concatenate([np.zeros(270, dtype=int),
                            np.ones(30, dtype=int)])
        plain = LogisticRegression().fit(X, y)
        balanced = LogisticRegression(class_weight="balanced").fit(X, y)
        assert balanced.predict(X).sum() > plain.predict(X).sum()

    def test_invalid_C(self):
        with pytest.raises(ValueError, match="C must be positive"):
            LogisticRegression(C=0.0)

    def test_string_labels(self):
        X = np.asarray([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.asarray(["neg", "neg", "pos", "pos"])
        model = LogisticRegression().fit(X, y)
        assert model.predict([[3.0]])[0] == "pos"
        assert model.predict([[-3.0]])[0] == "neg"


class TestLinearSVC:
    def test_learns_blobs(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = LinearSVC().fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.95

    def test_decision_function_sign_matches_prediction(self, blob_data):
        X_train, y_train, X_test, _ = blob_data
        model = LinearSVC().fit(X_train, y_train)
        raw = model.decision_function(X_test)
        predictions = model.predict(X_test)
        np.testing.assert_array_equal(predictions,
                                      model.classes_[(raw > 0).astype(int)])

    def test_proba_ranks_by_margin(self, blob_data):
        X_train, y_train, X_test, _ = blob_data
        model = LinearSVC().fit(X_train, y_train)
        margins = model.decision_function(X_test)
        probs = model.predict_proba(X_test)[:, 1]
        np.testing.assert_array_equal(np.argsort(margins), np.argsort(probs))

    def test_invalid_C(self):
        with pytest.raises(ValueError, match="C must be positive"):
            LinearSVC(C=-1.0)
