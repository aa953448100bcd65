"""Tests for AdaBoost and gradient boosting."""

import numpy as np
import pytest

from repro.ml import AdaBoostClassifier, GradientBoostingClassifier, f1_score


class TestAdaBoost:
    def test_learns_blobs(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = AdaBoostClassifier(n_estimators=20).fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.9

    def test_stumps_beat_single_stump_on_xor(self, noisy_data):
        X_train, y_train, X_test, y_test = noisy_data
        single = AdaBoostClassifier(n_estimators=1, max_depth=2)
        many = AdaBoostClassifier(n_estimators=40, max_depth=2)
        f1_single = f1_score(y_test,
                             single.fit(X_train, y_train).predict(X_test))
        f1_many = f1_score(y_test,
                           many.fit(X_train, y_train).predict(X_test))
        assert f1_many >= f1_single

    def test_perfect_stump_shortcircuits(self, blob_data):
        X_train, y_train, _, _ = blob_data
        # Deep trees can fit blobs perfectly -> early stop with one member.
        model = AdaBoostClassifier(n_estimators=50, max_depth=None)
        model.fit(X_train, y_train)
        assert len(model.estimators_) < 50

    def test_proba_normalized(self, noisy_data):
        X_train, y_train, X_test, _ = noisy_data
        model = AdaBoostClassifier(n_estimators=10).fit(X_train, y_train)
        probs = model.predict_proba(X_test)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n_estimators"):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ValueError, match="learning_rate"):
            AdaBoostClassifier(learning_rate=0)


class TestGradientBoosting:
    def test_learns_blobs(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = GradientBoostingClassifier(n_estimators=30)
        model.fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.9

    def test_learns_xor(self, noisy_data):
        X_train, y_train, X_test, y_test = noisy_data
        model = GradientBoostingClassifier(n_estimators=60, max_depth=3)
        model.fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.65

    def test_decision_function_monotone_in_probability(self, noisy_data):
        X_train, y_train, X_test, _ = noisy_data
        model = GradientBoostingClassifier(n_estimators=20)
        model.fit(X_train, y_train)
        raw = model.decision_function(X_test)
        probs = model.predict_proba(X_test)[:, 1]
        order_raw = np.argsort(raw)
        order_prob = np.argsort(probs)
        np.testing.assert_array_equal(order_raw, order_prob)

    def test_subsample(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        model = GradientBoostingClassifier(n_estimators=20, subsample=0.6,
                                           random_state=0)
        model.fit(X_train, y_train)
        assert f1_score(y_test, model.predict(X_test)) > 0.85

    def test_invalid_subsample(self):
        with pytest.raises(ValueError, match="subsample"):
            GradientBoostingClassifier(subsample=0.0)

    def test_init_score_matches_prior(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.concatenate([np.ones(25, dtype=int),
                            np.zeros(75, dtype=int)])
        model = GradientBoostingClassifier(n_estimators=1).fit(X, y)
        assert model.init_score_ == pytest.approx(np.log(0.25 / 0.75))
