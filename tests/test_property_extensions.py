"""Property-based tests for the extension modules (explain/threshold/
ensemble weights)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.thresholding import apply_threshold, tune_threshold
from repro.ml.metrics import f1_score

probs_and_labels = st.integers(5, 80).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=n,
                 max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n)))


class TestThresholdProperties:
    @settings(max_examples=60)
    @given(probs_and_labels)
    def test_tuned_never_worse_than_default(self, data):
        probabilities, y = np.asarray(data[0]), np.asarray(data[1])
        result = tune_threshold(probabilities, y)
        assert result.score >= result.default_score - 1e-12

    @settings(max_examples=60)
    @given(probs_and_labels)
    def test_reported_score_matches_application(self, data):
        probabilities, y = np.asarray(data[0]), np.asarray(data[1])
        result = tune_threshold(probabilities, y)
        achieved = f1_score(y, apply_threshold(probabilities,
                                               result.threshold))
        assert achieved == result.score

    @settings(max_examples=40)
    @given(probs_and_labels)
    def test_threshold_within_unit_intervalish(self, data):
        probabilities, y = np.asarray(data[0]), np.asarray(data[1])
        result = tune_threshold(probabilities, y)
        assert -0.01 <= result.threshold <= 1.01


class TestLimeProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 1000))
    def test_constant_model_gets_zero_attributions(self, seed):
        from repro.explain import LimeExplainer
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(100, 3))

        def constant_proba(Z):
            return np.column_stack([np.full(len(Z), 0.3),
                                    np.full(len(Z), 0.7)])

        explainer = LimeExplainer(constant_proba, X, n_samples=100,
                                  seed=seed)
        explanation = explainer.explain(X[0])
        # A constant black-box has nothing to attribute (up to ridge
        # shrinkage numerics).
        assert np.abs(explanation.attributions).max() < 1e-6
        assert explanation.predicted_probability == 0.7
