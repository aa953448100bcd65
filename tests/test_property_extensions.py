"""Property-based tests for the decision-threshold extension."""

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

