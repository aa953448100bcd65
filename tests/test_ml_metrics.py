"""Tests for classification metrics (F1 is the paper's headline metric)."""

import numpy as np
import pytest

from repro.ml import (
    f1_score,
    precision_recall_f1,
    precision_score,
    recall_score,
)


class TestPrecisionRecall:
    def test_perfect(self):
        y = [1, 0, 1, 0]
        assert precision_score(y, y) == 1.0
        assert recall_score(y, y) == 1.0

    def test_known_values(self):
        y_true = [1, 1, 1, 0, 0]
        y_pred = [1, 1, 0, 1, 0]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        assert precision_score([1, 1], [0, 0]) == 0.0

    def test_no_true_positives(self):
        assert recall_score([0, 0], [1, 1]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            precision_score([1, 0], [1])

    def test_custom_pos_label(self):
        y_true = ["m", "n", "m"]
        y_pred = ["m", "m", "m"]
        assert recall_score(y_true, y_pred, pos_label="m") == 1.0
        assert precision_score(y_true, y_pred, pos_label="m") == \
            pytest.approx(2 / 3)


class TestF1:
    def test_harmonic_mean(self):
        y_true = [1, 1, 1, 1, 0, 0, 0, 0]
        y_pred = [1, 1, 0, 0, 1, 0, 0, 0]
        p = precision_score(y_true, y_pred)
        r = recall_score(y_true, y_pred)
        assert f1_score(y_true, y_pred) == pytest.approx(2 * p * r / (p + r))

    def test_zero_when_both_zero(self):
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_paper_definition_example(self):
        # precision 0.5, recall 1.0 -> F1 = 2/3
        assert f1_score([1, 0], [1, 1]) == pytest.approx(2 / 3)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            y_true = rng.integers(0, 2, 20)
            y_pred = rng.integers(0, 2, 20)
            assert 0.0 <= f1_score(y_true, y_pred) <= 1.0

    def test_triple_helper(self):
        y_true = [1, 1, 0]
        y_pred = [1, 0, 0]
        p, r, f = precision_recall_f1(y_true, y_pred)
        assert (p, r) == (1.0, 0.5)
        assert f == pytest.approx(2 / 3)
