"""Tests for label-propagation label inference."""

import numpy as np
import pytest

from repro.core import LabelPropagationLabeler


class TestLabelPropagation:
    @pytest.fixture()
    def clustered_data(self, rng):
        X0 = rng.normal(loc=-2.0, scale=0.4, size=(60, 3))
        X1 = rng.normal(loc=+2.0, scale=0.4, size=(60, 3))
        X = np.vstack([X0, X1])
        y_true = np.concatenate([np.zeros(60, dtype=int),
                                 np.ones(60, dtype=int)])
        labels = np.full(120, -1)
        labels[:5] = 0
        labels[60:65] = 1
        return X, labels, y_true

    def test_propagates_to_clusters(self, clustered_data):
        X, labels, y_true = clustered_data
        labeler = LabelPropagationLabeler(confidence_threshold=0.6)
        inferred = labeler.infer(X, labels)
        assert len(inferred) > 50
        accuracy = (inferred.labels == y_true[inferred.indices]).mean()
        assert accuracy > 0.95

    def test_only_unlabeled_returned(self, clustered_data):
        X, labels, _ = clustered_data
        inferred = LabelPropagationLabeler().infer(X, labels)
        labeled_idx = set(np.flatnonzero(labels != -1).tolist())
        assert set(inferred.indices.tolist()) & labeled_idx == set()

    def test_confidence_threshold_filters(self, clustered_data):
        X, labels, _ = clustered_data
        loose = LabelPropagationLabeler(confidence_threshold=0.5)
        strict = LabelPropagationLabeler(confidence_threshold=0.999)
        assert len(strict.infer(X, labels)) <= len(loose.infer(X, labels))

    def test_confidences_in_range(self, clustered_data):
        X, labels, _ = clustered_data
        inferred = LabelPropagationLabeler(
            confidence_threshold=0.5).infer(X, labels)
        assert np.all(inferred.confidences >= 0.5)
        assert np.all(inferred.confidences <= 1.0 + 1e-9)

    def test_no_labels_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="at least one label"):
            LabelPropagationLabeler().infer(X, np.full(10, -1))

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n_neighbors"):
            LabelPropagationLabeler(n_neighbors=0)
        with pytest.raises(ValueError, match="alpha"):
            LabelPropagationLabeler(alpha=1.0)
