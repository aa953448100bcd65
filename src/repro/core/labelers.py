"""Label inference by propagation over the candidate pairs' features.

Section I of the paper: *"There are certainly other approaches that can
be used to infer labels, such as transitivity [39], labeling function,
clustering, and label propagation [43]."*
:class:`LabelPropagationLabeler` is Zhu & Ghahramani's iterative label
propagation over a k-NN similarity graph of the candidate pairs'
feature vectors.  Transitivity is not a labeler here: the closure of
the match relation is what :class:`~repro.resolve.store.EntityStore`'s
union-find computes when it resolves decisions into entities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class InferredLabels:
    """Labels inferred for a subset of pool indices."""

    indices: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


class LabelPropagationLabeler:
    """Zhu-Ghahramani label propagation over a k-NN feature graph.

    Nodes are candidate pairs (their feature vectors), edges connect
    k nearest neighbours with RBF weights; labeled nodes are clamped and
    labels diffuse until convergence.  ``infer`` returns the unlabeled
    nodes whose propagated posterior clears ``confidence_threshold``.
    """

    def __init__(self, n_neighbors: int = 7, alpha: float = 0.9,
                 max_iterations: int = 50, tolerance: float = 1e-4,
                 confidence_threshold: float = 0.9):
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.n_neighbors = n_neighbors
        self.alpha = alpha
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.confidence_threshold = confidence_threshold

    def infer(self, X: np.ndarray, labels: np.ndarray) -> InferredLabels:
        """Propagate.  ``labels`` uses -1 for unlabeled, 0/1 otherwise."""
        X = np.asarray(X, dtype=np.float64)
        labels = np.asarray(labels)
        if X.ndim != 2 or len(X) != len(labels):
            raise ValueError("X must be (n, d) with one label per row")
        if not (labels != -1).any():
            raise ValueError("label propagation needs at least one label")
        n = len(X)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # repro-lint: disable=REP005 - exact-zero std guard
        Z = X / scale
        # k-NN RBF affinity (symmetrized).
        distances = ((Z[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2) \
            if n <= 600 else None
        if distances is None:
            # chunked distance computation for larger pools
            distances = np.empty((n, n))
            for start in range(0, n, 200):
                block = Z[start:start + 200]
                distances[start:start + 200] = \
                    ((block[:, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(distances, np.inf)
        k = min(self.n_neighbors, n - 1)
        bandwidth = np.median(distances[np.isfinite(distances)]) + 1e-12
        affinity = np.zeros((n, n))
        neighbor_idx = np.argpartition(distances, k - 1, axis=1)[:, :k]
        rows = np.repeat(np.arange(n), k)
        cols = neighbor_idx.ravel()
        weights = np.exp(-distances[rows, cols] / bandwidth)
        affinity[rows, cols] = weights
        affinity = np.maximum(affinity, affinity.T)
        degree = affinity.sum(axis=1)
        degree[degree == 0.0] = 1.0  # repro-lint: disable=REP005 - exact-zero degree guard
        transition = affinity / degree[:, None]
        # Iterate F <- alpha * T F + (1 - alpha) * Y with clamping.
        Y = np.zeros((n, 2))
        labeled_mask = labels != -1
        Y[labeled_mask, labels[labeled_mask].astype(int)] = 1.0
        F = Y.copy()
        for _ in range(self.max_iterations):
            updated = self.alpha * transition @ F + (1 - self.alpha) * Y
            updated[labeled_mask] = Y[labeled_mask]
            if np.abs(updated - F).max() < self.tolerance:
                F = updated
                break
            F = updated
        row_sums = F.sum(axis=1, keepdims=True)
        posterior = F / np.maximum(row_sums, 1e-12)
        confident = (~labeled_mask) & (row_sums[:, 0] > 1e-9) \
            & (posterior.max(axis=1) >= self.confidence_threshold)
        indices = np.flatnonzero(confident)
        inferred = posterior[indices].argmax(axis=1)
        confidences = posterior[indices].max(axis=1)
        return InferredLabels(indices, inferred.astype(np.int64),
                              confidences)
