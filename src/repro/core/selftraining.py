"""Self-training selection: trusted machine labels from high confidence.

Section IV: self-training picks the unlabeled pairs the current model is
*most* confident about (the opposite end of the active-learning
selection, Figures 6/7) and adds them to the training set with their
predicted labels.  To avoid concept drift, the class mix of the adopted
machine labels preserves the positive ratio α of the initial human
labels (the paper's Remark 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SelfTrainingSelection:
    """Indices (into the scored pool) whose predicted labels are adopted."""

    indices: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)


def select_confident(confidences: np.ndarray, predictions: np.ndarray,
                     batch_size: int, positive_ratio: float | None = None,
                     ) -> SelfTrainingSelection:
    """Pick up to ``batch_size`` highest-confidence pool items.

    With ``positive_ratio`` α set, the selection takes ``α·batch_size``
    predicted matches and ``(1-α)·batch_size`` predicted non-matches (each
    side by descending confidence, topped up from the other side when one
    runs short).  Without it, the top-``batch_size`` overall is taken.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    predictions = np.asarray(predictions)
    if confidences.shape != predictions.shape:
        raise ValueError(
            f"shape mismatch: confidences {confidences.shape} vs "
            f"predictions {predictions.shape}")
    if batch_size < 0:
        raise ValueError(f"batch_size must be >= 0, got {batch_size}")
    pool_size = len(confidences)
    batch_size = min(batch_size, pool_size)
    if batch_size == 0:
        empty = np.empty(0, dtype=np.int64)
        return SelfTrainingSelection(empty, empty.copy())
    if positive_ratio is None:
        order = np.argsort(-confidences, kind="stable")[:batch_size]
        return SelfTrainingSelection(order, predictions[order])

    if not 0.0 <= positive_ratio <= 1.0:
        raise ValueError(
            f"positive_ratio must be in [0, 1], got {positive_ratio}")
    want_positive = int(round(positive_ratio * batch_size))
    positives = np.flatnonzero(predictions == 1)
    negatives = np.flatnonzero(predictions == 0)
    positives = positives[np.argsort(-confidences[positives], kind="stable")]
    negatives = negatives[np.argsort(-confidences[negatives], kind="stable")]
    take_positive = min(want_positive, len(positives))
    take_negative = min(batch_size - take_positive, len(negatives))
    # Top up from the other class if one side ran short.
    shortfall = batch_size - take_positive - take_negative
    if shortfall > 0:
        take_positive = min(take_positive + shortfall, len(positives))
    chosen = np.concatenate([positives[:take_positive],
                             negatives[:take_negative]])
    return SelfTrainingSelection(chosen, predictions[chosen])

