"""Classification metrics; F1 on the positive class is the paper's metric.

All functions take plain arrays of gold and predicted labels.  For EM the
positive class is the *match* label (1), so ``f1_score`` defaults to
``pos_label=1`` and, like the EM literature, reports 0 when there are no
predicted or no true positives.
"""

from __future__ import annotations

import numpy as np


def _binarize(y_true, y_pred, pos_label):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}")
    return y_true == pos_label, y_pred == pos_label


def precision_score(y_true, y_pred, pos_label=1) -> float:
    """Correct positive predictions / all positive predictions (0 if none)."""
    true_pos, pred_pos = _binarize(y_true, y_pred, pos_label)
    predicted = pred_pos.sum()
    if predicted == 0:
        return 0.0
    return float((true_pos & pred_pos).sum() / predicted)


def recall_score(y_true, y_pred, pos_label=1) -> float:
    """Correct positive predictions / all true positives (0 if none)."""
    true_pos, pred_pos = _binarize(y_true, y_pred, pos_label)
    actual = true_pos.sum()
    if actual == 0:
        return 0.0
    return float((true_pos & pred_pos).sum() / actual)


def f1_score(y_true, y_pred, pos_label=1) -> float:
    """Harmonic mean of precision and recall — the paper's metric."""
    precision = precision_score(y_true, y_pred, pos_label)
    recall = recall_score(y_true, y_pred, pos_label)
    if precision + recall == 0.0:  # repro-lint: disable=REP005 - exact-zero denominator guard
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def precision_recall_f1(y_true, y_pred, pos_label=1) -> tuple[float, float, float]:
    """All three EM metrics in one call."""
    return (precision_score(y_true, y_pred, pos_label),
            recall_score(y_true, y_pred, pos_label),
            f1_score(y_true, y_pred, pos_label))
