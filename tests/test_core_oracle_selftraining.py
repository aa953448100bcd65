"""Tests for the label oracle and self-training selection."""

import numpy as np
import pytest

from repro.core import (
    GroundTruthOracle,
    LabelBudgetExceeded,
    UncertaintyStrategy,
    select_confident,
)
from repro.data import MATCH, NON_MATCH, PairSet, RecordPair, Table


class FixedVotes:
    """A fitted forest's stand-in: ``vote_fraction`` returns fixed values."""

    def __init__(self, fractions):
        self.fractions = fractions

    def vote_fraction(self, X):
        return self.fractions


def select_uncertain(confidences, batch_size):
    """The active loop's query pick: least confident majority votes."""
    return UncertaintyStrategy().select(
        FixedVotes(confidences), np.zeros((len(confidences), 1)),
        batch_size, np.random.default_rng(0))


@pytest.fixture()
def gold_pairs():
    a = Table("A", ["v"], [[f"a{i}"] for i in range(6)])
    b = Table("B", ["v"], [[f"b{i}"] for i in range(6)])
    labels = [MATCH, NON_MATCH, MATCH, NON_MATCH, NON_MATCH, MATCH]
    return PairSet(a, b, [RecordPair(a[i], b[i], labels[i])
                          for i in range(6)])


class TestOracle:
    def test_returns_gold_labels(self, gold_pairs):
        oracle = GroundTruthOracle(gold_pairs)
        assert oracle.label(gold_pairs[0]) == MATCH
        assert oracle.label(gold_pairs[1]) == NON_MATCH

    def test_counts_queries(self, gold_pairs):
        oracle = GroundTruthOracle(gold_pairs)
        oracle.label_batch([gold_pairs[0], gold_pairs[1]])
        assert oracle.queries_used == 2

    def test_budget_enforced(self, gold_pairs):
        oracle = GroundTruthOracle(gold_pairs, budget=2)
        oracle.label(gold_pairs[0])
        oracle.label(gold_pairs[1])
        with pytest.raises(LabelBudgetExceeded):
            oracle.label(gold_pairs[2])

    def test_remaining(self, gold_pairs):
        oracle = GroundTruthOracle(gold_pairs, budget=3)
        oracle.label(gold_pairs[0])
        assert oracle.remaining == 2
        assert GroundTruthOracle(gold_pairs).remaining is None

    def test_unknown_pair(self, gold_pairs):
        oracle = GroundTruthOracle(gold_pairs)
        foreign_a = Table("X", ["v"], [["q"]], ids=[99])
        stranger = RecordPair(foreign_a[0], foreign_a[0])
        with pytest.raises(KeyError, match="no gold label"):
            oracle.label(stranger)

    def test_requires_labeled_pairs(self, gold_pairs):
        with pytest.raises(ValueError, match="labeled"):
            GroundTruthOracle(gold_pairs.without_labels())


class TestSelectUncertain:
    def test_picks_lowest_confidence(self):
        confidences = np.asarray([0.9, 0.55, 0.99, 0.6])
        chosen = select_uncertain(confidences, 2)
        assert sorted(chosen.tolist()) == [1, 3]

    def test_batch_capped_at_pool(self):
        assert len(select_uncertain(np.asarray([0.7]), 10)) == 1

    def test_zero_batch(self):
        assert len(select_uncertain(np.asarray([0.7, 0.8]), 0)) == 0

    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            select_uncertain(np.asarray([0.5]), -1)


class TestSelectConfident:
    def test_picks_highest_confidence(self):
        confidences = np.asarray([0.9, 0.55, 0.99, 0.6])
        predictions = np.asarray([1, 0, 0, 1])
        selection = select_confident(confidences, predictions, 2)
        assert sorted(selection.indices.tolist()) == [0, 2]

    def test_labels_are_predictions(self):
        confidences = np.asarray([0.8, 0.95])
        predictions = np.asarray([0, 1])
        selection = select_confident(confidences, predictions, 2)
        by_index = dict(zip(selection.indices.tolist(),
                            selection.labels.tolist()))
        assert by_index == {0: 0, 1: 1}

    def test_ratio_preservation(self):
        rng = np.random.default_rng(0)
        confidences = rng.random(100)
        predictions = (rng.random(100) < 0.5).astype(int)
        selection = select_confident(confidences, predictions, 40,
                                     positive_ratio=0.25)
        assert len(selection) == 40
        assert selection.labels.sum() == 10  # 25% of 40

    def test_ratio_tops_up_when_class_short(self):
        confidences = np.linspace(0.5, 1.0, 10)
        predictions = np.asarray([1] * 9 + [0])  # only one negative
        selection = select_confident(confidences, predictions, 6,
                                     positive_ratio=0.0)
        # wants 6 negatives but only 1 exists: tops up with positives
        assert len(selection) == 6

    def test_zero_batch(self):
        selection = select_confident(np.asarray([0.9]), np.asarray([1]), 0,
                                     positive_ratio=0.5)
        assert len(selection) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            select_confident(np.asarray([0.5]), np.asarray([1, 0]), 1)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="positive_ratio"):
            select_confident(np.asarray([0.5]), np.asarray([1]), 1,
                             positive_ratio=1.5)

    def test_disjoint_from_uncertain_on_extremes(self):
        confidences = np.asarray([0.5, 0.6, 0.95, 0.99])
        predictions = np.asarray([0, 1, 0, 1])
        uncertain = set(select_uncertain(confidences, 2).tolist())
        confident = set(select_confident(confidences, predictions,
                                         2).indices.tolist())
        assert uncertain & confident == set()
