"""Cluster-quality evaluation and resolve telemetry.

Pairwise decisions have precision/recall; *clusterings* need their own
quality surface, because transitive closure can both rescue missed
pairs (two records joined through a third) and amplify a single false
positive into a giant wrong entity.  The standard instruments:

* **pairwise precision / recall / F1** — treat every intra-cluster
  cross-side pair as a predicted match and score it against the gold
  pairs; the honest apples-to-apples comparison with the matcher's own
  pairwise F1 (and the acceptance gate of the resolve e2e test);
* **ARI** (adjusted Rand index) — chance-corrected partition agreement
  with the gold clustering, sensitive to over- and under-merging
  symmetrically;
* **cluster-size histogram** — power-of-two buckets (reusing the
  blocking layer's histogram), because one mega-entity is a data
  disaster that averages hide.

The subsystem's telemetry (``resolve`` and ``snapshot`` records) goes
to the :class:`~repro.events.EventLog` every layer shares; see
:class:`~repro.resolve.store.EntityStore`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from ..blocking.metrics import block_size_histogram
from .decisions import MatchDecision, NodeKey, node_key
from .unionfind import ConnectedComponents


def pairwise_cluster_pairs(
        clusters: Iterable[tuple[NodeKey, ...]],
        left_side: str = "a", right_side: str = "b"
) -> set[tuple[object, object]]:
    """Every cross-side record-id pair implied by the clustering.

    For the record-linkage setting the gold standard names ``(a-id,
    b-id)`` pairs, so only pairs joining the two sides count; in a
    deduplication workload (``left_side == right_side``) every
    unordered intra-cluster pair counts once, ordered by id sort
    order.
    """
    implied: set[tuple[object, object]] = set()
    for members in clusters:
        if left_side == right_side:
            ids = sorted((str(record_id) for side, record_id in members
                          if side == left_side))
            implied.update((ids[i], ids[j])
                           for i in range(len(ids))
                           for j in range(i + 1, len(ids)))
            continue
        left_ids = [record_id for side, record_id in members
                    if side == left_side]
        right_ids = [record_id for side, record_id in members
                     if side == right_side]
        implied.update((left, right) for left in left_ids
                       for right in right_ids)
    return implied


def adjusted_rand_index(labels_a: np.ndarray,
                        labels_b: np.ndarray) -> float:
    """The adjusted Rand index of two labelings of one node universe.

    Computed from the contingency table in the usual closed form;
    1.0 for identical partitions, ~0.0 for independent ones, and
    defined as 1.0 when both partitions are trivial (all singletons or
    one block) and equal — the expected-index denominator degenerates
    there.
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape:
        raise ValueError(f"labelings differ in length: "
                         f"{labels_a.shape} vs {labels_b.shape}")
    n = labels_a.size
    if n == 0:
        return 1.0
    _, inverse_a = np.unique(labels_a, return_inverse=True)
    _, inverse_b = np.unique(labels_b, return_inverse=True)
    n_a = inverse_a.max() + 1
    n_b = inverse_b.max() + 1
    contingency = np.zeros((n_a, n_b), dtype=np.int64)
    np.add.at(contingency, (inverse_a, inverse_b), 1)

    def comb2(counts: np.ndarray) -> float:
        counts = counts.astype(np.float64)
        return float((counts * (counts - 1.0) / 2.0).sum())

    index = comb2(contingency.ravel())
    sum_a = comb2(contingency.sum(axis=1))
    sum_b = comb2(contingency.sum(axis=0))
    total = n * (n - 1.0) / 2.0
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def _gold_partition(nodes: list[NodeKey],
                    gold_pairs: set[tuple[object, object]],
                    left_side: str, right_side: str) -> np.ndarray:
    """Gold cluster labels over ``nodes`` (transitive closure of the
    gold pairs; records outside every gold pair are singletons)."""
    gold_cc = ConnectedComponents()
    for node in nodes:
        gold_cc.add_node(node)
    for left_id, right_id in gold_pairs:
        left = node_key(left_side, left_id)
        right = node_key(right_side, right_id)
        if left in gold_cc and right in gold_cc and left != right:
            gold_cc.add(MatchDecision(left, right, 1.0, True))
    return np.asarray([repr(gold_cc.canonical(node)) for node in nodes])


@dataclass
class ClusterQualityReport:
    """The full quality picture of one clustering vs the gold pairs."""

    n_nodes: int
    n_entities: int
    n_predicted_pairs: int
    n_gold_pairs: int
    pairwise_precision: float
    pairwise_recall: float
    pairwise_f1: float
    adjusted_rand_index: float
    cluster_sizes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "n_nodes": self.n_nodes,
            "n_entities": self.n_entities,
            "n_predicted_pairs": self.n_predicted_pairs,
            "n_gold_pairs": self.n_gold_pairs,
            "pairwise_precision": self.pairwise_precision,
            "pairwise_recall": self.pairwise_recall,
            "pairwise_f1": self.pairwise_f1,
            "adjusted_rand_index": self.adjusted_rand_index,
            "cluster_sizes": dict(self.cluster_sizes),
        }


def evaluate_clustering(
        components: Mapping[NodeKey, tuple[NodeKey, ...]],
        gold_pairs: set[tuple[object, object]],
        *, left_side: str = "a", right_side: str = "b"
) -> ClusterQualityReport:
    """Score a partition (``canonical → members``) against gold pairs.

    ``gold_pairs`` holds ``(left_id, right_id)`` keys of the true
    matches — the same currency as
    :func:`repro.blocking.metrics.gold_pair_keys`.
    """
    clusters = list(components.values())
    predicted = pairwise_cluster_pairs(clusters, left_side, right_side)
    hits = len(predicted & gold_pairs)
    precision = hits / len(predicted) if predicted else \
        (1.0 if not gold_pairs else 0.0)
    recall = hits / len(gold_pairs) if gold_pairs else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)

    nodes = sorted((node for members in clusters for node in members),
                   key=repr)
    by_node = {node: repr(canonical)
               for canonical, members in components.items()
               for node in members}
    predicted_labels = np.asarray([by_node[node] for node in nodes])
    gold_labels = _gold_partition(nodes, gold_pairs, left_side,
                                  right_side)
    return ClusterQualityReport(
        n_nodes=len(nodes),
        n_entities=len(clusters),
        n_predicted_pairs=len(predicted),
        n_gold_pairs=len(gold_pairs),
        pairwise_precision=precision,
        pairwise_recall=recall,
        pairwise_f1=f1,
        adjusted_rand_index=adjusted_rand_index(predicted_labels,
                                                gold_labels),
        cluster_sizes=block_size_histogram(
            [len(members) for members in clusters]),
    )
