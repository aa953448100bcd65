"""Correlation-clustering refinement: split over-merged components.

Transitive closure over positive edges (what
:class:`~repro.resolve.unionfind.ConnectedComponents` computes) is
deliberately optimistic: one false-positive decision chains two real
entities into one component.  The matcher's *negative* decisions are
the evidence that this happened — a component whose internal pairs the
model explicitly called non-matches is over-merged.

:class:`CorrelationClustering` runs the classic greedy pivot algorithm
(CC-Pivot, Ailon/Charikar/Newman) *inside* each such component:

1. visit unclustered nodes in a seeded, deterministic pivot order;
2. the pivot opens a cluster and absorbs every still-unclustered node
   it shares a positive edge with;
3. repeat until the component is exhausted.

Nodes connected to the pivot only through a negative (or missing) edge
stay behind for a later pivot — which is exactly the split.  Components
with no internal negative evidence are returned untouched, so
refinement composes with the incremental clusterer without disturbing
its incremental-equals-batch parity guarantee.

The refiner is incremental.  :meth:`CorrelationClustering.observe`
folds decisions into per-node positive and negative neighbour sets, and
:meth:`CorrelationClustering.split` refines one component from them, so
the internal-negative test and the pivot pass walk only that
component's own edges.  :class:`~repro.resolve.store.EntityStore`
splits only the components its newest decisions touched.  A refiner
holds the edges of the one store it refines; give every store its own.

Determinism: the pivot permutation is drawn from a
``numpy`` generator seeded by ``(seed, component canonical)`` — two
refinements of the same decision set with the same seed produce
bit-identical output, independent of decision arrival order, because
both the component inventory and each component's node list are
already order-independent content.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

import numpy as np

from .decisions import MatchDecision, NodeKey, order_key, stable_hash


class CorrelationClustering:
    """Seeded greedy-pivot refinement over negative-evidence edges.

    Parameters
    ----------
    seed:
        Pivot-order seed.  The same seed and decision set always
        produce the same refinement.
    negative_threshold:
        A non-matched decision counts as negative evidence only when
        its score is *below* this bound (default: any non-match).
        Raising it ignores borderline negatives near the decision
        boundary.
    min_component:
        Components smaller than this are never refined (a pair cannot
        be over-merged into itself in any way a pivot pass would fix).
    """

    def __init__(self, seed: int = 0,
                 negative_threshold: float | None = None,
                 min_component: int = 3):
        if negative_threshold is not None \
                and not 0.0 <= negative_threshold <= 1.0:
            raise ValueError(f"negative_threshold must be in [0, 1], "
                             f"got {negative_threshold}")
        if min_component < 2:
            raise ValueError(
                f"min_component must be >= 2, got {min_component}")
        self.seed = int(seed)
        self.negative_threshold = negative_threshold
        self.min_component = int(min_component)
        self._positive: defaultdict[NodeKey, set[NodeKey]] = \
            defaultdict(set)
        self._negative: defaultdict[NodeKey, set[NodeKey]] = \
            defaultdict(set)

    def _is_negative(self, decision: MatchDecision) -> bool:
        if decision.matched:
            return False
        return (self.negative_threshold is None
                or decision.score < self.negative_threshold)

    def observe(self, decisions: Iterable[MatchDecision]) -> None:
        """Fold decisions into the per-node signed neighbour sets.

        Conflicting repeat judgments resolve by *content*, not stream
        position: any positive decision makes the pair positive, only
        exclusively-negative evidence counts as negative.  This mirrors
        the union–find (where any positive edge merges, whenever it
        arrives) and keeps refinement independent of decision order —
        a "most recent wins" rule would make the refined partition
        depend on how a shuffled stream happened to interleave.
        """
        positive, negative = self._positive, self._negative
        for decision in decisions:
            left, right = decision.left, decision.right
            if decision.matched:
                positive[left].add(right)
                positive[right].add(left)
                if right in negative.get(left, ()):
                    negative[left].discard(right)
                    negative[right].discard(left)
            elif self._is_negative(decision) \
                    and right not in positive.get(left, ()):
                negative[left].add(right)
                negative[right].add(left)

    def split(self, canonical: NodeKey, members: tuple[NodeKey, ...]
              ) -> list[tuple[NodeKey, ...]]:
        """Refined clusters of one connected component.

        ``canonical`` is the component's minimum member and ``members``
        its sorted nodes (one :meth:`ConnectedComponents.components`
        entry).  A component without internal negative evidence comes
        back whole; otherwise the greedy pivot pass splits it, each
        cluster sorted, so ``cluster[0]`` is its own minimum member.
        Cost is linear in the component's signed edges.
        """
        member_set = set(members)
        if len(members) < self.min_component or all(
                member_set.isdisjoint(self._negative.get(node, ()))
                for node in members):
            return [members]
        rng = np.random.default_rng(
            [self.seed, stable_hash(canonical)])
        unclustered = member_set
        clusters: list[tuple[NodeKey, ...]] = []
        for index in rng.permutation(len(members)):
            pivot = members[index]
            if pivot not in unclustered:
                continue
            cluster = self._positive.get(pivot, set()) & unclustered
            cluster.add(pivot)
            unclustered -= cluster
            clusters.append(tuple(sorted(cluster, key=order_key)))
        return clusters

    def config(self) -> dict[str, object]:
        """The constructor arguments that rebuild this refiner, without
        its neighbour sets: they are derived from the owning store's
        decision log, which replays them after a load."""
        return {"seed": self.seed,
                "negative_threshold": self.negative_threshold,
                "min_component": self.min_component}

    def __repr__(self) -> str:
        return (f"CorrelationClustering(seed={self.seed}, "
                f"negative_threshold={self.negative_threshold}, "
                f"min_component={self.min_component})")
