"""The batch refinement the resolve tests check production against.

This is the original, deliberately simple correlation-clustering pass:
one-shot connected components over the whole decision set, one global
table of signed edges, and for every component a scan of *every* signed
edge for internal negative evidence, then a pivot pass that looks up
each remaining pair.  It is quadratic, so production refines
incrementally (``CorrelationClustering.observe`` / ``split`` inside
``EntityStore``); the tests assert the two agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.resolve import (
    ConnectedComponents,
    CorrelationClustering,
    MatchDecision,
    NodeKey,
    entity_id_for,
    order_key,
    stable_hash,
)


def edge_signs(refiner: CorrelationClustering,
               decisions: Iterable[MatchDecision]
               ) -> dict[tuple[NodeKey, NodeKey], bool]:
    """Normalized endpoint pair → is-positive: any positive judgment
    wins, a pair is negative only if every judgment on it is."""
    signs: dict[tuple[NodeKey, NodeKey], bool] = {}
    for decision in decisions:
        if decision.matched:
            signs[decision.key] = True
        elif (refiner.negative_threshold is None
              or decision.score < refiner.negative_threshold):
            signs.setdefault(decision.key, False)
    return signs


def has_internal_negative(members: tuple[NodeKey, ...],
                          signs: dict[tuple[NodeKey, NodeKey], bool]
                          ) -> bool:
    member_set = set(members)
    return any(not positive and left in member_set and right in member_set
               for (left, right), positive in signs.items())


def pivot(refiner: CorrelationClustering, canonical: NodeKey,
          members: tuple[NodeKey, ...],
          signs: dict[tuple[NodeKey, NodeKey], bool]
          ) -> list[tuple[NodeKey, ...]]:
    """Greedy pivot clustering of one component's members."""
    rng = np.random.default_rng([refiner.seed, stable_hash(canonical)])
    order = [members[i] for i in rng.permutation(len(members))]
    unclustered = set(members)
    clusters: list[tuple[NodeKey, ...]] = []
    for node in order:
        if node not in unclustered:
            continue
        unclustered.discard(node)
        cluster = [node]
        for other in list(unclustered):
            key = ((node, other) if order_key(node) <= order_key(other)
                   else (other, node))
            if signs.get(key, False):
                cluster.append(other)
                unclustered.discard(other)
        clusters.append(tuple(sorted(cluster, key=order_key)))
    return clusters


def refine(refiner: CorrelationClustering,
           components: Mapping[NodeKey, tuple[NodeKey, ...]],
           decisions: Iterable[MatchDecision]
           ) -> dict[NodeKey, tuple[NodeKey, ...]]:
    """Split over-merged components; canonical → sorted members."""
    signs = edge_signs(refiner, decisions)
    refined: dict[NodeKey, tuple[NodeKey, ...]] = {}
    for canonical, members in components.items():
        if len(members) < refiner.min_component \
                or not has_internal_negative(members, signs):
            refined[canonical] = members
            continue
        for cluster in pivot(refiner, canonical, members, signs):
            refined[cluster[0]] = cluster
    return dict(sorted(refined.items(), key=lambda item: order_key(item[0])))


def batch_entities(decisions: list[MatchDecision],
                   refiner: CorrelationClustering,
                   nodes: Iterable[NodeKey] = ()
                   ) -> dict[str, tuple[NodeKey, ...]]:
    """What ``EntityStore.entities()`` must return for ``decisions``
    plus the registered ``nodes``, recomputed from scratch."""
    cc = ConnectedComponents()
    for node in nodes:
        cc.add_node(node)
    cc.add_many(decisions)
    return {entity_id_for(canonical): members
            for canonical, members
            in refine(refiner, cc.components(), decisions).items()}
