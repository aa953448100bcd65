"""Entity resolution: from pairwise decisions to entities.

The serving layer ends at scored record *pairs*; this package carries
them the rest of the way to *entities*:

1. :mod:`~repro.resolve.decisions` — the edge currency
   (:class:`MatchDecision`) and adapters from serving results;
2. :mod:`~repro.resolve.unionfind` — incremental, order-independent
   connected components (:class:`ConnectedComponents`);
3. :mod:`~repro.resolve.correlation` — seeded correlation-clustering
   refinement that splits over-merged components on negative evidence;
4. :mod:`~repro.resolve.fusion` — golden records via a
   registry-conformant resolver family (:class:`RecordFusion`);
5. :mod:`~repro.resolve.store` — the thread-safe, versioned
   :class:`EntityStore` the serving path writes through;
6. :mod:`~repro.resolve.metrics` — cluster-quality evaluation
   (pairwise P/R/F1, ARI, size histogram).
"""

from .correlation import CorrelationClustering
from .decisions import (
    MatchDecision,
    NodeKey,
    decisions_fingerprint,
    decisions_from_result,
    entity_id_for,
    gold_decisions,
    node_key,
    order_key,
    stable_hash,
)
from .fusion import (
    ALL_RESOLVERS,
    AttributeResolver,
    LongestResolver,
    MostFrequentResolver,
    NewestResolver,
    NumericMedianResolver,
    RecordFusion,
    make_resolver,
    seeded_choice,
)
from .metrics import (
    ClusterQualityReport,
    adjusted_rand_index,
    evaluate_clustering,
    pairwise_cluster_pairs,
)
from .store import (
    LATEST_POINTER,
    STORE_FORMAT_VERSION,
    EntityStore,
    EntityStoreError,
    ResolveDelta,
)
from .unionfind import ConnectedComponents

__all__ = [
    "ALL_RESOLVERS",
    "AttributeResolver",
    "ClusterQualityReport",
    "ConnectedComponents",
    "CorrelationClustering",
    "EntityStore",
    "EntityStoreError",
    "LATEST_POINTER",
    "LongestResolver",
    "MatchDecision",
    "MostFrequentResolver",
    "NewestResolver",
    "NodeKey",
    "NumericMedianResolver",
    "RecordFusion",
    "ResolveDelta",
    "STORE_FORMAT_VERSION",
    "adjusted_rand_index",
    "decisions_fingerprint",
    "decisions_from_result",
    "entity_id_for",
    "evaluate_clustering",
    "gold_decisions",
    "make_resolver",
    "node_key",
    "order_key",
    "pairwise_cluster_pairs",
    "seeded_choice",
    "stable_hash",
]
