"""Blocking subsystem: scalable candidate-pair generation.

Layout:

* :mod:`~repro.blocking.base` — the :class:`BaseBlocker` interface;
* :mod:`~repro.blocking.blockers` — scan-based blockers
  (:class:`AttributeEquivalenceBlocker`, :class:`OverlapBlocker`);
* :mod:`~repro.blocking.indexed` — indexed blockers with persistent,
  incremental indexes (:class:`QGramBlocker`,
  :class:`MinHashLSHBlocker`);
* :mod:`~repro.blocking.index` — the standing :class:`BlockIndex`
  (save/load, ``add_records``, probe);
* :mod:`~repro.blocking.metrics` — blocking-quality evaluation (pair
  completeness, reduction ratio, block-size histogram, JSONL telemetry).
"""

from .base import BaseBlocker
from .blockers import (
    AttributeEquivalenceBlocker,
    OverlapBlocker,
    blocking_recall,
)
from .index import BlockIndex, BlockIndexError, table_chain_fingerprint
from .indexed import IndexedBlocker, MinHashLSHBlocker, QGramBlocker
from .metrics import (
    BlockingReport,
    block_size_histogram,
    evaluate_blocking,
    gold_pair_keys,
    pair_completeness,
    reduction_ratio,
)

__all__ = [
    "AttributeEquivalenceBlocker",
    "BaseBlocker",
    "BlockIndex",
    "BlockIndexError",
    "BlockingReport",
    "IndexedBlocker",
    "MinHashLSHBlocker",
    "OverlapBlocker",
    "QGramBlocker",
    "block_size_histogram",
    "blocking_recall",
    "evaluate_blocking",
    "gold_pair_keys",
    "pair_completeness",
    "reduction_ratio",
    "table_chain_fingerprint",
]
