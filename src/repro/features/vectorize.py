"""Turning pair sets into numpy feature matrices.

A :class:`FeatureGenerator` binds a feature *plan* (list of
``(attribute, measure)`` slots from either Table I or Table II) to a pair
of tables; calling :meth:`FeatureGenerator.transform` on a
:class:`~repro.data.pairs.PairSet` yields an ``(n_pairs, n_features)``
float matrix with ``nan`` for missing values — imputation is a learned
pipeline step, not the feature generator's job.

Execution is columnar (:mod:`repro.features.columnar`):
value pairs are deduplicated per attribute, tokenization is shared
across measures, and large transforms can fan out over a process pool
via ``n_jobs``.  The original row-at-a-time loop survives as
:meth:`FeatureGenerator.transform_naive` — the reference implementation
the equivalence tests and the featuregen benchmark compare against.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..data.pairs import PairSet
from ..data.table import Table
from ..similarity import get_measure
from .autoem import autoem_feature_plan
from .cache import FeatureMatrixCache, pairs_fingerprint, plan_fingerprint
from .columnar import TokenCache, columnar_transform
from .magellan import magellan_feature_plan
from .types import DataType, infer_schema_types


class FeatureGenerator:
    """Materializes a feature plan over record pairs.

    Parameters
    ----------
    plan:
        List of ``(attribute, measure_name)`` feature slots.
    exclude_attributes:
        Attributes to drop from the plan (e.g. ids or free-text fields a
        user wants to ignore).
    n_jobs:
        Worker count for :meth:`transform`; 1 = sequential, ``-1`` =
        all cores.  The pool only engages above
        :data:`~repro.features.columnar.PARALLEL_MIN_UNIQUE_PAIRS`
        unique value pairs.
    sequence_max_chars:
        Per-generator prefix cap for the character-level DP measures;
        ``None`` uses the registry default
        (:data:`repro.similarity.registry.SEQUENCE_MAX_CHARS`).
    cache:
        ``None`` (no caching), ``True`` (private
        :class:`~repro.features.cache.FeatureMatrixCache`), or a cache
        instance to share across generators.  Cached matrices are keyed
        by plan + pair-set content fingerprints, so repeated transforms
        of the same pairs (AutoML trials, active-learning iterations)
        are O(1) lookups.
    """

    def __init__(self, plan: list[tuple[str, str]],
                 exclude_attributes: tuple[str, ...] = (), *,
                 n_jobs: int = 1,
                 sequence_max_chars: int | None = None,
                 cache: FeatureMatrixCache | bool | None = None):
        self.plan = [(a, m) for a, m in plan if a not in exclude_attributes]
        if not self.plan:
            raise ValueError("feature plan is empty")
        self.n_jobs = n_jobs
        self.sequence_max_chars = sequence_max_chars
        if cache is True:
            cache = FeatureMatrixCache()
        elif cache is False:
            cache = None
        self.cache = cache
        self._measures = [(a, get_measure(m)) for a, m in self.plan]
        self._token_cache = TokenCache()

    @property
    def feature_names(self) -> list[str]:
        return [f"{attribute}__{measure}" for attribute, measure in self.plan]

    @property
    def num_features(self) -> int:
        return len(self.plan)

    def transform(self, pairs: PairSet) -> np.ndarray:
        """Compute the feature matrix for ``pairs`` (nan = missing)."""
        key = None
        if self.cache is not None:
            key = self._cache_key(pairs)
            cached = self.cache.lookup(key)
            if cached is not None:
                return cached
        matrix = columnar_transform(
            self._measures, pairs, n_jobs=self.n_jobs,
            token_cache=self._token_cache,
            sequence_max_chars=self.sequence_max_chars)
        if self.cache is not None:
            self.cache.store(key, matrix)
        return matrix

    def transform_naive(self, pairs: PairSet) -> np.ndarray:
        """Row-at-a-time reference implementation.

        Kept as the ground truth the fast paths must bit-match, and as
        the baseline of ``benchmarks/bench_featuregen.py``.
        """
        cap = self.sequence_max_chars
        matrix = np.empty((len(pairs), len(self._measures)), dtype=np.float64)
        for i, pair in enumerate(pairs):
            for j, (attribute, measure) in enumerate(self._measures):
                matrix[i, j] = measure(pair.left.get(attribute),
                                       pair.right.get(attribute),
                                       sequence_max_chars=cap)
        np.copyto(matrix, np.nan, where=np.isinf(matrix))
        return matrix

    def _cache_key(self, pairs: PairSet) -> tuple[str, str]:
        return (plan_fingerprint(self.plan, self.sequence_max_chars),
                pairs_fingerprint(pairs))


def make_magellan_features(table_a: Table, table_b: Table,
                           types: dict[str, DataType] | None = None,
                           exclude_attributes: tuple[str, ...] = (),
                           **kwargs: Any) -> FeatureGenerator:
    """Table I generator for a table pair (types inferred if omitted).

    Extra keyword arguments (``n_jobs``, ``cache``,
    ``sequence_max_chars``, ...) pass through to
    :class:`FeatureGenerator`.
    """
    if types is None:
        types = infer_schema_types(table_a, table_b)
    return FeatureGenerator(magellan_feature_plan(types),
                            exclude_attributes=exclude_attributes, **kwargs)


def make_autoem_features(table_a: Table, table_b: Table,
                         types: dict[str, DataType] | None = None,
                         exclude_attributes: tuple[str, ...] = (),
                         **kwargs: Any) -> FeatureGenerator:
    """Table II generator for a table pair (types inferred if omitted).

    Extra keyword arguments (``n_jobs``, ``cache``,
    ``sequence_max_chars``, ...) pass through to
    :class:`FeatureGenerator`.
    """
    if types is None:
        types = infer_schema_types(table_a, table_b)
    return FeatureGenerator(autoem_feature_plan(types),
                            exclude_attributes=exclude_attributes, **kwargs)
