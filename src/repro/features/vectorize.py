"""Turning pair sets into numpy feature matrices.

A :class:`FeatureGenerator` binds a feature *plan* (list of
``(attribute, measure)`` slots from either Table I or Table II) to a pair
of tables; calling :meth:`FeatureGenerator.transform` on a
:class:`~repro.data.pairs.PairSet` yields an ``(n_pairs, n_features)``
float matrix with ``nan`` for missing values — imputation is a learned
pipeline step, not the feature generator's job.

Execution is columnar (:mod:`repro.features.columnar`):
value pairs are deduplicated per attribute, tokenization is shared
across measures, and the DP kernel runs once per set of layers.  The
row-at-a-time reference loop the engine must bit-match lives with the tests (``tests/feature_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from ..concurrency import BoundedMemo
from ..data.pairs import PairSet
from ..data.table import Table
from ..similarity import get_measure
from .autoem import autoem_feature_plan
from .columnar import columnar_transform
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
    """

    def __init__(self, plan: list[tuple[str, str]],
                 exclude_attributes: tuple[str, ...] = ()):
        self.plan = [(a, m) for a, m in plan if a not in exclude_attributes]
        if not self.plan:
            raise ValueError("feature plan is empty")
        self._measures = [(a, get_measure(m)) for a, m in self.plan]
        self._token_cache = BoundedMemo()

    @property
    def feature_names(self) -> list[str]:
        return [f"{attribute}__{measure}" for attribute, measure in self.plan]

    @property
    def num_features(self) -> int:
        return len(self.plan)

    def transform(self, pairs: PairSet) -> np.ndarray:
        """Compute the feature matrix for ``pairs`` (nan = missing)."""
        return columnar_transform(self._measures, pairs,
                                  token_cache=self._token_cache)


def make_magellan_features(table_a: Table, table_b: Table,
                           types: dict[str, DataType] | None = None,
                           exclude_attributes: tuple[str, ...] = ()
                           ) -> FeatureGenerator:
    """Table I generator for a table pair (types inferred if omitted)."""
    if types is None:
        types = infer_schema_types(table_a, table_b)
    return FeatureGenerator(magellan_feature_plan(types),
                            exclude_attributes=exclude_attributes)


def make_autoem_features(table_a: Table, table_b: Table,
                         types: dict[str, DataType] | None = None,
                         exclude_attributes: tuple[str, ...] = ()
                         ) -> FeatureGenerator:
    """Table II generator for a table pair (types inferred if omitted)."""
    if types is None:
        types = infer_schema_types(table_a, table_b)
    return FeatureGenerator(autoem_feature_plan(types),
                            exclude_attributes=exclude_attributes)
