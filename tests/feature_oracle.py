"""The row-at-a-time feature loop every fast featurization path matches.

:meth:`repro.features.FeatureGenerator.transform` scores deduplicated
value pairs column by column (:mod:`repro.features.columnar`), in one
process or over a pool.  :func:`transform_naive` is the plain reading
of a feature plan instead: for each pair and each ``(attribute,
measure)`` slot, call the measure on the two attribute values.  The
equivalence tests and ``benchmarks/bench_featuregen.py`` (its baseline
path) compare against it bit for bit.  It shares the similarity
functions with production, so the similarity kernels themselves are
checked against ``sequence_oracle.py``, not against this loop.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import PairSet
from repro.features import FeatureGenerator
from repro.similarity import get_measure


def transform_naive(generator: FeatureGenerator,
                    pairs: PairSet) -> np.ndarray:
    """``generator``'s feature matrix for ``pairs``, one cell at a time
    (``inf`` becomes ``nan``, as on every production path)."""
    measures = [(attribute, get_measure(name))
                for attribute, name in generator.plan]
    matrix = np.empty((len(pairs), len(measures)), dtype=np.float64)
    for i, pair in enumerate(pairs):
        for j, (attribute, measure) in enumerate(measures):
            matrix[i, j] = measure(pair.left.get(attribute),
                                   pair.right.get(attribute))
    np.copyto(matrix, np.nan, where=np.isinf(matrix))
    return matrix
