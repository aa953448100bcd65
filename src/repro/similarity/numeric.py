"""Numeric and boolean similarity functions from Tables I/II.

The paper treats numbers both as strings (Levenshtein on their decimal
rendering) and as magnitudes (absolute norm); booleans only support exact
match.  Missing values propagate as ``nan`` so downstream imputation (a
data-preprocessing component in the AutoML space) can handle them.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .sequence import (
    StringPair,
    levenshtein_distances,
    levenshtein_similarities,
)

#: A parsed numeric value pair, as the numeric column functions take it.
NumberPair = tuple[float, float]


def _render(value: float) -> str:
    """Render a number the way Magellan feeds it to string measures."""
    if float(value).is_integer():
        return str(int(value))
    return str(value)


def numeric_exact_match(v1: float, v2: float) -> float:
    """1.0 when the two numbers are equal, 0.0 otherwise (nan-propagating)."""
    if math.isnan(v1) or math.isnan(v2):
        return float("nan")
    return 1.0 if v1 == v2 else 0.0


def absolute_norm(v1: float, v2: float) -> float:
    """``1 - |v1 - v2| / max(|v1|, |v2|)``, the Magellan Abs-Norm measure.

    Both zero scores 1.0; a negative result is clipped to 0.0.
    """
    if math.isnan(v1) or math.isnan(v2):
        return float("nan")
    denom = max(abs(v1), abs(v2))
    if denom == 0.0:  # repro-lint: disable=REP005 - exact-zero denominator guard
        return 1.0
    return max(0.0, 1.0 - abs(v1 - v2) / denom)


def renderings(pairs: Sequence[NumberPair]
               ) -> tuple[list[int], list[StringPair]]:
    """Positions of the pairs with no ``nan`` side, and their renderings."""
    scored = [k for k, (v1, v2) in enumerate(pairs)
              if not (math.isnan(v1) or math.isnan(v2))]
    return scored, [(_render(pairs[k][0]), _render(pairs[k][1]))
                    for k in scored]


def _on_renderings(column: Callable[[list[StringPair]], np.ndarray],
                   pairs: Sequence[NumberPair]) -> np.ndarray:
    """``column`` over the renderings of ``pairs``; ``nan`` where a side is."""
    out = np.full(len(pairs), np.nan)
    scored, strings = renderings(pairs)
    if scored:
        out[scored] = column(strings)
    return out


def numeric_levenshtein_distances(pairs: Sequence[NumberPair]) -> np.ndarray:
    """:func:`numeric_levenshtein_distance` of every pair in ``pairs``."""
    return _on_renderings(levenshtein_distances, pairs)


def numeric_levenshtein_similarities(pairs: Sequence[NumberPair]
                                     ) -> np.ndarray:
    """:func:`numeric_levenshtein_similarity` of every pair in ``pairs``."""
    return _on_renderings(levenshtein_similarities, pairs)


def numeric_levenshtein_distance(v1: float, v2: float) -> float:
    """Levenshtein distance between the decimal renderings of two numbers."""
    return float(numeric_levenshtein_distances([(v1, v2)])[0])


def numeric_levenshtein_similarity(v1: float, v2: float) -> float:
    """Normalized Levenshtein similarity between decimal renderings."""
    return float(numeric_levenshtein_similarities([(v1, v2)])[0])


def boolean_exact_match(v1: object, v2: object) -> float:
    """1.0 when the two booleans agree; nan when either side is missing."""
    if v1 is None or v2 is None:
        return float("nan")
    return 1.0 if bool(v1) == bool(v2) else 0.0
