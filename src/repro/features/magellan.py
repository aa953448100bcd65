"""Magellan's rule-based feature generation (Table I).

For every attribute, the similarity functions applied depend on the
attribute's inferred :class:`~repro.features.types.DataType`: e.g. a
single-word string gets 6 measures, a long string only 2.  This is the
"human heuristic" baseline the AutoML-EM generator (Table II) relaxes.
"""

from __future__ import annotations

from .types import DataType

#: Table I verbatim: data type → similarity measure names (registry keys).
TABLE_I: dict[DataType, tuple[str, ...]] = {
    DataType.SINGLE_WORD: (
        "lev_dist", "lev_sim", "jaro", "exact_match", "jaro_winkler",
        "jaccard_3gram",
    ),
    DataType.WORDS_1_5: (
        "lev_dist", "lev_sim", "needleman_wunsch", "smith_waterman",
        "monge_elkan", "cosine_space", "jaccard_space", "jaccard_3gram",
    ),
    DataType.WORDS_5_10: (
        "lev_dist", "lev_sim", "monge_elkan", "cosine_space",
        "jaccard_3gram",
    ),
    DataType.LONG_TEXT: (
        "cosine_space", "jaccard_3gram",
    ),
    DataType.NUMERIC: (
        "num_lev_dist", "num_lev_sim", "num_exact_match", "abs_norm",
    ),
    DataType.BOOLEAN: (
        "bool_exact_match",
    ),
}


def magellan_feature_plan(types: dict[str, DataType]
                          ) -> list[tuple[str, str]]:
    """Expand a typed schema into ``(attribute, measure)`` feature slots.

    >>> magellan_feature_plan({"city": DataType.SINGLE_WORD})[:2]
    [('city', 'lev_dist'), ('city', 'lev_sim')]
    """
    plan = []
    for attribute, dtype in types.items():
        for measure in TABLE_I[dtype]:
            plan.append((attribute, measure))
    return plan
