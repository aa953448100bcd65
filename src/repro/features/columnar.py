"""Column-oriented batch execution of feature plans.

The naive feature path walks ``pairs × measures`` row by row, calling
:meth:`~repro.similarity.registry.SimilarityMeasure.__call__` half a
million times for a Table II plan over a few thousand candidates — and
tokenizing every string once per token measure.  This engine reorganizes
the same work column-first:

1. **Group by attribute.**  The plan's slots are bucketed per attribute
   so each attribute's left/right values are extracted from the pair set
   exactly once.
2. **Deduplicate value pairs.**  Blocking output (and active-learning
   pools) repeat records heavily, so the unique ``(v1, v2)`` pairs per
   attribute are far fewer than the pair count.  Measures are scored over
   unique pairs only; results are scattered back with one fancy-indexed
   assignment per attribute.
3. **Share tokenization and counts.**  All set measures of a tokenizer
   family (SPACE, QGRAM3) read tokens from one token memo (a
   :class:`~repro.concurrency.BoundedMemo`), so each unique string is
   tokenized once per tokenizer, and they score
   one ``(|T1|, |T2|, |T1 ∩ T2|)`` count pass per unique value pair
   (:meth:`~repro.similarity.registry.SimilarityMeasure.score_counts`).
4. **One DP kernel run per transform.**  Levenshtein, Needleman-Wunsch
   and Smith-Waterman are layers of one stacked kernel.  Before any
   measure is scored, the unique, prefix-capped value pairs of *every*
   attribute with a DP measure, plus the rendered numbers of the
   ``num_lev_*`` measures, go through
   :func:`~repro.similarity.sequence.fill_memo`, each under the layer
   its measure reads: one kernel run per set of layers (a Table II
   string attribute's pairs take all three, the rendered numbers only
   Levenshtein), on the pairs the memo misses.  The DP column calls that
   follow
   (:meth:`~repro.similarity.registry.SimilarityMeasure.score_column`)
   read the memo.  A serving request of ~40 candidate pairs thus pays
   the kernel's fixed per-run cost once or twice, not once per attribute
   and DP.  A fit-sized transform, whose misses would not fit the memo,
   skips the shared run: its column calls run the kernel one layer at a
   time, as they would without it.

Scores are guarded ``inf -> nan`` so unbounded distance measures cannot
leak infinities into feature matrices (imputation handles ``nan``; it
does not handle ``inf``).  The result is bit-identical to the naive
reference loop — ``tests/test_features_columnar.py`` enforces it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..concurrency import BoundedMemo
from ..similarity import sequence
from ..similarity.registry import token_counts_column

if TYPE_CHECKING:
    from ..similarity.registry import SimilarityMeasure
    from ..similarity.tokenizers import Tokenizer

#: Raw attribute value as stored in a record: the engine scores whatever
#: the tables hold (strings, numbers, bools, ``None``).
Value = object

#: Value types whose ``-0.0`` and ``0.0`` compare and hash equal but
#: render differently (:func:`_value_key`).
_FLOAT_TYPES = (float, np.floating)


def score_value_pairs(measures: Sequence["SimilarityMeasure"],
                      value_pairs: Sequence[tuple[Value, Value]],
                      token_cache: BoundedMemo | None = None) -> np.ndarray:
    """Score ``measures`` over raw ``(v1, v2)`` tuples.

    Returns a ``(len(value_pairs), len(measures))`` float matrix with the
    ``inf -> nan`` guard applied.  ``token_cache``, a
    ``(tokenizer_name, string) -> tokens`` memo, is shared across all
    token-based measures in the list, and the set measures of one
    tokenizer share one token-count pass.
    """
    cache = BoundedMemo() if token_cache is None else token_cache
    counts: dict["Tokenizer", list] = {}
    out = np.empty((len(value_pairs), len(measures)), dtype=np.float64)
    for j, measure in enumerate(measures):
        tokenizer = measure.tokenizer
        if tokenizer is None:
            out[:, j] = measure.score_column(value_pairs, cache)
            continue
        if tokenizer not in counts:
            counts[tokenizer] = token_counts_column(tokenizer, value_pairs,
                                                    cache)
        out[:, j] = measure.score_counts(counts[tokenizer])
    np.copyto(out, np.nan, where=np.isinf(out))
    return out


def _fill_dp_memo(groups: Sequence[tuple[Sequence["SimilarityMeasure"],
                                         Sequence[tuple[Value, Value]]]]
                  ) -> None:
    """Score the DP pairs of every ``(measures, value_pairs)`` group,
    each under its measure's layer, so the DP column calls that follow
    hit the memo."""
    sequence.fill_memo(
        (measure.dp_layer, measure.dp_pairs(value_pairs))
        for measures, value_pairs in groups
        for measure in measures if measure.dp_layer is not None)


def _value_key(value: Value) -> tuple:
    """Type-tagged dedup key for one attribute value.

    The class tag keeps ``True``/``1.0`` apart (they hash equal but
    render to different strings).  Floats, numpy's included, additionally
    key on ``repr``: ``-0.0 == 0.0`` with equal hashes, yet string
    measures see ``"-0.0"`` vs ``"0.0"``, so they must not collapse into
    one entry.
    """
    if isinstance(value, _FLOAT_TYPES):
        return (value.__class__, repr(value))
    return (value.__class__, value)


def _unique_value_pairs(pairs: Sequence,
                        attribute: str
                        ) -> tuple[list[tuple[Value, Value]], np.ndarray]:
    """One attribute's deduplicated value pairs and the scatter index."""
    index_of: dict[tuple, int] = {}
    unique: list[tuple[Value, Value]] = []
    inverse = np.empty(len(pairs), dtype=np.intp)
    for i, pair in enumerate(pairs):
        v1 = pair.left.get(attribute)
        v2 = pair.right.get(attribute)
        key = (_value_key(v1), _value_key(v2))
        j = index_of.get(key)
        if j is None:
            j = len(unique)
            index_of[key] = j
            unique.append((v1, v2))
        inverse[i] = j
    return unique, inverse


def columnar_transform(measures: Sequence[tuple[str, "SimilarityMeasure"]],
                       pairs: Sequence, *,
                       token_cache: BoundedMemo | None = None
                       ) -> np.ndarray:
    """Materialize a feature plan column-first over ``pairs``.

    ``measures`` is the bound plan: a list of ``(attribute, measure)``
    with :class:`~repro.similarity.registry.SimilarityMeasure` objects,
    one per output column in order.  ``pairs`` is any iterable of
    record pairs with a stable length (``PairSet`` or a list).
    """
    matrix = np.empty((len(pairs), len(measures)), dtype=np.float64)
    groups: dict[str, list] = {}
    for column, (attribute, measure) in enumerate(measures):
        groups.setdefault(attribute, []).append((column, measure))
    per_attribute = []
    for attribute, slots in groups.items():
        unique, inverse = _unique_value_pairs(pairs, attribute)
        per_attribute.append((slots, unique, inverse))
    cache = BoundedMemo() if token_cache is None else token_cache
    _fill_dp_memo([([m for _, m in slots], unique)
                   for slots, unique, _ in per_attribute])
    for slots, unique, inverse in per_attribute:
        scores = score_value_pairs([m for _, m in slots], unique, cache)
        matrix[:, [c for c, _ in slots]] = scores[inverse, :]
    return matrix
