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
   family (SPACE, QGRAM3) read tokens from one :class:`TokenCache`, so
   each unique string is tokenized once per tokenizer, and they score
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
5. **Optional process pool.**  For large candidate sets the unique pairs
   are chunked across ``n_jobs`` workers; below
   :data:`PARALLEL_MIN_UNIQUE_PAIRS` total unique pairs the sequential
   path is used (pool startup would dominate).

Scores are guarded ``inf -> nan`` so unbounded distance measures cannot
leak infinities into feature matrices (imputation handles ``nan``; it
does not handle ``inf``).  All paths are bit-identical to the naive
reference loop — ``tests/test_features_columnar.py`` enforces it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..similarity import sequence
from ..similarity.registry import token_counts_column

if TYPE_CHECKING:
    from ..similarity.registry import SimilarityMeasure
    from ..similarity.tokenizers import Tokenizer

#: Raw attribute value as stored in a record: the engine scores whatever
#: the tables hold (strings, numbers, bools, ``None``).
Value = object

#: Below this many unique value pairs per transform the process pool is
#: not worth its startup cost and the sequential path runs instead.
PARALLEL_MIN_UNIQUE_PAIRS = 2048

#: Smallest chunk of unique value pairs shipped to one worker task.
_MIN_CHUNK = 128


class TokenCache(dict):
    """Bounded ``(tokenizer_name, string) -> tokens`` memo.

    Shared by every token-based measure of a transform (and across
    repeated single-pair scoring).  Eviction is wholesale: when the entry
    cap is hit the cache is cleared — tokenization is cheap enough that
    an occasional cold restart beats per-entry LRU bookkeeping.

    The check-then-clear-then-insert in :meth:`__setitem__` is a
    compound operation, so it holds a lock: a generator-level cache is
    shared by every scoring thread a
    :class:`~repro.serve.service.MatchService` runs.  Reads stay
    lock-free dict reads — a racing wholesale eviction can at worst turn
    a hit into a recomputation, never corrupt an entry.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()

    def __setitem__(self, key: object, value: object) -> None:
        with self._lock:
            if len(self) >= self.max_entries:
                self.clear()
            super().__setitem__(key, value)

    def __reduce__(self) -> tuple:
        # The default dict-subclass pickling restores items through
        # __setitem__ *before* __init__ runs, when max_entries does not
        # exist yet; reconstruct through the constructor instead.  Cached
        # entries are deliberately dropped — a memo is cheap to refill
        # and only bloats pickled blockers and persisted block indexes.
        return (type(self), (self.max_entries,))


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``None``->1, negatives count from
    the CPU count (``-1`` = all cores, joblib-style)."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must be >= 1 or negative (-1 = all cores)")
    if n_jobs < 0:
        n_jobs = max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs


def score_value_pairs(measures: Sequence["SimilarityMeasure"],
                      value_pairs: Sequence[tuple[Value, Value]],
                      token_cache: TokenCache | None = None,
                      sequence_max_chars: int | None = None) -> np.ndarray:
    """Score ``measures`` over raw ``(v1, v2)`` tuples.

    Returns a ``(len(value_pairs), len(measures))`` float matrix with the
    ``inf -> nan`` guard applied.  ``token_cache`` is shared across all
    token-based measures in the list, and the set measures of one
    tokenizer share one token-count pass.
    """
    cache = TokenCache() if token_cache is None else token_cache
    counts: dict["Tokenizer", list] = {}
    out = np.empty((len(value_pairs), len(measures)), dtype=np.float64)
    for j, measure in enumerate(measures):
        tokenizer = measure.tokenizer
        if tokenizer is None:
            out[:, j] = measure.score_column(value_pairs, cache,
                                             sequence_max_chars)
            continue
        if tokenizer not in counts:
            counts[tokenizer] = token_counts_column(tokenizer, value_pairs,
                                                    cache)
        out[:, j] = measure.score_counts(counts[tokenizer])
    np.copyto(out, np.nan, where=np.isinf(out))
    return out


def _fill_dp_memo(groups: Sequence[tuple[Sequence["SimilarityMeasure"],
                                         Sequence[tuple[Value, Value]]]],
                  sequence_max_chars: int | None) -> None:
    """Score the DP pairs of every ``(measures, value_pairs)`` group,
    each under its measure's layer, so the DP column calls that follow
    hit the memo."""
    sequence.fill_memo(
        (measure.dp_layer, measure.dp_pairs(value_pairs, sequence_max_chars))
        for measures, value_pairs in groups
        for measure in measures if measure.dp_layer is not None)


def _score_chunk(measures: Sequence["SimilarityMeasure"],
                 value_pairs: Sequence[tuple[Value, Value]],
                 sequence_max_chars: int | None) -> np.ndarray:
    """Worker task: score one chunk of unique value pairs (picklable)."""
    _fill_dp_memo([(measures, value_pairs)], sequence_max_chars)
    return score_value_pairs(measures, value_pairs,
                             sequence_max_chars=sequence_max_chars)


def _value_key(value: Value) -> tuple:
    """Type-tagged dedup key for one attribute value.

    The class tag keeps ``True``/``1.0`` apart (they hash equal but
    render to different strings).  Floats additionally key on ``repr``:
    ``-0.0 == 0.0`` with equal hashes, yet string measures see
    ``"-0.0"`` vs ``"0.0"``, so they must not collapse into one entry.
    """
    if value.__class__ is float:
        return (float, repr(value))
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
                       pairs: Sequence, *, n_jobs: int | None = 1,
                       token_cache: TokenCache | None = None,
                       sequence_max_chars: int | None = None
                       ) -> np.ndarray:
    """Materialize a feature plan column-first over ``pairs``.

    ``measures`` is the bound plan: a list of ``(attribute, measure)``
    with :class:`~repro.similarity.registry.SimilarityMeasure` objects,
    one per output column in order.  ``pairs`` is any iterable of
    record pairs with a stable length (``PairSet`` or a list).
    """
    n_jobs = resolve_n_jobs(n_jobs)
    matrix = np.empty((len(pairs), len(measures)), dtype=np.float64)
    groups: dict[str, list] = {}
    for column, (attribute, measure) in enumerate(measures):
        groups.setdefault(attribute, []).append((column, measure))
    per_attribute = []
    total_unique = 0
    for attribute, slots in groups.items():
        unique, inverse = _unique_value_pairs(pairs, attribute)
        per_attribute.append((slots, unique, inverse))
        total_unique += len(unique)
    if n_jobs > 1 and total_unique >= PARALLEL_MIN_UNIQUE_PAIRS:
        _transform_parallel(matrix, per_attribute, n_jobs,
                            sequence_max_chars)
    else:
        cache = TokenCache() if token_cache is None else token_cache
        _fill_dp_memo([([m for _, m in slots], unique)
                       for slots, unique, _ in per_attribute],
                      sequence_max_chars)
        for slots, unique, inverse in per_attribute:
            scores = score_value_pairs([m for _, m in slots], unique,
                                       cache, sequence_max_chars)
            matrix[:, [c for c, _ in slots]] = scores[inverse, :]
    return matrix


def _transform_parallel(matrix: np.ndarray, per_attribute: list,
                        n_jobs: int,
                        sequence_max_chars: int | None) -> None:
    """Chunk unique pairs across a process pool and scatter the results.

    Chunking is per attribute so a worker scores every measure of its
    attribute over its chunk with one shared token cache and one DP
    kernel run — the same cache locality the sequential path has, minus
    cross-chunk reuse.
    """
    unique_scores = [np.empty((len(unique), len(slots)), dtype=np.float64)
                     for slots, unique, _ in per_attribute]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        tasks = []
        for gi, (slots, unique, _) in enumerate(per_attribute):
            measure_list = [m for _, m in slots]
            chunk = max(_MIN_CHUNK, -(-len(unique) // (2 * n_jobs)))
            for start in range(0, len(unique), chunk):
                future = pool.submit(_score_chunk, measure_list,
                                     unique[start:start + chunk],
                                     sequence_max_chars)
                tasks.append((gi, start, future))
        for gi, start, future in tasks:
            block = future.result()
            unique_scores[gi][start:start + len(block)] = block
    for (slots, _, inverse), scores in zip(per_attribute, unique_scores):
        matrix[:, [c for c, _ in slots]] = scores[inverse, :]
