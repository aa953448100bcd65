"""Character-sequence similarity functions (the "non-token-based" family).

Implements every sequence measure the paper's feature tables reference:
Levenshtein distance/similarity, Jaro, Jaro-Winkler, exact match,
Needleman-Wunsch and Smith-Waterman alignment scores.

The three O(n·m) dynamic programs (Levenshtein, Needleman-Wunsch,
Smith-Waterman) each have one batched kernel.  A kernel packs a batch of
value pairs into zero-padded code-point matrices of shape
``(n_pairs, width)`` and advances one DP row for every pair at once.  A
row is stored shifted (``d[i] - i`` for Levenshtein, ``h[i] + gap * i``
for the alignments), which turns the step along the row into a plain
``minimum.accumulate`` / ``maximum.accumulate``.  Each pair's score is
read at its own ``(len1, len2)`` cell, which no padding cell feeds, so a
pair scores the same alone as in any batch.  Pairs are sorted by
``len(s2)``, longest first, so a pair leaves the row block once done.
With integer-valued scoring parameters (the defaults) every cell is an
exactly represented integer, so the scores are exact.

The column functions (:func:`levenshtein_distances`,
:func:`needleman_wunsch_scores`, ...) score a whole column of pairs;
:mod:`repro.features.columnar` calls them once per attribute.  The
scalar functions are the same column functions on a batch of one.  A
process-wide memo, :data:`DP_MEMO`, sits in front of every kernel: a
column call looks its pairs up first and runs the kernel on the misses
only.  Feature generation applies several measures to the same value
pair (``lev_dist`` and ``lev_sim`` share one kernel run) and record
values repeat across candidate pairs and across fits.

All ``*_similarity`` functions return values in ``[0, 1]`` where 1 means
identical; distances return non-negative raw scores.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache, partial

import numpy as np

#: A value pair as the DP kernels see it (already prefix-capped).
StringPair = tuple[str, str]

#: Entry bound of :data:`DP_MEMO`.  When an insert would cross it the
#: memo is emptied first (wholesale eviction).
DP_MEMO_MAX_ENTRIES = 196_608


class DPMemo:
    """Bounded ``(kernel, s1, s2) -> raw DP score`` memo.

    Shared by every thread of the process (a
    :class:`~repro.serve.service.MatchService` scores on two).  Reads
    are lock-free dict reads; the check-clear-insert of
    :meth:`update` holds the lock, so a racing wholesale eviction can at
    worst turn a hit into a recomputation, never corrupt an entry.
    """

    def __init__(self) -> None:
        self._scores: dict[tuple, float] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._scores)

    def get(self, key: tuple) -> float | None:
        return self._scores.get(key)

    def update(self, kernel: object, scores: dict[StringPair, float]) -> None:
        """Insert ``kernel``'s scores, emptying the memo at the bound."""
        entries = {(kernel, s1, s2): score
                   for (s1, s2), score in scores.items()}
        with self._lock:
            if len(self._scores) + len(entries) > DP_MEMO_MAX_ENTRIES:
                self._scores.clear()
            self._scores.update(entries)

    def clear(self) -> None:
        with self._lock:
            self._scores.clear()


#: The memo in front of the three DP kernels.
DP_MEMO = DPMemo()


def exact_match(s1: str, s2: str) -> float:
    """1.0 if the two strings are identical, else 0.0."""
    return 1.0 if s1 == s2 else 0.0


def _code_points(strings: list[str], width: int) -> np.ndarray:
    """``(len(strings), width)`` code-point matrix, zero-padded.

    numpy's fixed-width unicode dtype stores raw UCS-4 code points, so
    astral characters and lone surrogates convert without a codec.
    """
    width = max(width, 1)
    return (np.array(strings, dtype=f"<U{width}").view(np.uint32)
            .reshape(len(strings), width))


class _Batch:
    """A batch of pairs packed for a row-by-row DP over ``s2``.

    Pairs are sorted by ``len(s2)`` descending, so the pairs still
    running at row ``j`` are the prefix ``[:active[j]]`` and the pairs
    that finish at row ``j`` are ``[active[j + 1]:active[j]]``.
    """

    def __init__(self, pairs: Sequence[StringPair]) -> None:
        len2 = np.fromiter((len(s2) for _, s2 in pairs), dtype=np.intp,
                           count=len(pairs))
        self.order = np.argsort(-len2, kind="stable")
        ordered = [pairs[k] for k in self.order]
        self.len1 = np.fromiter((len(s1) for s1, _ in ordered),
                                dtype=np.intp, count=len(ordered))
        self.rows = int(len2.max())
        self.codes1 = _code_points([s1 for s1, _ in ordered],
                                   int(self.len1.max()))
        self.codes2 = _code_points([s2 for _, s2 in ordered], self.rows)
        self.active: list[int] = np.searchsorted(
            -len2[self.order], -np.arange(self.rows + 2),
            side="right").tolist()
        self.index = np.arange(self.codes1.shape[1] + 1, dtype=np.float64)
        self.scores = np.empty(len(pairs), dtype=np.float64)

    def finished(self, j: int) -> slice:
        """The (sorted) pairs whose last DP row is ``j``."""
        return slice(self.active[j + 1], self.active[j])

    def read_cells(self, j: int, row: np.ndarray, offset: np.ndarray) -> None:
        """Store ``row[len1] + offset[len1]`` of each pair finishing at ``j``."""
        done = self.finished(j)
        if done.start < done.stop:
            cells = self.len1[done]
            self.scores[done] = (row[np.arange(done.start, done.stop), cells]
                                 + offset[cells])

    def result(self) -> np.ndarray:
        """Scores in the caller's pair order."""
        out = np.empty_like(self.scores)
        out[self.order] = self.scores
        return out


def _levenshtein_kernel(pairs: Sequence[StringPair]) -> np.ndarray:
    """Levenshtein distances of ``pairs`` (non-empty batch).

    A row holds ``d[i] - i``, so an insertion (``d[i-1] + 1``) becomes a
    plain prefix minimum and a substitution costs ``-1`` on a match.
    """
    batch = _Batch(pairs)
    row = np.zeros((len(pairs), len(batch.index)))
    batch.read_cells(0, row, batch.index)
    for j in range(1, batch.rows + 1):
        k = batch.active[j]
        prev = row[:k]
        row = np.empty_like(prev)
        row[:, 0] = j
        cells = row[:, 1:]
        same = batch.codes1[:k] == batch.codes2[:k, j - 1, None]
        np.subtract(prev[:, :-1], same, out=cells)  # substitution
        np.minimum(cells, prev[:, 1:] + 1.0, out=cells)  # deletion
        np.minimum.accumulate(row, axis=1, out=row)  # insertions
        batch.read_cells(j, row, batch.index)
    return batch.result()


def _alignment_rows(batch: _Batch, gap_cost: float, match_score: float,
                    mismatch_score: float, local: bool
                    ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(j, row)`` of the linear-gap alignment DP for each row.

    A row holds ``h[i] + gap * i``, so a gap along the row becomes a
    plain prefix maximum.  Global (Needleman-Wunsch) rows start from
    ``h[i] = -gap * i``; local (Smith-Waterman) rows start from 0 and
    floor every cell at ``h[i] = 0``.
    """
    gap_index = gap_cost * batch.index
    on_match, on_mismatch = gap_cost + match_score, gap_cost + mismatch_score
    n = len(batch.scores)
    row = (np.tile(gap_index, (n, 1)) if local
           else np.zeros((n, len(batch.index))))
    yield 0, row
    for j in range(1, batch.rows + 1):
        k = batch.active[j]
        prev = row[:k]
        row = np.empty_like(prev)
        row[:, 0] = 0.0 if local else -gap_cost * j
        cells = row[:, 1:]
        same = batch.codes1[:k] == batch.codes2[:k, j - 1, None]
        np.add(prev[:, :-1], np.where(same, on_match, on_mismatch),
               out=cells)  # substitution
        np.maximum(cells, prev[:, 1:] - gap_cost, out=cells)  # gap in s1
        np.maximum.accumulate(row, axis=1, out=row)  # gaps in s2
        if local:
            # Negative prefixes restart at zero.  Folding the floor in
            # after the scan is equivalent because any chain through a
            # negative cell is dominated by restarting at this cell.
            np.maximum(row, gap_index, out=row)
        yield j, row


def _needleman_wunsch_kernel(pairs: Sequence[StringPair], gap_cost: float,
                             match_score: float,
                             mismatch_score: float) -> np.ndarray:
    """Raw global alignment scores of ``pairs`` (non-empty batch)."""
    batch = _Batch(pairs)
    offset = -gap_cost * batch.index
    for j, row in _alignment_rows(batch, gap_cost, match_score,
                                  mismatch_score, local=False):
        batch.read_cells(j, row, offset)
    return batch.result()


def _smith_waterman_kernel(pairs: Sequence[StringPair], gap_cost: float,
                           match_score: float,
                           mismatch_score: float) -> np.ndarray:
    """Raw best local alignment scores of ``pairs`` (non-empty batch)."""
    batch = _Batch(pairs)
    # Per-pair running maximum of each column over the rows so far; a
    # finished pair's score is the maximum over its own columns only.
    best = np.zeros((len(pairs), len(batch.index)))
    own_columns = batch.index <= batch.len1[:, None]
    gap_index = gap_cost * batch.index
    for j, row in _alignment_rows(batch, gap_cost, match_score,
                                  mismatch_score, local=True):
        k = len(row)
        np.maximum(best[:k], row, out=best[:k])
        done = batch.finished(j)
        if done.start < done.stop:
            batch.scores[done] = np.where(own_columns[done],
                                          best[done] - gap_index,
                                          0.0).max(axis=1)
    return batch.result()


def _memoized_scores(kernel: Callable[[list[StringPair]], np.ndarray],
                     key: object, pairs: Sequence[StringPair]) -> np.ndarray:
    """Raw scores of ``pairs``: memo hits, plus one kernel run on the misses."""
    out = np.empty(len(pairs), dtype=np.float64)
    get = DP_MEMO.get
    missing: list[int] = []
    for k, (s1, s2) in enumerate(pairs):
        score = get((key, s1, s2))
        if score is None:
            missing.append(k)
        else:
            out[k] = score
    if missing:
        todo = list(dict.fromkeys(pairs[k] for k in missing))
        computed = dict(zip(todo, kernel(todo).tolist()))
        out[missing] = [computed[pairs[k]] for k in missing]
        DP_MEMO.update(key, computed)
    return out


def _lengths(pairs: Sequence[StringPair]) -> tuple[np.ndarray, np.ndarray]:
    len1 = np.fromiter((len(s1) for s1, _ in pairs), dtype=np.intp,
                       count=len(pairs))
    len2 = np.fromiter((len(s2) for _, s2 in pairs), dtype=np.intp,
                       count=len(pairs))
    return len1, len2


def levenshtein_distances(pairs: Sequence[StringPair]) -> np.ndarray:
    """Levenshtein distance of every ``(s1, s2)`` in ``pairs``."""
    return _memoized_scores(_levenshtein_kernel, "levenshtein", pairs)


def levenshtein_similarities(pairs: Sequence[StringPair]) -> np.ndarray:
    """:func:`levenshtein_similarity` of every ``(s1, s2)`` in ``pairs``."""
    len1, len2 = _lengths(pairs)
    longest = np.maximum(len1, len2)
    out = np.ones(len(pairs), dtype=np.float64)
    scored = np.flatnonzero(longest)
    if scored.size:
        distances = levenshtein_distances([pairs[k] for k in scored])
        out[scored] = 1.0 - distances / longest[scored]
    return out


def _alignment_scores(kernel: Callable[..., np.ndarray],
                      pairs: Sequence[StringPair], gap_cost: float,
                      match_score: float, mismatch_score: float,
                      normalize: Callable[[np.ndarray, np.ndarray,
                                           np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """Normalized alignment scores of ``pairs``.

    Two empty strings score 1.0 and one empty string 0.0; every other
    pair gets ``normalize(raw, len1, len2)`` of its memoized kernel
    score.
    """
    len1, len2 = _lengths(pairs)
    out = np.where((len1 == 0) & (len2 == 0), 1.0, 0.0)
    scored = np.flatnonzero((len1 > 0) & (len2 > 0))
    if scored.size:
        key = (kernel.__name__, gap_cost, match_score, mismatch_score)
        run = partial(kernel, gap_cost=gap_cost, match_score=match_score,
                      mismatch_score=mismatch_score)
        raw = _memoized_scores(run, key, [pairs[k] for k in scored])
        out[scored] = normalize(raw, len1[scored], len2[scored])
    return out


def needleman_wunsch_scores(pairs: Sequence[StringPair],
                            gap_cost: float = 1.0, match_score: float = 1.0,
                            mismatch_score: float = 0.0) -> np.ndarray:
    """:func:`needleman_wunsch` of every ``(s1, s2)`` in ``pairs``."""
    def normalize(raw: np.ndarray, len1: np.ndarray,
                  len2: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.minimum(
            1.0, raw / (match_score * np.maximum(len1, len2))))
    return _alignment_scores(_needleman_wunsch_kernel, pairs, gap_cost,
                             match_score, mismatch_score, normalize)


def smith_waterman_scores(pairs: Sequence[StringPair], gap_cost: float = 1.0,
                          match_score: float = 1.0,
                          mismatch_score: float = 0.0) -> np.ndarray:
    """:func:`smith_waterman` of every ``(s1, s2)`` in ``pairs``."""
    def normalize(raw: np.ndarray, len1: np.ndarray,
                  len2: np.ndarray) -> np.ndarray:
        return raw / (match_score * np.minimum(len1, len2))
    return _alignment_scores(_smith_waterman_kernel, pairs, gap_cost,
                             match_score, mismatch_score, normalize)


def levenshtein_distance(s1: str, s2: str) -> float:
    """Minimum number of single-character edits turning ``s1`` into ``s2``.

    >>> levenshtein_distance("new yrk", "new york")
    1.0
    """
    return float(levenshtein_distances([(s1, s2)])[0])


def levenshtein_similarity(s1: str, s2: str) -> float:
    """Levenshtein distance normalized into a ``[0, 1]`` similarity.

    ``1 - dist / max(len(s1), len(s2))``; two empty strings score 1.0.
    """
    return float(levenshtein_similarities([(s1, s2)])[0])


@lru_cache(maxsize=65536)
def jaro_similarity(s1: str, s2: str) -> float:
    """Jaro similarity: transposition-aware common-character matching.

    Returns 1.0 for identical strings, 0.0 when nothing matches.
    """
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = max(len1, len2) // 2 - 1
    window = max(window, 0)
    matched1 = [False] * len1
    matched2 = [False] * len2
    matches = 0
    for i, c1 in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len2, i + window + 1)
        for j in range(lo, hi):
            if not matched2[j] and s2[j] == c1:
                matched1[i] = True
                matched2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    # Count transpositions between the matched subsequences.
    transpositions = 0
    j = 0
    for i in range(len1):
        if matched1[i]:
            while not matched2[j]:
                j += 1
            if s1[i] != s2[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


def jaro_winkler_similarity(s1: str, s2: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by up to a 4-char common prefix.

    ``prefix_weight`` must be in ``[0, 0.25]`` to keep the result <= 1.
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    jaro = jaro_similarity(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def needleman_wunsch(s1: str, s2: str, gap_cost: float = 1.0,
                     match_score: float = 1.0, mismatch_score: float = 0.0) -> float:
    """Global alignment score (Needleman-Wunsch), normalized to ``[0, 1]``.

    The raw score aligns the full strings with linear gap penalties; it is
    normalized by the longer string length so it composes with the other
    similarities.  Two empty strings score 1.0.
    """
    return float(needleman_wunsch_scores([(s1, s2)], gap_cost, match_score,
                                         mismatch_score)[0])


def smith_waterman(s1: str, s2: str, gap_cost: float = 1.0,
                   match_score: float = 1.0, mismatch_score: float = 0.0) -> float:
    """Local alignment score (Smith-Waterman), normalized to ``[0, 1]``.

    Finds the best-scoring local alignment; normalized by the shorter
    string length (the maximum achievable local score).  Two empty
    strings score 1.0; one empty string scores 0.0.
    """
    return float(smith_waterman_scores([(s1, s2)], gap_cost, match_score,
                                       mismatch_score)[0])
