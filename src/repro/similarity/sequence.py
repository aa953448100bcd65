"""Character-sequence similarity functions (the "non-token-based" family).

Implements every sequence measure the paper's feature tables reference:
Levenshtein distance/similarity, Jaro, Jaro-Winkler, exact match,
Needleman-Wunsch and Smith-Waterman alignment scores.

The three O(n·m) dynamic programs (Levenshtein, Needleman-Wunsch,
Smith-Waterman) share one batched kernel, :func:`_dp_kernel`.  Each DP
is a :class:`Layer` of a linear-gap alignment: ``(gap, match, mismatch,
local)``.  Needleman-Wunsch is a global layer, Smith-Waterman a local
one, and Levenshtein the global layer ``(1, 0, -1)``, whose raw score is
minus the edit distance.  The kernel packs a batch of value pairs into
zero-padded code-point matrices of shape ``(n_pairs, width)`` and
advances one DP row of every layer for every pair at once, as a stacked
``(layers, n_pairs, width)`` block that shares one ``codes1 == codes2``
mask per row.  A row is stored shifted (``h[i] + gap * i``), which turns
the step along the row into a plain ``maximum.accumulate``.  Each pair's
score is read at its own ``(len1, len2)`` cell, which no padding cell
feeds, so a pair scores the same alone, in any batch and beside any
other layers.  Pairs are sorted by ``len(s2)``, longest first, so a pair
leaves the row block once done.  A long run goes through the kernel in
blocks of at most :data:`_KERNEL_BLOCK_ROWS` ``(layer, pair)`` rows, so
its memory stays bounded however many pairs it scores.  With
integer-valued scoring parameters (the defaults) every cell is an
exactly represented integer, so the scores are exact.

The column functions (:func:`levenshtein_distances`,
:func:`needleman_wunsch_scores`, ...) score a whole column of pairs
under one layer; the scalar functions are the same column functions on
a batch of one.  A process-wide memo, :data:`DP_MEMO`, keyed per layer,
sits in front of the kernel: a column call looks its pairs up first and
runs the kernel on the misses only.  :func:`fill_memo` scores the pairs
of several columns, each under its own layer, with one kernel run per
set of layers; :mod:`repro.features.columnar` calls it once per
transform with the pairs of every attribute, so the column calls that
follow are memo hits.  It fills nothing when the misses would not fit
the memo together (a fit-sized transform): the memo would evict them
before the column calls read them, so those calls run the kernel
themselves, one layer at a time.  Feature generation applies several
measures to the same value pair (``lev_dist`` and ``lev_sim`` share one
layer) and record values repeat across candidate pairs and across fits.

All ``*_similarity`` functions return values in ``[0, 1]`` where 1 means
identical; distances return non-negative raw scores.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

#: A value pair as the DP kernel sees it (already prefix-capped).
StringPair = tuple[str, str]

#: Entry bound of :data:`DP_MEMO`.  When an insert would cross it the
#: memo is emptied first (wholesale eviction).
DP_MEMO_MAX_ENTRIES = 196_608

#: Most ``(layer, pair)`` rows the kernel advances at once; a longer run
#: goes in blocks.  At the default 64-character prefix cap a block's row
#: array is about 2 MB.
_KERNEL_BLOCK_ROWS = 4096


class Layer(NamedTuple):
    """One linear-gap alignment DP the kernel can run.

    A match scores ``match``, a mismatch ``mismatch`` and every gap
    character costs ``gap``.  A global layer aligns the whole strings; a
    local layer scores the best-aligned pair of substrings.  ``gap``
    must be non-negative.
    """

    gap: float
    match: float
    mismatch: float
    local: bool


#: Levenshtein as an alignment: the raw score is minus the distance.
LEVENSHTEIN = Layer(1.0, 0.0, -1.0, local=False)

#: Needleman-Wunsch and Smith-Waterman at the default scoring parameters
#: of their functions.
NEEDLEMAN_WUNSCH = Layer(1.0, 1.0, 0.0, local=False)
SMITH_WATERMAN = Layer(1.0, 1.0, 0.0, local=True)


class DPMemo:
    """Bounded ``(layer, s1, s2) -> raw DP score`` memo.

    Shared by every thread of the process (a
    :class:`~repro.serve.service.MatchService` scores on two).  Reads
    are lock-free dict reads; the check-clear-insert of
    :meth:`update` holds the lock, so a racing wholesale eviction can at
    worst turn a hit into a recomputation, never corrupt an entry.
    """

    def __init__(self) -> None:
        self._scores: dict[tuple, float] = {}
        self._lock = threading.Lock()
        # The dict's own ``get``: a read costs no Python-level call.
        self.get: Callable[[tuple], float | None] = self._scores.get

    def __len__(self) -> int:
        return len(self._scores)

    def update(self, scores: dict[tuple, float]) -> None:
        """Insert ``(layer, s1, s2) -> score`` entries, emptying the memo
        at the bound.

        An update larger than the bound keeps its first
        :data:`DP_MEMO_MAX_ENTRIES` entries.
        """
        bound = DP_MEMO_MAX_ENTRIES
        if len(scores) > bound:
            scores = dict(islice(scores.items(), bound))
        with self._lock:
            if len(self._scores) + len(scores) > bound:
                self._scores.clear()
            self._scores.update(scores)

    def clear(self) -> None:
        with self._lock:
            self._scores.clear()


#: The memo in front of the DP kernel.
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

    def finished(self, j: int) -> slice:
        """The (sorted) pairs whose last DP row is ``j``."""
        return slice(self.active[j + 1], self.active[j])


def _dp_kernel(pairs: Sequence[StringPair],
               layers: Sequence[Layer]) -> np.ndarray:
    """Raw scores of ``pairs`` under each layer, ``(len(layers), n)``.

    ``pairs`` is a non-empty batch.  The row block holds the global
    layers first, then the local ones.  A row holds ``h[i] + gap * i``:
    global rows start from ``h[i] = -gap * i``, local rows from 0.  Each
    row step is a substitution, a gap in ``s1`` and a prefix maximum for
    the gaps in ``s2``; local rows then take the zero floor and fold
    into a per-pair running best of each column.
    """
    batch = _Batch(pairs)
    order = sorted(range(len(layers)), key=lambda i: layers[i].local)
    stack = [layers[i] for i in order]
    n_global = sum(not layer.local for layer in stack)
    has_global, has_local = n_global > 0, n_global < len(stack)
    local = slice(n_global, len(stack))
    # One value per layer, shaped to broadcast over the row block.
    gap, on_match, on_mismatch, first = np.array(
        [(layer.gap, layer.gap + layer.match, layer.gap + layer.mismatch,
          0.0 if layer.local else -layer.gap) for layer in stack],
        dtype=np.float64).T[..., None, None]
    gap_index = gap * batch.index
    # A global pair's score is its cell minus the shift; a local pair's
    # is the maximum over its own columns of the unshifted running best.
    offset = -gap_index[:n_global, 0]
    own_columns = batch.index <= batch.len1[:, None]
    scores = np.empty((len(stack), len(pairs)))

    row = np.zeros((len(stack), len(pairs), len(batch.index)))
    row[local] = gap_index[local]
    best = np.zeros_like(row[local])
    for j in range(batch.rows + 1):
        k = batch.active[j]
        if j:
            prev = row[:, :k]
            row = np.empty_like(prev)
            row[..., :1] = first * j
            cells = row[..., 1:]
            same = batch.codes1[:k] == batch.codes2[:k, j - 1, None]
            np.add(prev[..., :-1], np.where(same, on_match, on_mismatch),
                   out=cells)  # substitution
            np.maximum(cells, prev[..., 1:] - gap, out=cells)  # gap in s1
            np.maximum.accumulate(row, axis=-1, out=row)  # gaps in s2
            if has_local:
                # Negative prefixes restart at zero.  Folding the floor
                # in after the scan is equivalent because any chain
                # through a negative cell is dominated by restarting at
                # this cell.
                np.maximum(row[local], gap_index[local], out=row[local])
        if has_local:
            np.maximum(best[:, :k], row[local], out=best[:, :k])
        done = batch.finished(j)
        if done.start < done.stop:
            ends = batch.len1[done]
            if has_global:
                scores[:n_global, done] = (
                    row[:n_global, np.arange(done.start, done.stop), ends]
                    + offset[:, ends])
            if has_local:
                scores[local, done] = np.where(
                    own_columns[done], best[:, done] - gap_index[local],
                    0.0).max(axis=-1)
    out = np.empty_like(scores)
    out[np.array(order)[:, None], batch.order] = scores
    return out


def _run(layers: Sequence[Layer],
         pairs: Sequence[StringPair]) -> dict[tuple, float]:
    """``(layer, s1, s2) -> raw score`` of every pair under every layer.

    One kernel run, in blocks of at most :data:`_KERNEL_BLOCK_ROWS` rows.
    """
    step = max(1, _KERNEL_BLOCK_ROWS // len(layers))
    scores: dict[tuple, float] = {}
    for start in range(0, len(pairs), step):
        block = pairs[start:start + step]
        for layer, raw in zip(layers, _dp_kernel(block, layers).tolist()):
            scores.update(zip([(layer, s1, s2) for s1, s2 in block], raw))
    return scores


def fill_memo(wanted: Iterable[tuple[Layer, Iterable[StringPair]]]) -> None:
    """Memoize the score of every ``(layer, pairs)`` in ``wanted``.

    The pairs that miss the memo under the same set of layers share one
    kernel run, and the memo takes all runs in one update.  Nothing is
    filled when the misses exceed :data:`DP_MEMO_MAX_ENTRIES`: the memo
    would evict them before they were read.
    """
    get = DP_MEMO.get
    missing: dict[StringPair, set[Layer]] = {}
    for layer, pairs in wanted:
        for s1, s2 in pairs:
            if get((layer, s1, s2)) is None:
                missing.setdefault((s1, s2), set()).add(layer)
    if sum(map(len, missing.values())) > DP_MEMO_MAX_ENTRIES:
        return
    runs: dict[tuple[Layer, ...], list[StringPair]] = {}
    for pair, layers in missing.items():
        runs.setdefault(tuple(sorted(layers)), []).append(pair)
    scores: dict[tuple, float] = {}
    for layers, pairs in runs.items():
        scores.update(_run(layers, pairs))
    DP_MEMO.update(scores)


def _memoized_scores(layer: Layer, pairs: Sequence[StringPair]) -> np.ndarray:
    """Raw scores of ``pairs``: memo hits, plus one kernel run on the misses."""
    out = np.empty(len(pairs), dtype=np.float64)
    get = DP_MEMO.get
    missing: list[int] = []
    for k, (s1, s2) in enumerate(pairs):
        score = get((layer, s1, s2))
        if score is None:
            missing.append(k)
        else:
            out[k] = score
    if missing:
        computed = _run([layer], list(dict.fromkeys(pairs[k] for k in missing)))
        DP_MEMO.update(computed)
        out[missing] = [computed[(layer, *pairs[k])] for k in missing]
    return out


def _lengths(pairs: Sequence[StringPair]) -> tuple[np.ndarray, np.ndarray]:
    len1 = np.fromiter((len(s1) for s1, _ in pairs), dtype=np.intp,
                       count=len(pairs))
    len2 = np.fromiter((len(s2) for _, s2 in pairs), dtype=np.intp,
                       count=len(pairs))
    return len1, len2


def levenshtein_distances(pairs: Sequence[StringPair]) -> np.ndarray:
    """Levenshtein distance of every ``(s1, s2)`` in ``pairs``."""
    # ``0.0 - raw``, not ``-raw``: equal strings score ``+0.0``.
    return 0.0 - _memoized_scores(LEVENSHTEIN, pairs)


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


def alignment_scores(layer: Layer,
                     pairs: Sequence[StringPair]) -> np.ndarray:
    """Normalized alignment scores of ``pairs`` under ``layer``.

    A global layer gives :func:`needleman_wunsch`, a local one
    :func:`smith_waterman`.  Two empty strings score 1.0 and one empty
    string 0.0.
    """
    len1, len2 = _lengths(pairs)
    out = np.where((len1 == 0) & (len2 == 0), 1.0, 0.0)
    scored = np.flatnonzero((len1 > 0) & (len2 > 0))
    if scored.size:
        raw = _memoized_scores(layer, [pairs[k] for k in scored])
        len1, len2 = len1[scored], len2[scored]
        if layer.local:
            out[scored] = raw / (layer.match * np.minimum(len1, len2))
        else:
            out[scored] = np.maximum(0.0, np.minimum(
                1.0, raw / (layer.match * np.maximum(len1, len2))))
    return out


def needleman_wunsch_scores(pairs: Sequence[StringPair],
                            gap_cost: float = NEEDLEMAN_WUNSCH.gap,
                            match_score: float = NEEDLEMAN_WUNSCH.match,
                            mismatch_score: float = NEEDLEMAN_WUNSCH.mismatch
                            ) -> np.ndarray:
    """:func:`needleman_wunsch` of every ``(s1, s2)`` in ``pairs``."""
    return alignment_scores(
        Layer(gap_cost, match_score, mismatch_score, local=False), pairs)


def smith_waterman_scores(pairs: Sequence[StringPair],
                          gap_cost: float = SMITH_WATERMAN.gap,
                          match_score: float = SMITH_WATERMAN.match,
                          mismatch_score: float = SMITH_WATERMAN.mismatch
                          ) -> np.ndarray:
    """:func:`smith_waterman` of every ``(s1, s2)`` in ``pairs``."""
    return alignment_scores(
        Layer(gap_cost, match_score, mismatch_score, local=True), pairs)


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


def needleman_wunsch(s1: str, s2: str,
                     gap_cost: float = NEEDLEMAN_WUNSCH.gap,
                     match_score: float = NEEDLEMAN_WUNSCH.match,
                     mismatch_score: float = NEEDLEMAN_WUNSCH.mismatch
                     ) -> float:
    """Global alignment score (Needleman-Wunsch), normalized to ``[0, 1]``.

    The raw score aligns the full strings with linear gap penalties; it is
    normalized by the longer string length so it composes with the other
    similarities.  Two empty strings score 1.0.
    """
    return float(needleman_wunsch_scores([(s1, s2)], gap_cost, match_score,
                                         mismatch_score)[0])


def smith_waterman(s1: str, s2: str, gap_cost: float = SMITH_WATERMAN.gap,
                   match_score: float = SMITH_WATERMAN.match,
                   mismatch_score: float = SMITH_WATERMAN.mismatch) -> float:
    """Local alignment score (Smith-Waterman), normalized to ``[0, 1]``.

    Finds the best-scoring local alignment; normalized by the shorter
    string length (the maximum achievable local score).  Two empty
    strings score 1.0; one empty string scores 0.0.
    """
    return float(smith_waterman_scores([(s1, s2)], gap_cost, match_score,
                                       mismatch_score)[0])
