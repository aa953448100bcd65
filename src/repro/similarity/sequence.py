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
integer, so the scores are exact; when a bound on the run's cells fits
``int16`` (the defaults at the 64-character cap) the row block is
``int16``, a quarter of the bytes ``float64`` moves per row step.

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

Jaro finds each match with ``str.find`` over the match window.  Its
scores, and the Jaro-Winkler scores of the word pairs Monge-Elkan
compares (:func:`best_jaro_winkler`), live in a second bounded memo,
:data:`JARO_MEMO`.

All ``*_similarity`` functions return values in ``[0, 1]`` where 1 means
identical; distances return non-negative raw scores.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from ..concurrency import BoundedMemo

#: A value pair as the DP kernel sees it (already prefix-capped).
StringPair = tuple[str, str]

#: The ``max_entries`` :data:`DP_MEMO` and :data:`JARO_MEMO` are built
#: with.  When an insert would cross it the memo is emptied first
#: (wholesale eviction).
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


#: The memo in front of the DP kernel: raw DP scores under
#: ``(layer, s1, s2)``.
DP_MEMO = BoundedMemo(DP_MEMO_MAX_ENTRIES)

#: Jaro scores under ``(s1, s2)``, and the Jaro-Winkler scores of
#: Monge-Elkan's word pairs under ``(w1, w2, 0.1)``.  Apart from
#: :data:`DP_MEMO`, so that word pairs cannot evict the DP scores a
#: transform has just filled before its column calls read them.
JARO_MEMO = BoundedMemo(DP_MEMO_MAX_ENTRIES)


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

    def finished(self, j: int) -> slice:
        """The (sorted) pairs whose last DP row is ``j``."""
        return slice(self.active[j + 1], self.active[j])


def _row_dtype(layers: Sequence[Layer], width: int, rows: int) -> type:
    """The dtype of a kernel run's row block: ``int16`` when it is exact,
    else ``float64``.

    With integer-valued scoring parameters every cell is an integer.  A
    cell is a sum of at most ``width + rows`` steps of at most ``size``
    each, plus its shift of at most ``gap * width``, so
    ``3 * size * (width + rows + 1)`` bounds every cell, intermediate and
    score of the run.  A zero gap keeps ``float64``: its column-zero
    cells are ``-0.0`` there, which no integer row can reproduce.
    """
    values = [v for layer in layers
              for v in (layer.gap, layer.match, layer.mismatch)]
    if not all(float(v).is_integer() for v in values) \
            or not all(layer.gap > 0 for layer in layers):
        return np.float64
    size = max(abs(v) for v in values)
    if 3 * size * (width + rows + 1) > np.iinfo(np.int16).max:
        return np.float64
    return np.int16


def _dp_kernel(pairs: Sequence[StringPair],
               layers: Sequence[Layer]) -> np.ndarray:
    """Raw scores of ``pairs`` under each layer, ``(len(layers), n)``.

    ``pairs`` is a non-empty batch.  The row block holds the global
    layers first, then the local ones.  A row holds ``h[i] + gap * i``:
    global rows start from ``h[i] = -gap * i``, local rows from 0.  Each
    row step is a substitution, a gap in ``s1`` and a prefix maximum for
    the gaps in ``s2``; local rows then take the zero floor and fold
    into a per-pair running best of each column.  A pair's cells stop
    changing once it leaves the active prefix, so the global layers
    gather each pair's final cell as it finishes and both kinds of layer
    are scored once, after the last row.  The row block has
    :func:`_row_dtype`'s dtype; the scores are ``float64`` either way.
    """
    batch = _Batch(pairs)
    order = sorted(range(len(layers)), key=lambda i: layers[i].local)
    stack = [layers[i] for i in order]
    n_global = sum(not layer.local for layer in stack)
    has_global, has_local = n_global > 0, n_global < len(stack)
    local = slice(n_global, len(stack))
    width = batch.codes1.shape[1]
    dtype = _row_dtype(stack, width, batch.rows)
    index = np.arange(width + 1, dtype=dtype)
    # One value per layer, shaped to broadcast over the row block.
    gap, on_match, on_mismatch, first = np.array(
        [(layer.gap, layer.gap + layer.match, layer.gap + layer.mismatch,
          0.0 if layer.local else -layer.gap) for layer in stack],
        dtype=dtype).T[..., None, None]
    gap_index = gap * index
    # A global pair's score is its cell minus the shift; a local pair's
    # is the maximum over its own columns of the unshifted running best.
    offset = -gap_index[:n_global, 0]
    scores = np.empty((len(stack), len(pairs)))

    row = np.zeros((len(stack), len(pairs), len(index)), dtype=dtype)
    row[local] = gap_index[local]
    best = np.zeros_like(row[local])
    final_cells = np.empty((n_global, len(pairs)), dtype=dtype)
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
        if has_global and done.start < done.stop:
            final_cells[:, done] = row[
                :n_global, np.arange(done.start, done.stop), batch.len1[done]]
    if has_global:
        scores[:n_global] = final_cells + offset[:, batch.len1]
    if has_local:
        own_columns = index <= batch.len1[:, None]
        scores[local] = np.where(own_columns, best - gap_index[local],
                                 0).max(axis=-1)
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
    filled when the misses exceed the memo's ``max_entries``: the memo
    would evict them before they were read.
    """
    get = DP_MEMO.get
    missing: dict[StringPair, set[Layer]] = {}
    for layer, pairs in wanted:
        for s1, s2 in pairs:
            if get((layer, s1, s2)) is None:
                missing.setdefault((s1, s2), set()).add(layer)
    if sum(map(len, missing.values())) > DP_MEMO.max_entries:
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


def _jaro(s1: str, s2: str) -> float:
    """:func:`jaro_similarity`, unmemoized.

    Each character of ``s1`` matches the first unmatched equal character
    of ``s2`` within the match window: ``str.find`` from the window's
    start, then again past every position already matched.
    """
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = max(max(len1, len2) // 2 - 1, 0)
    find = s2.find
    matched2 = [False] * len2
    chars1: list[str] = []  # the matched characters of s1, in order
    for i, c1 in enumerate(s1):
        lo, hi = i - window, i + window + 1
        if lo < 0:
            lo = 0
        elif lo >= len2:
            break  # no window left in s2
        j = find(c1, lo, hi)
        while j >= 0 and matched2[j]:
            j = find(c1, j + 1, hi)
        if j >= 0:
            matched2[j] = True
            chars1.append(c1)
    if not chars1:
        return 0.0
    # Half the positions where the two matched subsequences differ.
    chars2 = [c2 for c2, matched in zip(s2, matched2) if matched]
    transpositions = sum(map(str.__ne__, chars1, chars2)) // 2
    m = float(len(chars1))
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


def _winkler(jaro: float, s1: str, s2: str, prefix_weight: float) -> float:
    """Jaro-Winkler from the Jaro score of ``s1`` and ``s2``."""
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix == 4:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def jaro_similarity(s1: str, s2: str) -> float:
    """Jaro similarity: transposition-aware common-character matching.

    Returns 1.0 for identical strings, 0.0 when nothing matches.
    Memoized in :data:`JARO_MEMO` under ``(s1, s2)``.
    """
    key = (s1, s2)
    score = JARO_MEMO.get(key)
    if score is None:
        score = JARO_MEMO[key] = _jaro(s1, s2)
    return score


def jaro_winkler_similarity(s1: str, s2: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by up to a 4-char common prefix.

    ``prefix_weight`` must be in ``[0, 0.25]`` to keep the result <= 1.
    """
    if not 0.0 <= prefix_weight <= 0.25:
        raise ValueError(f"prefix_weight must be in [0, 0.25], got {prefix_weight}")
    return _winkler(jaro_similarity(s1, s2), s1, s2, prefix_weight)


def best_jaro_winkler(words1: Iterable[str], words2: set[str]
                      ) -> dict[str, float]:
    """Each word of ``words1`` -> its best :func:`jaro_winkler_similarity`
    over ``words2``.

    A word that is in ``words2`` scores exactly 1.0 (the measure never
    exceeds 1.0, in floats too) without a comparison.  Every other word
    pair, at the default prefix weight 0.1, is a :data:`JARO_MEMO`
    lookup; the misses are scored once, and the memo takes them in one
    update.
    """
    get = JARO_MEMO.get
    computed: dict[tuple, float] = {}
    best: dict[str, float] = {}
    for w1 in words1:
        if w1 in best:
            continue
        if w1 in words2:
            best[w1] = 1.0
            continue
        scores = []
        for w2 in words2:
            key = (w1, w2, 0.1)
            score = get(key)
            if score is None:
                score = computed[key] = _winkler(_jaro(w1, w2), w1, w2, 0.1)
            scores.append(score)
        best[w1] = max(scores)
    if computed:
        JARO_MEMO.update(computed)
    return best


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
