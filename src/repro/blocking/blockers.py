"""Blocking: candidate-pair generation without the quadratic cross product.

The paper treats blocking as orthogonal to the matching phase (Section
II-A) but depends on it to produce candidate pairs; the benchmarks' pair
sets come from blocking runs.  Two scan-based blockers live here:

* :class:`AttributeEquivalenceBlocker` — records sharing the exact value
  of a blocking attribute land in the same block (the paper's "same
  city" example), optionally after case/whitespace normalization.
* :class:`OverlapBlocker` — candidate pairs must share at least ``k``
  tokens of a chosen attribute (inverted-index implementation).

The indexed blockers (:class:`~repro.blocking.indexed.QGramBlocker`,
:class:`~repro.blocking.indexed.MinHashLSHBlocker`) live in
:mod:`repro.blocking.indexed`; all blockers share the
:class:`~repro.blocking.base.BaseBlocker` interface and its composition
operators.
"""

from __future__ import annotations

from collections import defaultdict

from ..concurrency import BoundedMemo
from ..data.pairs import PairSet, RecordPair
from ..data.table import Record, Table
from ..similarity.tokenizers import ALNUM, Tokenizer
from .base import BaseBlocker


class AttributeEquivalenceBlocker(BaseBlocker):
    """Pair records whose blocking attribute values are exactly equal.

    With ``normalize=True`` values are compared case-insensitively with
    whitespace runs collapsed ("New  York" blocks with "new york").
    The default (``normalize=False``) compares raw values bit-exactly.
    """

    def __init__(self, attribute: str, normalize: bool = False):
        if not attribute:
            raise ValueError("attribute must be a non-empty column name")
        self.attribute = attribute
        self.normalize = normalize

    def _key(self, value: object) -> object:
        if not self.normalize:
            return value
        return " ".join(str(value).lower().split())

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        """All (a, b) pairs sharing the blocking value (missing skipped)."""
        index: dict[object, list[object]] = defaultdict(list)
        for record in table_b:
            value = record.get(self.attribute)
            if value is not None:
                index[self._key(value)].append(record.record_id)
        pairs: list[RecordPair] = []
        for record in table_a:
            value = record.get(self.attribute)
            if value is None:
                continue
            for right_id in index.get(self._key(value), ()):
                pairs.append(RecordPair(record, table_b.by_id(right_id)))
        return PairSet(table_a, table_b, pairs)

    def admits(self, left: Record, right: Record) -> bool:
        left_value = left.get(self.attribute)
        right_value = right.get(self.attribute)
        if left_value is None or right_value is None:
            return False
        return self._key(left_value) == self._key(right_value)

    def __repr__(self) -> str:
        suffix = ", normalize=True" if self.normalize else ""
        return f"AttributeEquivalenceBlocker({self.attribute!r}{suffix})"


class OverlapBlocker(BaseBlocker):
    """Pair records sharing >= ``min_overlap`` tokens of an attribute.

    Tokenization is memoized in a shared token memo (a
    :class:`~repro.concurrency.BoundedMemo`, with the same
    ``(tokenizer_name, string) -> tokens`` convention the feature engine
    uses), so each distinct attribute value is tokenized once per
    blocker — not once per record — and a cache can be shared with a
    feature generator serving the same tables.  Candidate pairs are
    deduplicated: overlapping blocks can surface the same ``(a, b)``
    combination through several probe paths, and downstream consumers
    (pair fingerprints, labeling budgets) assume each candidate appears
    once.
    """

    def __init__(self, attribute: str, min_overlap: int = 1,
                 tokenizer: Tokenizer = ALNUM,
                 token_cache: BoundedMemo | None = None):
        if not attribute:
            raise ValueError("attribute must be a non-empty column name")
        if min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
        self.attribute = attribute
        self.min_overlap = min_overlap
        self.tokenizer = tokenizer
        self.token_cache = BoundedMemo() if token_cache is None \
            else token_cache

    def _token_set(self, value: object) -> set[str]:
        text = str(value)
        key = (self.tokenizer.name, text)
        tokens = self.token_cache.get(key)
        if tokens is None:
            self.token_cache[key] = tokens = self.tokenizer(text)
        return set(tokens)

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        index: dict[str, list[object]] = defaultdict(list)
        for record in table_b:
            value = record.get(self.attribute)
            if value is None:
                continue
            for token in self._token_set(value):
                index[token].append(record.record_id)
        # Blocking output repeats attribute values heavily, so the
        # matching right-id set is computed once per distinct value and
        # reused for every table-a record carrying it.
        matches_by_value: dict[str, list[object]] = {}
        pairs: list[RecordPair] = []
        seen: set[tuple] = set()
        for record in table_a:
            value = record.get(self.attribute)
            if value is None:
                continue
            text = str(value)
            right_ids = matches_by_value.get(text)
            if right_ids is None:
                overlap_counts: dict[object, int] = defaultdict(int)
                for token in self._token_set(value):
                    for right_id in index.get(token, ()):
                        overlap_counts[right_id] += 1
                right_ids = sorted(
                    right_id for right_id, count in overlap_counts.items()
                    if count >= self.min_overlap)
                matches_by_value[text] = right_ids
            for right_id in right_ids:
                pair_key = (record.record_id, right_id)
                if pair_key not in seen:
                    seen.add(pair_key)
                    pairs.append(RecordPair(record, table_b.by_id(right_id)))
        return PairSet(table_a, table_b, pairs)

    def admits(self, left: Record, right: Record) -> bool:
        left_value = left.get(self.attribute)
        right_value = right.get(self.attribute)
        if left_value is None or right_value is None:
            return False
        overlap = self._token_set(left_value) & self._token_set(right_value)
        return len(overlap) >= self.min_overlap

    def __repr__(self) -> str:
        return (f"OverlapBlocker({self.attribute!r}, "
                f"min_overlap={self.min_overlap}, "
                f"tokenizer={self.tokenizer.name!r})")


def blocking_recall(candidates: PairSet, gold_matches: set[tuple[int, int]]
                    ) -> float:
    """Fraction of gold matching pairs surviving blocking.

    Alias of :func:`repro.blocking.metrics.pair_completeness`, kept for
    the original API surface.
    """
    from .metrics import pair_completeness

    return pair_completeness(candidates, gold_matches)
