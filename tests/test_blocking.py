"""Tests for the blocking substrate."""

import pytest

from repro.blocking import (
    AttributeEquivalenceBlocker,
    OverlapBlocker,
    blocking_recall,
)
from repro.data import MATCH, Table


@pytest.fixture()
def tables():
    a = Table("A", ["name", "city"], [
        ["arnie mortons", "los angeles"],
        ["arts deli", "studio city"],
        ["fenix", "hollywood"],
    ])
    b = Table("B", ["name", "city"], [
        ["arnie mortons of chicago", "los angeles"],
        ["arts delicatessen", "studio city"],
        ["katsu", "los angeles"],
        [None, "hollywood"],
    ])
    return a, b


class TestAttributeEquivalence:
    def test_same_city_pairs(self, tables):
        a, b = tables
        pairs = AttributeEquivalenceBlocker("city").block(a, b)
        keys = {p.key for p in pairs}
        assert (0, 0) in keys  # both los angeles
        assert (0, 2) in keys
        assert (1, 1) in keys
        assert (1, 0) not in keys  # studio city vs los angeles

    def test_missing_values_skipped(self, tables):
        # b[3] has a missing name; the name blocker must never pair it.
        a, b = tables
        pairs = OverlapBlocker("name").block(a, b)
        assert all(p.right.record_id != 3 for p in pairs)

    def test_candidate_count_below_cross_product(self, tables):
        a, b = tables
        pairs = AttributeEquivalenceBlocker("city").block(a, b)
        assert len(pairs) < len(a) * len(b)


class TestOverlapBlocker:
    def test_shared_token_pairs(self, tables):
        a, b = tables
        pairs = OverlapBlocker("name", min_overlap=1).block(a, b)
        keys = {p.key for p in pairs}
        assert (0, 0) in keys  # share "arnie" and "mortons"
        assert (1, 1) in keys  # share "arts"
        assert (2, 2) not in keys  # fenix vs katsu share nothing

    def test_min_overlap_two_is_stricter(self, tables):
        a, b = tables
        loose = OverlapBlocker("name", min_overlap=1).block(a, b)
        strict = OverlapBlocker("name", min_overlap=2).block(a, b)
        assert len(strict) <= len(loose)
        assert {p.key for p in strict} <= {p.key for p in loose}

    def test_invalid_overlap(self):
        with pytest.raises(ValueError, match="min_overlap"):
            OverlapBlocker("name", min_overlap=0)


class TestOverlapBlockerDedup:
    """Regression: duplicate candidates and re-tokenization (PR 3)."""

    @pytest.fixture()
    def repeated_tables(self):
        # Table A repeats the same name across records; B's blocks for
        # "arnie" and "mortons" overlap on the same right records.
        a = Table("A", ["name"], [
            ["arnie mortons"],
            ["arnie mortons"],
            ["arnie mortons"],
            ["arts deli"],
        ])
        b = Table("B", ["name"], [
            ["arnie mortons of chicago"],
            ["mortons arnie"],
            ["arts delicatessen"],
        ])
        return a, b

    def test_no_duplicate_candidate_pairs(self, repeated_tables):
        a, b = repeated_tables
        pairs = OverlapBlocker("name").block(a, b)
        keys = [p.key for p in pairs]
        assert len(keys) == len(set(keys))

    def test_matches_naive_reference(self, repeated_tables):
        """Blocking output equals the brute-force overlap definition."""
        from repro.similarity.tokenizers import ALNUM

        a, b = repeated_tables
        for min_overlap in (1, 2):
            expected = set()
            for left in a:
                for right in b:
                    if left["name"] is None or right["name"] is None:
                        continue
                    shared = (set(ALNUM(str(left["name"])))
                              & set(ALNUM(str(right["name"]))))
                    if len(shared) >= min_overlap:
                        expected.add((left.record_id, right.record_id))
            got = OverlapBlocker("name", min_overlap=min_overlap).block(a, b)
            assert {p.key for p in got} == expected

    def test_token_cache_reused_across_records(self, repeated_tables):
        a, b = repeated_tables
        blocker = OverlapBlocker("name")
        blocker.block(a, b)
        # One cache entry per *distinct* value string, not per record.
        distinct = {str(r["name"]) for r in a if r["name"] is not None} \
            | {str(r["name"]) for r in b if r["name"] is not None}
        assert len(blocker.token_cache) == len(distinct)

    def test_shared_token_cache_instance(self, repeated_tables):
        from repro.concurrency import BoundedMemo

        a, b = repeated_tables
        shared = BoundedMemo()
        first = OverlapBlocker("name", token_cache=shared).block(a, b)
        warm = OverlapBlocker("name", token_cache=shared).block(a, b)
        assert {p.key for p in first} == {p.key for p in warm}
        assert len(shared) > 0

    def test_benchmark_output_unchanged(self, small_benchmark):
        """Dedup + caching must not change real blocking output."""
        pairs = OverlapBlocker("name").block(small_benchmark.table_a,
                                             small_benchmark.table_b)
        keys = [p.key for p in pairs]
        assert len(keys) == len(set(keys))
        assert len(pairs) > 0


class TestBlockingRecall:
    def test_full_recall(self, tables):
        a, b = tables
        pairs = OverlapBlocker("name", min_overlap=1).block(a, b)
        gold = {(0, 0), (1, 1)}
        assert blocking_recall(pairs, gold) == 1.0

    def test_partial_recall(self, tables):
        a, b = tables
        pairs = AttributeEquivalenceBlocker("city").block(a, b)
        gold = {(0, 0), (2, 3)}  # second pair's right has city but no block hit
        recall = blocking_recall(pairs, gold)
        assert recall == 1.0 or recall == 0.5  # depends on missing handling
        assert blocking_recall(pairs, {(0, 1)}) == 0.0

    def test_empty_gold(self, tables):
        a, b = tables
        pairs = AttributeEquivalenceBlocker("city").block(a, b)
        assert blocking_recall(pairs, set()) == 1.0

    def test_on_generated_benchmark(self, small_benchmark):
        gold = {p.key for p in small_benchmark.pairs if p.label == MATCH}
        pairs = OverlapBlocker("name").block(small_benchmark.table_a,
                                             small_benchmark.table_b)
        # most true matches share at least one name token
        assert blocking_recall(pairs, gold) > 0.8


class TestNormalizedEquivalence:
    """Satellite: optional case/whitespace normalization (PR 5)."""

    @pytest.fixture()
    def messy_tables(self):
        a = Table("A", ["name", "city"], [
            ["x", "New  York"],
            ["y", "Los Angeles"],
            ["z", None],
        ])
        b = Table("B", ["name", "city"], [
            ["p", "new york"],
            ["q", "los  angeles "],
            ["r", "New  York"],
        ])
        return a, b

    def test_default_is_bit_exact(self, messy_tables):
        a, b = messy_tables
        pairs = AttributeEquivalenceBlocker("city").block(a, b)
        assert {p.key for p in pairs} == {(0, 2)}

    def test_normalize_folds_case_and_whitespace(self, messy_tables):
        a, b = messy_tables
        blocker = AttributeEquivalenceBlocker("city", normalize=True)
        pairs = blocker.block(a, b)
        assert {p.key for p in pairs} == {(0, 0), (0, 2), (1, 1)}

    def test_missing_values_never_pair(self, messy_tables):
        a, b = messy_tables
        blocker = AttributeEquivalenceBlocker("city", normalize=True)
        assert all(p.left.record_id != 2 for p in blocker.block(a, b))

    def test_admits_matches_block(self, messy_tables):
        a, b = messy_tables
        for normalize in (False, True):
            blocker = AttributeEquivalenceBlocker("city",
                                                  normalize=normalize)
            blocked = {p.key for p in blocker.block(a, b)}
            admitted = {(left.record_id, right.record_id)
                        for left in a for right in b
                        if blocker.admits(left, right)}
            assert blocked == admitted


class TestConstructorValidation:
    """Satellite: clear ValueErrors for bad blocker arguments (PR 5)."""

    def test_empty_attribute_rejected(self):
        from repro.blocking import MinHashLSHBlocker, QGramBlocker

        for factory in (AttributeEquivalenceBlocker, OverlapBlocker,
                        QGramBlocker, MinHashLSHBlocker):
            with pytest.raises(ValueError, match="attribute"):
                factory("")

    def test_qgram_validation(self):
        from repro.blocking import QGramBlocker

        with pytest.raises(ValueError, match="q must be >= 2"):
            QGramBlocker("name", q=1)
        with pytest.raises(ValueError, match="min_overlap"):
            QGramBlocker("name", min_overlap=0)

    def test_minhash_band_validation(self):
        from repro.blocking import MinHashLSHBlocker

        with pytest.raises(ValueError, match="bands must divide"):
            MinHashLSHBlocker("name", num_perm=100, bands=32)
        with pytest.raises(ValueError, match="bands x rows"):
            MinHashLSHBlocker("name", num_perm=128, bands=32, rows=5)
        with pytest.raises(ValueError, match="num_perm"):
            MinHashLSHBlocker("name", num_perm=0)
        with pytest.raises(ValueError, match="bands"):
            MinHashLSHBlocker("name", bands=0)

    def test_minhash_explicit_rows_accepted(self):
        from repro.blocking import MinHashLSHBlocker

        blocker = MinHashLSHBlocker("name", num_perm=128, bands=32, rows=4)
        assert blocker.rows == 4
