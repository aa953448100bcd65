"""Equivalence and caching tests for the columnar feature engine.

Every fast path — columnar, tokenization-cached, process-parallel,
matrix-cached, and single-pair — must produce values bit-identical
(nan-aware) to the naive row-at-a-time reference loop, across string,
numeric and boolean attributes, missing values, and every registered
measure.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import PairSet, RecordPair, Table
from repro.features import (
    FeatureGenerator,
    FeatureMatrixCache,
    columnar,
    make_autoem_features,
)
from repro.features.columnar import TokenCache, resolve_n_jobs
from repro.similarity import (
    ALL_BOOLEAN_MEASURES,
    ALL_NUMERIC_MEASURES,
    ALL_STRING_MEASURES,
)
from repro.similarity import registry as simreg
from repro.similarity import sequence
from repro.similarity.registry import SimilarityMeasure

#: A plan exercising all 21 registered measures over a mixed schema.
FULL_PLAN = ([("name", m) for m in ALL_STRING_MEASURES]
             + [("price", m) for m in ALL_NUMERIC_MEASURES]
             + [("in_stock", m) for m in ALL_BOOLEAN_MEASURES])

COLUMNS = ["name", "price", "in_stock"]


def make_pairs(rows_a, rows_b, combos) -> PairSet:
    table_a = Table("A", COLUMNS, rows_a)
    table_b = Table("B", COLUMNS, rows_b)
    return PairSet(table_a, table_b,
                   [RecordPair(table_a[i], table_b[j]) for i, j in combos])


@pytest.fixture()
def duplicate_heavy_pairs() -> PairSet:
    """Mixed types, missing values, and heavy record repetition."""
    rows_a = [
        ["arts delicatessen", 12.0, True],
        ["fenix", None, False],
        ["arnie morton's of chicago " * 4, 19.5, None],
        [None, 3.0, True],
        ["", 0.0, False],
    ]
    rows_b = [
        ["arts deli", 12.5, True],
        ["fenix at the argyle", 9.0, None],
        ["arnie mortons chicago", 19.5, True],
        ["delicatessen", None, False],
        ["", float("inf"), True],
    ]
    rng = np.random.default_rng(3)
    combos = [(int(rng.integers(5)), int(rng.integers(5)))
              for _ in range(12)] * 5
    return make_pairs(rows_a, rows_b, combos)


class TestEquivalence:
    def test_columnar_matches_naive(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN)
        reference = generator.transform_naive(duplicate_heavy_pairs)
        np.testing.assert_array_equal(generator.transform(
            duplicate_heavy_pairs), reference)

    def test_all_registered_measures_covered(self):
        assert len(FULL_PLAN) == 21

    def test_parallel_matches_naive(self, duplicate_heavy_pairs,
                                    monkeypatch):
        monkeypatch.setattr(columnar, "PARALLEL_MIN_UNIQUE_PAIRS", 0)
        generator = FeatureGenerator(FULL_PLAN, n_jobs=2)
        reference = generator.transform_naive(duplicate_heavy_pairs)
        np.testing.assert_array_equal(generator.transform(
            duplicate_heavy_pairs), reference)

    def test_repeated_transform_with_warm_token_cache(
            self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN)
        first = generator.transform(duplicate_heavy_pairs)
        second = generator.transform(duplicate_heavy_pairs)
        np.testing.assert_array_equal(first, second)

    def test_bool_and_float_values_not_conflated(self):
        # True and 1.0 hash equal but str() differently; dedup must
        # keep them distinct or exact_match would see "True" == "1.0".
        rows_a = [["1.0", 1.0, True], [True, 1.0, True]]
        rows_b = [["1.0", 1.0, True], ["True", 1.0, True]]
        pairs = make_pairs(rows_a, rows_b, [(0, 0), (1, 0), (0, 1), (1, 1)])
        generator = FeatureGenerator([("name", "exact_match")])
        reference = generator.transform_naive(pairs)
        np.testing.assert_array_equal(generator.transform(pairs), reference)
        assert reference[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_empty_pair_set(self):
        pairs = make_pairs([["x", 1.0, True]], [["y", 2.0, False]], [])
        generator = FeatureGenerator(FULL_PLAN)
        assert generator.transform(pairs).shape == (0, 21)


class TestPropertyEquivalence:
    values = st.one_of(
        st.none(),
        st.booleans(),
        st.floats(allow_nan=False, width=32),
        st.text(alphabet="ab c'1.", max_size=12),
    )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(values, values), min_size=1, max_size=8),
           st.integers(0, 2 ** 31 - 1))
    def test_columnar_matches_naive_on_random_values(self, cells, seed):
        rng = np.random.default_rng(seed)
        rows_a = [[v1, None, None] for v1, _ in cells]
        rows_b = [[v2, None, None] for _, v2 in cells]
        n = len(cells)
        combos = [(int(rng.integers(n)), int(rng.integers(n)))
                  for _ in range(2 * n)]
        pairs = make_pairs(rows_a, rows_b, combos)
        plan = [("name", m) for m in ALL_STRING_MEASURES]
        generator = FeatureGenerator(plan)
        np.testing.assert_array_equal(generator.transform(pairs),
                                      generator.transform_naive(pairs))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.none(), st.floats(width=32)),
                              st.one_of(st.none(), st.floats(width=32))),
                    min_size=1, max_size=8))
    def test_numeric_measures_match_with_nan_and_inf(self, cells):
        rows_a = [[None, v1, None] for v1, _ in cells]
        rows_b = [[None, v2, None] for _, v2 in cells]
        combos = [(i, i) for i in range(len(cells))]
        pairs = make_pairs(rows_a, rows_b, combos)
        plan = [("price", m) for m in ALL_NUMERIC_MEASURES]
        generator = FeatureGenerator(plan)
        matrix = generator.transform(pairs)
        np.testing.assert_array_equal(matrix,
                                      generator.transform_naive(pairs))
        assert not np.isinf(matrix).any()


def _always_inf(v1: float, v2: float) -> float:
    return float("inf")


class TestInfGuard:
    @pytest.fixture(autouse=True)
    def register_inf_measure(self, monkeypatch):
        monkeypatch.setitem(
            simreg.MEASURES, "always_inf",
            SimilarityMeasure("always_inf", _always_inf, kind="numeric"))

    def test_inf_cannot_leak_into_matrices(self):
        pairs = make_pairs([["x", 1.0, True]], [["y", 2.0, False]], [(0, 0)])
        generator = FeatureGenerator([("price", "always_inf")])
        assert math.isnan(generator.transform(pairs)[0, 0])
        assert math.isnan(generator.transform_naive(pairs)[0, 0])


class TestSequenceCapKnob:
    long_a = "a" * 500
    long_b = "a" * 500 + "b"

    def _pairs(self):
        return make_pairs([[self.long_a, None, None]],
                          [[self.long_b, None, None]], [(0, 0)])

    def test_default_cap_matches_registry(self):
        generator = FeatureGenerator([("name", "lev_dist")])
        assert generator.transform(self._pairs())[0, 0] == 0.0

    def test_custom_cap_changes_dp_measures(self):
        # With the cap beyond both strings, the trailing "b" is seen.
        generator = FeatureGenerator([("name", "lev_dist")],
                                     sequence_max_chars=1000)
        assert generator.transform(self._pairs())[0, 0] == 1.0

    def test_custom_cap_equivalent_across_paths(self):
        generator = FeatureGenerator(
            [("name", m) for m in ALL_STRING_MEASURES],
            sequence_max_chars=8)
        pairs = self._pairs()
        reference = generator.transform_naive(pairs)
        np.testing.assert_array_equal(generator.transform(pairs), reference)

    def test_cap_is_part_of_cache_key(self):
        pairs = self._pairs()
        cache = FeatureMatrixCache()
        capped = FeatureGenerator([("name", "lev_dist")],
                                  sequence_max_chars=8, cache=cache)
        uncapped = FeatureGenerator([("name", "lev_dist")],
                                    sequence_max_chars=1000, cache=cache)
        assert capped.transform(pairs)[0, 0] == 0.0
        assert uncapped.transform(pairs)[0, 0] == 1.0
        assert cache.stats["hits"] == 0


class TestMatrixCache:
    def test_cache_hit_on_repeat_transform(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN, cache=True)
        first = generator.transform(duplicate_heavy_pairs)
        second = generator.transform(duplicate_heavy_pairs)
        np.testing.assert_array_equal(first, second)
        assert generator.cache.stats == {"entries": 1, "hits": 1,
                                         "misses": 1}

    def test_cached_matrix_is_mutation_safe(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN, cache=True)
        first = generator.transform(duplicate_heavy_pairs)
        first[:] = -99.0
        second = generator.transform(duplicate_heavy_pairs)
        assert not (second == -99.0).any()

    def test_labels_do_not_affect_the_key(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN, cache=True)
        generator.transform(duplicate_heavy_pairs)
        generator.transform(duplicate_heavy_pairs.without_labels())
        assert generator.cache.hits == 1

    def test_different_pairs_miss(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN, cache=True)
        generator.transform(duplicate_heavy_pairs)
        generator.transform(duplicate_heavy_pairs[:3])
        assert generator.cache.stats["entries"] == 2
        assert generator.cache.hits == 0

    def test_shared_cache_across_generators(self, duplicate_heavy_pairs):
        cache = FeatureMatrixCache()
        table_a = duplicate_heavy_pairs.table_a
        table_b = duplicate_heavy_pairs.table_b
        first = make_autoem_features(table_a, table_b, cache=cache)
        second = make_autoem_features(table_a, table_b, cache=cache)
        matrix = first.transform(duplicate_heavy_pairs)
        np.testing.assert_array_equal(
            second.transform(duplicate_heavy_pairs), matrix)
        assert cache.hits == 1

    def test_non_integer_record_ids_supported(self):
        from uuid import UUID

        from repro.features.cache import pairs_fingerprint

        rows_a = [["arts deli", 12.0, True], ["fenix", 9.0, False]]
        rows_b = [["arts delicatessen", 12.5, True], ["fenix bar", 8.0, None]]
        ids_a = ["rec-alpha", UUID("12345678-1234-5678-1234-567812345678")]
        table_a = Table("A", COLUMNS, rows_a, ids=ids_a)
        table_b = Table("B", COLUMNS, rows_b, ids=["x", "y"])
        pairs = PairSet(table_a, table_b,
                        [RecordPair(table_a[0], table_b[0]),
                         RecordPair(table_a[1], table_b[1])])
        fingerprint = pairs_fingerprint(pairs)  # used to crash on str ids
        assert fingerprint == pairs_fingerprint(pairs)
        generator = FeatureGenerator(FULL_PLAN, cache=True)
        first = generator.transform(pairs)
        np.testing.assert_array_equal(generator.transform(pairs), first)
        assert generator.cache.hits == 1

    def test_id_types_not_conflated(self):
        from repro.features.cache import pairs_fingerprint

        rows = [["a", 1.0, True], ["b", 2.0, False]]
        int_ids = Table("A", COLUMNS, rows, ids=[1, 2])
        str_ids = Table("A", COLUMNS, rows, ids=["1", "2"])
        other = Table("B", COLUMNS, rows)
        int_pairs = PairSet(int_ids, other,
                            [RecordPair(int_ids[0], other[0])])
        str_pairs = PairSet(str_ids, other,
                            [RecordPair(str_ids[0], other[0])])
        assert pairs_fingerprint(int_pairs) != pairs_fingerprint(str_pairs)

    def test_lru_eviction(self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN,
                                     cache=FeatureMatrixCache(max_entries=1))
        generator.transform(duplicate_heavy_pairs)
        generator.transform(duplicate_heavy_pairs[:3])
        assert len(generator.cache) == 1
        generator.transform(duplicate_heavy_pairs)
        assert generator.cache.hits == 0


class TestKnobValidation:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_n_jobs(0)

    def test_token_cache_bounded(self):
        cache = TokenCache(max_entries=2)
        cache[("space", "a")] = ["a"]
        cache[("space", "b")] = ["b"]
        cache[("space", "c")] = ["c"]  # triggers wholesale eviction
        assert len(cache) == 1
        assert ("space", "c") in cache

    def test_token_cache_safe_under_concurrent_writers(self):
        cache = TokenCache(max_entries=64)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def writer(thread_index):
            barrier.wait()
            for i in range(per_thread):
                key = ("space", f"{thread_index}-{i % 100}")
                cache[key] = [str(thread_index), str(i)]
                hit = cache.get(key)
                # A racing wholesale eviction may drop the entry, but a
                # present entry is always whole.
                assert hit is None or hit == [str(thread_index), str(i)]

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64


class TestValueDedupKeys:
    def test_negative_zero_not_collapsed_with_positive_zero(self):
        """-0.0 == 0.0 (equal hash too) but str() renders them
        differently, so they must stay distinct dedup entries —
        regression for the columnar/naive mismatch on [-0.0 vs 0.0]."""
        rows_a = [[-0.0, None, None], [0.0, None, None]]
        rows_b = [[None, None, None], [None, None, None]]
        pairs = make_pairs(rows_a, rows_b, [(0, 0), (1, 1)])
        plan = [("name", m) for m in ALL_STRING_MEASURES]
        generator = FeatureGenerator(plan)
        np.testing.assert_array_equal(generator.transform(pairs),
                                      generator.transform_naive(pairs))

    def test_bool_and_float_one_stay_distinct(self):
        rows_a = [[True, None, None], [1.0, None, None]]
        rows_b = [["True", None, None], ["True", None, None]]
        pairs = make_pairs(rows_a, rows_b, [(0, 0), (1, 1)])
        plan = [("name", m) for m in ALL_STRING_MEASURES]
        generator = FeatureGenerator(plan)
        np.testing.assert_array_equal(generator.transform(pairs),
                                      generator.transform_naive(pairs))


class TestSharedDPMemo:
    """The process-wide DP memo under the threads a MatchService runs."""

    WORDS = ("sony", "samsung", "hdmi", "cable", "black", "1080p", "lcd",
             "tv", "remote", "wireless", "mount", "stand")

    def _pair_sets(self):
        rng = np.random.default_rng(11)

        def rows(n):
            return [[" ".join(rng.choice(self.WORDS,
                                         size=rng.integers(1, 14))),
                     float(rng.integers(100)), bool(rng.integers(2))]
                    for _ in range(n)]

        rows_a, rows_b = rows(12), rows(12)
        shared = [(int(rng.integers(12)), int(rng.integers(12)))
                  for _ in range(40)]
        # Each thread's set overlaps every other's through ``shared``.
        return [make_pairs(rows_a, rows_b,
                           shared[t * 5:t * 5 + 20]
                           + [(int(rng.integers(12)), int(rng.integers(12)))
                              for _ in range(10)])
                for t in range(4)]

    def test_concurrent_transforms_with_mid_run_eviction(self, monkeypatch):
        pair_sets = self._pair_sets()
        sequential = FeatureGenerator(FULL_PLAN)
        sequence.DP_MEMO.clear()
        expected = [sequential.transform(ps) for ps in pair_sets]
        # Far fewer entries than the unique DP keys of one transform, so
        # the memo empties wholesale many times while threads read it.
        assert len(sequence.DP_MEMO) > 16
        monkeypatch.setattr(sequence, "DP_MEMO_MAX_ENTRIES", 16)
        sequence.DP_MEMO.clear()
        generator = FeatureGenerator(FULL_PLAN)
        n_threads, rounds = 4, 3
        barrier = threading.Barrier(n_threads)
        results: dict[tuple[int, int], np.ndarray] = {}
        errors: list[BaseException] = []

        def worker(thread_index):
            try:
                barrier.wait()
                for r in range(rounds):
                    k = (thread_index + r) % len(pair_sets)
                    results[(thread_index, r)] = generator.transform(
                        pair_sets[k])
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-update often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == n_threads * rounds
        for (thread_index, r), matrix in results.items():
            k = (thread_index + r) % len(pair_sets)
            np.testing.assert_array_equal(matrix, expected[k])
        # An insert that would cross the bound empties the memo first,
        # so it never holds more than the bound or one kernel batch (at
        # most the 30 value pairs of a pair set).
        assert len(sequence.DP_MEMO) <= 30
