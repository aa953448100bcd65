"""Equivalence tests for the columnar feature engine.

Every fast path — columnar, tokenization-cached and request-sized —
must produce values bit-identical (nan-aware) to the
naive row-at-a-time reference loop, across string, numeric and boolean
attributes, missing values, and every registered measure.
"""

import math
import sys
import threading

import numpy as np
import pytest
from bit_parity import assert_bits_equal
from feature_oracle import transform_naive
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import PairSet, RecordPair, Table
from repro.features import (
    FeatureGenerator,
    autoem_feature_plan,
    magellan_feature_plan,
)
from repro.concurrency import BoundedMemo
from repro.features.types import DataType
from repro.similarity import (
    ALL_BOOLEAN_MEASURES,
    ALL_NUMERIC_MEASURES,
    ALL_STRING_MEASURES,
    get_measure,
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
        reference = transform_naive(generator, duplicate_heavy_pairs)
        assert_bits_equal(generator.transform(
            duplicate_heavy_pairs), reference)

    def test_all_registered_measures_covered(self):
        assert len(FULL_PLAN) == 21

    def test_repeated_transform_with_warm_token_cache(
            self, duplicate_heavy_pairs):
        generator = FeatureGenerator(FULL_PLAN)
        first = generator.transform(duplicate_heavy_pairs)
        second = generator.transform(duplicate_heavy_pairs)
        assert_bits_equal(first, second)

    def test_bool_and_float_values_not_conflated(self):
        # True and 1.0 hash equal but str() differently; dedup must
        # keep them distinct or exact_match would see "True" == "1.0".
        rows_a = [["1.0", 1.0, True], [True, 1.0, True]]
        rows_b = [["1.0", 1.0, True], ["True", 1.0, True]]
        pairs = make_pairs(rows_a, rows_b, [(0, 0), (1, 0), (0, 1), (1, 1)])
        generator = FeatureGenerator([("name", "exact_match")])
        reference = transform_naive(generator, pairs)
        assert_bits_equal(generator.transform(pairs), reference)
        assert reference[:, 0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_equal_values_have_positive_zero_distances(self):
        # ``transform_naive`` shares the DP kernel, so parity with it
        # cannot see a sign flip there; pin the sign of a zero directly.
        pairs = make_pairs([["arts deli", 12.5, True], ["", 3.0, None]],
                           [["arts deli", 12.5, True], ["", 3.0, None]],
                           [(0, 0), (1, 1)])
        generator = FeatureGenerator([("name", "lev_dist"),
                                      ("price", "num_lev_dist")])
        assert_bits_equal(generator.transform(pairs), np.zeros((2, 2)))

    def test_empty_pair_set(self):
        pairs = make_pairs([["x", 1.0, True]], [["y", 2.0, False]], [])
        generator = FeatureGenerator(FULL_PLAN)
        assert generator.transform(pairs).shape == (0, 21)

    def test_non_integer_record_ids_supported(self):
        from uuid import UUID

        rows_a = [["arts deli", 12.0, True], ["fenix", 9.0, False]]
        rows_b = [["arts delicatessen", 12.5, True], ["fenix bar", 8.0, None]]
        ids_a = ["rec-alpha", UUID("12345678-1234-5678-1234-567812345678")]
        table_a = Table("A", COLUMNS, rows_a, ids=ids_a)
        table_b = Table("B", COLUMNS, rows_b, ids=["x", "y"])
        pairs = PairSet(table_a, table_b,
                        [RecordPair(table_a[0], table_b[0]),
                         RecordPair(table_a[1], table_b[1])])
        generator = FeatureGenerator(FULL_PLAN)
        assert_bits_equal(generator.transform(pairs),
                          transform_naive(generator, pairs))


class TestPropertyEquivalence:
    values = st.one_of(
        st.none(),
        st.booleans(),
        st.floats(allow_nan=False, width=32),
        st.floats(allow_nan=False, width=32).map(np.float64),
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
        assert_bits_equal(generator.transform(pairs),
                                      transform_naive(generator, pairs))

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
        assert_bits_equal(matrix,
                                      transform_naive(generator, pairs))
        assert not np.isinf(matrix).any()


class TestPlanEquivalence:
    """Whole feature plans: the fused DP run of a transform scores every
    attribute's pairs (and the rendered numbers) in one kernel run."""

    words = st.lists(st.sampled_from(["ab", "b", "abc", "\U0001F600",
                                      "1.5", ""]), max_size=12).map(" ".join)
    records = st.tuples(st.one_of(st.none(), words),
                        st.one_of(st.none(), words),
                        st.one_of(st.none(), st.floats(width=32),
                                  st.sampled_from(["12", "x"])),
                        st.one_of(st.none(), st.booleans()))
    SCHEMA = ["brand", "title", "price", "in_stock"]

    @pytest.mark.parametrize("plan_of", [magellan_feature_plan,
                                         autoem_feature_plan],
                             ids=["magellan", "table_ii"])
    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(records, min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_plan_matches_naive_bit_for_bit(self, plan_of, rows, seed):
        types = {"brand": DataType.SINGLE_WORD,
                 "title": DataType.WORDS_5_10, "price": DataType.NUMERIC,
                 "in_stock": DataType.BOOLEAN}
        if plan_of is autoem_feature_plan:
            types["title"] = DataType.WORDS_1_5
        plan = plan_of(types)
        dp = {m for _, m in plan if get_measure(m).dp_layer is not None}
        if plan_of is magellan_feature_plan:
            # Only Levenshtein measures: the run has one layer.
            assert dp == {"lev_dist", "lev_sim", "num_lev_dist",
                          "num_lev_sim"}
        rng = np.random.default_rng(seed)
        n = len(rows)
        table_a = Table("A", self.SCHEMA, [list(r) for r in rows])
        table_b = Table("B", self.SCHEMA,
                        [list(rows[int(i)]) for i in rng.permutation(n)])
        pairs = PairSet(table_a, table_b, [
            RecordPair(table_a[int(rng.integers(n))],
                       table_b[int(rng.integers(n))])
            for _ in range(3 * n)])
        generator = FeatureGenerator(plan)
        sequence.DP_MEMO.clear()
        fast = generator.transform(pairs)
        sequence.DP_MEMO.clear()
        assert_bits_equal(fast, transform_naive(generator, pairs))


class TestSharedKernelRun:
    """The DP kernel runs of one transform."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        """``(sorted layers, longest string)`` of every kernel run."""
        runs = []
        kernel = sequence._dp_kernel

        def spy(batch, layers):
            runs.append((sorted(layers),
                         max(max(len(s1), len(s2)) for s1, s2 in batch)))
            return kernel(batch, layers)

        monkeypatch.setattr(sequence, "_dp_kernel", spy)
        sequence.DP_MEMO.clear()
        yield runs
        sequence.DP_MEMO.clear()

    def test_one_run_per_set_of_layers(self, duplicate_heavy_pairs, runs):
        # The column calls after the shared runs are memo hits: the fill
        # scores exactly what they read.  The rendered prices take only
        # the Levenshtein layer.
        generator = FeatureGenerator(FULL_PLAN)
        matrix = generator.transform(duplicate_heavy_pairs)
        assert sorted(layers for layers, _ in runs) == [
            [sequence.LEVENSHTEIN],
            sorted([sequence.LEVENSHTEIN, sequence.NEEDLEMAN_WUNSCH,
                    sequence.SMITH_WATERMAN])]
        sequence.DP_MEMO.clear()
        assert_bits_equal(matrix,
                          transform_naive(generator, duplicate_heavy_pairs))

    def test_a_levenshtein_only_plan_runs_one_layer(
            self, duplicate_heavy_pairs, runs):
        plan = [("name", "lev_dist"), ("name", "lev_sim"),
                ("price", "num_lev_dist"), ("price", "num_lev_sim")]
        FeatureGenerator(plan).transform(duplicate_heavy_pairs)
        assert [layers for layers, _ in runs] == [[sequence.LEVENSHTEIN]]

    def test_a_huge_number_does_not_widen_the_shared_run(self, runs):
        # 1e300 renders as 301 digits; it is scored in a run of its own.
        pairs = make_pairs(
            [["arts deli", 1e300, True], ["fenix", 12.0, False]],
            [["arts delicatessen", 12.5, True], ["fenix at the argyle", 1e300,
                                                 None]],
            [(0, 0), (0, 1), (1, 0), (1, 1)])
        generator = FeatureGenerator(FULL_PLAN)
        matrix = generator.transform(pairs)
        shared = [longest for layers, longest in runs if len(layers) > 1]
        assert shared and max(shared) <= simreg.SEQUENCE_MAX_CHARS
        assert max(longest for _, longest in runs) == 301
        sequence.DP_MEMO.clear()
        assert_bits_equal(matrix, transform_naive(generator, pairs))

    def test_a_fill_the_memo_cannot_hold_is_skipped(
            self, duplicate_heavy_pairs, runs, monkeypatch):
        # A fit-sized transform: the column calls run one layer each.
        monkeypatch.setattr(sequence.DP_MEMO, "max_entries", 8)
        generator = FeatureGenerator(FULL_PLAN)
        matrix = generator.transform(duplicate_heavy_pairs)
        assert runs and all(len(layers) == 1 for layers, _ in runs)
        sequence.DP_MEMO.clear()
        assert_bits_equal(matrix,
                          transform_naive(generator, duplicate_heavy_pairs))


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
        assert math.isnan(transform_naive(generator, pairs)[0, 0])


class TestKnobValidation:
    def test_token_cache_bounded(self):
        cache = BoundedMemo(max_entries=2)
        cache[("space", "a")] = ["a"]
        cache[("space", "b")] = ["b"]
        cache[("space", "c")] = ["c"]  # triggers wholesale eviction
        assert len(cache) == 1
        assert ("space", "c") in cache

    def test_token_cache_safe_under_concurrent_writers(self):
        cache = BoundedMemo(max_entries=64)
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
        regression for the columnar/naive mismatch on [-0.0 vs 0.0].
        numpy's floats must not collapse either."""
        zeros = [-0.0, 0.0, np.float64(-0.0), np.float64(0.0),
                 np.float32(-0.0), np.float32(0.0)]
        rows_a = [[zero, None, None] for zero in zeros]
        rows_b = [["0.0", None, None]] * len(zeros)
        pairs = make_pairs(rows_a, rows_b,
                           [(i, i) for i in range(len(zeros))])
        plan = [("name", m) for m in ALL_STRING_MEASURES]
        generator = FeatureGenerator(plan)
        assert_bits_equal(generator.transform(pairs),
                                      transform_naive(generator, pairs))

    def test_bool_and_float_one_stay_distinct(self):
        rows_a = [[True, None, None], [1.0, None, None]]
        rows_b = [["True", None, None], ["True", None, None]]
        pairs = make_pairs(rows_a, rows_b, [(0, 0), (1, 1)])
        plan = [("name", m) for m in ALL_STRING_MEASURES]
        generator = FeatureGenerator(plan)
        assert_bits_equal(generator.transform(pairs),
                                      transform_naive(generator, pairs))


class TestSharedSimilarityMemo:
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
        monkeypatch.setattr(sequence.DP_MEMO, "max_entries", 16)
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
            assert_bits_equal(matrix, expected[k])
        # An insert that would cross the bound empties the memo first,
        # and one update keeps at most the bound.
        assert len(sequence.DP_MEMO) <= 16
