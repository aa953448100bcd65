"""Unit tests for record fusion and the cluster-quality metrics."""

import itertools

import numpy as np
import pytest

from repro.data.table import Record
from repro.resolve import (
    ALL_RESOLVERS,
    AttributeResolver,
    RecordFusion,
    adjusted_rand_index,
    evaluate_clustering,
    make_resolver,
    pairwise_cluster_pairs,
    seeded_choice,
)


def record(record_id, **attrs):
    return Record(record_id, list(attrs), list(attrs.values()))


class TestResolvers:
    def test_registry_names_unique_and_concrete(self):
        names = [cls.name for cls in ALL_RESOLVERS]
        assert len(names) == len(set(names))
        assert "base" not in names
        rng = np.random.default_rng(0)
        for cls in ALL_RESOLVERS:
            assert issubclass(cls, AttributeResolver)
            assert "name" in vars(cls), f"{cls.__name__} inherits its name"
            assert cls().resolve(["x", "y", "y"], rng) is not None

    def test_make_resolver(self):
        assert make_resolver("longest").name == "longest"
        with pytest.raises(ValueError, match="unknown resolver"):
            make_resolver("nope")

    def test_longest(self):
        rng = np.random.default_rng(0)
        assert make_resolver("longest").resolve(
            ["ab", "abcd", "x"], rng) == "abcd"

    def test_most_frequent(self):
        rng = np.random.default_rng(0)
        assert make_resolver("most_frequent").resolve(
            ["x", "y", "y"], rng) == "y"
        # 0 and False compare equal but are counted apart.
        assert make_resolver("most_frequent").resolve(
            [False, 0, True, True], rng) is True

    @pytest.mark.parametrize("values", [
        [0, False, True, True],
        [0.0, -0.0, 1.0],
        [1, True, 1.0, 2],
    ])
    def test_equal_but_distinct_values_ignore_order(self, values):
        # 0 == False == 0.0 == -0.0 compare equal but are different
        # values; whichever arrived first must not stand for the others.
        resolver = make_resolver("most_frequent")
        for choose in (resolver.resolve, seeded_choice):
            results = {repr(choose(list(order), np.random.default_rng(1)))
                       for order in itertools.permutations(values)}
            assert len(results) == 1, results

    def test_numeric_median_ignores_junk_and_bools(self):
        rng = np.random.default_rng(0)
        resolver = make_resolver("numeric_median")
        assert resolver.resolve([10, "20", "n/a", 30],
                                rng) == pytest.approx(20.0)
        assert resolver.resolve([True, 5], rng) == pytest.approx(5.0)
        # nothing numeric → seeded fallback still resolves
        assert resolver.resolve(["a", "b"], rng) in ("a", "b")

    def test_newest_takes_last_value(self):
        rng = np.random.default_rng(0)
        assert make_resolver("newest").resolve(["old", "new"],
                                               rng) == "new"

    def test_seeded_choice_is_order_free(self):
        draws_a = [seeded_choice(["x", "y", "z"],
                                 np.random.default_rng(s))
                   for s in range(20)]
        draws_b = [seeded_choice(["z", "x", "y"],
                                 np.random.default_rng(s))
                   for s in range(20)]
        assert draws_a == draws_b
        with pytest.raises(ValueError, match="at least one"):
            seeded_choice([], np.random.default_rng(0))


class TestRecordFusion:
    def test_union_schema_and_per_attribute_overrides(self):
        fusion = RecordFusion(default="most_frequent",
                              per_attribute={"price": "numeric_median",
                                             "name": "longest"})
        golden = fusion.fuse("a:1", [
            record(1, name="Acme", price="10", city="NYC"),
            record(2, name="Acme Corporation", price=30),
            record(3, name="Acme", price=20, city="NYC"),
        ])
        assert golden == {"name": "Acme Corporation", "price": 20.0,
                          "city": "NYC"}

    def test_all_none_attribute_fuses_to_none(self):
        golden = RecordFusion().fuse("a:1", [record(1, x=None, y="v"),
                                             record(2, x=None, y="v")])
        assert golden == {"x": None, "y": "v"}

    def test_empty_entity_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            RecordFusion().fuse("a:1", [])

    def test_tie_break_depends_only_on_entity_attribute_seed(self):
        # a pure tie: outcome must be identical across record orders
        # and across which other entities were fused first
        records = [record(1, v="x"), record(2, v="y")]
        fusion = RecordFusion(seed=3)
        first = fusion.fuse("a:1", records)
        second = fusion.fuse("a:1", list(reversed(records)))
        assert first == second
        fusion.fuse("a:999", [record(7, v="p"), record(8, v="q")])
        assert fusion.fuse("a:1", records) == first

    def test_describe_and_repr(self):
        fusion = RecordFusion(per_attribute={"price": "numeric_median"})
        assert fusion.describe() == {"*": "most_frequent",
                                     "price": "numeric_median"}
        assert "most_frequent" in repr(fusion)


class TestPairwiseClusterPairs:
    def test_linkage_counts_cross_side_pairs_only(self):
        clusters = [(("a", 1), ("a", 2), ("b", 7)), (("a", 3),)]
        assert pairwise_cluster_pairs(clusters) == {(1, 7), (2, 7)}

    def test_dedup_counts_unordered_pairs_once(self):
        clusters = [(("a", 1), ("a", 2), ("a", 3))]
        assert pairwise_cluster_pairs(clusters, "a", "a") == \
            {("1", "2"), ("1", "3"), ("2", "3")}


class TestAdjustedRandIndex:
    def test_identical_partitions(self):
        labels = np.array(["x", "x", "y", "z"])
        assert adjusted_rand_index(labels, labels) == \
            pytest.approx(1.0)

    def test_degenerate_partitions(self):
        singletons = np.arange(4)
        assert adjusted_rand_index(singletons,
                                   singletons) == pytest.approx(1.0)
        assert adjusted_rand_index(np.array([]),
                                   np.array([])) == pytest.approx(1.0)

    def test_disagreement_scores_below_one(self):
        gold = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([0, 1, 0, 1, 2, 2])
        assert adjusted_rand_index(gold, pred) < 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            adjusted_rand_index(np.array([0, 1]), np.array([0]))


class TestEvaluateClustering:
    def test_perfect_clustering(self):
        components = {("a", 1): (("a", 1), ("b", 1)),
                      ("a", 2): (("a", 2),), ("b", 9): (("b", 9),)}
        report = evaluate_clustering(components, {(1, 1)})
        assert report.pairwise_precision == pytest.approx(1.0)
        assert report.pairwise_recall == pytest.approx(1.0)
        assert report.pairwise_f1 == pytest.approx(1.0)
        assert report.adjusted_rand_index == pytest.approx(1.0)
        assert report.n_entities == 3
        assert sum(report.cluster_sizes.values()) == 3

    def test_over_merge_hurts_precision_not_recall(self):
        components = {("a", 1): (("a", 1), ("a", 2), ("b", 1), ("b", 2))}
        report = evaluate_clustering(components, {(1, 1), (2, 2)})
        assert report.pairwise_recall == pytest.approx(1.0)
        assert report.pairwise_precision == pytest.approx(0.5)
        assert report.adjusted_rand_index < 1.0

    def test_empty_gold_is_vacuously_perfect(self):
        report = evaluate_clustering({("a", 1): (("a", 1),)}, set())
        assert report.pairwise_f1 == pytest.approx(1.0)
        assert report.n_gold_pairs == 0
        assert report.to_dict()["n_entities"] == 1
