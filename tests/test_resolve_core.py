"""Unit tests for the resolve layer's decision and clustering cores."""

import pickle

import numpy as np
import pytest
import resolve_oracle

from repro.resolve import (
    ConnectedComponents,
    CorrelationClustering,
    EntityStore,
    MatchDecision,
    decisions_fingerprint,
    entity_id_for,
    gold_decisions,
    node_key,
    order_key,
    stable_hash,
)
from repro.resolve.decisions import decision_entry


def D(left, right, score=0.9, matched=True):
    return MatchDecision(node_key(*left), node_key(*right), score, matched)


def refine(refiner, components, decisions):
    """Refine ``components`` through the production path (``observe``
    then ``split`` per component) and check the result against the
    quadratic batch oracle; canonical → sorted members."""
    refiner.observe(decisions)
    refined = {cluster[0]: cluster
               for canonical, members in components.items()
               for cluster in refiner.split(canonical, members)}
    assert refined == resolve_oracle.refine(refiner, components, decisions)
    return refined


class TestDecisions:
    def test_node_key_requires_side(self):
        with pytest.raises(ValueError, match="side"):
            node_key("", 3)

    def test_order_key_totals_mixed_id_types(self):
        # int and str ids would not compare directly; order_key must
        # still induce one total, permutation-independent order
        nodes = [("a", 10), ("a", "10"), ("b", 2), ("a", 2)]
        ordered = sorted(nodes, key=order_key)
        assert sorted(reversed(nodes), key=order_key) == ordered
        assert ordered[0][0] == "a" and ordered[-1] == ("b", 2)
        # side dominates; within a side the type name breaks str(id) ties
        assert order_key(("a", 10)) < order_key(("a", "10"))

    def test_entity_id_format(self):
        assert entity_id_for(("a", 7)) == "a:7"
        assert entity_id_for(("b", "x1")) == "b:x1"

    def test_stable_hash_is_process_stable(self):
        # pinned digests: these must never change across runs/processes
        assert stable_hash("a:1") == stable_hash("a:1")
        assert stable_hash("a:1") != stable_hash("a:2")
        assert isinstance(stable_hash(("a", 1)), int)

    def test_score_bounds_and_self_edges_rejected(self):
        with pytest.raises(ValueError, match="score"):
            D(("a", 1), ("b", 1), score=1.5)
        with pytest.raises(ValueError, match="self-edge"):
            D(("a", 1), ("a", 1))

    def test_key_and_equality_are_endpoint_order_free(self):
        forward = D(("a", 1), ("b", 2))
        backward = D(("b", 2), ("a", 1))
        assert forward.key == backward.key
        assert decision_entry(forward) == decision_entry(backward)

    def test_fingerprint_ignores_order_and_direction(self):
        batch = [D(("a", 1), ("b", 2)), D(("a", 3), ("b", 4), 0.2, False)]
        flipped = [D(("b", 4), ("a", 3), 0.2, False),
                   D(("b", 2), ("a", 1))]
        assert decisions_fingerprint(batch) == \
            decisions_fingerprint(flipped)
        assert decisions_fingerprint(batch) != \
            decisions_fingerprint(batch[:1])

    def test_fingerprint_ignores_order_of_signed_zero_scores(self):
        """``-0.0 == 0.0``, so a sort key on the score ties on them; the
        entry maps both to ``0.0`` and sorts by its own bytes, so the
        input order cannot show through."""
        zero = D(("a", 1), ("b", 2), 0.0, False)
        negative_zero = D(("a", 1), ("b", 2), -0.0, False)
        assert decisions_fingerprint([zero, negative_zero]) == \
            decisions_fingerprint([negative_zero, zero])
        assert decisions_fingerprint([negative_zero]) == \
            decisions_fingerprint([zero])

    def test_fingerprint_reads_numpy_scalars_as_their_values(self):
        plain = D(("a", 1), ("b", 2), 0.75, True)
        numpy_typed = D(("a", 1), ("b", 2), np.float64(0.75), np.True_)
        assert numpy_typed == plain
        assert decisions_fingerprint([numpy_typed]) == \
            decisions_fingerprint([plain])

    def test_gold_decisions_oracle(self, small_benchmark):
        _, _, test = small_benchmark.splits(seed=0)
        decisions = gold_decisions(test)
        assert len(decisions) == len(test)
        assert all(d.score in (0.0, 1.0) for d in decisions)
        assert all(d.matched == bool(d.score) for d in decisions)

    def test_gold_decisions_rejects_unlabeled(self, small_benchmark):
        from repro.data.pairs import PairSet, RecordPair

        table = small_benchmark.table_a
        unlabeled = PairSet(table, small_benchmark.table_b,
                            [RecordPair(table[0],
                                        small_benchmark.table_b[0])])
        with pytest.raises(ValueError, match="gold label"):
            gold_decisions(unlabeled)


class TestConnectedComponents:
    def test_transitive_closure(self):
        cc = ConnectedComponents()
        cc.add_many([D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2))])
        assert cc.canonical(("a", 2)) == ("a", 1)
        assert cc.component_size(("b", 1)) == 3
        assert cc.n_components == 1

    def test_negative_decisions_register_but_never_merge(self):
        cc = ConnectedComponents()
        assert cc.add(D(("a", 1), ("b", 1), 0.1, False)) is False
        assert ("a", 1) in cc and ("b", 1) in cc
        assert cc.n_components == 2

    def test_threshold_gates_positive_edges(self):
        cc = ConnectedComponents(threshold=0.8)
        assert cc.add(D(("a", 1), ("b", 1), 0.7, True)) is False
        assert cc.add(D(("a", 1), ("b", 1), 0.9, True)) is True
        with pytest.raises(ValueError, match="threshold"):
            ConnectedComponents(threshold=1.5)

    def test_components_view_is_insertion_order_free(self):
        batch = [D(("a", 1), ("b", 1)), D(("a", 2), ("b", 2)),
                 D(("b", 1), ("a", 2)), D(("a", 3), ("b", 9), 0.1, False)]
        forward, backward = ConnectedComponents(), ConnectedComponents()
        forward.add_many(batch)
        backward.add_many(list(reversed(batch)))
        assert forward.components() == backward.components()
        assert list(forward.components()) == \
            sorted(forward.components(), key=order_key)

    def test_churn_accounting(self):
        cc = ConnectedComponents()
        cc.add(D(("a", 1), ("b", 1)))   # attachment (both singletons)
        cc.add(D(("a", 2), ("b", 2)))   # attachment
        cc.add(D(("a", 1), ("a", 2)))   # merge of two real entities
        cc.add(D(("a", 1), ("b", 1)))   # no-op, already joined
        assert cc.n_attachments == 2
        assert cc.n_entity_merges == 1
        assert cc.n_unions == 3
        assert cc.stats()["entity_merge_rate"] == pytest.approx(1 / 3)

    def test_members_and_sizes(self):
        cc = ConnectedComponents()
        cc.add_many([D(("a", 1), ("b", 1)), D(("a", 5), ("b", 9),
                                              0.2, False)])
        assert cc.members(("b", 1)) == (("a", 1), ("b", 1))
        assert sorted(cc.sizes()) == [1, 1, 2]

    def test_member_lists_survive_pickle_and_keep_merging(self):
        """A pickled store leaves its forest out (no ``_parent``,
        ``_rank``, ``_size`` or ``_min``); unpickling replays the log,
        so the member lists come back and keep merging."""
        store = EntityStore()
        store.apply([D(("a", i), ("b", i)) for i in range(4)]
                    + [D(("b", i), ("a", i + 1)) for i in range(2)])
        before = store._cc.components()
        payload = pickle.dumps(store)
        for name in (b"_parent", b"_rank", b"_size", b"_min",
                     b"ConnectedComponents"):
            assert name not in payload
        loaded = pickle.loads(payload)._cc
        assert loaded.components() == before
        assert loaded.members(("b", 1)) == before[("a", 0)]
        assert loaded.stats() == store._cc.stats()
        loaded.add(D(("b", 2), ("a", 3)))
        assert loaded.members(("a", 3)) == tuple(
            sorted(before[("a", 0)] + before[("a", 3)], key=order_key))


class TestCorrelationClustering:
    def test_splits_component_with_internal_negative(self):
        # a1 - b1 (positive), b1 - a2 (positive), a1 - a2 (negative):
        # transitive closure over-merges; the pivot pass must split.
        decisions = [D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2)),
                     D(("a", 1), ("a", 2), 0.05, False)]
        cc = ConnectedComponents()
        cc.add_many(decisions)
        assert cc.n_components == 1
        refined = refine(CorrelationClustering(seed=0), cc.components(),
                         decisions)
        assert len(refined) == 2
        members = sorted(refined.values())
        assert all(len(cluster) <= 2 for cluster in members)
        # every cluster is keyed by its own minimum member
        assert all(key == cluster[0] for key, cluster in refined.items())

    def test_clean_components_pass_through_untouched(self):
        decisions = [D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2))]
        cc = ConnectedComponents()
        cc.add_many(decisions)
        refined = refine(CorrelationClustering(), cc.components(),
                         decisions)
        assert refined == cc.components()

    def test_min_component_leaves_pairs_alone(self):
        decisions = [D(("a", 1), ("b", 1)),
                     D(("a", 1), ("b", 1), 0.1, False)]
        cc = ConnectedComponents()
        cc.add_many(decisions)
        refined = refine(CorrelationClustering(min_component=3),
                         cc.components(), decisions)
        assert refined == cc.components()

    def test_negative_threshold_ignores_borderline_negatives(self):
        decisions = [D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2)),
                     D(("a", 1), ("a", 2), 0.45, False)]
        cc = ConnectedComponents()
        cc.add_many(decisions)
        strict = CorrelationClustering(negative_threshold=0.3)
        assert refine(strict, cc.components(), decisions) == \
            cc.components()
        loose = CorrelationClustering(negative_threshold=0.6)
        assert len(refine(loose, cc.components(), decisions)) == 2

    def test_refinement_is_seed_deterministic(self):
        decisions = [D(("a", i), ("b", i)) for i in range(6)]
        decisions += [D(("b", i), ("a", i + 1)) for i in range(5)]
        decisions += [D(("a", 0), ("b", 5), 0.02, False),
                      D(("a", 2), ("b", 4), 0.03, False)]
        cc = ConnectedComponents()
        cc.add_many(decisions)
        first = refine(CorrelationClustering(seed=11), cc.components(),
                       decisions)
        second = refine(CorrelationClustering(seed=11), cc.components(),
                        decisions)
        assert first == second
        # the pivot pass really split something, so the seed mattered
        assert len(first) > 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="negative_threshold"):
            CorrelationClustering(negative_threshold=2.0)
        with pytest.raises(ValueError, match="min_component"):
            CorrelationClustering(min_component=1)
