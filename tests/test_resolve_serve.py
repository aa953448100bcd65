"""Serving-path integration of the resolve layer.

Covers the resolver tap on BatchMatcher/StreamMatcher, the typed
NoStandingIndexError, the MatchService monitoring surface, and the
acceptance end-to-end: train → export → stream with resolution →
stable entity ids whose cluster pairwise F1 is no worse than the
matcher's own pairwise F1, with incremental clustering bit-identical
to a one-shot batch re-cluster.
"""

import numpy as np
import pytest

from repro.blocking import gold_pair_keys
from repro.events import read_events
from repro.ml.metrics import precision_recall_f1
from repro.resolve import (
    CorrelationClustering,
    EntityStore,
    decisions_from_result,
    evaluate_clustering,
)
from repro.serve import BatchMatcher, NoStandingIndexError, StreamMatcher


@pytest.fixture()
def bundle(trained_em):
    return trained_em[0].export_bundle()


class TestNoStandingIndexError:
    def test_typed_and_backward_compatible(self, bundle):
        stream = StreamMatcher(bundle)
        with pytest.raises(NoStandingIndexError,
                           match="standing block index"):
            stream.submit_records([])
        # RuntimeError-flavored, but still a ValueError for old callers
        assert issubclass(NoStandingIndexError, RuntimeError)
        assert issubclass(NoStandingIndexError, ValueError)
        with pytest.raises(ValueError, match="standing block"):
            stream.extend_index([])

    def test_message_names_both_remedies(self, bundle):
        stream = StreamMatcher(bundle)
        with pytest.raises(NoStandingIndexError) as excinfo:
            stream.extend_index([])
        assert "blocker.index(catalog)" in str(excinfo.value)
        assert "BlockIndex.load(path)" in str(excinfo.value)


class TestResolverTap:
    def test_entities_attached_to_results(self, trained_em, bundle):
        _, _, _, test = trained_em
        store = EntityStore()
        with BatchMatcher(bundle, batch_size=64,
                          resolver=store) as served:
            result = served.match_pairs(test[:20])
        assert result.entities is not None
        assert len(result.entities) == len(
            {p.left.record_id for p in result.pairs}) + len(
            {p.right.record_id for p in result.pairs})
        assert all(":" in key and ":" in value
                   for key, value in result.entities.items())
        assert store.version == 1
        assert store.n_decisions == 20

    def test_no_resolver_means_no_entities(self, trained_em, bundle):
        _, _, _, test = trained_em
        result = BatchMatcher(bundle).match_pairs(test[:5])
        assert result.entities is None

    def test_request_log_counts_entities(self, trained_em, bundle,
                                         tmp_path):
        _, _, _, test = trained_em
        log_path = tmp_path / "requests.jsonl"
        with BatchMatcher(bundle, batch_size=64, resolver=EntityStore(),
                          request_log=log_path) as served:
            served.match_pairs(test[:10])
        record = read_events(log_path)[0]
        assert record["type"] == "request"
        assert record["n_entities"] >= 1

    def test_assignments_stable_across_repeat_requests(self, trained_em,
                                                       bundle):
        _, _, _, test = trained_em
        store = EntityStore()
        stream = StreamMatcher(bundle, resolver=store)
        first = stream.submit(test[:15]).entities
        again = stream.submit(test[:15]).entities
        assert first == again

    def test_service_status_carries_resolve_stats(self, trained_em,
                                                  bundle):
        from repro.monitor import ClusterChurnTrigger
        from repro.resolve import MatchDecision, node_key
        from repro.serve.service import MatchService

        store = EntityStore()
        # two attachments, then a merge of two real entities: 1/3 rate
        store.apply([
            MatchDecision(node_key("a", 1), node_key("b", 1), 0.9, True),
            MatchDecision(node_key("a", 2), node_key("b", 2), 0.9, True),
            MatchDecision(node_key("a", 1), node_key("a", 2), 0.9, True),
        ])
        churn = ClusterChurnTrigger(threshold=0.3, min_unions=1)
        with MatchService(StreamMatcher(bundle, resolver=store),
                          workers=1) as service:
            plan = service.check_trigger(policies=[churn])
        assert plan is not None
        assert plan.policy == "cluster_churn"
        assert plan.details["n_unions"] == 3
        assert plan.details["entity_merge_rate"] == pytest.approx(1 / 3)


class TestResolutionEndToEnd:
    def test_stream_resolution_acceptance(self, trained_em, bundle):
        """The ISSUE acceptance gate, on the real trained matcher."""
        _, _, _, test = trained_em
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        results = []
        chunk = max(1, len(test) // 4)
        with StreamMatcher(bundle, resolver=store) as stream:
            for start in range(0, len(test), chunk):
                results.append(stream.submit(test[start:start + chunk]))

        predictions = np.concatenate([r.predictions for r in results])
        _, _, decision_f1 = precision_recall_f1(test.labels, predictions)

        entities = store.entities()
        components = {members[0]: members
                      for members in entities.values()}
        report = evaluate_clustering(components, gold_pair_keys(test))
        # transitive closure + refinement must not lose quality
        assert report.pairwise_f1 >= decision_f1 - 1e-9
        assert report.n_entities == len(entities)

        # incremental apply() is bit-identical to batch re-clustering
        decisions = [d for r in results
                     for d in decisions_from_result(r)]
        batch_store = EntityStore(
            refiner=CorrelationClustering(seed=0))
        batch_store.apply(decisions)
        assert batch_store.entities() == entities
        assert batch_store.fingerprint == store.fingerprint

        # entity ids are stable: a different chunking yields them too
        other = EntityStore(refiner=CorrelationClustering(seed=0))
        for start in range(0, len(decisions), 7):
            other.apply(decisions[start:start + 7])
        assert other.entities() == entities
