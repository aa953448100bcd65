"""Property-based tests for the resolve layer's determinism contracts.

The invariants: the clustering a decision stream induces is independent
of decision order and of how the stream is cut into batches, every
entity-store lookup reads one refined partition, and record fusion is a
pure function of (members, seed) — never of encounter order.
"""

import numpy as np
import resolve_oracle
from hypothesis import given, settings, strategies as st

from repro.data.pairs import RecordPair
from repro.data.table import Record
from repro.resolve import (
    ConnectedComponents,
    CorrelationClustering,
    EntityStore,
    MatchDecision,
    RecordFusion,
    decisions_fingerprint,
    node_key,
    seeded_choice,
)

N_IDS = 13
node_ids = st.integers(0, N_IDS - 1)
sides = st.sampled_from(["a", "b"])
#: Signed zeros compare equal but print differently, so draw both.
scores = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def decision_streams(draw, max_size=40):
    """A stream of scored decisions over a small node universe."""
    n = draw(st.integers(1, max_size))
    decisions = []
    for _ in range(n):
        left = node_key(draw(sides), draw(node_ids))
        right = node_key(draw(sides), draw(node_ids))
        if left == right:
            continue
        decisions.append(MatchDecision(
            left, right,
            draw(scores),
            draw(st.booleans())))
    return decisions


def clustered(decisions):
    cc = ConnectedComponents()
    cc.add_many(decisions)
    return cc.components()


def chunks(decisions, size):
    return [decisions[start:start + size]
            for start in range(0, len(decisions), size)]


def assert_one_partition(store):
    """Every lookup agrees with ``entities()``: each node's
    ``entity_of`` id names the cluster it sits in."""
    entities = store.entities()
    for entity_id, members in entities.items():
        assert store.members(entity_id) == members
        for side, record_id in members:
            assert store.entity_of(record_id, side=side) == entity_id
    for side in ("a", "b"):
        for record_id in range(N_IDS):
            entity_id = store.entity_of(record_id, side=side)
            if entity_id is not None:
                assert (side, record_id) in store.members(entity_id)


class TestClusteringInvariance:
    @settings(max_examples=60, deadline=None)
    @given(decision_streams(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, decisions, rnd):
        shuffled = list(decisions)
        rnd.shuffle(shuffled)
        assert clustered(shuffled) == clustered(decisions)
        assert decisions_fingerprint(shuffled) == \
            decisions_fingerprint(decisions)

    @settings(max_examples=60, deadline=None)
    @given(decision_streams(), st.integers(1, 10))
    def test_batch_partition_invariance(self, decisions, chunk):
        incremental = ConnectedComponents()
        for start in range(0, len(decisions), chunk):
            incremental.add_many(decisions[start:start + chunk])
        assert incremental.components() == clustered(decisions)

    @settings(max_examples=40, deadline=None)
    @given(decision_streams(), st.randoms(use_true_random=False),
           st.integers(1, 7))
    def test_store_apply_matches_batch_recluster(self, decisions, rnd,
                                                 chunk):
        """EntityStore end to end: shuffled, chunked apply() with reads
        and fingerprints in between equals the quadratic batch oracle
        over one-shot connected components — including the refined
        view — and the one-shot fingerprint."""
        shuffled = list(decisions)
        rnd.shuffle(shuffled)
        incremental = EntityStore(
            refiner=CorrelationClustering(seed=5))
        for batch in chunks(shuffled, chunk):
            incremental.apply(batch)
            if rnd.random() < 0.5:
                incremental.entities()
            if rnd.random() < 0.5:
                incremental.fingerprint
        assert incremental.entities() == resolve_oracle.batch_entities(
            decisions, CorrelationClustering(seed=5))
        assert incremental.fingerprint == decisions_fingerprint(decisions)

    @settings(max_examples=40, deadline=None)
    @given(decision_streams())
    def test_refinement_never_crosses_components(self, decisions):
        """Refinement only ever splits: every refined cluster sits
        wholly inside one connected component."""
        components = clustered(decisions)
        store = EntityStore(refiner=CorrelationClustering(seed=5))
        store.apply(decisions)
        refined = store.entities()
        component_of = {node: canonical
                        for canonical, members in components.items()
                        for node in members}
        for cluster in refined.values():
            assert len({component_of[node] for node in cluster}) == 1
        assert sorted(node for m in refined.values() for node in m) == \
            sorted(node for m in components.values() for node in m)


class TestOneRefinedPartition:
    @settings(max_examples=60, deadline=None)
    @given(decision_streams(), st.randoms(use_true_random=False),
           st.integers(1, 7))
    def test_lookups_agree_between_chunks_and_after_reload(
            self, tmp_path_factory, decisions, rnd, chunk):
        """With a refiner, ``node in members(entity_of(node))`` and
        ``entity_of`` agrees with ``entities()`` — read between shuffled
        chunks, with records registered in between, and again after a
        save/load round trip."""
        shuffled = list(decisions)
        rnd.shuffle(shuffled)
        batches = chunks(shuffled, chunk)
        store = EntityStore(refiner=CorrelationClustering(seed=5))
        registered = []
        for number, batch in enumerate(batches):
            if number == len(batches) // 2:
                directory = tmp_path_factory.mktemp("store")
                store = EntityStore.load(store.save(directory))
                assert_one_partition(store)
            store.apply(batch)
            record_id = rnd.randrange(N_IDS)
            side = rnd.choice("ab")
            store.add_records(side, [Record(record_id, ["x"], ["v"])])
            registered.append(node_key(side, record_id))
            assert_one_partition(store)
        assert store.entities() == resolve_oracle.batch_entities(
            decisions, CorrelationClustering(seed=5), registered)


class ScoredBatch:
    """The slice of a serving ``MatchResult`` that ``apply_result``
    reads: pairs, probabilities and thresholded predictions."""

    def __init__(self, scored):
        self.pairs = [RecordPair(Record(left, ["x"], [payload]),
                                 Record(right, ["x"], [payload]))
                      for left, right, _, payload in scored]
        self.probabilities = [score for _, _, score, _ in scored]
        self.predictions = [score >= 0.5 for _, _, score, _ in scored]


payloads = st.sampled_from(["x", "y", "z"])


@st.composite
def store_scripts(draw, max_steps=14):
    """Store method calls: writes (``add_records`` re-adding ids,
    ``apply``, ``apply_result``) with saves and save-then-load steps
    between."""
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        kind = draw(st.sampled_from(
            ["add_records", "apply", "apply_result", "save", "reload"]))
        if kind == "add_records":
            steps.append((kind, draw(sides), [
                Record(record_id, ["x"], [draw(payloads)])
                for record_id in draw(st.lists(node_ids, max_size=4))]))
        elif kind == "apply":
            steps.append((kind, draw(decision_streams(max_size=6))))
        elif kind == "apply_result":
            steps.append((kind, ScoredBatch(draw(st.lists(
                st.tuples(node_ids, node_ids, scores, payloads),
                max_size=4)))))
        else:
            steps.append((kind,))
    return steps


def assert_same_store(store, reference):
    assert store.entities() == reference.entities()
    for side in ("a", "b"):
        for record_id in range(N_IDS):
            assert store.entity_of(record_id, side=side) == \
                reference.entity_of(record_id, side=side)
    assert store.golden_records() == reference.golden_records()
    assert store.stats() == reference.stats()
    assert store.version == reference.version
    assert store.fingerprint == reference.fingerprint


class TestSnapshotRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(store_scripts(), st.sampled_from([None, 0.5]))
    def test_saved_and_reloaded_store_matches_one_that_never_saved(
            self, tmp_path_factory, script, threshold):
        """Saves reuse the chunks of earlier saves and a load replays
        the forest from the log; neither may change what the store
        answers, including after a reload that keeps writing and
        saving."""
        def make():
            return EntityStore(threshold=threshold,
                               refiner=CorrelationClustering(seed=5),
                               fusion=RecordFusion(default="newest"))

        directory = tmp_path_factory.mktemp("store")
        reference, store = make(), make()
        for kind, *arguments in script:
            if kind == "save":
                store.save(directory)
            elif kind == "reload":
                store = EntityStore.load(store.save(directory))
            else:
                getattr(reference, kind)(*arguments)
                getattr(store, kind)(*arguments)
        loaded = EntityStore.load(store.save(directory))
        assert_same_store(loaded, reference)
        assert_same_store(store, reference)


values = st.one_of(st.text(max_size=6),
                   st.integers(-50, 50),
                   st.floats(-50, 50, allow_nan=False),
                   st.booleans(),
                   st.none())


class TestFusionDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(values, min_size=1, max_size=8),
           st.integers(0, 10**6),
           st.randoms(use_true_random=False),
           st.sampled_from(["longest", "most_frequent",
                            "numeric_median"]))
    def test_resolvers_ignore_value_order(self, raw, seed, rnd, name):
        present = [value for value in raw if value is not None]
        if not present:
            return
        shuffled = list(present)
        rnd.shuffle(shuffled)
        from repro.resolve import make_resolver

        resolver = make_resolver(name)
        first = resolver.resolve(present, np.random.default_rng(seed))
        second = resolver.resolve(shuffled, np.random.default_rng(seed))
        assert first == second or (first != first and second != second)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=4), min_size=1, max_size=6),
           st.integers(0, 10**6))
    def test_seeded_choice_multiset_property(self, candidates, seed):
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        assert seeded_choice(candidates, rng_a) == \
            seeded_choice(sorted(candidates, reverse=True), rng_b)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(values, min_size=2, max_size=2),
                    min_size=1, max_size=5),
           st.integers(0, 99),
           st.randoms(use_true_random=False))
    def test_fusion_is_pure_in_members_and_seed(self, rows, seed, rnd):
        records = [Record(i, ["x", "y"], row)
                   for i, row in enumerate(rows)]
        fusion = RecordFusion(default="most_frequent", seed=seed)
        golden = fusion.fuse("a:0", records)
        # fusing other entities in between must not perturb the outcome
        fusion.fuse("a:1", records)
        assert fusion.fuse("a:0", records) == golden
        # a fresh fusion with the same seed agrees
        assert RecordFusion(default="most_frequent",
                            seed=seed).fuse("a:0", records) == golden
