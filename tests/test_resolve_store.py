"""Unit tests for the versioned EntityStore and its persistence."""

import gc
import hashlib
import json
import sys
import threading

import pytest
import resolve_oracle

from repro import persist
from repro.concurrency import lock_witness_enabled
from repro.data.pairs import RecordPair
from repro.data.table import Record
from repro.events import EventLog, read_events
from repro.resolve import (
    LATEST_POINTER,
    STORE_FORMAT_VERSION,
    CorrelationClustering,
    EntityStore,
    EntityStoreError,
    MatchDecision,
    RecordFusion,
    decisions_fingerprint,
    node_key,
)
from repro.resolve import store as store_module
from repro.resolve.store import STORE_KIND


def D(left, right, score=0.9, matched=True):
    return MatchDecision(node_key(*left), node_key(*right), score, matched)


def record(record_id, **attrs):
    return Record(record_id, list(attrs), list(attrs.values()))


class Result:
    """The slice of a serving ``MatchResult`` that ``apply_result``
    reads: pairs, probabilities and thresholded predictions."""

    def __init__(self, *scored):
        self.pairs = [RecordPair(record(left, v=left), record(right, v=right))
                      for left, right, _ in scored]
        self.probabilities = [score for _, _, score in scored]
        self.predictions = [score >= 0.5 for _, _, score in scored]


class SpyRefiner(CorrelationClustering):
    """Records the canonical of every component it is asked to split."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.split_calls = []

    def split(self, canonical, members):
        self.split_calls.append(canonical)
        return super().split(canonical, members)


#: Over-merged: a1 - b1 - a2 chained by positives, a1 - a2 negative.
OVER_MERGED = [D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2)),
               D(("a", 1), ("a", 2), 0.05, False)]


@pytest.fixture()
def store():
    built = EntityStore()
    built.add_records("a", [record(1, name="Acme", city="NYC"),
                            record(2, name="Acme Inc", city="NYC")])
    built.add_records("b", [record(1, name="Acme", city=None)])
    built.apply([D(("a", 1), ("b", 1)), D(("a", 2), ("b", 1))])
    return built


class TestEntityStore:
    def test_versioning_and_delta(self, store):
        assert store.version == 1
        delta = store.apply([D(("a", 9), ("b", 9))])
        assert store.version == 2
        assert delta.version == 2
        assert delta.n_decisions == 1
        assert delta.n_new_nodes == 2
        assert delta.n_unions == delta.n_attachments == 1
        assert delta.n_entity_merges == 0
        assert delta.entity_merge_rate == pytest.approx(0.0)
        assert "entity_merge_rate" in delta.to_dict()

    def test_lookups(self, store):
        assert store.entity_of(1) == "a:1"
        assert store.entity_of(1, side="b") == "a:1"
        assert store.entity_of(404) is None
        assert store.members("a:1") == (("a", 1), ("a", 2), ("b", 1))
        with pytest.raises(KeyError, match="unknown entity"):
            store.members("a:404")
        assert store.record_of(("a", 1))["name"] == "Acme"
        assert store.record_of(("a", 404)) is None
        assert len(store) == store.n_entities == 1
        assert store.n_records == 3
        assert "EntityStore(v1" in repr(store)

    def test_golden_record(self, store):
        golden = store.golden("a:1")
        assert golden["name"] == "Acme"       # modal value
        assert golden["city"] == "NYC"        # None payload skipped
        assert store.golden_records() == {"a:1": golden}

    def test_golden_without_payloads_raises(self):
        bare = EntityStore()
        bare.apply([D(("a", 1), ("b", 1))])
        with pytest.raises(EntityStoreError, match="no stored records"):
            bare.golden("a:1")

    def test_readd_replaces_payload_newest_wins(self, store):
        store.add_records("a", [record(1, name="Acme Updated",
                                       city="NYC")])
        fused = EntityStore(fusion=RecordFusion(default="newest"))
        fused.add_records("a", [record(1, v="old")])
        fused.add_records("a", [record(1, v="new")])
        assert store.record_of(("a", 1))["name"] == "Acme Updated"
        assert fused.golden("a:1") == {"v": "new"}

    def test_refiner_splits_in_entities_view(self):
        decisions = [D(("a", 1), ("b", 1)), D(("b", 1), ("a", 2)),
                     D(("a", 1), ("a", 2), 0.05, False)]
        raw = EntityStore()
        raw.apply(decisions)
        refined = EntityStore(refiner=CorrelationClustering(seed=0))
        refined.apply(decisions)
        assert len(raw.entities()) == 1
        assert len(refined.entities()) == 2

    def test_every_lookup_reads_the_refined_partition(self):
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        store.apply(OVER_MERGED)
        entities = store.entities()
        assert len(entities) == 2 and store.n_entities == 1
        for entity_id, members in entities.items():
            for side, record_id in members:
                assert store.entity_of(record_id, side=side) == entity_id
        # the split leaves one node outside the raw canonical's cluster
        assert any(store.entity_of(record_id, side=side) != "a:1"
                   for side, record_id in (("a", 2), ("b", 1)))

    def test_apply_result_returns_refined_ids(self):
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        # a1 - b1 - a2 chain into one entity; a negative a1 - a2 splits it
        ids = store.apply_result(Result((1, 1, 0.9), (2, 1, 0.9)))
        assert set(ids.values()) == {"a:1"}
        store.apply([D(("a", 1), ("a", 2), 0.05, False)])
        ids = store.apply_result(Result((2, 1, 0.9)))
        for key, entity_id in ids.items():
            side, record_id = key.split(":")
            node = (side, int(record_id))
            assert store.entity_of(int(record_id), side=side) == entity_id
            assert node in store.members(entity_id)
            assert store.golden(entity_id)

    def test_reads_refresh_only_touched_components(self):
        refiner = SpyRefiner(seed=0)
        store = EntityStore(refiner=refiner)
        store.apply(OVER_MERGED + [D(("a", 7), ("b", 7))])
        assert refiner.split_calls == []          # writes never refine
        store.entity_of(1)
        assert sorted(refiner.split_calls) == [("a", 1), ("a", 7)]
        refiner.split_calls.clear()
        store.members("a:7")
        store.golden_records()
        assert refiner.split_calls == []          # the view is current
        store.apply([D(("a", 7), ("b", 8))])
        store.add_records("b", [record(9, v=9)])
        assert store.entity_of(9, side="b") == "b:9"
        assert sorted(refiner.split_calls) == [("a", 7), ("b", 9)]

    def test_concurrent_writers_and_readers_share_one_partition(self):
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        batches = [[D(("a", i), ("b", i)), D(("b", i), ("a", i + 1)),
                    D(("a", i), ("a", i + 1), 0.05, False)]
                   for i in range(0, 60, 2)]
        errors = []

        def worker(index):
            try:
                for batch in batches[index::4]:
                    store.apply(batch)
                    left, right = batch[0].left, batch[1].right
                    for side, record_id in (left, right):
                        entity_id = store.entity_of(record_id, side=side)
                        assert (side, record_id) in store.members(entity_id)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        with lock_witness_enabled() as witness:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        assert witness.edges() == {}
        decisions = [decision for batch in batches for decision in batch]
        assert store.entities() == resolve_oracle.batch_entities(
            decisions, CorrelationClustering(seed=0))

    def test_stats_surface(self, store):
        stats = store.stats()
        assert stats["version"] == 1
        assert stats["n_decisions"] == 2
        assert stats["n_records"] == 3
        assert stats["n_unions"] == 2
        assert stats["n_attachments"] == 2
        assert stats["last_entity_merge_rate"] == pytest.approx(0.0)
        assert stats["last_n_entity_merges"] == 0

    def test_concurrent_apply_keeps_counters_consistent(self):
        shared = EntityStore()
        batches = [[D(("a", i), ("b", i))] for i in range(40)]

        def worker(chunk):
            for batch in chunk:
                shared.apply(batch)

        threads = [threading.Thread(target=worker,
                                    args=(batches[i::4],))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert shared.version == 40
        assert shared.n_decisions == 40
        assert shared.n_entities == 40


def forged_state(store, decisions=None):
    """``store``'s snapshot state, with its decision rows replaced."""
    state = dict(store.__getstate__())
    if decisions is not None:
        state["decisions"] = store_module._encode(decisions)
    return state


def write_forged(tmp_path, state, store):
    """A checked snapshot file whose payload unpickles from ``state``
    and whose header carries ``store``'s fingerprint."""

    class Forged:
        def __reduce__(self):
            return (object.__new__, (EntityStore,), state)

    path = tmp_path / "snap.pkl"
    path.write_bytes(persist.checked_pickle(
        STORE_KIND, STORE_FORMAT_VERSION, Forged(),
        decisions_fingerprint=store.fingerprint))
    return path


def resign(data):
    """``data`` with its header checksum recomputed over the payload."""
    magic, header, payload = data.split(b"\n", 2)
    fields = json.loads(header)
    fields["sha256"] = hashlib.sha256(payload).hexdigest()
    return b"\n".join([magic, json.dumps(fields).encode(), payload])


class TestPersistence:
    def test_round_trip_through_directory_latest(self, store, tmp_path):
        path = store.save(tmp_path)
        assert path.name == "snapshot-v000001.pkl"
        assert STORE_FORMAT_VERSION == 5
        assert b'"format": 5' in path.read_bytes().split(b"\n")[1]
        assert (tmp_path / LATEST_POINTER).read_text().strip() == \
            path.name
        loaded = EntityStore.load(tmp_path)
        assert loaded.version == store.version
        assert loaded.fingerprint == store.fingerprint
        assert loaded.entities() == store.entities()
        assert loaded.golden("a:1") == store.golden("a:1")
        # the loaded store is live: locks were recreated on unpickle
        loaded.apply([D(("a", 9), ("b", 9))])
        assert loaded.version == 2

    def test_members_after_load(self, tmp_path):
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        store.add_records("b", [record(5, v=5)])
        store.apply(OVER_MERGED + [D(("a", 7), ("b", 7)),
                                   D(("b", 7), ("a", 8))])
        loaded = EntityStore.load(store.save(tmp_path))
        assert loaded.entities() == store.entities()
        for entity_id, members in store.entities().items():
            assert loaded.members(entity_id) == members
        assert loaded.entity_of(5, side="b") == "b:5"
        # the union-find member lists were rebuilt and keep merging
        loaded.apply([D(("a", 8), ("b", 5))])
        assert loaded.members("a:7") == (("a", 7), ("a", 8), ("b", 5),
                                         ("b", 7))

    def test_snapshot_holds_no_derived_state(self, tmp_path):
        """The view, the refiner's signed edges, the fingerprint cache
        and the whole union-find forest are rebuilt on load, never
        saved: the snapshot is a small head and the two row streams."""
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        store.add_records("a", [record(1, v=1)])
        store.apply(OVER_MERGED)
        store.entities()
        store.fingerprint
        state = store.__getstate__()
        assert set(state) == {"version", "last_delta", "threshold",
                              "refiner", "fusion", "counters", "records",
                              "decisions"}
        # the fingerprint cache is filled, yet left out
        assert store._entries and store._encoded == len(OVER_MERGED)
        assert store_module._decode(state["decisions"]) == [
            (d.left, d.right, d.score, d.matched) for d in OVER_MERGED]
        assert store_module._decode(state["records"]) == [
            (("a", 1), record(1, v=1))]
        assert state["counters"] == store._cc.stats()
        # the refiner and the fusion policy are constructor arguments
        assert state["refiner"] == {"seed": 0, "negative_threshold": None,
                                    "min_component": 3}
        assert state["fusion"] == {"default": "most_frequent",
                                   "per_attribute": {}, "seed": 0}
        assert state["last_delta"] == (1, 3, 2, 2, 2, 0, 1)
        payload = store.save(tmp_path).read_bytes()
        for name in (b"_parent", b"_rank", b"_size", b"_min",
                     b"_members", b"ConnectedComponents"):
            assert name not in payload

    def test_save_drops_log_but_logs_the_snapshot(self, store, tmp_path):
        store.log = EventLog(tmp_path / "resolve.jsonl")
        path = store.save(tmp_path)
        store.log.close()
        lines = read_events(tmp_path / "resolve.jsonl")
        assert [line["type"] for line in lines] == ["snapshot"]
        assert lines[0]["store_version"] == 1
        assert EntityStore.load(path).log is None

    def test_missing_latest_pointer(self, tmp_path):
        with pytest.raises(EntityStoreError, match=LATEST_POINTER):
            EntityStore.load(tmp_path)

    def test_unreadable_snapshot(self, tmp_path):
        garbage = tmp_path / "snapshot-v000001.pkl"
        garbage.write_bytes(b"not a pickle")
        with pytest.raises(EntityStoreError, match="not a readable"):
            EntityStore.load(garbage)

    def test_wrong_payload_shape(self, tmp_path):
        target = tmp_path / "snap.pkl"
        target.write_bytes(persist.checked_pickle(
            STORE_KIND, STORE_FORMAT_VERSION, [1, 2, 3]))
        with pytest.raises(EntityStoreError, match="does not contain"):
            EntityStore.load(target)

    def test_format_version_mismatch(self, store, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(persist.checked_pickle(
            STORE_KIND, STORE_FORMAT_VERSION + 1, store,
            decisions_fingerprint=store.fingerprint))
        with pytest.raises(EntityStoreError, match="unsupported"):
            EntityStore.load(path)

    def test_format_2_snapshot_is_refused(self, store, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(persist.checked_pickle(
            STORE_KIND, 2, store, decisions_fingerprint=store.fingerprint))
        with pytest.raises(EntityStoreError, match="format 2"):
            EntityStore.load(path)

    def test_format_3_snapshot_is_refused(self, store, tmp_path):
        """Format 3 pickled the forest and the whole store; there is no
        reader for it."""
        path = tmp_path / "snap.pkl"
        path.write_bytes(persist.checked_pickle(
            STORE_KIND, 3, store, decisions_fingerprint=store.fingerprint))
        with pytest.raises(EntityStoreError, match="format 3"):
            EntityStore.load(path)

    def test_format_4_snapshot_is_refused(self, store, tmp_path):
        """Format 4 pickled the refiner and fusion objects and the last
        delta as they were; there is no reader for it."""
        path = tmp_path / "snap.pkl"
        path.write_bytes(persist.checked_pickle(
            STORE_KIND, 4, store, decisions_fingerprint=store.fingerprint))
        with pytest.raises(EntityStoreError, match="format 4"):
            EntityStore.load(path)

    @pytest.mark.parametrize("field, value", [
        ("version", "1"), ("version", -1), ("last_delta", None),
        ("last_delta", (2, 2, 3, 2, 2, 0, 1)),
        ("last_delta", (1, 2, 3, 2, 2, 0)), ("threshold", 2.0),
        ("threshold", "0.5"), ("refiner", {"seed": 0, "colour": 1}),
        ("refiner", ["seed"]), ("fusion", {"default": "loudest"}),
        ("fusion", {"per_attribute": 3}), ("records", bytearray()),
    ])
    def test_malformed_head_field_fails_load(self, store, tmp_path, field,
                                             value):
        state = forged_state(store)
        state[field] = value
        with pytest.raises(EntityStoreError, match="not a readable"):
            EntityStore.load(write_forged(tmp_path, state, store))

    @pytest.mark.parametrize("row", [
        (("a", 1), {"name": "Acme"}),
        (("a", 2), record(1, name="Acme")),
        (("a", "1"), record(1, name="Acme")),
        (("", 1), record(1, name="Acme")),
        ("a:1", record(1, name="Acme")),
        (("a", 1), Record(1, [("name",)], ["Acme"])),
        (("a", 1), record(1, name=["Acme"])),
        (("a", 1),),
    ])
    def test_malformed_record_row_fails_load(self, store, tmp_path, row):
        state = forged_state(store)
        state["records"] = store_module._encode([row])
        with pytest.raises(EntityStoreError, match="not a readable"):
            EntityStore.load(write_forged(tmp_path, state, store))

    def test_every_flipped_byte_fails_load_or_loads_a_working_store(
            self, tmp_path):
        """Re-signed past the checksum, a flip anywhere in the payload
        (head, record stream or decision stream) raises the typed error
        or loads a store whose reads all run.  Flipped record values
        that keep a valid type stay undetectable: no digest covers the
        records."""
        store = EntityStore(refiner=CorrelationClustering(seed=0),
                            fusion=RecordFusion(
                                per_attribute={"price": "numeric_median"}))
        store.add_records("a", [record(1, name="Acme", price=1.5),
                                record(2, name="Acme Inc", price=None)])
        store.add_records("b", [record(1, name="acme", price=2.0)])
        store.apply(OVER_MERGED)
        data = store.save(tmp_path).read_bytes()
        start = data.index(b"\n", data.index(b"\n") + 1) + 1
        outcomes = {"error": 0, "loaded": 0}
        for mask in (0xFF, 0x01):
            for offset in range(start, len(data)):
                flipped = bytearray(data)
                flipped[offset] ^= mask
                (tmp_path / "resigned.pkl").write_bytes(resign(flipped))
                try:
                    loaded = EntityStore.load(tmp_path / "resigned.pkl")
                except EntityStoreError:
                    outcomes["error"] += 1
                    continue
                outcomes["loaded"] += 1
                loaded.entities()
                loaded.stats()
                loaded.golden_records()
        assert outcomes["error"] > 0 and outcomes["loaded"] > 0

    def test_invalid_decision_row_fails_load(self, store, tmp_path):
        """Rows are rebuilt through the ``MatchDecision`` constructor,
        so a hand-written score outside [0, 1] never loads, and fails
        with the typed error rather than a bare ``ValueError``."""
        state = forged_state(store, decisions=[
            (("a", 1), ("b", 1), 1.5, True)])
        with pytest.raises(EntityStoreError, match="score") as raised:
            EntityStore.load(write_forged(tmp_path, state, store))
        assert isinstance(raised.value, EntityStoreError)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_load_pauses_the_collector_and_restores_its_state(
            self, store, tmp_path, monkeypatch, enabled):
        """The replay runs with the cyclic collector off; afterwards the
        caller's setting is back, also when the load fails."""
        seen = []
        restore = store_module.EntityStore._restore

        def spy(self, state):
            seen.append(gc.isenabled())
            return restore(self, state)

        monkeypatch.setattr(store_module.EntityStore, "_restore", spy)
        good = store.save(tmp_path / "good")
        bad = forged_state(store)
        bad["counters"] = {**bad["counters"], "n_entity_merges": 7}
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert EntityStore.load(good).entities() == store.entities()
            assert gc.isenabled() is enabled
            with pytest.raises(EntityStoreError, match="counters"):
                EntityStore.load(write_forged(tmp_path, bad, store))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False, False]

    def test_counters_that_the_log_does_not_replay_fail_load(
            self, store, tmp_path):
        state = forged_state(store)
        state["counters"] = {**state["counters"], "n_entity_merges": 7}
        with pytest.raises(EntityStoreError, match="counters"):
            EntityStore.load(write_forged(tmp_path, state, store))

    def test_flipped_byte_in_a_decision_chunk(self, store, tmp_path):
        """A flip inside a decision chunk fails the checksum.  Re-signed
        so that it gets past the checksum, every single-byte flip still
        raises the typed error or loads the very same store."""
        store.apply([D(("a", 5), ("b", 6), 0.25, False)])
        data = store.save(tmp_path).read_bytes()
        chunks = bytes(store._decision_chunks)
        start = data.index(chunks)
        flipped = bytearray(data)
        flipped[start + len(chunks) // 2] ^= 0xFF
        (tmp_path / "flipped.pkl").write_bytes(flipped)
        with pytest.raises(EntityStoreError, match="checksum"):
            EntityStore.load(tmp_path / "flipped.pkl")
        for offset in range(start, start + len(chunks)):
            flipped = bytearray(data)
            flipped[offset] ^= 0xFF
            (tmp_path / "resigned.pkl").write_bytes(resign(flipped))
            try:
                loaded = EntityStore.load(tmp_path / "resigned.pkl")
            except EntityStoreError:
                continue
            assert loaded.fingerprint == store.fingerprint
            assert loaded.entities() == store.entities()
            assert loaded.stats() == store.stats()

    def test_record_replaced_after_a_save_loads_newest(self, store,
                                                       tmp_path):
        store.save(tmp_path)
        store.add_records("a", [record(1, name="Acme Updated",
                                       city="Boston")])
        store.apply([D(("a", 3), ("b", 3))])
        loaded = EntityStore.load(store.save(tmp_path))
        assert loaded.record_of(("a", 1)) == record(
            1, name="Acme Updated", city="Boston")
        assert loaded.golden_records() == store.golden_records()
        assert loaded.n_records == store.n_records == 3

    def test_a_save_encodes_only_what_changed(self, monkeypatch,
                                              tmp_path):
        """Writes encode nothing; a save encodes the records added or
        replaced and the decisions applied since the last save, and
        reuses every earlier chunk's bytes."""
        encoded = []

        def spy(rows):
            encoded.append(list(rows))
            return encode(rows)

        encode = store_module._encode
        monkeypatch.setattr(store_module, "_encode", spy)
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        store.add_records("a", [record(1, v=1), record(2, v=2)])
        store.apply(OVER_MERGED)
        store.apply_result(Result((3, 3, 0.9)))
        assert encoded == []
        store.save(tmp_path)
        assert [len(rows) for rows in encoded] == [4, 4]
        before = bytes(store._record_chunks), bytes(store._decision_chunks)
        encoded.clear()
        store.save(tmp_path)
        assert encoded == []
        store.add_records("a", [record(2, v="two")])
        store.apply([D(("a", 4), ("b", 4))])
        store.save(tmp_path)
        assert encoded == [[(("a", 2), record(2, v="two"))],
                           [(("a", 4), ("b", 4), 0.9, True)]]
        assert bytes(store._record_chunks).startswith(before[0])
        assert bytes(store._decision_chunks).startswith(before[1])
        loaded = EntityStore.load(tmp_path)
        assert loaded.record_of(("a", 2)) == record(2, v="two")
        assert loaded.entities() == store.entities()

    def test_replaced_records_keep_the_stream_bounded(self, tmp_path):
        """Stale rows of replaced records are dropped once they
        outnumber the live ones, so re-registering a table every save
        does not grow the snapshot without bound."""
        store = EntityStore(fusion=RecordFusion(default="newest"))
        for round_ in range(12):
            store.add_records("a", [record(i, v=round_) for i in range(3)])
            store.save(tmp_path)
            assert store._n_record_rows <= 2 * store.n_records
        loaded = EntityStore.load(tmp_path)
        assert [loaded.record_of(("a", i)) for i in range(3)] == [
            record(i, v=11) for i in range(3)]
        assert loaded.golden_records() == store.golden_records()

    def test_fingerprint_mismatch(self, store, tmp_path):
        path = tmp_path / "snap.pkl"
        path.write_bytes(persist.checked_pickle(
            STORE_KIND, STORE_FORMAT_VERSION, store,
            decisions_fingerprint="0" * 64))
        with pytest.raises(EntityStoreError, match="fingerprint"):
            EntityStore.load(path)


class TestIncrementalFingerprint:
    def test_every_decision_is_encoded_once(self, monkeypatch, tmp_path):
        """Saving after every batch encodes each decision once: a save
        costs the decisions applied since the last one, not the log."""
        encoded = []

        def spy(decision):
            encoded.append(decision)
            return decision_entry(decision)

        decision_entry = store_module.decision_entry
        monkeypatch.setattr(store_module, "decision_entry", spy)
        store = EntityStore(refiner=CorrelationClustering(seed=0))
        batches = [[D(("a", 10 * k + i), ("b", 10 * k + i + 1),
                      0.1 * i, i % 2 == 0) for i in range(5)]
                   for k in range(6)] + [OVER_MERGED]
        for batch in batches:
            store.apply(batch)
            store.save(tmp_path)
            assert store.fingerprint == \
                decisions_fingerprint(store._decisions)
        assert encoded == store._decisions
        loaded = EntityStore.load(tmp_path)
        assert len(encoded) == 2 * store.n_decisions  # load's full pass
        assert loaded.fingerprint == store.fingerprint == \
            decisions_fingerprint(loaded._decisions)
        loaded.apply([D(("a", 99), ("b", 99), -0.0, False)])
        loaded.save(tmp_path)
        assert len(encoded) == 2 * store.n_decisions + 1
        assert loaded.fingerprint == decisions_fingerprint(loaded._decisions)

    def test_concurrent_saves_and_fingerprints_see_whole_versions(
            self, tmp_path):
        """Writers, fingerprint readers and a saver share the cache under
        the store lock: every snapshot's header fingerprint equals the
        full recomputation over the decisions it holds."""
        store = EntityStore()
        batches = [[D(("a", i), ("b", i), 0.01 * k, k % 2 == 0)
                    for k in range(3)] for i in range(48)]
        errors = []

        def run(calls):
            try:
                for call in calls:
                    call()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        writers = [[lambda batch=batch: store.apply(batch)
                    for batch in batches[i::3]] for i in range(3)]
        readers = [[lambda: store.fingerprint] * 12 for _ in range(2)]
        saver = [lambda: store.save(tmp_path)] * 12
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with lock_witness_enabled() as witness:
                threads = [threading.Thread(target=run, args=(calls,))
                           for calls in writers + readers + [saver]]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert witness.edges() == {}
        assert store.fingerprint == decisions_fingerprint(
            decision for batch in batches for decision in batch)
        snapshots = sorted(tmp_path.glob("snapshot-v*.pkl"))
        assert snapshots
        for path in snapshots:  # load checks the header fingerprint
            loaded = EntityStore.load(path)
            assert len(loaded._decisions) == 3 * loaded.version


class TestResolveLog:
    def test_apply_context_reaches_the_log(self, tmp_path):
        log_path = tmp_path / "resolve.jsonl"
        with EventLog.opened(log_path) as log:
            store = EntityStore(log=log)
            store.apply([D(("a", 1), ("b", 1))],
                        context={"request_id": "r-1"})
            log.event("summary", **store.stats())
        lines = read_events(log_path)
        assert [line["type"] for line in lines] == ["resolve", "summary"]
        assert lines[0]["request_id"] == "r-1"
        assert lines[0]["version"] == 1
        assert lines[0]["n_unions"] == 1
        assert lines[1]["n_components"] == 1
