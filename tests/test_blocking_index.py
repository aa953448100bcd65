"""BlockIndex: persistence, invalidation, incremental growth, parallel."""

import pickle

import pytest

from repro import persist
from repro.blocking import (
    BlockIndex,
    BlockIndexError,
    MinHashLSHBlocker,
    QGramBlocker,
    table_chain_fingerprint,
)
from repro.blocking.index import INDEX_FORMAT_VERSION, INDEX_KIND
from repro.data import Table


def _rows(table):
    """A table's ids and values, in order."""
    return [(record.record_id, tuple(record.values)) for record in table]


@pytest.fixture()
def catalog():
    return Table("B", ["name", "city"], [
        ["arnie mortons of chicago", "los angeles"],
        ["arts delicatessen", "studio city"],
        ["cafe bizou", "sherman oaks"],
        ["spago la", "los angeles"],
        [None, "glendale"],
    ])


@pytest.fixture()
def probes():
    return Table("A", ["name", "city"], [
        ["arnie mortons", "los angeles"],
        ["arts deli", "studio city"],
        ["cafe bizou", "sherman oaks"],
        ["spago", "los angeles"],
    ])


def probe_keys(index, probes):
    return [p.key for p in index.probe(probes)]


class TestRoundTrip:
    @pytest.mark.parametrize("make_blocker", (
        lambda: QGramBlocker("name", q=3, min_overlap=2),
        lambda: MinHashLSHBlocker("name", num_perm=32, bands=8,
                                  random_state=4),
    ))
    def test_save_load_probe_parity(self, tmp_path, catalog, probes,
                                    make_blocker):
        blocker = make_blocker()
        index = blocker.index(catalog)
        path = tmp_path / "standing.idx"
        index.save(path)
        loaded = BlockIndex.load(path)
        assert probe_keys(loaded, probes) == probe_keys(index, probes)
        assert loaded.fingerprint == index.fingerprint
        assert loaded.num_records == index.num_records

    def test_loaded_index_is_self_contained(self, tmp_path, catalog,
                                            probes):
        """The blocker travels with the index: a loaded index keeps
        serving probes and growing without reconstructing config."""
        index = QGramBlocker("name", min_overlap=2).index(catalog)
        path = tmp_path / "standing.idx"
        index.save(path)
        loaded = BlockIndex.load(path)
        assert loaded.blocker.min_overlap == 2
        extra = Table("B", ["name", "city"],
                      [["spago beverly hills", "beverly hills"]], ids=[99])
        loaded.add_records(extra)
        assert any(right == 99 for _, right in probe_keys(loaded, probes))


class TestIncrementalParity:
    def test_add_records_in_batches_equals_one_pass(self, catalog, probes):
        blocker = QGramBlocker("name", min_overlap=2)
        one_pass = blocker.index(catalog)
        grown = BlockIndex(blocker, table_name=catalog.name,
                           columns=catalog.columns)
        records = list(catalog)
        grown.add_records(records[:2])
        grown.add_records(records[2:])
        assert grown.fingerprint == one_pass.fingerprint
        assert probe_keys(grown, probes) == probe_keys(one_pass, probes)

    def test_incremental_fingerprint_matches_table_chain(self, catalog):
        index = MinHashLSHBlocker("name", num_perm=16, bands=4,
                                  random_state=0).index(catalog)
        assert index.fingerprint == table_chain_fingerprint(catalog)

    def test_save_after_growth_still_validates(self, tmp_path, catalog,
                                               probes):
        """An index grown incrementally then saved must be reusable for
        the concatenated table (the from-scratch fingerprint)."""
        blocker = QGramBlocker("name", min_overlap=2)
        index = BlockIndex(blocker, table_name=catalog.name,
                           columns=catalog.columns)
        records = list(catalog)
        index.add_records(records[:3])
        index.add_records(records[3:])
        path = tmp_path / "grown.idx"
        index.save(path)
        reused = blocker.load_index_if_valid(path, catalog)
        assert reused is not None
        assert probe_keys(reused, probes) == probe_keys(index, probes)

    def test_as_table_snapshot_tracks_growth(self, catalog):
        index = QGramBlocker("name").index(catalog)
        before = index.as_table()
        assert before.columns == catalog.columns
        assert _rows(before) == _rows(catalog)
        index.add_records(Table("B", ["name", "city"],
                                [["granita", "malibu"]], ids=[77]))
        after = index.as_table()
        assert _rows(after) == _rows(catalog) + [(77, ("granita", "malibu"))]
        assert _rows(before) == _rows(catalog)  # a snapshot, not a view


class TestInvalidation:
    def test_param_change_invalidates(self, tmp_path, catalog):
        QGramBlocker("name", min_overlap=2).index(catalog).save(
            tmp_path / "i.idx")
        other = QGramBlocker("name", min_overlap=3)
        assert other.load_index_if_valid(tmp_path / "i.idx", catalog) is None

    def test_table_change_invalidates(self, tmp_path, catalog):
        blocker = QGramBlocker("name", min_overlap=2)
        blocker.index(catalog).save(tmp_path / "i.idx")
        changed = Table("B", catalog.columns,
                        [list(r.values) for r in list(catalog)[:-1]],
                        ids=[r.record_id for r in list(catalog)[:-1]])
        assert blocker.load_index_if_valid(tmp_path / "i.idx",
                                           changed) is None

    def test_build_or_load_reuses_then_rebuilds(self, tmp_path, catalog):
        path = tmp_path / "i.idx"
        blocker = QGramBlocker("name", min_overlap=2)
        first = blocker.build_or_load(catalog, path)
        reloaded = blocker.build_or_load(catalog, path)
        assert reloaded.fingerprint == first.fingerprint
        stricter = QGramBlocker("name", min_overlap=3)
        rebuilt = stricter.build_or_load(catalog, path)
        assert rebuilt.blocker.min_overlap == 3
        # The rebuild overwrote the file for the new configuration.
        assert stricter.load_index_if_valid(path, catalog) is not None

    def test_minhash_seed_is_part_of_the_fingerprint(self, tmp_path,
                                                     catalog):
        path = tmp_path / "m.idx"
        MinHashLSHBlocker("name", num_perm=16, bands=4,
                          random_state=0).index(catalog).save(path)
        reseeded = MinHashLSHBlocker("name", num_perm=16, bands=4,
                                     random_state=1)
        assert reseeded.load_index_if_valid(path, catalog) is None

    def test_missing_file_is_not_valid(self, tmp_path, catalog):
        blocker = QGramBlocker("name")
        assert blocker.load_index_if_valid(tmp_path / "nope.idx",
                                           catalog) is None


class TestCorruption:
    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"not a pickle")
        with pytest.raises(BlockIndexError):
            BlockIndex.load(path)

    def test_wrong_payload_type_raises(self, tmp_path):
        path = tmp_path / "list.idx"
        path.write_bytes(persist.checked_pickle(
            INDEX_KIND, INDEX_FORMAT_VERSION, [1, 2, 3]))
        with pytest.raises(BlockIndexError, match="block index"):
            BlockIndex.load(path)

    def test_format_version_mismatch_raises(self, tmp_path, catalog):
        index = QGramBlocker("name").index(catalog)
        path = tmp_path / "v0.idx"
        path.write_bytes(persist.checked_pickle(
            INDEX_KIND, 0, index,
            blocker_fingerprint=index.blocker.fingerprint))
        with pytest.raises(BlockIndexError, match="format"):
            BlockIndex.load(path)

    def test_tampered_fingerprint_raises(self, tmp_path, catalog):
        index = QGramBlocker("name").index(catalog)
        path = tmp_path / "tampered.idx"
        path.write_bytes(persist.checked_pickle(
            INDEX_KIND, INDEX_FORMAT_VERSION, index,
            blocker_fingerprint="0" * 40))
        with pytest.raises(BlockIndexError, match="fingerprint"):
            BlockIndex.load(path)


class TestRegistration:
    def test_duplicate_id_rejected(self, catalog):
        index = QGramBlocker("name").index(catalog)
        with pytest.raises(ValueError, match="already indexed"):
            index.add_records(Table("B", ["name", "city"],
                                    [["dup", "dup"]], ids=[0]))

    def test_schema_mismatch_rejected(self, catalog):
        index = QGramBlocker("name").index(catalog)
        with pytest.raises(ValueError, match="schema"):
            index.add_records(Table("B", ["name"], [["solo"]], ids=[50]))

    def test_block_sizes_nonempty(self, catalog):
        index = QGramBlocker("name").index(catalog)
        sizes = index.block_sizes()
        assert sizes and all(s >= 1 for s in sizes)


class TestConcurrentSnapshot:
    def test_as_table_races_with_growth(self, catalog):
        """Regression: ``as_table`` once filled its ``_table`` cache
        under a lock shared by concurrent readers, racing them and the
        growers.  The cache now fills under the index's one lock;
        hammering snapshots and probes (which take the snapshot under
        the same, reentrant lock) against growth must stay consistent
        and take no lock while holding another (the witness checks)."""
        import threading

        from repro.concurrency import lock_witness_enabled

        with lock_witness_enabled() as witness:
            blocker = QGramBlocker("name", min_overlap=2)
            index = BlockIndex(blocker, table_name=catalog.name,
                               columns=catalog.columns)
            index.add_records(list(catalog)[:2])
            probe = Table("A", catalog.columns, [list(r.values)
                                                 for r in catalog][:3])
            errors = []
            barrier = threading.Barrier(6)
            stop = threading.Event()

            def snapshotter():
                barrier.wait()
                try:
                    while not stop.is_set():
                        table = index.as_table()
                        # A snapshot is internally consistent: row count
                        # and id count always agree.
                        assert table.num_rows == len(list(table))
                        pairs = index.probe(probe)
                        assert all(pairs.table_b.by_id(
                            pair.right.record_id) is pair.right
                            for pair in pairs)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            def grower():
                barrier.wait()
                try:
                    base = 100
                    for i in range(20):
                        index.add_records(Table(
                            catalog.name, catalog.columns,
                            [[f"new place {i}", "city"]], ids=[base + i]))
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    stop.set()

            threads = [threading.Thread(target=snapshotter)
                       for _ in range(5)]
            threads.append(threading.Thread(target=grower))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert index.as_table().num_rows == 2 + 20
            # One lock per index, and none taken while another is held.
            assert witness.edges() == {}

    def test_snapshot_cache_survives_pickle(self, catalog):
        index = QGramBlocker("name", min_overlap=2).index(catalog)
        index.as_table()  # populate the cache and its lock
        clone = pickle.loads(pickle.dumps(index))
        assert _rows(clone.as_table()) == _rows(catalog)
        clone.add_records(Table("B", ["name", "city"],
                                [["granita", "malibu"]], ids=[77]))
        assert clone.as_table().num_rows == catalog.num_rows + 1
