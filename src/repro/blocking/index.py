"""Persistent, incremental block indexes.

A :class:`BlockIndex` is the standing, reusable half of an indexed
blocker: the inverted structures built over one table (the "catalog"
side, table B by convention) plus the records themselves, so later
probes can materialize full :class:`~repro.data.pairs.RecordPair`
objects.  It supports:

* **Incremental growth** — :meth:`add_records` folds new records into
  the live structures; an index grown in batches is bit-identical in
  probe output to one built from the concatenated table in one pass
  (``tests/test_blocking_index.py`` enforces the parity).
* **Persistence with fingerprint-keyed invalidation** — :meth:`save` /
  :meth:`load` round-trip the index through one checked pickle file
  (:mod:`repro.persist`), and
  :meth:`IndexedBlocker.build_or_load
  <repro.blocking.indexed.IndexedBlocker.build_or_load>` reuses a saved
  index only when both the blocker-configuration fingerprint and the
  chained record-content fingerprint still match.

The chained content digest (:func:`~repro.features.cache.chain_fingerprint`)
is resumable from its stored hex state, which is what makes incremental
``add_records`` + ``save`` keep a fingerprint equal to a from-scratch
build over the same records in the same order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .. import persist
from ..concurrency import WitnessedLock
from ..data.pairs import PairSet, RecordPair
from ..data.table import Record, Table
from ..features.cache import (
    chain_fingerprint,
    empty_chain_fingerprint,
    record_fingerprint,
)

if TYPE_CHECKING:
    from .indexed import IndexedBlocker

#: Bumped whenever the pickled layout changes incompatibly.
INDEX_FORMAT_VERSION = 3

INDEX_KIND = "block index"


class BlockIndexError(persist.CorruptArtifactError):
    """A persisted index file is unreadable or inconsistent."""


def table_chain_fingerprint(records: Iterable[Record]) -> str:
    """The chained content digest of ``records`` in iteration order.

    This is the fingerprint a :class:`BlockIndex` holding exactly these
    records (added in this order) reports — the invalidation key for
    persisted indexes.
    """
    digest = empty_chain_fingerprint()
    for record in records:
        digest = chain_fingerprint(digest, record_fingerprint(record))
    return digest


class BlockIndex:
    """A blocker's standing index over one (growing) set of records.

    Construct via :meth:`IndexedBlocker.index
    <repro.blocking.indexed.IndexedBlocker.index>` (or start empty and
    :meth:`add_records`); probe with :meth:`probe`.  The blocker that
    built the index travels with it, so a loaded index is self-contained:
    it can keep growing and keep serving probes without reconstructing
    the blocker configuration.

    One :class:`~repro.concurrency.WitnessedLock` guards all of it:
    :meth:`probe`, :meth:`block_sizes`, :meth:`as_table`, :meth:`save`
    and :meth:`add_records` each run under it.  A probe therefore always
    sees a whole index state — never a half-applied batch of new
    records — and concurrent extends serialize into a clean chain of
    states.  The lock is reentrant, so :meth:`probe` takes the
    :meth:`as_table` snapshot under the hold it already has.  It is
    dropped on pickling (:meth:`save`) and recreated on load.
    """

    def __init__(self, blocker: "IndexedBlocker",
                 table_name: str = "indexed",
                 columns: Iterable[str] | None = None):
        self.blocker = blocker
        self.table_name = table_name
        self.columns: tuple[str, ...] | None = \
            tuple(columns) if columns is not None else None
        self.state: dict = blocker._new_state()
        self._records: dict[object, Record] = {}
        self._fingerprint = empty_chain_fingerprint()
        # _lock guards every attribute above and the cached as_table
        # snapshot _table, which the first reader after a change fills.
        self._table: Table | None = None
        self._lock = WitnessedLock()

    # -- content -------------------------------------------------------

    @property
    def num_records(self) -> int:
        return len(self._records)

    @property
    def fingerprint(self) -> str:
        """Chained content digest over all records in insertion order."""
        return self._fingerprint

    def __len__(self) -> int:
        return self.num_records

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records.values())

    def _register(self, record: Record) -> None:
        """Bookkeeping for one record: schema check, storage, digest."""
        if self.columns is None:
            self.columns = record.columns
        elif record.columns != self.columns:
            raise ValueError(
                f"record {record.record_id!r} columns "
                f"{list(record.columns)} do not match the index schema "
                f"{list(self.columns)}")
        if record.record_id in self._records:
            raise ValueError(
                f"record id {record.record_id!r} is already indexed")
        self._records[record.record_id] = record
        self._fingerprint = chain_fingerprint(self._fingerprint,
                                              record_fingerprint(record))
        self._table = None

    def add_records(self, source: Union[Table, Iterable[Record]]) -> int:
        """Fold new records into the index; returns how many were added.

        ``source`` is a :class:`Table` or any iterable of
        :class:`Record` objects sharing the index schema.  Records whose
        blocking attribute is missing are stored (they are part of the
        indexed table) but never surface as candidates.
        """
        with self._lock:
            added = 0
            for record in source:
                self._register(record)
                value = record.get(self.blocker.attribute)
                if value is not None:
                    self.blocker._index_record(self.state, record.record_id,
                                               str(value))
                added += 1
            return added

    def as_table(self) -> Table:
        """The indexed records as an immutable :class:`Table` snapshot.

        Rebuilt (and re-cached) after every :meth:`add_records`, so the
        snapshot a probe's :class:`PairSet` references always matches
        the index content.
        """
        with self._lock:
            if self._table is None:
                records = list(self._records.values())
                self._table = Table(
                    self.table_name, self.columns or (),
                    [list(record.values) for record in records],
                    ids=[record.record_id for record in records])
            return self._table

    # -- probing -------------------------------------------------------

    def probe(self, table_a: Table) -> PairSet:
        """Candidate pairs of ``table_a`` records against the index.

        Equivalent to ``blocker.block(table_a, indexed_table)`` but
        without rebuilding the index.  Distinct attribute values are
        resolved once (blocking input repeats values heavily) and each
        probe record's matches come back in sorted-id order, so output
        is deterministic and duplicate-free.

        The whole probe runs under the lock, so the returned
        :class:`PairSet` (including its ``table_b`` snapshot) reflects
        exactly one index state even while :meth:`add_records` calls are
        in flight on other threads.
        """
        with self._lock:
            table_b = self.as_table()
            attribute = self.blocker.attribute
            matches_by_text: dict[str, list] = {}
            pairs: list[RecordPair] = []
            for record in table_a:
                value = record.get(attribute)
                if value is None:
                    continue
                text = str(value)
                right_ids = matches_by_text.get(text)
                if right_ids is None:
                    right_ids = sorted(
                        self.blocker._probe_value(self.state, text))
                    matches_by_text[text] = right_ids
                for right_id in right_ids:
                    pairs.append(RecordPair(record, table_b.by_id(right_id)))
            return PairSet(table_a, table_b, pairs)

    def block_sizes(self) -> list[int]:
        """Sizes of the blocker's internal blocks (postings / buckets),
        the input to :func:`repro.blocking.metrics.block_size_histogram`."""
        with self._lock:
            return self.blocker._state_block_sizes(self.state)

    # -- persistence ---------------------------------------------------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = WitnessedLock()

    def save(self, path: Union[str, Path]) -> None:
        """Persist the full index (blocker included) atomically."""
        # The lock keeps add_records out while pickling walks the live
        # structures, so the payload is one consistent state.
        with self._lock:
            data = persist.checked_pickle(
                INDEX_KIND, INDEX_FORMAT_VERSION, self,
                blocker_fingerprint=self.blocker.fingerprint)
        persist.atomic_write(path, data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BlockIndex":
        """Load a persisted index, verifying checksum, format, type and
        blocker fingerprint (:class:`BlockIndexError` on any failure)."""
        index, meta = persist.load_checked(
            path, INDEX_KIND, INDEX_FORMAT_VERSION, cls, BlockIndexError)
        if meta.get("blocker_fingerprint") != index.blocker.fingerprint:
            raise BlockIndexError(
                f"{path} blocker fingerprint does not match its payload "
                f"(corrupt or hand-edited index)")
        return index

    def __repr__(self) -> str:
        return (f"BlockIndex({type(self.blocker).__name__}, "
                f"{self.num_records} records, "
                f"fingerprint={self.fingerprint[:12]})")
