"""The versioned, thread-safe entity store behind the serving path.

:class:`EntityStore` is where the resolve subsystem's pieces meet the
serving layer: it owns the incremental clusterer, the decision log, the
member records, and hands out stable entity ids while matchers keep
streaming decisions in.  The contract:

* **Thread safety** — one :class:`~repro.concurrency.WitnessedLock`
  guards the whole store (the same convention as
  :class:`~repro.blocking.index.BlockIndex`): lookups, snapshots,
  :meth:`apply` and :meth:`add_records` each run under it, so a reader
  always observes a whole store version — never a half-applied
  decision batch.
* **Versioning** — every applied batch bumps :attr:`version` and
  yields a :class:`ResolveDelta` (churn accounting for telemetry and
  the monitoring layer's cluster-churn trigger).
* **Stable identity** — entity ids come from
  :func:`~repro.resolve.decisions.entity_id_for` over each cluster's
  canonical (minimum) member, so they are independent of decision
  arrival order and identical between incremental and batch
  clustering of the same decisions.
* **One refined view** — every lookup (:meth:`~EntityStore.entity_of`,
  the ids :meth:`~EntityStore.apply_result` returns,
  :meth:`~EntityStore.entities`, :meth:`~EntityStore.members`,
  :meth:`~EntityStore.golden`, :meth:`~EntityStore.golden_records`)
  reads one partition: connected components, split by the ``refiner``
  where negative evidence shows over-merging.  Writes only append to
  the decision log; the first read after a write brings the view up to
  date under the lock, re-splitting just the components that decisions
  or newly registered records touched since the last read.
* **Fingerprint-keyed persistence** — :meth:`save` writes an atomic,
  checksummed ``snapshot-v%06d.pkl`` (:mod:`repro.persist`) carrying
  the order-independent decision fingerprint; :meth:`load` verifies
  checksum, format version and fingerprint before trusting a snapshot,
  the same convention as the block index.  The snapshot is a small
  head of plain data (version, last delta, threshold, the refiner's
  and the fusion policy's constructor arguments, churn counters) plus
  two byte streams: the records and the decision log as plain
  ``(left, right, score, matched)`` rows, each a run of pickled
  chunks.  A save pickles only the records added or replaced
  and the decisions applied since the previous save and appends them
  as one chunk each; every earlier chunk's bytes are reused, and the
  fingerprint entries are folded in the same way.  The union–find
  forest is not saved: :meth:`load` replays the records and then the
  decision log, in log order, through the ``MatchDecision``
  constructor (so every row is validated again), checks the replayed
  churn counters against the head and recomputes the fingerprint.  It
  also checks the head's fields and each record row's ``(side, id)``
  key and ``Record`` type, and rebuilds the refiner and the fusion
  policy through their constructors, so a malformed head fails the
  load with :class:`EntityStoreError`.  The values inside a record are
  covered by the checksum only: with no digest over the records, a
  flipped value that still has a valid type loads as it reads, and so
  does a head value that passes its check (a fusion seed, say).

Telemetry (``resolve`` and ``snapshot`` records of an
:class:`~repro.events.EventLog`) is emitted *outside* the lock: the
delta is computed under the lock, the JSONL line is written after
release, so the store never nests the log's internal lock inside its
own.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import pickle
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Union

from .. import persist
from ..concurrency import WitnessedLock
from ..data.table import Record, Value
from ..events import EventLog
from .correlation import CorrelationClustering
from .decisions import (
    MatchDecision,
    NodeKey,
    decision_entry,
    decisions_from_result,
    entity_id_for,
    entries_fingerprint,
    node_key,
    order_key,
)
from .fusion import RecordFusion
from .unionfind import ConnectedComponents

if TYPE_CHECKING:
    from ..serve.matcher import MatchResult

#: Bumped whenever the pickled snapshot layout changes incompatibly.
STORE_FORMAT_VERSION = 5

STORE_KIND = "entity-store snapshot"

#: Name of the pointer file naming the latest snapshot in a directory.
LATEST_POINTER = persist.LATEST

_SNAPSHOT_RE = re.compile(r"snapshot-v(\d{6,})\.pkl")


class EntityStoreError(persist.CorruptArtifactError):
    """A persisted entity-store snapshot is unreadable or inconsistent."""


@dataclass(frozen=True)
class ResolveDelta:
    """What one applied decision batch changed — the churn receipt.

    ``entity_merge_rate`` is the batch-local fraction of unions that
    fused two established multi-record entities (as opposed to
    attaching singletons); sustained high values late in a stream mean
    the clustering is still reorganizing — the signal the monitoring
    layer's cluster-churn trigger thresholds.
    """

    version: int
    n_decisions: int
    n_new_nodes: int
    n_unions: int
    n_attachments: int
    n_entity_merges: int
    n_components: int

    @property
    def entity_merge_rate(self) -> float:
        return (self.n_entity_merges / self.n_unions
                if self.n_unions else 0.0)

    def to_dict(self) -> dict[str, int | float]:
        return {
            "version": self.version,
            "n_decisions": self.n_decisions,
            "n_new_nodes": self.n_new_nodes,
            "n_unions": self.n_unions,
            "n_attachments": self.n_attachments,
            "n_entity_merges": self.n_entity_merges,
            "n_components": self.n_components,
            "entity_merge_rate": self.entity_merge_rate,
        }


class EntityStore:
    """Versioned entity assignments over a streaming decision log.

    Parameters
    ----------
    threshold:
        Optional score re-threshold for positive edges (see
        :class:`~repro.resolve.unionfind.ConnectedComponents`).
    refiner:
        Optional :class:`~repro.resolve.correlation.CorrelationClustering`
        applied on top of connected components wherever negative
        evidence shows over-merging.  ``None`` serves raw components.
        The refiner keeps this store's signed edges, so it must not be
        shared with another store.
    fusion:
        The :class:`~repro.resolve.fusion.RecordFusion` policy behind
        :meth:`golden`.
    log:
        Optional open :class:`~repro.events.EventLog` (its opener
        closes it); every :meth:`apply` and :meth:`save` emits one
        JSONL line (written outside the store lock).
    """

    def __init__(self, threshold: float | None = None,
                 refiner: CorrelationClustering | None = None,
                 fusion: RecordFusion | None = None,
                 log: EventLog | None = None):
        self.refiner = refiner
        self.fusion = fusion if fusion is not None else RecordFusion()
        self.log = log
        # _lock guards every attribute below (_cc, _decisions,
        # _records, _version, _last_delta, the refined view
        # _entity_ids, _clusters, _observed, _new_nodes, the
        # fingerprint cache _entries, _encoded and the snapshot chunks
        # _record_chunks, _n_record_rows, _unsaved, _decision_chunks,
        # _n_saved), so a reader sees whole versions only.
        self._cc = ConnectedComponents(threshold)
        self._decisions: list[MatchDecision] = []
        self._records: dict[NodeKey, Record] = {}
        self._version = 0
        self._last_delta: ResolveDelta | None = None
        # The refined view: node -> entity id and entity id -> sorted
        # members, current up to the first _observed decisions and
        # every node except _new_nodes.  Derived state, never pickled.
        self._entity_ids: dict[NodeKey, str] = {}
        self._clusters: dict[str, tuple[NodeKey, ...]] = {}
        self._observed = 0
        self._new_nodes: set[NodeKey] = set()
        # The sorted decision_entry bytes of the first _encoded
        # decisions.  Derived state, never pickled.
        self._entries: list[bytes] = []
        self._encoded = 0
        # The snapshot's encoded streams: _record_chunks holds
        # _n_record_rows (node, record) rows, stale replaced ones
        # included, and every record but those in _unsaved (added or
        # replaced since); _decision_chunks holds the rows of the first
        # _n_saved decisions.
        self._record_chunks = bytearray()
        self._n_record_rows = 0
        self._unsaved: dict[NodeKey, Record] = {}
        self._decision_chunks = bytearray()
        self._n_saved = 0
        self._lock = WitnessedLock()

    # -- content -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone batch counter; bumped once per :meth:`apply`."""
        with self._lock:
            return self._version

    @property
    def n_decisions(self) -> int:
        with self._lock:
            return len(self._decisions)

    @property
    def n_entities(self) -> int:
        """Raw connected components, before refinement splits any.

        With a ``refiner`` this can be fewer than ``len(entities())``.
        """
        with self._lock:
            return self._cc.n_components

    @property
    def n_records(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def fingerprint(self) -> str:
        """Order-independent digest of the applied decision set.

        Equal to :func:`~repro.resolve.decisions.decisions_fingerprint`
        of the log; each decision is encoded once per store, by the
        first fingerprint (or save) after it was applied.
        """
        with self._lock:
            return self._fingerprint_locked()

    def _fingerprint_locked(self) -> str:
        """Fold the decisions applied since the last call into the
        sorted entries and hash them; callers hold the lock."""
        fresh = self._decisions[self._encoded:]
        if fresh:
            self._entries += sorted(map(decision_entry, fresh))
            self._entries.sort()  # merges two sorted runs
            self._encoded = len(self._decisions)
        return entries_fingerprint(self._entries)

    def __len__(self) -> int:
        return self.n_entities

    def __repr__(self) -> str:
        with self._lock:
            return (f"EntityStore(v{self._version}, "
                    f"{len(self._decisions)} decisions, "
                    f"{self._cc.n_components} entities, "
                    f"{len(self._records)} records)")

    # -- mutation ------------------------------------------------------

    def add_records(self, side: str,
                    records: Iterable[Record]) -> int:
        """Register member records (golden-record source material).

        Every record becomes a (possibly singleton) entity immediately;
        re-adding a record id replaces the stored payload (newest
        version wins, which is what :class:`NewestResolver` relies on).
        Returns how many records were registered.
        """
        count = 0
        with self._lock:
            for record in records:
                node = node_key(side, record.record_id)
                self._records[node] = self._unsaved[node] = record
                if node not in self._cc:
                    self._cc.add_node(node)
                    self._new_nodes.add(node)
                count += 1
        return count

    def apply(self, decisions: Sequence[MatchDecision],
              context: Mapping[str, object] | None = None
              ) -> ResolveDelta:
        """Fold one decision batch in; returns the churn delta.

        The store mutates under the lock; the telemetry
        line (delta plus optional caller ``context``, e.g. a request
        id) is written after release.  The refined view is brought up
        to date by the next read, not here.
        """
        with self._lock:
            delta = self._apply_locked(decisions)
        self._log_delta(delta, context)
        return delta

    def _apply_locked(self, decisions: Sequence[MatchDecision]
                      ) -> ResolveDelta:
        nodes_before = self._cc.n_nodes
        unions_before = self._cc.n_unions
        attach_before = self._cc.n_attachments
        merges_before = self._cc.n_entity_merges
        self._decisions.extend(decisions)
        self._cc.add_many(decisions)
        self._version += 1
        delta = ResolveDelta(
            version=self._version,
            n_decisions=len(decisions),
            n_new_nodes=self._cc.n_nodes - nodes_before,
            n_unions=self._cc.n_unions - unions_before,
            n_attachments=self._cc.n_attachments - attach_before,
            n_entity_merges=self._cc.n_entity_merges - merges_before,
            n_components=self._cc.n_components,
        )
        self._last_delta = delta
        return delta

    def _log_delta(self, delta: ResolveDelta,
                   context: Mapping[str, object] | None) -> None:
        if self.log is not None:
            self.log.event("resolve",
                           **{**(context or {}), **delta.to_dict()})

    def apply_result(self, result: "MatchResult", *,
                     left_side: str = "a", right_side: str = "b",
                     context: Mapping[str, object] | None = None
                     ) -> dict[str, str]:
        """Fold a scored serving result in; returns entity assignments.

        Stores both endpoint records of every pair (so golden records
        cover streamed data), applies the decisions, and maps each
        touched record — keyed ``"<side>:<record_id>"`` — to its
        refined entity id, the same id :meth:`entity_of` and
        :meth:`entities` report.  All of it happens in one lock
        section, so the ids reflect this batch and no other caller's.
        """
        decisions = decisions_from_result(
            result, left_side=left_side, right_side=right_side)
        touched: dict[NodeKey, Record] = {}
        for pair in result.pairs:
            touched[node_key(left_side, pair.left.record_id)] = pair.left
            touched[node_key(right_side, pair.right.record_id)] = \
                pair.right
        with self._lock:
            for node, record in touched.items():
                if node not in self._records:
                    self._records[node] = self._unsaved[node] = record
                self._cc.add_node(node)
            delta = self._apply_locked(decisions)
            self._refresh_locked()
            ids = {entity_id_for(node): self._entity_ids[node]
                   for node in sorted(touched, key=lambda n: (n[0],
                                                              str(n[1])))}
        self._log_delta(delta, context)
        return ids

    # -- the refined view ----------------------------------------------

    def _refresh_locked(self) -> None:
        """Bring the refined view up to date; callers hold the lock.

        Only components holding an endpoint of a decision applied since
        the last refresh, or a node registered since then, are
        re-split; every other cluster is still current, because
        components only ever grow by merging.
        """
        fresh = self._decisions[self._observed:]
        self._observed = len(self._decisions)
        if self.refiner is not None:
            self.refiner.observe(fresh)
        touched = self._new_nodes
        touched.update(decision.left for decision in fresh)
        touched.update(decision.right for decision in fresh)
        self._new_nodes = set()
        roots = {self._cc.find(node) for node in touched}
        for root in roots:
            members = self._cc.members(root)
            for node in members:
                self._clusters.pop(self._entity_ids.get(node, ""), None)
            clusters = ([members] if self.refiner is None
                        else self.refiner.split(members[0], members))
            for cluster in clusters:
                entity_id = entity_id_for(cluster[0])
                self._clusters[entity_id] = cluster
                for node in cluster:
                    self._entity_ids[node] = entity_id

    @contextmanager
    def _fresh_view(self) -> Iterator[None]:
        """Hold the lock over an up-to-date refined view: the first
        read after a write refreshes it, so no reader sees a
        half-refreshed view."""
        with self._lock:
            if self._observed < len(self._decisions) or self._new_nodes:
                self._refresh_locked()
            yield

    # -- lookups -------------------------------------------------------

    def entity_of(self, record_id: Union[int, str],
                  side: str = "a") -> str | None:
        """The refined entity id of one record, or ``None`` if never
        seen; ``node in members(entity_of(node))`` always holds."""
        node = node_key(side, record_id)
        with self._fresh_view():
            return self._entity_ids.get(node)

    def entities(self) -> dict[str, tuple[NodeKey, ...]]:
        """The full current partition: entity id → sorted members.

        With a ``refiner`` configured, over-merged components (those
        carrying internal negative evidence) are split before ids are
        assigned; without one this is the raw connected-components
        view.  Entities come in canonical-member order.
        """
        with self._fresh_view():
            clusters = list(self._clusters.items())
        return dict(sorted(clusters, key=lambda item: order_key(item[1][0])))

    def members(self, entity_id: str) -> tuple[NodeKey, ...]:
        """Sorted member nodes of ``entity_id``."""
        with self._fresh_view():
            members = self._clusters.get(entity_id)
        if members is None:
            raise KeyError(f"unknown entity id {entity_id!r}")
        return members

    def record_of(self, node: NodeKey) -> Record | None:
        """The stored payload record for ``node``, if any."""
        with self._lock:
            return self._records.get(node)

    def golden(self, entity_id: str) -> dict[str, Value]:
        """The fused golden record of one entity.

        Members without a stored payload (decision-only endpoints) are
        skipped; an entity with no payload at all raises
        :class:`EntityStoreError`.
        """
        with self._fresh_view():
            members = self._clusters.get(entity_id, ())
            records = [self._records[node] for node in members
                       if node in self._records]
        if not members:
            raise KeyError(f"unknown entity id {entity_id!r}")
        if not records:
            raise EntityStoreError(
                f"entity {entity_id!r} has no stored records to fuse; "
                f"register payloads via add_records or apply_result")
        return self.fusion.fuse(entity_id, records)

    def golden_records(self) -> dict[str, dict[str, Value]]:
        """Golden records for every entity that has stored payloads."""
        with self._fresh_view():
            stored = [(members[0], entity_id,
                       [self._records[node] for node in members
                        if node in self._records])
                      for entity_id, members in self._clusters.items()]
        stored.sort(key=lambda item: order_key(item[0]))
        return {entity_id: self.fusion.fuse(entity_id, records)
                for _, entity_id, records in stored if records}

    def stats(self) -> dict[str, int | float]:
        """Store-level counters for telemetry and monitoring."""
        with self._lock:
            stats: dict[str, int | float] = dict(self._cc.stats())
            stats["version"] = self._version
            stats["n_decisions"] = len(self._decisions)
            stats["n_records"] = len(self._records)
            if self._last_delta is not None:
                stats["last_entity_merge_rate"] = \
                    self._last_delta.entity_merge_rate
                stats["last_n_entity_merges"] = \
                    self._last_delta.n_entity_merges
        return stats

    # -- persistence ---------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # The telemetry log (an open file handle and its lock) is
        # runtime plumbing, not store content: a loaded snapshot starts
        # silent.  The view, the forest, the refiner's edges and the
        # fingerprint cache are rebuilt from the two streams on load.
        # The head holds plain data only, so every field of it can be
        # checked on load.
        with self._lock:
            self._encode_locked()
            delta = self._last_delta
            return {"version": self._version,
                    "last_delta": (None if delta is None
                                   else dataclasses.astuple(delta)),
                    "threshold": self._cc.threshold,
                    "refiner": (None if self.refiner is None
                                else self.refiner.config()),
                    "fusion": self.fusion.config(),
                    "counters": self._cc.stats(),
                    "records": bytes(self._record_chunks),
                    "decisions": bytes(self._decision_chunks)}

    def _encode_locked(self) -> None:
        """Append the records and decisions changed since the last
        call to the streams, one chunk each; callers hold the lock."""
        if self._unsaved:
            rows = list(self._unsaved.items())
            self._unsaved = {}
            if self._n_record_rows + len(rows) > 2 * len(self._records):
                # Replaced records left more stale rows in the stream
                # than it has live ones: start it over.
                self._record_chunks, self._n_record_rows = bytearray(), 0
                rows = list(self._records.items())
            self._record_chunks += _encode(rows)
            self._n_record_rows += len(rows)
        fresh = self._decisions[self._n_saved:]
        if fresh:
            self._decision_chunks += _encode(
                [(d.left, d.right, float(d.score), bool(d.matched))
                 for d in fresh])
            self._n_saved = len(self._decisions)

    def __setstate__(self, state: dict[str, Any]) -> None:
        # The replay allocates a decision, a dict and a member list per
        # row, none of them cyclic garbage, which would set off full
        # collections over the whole heap: pause the collector meanwhile.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._restore(state)
        finally:
            if enabled:
                gc.enable()

    def _restore(self, state: dict[str, Any]) -> None:
        # Anything malformed raises ValueError or TypeError, which
        # load() reports as EntityStoreError.
        if not isinstance(state, dict) or set(state) != _STATE_KEYS \
                or type(state["records"]) is not bytes \
                or type(state["decisions"]) is not bytes:
            raise ValueError("the snapshot head has the wrong fields")
        version = state["version"]
        if type(version) is not int or version < 0:
            raise ValueError(f"invalid store version {version!r}")
        refiner = state["refiner"]
        self.__init__(  # type: ignore[misc]
            state["threshold"],
            None if refiner is None
            else CorrelationClustering(**_config(refiner)),
            RecordFusion(**_config(state["fusion"])))
        last_delta = _delta(state["last_delta"], version)
        records = [_record_row(row) for row in _decode(state["records"])]
        rows = _decode(state["decisions"])
        for node, record in records:
            self._records[node] = record
            self._cc.add_node(node)
        # Each row goes through the constructor, which validates it.
        self._decisions = [MatchDecision(*row) for row in rows]
        self._cc.add_many(self._decisions)
        if self._cc.stats() != state["counters"]:
            raise ValueError(
                f"the replayed log's counters {self._cc.stats()} differ "
                f"from the saved {state['counters']}")
        # Nothing of the fingerprint cache is read from the file: it is
        # recomputed from every replayed decision, for load() to check.
        self._fingerprint_locked()
        self._version = version
        self._last_delta = last_delta
        # The loaded streams are this store's chunks.
        self._record_chunks = bytearray(state["records"])
        self._n_record_rows = len(records)
        self._decision_chunks = bytearray(state["decisions"])
        self._n_saved = len(rows)
        # The first read builds the view from the whole decision log.
        self._new_nodes = set(self._cc)

    def save(self, directory: Union[str, Path]) -> Path:
        """Persist one atomic, versioned snapshot; returns its path.

        Writes ``snapshot-v%06d.pkl`` for the current version, then
        repoints the ``LATEST`` file (:mod:`repro.persist`) — a reader
        following ``LATEST`` always finds a complete snapshot, even
        mid-save.
        """
        # The lock keeps apply() out while the fresh rows are encoded
        # and the chunks pickled, so the payload is one version.
        with self._lock:
            version = self._version
            fingerprint = self._fingerprint_locked()
            data = persist.checked_pickle(
                STORE_KIND, STORE_FORMAT_VERSION, self,
                decisions_fingerprint=fingerprint)
        path = Path(directory) / f"snapshot-v{version:06d}.pkl"
        persist.atomic_write(path, data)
        persist.write_pointer(path.parent, path.name)
        if self.log is not None:
            self.log.event("snapshot", store_version=version,
                           path=str(path), decisions_fingerprint=fingerprint)
        return path

    @classmethod
    def load(cls, target: Union[str, Path]) -> "EntityStore":
        """Load a snapshot file, or a directory's ``LATEST`` snapshot,
        verifying checksum, format, type and decision fingerprint
        (:class:`EntityStoreError` on any failure)."""
        target = Path(target)
        if target.is_dir():
            name = persist.read_pointer(target, _SNAPSHOT_RE, Path.is_file)
            if name is None:
                raise EntityStoreError(
                    f"{target} has no {LATEST_POINTER} pointer and no "
                    f"snapshot; nothing was ever saved there")
            target = target / name
        store, meta = persist.load_checked(
            target, STORE_KIND, STORE_FORMAT_VERSION, cls, EntityStoreError)
        if meta.get("decisions_fingerprint") != store.fingerprint:
            raise EntityStoreError(
                f"{target} decision fingerprint does not match its "
                f"payload (corrupt or hand-edited snapshot)")
        return store


_STATE_KEYS = {"version", "last_delta", "threshold", "refiner", "fusion",
               "counters", "records", "decisions"}


def _config(config: object) -> dict[str, Any]:
    """A saved ``config()`` dict, checked to be keyword arguments."""
    if not isinstance(config, dict) \
            or not all(isinstance(key, str) for key in config):
        raise TypeError(f"invalid constructor arguments {config!r}")
    return config


def _delta(row: object, version: int) -> ResolveDelta | None:
    """The saved last delta: none before the first batch, else the
    current version's, every count a non-negative int."""
    if row is None and version == 0:
        return None
    if not isinstance(row, tuple) \
            or len(row) != len(dataclasses.fields(ResolveDelta)) \
            or not all(type(count) is int and count >= 0 for count in row) \
            or row[0] != version:
        raise ValueError(f"invalid last delta {row!r} for version "
                         f"{version}")
    return ResolveDelta(*row)


def _record_row(row: Any) -> tuple[NodeKey, Record]:
    """One ``(node, record)`` row of the record stream, checked: a
    ``Record`` under its own ``(side, id)`` key, with string columns
    and plain values."""
    node, record = row
    if not isinstance(record, Record) \
            or not isinstance(node, tuple) or len(node) != 2 \
            or not isinstance(node[0], str) or not node[0] \
            or type(node[1]) not in (int, str) \
            or type(record.record_id) is not type(node[1]) \
            or record.record_id != node[1] \
            or not all(isinstance(column, str) for column in record.columns) \
            or not all(value is None or isinstance(value, (str, int, float))
                       for value in record.values):
        raise ValueError(f"invalid record row for node {node!r}")
    return node, record


def _encode(rows: list[Any]) -> bytes:
    """One chunk of a snapshot stream."""
    return pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(stream: bytes) -> list[Any]:
    """Every row of a stream of :func:`_encode` chunks, in order."""
    reader, rows = io.BytesIO(stream), []
    while reader.tell() < len(stream):
        rows += pickle.load(reader)
    return rows
