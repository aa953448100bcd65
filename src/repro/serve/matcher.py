"""Batch and streaming matchers: the blocking → featurize → predict path.

:class:`BatchMatcher` serves a :class:`~repro.serve.bundle.ModelBundle`
over whole tables: candidate pairs come from a blocker, featurization
runs in micro-batches (so peak memory is bounded by ``batch_size`` rows
of features, not by the candidate count) and the bundle's predictor
scores each batch as it is produced.  The feature generator — and with
it the shared token cache — persists across batches and across calls,
so repeated values are tokenized once per serving session.

:class:`StreamMatcher` is the incremental variant: callers submit
candidate-pair batches as they arrive; every request is timed and
counted in a :class:`~repro.serve.telemetry.ServeMetrics`, and
optionally written as a ``request`` record of a JSONL
:class:`~repro.events.EventLog`.  A request's latency covers candidate
generation (blocking or the index probe), scoring and every tap, and a
request that fails anywhere on that path is counted as an error and
logged with its ``request_id``.  Given a standing
:class:`~repro.blocking.index.BlockIndex`, a stream can also accept raw
*records* (:meth:`StreamMatcher.submit_records`): each batch is blocked
against the index — no per-batch re-indexing of the catalog table — and
the index itself can grow between batches via
:meth:`StreamMatcher.extend_index`.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterable
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import Protocol, Union

import numpy as np

from ..blocking.index import BlockIndex
from ..data.pairs import PairSet
from ..data.table import Record, Table
from ..events import EventLog
from ..ml.metrics import precision_recall_f1
from .bundle import ModelBundle
from .telemetry import ServeMetrics


class NoStandingIndexError(RuntimeError, ValueError):
    """A record-level stream operation was called without a standing
    block index.

    :meth:`StreamMatcher.submit_records` and
    :meth:`StreamMatcher.extend_index` both require the matcher to have
    been constructed with a standing index — ``index=
    blocker.index(catalog)`` or ``index=BlockIndex.load(path)``.
    Subclasses both :class:`RuntimeError` (mis-configured runtime
    state) and :class:`ValueError` (what earlier releases raised), so
    existing ``except`` clauses keep working.
    """


class Blocker(Protocol):
    """Anything that can produce candidate pairs for two tables."""

    def block(self, table_a: Table, table_b: Table) -> PairSet: ...


class MonitorTap(Protocol):
    """Drift-monitor hook fed per scored micro-batch.

    The matcher passes the feature matrix it already computed plus the
    model outputs, so monitoring adds no second featurization pass (see
    :class:`repro.monitor.FeatureDriftMonitor`).
    """

    def observe(self, X: np.ndarray, probabilities: np.ndarray,
                predictions: np.ndarray) -> None: ...


class ShadowTap(Protocol):
    """Champion/challenger hook fed per served request, after the
    champion's response exists (see
    :class:`repro.monitor.ShadowEvaluator`)."""

    def observe(self, pairs: PairSet, probabilities: np.ndarray,
                predictions: np.ndarray, latency: float) -> None: ...


class ResolverTap(Protocol):
    """Entity-resolution hook fed every scored request.

    The matcher hands over each scored result; the tap folds the
    pairwise decisions into its standing clustering and returns the
    touched records' entity assignments (``"<side>:<record_id>"`` →
    entity id), which the matcher attaches to the result.  See
    :class:`repro.resolve.EntityStore` — the protocol keeps the serving
    layer import-free of :mod:`repro.resolve`.
    """

    def apply_result(self, result: "MatchResult", *,
                     left_side: str = "a", right_side: str = "b",
                     context: dict[str, object] | None = None
                     ) -> dict[str, str]: ...

    def stats(self) -> dict[str, int | float]: ...


@dataclass
class MatchResult:
    """Scored candidate pairs from one matching request."""

    pairs: PairSet
    probabilities: np.ndarray
    predictions: np.ndarray
    n_batches: int = 1
    max_batch_rows: int = 0
    #: Entity assignments (``"<side>:<record_id>"`` → entity id) for
    #: every record this request touched; ``None`` unless the matcher
    #: was constructed with a ``resolver=`` tap.
    entities: dict[str, str] | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def n_matches(self) -> int:
        return int(self.predictions.sum())

    @property
    def matches(self) -> PairSet:
        """The subset of candidate pairs predicted to match."""
        return self.pairs[np.flatnonzero(self.predictions == 1)]

    def metrics(self) -> dict[str, float]:
        """Precision / recall / F1 against the pairs' gold labels."""
        precision, recall, f1 = precision_recall_f1(self.pairs.labels,
                                                    self.predictions)
        return {"precision": precision, "recall": recall, "f1": f1}


class _MatcherBase:
    """Shared bundle/featurizer/telemetry plumbing of the two matchers."""

    def __init__(self, bundle: ModelBundle, *,
                 request_log: EventLog | str | Path | None = None,
                 monitor: MonitorTap | None = None,
                 shadow: ShadowTap | None = None,
                 resolver: ResolverTap | None = None):
        self.bundle = bundle
        self.generator = bundle.feature_generator()
        self.metrics = ServeMetrics()
        self._exit = ExitStack()
        self.request_log = self._exit.enter_context(
            EventLog.opened(request_log))
        self._request_ids = itertools.count(1)
        self.monitor = monitor
        self.shadow = shadow
        self.resolver = resolver

    def _score_pairs(self, pairs: PairSet, batch_size: int | None
                     ) -> MatchResult:
        """Featurize + predict ``pairs`` in bounded micro-batches."""
        self.bundle.check_schema(pairs.table_a, pairs.table_b)
        total = len(pairs)
        if batch_size is None or batch_size >= total:
            batch_size = max(total, 1)
        probabilities = np.empty(total, dtype=np.float64)
        predictions = np.empty(total, dtype=np.int64)
        n_batches = 0
        max_rows = 0
        for start in range(0, total, batch_size):
            batch = pairs[start:start + batch_size]
            X = self.generator.transform(batch)
            stop = start + len(batch)
            # One estimator pass per batch: decisions derive from the
            # probabilities already in hand (bundle threshold semantics)
            # instead of a second predict() over the same matrix.
            batch_probabilities = self.bundle.predict_proba(X)
            probabilities[start:stop] = batch_probabilities
            predictions[start:stop] = self.bundle.decide(batch_probabilities)
            if self.monitor is not None:
                self.monitor.observe(X, batch_probabilities,
                                     predictions[start:stop])
            n_batches += 1
            max_rows = max(max_rows, len(batch))
        return MatchResult(pairs, probabilities, predictions,
                           n_batches=n_batches, max_batch_rows=max_rows)

    def _serve(self, candidates: Callable[[], PairSet],
               batch_size: int | None, kind: str) -> MatchResult:
        """Serve one request whose pairs ``candidates()`` produces.

        The request clock runs from candidate generation through the
        resolver tap; the shadow tap gets the scoring time only, so its
        champion/challenger overhead compares like with like.
        """
        request_id = f"{kind}-{next(self._request_ids):06d}"
        started = time.monotonic()
        pairs: PairSet | None = None
        try:
            pairs = candidates()
            scoring_started = time.monotonic()
            result = self._score_pairs(pairs, batch_size)
            if self.shadow is not None:
                self.shadow.observe(pairs, result.probabilities,
                                    result.predictions,
                                    time.monotonic() - scoring_started)
            if self.resolver is not None:
                result.entities = self.resolver.apply_result(
                    result, context={"request_id": request_id, "kind": kind})
        except Exception as exc:
            n_pairs = None if pairs is None else len(pairs)
            self.metrics.observe_error(error_type=type(exc).__name__)
            if self.request_log is not None:
                self.request_log.event(
                    "request", request_id=request_id, kind=kind,
                    n_pairs=n_pairs, error=f"{type(exc).__name__}: {exc}",
                    latency=time.monotonic() - started)
            # Keep the failing request identifiable downstream: tag the
            # exception so callers (and, on 3.11+, the traceback itself)
            # can correlate it with the request log.
            exc.request_id = request_id  # type: ignore[attr-defined]
            if hasattr(exc, "add_note"):
                size = ("" if n_pairs is None
                        else f" ({n_pairs} candidate pairs)")
                exc.add_note(f"while serving request {request_id}{size}")
            raise
        latency = time.monotonic() - started
        self.metrics.observe(len(result), result.n_matches, latency,
                             max_batch_rows=result.max_batch_rows)
        if self.request_log is not None:
            self.request_log.event(
                "request", request_id=request_id, kind=kind,
                n_pairs=len(result),
                n_matches=result.n_matches, n_batches=result.n_batches,
                max_batch_rows=result.max_batch_rows, latency=latency,
                n_entities=(len(set(result.entities.values()))
                            if result.entities is not None else None),
                error=None)
        return result

    def close(self) -> None:
        """Write a final metrics summary; close a log opened from a path."""
        if self.request_log is not None:
            self.request_log.event("summary", **self.metrics.snapshot())
        self._exit.close()

    def __enter__(self) -> "_MatcherBase":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()


class BatchMatcher(_MatcherBase):
    """Serve a bundle over whole tables (or pre-blocked pair sets).

    Parameters
    ----------
    bundle:
        The :class:`ModelBundle` to serve.
    blocker:
        Candidate-pair generator with a ``block(table_a, table_b)``
        method (see :mod:`repro.blocking`); required by :meth:`match`,
        unused by :meth:`match_pairs`.
    batch_size:
        Micro-batch row cap for featurization + scoring; peak feature
        memory is ``O(batch_size × n_features)`` regardless of how many
        candidate pairs blocking produces.
    request_log:
        Optional JSONL telemetry: a path (rewritten, and closed by
        :meth:`close`) or an open :class:`~repro.events.EventLog` (left
        open).
    monitor / shadow:
        Optional monitoring taps (:class:`MonitorTap` per scored
        micro-batch, :class:`ShadowTap` per served request) — see
        :mod:`repro.monitor`.
    resolver:
        Optional :class:`ResolverTap` (e.g. a
        :class:`repro.resolve.EntityStore`): every scored request's
        decisions fold into the standing clustering, and results carry
        ``entities`` assignments.
    """

    def __init__(self, bundle: ModelBundle, blocker: Blocker | None = None,
                 *, batch_size: int = 4096,
                 request_log: EventLog | str | Path | None = None,
                 monitor: MonitorTap | None = None,
                 shadow: ShadowTap | None = None,
                 resolver: ResolverTap | None = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(bundle, request_log=request_log,
                         monitor=monitor, shadow=shadow, resolver=resolver)
        self.blocker = blocker
        self.batch_size = batch_size

    def match(self, table_a: Table, table_b: Table) -> MatchResult:
        """Block, featurize and score two tables end to end."""
        if self.blocker is None:
            raise ValueError(
                "BatchMatcher.match needs a blocker; construct with "
                "blocker=... or score pre-blocked pairs via match_pairs")
        self.bundle.check_schema(table_a, table_b)
        blocker = self.blocker
        return self._serve(lambda: blocker.block(table_a, table_b),
                           self.batch_size, kind="batch")

    def match_pairs(self, pairs: PairSet) -> MatchResult:
        """Score an existing candidate :class:`PairSet`."""
        return self._serve(lambda: pairs, self.batch_size, kind="batch")


class StreamMatcher(_MatcherBase):
    """Serve a bundle over incrementally arriving candidate batches.

    Each :meth:`submit` call is one request: it is scored immediately
    (no internal queueing), timed, and counted.  The featurizer's token
    cache persists across requests, so a hot stream stops re-tokenizing
    recurring values.

    With a standing ``index`` (a :class:`~repro.blocking.index.BlockIndex`
    over the catalog table, built once or loaded from disk), the stream
    also accepts raw record batches: :meth:`submit_records` blocks each
    batch against the index and scores the candidates, and
    :meth:`extend_index` folds newly arrived catalog records into the
    live index.  Because the index is incremental, blocking a batch this
    way returns exactly the pairs a from-scratch ``blocker.block(batch,
    catalog)`` would.

    >>> with StreamMatcher(bundle, request_log="serve.jsonl") as matcher:
    ...     for batch in incoming_batches:
    ...         result = matcher.submit(batch)
    ...     print(matcher.metrics.snapshot())
    """

    def __init__(self, bundle: ModelBundle, *,
                 index: BlockIndex | None = None,
                 max_batch_rows: int | None = None,
                 request_log: EventLog | str | Path | None = None,
                 monitor: MonitorTap | None = None,
                 shadow: ShadowTap | None = None,
                 resolver: ResolverTap | None = None):
        super().__init__(bundle, request_log=request_log,
                         monitor=monitor, shadow=shadow, resolver=resolver)
        if max_batch_rows is not None and max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}")
        self.max_batch_rows = max_batch_rows
        self.index = index

    def submit(self, pairs: PairSet) -> MatchResult:
        """Score one incoming batch of candidate pairs."""
        return self._serve(lambda: pairs, self.max_batch_rows, kind="stream")

    def _as_table(self, records: Union[Table, Iterable[Record]]) -> Table:
        """Coerce an incoming record batch to a probe-side Table."""
        if isinstance(records, Table):
            return records
        batch = list(records)
        if not batch:
            raise ValueError("submit_records needs at least one record")
        columns = batch[0].columns
        for record in batch:
            if record.columns != columns:
                raise ValueError(
                    f"heterogeneous record batch: record "
                    f"{record.record_id!r} has columns "
                    f"{list(record.columns)}, expected {list(columns)} "
                    f"(all records of one batch must share a schema)")
        return Table("stream-batch", columns,
                     [list(record.values) for record in batch],
                     ids=[record.record_id for record in batch])

    def submit_records(self, records: Union[Table, Iterable[Record]]
                       ) -> MatchResult:
        """Block one incoming record batch against the standing index
        and score the resulting candidate pairs.

        Requires a standing index: construct the matcher with
        ``index=blocker.index(catalog)`` or
        ``index=BlockIndex.load(path)``, otherwise
        :class:`NoStandingIndexError` is raised.  Probing reuses the
        index as-is — the catalog table is never re-indexed — so a hot
        stream's per-batch blocking cost is proportional to the batch,
        not the catalog.
        """
        if self.index is None:
            raise NoStandingIndexError(
                "StreamMatcher.submit_records needs a standing block "
                "index; construct with index=blocker.index(catalog) or "
                "index=BlockIndex.load(path)")
        index = self.index
        return self._serve(lambda: index.probe(self._as_table(records)),
                           self.max_batch_rows, kind="stream")

    def extend_index(self, records: Union[Table, Iterable[Record]]) -> int:
        """Fold newly arrived catalog records into the standing index;
        returns how many were added.  Subsequent :meth:`submit_records`
        batches see the new records immediately.

        Requires a standing index: construct the matcher with
        ``index=blocker.index(catalog)`` or
        ``index=BlockIndex.load(path)``, otherwise
        :class:`NoStandingIndexError` is raised.
        """
        if self.index is None:
            raise NoStandingIndexError(
                "StreamMatcher.extend_index needs a standing block "
                "index; construct with index=blocker.index(catalog) or "
                "index=BlockIndex.load(path)")
        return self.index.add_records(records)
