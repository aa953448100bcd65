"""MatchService: a one-thread serving front-end over one StreamMatcher.

A :class:`~repro.serve.matcher.StreamMatcher` scores requests inline on
the calling thread.  :class:`MatchService` turns that into a concurrent
front-end: callers from any number of threads enqueue requests onto a
bounded queue and receive :class:`concurrent.futures.Future` objects;
one serving thread drains the queue in submission order and drives the
wrapped matcher.  A request is GIL-bound Python plus hundreds of small
numpy calls, each of which releases the GIL; two serving threads only
hand the interpreter back and forth at every release (DESIGN.md §12
has the measurements).  With one consumer every answer — probabilities,
decisions and entity ids — equals an inline ``StreamMatcher`` call in
queue order, and no lock beyond those down the stack is needed: the
locked eviction of every :class:`~repro.concurrency.BoundedMemo`, the
one lock of :class:`~repro.blocking.index.BlockIndex` and the
serialized :class:`~repro.events.EventLog` writes still guard callers
that use the matcher, its index or its log from other threads.

Backpressure is explicit and configurable.  The queue is bounded by
``max_queue``; when it is full:

* ``overflow="block"`` (default) — the submitting thread waits for a
  slot, so producers are throttled to the service's drain rate;
* ``overflow="reject"`` — submission raises :class:`ServiceOverloaded`
  immediately and the shed request is counted in
  ``ServeMetrics.rejected`` (it never reaches the serving thread, so it
  is not a served request and not an error).

The queue-depth gauge (``queue_depth`` / ``max_queue_depth`` in
:meth:`ServeMetrics.snapshot`) tracks the bounded queue's occupancy.

>>> with MatchService(matcher, max_queue=64) as service:
...     futures = [service.submit(batch) for batch in batches]
...     results = [f.result() for f in futures]
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future
from types import TracebackType
from typing import TYPE_CHECKING, Union

from ..data.pairs import PairSet
from ..data.table import Record, Table
from .matcher import MatchResult, StreamMatcher

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids serve↔monitor cycle)
    from ..monitor.triggers import RetrainPlan, TriggerPolicy

#: Queue sentinel, enqueued by close() to stop the serving thread.
_SHUTDOWN = object()


class ServiceOverloaded(RuntimeError):
    """The service's bounded request queue is full (overflow="reject").

    Raised at submission time: the request was shed before reaching the
    serving thread and is counted in ``ServeMetrics.rejected``.  Callers
    may retry later or fall back to ``overflow="block"`` semantics by
    waiting themselves.
    """


class MatchService:
    """Concurrent serving front-end around one :class:`StreamMatcher`.

    Parameters
    ----------
    matcher:
        The wrapped :class:`StreamMatcher`.  The service drives it from
        one serving thread; its metrics object doubles as the service's
        (``service.metrics is matcher.metrics``), so one snapshot covers
        served requests, errors, rejections and queue depth.
    workers:
        Accepted for callers written against the former thread pool and
        checked to be ``>= 1``; it sizes nothing.  Every value serves in
        submission order on one thread, bit-identical to calling the
        bare matcher inline in that order.
    max_queue:
        Bound on queued (accepted but not yet running) requests.
    overflow:
        ``"block"`` or ``"reject"`` — what :meth:`submit` does when the
        queue is full (see module docstring).
    """

    def __init__(self, matcher: StreamMatcher, *, workers: int = 4,
                 max_queue: int = 64, overflow: str = "block"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if overflow not in ("block", "reject"):
            raise ValueError(
                f"overflow must be 'block' or 'reject', got {overflow!r}")
        self.matcher = matcher
        self.metrics = matcher.metrics
        self.overflow = overflow
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="match-service", daemon=True)
        self._thread.start()

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet taken by the serving thread."""
        return self._queue.qsize()

    # -- submission ----------------------------------------------------

    def _enqueue(self, call: Callable[[], object]) -> "Future":
        if self._closed.is_set():
            raise RuntimeError("MatchService is closed")
        future: Future = Future()
        item = (future, call)
        if self.overflow == "reject":
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self.metrics.observe_rejected()
                raise ServiceOverloaded(
                    f"request queue is full "
                    f"({self._queue.maxsize} pending requests); "
                    f"retry later or construct the service with "
                    f"overflow='block'") from None
        else:
            self._queue.put(item)
        self.metrics.observe_queue_depth(self._queue.qsize())
        return future

    def submit(self, pairs: PairSet) -> "Future[MatchResult]":
        """Enqueue one candidate-pair batch; resolves to its
        :class:`MatchResult` (or the scoring exception)."""
        return self._enqueue(lambda: self.matcher.submit(pairs))

    def submit_records(self, records: Union[Table, Iterable[Record]]
                       ) -> "Future[MatchResult]":
        """Enqueue one raw record batch to block against the standing
        index and score (requires the matcher's ``index=``)."""
        # Iterables are snapshotted now, not when the request runs: the
        # caller may mutate or exhaust the source after submitting.
        if not isinstance(records, Table):
            records = list(records)
        return self._enqueue(lambda: self.matcher.submit_records(records))

    def extend_index(self, records: Union[Table, Iterable[Record]]
                     ) -> "Future[int]":
        """Enqueue a catalog extension; resolves to the number of
        records added.  Runs under the index's exclusive write lock, so
        it never interleaves with in-flight probes."""
        if not isinstance(records, Table):
            records = list(records)
        return self._enqueue(lambda: self.matcher.extend_index(records))

    # -- monitoring ----------------------------------------------------

    def check_trigger(self, policies: "Sequence[TriggerPolicy] | None"
                      = None, *, resume_from: str | None = None
                      ) -> "RetrainPlan | None":
        """Evaluate retrain triggers over the service's observed state.

        Assembles a :class:`~repro.monitor.triggers.MonitorStatus` from
        whatever monitoring is attached to the wrapped matcher — the
        drift monitor's current report, the shadow evaluator's summary,
        the metrics snapshot, and the served bundle's age — and runs it
        through ``policies`` (default:
        :func:`~repro.monitor.triggers.default_policies`).  Returns the
        first firing policy's :class:`~repro.monitor.triggers.
        RetrainPlan` (with ``resume_from`` stamped on) or ``None``.
        Safe to call while requests are being served: drift reports
        take the monitor's lock only.
        """
        from ..monitor.triggers import (
            MonitorStatus,
            bundle_age_seconds,
            default_policies,
            evaluate_policies,
        )

        monitor = getattr(self.matcher, "monitor", None)
        shadow = getattr(self.matcher, "shadow", None)
        resolver = getattr(self.matcher, "resolver", None)
        snapshot = self.metrics.snapshot()
        status = MonitorStatus(
            drift=(monitor.report()
                   if monitor is not None and hasattr(monitor, "report")
                   else None),
            shadow=(shadow.summary()
                    if shadow is not None and hasattr(shadow, "summary")
                    else None),
            metrics=snapshot,
            requests_since_export=snapshot["requests"],
            bundle_age=bundle_age_seconds(self.matcher.bundle.metadata),
            resolve=(resolver.stats()
                     if resolver is not None and hasattr(resolver, "stats")
                     else None))
        if policies is None:
            policies = default_policies()
        return evaluate_policies(list(policies), status,
                                 resume_from=resume_from)

    # -- serving thread ------------------------------------------------

    def _serve_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _SHUTDOWN:
                    return
                future, call = item
                self.metrics.observe_queue_depth(self._queue.qsize())
                if not future.set_running_or_notify_cancel():
                    continue  # cancelled while queued
                try:
                    future.set_result(call())
                except BaseException as exc:
                    future.set_exception(exc)
            finally:
                self._queue.task_done()

    # -- lifecycle -----------------------------------------------------

    def join(self) -> None:
        """Block until every accepted request has been served."""
        self._queue.join()

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests and stop the serving thread.

        With ``wait=True`` (default) all accepted requests drain first,
        then the wrapped matcher's :meth:`~_MatcherBase.close` writes
        its final summary.  Idempotent.
        """
        if self._closed.is_set():
            if wait:
                self._thread.join()
            return
        self._closed.set()
        self._queue.put(_SHUTDOWN)
        if wait:
            self._thread.join()
            # A producer blocked in put() during close can slip an item
            # in behind the sentinel; fail its future rather than
            # leaving it forever pending.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SHUTDOWN:
                    future, _ = item
                    if future.set_running_or_notify_cancel():
                        future.set_exception(
                            RuntimeError("MatchService closed before this "
                                         "request was served"))
                self._queue.task_done()
            self.matcher.close()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self.close()

    def __repr__(self) -> str:
        return ("MatchService(queue "
                f"{self._queue.qsize()}/{self._queue.maxsize}, "
                f"overflow={self.overflow!r}, "
                f"{'closed' if self._closed.is_set() else 'open'})")
