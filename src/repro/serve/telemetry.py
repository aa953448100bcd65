"""Serving telemetry: request counters.

:class:`ServeMetrics` aggregates per-request latency / throughput /
error counters behind a lock (a streaming matcher may be driven from
several threads); ``snapshot()`` returns a plain dict safe to ship to a
dashboard.  The per-request JSONL records go to the matcher's
:class:`~repro.events.EventLog` (``request`` records and a final
``summary`` holding a :meth:`ServeMetrics.snapshot`).
"""

from __future__ import annotations

import bisect
import threading

#: Fixed latency-histogram bucket upper bounds in seconds (Prometheus
#: style: roughly exponential, final bucket open-ended).  Fixed buckets
#: keep the histogram O(1) memory at any request volume and make
#: snapshots from different processes mergeable bucket-by-bucket.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class ServeMetrics:
    """Thread-safe counters for one matcher's request stream.

    Accounting contract: ``requests`` counts every request the matcher
    actually *processed* — successes and failures alike, so ``requests
    = served + errors``.  ``rejected`` counts requests shed at the door
    by service backpressure *before* reaching the matcher; a rejection is
    neither a request nor an error and appears only in the ``rejected``
    counter.  Latency statistics (mean/max and the fixed-bucket
    histogram behind ``p50/p95/p99``) cover successfully served
    requests only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.errors_by_type: dict[str, int] = {}
        self.pairs = 0
        self.matches = 0
        self.total_latency = 0.0
        self.max_latency = 0.0
        self.max_batch_rows = 0
        self.rejected = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        # One count per LATENCY_BUCKETS bound plus the open +inf bucket.
        self.latency_buckets = [0] * (len(LATENCY_BUCKETS) + 1)

    def observe(self, n_pairs: int, n_matches: int, latency: float,
                max_batch_rows: int | None = None) -> None:
        """Record one successfully served request."""
        with self._lock:
            self.requests += 1
            self.pairs += int(n_pairs)
            self.matches += int(n_matches)
            self.total_latency += float(latency)
            self.max_latency = max(self.max_latency, float(latency))
            self.latency_buckets[
                bisect.bisect_left(LATENCY_BUCKETS, float(latency))] += 1
            if max_batch_rows is not None:
                self.max_batch_rows = max(self.max_batch_rows,
                                          int(max_batch_rows))

    def observe_error(self, error_type: str | None = None) -> None:
        """Record one failed request (optionally by exception type)."""
        with self._lock:
            self.requests += 1
            self.errors += 1
            if error_type is not None:
                self.errors_by_type[error_type] = \
                    self.errors_by_type.get(error_type, 0) + 1

    def observe_rejected(self) -> None:
        """Record one request turned away by service backpressure.

        Rejections never reach the matcher, so they count neither as
        ``requests`` nor as ``errors`` — they are load shed at the door.
        """
        with self._lock:
            self.rejected += 1

    def observe_queue_depth(self, depth: int) -> None:
        """Update the service queue-depth gauge (and its high-water mark)."""
        with self._lock:
            self.queue_depth = int(depth)
            self.max_queue_depth = max(self.max_queue_depth, int(depth))

    def _latency_percentile(self, quantile: float) -> float:
        """Histogram-estimated latency quantile (callers hold the lock).

        Returns the upper bound of the bucket containing the
        ``quantile``-th served request (the conventional histogram
        estimate: pessimistic by at most one bucket width); the open
        top bucket reports the observed ``max_latency``.
        """
        total = sum(self.latency_buckets)
        if total == 0:
            return 0.0
        rank = quantile * total
        cumulative = 0
        for index, count in enumerate(self.latency_buckets):
            cumulative += count
            if cumulative >= rank:
                if index < len(LATENCY_BUCKETS):
                    return LATENCY_BUCKETS[index]
                break
        return self.max_latency

    def snapshot(self) -> dict:
        """Current counters plus derived mean latency, throughput and
        histogram-estimated p50/p95/p99 latency."""
        with self._lock:
            served = self.requests - self.errors
            return {
                "requests": self.requests,
                "errors": self.errors,
                "errors_by_type": dict(self.errors_by_type),
                "pairs": self.pairs,
                "matches": self.matches,
                "total_latency": self.total_latency,
                "max_latency": self.max_latency,
                "max_batch_rows": self.max_batch_rows,
                "rejected": self.rejected,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "mean_latency": (self.total_latency / served
                                 if served else 0.0),
                "latency_buckets": list(self.latency_buckets),
                "p50_latency": self._latency_percentile(0.50),
                "p95_latency": self._latency_percentile(0.95),
                "p99_latency": self._latency_percentile(0.99),
                "pairs_per_second": (self.pairs / self.total_latency
                                     if self.total_latency > 0 else 0.0),
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (f"ServeMetrics({snap['requests']} requests, "
                f"{snap['pairs']} pairs, {snap['errors']} errors, "
                f"{snap['pairs_per_second']:.0f} pairs/s)")

