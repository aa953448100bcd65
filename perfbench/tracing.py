"""Spans recorded from outside the program, around calls into each layer.

The benchmark never edits ``src/repro``.  :meth:`Tracer.wrap` replaces
one bound method on one live object with a timed wrapper, so every call
into that layer's public function records a span.  A span keeps the
request id of the thread that made it, its wall time, its thread CPU
time (``time.thread_time``) and its item counts.  ``busy`` is the CPU
time; ``wait`` is wall minus busy: time spent waiting for the GIL, a
lock or I/O.  Spans stay in memory and are written out when the run
ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

#: ``count(args, result) -> {item_name: n}`` for one wrapped call.
Counter = Callable[[tuple, Any], dict[str, int]]


@dataclass
class Span:
    layer: str
    request_id: str | None
    start: float
    wall: float
    busy: float
    items: dict[str, int] = field(default_factory=dict)

    @property
    def wait(self) -> float:
        return max(self.wall - self.busy, 0.0)


class Tracer:
    """In-memory span store shared by every thread of one run.

    :meth:`close` ends recording, so the correctness checks that run
    after the timed phase leave no spans behind.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._closed = False
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def request_id(self) -> str | None:
        """The request the calling thread is working on, if any."""
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value: str | None) -> None:
        self._local.request_id = value

    def timed(self, layer: str, inner: Callable,
              count: Counter | None = None) -> Callable:
        """``inner``, recording a ``layer`` span for every call."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            cpu = time.thread_time()
            result = inner(*args, **kwargs)
            busy = time.thread_time() - cpu
            wall = time.perf_counter() - start
            self.add(Span(layer, self.request_id, start, wall, busy,
                          count(args, result) if count else {}))
            return result

        return timed

    def wrap(self, owner: object, name: str, layer: str,
             count: Counter | None = None) -> None:
        """Record a ``layer`` span for every call of ``owner.name``, also
        the calls the program makes itself.  Objects that get pickled
        must be traced with :meth:`timed` instead."""
        setattr(owner, name, self.timed(layer, getattr(owner, name), count))

    def add(self, span: Span) -> None:
        with self._lock:
            if not self._closed:
                self.spans.append(span)

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def of(self, layer: str) -> list[Span]:
        with self._lock:
            return [span for span in self.spans if span.layer == layer]

    def totals(self, layer: str, items: Iterable[str] = (), runs: int = 1
               ) -> dict[str, float]:
        """``calls``, ``busy_s``, ``wait_s`` and the summed ``items`` of
        one layer, keyed ``<layer>.<name>``; divided by ``runs`` when the
        spans come from that many runs of the same work."""
        spans = self.of(layer)
        out = {f"{layer}.calls": float(len(spans)),
               f"{layer}.busy_s": sum(span.busy for span in spans),
               f"{layer}.wait_s": sum(span.wait for span in spans)}
        for item in items:
            out[f"{layer}.{item}"] = float(
                sum(span.items.get(item, 0) for span in spans))
        return {name: value / runs for name, value in out.items()}

    def write(self, path: Path, header: dict[str, object]) -> None:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", **header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps({"type": "span", **asdict(span)})
                             + "\n")
