"""The one way :mod:`repro` writes telemetry (DESIGN.md §8): a JSONL
event log, one flushed JSON object per line, each with a ``"type"``.

Every layer writes through :class:`EventLog` — AutoML ``trial`` and
``summary`` records, serving ``request`` records, ``blocking``,
monitoring ``drift`` / ``shadow`` / ``trigger`` / ``promotion`` and
resolve ``resolve`` / ``snapshot`` records — so one file can carry
several layers' records, and :func:`read_events` reads any of them.
Whoever opens a log from a path closes it; :meth:`EventLog.opened` is
that rule.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Union

import numpy as np

#: Keys whose values are wall-clock measurements, never content.
VOLATILE_KEYS = frozenset({
    "latency", "elapsed", "timestamp", "created_at", "wall_time",
    "overhead",
})


def _json_default(value: Any) -> Any:
    """Best-effort serializer for config values (numpy scalars etc.)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


class EventLog:
    """Append-per-record JSONL telemetry.

    Each record is written and flushed as soon as it exists, so an
    interrupted run keeps everything up to its last event.  Writes are
    serialized by an internal lock, so concurrent writers (the
    :class:`~repro.serve.service.MatchService` serving thread, caller
    threads that drive a :class:`~repro.serve.matcher.StreamMatcher`
    directly, and a shadow evaluator and an entity store that share one
    log) always emit whole, non-interleaved lines, and :meth:`close` is
    idempotent even when several threads race it.  The lock is private
    by design: all file access must go through :meth:`event` /
    :meth:`close` — the ``REP008`` lint rule rejects any other ``._fh``
    access.

    A path is opened for writing from scratch (the file is rewritten);
    ``append=True`` keeps its existing records.
    """

    def __init__(self, path: Union[str, Path], append: bool = False):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh = self.path.open("a" if append else "w", encoding="utf-8")

    @classmethod
    @contextmanager
    def opened(cls, target: "EventLog | str | Path | None",
               append: bool = False) -> Iterator["EventLog | None"]:
        """The one ownership rule: ``None`` yields ``None``; an open
        :class:`EventLog` is yielded and left open (its opener closes
        it); a path is opened here and closed on exit, also when the
        body raises."""
        if target is None or isinstance(target, EventLog):
            yield target
            return
        log = cls(target, append=append)
        try:
            yield log
        finally:
            log.close()

    def event(self, type: str, **fields: Any) -> None:
        """Append one ``{"type": type, **fields}`` record."""
        # Serialize the line outside the lock (it can be slow for large
        # configs), then write-and-flush atomically under it.
        line = json.dumps({"type": type, **fields},
                          default=_json_default) + "\n"
        with self._lock:
            if self._fh.closed:
                raise ValueError(f"EventLog {self.path} is closed")
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


def read_events(path: Union[str, Path]) -> list[dict[str, Any]]:
    """All records of a JSONL event log (blank lines skipped)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _strip_volatile(value: Any) -> Any:
    if isinstance(value, dict):
        return {key: _strip_volatile(item) for key, item in value.items()
                if not _is_volatile(key)}
    if isinstance(value, list):
        return [_strip_volatile(item) for item in value]
    return value


def _is_volatile(key: Any) -> bool:
    return isinstance(key, str) and (
        key in VOLATILE_KEYS or "latency" in key
        or key.endswith(("_elapsed", "_overhead", "_time", "_at")))


def deterministic_view(records: list[dict[str, Any]]
                       ) -> list[dict[str, Any]]:
    """Records with every volatile (timing) field removed, recursively.

    Two runs over identical traffic with identical seeds produce equal
    deterministic views even though their latency and timestamp fields
    differ — the replay-determinism contract of the event log.
    """
    return [_strip_volatile(record) for record in records]
