"""Concurrency primitives: thread coordination for the serving stack,
and the one process-pool map.

The serving layer promises that "a streaming matcher may be driven from
several threads" (:mod:`repro.serve.telemetry`), which makes every
mutable structure on the serving path a concurrency boundary: the
standing :class:`~repro.blocking.index.BlockIndex` grows while probes
are in flight, caches reorder their LRU lists on every hit, and JSONL
telemetry writers append from every worker.  This module holds the
primitives those call sites share that the stdlib does not provide: a
reader–writer lock, and an every-Nth-event gate used by the monitoring
layer to emit periodic drift records from concurrent workers without
double-firing.

:func:`process_map` is the project's only process pool: an ordered
``fn(*task)`` map that the feature engine
(:mod:`repro.features.columnar`) and the composite blockers
(:mod:`repro.blocking.compose`) fan out over, with
:func:`resolve_n_jobs` normalizing their ``n_jobs`` knobs.

:class:`ReadWriteLock` semantics:

* Any number of threads may hold the **read** side simultaneously.
* The **write** side is exclusive: it waits for all readers to drain
  and blocks new first-time readers while it holds (or waits for) the
  lock, so writers cannot starve behind a steady read stream.
* Both sides are **reentrant per thread**: a reader may re-enter
  ``read_locked`` (needed when a locked operation calls another locked
  read helper on the same object), and the writing thread may take
  either side again.  Upgrading — acquiring write while holding only
  read — deadlocks by construction and raises ``RuntimeError`` instead.

A debug-mode **lock-order witness** (:func:`enable_lock_witness`) is
the project's lock-order check: every witnessed acquisition records
"A was held when B was taken" edges in a global order graph, and an
acquisition that would close a cycle raises :class:`LockOrderError`
immediately — even when the deadly interleaving itself never happens
in the run.  The witness is off by default (``None`` check per
acquisition, no measurable overhead) and is enabled by the concurrency
test suites.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, TypeVar

T = TypeVar("T")

_lock_names = itertools.count(1)


def _fresh_name(prefix: str) -> str:
    return f"{prefix}-{next(_lock_names)}"


class LockOrderError(RuntimeError):
    """A witnessed lock acquisition would close an order cycle."""


class LockWitness:
    """Global lock-acquisition-order checker (debug mode).

    Tracks, per thread, the stack of witnessed lock names currently
    held, and globally the directed graph of observed "held → acquired"
    edges.  :meth:`on_acquire` is called *before* blocking on a lock:
    if the new edge would close a cycle in the order graph the witness
    raises :class:`LockOrderError` naming the established opposite
    path, instead of letting the program deadlock whenever the two
    paths finally interleave.  Edges persist for the lifetime of the
    witness, so a single-threaded test run still catches inversions
    that only deadlock under contention.

    Reentrant acquisitions (the name is already on this thread's stack)
    record no edges — reentrancy is the locks' own business.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._local = threading.local()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def held(self) -> tuple[str, ...]:
        """Names this thread currently holds, outermost first."""
        return tuple(self._stack())

    def _path(self, src: str, dst: str) -> list[str] | None:
        """A path src → … → dst in the order graph, if one exists.

        Callers hold ``self._lock``.
        """
        parent: dict[str, str | None] = {src: None}
        queue = [src]
        while queue:
            current = queue.pop(0)
            if current == dst:
                chain = [current]
                while parent[chain[-1]] is not None:
                    chain.append(parent[chain[-1]])  # type: ignore[arg-type]
                return list(reversed(chain))
            for nxt in sorted(self._edges.get(current, ())):
                if nxt not in parent:
                    parent[nxt] = current
                    queue.append(nxt)
        return None

    def on_acquire(self, name: str) -> None:
        """Witness that this thread is about to block on ``name``."""
        stack = self._stack()
        if name in stack:
            stack.append(name)  # reentrant: no new ordering information
            return
        outer = [held for held in dict.fromkeys(stack)]
        if outer:
            with self._lock:
                for held in outer:
                    cycle = self._path(name, held)
                    if cycle is not None:
                        order = " -> ".join(cycle)
                        raise LockOrderError(
                            f"lock order inversion: acquiring {name!r} "
                            f"while holding {held!r}, but the opposite "
                            f"order {order} was already witnessed; one "
                            f"of these paths must swap its nesting")
                for held in outer:
                    self._edges.setdefault(held, set()).add(name)
        stack.append(name)

    def on_release(self, name: str) -> None:
        """Witness that this thread released one hold of ``name``."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def edges(self) -> dict[str, set[str]]:
        """A copy of the observed order graph (for assertions)."""
        with self._lock:
            return {src: set(dst) for src, dst in self._edges.items()}


#: The process-wide witness; ``None`` keeps every hook a no-op.
_witness: LockWitness | None = None


def enable_lock_witness() -> LockWitness:
    """Install (or return) the process-wide lock-order witness."""
    global _witness
    if _witness is None:
        _witness = LockWitness()
    return _witness


def disable_lock_witness() -> None:
    """Remove the process-wide witness; hooks become no-ops again."""
    global _witness
    _witness = None


def active_lock_witness() -> LockWitness | None:
    """The installed witness, or ``None`` when disabled."""
    return _witness


@contextmanager
def lock_witness_enabled() -> Iterator[LockWitness]:
    """Enable the witness for a block (test-suite convenience)."""
    witness = enable_lock_witness()
    try:
        yield witness
    finally:
        disable_lock_witness()


class WitnessedLock:
    """A plain mutex that reports to the lock-order witness.

    A named wrapper around :class:`threading.Lock` for code (and
    fixtures) that wants plain-lock semantics with witness coverage.
    Non-reentrant, like the lock it wraps — the witness flags a
    same-name re-acquire path as reentrant, but the underlying lock
    still deadlocks, so don't.
    """

    def __init__(self, name: str | None = None):
        self.name = name or _fresh_name("lock")
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        witness = _witness
        if witness is not None:
            witness.on_acquire(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if not acquired and witness is not None:
            witness.on_release(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        witness = _witness
        if witness is not None:
            witness.on_release(self.name)

    def __enter__(self) -> "WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:
        state = "locked" if self._lock.locked() else "unlocked"
        return f"WitnessedLock({self.name!r}, {state})"


class ReadWriteLock:
    """A reentrant reader–writer lock with writer preference.

    >>> lock = ReadWriteLock()
    >>> with lock.read_locked():
    ...     pass  # shared with other readers
    >>> with lock.write_locked():
    ...     pass  # exclusive
    """

    def __init__(self, name: str | None = None) -> None:
        #: Identity reported to the lock-order witness; both sides of
        #: one ReadWriteLock are one node in the order graph.
        self.name = name or _fresh_name("rwlock")
        self._cond = threading.Condition()
        self._active_readers = 0
        self._waiting_writers = 0
        self._writer: int | None = None  # ident of the writing thread
        self._write_depth = 0
        self._local = threading.local()

    # -- per-thread read-hold bookkeeping ------------------------------

    def _held_reads(self) -> int:
        return getattr(self._local, "reads", 0)

    def _set_held_reads(self, count: int) -> None:
        self._local.reads = count

    # -- read side -----------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        witness = _witness
        if witness is not None:
            witness.on_acquire(self.name)
        try:
            with self._cond:
                if self._writer == me or self._held_reads() > 0:
                    # Reentrant: this thread already excludes writers.
                    self._set_held_reads(self._held_reads() + 1)
                    self._active_readers += 1
                    return
                # First-time readers queue behind waiting writers so a
                # steady probe stream cannot starve extend_index forever.
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
                self._set_held_reads(1)
                self._active_readers += 1
        except BaseException:
            if witness is not None:
                witness.on_release(self.name)
            raise

    def release_read(self) -> None:
        with self._cond:
            held = self._held_reads()
            if held < 1:
                raise RuntimeError("release_read without a matching acquire")
            self._set_held_reads(held - 1)
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()
        witness = _witness
        if witness is not None:
            witness.on_release(self.name)

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- write side ----------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        witness = _witness
        if witness is not None:
            witness.on_acquire(self.name)
        try:
            with self._cond:
                if self._writer == me:
                    self._write_depth += 1
                    return
                if self._held_reads() > 0:
                    raise RuntimeError(
                        "cannot upgrade a read lock to a write lock; "
                        "release the read side first")
                self._waiting_writers += 1
                try:
                    while self._writer is not None or self._active_readers:
                        self._cond.wait()
                finally:
                    self._waiting_writers -= 1
                self._writer = me
                self._write_depth = 1
        except BaseException:
            if witness is not None:
                witness.on_release(self.name)
            raise

    def release_write(self) -> None:
        with self._cond:
            if self._writer != threading.get_ident():
                raise RuntimeError("release_write by a non-owning thread")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()
        witness = _witness
        if witness is not None:
            witness.on_release(self.name)

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    def __repr__(self) -> str:
        with self._cond:
            return (f"ReadWriteLock(readers={self._active_readers}, "
                    f"writer={'held' if self._writer is not None else 'free'}, "
                    f"waiting_writers={self._waiting_writers})")


class EventGate:
    """A thread-safe "every Nth event" gate.

    Many threads call :meth:`tick`; exactly one call out of every
    ``interval`` returns ``True`` — the caller that crossed the
    boundary — no matter how the calls interleave.  The monitoring
    layer uses this to emit one drift record per N served requests
    from a :class:`~repro.serve.service.MatchService` worker pool:
    every worker ticks, one worker writes.

    >>> gate = EventGate(100)
    >>> if gate.tick():            # in any worker thread
    ...     log.event("drift", **monitor.report().as_dict())
    """

    def __init__(self, interval: int):
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = int(interval)
        self._lock = threading.Lock()
        self._count = 0

    def tick(self, n: int = 1) -> bool:
        """Count ``n`` events; True iff this call crossed a boundary."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            before = self._count
            self._count += n
            return self._count // self.interval > before // self.interval

    @property
    def count(self) -> int:
        """Total events ticked so far."""
        with self._lock:
            return self._count

    def reset(self) -> None:
        """Zero the event counter (e.g. after a promotion)."""
        with self._lock:
            self._count = 0

    def __repr__(self) -> str:
        return f"EventGate(interval={self.interval}, count={self.count})"


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` knob: ``None``->1, negatives count from
    the CPU count (``-1`` = all cores, joblib-style)."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must be >= 1 or negative (-1 = all cores)")
    if n_jobs < 0:
        n_jobs = max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs


def process_map(fn: Callable[..., T], tasks: Iterable[tuple[Any, ...]],
                n_jobs: int | None) -> list[T]:
    """``[fn(*task) for task in tasks]``, in task order, over a process
    pool of at most one worker per task when ``n_jobs`` resolves above 1.

    Whether a pool pays off is the caller's decision; with ``n_jobs``
    1 the tasks run in this process.  ``fn`` and every task must pickle.
    """
    task_list = list(tasks)
    n_jobs = resolve_n_jobs(n_jobs)
    if n_jobs <= 1 or not task_list:
        return [fn(*task) for task in task_list]
    with ProcessPoolExecutor(max_workers=min(n_jobs,
                                             len(task_list))) as pool:
        futures = [pool.submit(fn, *task) for task in task_list]
        return [future.result() for future in futures]
