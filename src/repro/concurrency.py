"""Concurrency primitives: thread coordination for the serving stack.

The serving layer promises that "a streaming matcher may be driven from
several threads" (:mod:`repro.serve.telemetry`), which makes every
mutable structure on the serving path a concurrency boundary: the
standing :class:`~repro.blocking.index.BlockIndex` grows while probes
are in flight, the entity store and the drift monitor take writes from
every thread that drives a matcher, and the token and similarity memos
fill from every scoring thread.  This module holds the two primitives
those call sites share:

* :class:`WitnessedLock` — the one lock class.  Every guarded object
  holds exactly one; it is reentrant per thread (a locked method may
  call another locked method of the same object) and reports to the
  lock-order witness.
* :class:`BoundedMemo` — the one memo class: a dict with lock-free
  reads that empties itself when an insert would cross its bound.

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
import threading
from collections.abc import Iterator
from contextlib import contextmanager

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
    """A reentrant mutex that reports to the lock-order witness.

    Wraps :class:`threading.RLock`: the holding thread may take it
    again (``BlockIndex.probe`` calls ``as_table`` under the same
    lock), and every other thread waits.  The witness records a
    re-acquire as reentrant, with no order edge.
    """

    def __init__(self, name: str | None = None):
        self.name = name or _fresh_name("lock")
        self._lock = threading.RLock()

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

    def __repr__(self) -> str:
        return f"WitnessedLock({self.name!r})"


class BoundedMemo(dict):
    """A ``key -> value`` memo of at most ``max_entries`` entries.

    Eviction is wholesale: an insert that would cross the bound empties
    the memo first — refilling is cheap enough that an occasional cold
    restart beats per-entry LRU bookkeeping.  The memos are shared by
    every thread of the process (a
    :class:`~repro.serve.matcher.StreamMatcher` may score on several), so
    the check-clear-insert of :meth:`__setitem__` and :meth:`update`
    holds a lock.  Reads are plain, lock-free dict reads: a racing
    eviction can at worst turn a hit into a recomputation, never
    corrupt an entry.  The default bound is the token memos'; the
    similarity memos pass their own.
    """

    def __init__(self, max_entries: int = 200_000) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()

    def __setitem__(self, key: object, value: object) -> None:
        with self._lock:
            if len(self) >= self.max_entries:
                self.clear()
            super().__setitem__(key, value)

    def update(self, entries: dict) -> None:  # type: ignore[override]
        """Insert ``entries`` in one locked step, emptying the memo
        first if they would cross the bound; an update larger than the
        bound keeps its first ``max_entries`` entries."""
        bound = self.max_entries
        if len(entries) > bound:
            entries = dict(itertools.islice(entries.items(), bound))
        with self._lock:
            if len(self) + len(entries) > bound:
                self.clear()
            super().update(entries)

    def __reduce__(self) -> tuple:
        # The default dict-subclass pickling restores items through
        # __setitem__ *before* __init__ runs, when max_entries does not
        # exist yet; reconstruct through the constructor instead.  The
        # entries are deliberately dropped — a memo is cheap to refill
        # and only bloats pickled blockers and persisted block indexes.
        return (type(self), (self.max_entries,))
