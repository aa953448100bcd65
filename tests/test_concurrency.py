"""ReadWriteLock and EventGate semantics: sharing, exclusion,
reentrancy, misuse, every-Nth gating."""

import threading
import time

import pytest

from repro.concurrency import (
    EventGate,
    LockOrderError,
    ReadWriteLock,
    WitnessedLock,
    active_lock_witness,
    lock_witness_enabled,
)


def _in_thread(fn, timeout=30.0):
    """Run ``fn`` in a thread; return (finished, result_holder)."""
    holder = []
    thread = threading.Thread(target=lambda: holder.append(fn()))
    thread.start()
    thread.join(timeout)
    return not thread.is_alive(), holder


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        entered = threading.Barrier(3, timeout=30)

        def reader():
            with lock.read_locked():
                entered.wait()  # all three inside simultaneously
            return True

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers_and_writers(self):
        lock = ReadWriteLock()
        observed = []
        with lock.write_locked():
            finished, _ = _in_thread(
                lambda: lock.acquire_read(), timeout=0.3)
            assert not finished, "reader entered during a write"
            observed.append("exclusive")
        # After release the blocked reader gets in.
        time.sleep(0.1)
        assert observed == ["exclusive"]

    def test_write_waits_for_readers_to_drain(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        finished, _ = _in_thread(lambda: lock.acquire_write(), timeout=0.3)
        assert not finished
        lock.release_read()
        # The waiting writer proceeds once readers drain.
        deadline = time.monotonic() + 30
        while lock._writer is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert lock._writer is not None

    def test_read_reentrancy(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with lock.read_locked():  # same thread re-enters freely
                pass
        # Fully released: a writer can proceed immediately.
        finished, _ = _in_thread(
            lambda: (lock.acquire_write(), lock.release_write()))
        assert finished

    def test_writer_may_reenter_both_sides(self):
        lock = ReadWriteLock()
        with lock.write_locked():
            with lock.write_locked():
                with lock.read_locked():  # write implies read
                    pass
        finished, _ = _in_thread(
            lambda: (lock.acquire_write(), lock.release_write()))
        assert finished

    def test_upgrade_raises(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_unbalanced_releases_raise(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError, match="release_read"):
            lock.release_read()
        with pytest.raises(RuntimeError, match="non-owning"):
            lock.release_write()

    def test_stress_counter_consistency(self):
        """Increments under the write lock are never lost; readers see
        only fully applied values."""
        lock = ReadWriteLock()
        state = {"value": 0}
        n_threads, per_thread = 8, 300
        barrier = threading.Barrier(n_threads)

        def worker(thread_index):
            barrier.wait()
            for i in range(per_thread):
                if i % 3 == 0:
                    with lock.write_locked():
                        state["value"] += 1
                else:
                    with lock.read_locked():
                        assert state["value"] >= 0

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        expected = n_threads * len(range(0, per_thread, 3))
        assert state["value"] == expected


class TestEventGate:
    def test_fires_exactly_every_nth_tick(self):
        gate = EventGate(3)
        fired = [gate.tick() for _ in range(9)]
        assert fired == [False, False, True] * 3
        assert gate.count == 9

    def test_interval_one_fires_every_time(self):
        gate = EventGate(1)
        assert [gate.tick() for _ in range(4)] == [True] * 4

    def test_bulk_tick_crossing_multiple_boundaries_fires_once(self):
        """tick(n) reports boundary crossings, not a per-event count —
        a 25-event batch over a 10-gate is one True, and the next
        boundary arrives 5 events later."""
        gate = EventGate(10)
        assert gate.tick(25) is True
        assert gate.tick(4) is False
        assert gate.tick(1) is True   # crosses 30
        assert gate.count == 30

    def test_zero_tick_is_a_no_op(self):
        gate = EventGate(5)
        assert gate.tick(0) is False
        assert gate.count == 0

    def test_reset_restarts_the_cycle(self):
        gate = EventGate(4)
        for _ in range(3):
            gate.tick()
        gate.reset()
        assert gate.count == 0
        assert [gate.tick() for _ in range(4)] == [False, False, False,
                                                   True]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="interval"):
            EventGate(0)
        with pytest.raises(ValueError, match="n must be"):
            EventGate(3).tick(-1)

    def test_concurrent_ticks_fire_exactly_once_per_boundary(self):
        gate = EventGate(10)
        n_threads, per_thread = 8, 250
        fired = [0] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(index):
            barrier.wait()
            for _ in range(per_thread):
                if gate.tick():
                    fired[index] += 1

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        total = n_threads * per_thread
        assert gate.count == total
        assert sum(fired) == total // 10


class TestLockWitness:
    """The runtime lock-order witness: the repo's one lock-order check."""

    def test_inverted_acquisition_order_trips_the_witness(self):
        with lock_witness_enabled():
            a, b = WitnessedLock("wa"), WitnessedLock("wb")
            with a:
                with b:
                    pass
            with pytest.raises(LockOrderError, match="lock order inversion"):
                with b:
                    with a:
                        pass

    def test_inversion_is_caught_without_the_deadly_interleaving(self):
        """The edges persist: thread one runs A→B to completion, thread
        two later runs B→A — no actual deadlock occurs, the witness
        still reports the cycle."""
        with lock_witness_enabled():
            a, b = WitnessedLock("ta"), WitnessedLock("tb")

            def forward():
                with a:
                    with b:
                        pass
                return "ok"

            def backward():
                try:
                    with b:
                        with a:
                            pass
                except LockOrderError:
                    return "tripped"
                return "silent"

            finished, result = _in_thread(forward)
            assert finished and result == ["ok"]
            finished, result = _in_thread(backward)
            assert finished and result == ["tripped"]

    def test_consistent_order_records_edges_without_raising(self):
        with lock_witness_enabled() as witness:
            a, b = WitnessedLock("ca"), WitnessedLock("cb")
            for _ in range(3):
                with a:
                    with b:
                        pass
            assert witness.edges() == {"ca": {"cb"}}

    def test_rwlock_inversion_between_two_locks_trips(self):
        with lock_witness_enabled():
            outer = ReadWriteLock("rw-outer")
            inner = ReadWriteLock("rw-inner")
            with outer.read_locked():
                with inner.write_locked():
                    pass
            with pytest.raises(LockOrderError):
                with inner.read_locked():
                    with outer.write_locked():
                        pass

    def test_rwlock_reentrancy_is_not_an_inversion(self):
        with lock_witness_enabled() as witness:
            lock = ReadWriteLock("rw-re")
            with lock.read_locked():
                with lock.read_locked():
                    pass
            with lock.write_locked():
                with lock.write_locked():
                    with lock.read_locked():
                        pass
            assert witness.held() == ()
            assert witness.edges() == {}

    def test_upgrade_attempt_leaves_the_witness_stack_balanced(self):
        with lock_witness_enabled() as witness:
            lock = ReadWriteLock("rw-up")
            with lock.read_locked():
                with pytest.raises(RuntimeError, match="upgrade"):
                    lock.acquire_write()
            assert witness.held() == ()

    def test_disabled_witness_has_no_hooks(self):
        assert active_lock_witness() is None
        a, b = WitnessedLock("da"), WitnessedLock("db")
        with a:
            with b:
                pass
        with b:  # would trip if a witness were installed
            with a:
                pass

    def test_stress_rwlock_counter_under_witness(self):
        """The existing reader/writer stress pattern stays correct (and
        trip-free) with the witness enabled."""
        with lock_witness_enabled() as witness:
            lock = ReadWriteLock("rw-stress")
            state = {"value": 0}
            totals = []
            barrier = threading.Barrier(8)

            def writer():
                barrier.wait()
                for _ in range(200):
                    with lock.write_locked():
                        state["value"] += 1

            def reader():
                barrier.wait()
                local = 0
                for _ in range(200):
                    with lock.read_locked():
                        local = max(local, state["value"])
                totals.append(local)

            threads = [threading.Thread(target=writer) for _ in range(4)]
            threads += [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert state["value"] == 4 * 200
            assert all(0 <= total <= 800 for total in totals)
            assert witness.held() == ()

    def test_witnessed_lock_basics(self):
        lock = WitnessedLock("basic")
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        lock.release()
