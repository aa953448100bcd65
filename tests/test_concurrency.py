"""WitnessedLock and BoundedMemo semantics: exclusion, reentrancy,
misuse, lock-order witnessing, memo pickling."""

import pickle
import threading

import pytest

from repro.concurrency import (
    BoundedMemo,
    LockOrderError,
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


def _held_elsewhere(lock):
    """Whether another thread holds ``lock`` (a non-blocking try from a
    fresh thread fails)."""
    def attempt():
        if lock.acquire(blocking=False):
            lock.release()
            return False
        return True

    finished, holder = _in_thread(attempt)
    assert finished
    return holder[0]


class TestWitnessedLock:
    def test_excludes_other_threads(self):
        lock = WitnessedLock()
        entered = threading.Event()

        def contender():
            with lock:
                entered.set()
            return True

        with lock:
            thread = threading.Thread(target=contender)
            thread.start()
            assert not entered.wait(0.3), "a second thread entered"
        thread.join(30)
        assert entered.is_set()

    def test_waiter_proceeds_after_release(self):
        lock = WitnessedLock()
        entered, done = threading.Event(), threading.Event()

        def waiter():
            # Hold the lock until checked: a thread that exits holding
            # an RLock hands it to the next thread reusing its ident.
            with lock:
                entered.set()
                done.wait(30)

        lock.acquire()
        thread = threading.Thread(target=waiter)
        thread.start()
        assert not entered.wait(0.3)
        lock.release()
        # The waiting thread gets in once the holder releases.
        assert entered.wait(30)
        assert _held_elsewhere(lock)
        done.set()
        thread.join(30)

    def test_reentrancy(self):
        lock = WitnessedLock()
        with lock:
            with lock:  # the holding thread re-enters freely
                with lock:
                    pass
            assert _held_elsewhere(lock)  # one release per acquire
        # Fully released: another thread can take it immediately.
        finished, _ = _in_thread(lambda: (lock.acquire(), lock.release()))
        assert finished

    def test_unbalanced_release_raises(self):
        lock = WitnessedLock()
        with pytest.raises(RuntimeError):
            lock.release()
        with lock:
            finished, holder = _in_thread(
                lambda: pytest.raises(RuntimeError, lock.release))
            assert finished and holder

    def test_stress_counter_consistency(self):
        """Increments under the lock are never lost; readers see only
        fully applied values."""
        lock = WitnessedLock()
        state = {"value": 0}
        n_threads, per_thread = 8, 300
        barrier = threading.Barrier(n_threads)

        def worker(thread_index):
            barrier.wait()
            for i in range(per_thread):
                with lock:
                    if i % 3 == 0:
                        with lock:  # a nested locked helper
                            state["value"] += 1
                    else:
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


class TestBoundedMemo:
    """Eviction at the bound is tested where the memos are used
    (``test_features_columnar``, ``test_property_sequence_kernels``)."""

    def test_pickle_drops_entries_and_keeps_the_bound(self):
        memo = BoundedMemo(max_entries=3)
        memo.update({"a": 1, "b": 2})
        clone = pickle.loads(pickle.dumps(memo))
        assert isinstance(clone, BoundedMemo)
        assert clone == {} and clone.max_entries == 3
        clone.update({"x": 1, "y": 2, "z": 3, "w": 4})
        assert len(clone) == 3

    def test_invalid_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            BoundedMemo(max_entries=0)


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

    def test_reentrancy_is_not_an_inversion(self):
        with lock_witness_enabled() as witness:
            lock = WitnessedLock("re")
            with lock:
                with lock:
                    with lock:
                        assert witness.held() == ("re", "re", "re")
            assert witness.held() == ()
            assert witness.edges() == {}

    def test_failed_acquire_leaves_the_witness_stack_balanced(self):
        with lock_witness_enabled() as witness:
            lock = WitnessedLock("busy")
            with lock:
                finished, holder = _in_thread(
                    lambda: (lock.acquire(blocking=False), witness.held()))
            assert finished and holder == [(False, ())]
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

    def test_stress_counter_under_witness(self):
        """The counter stress pattern stays correct (and trip-free, with
        no order edge) with the witness enabled."""
        with lock_witness_enabled() as witness:
            lock = WitnessedLock("stress")
            state = {"value": 0}
            totals = []
            barrier = threading.Barrier(8)

            def writer():
                barrier.wait()
                for _ in range(200):
                    with lock:
                        state["value"] += 1

            def reader():
                barrier.wait()
                local = 0
                for _ in range(200):
                    with lock:
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
            assert witness.edges() == {}

    def test_witnessed_lock_basics(self):
        lock = WitnessedLock("basic")
        assert lock.name == "basic"
        assert not _held_elsewhere(lock)
        with lock:
            assert _held_elsewhere(lock)
        assert not _held_elsewhere(lock)
        assert lock.acquire(blocking=False)
        lock.release()
        assert WitnessedLock().name != WitnessedLock().name
