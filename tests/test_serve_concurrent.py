"""Concurrency stress tests: MatchService and the locks down the stack.

The guarantee under test: N barrier-started threads driving one
:class:`MatchService` — or one bare :class:`StreamMatcher`, whose calls
then really run on those threads — with hundreds of mixed ``submit`` /
``submit_records`` / ``extend_index`` requests produce *bit-exact* the
probabilities a sequential replay of each request produces, a valid
non-interleaved JSONL request log, and ``ServeMetrics`` totals that sum
correctly.  Every test runs under a ``faulthandler`` deadline so a
deadlock dumps all thread stacks and fails fast instead of hanging CI.
"""

import faulthandler
import json
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.blocking import BlockIndex, QGramBlocker
from repro.concurrency import lock_witness_enabled
from repro.events import EventLog, read_events
from repro.monitor import ShadowEvaluator
from repro.resolve import EntityStore
from repro.serve import (
    MatchService,
    ServeMetrics,
    ServiceOverloaded,
    StreamMatcher,
)

#: Hard per-test deadline: on expiry faulthandler dumps every thread's
#: stack and kills the process, so a deadlock is a loud traceback in CI
#: rather than a hung job.
DEADLINE_SECONDS = 300.0


@pytest.fixture(autouse=True)
def deadlock_deadline():
    faulthandler.dump_traceback_later(DEADLINE_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def lock_order_witness():
    """Run the whole stress suite under the runtime lock-order witness:
    any acquisition that closes an order cycle raises LockOrderError in
    the offending thread instead of deadlocking some future run.  Each
    test must also end with no order edge at all: every guarded object
    holds one lock, and no lock is taken while another is held."""
    with lock_witness_enabled() as witness:
        yield witness
        assert witness.edges() == {}


@pytest.fixture()
def bundle(trained_em):
    return trained_em[0].export_bundle()


def _run_threads(n_threads, target):
    """Start ``n_threads`` barrier-synchronized threads and join them.

    ``target(thread_index, barrier)`` must wait on the barrier itself so
    every thread hits the service at the same instant.
    """
    barrier = threading.Barrier(n_threads)
    errors = []

    def _wrapped(i):
        try:
            target(i, barrier)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=_wrapped, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class _InlineService:
    """A bare matcher behind :class:`MatchService`'s request API: each
    call runs on the calling thread and returns a resolved future, so N
    producers drive the matcher from N threads at once."""

    queue_depth = 0

    def __init__(self, matcher):
        self.matcher = matcher

    def _run(self, call):
        future = Future()
        try:
            future.set_result(call())
        except BaseException as exc:  # noqa: BLE001 - kept on the future
            future.set_exception(exc)
        return future

    def submit(self, pairs):
        return self._run(lambda: self.matcher.submit(pairs))

    def submit_records(self, records):
        return self._run(lambda: self.matcher.submit_records(records))

    def extend_index(self, records):
        return self._run(lambda: self.matcher.extend_index(records))

    def close(self):
        self.matcher.close()


class TestMatchServiceStress:
    N_THREADS = 8
    REQUESTS_PER_THREAD = 26  # 8 x 26 = 208 >= 200 mixed requests

    def test_stress_bit_exact_parity_log_and_metrics(
            self, small_benchmark, trained_em, bundle, tmp_path):
        self._stress(small_benchmark, trained_em, bundle, tmp_path,
                     lambda matcher: MatchService(
                         matcher, workers=self.N_THREADS, max_queue=32,
                         overflow="block"))

    def test_stress_bare_matcher_from_every_producer_thread(
            self, small_benchmark, trained_em, bundle, tmp_path):
        """The service serves on one thread; this keeps the matcher,
        the index lock and the shared memos covered under threads."""
        self._stress(small_benchmark, trained_em, bundle, tmp_path,
                     _InlineService)

    def _stress(self, small_benchmark, trained_em, bundle, tmp_path,
                make_service):
        _, _, _, test = trained_em
        table_a, table_b = small_benchmark.table_a, small_benchmark.table_b
        blocker = QGramBlocker("name", q=3, min_overlap=2)
        catalog = list(table_b)
        base = catalog[:len(catalog) // 2]
        extra = catalog[len(catalog) // 2:]
        # One extension chunk per producer thread, all non-empty.
        chunk = max(1, len(extra) // self.N_THREADS)
        extend_chunks = [extra[i * chunk:(i + 1) * chunk]
                         for i in range(self.N_THREADS)]
        extend_chunks = [c for c in extend_chunks if c]

        index = BlockIndex(blocker, table_name=table_b.name,
                           columns=table_b.columns)
        index.add_records(base)

        pair_slices = [test[start:start + 8]
                       for start in range(0, min(len(test), 64), 8)]
        probe_records = list(table_a)
        record_slices = [probe_records[start:start + 5]
                         for start in range(0, min(len(probe_records), 80),
                                            5)]

        log_path = tmp_path / "stress.jsonl"
        matcher = StreamMatcher(bundle, index=index, request_log=log_path)
        service = make_service(matcher)

        submit_futures = []       # (slice_index, future)
        records_futures = []      # (slice_index, future)
        extend_futures = []
        collected = threading.Lock()

        def produce(thread_index, barrier):
            rng = np.random.default_rng(1000 + thread_index)
            ops = (["submit"] * 13 + ["records"] * 12 + ["extend"])
            rng.shuffle(ops)
            assert len(ops) == self.REQUESTS_PER_THREAD
            barrier.wait()
            for op_index, op in enumerate(ops):
                if op == "extend":
                    if thread_index < len(extend_chunks):
                        future = service.extend_index(
                            extend_chunks[thread_index])
                        with collected:
                            extend_futures.append(future)
                elif op == "submit":
                    j = (thread_index + op_index) % len(pair_slices)
                    future = service.submit(pair_slices[j])
                    with collected:
                        submit_futures.append((j, future))
                else:
                    j = (thread_index * 7 + op_index) % len(record_slices)
                    future = service.submit_records(record_slices[j])
                    with collected:
                        records_futures.append((j, future))

        _run_threads(self.N_THREADS, produce)
        submit_results = [(j, f.result()) for j, f in submit_futures]
        records_results = [(j, f.result()) for j, f in records_futures]
        extend_added = [f.result() for f in extend_futures]
        service.close()

        # -- extends all landed: the index holds the full catalog ------
        assert sum(extend_added) == sum(len(c) for c in extend_chunks)
        assert index.num_records == len(base) + sum(extend_added)

        # -- bit-exact parity: pre-blocked submits vs sequential replay
        replay = StreamMatcher(bundle)
        expected_by_slice = {
            j: replay.submit(pair_slices[j])
            for j in {j for j, _ in submit_results}}
        for j, result in submit_results:
            expected = expected_by_slice[j]
            assert np.array_equal(result.probabilities,
                                  expected.probabilities)
            assert np.array_equal(result.predictions, expected.predictions)

        # -- bit-exact parity: record submits vs a sequential replay
        # against the catalog snapshot each probe actually saw.  Extends
        # serialize under the index write lock, so the observed states
        # form one chain and a snapshot's record count identifies it.
        replay_index_by_size = {}
        for j, result in records_results:
            snapshot = result.pairs.table_b
            size = snapshot.num_rows
            if size not in replay_index_by_size:
                rebuilt = BlockIndex(blocker, table_name=snapshot.name,
                                     columns=snapshot.columns)
                rebuilt.add_records(snapshot)
                replay_index_by_size[size] = StreamMatcher(bundle,
                                                           index=rebuilt)
            expected = replay_index_by_size[size].submit_records(
                record_slices[j])
            assert [p.key for p in result.pairs] == \
                [p.key for p in expected.pairs]
            assert np.array_equal(result.probabilities,
                                  expected.probabilities)
            assert np.array_equal(result.predictions, expected.predictions)
        assert len(base) in replay_index_by_size or len(records_results) == 0

        # -- ServeMetrics totals sum over exactly the served requests --
        snapshot = matcher.metrics.snapshot()
        scored = submit_results + records_results
        assert snapshot["requests"] == len(scored)
        assert snapshot["errors"] == 0
        assert snapshot["rejected"] == 0
        assert snapshot["pairs"] == sum(len(r) for _, r in scored)
        assert snapshot["matches"] == sum(r.n_matches for _, r in scored)
        assert 0 <= snapshot["max_queue_depth"] <= 32
        assert service.queue_depth == 0

        # -- the JSONL log is whole lines, one per request + summary ---
        lines = [line for line in
                 log_path.read_text(encoding="utf-8").splitlines() if line]
        parsed = [json.loads(line) for line in lines]  # raises if torn
        requests = [r for r in parsed if r["type"] == "request"]
        assert len(requests) == len(scored)
        request_ids = [r["request_id"] for r in requests]
        assert len(set(request_ids)) == len(request_ids)
        assert all(r["error"] is None for r in requests)
        assert parsed[-1]["type"] == "summary"
        assert parsed[-1]["requests"] == len(scored)

    def test_one_log_shared_by_matcher_store_and_shadow(
            self, small_benchmark, bundle, tmp_path):
        """The matcher, the entity store and a shadow evaluator write
        one EventLog from the serving thread: every line is whole, one
        request and one resolve record per served request, and one
        matcher summary."""
        table_a, table_b = small_benchmark.table_a, small_benchmark.table_b
        blocker = QGramBlocker("name", q=3, min_overlap=2)
        records = list(table_a)
        slices = [records[start:start + 5]
                  for start in range(0, min(len(records), 120), 5)]
        path = tmp_path / "shared.jsonl"
        with EventLog.opened(path) as log:
            shadow = ShadowEvaluator(bundle, bundle, sample_rate=1.0,
                                     log=log)
            matcher = StreamMatcher(bundle, index=blocker.index(table_b),
                                    request_log=log, shadow=shadow,
                                    resolver=EntityStore(log=log))
            with MatchService(matcher, workers=4) as service:
                futures = [service.submit_records(s) for s in slices]
                served = [f.result() for f in futures]
            shadow.close()
            log.event("after_close")  # nobody closed the shared log
        parsed = [json.loads(line) for line in
                  path.read_text(encoding="utf-8").splitlines() if line]
        by_type = {}
        for record in parsed:
            by_type.setdefault(record["type"], []).append(record)
        assert len(by_type["request"]) == len(served) == len(slices)
        assert len(by_type["resolve"]) == len(served)
        assert len(by_type["summary"]) == 1
        assert by_type["summary"][0]["requests"] == len(served)
        assert len(by_type["shadow"]) >= 1
        assert parsed[-1]["type"] == "after_close"

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_single_worker_is_bit_identical_to_bare_matcher(
            self, trained_em, bundle, workers):
        """One serving thread whatever ``workers`` says: probabilities,
        decisions and per-request entity ids equal inline calls of a
        bare matcher in submission order."""
        _, _, _, test = trained_em
        slices = [test[start:start + 7] for start in range(0, len(test), 7)]

        bare = StreamMatcher(bundle, resolver=EntityStore())
        expected = [bare.submit(s) for s in slices]

        matcher = StreamMatcher(trained_em[0].export_bundle(),
                                resolver=EntityStore())
        with MatchService(matcher, workers=workers) as service:
            futures = [service.submit(s) for s in slices]
            results = [f.result() for f in futures]

        assert len(results) == len(expected)
        for result, reference in zip(results, expected):
            assert np.array_equal(result.probabilities,
                                  reference.probabilities)
            assert np.array_equal(result.predictions,
                                  reference.predictions)
            assert result.entities == reference.entities
        assert any(result.entities for result in results)
        assert matcher.metrics.snapshot()["requests"] == \
            bare.metrics.snapshot()["requests"]
        assert matcher.resolver.entities() == bare.resolver.entities()


class _StallingMatcher:
    """StreamMatcher stand-in whose submit blocks until released."""

    def __init__(self):
        self.metrics = ServeMetrics()
        self.started = threading.Event()
        self.release = threading.Event()

    def submit(self, pairs):
        self.started.set()
        assert self.release.wait(timeout=60), "stalled request never freed"
        return pairs

    def close(self):
        pass


class TestBackpressure:
    def test_reject_overflow_raises_and_counts(self):
        stalled = _StallingMatcher()
        service = MatchService(stalled, workers=1, max_queue=1,
                               overflow="reject")
        first = service.submit("a")
        assert stalled.started.wait(timeout=60)
        second = service.submit("b")  # fills the queue
        with pytest.raises(ServiceOverloaded, match="queue is full"):
            service.submit("c")
        snapshot = stalled.metrics.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["max_queue_depth"] == 1
        stalled.release.set()
        assert first.result(timeout=60) == "a"
        assert second.result(timeout=60) == "b"
        service.close()
        # Shed requests are neither served requests nor errors.
        final = stalled.metrics.snapshot()
        assert final["rejected"] == 1
        assert final["errors"] == 0

    def test_block_overflow_throttles_instead(self):
        stalled = _StallingMatcher()
        service = MatchService(stalled, workers=1, max_queue=1,
                               overflow="block")
        first = service.submit("a")
        assert stalled.started.wait(timeout=60)
        second = service.submit("b")

        blocked_future = []

        def producer():
            blocked_future.append(service.submit("c"))

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(timeout=0.5)
        assert thread.is_alive(), "third submit should block, not reject"
        stalled.release.set()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert first.result(timeout=60) == "a"
        assert second.result(timeout=60) == "b"
        assert blocked_future[0].result(timeout=60) == "c"
        assert stalled.metrics.snapshot()["rejected"] == 0
        service.close()

    def test_invalid_construction(self):
        stalled = _StallingMatcher()
        with pytest.raises(ValueError, match="workers"):
            MatchService(stalled, workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            MatchService(stalled, max_queue=0)
        with pytest.raises(ValueError, match="overflow"):
            MatchService(stalled, overflow="drop")

    def test_closed_service_rejects_new_requests(self):
        stalled = _StallingMatcher()
        stalled.release.set()
        service = MatchService(stalled, workers=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit("late")


class TestRunLogConcurrency:
    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = EventLog(path)
        n_threads, per_thread = 8, 200

        def writer(thread_index, barrier):
            barrier.wait()
            for sequence in range(per_thread):
                log.event("trial", thread=thread_index, sequence=sequence,
                          payload="x" * (20 + thread_index))

        _run_threads(n_threads, writer)
        log.close()
        records = read_events(path)  # json.loads raises on a torn line
        assert len(records) == n_threads * per_thread
        for thread_index in range(n_threads):
            mine = [r["sequence"] for r in records
                    if r["thread"] == thread_index]
            assert sorted(mine) == list(range(per_thread))

    def test_racing_close_is_idempotent(self, tmp_path):
        log = EventLog(tmp_path / "run.jsonl")
        log.event("trial")

        def closer(thread_index, barrier):
            barrier.wait()
            log.close()

        _run_threads(8, closer)
        with pytest.raises(ValueError):
            log.event("trial")
