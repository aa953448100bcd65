"""Tests for BatchMatcher / StreamMatcher and the serving telemetry."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.blocking import OverlapBlocker
from repro.events import read_events
from repro.serve import BatchMatcher, SchemaMismatchError, \
    ServeMetrics, StreamMatcher


@pytest.fixture()
def bundle(trained_em):
    return trained_em[0].export_bundle()


class TestBatchMatcher:
    def test_served_f1_equals_in_process(self, trained_em, bundle):
        matcher, _, _, test = trained_em
        with BatchMatcher(bundle, batch_size=16) as served:
            result = served.match_pairs(test)
        assert result.metrics() == matcher.evaluate(test)

    def test_micro_batches_bound_featurization(self, trained_em, bundle,
                                               monkeypatch):
        """Peak featurized rows never exceed batch_size (memory bound)."""
        _, _, _, test = trained_em
        served = BatchMatcher(bundle, batch_size=16)
        chunk_sizes = []
        original = served.generator.transform

        def recording_transform(pairs, **kwargs):
            chunk_sizes.append(len(pairs))
            return original(pairs, **kwargs)

        monkeypatch.setattr(served.generator, "transform",
                            recording_transform)
        result = served.match_pairs(test)
        assert chunk_sizes, "no featurization happened"
        assert max(chunk_sizes) <= 16
        assert len(chunk_sizes) == math.ceil(len(test) / 16)
        assert result.n_batches == len(chunk_sizes)
        assert result.max_batch_rows == max(chunk_sizes)
        assert served.metrics.snapshot()["max_batch_rows"] <= 16

    def test_batched_scores_equal_unbatched(self, trained_em, bundle):
        _, _, _, test = trained_em
        one_shot = BatchMatcher(bundle).match_pairs(test)
        batched = BatchMatcher(bundle, batch_size=7).match_pairs(test)
        assert np.array_equal(one_shot.probabilities, batched.probabilities)
        assert np.array_equal(one_shot.predictions, batched.predictions)
        assert one_shot.n_batches == 1
        assert batched.n_batches == math.ceil(len(test) / 7)

    def test_match_runs_blocking_end_to_end(self, small_benchmark, bundle):
        blocker = OverlapBlocker("name", min_overlap=2)
        with BatchMatcher(bundle, blocker, batch_size=256) as served:
            result = served.match(small_benchmark.table_a,
                                  small_benchmark.table_b)
        assert len(result) == len(blocker.block(small_benchmark.table_a,
                                                small_benchmark.table_b))
        assert set(np.unique(result.predictions)) <= {0, 1}
        assert len(result.matches) == result.n_matches

    def test_match_without_blocker_raises(self, small_benchmark, bundle):
        with pytest.raises(ValueError, match="needs a blocker"):
            BatchMatcher(bundle).match(small_benchmark.table_a,
                                       small_benchmark.table_b)

    def test_schema_mismatch_rejected_and_counted(self, trained_em, bundle):
        from repro.data.pairs import PairSet, RecordPair

        _, _, _, test = trained_em
        kept = [c for c in test.table_a.columns if c != bundle.plan[0][0]]
        narrow_a = test.table_a.project(kept)
        served = BatchMatcher(bundle, OverlapBlocker(bundle.plan[0][0]))
        # match() checks the tables before even blocking ...
        with pytest.raises(SchemaMismatchError):
            served.match(narrow_a, test.table_b)
        # ... and match_pairs counts the failed request in the metrics.
        bad = PairSet(narrow_a, test.table_b,
                      [RecordPair(narrow_a[0], test.table_b[0])])
        with pytest.raises(SchemaMismatchError):
            served.match_pairs(bad)
        assert served.metrics.snapshot()["errors"] == 1

    def test_invalid_batch_size(self, bundle):
        with pytest.raises(ValueError, match="batch_size"):
            BatchMatcher(bundle, batch_size=0)

    def test_request_log_records_batches(self, trained_em, bundle,
                                         tmp_path):
        _, _, _, test = trained_em
        log_path = tmp_path / "requests.jsonl"
        with BatchMatcher(bundle, batch_size=16,
                          request_log=log_path) as served:
            served.match_pairs(test)
            served.match_pairs(test[:5])
        records = read_events(log_path)
        kinds = [r["type"] for r in records]
        assert kinds == ["request", "request", "summary"]
        assert records[0]["n_pairs"] == len(test)
        assert records[0]["max_batch_rows"] <= 16
        assert records[0]["error"] is None
        assert records[-1]["requests"] == 2


class TestStreamMatcher:
    def test_incremental_batches_and_metrics(self, trained_em, bundle):
        _, _, _, test = trained_em
        stream = StreamMatcher(bundle)
        full = BatchMatcher(bundle).match_pairs(test)
        step = 10
        served = []
        for start in range(0, len(test), step):
            served.append(stream.submit(test[start:start + step]))
        probabilities = np.concatenate([r.probabilities for r in served])
        assert np.array_equal(probabilities, full.probabilities)
        snapshot = stream.metrics.snapshot()
        assert snapshot["requests"] == math.ceil(len(test) / step)
        assert snapshot["pairs"] == len(test)
        assert snapshot["errors"] == 0
        assert snapshot["total_latency"] > 0
        assert snapshot["pairs_per_second"] > 0

    def test_max_batch_rows_bounds_each_request(self, trained_em, bundle):
        _, _, _, test = trained_em
        stream = StreamMatcher(bundle, max_batch_rows=8)
        result = stream.submit(test)
        assert result.max_batch_rows <= 8
        assert result.n_batches == math.ceil(len(test) / 8)

    def test_error_counted_and_logged(self, trained_em, bundle, tmp_path):
        _, _, _, test = trained_em
        from repro.data.pairs import PairSet, RecordPair

        kept = [c for c in test.table_a.columns if c != bundle.plan[0][0]]
        narrow_a = test.table_a.project(kept)
        bad = PairSet(narrow_a, test.table_b,
                      [RecordPair(narrow_a[0], test.table_b[0])])
        log_path = tmp_path / "stream.jsonl"
        with StreamMatcher(bundle, request_log=log_path) as stream:
            stream.submit(test[:4])
            with pytest.raises(SchemaMismatchError):
                stream.submit(bad)
        snapshot = stream.metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["errors"] == 1
        records = read_events(log_path)
        assert records[1]["error"].startswith("SchemaMismatchError")
        assert records[-1]["type"] == "summary"
        assert records[-1]["errors"] == 1


class TestStandingIndex:
    """submit_records against a persisted index == re-blocking from
    scratch (the streaming-blocking parity guarantee)."""

    @pytest.fixture()
    def blocker(self):
        from repro.blocking import QGramBlocker

        return QGramBlocker("name", q=3, min_overlap=2)

    def test_streamed_batches_equal_from_scratch(self, small_benchmark,
                                                 bundle, blocker, tmp_path):
        from repro.blocking import BlockIndex

        a, b = small_benchmark.table_a, small_benchmark.table_b
        blocker.index(b).save(tmp_path / "catalog.idx")
        scratch = BatchMatcher(bundle, blocker=blocker).match(a, b)
        scratch_scores = {pair.key: prob for pair, prob in
                         zip(scratch.pairs, scratch.probabilities)}

        index = BlockIndex.load(tmp_path / "catalog.idx")
        streamed_scores = {}
        with StreamMatcher(bundle, index=index) as stream:
            records = list(a)
            step = 25
            for start in range(0, len(records), step):
                result = stream.submit_records(records[start:start + step])
                for pair, prob in zip(result.pairs, result.probabilities):
                    streamed_scores[pair.key] = prob
        assert streamed_scores.keys() == scratch_scores.keys()
        for key, prob in streamed_scores.items():
            assert prob == scratch_scores[key]

    def test_submit_records_accepts_a_table(self, small_benchmark, bundle,
                                            blocker):
        a, b = small_benchmark.table_a, small_benchmark.table_b
        stream = StreamMatcher(bundle, index=blocker.index(b))
        result = stream.submit_records(a)
        expected = blocker.block(a, b)
        assert [p.key for p in result.pairs] == [p.key for p in expected]

    def test_extend_index_makes_new_records_visible(self, small_benchmark,
                                                    bundle, blocker):
        a, b = small_benchmark.table_a, small_benchmark.table_b
        from repro.blocking import BlockIndex

        catalog = list(b)
        index = BlockIndex(blocker, table_name=b.name, columns=b.columns)
        index.add_records(catalog[:-10])
        stream = StreamMatcher(bundle, index=index)
        before = {p.key for p in stream.submit_records(a).pairs}
        added = stream.extend_index(catalog[-10:])
        assert added == 10
        after = {p.key for p in stream.submit_records(a).pairs}
        full = {p.key for p in blocker.block(a, b)}
        assert before <= after
        assert after == full

    def test_record_methods_require_an_index(self, small_benchmark, bundle):
        a = small_benchmark.table_a
        stream = StreamMatcher(bundle)
        with pytest.raises(ValueError, match="standing block"):
            stream.submit_records(list(a)[:2])
        with pytest.raises(ValueError, match="standing block"):
            stream.extend_index(list(a)[:2])

    def test_probe_failure_is_counted_and_logged(
            self, small_benchmark, bundle, blocker, tmp_path, monkeypatch):
        """A request that fails before scoring is still a request:
        counted as an error, logged, and tagged with its id."""
        a, b = small_benchmark.table_a, small_benchmark.table_b
        log_path = tmp_path / "stream.jsonl"
        with StreamMatcher(bundle, index=blocker.index(b),
                           request_log=log_path) as stream:
            def broken_probe(table):
                raise RuntimeError("index shard unavailable")

            monkeypatch.setattr(stream.index, "probe", broken_probe)
            with pytest.raises(RuntimeError, match="unavailable") as caught:
                stream.submit_records(list(a)[:3])
        assert caught.value.request_id == "stream-000001"
        snapshot = stream.metrics.snapshot()
        assert snapshot["requests"] == snapshot["errors"] == 1
        assert snapshot["errors_by_type"] == {"RuntimeError": 1}
        record = read_events(log_path)[0]
        assert record["type"] == "request"
        assert record["request_id"] == "stream-000001"
        assert record["error"].startswith("RuntimeError")
        assert record["n_pairs"] is None

    def test_empty_record_batch_rejected(self, small_benchmark, bundle,
                                         blocker):
        b = small_benchmark.table_b
        stream = StreamMatcher(bundle, index=blocker.index(b))
        with pytest.raises(ValueError, match="at least one record"):
            stream.submit_records([])


class TestSingleScoringPass:
    """_score_pairs runs the estimator once per batch; decisions derive
    from the probabilities already in hand (the double-scoring fix)."""

    class _CountingPredictor:
        def __init__(self, inner):
            self.inner = inner
            self.proba_calls = 0
            self.predict_calls = 0

        def predict_proba(self, X):
            self.proba_calls += 1
            return self.inner.predict_proba(X)

        def predict(self, X):
            self.predict_calls += 1
            return self.inner.predict(X)

    def test_estimator_runs_once_per_batch(self, trained_em, bundle):
        _, _, _, test = trained_em
        counting = self._CountingPredictor(bundle.predictor)
        bundle.predictor = counting
        result = BatchMatcher(bundle, batch_size=16).match_pairs(test)
        assert counting.predict_calls == 0
        assert counting.proba_calls == result.n_batches

    def test_decide_matches_old_native_predict_path(self, trained_em,
                                                    bundle):
        """Parity with the old path: predictions equal what a second
        ``bundle.predict(X)`` pass over the same features produces."""
        _, _, _, test = trained_em
        matcher = BatchMatcher(bundle)
        result = matcher.match_pairs(test)
        X = matcher.generator.transform(test)
        assert np.array_equal(result.predictions, bundle.predict(X))
        assert np.array_equal(result.probabilities,
                              bundle.predict_proba(X))

    def test_decide_matches_tuned_threshold_path(self, trained_em):
        from repro.serve import ModelBundle

        matcher, _, _, test = trained_em
        native = matcher.export_bundle()
        tuned = ModelBundle(native.predictor, plan=native.plan,
                            schema=native.schema, threshold=0.4)
        serve = BatchMatcher(tuned)
        result = serve.match_pairs(test)
        X = serve.generator.transform(test)
        assert np.array_equal(result.predictions, tuned.predict(X))
        assert np.array_equal(tuned.decide(result.probabilities),
                              result.predictions)


class TestEmptyCandidatePath:
    """Zero-pair requests stay NaN- and warning-free end to end."""

    def test_submit_empty_pairset(self, trained_em, bundle):
        import warnings

        _, _, _, test = trained_em
        stream = StreamMatcher(bundle)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            result = stream.submit(test[:0])
            scores = result.metrics()
            snapshot = stream.metrics.snapshot()
        assert len(result) == 0
        assert result.n_matches == 0
        assert len(result.probabilities) == 0
        assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert snapshot["requests"] == 1
        assert snapshot["pairs"] == 0
        assert not any(np.isnan(v) for v in snapshot.values()
                       if isinstance(v, float))

    def test_blocker_returning_no_candidates(self, small_benchmark,
                                             bundle):
        import warnings

        from repro.blocking import QGramBlocker
        from repro.data.table import Record

        a, b = small_benchmark.table_a, small_benchmark.table_b
        blocker = QGramBlocker("name", q=3, min_overlap=2)
        stream = StreamMatcher(bundle, index=blocker.index(b))
        # A probe record whose blocking attribute shares no q-grams
        # with any catalog value yields zero candidates.
        alien = Record(10**9, a.columns,
                       ["\x01\x02\x03\x04" if c == "name" else None
                        for c in a.columns])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            result = stream.submit_records([alien])
            scores = result.metrics()
        assert len(result) == 0
        assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert stream.metrics.snapshot()["errors"] == 0


class TestHeterogeneousRecordBatch:
    def test_mixed_schema_batch_rejected(self, small_benchmark, bundle):
        from repro.blocking import QGramBlocker
        from repro.data.table import Record

        a, b = small_benchmark.table_a, small_benchmark.table_b
        stream = StreamMatcher(bundle,
                               index=QGramBlocker("name", q=3).index(b))
        stray = Record(10**9, ("name", "unrelated"), ["x", "y"])
        with pytest.raises(ValueError, match="heterogeneous record batch"):
            stream.submit_records([a[0], stray])
        # The good-path coercion is unchanged.
        result = stream.submit_records([a[0], a[1]])
        assert result.pairs.table_a.num_rows == 2


class TestServeMetrics:
    def test_counters_and_derived_rates(self):
        metrics = ServeMetrics()
        metrics.observe(100, 10, 0.5, max_batch_rows=50)
        metrics.observe(300, 30, 1.5, max_batch_rows=75)
        metrics.observe_error()
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["errors"] == 1
        assert snapshot["pairs"] == 400
        assert snapshot["matches"] == 40
        assert snapshot["max_latency"] == 1.5
        assert snapshot["max_batch_rows"] == 75
        assert snapshot["mean_latency"] == pytest.approx(1.0)
        assert snapshot["pairs_per_second"] == pytest.approx(200.0)

    def test_empty_snapshot_has_no_nan(self):
        snapshot = ServeMetrics().snapshot()
        assert snapshot["mean_latency"] == 0.0
        assert snapshot["pairs_per_second"] == 0.0
        assert snapshot["p50_latency"] == 0.0
        assert snapshot["p99_latency"] == 0.0

    def test_latency_histogram_buckets(self):
        from repro.serve.telemetry import LATENCY_BUCKETS

        metrics = ServeMetrics()
        for latency in (0.0005, 0.004, 0.004, 0.3, 42.0):
            metrics.observe(1, 0, latency)
        buckets = metrics.snapshot()["latency_buckets"]
        assert len(buckets) == len(LATENCY_BUCKETS) + 1
        assert sum(buckets) == 5
        assert buckets[0] == 1            # <= 1ms
        assert buckets[LATENCY_BUCKETS.index(0.005)] == 2
        assert buckets[LATENCY_BUCKETS.index(0.5)] == 1
        assert buckets[-1] == 1           # the open +inf bucket

    def test_percentiles_are_bucket_upper_bounds(self):
        metrics = ServeMetrics()
        for _ in range(98):
            metrics.observe(1, 0, 0.002)  # -> 2.5ms bucket
        metrics.observe(1, 0, 0.2)        # -> 250ms bucket
        metrics.observe(1, 0, 3.0)        # -> 5s bucket
        snapshot = metrics.snapshot()
        assert snapshot["p50_latency"] == 0.0025
        assert snapshot["p95_latency"] == 0.0025
        assert snapshot["p99_latency"] == 0.25

    def test_open_bucket_percentile_reports_observed_max(self):
        metrics = ServeMetrics()
        metrics.observe(1, 0, 77.0)       # beyond the last bound
        assert metrics.snapshot()["p99_latency"] == 77.0

    def test_errors_do_not_enter_latency_histogram(self):
        metrics = ServeMetrics()
        metrics.observe(1, 0, 0.002)
        metrics.observe_error("ValueError")
        snapshot = metrics.snapshot()
        assert sum(snapshot["latency_buckets"]) == 1
        assert snapshot["requests"] == 2

    def test_rejection_is_neither_a_request_nor_an_error(self):
        """The backpressure accounting contract: a request shed at the
        door reaches no worker, so it must appear in ``rejected`` only —
        ``requests`` and ``errors`` stay untouched, and the invariant
        ``requests = served + errors`` still holds."""
        metrics = ServeMetrics()
        metrics.observe(10, 1, 0.01)
        metrics.observe_error("TimeoutError")
        metrics.observe_rejected()
        metrics.observe_rejected()
        snapshot = metrics.snapshot()
        assert snapshot["rejected"] == 2
        assert snapshot["requests"] == 2
        assert snapshot["errors"] == 1
        assert snapshot["requests"] - snapshot["errors"] == 1  # served
        assert sum(snapshot["latency_buckets"]) == 1


class TestMonitoringTaps:
    """The matcher feeds attached taps without a second featurization."""

    class RecordingMonitor:
        def __init__(self):
            self.batches = []

        def observe(self, X, probabilities, predictions):
            self.batches.append((X.shape, len(probabilities),
                                 len(predictions)))

    class RecordingShadow:
        def __init__(self):
            self.requests = []

        def observe(self, pairs, probabilities, predictions, latency):
            self.requests.append((len(pairs), len(probabilities),
                                  latency))

    def test_monitor_tap_sees_every_micro_batch(self, small_benchmark,
                                                bundle):
        _, _, test = small_benchmark.splits(seed=0)
        tap = self.RecordingMonitor()
        stream = StreamMatcher(bundle, max_batch_rows=8, monitor=tap)
        stream.submit(test[:20])
        assert len(tap.batches) == 3  # 8 + 8 + 4
        assert sum(shape[0] for shape, _, _ in tap.batches) == 20
        n_features = len(bundle.plan)
        assert all(shape[1] == n_features for shape, _, _ in tap.batches)

    def test_shadow_tap_sees_each_request_once(self, small_benchmark,
                                               bundle):
        _, _, test = small_benchmark.splits(seed=0)
        tap = self.RecordingShadow()
        stream = StreamMatcher(bundle, max_batch_rows=8, shadow=tap)
        stream.submit(test[:20])
        stream.submit(test[20:30])
        assert [(n, n) for n, m, _ in tap.requests if n == m] \
            == [(20, 20), (10, 10)]
        assert all(latency >= 0.0 for _, _, latency in tap.requests)

    class SleepingResolver:
        def apply_result(self, result, *, left_side="a", right_side="b",
                         context=None):
            time.sleep(0.05)
            return {}

        def stats(self):
            return {}

    def test_latency_covers_blocking_and_the_resolver_tap(
            self, small_benchmark, bundle, tmp_path):
        _, _, test = small_benchmark.splits(seed=0)
        shadow = self.RecordingShadow()
        log_path = tmp_path / "requests.jsonl"
        with StreamMatcher(bundle, shadow=shadow, request_log=log_path,
                           resolver=self.SleepingResolver()) as stream:
            stream.submit(test[:10])
        record = read_events(log_path)[0]
        assert record["latency"] >= 0.05
        assert stream.metrics.snapshot()["max_latency"] >= 0.05
        # The shadow tap still gets the scoring time only.
        assert shadow.requests[0][2] < record["latency"] - 0.04

        class SleepingBlocker:
            def block(self, table_a, table_b):
                time.sleep(0.05)
                return test[:10]

        served = BatchMatcher(bundle, SleepingBlocker())
        served.match(test.table_a, test.table_b)
        assert served.metrics.snapshot()["max_latency"] >= 0.05

    def test_taps_are_optional_and_absent_by_default(self, bundle):
        stream = StreamMatcher(bundle)
        assert stream.monitor is None
        assert stream.shadow is None


class TestFreshProcessReload:
    def test_bundle_reload_in_fresh_process_reproduces_f1(
            self, trained_em, tmp_path):
        """Acceptance: export → fresh interpreter → identical F1/probas."""
        matcher, _, _, test = trained_em
        from repro.data.io import write_pairs, write_table

        bundle_dir = tmp_path / "bundle"
        matcher.export_bundle(bundle_dir)
        write_table(test.table_a, tmp_path / "tableA.csv")
        write_table(test.table_b, tmp_path / "tableB.csv")
        write_pairs(test, tmp_path / "pairs.csv")

        in_process = matcher.evaluate(test)
        probabilities = matcher.predict_proba(test)[:, 1]

        script = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.data.io import read_pairs, read_table\n"
            "from repro.serve import BatchMatcher, ModelBundle\n"
            "base = sys.argv[1]\n"
            "bundle = ModelBundle.load(base + '/bundle')\n"
            "a = read_table(base + '/tableA.csv')\n"
            "b = read_table(base + '/tableB.csv')\n"
            "pairs = read_pairs(base + '/pairs.csv', a, b)\n"
            "result = BatchMatcher(bundle, batch_size=16)"
            ".match_pairs(pairs)\n"
            "print(json.dumps({'metrics': result.metrics(), 'proba': "
            "result.probabilities.tolist()}))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" \
            + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout.strip().splitlines()[-1])
        assert payload["metrics"] == in_process
        assert np.array_equal(np.asarray(payload["proba"]), probabilities)