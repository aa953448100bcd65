"""Tests for FeatureDriftMonitor: quiet controls, drift detection,
thread safety of the tap, and report determinism."""

import threading

import numpy as np
import pytest

from repro.concurrency import lock_witness_enabled
from repro.features import ProfileAccumulator
from repro.monitor import FeatureDriftMonitor, drift


def make_reference(seed=7, n=600, columns=("a", "b", "c")):
    """A reference profile over N(0,1) features with a scored model."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(columns)))
    probs = rng.random(n)
    preds = (probs > 0.7).astype(int)
    acc = ProfileAccumulator(list(columns), seed=0)
    acc.update(X, probabilities=probs, predictions=preds)
    return acc.finalize()


def reference_like_traffic(rng, n, n_features=3):
    X = rng.normal(size=(n, n_features))
    probs = rng.random(n)
    preds = (probs > 0.7).astype(int)
    return X, probs, preds


class TestVerdicts:
    def test_control_traffic_stays_quiet(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=100)
        rng = np.random.default_rng(11)
        for _ in range(5):
            monitor.observe(*reference_like_traffic(rng, 80))
        report = monitor.report()
        assert report.sufficient
        assert not report.drifted
        assert report.drifted_features == []

    def test_shifted_features_flagged(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=100)
        rng = np.random.default_rng(11)
        X, probs, preds = reference_like_traffic(rng, 400)
        X[:, 0] += 3.0  # feature "a" drifts, "b"/"c" stay put
        monitor.observe(X, probs, preds)
        report = monitor.report()
        assert report.drifted
        assert "a" in report.drifted_features
        assert "b" not in report.drifted_features
        assert report.feature("a").psi > report.feature("b").psi

    def test_null_rate_shift_flagged(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=100)
        rng = np.random.default_rng(11)
        X, probs, preds = reference_like_traffic(rng, 400)
        X[rng.random(400) < 0.5, 1] = np.nan  # reference has ~0 nulls
        monitor.observe(X, probs, preds)
        report = monitor.report()
        feature = report.feature("b")
        assert feature.null_shift > 0.2
        assert feature.drifted
        assert "b" in report.drifted_features

    def test_match_rate_shift_alone_is_drift(self, monkeypatch):
        for name in ("PSI_THRESHOLD", "KS_THRESHOLD",
                     "NULL_SHIFT_THRESHOLD"):
            monkeypatch.setattr(drift, name, 99)
        monitor = FeatureDriftMonitor(make_reference(), min_rows=100)
        rng = np.random.default_rng(11)
        X, probs, _ = reference_like_traffic(rng, 400)
        monitor.observe(X, probs, np.ones(400, dtype=int))
        report = monitor.report()
        assert report.drifted_features == []
        assert report.match_rate == 1.0
        assert report.match_rate_shift > 0.25
        assert report.drifted
        assert report.thresholds == {"psi": 99, "ks": 99,
                                     "null_shift": 99, "match_rate": 0.25}

    def test_below_min_rows_is_never_drifted(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=1000)
        rng = np.random.default_rng(11)
        X, probs, preds = reference_like_traffic(rng, 200)
        X += 50.0  # grossly shifted, but not enough rows for a verdict
        monitor.observe(X, probs, preds)
        report = monitor.report()
        assert not report.sufficient
        assert not report.drifted
        assert report.drifted_features == []
        assert report.n_rows == 200


class TestTapContract:
    def test_shape_mismatch_raises(self):
        monitor = FeatureDriftMonitor(make_reference())
        with pytest.raises(ValueError, match="matching"):
            monitor.observe(np.ones((5, 99)), np.ones(5),
                            np.ones(5, dtype=int))

    def test_reset_drops_live_state(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=10)
        rng = np.random.default_rng(0)
        monitor.observe(*reference_like_traffic(rng, 50))
        assert monitor.n_rows == 50
        monitor.reset()
        assert monitor.n_rows == 0
        assert not monitor.report().sufficient

    def test_report_is_deterministic_for_identical_traffic(self):
        def run():
            monitor = FeatureDriftMonitor(make_reference(), seed=3)
            rng = np.random.default_rng(5)
            for _ in range(4):
                monitor.observe(*reference_like_traffic(rng, 60))
            return monitor.report().as_dict()

        assert run() == run()

    def test_concurrent_observers_lose_no_rows(self):
        monitor = FeatureDriftMonitor(make_reference(), min_rows=10)
        n_threads, batches, rows = 8, 20, 16

        def worker(seed):
            rng = np.random.default_rng(seed)
            for _ in range(batches):
                monitor.observe(*reference_like_traffic(rng, rows))

        reported = []

        def reporter():
            for _ in range(batches):
                reported.append(monitor.report().n_rows)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        threads.append(threading.Thread(target=reporter))
        with lock_witness_enabled() as witness:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert witness.edges() == {}
        assert reported == sorted(reported)
        assert reported[-1] <= n_threads * batches * rows
        assert monitor.n_rows == n_threads * batches * rows
        report = monitor.report()
        assert report.n_rows == n_threads * batches * rows
        assert all(item.n == report.n_rows for item in report.features)


class TestForBundle:
    def test_for_bundle_uses_manifest_profile(self, trained_em):
        matcher, _, _, test = trained_em
        bundle = matcher.export_bundle()
        monitor = FeatureDriftMonitor.for_bundle(bundle, min_rows=10)
        names = [f"{attribute}__{measure}"
                 for attribute, measure in bundle.plan]
        assert monitor.reference.feature_names == names

    def test_for_bundle_without_profile_raises(self, trained_em):
        from repro.serve import ModelBundle

        native = trained_em[0].export_bundle()
        bare = ModelBundle(native.predictor, plan=native.plan,
                           schema=native.schema)
        with pytest.raises(ValueError, match="no reference profile"):
            FeatureDriftMonitor.for_bundle(bare)

    def test_report_as_dict_is_json_ready(self):
        import json

        monitor = FeatureDriftMonitor(make_reference(), min_rows=10)
        rng = np.random.default_rng(0)
        monitor.observe(*reference_like_traffic(rng, 50))
        payload = monitor.report().as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert {"n_rows", "drifted", "features",
                "thresholds"} <= payload.keys()
