"""The closed loop, end to end: train → export (reference profile) →
serve → detect drift → trigger → retrain → shadow → promote → serve the
new champion.  Plus the event log's replay-determinism contract."""

import pytest

from repro.core import AutoMLEM
from repro.events import EventLog, deterministic_view, read_events
from repro.monitor import (
    DriftTrigger,
    FeatureDriftMonitor,
    MonitorStatus,
    RetrainPlan,
    ShadowEvaluator,
    default_policies,
    drifted_pairs,
    evaluate_policies,
    request_batches,
)
from repro.serve import MatchService, ModelRegistry, StreamMatcher


def serve_batches(matcher, pairs, *, n_batches=8, batch_pairs=16, seed=0):
    for batch in request_batches(pairs, batch_pairs, n_batches=n_batches,
                                 seed=seed):
        matcher.submit(batch)


class TestClosedLoop:
    def test_train_drift_retrain_promote(self, small_benchmark, tmp_path):
        train, valid, test = small_benchmark.splits(seed=0)

        # 1. Train the champion with a run log (the resume point) and
        #    export it; export_bundle embeds the reference profile.
        run_log = tmp_path / "runs" / "champion.jsonl"
        run_log.parent.mkdir()
        champion = AutoMLEM(n_iterations=1, forest_size=4, seed=0,
                            run_log=run_log)
        champion.fit(train, valid)
        bundle = champion.export_bundle()
        assert bundle.reference_profile is not None

        registry = ModelRegistry(tmp_path / "registry")
        assert registry.register(bundle, "em") == "v0001"

        # 2. Control traffic from the reference distribution stays
        #    quiet — no false alarm.  (The reference profiles
        #    train+valid, so valid-set traffic is the matched control.)
        control = FeatureDriftMonitor.for_bundle(bundle, min_rows=50)
        serve_batches(StreamMatcher(registry.get("em"), monitor=control),
                      valid)
        assert control.report().sufficient
        assert not control.report().drifted

        # 3. The same traffic with a corrupted probe side is flagged.
        monitor = FeatureDriftMonitor.for_bundle(bundle, min_rows=50)
        serve_batches(StreamMatcher(registry.get("em"), monitor=monitor),
                      drifted_pairs(valid, factor=1.0, seed=1))
        report = monitor.report()
        assert report.drifted
        assert report.drifted_features

        # 4. The drift policy turns the report into a retrain plan that
        #    points back at the champion's run log, and the plan
        #    round-trips through disk (the handoff artifact).
        plan = evaluate_policies(default_policies(),
                                 MonitorStatus(drift=report),
                                 resume_from=str(run_log))
        assert plan is not None and plan.policy == "drift"
        plan = RetrainPlan.load(plan.save(tmp_path / "plan.json"))
        assert plan.resume_from == str(run_log)

        # 5. Retrain a challenger from the plan: AutoMLEM consumes
        #    resume_from directly, warm-starting from the champion run.
        challenger = AutoMLEM(forest_size=4, seed=1,
                              **plan.automl_kwargs(n_iterations=1))
        challenger.fit(train, valid)
        challenger_bundle = challenger.export_bundle()
        assert registry.register(challenger_bundle, "em") == "v0002"
        registry.promote("em", "v0001")  # champion keeps serving

        # 6. Shadow-evaluate the challenger on live traffic, then
        #    promote: one atomic LATEST flip.
        evaluator = ShadowEvaluator.from_registry(
            registry, "em", "v0002", sample_rate=1.0,
            log=tmp_path / "monitor.jsonl")
        serve_batches(StreamMatcher(registry.get("em"), shadow=evaluator),
                      test, n_batches=4)
        assert evaluator.summary()["n_sampled"] == 4 * 16
        assert registry.latest("em") == "v0001"
        evaluator.promote()
        evaluator.close()
        assert registry.latest("em") == "v0002"

        # 7. A fresh matcher now serves the promoted challenger.
        served = registry.get("em")
        assert served.fingerprint == challenger_bundle.fingerprint
        result = StreamMatcher(served).submit(test[:8])
        assert len(result.probabilities) == 8

        records = read_events(tmp_path / "monitor.jsonl")
        assert {"shadow", "promotion"} <= {r["type"] for r in records}

    def test_match_service_check_trigger(self, trained_em):
        matcher, _, _, test = trained_em
        bundle = matcher.export_bundle()
        monitor = FeatureDriftMonitor.for_bundle(bundle, min_rows=50)
        stream = StreamMatcher(bundle, monitor=monitor)
        with MatchService(stream, workers=2) as service:
            futures = [service.submit(batch) for batch in request_batches(
                drifted_pairs(test, factor=1.0, seed=2), 16, n_batches=8)]
            for future in futures:
                future.result(timeout=30)
            plan = service.check_trigger([DriftTrigger()],
                                         resume_from="runs/em.jsonl")
        assert plan is not None
        assert plan.policy == "drift"
        assert plan.resume_from == "runs/em.jsonl"

    def test_match_service_quiet_without_monitoring(self, trained_em):
        matcher, _, _, test = trained_em
        with MatchService(StreamMatcher(matcher.export_bundle()),
                          workers=1) as service:
            service.submit(test[:4]).result(timeout=30)
            assert service.check_trigger([DriftTrigger()]) is None


class TestReplayDeterminism:
    def run_once(self, bundle, test, path):
        """One monitored serving run over fixed traffic, logged."""
        monitor = FeatureDriftMonitor.for_bundle(bundle, min_rows=50,
                                                 seed=0)
        stream = StreamMatcher(bundle, monitor=monitor)
        with EventLog.opened(path) as log:
            for batch in request_batches(drifted_pairs(test, factor=1.0,
                                                       seed=1),
                                         16, n_batches=6, seed=0):
                stream.submit(batch)
                log.event("drift", **monitor.report().as_dict())
            plan = evaluate_policies(default_policies(),
                                     MonitorStatus(drift=monitor.report()))
            if plan is not None:
                log.event("trigger", **plan.as_dict())
        return read_events(path)

    def test_identical_traffic_replays_identically(self, trained_em,
                                                   tmp_path):
        matcher, _, _, test = trained_em
        bundle = matcher.export_bundle()
        first = self.run_once(bundle, test, tmp_path / "one.jsonl")
        second = self.run_once(bundle, test, tmp_path / "two.jsonl")
        assert first != [] and first[-1]["type"] == "trigger"
        assert deterministic_view(first) == deterministic_view(second)

    def test_view_strips_volatile_fields_recursively(self):
        records = [{"type": "shadow", "latency": 0.5,
                    "champion_latency": 1.0, "elapsed": 2.0,
                    "nested": {"wall_time": 3.0, "n_pairs": 7},
                    "n_sampled": 4}]
        view = deterministic_view(records)
        assert view == [{"type": "shadow",
                         "nested": {"n_pairs": 7}, "n_sampled": 4}]
