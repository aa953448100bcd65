"""Tests for trigger policies, RetrainPlan round trips, and the
conventions of the policy registry."""

import json

import pytest

from repro.monitor import (
    ALL_POLICIES,
    ClusterChurnTrigger,
    DisagreementTrigger,
    DriftTrigger,
    MonitorStatus,
    RetrainPlan,
    StalenessTrigger,
    TriggerPolicy,
    bundle_age_seconds,
    default_policies,
    evaluate_policies,
)
from repro.monitor.drift import DriftReport


def drift_report(drifted, sufficient=True, features=("a",)):
    return DriftReport(
        n_rows=500, sufficient=sufficient, features=[],
        score_psi=0.0, match_rate=0.3, reference_match_rate=0.3,
        drifted_features=list(features) if drifted else [],
        drifted=drifted)


class TestDriftTrigger:
    def test_fires_on_drifted_report(self):
        plan = DriftTrigger().evaluate(
            MonitorStatus(drift=drift_report(True)))
        assert plan is not None
        assert plan.policy == "drift"
        assert "a" in plan.reason
        assert plan.details["drifted_features"] == ["a"]

    def test_holds_on_quiet_or_missing_report(self):
        trigger = DriftTrigger()
        assert trigger.evaluate(MonitorStatus()) is None
        assert trigger.evaluate(
            MonitorStatus(drift=drift_report(False))) is None

    def test_insufficient_data_never_fires(self):
        report = drift_report(True, sufficient=False)
        assert DriftTrigger().evaluate(MonitorStatus(drift=report)) is None

    def test_long_culprit_list_is_truncated_in_reason(self):
        names = [f"f{i}" for i in range(40)]
        plan = DriftTrigger().evaluate(
            MonitorStatus(drift=drift_report(True, features=names)))
        assert "and 35 more" in plan.reason
        assert plan.details["drifted_features"] == names


class TestDisagreementTrigger:
    def test_fires_over_threshold_with_enough_pairs(self):
        trigger = DisagreementTrigger(threshold=0.1, min_pairs=50)
        plan = trigger.evaluate(MonitorStatus(
            shadow={"n_sampled": 100, "disagreement_rate": 0.2}))
        assert plan is not None
        assert plan.policy == "disagreement"
        assert plan.details["disagreement_rate"] == 0.2

    def test_holds_below_threshold_or_sample_floor(self):
        trigger = DisagreementTrigger(threshold=0.1, min_pairs=50)
        assert trigger.evaluate(MonitorStatus(
            shadow={"n_sampled": 100, "disagreement_rate": 0.05})) is None
        assert trigger.evaluate(MonitorStatus(
            shadow={"n_sampled": 10, "disagreement_rate": 0.9})) is None
        assert trigger.evaluate(MonitorStatus()) is None

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            DisagreementTrigger(threshold=0.0)


class TestStalenessTrigger:
    def test_request_volume_fires(self):
        trigger = StalenessTrigger(max_requests=100)
        plan = trigger.evaluate(MonitorStatus(requests_since_export=150))
        assert plan is not None
        assert plan.policy == "staleness"
        assert trigger.evaluate(
            MonitorStatus(requests_since_export=50)) is None

    def test_bundle_age_fires(self):
        trigger = StalenessTrigger(max_age=3600)
        assert trigger.evaluate(MonitorStatus(bundle_age=7200)) is not None
        assert trigger.evaluate(MonitorStatus(bundle_age=60)) is None

    def test_disabled_limits_never_fire(self):
        trigger = StalenessTrigger()
        assert trigger.evaluate(MonitorStatus(
            requests_since_export=10**9, bundle_age=10**9)) is None

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError, match="max_requests"):
            StalenessTrigger(max_requests=0)
        with pytest.raises(ValueError, match="max_age"):
            StalenessTrigger(max_age=-1)


class TestClusterChurnTrigger:
    def churn(self, rate, n_unions=100):
        return {"n_unions": n_unions, "entity_merge_rate": rate,
                "n_entity_merges": int(rate * n_unions),
                "n_components": 42}

    def test_fires_on_sustained_merge_rate(self):
        plan = ClusterChurnTrigger(threshold=0.2).evaluate(
            MonitorStatus(resolve=self.churn(0.35)))
        assert plan is not None
        assert plan.policy == "cluster_churn"
        assert "0.350" in plan.reason
        assert plan.details["n_components"] == 42
        assert plan.details["threshold"] == pytest.approx(0.2)

    def test_holds_below_threshold_or_volume_floor(self):
        trigger = ClusterChurnTrigger(threshold=0.2, min_unions=50)
        assert trigger.evaluate(
            MonitorStatus(resolve=self.churn(0.1))) is None
        assert trigger.evaluate(
            MonitorStatus(resolve=self.churn(0.9, n_unions=10))) is None

    def test_no_resolver_attached_never_fires(self):
        assert ClusterChurnTrigger().evaluate(MonitorStatus()) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            ClusterChurnTrigger(threshold=0.0)
        with pytest.raises(ValueError, match="min_unions"):
            ClusterChurnTrigger(min_unions=0)


class TestBundleAge:
    def test_age_from_exported_at(self):
        age = bundle_age_seconds({"exported_at": 1000.0}, now=1600.0)
        assert age == 600.0

    def test_clock_skew_clamps_to_zero(self):
        assert bundle_age_seconds({"exported_at": 2000.0}, now=1000.0) == 0.0

    def test_missing_timestamp_is_none(self):
        assert bundle_age_seconds({}) is None


class TestEvaluatePolicies:
    def test_first_firing_policy_wins(self):
        status = MonitorStatus(drift=drift_report(True),
                               requests_since_export=10**6)
        plan = evaluate_policies(
            [StalenessTrigger(max_requests=10), DriftTrigger()], status)
        assert plan.policy == "staleness"

    def test_resume_from_is_stamped(self):
        plan = evaluate_policies(default_policies(),
                                 MonitorStatus(drift=drift_report(True)),
                                 resume_from="runs/champion.jsonl")
        assert plan.policy == "drift"
        assert plan.resume_from == "runs/champion.jsonl"
        assert plan.automl_kwargs()["resume_from"] == "runs/champion.jsonl"

    def test_quiet_status_yields_none(self):
        assert evaluate_policies(default_policies(), MonitorStatus()) is None

    def test_default_policies_cover_the_registry(self):
        names = {type(policy).name for policy in default_policies()}
        assert names == {cls.name for cls in ALL_POLICIES}


class TestRetrainPlan:
    def test_json_round_trip(self, tmp_path):
        plan = RetrainPlan(policy="drift", reason="because",
                           resume_from="runs/x.jsonl",
                           details={"n_rows": 10})
        path = plan.save(tmp_path / "plans" / "plan.json")
        restored = RetrainPlan.load(path)
        assert restored == plan
        assert json.loads(path.read_text())["policy"] == "drift"

    def test_automl_kwargs_overrides(self):
        plan = RetrainPlan(policy="drift", reason="r", resume_from="log")
        kwargs = plan.automl_kwargs(n_iterations=5)
        assert kwargs == {"resume_from": "log", "n_iterations": 5}

    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TriggerPolicy().evaluate(MonitorStatus())


class TestRegistryConformance:
    """The policy registry follows the registry conventions."""

    def test_registry_entries_follow_conventions_at_runtime(self):
        names = [cls.name for cls in ALL_POLICIES]
        assert len(names) == len(set(names)), "policy names must be unique"
        for cls in ALL_POLICIES:
            assert issubclass(cls, TriggerPolicy)
            assert "name" in vars(cls), f"{cls.__name__} inherits its name"
            assert cls.name != TriggerPolicy.name
            assert cls.evaluate is not TriggerPolicy.evaluate
