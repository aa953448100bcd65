"""Retrain triggers: when observation should re-enter the AutoML loop.

A :class:`TriggerPolicy` looks at one :class:`MonitorStatus` — the
drift report, the shadow summary, the serve-metrics snapshot and the
served bundle's age — and decides whether retraining is warranted.  A
firing policy emits a :class:`RetrainPlan`: a durable, JSON-round-trip
record naming the policy, the reason, and the prior run's history so
:class:`~repro.core.automl_em.AutoMLEM` can warm-start the next search
via its existing ``resume_from`` machinery::

    plan = evaluate_policies(default_policies(), status,
                             resume_from="runs/champion.jsonl")
    if plan is not None:
        challenger = AutoMLEM(**plan.automl_kwargs(n_iterations=10))
        challenger.fit(train, valid)

Policies follow the same registry conventions as the fusion resolvers:
every policy class is listed in :data:`ALL_POLICIES`, carries a unique
class-level ``name``, and implements ``evaluate``
(``tests/test_monitor_triggers.py`` checks this on the imported
registry).

This module may read the wall clock (``repro.monitor`` is excluded
from REP002's content-purity rule): staleness is inherently a
wall-clock property.  Everything else in a plan is a pure function of
the status.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .. import persist
from .drift import DriftReport


@dataclass
class MonitorStatus:
    """Everything a trigger policy may look at, in one snapshot."""

    drift: DriftReport | None = None
    shadow: dict[str, Any] | None = None
    metrics: dict[str, Any] | None = None
    #: Requests served since the bundle was exported/promoted.
    requests_since_export: int | None = None
    #: Seconds since the served bundle was exported (see
    #: :func:`bundle_age_seconds`).
    bundle_age: float | None = None
    #: Entity-store churn counters (an
    #: :meth:`repro.resolve.EntityStore.stats` snapshot) when the
    #: serving path resolves entities; ``None`` otherwise.
    resolve: dict[str, Any] | None = None


def bundle_age_seconds(metadata: dict[str, Any],
                       now: float | None = None) -> float | None:
    """Seconds since the bundle's recorded ``exported_at`` timestamp.

    ``exported_at`` is stamped into bundle metadata by the ``repro
    export`` command; bundles exported programmatically without it age
    as ``None`` (staleness triggers then rely on request counts).
    """
    exported_at = metadata.get("exported_at")
    if exported_at is None:
        return None
    if now is None:
        now = time.time()
    return max(0.0, float(now) - float(exported_at))


@dataclass
class RetrainPlan:
    """A durable instruction to re-enter the AutoML loop.

    ``resume_from`` names the champion's run log / saved
    ``OptimizationHistory`` so the retrain warm-starts instead of
    searching from scratch; :meth:`automl_kwargs` turns the plan into
    ``AutoMLEM`` constructor arguments.
    """

    policy: str
    reason: str
    resume_from: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def automl_kwargs(self, **overrides: Any) -> dict[str, Any]:
        """Constructor kwargs for the retraining ``AutoMLEM``."""
        kwargs: dict[str, Any] = {"resume_from": self.resume_from}
        kwargs.update(overrides)
        return kwargs

    def as_dict(self) -> dict[str, Any]:
        return {"policy": self.policy, "reason": self.reason,
                "resume_from": self.resume_from,
                "details": dict(self.details)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RetrainPlan":
        return cls(policy=str(payload["policy"]),
                   reason=str(payload["reason"]),
                   resume_from=payload.get("resume_from"),
                   details=dict(payload.get("details") or {}))

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON, atomically; returns the path."""
        path = Path(path)
        persist.atomic_write(path, json.dumps(self.as_dict(), sort_keys=True,
                                              indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RetrainPlan":
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))


class TriggerPolicy:
    """Base class: evaluate a :class:`MonitorStatus` into a plan.

    Subclasses set a unique class-level ``name`` and implement
    :meth:`evaluate` returning a :class:`RetrainPlan` (fire) or
    ``None`` (hold).  All registered policies live in
    :data:`ALL_POLICIES`.
    """

    name = "base"

    def evaluate(self, status: MonitorStatus) -> RetrainPlan | None:
        raise NotImplementedError

    def _fire(self, reason: str, **details: Any) -> RetrainPlan:
        return RetrainPlan(policy=self.name, reason=reason,
                           details=details)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DriftTrigger(TriggerPolicy):
    """Fire when the drift monitor's verdict is *drifted*.

    The verdict already encodes the per-statistic thresholds and the
    ``min_rows`` sufficiency gate, so this policy adds no thresholds of
    its own — it converts a sufficient drifted report into a plan.
    """

    name = "drift"

    #: Reasons stay one-line readable; the full culprit list is in
    #: the plan's ``details``.
    _MAX_NAMED = 5

    def evaluate(self, status: MonitorStatus) -> RetrainPlan | None:
        report = status.drift
        if report is None or not report.sufficient or not report.drifted:
            return None
        names = report.drifted_features
        if not names:
            culprits = "score/match-rate"
        elif len(names) <= self._MAX_NAMED:
            culprits = ", ".join(names)
        else:
            culprits = (", ".join(names[:self._MAX_NAMED])
                        + f" and {len(names) - self._MAX_NAMED} more")
        return self._fire(
            f"feature drift detected over {report.n_rows} live rows "
            f"({culprits})",
            n_rows=report.n_rows,
            drifted_features=list(report.drifted_features),
            score_psi=report.score_psi,
            match_rate_shift=report.match_rate_shift)


class DisagreementTrigger(TriggerPolicy):
    """Fire when champion and challenger disagree too often in shadow."""

    name = "disagreement"

    def __init__(self, threshold: float = 0.1, min_pairs: int = 50):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}")
        self.threshold = float(threshold)
        self.min_pairs = int(min_pairs)

    def evaluate(self, status: MonitorStatus) -> RetrainPlan | None:
        shadow = status.shadow
        if shadow is None:
            return None
        n_sampled = int(shadow.get("n_sampled", 0))
        rate = float(shadow.get("disagreement_rate", 0.0))
        if n_sampled < self.min_pairs or rate < self.threshold:
            return None
        return self._fire(
            f"shadow disagreement rate {rate:.3f} >= {self.threshold} "
            f"over {n_sampled} sampled pairs",
            disagreement_rate=rate, n_sampled=n_sampled,
            threshold=self.threshold)


class StalenessTrigger(TriggerPolicy):
    """Fire on served-request volume or bundle age, whichever trips.

    ``max_requests`` counts requests served since export/promotion;
    ``max_age`` is bundle age in seconds (needs ``exported_at`` in the
    bundle metadata).  Either limit may be ``None`` (disabled); with
    both disabled the policy never fires.
    """

    name = "staleness"

    def __init__(self, max_requests: int | None = None,
                 max_age: float | None = None):
        if max_requests is not None and max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {max_requests}")
        if max_age is not None and max_age <= 0:
            raise ValueError(f"max_age must be positive, got {max_age}")
        self.max_requests = max_requests
        self.max_age = max_age

    def evaluate(self, status: MonitorStatus) -> RetrainPlan | None:
        requests = status.requests_since_export
        if (self.max_requests is not None and requests is not None
                and requests >= self.max_requests):
            return self._fire(
                f"{requests} requests served since export "
                f">= {self.max_requests}",
                requests=requests, max_requests=self.max_requests)
        age = status.bundle_age
        if (self.max_age is not None and age is not None
                and age >= self.max_age):
            return self._fire(
                f"bundle age {age:.0f}s >= {self.max_age:.0f}s",
                bundle_age=age, max_age=self.max_age)
        return None


class ClusterChurnTrigger(TriggerPolicy):
    """Fire when the entity store keeps merging established entities.

    Early in a stream, unions are mostly *attachments* — singletons
    joining their entity.  A sustained high *entity-merge* rate (two
    multi-record entities fusing) means the clustering is still
    reorganizing: either the matcher's decisions are unstable or the
    world shifted under the standing entities — both retrain-worthy.

    ``threshold`` bounds the acceptable entity-merge share of unions,
    ``min_unions`` gates on evidence volume (rates over a handful of
    unions are noise).
    """

    name = "cluster_churn"

    def __init__(self, threshold: float = 0.2, min_unions: int = 50):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}")
        if min_unions < 1:
            raise ValueError(
                f"min_unions must be >= 1, got {min_unions}")
        self.threshold = float(threshold)
        self.min_unions = int(min_unions)

    def evaluate(self, status: MonitorStatus) -> RetrainPlan | None:
        resolve = status.resolve
        if resolve is None:
            return None
        n_unions = int(resolve.get("n_unions", 0))
        rate = float(resolve.get("entity_merge_rate", 0.0))
        if n_unions < self.min_unions or rate < self.threshold:
            return None
        return self._fire(
            f"entity-merge rate {rate:.3f} >= {self.threshold} over "
            f"{n_unions} unions (clustering still reorganizing)",
            entity_merge_rate=rate, n_unions=n_unions,
            n_entity_merges=int(resolve.get("n_entity_merges", 0)),
            n_components=int(resolve.get("n_components", 0)),
            threshold=self.threshold)


#: Every registered trigger policy.
ALL_POLICIES = (DriftTrigger, DisagreementTrigger, StalenessTrigger,
                ClusterChurnTrigger)


def default_policies(*, disagreement_threshold: float = 0.1,
                     max_requests: int | None = None,
                     max_age: float | None = None,
                     churn_threshold: float = 0.2
                     ) -> tuple[TriggerPolicy, ...]:
    """One instance of every registered policy with common knobs."""
    return (DriftTrigger(),
            DisagreementTrigger(threshold=disagreement_threshold),
            StalenessTrigger(max_requests=max_requests, max_age=max_age),
            ClusterChurnTrigger(threshold=churn_threshold))


def evaluate_policies(policies: tuple[TriggerPolicy, ...] |
                      list[TriggerPolicy],
                      status: MonitorStatus,
                      resume_from: str | None = None
                      ) -> RetrainPlan | None:
    """First firing policy's plan (policy order = priority), or None.

    ``resume_from`` — the champion's run log / saved history — is
    stamped onto whichever plan fires.
    """
    for policy in policies:
        plan = policy.evaluate(status)
        if plan is not None:
            plan.resume_from = resume_from
            return plan
    return None
