"""Monitoring and retraining: the observe side of the closed loop.

The serving stack (:mod:`repro.serve`) scores traffic; this package
watches it and decides when the AutoML loop should run again:

* :mod:`~repro.monitor.stats` — PSI and two-sample KS drift statistics;
* :mod:`~repro.monitor.drift` — :class:`FeatureDriftMonitor`, the
  streaming reference-vs-live comparison fed by the matcher tap;
* :mod:`~repro.monitor.shadow` — :class:`ShadowEvaluator`,
  champion/challenger comparison with registry promotion;
* :mod:`~repro.monitor.triggers` — pluggable :class:`TriggerPolicy`
  registry emitting :class:`RetrainPlan` records consumable by
  ``AutoMLEM(resume_from=...)``;
* :mod:`~repro.monitor.traffic` — seeded control/drifted synthetic
  traffic for smoke runs and closed-loop tests.

Monitoring writes ``drift``, ``shadow``, ``trigger`` and ``promotion``
records to a :class:`~repro.events.EventLog`;
:func:`~repro.events.deterministic_view` is their replay contract.

Unlike the content-pure feature/serve layers, monitoring legitimately
reads the wall clock (staleness, latency overhead) — ``repro.monitor``
is the one package REP002 exempts.
"""

from .drift import DriftReport, FeatureDrift, FeatureDriftMonitor
from .shadow import ShadowEvaluator
from .stats import fractions, ks_statistic, psi
from .traffic import DRIFT_PROFILE, corrupt_table, drifted_pairs, request_batches
from .triggers import (
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

__all__ = [
    "ALL_POLICIES",
    "ClusterChurnTrigger",
    "DRIFT_PROFILE",
    "DisagreementTrigger",
    "DriftReport",
    "DriftTrigger",
    "FeatureDrift",
    "FeatureDriftMonitor",
    "MonitorStatus",
    "RetrainPlan",
    "ShadowEvaluator",
    "StalenessTrigger",
    "TriggerPolicy",
    "bundle_age_seconds",
    "corrupt_table",
    "default_policies",
    "drifted_pairs",
    "evaluate_policies",
    "fractions",
    "ks_statistic",
    "psi",
    "request_batches",
]
