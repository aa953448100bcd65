"""What every workload hands back to ``run.py``, and shared helpers."""

from __future__ import annotations

import resource
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Outcome:
    """One workload run, before it is turned into metrics.

    ``setup_s`` is the workload's set-up time, one figure taken over
    its timed set-ups; ``latencies_s`` are the per-operation client
    times (a fit, a request, a read); ``work / work_s`` is the throughput; ``report``
    holds the workload's own named metrics as ``(value, unit)``.
    """

    setup_s: float
    latencies_s: list[float]
    work: float
    work_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    f1: float
    checks: dict[str, bool]
    report: dict[str, tuple[float | str, str]]
    layers: dict[str, float] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB → MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def f1_score(predicted: set, gold: set) -> float:
    """F1 of a predicted key set against a gold key set."""
    if not predicted and not gold:
        return 1.0
    return 2 * len(predicted & gold) / (len(predicted) + len(gold))
