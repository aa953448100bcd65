"""ShadowEvaluator: champion/challenger comparison on live traffic.

Drift says *something changed*; it does not say a newly trained
challenger is better.  Shadow evaluation answers that safely: the
champion keeps serving, and a sampled slice of its live candidate
pairs is re-scored — featurized with the challenger's own plan and
scored by the challenger's predictor — off the response path.  The
evaluator accumulates the disagreement rate, score deltas and the
challenger's latency overhead, appends per-request ``shadow`` records
to a :class:`~repro.events.EventLog`, and once the numbers
justify it, :meth:`promote` atomically flips the registry ``LATEST``
pointer so subsequent loads serve the challenger.

The evaluator is driven through the matcher's shadow tap, from the
:class:`~repro.serve.service.MatchService` serving thread or from
caller threads that drive a :class:`~repro.serve.matcher.StreamMatcher`
directly; one lock serializes both
the seeded sampling stream and the challenger scoring, so results are
reproducible for a given request sequence.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, cast

import numpy as np

from ..data.pairs import PairSet
from ..events import EventLog
from ..serve.bundle import ModelBundle
from ..serve.registry import ModelRegistry


class ShadowEvaluator:
    """Score a challenger alongside the champion on sampled live pairs.

    Parameters
    ----------
    champion / challenger:
        The serving bundle and the candidate replacement.  The
        challenger gets its own feature generator (its plan may
        differ); the champion is never re-scored — its probabilities
        and decisions arrive through the tap.
    sample_rate:
        Fraction of each request's candidate pairs shadow-scored
        (seeded Bernoulli per pair).
    seed:
        Seeds the sampling stream.
    log:
        Optional :class:`~repro.events.EventLog` (left open) or path
        (rewritten, and closed by :meth:`close`) receiving one
        ``shadow`` record per observed request.
    registry / model_name / challenger_version:
        Registry coordinates enabling :meth:`promote`; filled
        automatically by :meth:`from_registry`.
    """

    def __init__(self, champion: ModelBundle, challenger: ModelBundle, *,
                 sample_rate: float = 0.25, seed: int = 0,
                 log: EventLog | str | Path | None = None,
                 registry: ModelRegistry | None = None,
                 model_name: str | None = None,
                 challenger_version: str | None = None):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in (0, 1], got {sample_rate}")
        self.champion = champion
        self.challenger = challenger
        self.sample_rate = float(sample_rate)
        self.registry = registry
        self.model_name = model_name
        self.challenger_version = challenger_version
        self._generator = challenger.feature_generator()
        self._exit = ExitStack()
        self.log = self._exit.enter_context(EventLog.opened(log))
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(seed)
        self._n_requests = 0
        self._n_pairs = 0
        self._n_sampled = 0
        self._n_disagreements = 0
        self._abs_delta_sum = 0.0
        self._abs_delta_max = 0.0
        self._champion_time = 0.0
        self._challenger_time = 0.0

    @classmethod
    def from_registry(cls, registry: ModelRegistry | str | Path,
                      name: str, challenger_version: str, *,
                      champion_version: str | None = None,
                      **kwargs: Any) -> "ShadowEvaluator":
        """Champion (default: ``LATEST``) vs a registered challenger."""
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        champion_version = champion_version or registry.latest(name)
        if challenger_version == champion_version:
            raise ValueError(
                f"challenger {challenger_version!r} is already the "
                f"champion of {name!r}")
        return cls(registry.get(name, champion_version),
                   registry.get(name, challenger_version),
                   registry=registry, model_name=name,
                   challenger_version=challenger_version, **kwargs)

    # -- the serving-path tap ------------------------------------------

    def observe(self, pairs: PairSet, probabilities: np.ndarray,
                predictions: np.ndarray, latency: float) -> None:
        """Shadow-score a sampled slice of one served request.

        Called by the matcher after the champion's response exists;
        everything here is off the response path of *that* request
        (though it does occupy the worker thread).
        """
        with self._lock:
            self._n_requests += 1
            self._n_pairs += len(pairs)
            self._champion_time += float(latency)
            mask = self._rng.random(len(pairs)) < self.sample_rate
            indices = np.flatnonzero(mask)
            if len(indices) == 0:
                return
            subset = cast(PairSet, pairs[indices])
            started = time.monotonic()
            X = self._generator.transform(subset)
            challenger_probs = self.challenger.predict_proba(X)
            challenger_preds = self.challenger.decide(challenger_probs)
            challenger_latency = time.monotonic() - started
            champion_probs = np.asarray(probabilities,
                                        dtype=np.float64)[indices]
            champion_preds = np.asarray(predictions)[indices]
            disagreements = int((challenger_preds != champion_preds).sum())
            deltas = np.abs(challenger_probs - champion_probs)
            self._n_sampled += len(indices)
            self._n_disagreements += disagreements
            self._abs_delta_sum += float(deltas.sum())
            self._abs_delta_max = max(self._abs_delta_max,
                                      float(deltas.max()))
            self._challenger_time += challenger_latency
            if self.log is not None:
                self.log.event(
                    "shadow", n_pairs=len(pairs), n_sampled=len(indices),
                    n_disagreements=disagreements,
                    mean_abs_delta=float(deltas.mean()),
                    max_abs_delta=float(deltas.max()),
                    champion_latency=float(latency),
                    challenger_latency=challenger_latency)

    # -- reduction ------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Accumulated champion-vs-challenger comparison."""
        with self._lock:
            return {
                "n_requests": self._n_requests,
                "n_pairs": self._n_pairs,
                "n_sampled": self._n_sampled,
                "n_disagreements": self._n_disagreements,
                "disagreement_rate": (
                    self._n_disagreements / self._n_sampled
                    if self._n_sampled else 0.0),
                "mean_abs_delta": (self._abs_delta_sum / self._n_sampled
                                   if self._n_sampled else 0.0),
                "max_abs_delta": self._abs_delta_max,
                "sample_rate": self.sample_rate,
                "champion_latency": self._champion_time,
                "challenger_latency": self._challenger_time,
                "latency_overhead": (
                    self._challenger_time / self._champion_time
                    if self._champion_time > 0 else 0.0),
                "champion_fingerprint": self.champion.fingerprint[:16],
                "challenger_fingerprint": self.challenger.fingerprint[:16],
                "model_name": self.model_name,
                "challenger_version": self.challenger_version,
            }

    # -- promotion ------------------------------------------------------

    def promote(self) -> str:
        """Make the challenger the registry champion; returns its version.

        Atomically rewrites the model's ``LATEST`` pointer
        (:mod:`repro.persist`), so concurrent readers see either the old
        or the new champion, never a partial pointer.  Requires registry
        coordinates (:meth:`from_registry`).
        """
        if (self.registry is None or self.model_name is None
                or self.challenger_version is None):
            raise ValueError(
                "promote() needs registry coordinates; construct the "
                "evaluator via ShadowEvaluator.from_registry(...)")
        previous = self.registry.latest(self.model_name)
        version = self.registry.promote(self.model_name,
                                        self.challenger_version)
        if self.log is not None:
            self.log.event("promotion", model_name=self.model_name,
                           promoted=version, previous=previous,
                           summary=self.summary())
        return version

    def close(self) -> None:
        """Write a final shadow summary; close a log opened from a path."""
        if self.log is not None:
            self.log.event("shadow", final=True, **self.summary())
        self._exit.close()

    def __enter__(self) -> "ShadowEvaluator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        summary = self.summary()
        return (f"ShadowEvaluator({summary['n_sampled']} sampled pairs, "
                f"disagreement={summary['disagreement_rate']:.3f})")
