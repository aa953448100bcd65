"""FeatureDriftMonitor: streaming reference-vs-live drift detection.

The monitor plugs into the serving path as a *tap*: every micro-batch
the matcher featurizes and scores is also folded into live per-feature
state (bin counts against the reference profile's edges, null counts, a
seeded reservoir sample, score-distribution counts and the live match
rate).  No second featurization pass happens — the tap sees the matrix
the matcher already computed.

``report()`` reduces that state against the bundle's
:class:`~repro.features.profile.ReferenceProfile` into a
:class:`DriftReport`: per-feature PSI (binned) and two-sample KS (on
the reservoir samples), null-rate shift, score-distribution PSI and
match-rate shift, plus the drifted/quiet verdict the trigger policies
consume.

The monitor is driven by the :class:`~repro.serve.service.MatchService`
serving thread and by any caller threads that drive a
:class:`~repro.serve.matcher.StreamMatcher` directly, so all state
lives behind one
:class:`~repro.concurrency.WitnessedLock`, taken by taps, resets and
reports alike.  Taps buffer their micro-batches and the per-column
reduction work runs once per ``_FLUSH_ROWS`` buffered rows, keeping the
serving-path cost per request O(1) numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..concurrency import WitnessedLock
from ..features.profile import FeatureProfile, ReferenceProfile, Reservoir
from .stats import fractions, ks_statistic, psi

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.bundle import ModelBundle

#: PSI threshold per feature (the usual "action" level).
PSI_THRESHOLD = 0.25
#: Two-sample KS D threshold per feature.
KS_THRESHOLD = 0.25
#: Absolute null-rate shift flagged as drift.
NULL_SHIFT_THRESHOLD = 0.20
#: Absolute match-rate shift flagged as drift.
MATCH_RATE_THRESHOLD = 0.25
#: Default minimum live rows before any verdict is rendered.
MIN_ROWS = 100
#: Live per-feature reservoir capacity for the KS side.
RESERVOIR_SIZE = 512

#: Buffered rows folded into per-column state in one go.  The tap sits
#: on the serving path, so per-request cost must stay negligible: small
#: micro-batches are appended to a buffer (O(1) numpy calls) and the
#: per-column binning/reservoir work runs once per ``_FLUSH_ROWS`` rows
#: — identical results (reservoirs and bin counts are batching
#: invariant), a fraction of the per-call overhead.
_FLUSH_ROWS = 1024


@dataclass
class FeatureDrift:
    """Drift statistics of one feature (live vs reference)."""

    name: str
    psi: float
    ks: float
    null_rate: float
    reference_null_rate: float
    n: int
    drifted: bool

    @property
    def null_shift(self) -> float:
        return abs(self.null_rate - self.reference_null_rate)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "psi": self.psi, "ks": self.ks,
            "null_rate": self.null_rate,
            "reference_null_rate": self.reference_null_rate,
            "null_shift": self.null_shift, "n": self.n,
            "drifted": self.drifted,
        }


@dataclass
class DriftReport:
    """One reduction of the monitor's live state against its reference.

    ``drifted`` is the headline verdict: at least one feature (or the
    score distribution / match rate) crossed its threshold *and* enough
    live rows were observed (``sufficient``).  The report is a pure
    function of the observed batches and the seeds, so identical
    traffic yields identical reports.
    """

    n_rows: int
    sufficient: bool
    features: list[FeatureDrift]
    score_psi: float
    match_rate: float
    reference_match_rate: float
    drifted_features: list[str] = field(default_factory=list)
    drifted: bool = False
    thresholds: dict[str, float] = field(default_factory=dict)

    @property
    def match_rate_shift(self) -> float:
        return abs(self.match_rate - self.reference_match_rate)

    def feature(self, name: str) -> FeatureDrift:
        for item in self.features:
            if item.name == name:
                return item
        raise KeyError(f"no feature named {name!r} in the report")

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready payload (deterministic; the ``drift`` event body)."""
        return {
            "n_rows": self.n_rows,
            "sufficient": self.sufficient,
            "drifted": self.drifted,
            "drifted_features": list(self.drifted_features),
            "score_psi": self.score_psi,
            "match_rate": self.match_rate,
            "reference_match_rate": self.reference_match_rate,
            "match_rate_shift": self.match_rate_shift,
            "thresholds": dict(self.thresholds),
            "features": [item.as_dict() for item in self.features],
        }


class _LiveColumn:
    """Live-side accumulation of one feature column."""

    def __init__(self, profile: FeatureProfile, seed_key: tuple[int, int]):
        self.profile = profile
        self.counts = np.zeros(profile.n_bins, dtype=np.int64)
        self.n = 0
        self.n_null = 0
        self.reservoir = Reservoir(
            RESERVOIR_SIZE,
            seed=np.random.SeedSequence(seed_key).generate_state(1)[0])

    def update(self, column: np.ndarray) -> None:
        finite = column[np.isfinite(column)]
        self.n += len(column)
        self.n_null += len(column) - len(finite)
        if len(finite):
            self.counts += self.profile.bin_counts(finite)
            self.reservoir.update(finite)


class FeatureDriftMonitor:
    """Streaming drift detection against a bundle's reference profile.

    Parameters
    ----------
    reference:
        The :class:`ReferenceProfile` captured at export time (see
        :meth:`for_bundle` to pull it straight from a loaded bundle).
    min_rows:
        Live rows required before ``report()`` may declare drift; below
        it every verdict is "insufficient data", never "drifted".
    seed:
        Seeds the live reservoirs (reports stay reproducible).

    >>> monitor = FeatureDriftMonitor.for_bundle(bundle)
    >>> matcher = StreamMatcher(bundle, monitor=monitor)
    >>> ... serve ...
    >>> monitor.report().drifted

    The drift thresholds and the reservoir capacity are the module
    constants above; ``report().thresholds`` records the ones applied.
    """

    def __init__(self, reference: ReferenceProfile, *,
                 min_rows: int = MIN_ROWS, seed: int = 0):
        self.reference = reference
        self.min_rows = int(min_rows)
        self._seed = seed
        self._lock = WitnessedLock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        reference, seed = self.reference, self._seed
        self._columns = [
            _LiveColumn(profile, (seed, index))
            for index, profile in enumerate(reference.features)]
        self._score = (None if reference.score is None else
                       _LiveColumn(reference.score,
                                   (seed, len(reference.features))))
        self._n_rows = 0
        self._n_matches = 0
        self._pending_X: list[np.ndarray] = []
        self._pending_scores: list[np.ndarray] = []
        self._pending_rows = 0

    @classmethod
    def for_bundle(cls, bundle: "ModelBundle",
                   **kwargs: Any) -> "FeatureDriftMonitor":
        """A monitor over the reference profile stored in ``bundle``."""
        if bundle.reference_profile is None:
            raise ValueError(
                "bundle has no reference profile in its manifest; "
                "re-export it from a fitted AutoMLEM (export_bundle "
                "captures one) to enable drift monitoring")
        return cls(ReferenceProfile.from_dict(bundle.reference_profile),
                   **kwargs)

    # -- the serving-path tap ------------------------------------------

    def observe(self, X: np.ndarray, probabilities: np.ndarray,
                predictions: np.ndarray) -> None:
        """Fold one scored micro-batch into the live state.

        Called by the matcher with the feature matrix, P(match) and the
        decisions it just produced — the monitor never featurizes.  The
        batch is buffered (O(1) work on the serving path); the
        per-column binning and reservoir updates run when the buffer
        reaches ``_FLUSH_ROWS`` or a report is taken — with identical
        results, since both are batching invariant.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self._columns):
            raise ValueError(
                f"expected a (n, {len(self._columns)}) matrix matching "
                f"the reference profile, got shape {X.shape}")
        with self._lock:
            self._n_rows += X.shape[0]
            self._pending_X.append(X.copy())
            self._pending_rows += X.shape[0]
            if self._score is not None:
                self._pending_scores.append(
                    np.asarray(probabilities, dtype=np.float64).ravel()
                    .copy())
            self._n_matches += int(
                (np.asarray(predictions).ravel() == 1).sum())
            if self._pending_rows >= _FLUSH_ROWS:
                self._flush_locked()

    def _flush_locked(self) -> None:
        """Fold buffered batches into per-column state (callers hold
        the lock)."""
        if not self._pending_rows:
            return
        X = (self._pending_X[0] if len(self._pending_X) == 1
             else np.concatenate(self._pending_X, axis=0))
        for index, column in enumerate(self._columns):
            column.update(X[:, index])
        if self._score is not None and self._pending_scores:
            self._score.update(np.concatenate(self._pending_scores))
        self._pending_X = []
        self._pending_scores = []
        self._pending_rows = 0

    # -- reduction ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        with self._lock:
            return self._n_rows

    def reset(self) -> None:
        """Drop all live state (e.g. after a promotion)."""
        with self._lock:
            self._reset_locked()

    def report(self) -> DriftReport:
        """Reduce the live state to a :class:`DriftReport`.

        Folds any buffered batches into the per-column state under the
        lock, then reduces — so the report always reflects every
        observed row.
        """
        with self._lock:
            self._flush_locked()
            sufficient = self._n_rows >= self.min_rows
            features: list[FeatureDrift] = []
            drifted_features: list[str] = []
            for live in self._columns:
                profile = live.profile
                feature_psi = psi(np.asarray(profile.bin_fractions),
                                  fractions(live.counts))
                feature_ks = ks_statistic(np.asarray(profile.sample),
                                          live.reservoir.sample())
                null_rate = live.n_null / live.n if live.n else 0.0
                drifted = sufficient and (
                    feature_psi >= PSI_THRESHOLD
                    or feature_ks >= KS_THRESHOLD
                    or abs(null_rate - profile.null_rate)
                    >= NULL_SHIFT_THRESHOLD)
                features.append(FeatureDrift(
                    profile.name, feature_psi, feature_ks, null_rate,
                    profile.null_rate, live.n, drifted))
                if drifted:
                    drifted_features.append(profile.name)
            score_psi = 0.0
            if self._score is not None:
                score_psi = psi(
                    np.asarray(self._score.profile.bin_fractions),
                    fractions(self._score.counts))
            match_rate = (self._n_matches / self._n_rows
                          if self._n_rows else 0.0)
            drifted = sufficient and bool(
                drifted_features
                or score_psi >= PSI_THRESHOLD
                or abs(match_rate - self.reference.match_rate)
                >= MATCH_RATE_THRESHOLD)
            return DriftReport(
                n_rows=self._n_rows, sufficient=sufficient,
                features=features, score_psi=score_psi,
                match_rate=match_rate,
                reference_match_rate=self.reference.match_rate,
                drifted_features=drifted_features, drifted=drifted,
                thresholds={
                    "psi": PSI_THRESHOLD,
                    "ks": KS_THRESHOLD,
                    "null_shift": NULL_SHIFT_THRESHOLD,
                    "match_rate": MATCH_RATE_THRESHOLD,
                })

    def __repr__(self) -> str:
        return (f"FeatureDriftMonitor({len(self.reference.features)} "
                f"features, {self.n_rows} live rows)")
