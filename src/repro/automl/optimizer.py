"""The AutoML optimizer: budgeted pipeline search on a holdout split.

Implements the loop of Section III-A: sample/propose a pipeline
configuration, fit it on the training set, score it on the validation
set (F1 by default), feed the result back to the search algorithm,
repeat until the budget (iterations and/or wall-clock seconds) runs out,
and return the best pipeline.

Every evaluation goes through :class:`repro.automl.runner.TrialRunner`,
so a pathological configuration (unbounded fit, ``MemoryError``,
``LinAlgError``, ...) is scored as a failed trial instead of stalling or
killing the search, and — when a ``run_log`` is given — every trial is
appended to a JSONL telemetry file the run can later be resumed from
(``OptimizationHistory.load`` / ``AutoML(resume_from=...)``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .. import persist
from ..events import EventLog, _json_default, read_events
from ..ml.metrics import f1_score
from .components import ConfiguredPipeline, build_pipeline
from .runner import TrialRunner
from .search import make_search
from .space import ConfigurationSpace


@dataclass
class TrialResult:
    """One evaluated configuration.

    ``random_state`` is the seed the trial's pipeline was built with;
    rebuilding the winner with the same seed reproduces the exact model
    that earned ``score`` (forests and samplers are stochastic).
    """

    config: dict
    score: float
    elapsed: float
    error: str | None = None
    random_state: int | None = None

    def to_record(self) -> dict:
        """The trial as a JSON-serializable dict (JSONL schema)."""
        return {"type": "trial", "config": dict(self.config),
                "score": self.score, "elapsed": self.elapsed,
                "error": self.error, "random_state": self.random_state}

    @classmethod
    def from_record(cls, record: dict) -> "TrialResult":
        return cls(config=dict(record["config"]),
                   score=float(record["score"]),
                   elapsed=float(record.get("elapsed", 0.0)),
                   error=record.get("error"),
                   random_state=record.get("random_state"))


@dataclass
class OptimizationHistory:
    """All trials of one AutoML run, with incumbent tracking."""

    trials: list[TrialResult] = field(default_factory=list)

    def add(self, trial: TrialResult) -> None:
        self.trials.append(trial)

    @property
    def best(self) -> TrialResult:
        successful = [t for t in self.trials if t.error is None]
        if not successful:
            raise RuntimeError("no successful trials")
        return max(successful, key=lambda t: t.score)

    def incumbent_curve(self) -> list[float]:
        """Best-so-far validation score after each trial (nan-safe)."""
        curve: list[float] = []
        best = -np.inf
        for trial in self.trials:
            if trial.error is None and trial.score > best:
                best = trial.score
            curve.append(best if np.isfinite(best) else 0.0)
        return curve

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.trials if t.error is not None)

    def save(self, path) -> None:
        """Write the trials as JSONL (one ``trial`` record per line),
        atomically (:func:`repro.persist.atomic_write`)."""
        persist.atomic_write(path, "".join(
            json.dumps(trial.to_record(), default=_json_default) + "\n"
            for trial in self.trials))

    @classmethod
    def load(cls, path) -> "OptimizationHistory":
        """Rebuild a history from :meth:`save` output *or* a run log.

        Non-trial records (the run log's ``summary``) are skipped, so
        the telemetry file of an interrupted run loads directly.
        """
        return cls([TrialResult.from_record(record)
                    for record in read_events(path)
                    if record.get("type", "trial") == "trial"])

    def __len__(self) -> int:
        return len(self.trials)


def _log_trial(log: EventLog | None, index: int, trial: TrialResult,
               incumbent: float | None) -> None:
    if log is not None:
        log.event("trial", index=index, config=trial.config,
                  score=trial.score, elapsed=trial.elapsed,
                  error=trial.error, random_state=trial.random_state,
                  incumbent_score=incumbent)


class AutoML:
    """Budgeted configuration search over an EM pipeline space.

    Parameters
    ----------
    space:
        The :class:`ConfigurationSpace` to search (see
        :func:`repro.automl.components.build_config_space`).
    search:
        "smac" (default), "random" or "tpe".
    n_iterations:
        Maximum number of pipeline evaluations.
    time_budget:
        Optional wall-clock cap in seconds (the paper's primary budget
        notion, Figure 10); whichever of the two budgets hits first
        stops the search.
    scorer:
        ``scorer(y_true, y_pred) -> float``; higher is better.  Default
        F1 on the positive class.
    trial_timeout / trial_isolation:
        Per-trial wall-clock limit and isolation mode, forwarded to
        :class:`~repro.automl.runner.TrialRunner`.  A timed-out trial is
        scored as failed; the search continues.
    run_log:
        Path (or open :class:`~repro.events.EventLog`) for JSONL
        telemetry: one ``trial`` record per trial plus a run
        ``summary``.  A path is rewritten and closed when :meth:`fit`
        returns or raises; an open log is left open.
    resume_from:
        Path to a prior run log / saved history, or an
        :class:`OptimizationHistory`; its trials are replayed into this
        run's history and budget before any new trial runs, so an
        interrupted search continues where it stopped.
    """

    def __init__(self, space: ConfigurationSpace, search: str = "smac",
                 n_iterations: int = 30, time_budget: float | None = None,
                 scorer=f1_score, ensemble_size: int = 1,
                 initial_configs: list[dict] | None = None, seed: int = 0,
                 trial_timeout: float | None = None,
                 trial_isolation: str = "auto",
                 run_log=None, resume_from=None,
                 verbose: bool = False):
        if n_iterations < 1:
            raise ValueError(
                f"n_iterations must be >= 1, got {n_iterations}")
        if ensemble_size < 1:
            raise ValueError(
                f"ensemble_size must be >= 1, got {ensemble_size}")
        self.space = space
        self.search_name = search
        self.n_iterations = n_iterations
        self.time_budget = time_budget
        self.scorer = scorer
        self.ensemble_size = ensemble_size
        #: meta-learning warm starts: evaluated before the search proposes
        #: anything (see repro.automl.metalearning.ConfigPortfolio).
        self.initial_configs = list(initial_configs or [])
        self.seed = seed
        self.trial_timeout = trial_timeout
        self.trial_isolation = trial_isolation
        self.run_log = run_log
        self.resume_from = resume_from
        self.verbose = verbose

    def _resume_history(self) -> OptimizationHistory:
        """The prior trials to replay (empty when not resuming)."""
        if self.resume_from is None:
            return OptimizationHistory()
        if isinstance(self.resume_from, OptimizationHistory):
            return OptimizationHistory(list(self.resume_from.trials))
        return OptimizationHistory.load(self.resume_from)

    def fit(self, X_train, y_train, X_valid, y_valid,
            run_context: dict | None = None) -> "AutoML":
        """Run the search; afterwards ``best_pipeline_`` is fitted on train.

        ``run_context`` is merged into the run log's summary record
        (callers use it for e.g. the feature plan's name).
        """
        with EventLog.opened(self.run_log) as log:
            return self._fit(log, X_train, y_train, X_valid, y_valid,
                             run_context)

    def _fit(self, log: EventLog | None, X_train, y_train, X_valid,
             y_valid, run_context: dict | None) -> "AutoML":
        X_train = np.asarray(X_train, dtype=np.float64)
        X_valid = np.asarray(X_valid, dtype=np.float64)
        y_train = np.asarray(y_train)
        y_valid = np.asarray(y_valid)
        search = make_search(self.search_name, self.space, seed=self.seed)
        self.history_ = self._resume_history()
        runner = TrialRunner(timeout=self.trial_timeout,
                             isolation=self.trial_isolation)
        evaluated: list[tuple[dict, float]] = [
            (t.config, t.score if t.error is None else 0.0)
            for t in self.history_.trials]
        started = time.monotonic()
        rng = np.random.default_rng(self.seed)
        incumbent: float | None = None
        for index, trial in enumerate(self.history_.trials):
            if trial.error is None:
                incumbent = (trial.score if incumbent is None
                             else max(incumbent, trial.score))
            # Re-emit replayed trials: the log holds the whole run.
            _log_trial(log, index, trial, incumbent)
        # Keep the pipeline-seed stream aligned with an uninterrupted
        # run: skip the draws the replayed trials consumed.
        for _ in self.history_.trials:
            rng.integers(2 ** 31)
        for iteration in range(len(self.history_), self.n_iterations):
            if self.time_budget is not None \
                    and time.monotonic() - started >= self.time_budget:
                break
            if iteration < len(self.initial_configs):
                config = dict(self.initial_configs[iteration])
            else:
                config = search.propose(evaluated)
            random_state = int(rng.integers(2 ** 31))
            outcome = runner.run(
                lambda: self._evaluate(config, random_state, X_train,
                                       y_train, X_valid, y_valid))
            trial = TrialResult(config, outcome.score, outcome.elapsed,
                                outcome.error, random_state=random_state)
            self.history_.add(trial)
            if trial.error is None:
                evaluated.append((config, trial.score))
                incumbent = (trial.score if incumbent is None
                             else max(incumbent, trial.score))
            else:
                # Penalize failing regions so the surrogate avoids them.
                evaluated.append((config, 0.0))
            _log_trial(log, iteration, trial, incumbent)
            if self.verbose:
                status = (f"{trial.score:.4f}" if trial.error is None
                          else f"error({trial.error})")
                print(f"[automl] trial {iteration + 1}/{self.n_iterations}: "
                      f"{config.get('classifier:__choice__')} -> {status}")
        best = self.history_.best
        self.best_config_ = best.config
        self.best_score_ = best.score
        self.best_random_state_ = (best.random_state
                                   if best.random_state is not None
                                   else self.seed)
        # Rebuild with the *trial's* seed so the deployed pipeline is the
        # exact model that earned best_score_.
        self.best_pipeline_ = build_pipeline(
            best.config, random_state=self.best_random_state_)
        self.best_pipeline_.fit(X_train, y_train)
        self.ensemble_ = None
        if self.ensemble_size > 1:
            # auto-sklearn style greedy ensemble over the trial history.
            from .ensemble import build_ensemble
            self.ensemble_ = build_ensemble(
                self.history_, X_train, y_train, X_valid, y_valid,
                ensemble_size=self.ensemble_size, scorer=self.scorer,
                seed=self.seed)
        if log is not None:
            log.event(
                "summary", n_trials=len(self.history_),
                n_failed=self.history_.n_failed,
                best_score=self.best_score_,
                best_config=self.best_config_,
                best_random_state=self.best_random_state_,
                search=self.search_name, seed=self.seed,
                n_iterations=self.n_iterations,
                time_budget=self.time_budget,
                wall_time=time.monotonic() - started,
                trial_time=sum(t.elapsed for t in self.history_.trials),
                trial_timeout=self.trial_timeout,
                isolation=runner.effective_isolation,
                **dict(run_context or {}))
        return self

    def _evaluate(self, config: dict, random_state: int, X_train, y_train,
                  X_valid, y_valid) -> float:
        """Build, fit and score one configuration (runs inside the runner)."""
        pipeline = build_pipeline(config, random_state=random_state)
        pipeline.fit(X_train, y_train)
        return float(self.scorer(y_valid, pipeline.predict(X_valid)))

    def refit(self, X, y) -> "AutoML":
        """Refit the best pipeline on (typically train+valid) data.

        Any ensemble is discarded: its members were validated on data
        that may now be part of the refit set.
        """
        self._check_fitted()
        self.best_pipeline_ = build_pipeline(
            self.best_config_,
            random_state=getattr(self, "best_random_state_", self.seed))
        self.best_pipeline_.fit(np.asarray(X, dtype=np.float64),
                                np.asarray(y))
        self.ensemble_ = None
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        if getattr(self, "ensemble_", None) is not None:
            return self.ensemble_.predict(X)
        return self.best_pipeline_.predict(X)

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        if getattr(self, "ensemble_", None) is not None:
            return self.ensemble_.predict_proba(X)
        return self.best_pipeline_.predict_proba(X)

    def score(self, X, y) -> float:
        return float(self.scorer(np.asarray(y), self.predict(X)))

    def _check_fitted(self) -> None:
        if not hasattr(self, "best_pipeline_"):
            raise RuntimeError("AutoML is not fitted yet; call fit first")

    @property
    def best_pipeline(self) -> ConfiguredPipeline:
        self._check_fitted()
        return self.best_pipeline_
