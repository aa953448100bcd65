"""Tests for the fault-isolated trial runner and run telemetry."""

import json
import os
import time

import numpy as np
import pytest

from repro.automl import (
    AutoML,
    OptimizationHistory,
    TrialResult,
    TrialRunner,
    build_config_space,
)
from repro.automl.optimizer import _log_trial
from repro.events import EventLog, read_events

#: Two trials and a summary exactly as the previous run-log writer put
#: them on disk; old logs must keep resuming.
LEGACY_RUN_LOG = (
    '{"type": "trial", "index": 0, "config": {"classifier:__choice__": '
    '"random_forest", "random_forest:n_estimators": 8}, "score": 0.75, '
    '"elapsed": 0.12, "error": null, "random_state": 1608637542, '
    '"incumbent_score": 0.75}\n'
    '{"type": "trial", "index": 1, "config": {"classifier:__choice__": '
    '"random_forest", "random_forest:n_estimators": 8}, "score": 0.0, '
    '"elapsed": 0.01, "error": "MemoryError: boom [at runner.py:156 in '
    'run]", "random_state": 1273642419, "incumbent_score": 0.75}\n'
    '{"type": "summary", "n_trials": 2, "n_failed": 1, "best_score": 0.75}\n'
)


def _trial(log, index, config, score, error=None, random_state=None,
           incumbent_score=None, elapsed=0.0):
    """Write one ``trial`` record with the optimizer's field order."""
    log.event("trial", index=index, config=config, score=score,
              elapsed=elapsed, error=error, random_state=random_state,
              incumbent_score=incumbent_score)


class TestTrialRunner:
    def test_successful_trial(self):
        outcome = TrialRunner().run(lambda: 0.75)
        assert outcome.ok
        assert outcome.score == 0.75
        assert outcome.error is None
        assert outcome.elapsed >= 0.0

    @pytest.mark.parametrize("exc", [
        MemoryError("allocation of 80 GiB failed"),
        OverflowError("math range error"),
        np.linalg.LinAlgError("SVD did not converge"),
        ValueError("bad config"),
        ZeroDivisionError("division by zero"),
    ])
    def test_all_nonfatal_exceptions_become_errors(self, exc):
        def explode():
            raise exc

        outcome = TrialRunner().run(explode)
        assert not outcome.ok
        assert outcome.score == 0.0
        assert type(exc).__name__ in outcome.error

    def test_error_includes_traceback_summary(self):
        def inner():
            raise MemoryError("boom")

        def outer():
            return inner()

        outcome = TrialRunner().run(outer)
        assert "MemoryError: boom" in outcome.error
        assert "in inner" in outcome.error  # the failing frame is named

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            TrialRunner().run(interrupted)

    def test_custom_error_score(self):
        def explode():
            raise ValueError("no")

        outcome = TrialRunner(error_score=-1.0).run(explode)
        assert outcome.score == -1.0

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError, match="isolation"):
            TrialRunner(isolation="thread")
        with pytest.raises(ValueError, match="timeout"):
            TrialRunner(timeout=0.0)

    def test_auto_resolution(self):
        assert TrialRunner(timeout=None).effective_isolation == "none"
        runner = TrialRunner(timeout=1.0)
        assert runner.effective_isolation in ("signal", "none")

    @pytest.mark.trial_timeout
    def test_signal_timeout_interrupts_trial(self, fast_trial_timeout):
        runner = TrialRunner(timeout=fast_trial_timeout,
                             isolation="signal")
        outcome = runner.run(lambda: time.sleep(30) or 1.0)
        assert not outcome.ok
        assert "TrialTimeout" in outcome.error
        assert outcome.elapsed < 5.0

    @pytest.mark.trial_timeout
    def test_signal_mode_restores_handler(self, fast_trial_timeout):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        TrialRunner(timeout=fast_trial_timeout,
                    isolation="signal").run(lambda: 1.0)
        assert signal.getsignal(signal.SIGALRM) is before


class TestSubprocessIsolation:
    def test_score_round_trip(self):
        runner = TrialRunner(isolation="subprocess")
        outcome = runner.run(lambda: 0.625)
        assert outcome.ok
        assert outcome.score == 0.625

    def test_error_round_trip(self):
        def explode():
            raise MemoryError("huge allocation")

        outcome = TrialRunner(isolation="subprocess").run(explode)
        assert not outcome.ok
        assert "MemoryError: huge allocation" in outcome.error

    @pytest.mark.trial_timeout
    def test_timeout_terminates_worker(self, fast_trial_timeout):
        runner = TrialRunner(timeout=fast_trial_timeout,
                             isolation="subprocess")
        outcome = runner.run(lambda: time.sleep(30) or 1.0)
        assert not outcome.ok
        assert "TrialTimeout" in outcome.error
        assert outcome.elapsed < 10.0

    def test_hard_crash_is_reported_not_fatal(self):
        def segfault_stand_in():
            os._exit(17)  # dies without reporting, like a SIGKILL/OOM

        outcome = TrialRunner(isolation="subprocess").run(segfault_stand_in)
        assert not outcome.ok
        assert "ProcessDied" in outcome.error
        assert "17" in outcome.error


class TestRunLog:
    def test_trial_and_summary_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog.opened(path) as log:
            _trial(log, 0, {"x": 1}, 0.5, elapsed=0.01, random_state=42,
                   incumbent_score=0.5)
            _trial(log, 1, {"x": 2}, 0.0, elapsed=0.02,
                   error="ValueError: no", random_state=43,
                   incumbent_score=0.5)
            log.event("summary", n_trials=2, best_score=0.5)
        records = read_events(path)
        assert [r["type"] for r in records] == ["trial", "trial", "summary"]
        assert records[1]["error"] == "ValueError: no"
        assert records[2]["best_score"] == 0.5

    def test_numpy_values_serialize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog.opened(path) as log:
            _trial(log, 0, {"k": np.int64(3), "f": np.float64(0.25)},
                   np.float64(0.5), random_state=np.int64(7))
        record = read_events(path)[0]
        assert record["config"] == {"k": 3, "f": 0.25}
        assert record["random_state"] == 7

    def test_ensure(self, tmp_path):
        """``opened`` is the one ownership rule: None stays None, a
        passed-in log is left open, a path is opened and closed."""
        with EventLog.opened(None) as log:
            assert log is None
        with EventLog.opened(tmp_path / "a.jsonl") as shared:
            with EventLog.opened(shared) as log:
                assert log is shared
            shared.event("summary")  # still open: the caller owns it
        with pytest.raises(ValueError, match="closed"):
            shared.event("summary")
        assert [r["type"] for r in read_events(tmp_path / "a.jsonl")] == \
            ["summary"]

    def test_records_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog.opened(path) as log:
            _trial(log, 0, {}, 1.0, incumbent_score=1.0)
            # Readable *before* close: an interrupted run keeps its trials.
            assert len(read_events(path)) == 1


class TestHistoryPersistence:
    def make_history(self):
        history = OptimizationHistory()
        history.add(TrialResult({"a": 1}, 0.6, 0.1, None, random_state=11))
        history.add(TrialResult({"a": 2}, 0.0, 0.2,
                                "MemoryError: boom", random_state=12))
        history.add(TrialResult({"a": 3}, 0.8, 0.3, None, random_state=13))
        return history

    def test_save_load_round_trip(self, tmp_path):
        history = self.make_history()
        path = tmp_path / "history.jsonl"
        history.save(path)
        loaded = OptimizationHistory.load(path)
        assert len(loaded) == 3
        for original, restored in zip(history.trials, loaded.trials):
            assert restored.config == original.config
            assert restored.score == original.score
            assert restored.error == original.error
            assert restored.random_state == original.random_state
        assert loaded.best.config == {"a": 3}
        assert loaded.n_failed == 1

    def test_load_skips_summary_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventLog.opened(path) as log:
            _trial(log, 0, {"a": 1}, 0.4, random_state=5,
                   incumbent_score=0.4)
            log.event("summary", n_trials=1, best_score=0.4)
        loaded = OptimizationHistory.load(path)
        assert len(loaded) == 1
        assert loaded.best.score == 0.4

    def test_load_resumes_a_log_written_by_the_previous_writer(
            self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(LEGACY_RUN_LOG, encoding="utf-8")
        loaded = OptimizationHistory.load(path)
        assert [t.random_state for t in loaded.trials] == \
            [1608637542, 1273642419]
        assert loaded.n_failed == 1
        assert loaded.best.score == pytest.approx(0.75)
        assert loaded.best.config["random_forest:n_estimators"] == 8

    def test_trial_records_are_byte_compatible(self, tmp_path):
        path = tmp_path / "run.jsonl"
        trial = TrialResult({"classifier:__choice__": "random_forest",
                             "random_forest:n_estimators": np.int64(8)},
                            0.75, 0.12, None, random_state=1608637542)
        with EventLog.opened(path) as log:
            _log_trial(log, 0, trial, 0.75)
        assert path.read_text(encoding="utf-8") == \
            LEGACY_RUN_LOG.splitlines(keepends=True)[0]

    def test_save_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "history.jsonl"
        self.make_history().save(path)
        assert len(OptimizationHistory.load(path)) == 3


@pytest.fixture()
def em_matrices(rng):
    n = 220
    y = (rng.random(n) < 0.2).astype(int)
    X = np.column_stack([
        np.clip(y * 0.8 + rng.normal(0.1, 0.25, n), 0, 1),
        rng.random(n),
        rng.random(n),
    ])
    X[rng.random(X.shape) < 0.05] = np.nan
    return X[:150], y[:150], X[150:], y[150:]


def _inject_failures(monkeypatch, fail_calls, exc_factory):
    """Make build_pipeline raise on the given 1-based call numbers."""
    from repro.automl import optimizer as optimizer_module

    original = optimizer_module.build_pipeline
    calls = {"n": 0}

    def sometimes_broken(config, random_state=0):
        calls["n"] += 1
        if calls["n"] in fail_calls:
            raise exc_factory()
        return original(config, random_state=random_state)

    monkeypatch.setattr(optimizer_module, "build_pipeline",
                        sometimes_broken)


class TestAutoMLIntegration:
    @pytest.mark.parametrize("exc_factory", [
        lambda: MemoryError("trial ate all the RAM"),
        lambda: OverflowError("overflow in preprocessor"),
        lambda: np.linalg.LinAlgError("PCA did not converge"),
    ])
    def test_search_survives_exploding_trials(self, em_matrices,
                                              monkeypatch, exc_factory):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="random", n_iterations=5, seed=0)
        _inject_failures(monkeypatch, {2, 4}, exc_factory)
        automl.fit(X_tr, y_tr, X_va, y_va)
        errors = [t for t in automl.history_.trials if t.error is not None]
        assert len(errors) == 2
        assert automl.best_score_ >= 0.0
        assert automl.predict(X_va).shape == y_va.shape

    def test_run_log_records_failures_and_summary(self, em_matrices,
                                                  monkeypatch, tmp_path):
        X_tr, y_tr, X_va, y_va = em_matrices
        path = tmp_path / "run.jsonl"
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="random", n_iterations=5, seed=0,
                        run_log=path)
        _inject_failures(monkeypatch, {2},
                         lambda: MemoryError("trial ate all the RAM"))
        automl.fit(X_tr, y_tr, X_va, y_va)
        records = read_events(path)
        trials = [r for r in records if r["type"] == "trial"]
        summaries = [r for r in records if r["type"] == "summary"]
        assert len(trials) == 5
        assert len(summaries) == 1
        assert "MemoryError" in trials[1]["error"]
        summary = summaries[0]
        assert summary["n_trials"] == 5
        assert summary["n_failed"] == 1
        assert summary["best_score"] == automl.best_score_
        assert summary["search"] == "random"
        assert summary["seed"] == 0
        assert summary["isolation"] == "none"
        assert summary["wall_time"] > 0
        # incumbent-so-far is monotone over successful trials
        curve = [t["incumbent_score"] for t in trials
                 if t["incumbent_score"] is not None]
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_run_log_is_valid_strict_json(self, em_matrices, tmp_path):
        X_tr, y_tr, X_va, y_va = em_matrices
        path = tmp_path / "run.jsonl"
        space = build_config_space(forest_size=8)
        AutoML(space, search="random", n_iterations=3, seed=0,
               run_log=path).fit(X_tr, y_tr, X_va, y_va)
        for line in path.read_text().splitlines():
            json.loads(line)  # every record parses on its own

    def test_resume_from_run_log(self, em_matrices, tmp_path):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        first_log = tmp_path / "first.jsonl"
        first = AutoML(space, search="random", n_iterations=3, seed=0,
                       run_log=first_log)
        first.fit(X_tr, y_tr, X_va, y_va)
        resumed_log = tmp_path / "resumed.jsonl"
        resumed = AutoML(space, search="random", n_iterations=6, seed=0,
                         run_log=resumed_log, resume_from=first_log)
        resumed.fit(X_tr, y_tr, X_va, y_va)
        assert len(resumed.history_) == 6
        for prior, replayed in zip(first.history_.trials,
                                   resumed.history_.trials):
            assert replayed.config == prior.config
            assert replayed.score == prior.score
            assert replayed.random_state == prior.random_state
        # the resumed run's log contains the *whole* run
        trials = [r for r in read_events(resumed_log)
                  if r["type"] == "trial"]
        assert len(trials) == 6
        assert resumed.best_score_ >= first.best_score_

    def test_resume_from_history_object(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        first = AutoML(space, search="random", n_iterations=2, seed=0)
        first.fit(X_tr, y_tr, X_va, y_va)
        resumed = AutoML(space, search="random", n_iterations=4, seed=0,
                         resume_from=first.history_)
        resumed.fit(X_tr, y_tr, X_va, y_va)
        assert len(resumed.history_) == 4
        assert resumed.history_.trials[0].config == \
            first.history_.trials[0].config

    def test_resume_keeps_pipeline_seed_stream_aligned(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        uninterrupted = AutoML(space, search="random", n_iterations=4,
                               seed=3)
        uninterrupted.fit(X_tr, y_tr, X_va, y_va)
        partial = AutoML(space, search="random", n_iterations=2, seed=3)
        partial.fit(X_tr, y_tr, X_va, y_va)
        resumed = AutoML(space, search="random", n_iterations=4, seed=3,
                         resume_from=partial.history_)
        resumed.fit(X_tr, y_tr, X_va, y_va)
        states = [t.random_state for t in resumed.history_.trials]
        expected = [t.random_state for t in uninterrupted.history_.trials]
        assert states == expected

    def test_resume_past_budget_just_reconstructs(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        first = AutoML(space, search="random", n_iterations=3, seed=0)
        first.fit(X_tr, y_tr, X_va, y_va)
        resumed = AutoML(space, search="random", n_iterations=3, seed=0,
                         resume_from=first.history_)
        resumed.fit(X_tr, y_tr, X_va, y_va)
        assert len(resumed.history_) == 3
        assert resumed.best_score_ == first.best_score_
        assert resumed.best_config_ == first.best_config_

    @pytest.mark.trial_timeout
    def test_hung_trial_times_out_and_search_completes(
            self, em_matrices, monkeypatch, tmp_path, fast_trial_timeout):
        X_tr, y_tr, X_va, y_va = em_matrices
        from repro.automl import optimizer as optimizer_module

        original = optimizer_module.build_pipeline
        calls = {"n": 0}

        def sometimes_hangs(config, random_state=0):
            calls["n"] += 1
            if calls["n"] == 2:
                time.sleep(30)
            return original(config, random_state=random_state)

        monkeypatch.setattr(optimizer_module, "build_pipeline",
                            sometimes_hangs)
        path = tmp_path / "run.jsonl"
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="random", n_iterations=4, seed=0,
                        trial_timeout=fast_trial_timeout, run_log=path)
        started = time.monotonic()
        automl.fit(X_tr, y_tr, X_va, y_va)
        assert time.monotonic() - started < 20.0
        timeouts = [t for t in automl.history_.trials
                    if t.error and "TrialTimeout" in t.error]
        assert len(timeouts) == 1
        assert automl.best_score_ >= 0.0
        logged = [r for r in read_events(path) if r["type"] == "trial"]
        assert sum(1 for r in logged
                   if r["error"] and "TrialTimeout" in r["error"]) == 1

    def test_trial_random_state_recorded_and_reused(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="random", n_iterations=4, seed=0)
        automl.fit(X_tr, y_tr, X_va, y_va)
        assert all(t.random_state is not None
                   for t in automl.history_.trials)
        best = automl.history_.best
        assert automl.best_random_state_ == best.random_state
        # The deployed pipeline is the exact model that earned
        # best_score_: re-scoring it on the holdout reproduces the score.
        from repro.ml.metrics import f1_score
        rescored = f1_score(y_va, automl.best_pipeline_.predict(X_va))
        assert rescored == pytest.approx(automl.best_score_)
