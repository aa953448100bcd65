"""Tests for the AutoMLEM matcher (pair-set level API)."""

import numpy as np
import pytest

from repro.core import AutoMLEM


@pytest.fixture(scope="module")
def splits(request):
    from repro.data.synthetic import load_benchmark
    benchmark = load_benchmark("fodors_zagats", seed=7, scale=0.35)
    return benchmark.splits(seed=0)


@pytest.fixture(scope="module")
def fitted(splits):
    train, valid, _ = splits
    matcher = AutoMLEM(n_iterations=5, forest_size=8, seed=0)
    matcher.fit(train, valid)
    return matcher


class TestFit:
    def test_high_f1_on_easy_dataset(self, fitted, splits):
        _, _, test = splits
        assert fitted.evaluate(test)["f1"] > 0.85

    def test_evaluate_returns_all_metrics(self, fitted, splits):
        _, _, test = splits
        result = fitted.evaluate(test)
        assert set(result) == {"precision", "recall", "f1"}
        assert all(0.0 <= v <= 1.0 for v in result.values())

    def test_predictions_binary(self, fitted, splits):
        _, _, test = splits
        assert set(fitted.predict(test).tolist()) <= {0, 1}

    def test_predict_proba_shape(self, fitted, splits):
        _, _, test = splits
        assert fitted.predict_proba(test).shape == (len(test), 2)

    def test_best_config_is_rf_only(self, fitted):
        assert fitted.best_config_["classifier:__choice__"] == "random_forest"

    def test_history_length(self, fitted):
        assert len(fitted.history_) == 5

    def test_describe_pipeline(self, fitted):
        text = fitted.describe_pipeline()
        assert "random_forest" in text

    def test_feature_generator_uses_table2(self, fitted, splits):
        train, _, _ = splits
        # 6 attributes: 5 string x16 + 1 numeric x4 = 84
        assert fitted.feature_generator_.num_features == 84


class TestConfiguration:
    def test_magellan_feature_plan_option(self, splits):
        train, valid, _ = splits
        matcher = AutoMLEM(feature_plan="magellan", n_iterations=2,
                           forest_size=8, seed=0)
        matcher.fit(train, valid)
        assert matcher.feature_generator_.num_features < 84

    def test_invalid_feature_plan(self):
        with pytest.raises(ValueError, match="feature_plan"):
            AutoMLEM(feature_plan="all")

    def test_all_model_space(self, splits):
        train, valid, _ = splits
        matcher = AutoMLEM(model_space="all", n_iterations=3,
                           forest_size=8, seed=0)
        matcher.fit(train, valid)
        assert matcher.best_score_ > 0.5

    def test_ablation_flags_reach_space(self, splits):
        train, valid, _ = splits
        matcher = AutoMLEM(include_data_preprocessing=False,
                           include_feature_preprocessing=False,
                           n_iterations=2, forest_size=8, seed=0)
        matcher.fit(train, valid)
        assert "rescaling:__choice__" not in matcher.best_config_
        assert "preprocessor:__choice__" not in matcher.best_config_

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            AutoMLEM().best_config_

    def test_fit_matrices_path(self, rng):
        n = 120
        y = (rng.random(n) < 0.3).astype(int)
        X = np.column_stack([y + rng.normal(0, 0.2, n), rng.random(n)])
        matcher = AutoMLEM(n_iterations=3, forest_size=8, seed=0)
        matcher.fit_matrices(X[:80], y[:80], X[80:], y[80:])
        assert matcher.evaluate_matrix(X[80:], y[80:])["f1"] > 0.7
        with pytest.raises(RuntimeError, match="fitted from matrices"):
            matcher.predict("not-a-matrix-path")


class TestTelemetry:
    def test_run_log_summary_names_the_feature_plan(self, splits, tmp_path):
        from repro.events import read_events

        train, valid, _ = splits
        path = tmp_path / "em-run.jsonl"
        matcher = AutoMLEM(n_iterations=3, forest_size=8, seed=0,
                           run_log=path)
        matcher.fit(train, valid)
        records = read_events(path)
        summary = [r for r in records if r["type"] == "summary"][0]
        assert summary["feature_plan"] == "autoem"
        assert sum(1 for r in records if r["type"] == "trial") == 3

    def test_trial_knobs_reach_automl(self, rng):
        n = 80
        y = (rng.random(n) < 0.3).astype(int)
        X = np.column_stack([y + rng.normal(0, 0.2, n), rng.random(n)])
        matcher = AutoMLEM(n_iterations=2, forest_size=8, seed=0,
                           trial_timeout=30.0, trial_isolation="none")
        matcher.fit_matrices(X[:60], y[:60], X[60:], y[60:])
        assert matcher.automl_.trial_timeout == 30.0
        assert matcher.automl_.trial_isolation == "none"

    def test_active_run_log_passthrough(self, tmp_path):
        from repro.core import AutoMLEMActive

        active = AutoMLEMActive(
            init_size=10, trial_timeout=5.0,
            run_log=tmp_path / "active.jsonl",
            automl_kwargs=dict(n_iterations=2, forest_size=8))
        assert active.automl_kwargs["trial_timeout"] == 5.0
        assert active.automl_kwargs["run_log"] == tmp_path / "active.jsonl"
        # explicit automl_kwargs win over the shorthand
        explicit = AutoMLEMActive(
            init_size=10, trial_timeout=5.0,
            automl_kwargs=dict(trial_timeout=1.0))
        assert explicit.automl_kwargs["trial_timeout"] == 1.0
