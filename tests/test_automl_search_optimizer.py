"""Tests for the search algorithms and the AutoML optimizer."""

import numpy as np
import pytest

from repro.automl import (
    AutoML,
    Categorical,
    ConfigurationSpace,
    RandomSearch,
    SMACSearch,
    TPESearch,
    UniformFloat,
    build_config_space,
    make_search,
)


@pytest.fixture()
def toy_space():
    """A 2-dim space with a known optimum at x≈0.7, kind='good'."""
    s = ConfigurationSpace()
    s.add(UniformFloat("x", 0.0, 1.0))
    s.add(Categorical("kind", ["good", "bad"]))
    return s


def toy_objective(config) -> float:
    base = 1.0 - abs(config["x"] - 0.7)
    return base if config["kind"] == "good" else base * 0.3


def run_search(search, budget=40):
    history = []
    for _ in range(budget):
        config = search.propose(history)
        history.append((config, toy_objective(config)))
    return max(score for _, score in history)


class TestSearchAlgorithms:
    def test_factory(self, toy_space):
        assert isinstance(make_search("random", toy_space), RandomSearch)
        assert isinstance(make_search("smac", toy_space), SMACSearch)
        assert isinstance(make_search("tpe", toy_space), TPESearch)

    def test_factory_unknown(self, toy_space):
        with pytest.raises(ValueError, match="unknown search"):
            make_search("grid", toy_space)

    def test_random_search_samples_valid_configs(self, toy_space):
        search = RandomSearch(toy_space, seed=0)
        for _ in range(20):
            config = search.propose([])
            assert set(config) == {"x", "kind"}

    def test_smac_finds_good_region(self, toy_space):
        best = run_search(SMACSearch(toy_space, seed=1, n_initial=6))
        assert best > 0.9

    def test_tpe_finds_good_region(self, toy_space):
        best = run_search(TPESearch(toy_space, seed=1, n_initial=6))
        assert best > 0.85

    def test_smac_beats_or_matches_random_on_average(self, toy_space):
        smac_scores, random_scores = [], []
        for seed in range(3):
            smac_scores.append(
                run_search(SMACSearch(toy_space, seed=seed, n_initial=5),
                           budget=25))
            random_scores.append(
                run_search(RandomSearch(toy_space, seed=seed), budget=25))
        assert np.mean(smac_scores) >= np.mean(random_scores) - 0.02

    def test_warm_start_phase_is_random(self, toy_space):
        search = SMACSearch(toy_space, seed=0, n_initial=10)
        # with fewer than n_initial evaluations, proposals are just samples
        config = search.propose([({"x": 0.5, "kind": "good"}, 0.8)])
        assert set(config) == {"x", "kind"}


class TestAutoML:
    @pytest.fixture()
    def em_matrices(self, rng):
        n = 220
        y = (rng.random(n) < 0.2).astype(int)
        X = np.column_stack([
            np.clip(y * 0.8 + rng.normal(0.1, 0.25, n), 0, 1),
            rng.random(n),
            rng.random(n),
        ])
        X[rng.random(X.shape) < 0.05] = np.nan
        return X[:150], y[:150], X[150:], y[150:]

    def test_fit_finds_working_pipeline(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="smac", n_iterations=8, seed=0)
        automl.fit(X_tr, y_tr, X_va, y_va)
        assert 0.0 <= automl.best_score_ <= 1.0
        assert automl.predict(X_va).shape == y_va.shape
        assert len(automl.history_) == 8

    def test_incumbent_curve_monotone(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, search="random", n_iterations=6, seed=1)
        automl.fit(X_tr, y_tr, X_va, y_va)
        curve = automl.history_.incumbent_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))
        assert curve[-1] == automl.best_score_

    def test_time_budget_stops_early(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, n_iterations=1000, time_budget=1.5, seed=0)
        automl.fit(X_tr, y_tr, X_va, y_va)
        assert len(automl.history_) < 1000

    def test_refit_on_combined_data(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, n_iterations=4, seed=0)
        automl.fit(X_tr, y_tr, X_va, y_va)
        automl.refit(np.vstack([X_tr, X_va]), np.concatenate([y_tr, y_va]))
        assert automl.predict(X_va).shape == y_va.shape

    def test_failing_trials_are_penalized_not_fatal(self, em_matrices,
                                                    monkeypatch):
        X_tr, y_tr, X_va, y_va = em_matrices
        space = build_config_space(forest_size=8)
        automl = AutoML(space, n_iterations=5, seed=0)

        from repro.automl import optimizer as optimizer_module
        original = optimizer_module.build_pipeline
        calls = {"n": 0}

        def sometimes_broken(config, random_state=0):
            calls["n"] += 1
            if calls["n"] in (2, 4):  # fail two of the five trials
                raise ValueError("injected failure")
            return original(config, random_state=random_state)

        monkeypatch.setattr(optimizer_module, "build_pipeline",
                            sometimes_broken)
        automl.fit(X_tr, y_tr, X_va, y_va)
        errors = [t for t in automl.history_.trials if t.error is not None]
        assert errors  # failures recorded
        assert automl.best_score_ >= 0.0  # and the run still succeeded

    def test_unfitted_access_raises(self):
        space = build_config_space(forest_size=8)
        automl = AutoML(space)
        with pytest.raises(RuntimeError, match="not fitted"):
            automl.predict(np.zeros((1, 3)))

    def test_invalid_iterations(self):
        space = build_config_space(forest_size=8)
        with pytest.raises(ValueError, match="n_iterations"):
            AutoML(space, n_iterations=0)

    def test_score_uses_configured_scorer(self, em_matrices):
        X_tr, y_tr, X_va, y_va = em_matrices
        calls = []

        def accuracy(y_true, y_pred):
            calls.append(len(y_true))
            return float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))

        space = build_config_space(forest_size=8)
        automl = AutoML(space, n_iterations=3, scorer=accuracy, seed=0)
        automl.fit(X_tr, y_tr, X_va, y_va)
        assert calls, "the search never called the custom scorer"
        assert automl.score(X_va, y_va) == pytest.approx(
            accuracy(y_va, automl.predict(X_va)))
