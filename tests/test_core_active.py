"""Tests for AutoML-EM-Active (Algorithm 1)."""

import math

import numpy as np
import pytest

from repro.core import AutoMLEMActive


@pytest.fixture(scope="module")
def pool_and_test():
    from repro.data.synthetic import load_benchmark
    benchmark = load_benchmark("fodors_zagats", seed=9, scale=0.5)
    train, valid, test = benchmark.splits(seed=0)
    return train.concat(valid), test


AUTOML_KWARGS = dict(n_iterations=3, forest_size=8, seed=0)


def make_active(**overrides):
    kwargs = dict(init_size=60, ac_batch=5, st_batch=20, n_iterations=3,
                  inner_forest_size=8, automl_kwargs=AUTOML_KWARGS, seed=0)
    kwargs.update(overrides)
    return AutoMLEMActive(**kwargs)


class TestAlgorithmOne:
    def test_runs_and_evaluates(self, pool_and_test):
        pool, test = pool_and_test
        active = make_active().fit(pool)
        result = active.evaluate(test)
        assert result["f1"] > 0.6

    def test_human_labels_counted(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active().fit(pool)
        # init (>= 60, both-classes top-up allowed) + 3 iterations x 5
        assert active.human_label_count_ >= 60 + 15
        assert active.oracle_.queries_used == active.human_label_count_

    def test_machine_labels_counted(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active().fit(pool)
        assert active.machine_label_count_ == \
            sum(it.machine_labels for it in active.history_.iterations)
        assert active.machine_label_count_ > 0

    def test_st_zero_is_pure_active_learning(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active(st_batch=0).fit(pool)
        assert active.machine_label_count_ == 0

    def test_st_zero_accuracy_is_nan_not_one(self, pool_and_test):
        # Regression: iterations that adopt no machine labels used to
        # report accuracy 1.0, inflating per-iteration stats.
        pool, _ = pool_and_test
        active = make_active(st_batch=0).fit(pool)
        assert active.history_.iterations
        for it in active.history_.iterations:
            assert math.isnan(it.machine_label_accuracy)
        assert math.isnan(active.history_.mean_machine_label_accuracy)

    def test_mean_machine_label_accuracy_ignores_nan(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active().fit(pool)
        mean = active.history_.mean_machine_label_accuracy
        values = [it.machine_label_accuracy
                  for it in active.history_.iterations
                  if not math.isnan(it.machine_label_accuracy)]
        assert values
        assert mean == pytest.approx(float(np.mean(values)))

    def test_machine_labels_mostly_correct_on_easy_data(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active().fit(pool)
        accuracies = [it.machine_label_accuracy
                      for it in active.history_.iterations]
        assert np.mean(accuracies) > 0.9

    def test_label_budget_respected(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active(label_budget=70, n_iterations=10).fit(pool)
        assert active.oracle_.queries_used <= 70

    def test_label_budget_equal_to_init_size(self, pool_and_test):
        # Regression: the class-coverage seed loop used to keep paying
        # for random draws after the budget was spent, tripping the
        # oracle's LabelBudgetExceeded guard when budget == init_size.
        pool, _ = pool_and_test
        active = make_active(init_size=60, label_budget=60,
                             n_iterations=5).fit(pool)
        assert active.oracle_.queries_used <= 60
        assert active.oracle_.remaining == 0
        assert active.machine_label_count_ == 0  # no budget left to loop

    def test_label_budget_smaller_than_init_size(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active(init_size=60, label_budget=40,
                             n_iterations=5).fit(pool)
        assert active.oracle_.queries_used <= 40

    def test_seed_loop_stops_at_budget(self, pool_and_test):
        # Even when the init draw lands on a single class, the coverage
        # top-up must stop at the budget instead of raising.
        pool, _ = pool_and_test
        for seed in range(5):
            active = make_active(init_size=4, label_budget=6,
                                 n_iterations=2, seed=seed).fit(pool)
            assert active.oracle_.queries_used <= 6

    def test_history_tracks_pool_shrinkage(self, pool_and_test):
        pool, _ = pool_and_test
        active = make_active().fit(pool)
        remaining = [it.pool_remaining for it in active.history_.iterations]
        assert all(b < a for a, b in zip(remaining, remaining[1:]))

    def test_precomputed_features_path(self, pool_and_test):
        pool, test = pool_and_test
        from repro.features import make_autoem_features
        generator = make_autoem_features(pool.table_a, pool.table_b)
        X_pool = generator.transform(pool)
        active = make_active()
        active.fit(pool, X_pool=X_pool, feature_generator=generator)
        X_test = generator.transform(test)
        assert active.evaluate_matrix(X_test, test.labels)["f1"] > 0.6

    def test_feature_matrix_length_mismatch(self, pool_and_test):
        pool, _ = pool_and_test
        with pytest.raises(ValueError, match="rows for"):
            make_active().fit(pool, X_pool=np.zeros((3, 4)))

    def test_unfitted_raises(self, pool_and_test):
        _, test = pool_and_test
        with pytest.raises(RuntimeError, match="not fitted"):
            make_active().evaluate(test)

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="init_size"):
            AutoMLEMActive(init_size=1)
        with pytest.raises(ValueError, match="batch sizes"):
            AutoMLEMActive(ac_batch=-1)

    def test_small_init_topped_up_to_two_classes(self, pool_and_test):
        pool, _ = pool_and_test
        # tiny init likely misses positives; fit must still work
        active = make_active(init_size=4, n_iterations=2).fit(pool)
        assert hasattr(active, "matcher_")

    def test_seed_determinism(self, pool_and_test):
        pool, test = pool_and_test
        r1 = make_active(seed=5).fit(pool).evaluate(test)["f1"]
        r2 = make_active(seed=5).fit(pool).evaluate(test)["f1"]
        assert r1 == r2
