"""Tests for univariate scores and feature selectors."""

import numpy as np
import pytest

from repro.ml import (
    SelectKBest,
    SelectPercentile,
    SelectRates,
    TreeFeatureSelector,
    chi2,
    f_classif,
)


@pytest.fixture()
def labeled_data(rng):
    """Feature 0 is strongly informative, 1 weakly, 2-4 pure noise."""
    n = 300
    y = rng.integers(0, 2, n)
    X = np.column_stack([
        y * 2.0 + rng.normal(0, 0.3, n),
        y * 0.4 + rng.normal(0, 1.0, n),
        rng.normal(0, 1.0, n),
        rng.normal(0, 1.0, n),
        rng.normal(0, 1.0, n),
    ])
    return X, y


class TestFClassif:
    def test_informative_feature_scores_highest(self, labeled_data):
        X, y = labeled_data
        scores, p_values = f_classif(X, y)
        assert np.argmax(scores) == 0
        assert np.argmin(p_values) == 0

    def test_pvalues_in_range(self, labeled_data):
        X, y = labeled_data
        _, p_values = f_classif(X, y)
        assert np.all((p_values >= 0) & (p_values <= 1))

    def test_constant_feature_worst_pvalue(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = rng.integers(0, 2, 50)
        _, p_values = f_classif(X, y)
        assert p_values[0] == 1.0

    def test_single_class_raises(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="at least 2 classes"):
            f_classif(X, np.zeros(10, dtype=int))


class TestChi2:
    def test_informative_counts(self, rng):
        n = 400
        y = rng.integers(0, 2, n)
        X = np.column_stack([
            y * 3.0,                     # perfectly informative counts
            rng.integers(0, 4, n),       # noise
        ]).astype(float)
        scores, _ = chi2(X, y)
        assert scores[0] > scores[1]

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chi2(np.asarray([[-1.0]]), np.asarray([0]))

    def test_zero_column_worst_pvalue(self, rng):
        X = np.column_stack([np.zeros(30), rng.random(30)])
        y = rng.integers(0, 2, 30)
        _, p_values = chi2(X, y)
        assert p_values[0] == 1.0


class TestSelectPercentile:
    def test_keeps_expected_count(self, labeled_data):
        X, y = labeled_data
        out = SelectPercentile(percentile=40).fit_transform(X, y)
        assert out.shape[1] == 2

    def test_informative_feature_survives(self, labeled_data):
        X, y = labeled_data
        selector = SelectPercentile(percentile=20).fit(X, y)
        assert selector.support_[0]

    def test_never_empty(self, labeled_data):
        X, y = labeled_data
        out = SelectPercentile(percentile=1).fit_transform(X, y)
        assert out.shape[1] >= 1

    def test_invalid_percentile(self):
        with pytest.raises(ValueError, match="percentile"):
            SelectPercentile(percentile=0)

    def test_chi2_score_func(self, rng):
        X = np.abs(rng.normal(size=(60, 4)))
        y = rng.integers(0, 2, 60)
        out = SelectPercentile(50, score_func="chi2").fit_transform(X, y)
        assert out.shape == (60, 2)

    def test_unknown_score_func(self, labeled_data):
        X, y = labeled_data
        with pytest.raises(ValueError, match="unknown score_func"):
            SelectPercentile(50, score_func="anova").fit(X, y)


class TestSelectKBest:
    def test_k_features(self, labeled_data):
        X, y = labeled_data
        assert SelectKBest(k=3).fit_transform(X, y).shape[1] == 3

    def test_k_capped_at_width(self, labeled_data):
        X, y = labeled_data
        assert SelectKBest(k=50).fit_transform(X, y).shape[1] == X.shape[1]


class TestSelectRates:
    def test_fpr_keeps_informative(self, labeled_data):
        X, y = labeled_data
        selector = SelectRates(alpha=0.01, mode="fpr").fit(X, y)
        assert selector.support_[0]
        # most pure-noise features should be dropped
        assert selector.support_[2:].sum() <= 1

    def test_fdr_and_fwe_run(self, labeled_data):
        X, y = labeled_data
        for mode in ("fdr", "fwe"):
            out = SelectRates(alpha=0.05, mode=mode).fit_transform(X, y)
            assert out.shape[1] >= 1

    def test_fwe_stricter_than_fpr(self, labeled_data):
        X, y = labeled_data
        fpr = SelectRates(alpha=0.2, mode="fpr").fit(X, y).support_.sum()
        fwe = SelectRates(alpha=0.2, mode="fwe").fit(X, y).support_.sum()
        assert fwe <= fpr

    def test_never_empty(self, rng):
        X = rng.normal(size=(50, 5))
        y = rng.integers(0, 2, 50)
        out = SelectRates(alpha=1e-12, mode="fwe").fit_transform(X, y)
        assert out.shape[1] == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="alpha"):
            SelectRates(alpha=0.0)
        with pytest.raises(ValueError, match="mode"):
            SelectRates(mode="bonferroni")


class TestTreeSelector:
    def test_informative_survives(self, labeled_data):
        X, y = labeled_data
        selector = TreeFeatureSelector(n_estimators=10,
                                       random_state=0).fit(X, y)
        assert selector.support_[0]
        assert selector.transform(X).shape[1] < X.shape[1]
