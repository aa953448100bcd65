"""Tests for imputation, scaling, balancing and the chi2 shift."""

import numpy as np
import pytest

from repro.ml import (
    MinMaxScaler,
    NonNegativeShift,
    Normalizer,
    RandomOverSampler,
    RobustScaler,
    SimpleImputer,
    StandardScaler,
)


@pytest.fixture()
def matrix_with_nan():
    return np.asarray([[1.0, np.nan, 3.0],
                       [2.0, 4.0, np.nan],
                       [3.0, 6.0, 9.0]])


class TestSimpleImputer:
    def test_mean_strategy(self, matrix_with_nan):
        out = SimpleImputer("mean").fit_transform(matrix_with_nan)
        assert out[0, 1] == pytest.approx(5.0)
        assert out[1, 2] == pytest.approx(6.0)
        assert not np.isnan(out).any()

    def test_median_strategy(self):
        X = np.asarray([[1.0], [2.0], [100.0], [np.nan]])
        out = SimpleImputer("median").fit_transform(X)
        assert out[3, 0] == 2.0

    def test_constant_strategy(self, matrix_with_nan):
        out = SimpleImputer("constant", fill_value=-1.0).fit_transform(
            matrix_with_nan)
        assert out[0, 1] == -1.0

    def test_all_missing_column_falls_back(self):
        X = np.asarray([[np.nan], [np.nan]])
        out = SimpleImputer("mean", fill_value=0.0).fit_transform(X)
        assert np.all(out == 0.0)

    def test_transform_uses_train_statistics(self, matrix_with_nan):
        imputer = SimpleImputer("mean").fit(matrix_with_nan)
        fresh = np.asarray([[np.nan, np.nan, np.nan]])
        out = imputer.transform(fresh)
        assert out[0, 0] == pytest.approx(2.0)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            SimpleImputer("mode")


class TestScalers:
    def test_standard_scaler_zero_mean_unit_var(self, rng):
        X = rng.normal(5.0, 3.0, size=(200, 4))
        out = StandardScaler().fit_transform(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_column(self):
        X = np.ones((10, 2))
        out = StandardScaler().fit_transform(X)
        assert not np.isnan(out).any()

    def test_minmax_range(self, rng):
        X = rng.normal(size=(50, 3))
        out = MinMaxScaler().fit_transform(X)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_minmax_transform_can_exceed_range(self):
        scaler = MinMaxScaler().fit(np.asarray([[0.0], [1.0]]))
        assert scaler.transform(np.asarray([[2.0]]))[0, 0] == 2.0

    def test_robust_scaler_centers_on_median(self, rng):
        X = rng.normal(size=(201, 2))
        out = RobustScaler().fit_transform(X)
        assert np.allclose(np.median(out, axis=0), 0.0, atol=1e-9)

    def test_robust_scaler_outlier_insensitive(self):
        X = np.concatenate([np.linspace(0, 1, 99), [1000.0]]).reshape(-1, 1)
        robust = RobustScaler().fit(X)
        standard = StandardScaler().fit(X)
        # The outlier inflates std dramatically but not the IQR.
        assert robust.scale_[0] < standard.scale_[0]

    def test_robust_scaler_quantile_validation(self):
        with pytest.raises(ValueError, match="q_min"):
            RobustScaler(q_min=-5)
        with pytest.raises(ValueError, match="q_max"):
            RobustScaler(q_min=60, q_max=50)

    def test_normalizer_unit_rows(self, rng):
        X = rng.normal(size=(20, 5))
        out = Normalizer().fit_transform(X)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_normalizer_zero_row(self):
        out = Normalizer().fit_transform(np.zeros((2, 3)))
        assert not np.isnan(out).any()


class TestNonNegativeShift:
    def test_output_non_negative(self, rng):
        X = rng.normal(size=(30, 4))
        out = NonNegativeShift().fit_transform(X)
        assert np.all(out >= 0)

    def test_new_lower_values_clip(self):
        shifter = NonNegativeShift().fit(np.asarray([[0.0], [2.0]]))
        assert shifter.transform(np.asarray([[-5.0]]))[0, 0] == 0.0


class TestBalancing:
    def test_oversampler_balances(self, rng):
        X = rng.normal(size=(100, 2))
        y = np.asarray([0] * 90 + [1] * 10)
        X_out, y_out = RandomOverSampler(random_state=0).fit_resample(X, y)
        values, counts = np.unique(y_out, return_counts=True)
        assert counts[0] == counts[1] == 90

    def test_oversampler_only_duplicates_minority(self, rng):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.asarray([0] * 15 + [1] * 5)
        X_out, y_out = RandomOverSampler(random_state=1).fit_resample(X, y)
        minority_values = set(X_out[y_out == 1, 0].tolist())
        assert minority_values <= set(X[y == 1, 0].tolist())
