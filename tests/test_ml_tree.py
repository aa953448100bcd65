"""Tests for the CART decision trees."""

import hashlib

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
    f1_score,
)
from repro.ml.tree import resolve_max_features


class TestMaxFeaturesResolution:
    @pytest.mark.parametrize("value,n,expected", [
        (None, 20, 20), ("sqrt", 16, 4), ("log2", 16, 4),
        (5, 20, 5), (50, 20, 20), (0.5, 20, 10), (1.0, 20, 20),
    ])
    def test_values(self, value, n, expected):
        assert resolve_max_features(value, n) == expected

    def test_invalid_float(self):
        with pytest.raises(ValueError, match="float max_features"):
            resolve_max_features(1.5, 10)

    def test_invalid_string(self):
        with pytest.raises(ValueError, match="unknown max_features"):
            resolve_max_features("cube", 10)

    def test_invalid_int(self):
        with pytest.raises(ValueError, match="max_features must be"):
            resolve_max_features(0, 10)


class TestClassifier:
    def test_separable_data_perfect(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        tree = DecisionTreeClassifier(random_state=0).fit(X_train, y_train)
        assert f1_score(y_test, tree.predict(X_test)) > 0.9

    def test_predict_proba_sums_to_one(self, blob_data):
        X_train, y_train, X_test, _ = blob_data
        tree = DecisionTreeClassifier().fit(X_train, y_train)
        probs = tree.predict_proba(X_test)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_max_depth_one_is_a_stump(self, noisy_data):
        X_train, y_train, _, _ = noisy_data
        tree = DecisionTreeClassifier(max_depth=1).fit(X_train, y_train)
        assert tree.tree_.n_leaves <= 2

    def test_min_samples_leaf_respected(self, noisy_data):
        X_train, y_train, _, _ = noisy_data
        tree = DecisionTreeClassifier(min_samples_leaf=30).fit(X_train,
                                                               y_train)
        leaves = tree.tree_.apply(np.asarray(X_train, dtype=np.float64))
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 30

    def test_entropy_criterion_works(self, blob_data):
        X_train, y_train, X_test, y_test = blob_data
        tree = DecisionTreeClassifier(criterion="entropy").fit(X_train,
                                                               y_train)
        assert f1_score(y_test, tree.predict(X_test)) > 0.9

    def test_invalid_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="mse")

    def test_affine_rescaling_invariance(self, noisy_data):
        """CART partitions are invariant to per-feature affine maps."""
        X_train, y_train, X_test, _ = noisy_data
        tree1 = DecisionTreeClassifier(random_state=3).fit(X_train, y_train)
        scale = np.arange(1, X_train.shape[1] + 1) * 2.5
        shift = np.linspace(-3, 3, X_train.shape[1])
        tree2 = DecisionTreeClassifier(random_state=3).fit(
            X_train * scale + shift, y_train)
        np.testing.assert_array_equal(tree1.predict(X_test),
                                      tree2.predict(X_test * scale + shift))

    def test_sample_weight_zero_is_removal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] > 0).astype(int)
        # Poison half the data with wrong labels but zero weight.
        X_all = np.vstack([X, X])
        y_all = np.concatenate([y, 1 - y])
        weights = np.concatenate([np.ones(100), np.zeros(100)])
        tree1 = DecisionTreeClassifier(random_state=1).fit(
            X_all, y_all, sample_weight=weights)
        tree2 = DecisionTreeClassifier(random_state=1).fit(X, y)
        probe = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(tree1.predict(probe),
                                      tree2.predict(probe))

    def test_class_weight_balanced_boosts_minority_recall(self):
        rng = np.random.default_rng(2)
        n_major, n_minor = 450, 50
        X = np.vstack([rng.normal(-0.3, 1.0, size=(n_major, 3)),
                       rng.normal(+0.9, 1.0, size=(n_minor, 3))])
        y = np.concatenate([np.zeros(n_major, dtype=int),
                            np.ones(n_minor, dtype=int)])
        plain = DecisionTreeClassifier(max_depth=3, random_state=0)
        balanced = DecisionTreeClassifier(max_depth=3, random_state=0,
                                          class_weight="balanced")
        plain.fit(X, y)
        balanced.fit(X, y)
        assert balanced.predict(X).sum() >= plain.predict(X).sum()

    def test_string_class_labels(self):
        X = np.asarray([[0.0], [1.0], [2.0], [3.0]])
        y = np.asarray(["no", "no", "yes", "yes"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert set(tree.predict(X)) <= {"no", "yes"}

    def test_nan_input_rejected(self):
        X = np.asarray([[np.nan], [1.0]])
        with pytest.raises(ValueError, match="impute"):
            DecisionTreeClassifier().fit(X, [0, 1])

    def test_predict_before_fit(self):
        from repro.ml import NotFittedError
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_single_class_training(self):
        X = np.asarray([[1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(X, [1, 1])
        assert tree.predict(X).tolist() == [1, 1]

    def test_single_class_forest(self):
        """A forest fits one class, as its bootstrap trees may see one."""
        X = np.random.default_rng(0).normal(size=(20, 3))
        forest = RandomForestClassifier(n_estimators=3).fit(
            X, np.ones(20, dtype=int))
        assert forest.predict(X).tolist() == [1] * 20
        np.testing.assert_array_equal(forest.predict_proba(X),
                                      np.ones((20, 1)))

    def test_constant_features_make_leaf(self):
        X = np.ones((10, 3))
        y = np.asarray([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_.n_leaves == 1


class TestRegressor:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        predictions = tree.predict(X)
        assert predictions[10] == pytest.approx(0.0, abs=0.5)
        assert predictions[90] == pytest.approx(10.0, abs=0.5)

    def test_reduces_mse_with_depth(self, noisy_data):
        X_train, y_train, X_test, y_test = noisy_data
        y_train = y_train.astype(float)
        y_test = y_test.astype(float)
        mses = []
        for depth in (1, 3, 6):
            tree = DecisionTreeRegressor(max_depth=depth).fit(X_train,
                                                              y_train)
            mses.append(((tree.predict(X_test) - y_test) ** 2).mean())
        assert mses[0] >= mses[-1]

    def test_constant_target(self):
        X = np.random.default_rng(0).normal(size=(20, 2))
        tree = DecisionTreeRegressor().fit(X, np.full(20, 3.5))
        assert np.allclose(tree.predict(X), 3.5)


@pytest.mark.parametrize("model", [
    LogisticRegression, LinearSVC, GradientBoostingClassifier,
    DecisionTreeClassifier, RandomForestClassifier, ExtraTreesClassifier,
    AdaBoostClassifier,
], ids=lambda model: model.__name__)
def test_multiclass_rejected(model):
    """Entity matching is two-class; every classifier refuses three."""
    X = np.random.default_rng(0).normal(size=(30, 2))
    with pytest.raises(ValueError, match="binary-only"):
        model().fit(X, np.arange(30) % 3)


def _tree_digest(trees) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        t = tree.tree_
        for array in (t.feature, t.threshold, t.left, t.right, t.value):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class TestPinnedGrowth:
    """Node-for-node pins of tree growth: every split, threshold and leaf.

    Gini and MSE scoring use only + - * /, cumsum and stable argsort, so
    the bytes should not depend on the CPU.  Entropy (log2) and the
    extra-trees splitter (a BLAS matrix product) are left out.  After a
    change that is meant to grow the same trees, these digests must not
    move; a change that regrows them on purpose records new ones.
    """

    @staticmethod
    def _data():
        rng = np.random.default_rng(7)
        X = rng.normal(size=(240, 8))
        X[:, :4] = np.round(X[:, :4], 1)          # tied values
        y = X[:, 0] + 0.5 * X[:, 5] + rng.normal(scale=0.8, size=240) > 0.8
        return X, y

    def test_random_forest_gini_balanced_string_labels(self):
        X, y = self._data()
        labels = np.where(y, "match", "non-match")
        forest = RandomForestClassifier(
            n_estimators=8, criterion="gini", class_weight="balanced",
            min_samples_leaf=3, random_state=0).fit(X, labels)
        assert _tree_digest(forest.estimators_) == (
            "d44c2f07525acc98af6cd95d430a6890bbbe802f228423b18dcf6cb5b12995f4")

    def test_regressor_mse(self):
        X, y = self._data()
        tree = DecisionTreeRegressor(max_depth=6).fit(X, X[:, 1] - 2.0 * y)
        assert _tree_digest([tree]) == (
            "9aa39e4be085f11d245ed6104423016820235204deb16e36c33e60a8c67e30a4")
