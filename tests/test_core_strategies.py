"""Tests for the active-learning query strategies."""

import numpy as np
import pytest

from repro.core import (
    CommitteeStrategy,
    QueryStrategy,
    RandomStrategy,
    UncertaintyStrategy,
    make_strategy,
)
from repro.ml import RandomForestClassifier


@pytest.fixture(scope="module")
def fitted_model():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 5))
    y = (X[:, 0] + 0.3 * rng.normal(size=300) > 0).astype(int)
    model = RandomForestClassifier(n_estimators=16, random_state=0)
    model.fit(X, y)
    pool = rng.normal(size=(120, 5))
    return model, pool


ALL_NAMES = ("uncertainty", "committee", "random")


class TestFactory:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_make_by_name(self, name):
        strategy = make_strategy(name)
        assert isinstance(strategy, QueryStrategy)
        assert strategy.name == name

    def test_instance_passthrough(self):
        strategy = CommitteeStrategy(n_committees=3)
        assert make_strategy(strategy) is strategy

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown query strategy"):
            make_strategy("oracle")


class TestSelection:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_selects_requested_count(self, name, fitted_model, rng):
        model, pool = fitted_model
        chosen = make_strategy(name).select(model, pool, 10, rng)
        assert chosen.shape == (10,)
        assert len(set(chosen.tolist())) == 10

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_batch_capped(self, name, fitted_model, rng):
        model, pool = fitted_model
        chosen = make_strategy(name).select(model, pool, 10_000, rng)
        assert len(chosen) == len(pool)

    def test_zero_batch(self, fitted_model, rng):
        model, pool = fitted_model
        assert len(UncertaintyStrategy().select(model, pool, 0, rng)) == 0

    def test_negative_batch(self, fitted_model, rng):
        model, pool = fitted_model
        with pytest.raises(ValueError, match="batch_size"):
            UncertaintyStrategy().select(model, pool, -1, rng)

    def test_uncertainty_picks_boundary_points(self, fitted_model, rng):
        model, pool = fitted_model
        chosen = UncertaintyStrategy().select(model, pool, 15, rng)
        votes = model.vote_fraction(pool)
        assert votes[chosen].mean() < votes.mean()

    def test_committee_scores_bounded(self, fitted_model, rng):
        model, pool = fitted_model
        scores = CommitteeStrategy(n_committees=4).scores(model, pool, rng)
        assert np.all(scores >= -1e-12)
        assert np.all(scores <= np.log(2) + 1e-9)

    def test_committee_validation(self):
        with pytest.raises(ValueError, match="n_committees"):
            CommitteeStrategy(n_committees=1)

    def test_random_depends_on_rng_only(self, fitted_model):
        model, pool = fitted_model
        r1 = RandomStrategy().select(model, pool, 10,
                                     np.random.default_rng(1))
        r2 = RandomStrategy().select(model, pool, 10,
                                     np.random.default_rng(1))
        np.testing.assert_array_equal(r1, r2)


class TestInActiveLoop:
    def test_strategy_reaches_active_loop(self):
        from repro.core import AutoMLEMActive
        active = AutoMLEMActive(query_strategy="committee")
        assert active.query_strategy.name == "committee"

    def test_unknown_strategy_rejected_early(self):
        from repro.core import AutoMLEMActive
        with pytest.raises(ValueError, match="unknown query strategy"):
            AutoMLEMActive(query_strategy="psychic")
