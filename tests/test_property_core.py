"""Property-based tests for core EM invariants: splits, space, selection."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automl import build_config_space
from repro.core.selftraining import select_confident
from repro.core.strategies import UncertaintyStrategy
from repro.data import MATCH, NON_MATCH, PairSet, RecordPair, Table
from repro.data.splits import stratified_split


class FixedVotes:
    """A fitted forest's stand-in: ``vote_fraction`` returns fixed values."""

    def __init__(self, fractions):
        self.fractions = fractions

    def vote_fraction(self, X):
        return self.fractions


def _pairs(n_pos, n_neg):
    n = n_pos + n_neg
    a = Table("A", ["v"], [[f"a{i}"] for i in range(n)])
    b = Table("B", ["v"], [[f"b{i}"] for i in range(n)])
    return PairSet(a, b, [
        RecordPair(a[i], b[i], MATCH if i < n_pos else NON_MATCH)
        for i in range(n)])


class TestSplitProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 40), st.integers(4, 80), st.integers(0, 999))
    def test_split_partition_property(self, n_pos, n_neg, seed):
        ps = _pairs(n_pos, n_neg)
        folds = stratified_split(ps, (0.5, 0.3, 0.2), seed=seed)
        keys = sorted(p.key for fold in folds for p in fold)
        assert keys == sorted(p.key for p in ps)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 40), st.integers(10, 80), st.integers(0, 999))
    def test_stratification_property(self, n_pos, n_neg, seed):
        ps = _pairs(n_pos, n_neg)
        train, test = stratified_split(ps, (0.5, 0.5), seed=seed)
        # each fold's positive count within 1 of the proportional share
        assert abs(train.num_positive - n_pos / 2) <= 1


class TestConfigSpaceProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sampled_configs_always_buildable(self, seed):
        from repro.automl import build_pipeline
        space = build_config_space(models="all", forest_size=4)
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        pipeline = build_pipeline(config)  # must never raise
        assert pipeline.config == config

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_neighbors_stay_valid(self, seed):
        space = build_config_space(models="all", forest_size=4)
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        for _ in range(3):
            config = space.neighbor(config, rng)
            for name in config:
                assert space.is_active(name, config), name

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_encoding_width_stable(self, seed):
        space = build_config_space(models="all", forest_size=4)
        rng = np.random.default_rng(seed)
        vector = space.encode(space.sample(rng))
        assert vector.shape == (len(space),)
        assert np.all((vector >= -1.0) & (vector <= 1.0))


class TestSelectionProperties:
    @settings(max_examples=40)
    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 999),
           st.floats(0.0, 1.0))
    def test_confident_selection_size_and_uniqueness(self, pool, batch,
                                                     seed, ratio):
        rng = np.random.default_rng(seed)
        confidences = rng.random(pool)
        predictions = rng.integers(0, 2, pool)
        selection = select_confident(confidences, predictions, batch,
                                     positive_ratio=ratio)
        assert len(selection) <= min(batch, pool)
        assert len(set(selection.indices.tolist())) == len(selection)

    @settings(max_examples=40)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 999))
    def test_uncertain_picks_minimum(self, pool, batch, seed):
        rng = np.random.default_rng(seed)
        confidences = rng.random(pool)
        chosen = UncertaintyStrategy().select(
            FixedVotes(confidences), np.zeros((pool, 1)), batch, rng)
        if len(chosen) < pool:
            threshold = confidences[chosen].max()
            others = np.delete(confidences, chosen)
            assert others.min() >= threshold - 1e-12
