"""Cheap smoke tests for the extra/future-work experiment runners."""

import pytest

from repro.experiments import FAST
from repro.experiments.configs import ExperimentConfig


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(scales=FAST.scales, automl_iterations=2,
                            forest_size=8, generator_seeds=(1,),
                            split_seed=0)


class TestExtraRunners:
    def test_search_comparison_structure(self, tiny_config):
        from repro.experiments import run_search_comparison
        table = run_search_comparison(tiny_config, "fodors_zagats",
                                      searches=("random", "smac"))
        assert table.column("search") == ["random", "smac"]
        assert all(0 <= v <= 100 for v in table.column("valid_f1"))

    def test_query_strategies_structure(self, tiny_config):
        from repro.experiments import run_query_strategies
        table = run_query_strategies(
            tiny_config, "fodors_zagats",
            strategies=("uncertainty", "random"), init_size=40,
            ac_batch=5, n_iterations=2, seeds=(0,))
        assert set(table.column("strategy")) == {"uncertainty", "random"}

    def test_ensemble_ablation_structure(self, tiny_config):
        from repro.experiments import run_ensemble_ablation
        table = run_ensemble_ablation(tiny_config, "fodors_zagats",
                                      ensemble_sizes=(1, 2))
        assert table.column("ensemble_size") == [1, 2]

    def test_metalearning_structure(self, tiny_config):
        from repro.experiments import run_metalearning_warmstart
        table = run_metalearning_warmstart(
            tiny_config, target="fodors_zagats",
            sources=("beeradvo_ratebeer",), budget=2)
        assert set(table.column("variant")) == {"cold", "warm"}

    def test_labeler_study_structure(self, tiny_config):
        from repro.experiments import run_labeler_study
        table = run_labeler_study(tiny_config, "fodors_zagats",
                                  n_labeled=100)
        assert set(table.column("labeler")) == {"label_propagation"}
        for row in table.rows:
            assert row["inferred"] >= 0
            assert 0 <= row["accuracy_pct"] <= 100

    def test_concept_drift_structure(self, tiny_config):
        from repro.experiments import run_concept_drift
        table = run_concept_drift(tiny_config, "fodors_zagats",
                                  init_size=40, ac_batch=4, st_batch=10,
                                  n_iterations=2)
        assert set(table.column("ratio_preserved")) == {True, False}

    def test_blocking_study_structure(self):
        from repro.experiments import run_blocking_study
        table = run_blocking_study("walmart_amazon", seed=2)
        assert len(table) >= 1
        for row in table.rows:
            assert row["candidates"] >= 0

    def test_serving_study_parity(self, tiny_config, tmp_path):
        from repro.experiments import run_serving_study
        table = run_serving_study(tiny_config, "fodors_zagats",
                                  registry_root=tmp_path / "registry",
                                  batch_size=64)
        assert table.column("stage")[0] == "in-process"
        f1 = table.column("f1_pct")
        assert f1[0] == f1[1]  # bundle round trip is lossless
        assert table.column("batches")[1] >= 1
        assert (tmp_path / "registry" / "fodors_zagats" / "LATEST").exists()
