"""Experiment harness reproducing every table and figure of the paper."""

from .configs import FAST, FULL, HARD_DATASETS, PAPER_NUMBERS, \
    ExperimentConfig
from .extra import (
    run_blocking_study,
    run_concept_drift,
    run_ensemble_ablation,
    run_labeler_study,
    run_metalearning_warmstart,
    run_query_strategies,
    run_resolution_study,
    run_search_comparison,
    run_serving_study,
)
from .results import ResultTable
from .runners import (
    DatasetBundle,
    f1_spread,
    load_bundle,
    run_fig3,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_table3,
    run_table4,
)

__all__ = [
    "DatasetBundle",
    "ExperimentConfig",
    "FAST",
    "FULL",
    "HARD_DATASETS",
    "PAPER_NUMBERS",
    "ResultTable",
    "f1_spread",
    "load_bundle",
    "run_blocking_study",
    "run_concept_drift",
    "run_ensemble_ablation",
    "run_labeler_study",
    "run_metalearning_warmstart",
    "run_query_strategies",
    "run_fig3",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_resolution_study",
    "run_search_comparison",
    "run_serving_study",
    "run_table3",
    "run_table4",
]
