"""An auto-sklearn-style AutoML engine built on :mod:`repro.ml`."""

from .components import (
    ALL_MODELS,
    ALL_PREPROCESSORS,
    ConfiguredPipeline,
    build_config_space,
    build_pipeline,
)
from .ensemble import PipelineEnsemble, build_ensemble
from .metalearning import (
    ConfigPortfolio,
    dataset_meta_features,
)
from .optimizer import AutoML, OptimizationHistory, TrialResult
from .runner import (
    TrialOutcome,
    TrialRunner,
    TrialTimeout,
    format_error,
)
from .search import RandomSearch, SMACSearch, TPESearch, make_search
from .space import (
    Categorical,
    ConfigurationSpace,
    Constant,
    Hyperparameter,
    UniformFloat,
    UniformInt,
)

__all__ = [
    "ALL_MODELS",
    "ALL_PREPROCESSORS",
    "AutoML",
    "Categorical",
    "ConfigPortfolio",
    "ConfigurationSpace",
    "ConfiguredPipeline",
    "Constant",
    "PipelineEnsemble",
    "build_ensemble",
    "dataset_meta_features",
    "Hyperparameter",
    "OptimizationHistory",
    "RandomSearch",
    "SMACSearch",
    "TPESearch",
    "TrialOutcome",
    "TrialResult",
    "TrialRunner",
    "TrialTimeout",
    "format_error",
    "UniformFloat",
    "UniformInt",
    "build_config_space",
    "build_pipeline",
    "make_search",
]
