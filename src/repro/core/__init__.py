"""The paper's contribution: AutoML-EM and AutoML-EM-Active."""

from .active import ActiveIteration, ActiveRunHistory, AutoMLEMActive
from .automl_em import AutoMLEM
from .labelers import InferredLabels, LabelPropagationLabeler
from .oracle import GroundTruthOracle, LabelBudgetExceeded
from .selftraining import SelfTrainingSelection, select_confident
from .thresholding import ThresholdResult, apply_threshold, tune_threshold
from .strategies import (
    CommitteeStrategy,
    QueryStrategy,
    RandomStrategy,
    UncertaintyStrategy,
    make_strategy,
)

__all__ = [
    "ActiveIteration",
    "ActiveRunHistory",
    "AutoMLEM",
    "AutoMLEMActive",
    "CommitteeStrategy",
    "GroundTruthOracle",
    "InferredLabels",
    "LabelBudgetExceeded",
    "LabelPropagationLabeler",
    "QueryStrategy",
    "RandomStrategy",
    "SelfTrainingSelection",
    "ThresholdResult",
    "UncertaintyStrategy",
    "apply_threshold",
    "make_strategy",
    "select_confident",
    "tune_threshold",
]
