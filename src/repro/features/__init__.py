"""Feature generation: Magellan's Table I rules vs AutoML-EM's Table II."""

from .autoem import TABLE_II, autoem_feature_plan, autoem_measures_for
from .columnar import columnar_transform
from .magellan import TABLE_I, magellan_feature_plan
from .profile import (
    FeatureProfile,
    ProfileAccumulator,
    ReferenceProfile,
    Reservoir,
)
from .types import DataType, infer_column_type, infer_schema_types
from .vectorize import (
    FeatureGenerator,
    make_autoem_features,
    make_magellan_features,
)

__all__ = [
    "DataType",
    "FeatureGenerator",
    "FeatureProfile",
    "ProfileAccumulator",
    "ReferenceProfile",
    "Reservoir",
    "TABLE_I",
    "TABLE_II",
    "autoem_feature_plan",
    "autoem_measures_for",
    "columnar_transform",
    "infer_column_type",
    "infer_schema_types",
    "magellan_feature_plan",
    "make_autoem_features",
    "make_magellan_features",
]
