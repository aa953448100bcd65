"""A from-scratch numpy ML library standing in for scikit-learn.

Everything the AutoML engine searches over lives here: tree ensembles,
boosting, linear models, naive Bayes, k-NN, an MLP, preprocessing,
feature selection and decomposition — plus the F1 metrics the search
scores with.  See DESIGN.md for why this substrate exists (the offline
environment has no scikit-learn).
"""

from .base import BaseEstimator, NotFittedError, clone
from .boosting import AdaBoostClassifier, GradientBoostingClassifier
from .decomposition import PCA, FeatureAgglomeration
from .feature_selection import (
    SelectKBest,
    SelectPercentile,
    SelectRates,
    TreeFeatureSelector,
    chi2,
    f_classif,
)
from .forest import ExtraTreesClassifier, RandomForestClassifier
from .linear import LinearSVC, LogisticRegression
from .metrics import (
    f1_score,
    precision_recall_f1,
    precision_score,
    recall_score,
)
from .naive_bayes import BernoulliNB, GaussianNB
from .neighbors import KNeighborsClassifier
from .neural import MLPClassifier
from .pipeline import Pipeline
from .preprocessing import (
    MinMaxScaler,
    NonNegativeShift,
    Normalizer,
    RandomOverSampler,
    RobustScaler,
    SimpleImputer,
    StandardScaler,
)
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "AdaBoostClassifier",
    "BaseEstimator",
    "BernoulliNB",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "ExtraTreesClassifier",
    "FeatureAgglomeration",
    "GaussianNB",
    "GradientBoostingClassifier",
    "KNeighborsClassifier",
    "LinearSVC",
    "LogisticRegression",
    "MLPClassifier",
    "MinMaxScaler",
    "NonNegativeShift",
    "NotFittedError",
    "Normalizer",
    "PCA",
    "Pipeline",
    "RandomForestClassifier",
    "RandomOverSampler",
    "RobustScaler",
    "SelectKBest",
    "SelectPercentile",
    "SelectRates",
    "SimpleImputer",
    "StandardScaler",
    "TreeFeatureSelector",
    "chi2",
    "clone",
    "f1_score",
    "f_classif",
    "precision_recall_f1",
    "precision_score",
    "recall_score",
]
