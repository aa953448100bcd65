"""Univariate and model-based feature selection.

The AutoML space's *feature preprocessing* stage: ANOVA F and chi²
scores, ``SelectPercentile`` (the Figure 3b sweep), ``SelectRates`` with
FPR/FDR/FWE control (the ``select_rates`` component of Figures 5/11)
and extra-trees-based selection.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from .base import BaseEstimator, check_X, check_X_y
from .forest import ExtraTreesClassifier


def f_classif(X, y) -> tuple[np.ndarray, np.ndarray]:
    """One-way ANOVA F-value per feature; returns ``(F, p_values)``."""
    X, y = check_X_y(X, y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("f_classif needs at least 2 classes")
    n, _ = X.shape
    overall_mean = X.mean(axis=0)
    ss_between = np.zeros(X.shape[1])
    ss_within = np.zeros(X.shape[1])
    for cls in classes:
        members = X[y == cls]
        mean = members.mean(axis=0)
        ss_between += len(members) * (mean - overall_mean) ** 2
        ss_within += ((members - mean) ** 2).sum(axis=0)
    df_between = len(classes) - 1
    df_within = n - len(classes)
    if df_within <= 0:
        raise ValueError("f_classif needs more samples than classes")
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    with np.errstate(divide="ignore", invalid="ignore"):
        f_values = ms_between / ms_within
    f_values = np.where(np.isfinite(f_values), f_values, 0.0)
    p_values = stats.f.sf(f_values, df_between, df_within)
    # Constant features carry no signal: force worst p-value.
    constant = ms_within + ms_between == 0
    p_values = np.where(constant, 1.0, p_values)
    return f_values, p_values


def chi2(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Chi-squared statistic per (non-negative) feature."""
    X, y = check_X_y(X, y)
    if (X < 0).any():
        raise ValueError("chi2 requires non-negative feature values")
    classes = np.unique(y)
    observed = np.vstack([X[y == cls].sum(axis=0) for cls in classes])
    class_prob = np.asarray([(y == cls).mean() for cls in classes])
    feature_totals = X.sum(axis=0)
    expected = np.outer(class_prob, feature_totals)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms = np.where(expected > 0, terms, 0.0)
    statistic = terms.sum(axis=0)
    dof = len(classes) - 1
    p_values = stats.chi2.sf(statistic, dof)
    p_values = np.where(feature_totals > 0, p_values, 1.0)
    return statistic, p_values


_SCORE_FUNCS = {"f_classif": f_classif, "chi2": chi2}


def _resolve_score_func(score_func):
    if callable(score_func):
        return score_func
    try:
        return _SCORE_FUNCS[score_func]
    except KeyError:
        raise ValueError(f"unknown score_func {score_func!r}; "
                         f"known: {sorted(_SCORE_FUNCS)}") from None


class SelectPercentile(BaseEstimator):
    """Keep the top ``percentile`` % of features by univariate score."""

    def __init__(self, percentile: float = 50.0, score_func="f_classif"):
        if not 0.0 < percentile <= 100.0:
            raise ValueError(
                f"percentile must be in (0, 100], got {percentile}")
        self.percentile = percentile
        self.score_func = score_func

    def fit(self, X, y) -> "SelectPercentile":
        scores, _ = _resolve_score_func(self.score_func)(X, y)
        n_features = len(scores)
        keep = max(1, int(round(self.percentile / 100.0 * n_features)))
        order = np.argsort(-scores, kind="stable")
        mask = np.zeros(n_features, dtype=bool)
        mask[order[:keep]] = True
        self.support_ = mask
        self.scores_ = scores
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("support_")
        return check_X(X)[:, self.support_]

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)


class SelectKBest(BaseEstimator):
    """Keep the ``k`` highest-scoring features."""

    def __init__(self, k: int = 10, score_func="f_classif"):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.score_func = score_func

    def fit(self, X, y) -> "SelectKBest":
        scores, _ = _resolve_score_func(self.score_func)(X, y)
        order = np.argsort(-scores, kind="stable")
        mask = np.zeros(len(scores), dtype=bool)
        mask[order[:min(self.k, len(scores))]] = True
        self.support_ = mask
        self.scores_ = scores
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("support_")
        return check_X(X)[:, self.support_]

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)


class SelectRates(BaseEstimator):
    """p-value-based selection with FPR / FDR / FWE error control.

    ``mode``: "fpr" keeps p < alpha; "fdr" applies Benjamini-Hochberg;
    "fwe" Bonferroni.  If nothing survives, the single best feature is
    kept so the pipeline never collapses to zero width.
    """

    def __init__(self, alpha: float = 0.05, mode: str = "fpr",
                 score_func="f_classif"):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if mode not in ("fpr", "fdr", "fwe"):
            raise ValueError(f"mode must be fpr/fdr/fwe, got {mode!r}")
        self.alpha = alpha
        self.mode = mode
        self.score_func = score_func

    def fit(self, X, y) -> "SelectRates":
        _, p_values = _resolve_score_func(self.score_func)(X, y)
        n = len(p_values)
        if self.mode == "fpr":
            mask = p_values < self.alpha
        elif self.mode == "fwe":
            mask = p_values < self.alpha / n
        else:  # fdr (Benjamini-Hochberg)
            order = np.argsort(p_values)
            ranked = p_values[order]
            below = ranked <= self.alpha * np.arange(1, n + 1) / n
            mask = np.zeros(n, dtype=bool)
            if below.any():
                cutoff = np.max(np.flatnonzero(below))
                mask[order[:cutoff + 1]] = True
        if not mask.any():
            mask[np.argmin(p_values)] = True
        self.support_ = mask
        self.p_values_ = p_values
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("support_")
        return check_X(X)[:, self.support_]

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)


class TreeFeatureSelector(BaseEstimator):
    """Keep features an extra-trees ensemble splits on above-average.

    The ``extra_trees_preproc`` component of auto-sklearn's feature
    preprocessing stage.
    """

    def __init__(self, n_estimators: int = 20, max_depth: int = 10,
                 threshold: str = "mean", random_state: int = 0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.threshold = threshold
        self.random_state = random_state

    def fit(self, X, y) -> "TreeFeatureSelector":
        X, y = check_X_y(X, y)
        forest = ExtraTreesClassifier(
            n_estimators=self.n_estimators, max_depth=self.max_depth,
            random_state=self.random_state)
        forest.fit(X, y)
        importances = forest.feature_importances()
        cutoff = importances.mean() if self.threshold == "mean" \
            else np.median(importances)
        mask = importances >= cutoff
        if not mask.any():
            mask[np.argmax(importances)] = True
        self.support_ = mask
        self.importances_ = importances
        return self

    def transform(self, X) -> np.ndarray:
        self._check_fitted("support_")
        return check_X(X)[:, self.support_]

    def fit_transform(self, X, y) -> np.ndarray:
        return self.fit(X, y).transform(X)
