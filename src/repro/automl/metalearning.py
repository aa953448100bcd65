"""Meta-learning warm starts (the paper's second future-work item).

*"AutoML-EM could take a long time to find the very best model in the
large search space.  Meta-learning, which learns how to design a model
from historical ML tasks, is a promising idea."*

This module implements the auto-sklearn-style k-nearest-datasets warm
start: a :class:`ConfigPortfolio` remembers which configurations won on
previously seen datasets together with cheap dataset *meta-features*;
for a new dataset, the portfolio suggests the winners of its nearest
neighbours, and the optimizer evaluates those before falling back to its
regular search (``AutoML(initial_configs=...)``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import persist

META_FEATURE_NAMES = (
    "log_n_samples", "log_n_features", "positive_rate", "missing_fraction",
    "mean_feature_mean", "mean_feature_std", "mean_abs_correlation",
)


def dataset_meta_features(X, y) -> np.ndarray:
    """Cheap dataset descriptors used for nearest-dataset lookup."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    n, d = X.shape
    missing = np.isnan(X)
    with np.errstate(invalid="ignore"):
        column_means = np.nanmean(np.where(missing, np.nan, X), axis=0)
        column_stds = np.nanstd(np.where(missing, np.nan, X), axis=0)
    column_means = np.nan_to_num(column_means)
    column_stds = np.nan_to_num(column_stds)
    dense = np.nan_to_num(X)
    if d > 1 and n > 2:
        correlation = np.corrcoef(dense, rowvar=False)
        off_diagonal = correlation[~np.eye(d, dtype=bool)]
        mean_corr = float(np.nan_to_num(np.abs(off_diagonal)).mean())
    else:
        mean_corr = 0.0
    return np.asarray([
        np.log1p(n),
        np.log1p(d),
        float((y == 1).mean()),
        float(missing.mean()),
        float(column_means.mean()),
        float(column_stds.mean()),
        mean_corr,
    ])


@dataclass
class PortfolioEntry:
    dataset: str
    meta_features: np.ndarray
    config: dict
    score: float


@dataclass
class ConfigPortfolio:
    """Winning configurations of past datasets, queryable by similarity."""

    entries: list[PortfolioEntry] = field(default_factory=list)

    def record(self, dataset: str, X, y, config: dict,
               score: float) -> None:
        """Remember ``config`` as the winner on ``dataset``."""
        self.entries.append(PortfolioEntry(
            dataset=dataset, meta_features=dataset_meta_features(X, y),
            config=dict(config), score=float(score)))

    def suggest(self, X, y, k: int = 3) -> list[dict]:
        """Configs of the ``k`` nearest recorded datasets (deduplicated)."""
        if not self.entries:
            return []
        query = dataset_meta_features(X, y)
        matrix = np.stack([e.meta_features for e in self.entries])
        scale = matrix.std(axis=0)
        scale[scale == 0.0] = 1.0  # repro-lint: disable=REP005 - exact-zero std guard
        distances = np.linalg.norm((matrix - query) / scale, axis=1)
        order = np.argsort(distances, kind="stable")
        suggestions: list[dict] = []
        seen: set[str] = set()
        for index in order:
            config = self.entries[index].config
            key = repr(sorted(config.items()))
            if key not in seen:
                seen.add(key)
                suggestions.append(dict(config))
            if len(suggestions) >= k:
                break
        return suggestions

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        payload = [{"dataset": e.dataset,
                    "meta_features": e.meta_features.tolist(),
                    "config": e.config, "score": e.score}
                   for e in self.entries]
        persist.atomic_write(path, json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "ConfigPortfolio":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        portfolio = cls()
        for item in payload:
            portfolio.entries.append(PortfolioEntry(
                dataset=item["dataset"],
                meta_features=np.asarray(item["meta_features"]),
                config=item["config"], score=item["score"]))
        return portfolio

    def __len__(self) -> int:
        return len(self.entries)
