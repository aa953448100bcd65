"""Active-learning query strategies: vote-fraction uncertainty and
query by committee, with random sampling as the control.

The paper's conclusion names this extension explicitly: *"We would like
to extend it to other active learning algorithms, such as query by
committee and maximum margin, in the future."*  Each strategy scores the
unlabeled pool with the current random forest and returns the indices to
send to the human oracle:

* ``uncertainty`` — lowest majority-vote fraction (the paper's default,
  Figure 7's R2/R3 regions);
* ``committee`` — highest vote entropy across tree sub-committees
  (query-by-committee with the forest as the committee);
* ``random`` — the passive-learning control.

Maximum margin and predictive entropy are left out: for two classes
both decrease in |p - 1/2| of the forest's averaged probability, so
they rank the pool the same way, and with pure leaves that ranking is
``uncertainty``'s.
"""

from __future__ import annotations

import numpy as np

from ..ml.forest import RandomForestClassifier


class QueryStrategy:
    """Base: rank the pool and pick ``batch_size`` query indices."""

    name = "base"

    def scores(self, model: RandomForestClassifier, X_pool: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
        """Higher score = more worth querying."""
        raise NotImplementedError

    def select(self, model: RandomForestClassifier, X_pool: np.ndarray,
               batch_size: int, rng: np.random.Generator) -> np.ndarray:
        if batch_size < 0:
            raise ValueError(f"batch_size must be >= 0, got {batch_size}")
        batch_size = min(batch_size, len(X_pool))
        if batch_size == 0:
            return np.empty(0, dtype=np.int64)
        ranking = self.scores(model, X_pool, rng)
        return np.argsort(-ranking, kind="stable")[:batch_size]


class UncertaintyStrategy(QueryStrategy):
    """The paper's default: least confident majority vote first."""

    name = "uncertainty"

    def scores(self, model, X_pool, rng):
        return 1.0 - model.vote_fraction(X_pool)


class CommitteeStrategy(QueryStrategy):
    """Query-by-committee: vote entropy across forest sub-committees.

    The fitted forest is split into ``n_committees`` groups of trees;
    each group votes as one committee member and the vote entropy over
    members ranks the pool (Dagan & Engelson style, with the ensemble we
    already have instead of retraining members).
    """

    name = "committee"

    def __init__(self, n_committees: int = 4):
        if n_committees < 2:
            raise ValueError(
                f"n_committees must be >= 2, got {n_committees}")
        self.n_committees = n_committees

    def scores(self, model, X_pool, rng):
        trees = model.estimators_
        n_committees = min(self.n_committees, len(trees))
        groups = np.array_split(np.arange(len(trees)), n_committees)
        n_classes = len(model.classes_)
        votes = np.zeros((len(X_pool), n_classes))
        for group in groups:
            if len(group) == 0:
                continue
            totals = np.zeros((len(X_pool), n_classes))
            for index in group:
                predictions = trees[index].predict(X_pool)
                for j, cls in enumerate(model.classes_):
                    totals[:, j] += predictions == cls
            member_vote = np.argmax(totals, axis=1)
            votes[np.arange(len(X_pool)), member_vote] += 1
        probabilities = votes / votes.sum(axis=1, keepdims=True)
        safe = np.maximum(probabilities, 1e-12)
        return -(safe * np.log(safe)).sum(axis=1)


class RandomStrategy(QueryStrategy):
    """Passive learning: uniformly random queries (the control arm)."""

    name = "random"

    def scores(self, model, X_pool, rng):
        return rng.random(len(X_pool))


_STRATEGIES = {
    "uncertainty": UncertaintyStrategy,
    "committee": CommitteeStrategy,
    "random": RandomStrategy,
}


def make_strategy(name: str | QueryStrategy) -> QueryStrategy:
    """Resolve a strategy by name (or pass an instance through)."""
    if isinstance(name, QueryStrategy):
        return name
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(f"unknown query strategy {name!r}; "
                         f"known: {sorted(_STRATEGIES)}") from None
