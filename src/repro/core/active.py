"""AutoML-EM-Active: Algorithm 1 — active learning + self-training.

Each iteration scores the unlabeled pool with the current random forest;
the *least* confident pairs (split tree votes, regions R2/R3 of
Figure 7) go to the human oracle, the *most* confident pairs (unanimous
votes, R1/R4) are adopted with their machine labels, preserving the
initial positive ratio α.  When the labeling budget is spent, AutoML-EM
is trained on the mixed human+machine label set.

Setting ``st_batch=0`` yields the paper's baseline "AC + AutoML-EM"
(pure active learning; Remark 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.pairs import PairSet
from ..ml.forest import RandomForestClassifier
from ..ml.preprocessing import SimpleImputer
from .automl_em import AutoMLEM
from .oracle import GroundTruthOracle
from .selftraining import select_confident
from .strategies import make_strategy


@dataclass
class ActiveIteration:
    """Bookkeeping for one loop iteration."""

    iteration: int
    human_labels: int
    machine_labels: int
    machine_label_accuracy: float
    pool_remaining: int


@dataclass
class ActiveRunHistory:
    iterations: list[ActiveIteration] = field(default_factory=list)

    @property
    def total_human_labels(self) -> int:
        return sum(it.human_labels for it in self.iterations)

    @property
    def total_machine_labels(self) -> int:
        return sum(it.machine_labels for it in self.iterations)

    @property
    def mean_machine_label_accuracy(self) -> float:
        """Mean accuracy over iterations that adopted machine labels.

        Iterations with ``st_batch=0`` (no self-training) record ``nan``
        and are excluded; with no self-training anywhere the mean itself
        is ``nan``.
        """
        values = np.asarray([it.machine_label_accuracy
                             for it in self.iterations], dtype=np.float64)
        if values.size == 0 or np.isnan(values).all():
            return float("nan")
        return float(np.nanmean(values))


class AutoMLEMActive:
    """Algorithm 1: hybrid active-learning / self-training AutoML-EM.

    Parameters
    ----------
    init_size:
        Random initial sample labeled by the oracle (the ``init``
        parameter of Figures 13-15).
    ac_batch / st_batch:
        Active-learning and self-training batch sizes per iteration;
        ``st_batch=0`` reduces to pure active learning.
    n_iterations:
        Loop iterations (the paper runs 20).
    label_budget:
        Optional cap on *total* oracle queries (init included); the loop
        stops once it is spent.
    inner_forest_size:
        Tree count of the in-loop random forest whose vote fractions
        provide label confidence.
    automl_kwargs:
        Keyword arguments for the final :class:`AutoMLEM` stage (budget,
        model space, seed, ...).  They also build the generator that
        featurizes the pool when none is passed to :meth:`fit`.
    trial_timeout / run_log:
        Per-trial time limit and JSONL telemetry path for the final
        AutoML stage (shorthand for the same keys in ``automl_kwargs``,
        which take precedence when both are given).
    """

    def __init__(self, init_size: int = 500, ac_batch: int = 20,
                 st_batch: int = 200, n_iterations: int = 20,
                 label_budget: int | None = None,
                 inner_forest_size: int = 32,
                 query_strategy="uncertainty",
                 automl_kwargs: dict | None = None,
                 trial_timeout: float | None = None, run_log=None,
                 seed: int = 0):
        if init_size < 2:
            raise ValueError(f"init_size must be >= 2, got {init_size}")
        if ac_batch < 0 or st_batch < 0:
            raise ValueError("batch sizes must be >= 0")
        self.init_size = init_size
        self.ac_batch = ac_batch
        self.st_batch = st_batch
        self.n_iterations = n_iterations
        self.label_budget = label_budget
        self.inner_forest_size = inner_forest_size
        self.query_strategy = make_strategy(query_strategy)
        self.automl_kwargs = dict(automl_kwargs or {})
        if trial_timeout is not None:
            self.automl_kwargs.setdefault("trial_timeout", trial_timeout)
        if run_log is not None:
            self.automl_kwargs.setdefault("run_log", run_log)
        self.seed = seed

    def fit(self, pool: PairSet, X_pool: np.ndarray | None = None,
            feature_generator=None) -> "AutoMLEMActive":
        """Run the labeling loop over ``pool`` and train the final model.

        ``pool`` must carry gold labels (they feed the simulated oracle;
        the learner only sees labels it pays for).  ``X_pool`` lets
        callers pass precomputed features.
        """
        rng = np.random.default_rng(self.seed)
        self.oracle_ = GroundTruthOracle(pool, budget=self.label_budget)
        if X_pool is None:
            matcher_probe = AutoMLEM(**self.automl_kwargs)
            feature_generator = (feature_generator
                                 or matcher_probe.make_feature_generator(pool))
            X_pool = feature_generator.transform(pool)
        X_pool = np.asarray(X_pool, dtype=np.float64)
        if len(X_pool) != len(pool):
            raise ValueError(
                f"X_pool has {len(X_pool)} rows for {len(pool)} pairs")
        self.feature_generator_ = feature_generator
        imputer = SimpleImputer(strategy="median")
        X = imputer.fit_transform(X_pool)
        self._imputer = imputer

        n = len(pool)
        unlabeled = np.ones(n, dtype=bool)
        labeled_idx: list[int] = []
        labels: list[int] = []
        is_human: list[bool] = []

        # Initial random sample, labeled by the human oracle (never more
        # than the label budget allows).
        init_take = min(self.init_size, n)
        if self.label_budget is not None:
            init_take = min(init_take, self.label_budget)
        init = rng.choice(n, size=init_take, replace=False)
        for i in init:
            labels.append(self.oracle_.label(pool[int(i)]))
            labeled_idx.append(int(i))
            is_human.append(True)
        unlabeled[init] = False
        # A usable model needs both classes; keep sampling randomly (each
        # draw costs a query) until the seed set has them — but stop at
        # the budget instead of paying for draws it cannot afford.
        attempts = 0
        while (len(set(labels)) < 2 and unlabeled.any() and attempts < n
               and (self.oracle_.remaining is None
                    or self.oracle_.remaining > 0)):
            extra = int(rng.choice(np.flatnonzero(unlabeled)))
            labels.append(self.oracle_.label(pool[extra]))
            labeled_idx.append(extra)
            is_human.append(True)
            unlabeled[extra] = False
            attempts += 1
        alpha = float(np.mean(np.asarray(labels) == 1))

        self.history_ = ActiveRunHistory()
        model = self._train_inner(X, labeled_idx, labels, rng)
        for iteration in range(self.n_iterations):
            budget_left = self.oracle_.remaining
            if budget_left is not None and budget_left <= 0:
                break
            pool_idx = np.flatnonzero(unlabeled)
            if pool_idx.size == 0:
                break
            confidences = model.vote_fraction(X[pool_idx])
            predictions = model.predict(X[pool_idx])
            # Active learning: query the strategy's pick (by default the
            # least-confident pairs, i.e. the paper's Figure 7 selection).
            ac_take = self.ac_batch
            if budget_left is not None:
                ac_take = min(ac_take, budget_left)
            ac_local = self.query_strategy.select(model, X[pool_idx],
                                                  ac_take, rng)
            ac_global = pool_idx[ac_local]
            for i in ac_global:
                labels.append(self.oracle_.label(pool[int(i)]))
                labeled_idx.append(int(i))
                is_human.append(True)
            # Self-training: adopt the most confident machine labels,
            # preserving the initial class ratio alpha.
            remaining_mask = np.ones(pool_idx.size, dtype=bool)
            remaining_mask[ac_local] = False
            remaining_local = np.flatnonzero(remaining_mask)
            selection = select_confident(
                confidences[remaining_local], predictions[remaining_local],
                self.st_batch, positive_ratio=alpha)
            st_global = pool_idx[remaining_local[selection.indices]]
            correct = 0
            for i, machine_label in zip(st_global, selection.labels):
                labels.append(int(machine_label))
                labeled_idx.append(int(i))
                is_human.append(False)
                if int(machine_label) == pool[int(i)].label:
                    correct += 1
            unlabeled[ac_global] = False
            unlabeled[st_global] = False
            # No adopted machine labels -> accuracy is undefined, not 1.0
            # (reporting 1.0 inflated per-iteration stats for st_batch=0).
            accuracy = (correct / len(st_global) if len(st_global)
                        else float("nan"))
            self.history_.iterations.append(ActiveIteration(
                iteration=iteration, human_labels=len(ac_global),
                machine_labels=len(st_global),
                machine_label_accuracy=accuracy,
                pool_remaining=int(unlabeled.sum())))
            model = self._train_inner(X, labeled_idx, labels, rng)

        self.human_label_count_ = self.oracle_.queries_used
        self.machine_label_count_ = sum(1 for h in is_human if not h)
        self._train_final(X, labeled_idx, labels, rng)
        return self

    def _train_inner(self, X, labeled_idx, labels, rng):
        model = RandomForestClassifier(
            n_estimators=self.inner_forest_size,
            random_state=int(rng.integers(2 ** 31)))
        model.fit(X[np.asarray(labeled_idx)], np.asarray(labels))
        return model

    def _train_final(self, X, labeled_idx, labels, rng) -> None:
        """The last line of Algorithm 1: AutoML-EM on the collected labels."""
        indices = np.asarray(labeled_idx)
        y = np.asarray(labels)
        train_idx, valid_idx = _stratified_holdout(y, 0.2, rng)
        matcher = AutoMLEM(**self.automl_kwargs)
        matcher.fit_matrices(X[indices[train_idx]], y[train_idx],
                             X[indices[valid_idx]], y[valid_idx])
        self.matcher_ = matcher

    # -- inference ------------------------------------------------------

    def predict(self, pairs: PairSet) -> np.ndarray:
        self._check_fitted()
        X = self._transform(pairs)
        return self.matcher_.predict_matrix(X)

    def evaluate(self, test: PairSet) -> dict:
        self._check_fitted()
        X = self._transform(test)
        return self.matcher_.evaluate_matrix(X, test.labels)

    def evaluate_matrix(self, X_test, y_test) -> dict:
        self._check_fitted()
        X_test = self._imputer.transform(np.asarray(X_test, dtype=np.float64))
        return self.matcher_.evaluate_matrix(X_test, y_test)

    def _transform(self, pairs: PairSet) -> np.ndarray:
        if self.feature_generator_ is None:
            raise RuntimeError(
                "fitted from a precomputed matrix without a feature "
                "generator; use evaluate_matrix instead")
        raw = self.feature_generator_.transform(pairs)
        return self._imputer.transform(raw)

    def _check_fitted(self) -> None:
        if not hasattr(self, "matcher_"):
            raise RuntimeError("AutoMLEMActive is not fitted; call fit first")


def _stratified_holdout(y: np.ndarray, fraction: float,
                        rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Split indices 1-fraction/fraction, keeping >=1 of each class per side."""
    holdout: list[int] = []
    keep: list[int] = []
    for cls in np.unique(y):
        members = rng.permutation(np.flatnonzero(y == cls))
        take = max(1, int(round(fraction * len(members))))
        take = min(take, len(members) - 1) if len(members) > 1 else take
        holdout.extend(members[:take].tolist())
        keep.extend(members[take:].tolist())
    return np.asarray(keep, dtype=np.int64), np.asarray(holdout, dtype=np.int64)
