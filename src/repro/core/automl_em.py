"""AutoML-EM: the paper's automated EM model-development pipeline.

Combines the Table II generate-everything feature generator with the
AutoML engine, defaulting to the random-forest-only model space the
paper selects in Section III-C.  The ablation switches of Figure 12
(``include_data_preprocessing`` / ``include_feature_preprocessing``) and
the model-space study of Figure 10 (``model_space``) are constructor
arguments.
"""

from __future__ import annotations

import numpy as np

from ..automl.components import build_config_space
from ..automl.optimizer import AutoML
from ..data.pairs import PairSet
from ..features.types import infer_schema_types
from ..features.vectorize import (
    FeatureGenerator,
    make_autoem_features,
    make_magellan_features,
)
from ..ml.metrics import precision_recall_f1


class AutoMLEM:
    """Automated entity-matching model development.

    Parameters
    ----------
    model_space:
        "random_forest" (the paper's AutoML-EM default), "all"
        (the general-purpose space), or a tuple of classifier names.
    feature_plan:
        "autoem" (Table II, default) or "magellan" (Table I) — the
        Figure 9 comparison axis.
    search:
        AutoML search algorithm: "smac" (default), "random", "tpe".
    n_iterations / time_budget:
        Search budget (evaluations; optional wall-clock seconds).
    include_data_preprocessing / include_feature_preprocessing:
        Figure 12 ablation switches.
    forest_size:
        Tree count for forest classifiers (auto-sklearn fixes 100).
    trial_timeout / trial_isolation:
        Per-trial wall-clock limit (seconds) and isolation mode for the
        search, forwarded to the AutoML engine's
        :class:`~repro.automl.runner.TrialRunner`.
    run_log:
        Optional JSONL telemetry path (or open
        :class:`~repro.events.EventLog`): one record per trial plus a
        run summary that names the feature plan.
    capture_reference_profile:
        When True (default), :meth:`fit` records a streaming
        :class:`~repro.features.profile.ReferenceProfile` of the
        training-time feature and score distributions
        (``reference_profile_``), which :meth:`export_bundle` embeds in
        the bundle manifest so the serving side can run drift
        monitoring (:mod:`repro.monitor`) against it.
    resume_from:
        Optional prior run log / saved history to resume the search
        from (see :class:`repro.automl.optimizer.AutoML`).

    >>> matcher = AutoMLEM(n_iterations=20, seed=0)
    >>> matcher.fit(train_pairs, valid_pairs)
    >>> matcher.evaluate(test_pairs)["f1"]
    """

    def __init__(self, model_space="random_forest", feature_plan: str = "autoem",
                 search: str = "smac", n_iterations: int = 30,
                 time_budget: float | None = None,
                 include_data_preprocessing: bool = True,
                 include_feature_preprocessing: bool = True,
                 forest_size: int = 100, ensemble_size: int = 1,
                 exclude_attributes: tuple[str, ...] = (),
                 trial_timeout: float | None = None,
                 trial_isolation: str = "auto",
                 run_log=None, resume_from=None,
                 capture_reference_profile: bool = True,
                 seed: int = 0, verbose: bool = False):
        if feature_plan not in ("autoem", "magellan"):
            raise ValueError(
                f"feature_plan must be autoem/magellan, got {feature_plan!r}")
        if model_space == "random_forest":
            model_space = ("random_forest",)
        self.model_space = model_space
        self.feature_plan = feature_plan
        self.search = search
        self.n_iterations = n_iterations
        self.time_budget = time_budget
        self.include_data_preprocessing = include_data_preprocessing
        self.include_feature_preprocessing = include_feature_preprocessing
        self.forest_size = forest_size
        self.ensemble_size = ensemble_size
        self.exclude_attributes = tuple(exclude_attributes)
        self.trial_timeout = trial_timeout
        self.trial_isolation = trial_isolation
        self.run_log = run_log
        self.resume_from = resume_from
        self.capture_reference_profile = capture_reference_profile
        self.seed = seed
        self.verbose = verbose

    # -- feature plumbing ---------------------------------------------------

    def make_feature_generator(self, pairs: PairSet) -> FeatureGenerator:
        """The configured feature generator for this matcher."""
        maker = (make_autoem_features if self.feature_plan == "autoem"
                 else make_magellan_features)
        return maker(pairs.table_a, pairs.table_b,
                     exclude_attributes=self.exclude_attributes)

    # -- training -------------------------------------------------------

    def fit(self, train: PairSet, valid: PairSet,
            feature_generator: FeatureGenerator | None = None) -> "AutoMLEM":
        """Search for the best pipeline on (train, valid) labeled pairs.

        ``feature_generator`` lets callers reuse precomputed plans; by
        default one is built from the training pair set's tables.
        """
        self.feature_generator_ = (feature_generator
                                   or self.make_feature_generator(train))
        # The serving layer needs the training schema as a compatibility
        # contract (ModelBundle.check_schema); capture it while the
        # source tables are at hand.
        self.schema_ = {
            column: data_type.name for column, data_type in
            infer_schema_types(train.table_a, train.table_b).items()}
        X_train = self.feature_generator_.transform(train)
        X_valid = self.feature_generator_.transform(valid)
        self.fit_matrices(X_train, train.labels, X_valid, valid.labels)
        if self.capture_reference_profile:
            # Profile the matrices already in hand (train + valid —
            # the distribution the winning model actually saw), scored
            # once by the fitted model for the score/match-rate side.
            self._capture_reference_profile(np.vstack([X_train, X_valid]))
        return self

    def fit_matrices(self, X_train, y_train, X_valid, y_valid) -> "AutoMLEM":
        """Fit from precomputed feature matrices (the fast path)."""
        space = build_config_space(
            models=self.model_space,
            include_data_preprocessing=self.include_data_preprocessing,
            include_feature_preprocessing=self.include_feature_preprocessing,
            forest_size=self.forest_size)
        self.automl_ = AutoML(space, search=self.search,
                              n_iterations=self.n_iterations,
                              time_budget=self.time_budget,
                              ensemble_size=self.ensemble_size,
                              trial_timeout=self.trial_timeout,
                              trial_isolation=self.trial_isolation,
                              run_log=self.run_log,
                              resume_from=self.resume_from,
                              seed=self.seed, verbose=self.verbose)
        self.automl_.fit(X_train, y_train, X_valid, y_valid,
                         run_context=self._run_context())
        return self

    def _capture_reference_profile(self, X: np.ndarray) -> None:
        """Accumulate the training-time feature/score distributions."""
        from ..features.profile import ProfileAccumulator

        generator = self.feature_generator_
        names = [f"{attribute}__{measure}"
                 for attribute, measure in generator.plan]
        accumulator = ProfileAccumulator(names, seed=self.seed)
        probabilities = self.automl_.predict_proba(X)[:, 1]
        predictions = self.automl_.predict(X)
        accumulator.update(X, probabilities=probabilities,
                           predictions=predictions)
        self.reference_profile_ = accumulator.finalize()

    def _run_context(self) -> dict:
        """Run-summary telemetry context: the feature plan."""
        return {"feature_plan": self.feature_plan}

    # -- inference ------------------------------------------------------

    def _features(self, pairs: PairSet) -> np.ndarray:
        self._check_fitted()
        if not hasattr(self, "feature_generator_"):
            raise RuntimeError(
                "matcher was fitted from matrices; pass matrices to "
                "predict_matrix/evaluate_matrix instead of pair sets")
        return self.feature_generator_.transform(pairs)

    def predict(self, pairs: PairSet) -> np.ndarray:
        """Match (1) / non-match (0) predictions for candidate pairs."""
        return self.automl_.predict(self._features(pairs))

    def predict_proba(self, pairs: PairSet) -> np.ndarray:
        return self.automl_.predict_proba(self._features(pairs))

    def predict_matrix(self, X) -> np.ndarray:
        self._check_fitted()
        return self.automl_.predict(X)

    def evaluate(self, test: PairSet) -> dict:
        """Precision / recall / F1 on a labeled test pair set."""
        return self.evaluate_matrix(self._features(test), test.labels)

    def evaluate_matrix(self, X_test, y_test) -> dict:
        self._check_fitted()
        predictions = self.automl_.predict(X_test)
        precision, recall, f1 = precision_recall_f1(y_test, predictions)
        return {"precision": precision, "recall": recall, "f1": f1}

    # -- deployment -----------------------------------------------------

    def export_bundle(self, path=None, *, threshold: float | None = None,
                      metrics: dict | None = None,
                      metadata: dict | None = None,
                      overwrite: bool = False):
        """Package the fitted matcher as a deployable ModelBundle.

        Returns a :class:`repro.serve.ModelBundle` (saved to ``path``
        when given) containing the winning fitted predictor (the greedy
        ensemble when one was built, else the best pipeline), the
        feature plan, the training schema, an optional decision
        ``threshold`` (``None`` keeps the predictor's native 0.5
        operating point, bit-identical to :meth:`predict`), and search
        provenance.  ``metrics`` (e.g. the :meth:`evaluate` dict) and
        ``metadata`` are recorded in the bundle manifest.
        """
        from ..serve.bundle import ModelBundle

        self._check_fitted()
        if not hasattr(self, "feature_generator_"):
            raise RuntimeError(
                "matcher was fitted from matrices; export_bundle needs "
                "the feature generator and schema of a pair-set fit")
        from .. import __version__

        generator = self.feature_generator_
        predictor = (self.automl_.ensemble_
                     if getattr(self.automl_, "ensemble_", None) is not None
                     else self.automl_.best_pipeline_)
        info = {
            "repro_version": __version__,
            "feature_plan": self.feature_plan,
            "search": self.search,
            "n_iterations": self.n_iterations,
            "seed": self.seed,
            "best_config": dict(self.best_config_),
            "best_score": self.best_score_,
            "best_random_state": getattr(self.automl_,
                                         "best_random_state_", None),
            "ensemble_size": self.ensemble_size,
        }
        if metrics is not None:
            info["metrics"] = dict(metrics)
        info.update(metadata or {})
        reference = getattr(self, "reference_profile_", None)
        bundle = ModelBundle(
            predictor, plan=list(generator.plan),
            schema=getattr(self, "schema_", None)
            or {attribute: "unspecified"
                for attribute, _ in generator.plan},
            threshold=threshold,
            metadata=info,
            reference_profile=(None if reference is None
                               else reference.as_dict()))
        if path is not None:
            bundle.save(path, overwrite=overwrite)
        return bundle

    # -- introspection --------------------------------------------------

    @property
    def best_config_(self) -> dict:
        self._check_fitted()
        return self.automl_.best_config_

    @property
    def best_score_(self) -> float:
        """Best validation F1 found during the search."""
        self._check_fitted()
        return self.automl_.best_score_

    @property
    def history_(self):
        self._check_fitted()
        return self.automl_.history_

    def describe_pipeline(self) -> str:
        """The winning configuration, printed Figure 11 style."""
        self._check_fitted()
        return self.automl_.best_pipeline.describe()

    def _check_fitted(self) -> None:
        if not hasattr(self, "automl_"):
            raise RuntimeError("AutoMLEM is not fitted yet; call fit first")
