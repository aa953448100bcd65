"""One runner per paper table/figure; the bench harness calls these.

Each ``run_*`` function regenerates the corresponding artifact of the
paper's evaluation section and returns :class:`ResultTable` objects whose
rows include the paper-reported numbers next to the measured ones.
Dataset bundles (generated benchmark + splits + feature matrices) are
cached per process so benches that share workloads don't recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from .. import ml
from ..automl.components import build_pipeline
from ..baselines import DeepMatcherLite, MagellanMatcher
from ..core import AutoMLEM, AutoMLEMActive
from ..data.pairs import PairSet
from ..data.synthetic import ALL_DATASETS, load_benchmark
from ..features import make_autoem_features, make_magellan_features
from ..ml.metrics import f1_score
from .configs import FAST, HARD_DATASETS, PAPER_NUMBERS, ExperimentConfig
from .results import ResultTable


@dataclass
class DatasetBundle:
    """A generated benchmark with splits and lazily cached features."""

    name: str
    benchmark: object
    train: PairSet
    valid: PairSet
    test: PairSet
    _features: dict = field(default_factory=dict)

    def features(self, plan: str):
        """(X_train, X_valid, X_test, generator) for "autoem"/"magellan"."""
        if plan not in self._features:
            maker = (make_autoem_features if plan == "autoem"
                     else make_magellan_features)
            generator = maker(self.benchmark.table_a, self.benchmark.table_b)
            self._features[plan] = (generator.transform(self.train),
                                    generator.transform(self.valid),
                                    generator.transform(self.test),
                                    generator)
        return self._features[plan]

    @property
    def pool(self) -> PairSet:
        """Train+valid pairs — the unlabeled pool for active learning."""
        return self.train.concat(self.valid)


_BUNDLES: dict[tuple, DatasetBundle] = {}

#: When set (e.g. by ``benchmarks/conftest.py --run-log-dir``), every
#: AutoML search the runners launch writes its JSONL trial telemetry to
#: a numbered file under this directory.
RUN_LOG_DIR: Path | None = None
_RUN_LOG_COUNT = count()


def set_run_log_dir(path) -> None:
    """Route all runner-launched searches' telemetry under ``path``."""
    global RUN_LOG_DIR
    RUN_LOG_DIR = Path(path) if path is not None else None


def _next_run_log() -> Path | None:
    if RUN_LOG_DIR is None:
        return None
    return RUN_LOG_DIR / f"automl-run-{next(_RUN_LOG_COUNT):04d}.jsonl"


_BLOCKING_LOG_COUNT = count()


def _next_blocking_log() -> Path | None:
    if RUN_LOG_DIR is None:
        return None
    return RUN_LOG_DIR / (f"blocking-run-"
                          f"{next(_BLOCKING_LOG_COUNT):04d}.jsonl")


def load_bundle(name: str, config: ExperimentConfig = FAST,
                generator_seed: int = 1) -> DatasetBundle:
    """Load (or reuse) a generated benchmark bundle."""
    key = (name, config.scales.get(name, 1.0), generator_seed,
           config.split_seed)
    if key not in _BUNDLES:
        benchmark = load_benchmark(name, seed=generator_seed,
                                   scale=config.scales.get(name, 1.0))
        train, valid, test = benchmark.splits(seed=config.split_seed)
        _BUNDLES[key] = DatasetBundle(name, benchmark, train, valid, test)
    return _BUNDLES[key]


def _automl_em(config: ExperimentConfig, **overrides) -> AutoMLEM:
    kwargs = dict(n_iterations=config.automl_iterations,
                  forest_size=config.forest_size,
                  trial_timeout=config.trial_timeout,
                  run_log=_next_run_log(), seed=0)
    kwargs.update(overrides)
    return AutoMLEM(**kwargs)


# ---------------------------------------------------------------------------
# Figure 3 — why tuning matters
# ---------------------------------------------------------------------------

def run_fig3(dataset: str = "abt_buy", config: ExperimentConfig = FAST
             ) -> dict[str, ResultTable]:
    """Figure 3: single-knob sweeps showing parameter tuning matters.

    Paper setup: Abt-Buy, 4/5 train / 1/5 eval, AutoML-EM feature
    vectors, default random forest; sweep (a) ``max_features``,
    (b) the number of selected features, (c) RobustScaler ``q_min``.
    """
    bundle = load_bundle(dataset, config)
    X_train, X_valid, X_test, _ = bundle.features("autoem")
    # "4/5 train, 1/5 eval": merge train+valid for training, eval on test.
    X_fit = np.vstack([X_train, X_valid])
    y_fit = np.concatenate([bundle.train.labels, bundle.valid.labels])
    y_test = bundle.test.labels
    imputer = ml.SimpleImputer()
    X_fit = imputer.fit_transform(X_fit)
    X_eval = imputer.transform(X_test)
    n_features = X_fit.shape[1]

    def forest(**kwargs):
        return ml.RandomForestClassifier(n_estimators=config.forest_size,
                                         random_state=0, **kwargs)

    sweep = [v for v in range(5, 71, 5) if v <= n_features]

    table_a = ResultTable("Figure 3a - tuning random forest max_features",
                          ["max_features", "f1"])
    for value in sweep:
        model = forest(max_features=value).fit(X_fit, y_fit)
        table_a.add_row(max_features=value,
                        f1=100 * f1_score(y_test, model.predict(X_eval)))

    table_b = ResultTable("Figure 3b - tuning SelectPercentile",
                          ["n_selected", "f1"])
    for value in sweep:
        selector = ml.SelectKBest(k=value)
        X_sel = selector.fit_transform(X_fit, y_fit)
        model = forest().fit(X_sel, y_fit)
        predictions = model.predict(selector.transform(X_eval))
        table_b.add_row(n_selected=value,
                        f1=100 * f1_score(y_test, predictions))

    # Reproduction finding: exact CART is invariant to per-feature affine
    # rescaling, so with a fixed forest seed q_min provably cannot change
    # predictions (the f1_fixed_seed column is flat).  The paper's small
    # ΔF1 = 1.17% is the same magnitude as plain run-to-run forest
    # variance, which the f1_reseeded column demonstrates by retraining
    # with a per-point seed — reproducing the *size* of the Figure 3c
    # effect and explaining its source.  See EXPERIMENTS.md.
    table_c = ResultTable("Figure 3c - tuning RobustScaler q_min",
                          ["q_min", "f1_fixed_seed", "f1_reseeded", "f1"])
    for value in range(0, 51, 5):
        scaler = ml.RobustScaler(q_min=max(float(value), 0.001), q_max=75.0)
        X_scaled = scaler.fit_transform(X_fit)
        X_eval_scaled = scaler.transform(X_eval)
        fixed = forest().fit(X_scaled, y_fit)
        fixed_f1 = 100 * f1_score(y_test, fixed.predict(X_eval_scaled))
        reseeded = ml.RandomForestClassifier(
            n_estimators=config.forest_size,
            random_state=1000 + value).fit(X_scaled, y_fit)
        reseeded_f1 = 100 * f1_score(y_test,
                                     reseeded.predict(X_eval_scaled))
        table_c.add_row(q_min=value, f1_fixed_seed=fixed_f1,
                        f1_reseeded=reseeded_f1, f1=reseeded_f1)

    return {"fig3a": table_a, "fig3b": table_b, "fig3c": table_c}


def f1_spread(table: ResultTable) -> float:
    """The ΔF1 the paper reports: best minus worst across the sweep."""
    scores = [s for s in table.column("f1") if s is not None]
    return max(scores) - min(scores)


# ---------------------------------------------------------------------------
# Table III — dataset summary
# ---------------------------------------------------------------------------

def run_table3(config: ExperimentConfig = FAST,
               datasets: tuple[str, ...] = ALL_DATASETS) -> ResultTable:
    """Table III: the generated benchmark inventory."""
    table = ResultTable(
        "Table III - EM datasets (generated analogs)",
        ["dataset", "train_size", "test_size", "positives", "num_attr",
         "scale"])
    for name in datasets:
        bundle = load_bundle(name, config)
        summary = bundle.benchmark.summary()
        table.add_row(dataset=summary["dataset"],
                      train_size=summary["train_size"],
                      test_size=summary["test_size"],
                      positives=summary["positive_pairs"],
                      num_attr=summary["num_attributes"],
                      scale=config.scales.get(name, 1.0))
    return table


# ---------------------------------------------------------------------------
# Table IV — Magellan vs AutoML-EM
# ---------------------------------------------------------------------------

def run_table4(config: ExperimentConfig = FAST,
               datasets: tuple[str, ...] = ALL_DATASETS) -> ResultTable:
    """Table IV: can AutoML-EM beat the human-developed Magellan models?"""
    table = ResultTable(
        "Table IV - Magellan vs AutoML-EM (test F1 x100)",
        ["dataset", "magellan", "automl_em", "delta",
         "paper_magellan", "paper_automl_em"])
    for name in datasets:
        magellan_scores, autoem_scores = [], []
        for seed in config.generator_seeds:
            bundle = load_bundle(name, config, generator_seed=seed)
            Xm_tr, Xm_va, Xm_te, _ = bundle.features("magellan")
            magellan = MagellanMatcher(forest_size=config.forest_size, seed=0)
            magellan.fit_matrices(Xm_tr, bundle.train.labels, Xm_va,
                                  bundle.valid.labels)
            magellan_scores.append(
                100 * magellan.evaluate_matrix(Xm_te,
                                               bundle.test.labels)["f1"])
            Xa_tr, Xa_va, Xa_te, _ = bundle.features("autoem")
            matcher = _automl_em(config)
            matcher.fit_matrices(Xa_tr, bundle.train.labels, Xa_va,
                                 bundle.valid.labels)
            autoem_scores.append(
                100 * matcher.evaluate_matrix(Xa_te,
                                              bundle.test.labels)["f1"])
        magellan_f1 = float(np.mean(magellan_scores))
        autoem_f1 = float(np.mean(autoem_scores))
        paper = PAPER_NUMBERS[name]
        table.add_row(dataset=name, magellan=magellan_f1,
                      automl_em=autoem_f1, delta=autoem_f1 - magellan_f1,
                      paper_magellan=paper["magellan"],
                      paper_automl_em=paper["automl_em"])
    return table


# ---------------------------------------------------------------------------
# Figure 8 — AutoML-EM vs DeepMatcher
# ---------------------------------------------------------------------------

def run_fig8(config: ExperimentConfig = FAST,
             datasets: tuple[str, ...] = ALL_DATASETS) -> ResultTable:
    """Figure 8: non-deep AutoML-EM vs the deep-learning baseline."""
    table = ResultTable(
        "Figure 8 - AutoML-EM vs DeepMatcherLite (test F1 x100)",
        ["dataset", "automl_em", "deepmatcher", "paper_automl_em",
         "paper_deepmatcher"])
    for name in datasets:
        bundle = load_bundle(name, config)
        Xa_tr, Xa_va, Xa_te, _ = bundle.features("autoem")
        matcher = _automl_em(config)
        matcher.fit_matrices(Xa_tr, bundle.train.labels, Xa_va,
                             bundle.valid.labels)
        autoem_f1 = 100 * matcher.evaluate_matrix(
            Xa_te, bundle.test.labels)["f1"]
        deep = DeepMatcherLite(seed=0)
        deep.fit(bundle.train, bundle.valid)
        deep_f1 = 100 * deep.evaluate(bundle.test)["f1"]
        paper = PAPER_NUMBERS[name]
        table.add_row(dataset=name, automl_em=autoem_f1, deepmatcher=deep_f1,
                      paper_automl_em=paper["automl_em"],
                      paper_deepmatcher=paper["deepmatcher"])
    return table


# ---------------------------------------------------------------------------
# Figure 9 — feature-generation ablation
# ---------------------------------------------------------------------------

def run_fig9(config: ExperimentConfig = FAST,
             datasets: tuple[str, ...] = ALL_DATASETS) -> ResultTable:
    """Figure 9: AutoML on Table I features vs Table II features."""
    table = ResultTable(
        "Figure 9 - Magellan vs AutoML-EM feature generation "
        "(AutoML, random-forest space; test F1 x100)",
        ["dataset", "magellan_nfeat", "magellan_f1", "autoem_nfeat",
         "autoem_f1", "delta", "paper_magellan_f1", "paper_autoem_f1"])
    for name in datasets:
        scores = {}
        nfeat = {}
        for plan in ("magellan", "autoem"):
            plan_scores = []
            for seed in config.generator_seeds:
                bundle = load_bundle(name, config, generator_seed=seed)
                X_tr, X_va, X_te, generator = bundle.features(plan)
                matcher = _automl_em(config)
                matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                                     bundle.valid.labels)
                plan_scores.append(100 * matcher.evaluate_matrix(
                    X_te, bundle.test.labels)["f1"])
                nfeat[plan] = generator.num_features
            scores[plan] = float(np.mean(plan_scores))
        paper = PAPER_NUMBERS[name]
        table.add_row(dataset=name, magellan_nfeat=nfeat["magellan"],
                      magellan_f1=scores["magellan"],
                      autoem_nfeat=nfeat["autoem"],
                      autoem_f1=scores["autoem"],
                      delta=scores["autoem"] - scores["magellan"],
                      paper_magellan_f1=paper["fig9_magellan_feats"],
                      paper_autoem_f1=paper["fig9_autoem_feats"])
    return table


# ---------------------------------------------------------------------------
# Figure 10 — model-space study (all-model vs random-forest-only)
# ---------------------------------------------------------------------------

def run_fig10(config: ExperimentConfig = FAST,
              datasets: tuple[str, ...] = HARD_DATASETS,
              budgets: tuple[int, ...] = (4, 8, 15, 25, 40)) -> ResultTable:
    """Figure 10: convergence of all-model vs RF-only search spaces.

    One search per space runs to the largest budget; incumbent
    validation/test scores are read off at each checkpoint (the paper's
    time axis becomes an evaluation-count axis, see DESIGN.md).
    """
    table = ResultTable(
        "Figure 10 - model-space study (F1 x100 at budget checkpoints)",
        ["dataset", "space", "budget", "valid_f1", "test_f1"])
    max_budget = max(budgets)
    for name in datasets:
        bundle = load_bundle(name, config)
        X_tr, X_va, X_te, _ = bundle.features("autoem")
        for space_name, models in (("all-model", "all"),
                                   ("random-forest", ("random_forest",))):
            matcher = _automl_em(config, model_space=models,
                                 n_iterations=max_budget)
            matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                                 bundle.valid.labels)
            trials = matcher.history_.trials
            for budget in budgets:
                upto = [t for t in trials[:budget] if t.error is None]
                if not upto:
                    table.add_row(dataset=name, space=space_name,
                                  budget=budget, valid_f1=0.0, test_f1=0.0)
                    continue
                best = max(upto, key=lambda t: t.score)
                # Use the trial's own seed so the checkpointed pipeline
                # is the model that earned the incumbent valid score.
                pipeline = build_pipeline(
                    best.config,
                    random_state=best.random_state
                    if best.random_state is not None else 0)
                pipeline.fit(X_tr, bundle.train.labels)
                test_f1 = 100 * f1_score(bundle.test.labels,
                                         pipeline.predict(X_te))
                table.add_row(dataset=name, space=space_name, budget=budget,
                              valid_f1=100 * best.score, test_f1=test_f1)
    return table


# ---------------------------------------------------------------------------
# Figure 12 — pipeline module ablation
# ---------------------------------------------------------------------------

def run_fig12(config: ExperimentConfig = FAST,
              datasets: tuple[str, ...] = HARD_DATASETS,
              seeds: tuple[int, ...] = (0, 1, 2)) -> ResultTable:
    """Figure 12: disable DP / FP modules of the *found* pipeline.

    The paper trains AutoML-EM, then re-evaluates the winning pipeline
    with data preprocessing (balancing + rescaling) and feature
    preprocessing forced off.  At bench scale a single search run is
    noisy (one lucky/unlucky winning config dominates the comparison),
    so the three variants are averaged over a few search seeds.
    """
    table = ResultTable(
        "Figure 12 - ablation of the resulting pipeline (valid F1 x100)",
        ["dataset", "automl_em", "excl_dp", "excl_dp_fp"])
    for name in datasets:
        bundle = load_bundle(name, config)
        X_tr, X_va, _, _ = bundle.features("autoem")
        scores = {"full": [], "no_dp": [], "no_dp_fp": []}
        for seed in seeds:
            matcher = _automl_em(config, seed=seed)
            matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                                 bundle.valid.labels)
            base_config = dict(matcher.best_config_)

            def valid_f1(cfg: dict) -> float:
                pipeline = build_pipeline(cfg, random_state=0)
                pipeline.fit(X_tr, bundle.train.labels)
                return 100 * f1_score(bundle.valid.labels,
                                      pipeline.predict(X_va))

            no_dp = dict(base_config)
            no_dp["balancing:strategy"] = "none"
            no_dp["rescaling:__choice__"] = "none"
            no_dp.pop("rescaling:robust_scaler:q_min", None)
            no_dp.pop("rescaling:robust_scaler:q_max", None)
            no_dp_fp = dict(no_dp)
            no_dp_fp["preprocessor:__choice__"] = "no_preprocessing"
            no_dp_fp = {k: v for k, v in no_dp_fp.items()
                        if not (k.startswith("preprocessor:")
                                and k != "preprocessor:__choice__")}
            scores["full"].append(valid_f1(base_config))
            scores["no_dp"].append(valid_f1(no_dp))
            scores["no_dp_fp"].append(valid_f1(no_dp_fp))
        table.add_row(dataset=name,
                      automl_em=float(np.mean(scores["full"])),
                      excl_dp=float(np.mean(scores["no_dp"])),
                      excl_dp_fp=float(np.mean(scores["no_dp_fp"])))
    return table


# ---------------------------------------------------------------------------
# Figures 13-15 — AutoML-EM-Active
# ---------------------------------------------------------------------------

def _active_test_f1(bundle: DatasetBundle, config: ExperimentConfig,
                    init_size: int, ac_batch: int, st_batch: int,
                    n_iterations: int, seeds: tuple[int, ...] = (0, 1)
                    ) -> float:
    """Run Algorithm 1 on the bundle's pool; mean test F1 x100 over seeds.

    Active-learning runs are high-variance (random init sample, small
    labeled sets); averaging a couple of algorithm seeds per cell keeps
    the figures' trends readable.
    """
    pool = bundle.pool
    X_tr, X_va, X_te, generator = bundle.features("autoem")
    X_pool = np.vstack([X_tr, X_va])
    scores = []
    for seed in seeds:
        active = AutoMLEMActive(
            init_size=min(init_size, max(2, len(pool) - 1)),
            ac_batch=ac_batch, st_batch=st_batch,
            n_iterations=n_iterations,
            inner_forest_size=config.forest_size,
            automl_kwargs=dict(n_iterations=config.automl_iterations,
                               forest_size=config.forest_size, seed=seed),
            seed=seed)
        active.fit(pool, X_pool=X_pool, feature_generator=generator)
        scores.append(
            100 * active.evaluate_matrix(X_te, bundle.test.labels)["f1"])
    return float(np.mean(scores))


def run_fig13(config: ExperimentConfig = FAST,
              datasets: tuple[str, ...] = HARD_DATASETS,
              label_budgets: tuple[int, ...] = (40, 160, 400),
              init_size: int = 500, ac_batch: int = 20,
              st_batch: int = 200) -> ResultTable:
    """Figure 13: test F1 vs active-learning label budget."""
    table = ResultTable(
        "Figure 13 - label-budget sweep (test F1 x100; init=500, "
        "st_batch=200)",
        ["dataset", "al_labels", "ac_automl_em", "automl_em_active"])
    for name in datasets:
        bundle = load_bundle(name, config)
        for budget in label_budgets:
            iterations = max(1, budget // ac_batch)
            baseline = _active_test_f1(bundle, config, init_size, ac_batch,
                                       0, iterations)
            hybrid = _active_test_f1(bundle, config, init_size, ac_batch,
                                     st_batch, iterations)
            table.add_row(dataset=name, al_labels=budget,
                          ac_automl_em=baseline, automl_em_active=hybrid)
    return table


def run_fig14(config: ExperimentConfig = FAST,
              datasets: tuple[str, ...] = HARD_DATASETS,
              init_sizes: tuple[int, ...] = (30, 100, 500),
              ac_batch: int = 20, st_batch: int = 200,
              n_iterations: int = 20) -> ResultTable:
    """Figure 14: effect of the initial training-data size."""
    table = ResultTable(
        "Figure 14 - initial-size sweep (test F1 x100; ac_batch=20, "
        "st_batch=200)",
        ["dataset", "init", "ac_automl_em", "automl_em_active"])
    for name in datasets:
        bundle = load_bundle(name, config)
        for init in init_sizes:
            baseline = _active_test_f1(bundle, config, init, ac_batch, 0,
                                       n_iterations)
            hybrid = _active_test_f1(bundle, config, init, ac_batch,
                                     st_batch, n_iterations)
            table.add_row(dataset=name, init=init, ac_automl_em=baseline,
                          automl_em_active=hybrid)
    return table


def run_fig15(config: ExperimentConfig = FAST,
              datasets: tuple[str, ...] = HARD_DATASETS,
              st_batches: tuple[int, ...] = (0, 20, 50, 200),
              init_size: int = 500, ac_batch: int = 2,
              n_iterations: int = 20) -> ResultTable:
    """Figure 15: effect of the self-training batch size."""
    table = ResultTable(
        "Figure 15 - st_batch sweep (test F1 x100; init=500, ac_batch=2)",
        ["dataset", "st_batch", "test_f1"])
    for name in datasets:
        bundle = load_bundle(name, config)
        for st_batch in st_batches:
            score = _active_test_f1(bundle, config, init_size, ac_batch,
                                    st_batch, n_iterations)
            table.add_row(dataset=name, st_batch=st_batch, test_f1=score)
    return table
