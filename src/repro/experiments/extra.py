"""Ablation benches beyond the paper's figures (DESIGN.md section 5)."""

from __future__ import annotations

import time

import numpy as np

from ..blocking import (
    AttributeEquivalenceBlocker,
    IndexedBlocker,
    MinHashLSHBlocker,
    OverlapBlocker,
    QGramBlocker,
    evaluate_blocking,
)
from ..core import AutoMLEM
from ..core.active import AutoMLEMActive
from ..data.pairs import MATCH
from ..events import EventLog
from .configs import FAST, ExperimentConfig
from .results import ResultTable
from .runners import _next_blocking_log, load_bundle


def run_search_comparison(config: ExperimentConfig = FAST,
                          dataset: str = "abt_buy",
                          searches: tuple[str, ...] = ("random", "smac",
                                                       "tpe")) -> ResultTable:
    """Extra ablation: SMAC vs random vs TPE search on the same budget."""
    bundle = load_bundle(dataset, config)
    X_tr, X_va, X_te, _ = bundle.features("autoem")
    table = ResultTable(
        f"Extra - search algorithms on {dataset} (F1 x100)",
        ["search", "valid_f1", "test_f1"])
    for search in searches:
        matcher = AutoMLEM(search=search,
                           n_iterations=config.automl_iterations,
                           forest_size=config.forest_size, seed=0)
        matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                             bundle.valid.labels)
        test = matcher.evaluate_matrix(X_te, bundle.test.labels)["f1"]
        table.add_row(search=search, valid_f1=100 * matcher.best_score_,
                      test_f1=100 * test)
    return table


def run_concept_drift(config: ExperimentConfig = FAST,
                      dataset: str = "amazon_google",
                      init_size: int = 300, ac_batch: int = 10,
                      st_batch: int = 100, n_iterations: int = 8
                      ) -> ResultTable:
    """Extra ablation: self-training with vs without α-ratio preservation.

    The paper's Remark 2 argues the adopted machine labels must keep the
    initial positive ratio to avoid concept drift; this bench runs
    Algorithm 1 with the ratio guard on and off.
    """
    bundle = load_bundle(dataset, config)
    X_tr, X_va, X_te, generator = bundle.features("autoem")
    X_pool = np.vstack([X_tr, X_va])
    pool = bundle.pool
    table = ResultTable(
        f"Extra - concept-drift guard on {dataset} (test F1 x100)",
        ["ratio_preserved", "test_f1", "machine_label_accuracy"])
    for preserve in (True, False):
        active = AutoMLEMActive(
            init_size=init_size, ac_batch=ac_batch, st_batch=st_batch,
            n_iterations=n_iterations, inner_forest_size=config.forest_size,
            automl_kwargs=dict(n_iterations=config.automl_iterations,
                               forest_size=config.forest_size, seed=0),
            seed=0)
        if not preserve:
            # Disable the α guard: selection ignores the class mix.
            _disable_ratio_guard(active)
        active.fit(pool, X_pool=X_pool, feature_generator=generator)
        accuracy = float(np.mean(
            [it.machine_label_accuracy
             for it in active.history_.iterations])) if \
            active.history_.iterations else 1.0
        test = active.evaluate_matrix(X_te, bundle.test.labels)["f1"]
        table.add_row(ratio_preserved=preserve, test_f1=100 * test,
                      machine_label_accuracy=100 * accuracy)
    return table


def _disable_ratio_guard(active: AutoMLEMActive) -> None:
    """Monkey-patch selection to ignore the α class-ratio guard."""
    from ..core import selftraining

    original = selftraining.select_confident

    def unguarded(confidences, predictions, batch_size, positive_ratio=None):
        return original(confidences, predictions, batch_size,
                        positive_ratio=None)

    # The active loop calls the module function through its import inside
    # repro.core.active; patch it there for this instance's fit only.
    from ..core import active as active_module

    class _Patch:
        def __enter__(self):
            self._saved = active_module.select_confident
            active_module.select_confident = unguarded

        def __exit__(self, *exc):
            active_module.select_confident = self._saved

    original_fit = active.fit

    def patched_fit(*args, **kwargs):
        with _Patch():
            return original_fit(*args, **kwargs)

    active.fit = patched_fit


def standard_blockers(attribute: str,
                      equivalence_attribute: str | None = None) -> dict:
    """The default blocker catalog a blocking study sweeps."""
    return {
        f"attr_equivalence({equivalence_attribute or attribute})":
            AttributeEquivalenceBlocker(equivalence_attribute or attribute,
                                        normalize=True),
        f"overlap({attribute},1)":
            OverlapBlocker(attribute, min_overlap=1),
        f"qgram({attribute},q=3,t=2)":
            QGramBlocker(attribute, q=3, min_overlap=2),
        f"minhash_lsh({attribute},128x(32x4))":
            MinHashLSHBlocker(attribute, num_perm=128, bands=32,
                              random_state=0),
    }


def run_blocking_study(dataset: str = "fodors_zagats", seed: int = 1,
                       attribute: str = "name",
                       blockers: dict | None = None,
                       run_log=None) -> ResultTable:
    """Extra: blocking strategies' candidate counts, recall and cost.

    Not a paper artifact — the paper takes blocking as given (Section
    II-A); this study measures the substrate the other experiments stand
    on.  Gold matching pairs come from the generated benchmark's labeled
    pair set; every blocker in the catalog runs over the full A x B
    tables, and one ``"blocking"`` JSONL record per blocker lands in the
    same telemetry stream as the AutoML trial logs (``run_log`` path or
    open :class:`~repro.events.EventLog`; default: a
    ``blocking-run-*.jsonl`` file under the runner
    :data:`~repro.experiments.runners.RUN_LOG_DIR`).

    Indexed blockers are timed in two parts — standing-index build and
    probe — because that split is what the serving path cares about
    (``block_time`` for the scan-based blockers covers the whole run).
    """
    from ..data.synthetic import load_benchmark

    benchmark = load_benchmark(dataset, seed=seed)
    gold = {pair.key for pair in benchmark.pairs if pair.label == MATCH}
    table_a, table_b = benchmark.table_a, benchmark.table_b
    cross_product = table_a.num_rows * table_b.num_rows
    if blockers is None:
        blockers = standard_blockers(
            attribute,
            "city" if "city" in table_a.columns else None)
    table = ResultTable(
        f"Extra - blocking on {dataset} "
        f"(cross product = {cross_product} pairs)",
        ["blocker", "candidates", "reduction_pct", "recall_pct",
         "index_time", "block_time"])
    with EventLog.opened(run_log if run_log is not None
                         else _next_blocking_log()) as log:
        for name, blocker in blockers.items():
            try:
                index = None
                index_time = 0.0
                if isinstance(blocker, IndexedBlocker):
                    started = time.perf_counter()
                    index = blocker.index(table_b)
                    index_time = time.perf_counter() - started
                report = evaluate_blocking(
                    blocker, table_a, table_b, gold, index=index,
                    run_log=log, dataset=dataset, name=name,
                    index_time=index_time)
            except KeyError:
                continue
            table.add_row(
                blocker=name, candidates=report.num_candidates,
                reduction_pct=100.0 * report.reduction_ratio,
                recall_pct=100.0 * report.pair_completeness,
                index_time=index_time, block_time=report.elapsed)
        if log is not None:
            log.event("summary", dataset=dataset, n_blockers=len(table.rows))
    return table


def run_query_strategies(config: ExperimentConfig = FAST,
                         dataset: str = "amazon_google",
                         strategies: tuple[str, ...] = (
                             "uncertainty", "committee", "random"),
                         init_size: int = 200, ac_batch: int = 20,
                         n_iterations: int = 8, seeds: tuple[int, ...] = (0, 1)
                         ) -> ResultTable:
    """Future-work bench: alternative active-learning query strategies.

    The paper's conclusion proposes extending Algorithm 1 to query by
    committee and maximum margin (for a two-class forest, margin ranks
    the pool as ``uncertainty`` does); this bench runs every implemented
    strategy (self-training off, so the query policy is the only
    variable) under the same labeling budget.
    """
    bundle = load_bundle(dataset, config)
    X_tr, X_va, X_te, generator = bundle.features("autoem")
    X_pool = np.vstack([X_tr, X_va])
    pool = bundle.pool
    table = ResultTable(
        f"Extra - query strategies on {dataset} "
        f"(test F1 x100; st_batch=0, {n_iterations}x{ac_batch} labels)",
        ["strategy", "test_f1"])
    for strategy in strategies:
        scores = []
        for seed in seeds:
            active = AutoMLEMActive(
                init_size=init_size, ac_batch=ac_batch, st_batch=0,
                n_iterations=n_iterations,
                inner_forest_size=config.forest_size,
                query_strategy=strategy,
                automl_kwargs=dict(n_iterations=config.automl_iterations,
                                   forest_size=config.forest_size,
                                   seed=seed),
                seed=seed)
            active.fit(pool, X_pool=X_pool, feature_generator=generator)
            scores.append(100 * active.evaluate_matrix(
                X_te, bundle.test.labels)["f1"])
        table.add_row(strategy=strategy, test_f1=float(np.mean(scores)))
    return table


def run_ensemble_ablation(config: ExperimentConfig = FAST,
                          dataset: str = "abt_buy",
                          ensemble_sizes: tuple[int, ...] = (1, 3, 8)
                          ) -> ResultTable:
    """Future-work bench: single-best vs greedy ensemble selection.

    auto-sklearn (which the paper runs underneath) post-processes the
    search with Caruana-style ensemble selection; this bench measures
    what that machinery adds on the hardest dataset.
    """
    bundle = load_bundle(dataset, config)
    X_tr, X_va, X_te, _ = bundle.features("autoem")
    table = ResultTable(
        f"Extra - ensemble selection on {dataset} (F1 x100)",
        ["ensemble_size", "valid_f1", "test_f1"])
    for size in ensemble_sizes:
        matcher = AutoMLEM(n_iterations=config.automl_iterations,
                           forest_size=config.forest_size,
                           ensemble_size=size, seed=0)
        matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                             bundle.valid.labels)
        result = matcher.evaluate_matrix(X_te, bundle.test.labels)
        table.add_row(ensemble_size=size,
                      valid_f1=100 * matcher.best_score_,
                      test_f1=100 * result["f1"])
    return table


def run_metalearning_warmstart(config: ExperimentConfig = FAST,
                               target: str = "abt_buy",
                               sources: tuple[str, ...] = (
                                   "amazon_google", "walmart_amazon"),
                               budget: int = 8) -> ResultTable:
    """Future-work bench: meta-learning warm start vs cold start.

    Best configurations found on *other* product datasets seed the
    search on the target dataset; at a short budget the warm start
    should reach a good pipeline sooner (the paper's meta-learning
    future-work hypothesis).
    """
    from ..automl.metalearning import ConfigPortfolio
    from ..ml.preprocessing import SimpleImputer

    portfolio = ConfigPortfolio()
    for source in sources:
        bundle = load_bundle(source, config)
        X_tr, X_va, _, _ = bundle.features("autoem")
        matcher = AutoMLEM(n_iterations=config.automl_iterations,
                           forest_size=config.forest_size, seed=0)
        matcher.fit_matrices(X_tr, bundle.train.labels, X_va,
                             bundle.valid.labels)
        dense = SimpleImputer().fit_transform(X_tr)
        portfolio.record(source, dense, bundle.train.labels,
                         matcher.best_config_, matcher.best_score_)

    bundle = load_bundle(target, config)
    X_tr, X_va, X_te, _ = bundle.features("autoem")
    dense_target = SimpleImputer().fit_transform(X_tr)
    suggestions = portfolio.suggest(dense_target, bundle.train.labels, k=3)

    from ..automl.components import build_config_space
    from ..automl.optimizer import AutoML

    table = ResultTable(
        f"Extra - meta-learning warm start on {target} "
        f"(budget = {budget} evaluations)",
        ["variant", "valid_f1", "test_f1"])
    space = build_config_space(models=("random_forest",),
                               forest_size=config.forest_size)
    for variant, initial in (("cold", None), ("warm", suggestions)):
        automl = AutoML(space, n_iterations=budget,
                        initial_configs=initial, seed=0)
        automl.fit(X_tr, bundle.train.labels, X_va, bundle.valid.labels)
        from ..ml.metrics import f1_score as f1
        test_f1 = 100 * f1(bundle.test.labels, automl.predict(X_te))
        table.add_row(variant=variant, valid_f1=100 * automl.best_score_,
                      test_f1=test_f1)
    return table


def run_labeler_study(config: ExperimentConfig = FAST,
                      dataset: str = "dblp_acm",
                      n_labeled: int = 400) -> ResultTable:
    """Future-work bench: label-propagation inference.

    The paper's introduction names label propagation as an alternative
    automated labeling approach; this bench measures how many extra
    labels it infers from a seed of human labels and how accurate they
    are.
    """
    from ..core.labelers import LabelPropagationLabeler
    from ..ml.preprocessing import SimpleImputer

    bundle = load_bundle(dataset, config)
    pool = bundle.pool
    gold = pool.labels
    table = ResultTable(
        f"Extra - label inference on {dataset} "
        f"(seeded with {min(n_labeled, len(pool))} human labels)",
        ["labeler", "inferred", "accuracy_pct"])

    X_tr, X_va, _, _ = bundle.features("autoem")
    X_pool = SimpleImputer().fit_transform(np.vstack([X_tr, X_va]))
    cap = min(len(pool), 800)  # label propagation is O(n^2)
    seeds = np.full(cap, -1)
    seeds[:min(n_labeled, cap // 2)] = gold[:min(n_labeled, cap // 2)]
    propagation = LabelPropagationLabeler(confidence_threshold=0.9)
    result = propagation.infer(X_pool[:cap], seeds)
    if len(result):
        accuracy = float(np.mean(result.labels == gold[:cap][result.indices]))
    else:
        accuracy = 1.0
    table.add_row(labeler="label_propagation", inferred=int(len(result)),
                  accuracy_pct=100 * accuracy)
    return table


def run_serving_study(config: ExperimentConfig = FAST,
                      dataset: str = "fodors_zagats",
                      registry_root=None,
                      batch_size: int = 512) -> ResultTable:
    """Deployment bench: export → register → reload → serve parity.

    Trains AutoML-EM, publishes the winner through a
    :class:`~repro.serve.ModelRegistry`, reloads the bundle from disk
    and replays the test pairs through a micro-batched
    :class:`~repro.serve.BatchMatcher` — the served F1 must equal the
    in-process F1 (the bundle round-trip is lossless), and the table
    reports the serving path's batching and throughput alongside.
    """
    import tempfile

    from ..serve import BatchMatcher, ModelRegistry

    data = load_bundle(dataset, config)
    matcher = AutoMLEM(n_iterations=config.automl_iterations,
                       forest_size=config.forest_size,
                       trial_timeout=config.trial_timeout, seed=0)
    matcher.fit(data.train, data.valid)
    in_process = matcher.evaluate(data.test)

    root = registry_root or tempfile.mkdtemp(prefix="repro-registry-")
    registry = ModelRegistry(root)
    version = registry.register(
        matcher.export_bundle(metrics=in_process), dataset)
    reloaded = registry.get(dataset, version)
    with BatchMatcher(reloaded, batch_size=batch_size) as served:
        result = served.match_pairs(data.test)
    snapshot = served.metrics.snapshot()

    table = ResultTable(
        f"Extra - serving parity on {dataset} "
        f"(registry {root}, model {dataset} {version})",
        ["stage", "f1_pct", "pairs", "batches", "pairs_per_s"])
    table.add_row(stage="in-process", f1_pct=100 * in_process["f1"],
                  pairs=len(data.test))
    served_metrics = result.metrics()
    table.add_row(stage="served (bundle reload)",
                  f1_pct=100 * served_metrics["f1"], pairs=len(result),
                  batches=result.n_batches,
                  pairs_per_s=snapshot["pairs_per_second"])
    return table


def run_resolution_study(config: ExperimentConfig = FAST,
                         dataset: str = "fodors_zagats",
                         n_requests: int = 4,
                         batch_size: int = 512) -> ResultTable:
    """Deployment bench: pairwise decisions → stable entities.

    Trains AutoML-EM, streams the test pairs through a
    :class:`~repro.serve.BatchMatcher` in several requests with an
    :class:`~repro.resolve.EntityStore` resolver tap, and compares the
    matcher's *pairwise* F1 against the induced *clustering's* pairwise
    F1 (transitive closure plus correlation-clustering refinement
    should not lose quality).  A second store re-clusters the full
    decision set in one batch; its partition must equal the incremental
    one — the incremental-equals-batch parity guarantee, measured here
    on real model decisions rather than synthetic streams.
    """
    from ..blocking import gold_pair_keys
    from ..resolve import (
        CorrelationClustering,
        EntityStore,
        decisions_from_result,
        evaluate_clustering,
    )
    from ..serve import BatchMatcher

    data = load_bundle(dataset, config)
    matcher = AutoMLEM(n_iterations=config.automl_iterations,
                       forest_size=config.forest_size,
                       trial_timeout=config.trial_timeout, seed=0)
    matcher.fit(data.train, data.valid)
    bundle = matcher.export_bundle()

    store = EntityStore(refiner=CorrelationClustering(seed=0))
    test = data.test
    chunk = max(1, (len(test) + n_requests - 1) // n_requests)
    results = []
    with BatchMatcher(bundle, batch_size=batch_size,
                      resolver=store) as served:
        for start in range(0, len(test), chunk):
            results.append(served.match_pairs(test[start:start + chunk]))

    decisions = [decision for result in results
                 for decision in decisions_from_result(result)]
    predictions = np.concatenate([r.predictions for r in results])
    from ..ml.metrics import precision_recall_f1
    _, _, decision_f1 = precision_recall_f1(test.labels, predictions)

    gold = gold_pair_keys(test)
    entities = store.entities()
    components = {members[0]: members for members in entities.values()}
    report = evaluate_clustering(components, gold)

    batch_store = EntityStore(refiner=CorrelationClustering(seed=0))
    batch_store.apply(decisions)
    parity = batch_store.entities() == entities

    table = ResultTable(
        f"Extra - entity resolution on {dataset} "
        f"({len(decisions)} decisions over {len(results)} requests)",
        ["stage", "f1_pct", "ari_pct", "entities", "parity"])
    table.add_row(stage="pairwise decisions", f1_pct=100 * decision_f1)
    table.add_row(stage="entity clusters",
                  f1_pct=100 * report.pairwise_f1,
                  ari_pct=100 * report.adjusted_rand_index,
                  entities=report.n_entities,
                  parity=parity)
    return table
