"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows without writing Python:

* ``list-datasets`` — the available Table III benchmark analogs;
* ``generate`` — write a benchmark's tables/pairs to CSV files;
* ``match`` — train AutoML-EM (or a baseline) and report test F1;
* ``experiment`` — run one paper table/figure runner and print it;
* ``export`` — train AutoML-EM and save/register a deployable
  :class:`~repro.serve.ModelBundle`;
* ``predict`` — score a pairs CSV with a saved bundle;
* ``serve-batch`` — run the full blocking → featurize → predict path
  over two tables with a saved bundle;
* ``serve-stream`` — serve probe-side record batches through a
  :class:`~repro.serve.MatchService` (a bounded queue drained in
  submission order) over a standing block index;
* ``block`` — run one blocker over two tables, report pair
  completeness / reduction ratio, and optionally persist the standing
  block index for reuse (see :mod:`repro.blocking`);
* ``monitor watch`` — serve synthetic (optionally drifted) traffic
  against a bundle under a :class:`~repro.monitor.FeatureDriftMonitor`,
  log drift records and evaluate the retrain triggers; ``--train``
  first exports a small bundle when the path does not exist;
* ``monitor shadow`` — shadow-score a registry challenger beside the
  champion and optionally promote it on a disagreement threshold;
* ``monitor promote`` — flip a registry model's ``LATEST`` pointer;
* ``monitor report`` — summarize an event log (any layer's records);
* ``resolve`` — cluster pairwise decisions into entities, fuse golden
  records, report cluster quality, and persist a versioned
  :class:`~repro.resolve.EntityStore` snapshot (see
  :mod:`repro.resolve`);
* ``lint`` — run the AST-based reproducibility linter (REP rules)
  over source trees (see :mod:`repro.devtools`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_list_datasets(args) -> int:
    from .data.synthetic import DATASET_SPECS

    print(f"{'key':20s} {'name':18s} {'pairs':>6s} {'pos':>5s} "
          f"{'attrs':>5s}  description")
    for key, spec in DATASET_SPECS.items():
        print(f"{key:20s} {spec.name:18s} {spec.total_pairs:6d} "
              f"{spec.positive_pairs:5d} {len(spec.factory.attributes):5d}"
              f"  {spec.description}")
    return 0


def _load_tables(args, data_dir: str | None = None):
    """The two tables to match and the benchmark they come from.

    ``data_dir`` names a CSV directory holding ``tableA.csv`` and
    ``tableB.csv`` (the benchmark is then None); without it the
    benchmark ``--dataset`` is generated at ``--seed`` / ``--scale``.
    """
    if data_dir:
        from .data.io import read_table

        data = Path(data_dir)
        return (read_table(data / "tableA.csv"),
                read_table(data / "tableB.csv"), None)
    from .data.synthetic import load_benchmark

    benchmark = load_benchmark(args.dataset, seed=args.seed,
                               scale=args.scale)
    return benchmark.table_a, benchmark.table_b, benchmark


def _read_pairs(data_dir: str, name: str, table_a, table_b):
    """A labeled-or-not pairs CSV inside ``data_dir`` over the tables."""
    from .data.io import read_pairs

    return read_pairs(Path(data_dir) / name, table_a, table_b)


def _load_splits(args, data_dir: str | None = None):
    """Train / valid / test pairs: ``data_dir`` CSVs or the benchmark's
    seeded splits."""
    table_a, table_b, benchmark = _load_tables(args, data_dir)
    if benchmark is not None:
        return benchmark.splits(seed=args.seed)
    return tuple(_read_pairs(data_dir, f"{split}.csv", table_a, table_b)
                 for split in ("train", "valid", "test"))


def _cmd_generate(args) -> int:
    from .data.io import write_pairs, write_table

    benchmark = _load_tables(args)[2]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_table(benchmark.table_a, out / "tableA.csv")
    write_table(benchmark.table_b, out / "tableB.csv")
    train, valid, test = benchmark.splits(seed=args.seed)
    write_pairs(train, out / "train.csv")
    write_pairs(valid, out / "valid.csv")
    write_pairs(test, out / "test.csv")
    print(f"wrote {benchmark.name} ({len(benchmark.pairs)} pairs, "
          f"{benchmark.pairs.num_positive} positive) to {out}/")
    return 0


def _automl_em(args, **kwargs):
    """An :class:`~repro.core.AutoMLEM` sized by the training-budget
    flags (:func:`_add_automl_args`)."""
    from .core import AutoMLEM

    return AutoMLEM(n_iterations=args.budget, forest_size=args.forest_size,
                    model_space="all" if args.all_models
                    else "random_forest",
                    trial_timeout=args.trial_timeout, seed=args.seed,
                    **kwargs)


def _cmd_match(args) -> int:
    train, valid, test = _load_splits(args, args.data_dir)
    if args.system == "automl-em":
        matcher = _automl_em(args, run_log=args.log,
                             resume_from=args.resume_from)
    elif args.system == "magellan":
        from .baselines import MagellanMatcher

        matcher = MagellanMatcher(forest_size=args.forest_size,
                                  seed=args.seed)
    else:
        from .baselines import DeepMatcherLite

        matcher = DeepMatcherLite(seed=args.seed)
    print(f"training {args.system} on {len(train)} train / "
          f"{len(valid)} valid pairs ...")
    matcher.fit(train, valid)
    result = matcher.evaluate(test)
    print(f"test precision={result['precision']:.4f} "
          f"recall={result['recall']:.4f} f1={result['f1']:.4f}")
    if args.system == "automl-em" and args.show_pipeline:
        print("\nbest pipeline:")
        print(matcher.describe_pipeline())
    return 0


_EXPERIMENTS = {
    "table3": "run_table3", "table4": "run_table4", "fig8": "run_fig8",
    "fig9": "run_fig9", "fig10": "run_fig10", "fig12": "run_fig12",
    "fig13": "run_fig13", "fig14": "run_fig14", "fig15": "run_fig15",
    "serving": "run_serving_study", "resolution": "run_resolution_study",
}

#: Experiments with their own (non ``config=``) signatures, dispatched
#: by hand in :func:`_cmd_experiment`.
_SPECIAL_EXPERIMENTS = ("fig3", "blocking")


def _cmd_experiment(args) -> int:
    from . import experiments

    if args.name == "fig3":
        tables = experiments.run_fig3(config=experiments.FAST)
        for table in tables.values():
            table.show()
        return 0
    if args.name == "blocking":
        experiments.run_blocking_study().show()
        return 0
    runner = getattr(experiments, _EXPERIMENTS[args.name])
    table = runner(config=experiments.FAST)
    table.show()
    return 0


def _resolve_bundle(args):
    """Bundle path → ModelBundle; with --name, path is a registry root."""
    from .serve import ModelBundle, ModelRegistry

    if args.name:
        return ModelRegistry(args.bundle).get(args.name, args.model_version)
    return ModelBundle.load(args.bundle)


def _write_predictions(results, path) -> int:
    """Scored pairs of every :class:`~repro.serve.MatchResult` → one CSV
    (ltable_id, rtable_id, probability, prediction); returns the rows."""
    import csv

    n_rows = 0
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ltable_id", "rtable_id", "probability",
                         "prediction"])
        for result in results:
            for pair, probability, prediction in zip(
                    result.pairs, result.probabilities, result.predictions):
                writer.writerow([pair.left.record_id, pair.right.record_id,
                                 f"{probability:.6f}", int(prediction)])
            n_rows += len(result)
    return n_rows


def _cmd_export(args) -> int:
    import time

    from .core import tune_threshold

    train, valid, test = _load_splits(args, args.data_dir)
    matcher = _automl_em(args)
    print(f"training automl-em on {len(train)} train / "
          f"{len(valid)} valid pairs ...")
    matcher.fit(train, valid)
    result = matcher.evaluate(test)
    threshold = None
    if args.tune_threshold:
        tuned = tune_threshold(matcher.predict_proba(valid)[:, 1],
                               valid.labels)
        threshold = tuned.threshold
        print(f"tuned threshold={threshold:.4f} "
              f"(valid F1 {tuned.default_score:.4f} -> {tuned.score:.4f})")
    # exported_at feeds the monitor's staleness trigger (bundle age);
    # cli.py is outside REP002's content-purity scope, so the wall
    # clock is read here, not inside the export path.
    bundle = matcher.export_bundle(threshold=threshold, metrics=result,
                                   metadata={"exported_at": time.time()})
    if args.name:
        from .serve import ModelRegistry

        registry = ModelRegistry(args.output)
        version = registry.register(bundle, args.name)
        print(f"registered {args.name} {version} "
              f"at {registry.path(args.name, version)}")
    else:
        bundle.save(args.output, overwrite=args.overwrite)
        print(f"wrote bundle to {args.output}")
    print(f"test f1={result['f1']:.4f}  "
          f"fingerprint={bundle.fingerprint[:16]}")
    return 0


def _cmd_predict(args) -> int:
    from .serve import BatchMatcher

    bundle = _resolve_bundle(args)
    table_a, table_b, _ = _load_tables(args, args.data_dir)
    pairs = _read_pairs(args.data_dir, args.pairs, table_a, table_b)
    with BatchMatcher(bundle, batch_size=args.batch_size,
                      request_log=args.log) as matcher:
        result = matcher.match_pairs(pairs)
    if args.output:
        n_rows = _write_predictions([result], args.output)
        print(f"wrote {n_rows} predictions to {args.output}")
    print(f"{len(result)} pairs -> {result.n_matches} predicted matches "
          f"({result.n_batches} batches)")
    if pairs.is_labeled:
        scores = result.metrics()
        print(f"precision={scores['precision']:.4f} "
              f"recall={scores['recall']:.4f} f1={scores['f1']:.4f}")
    return 0


def _cmd_serve_batch(args) -> int:
    from .serve import BatchMatcher

    bundle = _resolve_bundle(args)
    table_a, table_b, _ = _load_tables(args, args.data_dir)
    blocker = _make_blocker("overlap", args)
    with BatchMatcher(bundle, blocker, batch_size=args.batch_size,
                      request_log=args.log) as matcher:
        result = matcher.match(table_a, table_b)
    if args.output:
        n_rows = _write_predictions([result], args.output)
        print(f"wrote {n_rows} scored candidates to {args.output}")
    snapshot = matcher.metrics.snapshot()
    print(f"{table_a.num_rows}x{table_b.num_rows} rows -> "
          f"{len(result)} candidates -> {result.n_matches} matches "
          f"in {result.n_batches} batches "
          f"({snapshot['pairs_per_second']:.0f} pairs/s)")
    return 0


def _cmd_serve_stream(args) -> int:
    from .events import EventLog
    from .serve import MatchService, ServiceOverloaded, StreamMatcher

    bundle = _resolve_bundle(args)
    table_a, table_b, _ = _load_tables(args, args.data_dir)
    index = _make_blocker("qgram", args).index(table_b)
    records = list(table_a)
    batches = [records[start:start + args.batch_rows]
               for start in range(0, len(records), args.batch_rows)]
    # The matcher and the store write through one handle, so their
    # records interleave whole instead of overwriting each other.
    with EventLog.opened(args.log) as log:
        store = None
        if args.resolve:
            from .resolve import CorrelationClustering, EntityStore

            store = EntityStore(refiner=CorrelationClustering(seed=args.seed),
                                log=log)
        matcher = StreamMatcher(bundle, index=index,
                                max_batch_rows=args.batch_size,
                                request_log=log,
                                resolver=store)
        with MatchService(matcher, max_queue=args.max_queue,
                          overflow=args.overflow) as service:
            futures = []
            for batch in batches:
                try:
                    futures.append(service.submit_records(batch))
                except ServiceOverloaded:
                    # Load shed at the door is the contract of reject mode,
                    # not a crash; the metrics snapshot reports the count.
                    continue
            results = [future.result() for future in futures]
        snapshot = matcher.metrics.snapshot()
        if args.output:
            n_rows = _write_predictions(results, args.output)
            print(f"wrote {n_rows} scored candidates to {args.output}")
        n_pairs = sum(len(result) for result in results)
        n_matches = sum(result.n_matches for result in results)
        print(f"{len(batches)} record batches -> "
              f"{n_pairs} candidates -> {n_matches} matches "
              f"(max queue depth {snapshot['max_queue_depth']}, "
              f"{snapshot['rejected']} rejected, "
              f"{snapshot['pairs_per_second']:.0f} pairs/s)")
        if store is not None:
            stats = store.stats()
            print(f"resolved {stats['n_nodes']} records into "
                  f"{stats['n_components']} entities "
                  f"(store v{stats['version']}, "
                  f"entity-merge rate {stats['entity_merge_rate']:.3f})")
            if args.store:
                path = store.save(args.store)
                print(f"saved entity-store snapshot {path}")
            if log is not None:
                log.event("summary", **store.stats())
        return 0


def _cmd_resolve(args) -> int:
    import csv

    from .blocking import gold_pair_keys
    from .events import EventLog
    from .resolve import (
        CorrelationClustering,
        EntityStore,
        RecordFusion,
        decisions_from_result,
        evaluate_clustering,
        gold_decisions,
    )

    table_a, table_b, benchmark = _load_tables(args, args.data_dir)
    pairs = (benchmark.pairs if benchmark is not None
             else _read_pairs(args.data_dir, args.pairs, table_a, table_b))
    gold = gold_pair_keys(pairs) if pairs.is_labeled else None

    pairwise_f1 = None
    if args.bundle:
        from .serve import BatchMatcher

        bundle = _resolve_bundle(args)
        with BatchMatcher(bundle, batch_size=args.batch_size) as matcher:
            result = matcher.match_pairs(pairs)
        decisions = decisions_from_result(result)
        if pairs.is_labeled:
            pairwise_f1 = result.metrics()["f1"]
    else:
        if not pairs.is_labeled:
            raise SystemExit(
                "resolve without --bundle clusters gold labels, but the "
                "pairs are unlabeled; pass --bundle to score them first")
        # Oracle mode: cluster the gold labels themselves — exercises
        # the clustering + fusion + persistence path with no model.
        decisions = gold_decisions(pairs)

    per_attribute = {}
    for override in args.fuse or ():
        attribute, _, resolver = override.partition("=")
        if not resolver:
            raise SystemExit(f"--fuse expects ATTR=RESOLVER, "
                             f"got {override!r}")
        per_attribute[attribute] = resolver
    with EventLog.opened(args.log) as log:
        store = EntityStore(
            threshold=args.threshold,
            refiner=(None if args.no_refine
                     else CorrelationClustering(seed=args.seed)),
            fusion=RecordFusion(default=args.default_resolver,
                                per_attribute=per_attribute, seed=args.seed),
            log=log)
        store.add_records("a", {pair.left.record_id: pair.left
                                for pair in pairs}.values())
        store.add_records("b", {pair.right.record_id: pair.right
                                for pair in pairs}.values())
        store.apply(decisions, context={"source": "cli-resolve"})

        entities = store.entities()
        print(f"{len(pairs)} decisions -> {len(entities)} entities "
              f"(store v{store.version}, "
              f"fingerprint {store.fingerprint[:16]})")
        if gold is not None:
            components = {members[0]: members
                          for members in entities.values()}
            report = evaluate_clustering(components, gold)
            f1_note = (f"  (pairwise-decision f1={pairwise_f1:.4f})"
                       if pairwise_f1 is not None else "")
            print(f"cluster precision={report.pairwise_precision:.4f} "
                  f"recall={report.pairwise_recall:.4f} "
                  f"f1={report.pairwise_f1:.4f} "
                  f"ari={report.adjusted_rand_index:.4f}{f1_note}")
            sizes = " ".join(f"{bucket}:{count}" for bucket, count
                             in report.cluster_sizes.items())
            print(f"cluster sizes: {sizes}")
        if args.output:
            golden = store.golden_records()
            columns: list[str] = []
            for record in golden.values():
                for column in record:
                    if column not in columns:
                        columns.append(column)
            with Path(args.output).open("w", newline="",
                                        encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(["entity_id", "n_members", *columns])
                for entity_id in sorted(golden):
                    writer.writerow([entity_id,
                                     len(store.members(entity_id)),
                                     *[golden[entity_id].get(column)
                                       for column in columns]])
            print(f"wrote {len(golden)} golden records to {args.output}")
        if args.store:
            path = store.save(args.store)
            print(f"saved entity-store snapshot {path}")
        if log is not None:
            log.event("summary", **store.stats())
        return 0


def _make_blocker(kind: str, args):
    """A ``kind`` blocker (a ``block --blocker`` choice) on ``--block-on``,
    configured from the flags that kind reads."""
    from .blocking import (
        AttributeEquivalenceBlocker,
        MinHashLSHBlocker,
        OverlapBlocker,
        QGramBlocker,
    )

    if kind == "qgram":
        return QGramBlocker(args.block_on, q=args.q,
                            min_overlap=args.min_overlap)
    if kind == "minhash":
        return MinHashLSHBlocker(args.block_on, num_perm=args.num_perm,
                                 bands=args.bands,
                                 random_state=args.random_state)
    if kind == "overlap":
        return OverlapBlocker(args.block_on, min_overlap=args.min_overlap)
    return AttributeEquivalenceBlocker(args.block_on,
                                       normalize=args.normalize)


def _cmd_block(args) -> int:
    from .blocking import evaluate_blocking, gold_pair_keys
    from .blocking.indexed import IndexedBlocker

    table_a, table_b, benchmark = _load_tables(args, args.data_dir)
    gold = gold_pair_keys(benchmark.pairs) if benchmark is not None else None
    blocker = _make_blocker(args.blocker, args)
    index = None
    if isinstance(blocker, IndexedBlocker):
        if args.index_path:
            index = blocker.load_index_if_valid(args.index_path, table_b)
            if index is not None:
                print(f"reusing persisted index {args.index_path} "
                      f"({index.num_records} records)")
            else:
                index = blocker.index(table_b)
                index.save(args.index_path)
                print(f"built and saved index {args.index_path} "
                      f"({index.num_records} records)")
        else:
            index = blocker.index(table_b)
    report = evaluate_blocking(blocker, table_a, table_b, gold,
                               index=index, run_log=args.log,
                               dataset=None if benchmark is None
                               else args.dataset)
    if args.output:
        candidates = (index.probe(table_a) if index is not None
                      else blocker.block(table_a, table_b))
        from .data.io import write_pairs

        write_pairs(candidates, args.output)
        print(f"wrote {len(candidates)} candidate pairs to {args.output}")
    completeness = (f"completeness={report.pair_completeness:.4f}  "
                    if gold is not None else "")
    print(f"{report.blocker}: "
          f"{table_a.num_rows}x{table_b.num_rows} rows -> "
          f"{report.num_candidates} candidates  "
          f"reduction={report.reduction_ratio:.4f}  "
          f"{completeness}elapsed={report.elapsed:.3f}s")
    if report.block_sizes:
        sizes = " ".join(f"{bucket}:{count}" for bucket, count
                         in report.block_sizes.items())
        print(f"block sizes: {sizes}")
    return 0


def _traffic(args, pairs):
    """Serving-side traffic for ``monitor watch`` / ``shadow``: the
    benchmark's test ``pairs``, corrupted by ``--drift`` when it is set,
    as a seeded stream of ``--batches`` requests."""
    from .monitor import drifted_pairs, request_batches

    if args.drift > 0:
        pairs = drifted_pairs(pairs, factor=args.drift, seed=args.seed)
    return request_batches(pairs, args.batch_pairs, n_batches=args.batches,
                           seed=args.seed)


def _train_bundle(args, path: Path, splits) -> None:
    """Train a small AutoML-EM model on the train / valid / test
    ``splits`` and export it (with reference profile) to ``path`` — the
    ``monitor watch --train`` bootstrap."""
    from .core import AutoMLEM

    train, valid, test = splits
    matcher = AutoMLEM(n_iterations=args.budget,
                       forest_size=args.forest_size, seed=args.seed)
    print(f"training bootstrap model on {len(train)} train / "
          f"{len(valid)} valid pairs ...")
    matcher.fit(train, valid)
    metrics = matcher.evaluate(test)
    matcher.export_bundle(path, metrics=metrics)
    print(f"exported bundle to {path} (test f1={metrics['f1']:.4f})")


def _print_drift_report(report: dict) -> None:
    verdict = ("DRIFTED" if report["drifted"]
               else "quiet" if report["sufficient"]
               else "insufficient data")
    print(f"drift verdict: {verdict}  ({report['n_rows']} live rows, "
          f"score_psi={report['score_psi']:.4f}, "
          f"match_rate {report['reference_match_rate']:.3f} -> "
          f"{report['match_rate']:.3f})")
    for feature in report["features"]:
        flag = " <-- drifted" if feature["drifted"] else ""
        print(f"  {feature['name']:40s} psi={feature['psi']:7.4f} "
              f"ks={feature['ks']:6.4f} "
              f"null={feature['null_rate']:5.3f}{flag}")


def _cmd_watch(args) -> int:
    from .events import EventLog
    from .monitor import (
        FeatureDriftMonitor,
        MonitorStatus,
        bundle_age_seconds,
        default_policies,
        evaluate_policies,
    )
    from .serve import ModelBundle, StreamMatcher

    bundle_path = Path(args.bundle)
    if not bundle_path.exists() and not args.train:
        raise SystemExit(f"bundle {bundle_path} does not exist "
                         f"(pass --train to bootstrap one)")
    splits = _load_splits(args)
    if not bundle_path.exists():
        _train_bundle(args, bundle_path, splits)
    bundle = ModelBundle.load(bundle_path)
    monitor = FeatureDriftMonitor.for_bundle(
        bundle, min_rows=args.min_rows, seed=args.seed)
    batches = _traffic(args, splits[2])
    matcher = StreamMatcher(bundle, monitor=monitor)
    n_batches = 0
    with EventLog.opened(args.log) as log, matcher:
        for batch in batches:
            matcher.submit(batch)
            n_batches += 1
            if log is not None and n_batches % args.interval == 0:
                log.event("drift", batch=n_batches,
                          **monitor.report().as_dict())
        report = monitor.report()
        if log is not None:
            log.event("drift", batch=n_batches, final=True,
                      **report.as_dict())
        _print_drift_report(report.as_dict())
        status = MonitorStatus(
            drift=report, metrics=matcher.metrics.snapshot(),
            requests_since_export=matcher.metrics.snapshot()["requests"],
            bundle_age=bundle_age_seconds(bundle.metadata))
        plan = evaluate_policies(
            default_policies(max_requests=args.max_requests),
            status, resume_from=args.resume_from)
        if plan is not None:
            print(f"retrain trigger fired [{plan.policy}]: {plan.reason}")
            if log is not None:
                log.event("trigger", **plan.as_dict())
            if args.emit_plan:
                plan.save(args.emit_plan)
                print(f"wrote retrain plan to {args.emit_plan}")
        else:
            print("no retrain trigger fired")
    if args.fail_on_drift and report.drifted:
        return 2
    return 0


def _cmd_shadow(args) -> int:
    from .monitor import ShadowEvaluator
    from .serve import StreamMatcher

    evaluator = ShadowEvaluator.from_registry(
        args.registry, args.model_name, args.challenger,
        champion_version=args.champion, sample_rate=args.sample_rate,
        seed=args.seed, log=args.log)
    batches = _traffic(args, _load_splits(args)[2])
    matcher = StreamMatcher(evaluator.champion, shadow=evaluator)
    try:
        for batch in batches:
            matcher.submit(batch)
        summary = evaluator.summary()
        print(f"shadow: {summary['n_sampled']} sampled pairs over "
              f"{summary['n_requests']} requests  "
              f"disagreement={summary['disagreement_rate']:.4f}  "
              f"mean|delta|={summary['mean_abs_delta']:.4f}  "
              f"latency_overhead={summary['latency_overhead']:.2f}x")
        if args.promote_below is not None:
            if summary["disagreement_rate"] <= args.promote_below:
                version = evaluator.promote()
                print(f"promoted {args.model_name} -> {version}")
            else:
                print(f"not promoting: disagreement "
                      f"{summary['disagreement_rate']:.4f} > "
                      f"{args.promote_below}")
    finally:
        evaluator.close()
        matcher.close()
    return 0


def _cmd_promote(args) -> int:
    from .events import EventLog
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    previous = registry.latest(args.model_name)
    version = registry.promote(args.model_name, args.to)
    print(f"promoted {args.model_name}: {previous} -> {version}")
    with EventLog.opened(args.log, append=True) as log:
        if log is not None:
            log.event("promotion", model_name=args.model_name,
                      promoted=version, previous=previous)
    return 0


def _cmd_report(args) -> int:
    import json

    from .events import deterministic_view, read_events

    records = read_events(args.log)
    if args.deterministic:
        for record in deterministic_view(records):
            print(json.dumps(record, sort_keys=True))
        return 0
    by_type: dict[str, int] = {}
    for record in records:
        kind = str(record.get("type", "?"))
        by_type[kind] = by_type.get(kind, 0) + 1
    counts = ", ".join(f"{count} {kind}"
                       for kind, count in sorted(by_type.items()))
    print(f"{args.log}: {len(records)} records ({counts})")
    drift_records = [r for r in records if r.get("type") == "drift"]
    if drift_records:
        _print_drift_report(drift_records[-1])
    shadow_finals = [r for r in records if r.get("type") == "shadow"
                     and r.get("final")]
    if shadow_finals:
        last = shadow_finals[-1]
        print(f"shadow: disagreement={last['disagreement_rate']:.4f} "
              f"over {last['n_sampled']} sampled pairs")
    for record in records:
        if record.get("type") == "trigger":
            print(f"trigger [{record.get('policy')}]: "
                  f"{record.get('reason')}")
        elif record.get("type") == "promotion":
            print(f"promotion: {record.get('model_name')} "
                  f"{record.get('previous')} -> {record.get('promoted')}")
    return 0


def _cmd_lint(args) -> int:
    from .devtools.lint import run_args

    return run_args(args)


def _add_benchmark_args(parser) -> None:
    """The generated benchmark: ``--dataset`` key, ``--seed``, ``--scale``."""
    parser.add_argument("--dataset", default="fodors_zagats",
                        help="generated benchmark key (see list-datasets)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)


def _add_input_args(parser) -> None:
    """Benchmark-or-CSV input, read by :func:`_load_tables`."""
    parser.add_argument("--data-dir", default=None,
                        help="CSV directory (tableA.csv, tableB.csv and the "
                             "pairs CSVs) instead of a generated benchmark")
    _add_benchmark_args(parser)


def _add_bundle_args(parser) -> None:
    """Registry selection + scoring knobs for a command's bundle path."""
    parser.add_argument("--name", default=None,
                        help="treat the bundle path as a ModelRegistry "
                             "root and load this registered model")
    parser.add_argument("--model-version", default=None,
                        help="registry version (default: latest)")
    parser.add_argument("--batch-size", type=int, default=4096,
                        help="featurization micro-batch row cap")


def _add_serve_args(parser) -> None:
    """Bundle + serving knobs shared by predict/serve-batch/serve-stream."""
    parser.add_argument("bundle",
                        help="bundle directory (or registry root with "
                             "--name)")
    _add_bundle_args(parser)
    parser.add_argument("--log", default=None, metavar="PATH",
                        help="write JSONL request telemetry (one record "
                             "per request + a metrics summary) to this "
                             "event log; the file is rewritten")
    parser.add_argument("--output", default=None,
                        help="write scored pairs CSV here")


def _add_automl_args(parser) -> None:
    """AutoML training budget, read by :func:`_automl_em`."""
    parser.add_argument("--budget", type=int, default=20,
                        help="AutoML pipeline evaluations")
    parser.add_argument("--forest-size", type=int, default=50)
    parser.add_argument("--all-models", action="store_true",
                        help="search the full model space, not RF-only")
    parser.add_argument("--trial-timeout", type=float, default=None,
                        help="per-trial wall-clock limit in seconds; a "
                             "timed-out pipeline is scored as a failed "
                             "trial and the search continues")


def _add_traffic_args(parser) -> None:
    """Monitor traffic, read by :func:`_traffic`."""
    _add_benchmark_args(parser)
    parser.add_argument("--batches", type=int, default=20,
                        help="requests to serve")
    parser.add_argument("--batch-pairs", type=int, default=32,
                        help="candidate pairs per request")
    parser.add_argument("--drift", type=float, default=0.0,
                        help="corruption factor for the probe side "
                             "(0 = clean control traffic)")


def _add_monitor_parsers(commands) -> None:
    monitor = commands.add_parser(
        "monitor",
        help="drift detection, shadow evaluation and retrain triggers")
    sub = monitor.add_subparsers(dest="monitor_command", required=True)

    watch = sub.add_parser(
        "watch", help="serve synthetic traffic under a drift monitor")
    watch.add_argument("bundle", help="bundle directory to serve")
    watch.add_argument("--train", action="store_true",
                       help="train + export a small bundle first if the "
                            "path does not exist")
    watch.add_argument("--budget", type=int, default=2,
                       help="AutoML evaluations for --train")
    watch.add_argument("--forest-size", type=int, default=8,
                       help="forest size for --train")
    _add_traffic_args(watch)
    watch.add_argument("--interval", type=int, default=5,
                       help="emit a drift record every N batches")
    watch.add_argument("--min-rows", type=int, default=100,
                       help="live rows before a drift verdict")
    watch.add_argument("--log", default=None, metavar="PATH",
                       help="write drift and trigger records to this "
                            "JSONL event log (the file is rewritten)")
    watch.add_argument("--max-requests", type=int, default=None,
                       help="staleness trigger: request-count limit")
    watch.add_argument("--resume-from", default=None,
                       help="champion run log to stamp into an emitted "
                            "retrain plan")
    watch.add_argument("--emit-plan", default=None,
                       help="write a fired RetrainPlan JSON here")
    watch.add_argument("--fail-on-drift", action="store_true",
                       help="exit 2 when the final verdict is drifted")

    shadow = sub.add_parser(
        "shadow",
        help="shadow-score a registry challenger against the champion")
    shadow.add_argument("registry", help="ModelRegistry root")
    shadow.add_argument("--model-name", required=True)
    shadow.add_argument("--challenger", required=True,
                        help="challenger version (e.g. v0002)")
    shadow.add_argument("--champion", default=None,
                        help="champion version (default: LATEST)")
    shadow.add_argument("--sample-rate", type=float, default=0.25)
    _add_traffic_args(shadow)
    shadow.add_argument("--log", default=None, metavar="PATH",
                        help="write shadow and promotion records to this "
                             "JSONL event log (the file is rewritten)")
    shadow.add_argument("--promote-below", type=float, default=None,
                        help="promote the challenger when disagreement "
                             "rate is at or below this")

    promote = sub.add_parser(
        "promote", help="flip a registry model's LATEST pointer")
    promote.add_argument("registry", help="ModelRegistry root")
    promote.add_argument("--model-name", required=True)
    promote.add_argument("--to", required=True,
                         help="version to promote (e.g. v0002)")
    promote.add_argument("--log", default=None, metavar="PATH",
                         help="append a promotion record to this JSONL "
                              "event log (existing records are kept)")

    report = sub.add_parser(
        "report", help="summarize a JSONL event log")
    report.add_argument("log", help="event log path")
    report.add_argument("--deterministic", action="store_true",
                        help="print the deterministic (timing-stripped) "
                             "record view instead of a summary")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="AutoML-EM reproduction (ICDE 2021) command line")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-datasets",
                        help="list the Table III benchmark analogs")

    generate = commands.add_parser(
        "generate", help="write a benchmark to CSV files")
    generate.add_argument("dataset", help="dataset key (see list-datasets)")
    generate.add_argument("output", help="output directory")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--scale", type=float, default=1.0)

    match = commands.add_parser(
        "match", help="train a matcher and report test F1")
    _add_input_args(match)
    match.add_argument("--system", default="automl-em",
                       choices=("automl-em", "magellan", "deepmatcher"))
    _add_automl_args(match)
    match.add_argument("--log", default=None, metavar="PATH",
                       help="write JSONL trial telemetry (one record per "
                            "trial + a run summary) to this event log; "
                            "the file is rewritten (automl-em only)")
    match.add_argument("--resume-from", default=None,
                       help="resume the search from a prior run log / "
                            "saved history JSONL (automl-em only)")
    match.add_argument("--show-pipeline", action="store_true")

    experiment = commands.add_parser(
        "experiment", help="run one paper table/figure runner")
    experiment.add_argument("name",
                            choices=(*_SPECIAL_EXPERIMENTS,
                                     *sorted(_EXPERIMENTS)))

    export = commands.add_parser(
        "export", help="train AutoML-EM and save a deployable bundle")
    export.add_argument("output",
                        help="bundle directory (or registry root with "
                             "--name)")
    export.add_argument("--name", default=None,
                        help="register into a ModelRegistry at OUTPUT "
                             "under this model name")
    _add_input_args(export)
    _add_automl_args(export)
    export.add_argument("--tune-threshold", action="store_true",
                        help="store a validation-tuned decision "
                             "threshold instead of the native 0.5")
    export.add_argument("--overwrite", action="store_true",
                        help="replace an existing bundle directory")

    predict = commands.add_parser(
        "predict", help="score a pairs CSV with a saved bundle")
    _add_serve_args(predict)
    predict.add_argument("--data-dir", required=True,
                         help="CSV directory with tableA.csv/tableB.csv "
                              "and the pairs file")
    predict.add_argument("--pairs", default="test.csv",
                         help="pairs CSV inside --data-dir "
                              "(default: test.csv)")

    serve_batch = commands.add_parser(
        "serve-batch",
        help="block + featurize + predict over two tables")
    _add_serve_args(serve_batch)
    _add_input_args(serve_batch)
    serve_batch.add_argument("--block-on", default="name",
                             help="attribute for the overlap blocker")
    serve_batch.add_argument("--min-overlap", type=int, default=1)

    serve_stream = commands.add_parser(
        "serve-stream",
        help="serve probe-side record batches through a MatchService "
             "queue over a standing block index")
    _add_serve_args(serve_stream)
    _add_input_args(serve_stream)
    serve_stream.add_argument("--block-on", default="name",
                              help="attribute for the q-gram blocker")
    serve_stream.add_argument("--min-overlap", type=int, default=2)
    serve_stream.add_argument("--q", type=int, default=3,
                              help="q-gram size")
    serve_stream.add_argument("--max-queue", type=int, default=64,
                              help="bounded request-queue size")
    serve_stream.add_argument("--overflow", default="block",
                              choices=("block", "reject"),
                              help="backpressure when the queue is full")
    serve_stream.add_argument("--batch-rows", type=int, default=64,
                              help="probe-side records per request")
    serve_stream.add_argument("--resolve", action="store_true",
                              help="fold every scored request into a "
                                   "standing EntityStore and report "
                                   "entity assignments (its resolve "
                                   "records go to --log too)")
    serve_stream.add_argument("--store", default=None,
                              help="save an entity-store snapshot to "
                                   "this directory on exit (with "
                                   "--resolve)")

    resolve = commands.add_parser(
        "resolve",
        help="cluster pairwise decisions into entities and fuse golden "
             "records")
    resolve.add_argument("--bundle", default=None,
                         help="bundle directory (or registry root with "
                              "--name); omitted: cluster the gold labels "
                              "(oracle mode)")
    _add_bundle_args(resolve)
    _add_input_args(resolve)
    resolve.add_argument("--pairs", default="test.csv",
                         help="pairs CSV inside --data-dir "
                              "(default: test.csv)")
    resolve.add_argument("--threshold", type=float, default=None,
                         help="re-threshold positive edges on score "
                              "(default: trust the bundle's decisions)")
    resolve.add_argument("--no-refine", action="store_true",
                         help="skip correlation-clustering refinement "
                              "of over-merged components")
    resolve.add_argument("--default-resolver", default="most_frequent",
                         choices=("longest", "most_frequent",
                                  "numeric_median", "newest"),
                         help="fusion resolver for attributes without "
                              "a --fuse override")
    resolve.add_argument("--fuse", action="append", metavar="ATTR=RESOLVER",
                         help="per-attribute fusion override "
                              "(repeatable)")
    resolve.add_argument("--output", default=None,
                         help="write the golden-records CSV here")
    resolve.add_argument("--store", default=None,
                         help="save an entity-store snapshot to this "
                              "directory")
    resolve.add_argument("--log", default=None, metavar="PATH",
                         help="write JSONL resolve telemetry to this "
                              "event log; the file is rewritten")

    block = commands.add_parser(
        "block",
        help="run a blocker over two tables and report its quality "
             "(pair completeness needs a generated benchmark's gold "
             "pairs)")
    block.add_argument("--blocker", default="qgram",
                       choices=("qgram", "minhash", "overlap",
                                "equivalence"))
    _add_input_args(block)
    block.add_argument("--block-on", default="name",
                       help="blocking attribute")
    block.add_argument("--min-overlap", type=int, default=2,
                       help="token overlap threshold (qgram / overlap)")
    block.add_argument("--q", type=int, default=3,
                       help="q-gram size (qgram)")
    block.add_argument("--num-perm", type=int, default=128,
                       help="minhash signature size (minhash)")
    block.add_argument("--bands", type=int, default=32,
                       help="LSH bands; bands x rows = num-perm (minhash)")
    block.add_argument("--random-state", type=int, default=0,
                       help="minhash permutation seed (minhash)")
    block.add_argument("--normalize", action="store_true",
                       help="case/whitespace-normalized comparison "
                            "(equivalence)")
    block.add_argument("--index-path", default=None,
                       help="persist / reuse the standing block index at "
                            "this path (qgram / minhash)")
    block.add_argument("--log", default=None, metavar="PATH",
                       help="write one JSONL blocking record to this "
                            "event log; the file is rewritten")
    block.add_argument("--output", default=None,
                       help="write the candidate pairs CSV here")

    _add_monitor_parsers(commands)

    from .devtools.lint import add_arguments as add_lint_arguments

    add_lint_arguments(commands.add_parser(
        "lint", help="run the AST-based reproducibility linter"))
    return parser


#: Command path (``monitor`` subcommands as ``"monitor <name>"``) →
#: handler.
_HANDLERS = {
    "list-datasets": _cmd_list_datasets,
    "generate": _cmd_generate,
    "match": _cmd_match,
    "experiment": _cmd_experiment,
    "export": _cmd_export,
    "predict": _cmd_predict,
    "serve-batch": _cmd_serve_batch,
    "serve-stream": _cmd_serve_stream,
    "resolve": _cmd_resolve,
    "block": _cmd_block,
    "monitor watch": _cmd_watch,
    "monitor shadow": _cmd_shadow,
    "monitor promote": _cmd_promote,
    "monitor report": _cmd_report,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    if command == "monitor":
        command = f"monitor {args.monitor_command}"
    return _HANDLERS[command](args)


if __name__ == "__main__":
    sys.exit(main())
