"""``repro monitor`` — the monitoring loop from the command line.

Four subcommands close the observe side of the train → serve →
observe → retrain loop without writing Python:

* ``watch`` — serve synthetic traffic (optionally drifted through the
  corruption operators) against a bundle with a live
  :class:`~repro.monitor.drift.FeatureDriftMonitor`, writing periodic
  drift records to a :class:`~repro.events.EventLog` and evaluating the
  trigger policies at the end;
* ``shadow`` — replay traffic through the registry champion with a
  challenger shadow-scored alongside, printing the disagreement
  summary (and optionally promoting on a threshold);
* ``promote`` — flip a registry model's ``LATEST`` pointer;
* ``report`` — summarize an existing event log (any layer's records).

``watch --train`` makes the command self-contained: when the bundle
path does not exist yet, a small AutoML-EM run trains and exports one
first — which is how the CI smoke step drives the whole loop in one
process.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from ..events import EventLog, deterministic_view, read_events
from .drift import FeatureDriftMonitor
from .shadow import ShadowEvaluator
from .traffic import drifted_pairs, request_batches
from .triggers import (
    MonitorStatus,
    bundle_age_seconds,
    default_policies,
    evaluate_policies,
)


def _load_benchmark_pairs(args: argparse.Namespace) -> Any:
    """The benchmark's test pairs — serving-side traffic source."""
    from ..data.synthetic import load_benchmark

    benchmark = load_benchmark(args.dataset, seed=args.seed,
                               scale=args.scale)
    _, _, test = benchmark.splits(seed=args.seed)
    return test


def _train_bundle(args: argparse.Namespace, path: Path) -> None:
    """Train a small AutoML-EM model and export it (with reference
    profile) to ``path`` — the ``watch --train`` bootstrap."""
    from ..core import AutoMLEM
    from ..data.synthetic import load_benchmark

    benchmark = load_benchmark(args.dataset, seed=args.seed,
                               scale=args.scale)
    train, valid, test = benchmark.splits(seed=args.seed)
    matcher = AutoMLEM(n_iterations=args.budget,
                       forest_size=args.forest_size, seed=args.seed)
    print(f"training bootstrap model on {len(train)} train / "
          f"{len(valid)} valid pairs ...")
    matcher.fit(train, valid)
    metrics = matcher.evaluate(test)
    matcher.export_bundle(path, metrics=metrics)
    print(f"exported bundle to {path} (test f1={metrics['f1']:.4f})")


def _print_drift_report(report: dict[str, Any]) -> None:
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


def cmd_watch(args: argparse.Namespace) -> int:
    from ..serve import ModelBundle, StreamMatcher

    bundle_path = Path(args.bundle)
    if not bundle_path.exists():
        if not args.train:
            raise SystemExit(f"bundle {bundle_path} does not exist "
                             f"(pass --train to bootstrap one)")
        _train_bundle(args, bundle_path)
    bundle = ModelBundle.load(bundle_path)
    monitor = FeatureDriftMonitor.for_bundle(
        bundle, min_rows=args.min_rows, seed=args.seed)
    pairs = _load_benchmark_pairs(args)
    if args.drift > 0:
        pairs = drifted_pairs(pairs, factor=args.drift, seed=args.seed)
    matcher = StreamMatcher(bundle, monitor=monitor)
    n_batches = 0
    with EventLog.opened(args.log) as log, matcher:
        for batch in request_batches(pairs, args.batch_pairs,
                                     n_batches=args.batches,
                                     seed=args.seed):
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


def cmd_shadow(args: argparse.Namespace) -> int:
    from ..serve import StreamMatcher

    evaluator = ShadowEvaluator.from_registry(
        args.registry, args.model_name, args.challenger,
        champion_version=args.champion, sample_rate=args.sample_rate,
        seed=args.seed, log=args.log)
    pairs = _load_benchmark_pairs(args)
    if args.drift > 0:
        pairs = drifted_pairs(pairs, factor=args.drift, seed=args.seed)
    matcher = StreamMatcher(evaluator.champion, shadow=evaluator)
    try:
        for batch in request_batches(pairs, args.batch_pairs,
                                     n_batches=args.batches,
                                     seed=args.seed):
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


def cmd_promote(args: argparse.Namespace) -> int:
    from ..serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    previous = registry.latest(args.model_name)
    version = registry.promote(args.model_name, args.to)
    print(f"promoted {args.model_name}: {previous} -> {version}")
    with EventLog.opened(args.log, append=True) as log:
        if log is not None:
            log.event("promotion", model_name=args.model_name,
                      promoted=version, previous=previous)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
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


def _add_traffic_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="fodors_zagats",
                        help="generated benchmark key (traffic source)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--batches", type=int, default=20,
                        help="requests to serve")
    parser.add_argument("--batch-pairs", type=int, default=32,
                        help="candidate pairs per request")
    parser.add_argument("--drift", type=float, default=0.0,
                        help="corruption factor for the probe side "
                             "(0 = clean control traffic)")


def add_monitor_parser(commands: Any) -> None:
    """Register the ``monitor`` command group on the root subparsers."""
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


def run(args: argparse.Namespace) -> int:
    handlers = {"watch": cmd_watch, "shadow": cmd_shadow,
                "promote": cmd_promote, "report": cmd_report}
    return handlers[args.monitor_command](args)
