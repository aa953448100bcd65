"""Monitoring-tap overhead bench: serving with vs without a drift
monitor attached.

The :class:`~repro.monitor.drift.FeatureDriftMonitor` rides the serving
path as a tap — the matcher hands it the feature matrix it already
computed, so the monitor's marginal cost is bin counting plus reservoir
bookkeeping, never a second featurization.  This bench makes that claim
measurable: identical request streams are served through the same
bundle with and without the monitor, and the report carries the
overhead fraction the perf gate
(``pytest benchmarks/test_bench_monitor.py --perf``) holds under 10%.
The two serves are interleaved request by request, alternating which
goes first, and each request's wall time is added to its own side: on
a shared 2-core host the speed level can change twofold between two
back-to-back serves, but rarely between two back-to-back requests.  The
overhead is the median over ``repeats`` such passes.  It is written to
``BENCH_monitor.json`` at the repo root under the same provenance header
as ``BENCH_featuregen.json``.

Usage::

    python benchmarks/bench_monitor.py [--batches 40]
    python benchmarks/bench_monitor.py --check   # exit 1 over the gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import provenance  # noqa: E402
from repro.core import AutoMLEM  # noqa: E402
from repro.data.synthetic import load_benchmark  # noqa: E402
from repro.monitor import FeatureDriftMonitor, request_batches  # noqa: E402
from repro.serve import StreamMatcher  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_monitor.json"

#: The acceptance gate: monitored serving may cost at most this
#: fraction more wall time than unmonitored serving.
OVERHEAD_LIMIT = 0.10


def run_bench(scale: float = 0.5, n_batches: int = 40,
              batch_pairs: int = 32, repeats: int = 3,
              seed: int = 0) -> dict:
    """Serve one fixed request stream monitored and unmonitored."""
    benchmark = load_benchmark("fodors_zagats", seed=seed, scale=scale)
    train, valid, test = benchmark.splits(seed=seed)
    matcher = AutoMLEM(n_iterations=2, forest_size=8, seed=seed)
    matcher.fit(train, valid)
    bundle = matcher.export_bundle()
    batches = list(request_batches(test, batch_pairs,
                                   n_batches=n_batches, seed=seed))

    def serve(monitor: FeatureDriftMonitor) -> tuple[float, float]:
        """Wall seconds of an unmonitored and a monitored serve, taken
        request by request in turn."""
        plain = StreamMatcher(bundle)
        tapped = StreamMatcher(bundle, monitor=monitor)
        seconds = {plain: 0.0, tapped: 0.0}
        for k, batch in enumerate(batches):
            for stream in (plain, tapped) if k % 2 else (tapped, plain):
                start = time.perf_counter()
                stream.submit(batch)
                seconds[stream] += time.perf_counter() - start
        return seconds[plain], seconds[tapped]

    # Warm the process-wide caches (similarity memos, imports).
    serve(FeatureDriftMonitor.for_bundle(bundle, min_rows=50))
    baseline_times, monitored_times = [], []
    for _ in range(repeats):
        monitor = FeatureDriftMonitor.for_bundle(bundle, min_rows=50)
        baseline, monitored = serve(monitor)
        baseline_times.append(baseline)
        monitored_times.append(monitored)
    overheads = [(monitored - baseline) / baseline for baseline, monitored
                 in zip(baseline_times, monitored_times)]
    report = monitor.report()
    return {
        "provenance": provenance(),
        "n_batches": n_batches,
        "batch_pairs": batch_pairs,
        "repeats": repeats,
        "baseline_seconds": float(np.median(baseline_times)),
        "monitored_seconds": float(np.median(monitored_times)),
        "pass_overheads": overheads,
        "overhead_fraction": float(np.median(overheads)),
        "overhead_limit": OVERHEAD_LIMIT,
        "monitored_rows": report.n_rows,
        "drift_report_sufficient": report.sufficient,
    }


def check_report(report: dict, limit: float = OVERHEAD_LIMIT) -> int:
    """0 when the overhead gate holds (and the tap saw every row)."""
    if report["overhead_fraction"] >= limit:
        return 1
    if report["monitored_rows"] != \
            report["n_batches"] * report["batch_pairs"]:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batches", type=int, default=40)
    parser.add_argument("--batch-pairs", type=int, default=32)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the overhead gate holds")
    args = parser.parse_args(argv)
    report = run_bench(scale=args.scale, n_batches=args.batches,
                       batch_pairs=args.batch_pairs,
                       repeats=args.repeats, seed=args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"baseline {report['baseline_seconds']:.3f}s  monitored "
          f"{report['monitored_seconds']:.3f}s  overhead "
          f"{report['overhead_fraction']:+.2%} "
          f"(limit {OVERHEAD_LIMIT:.0%})")
    if args.check:
        return check_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
