"""Feature-generation throughput bench: naive vs columnar vs parallel.

Builds a duplicate-heavy synthetic candidate set — blocking output
repeats records heavily, and the AutoML-EM-Active loop re-scores the
same pool every iteration, so unique value pairs are far fewer than
pairs — then times each execution path of
:meth:`repro.features.FeatureGenerator.transform` over a full Table II
plan and writes rows/sec to ``BENCH_featuregen.json`` at the repo root,
under a provenance header (git SHA, python/numpy versions, CPU count).

The ``columnar_requests`` path transforms the same workload in slices of
:data:`REQUEST_PAIRS` pairs, one generator call per slice: the size of a
serving request (a few records, ~10 candidates each), where the fixed
cost per call of the character-DP kernel, not the per-pair work,
dominates.

Every path is timed cold: the process-wide memos of
:mod:`repro.similarity.sequence` (the DP kernel's ``DP_MEMO`` and the
Jaro ``lru_cache``) are cleared before each one, so no path reuses
alignment or edit-distance scores an earlier path computed.  The parallel
path runs at the engine's default pool threshold
(:data:`repro.features.columnar.PARALLEL_MIN_UNIQUE_PAIRS`); the report
records whether the workload crossed it.

Usage::

    python benchmarks/bench_featuregen.py [--pairs 6000] [--n-jobs 4]
    python benchmarks/bench_featuregen.py --check   # exit 1 if columnar
                                                    # is slower than naive

Every run asserts that each path's matrix equals the naive loop's bit
for bit (``tests/bit_parity.py``), so a flipped zero sign fails it too.

The ``--check`` mode also runs as an opt-in pytest marker:
``pytest benchmarks/test_bench_featuregen.py --perf``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from bit_parity import assert_bits_equal  # noqa: E402

from repro.data.pairs import PairSet, RecordPair  # noqa: E402
from repro.data.table import Table  # noqa: E402
from repro.features import FeatureGenerator, autoem_feature_plan  # noqa: E402
from repro.features.columnar import (  # noqa: E402
    PARALLEL_MIN_UNIQUE_PAIRS,
    _unique_value_pairs,
    resolve_n_jobs,
)
from repro.features.types import DataType  # noqa: E402
from repro.similarity import sequence  # noqa: E402

DEFAULT_OUTPUT = ROOT / "BENCH_featuregen.json"

#: Pairs per generator call on the request-sized path.
REQUEST_PAIRS = 40

#: Schema of the synthetic workload: the mix Table II must cover.
TYPES = {
    "name": DataType.WORDS_1_5,
    "brand": DataType.SINGLE_WORD,
    "description": DataType.LONG_TEXT,
    "price": DataType.NUMERIC,
    "in_stock": DataType.BOOLEAN,
}

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
          "hotel", "india", "juliett", "kilo", "lima", "mike", "november",
          "oscar", "papa", "quebec", "romeo", "sierra", "tango")


def _record_rows(n_records: int, rng: np.random.Generator) -> list[list]:
    rows = []
    for _ in range(n_records):
        name = " ".join(rng.choice(_WORDS, size=rng.integers(2, 5)))
        brand = str(rng.choice(_WORDS))
        description = " ".join(rng.choice(_WORDS, size=rng.integers(8, 16)))
        price = (None if rng.random() < 0.1
                 else float(np.round(rng.uniform(1, 500), 2)))
        in_stock = None if rng.random() < 0.1 else bool(rng.random() < 0.5)
        rows.append([name, brand, description, price, in_stock])
    return rows


def build_workload(n_pairs: int = 6000, duplication: int = 4,
                   seed: int = 0) -> PairSet:
    """A candidate set where each distinct record combo repeats
    ``duplication`` times (the blocking-output / AL-pool regime)."""
    rng = np.random.default_rng(seed)
    n_unique = max(1, n_pairs // duplication)
    n_records = max(20, n_unique // 8)
    columns = list(TYPES)
    table_a = Table("bench_a", columns, _record_rows(n_records, rng))
    table_b = Table("bench_b", columns, _record_rows(n_records, rng))
    combos = [(int(rng.integers(n_records)), int(rng.integers(n_records)))
              for _ in range(n_unique)]
    pairs = [RecordPair(table_a[i], table_b[j])
             for i, j in combos for _ in range(duplication)]
    rng.shuffle(pairs)
    return PairSet(table_a, table_b, pairs[:n_pairs])


def clear_similarity_caches() -> None:
    """Empty the similarity memos of :mod:`repro.similarity.sequence`:
    the DP kernel's :data:`~repro.similarity.sequence.DP_MEMO` and every
    ``lru_cache`` (Jaro)."""
    sequence.DP_MEMO.clear()
    for value in vars(sequence).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance() -> dict:
    """Where and on what the report was measured.  ``git_dirty`` is true
    when the working tree differs from ``git_sha`` (a report regenerated
    before its change is committed)."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count()}


def _transform_in_requests(generator: FeatureGenerator,
                           pairs: PairSet) -> np.ndarray:
    """``generator`` over ``pairs`` in :data:`REQUEST_PAIRS`-pair calls."""
    return np.vstack([generator.transform(pairs[start:start + REQUEST_PAIRS])
                      for start in range(0, len(pairs), REQUEST_PAIRS)])


def _timed(func) -> tuple[float, np.ndarray]:
    """Time ``func`` from cold similarity caches."""
    clear_similarity_caches()
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def run_bench(n_pairs: int = 6000, duplication: int = 4,
              n_jobs: int | None = None, seed: int = 0) -> dict:
    """Time every execution path on one workload; return the report."""
    if n_jobs is None:
        # At least 2 so the pool path is genuinely exercised even on a
        # single-core box (where it measures pure pool overhead).
        n_jobs = max(2, min(4, os.cpu_count() or 1))
    pairs = build_workload(n_pairs=n_pairs, duplication=duplication,
                           seed=seed)
    plan = autoem_feature_plan(TYPES)
    n_unique_value_pairs = sum(
        len(_unique_value_pairs(pairs, attribute)[0])
        for attribute in dict.fromkeys(a for a, _ in plan))

    naive_seconds, reference = _timed(
        lambda: FeatureGenerator(plan).transform_naive(pairs))

    columnar_seconds, columnar = _timed(
        lambda: FeatureGenerator(plan).transform(pairs))

    requests_seconds, requests = _timed(
        lambda: _transform_in_requests(FeatureGenerator(plan), pairs))

    cached_generator = FeatureGenerator(plan, cache=True)
    cached_generator.transform(pairs)  # populate
    cached_seconds, cached = _timed(
        lambda: cached_generator.transform(pairs))

    parallel_seconds, parallel = _timed(
        lambda: FeatureGenerator(plan, n_jobs=n_jobs).transform(pairs))

    for name, matrix in (("columnar", columnar), ("requests", requests),
                         ("cached", cached), ("parallel", parallel)):
        assert_bits_equal(matrix, reference,
                          err_msg=f"{name} path diverged")

    def path(seconds: float, **extra) -> dict:
        return {"seconds": round(seconds, 6),
                "rows_per_sec": round(len(pairs) / max(seconds, 1e-9), 1),
                **extra}

    return {
        "provenance": provenance(),
        "workload": {
            "n_pairs": len(pairs),
            "n_unique_combos": max(1, n_pairs // duplication),
            "n_unique_value_pairs": n_unique_value_pairs,
            "duplication": duplication,
            "n_features": len(plan),
            "seed": seed,
        },
        "paths": {
            "naive": path(naive_seconds),
            "columnar": path(columnar_seconds),
            "columnar_requests": path(requests_seconds,
                                      pairs_per_call=REQUEST_PAIRS),
            "columnar_cached": path(cached_seconds),
            "parallel": path(
                parallel_seconds, n_jobs=n_jobs,
                pooled=(resolve_n_jobs(n_jobs) > 1 and n_unique_value_pairs
                        >= PARALLEL_MIN_UNIQUE_PAIRS)),
        },
        "speedup_columnar_vs_naive": round(
            naive_seconds / max(columnar_seconds, 1e-9), 2),
        "speedup_cached_vs_naive": round(
            naive_seconds / max(cached_seconds, 1e-9), 2),
        "speedup_parallel_vs_naive": round(
            naive_seconds / max(parallel_seconds, 1e-9), 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=6000,
                        help="candidate-set size (default 6000)")
    parser.add_argument("--duplication", type=int, default=4,
                        help="repeats per distinct record combo")
    parser.add_argument("--n-jobs", type=int, default=None,
                        help="workers for the parallel path "
                             "(default min(4, cores))")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"report path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the columnar path beats naive")
    args = parser.parse_args(argv)

    report = run_bench(n_pairs=args.pairs, duplication=args.duplication,
                       n_jobs=args.n_jobs, seed=args.seed)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")

    if args.check and report["speedup_columnar_vs_naive"] < 1.0:
        print("CHECK FAILED: columnar path is slower than the naive loop",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
