"""Blocking throughput bench: indexed blockers vs the naive filter.

Builds a synthetic duplicate-detection workload — two N-record tables
where ``table_a[i]`` is ``table_b[i]`` with up to two character edits,
gold pairs ``(i, i)`` — then measures each indexed blocker
(:class:`~repro.blocking.QGramBlocker`,
:class:`~repro.blocking.MinHashLSHBlocker`) on three axes:

* **quality** — pair completeness against gold and reduction ratio over
  the ``N x N`` cross product;
* **indexed wall time** — index build + probe, the path ``repro block``
  and :class:`~repro.serve.matcher.StreamMatcher` take;
* **naive wall time** — the ``O(n*m)`` per-pair ``admits`` reference,
  timed on a small slice of the cross product and extrapolated
  (honestly labeled as such in the report: per-pair cost is constant,
  so the extrapolation is linear in pair count).

The indexed candidates restricted to the naive slice are asserted equal
to the naive slice's output first — the speedup compares two paths that
provably return the same pairs.  Results go to ``BENCH_blocking.json``
at the repo root, under the provenance header every ``BENCH_*.json``
carries (``benchmarks/common.provenance()``: git SHA, python/numpy
versions, CPU count).

Usage::

    python benchmarks/bench_blocking.py [--records 5000]
    python benchmarks/bench_blocking.py --check   # exit 1 unless the
                                                  # quality gates hold

``--check`` enforces >= 0.98 pair completeness and >= 0.95 reduction
ratio for both blockers, plus the 10x indexed-vs-naive speedup at full
scale (>= 2000 records; smaller runs only require parity, so the smoke
test stays cheap).  A tier-1 smoke runs this at small scale
(``tests/test_bench_blocking_smoke.py``); the full-scale speedup gate
also runs as an opt-in perf marker
(``pytest benchmarks/test_bench_blocking.py --perf``).
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
from repro.blocking import (  # noqa: E402
    MinHashLSHBlocker,
    QGramBlocker,
    pair_completeness,
    reduction_ratio,
)
from repro.data.table import Table  # noqa: E402

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_blocking.json"

#: Full-scale record count at which the 10x speedup gate applies; below
#: it index-build overhead dominates and only parity is enforced.
FULL_SCALE = 2000


def _make_vocab(size: int, rng: np.random.Generator) -> list[str]:
    """Random 5-8 letter words — synthetic, but with the right q-gram
    collision statistics (any two words rarely share a trigram)."""
    vocab = []
    for _ in range(size):
        length = int(rng.integers(5, 9))
        vocab.append("".join(chr(97 + int(c))
                             for c in rng.integers(0, 26, size=length)))
    return vocab


def _perturb(text: str, rng: np.random.Generator) -> str:
    """Up to two single-character substitutions — the dirty-copy model.

    Each substitution disturbs at most ``q`` q-grams, so a ~20-gram
    name keeps a large exact overlap and a Jaccard well above the LSH
    threshold; both blockers *should* keep every gold pair."""
    chars = list(text)
    for _ in range(int(rng.integers(0, 3))):
        pos = int(rng.integers(0, len(chars)))
        chars[pos] = chr(97 + int(rng.integers(0, 26)))
    return "".join(chars)


def build_workload(n_records: int, seed: int = 0,
                   vocab_size: int = 2000) -> tuple[Table, Table, set]:
    """Two tables of 3-word names where row i of A is a dirty copy of
    row i of B; gold matching pairs are exactly the diagonal."""
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(vocab_size, rng)
    rows_a, rows_b = [], []
    for _ in range(n_records):
        words = rng.integers(0, vocab_size, size=3)
        base = " ".join(vocab[int(w)] for w in words)
        rows_b.append([base])
        rows_a.append([_perturb(base, rng)])
    table_a = Table("bench_dirty", ["name"], rows_a)
    table_b = Table("bench_clean", ["name"], rows_b)
    gold = {(i, i) for i in range(n_records)}
    return table_a, table_b, gold


def _time_naive(blocker, table_a: Table, table_b: Table,
                slice_size: int) -> dict:
    """Time the O(n*m) admits() reference on a slice and extrapolate."""
    sub_a = list(table_a)[:slice_size]
    sub_b = list(table_b)[:slice_size]
    start = time.perf_counter()
    kept = {(left.record_id, right.record_id)
            for left in sub_a for right in sub_b
            if blocker.admits(left, right)}
    slice_seconds = time.perf_counter() - start
    scale = (table_a.num_rows * table_b.num_rows) / (len(sub_a) * len(sub_b))
    return {
        "slice_records": slice_size,
        "slice_seconds": round(slice_seconds, 6),
        "extrapolated": scale > 1.0,
        "extrapolated_seconds": round(slice_seconds * scale, 6),
        "_slice_keys": kept,
    }


def _run_blocker(name: str, make_blocker, table_a: Table, table_b: Table,
                 gold: set, naive_slice: int) -> dict:
    # Fresh instances per path so neither measurement inherits the
    # other's warm token/signature caches.
    naive = _time_naive(make_blocker(), table_a, table_b, naive_slice)

    blocker = make_blocker()
    start = time.perf_counter()
    index = blocker.index(table_b)
    index_seconds = time.perf_counter() - start
    start = time.perf_counter()
    candidates = index.probe(table_a)
    probe_seconds = time.perf_counter() - start
    total_seconds = index_seconds + probe_seconds

    # Parity before speed: the indexed path restricted to the naive
    # slice must return exactly the naive filter's pairs.
    slice_keys = {pair.key for pair in candidates
                  if pair.key[0] < naive_slice and pair.key[1] < naive_slice}
    if slice_keys != naive.pop("_slice_keys"):
        raise AssertionError(
            f"{name}: indexed pairs diverge from the naive reference")

    return {
        "params": repr(blocker),
        "num_candidates": len(candidates),
        "pair_completeness": round(pair_completeness(candidates, gold), 6),
        "reduction_ratio": round(
            reduction_ratio(len(candidates), table_a.num_rows,
                            table_b.num_rows), 6),
        "indexed": {
            "index_seconds": round(index_seconds, 6),
            "probe_seconds": round(probe_seconds, 6),
            "total_seconds": round(total_seconds, 6),
        },
        "naive": naive,
        "speedup_vs_naive": round(
            naive["extrapolated_seconds"] / max(total_seconds, 1e-9), 2),
    }


def run_bench(n_records: int = 5000, seed: int = 0,
              naive_slice: int = 400) -> dict:
    naive_slice = min(naive_slice, n_records)
    table_a, table_b, gold = build_workload(n_records, seed=seed)
    blockers = {
        "qgram": lambda: QGramBlocker("name", q=3, min_overlap=4),
        "minhash_lsh": lambda: MinHashLSHBlocker(
            "name", num_perm=126, bands=42, random_state=seed),
    }
    return {
        "provenance": provenance(),
        "workload": {
            "n_records": n_records,
            "cross_product": n_records * n_records,
            "num_gold": len(gold),
            "seed": seed,
        },
        "blockers": {
            name: _run_blocker(name, make, table_a, table_b, gold,
                               naive_slice)
            for name, make in blockers.items()
        },
    }


def check_report(report: dict, out=sys.stderr) -> int:
    """The ``--check`` gates; returns a process exit code."""
    failures = []
    full_scale = report["workload"]["n_records"] >= FULL_SCALE
    for name, result in report["blockers"].items():
        if result["pair_completeness"] < 0.98:
            failures.append(f"{name}: pair completeness "
                            f"{result['pair_completeness']} < 0.98")
        if result["reduction_ratio"] < 0.95:
            failures.append(f"{name}: reduction ratio "
                            f"{result['reduction_ratio']} < 0.95")
        if full_scale and result["speedup_vs_naive"] < 10.0:
            failures.append(f"{name}: indexed speedup "
                            f"{result['speedup_vs_naive']}x < 10x")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=5000,
                        help="rows per table (default 5000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--naive-slice", type=int, default=400,
                        help="cross-product slice for naive timing "
                             "(default 400x400, then extrapolated)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"report path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the quality gates hold")
    args = parser.parse_args(argv)

    report = run_bench(n_records=args.records, seed=args.seed,
                       naive_slice=args.naive_slice)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    if args.check:
        return check_report(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
