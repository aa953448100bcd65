"""Entity-resolution throughput bench: incremental vs full re-cluster.

Builds a synthetic decision stream — ``N`` scored pairwise decisions
over a universe of 4-record entities (three positive spanning edges and
one cross-entity negative per entity, shuffled) — then measures the two
ways a serving path can keep entity ids current:

* **incremental** — one standing :class:`~repro.resolve.EntityStore`
  folding the stream in batch by batch (the resolver-tap path behind
  :class:`~repro.serve.matcher.StreamMatcher`); amortized near-O(1)
  per decision;
* **full re-cluster** — rebuilding the clustering from scratch over
  all decisions seen so far, once per batch.  One from-scratch pass is
  timed and the re-cluster-every-batch total is extrapolated (honestly
  labeled: per-pass cost is linear in decisions seen, so the total is
  quadratic in batch count).

Parity comes before speed: the incremental store's final partition —
including the correlation-clustering refined view — must be
bit-identical to the one-shot batch re-cluster, and both fingerprints
must agree.

A third section times snapshots: a standing store saves into a
temporary directory after every ``SAVE_EVERY``-th batch and after the
last one, and the last snapshot is loaded back.  It reports the median
and last save seconds (a save should cost the decisions applied since
the previous one plus the fixed hashing and I/O, not a re-encoding of
the whole store), the snapshot's bytes and the load seconds (a load
replays the whole log).  The round trip holds when the loaded store
reports the saved one's fingerprint, version, ``entities()`` and
``stats()``.

Results go to ``BENCH_resolve.json`` at the repo root, under the
provenance header every ``BENCH_*.json`` carries
(``benchmarks/common.provenance()``: git SHA, python/numpy versions,
CPU count).

Usage::

    python benchmarks/bench_resolve.py [--decisions 50000]
    python benchmarks/bench_resolve.py --check   # exit 1 unless the
                                                 # parity/quality/snapshot
                                                 # gates hold

``--check`` enforces incremental==batch parity, fingerprint equality,
the load(save) round trip and cluster pairwise F1 >= 0.99
against the workload's gold pairs at any scale, plus a 10x
incremental-vs-recluster speedup at full scale (>= 20000 decisions;
smaller runs only require parity, so the smoke test stays cheap — see
``tests/test_bench_resolve_smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import provenance  # noqa: E402
from repro.resolve import (  # noqa: E402
    ConnectedComponents,
    CorrelationClustering,
    EntityStore,
    MatchDecision,
    evaluate_clustering,
    node_key,
)

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_resolve.json"

#: Decision count at which the 10x speedup gate applies; below it the
#: per-batch overheads dominate and only parity is enforced.
FULL_SCALE = 20000

#: Decisions emitted per synthetic entity (see build_decisions).
_PER_ENTITY = 4

#: The snapshot section saves after every this many batches.
SAVE_EVERY = 10


def build_decisions(n_decisions: int, seed: int = 0
                    ) -> tuple[list[MatchDecision], set[tuple[int, int]]]:
    """A shuffled decision stream with known gold clusters.

    Entity ``i`` owns records ``a:2i, a:2i+1, b:2i, b:2i+1``; three
    positive edges span it (a perfect matcher run through blocking
    would produce exactly these) and one low-scoring negative points at
    the next entity (the hard non-match a real matcher also scores).
    Gold pairs are every cross-side pair inside one entity.
    """
    rng = np.random.default_rng(seed)
    n_entities = max(1, n_decisions // _PER_ENTITY)
    decisions: list[MatchDecision] = []
    gold: set[tuple[int, int]] = set()
    for i in range(n_entities):
        a0, a1 = 2 * i, 2 * i + 1
        b0, b1 = 2 * i, 2 * i + 1
        gold.update({(a0, b0), (a0, b1), (a1, b0), (a1, b1)})
        jitter = rng.random(4)
        decisions.append(MatchDecision(
            node_key("a", a0), node_key("b", b0),
            0.90 + 0.08 * jitter[0], True))
        decisions.append(MatchDecision(
            node_key("a", a1), node_key("b", b0),
            0.80 + 0.08 * jitter[1], True))
        decisions.append(MatchDecision(
            node_key("a", a0), node_key("b", b1),
            0.70 + 0.08 * jitter[2], True))
        decisions.append(MatchDecision(
            node_key("a", a0), node_key("b", (2 * ((i + 1) % n_entities))),
            0.10 * jitter[3], False))
    order = rng.permutation(len(decisions))
    return [decisions[int(i)] for i in order], gold


def _make_store() -> EntityStore:
    return EntityStore(refiner=CorrelationClustering(seed=0))


def _time_incremental(decisions: list[MatchDecision],
                      batch_size: int) -> tuple[EntityStore, dict]:
    """One standing store folding the stream in, batch by batch."""
    store = _make_store()
    start = time.perf_counter()
    n_batches = 0
    for low in range(0, len(decisions), batch_size):
        store.apply(decisions[low:low + batch_size])
        n_batches += 1
    apply_seconds = time.perf_counter() - start
    start = time.perf_counter()
    entities = store.entities()
    view_seconds = time.perf_counter() - start
    return store, {
        "n_batches": n_batches,
        "apply_seconds": round(apply_seconds, 6),
        "entities_view_seconds": round(view_seconds, 6),
        "total_seconds": round(apply_seconds + view_seconds, 6),
        "n_entities": len(entities),
    }


def _time_full_recluster(decisions: list[MatchDecision],
                         n_batches: int) -> tuple[EntityStore, dict]:
    """Time one from-scratch pass; extrapolate re-clustering per batch.

    Re-clustering after batch ``j`` costs ~``j/B`` of a full pass
    (union–find is linear in edges), so doing it after every one of
    ``B`` batches costs ~``(B + 1) / 2`` full passes.
    """
    start = time.perf_counter()
    store = _make_store()
    store.apply(decisions)
    entities = store.entities()
    full_pass_seconds = time.perf_counter() - start
    scale = (n_batches + 1) / 2
    return store, {
        "full_pass_seconds": round(full_pass_seconds, 6),
        "extrapolated": n_batches > 1,
        "extrapolated_seconds": round(full_pass_seconds * scale, 6),
        "n_entities": len(entities),
    }


def _time_snapshots(decisions: list[MatchDecision],
                    batch_size: int) -> dict:
    """Save a standing store every ``SAVE_EVERY`` batches and after the
    last; time the saves and loading the last snapshot back."""
    store = _make_store()
    batches = range(0, len(decisions), batch_size)
    save_seconds = []
    with tempfile.TemporaryDirectory(prefix="bench-resolve-") as directory:
        for number, low in enumerate(batches, start=1):
            store.apply(decisions[low:low + batch_size])
            if number % SAVE_EVERY == 0 or number == len(batches):
                start = time.perf_counter()
                path = store.save(directory)
                save_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        loaded = EntityStore.load(path)
        load_seconds = time.perf_counter() - start
        snapshot_bytes = path.stat().st_size
    return {
        "save_every_batches": SAVE_EVERY,
        "n_saves": len(save_seconds),
        "median_save_seconds": round(statistics.median(save_seconds), 6),
        "last_save_seconds": round(save_seconds[-1], 6),
        "snapshot_bytes": snapshot_bytes,
        "load_seconds": round(load_seconds, 6),
        "round_trip": loaded.fingerprint == store.fingerprint
        and loaded.version == store.version
        and loaded.entities() == store.entities()
        and loaded.stats() == store.stats(),
    }


def run_bench(n_decisions: int = 50000, seed: int = 0,
              batch_size: int = 500) -> dict:
    decisions, gold = build_decisions(n_decisions, seed=seed)
    incremental_store, incremental = _time_incremental(decisions,
                                                       batch_size)
    batch_store, recluster = _time_full_recluster(
        decisions, incremental["n_batches"])

    incremental_entities = incremental_store.entities()
    parity = (incremental_entities == batch_store.entities()
              and incremental_store.fingerprint
              == batch_store.fingerprint)

    components = {members[0]: members
                  for members in incremental_entities.values()}
    report = evaluate_clustering(components, gold)

    # sanity: the bare union-find partition has the same granularity
    # (this workload has no internal negatives, so refinement is a
    # no-op and store entities == raw connected components)
    bare = ConnectedComponents()
    bare.add_many(decisions)
    raw_matches = bare.n_components == len(incremental_entities)

    return {
        "provenance": provenance(),
        "workload": {
            "n_decisions": len(decisions),
            "n_gold_pairs": len(gold),
            "batch_size": batch_size,
            "seed": seed,
        },
        "incremental": incremental,
        "full_recluster": recluster,
        "speedup_vs_recluster": round(
            recluster["extrapolated_seconds"]
            / max(incremental["total_seconds"], 1e-9), 2),
        "snapshot": _time_snapshots(decisions, batch_size),
        "parity": parity,
        "raw_component_sanity": raw_matches,
        "quality": report.to_dict(),
    }


def check_report(report: dict, out=sys.stderr) -> int:
    """The ``--check`` gates; returns a process exit code."""
    failures = []
    if not report["parity"]:
        failures.append("incremental partition diverges from the "
                        "one-shot batch re-cluster")
    if not report["snapshot"]["round_trip"]:
        failures.append("a loaded snapshot's fingerprint, version, "
                        "entities or stats differ from the saved store's")
    f1 = report["quality"]["pairwise_f1"]
    if f1 < 0.99:
        failures.append(f"cluster pairwise F1 {f1} < 0.99")
    full_scale = report["workload"]["n_decisions"] >= FULL_SCALE
    if full_scale and report["speedup_vs_recluster"] < 10.0:
        failures.append(f"incremental speedup "
                        f"{report['speedup_vs_recluster']}x < 10x")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--decisions", type=int, default=50000,
                        help="decision-stream length (default 50000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=500,
                        help="decisions per incremental batch "
                             "(default 500)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"report path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the parity/quality/"
                             "snapshot gates hold")
    args = parser.parse_args(argv)

    report = run_bench(n_decisions=args.decisions, seed=args.seed,
                       batch_size=args.batch)
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {args.output}")
    if args.check:
        return check_report(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
