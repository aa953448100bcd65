"""``resolve``: entity-store reads beside writes, with no model in the loop.

An ``EntityStore`` with a ``CorrelationClustering`` refiner folds in a
seeded decision stream with known gold clusters.  Each entity is four
records (two per side) joined by a clique of positive decisions, plus
one low-scoring negative towards the next entity.  A fixed share of the
entities is over-merged: a false-positive bridge to another entity plus
negative evidence between the two, so refinement really splits
components.

Set-up generates the stream, registers every record and primes the
store with the first part of the stream.  A pass then applies the rest
in batches (the writes); after each batch the client reads sampled
nodes (``entity_of``, then ``members``, then ``golden``), and every few
batches it calls ``save()`` into a scratch directory inside the
checkout.  Passes repeat until the run length is used up, each from
freshly set-up stores; every pass does the same work, and the checks
look at the first, the only pass whose store is kept.  Peak memory is
read after that first pass, so it covers a fixed amount of work however
many passes a run makes.

Every pass makes the same operations in the same order, so each write
batch and each read is timed once per pass and its fastest time is
kept: the host's speed swings by up to 2x for seconds at a time, and
the fastest of several identical operations does not see those swings.
Throughput and the read percentiles are taken over those per-operation
times; the traced run's layer totals are per pass.  The set-up is
timed the same way: a few set-ups before every pass, so they are
spread over the whole run, and the fastest of them is the set-up time.

A read whose node is missing from ``members(entity_of(node))`` is a
known defect of the refined store (``entity_of`` returns the raw
union-find canonical).  Such reads are counted, as
``resolve.read_mismatches`` and ``read_mismatch_rate`` (one pass); they
are not failed operations, because the read completes.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from collections.abc import Iterable
from pathlib import Path

import numpy as np
from common import Outcome, peak_rss_mb, percentile
from tracing import Tracer

from repro.data.table import Record
from repro.resolve import (
    CorrelationClustering,
    EntityStore,
    MatchDecision,
    evaluate_clustering,
    node_key,
)

SIZES = {
    "full": {"entities": 200, "over_merged": 0.1, "primed": 0.5,
             "batches": 25, "reads_per_batch": 2, "save_every": 5},
    "tiny": {"entities": 24, "over_merged": 0.1, "primed": 0.5,
             "batches": 4, "reads_per_batch": 3, "save_every": 2},
}
#: Timed set-ups (~15 ms each) before every pass.
SETUPS_PER_PASS = 4
#: The per-operation fastest times need at least two passes.
MIN_PASSES = 2
COLUMNS = ("name", "price")
SCRATCH = Path(__file__).resolve().parents[1] / ".perfbench" / "tmp"


def build_stream(n_entities: int, over_merged: float, seed: int):
    """Shuffled decisions, gold ``(a-id, b-id)`` pairs and the records.

    Entity ``i`` owns ``a:2i, a:2i+1, b:2i, b:2i+1``.
    """
    rng = np.random.default_rng(seed)
    decisions: list[MatchDecision] = []
    gold: set[tuple[int, int]] = set()
    records: dict[str, list[Record]] = {"a": [], "b": []}

    def nodes(i: int) -> list:
        return [node_key(side, 2 * i + k) for side in "ab" for k in (0, 1)]

    for i in range(n_entities):
        members = nodes(i)
        for x in range(4):
            for y in range(x + 1, 4):
                decisions.append(MatchDecision(
                    members[x], members[y],
                    float(rng.uniform(0.7, 0.98)), True))
        decisions.append(MatchDecision(
            members[0], nodes((i + 1) % n_entities)[2],
            float(rng.uniform(0.0, 0.1)), False))
        gold.update((2 * i + x, 2 * i + y) for x in (0, 1) for y in (0, 1))
        price = float(rng.uniform(5, 500))
        for side in "ab":
            for k in (0, 1):
                records[side].append(Record(
                    2 * i + k, COLUMNS,
                    [f"item {i} {side}{k}", round(price * (1 + 0.01 * k), 2)]))

    for i in rng.choice(n_entities, size=int(round(over_merged * n_entities)),
                        replace=False).tolist():
        j = (i + 1 + int(rng.integers(n_entities - 1))) % n_entities
        left, right = nodes(i), nodes(j)
        decisions.append(MatchDecision(left[1], right[3],
                                       float(rng.uniform(0.55, 0.65)), True))
        decisions.append(MatchDecision(left[0], right[2],
                                       float(rng.uniform(0.0, 0.2)), False))
        decisions.append(MatchDecision(left[2], right[0],
                                       float(rng.uniform(0.0, 0.2)), False))
    order = rng.permutation(len(decisions))
    return [decisions[int(k)] for k in order], gold, records


def another_pass(done: int, elapsed: float, seconds: float) -> bool:
    """Whether to start one more pass: always until ``MIN_PASSES`` are
    done, then only if, at the mean pass time so far, it would end within
    ``seconds``."""
    return done < MIN_PASSES or elapsed * (done + 1) / done <= seconds


def fastest(runs: Iterable[list[float]]) -> list[float]:
    """Per position, the fastest time over passes of the same operations."""
    return [min(times) for times in zip(*runs, strict=True)]


def new_store(records: dict[str, list[Record]],
              decisions: list[MatchDecision]) -> EntityStore:
    store = EntityStore(refiner=CorrelationClustering(seed=0))
    for side, side_records in records.items():
        store.add_records(side, side_records)
    store.apply(decisions)
    return store


def set_up(params: dict, seed: int) -> tuple[float, float, dict, EntityStore]:
    """Generate the stream and prime a store with its first part.

    Returns the set-up time, the generation time within it, the stream
    and the primed store.  A collection comes first, untimed, so no
    set-up pays for the garbage of what ran before it.
    """
    gc.collect()
    started = time.perf_counter()
    decisions, gold, records = build_stream(
        params["entities"], params["over_merged"], seed)
    generate_s = time.perf_counter() - started
    n_primed = int(round(params["primed"] * len(decisions)))
    store = new_store(records, decisions[:n_primed])
    setup_s = time.perf_counter() - started
    stream = {"decisions": decisions, "gold": gold, "records": records,
              "primed": decisions[:n_primed], "rest": decisions[n_primed:]}
    return setup_s, generate_s, stream, store


def client_calls(store: EntityStore, tracer: Tracer | None) -> dict:
    """The store methods the client calls, timed when tracing.

    The store itself is left untouched (``save`` pickles it), so calls
    the store makes internally, such as ``golden`` → ``members``, are
    not counted.
    """
    counts = {"apply": lambda args, delta: {"decisions": delta.n_decisions},
              "save": lambda args, path: {"bytes": path.stat().st_size}}
    calls = {}
    for name in ("apply", "save", "entity_of", "members", "golden"):
        calls[name] = getattr(store, name)
        if tracer is not None:
            calls[name] = tracer.timed(f"resolve.{name}", calls[name],
                                       counts.get(name))
    return calls


def one_pass(store: EntityStore, stream: dict, params: dict, seed: int,
             directory: Path, tracer: Tracer | None) -> dict:
    """Apply the unprimed decisions to ``store`` in batches, reading
    after each."""
    call = client_calls(store, tracer)
    rng = np.random.default_rng(seed)
    nodes = [node_key(side, record.record_id)
             for side, side_records in stream["records"].items()
             for record in side_records]
    batches = np.array_split(np.arange(len(stream["rest"])),
                             params["batches"])
    write_s: list[float] = []
    reads: list[float] = []
    mismatches = 0
    for number, batch in enumerate(batches, start=1):
        started = time.perf_counter()
        call["apply"]([stream["rest"][int(k)] for k in batch])
        if number % params["save_every"] == 0:
            call["save"](directory)
        write_s.append(time.perf_counter() - started)
        for k in rng.choice(len(nodes), size=params["reads_per_batch"],
                            replace=False).tolist():
            side, record_id = nodes[k]
            started = time.perf_counter()
            entity = call["entity_of"](record_id, side=side)
            members = call["members"](entity)
            call["golden"](entity)
            reads.append(time.perf_counter() - started)
            mismatches += nodes[k] not in members
    return {"write_s": write_s, "reads": reads,
            "mismatches": mismatches, "saves": len(batches)
            // params["save_every"]}


def run(seed: int, seconds: float, tiny: bool,
        tracer: Tracer | None) -> Outcome:
    params = SIZES["tiny" if tiny else "full"]
    set_up(params, seed)  # warm-up, untimed
    setup_s: list[float] = []
    generate_s: list[float] = []
    passes: list[dict] = []
    directory = SCRATCH / f"resolve-{os.getpid()}"
    started = time.perf_counter()
    try:
        while another_pass(len(passes), time.perf_counter() - started,
                           seconds):
            for _ in range(SETUPS_PER_PASS):
                took, generated, stream, fresh = set_up(params, seed)
                setup_s.append(took)
                generate_s.append(generated)
            passes.append(one_pass(fresh, stream, params, seed, directory,
                                   tracer))
            if len(passes) == 1:
                rss = peak_rss_mb()
                store, kept = fresh, stream
            del fresh
        loaded = EntityStore.load(store.save(directory))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    first = passes[0]
    decisions, gold, records = (kept["decisions"], kept["gold"],
                                kept["records"])
    n_primed = len(kept["primed"])
    entities = store.entities()
    batch = new_store(records, decisions)
    report = evaluate_clustering(
        {members[0]: members for members in entities.values()}, gold)
    write_s = sum(fastest(one["write_s"] for one in passes))
    reads = fastest(one["reads"] for one in passes)
    applied = len(kept["rest"])

    layers: dict[str, float] = {}
    if tracer is not None:
        tracer.close()
        runs = len(passes)
        layers.update(tracer.totals("resolve.apply", ["decisions"], runs))
        layers.update(tracer.totals("resolve.save", ["bytes"], runs))
        for name in ("entity_of", "members", "golden"):
            layers.update(tracer.totals(f"resolve.{name}", runs=runs))
        layers["resolve.refine_splits"] = float(
            len(entities) - store.n_entities)
        layers["resolve.read_mismatches"] = float(first["mismatches"])
        layers["data.generate_s"] = min(generate_s)

    return Outcome(
        setup_s=min(setup_s), latencies_s=reads, work=float(applied),
        work_s=write_s, peak_rss_mb=rss,
        attempted=sum(params["batches"] + one["saves"] + len(one["reads"])
                      for one in passes),
        failed=0, f1=report.pairwise_f1,
        checks={
            "partition_matches_batch_recluster":
                entities == batch.entities()
                and store.fingerprint == batch.fingerprint,
            "snapshot_round_trip": loaded.fingerprint == store.fingerprint,
        },
        report={
            "resolve_decisions_per_s": (applied / write_s, "decisions/s"),
            "resolve_read_p50_ms": (1000.0 * percentile(reads, 50), "ms"),
            "resolve_read_p90_ms": (1000.0 * percentile(reads, 90), "ms"),
            "resolve_cluster_f1": (report.pairwise_f1, "F1"),
            "read_mismatch_rate": (
                first["mismatches"] / len(first["reads"]), "fraction"),
            "passes": (float(len(passes)), "count"),
        },
        layers=layers,
        params={**params, "decisions": len(decisions),
                "primed_decisions": n_primed, "gold_pairs": len(gold)},
    )
