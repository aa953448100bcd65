"""``serve``: raw records in, entity ids out, through the whole stack.

Set-up fits and exports a small bundle on a Walmart-Amazon analog
(product catalog), generates a second, larger analog to serve, and
indexes ~90% of its table B with ``MinHashLSHBlocker`` on the title.
Table A then streams in small record batches through
``MatchService(workers=2)`` with a ``FeatureDriftMonitor`` and an
``EntityStore(refiner=CorrelationClustering)`` attached.  The client is
a closed loop keeping 2 requests in flight.  The held-back catalog
records arrive as ``extend_index`` calls at fixed points of the stream;
each is an ordered barrier (drain the in-flight requests, extend, wait,
resume), so outputs stay deterministic while index writes still sit
beside probes.

Latency is timed on the client, from submit until the future resolves.
``ServeMetrics.p50/p95/p99`` are not used: they are histogram bucket
upper bounds (0.25/0.5/1.0 s steps, too coarse to repeat within a
tenth), and the matcher takes them after the index probe and before the
resolver tap, so they leave both out.

The stream runs until the run length is used up, but never stops
inside its first ``prefix_records`` records, which carry every extend
barrier and all of the pair F1; so F1 is the same on every run of one
seed.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass

import numpy as np
import train_workload
from common import Outcome, f1_score, median, peak_rss_mb, percentile
from tracing import Tracer

from repro.blocking import BlockIndex, MinHashLSHBlocker
from repro.core import AutoMLEM
from repro.data.synthetic import load_benchmark
from repro.data.table import Record, Table
from repro.monitor import FeatureDriftMonitor
from repro.resolve import CorrelationClustering, EntityStore
from repro.serve import MatchService, ModelBundle, StreamMatcher

SIZES = {
    "full": {"dataset": "walmart_amazon", "train_scale": 0.05,
             "serve_scale": 0.5, "n_iterations": 2, "forest_size": 8,
             "holdback": 0.1, "extends": 5, "batch_records": 4,
             "prefix_records": 300},
    "tiny": {"dataset": "walmart_amazon", "train_scale": 0.01,
             "serve_scale": 0.02, "n_iterations": 1, "forest_size": 4,
             "holdback": 0.1, "extends": 2, "batch_records": 4,
             "prefix_records": 40},
}
SETUP_REPEATS = 5
WORKERS = 2
IN_FLIGHT = 2
BLOCK_ON = "title"
#: The served catalog is generated apart from the bundle's training data.
SERVE_SEED_OFFSET = 10_000
#: Fixed, as in ``train``: the bundle's search draws the same pipelines
#: on every run, so set-up time does not depend on the draw.
SEARCH_SEED = 0


@dataclass
class Setup:
    bundle: ModelBundle
    index: BlockIndex
    catalog: Table
    requests: list[Table]
    extends: dict[int, list[Record]]
    prefix_requests: int
    generate_s: float
    history: object


def catalog_index(catalog: Table) -> BlockIndex:
    return MinHashLSHBlocker(BLOCK_ON).index(catalog)


def new_matcher(params: dict) -> AutoMLEM:
    return AutoMLEM(n_iterations=params["n_iterations"],
                    forest_size=params["forest_size"], seed=SEARCH_SEED)


def build(params: dict, seed: int, fit_tracer: Tracer | None = None
          ) -> Setup:
    """Generate the data, fit and export the bundle, index the catalog.

    ``fit_tracer``, when given, records the AutoML and ``core.fit``
    layers of the bundle fit (its featurization stays out of the serving
    path's ``features.transform``).
    """
    started = time.perf_counter()
    train_bench = load_benchmark(params["dataset"], seed=seed,
                                 scale=params["train_scale"])
    served = load_benchmark(params["dataset"],
                            seed=seed + SERVE_SEED_OFFSET,
                            scale=params["serve_scale"])
    generate_s = time.perf_counter() - started
    train, valid, _ = train_bench.splits(seed=seed)
    matcher = new_matcher(params)
    if fit_tracer is not None:
        train_workload.instrument(matcher, fit_tracer)
    bundle = matcher.fit(train, valid).export_bundle()

    rng = np.random.default_rng(seed)
    table_b = served.table_b
    held = set(rng.choice(len(table_b),
                          size=int(round(params["holdback"] * len(table_b))),
                          replace=False).tolist())
    kept = [record for i, record in enumerate(table_b) if i not in held]
    late = [table_b[i] for i in sorted(held)]
    catalog = Table(table_b.name, table_b.columns,
                    [list(record.values) for record in kept],
                    ids=[record.record_id for record in kept])

    table_a = served.table_a
    order = rng.permutation(len(table_a))
    size = params["batch_records"]
    requests = []
    for low in range(0, len(order), size):
        chosen = [table_a[int(i)] for i in order[low:low + size]]
        requests.append(Table("stream", table_a.columns,
                              [list(record.values) for record in chosen],
                              ids=[record.record_id for record in chosen]))
    prefix_requests = min(len(requests),
                          -(-params["prefix_records"] // size))
    n_extends = params["extends"]
    chunks = np.array_split(np.arange(len(late)), n_extends)
    extends = {(k + 1) * prefix_requests // (n_extends + 1):
               [late[int(i)] for i in chunk]
               for k, chunk in enumerate(chunks)}
    return Setup(bundle, catalog_index(catalog), catalog, requests, extends,
                 prefix_requests, generate_s, matcher.history_)


def new_store() -> EntityStore:
    return EntityStore(refiner=CorrelationClustering(seed=0))


def instrument(matcher: StreamMatcher, monitor: FeatureDriftMonitor,
               store: EntityStore, tracer: Tracer,
               request_of: dict[int, int]) -> None:
    """Wrap every layer call one request makes, under its request id."""
    tracer.wrap(matcher.index, "probe", "blocking.probe",
                count=lambda args, pairs: {"records": len(args[0]),
                                           "candidates": len(pairs)})
    tracer.wrap(matcher.index, "add_records", "blocking.add_records",
                count=lambda args, added: {"records": added})
    tracer.wrap(matcher.generator, "transform", "features.transform",
                count=lambda args, X: {"rows": len(X)})
    tracer.wrap(matcher.bundle, "predict_proba", "ml.predict_proba",
                count=lambda args, p: {"rows": len(p)})
    tracer.wrap(monitor, "observe", "monitor.observe",
                count=lambda args, _: {"rows": len(args[0])})
    tracer.wrap(store, "apply_result", "resolve.apply_result")
    tracer.wrap(matcher, "submit_records", "serve.service")
    timed_submit = matcher.submit_records

    def submit_as_request(records: Table):
        tracer.request_id = f"req-{request_of[id(records)]:05d}"
        return timed_submit(records)

    matcher.submit_records = submit_as_request
    timed_extend = matcher.extend_index

    def extend_as_request(records: list[Record]):
        tracer.request_id = "extend"
        return timed_extend(records)

    matcher.extend_index = extend_as_request


def parse_node(text: str) -> tuple[str, int]:
    """``"a:12"`` (a result's entity key) → ``("a", 12)``."""
    side, record_id = text.split(":", 1)
    return side, int(record_id)


def outputs(result) -> tuple[list, list, list, dict]:
    keys = [pair.key for pair in result.pairs]
    return (keys, result.predictions.tolist(),
            result.probabilities.tolist(), dict(result.entities or {}))


def stream(setup: Setup, seconds: float, tracer: Tracer | None) -> dict:
    """Serve until the run length is used up (never inside the prefix)."""
    store = new_store()
    monitor = FeatureDriftMonitor.for_bundle(setup.bundle)
    matcher = StreamMatcher(setup.bundle, index=setup.index,
                            monitor=monitor, resolver=store)
    request_of: dict[int, int] = {}
    if tracer is not None:
        instrument(matcher, monitor, store, tracer, request_of)
    submitted: dict[int, float] = {}
    done: dict[int, float] = {}
    futures: dict[int, Future] = {}
    rss = None
    with MatchService(matcher, workers=WORKERS) as service:
        in_flight: set[Future] = set()
        started = time.perf_counter()
        for j, request in enumerate(setup.requests):
            if j == setup.prefix_requests:
                # Peak memory over a fixed amount of work: a faster
                # program serves more records in the run, and keeping
                # their results must not read as a memory regression.
                rss = peak_rss_mb()
            if j >= setup.prefix_requests \
                    and time.perf_counter() - started >= seconds:
                break
            if j in setup.extends:
                wait(in_flight)
                in_flight = set()
                service.extend_index(setup.extends[j]).result()
            while len(in_flight) >= IN_FLIGHT:
                _, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
            request_of[id(request)] = j
            submitted[j] = time.perf_counter()
            future = service.submit_records(request)
            future.add_done_callback(
                lambda _, j=j: done.__setitem__(j, time.perf_counter()))
            futures[j] = future
            in_flight.add(future)
        wait(in_flight)
        wall = time.perf_counter() - started
        snapshot = service.metrics.snapshot()
    return {"store": store, "futures": futures, "wall": wall,
            "latencies": [done[j] - submitted[j] for j in futures],
            "submitted": submitted, "snapshot": snapshot,
            "rss": rss if rss is not None else peak_rss_mb()}


def replay(setup: Setup, served: list[int]) -> tuple[dict, EntityStore]:
    """The same requests and extends, inline on one thread."""
    store = new_store()
    matcher = StreamMatcher(setup.bundle,
                            index=catalog_index(setup.catalog),
                            resolver=store)
    results = {}
    for j in served:
        if j in setup.extends:
            matcher.extend_index(setup.extends[j])
        results[j] = outputs(matcher.submit_records(setup.requests[j]))
    return results, store


def layer_metrics(tracer: Tracer, live: dict, live_outputs: dict,
                  gold: set) -> dict[str, float]:
    layers: dict[str, float] = {}
    layers.update(tracer.totals("blocking.probe", ["records", "candidates"]))
    layers.update(tracer.totals("blocking.add_records", ["records"]))
    layers.update(tracer.totals("features.transform", ["rows"]))
    layers.update(tracer.totals("ml.predict_proba", ["rows"]))
    layers.update(tracer.totals("monitor.observe", ["rows"]))
    layers.update(tracer.totals("resolve.apply_result"))
    layers["blocking.candidates_per_record"] = (
        layers["blocking.probe.candidates"]
        / max(layers["blocking.probe.records"], 1.0))
    candidates = {key for keys, *_ in live_outputs.values() for key in keys}
    layers["blocking.pair_completeness"] = (
        len(candidates & gold) / max(len(gold), 1))
    services = tracer.of("serve.service")
    queue_ms = [1000.0 * (span.start - live["submitted"][
        int(span.request_id.removeprefix("req-"))]) for span in services]
    service_ms = [1000.0 * span.wall for span in services]
    layers["serve.queue_wait_ms.p50"] = percentile(queue_ms, 50)
    layers["serve.queue_wait_ms.p90"] = percentile(queue_ms, 90)
    layers["serve.service_ms.p50"] = percentile(service_ms, 50)
    layers["serve.service_ms.p90"] = percentile(service_ms, 90)
    layers["serve.max_queue_depth"] = float(
        live["snapshot"]["max_queue_depth"])
    layers["serve.rejected"] = float(live["snapshot"]["rejected"])
    return layers


def run(seed: int, seconds: float, tiny: bool,
        tracer: Tracer | None) -> Outcome:
    params = SIZES["tiny" if tiny else "full"]
    # Import the model modules and warm numpy before anything is timed.
    build(SIZES["tiny"], seed)
    # The traced run records the last set-up fit; it reports no setup_s.
    fit_tracer = Tracer() if tracer is not None else None
    setup_s = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        gc.collect()
        started = time.perf_counter()
        setup = build(params, seed, fit_tracer if last else None)
        setup_s.append(time.perf_counter() - started)

    live = stream(setup, seconds, tracer)
    rss = live["rss"]
    futures = live["futures"]
    served = sorted(futures)
    live_outputs = {j: outputs(future.result())
                    for j, future in futures.items()
                    if future.exception() is None}
    failed = len(futures) - len(live_outputs)
    records = sum(len(setup.requests[j]) for j in served)

    # Gold: record i of table A matches record i of table B.
    prefix = [j for j in served if j < setup.prefix_requests]
    gold = {(record.record_id, record.record_id)
            for j in prefix for record in setup.requests[j]}
    predicted = {key for j in prefix if j in live_outputs
                 for key, decision in zip(live_outputs[j][0],
                                          live_outputs[j][1]) if decision}
    f1 = f1_score(predicted, gold)

    layers: dict[str, float] = {}
    if tracer is not None:
        tracer.close()
        all_gold = {(record.record_id, record.record_id)
                    for j in served for record in setup.requests[j]}
        layers = layer_metrics(tracer, live, live_outputs, all_gold)
        layers["data.generate_s"] = setup.generate_s
        fit_tracer.close()
        layers.update(train_workload.fit_layers(fit_tracer, [setup.history]))

    expected, replay_store = replay(setup, served)
    store = live["store"]
    same_scores = all(live_outputs.get(j, (None,) * 4)[:3]
                      == expected[j][:3] for j in served)
    # Two requests in flight may both fold decisions into one component
    # before either reads its ids back, so per-request ids are compared
    # after the stream, against the replay's final store.
    touched = {parse_node(node) for j in served for node in expected[j][3]}
    final_ids = all(store.entity_of(record_id, side=side)
                    == replay_store.entity_of(record_id, side=side)
                    for side, record_id in touched)
    same_partition = (store.entities() == replay_store.entities()
                      and store.fingerprint == replay_store.fingerprint)
    id_races = sum(1 for j in served
                   if live_outputs.get(j, (None,) * 4)[3] != expected[j][3])

    return Outcome(
        setup_s=median(setup_s), latencies_s=live["latencies"],
        work=float(records), work_s=live["wall"], peak_rss_mb=rss,
        attempted=len(served) + len(setup.extends), failed=failed, f1=f1,
        checks={
            "candidates_and_scores_match_sequential_replay": same_scores,
            "entity_partition_matches_sequential_replay": same_partition,
            "final_entity_ids_match_sequential_replay": final_ids,
        },
        report={
            "serve_records_per_s": (records / live["wall"], "records/s"),
            "serve_latency_p50_ms": (
                1000.0 * percentile(live["latencies"], 50), "ms"),
            "serve_latency_p90_ms": (
                1000.0 * percentile(live["latencies"], 90), "ms"),
            "serve_pair_f1": (f1, "F1"),
            "requests": (float(len(served)), "count"),
            "entity_id_races": (float(id_races), "count"),
            "servemetrics_p50_bucket_s": (
                float(live["snapshot"]["p50_latency"]), "s"),
        },
        layers=layers,
        params={**params, "workers": WORKERS, "in_flight": IN_FLIGHT,
                "block_on": BLOCK_ON, "catalog_records": len(setup.catalog),
                "stream_records": sum(len(r) for r in setup.requests),
                "extend_records": sum(len(c) for c in
                                      setup.extends.values()),
                "serve_seed": seed + SERVE_SEED_OFFSET},
    )
