"""``train``: the paper's pipeline, ``AutoMLEM.fit`` then ``evaluate``.

An Abt-Buy analog (hard, long free text) at reduced scale, generated
from ``--seed``, with a fixed search seed, a small search budget and
the default trial isolation.  The search seed is fixed because the
search samples its first configurations at random: with a seed per run,
fit time would mostly measure which pipelines that seed happened to
draw.  The same fit repeats until the run length is used up; the fits
are the timing samples, and comparing them with each other is the
determinism check (identical trial history and test F1).  Blocking,
serving, monitoring and resolve are never touched.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

from common import Outcome, median, peak_rss_mb
from tracing import Tracer

from repro.core import AutoMLEM
from repro.data.synthetic import load_benchmark

SIZES = {
    "full": {"dataset": "abt_buy", "scale": 0.05, "n_iterations": 8,
             "forest_size": 16},
    "tiny": {"dataset": "abt_buy", "scale": 0.01, "n_iterations": 2,
             "forest_size": 4},
}
SEARCH_SEED = 0
SETUP_REPEATS = 5
MIN_FITS = 3


def generate(params: dict, seed: int):
    benchmark = load_benchmark(params["dataset"], seed=seed,
                               scale=params["scale"])
    return benchmark.splits(seed=seed)


def history_fingerprint(history) -> str:
    """Digest of every trial's config, score, error and seed (not its
    elapsed time)."""
    trials = [(trial.config, trial.score, trial.error, trial.random_state)
              for trial in history.trials]
    text = json.dumps(trials, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instrument(matcher: AutoMLEM, tracer: Tracer) -> None:
    """Wrap the layer calls one fit and one evaluate make."""
    make_generator = matcher.make_feature_generator

    def traced_generator(pairs):
        generator = make_generator(pairs)
        tracer.wrap(generator, "transform", "features.transform",
                    count=lambda args, X: {"rows": len(X)})
        return generator

    matcher.make_feature_generator = traced_generator
    tracer.wrap(matcher, "fit_matrices", "automl.fit_matrices")
    tracer.wrap(matcher, "fit", "core.fit")


def fit_self_seconds(tracer: Tracer) -> float:
    """``core.fit`` wall time not covered by its transform and
    ``fit_matrices`` child spans (profile capture, schema, plan)."""
    children = (tracer.of("features.transform")
                + tracer.of("automl.fit_matrices"))
    total = 0.0
    for fit in tracer.of("core.fit"):
        end = fit.start + fit.wall
        covered = sum(child.wall for child in children
                      if fit.start <= child.start < end)
        total += fit.wall - covered
    return total


def fit_layers(tracer: Tracer, histories: list) -> dict[str, float]:
    """The AutoML and ``core.fit`` layer metrics of the traced fits."""
    trial_s = sum(trial.elapsed for history in histories
                  for trial in history.trials)
    matrices = tracer.totals("automl.fit_matrices")
    matrices_wall = sum(span.wall for span in
                        tracer.of("automl.fit_matrices"))
    return {
        "automl.fit_matrices.busy_s": matrices["automl.fit_matrices.busy_s"],
        "automl.fit_matrices.wait_s": matrices["automl.fit_matrices.wait_s"],
        "automl.trials": float(sum(len(history) for history in histories)),
        "automl.trials_failed": float(sum(history.n_failed
                                          for history in histories)),
        "automl.trial_s": trial_s,
        # fit_matrices wall minus the trials: the refit of the winner
        # plus the search's own bookkeeping.
        "automl.refit_s": matrices_wall - trial_s,
        "core.fit.self_s": fit_self_seconds(tracer),
    }


def run(seed: int, seconds: float, tiny: bool,
        tracer: Tracer | None) -> Outcome:
    params = SIZES["tiny" if tiny else "full"]
    # Import the model modules and warm numpy before anything is timed.
    warm_train, warm_valid, _ = generate(SIZES["tiny"], seed)
    AutoMLEM(n_iterations=1, forest_size=2, seed=SEARCH_SEED).fit(
        warm_train, warm_valid)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        train, valid, test = generate(params, seed)
        setup_s.append(time.perf_counter() - started)

    fit_s: list[float] = []
    f1s: list[float] = []
    histories = []
    started = time.perf_counter()
    while len(fit_s) < MIN_FITS or time.perf_counter() - started < seconds:
        matcher = AutoMLEM(n_iterations=params["n_iterations"],
                           forest_size=params["forest_size"],
                           seed=SEARCH_SEED)
        if tracer is not None:
            instrument(matcher, tracer)
        # Collect the previous fit's garbage now, not inside the next fit.
        gc.collect()
        fit_started = time.perf_counter()
        matcher.fit(train, valid)
        fit_s.append(time.perf_counter() - fit_started)
        f1s.append(matcher.evaluate(test)["f1"])
        histories.append(matcher.history_)
    rss = peak_rss_mb()

    layers: dict[str, float] = {}
    if tracer is not None:
        tracer.close()
        layers.update(tracer.totals("features.transform", ["rows"]))
        layers.update(fit_layers(tracer, histories))
        layers["data.generate_s"] = median(setup_s)

    prints = [history_fingerprint(history) for history in histories]
    return Outcome(
        setup_s=median(setup_s), latencies_s=fit_s,
        work=float(len(train) + len(valid)), work_s=median(fit_s),
        peak_rss_mb=rss,
        attempted=sum(len(history) for history in histories),
        failed=sum(history.n_failed for history in histories), f1=f1s[0],
        checks={
            "trial_history_repeats": len(set(prints)) == 1,
            "test_f1_repeats": len(set(f1s)) == 1,
        },
        report={
            "train_s": (median(fit_s), "s"),
            "train_test_f1": (f1s[0], "F1"),
            "fits": (float(len(fit_s)), "count"),
            "history_fingerprint": (prints[0][:16], "sha256"),
        },
        layers=layers,
        params={**params, "search_seed": SEARCH_SEED,
                "train_pairs": len(train), "valid_pairs": len(valid),
                "test_pairs": len(test), "split_seed": seed},
    )
