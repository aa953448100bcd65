"""Benches for the paper's future-work extensions (implemented here).

Conclusion of the paper: explanation tools, meta-learning speed-ups and
alternative active-learning strategies are listed as future research.
These benches exercise the implementations this repo ships.
"""

from common import ACTIVE_BENCH, BENCH, run_once, save_table

from repro.experiments import (
    run_ensemble_ablation,
    run_labeler_study,
    run_metalearning_warmstart,
    run_query_strategies,
)


def test_future_query_strategies(benchmark):
    table = run_once(benchmark, lambda: run_query_strategies(ACTIVE_BENCH))
    save_table(table, "extra_query_strategies")
    scores = {row["strategy"]: row["test_f1"] for row in table.rows}
    assert set(scores) == {"uncertainty", "committee", "random"}
    informed = [scores[s] for s in ("uncertainty", "committee")]
    # At least one informed strategy should beat passive random sampling.
    assert max(informed) >= scores["random"] - 1.0
    print(f"\nquery strategies: "
          + " ".join(f"{k}={v:.1f}" for k, v in scores.items()))


def test_future_ensemble_selection(benchmark):
    table = run_once(benchmark, lambda: run_ensemble_ablation(BENCH))
    save_table(table, "extra_ensemble")
    by_size = {row["ensemble_size"]: row for row in table.rows}
    # Greedy selection optimizes validation F1, so it can only match or
    # beat the single best there.
    assert by_size[8]["valid_f1"] >= by_size[1]["valid_f1"] - 1e-6
    print("\nensemble sizes: " + " ".join(
        f"{k}->v{row['valid_f1']:.1f}/t{row['test_f1']:.1f}"
        for k, row in sorted(by_size.items())))


def test_future_metalearning_warmstart(benchmark):
    table = run_once(benchmark, lambda: run_metalearning_warmstart(BENCH))
    save_table(table, "extra_metalearning")
    by_variant = {row["variant"]: row for row in table.rows}
    # The warm start sees strictly more information at the same budget;
    # it should not be far behind the cold start and often leads.
    assert by_variant["warm"]["valid_f1"] >= \
        by_variant["cold"]["valid_f1"] - 6.0
    print(f"\nwarm={by_variant['warm']['valid_f1']:.1f} "
          f"cold={by_variant['cold']['valid_f1']:.1f} (valid F1)")


def test_future_label_inference(benchmark):
    table = run_once(benchmark, lambda: run_labeler_study(BENCH))
    save_table(table, "extra_labelers")
    by_name = {row["labeler"]: row for row in table.rows}
    assert set(by_name) == {"label_propagation"}
    # Inference only counts if the inferred labels are trustworthy.
    for row in table.rows:
        if row["inferred"] > 0:
            assert row["accuracy_pct"] > 80.0
    print("\n" + " | ".join(
        f"{k}: {v['inferred']} labels @ {v['accuracy_pct']:.1f}%"
        for k, v in by_name.items()))
