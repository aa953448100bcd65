"""Tier-1 smoke of ``benchmarks/bench_resolve.py --check``.

Runs the bench end to end at small scale: workload generation, the
incremental-vs-batch parity assertion, the cluster-quality gates, the
snapshot round trip and report writing all execute on every test run.
The 10x speedup gate only applies at full scale (see ``FULL_SCALE`` in
the bench), so this stays fast and machine-independent; the strict
check is the opt-in perf marker in ``benchmarks/test_bench_resolve.py``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_resolve import FULL_SCALE, build_decisions, main  # noqa: E402


def test_check_mode_passes_at_smoke_scale(tmp_path):
    out = tmp_path / "bench.json"
    assert main(["--decisions", "800", "--batch", "100",
                 "--output", str(out), "--check"]) == 0
    report = json.loads(out.read_text())
    assert report["workload"]["n_decisions"] == 800 < FULL_SCALE
    assert report["parity"] is True
    assert report["raw_component_sanity"] is True
    assert report["quality"]["pairwise_f1"] >= 0.99
    assert report["incremental"]["n_batches"] == 8
    assert report["incremental"]["n_entities"] == \
        report["full_recluster"]["n_entities"]
    # 8 batches, saved after the last one only (SAVE_EVERY is 10)
    snapshot = report["snapshot"]
    assert snapshot["round_trip"] is True
    assert snapshot["n_saves"] == 1
    assert snapshot["snapshot_bytes"] > 0


def test_workload_is_deterministic():
    first, gold_first = build_decisions(400, seed=3)
    second, gold_second = build_decisions(400, seed=3)
    assert first == second
    assert gold_first == gold_second == \
        {pair for i in range(100)
         for pair in [(2 * i, 2 * i), (2 * i, 2 * i + 1),
                      (2 * i + 1, 2 * i), (2 * i + 1, 2 * i + 1)]}
    assert sum(decision.matched for decision in first) == 300
