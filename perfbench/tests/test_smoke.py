"""Tiny-scale smoke test of the benchmark.

Every workload, untraced and traced, must print every metric that
``BENCHMARK.json`` names, with its unit, and pass all its correctness
checks.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1"]


def test_declared_workloads_are_covered():
    assert {w["name"] for w in SPEC["workloads"]} <= set(OWN_LAYER_METRICS)

#: Per-layer metrics each workload must move; layers a workload never
#: calls read 0 by design.  ``train`` runs through the same command but
#: is not one of BENCHMARK.json's workloads (see the README).
OWN_LAYER_METRICS = {
    "train": ["features.transform.calls", "automl.fit_matrices.busy_s",
              "automl.trials", "core.fit.self_s"],
    "serve": ["blocking.probe.calls", "blocking.add_records.calls",
              "features.transform.calls", "ml.predict_proba.calls",
              "monitor.observe.calls", "resolve.apply_result.calls",
              "serve.service_ms.p50", "automl.trials", "core.fit.self_s"],
    "resolve": ["resolve.apply.calls", "resolve.save.bytes",
                "resolve.entity_of.calls", "resolve.members.calls",
                "resolve.golden.calls"],
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT
              ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(OWN_LAYER_METRICS))
def test_every_metric_with_unit_and_checks_pass(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}
    assert lines[0].startswith("# provenance ")
    assert not [line for line in lines if line.endswith(": FAILED")]
    if trace:
        for name in OWN_LAYER_METRICS[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_exits_nonzero_without_program_source(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("resolve", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
