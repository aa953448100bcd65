"""Opt-in perf regression check for the columnar featuregen engine.

Skipped unless pytest is invoked with ``--perf`` (see conftest) so the
tier-1 suite stays fast:

    PYTHONPATH=src python -m pytest benchmarks/test_bench_featuregen.py --perf
"""

import json

import pytest

from bench_featuregen import run_bench

pytestmark = pytest.mark.perf


def test_columnar_not_slower_than_naive(tmp_path):
    report = run_bench(n_pairs=2000, duplication=4, seed=0)
    (tmp_path / "bench_featuregen.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8")
    assert report["speedup_columnar_vs_naive"] >= 1.0, report["paths"]
