"""Shared plumbing for the benches.

Every reproduction bench regenerates one paper artifact at the FAST
experiment scale (see ``repro.experiments.configs``), saves the
resulting table under ``benchmarks/results/`` and asserts the *shape*
of the paper's claim (who wins, direction of trends) — never absolute
numbers, which depend on the synthetic-data substitution documented in
DESIGN.md.  The perf benches head their ``BENCH_*.json`` reports with
:func:`provenance`.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.experiments import FAST, ResultTable
from repro.experiments.configs import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = Path(__file__).parent / "results"

#: Bench-time budget knobs: FAST scales with a reduced search budget so
#: the whole harness finishes in tens of minutes, not hours.  Two
#: generator seeds are averaged where the runner supports it (Table IV,
#: Figure 9) because the scaled test sets are small enough that a single
#: draw is noisy.
BENCH = ExperimentConfig(scales=FAST.scales, automl_iterations=24,
                         forest_size=32, generator_seeds=(1, 2),
                         split_seed=0)

#: Lighter knobs for the active-learning figures (13-15) and the
#: future-work loops: each cell already averages two algorithm seeds and
#: runs many labeling iterations, so the per-run AutoML budget is reduced
#: to keep the whole harness inside tens of minutes.
ACTIVE_BENCH = ExperimentConfig(scales=FAST.scales, automl_iterations=15,
                                forest_size=24, generator_seeds=(1,),
                                split_seed=0)


def save_table(table: ResultTable, name: str) -> None:
    """Persist a result table (markdown) and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.md"
    path.write_text(table.to_markdown() + "\n", encoding="utf-8")
    print()
    print(table.to_text())


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance() -> dict:
    """Where and on what a report was measured.  ``git_dirty`` is true
    when the working tree differs from ``git_sha`` (a report regenerated
    before its change is committed)."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": _git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status),
            "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count()}


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1,
                              warmup_rounds=0)
