"""EXPERIMENTS.md is the output of ``benchmarks/build_experiments_md.py``.

The file pairs commentary with the tables under ``benchmarks/results/``;
a result file changed without a rebuild leaves the two disagreeing.
Rebuild with ``python benchmarks/build_experiments_md.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from build_experiments_md import main  # noqa: E402


def test_experiments_md_is_the_builders_output():
    assert main(["--check"]) == 0
