"""Tier-1 checks of ``benchmarks/bench_featuregen.py``'s cold timing.

The bench times every featurization path from cold similarity memos;
if :func:`clear_similarity_caches` missed a memo, the later paths
would silently reuse scores an earlier path computed.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_featuregen import clear_similarity_caches  # noqa: E402

import repro.similarity  # noqa: E402
from repro.concurrency import BoundedMemo  # noqa: E402
from repro.similarity import sequence, sets  # noqa: E402


def _memos() -> list:
    """Every :class:`~repro.concurrency.BoundedMemo` in
    :mod:`repro.similarity`."""
    modules = [importlib.import_module(f"repro.similarity.{info.name}")
               for info in pkgutil.iter_modules(repro.similarity.__path__)]
    found = {id(value): value for module in modules
             for value in vars(module).values()
             if isinstance(value, BoundedMemo)}
    return list(found.values())


def test_clear_similarity_caches_empties_every_memo():
    sequence.levenshtein_distances([("abc", "abd")])
    sequence.needleman_wunsch_scores([("abc", "abd")])
    sequence.smith_waterman_scores([("abc", "abd")])
    sequence.jaro_winkler_similarity("abc", "abd")
    sets.monge_elkan(["new", "york"], ["yrok"])
    memos = _memos()
    assert len(memos) >= 2
    assert all(len(memo) for memo in memos)
    clear_similarity_caches()
    assert [len(memo) for memo in memos] == [0] * len(memos)
