"""Tier-1 checks of ``benchmarks/bench_featuregen.py``'s cold timing.

The bench times every featurization path from cold similarity memos;
if :func:`clear_similarity_caches` missed a memo, the later paths
would silently reuse scores an earlier path computed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_featuregen import clear_similarity_caches  # noqa: E402

from repro.similarity import sequence  # noqa: E402


def test_clear_similarity_caches_empties_every_memo():
    sequence.levenshtein_distances([("abc", "abd")])
    sequence.needleman_wunsch_scores([("abc", "abd")])
    sequence.smith_waterman_scores([("abc", "abd")])
    sequence.jaro_similarity("abc", "abd")
    assert len(sequence.DP_MEMO) >= 3
    clear_similarity_caches()
    assert len(sequence.DP_MEMO) == 0
    assert sequence.jaro_similarity.cache_info().currsize == 0
