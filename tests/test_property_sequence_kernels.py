"""The batched character-DP kernels against the textbook oracle.

``tests/sequence_oracle.py`` fills the full DP table cell by cell in
plain Python; every batched column function, and the registry's
column-scoring path with its prefix cap, must return exactly its values.
Inputs mix lengths inside one batch (padding must not reach a shorter
pair's cell), include empty strings, cross the 64-character cap, and
draw from all of Unicode, astral code points and lone surrogates
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sequence_oracle as oracle
from repro.similarity import get_measure, sequence
from repro.similarity.registry import SEQUENCE_MAX_CHARS

#: Column function -> oracle, default scoring parameters.
COLUMNS = [
    (sequence.levenshtein_distances, oracle.levenshtein),
    (sequence.levenshtein_similarities, oracle.levenshtein_similarity),
    (sequence.needleman_wunsch_scores, oracle.needleman_wunsch),
    (sequence.smith_waterman_scores, oracle.smith_waterman),
]

#: Registry measure -> oracle, for the capped column-scoring path.
MEASURES = {
    "lev_dist": oracle.levenshtein,
    "lev_sim": oracle.levenshtein_similarity,
    "needleman_wunsch": oracle.needleman_wunsch,
    "smith_waterman": oracle.smith_waterman,
}

characters = st.one_of(
    st.sampled_from("ab "),  # a small alphabet, so alignments are non-trivial
    st.characters(codec=None),
    st.sampled_from(["\x00", "\ud800", "\udfff", "\U0001F600",
                     "\U0010FFFF"]),
)
texts = st.text(alphabet=characters, max_size=24)
pairs = st.lists(st.tuples(texts, texts), min_size=1, max_size=8)


@pytest.fixture(autouse=True)
def cold_memo():
    """Every check runs the kernels, not memo hits from an earlier one."""
    sequence.DP_MEMO.clear()
    yield
    sequence.DP_MEMO.clear()


def _expected(reference, batch, *params):
    return np.array([reference(s1, s2, *params) for s1, s2 in batch])


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_column_functions_equal_the_oracle(batch):
    for column, reference in COLUMNS:
        sequence.DP_MEMO.clear()
        np.testing.assert_array_equal(column(batch),
                                      _expected(reference, batch),
                                      err_msg=column.__name__)


@settings(max_examples=40, deadline=None)
@given(pairs, st.integers(1, 3), st.integers(1, 3), st.integers(-2, 0))
def test_alignment_scoring_parameters(batch, gap, match, mismatch):
    params = (float(gap), float(match), float(mismatch))
    for column, reference in [
            (sequence.needleman_wunsch_scores, oracle.needleman_wunsch),
            (sequence.smith_waterman_scores, oracle.smith_waterman)]:
        sequence.DP_MEMO.clear()
        np.testing.assert_array_equal(column(batch, *params),
                                      _expected(reference, batch, *params),
                                      err_msg=column.__name__)


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_batch_of_one_equals_its_row_in_the_batch(batch):
    for column, _ in COLUMNS:
        sequence.DP_MEMO.clear()
        together = column(batch)
        for k, pair in enumerate(batch):
            sequence.DP_MEMO.clear()
            assert column([pair])[0] == together[k], (column.__name__, pair)


long_texts = st.text(alphabet=characters,
                     min_size=SEQUENCE_MAX_CHARS - 4,
                     max_size=SEQUENCE_MAX_CHARS + 4)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.one_of(long_texts, texts, st.none()),
                          st.one_of(long_texts, texts)),
                min_size=1, max_size=5))
def test_capped_column_path_equals_the_oracle(batch):
    cap = SEQUENCE_MAX_CHARS
    for name, reference in MEASURES.items():
        sequence.DP_MEMO.clear()
        got = get_measure(name).score_column(batch)
        expected = [np.nan if v1 is None else reference(v1[:cap], v2[:cap])
                    for v1, v2 in batch]
        np.testing.assert_array_equal(got, expected, err_msg=name)


@pytest.mark.parametrize("s1,s2", [
    ("", ""), ("", "abc"), ("abc", ""), ("\ud800", "\ud800"),
    ("\ud800", "\udc00"), ("\U0001F600x", "x\U0001F600"),
    ("\x00", ""), ("a" * 64, "a" * 63 + "b"),
])
def test_edge_pairs_equal_the_oracle(s1, s2):
    for column, reference in COLUMNS:
        assert column([(s1, s2)])[0] == reference(s1, s2), column.__name__
