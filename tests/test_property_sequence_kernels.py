"""The batched character-DP kernel against the textbook oracle.

``tests/sequence_oracle.py`` fills the full DP table cell by cell in
plain Python; every batched column function, and the registry's
column-scoring path with its prefix cap, must return exactly its values,
bit for bit.  Inputs mix lengths inside one batch (padding must not
reach a shorter pair's cell), include empty strings, cross the
64-character cap, and draw from all of Unicode, astral code points and
lone surrogates included.  The stacked kernel must score every layer of
a mixed layer list exactly as a run of that layer alone.
"""

import numpy as np
import pytest
from bit_parity import assert_bits_equal
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
        assert_bits_equal(column(batch), _expected(reference, batch),
                          err_msg=column.__name__)


@settings(max_examples=40, deadline=None)
@given(pairs, st.integers(1, 3), st.integers(1, 3), st.integers(-2, 0))
def test_alignment_scoring_parameters(batch, gap, match, mismatch):
    params = (float(gap), float(match), float(mismatch))
    for column, reference in [
            (sequence.needleman_wunsch_scores, oracle.needleman_wunsch),
            (sequence.smith_waterman_scores, oracle.smith_waterman)]:
        sequence.DP_MEMO.clear()
        assert_bits_equal(column(batch, *params),
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
        assert_bits_equal(got, expected, err_msg=name)


@pytest.mark.parametrize("s1,s2", [
    ("", ""), ("", "abc"), ("abc", ""), ("\ud800", "\ud800"),
    ("\ud800", "\udc00"), ("\U0001F600x", "x\U0001F600"),
    ("\x00", ""), ("a" * 64, "a" * 63 + "b"),
])
def test_edge_pairs_equal_the_oracle(s1, s2):
    for column, reference in COLUMNS:
        assert column([(s1, s2)])[0] == reference(s1, s2), column.__name__


#: Scoring parameters on a quarter grid: non-integer, yet every DP cell
#: of a short pair stays exactly representable, so the oracle's
#: cell-by-cell sums and the kernel's shifted rows agree exactly.
quarters = st.integers(-8, 8).map(lambda q: q / 4)
layers = st.builds(sequence.Layer, gap=st.integers(1, 8).map(lambda q: q / 4),
                   match=quarters, mismatch=quarters, local=st.booleans())
layer_lists = st.lists(st.one_of(st.just(sequence.LEVENSHTEIN), layers),
                       min_size=1, max_size=5, unique=True)


def _oracle_raw(layer, s1, s2):
    reference = (oracle.smith_waterman_raw if layer.local
                 else oracle.needleman_wunsch_raw)
    return reference(s1, s2, layer.gap, layer.match, layer.mismatch)


@settings(max_examples=60, deadline=None)
@given(pairs, layer_lists)
def test_stacked_kernel_equals_each_layer_alone_and_the_oracle(batch,
                                                               stack):
    stacked = sequence._dp_kernel(batch, stack)
    assert stacked.shape == (len(stack), len(batch))
    for layer, scores in zip(stack, stacked):
        assert_bits_equal(scores, sequence._dp_kernel(batch, [layer])[0],
                          err_msg=repr(layer))
        # The oracle's empty-pair corner is ``-0.0`` where the kernel's
        # is ``0.0``, so this half compares values.
        np.testing.assert_array_equal(
            scores, [_oracle_raw(layer, s1, s2) for s1, s2 in batch],
            err_msg=repr(layer))


@settings(max_examples=40, deadline=None)
@given(pairs, st.lists(st.builds(sequence.Layer,
                                 gap=st.floats(0.01, 4.0),
                                 match=st.floats(-4.0, 4.0),
                                 mismatch=st.floats(-4.0, 4.0),
                                 local=st.booleans()),
                       min_size=2, max_size=4, unique=True))
def test_stacked_kernel_is_layer_independent_for_any_float_parameters(
        batch, stack):
    stacked = sequence._dp_kernel(batch, stack)
    for layer, scores in zip(stack, stacked):
        assert_bits_equal(scores, sequence._dp_kernel(batch, [layer])[0],
                          err_msg=repr(layer))


@settings(max_examples=30, deadline=None)
@given(st.lists(texts, min_size=1, max_size=8))
def test_zero_distance_is_positive_zero(strings):
    distances = sequence.levenshtein_distances([(s, s) for s in strings])
    assert_bits_equal(distances, np.zeros(len(strings)))


@settings(max_examples=30, deadline=None)
@given(pairs)
def test_fill_memo_gives_the_column_functions_their_scores(batch):
    expected = [column(batch) for column, _ in COLUMNS]
    sequence.DP_MEMO.clear()
    sequence.fill_memo([(layer, batch) for layer in LAYERS])
    filled = len(sequence.DP_MEMO)
    for (column, _), scores in zip(COLUMNS, expected):
        assert_bits_equal(column(batch), scores, err_msg=column.__name__)
    assert len(sequence.DP_MEMO) == filled  # every column call hit


#: The layers of the registered DP measures.
LAYERS = [sequence.LEVENSHTEIN, sequence.NEEDLEMAN_WUNSCH,
          sequence.SMITH_WATERMAN]

FIXED_BATCH = [("kitten", "sitting"), ("flaw", "lawn"), ("", "abc"),
               ("\U0001F600x", "x\U0001F600"), ("gumbo", "gambol")]


def test_memo_update_keeps_its_bound(monkeypatch):
    monkeypatch.setattr(sequence, "DP_MEMO_MAX_ENTRIES", 100)
    memo = sequence.DPMemo()
    layer = sequence.LEVENSHTEIN
    memo.update({(layer, "a", str(i)): 1.0 for i in range(60)})
    assert len(memo) == 60
    memo.update({(layer, "b", str(i)): 1.0 for i in range(250)})
    assert len(memo) == 100


def test_fill_memo_keeps_every_layer_it_scored(monkeypatch):
    # The memo is partly full and the fill fits it exactly: one update
    # per fill, so no layer's scores evict another's.
    monkeypatch.setattr(sequence, "DP_MEMO_MAX_ENTRIES",
                        len(LAYERS) * len(FIXED_BATCH))
    sequence.DP_MEMO.update({(sequence.LEVENSHTEIN, "x", "y"): 1.0})
    sequence.fill_memo([(layer, FIXED_BATCH) for layer in LAYERS])
    assert len(sequence.DP_MEMO) == len(LAYERS) * len(FIXED_BATCH)
    assert all(sequence.DP_MEMO.get((layer, s1, s2)) is not None
               for layer in LAYERS for s1, s2 in FIXED_BATCH)


def test_fill_memo_skips_a_fill_the_memo_cannot_hold(monkeypatch):
    monkeypatch.setattr(sequence, "DP_MEMO_MAX_ENTRIES",
                        len(LAYERS) * len(FIXED_BATCH) - 1)
    sequence.fill_memo([(layer, FIXED_BATCH) for layer in LAYERS])
    assert len(sequence.DP_MEMO) == 0
    for column, reference in COLUMNS:
        assert_bits_equal(column(FIXED_BATCH),
                          _expected(reference, FIXED_BATCH),
                          err_msg=column.__name__)


def test_fill_memo_scores_each_pair_under_its_own_layers(monkeypatch):
    runs = []
    kernel = sequence._dp_kernel

    def spy(batch, layers):
        runs.append((sorted(layers), sorted(batch)))
        return kernel(batch, layers)

    monkeypatch.setattr(sequence, "_dp_kernel", spy)
    lev_only = [("12", "12.5"), ("3", "30")]
    sequence.fill_memo([(layer, FIXED_BATCH) for layer in LAYERS]
                       + [(sequence.LEVENSHTEIN, lev_only)])
    assert sorted(runs) == sorted([(sorted(LAYERS), sorted(FIXED_BATCH)),
                                   ([sequence.LEVENSHTEIN], sorted(lev_only))])


@pytest.mark.parametrize("block_rows", [1, 2, 7])
def test_a_run_in_blocks_equals_one_block(monkeypatch, block_rows):
    monkeypatch.setattr(sequence, "_KERNEL_BLOCK_ROWS", block_rows)
    scores = sequence._run(LAYERS, FIXED_BATCH)
    whole = sequence._dp_kernel(FIXED_BATCH, LAYERS)
    for layer, raw in zip(LAYERS, whole):
        assert_bits_equal(
            np.array([scores[(layer, s1, s2)] for s1, s2 in FIXED_BATCH]),
            raw, err_msg=repr(layer))
