"""Jaro, Jaro-Winkler and Monge-Elkan against the textbook loops.

``tests/sequence_oracle.py`` scans the whole match window for every
character and calls Jaro-Winkler on every word pair; production finds
each match with ``str.find``, skips the words two token lists share and
memoizes the rest in ``sequence.JARO_MEMO``.  Every score must equal
the oracle's bit for bit, from a cold memo and again from a warm one.
Inputs stress the window edges (short strings over a two-letter
alphabet, so characters repeat), NUL, astral characters and lone
surrogates, and token lists longer than the 24-token cap that share
tokens.
"""

import numpy as np
import pytest
from bit_parity import assert_bits_equal
from hypothesis import given, settings
from hypothesis import strategies as st

import sequence_oracle as oracle
from repro.similarity import get_measure, sequence, sets
from repro.similarity.sequence import exact_match

characters = st.one_of(
    st.sampled_from("ab"),  # repeats, so the first free match matters
    st.characters(codec=None),
    st.sampled_from(["\x00", "\ud800", "\udfff", "\U0001F600",
                     "\U0010FFFF"]),
)
texts = st.text(alphabet=characters, max_size=20)
#: Two-letter strings of nearby lengths: matches sit at the window edges.
edge_texts = st.text(alphabet="ab", max_size=10)
string_pairs = st.one_of(st.tuples(texts, texts),
                         st.tuples(edge_texts, edge_texts),
                         # a shared prefix, for the Winkler boost
                         st.tuples(texts, texts, texts).map(
                             lambda t: (t[0] + t[1], t[0] + t[2])))
words = st.one_of(st.sampled_from(["new", "york", "ny", "yrok", "\x00",
                                   "\U0001F600", "\ud800x"]),
                  st.text(alphabet=characters, min_size=1, max_size=8))
token_lists = st.lists(words, max_size=30)


@pytest.fixture(autouse=True)
def cold_memo():
    sequence.JARO_MEMO.clear()
    yield
    sequence.JARO_MEMO.clear()


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(string_pairs)
def test_jaro_equals_the_window_scan(pair):
    s1, s2 = pair
    expected = oracle.jaro(s1, s2)
    assert _bits(sequence.jaro_similarity(s1, s2)) == _bits(expected)
    assert _bits(sequence.jaro_similarity(s1, s2)) == _bits(expected)  # memo


@settings(max_examples=200, deadline=None)
@given(string_pairs, st.sampled_from([0.0, 0.1, 0.2, 0.25]))
def test_jaro_winkler_equals_the_oracle_and_stays_within_one(pair, weight):
    s1, s2 = pair
    got = sequence.jaro_winkler_similarity(s1, s2, weight)
    assert _bits(got) == _bits(oracle.jaro_winkler(s1, s2, weight))
    # Monge-Elkan scores a shared word 1.0 without comparing it, which
    # is exact only because no word pair scores above 1.0.
    assert got <= 1.0


@pytest.mark.parametrize("s1,s2", [
    ("", ""), ("", "a"), ("a", ""), ("ab", "ba"), ("abc", "cab"),
    ("aaaa", "aaab"), ("abab", "baba"), ("martha", "marhta"),
    ("dixon", "dicksonx"), ("𐀀", "\udc00\ud800"),
    ("\x00a", "a\x00"), ("a" * 40, "b" * 19 + "a"),
])
def test_jaro_edge_pairs_equal_the_oracle(s1, s2):
    assert _bits(sequence.jaro_similarity(s1, s2)) \
        == _bits(oracle.jaro(s1, s2))
    assert _bits(sequence.jaro_winkler_similarity(s1, s2)) \
        == _bits(oracle.jaro_winkler(s1, s2))


@settings(max_examples=200, deadline=None)
@given(token_lists, token_lists)
def test_monge_elkan_equals_the_oracle(tokens1, tokens2):
    expected = oracle.monge_elkan(tokens1, tokens2)
    for _ in range(2):  # cold, then from the memo
        got = sets.monge_elkan(tokens1, tokens2)
        assert _bits(got) == _bits(expected), (tokens1, tokens2)


@settings(max_examples=50, deadline=None)
@given(token_lists, token_lists)
def test_monge_elkan_with_another_secondary_equals_the_oracle(tokens1,
                                                              tokens2):
    assert _bits(sets.monge_elkan(tokens1, tokens2, secondary=exact_match)) \
        == _bits(oracle.monge_elkan(tokens1, tokens2, secondary=exact_match))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.none(), st.lists(words, max_size=40)),
                          st.lists(words, max_size=40)),
                min_size=1, max_size=5))
def test_monge_elkan_column_on_long_text_equals_the_oracle(rows):
    measure = get_measure("monge_elkan")
    batch = [(None if t1 is None else " ".join(t1), " ".join(t2))
             for t1, t2 in rows]
    expected = [np.nan if v1 is None
                else oracle.monge_elkan(v1.split(), v2.split())
                for v1, v2 in batch]
    assert_bits_equal(measure.score_column(batch), expected,
                      err_msg="monge_elkan")


def test_best_jaro_winkler_scores_each_word_pair_once():
    tokens1 = ["new", "yrok", "new", "city", "yrok"]
    tokens2 = ["new", "york", "york"]
    best = sequence.best_jaro_winkler(tokens1, set(tokens2))
    assert _bits(best["new"]) == _bits(1.0)
    # "yrok" and "city" against "new" and "york": four pairs, one entry
    # each, none for the shared word.
    assert len(sequence.JARO_MEMO) == 4
    for word in ("yrok", "city"):
        assert _bits(best[word]) == _bits(max(
            oracle.jaro_winkler(word, w2) for w2 in tokens2))
