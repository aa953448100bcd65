"""Property-based tests (hypothesis) for the similarity library."""

import math

from bit_parity import assert_bits_equal
from hypothesis import given, settings, strategies as st

from repro.features.columnar import score_value_pairs
from repro.similarity import (
    ALL_STRING_MEASURES,
    DISTANCE_MEASURES,
    cosine_similarity,
    dice_similarity,
    get_measure,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    needleman_wunsch,
    overlap_coefficient,
    score,
    smith_waterman,
)

short_text = st.text(alphabet=st.characters(min_codepoint=32,
                                            max_codepoint=126),
                     max_size=30)
tokens = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6),
                  max_size=8)


class TestLevenshteinProperties:
    @given(short_text, short_text)
    def test_symmetry(self, s1, s2):
        assert levenshtein_distance(s1, s2) == levenshtein_distance(s2, s1)

    @given(short_text)
    def test_identity(self, s):
        assert levenshtein_distance(s, s) == 0.0

    @given(short_text, short_text)
    def test_bounded_by_longer(self, s1, s2):
        assert levenshtein_distance(s1, s2) <= max(len(s1), len(s2))

    @given(short_text, short_text)
    def test_at_least_length_gap(self, s1, s2):
        assert levenshtein_distance(s1, s2) >= abs(len(s1) - len(s2))

    @settings(max_examples=30)
    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= \
            levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(short_text, short_text)
    def test_similarity_in_unit_interval(self, s1, s2):
        assert 0.0 <= levenshtein_similarity(s1, s2) <= 1.0


class TestAlignmentProperties:
    @given(short_text, short_text)
    def test_nw_bounds(self, s1, s2):
        assert 0.0 <= needleman_wunsch(s1, s2) <= 1.0

    @given(short_text, short_text)
    def test_sw_bounds(self, s1, s2):
        assert 0.0 <= smith_waterman(s1, s2) <= 1.0 + 1e-12

    @given(short_text)
    def test_sw_identity(self, s):
        assert smith_waterman(s, s) == (1.0 if s else 1.0)

    @given(short_text, short_text)
    def test_sw_dominates_nw(self, s1, s2):
        # Local alignment can only beat global (both normalized by their
        # respective maxima, so compare raw containment case).
        if s1 and s2 and s1 in s2:
            assert smith_waterman(s2, s1) == 1.0


class TestJaroProperties:
    @given(short_text, short_text)
    def test_bounds(self, s1, s2):
        assert 0.0 <= jaro_similarity(s1, s2) <= 1.0

    @given(short_text, short_text)
    def test_symmetry(self, s1, s2):
        assert jaro_similarity(s1, s2) == jaro_similarity(s2, s1)

    @given(short_text, short_text)
    def test_winkler_dominates_jaro(self, s1, s2):
        assert jaro_winkler_similarity(s1, s2) >= jaro_similarity(s1, s2)

    @given(short_text, short_text)
    def test_winkler_bounds(self, s1, s2):
        assert 0.0 <= jaro_winkler_similarity(s1, s2) <= 1.0


class TestSetMeasureProperties:
    @given(tokens, tokens)
    def test_all_in_unit_interval(self, t1, t2):
        for func in (jaccard_similarity, cosine_similarity,
                     dice_similarity, overlap_coefficient):
            assert 0.0 <= func(t1, t2) <= 1.0 + 1e-12

    @given(tokens, tokens)
    def test_symmetry(self, t1, t2):
        for func in (jaccard_similarity, cosine_similarity,
                     dice_similarity, overlap_coefficient):
            assert func(t1, t2) == func(t2, t1)

    @given(tokens)
    def test_identity(self, t):
        for func in (jaccard_similarity, cosine_similarity,
                     dice_similarity, overlap_coefficient):
            assert func(t, t) == 1.0

    @given(tokens, tokens)
    def test_containment_ordering(self, t1, t2):
        # jaccard <= dice <= overlap
        j = jaccard_similarity(t1, t2)
        d = dice_similarity(t1, t2)
        o = overlap_coefficient(t1, t2)
        assert j <= d + 1e-12
        assert d <= o + 1e-12


def _reference_set_score(name, tokens1, tokens2):
    """The set measures from set arithmetic, independent of the counts."""
    set1, set2 = set(tokens1), set(tokens2)
    if not set1 and not set2:
        return 1.0
    common = len(set1 & set2)
    if name == "jaccard":
        return common / len(set1 | set2)
    if name == "dice":
        return 2.0 * common / (len(set1) + len(set2))
    if not set1 or not set2:
        return 0.0
    if name == "cosine":
        return common / math.sqrt(len(set1) * len(set2))
    return common / min(len(set1), len(set2))


#: Values with empty strings, repeated tokens and astral characters; a
#: ``None`` side scores ``nan``.
set_values = st.one_of(
    st.none(),
    st.text(alphabet=st.sampled_from(["a", "b", " ", "\U0001F600",
                                      "\U0010FFFF", "\ud800"]),
            max_size=12),
    st.lists(st.sampled_from(["x", "yy", "\U0001F600"]), max_size=6)
    .map(" ".join),
)


class TestSetMeasuresFromCounts:
    """The column path scores the four set measures of a tokenizer from
    one count pass; it must equal the scalar ``sets.*`` functions and
    plain set arithmetic bit for bit."""

    SCALARS = {"jaccard": jaccard_similarity, "cosine": cosine_similarity,
               "dice": dice_similarity, "overlap": overlap_coefficient}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(set_values, set_values), min_size=1,
                    max_size=8))
    def test_column_path_equals_the_scalars(self, value_pairs):
        names = [n for n in ALL_STRING_MEASURES
                 if get_measure(n).tokenizer is not None]
        assert len(names) == 8
        measures = [get_measure(n) for n in names]
        together = score_value_pairs(measures, value_pairs)
        for j, measure in enumerate(measures):
            kind = measure.name.split("_")[0]
            tokenize = measure.tokenizer
            expected = [
                math.nan if v1 is None or v2 is None
                else self.SCALARS[kind](tokenize(v1), tokenize(v2))
                for v1, v2 in value_pairs]
            reference = [
                math.nan if v1 is None or v2 is None
                else _reference_set_score(kind, tokenize(v1), tokenize(v2))
                for v1, v2 in value_pairs]
            assert_bits_equal(together[:, j], expected, err_msg=measure.name)
            assert_bits_equal(measure.score_column(value_pairs), expected,
                              err_msg=measure.name)
            assert_bits_equal(expected, reference, err_msg=measure.name)
            assert_bits_equal(
                [measure(v1, v2) for v1, v2 in value_pairs], expected,
                err_msg=measure.name)


class TestRegistryProperties:
    @settings(max_examples=25)
    @given(short_text, short_text)
    def test_every_measure_finite_or_nan(self, s1, s2):
        for name in ALL_STRING_MEASURES:
            value = score(name, s1, s2)
            assert not math.isinf(value)

    @settings(max_examples=25)
    @given(short_text)
    def test_similarity_measures_score_identity_one(self, s):
        for name in ALL_STRING_MEASURES:
            if name in DISTANCE_MEASURES:
                assert score(name, s, s) == 0.0
            else:
                assert score(name, s, s) >= 1.0 - 1e-9
