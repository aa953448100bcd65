"""Tests for data-type inference and the Table I / Table II feature plans."""

import math

import numpy as np
import pytest

from repro.data import PairSet, RecordPair, Table
from repro.features import (
    DataType,
    TABLE_I,
    autoem_feature_plan,
    autoem_measures_for,
    infer_column_type,
    infer_schema_types,
    magellan_feature_plan,
    make_autoem_features,
    make_magellan_features,
)


class TestTypeInference:
    def test_single_word(self):
        assert infer_column_type(["chicago", "boston"], ["dallas"]) == \
            DataType.SINGLE_WORD

    def test_words_1_5(self):
        assert infer_column_type(["new york city"], ["los angeles"]) == \
            DataType.WORDS_1_5

    def test_words_5_10(self):
        text = ["a b c d e f g", "one two three four five six"]
        assert infer_column_type(text, text) == DataType.WORDS_5_10

    def test_long_text(self):
        text = [" ".join(["word"] * 15)]
        assert infer_column_type(text, text) == DataType.LONG_TEXT

    def test_numeric(self):
        assert infer_column_type([1.5, 2.0], [3.0]) == DataType.NUMERIC

    def test_numeric_strings_count_as_numeric(self):
        assert infer_column_type(["1.5", "2"], ["3"]) == DataType.NUMERIC

    def test_boolean(self):
        assert infer_column_type([True, False], [True]) == DataType.BOOLEAN

    def test_missing_values_ignored(self):
        assert infer_column_type([None, "chicago"], [None]) == \
            DataType.SINGLE_WORD

    def test_all_missing_defaults(self):
        assert infer_column_type([None], [None]) == DataType.WORDS_1_5

    def test_mixed_text_numeric_is_string(self):
        assert infer_column_type(["abc", "1.5"], ["2"]) != DataType.NUMERIC

    def test_is_string_property(self):
        assert DataType.WORDS_5_10.is_string
        assert not DataType.NUMERIC.is_string

    def test_schema_inference(self):
        a = Table("A", ["name", "year"], [["alpha beta", 2001.0]])
        b = Table("B", ["name", "year"], [["gamma", 2002.0]])
        types = infer_schema_types(a, b)
        assert types == {"name": DataType.WORDS_1_5,
                         "year": DataType.NUMERIC}

    def test_schema_mismatch(self):
        a = Table("A", ["x"], [["1"]])
        b = Table("B", ["y"], [["1"]])
        with pytest.raises(ValueError, match="schema mismatch"):
            infer_schema_types(a, b)


class TestFeaturePlans:
    def test_magellan_counts_per_type(self):
        # Table I row counts.
        assert len(TABLE_I[DataType.SINGLE_WORD]) == 6
        assert len(TABLE_I[DataType.WORDS_1_5]) == 8
        assert len(TABLE_I[DataType.WORDS_5_10]) == 5
        assert len(TABLE_I[DataType.LONG_TEXT]) == 2
        assert len(TABLE_I[DataType.NUMERIC]) == 4
        assert len(TABLE_I[DataType.BOOLEAN]) == 1

    def test_autoem_gives_all_16_to_any_string(self):
        for dtype in (DataType.SINGLE_WORD, DataType.WORDS_1_5,
                      DataType.WORDS_5_10, DataType.LONG_TEXT):
            assert len(autoem_measures_for(dtype)) == 16

    def test_autoem_matches_magellan_for_numeric_and_bool(self):
        assert autoem_measures_for(DataType.NUMERIC) == \
            TABLE_I[DataType.NUMERIC]
        assert autoem_measures_for(DataType.BOOLEAN) == \
            TABLE_I[DataType.BOOLEAN]

    def test_paper_example_counts(self):
        # Section III-B: 2 single-word + 2 long-text attributes.
        types = {"a": DataType.SINGLE_WORD, "b": DataType.SINGLE_WORD,
                 "c": DataType.LONG_TEXT, "d": DataType.LONG_TEXT}
        assert len(magellan_feature_plan(types)) == 6 + 6 + 2 + 2
        assert len(autoem_feature_plan(types)) == 16 * 4

    def test_autoem_always_superset_width(self):
        for dtype in DataType:
            assert len(autoem_measures_for(dtype)) >= \
                len(TABLE_I[dtype])


class TestFeatureGenerator:
    @pytest.fixture()
    def pair_set(self):
        a = Table("A", ["name", "price"],
                  [["arts delicatessen", 12.0], ["fenix", None]])
        b = Table("B", ["name", "price"],
                  [["arts deli", 12.5], ["fenix at the argyle", 9.0]])
        return PairSet(a, b, [RecordPair(a[0], b[0], 1),
                              RecordPair(a[1], b[1], 0)])

    def test_matrix_shape(self, pair_set):
        generator = make_autoem_features(pair_set.table_a, pair_set.table_b)
        matrix = generator.transform(pair_set)
        assert matrix.shape == (2, generator.num_features)
        # name(16 string) + price(4 numeric)
        assert generator.num_features == 20

    def test_feature_names_format(self, pair_set):
        generator = make_autoem_features(pair_set.table_a, pair_set.table_b)
        assert "name__jaccard_space" in generator.feature_names
        assert "price__abs_norm" in generator.feature_names
        assert len(generator.feature_names) == generator.num_features

    def test_missing_value_yields_nan(self, pair_set):
        generator = make_autoem_features(pair_set.table_a, pair_set.table_b)
        matrix = generator.transform(pair_set)
        col = generator.feature_names.index("price__abs_norm")
        assert math.isnan(matrix[1, col])
        assert not math.isnan(matrix[0, col])

    def test_magellan_narrower_than_autoem(self, pair_set):
        magellan = make_magellan_features(pair_set.table_a, pair_set.table_b)
        autoem = make_autoem_features(pair_set.table_a, pair_set.table_b)
        assert magellan.num_features < autoem.num_features

    def test_exclude_attributes(self, pair_set):
        generator = make_autoem_features(pair_set.table_a, pair_set.table_b,
                                         exclude_attributes=("price",))
        assert generator.num_features == 16
        assert all(name.startswith("name__")
                   for name in generator.feature_names)

    def test_exclude_everything_raises(self, pair_set):
        with pytest.raises(ValueError, match="empty"):
            make_autoem_features(pair_set.table_a, pair_set.table_b,
                                 exclude_attributes=("name", "price"))

    def test_similar_pair_scores_higher(self, pair_set):
        generator = make_autoem_features(pair_set.table_a, pair_set.table_b)
        matrix = generator.transform(pair_set)
        col = generator.feature_names.index("name__jaccard_space")
        assert matrix[0, col] > matrix[1, col]
