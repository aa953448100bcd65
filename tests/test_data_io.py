"""Tests for CSV round-trips of tables and pair sets."""

import pytest

from repro.data import (
    MATCH,
    PairSet,
    RecordPair,
    Table,
    read_pairs,
    read_table,
    write_pairs,
    write_table,
)
from repro.data.io import _parse_value


@pytest.fixture()
def table():
    return Table("products", ["name", "price", "in_stock"],
                 [["widget a", 9.99, True],
                  ["widget b", None, False],
                  ["gadget, deluxe", 100.0, None]])


class TestTableRoundTrip:
    def test_round_trip_values(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded.columns == table.columns
        for original, restored in zip(table, loaded):
            assert restored.record_id == original.record_id
            assert restored.values == original.values

    def test_quoted_commas_survive(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_table(table, path)
        assert read_table(path)[2]["name"] == "gadget, deluxe"

    def test_missing_becomes_none(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_table(table, path)
        assert read_table(path)[1]["price"] is None

    def test_booleans_survive(self, table, tmp_path):
        path = tmp_path / "t.csv"
        write_table(table, path)
        loaded = read_table(path)
        assert loaded[0]["in_stock"] is True
        assert loaded[1]["in_stock"] is False

    def test_integral_floats_render_clean(self, tmp_path):
        t = Table("n", ["year"], [[2001.0]])
        path = tmp_path / "n.csv"
        write_table(t, path)
        assert "2001" in path.read_text()
        assert "2001.0" not in path.read_text()

    def test_missing_id_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name\nfoo\n")
        with pytest.raises(ValueError, match="no id column"):
            read_table(path)

    def test_ragged_row_raises(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("id,a,b\n1,x\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            read_table(path)


class TestCellParsing:
    @pytest.mark.parametrize("text", [
        "nan", "NaN", "Nan", "inf", "-inf", "Infinity", "1_000", " 12 ",
        "12 ", "0x1f", "1e", ".", "+"])
    def test_non_numerals_stay_strings(self, text):
        assert _parse_value(text) == text

    @pytest.mark.parametrize("text, value", [
        ("12", 12.0), ("-3", -3.0), ("+4.5", 4.5), ("7.", 7.0),
        (".25", 0.25), ("1e-05", 1e-05), ("2.5E+20", 2.5e20),
        ("-0.0", -0.0)])
    def test_decimal_numerals_are_floats(self, text, value):
        parsed = _parse_value(text)
        assert isinstance(parsed, float)
        assert parsed == value

    def test_string_named_like_a_float_round_trips(self, tmp_path):
        table = Table("products", ["name", "code"],
                      [["Nan", "1_000"], ["Infinity", " 12 "]])
        path = tmp_path / "t.csv"
        write_table(table, path)
        assert [list(r.values) for r in read_table(path)] == \
            [["Nan", "1_000"], ["Infinity", " 12 "]]


class TestPairRoundTrip:
    def test_round_trip(self, table, tmp_path):
        other = Table("other", table.columns,
                      [list(r.values) for r in table])
        pairs = PairSet(table, other, [
            RecordPair(table[0], other[1], MATCH),
            RecordPair(table[2], other[0]),
        ])
        path = tmp_path / "pairs.csv"
        write_pairs(pairs, path)
        loaded = read_pairs(path, table, other)
        assert [p.key for p in loaded] == [(0, 1), (2, 0)]
        assert loaded[0].label == MATCH
        assert loaded[1].label is None

    def test_missing_columns_raise(self, table, tmp_path):
        path = tmp_path / "bad_pairs.csv"
        path.write_text("left,right\n0,0\n")
        with pytest.raises(ValueError, match="needs columns"):
            read_pairs(path, table, table)
