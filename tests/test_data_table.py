"""Tests for the typed in-memory Table/Record substrate."""

import copyreg
import io
import pickle

import numpy as np
import pytest

from repro.data import Record, Table


@pytest.fixture()
def table():
    return Table("restaurants", ["name", "city", "rating"],
                 [["fenix", "west hollywood", 4.5],
                  ["katsu", "los angeles", 4.0],
                  ["arts deli", "studio city", None]])


class TestRecord:
    def test_getitem(self, table):
        assert table[0]["name"] == "fenix"

    def test_unknown_column_raises(self, table):
        with pytest.raises(KeyError, match="no column"):
            table[0]["phone"]

    def test_get_default(self, table):
        assert table[0].get("phone", "n/a") == "n/a"

    def test_missing_value_is_none(self, table):
        assert table[2]["rating"] is None

    def test_as_dict(self, table):
        assert table[1].as_dict() == {"name": "katsu",
                                      "city": "los angeles", "rating": 4.0}

    def test_equality_and_hash(self):
        r1 = Record(1, ["a"], ["x"])
        r2 = Record(1, ["a"], ["x"])
        assert r1 == r2
        assert hash(r1) == hash(r2)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="values for"):
            Record(0, ["a", "b"], ["only-one"])

    def test_pickle_round_trip_keeps_shared_columns(self, table):
        first, second = pickle.loads(pickle.dumps([table[0], table[1]]))
        assert (first, second) == (table[0], table[1])
        assert first.columns == table.columns
        assert first._columns is second._columns

    def test_slot_state_pickles_still_load(self, table):
        """Bytes in the default slot-state layout (what a pickle of a
        ``Record`` without ``__reduce__`` holds) unpickle to an equal
        record."""

        class SlotStatePickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not Record:
                    return NotImplemented
                slots = {"record_id": obj.record_id,
                         "_columns": obj._columns, "_values": obj._values}
                return (copyreg.__newobj__, (Record,), (None, slots))

        buffer = io.BytesIO()
        SlotStatePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
            table[2])
        assert b"_values" in buffer.getvalue()
        loaded = pickle.loads(buffer.getvalue())
        assert loaded == table[2]
        assert loaded["rating"] is None


class TestTable:
    def test_len_and_iter(self, table):
        assert len(table) == 3
        assert [r["name"] for r in table] == ["fenix", "katsu", "arts deli"]

    def test_by_id(self, table):
        assert table.by_id(2)["name"] == "arts deli"

    def test_by_id_missing(self, table):
        with pytest.raises(KeyError, match="no record with id"):
            table.by_id(99)

    def test_column(self, table):
        assert table.column("city") == ["west hollywood", "los angeles",
                                        "studio city"]

    def test_column_unknown(self, table):
        with pytest.raises(KeyError, match="no column"):
            table.column("nope")

    def test_project(self, table):
        projected = table.project(["city"])
        assert projected.columns == ("city",)
        assert projected[0]["city"] == "west hollywood"
        # ids preserved
        assert projected.by_id(2)["city"] == "studio city"

    def test_custom_ids(self):
        t = Table("t", ["x"], [["a"], ["b"]], ids=[10, 20])
        assert t.by_id(20)["x"] == "b"

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate record ids"):
            Table("t", ["x"], [["a"], ["b"]], ids=[1, 1])

    def test_duplicate_columns_raise(self):
        with pytest.raises(ValueError, match="duplicate column"):
            Table("t", ["x", "x"], [["a", "b"]])

    def test_id_row_count_mismatch(self):
        with pytest.raises(ValueError, match="ids for"):
            Table("t", ["x"], [["a"]], ids=[1, 2])

    def test_sample(self, table):
        rng = np.random.default_rng(0)
        sampled = table.sample(2, rng)
        assert sampled.num_rows == 2
        # sampled records keep their original ids
        for record in sampled:
            assert table.by_id(record.record_id) is not None

    def test_sample_too_many(self, table):
        with pytest.raises(ValueError, match="cannot sample"):
            table.sample(10, np.random.default_rng(0))
