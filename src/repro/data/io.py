"""CSV round-trip for tables and labeled pair sets.

The public EM benchmarks ship as CSV (tableA.csv, tableB.csv,
train/valid/test.csv with ltable_id, rtable_id, label columns); these
helpers read and write that layout so users can plug in the real datasets
when they have them.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

from .pairs import PairSet, RecordPair
from .table import Table, Value


#: A plain decimal numeral: sign, digits, point, exponent.  ``float()``
#: alone also accepts ``nan``, ``inf``, ``1_000`` and padded ``" 12 "``,
#: which would turn such string cells into floats.
_NUMERAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_value(text: str) -> Value:
    """CSV cell → typed value: '' → None, numerals → float, else str."""
    if text == "":
        return None
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if _NUMERAL.fullmatch(text):
        return float(text)
    return text


def _render_value(value: Value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def read_table(path: str | Path, name: str | None = None,
               id_column: str = "id") -> Table:
    """Read a table CSV with an id column into a :class:`Table`."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if id_column not in header:
            raise ValueError(
                f"{path}: no id column {id_column!r} in header {header}")
        id_idx = header.index(id_column)
        columns = [c for i, c in enumerate(header) if i != id_idx]
        rows, ids = [], []
        for line_no, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} cells, "
                    f"got {len(raw)}")
            ids.append(int(float(raw[id_idx])))
            rows.append([_parse_value(c)
                         for i, c in enumerate(raw) if i != id_idx])
    return Table(name or path.stem, columns, rows, ids=ids)


def write_table(table: Table, path: str | Path, id_column: str = "id") -> None:
    """Write a :class:`Table` to CSV with a leading id column."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([id_column, *table.columns])
        for record in table:
            writer.writerow([record.record_id,
                             *(_render_value(v) for v in record.values)])


def read_pairs(path: str | Path, table_a: Table, table_b: Table) -> PairSet:
    """Read a pairs CSV (``ltable_id,rtable_id[,label]``) into a PairSet."""
    path = Path(path)
    pairs = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"ltable_id", "rtable_id"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"{path}: pairs CSV needs columns {sorted(required)}, "
                f"got {reader.fieldnames}")
        has_label = "label" in (reader.fieldnames or [])
        for row in reader:
            left = table_a.by_id(int(float(row["ltable_id"])))
            right = table_b.by_id(int(float(row["rtable_id"])))
            label = int(float(row["label"])) if has_label and row["label"] != "" \
                else None
            pairs.append(RecordPair(left, right, label))
    return PairSet(table_a, table_b, pairs)


def write_pairs(pairs: PairSet, path: str | Path) -> None:
    """Write a PairSet to a pairs CSV (label column included if present)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ltable_id", "rtable_id", "label"])
        for pair in pairs:
            label = "" if pair.label is None else pair.label
            writer.writerow([pair.left.record_id, pair.right.record_id, label])
