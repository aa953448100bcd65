"""A small typed in-memory relational table.

The EM pipeline needs only lightweight relational plumbing: named columns,
row access by id, projection and iteration.  ``Table`` stores rows as
tuples against a fixed schema; values are ``str``, ``float``, ``bool`` or
``None`` (missing).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

Value = str | float | bool | None


class Record:
    """One row of a :class:`Table`, with attribute access by name."""

    __slots__ = ("record_id", "_columns", "_values")

    def __init__(self, record_id: int, columns: Sequence[str],
                 values: Sequence[Value]):
        if len(columns) != len(values):
            raise ValueError(
                f"record {record_id}: {len(values)} values for "
                f"{len(columns)} columns")
        self.record_id = record_id
        self._columns = columns
        self._values = tuple(values)

    def __getitem__(self, column: str) -> Value:
        try:
            return self._values[self._columns.index(column)]
        except ValueError:
            raise KeyError(
                f"no column {column!r}; columns: {list(self._columns)}") \
                from None

    def get(self, column: str, default: Value = None) -> Value:
        try:
            return self[column]
        except KeyError:
            return default

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def values(self) -> tuple[Value, ...]:
        return self._values

    def as_dict(self) -> dict[str, Value]:
        return dict(zip(self._columns, self._values))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Record)
                and self.record_id == other.record_id
                and self._values == other._values
                and tuple(self._columns) == tuple(other._columns))

    def __hash__(self) -> int:
        return hash((self.record_id, self._values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{c}={v!r}" for c, v in self.as_dict().items())
        return f"Record(id={self.record_id}, {pairs})"

    def __reduce__(self) -> tuple[type["Record"],
                                  tuple[int, Sequence[str],
                                        tuple[Value, ...]]]:
        # The constructor's arguments, not the default slot-state
        # dict: smaller pickles, and the shared columns object is
        # memoized once.  Old slot-state pickles still load.
        return (type(self), (self.record_id, self._columns, self._values))


class Table:
    """An immutable collection of :class:`Record` objects with one schema.

    >>> t = Table("restaurants", ["name", "city"],
    ...           [["fenix", "west hollywood"], ["katsu", "los angeles"]])
    >>> t.num_rows
    2
    >>> t[0]["name"]
    'fenix'
    """

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Value]],
                 ids: Sequence[int] | None = None):
        self.name = name
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns}")
        rows = list(rows)
        if ids is None:
            ids = range(len(rows))
        ids = list(ids)
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} ids for {len(rows)} rows")
        self._records = [Record(i, self.columns, row)
                         for i, row in zip(ids, rows)]
        self._by_id = {r.record_id: r for r in self._records}
        if len(self._by_id) != len(self._records):
            raise ValueError("duplicate record ids")

    @property
    def num_rows(self) -> int:
        return len(self._records)

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def by_id(self, record_id: int) -> Record:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise KeyError(f"no record with id {record_id} in table "
                           f"{self.name!r}") from None

    def column(self, name: str) -> list[Value]:
        """All values of one column, in row order."""
        idx = self._column_index(name)
        return [r.values[idx] for r in self._records]

    def project(self, columns: Sequence[str]) -> "Table":
        """A new table keeping only ``columns`` (order given)."""
        indices = [self._column_index(c) for c in columns]
        rows = [[r.values[i] for i in indices] for r in self._records]
        return Table(self.name, columns, rows,
                     ids=[r.record_id for r in self._records])

    def sample(self, n: int, rng: "np.random.Generator") -> "Table":
        """A new table with ``n`` rows drawn without replacement."""
        if n > self.num_rows:
            raise ValueError(f"cannot sample {n} rows from {self.num_rows}")
        chosen = rng.choice(self.num_rows, size=n, replace=False)
        rows = [list(self._records[i].values) for i in chosen]
        ids = [self._records[i].record_id for i in chosen]
        return Table(self.name, self.columns, rows, ids=ids)

    def _column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in table {self.name!r}; "
                           f"columns: {list(self.columns)}") from None

    def __repr__(self) -> str:
        return (f"Table({self.name!r}, {self.num_rows} rows, "
                f"columns={list(self.columns)})")
