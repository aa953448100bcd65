"""Composite blockers: union, intersection and cascade.

The composition algebra lets cheap, high-recall blockers and strict,
high-precision blockers combine into one :class:`BaseBlocker`:

* :class:`UnionBlocker` (``a | b``) — pairs admitted by *any* member;
  the recall-stacking combinator (block on name OR on address).
* :class:`IntersectionBlocker` (``a & b``) — pairs admitted by *every*
  member; tightens precision without writing a new blocker.
* :class:`CascadeBlocker` (``a >> b``) — run the first (cheap) blocker
  in bulk, then filter its survivors through each subsequent blocker's
  per-pair :meth:`~repro.blocking.base.BaseBlocker.admits` predicate.
  The strict stage never builds an index, so a cascade's cost is the
  cheap stage plus ``O(survivors)`` — the classic candidate/verify
  split.

Union and intersection run their members' bulk ``block`` calls either
sequentially or across a process pool (``n_jobs``); both paths merge
member outputs in member order, so results are identical.  Output order
is deterministic: first-occurrence order over members for unions, the
first member's output order for intersections, the cheap stage's output
order for cascades.  All composites drop duplicate pairs, like every
other blocker.
"""

from __future__ import annotations

from ..concurrency import process_map
from ..data.pairs import PairSet, RecordPair
from ..data.table import Record, Table
from .base import BaseBlocker


def _block_pair_keys(blocker: BaseBlocker, table_a: Table,
                     table_b: Table) -> list[tuple]:
    """Worker task: one member's candidate keys, in its output order.

    Keys (not :class:`RecordPair` objects) cross the process boundary —
    the parent already holds both tables and rebuilds pairs locally.
    """
    return [pair.key for pair in blocker.block(table_a, table_b)]


class _CompositeBlocker(BaseBlocker):
    """Shared plumbing for the n-ary (union / intersection) composites."""

    _OPERATOR = "?"

    def __init__(self, *blockers: BaseBlocker, n_jobs: int | None = 1):
        if len(blockers) < 2:
            raise ValueError(
                f"{type(self).__name__} needs at least 2 blockers, "
                f"got {len(blockers)}")
        for blocker in blockers:
            if not isinstance(blocker, BaseBlocker):
                raise TypeError(
                    f"{type(self).__name__} operands must be blockers, "
                    f"got {type(blocker).__name__}")
        self.blockers = tuple(blockers)
        self.n_jobs = n_jobs

    def _member_keys(self, table_a: Table,
                     table_b: Table) -> list[list[tuple]]:
        """Each member's candidate keys, in member order (one pool
        worker per member when ``n_jobs`` resolves above 1)."""
        return process_map(_block_pair_keys,
                           [(blocker, table_a, table_b)
                            for blocker in self.blockers], self.n_jobs)

    @staticmethod
    def _materialize(keys: list[tuple], table_a: Table,
                     table_b: Table) -> PairSet:
        pairs = [RecordPair(table_a.by_id(left_id), table_b.by_id(right_id))
                 for left_id, right_id in keys]
        return PairSet(table_a, table_b, pairs)

    def __repr__(self) -> str:
        inner = f" {self._OPERATOR} ".join(repr(b) for b in self.blockers)
        return f"({inner})"


class UnionBlocker(_CompositeBlocker):
    """Pairs admitted by any member blocker (``a | b``)."""

    _OPERATOR = "|"

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        seen: set[tuple] = set()
        merged: list[tuple] = []
        for keys in self._member_keys(table_a, table_b):
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    merged.append(key)
        return self._materialize(merged, table_a, table_b)

    def admits(self, left: Record, right: Record) -> bool:
        return any(blocker.admits(left, right) for blocker in self.blockers)


class IntersectionBlocker(_CompositeBlocker):
    """Pairs admitted by every member blocker (``a & b``)."""

    _OPERATOR = "&"

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        member_keys = self._member_keys(table_a, table_b)
        shared = set(member_keys[0])
        for keys in member_keys[1:]:
            shared &= set(keys)
        kept = [key for key in member_keys[0] if key in shared]
        return self._materialize(kept, table_a, table_b)

    def admits(self, left: Record, right: Record) -> bool:
        return all(blocker.admits(left, right) for blocker in self.blockers)


class CascadeBlocker(BaseBlocker):
    """Run a cheap blocker, then filter survivors through strict ones.

    ``first`` generates candidates in bulk; every blocker in ``filters``
    is applied as a per-pair predicate over the shrinking survivor set,
    cheapest-first by convention.  Equivalent to an intersection in the
    pairs it admits, but the strict stages pay per-survivor instead of
    per-table.
    """

    def __init__(self, first: BaseBlocker, *filters: BaseBlocker):
        if not isinstance(first, BaseBlocker):
            raise TypeError(f"CascadeBlocker stages must be blockers, "
                            f"got {type(first).__name__}")
        if not filters:
            raise ValueError("CascadeBlocker needs at least one filter "
                             "stage after the first blocker")
        for blocker in filters:
            if not isinstance(blocker, BaseBlocker):
                raise TypeError(f"CascadeBlocker stages must be blockers, "
                                f"got {type(blocker).__name__}")
        # ``a >> b >> c`` flattens to one three-stage cascade.
        if isinstance(first, CascadeBlocker):
            self.first = first.first
            self.filters = first.filters + tuple(filters)
        else:
            self.first = first
            self.filters = tuple(filters)

    @property
    def blockers(self) -> tuple[BaseBlocker, ...]:
        return (self.first, *self.filters)

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        survivors = self.first.block(table_a, table_b)
        for blocker in self.filters:
            survivors = blocker.filter_pairs(survivors)
        return survivors

    def admits(self, left: Record, right: Record) -> bool:
        return all(blocker.admits(left, right) for blocker in self.blockers)

    def __repr__(self) -> str:
        inner = " >> ".join(repr(b) for b in self.blockers)
        return f"({inner})"
