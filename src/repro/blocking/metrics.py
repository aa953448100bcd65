"""Blocking-quality evaluation: completeness, reduction, block shapes.

Blocking trades recall for scale, and both sides of the trade need a
number (Section II-A treats blocking as a given; production use does
not get to).  The standard pair of metrics:

* **pair completeness** — the fraction of gold matching pairs that
  survive blocking (blocking-level recall; every pair lost here is a
  match no downstream model can recover);
* **reduction ratio** — the fraction of the full cross product the
  blocker eliminated (``1 - |C| / (|A| * |B|)``).

plus a **block size histogram**, because two blockers with equal
reduction can have wildly different worst-case blocks (one giant block
is a quadratic probe bomb; many small blocks are not).

:func:`evaluate_blocking` runs a blocker end-to-end and bundles the
numbers into a :class:`BlockingReport`, optionally written as one
``blocking`` record of a :class:`~repro.events.EventLog` (``repro
block`` and :func:`repro.experiments.run_blocking_study` both route
through it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..data.pairs import MATCH, PairSet
from ..data.table import Table
from ..events import EventLog
from .base import BaseBlocker

if TYPE_CHECKING:
    from .index import BlockIndex


def gold_pair_keys(pairs: PairSet) -> set[tuple]:
    """The keys of the positively-labeled pairs in ``pairs``."""
    return {pair.key for pair in pairs if pair.label == MATCH}


def pair_completeness(candidates: PairSet,
                      gold_pairs: set[tuple]) -> float:
    """Fraction of gold matching pairs present in ``candidates``.

    Vacuously 1.0 when there are no gold pairs (nothing to lose).
    """
    if not gold_pairs:
        return 1.0
    found = {pair.key for pair in candidates}
    return len(found & gold_pairs) / len(gold_pairs)


def reduction_ratio(num_candidates: int, num_a: int, num_b: int) -> float:
    """Fraction of the ``num_a * num_b`` cross product eliminated.

    Vacuously 1.0 for an empty cross product.  Negative values are
    possible in principle (a blocker emitting duplicates would exceed
    the cross product) but no built-in blocker emits duplicates.
    """
    if num_candidates < 0:
        raise ValueError(
            f"num_candidates must be >= 0, got {num_candidates}")
    total = num_a * num_b
    if total == 0:
        return 1.0
    return 1.0 - num_candidates / total


def block_size_histogram(sizes: list[int]) -> dict[str, int]:
    """Power-of-two histogram of block sizes.

    Buckets are ``"1"``, ``"2"``, ``"3-4"``, ``"5-8"``, ... — doubling
    ranges, which is the right resolution for the question the
    histogram answers ("are there quadratic-blowup blocks?").  Keys
    appear in increasing order; empty buckets are omitted.
    """
    counts: dict[str, int] = {}
    bounds: list[tuple[int, int]] = [(1, 1)]
    upper = 1
    max_size = max(sizes, default=0)
    while upper < max_size:
        lower, upper = upper + 1, upper * 2
        bounds.append((lower, upper))
    for lower, upper in bounds:
        label = str(lower) if lower == upper else f"{lower}-{upper}"
        count = sum(1 for size in sizes if lower <= size <= upper)
        if count:
            counts[label] = count
    return counts


@dataclass
class BlockingReport:
    """The full quality/cost picture of one blocking run."""

    blocker: str
    num_table_a: int
    num_table_b: int
    num_candidates: int
    num_gold: int
    pair_completeness: float
    reduction_ratio: float
    elapsed: float
    block_sizes: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "blocker": self.blocker,
            "num_table_a": self.num_table_a,
            "num_table_b": self.num_table_b,
            "num_candidates": self.num_candidates,
            "num_gold": self.num_gold,
            "pair_completeness": self.pair_completeness,
            "reduction_ratio": self.reduction_ratio,
            "elapsed": self.elapsed,
            "block_sizes": self.block_sizes,
        }


def evaluate_blocking(blocker: BaseBlocker, table_a: Table, table_b: Table,
                      gold_pairs: set[tuple] | None = None,
                      index: "BlockIndex | None" = None,
                      run_log: EventLog | str | Path | None = None,
                      **context: object) -> BlockingReport:
    """Run ``blocker`` over the tables and measure the result.

    ``gold_pairs`` (keys of true matches) enables pair completeness;
    without it completeness is reported as the vacuous 1.0.  Passing a
    prebuilt ``index`` (matching the blocker over ``table_b``) times the
    probe-only path instead of index+probe.  ``run_log`` receives one
    ``"blocking"`` record (plus any ``context`` fields); a path is
    rewritten, an open :class:`~repro.events.EventLog` appended to.
    """
    gold = gold_pairs or set()
    start = time.perf_counter()
    if index is not None:
        candidates = index.probe(table_a)
        sizes = index.block_sizes()
    else:
        candidates = blocker.block(table_a, table_b)
        sizes = []  # block shapes need a standing index; see BlockIndex
    elapsed = time.perf_counter() - start
    report = BlockingReport(
        blocker=repr(blocker),
        num_table_a=table_a.num_rows,
        num_table_b=table_b.num_rows,
        num_candidates=len(candidates),
        num_gold=len(gold),
        pair_completeness=pair_completeness(candidates, gold),
        reduction_ratio=reduction_ratio(len(candidates), table_a.num_rows,
                                        table_b.num_rows),
        elapsed=elapsed,
        block_sizes=block_size_histogram(sizes) if sizes else {},
    )
    with EventLog.opened(run_log) as log:
        if log is not None:
            log.event("blocking", **report.to_dict(), **context)
    return report
