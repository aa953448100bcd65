"""The blocker interface.

Every blocker answers two questions:

* :meth:`BaseBlocker.block` — generate the candidate :class:`PairSet`
  for two tables (the batch entry point);
* :meth:`BaseBlocker.admits` — would this blocker keep one concrete
  ``(left, right)`` record pair?  The per-pair predicate is the naive
  oracle the indexed blockers are checked against (the equivalence
  tests and ``benchmarks/bench_blocking.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..data.pairs import PairSet
from ..data.table import Record, Table


class BaseBlocker(ABC):
    """A candidate-pair generator over two tables.

    Subclasses implement :meth:`block` (bulk generation, usually via an
    inverted index) and :meth:`admits` (the equivalent per-pair
    predicate).  The two must agree: ``block(a, b)`` returns exactly the
    pairs for which ``admits(left, right)`` holds — except blockers that
    are approximate by construction, which must document the divergence
    (none of the built-ins diverge: even LSH banding is a deterministic
    function of the two records given the blocker's seed).
    """

    @abstractmethod
    def block(self, table_a: Table, table_b: Table) -> PairSet:
        """Deduplicated candidate pairs for ``table_a`` × ``table_b``."""

    @abstractmethod
    def admits(self, left: Record, right: Record) -> bool:
        """Would this blocker emit the concrete pair ``(left, right)``?"""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

