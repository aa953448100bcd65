"""Match decisions — the edge stream the resolution layer consumes.

The serving path ends each request with a scored
:class:`~repro.serve.matcher.MatchResult`: per-candidate probabilities
and binary predictions over record *pairs*.  Entity resolution needs
those pairwise verdicts as graph edges between *nodes* that stay
meaningful across requests, tables and sides.  This module defines that
edge currency:

* a **node key** ``(side, record_id)`` — record ids are only unique
  within one table, so the side tag ("a"/"b" by convention, any string
  in general) namespaces them; a deduplication workload passes the same
  side for both endpoints and the ids collapse into one namespace;
* a :class:`MatchDecision` — one undirected, scored, signed edge.  The
  ``matched`` flag carries the model's thresholded verdict (bundle
  threshold semantics included), the ``score`` its probability, so the
  clusterer can re-threshold without re-scoring;
* :func:`decisions_from_result` — the adapter from a serving
  ``MatchResult`` (or any object with ``pairs`` / ``probabilities`` /
  ``predictions``) to a decision list.

Decisions are value objects: two decisions over the same endpoints with
the same score and verdict have the same :attr:`MatchDecision.key` and
the same :func:`decision_entry` regardless of endpoint order (``==``
compares the fields as given), which is what makes the clustering
layer's order-independence guarantees meaningful.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from ..serve.matcher import MatchResult

#: One clustering-graph node: ``(side, record_id)``.
NodeKey = tuple[str, Union[int, str]]


def node_key(side: str, record_id: Union[int, str]) -> NodeKey:
    """The canonical node key for ``record_id`` on table ``side``."""
    if not side:
        raise ValueError("side must be a non-empty string")
    return (str(side), record_id)


def order_key(node: NodeKey) -> tuple[str, str, str]:
    """A total, deterministic sort key over node keys.

    Record ids may mix ``int`` and ``str`` across tables (the data
    layer allows both), and Python refuses to order those directly.
    Sorting by ``(side, type name, str(id))`` is total, stable across
    processes, and independent of insertion order — which is what makes
    the minimum member of a cluster a canonical, order-independent
    entity representative.
    """
    side, record_id = node
    return (side, type(record_id).__name__, str(record_id))


def entity_id_for(node: NodeKey) -> str:
    """The printable entity id derived from a canonical node.

    ``"<side>:<record_id>"`` — stable across runs and across
    incremental/batch clustering of the same decisions, because the
    canonical node (the minimum member under :func:`order_key`) is.
    """
    return f"{node[0]}:{node[1]}"


def stable_hash(value: object) -> int:
    """A seed-grade integer digest of ``repr(value)``.

    ``hash()`` is salted per process for strings; resolution seeds must
    not be, or golden records would differ between runs.
    """
    digest = hashlib.sha1(repr(value).encode("utf-8")).hexdigest()
    return int(digest[:12], 16)


@dataclass(frozen=True)
class MatchDecision:
    """One pairwise verdict: an undirected, scored, signed edge.

    ``matched`` is the model's (threshold-applied) binary decision;
    ``score`` the match probability behind it.  A non-matched decision
    is *negative evidence* — it never merges entities, but the
    correlation-clustering refinement uses it to split over-merged
    components.
    """

    left: NodeKey
    right: NodeKey
    score: float
    matched: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.left == self.right:
            raise ValueError(f"self-edge on {self.left}: a record always "
                             f"matches itself; decisions must join two "
                             f"distinct nodes")

    @property
    def key(self) -> tuple[NodeKey, NodeKey]:
        """Endpoints in canonical order — equal for (u, v) and (v, u)."""
        if order_key(self.left) <= order_key(self.right):
            return (self.left, self.right)
        return (self.right, self.left)

    def __repr__(self) -> str:
        sign = "+" if self.matched else "-"
        return (f"MatchDecision({self.left} {sign} {self.right}, "
                f"score={self.score:.4f})")


def decisions_from_result(result: "MatchResult", *, left_side: str = "a",
                          right_side: str = "b") -> list[MatchDecision]:
    """Convert one scored serving result into a decision list.

    Works on any object exposing ``pairs`` (an iterable of record
    pairs), ``probabilities`` and ``predictions`` — i.e. a serving
    :class:`~repro.serve.matcher.MatchResult` — so the resolve layer
    never imports the serving layer at runtime.  For deduplication
    (both endpoints from one table) pass ``left_side == right_side``.
    """
    decisions = []
    for pair, probability, prediction in zip(result.pairs,
                                             result.probabilities,
                                             result.predictions):
        decisions.append(MatchDecision(
            node_key(left_side, pair.left.record_id),
            node_key(right_side, pair.right.record_id),
            float(probability), bool(prediction)))
    return decisions


def decision_entry(decision: MatchDecision) -> bytes:
    """The fingerprint entry of one decision.

    ``repr((left, right, score, matched))`` with the endpoints in
    canonical :func:`order_key` order and the score a ``float`` rounded
    to 12 places; ``+ 0.0`` maps ``-0.0`` to ``0.0``.  Equal decisions
    encode to equal bytes, numpy-scalar scores and verdicts included.
    """
    left, right = decision.left, decision.right
    if order_key(right) < order_key(left):
        left, right = right, left
    return repr((left, right, round(float(decision.score), 12) + 0.0,
                 bool(decision.matched))).encode()


def entries_fingerprint(entries: list[bytes]) -> str:
    """The sha256 of sorted :func:`decision_entry` bytes, joined."""
    return hashlib.sha256(b"".join(entries)).hexdigest()


def decisions_fingerprint(decisions: Iterable[MatchDecision]) -> str:
    """An order-independent content digest of a decision set.

    The sha256 over the decisions' :func:`decision_entry` bytes, sorted
    by those bytes: two stores that applied the same decisions in
    different orders (or batch partitions) report the same fingerprint
    by construction — the persistence-integrity key of
    :class:`~repro.resolve.store.EntityStore` snapshots.
    """
    return entries_fingerprint(sorted(map(decision_entry, decisions)))


def gold_decisions(pairs: Sequence[object], *, left_side: str = "a",
                   right_side: str = "b") -> list[MatchDecision]:
    """Decisions synthesized from a labeled pair set's gold labels.

    An oracle matcher: score 1.0 / 0.0 by label.  Used by the CLI and
    the CI smoke step to exercise the clustering + fusion path without
    training a model first.
    """
    decisions = []
    for pair in pairs:
        label = pair.label  # type: ignore[attr-defined]
        if label is None:
            raise ValueError(f"pair {pair!r} has no gold label")
        decisions.append(MatchDecision(
            node_key(left_side, pair.left.record_id),        # type: ignore[attr-defined]
            node_key(right_side, pair.right.record_id),      # type: ignore[attr-defined]
            float(label), bool(label)))
    return decisions
