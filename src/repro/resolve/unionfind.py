"""Incremental connected-components clustering over match decisions.

The first, cheap half of entity resolution: treat every positive
decision as an edge and every connected component as one entity.  The
implementation is a classic union–find (disjoint-set forest) with
union by size and path compression, plus the bookkeeping that makes it
*serve-grade*:

* **Incremental** — decisions stream in; :meth:`add` is amortized
  near-O(1), so a standing clusterer keeps up with a hot
  :class:`~repro.serve.service.MatchService` without re-clustering.
* **Order-independent** — the *partition* induced by a set of edges is
  independent of insertion order by construction, and every exposed
  identity is derived from partition content, never from forest shape:
  the canonical representative of a component is its minimum member
  under :func:`~repro.resolve.decisions.order_key`, maintained in O(1)
  per union.  ``tests/test_property_resolve.py`` drives this with
  hypothesis: any permutation and any batch partitioning of a decision
  stream yields bit-identical :meth:`components` output.
* **Member lists** — every root keeps the list of its component's
  nodes.  :meth:`union` hangs the smaller component's root under the
  larger one's and appends the smaller list to the larger, so the list
  lengths are the sizes that union by size reads, and :meth:`members`
  costs O(k log k) for a k-node component instead of a scan over every
  node.
* **Score-thresholded edges** — a decision merges only when the model
  said *match* and (optionally) its score clears ``threshold``;
  everything else still registers its endpoints, so singleton entities
  exist for every record the matcher has ever judged.

Churn accounting distinguishes three union outcomes: a no-op (already
same component), an *attachment* (at least one side was a singleton)
and an *entity merge* (two established multi-record entities fused).
A high entity-merge rate late in a stream is the instability signal
the monitoring layer's cluster-churn trigger consumes.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .decisions import MatchDecision, NodeKey, order_key


class ConnectedComponents:
    """Incremental union–find over decision edges.

    >>> cc = ConnectedComponents()
    >>> cc.add(MatchDecision(("a", 1), ("b", 7), 0.9, True))
    True
    >>> cc.canonical(("b", 7))
    ('a', 1)

    ``threshold=None`` (default) trusts the decision's ``matched`` flag
    as-is; a float re-thresholds the score on top of it (an edge needs
    ``matched and score >= threshold``) — useful when the resolution
    layer wants higher precision than the serving threshold.
    """

    def __init__(self, threshold: float | None = None):
        if threshold is not None and not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self._parent: dict[NodeKey, NodeKey] = {}
        self._min: dict[NodeKey, NodeKey] = {}
        self._members: dict[NodeKey, list[NodeKey]] = {}
        self._n_components = 0
        self.n_unions = 0
        self.n_attachments = 0
        self.n_entity_merges = 0

    # -- node / component access ---------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._parent)

    @property
    def n_components(self) -> int:
        return self._n_components

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def __iter__(self) -> Iterator[NodeKey]:
        """Every registered node, in registration order."""
        return iter(self._parent)

    def add_node(self, node: NodeKey) -> None:
        """Register ``node`` as a (possibly singleton) entity."""
        if node not in self._parent:
            self._parent[node] = node
            self._min[node] = node
            self._members[node] = [node]
            self._n_components += 1

    def find(self, node: NodeKey) -> NodeKey:
        """The forest root of ``node``'s component (with compression).

        The root is an *internal* identity — forest shape depends on
        insertion order.  Use :meth:`canonical` for the stable,
        order-independent representative.
        """
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def canonical(self, node: NodeKey) -> NodeKey:
        """The minimum member (under ``order_key``) of ``node``'s
        component — the order-independent entity representative."""
        return self._min[self.find(node)]

    def component_size(self, node: NodeKey) -> int:
        return len(self._members[self.find(node)])

    # -- mutation ------------------------------------------------------

    def union(self, left: NodeKey, right: NodeKey) -> bool:
        """Join the two components; True iff they were distinct."""
        self.add_node(left)
        self.add_node(right)
        root_a, root_b = self.find(left), self.find(right)
        if root_a == root_b:
            return False
        kept, moved = self._members[root_a], self._members[root_b]
        if len(kept) < len(moved):
            root_a, root_b, kept, moved = root_b, root_a, moved, kept
        # The smaller component, root_b's, joins root_a's.
        if len(moved) > 1:
            self.n_entity_merges += 1
        else:
            self.n_attachments += 1
        self._parent[root_b] = root_a
        kept.extend(moved)
        del self._members[root_b]
        old_min = self._min.pop(root_b)
        if order_key(old_min) < order_key(self._min[root_a]):
            self._min[root_a] = old_min
        self._n_components -= 1
        self.n_unions += 1
        return True

    def _is_edge(self, decision: MatchDecision) -> bool:
        if not decision.matched:
            return False
        return self.threshold is None or decision.score >= self.threshold

    def add(self, decision: MatchDecision) -> bool:
        """Fold one decision in; True iff it merged two components.

        Endpoints register unconditionally (negative evidence still
        proves the records exist); only a positive, threshold-clearing
        decision unions.
        """
        if self._is_edge(decision):
            return self.union(decision.left, decision.right)
        self.add_node(decision.left)
        self.add_node(decision.right)
        return False

    def add_many(self, decisions: Iterable[MatchDecision]) -> int:
        """Fold a batch of decisions in; returns how many merged."""
        return sum(1 for decision in decisions if self.add(decision))

    # -- content views -------------------------------------------------

    def components(self) -> dict[NodeKey, tuple[NodeKey, ...]]:
        """The full partition: canonical node → sorted members.

        Pure content — equal for any insertion order or batch
        partitioning of the same decision set, which is the
        order-independence contract property tests pin down.
        """
        return {self._min[root]: tuple(sorted(members, key=order_key))
                for root, members
                in sorted(self._members.items(),
                          key=lambda item: order_key(self._min[item[0]]))}

    def members(self, node: NodeKey) -> tuple[NodeKey, ...]:
        """Sorted members of ``node``'s component (O(k log k))."""
        return tuple(sorted(self._members[self.find(node)], key=order_key))

    def sizes(self) -> list[int]:
        """All component sizes (input to the size histogram)."""
        return [len(members) for members in self._members.values()]

    def stats(self) -> dict[str, int | float]:
        """Churn counters for telemetry and the monitoring trigger."""
        return {
            "n_nodes": self.n_nodes,
            "n_components": self.n_components,
            "n_unions": self.n_unions,
            "n_attachments": self.n_attachments,
            "n_entity_merges": self.n_entity_merges,
            "entity_merge_rate": (self.n_entity_merges / self.n_unions
                                  if self.n_unions else 0.0),
        }

    def __repr__(self) -> str:
        return (f"ConnectedComponents({self.n_nodes} nodes, "
                f"{self.n_components} components, "
                f"threshold={self.threshold})")
