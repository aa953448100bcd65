"""Record fusion: one canonical "golden" record per entity.

After clustering, an entity is a bag of records that disagree in the
usual dirty-data ways — truncations, typos, stale values, missing
attributes.  :class:`RecordFusion` collapses the bag into one canonical
``dict`` by applying a per-attribute :class:`AttributeResolver`:

* ``longest`` — the longest string form (truncation-resistant; the
  classic choice for names and addresses);
* ``most_frequent`` — the modal value (noise-resistant when sources
  outnumber error rates);
* ``numeric_median`` — the median of the numeric interpretations
  (outlier-resistant for prices, counts, coordinates);
* ``newest`` — the value from the most recently added record
  (recency-wins for slowly changing attributes).

Resolvers follow the same registry conventions as the trigger
policies: every resolver class is listed in :data:`ALL_RESOLVERS`,
carries a unique class-level string ``name``, and implements a
concrete :meth:`AttributeResolver.resolve`
(``tests/test_resolve_fusion.py`` checks this on the imported
registry).

Determinism: every resolver receives an explicitly seeded generator
and input values in a normalized presentation order, and breaks ties
over a *sorted* candidate list, so fusion is a pure function of
``(entity members, seed)`` — independent of record arrival order and
of the order entities are fused in (each ``(entity, attribute)`` pair
gets its own derived seed).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..data.table import Record, Value
from .decisions import stable_hash


def _value_sort_key(value: Value) -> tuple[str, str]:
    """Total, deterministic order over mixed-type attribute values."""
    return (type(value).__name__, str(value))


def seeded_choice(candidates: Sequence[Value],
                  rng: np.random.Generator) -> Value:
    """One candidate, chosen reproducibly.

    Candidates are deduplicated and sorted by :func:`_value_sort_key`,
    so the outcome depends only on the candidate *multiset* and the
    generator state — never on the order ties were encountered in.
    Values that compare equal but print differently (``0``/``False``,
    ``0.0``/``-0.0``) stay distinct candidates.
    """
    if not candidates:
        raise ValueError("seeded_choice needs at least one candidate")
    unique: dict[tuple[str, str], Value] = {}
    for value in candidates:
        unique.setdefault(_value_sort_key(value), value)
    keys = sorted(unique)
    if len(keys) == 1:
        return unique[keys[0]]
    return unique[keys[int(rng.integers(len(keys)))]]


class AttributeResolver:
    """Base class: collapse one attribute's conflicting values.

    Subclasses set a unique class-level ``name`` and implement
    :meth:`resolve`.  ``values`` arrives non-empty, ``None``-free and
    in presentation order (record insertion order); ``rng`` is a
    seeded generator for tie-breaking.  All registered resolvers live
    in :data:`ALL_RESOLVERS`.
    """

    name = "base"

    def resolve(self, values: Sequence[Value],
                rng: np.random.Generator) -> Value:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LongestResolver(AttributeResolver):
    """The longest string form; seeded choice among equally long."""

    name = "longest"

    def resolve(self, values: Sequence[Value],
                rng: np.random.Generator) -> Value:
        longest = max(len(str(value)) for value in values)
        return seeded_choice(
            [value for value in values if len(str(value)) == longest],
            rng)


class MostFrequentResolver(AttributeResolver):
    """The modal value; seeded choice among equally frequent."""

    name = "most_frequent"

    def resolve(self, values: Sequence[Value],
                rng: np.random.Generator) -> Value:
        groups: dict[tuple[str, str], list[Value]] = {}
        for value in values:
            groups.setdefault(_value_sort_key(value), []).append(value)
        top = max(map(len, groups.values()))
        return seeded_choice(
            [group[0] for group in groups.values() if len(group) == top],
            rng)


class NumericMedianResolver(AttributeResolver):
    """The median of the numeric interpretations of the values.

    Non-numeric values are ignored; if nothing parses as a number the
    resolver falls back to a seeded choice over the raw values (a
    resolver must resolve).  Booleans are excluded from the numeric
    view — ``True`` is not the number 1 for fusion purposes.
    """

    name = "numeric_median"

    def resolve(self, values: Sequence[Value],
                rng: np.random.Generator) -> Value:
        numeric = []
        for value in values:
            if isinstance(value, bool):
                continue
            try:
                numeric.append(float(value))  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
        if not numeric:
            return seeded_choice(values, rng)
        return float(np.median(np.sort(np.asarray(numeric))))


class NewestResolver(AttributeResolver):
    """The most recently presented value (insertion order is time).

    Records enter an :class:`~repro.resolve.store.EntityStore` in
    arrival order; the last non-``None`` value wins.  No ties are
    possible — position is unique — so the generator is unused.
    """

    name = "newest"

    def resolve(self, values: Sequence[Value],
                rng: np.random.Generator) -> Value:
        return values[-1]


#: Every registered attribute resolver.
ALL_RESOLVERS = (LongestResolver, MostFrequentResolver,
                 NumericMedianResolver, NewestResolver)

_RESOLVERS_BY_NAME = {cls.name: cls for cls in ALL_RESOLVERS}


def make_resolver(name: str) -> AttributeResolver:
    """Instantiate a registered resolver by name."""
    try:
        return _RESOLVERS_BY_NAME[name]()
    except KeyError:
        raise ValueError(
            f"unknown resolver {name!r}; registered: "
            f"{sorted(_RESOLVERS_BY_NAME)}") from None


class RecordFusion:
    """Fuse an entity's records into one golden record.

    Parameters
    ----------
    default:
        Resolver name applied to every attribute without an explicit
        entry in ``per_attribute``.
    per_attribute:
        Attribute name → resolver name overrides (e.g.
        ``{"price": "numeric_median", "name": "longest"}``).
    seed:
        Tie-break seed.  Each ``(entity, attribute)`` pair derives its
        own generator from ``(seed, entity, attribute)``, so fusing
        entities in any order — or re-fusing one entity alone — gives
        identical golden records.
    """

    def __init__(self, default: str = "most_frequent",
                 per_attribute: Mapping[str, str] | None = None,
                 seed: int = 0):
        self.default = make_resolver(default)
        self.per_attribute = {
            attribute: make_resolver(name)
            for attribute, name in (per_attribute or {}).items()}
        self.seed = int(seed)

    def _resolver_for(self, attribute: str) -> AttributeResolver:
        return self.per_attribute.get(attribute, self.default)

    def fuse(self, entity_id: str,
             records: Sequence[Record]) -> dict[str, Value]:
        """The golden record for ``records`` (one entity's members).

        Attributes are the union over all member schemas, in
        first-seen column order; an attribute nobody has a value for
        fuses to ``None``.
        """
        if not records:
            raise ValueError(f"entity {entity_id!r} has no records to fuse")
        columns: list[str] = []
        for record in records:
            for column in record.columns:
                if column not in columns:
                    columns.append(column)
        golden: dict[str, Value] = {}
        for attribute in columns:
            values = [value for value in
                      (record.get(attribute) for record in records)
                      if value is not None]
            if not values:
                golden[attribute] = None
                continue
            rng = np.random.default_rng(
                [self.seed, stable_hash(entity_id),
                 stable_hash(attribute)])
            golden[attribute] = self._resolver_for(attribute).resolve(
                values, rng)
        return golden

    def config(self) -> dict[str, object]:
        """The constructor arguments that rebuild this policy."""
        return {"default": self.default.name,
                "per_attribute": {attribute: resolver.name for attribute,
                                  resolver in self.per_attribute.items()},
                "seed": self.seed}

    def describe(self) -> dict[str, str]:
        """Attribute → resolver-name mapping (default under ``"*"``)."""
        description = {"*": self.default.name}
        description.update({attribute: resolver.name for attribute,
                            resolver in self.per_attribute.items()})
        return description

    def __repr__(self) -> str:
        return (f"RecordFusion(default={self.default.name!r}, "
                f"per_attribute={self.describe()}, seed={self.seed})")
