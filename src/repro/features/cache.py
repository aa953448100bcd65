"""Content fingerprints of records and record chains.

A persisted :class:`~repro.blocking.index.BlockIndex` is reused only
while the records it indexes are unchanged.  It keys itself by a chain
digest: :func:`record_fingerprint` of each record folded in order by
:func:`chain_fingerprint`.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..data.table import Record

#: Chain-digest seed: version-tags every incremental fingerprint so a
#: change to the record digest scheme invalidates persisted indexes.
_CHAIN_SEED = "repro-record-chain-v1"


def record_fingerprint(record: "Record") -> str:
    """Content digest of one record (id, schema and values).

    repr-based, so integer, string and UUID record ids all hash (and
    ``1`` vs ``"1"`` hash differently).
    """
    payload = repr((record.record_id, tuple(record.columns), record.values))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def empty_chain_fingerprint() -> str:
    """The chain digest of zero records (the fold's initial value)."""
    return hashlib.sha1(_CHAIN_SEED.encode("ascii")).hexdigest()


def chain_fingerprint(previous: str, item_digest: str) -> str:
    """Fold one item digest into a running chain digest.

    Unlike a single :class:`hashlib.sha1` instance, the chain is
    resumable from its hex state — a persisted
    :class:`~repro.blocking.index.BlockIndex` stores the chain digest,
    and appending records later continues the same fold, so an
    incrementally grown index fingerprints identically to one built
    from the full table in one pass.
    """
    return hashlib.sha1(
        (previous + "\x1f" + item_digest).encode("ascii")).hexdigest()
