"""Indexed blockers: q-gram prefix filtering and MinHash LSH.

Both blockers split blocking into an **index** phase over the catalog
table and a **probe** phase over the query table, mediated by a
:class:`~repro.blocking.index.BlockIndex` so the expensive phase can be
built once, persisted, grown incrementally and probed by many batches
(see :class:`repro.serve.StreamMatcher`).

* :class:`QGramBlocker` — exact set-overlap blocking on character
  q-grams.  The inverted index stores only each record's *prefix*
  tokens (the first ``len(tokens) - min_overlap + 1`` under a global
  lexicographic token order): if two token sets share ``min_overlap``
  tokens, their prefixes provably share at least one, so probing
  prefix tokens loses no candidates while skipping most of each token
  set.  Survivors are verified against the full stored token sets, so
  output is *exactly* the pairs a naive ``O(n·m)`` overlap filter
  admits.
* :class:`MinHashLSHBlocker` — approximate Jaccard blocking: seeded
  minhash signatures (universal hashing over a >32-bit prime) banded
  into LSH buckets; a candidate is any pair colliding in at least one
  band.  Pure python + numpy, deterministic under ``random_state`` and
  across processes (token hashing uses
  :func:`~repro.similarity.tokenizers.stable_token_hash`, never the
  salted builtin ``hash``).
"""

from __future__ import annotations

import hashlib
from abc import abstractmethod
from pathlib import Path
from typing import Union

import numpy as np

from ..concurrency import BoundedMemo
from ..data.pairs import PairSet
from ..data.table import Record, Table
from ..similarity.tokenizers import (
    QGRAM3,
    Tokenizer,
    qgram_tokenizer,
    stable_token_hash,
)
from .base import BaseBlocker
from .index import BlockIndex, BlockIndexError, table_chain_fingerprint

#: The smallest prime above 2**32.  Universal-hash arithmetic
#: ``(a*x + b) % _LSH_PRIME`` with ``a, b, x < _LSH_PRIME`` stays below
#: 2**64, so the whole signature computation runs in vectorized uint64.
_LSH_PRIME = 4294967311


class IndexedBlocker(BaseBlocker):
    """A blocker with an explicit index/probe split.

    Subclasses provide the three state hooks (``_new_state`` /
    ``_index_record`` / ``_probe_value``) plus ``_config`` for the
    configuration fingerprint; this base class provides index
    construction, persistence with fingerprint-keyed invalidation, and
    the plain ``block`` entry point.
    """

    #: Set by subclass constructors.
    attribute: str

    # -- configuration identity ----------------------------------------

    @abstractmethod
    def _config(self) -> dict[str, object]:
        """The output-determining constructor parameters (primitives)."""

    @property
    def fingerprint(self) -> str:
        """Digest of the blocker class + its output-determining config.

        Two blockers with equal fingerprints produce identical indexes
        and probe results; a persisted index is only reused when the
        loading blocker's fingerprint matches (the invalidation key).
        """
        payload = repr((type(self).__name__,
                        sorted(self._config().items())))
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    # -- state hooks ---------------------------------------------------

    @abstractmethod
    def _new_state(self) -> dict:
        """A fresh, empty index state."""

    @abstractmethod
    def _index_record(self, state: dict, record_id: object,
                      text: str) -> None:
        """Fold one record's attribute text into ``state``."""

    @abstractmethod
    def _probe_value(self, state: dict, text: str) -> set:
        """Record ids admitted against one probe attribute text."""

    def _state_block_sizes(self, state: dict) -> list[int]:
        """Sizes of the state's blocks (postings / buckets)."""
        return []

    # -- index construction --------------------------------------------

    def index(self, table: Table) -> BlockIndex:
        """Build the standing :class:`BlockIndex` over ``table``."""
        index = BlockIndex(self, table_name=table.name,
                           columns=table.columns)
        index.add_records(table)
        return index

    # -- blocking ------------------------------------------------------

    def block(self, table_a: Table, table_b: Table) -> PairSet:
        """Index ``table_b``, probe with ``table_a``."""
        return self.index(table_b).probe(table_a)

    # -- persistence ---------------------------------------------------

    def load_index_if_valid(self, path: Union[str, Path],
                            table: Table) -> BlockIndex | None:
        """A saved index at ``path`` iff it is still valid for this
        blocker over exactly ``table``'s records; ``None`` otherwise."""
        try:
            index = BlockIndex.load(path)
        except (OSError, BlockIndexError):
            return None
        if index.blocker.fingerprint != self.fingerprint:
            return None
        if index.fingerprint != table_chain_fingerprint(table):
            return None
        return index

    def build_or_load(self, table: Table,
                      path: Union[str, Path]) -> BlockIndex:
        """Reuse the index persisted at ``path`` when its fingerprints
        (blocker config + chained record content) still match ``table``;
        otherwise rebuild from scratch and overwrite ``path``."""
        index = self.load_index_if_valid(path, table)
        if index is None:
            index = self.index(table)
            index.save(path)
        return index


class QGramBlocker(IndexedBlocker):
    """Exact q-gram overlap blocking with prefix-filter pruning.

    A candidate pair must share at least ``min_overlap`` character
    q-grams of ``attribute``.  Semantically this is
    :class:`~repro.blocking.blockers.OverlapBlocker` with a q-gram
    tokenizer, but the index only stores prefix tokens, which keeps
    postings short and probing sub-linear in each record's token count
    for ``min_overlap > 1``.

    Tokenization is memoized in a shared token memo (a
    :class:`~repro.concurrency.BoundedMemo`) under the same
    ``(tokenizer_name, string)`` convention as the feature engine.
    """

    def __init__(self, attribute: str, q: int = 3, min_overlap: int = 1,
                 token_cache: BoundedMemo | None = None):
        if not attribute:
            raise ValueError("attribute must be a non-empty column name")
        if q < 2:
            raise ValueError(
                f"q must be >= 2 for q-gram blocking (q=1 degenerates to "
                f"character overlap), got {q}")
        if min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {min_overlap}")
        self.attribute = attribute
        self.q = q
        self.min_overlap = min_overlap
        self.tokenizer: Tokenizer = qgram_tokenizer(q)
        self.token_cache = BoundedMemo() if token_cache is None \
            else token_cache

    def _config(self) -> dict[str, object]:
        return {"attribute": self.attribute, "q": self.q,
                "min_overlap": self.min_overlap}

    def _token_set(self, text: str) -> frozenset[str]:
        key = (self.tokenizer.name, text)
        tokens = self.token_cache.get(key)
        if tokens is None:
            self.token_cache[key] = tokens = self.tokenizer(text)
        return frozenset(tokens)

    def _prefix(self, tokens: list[str]) -> list[str]:
        """The prefix-filter slice of a sorted token list.

        Any total token order works for the prefix-filter guarantee; the
        global lexicographic order is used because it is stable under
        incremental indexing (a frequency order would shift as records
        arrive, breaking index/probe agreement).
        """
        return tokens[:len(tokens) - self.min_overlap + 1]

    def _new_state(self) -> dict:
        return {"postings": {}, "tokens": {}}

    def _index_record(self, state: dict, record_id: object,
                      text: str) -> None:
        tokens = sorted(self._token_set(text))
        state["tokens"][record_id] = frozenset(tokens)
        postings = state["postings"]
        for token in self._prefix(tokens):
            postings.setdefault(token, []).append(record_id)

    def _probe_value(self, state: dict, text: str) -> set:
        tokens = sorted(self._token_set(text))
        prefix = self._prefix(tokens)
        if not prefix:
            return set()
        candidates: set = set()
        postings = state["postings"]
        for token in prefix:
            candidates.update(postings.get(token, ()))
        full = frozenset(tokens)
        indexed = state["tokens"]
        return {record_id for record_id in candidates
                if len(full & indexed[record_id]) >= self.min_overlap}

    def _state_block_sizes(self, state: dict) -> list[int]:
        return [len(ids) for ids in state["postings"].values()]

    def admits(self, left: Record, right: Record) -> bool:
        left_value = left.get(self.attribute)
        right_value = right.get(self.attribute)
        if left_value is None or right_value is None:
            return False
        overlap = (self._token_set(str(left_value))
                   & self._token_set(str(right_value)))
        return len(overlap) >= self.min_overlap

    def __repr__(self) -> str:
        return (f"QGramBlocker({self.attribute!r}, q={self.q}, "
                f"min_overlap={self.min_overlap})")


class MinHashLSHBlocker(IndexedBlocker):
    """Approximate Jaccard blocking via seeded minhash + LSH banding.

    Each record's token set is summarized by ``num_perm`` minhash values
    (universal hashes ``(a_i·h(t) + b_i) mod p`` minimized over the
    set's stable token hashes); the signature splits into ``bands``
    bands of ``rows`` values, and two records become a candidate pair
    iff at least one band matches exactly.  Pairs with Jaccard
    similarity ``s`` collide with probability ``1 - (1 - s^rows)^bands``
    — tune ``bands``/``rows`` for the recall/reduction trade-off.

    Fully deterministic: hash coefficients come from
    ``np.random.default_rng(random_state)`` at construction, and token
    hashing is process-stable, so the same configuration yields the
    same candidates in every run, process and worker.
    """

    def __init__(self, attribute: str, num_perm: int = 128,
                 bands: int = 32, rows: int | None = None,
                 tokenizer: Tokenizer = QGRAM3, random_state: int = 0,
                 token_cache: BoundedMemo | None = None):
        if not attribute:
            raise ValueError("attribute must be a non-empty column name")
        if num_perm < 1:
            raise ValueError(f"num_perm must be >= 1, got {num_perm}")
        if bands < 1:
            raise ValueError(f"bands must be >= 1, got {bands}")
        if rows is None:
            if num_perm % bands:
                raise ValueError(
                    f"bands must divide the signature size: "
                    f"num_perm={num_perm} is not a multiple of "
                    f"bands={bands}")
            rows = num_perm // bands
        if bands * rows != num_perm:
            raise ValueError(
                f"bands x rows must equal the signature size: "
                f"{bands} x {rows} != {num_perm}")
        self.attribute = attribute
        self.num_perm = num_perm
        self.bands = bands
        self.rows = rows
        self.tokenizer = tokenizer
        self.random_state = random_state
        self.token_cache = BoundedMemo() if token_cache is None \
            else token_cache
        rng = np.random.default_rng(random_state)
        self._a = rng.integers(1, _LSH_PRIME, size=num_perm,
                               dtype=np.uint64)
        self._b = rng.integers(0, _LSH_PRIME, size=num_perm,
                               dtype=np.uint64)
        # Signature memo, (tokenizer_name, text)-keyed like token_cache
        # (``False`` marks a tokenless text, which has no signature).
        self._signatures = BoundedMemo()
        self._token_hashes = BoundedMemo()

    def _config(self) -> dict[str, object]:
        return {"attribute": self.attribute, "num_perm": self.num_perm,
                "bands": self.bands, "rows": self.rows,
                "tokenizer": self.tokenizer.name,
                "random_state": self.random_state}

    def _tokens(self, text: str) -> list[str]:
        key = (self.tokenizer.name, text)
        tokens = self.token_cache.get(key)
        if tokens is None:
            self.token_cache[key] = tokens = self.tokenizer(text)
        return tokens

    def _token_hash(self, token: str) -> int:
        cached = self._token_hashes.get(token)
        if cached is None:
            self._token_hashes[token] = cached = \
                stable_token_hash(token) % _LSH_PRIME
        return cached

    def signature(self, text: str) -> np.ndarray | None:
        """The ``num_perm`` minhash values of ``text`` (``None`` when
        tokenization yields no tokens)."""
        key = (self.tokenizer.name, text)
        cached = self._signatures.get(key)
        if cached is not None:
            return None if cached is False else cached
        tokens = set(self._tokens(text))
        if not tokens:
            self._signatures[key] = False
            return None
        hashes = np.fromiter((self._token_hash(token) for token in tokens),
                             dtype=np.uint64, count=len(tokens))
        # (a_i * h_j + b_i) mod p, minimized over tokens j per row i.
        products = (self._a[:, None] * hashes[None, :]
                    + self._b[:, None]) % np.uint64(_LSH_PRIME)
        signature = products.min(axis=1)
        self._signatures[key] = signature
        return signature

    def _band_keys(self, signature: np.ndarray) -> list[tuple[int, bytes]]:
        rows = self.rows
        return [(band, signature[band * rows:(band + 1) * rows].tobytes())
                for band in range(self.bands)]

    def _new_state(self) -> dict:
        return {"buckets": {}}

    def _index_record(self, state: dict, record_id: object,
                      text: str) -> None:
        signature = self.signature(text)
        if signature is None:
            return
        buckets = state["buckets"]
        for key in self._band_keys(signature):
            buckets.setdefault(key, []).append(record_id)

    def _probe_value(self, state: dict, text: str) -> set:
        signature = self.signature(text)
        if signature is None:
            return set()
        candidates: set = set()
        buckets = state["buckets"]
        for key in self._band_keys(signature):
            candidates.update(buckets.get(key, ()))
        return candidates

    def _state_block_sizes(self, state: dict) -> list[int]:
        return [len(ids) for ids in state["buckets"].values()]

    def admits(self, left: Record, right: Record) -> bool:
        left_value = left.get(self.attribute)
        right_value = right.get(self.attribute)
        if left_value is None or right_value is None:
            return False
        left_sig = self.signature(str(left_value))
        right_sig = self.signature(str(right_value))
        if left_sig is None or right_sig is None:
            return False
        rows = self.rows
        for band in range(self.bands):
            start = band * rows
            if np.array_equal(left_sig[start:start + rows],
                              right_sig[start:start + rows]):
                return True
        return False

    def __repr__(self) -> str:
        return (f"MinHashLSHBlocker({self.attribute!r}, "
                f"num_perm={self.num_perm}, bands={self.bands}, "
                f"rows={self.rows}, random_state={self.random_state})")
