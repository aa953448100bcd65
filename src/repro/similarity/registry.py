"""Named registry of the (simfunc, tokenizer) measures from Tables I/II.

A :class:`SimilarityMeasure` wraps one row of the paper's feature tables:
a similarity function optionally paired with a tokenizer.  The feature
generators (``repro.features``) look measures up here by name so that both
Magellan-style (Table I) and AutoML-EM-style (Table II) generation draw
from the same implementations.

Missing values (``None`` on either side) yield ``nan``, which the AutoML
imputation component later fills.
"""

from __future__ import annotations

import math
from collections.abc import Callable, MutableMapping, Sequence
from typing import Any

import numpy as np

from . import numeric as num
from . import sequence as seq
from . import sets
from .tokenizers import QGRAM3, SPACE, Tokenizer


#: Character-level DP measures are O(n*m); on long-text attributes they
#: are evaluated on this prefix.  Table II applies every measure to every
#: string attribute, and beyond ~a dozen words the alignment of the head
#: tokens carries the identifying signal — the token-set measures cover
#: the tail.  This module-level value is the *default*; callers that need
#: a different cap pass ``sequence_max_chars`` to
#: :meth:`SimilarityMeasure.__call__` / :meth:`SimilarityMeasure.scorer` /
#: :meth:`SimilarityMeasure.score_column`
#: (``FeatureGenerator`` exposes it as a constructor knob).
SEQUENCE_MAX_CHARS = 64

#: Measures that get the prefix cap (pairwise character DP / matching).
_CAPPED_SEQUENCE_MEASURES = frozenset({
    "lev_dist", "lev_sim", "jaro", "jaro_winkler", "needleman_wunsch",
    "smith_waterman",
})


class SimilarityMeasure:
    """One named similarity measure, e.g. ``(Jaccard Similarity, Space)``.

    Call it with two raw attribute values; it handles missing values and
    tokenization, returning a float (possibly ``nan``).  ``column``, when
    given, scores a list of ``(s1, s2)`` string pairs at once and must
    agree element for element with ``func``; :meth:`score_column` uses
    it.
    """

    def __init__(self, name: str, func: Callable[..., float],
                 tokenizer: Tokenizer | None = None,
                 kind: str = "string",
                 column: Callable[[list[tuple[str, str]]], np.ndarray]
                 | None = None):
        self.name = name
        self.kind = kind  # "string" | "numeric" | "boolean"
        self._func = func
        self._column = column
        self.tokenizer = tokenizer
        self._capped = name in _CAPPED_SEQUENCE_MEASURES

    def __call__(self, v1: object, v2: object,
                 sequence_max_chars: int | None = None) -> float:
        if v1 is None or v2 is None:
            return float("nan")
        if self.kind == "numeric":
            try:
                f1, f2 = float(v1), float(v2)
            except (TypeError, ValueError):
                return float("nan")
            return self._func(f1, f2)
        if self.kind == "boolean":
            return self._func(v1, v2)
        s1, s2 = str(v1), str(v2)
        if self.tokenizer is not None:
            return self._func(self.tokenizer(s1), self.tokenizer(s2))
        if self._capped:
            cap = (SEQUENCE_MAX_CHARS if sequence_max_chars is None
                   else sequence_max_chars)
            s1 = s1[:cap]
            s2 = s2[:cap]
        return self._func(s1, s2)

    def scorer(self, token_cache: MutableMapping[Any, Any] | None = None,
               sequence_max_chars: int | None = None
               ) -> Callable[[object, object], float]:
        """A plain ``f(v1, v2) -> float`` equivalent to calling the measure.

        The returned callable hoists the per-call dispatch (kind checks,
        tokenizer lookup) out of hot loops, and — for token-based
        measures — memoizes tokenization in ``token_cache``, a dict-like
        mapping of ``(tokenizer_name, string) -> tokens``.  Sharing one
        cache across the four set measures of a tokenizer family means
        each unique string is tokenized once, not once per measure call.
        ``sequence_max_chars`` overrides the module-level
        :data:`SEQUENCE_MAX_CHARS` prefix cap for DP measures.
        """
        nan = float("nan")
        func = self._func
        if self.kind == "numeric":
            def score_numeric(v1: object, v2: object) -> float:
                if v1 is None or v2 is None:
                    return nan
                try:
                    f1, f2 = float(v1), float(v2)
                except (TypeError, ValueError):
                    return nan
                return func(f1, f2)
            return score_numeric
        if self.kind == "boolean":
            def score_boolean(v1: object, v2: object) -> float:
                if v1 is None or v2 is None:
                    return nan
                return func(v1, v2)
            return score_boolean
        tokenizer = self.tokenizer
        if tokenizer is not None:
            cache = {} if token_cache is None else token_cache
            tok_name = tokenizer.name
            def score_tokens(v1: object, v2: object) -> float:
                if v1 is None or v2 is None:
                    return nan
                s1, s2 = str(v1), str(v2)
                key1 = (tok_name, s1)
                tokens1 = cache.get(key1)
                if tokens1 is None:
                    cache[key1] = tokens1 = tokenizer(s1)
                key2 = (tok_name, s2)
                tokens2 = cache.get(key2)
                if tokens2 is None:
                    cache[key2] = tokens2 = tokenizer(s2)
                return func(tokens1, tokens2)
            return score_tokens
        if self._capped:
            def score_capped(v1: object, v2: object) -> float:
                if v1 is None or v2 is None:
                    return nan
                # Resolved at call time so the module-level default stays
                # patchable when no explicit cap was configured.
                cap = (SEQUENCE_MAX_CHARS if sequence_max_chars is None
                       else sequence_max_chars)
                return func(str(v1)[:cap], str(v2)[:cap])
            return score_capped
        def score_sequence(v1: object, v2: object) -> float:
            if v1 is None or v2 is None:
                return nan
            return func(str(v1), str(v2))
        return score_sequence

    def score_column(self, value_pairs: Sequence[tuple[object, object]],
                     token_cache: MutableMapping[Any, Any] | None = None,
                     sequence_max_chars: int | None = None) -> np.ndarray:
        """Scores of raw ``(v1, v2)`` pairs, one float per pair.

        Equal, element for element, to the :meth:`scorer` applied to each
        pair.  Measures with a column function (the prefix-capped
        character DPs) score all pairs with no missing side in one
        batched call.
        """
        if self._column is None:
            score = self.scorer(token_cache, sequence_max_chars)
            return np.fromiter((score(v1, v2) for v1, v2 in value_pairs),
                               dtype=np.float64, count=len(value_pairs))
        cap = (SEQUENCE_MAX_CHARS if sequence_max_chars is None
               else sequence_max_chars)
        present = [k for k, (v1, v2) in enumerate(value_pairs)
                   if v1 is not None and v2 is not None]
        out = np.full(len(value_pairs), np.nan)
        if present:
            strings = [(str(v1)[:cap], str(v2)[:cap])
                       for v1, v2 in (value_pairs[k] for k in present)]
            out[present] = self._column(strings)
        return out

    def __repr__(self) -> str:
        tok = self.tokenizer.name if self.tokenizer else "N/A"
        return f"SimilarityMeasure({self.name!r}, tokenizer={tok})"


def _measures() -> dict[str, SimilarityMeasure]:
    string = [
        SimilarityMeasure("lev_dist", seq.levenshtein_distance,
                          column=seq.levenshtein_distances),
        SimilarityMeasure("lev_sim", seq.levenshtein_similarity,
                          column=seq.levenshtein_similarities),
        SimilarityMeasure("jaro", seq.jaro_similarity),
        SimilarityMeasure("exact_match", seq.exact_match),
        SimilarityMeasure("jaro_winkler", seq.jaro_winkler_similarity),
        SimilarityMeasure("needleman_wunsch", seq.needleman_wunsch,
                          column=seq.needleman_wunsch_scores),
        SimilarityMeasure("smith_waterman", seq.smith_waterman,
                          column=seq.smith_waterman_scores),
        SimilarityMeasure("monge_elkan", _monge_elkan_on_words),
        SimilarityMeasure("overlap_space", sets.overlap_coefficient, SPACE),
        SimilarityMeasure("dice_space", sets.dice_similarity, SPACE),
        SimilarityMeasure("cosine_space", sets.cosine_similarity, SPACE),
        SimilarityMeasure("jaccard_space", sets.jaccard_similarity, SPACE),
        SimilarityMeasure("overlap_3gram", sets.overlap_coefficient, QGRAM3),
        SimilarityMeasure("dice_3gram", sets.dice_similarity, QGRAM3),
        SimilarityMeasure("cosine_3gram", sets.cosine_similarity, QGRAM3),
        SimilarityMeasure("jaccard_3gram", sets.jaccard_similarity, QGRAM3),
    ]
    numeric = [
        SimilarityMeasure("num_lev_dist", num.numeric_levenshtein_distance,
                          kind="numeric"),
        SimilarityMeasure("num_lev_sim", num.numeric_levenshtein_similarity,
                          kind="numeric"),
        SimilarityMeasure("num_exact_match", num.numeric_exact_match,
                          kind="numeric"),
        SimilarityMeasure("abs_norm", num.absolute_norm, kind="numeric"),
    ]
    boolean = [
        SimilarityMeasure("bool_exact_match", num.boolean_exact_match,
                          kind="boolean"),
    ]
    return {m.name: m for m in string + numeric + boolean}


def _monge_elkan_on_words(s1: str, s2: str) -> float:
    # Monge-Elkan is a hybrid: whitespace tokens scored by Jaro-Winkler.
    return sets.monge_elkan(s1.split(), s2.split())


MEASURES: dict[str, SimilarityMeasure] = _measures()

#: The 16 string measures of Table II, in table order.
ALL_STRING_MEASURES: tuple[str, ...] = tuple(
    name for name, m in MEASURES.items() if m.kind == "string")

#: The 4 numeric measures shared by Tables I and II.
ALL_NUMERIC_MEASURES: tuple[str, ...] = tuple(
    name for name, m in MEASURES.items() if m.kind == "numeric")

#: The single boolean measure.
ALL_BOOLEAN_MEASURES: tuple[str, ...] = ("bool_exact_match",)

#: Measures whose raw output is a distance (unbounded above), not a [0,1]
#: similarity.  Feature consumers may want to know which is which.
DISTANCE_MEASURES: frozenset[str] = frozenset({"lev_dist", "num_lev_dist"})


def get_measure(name: str) -> SimilarityMeasure:
    """Look a measure up by name, raising ``KeyError`` with suggestions."""
    try:
        return MEASURES[name]
    except KeyError:
        known = ", ".join(sorted(MEASURES))
        raise KeyError(f"unknown similarity measure {name!r}; known: {known}") \
            from None


def score(name: str, v1: object, v2: object) -> float:
    """Convenience: apply measure ``name`` to a value pair."""
    result = get_measure(name)(v1, v2)
    if isinstance(result, float) and math.isinf(result):
        return float("nan")
    return result
