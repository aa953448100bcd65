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
from functools import partial
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
#: the tail.  It is a constant, not an option: a model bundle's features
#: depend on it, and :meth:`repro.serve.ModelBundle.load` rejects a
#: bundle that records a different cap.
SEQUENCE_MAX_CHARS = 64

#: Measures that get the prefix cap (pairwise character DP / matching).
_CAPPED_SEQUENCE_MEASURES = frozenset({
    "lev_dist", "lev_sim", "jaro", "jaro_winkler", "needleman_wunsch",
    "smith_waterman",
})


def _as_numbers(v1: object, v2: object) -> tuple[float, float] | None:
    """Both values as floats; ``None`` when either is missing or does not
    parse (a numeric measure scores that pair ``nan``)."""
    if v1 is None or v2 is None:
        return None
    try:
        return float(v1), float(v2)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def token_counts_column(tokenizer: Tokenizer,
                        value_pairs: Sequence[tuple[object, object]],
                        token_cache: MutableMapping[Any, Any] | None = None
                        ) -> list[sets.TokenCounts | None]:
    """:func:`~repro.similarity.sets.token_counts` of every value pair.

    ``None`` where a side is missing.  Tokens are read from, and added
    to, ``token_cache``.
    """
    cache = {} if token_cache is None else token_cache
    name = tokenizer.name

    def tokens(value: object) -> list[str]:
        text = str(value)
        found = cache.get((name, text))
        if found is None:
            cache[(name, text)] = found = tokenizer(text)
        return found

    return [None if v1 is None or v2 is None
            else sets.token_counts(tokens(v1), tokens(v2))
            for v1, v2 in value_pairs]


class SimilarityMeasure:
    """One named similarity measure, e.g. ``(Jaccard Similarity, Space)``.

    Call it with two raw attribute values; it handles missing values and
    tokenization, returning a float (possibly ``nan``).  With a
    tokenizer, ``func`` is a formula over the
    :func:`~repro.similarity.sets.token_counts` of the two token lists.
    ``column``, when given, scores a list of pairs at once (capped
    strings, or parsed numbers for a numeric measure) and must agree
    element for element with ``func``; :meth:`score_column` uses it.
    ``dp_layer`` is the kernel layer a DP measure's column reads, or
    ``None``; an alignment measure gets no ``column``: it scores
    :func:`~repro.similarity.sequence.alignment_scores` under its layer.
    """

    def __init__(self, name: str, func: Callable[..., float],
                 tokenizer: Tokenizer | None = None,
                 kind: str = "string",
                 column: Callable[[list[Any]], np.ndarray]
                 | None = None,
                 dp_layer: seq.Layer | None = None):
        self.name = name
        self.kind = kind  # "string" | "numeric" | "boolean"
        self._func = func
        if column is None and dp_layer is not None:
            column = partial(seq.alignment_scores, dp_layer)
        self._column = column
        self.tokenizer = tokenizer
        self._capped = name in _CAPPED_SEQUENCE_MEASURES
        self.dp_layer = dp_layer

    def __call__(self, v1: object, v2: object) -> float:
        if v1 is None or v2 is None:
            return float("nan")
        if self.kind == "numeric":
            numbers = _as_numbers(v1, v2)
            return float("nan") if numbers is None else self._func(*numbers)
        if self.kind == "boolean":
            return self._func(v1, v2)
        s1, s2 = str(v1), str(v2)
        if self.tokenizer is not None:
            return self._func(*sets.token_counts(self.tokenizer(s1),
                                                 self.tokenizer(s2)))
        if self._capped:
            s1 = s1[:SEQUENCE_MAX_CHARS]
            s2 = s2[:SEQUENCE_MAX_CHARS]
        return self._func(s1, s2)

    def score_column(self, value_pairs: Sequence[tuple[object, object]],
                     token_cache: MutableMapping[Any, Any] | None = None
                     ) -> np.ndarray:
        """Scores of raw ``(v1, v2)`` pairs, one float per pair.

        Equal, element for element, to calling the measure on each pair.
        Set measures score the token counts of each pair
        (:meth:`score_counts`); measures with a column function (the
        character DPs) score all pairs with no missing side in one
        batched call; the rest call the measure pair by pair.
        """
        if self.tokenizer is not None:
            return self.score_counts(token_counts_column(
                self.tokenizer, value_pairs, token_cache))
        if self._column is None:
            score = self.__call__  # bound once, not looked up per pair
            return np.fromiter((score(v1, v2) for v1, v2 in value_pairs),
                               dtype=np.float64, count=len(value_pairs))
        present, inputs = self._column_inputs(value_pairs)
        out = np.full(len(value_pairs), np.nan)
        if present:
            out[present] = self._column(inputs)
        return out

    def score_counts(self, counts: Sequence[sets.TokenCounts | None]
                     ) -> np.ndarray:
        """A set measure's scores of :func:`token_counts_column` output."""
        formula = self._func
        return np.fromiter((math.nan if c is None else formula(*c)
                            for c in counts),
                           dtype=np.float64, count=len(counts))

    def dp_pairs(self, value_pairs: Sequence[tuple[object, object]]
                 ) -> list[seq.StringPair]:
        """The string pairs this DP measure's column hands the kernel.

        Renderings of numbers longer than the prefix cap are left out: in
        a kernel run shared with other pairs, one of them would widen
        every pair's row.  The column call scores them on its own.
        """
        _, inputs = self._column_inputs(value_pairs)
        if self.kind != "numeric":
            return inputs
        return [(s1, s2) for s1, s2 in num.renderings(inputs)[1]
                if len(s1) <= SEQUENCE_MAX_CHARS
                and len(s2) <= SEQUENCE_MAX_CHARS]

    def _column_inputs(self, value_pairs: Sequence[tuple[object, object]]
                       ) -> tuple[list[int], list]:
        """Positions of the pairs the column function scores, and its
        input: parsed numbers, or prefix-capped strings."""
        if self.kind == "numeric":
            parsed = [_as_numbers(v1, v2) for v1, v2 in value_pairs]
            present = [k for k, numbers in enumerate(parsed)
                       if numbers is not None]
            return present, [parsed[k] for k in present]
        cap = SEQUENCE_MAX_CHARS
        present = [k for k, (v1, v2) in enumerate(value_pairs)
                   if v1 is not None and v2 is not None]
        return present, [(str(v1)[:cap], str(v2)[:cap])
                         for v1, v2 in (value_pairs[k] for k in present)]

    def __repr__(self) -> str:
        tok = self.tokenizer.name if self.tokenizer else "N/A"
        return f"SimilarityMeasure({self.name!r}, tokenizer={tok})"


def _measures() -> dict[str, SimilarityMeasure]:
    string = [
        SimilarityMeasure("lev_dist", seq.levenshtein_distance,
                          column=seq.levenshtein_distances,
                          dp_layer=seq.LEVENSHTEIN),
        SimilarityMeasure("lev_sim", seq.levenshtein_similarity,
                          column=seq.levenshtein_similarities,
                          dp_layer=seq.LEVENSHTEIN),
        SimilarityMeasure("jaro", seq.jaro_similarity),
        SimilarityMeasure("exact_match", seq.exact_match),
        SimilarityMeasure("jaro_winkler", seq.jaro_winkler_similarity),
        SimilarityMeasure("needleman_wunsch", seq.needleman_wunsch,
                          dp_layer=seq.NEEDLEMAN_WUNSCH),
        SimilarityMeasure("smith_waterman", seq.smith_waterman,
                          dp_layer=seq.SMITH_WATERMAN),
        SimilarityMeasure("monge_elkan", _monge_elkan_on_words),
        SimilarityMeasure("overlap_space", sets.overlap, SPACE),
        SimilarityMeasure("dice_space", sets.dice, SPACE),
        SimilarityMeasure("cosine_space", sets.cosine, SPACE),
        SimilarityMeasure("jaccard_space", sets.jaccard, SPACE),
        SimilarityMeasure("overlap_3gram", sets.overlap, QGRAM3),
        SimilarityMeasure("dice_3gram", sets.dice, QGRAM3),
        SimilarityMeasure("cosine_3gram", sets.cosine, QGRAM3),
        SimilarityMeasure("jaccard_3gram", sets.jaccard, QGRAM3),
    ]
    numeric = [
        SimilarityMeasure("num_lev_dist", num.numeric_levenshtein_distance,
                          kind="numeric",
                          column=num.numeric_levenshtein_distances,
                          dp_layer=seq.LEVENSHTEIN),
        SimilarityMeasure("num_lev_sim", num.numeric_levenshtein_similarity,
                          kind="numeric",
                          column=num.numeric_levenshtein_similarities,
                          dp_layer=seq.LEVENSHTEIN),
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
