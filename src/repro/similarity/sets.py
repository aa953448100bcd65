"""Token-set similarity functions and the Monge-Elkan hybrid measure.

These are the "(simfunc, tokenizer)" measures from the paper's Tables I/II:
Jaccard, Cosine, Dice and Overlap coefficient over token sets, plus
Monge-Elkan which averages best per-token secondary similarities.  Each
set measure is a formula over ``(|T1|, |T2|, |T1 ∩ T2|)``
(:func:`token_counts`), so the four measures of a tokenizer can share
one count pass per value pair.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from .sequence import jaro_winkler_similarity

#: ``(|T1|, |T2|, |T1 ∩ T2|)`` of two token sets: every set measure
#: below is a formula over these three counts.
TokenCounts = tuple[int, int, int]


def token_counts(tokens1: Iterable[str], tokens2: Iterable[str]
                 ) -> TokenCounts:
    """The sizes of both token sets and of their intersection."""
    set1, set2 = set(tokens1), set(tokens2)
    return len(set1), len(set2), len(set1 & set2)


def jaccard(n1: int, n2: int, inter: int) -> float:
    """Jaccard from token counts; two empty sets score 1.0."""
    if not n1 and not n2:
        return 1.0
    return inter / (n1 + n2 - inter)


def cosine(n1: int, n2: int, inter: int) -> float:
    """Set cosine from token counts; 0.0 when exactly one set is empty."""
    if not n1 and not n2:
        return 1.0
    if not n1 or not n2:
        return 0.0
    return inter / math.sqrt(n1 * n2)


def dice(n1: int, n2: int, inter: int) -> float:
    """Dice from token counts; two empty sets score 1.0."""
    if not n1 and not n2:
        return 1.0
    return 2.0 * inter / (n1 + n2)


def overlap(n1: int, n2: int, inter: int) -> float:
    """Overlap coefficient from token counts; 0.0 when exactly one set is
    empty."""
    if not n1 and not n2:
        return 1.0
    if not n1 or not n2:
        return 0.0
    return inter / min(n1, n2)


def jaccard_similarity(tokens1: Iterable[str], tokens2: Iterable[str]) -> float:
    """``|T1 ∩ T2| / |T1 ∪ T2|``; two empty sets score 1.0.

    >>> jaccard_similarity(["new", "york"], ["new", "york", "city"])
    0.6666666666666666
    """
    return jaccard(*token_counts(tokens1, tokens2))


def cosine_similarity(tokens1: Iterable[str], tokens2: Iterable[str]) -> float:
    """Set cosine (Ochiai): ``|T1 ∩ T2| / sqrt(|T1| * |T2|)``."""
    return cosine(*token_counts(tokens1, tokens2))


def dice_similarity(tokens1: Iterable[str], tokens2: Iterable[str]) -> float:
    """Dice coefficient: ``2 |T1 ∩ T2| / (|T1| + |T2|)``."""
    return dice(*token_counts(tokens1, tokens2))


def overlap_coefficient(tokens1: Iterable[str], tokens2: Iterable[str]) -> float:
    """Overlap (Szymkiewicz-Simpson): ``|T1 ∩ T2| / min(|T1|, |T2|)``."""
    return overlap(*token_counts(tokens1, tokens2))


#: Monge-Elkan caps the token lists it cross-compares; beyond this the
#: quadratic inner loop dominates feature generation on long text while
#: adding little signal (the head tokens carry the identifying content).
MONGE_ELKAN_MAX_TOKENS = 24


def monge_elkan(tokens1: list[str], tokens2: list[str],
                secondary: "Callable[[str, str], float]"
                = jaro_winkler_similarity) -> float:
    """Monge-Elkan: mean over tokens of T1 of the best match in T2.

    ``secondary`` is the inner character-level similarity (Jaro-Winkler by
    default, as in py_stringmatching / Magellan).  Note the measure is
    asymmetric in its arguments.  Token lists longer than
    :data:`MONGE_ELKAN_MAX_TOKENS` are truncated.
    """
    if not tokens1 and not tokens2:
        return 1.0
    if not tokens1 or not tokens2:
        return 0.0
    tokens1 = tokens1[:MONGE_ELKAN_MAX_TOKENS]
    tokens2 = tokens2[:MONGE_ELKAN_MAX_TOKENS]
    total = 0.0
    for t1 in tokens1:
        total += max(secondary(t1, t2) for t2 in tokens2)
    return total / len(tokens1)
