"""Textbook similarity loops the production measures are checked against.

Production scores Levenshtein, Needleman-Wunsch and Smith-Waterman with
one batched numpy kernel (``repro.similarity.sequence``), and its scalar
functions are that same kernel on a batch of one, so comparing the two
paths with each other checks nothing about the DP itself.  These are the
independent ground truth: a full ``(len1 + 1) x (len2 + 1)`` table
filled one cell at a time in plain Python, straight from the
recurrences.  Likewise Jaro scans the whole match window for every
character of ``s1`` (production finds the match with ``str.find``), and
Monge-Elkan calls its secondary measure on every word pair (production
skips shared words and memoizes the rest).  All of them are slow and
meant for tests only.
"""

from __future__ import annotations


def levenshtein(s1: str, s2: str) -> float:
    """Minimum number of single-character insertions, deletions and
    substitutions turning ``s1`` into ``s2``."""
    table = [[0] * (len(s2) + 1) for _ in range(len(s1) + 1)]
    for i in range(len(s1) + 1):
        table[i][0] = i
    for j in range(len(s2) + 1):
        table[0][j] = j
    for i in range(1, len(s1) + 1):
        for j in range(1, len(s2) + 1):
            table[i][j] = min(
                table[i - 1][j - 1] + (s1[i - 1] != s2[j - 1]),
                table[i - 1][j] + 1,
                table[i][j - 1] + 1)
    return float(table[len(s1)][len(s2)])


def needleman_wunsch_raw(s1: str, s2: str, gap_cost: float = 1.0,
                         match_score: float = 1.0,
                         mismatch_score: float = 0.0) -> float:
    """Best global alignment score with a linear gap penalty."""
    table = [[0.0] * (len(s2) + 1) for _ in range(len(s1) + 1)]
    for i in range(len(s1) + 1):
        table[i][0] = -gap_cost * i
    for j in range(len(s2) + 1):
        table[0][j] = -gap_cost * j
    for i in range(1, len(s1) + 1):
        for j in range(1, len(s2) + 1):
            pair = match_score if s1[i - 1] == s2[j - 1] else mismatch_score
            table[i][j] = max(table[i - 1][j - 1] + pair,
                              table[i - 1][j] - gap_cost,
                              table[i][j - 1] - gap_cost)
    return table[len(s1)][len(s2)]


def smith_waterman_raw(s1: str, s2: str, gap_cost: float = 1.0,
                       match_score: float = 1.0,
                       mismatch_score: float = 0.0) -> float:
    """Best local alignment score with a linear gap penalty."""
    table = [[0.0] * (len(s2) + 1) for _ in range(len(s1) + 1)]
    best = 0.0
    for i in range(1, len(s1) + 1):
        for j in range(1, len(s2) + 1):
            pair = match_score if s1[i - 1] == s2[j - 1] else mismatch_score
            table[i][j] = max(0.0,
                              table[i - 1][j - 1] + pair,
                              table[i - 1][j] - gap_cost,
                              table[i][j - 1] - gap_cost)
            best = max(best, table[i][j])
    return best


def levenshtein_similarity(s1: str, s2: str) -> float:
    """``1 - distance / max(len)``; two empty strings score 1.0."""
    longest = max(len(s1), len(s2))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(s1, s2) / longest


def needleman_wunsch(s1: str, s2: str, gap_cost: float = 1.0,
                     match_score: float = 1.0,
                     mismatch_score: float = 0.0) -> float:
    """Global score over ``match_score * max(len)``, clipped to [0, 1];
    1.0 for two empty strings, 0.0 for one."""
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    raw = needleman_wunsch_raw(s1, s2, gap_cost, match_score,
                               mismatch_score)
    return max(0.0, min(1.0, raw / (match_score * max(len(s1), len(s2)))))


def smith_waterman(s1: str, s2: str, gap_cost: float = 1.0,
                   match_score: float = 1.0,
                   mismatch_score: float = 0.0) -> float:
    """Local score over ``match_score * min(len)``; 1.0 for two empty
    strings, 0.0 for one."""
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    raw = smith_waterman_raw(s1, s2, gap_cost, match_score, mismatch_score)
    return raw / (match_score * min(len(s1), len(s2)))


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity: transposition-aware common-character matching."""
    if s1 == s2:
        return 1.0
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    window = max(max(len1, len2) // 2 - 1, 0)
    matched1 = [False] * len1
    matched2 = [False] * len2
    matches = 0
    for i, c1 in enumerate(s1):
        for j in range(max(0, i - window), min(len2, i + window + 1)):
            if not matched2[j] and s2[j] == c1:
                matched1[i] = matched2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len1):
        if matched1[i]:
            while not matched2[j]:
                j += 1
            if s1[i] != s2[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len1 + m / len2 + (m - transpositions) / m) / 3.0


def jaro_winkler(s1: str, s2: str, prefix_weight: float = 0.1) -> float:
    """Jaro boosted by up to a 4-character common prefix."""
    score = jaro(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix == 4:
            break
        prefix += 1
    return score + prefix * prefix_weight * (1.0 - score)


def monge_elkan(tokens1: list[str], tokens2: list[str],
                secondary=jaro_winkler, max_tokens: int = 24) -> float:
    """Mean over the first ``max_tokens`` tokens of T1 of their best
    ``secondary`` score against the first ``max_tokens`` of T2."""
    if not tokens1 and not tokens2:
        return 1.0
    if not tokens1 or not tokens2:
        return 0.0
    tokens1, tokens2 = tokens1[:max_tokens], tokens2[:max_tokens]
    total = 0.0
    for t1 in tokens1:
        total += max(secondary(t1, t2) for t2 in tokens2)
    return total / len(tokens1)
