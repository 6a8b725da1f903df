"""Shared brute-force oracles, kept independent of the library internals.

Containment here is re-derived from raw subsequence scans and avoidance
sets from filtering itertools.permutations, so the engine and the closed
forms are always checked against a second, dumber route.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence


def contains_brute(p: Sequence[int], pattern: Sequence[int]) -> bool:
    """Exhaustive subsequence scan for a pattern copy."""
    k = len(pattern)
    for sub in itertools.combinations(p, k):
        if all(
            (sub[a] < sub[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return False


def patterns_of(p: Sequence[int], k: int) -> set[tuple[int, ...]]:
    """Every length-k pattern occurring in p: each k-subsequence, standardized."""
    return {
        tuple(sorted(sub).index(x) + 1 for x in sub)
        for sub in itertools.combinations(p, k)
    }


def brute_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Filter S_n through the brute-force containment check."""
    pats = list(patterns)
    return [
        p
        for p in itertools.permutations(range(1, n + 1))
        if not any(contains_brute(p, q) for q in pats)
    ]


def inv_brute(p: Sequence[int]) -> int:
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def maj_brute(p: Sequence[int]) -> int:
    return sum(i for i in range(1, len(p)) if p[i - 1] > p[i])


def des_brute(p: Sequence[int]) -> int:
    return sum(1 for i in range(1, len(p)) if p[i - 1] > p[i])


def words_of_length(n: int):
    return itertools.product((0, 1), repeat=n)
