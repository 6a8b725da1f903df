"""Shared brute-force oracles, kept independent of the library internals.

Containment here is re-derived from raw subsequence scans and avoidance
sets from filtering itertools.permutations, so the engine and the closed
forms are always checked against a second, dumber route.
"""

from __future__ import annotations

import functools
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


def grown_avoiders(n: int, patterns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Av_n(patterns) in lexicographic order, grown from brute_avoiders.

    Deleting n from an avoider leaves an avoider, so every member of Av_n
    is a member of Av_(n-1) with n put in somewhere.  Such a candidate
    holds a copy only through n, and past the longest pattern (length k)
    the copy misses one of any k entries other than n and survives that
    entry's deletion: the candidate avoids the patterns iff its deletions
    of the first k entries other than n do.
    """
    return sorted(_grown(n, tuple(map(tuple, patterns))))


@functools.lru_cache(maxsize=None)
def _grown(n: int, patterns: tuple[tuple[int, ...], ...]) -> frozenset[tuple[int, ...]]:
    k = max(map(len, patterns), default=0)
    if n <= k or not patterns:
        return frozenset(brute_avoiders(n, patterns))
    below = _grown(n - 1, patterns)
    out = set()
    for q in below:
        for i in range(n):
            cand = q[:i] + (n,) + q[i:]
            if all(tuple(x - (x > v) for x in cand[:j] + cand[j + 1:]) in below
                   for j, v in enumerate(cand[:k + 1]) if j != i):
                out.add(cand)
    return frozenset(out)


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
