"""Shared brute-force oracles, kept independent of the library internals.

Containment here is re-derived from raw subsequence scans and avoidance
sets from filtering itertools.permutations, so the engine and the closed
forms are always checked against a second, dumber route.  The brute
profile of a set of patterns lives here, in two parts:

- `scan(n)` holds, for each q in S_n, one bit per pattern of S3 and S4
  that q contains, and q's inv, maj and des.  Up to n = 5 the bits come
  from raw `patterns_of` (`raw_scan`); past that they are the OR of the
  bits of q's deletions of its first five entries, since a copy of at most
  four entries misses one of them.  `brute_profile` reads Av_n and its
  polynomials off the scan.
- `tally(perms)` gives the inv QPoly and the maj/des QTPoly of any list
  of permutations, from `inv_brute`, `maj_brute` and `des_brute`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import Iterable, Sequence

from patstat.polynomials import QPoly, QTPoly


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


def _stats(p: tuple[int, ...]) -> tuple[int, int, int]:
    return inv_brute(p), maj_brute(p), des_brute(p)


def _polys(stats: Counter) -> tuple[QPoly, QTPoly]:
    inv, majdes = Counter(), Counter()
    for (i, m, d), c in stats.items():
        inv[i] += c
        majdes[m, d] += c
    return QPoly([inv[i] for i in range(max(inv, default=-1) + 1)]), QTPoly.from_counts(majdes)


def tally(perms: Iterable[tuple[int, ...]]) -> tuple[QPoly, QTPoly]:
    return _polys(Counter(map(_stats, perms)))


_BIT = {p: 1 << i for i, p in enumerate(itertools.chain(itertools.permutations((1, 2, 3)),
                                                        itertools.permutations((1, 2, 3, 4))))}


def raw_scan(n: int) -> dict[tuple[int, ...], tuple[int, tuple[int, int, int]]]:
    """{q: (pattern bits of q, (inv, maj, des) of q)} for each q in S_n, in
    lexicographic order, with the bits from raw `patterns_of`."""
    return {q: (sum(_BIT[p] for p in patterns_of(q, 3) | patterns_of(q, 4)), _stats(q))
            for q in itertools.permutations(range(1, n + 1))}


@functools.lru_cache(maxsize=None)
def scan(n: int) -> dict[tuple[int, ...], tuple[int, tuple[int, int, int]]]:
    """`raw_scan(n)`, with the bits read off the deletions past n = 5."""
    if n <= 5:
        return raw_scan(n)
    below = scan(n - 1)
    return {q: (functools.reduce(operator.or_, [below[tuple(x - (x > v) for x in q if x != v)][0]
                                                for v in q[:5]]), _stats(q))
            for q in itertools.permutations(range(1, n + 1))}


def _mask(patterns: Iterable[Sequence[int]]) -> int:
    return sum({_BIT[tuple(p)] for p in patterns})


def scan_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    mask = _mask(patterns)
    return [q for q, (bits, _) in scan(n).items() if not bits & mask]


def brute_profile(n: int, patterns: Iterable[Sequence[int]]):
    """(Av_n(patterns), its inv QPoly, its maj/des QTPoly), for patterns from S3 and S4."""
    mask = _mask(patterns)
    rows = [(q, stats) for q, (bits, stats) in scan(n).items() if not bits & mask]
    return ([q for q, _ in rows], *_polys(Counter(stats for _, stats in rows)))
