"""Backtracking enumeration of pattern-avoidance sets and their statistic
generating polynomials.

Values are placed left to right; a placement is rejected exactly when it
completes a pattern copy whose final element is the new entry, so a prefix
that already contains a copy is never explored.  The search carries one
bitmask of forbidden values: the values that would complete a copy of some
pattern after the current prefix.  Placing a value extends it, by an O(1)
rule for each pattern of length 2 or 3 and, for longer patterns, by the
value intervals that complete each copy of the pattern minus its last entry
ending at the new value.  Because the mask only grows as the prefix grows, a
subtree dies the moment any unused value becomes forbidden, which prunes the
search far below the naive valid-prefix tree.  A length-1 pattern starts the
mask full, so only the empty permutation avoids it; the empty pattern occurs
in every permutation, so it ends the search before it starts.  Output order
is lexicographic in one-line notation and is part of the contract.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .perms import Perm, all_perms, format_pattern_set, perm
from .polynomials import QPoly, QTPoly


class AvoidanceQuery(NamedTuple):
    """A length together with the patterns to avoid."""

    n: int
    patterns: tuple[Perm, ...]


class SearchCancelled(RuntimeError):
    """Raised inside enumeration when the cooperative stop signal fires."""


_STOP_CHECK_INTERVAL = 4096


def canonical_patterns(patterns: Iterable[Sequence[int]]) -> tuple[Perm, ...]:
    """Validated, deduplicated, sorted pattern tuple."""
    return tuple(sorted(set(perm(p) for p in patterns)))


# ---------------------------------------------------------------------------
# long-pattern completion masks


def _prepare_long(pat: Perm):
    """Precompute order relations of the head pat[:-1] for _completion_mask."""
    k1 = len(pat) - 1
    head, last = pat[:-1], pat[-1]
    rel = tuple(tuple(head[t] < head[j] for t in range(j)) for j in range(k1))
    # slots of the head values just below and just above last; the slots
    # k1 and k1 + 1 hold the sentinels 0 and n + 1
    lo = head.index(last - 1) if last > 1 else k1
    hi = head.index(last + 1) if last <= k1 else k1 + 1
    return k1, rel, lo, hi


def _completion_mask(prefix: list[int], m: int, prepared, above, below) -> int:
    """Values that complete a pattern copy whose head copy ends at prefix[m].

    Each copy of pat[:-1] ending at the new entry contributes the open
    value interval between its values nearest below and above pat[-1].
    """
    k1, rel, lo, hi = prepared
    if m < k1 - 1:
        return 0
    v = prefix[m]
    anchor = rel[k1 - 1]
    chosen = [0] * k1 + [0, len(above) - 1]
    chosen[k1 - 1] = v
    mask = 0

    def go(j: int, start: int) -> None:
        nonlocal mask
        if j == k1 - 1:
            mask |= above[chosen[lo]] & below[chosen[hi]]
            return
        relj = rel[j]
        wantv = anchor[j]
        for i in range(start, m - (k1 - 2 - j)):
            x = prefix[i]
            if (x < v) != wantv:
                continue
            for t in range(j):
                if (chosen[t] < x) != relj[t]:
                    break
            else:
                chosen[j] = x
                go(j + 1, i + 1)

    go(0, 0)
    return mask


# ---------------------------------------------------------------------------
# the search itself


def _walk(
    n: int,
    patterns: tuple[Perm, ...],
    on_leaf=None,
    should_stop: Optional[Callable[[], bool]] = None,
    first_value: int = 0,
    sink: Optional[tuple[list[int], dict[tuple[int, int], int]]] = None,
):
    """Run the backtracking search.

    Each surviving permutation is either passed to on_leaf(prefix, inv,
    maj, des) or, when sink = (inv_histogram, majdes_counts) is given,
    accumulated in place without any per-leaf call (the hot path for
    polynomial profiles).  first_value > 0 restricts the search to
    permutations starting with that value, which is how work is split
    across processes.
    """
    hist, majdes = sink if sink is not None else (None, None)
    if () in patterns:
        return
    if n == 0:
        # only profiles get here: enumerate_avoiders yields () itself
        hist[0] += 1
        majdes[(0, 0)] = majdes.get((0, 0), 0) + 1
        return

    full = (1 << n) - 1
    # above[v]: bitmask of values strictly greater than v; below[v]: strictly less
    above = [full & ~((1 << v) - 1) for v in range(n + 2)]
    below = [0] + [(1 << (v - 1)) - 1 for v in range(1, n + 2)]

    f12 = (1, 2) in patterns
    f21 = (2, 1) in patterns
    f123 = (1, 2, 3) in patterns
    f321 = (3, 2, 1) in patterns
    f213 = (2, 1, 3) in patterns
    f231 = (2, 3, 1) in patterns
    f132 = (1, 3, 2) in patterns
    f312 = (3, 1, 2) in patterns
    longs = [_prepare_long(p) for p in patterns if len(p) >= 4]

    prefix = [0] * n
    sentinel_hi = n + 1
    ticker = [0]
    last = n - 1

    def rec(depth: int, used: int, forbid: int, min_b: int, max_b: int,
            prev: int, inv_acc: int, maj_acc: int, des_acc: int) -> None:
        if should_stop is not None:
            ticker[0] += 1
            if ticker[0] >= _STOP_CHECK_INTERVAL:
                ticker[0] = 0
                if should_stop():
                    raise SearchCancelled("enumeration stopped")
        free = full & ~used
        # forbid only grows along a path, so a value that is unplaceable now
        # stays unplaceable forever: one stranded value kills the whole
        # subtree, not just its own branch
        if free & forbid:
            return
        allowed = free
        if depth == 0 and first_value:
            allowed &= 1 << (first_value - 1)
        if depth == last:
            # exactly one value is free, so finish without recursing
            while allowed:
                bit = allowed & -allowed
                allowed ^= bit
                v = bit.bit_length()
                iv = inv_acc + (used & above[v]).bit_count()
                if prev > v:
                    mj = maj_acc + depth
                    ds = des_acc + 1
                else:
                    mj = maj_acc
                    ds = des_acc
                if hist is None:
                    prefix[depth] = v
                    on_leaf(prefix, iv, mj, ds)
                else:
                    hist[iv] += 1
                    key = (mj, ds)
                    majdes[key] = majdes.get(key, 0) + 1
            return
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            v = bit.bit_length()
            # each rule adds the values that now complete a copy ending at v
            nf = forbid
            if f12:
                nf |= above[v]
            if f21:
                nf |= below[v]
            if v > min_b:
                if f123:
                    nf |= above[v]
                if f132:
                    nf |= above[min_b] & below[v]
            if v < max_b:
                if f321:
                    nf |= below[v]
                if f312:
                    nf |= above[v] & below[max_b]
            if f213:
                higher = used >> v
                if higher:
                    nf |= above[v + (higher & -higher).bit_length()]
            if f231:
                lower = used & below[v]
                if lower:
                    nf |= below[lower.bit_length()]
            prefix[depth] = v
            for prepared in longs:
                nf |= _completion_mask(prefix, depth, prepared, above, below)
            rec(
                depth + 1,
                used | bit,
                nf,
                v if v < min_b else min_b,
                v if v > max_b else max_b,
                v,
                inv_acc + (used & above[v]).bit_count(),
                maj_acc + (depth if prev > v else 0),
                des_acc + (1 if prev > v else 0),
            )

    # a length-1 pattern forbids every value, so the root dies at once
    rec(0, 0, full if (1,) in patterns else 0, sentinel_hi, 0, 0, 0, 0, 0)


def enumerate_avoiders(
    n: int,
    patterns: Iterable[Sequence[int]],
    should_stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Perm]:
    """Yield the permutations of length n avoiding every pattern, each once,
    in lexicographic order of one-line notation."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    pats = canonical_patterns(patterns)
    found: list[Perm] = []

    # Stream one first-value subtree at a time so memory stays bounded by
    # the largest subtree rather than the whole avoidance set.
    if () in pats:
        return
    if n == 0:
        yield ()
        return

    def on_leaf(prefix, _inv, _maj, _des):
        found.append(tuple(prefix))

    for first in range(1, n + 1):
        found.clear()
        _walk(n, pats, on_leaf, should_stop, first_value=first)
        yield from found


# ---------------------------------------------------------------------------
# cached statistic profiles


@dataclass(frozen=True)
class Profile:
    """Joint statistics over one avoidance set."""

    count: int
    inv_poly: QPoly
    majdes_poly: QTPoly


def _accumulate(n: int, patterns: tuple[Perm, ...],
                first_value: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    inv_hist = [0] * (math.comb(n, 2) + 1)
    majdes: dict[tuple[int, int], int] = {}
    _walk(n, patterns, first_value=first_value, sink=(inv_hist, majdes))
    return inv_hist, majdes


def _worker_count() -> int:
    raw = os.environ.get("PATSTAT_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        warnings.warn(
            f"PATSTAT_THREADS={raw!r} is not a positive integer; running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return 1
    return workers


@lru_cache(maxsize=8192)
def _profile(n: int, patterns: tuple[Perm, ...]) -> Profile:
    workers = _worker_count()
    if workers > 1 and n >= 9:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            parts = list(pool.map(_accumulate, [n] * n, [patterns] * n, range(1, n + 1)))
    else:
        parts = [_accumulate(n, patterns, 0)]
    # one merge for both paths; the sums do not depend on the order of parts
    inv_hist = [sum(column) for column in zip(*(hist for hist, _ in parts))]
    majdes: Counter[tuple[int, int]] = Counter()
    for _, md in parts:
        majdes.update(md)
    return Profile(
        count=sum(inv_hist),
        inv_poly=QPoly(inv_hist),
        majdes_poly=QTPoly.from_counts(majdes),
    )


def profile(n: int, patterns: Iterable[Sequence[int]]) -> Profile:
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _profile(n, canonical_patterns(patterns))


def count_avoiders(n: int, patterns: Iterable[Sequence[int]]) -> int:
    """The cardinality of the avoidance set."""
    return profile(n, patterns).count


def stat_poly(n: int, patterns: Iterable[Sequence[int]], stat: str) -> QPoly:
    """Generating polynomial sum of q^stat over the avoidance set."""
    prof = profile(n, patterns)
    if stat == "inv":
        return prof.inv_poly
    if stat == "maj":
        return prof.majdes_poly.specialize_t1()
    raise ValueError(f"unknown statistic {stat!r}; expected 'inv' or 'maj'")


def maj_des_poly(n: int, patterns: Iterable[Sequence[int]]) -> QTPoly:
    """Bivariate sum of q^maj t^des over the avoidance set."""
    return profile(n, patterns).majdes_poly


def stat_multiset(patterns: Iterable[Sequence[int]], stat: str) -> tuple[int, ...]:
    """Sorted multiset of the statistic over the patterns themselves."""
    from . import perms

    fn = {"inv": perms.inv, "maj": perms.maj, "des": perms.des}[stat]
    return tuple(sorted(fn(p) for p in canonical_patterns(patterns)))


# ---------------------------------------------------------------------------
# st-Wilf classification


@dataclass(frozen=True)
class EquivalenceReport:
    """Partition of same-size pattern subsets by statistic polynomials."""

    stat: str
    ground_length: int
    subset_size: int
    n_max: int
    classes: tuple[tuple[tuple[Perm, ...], ...], ...]

    def nontrivial_classes(self) -> tuple[tuple[tuple[Perm, ...], ...], ...]:
        return tuple(c for c in self.classes if len(c) > 1)

    def class_of(self, patterns: Iterable[Sequence[int]]) -> tuple[tuple[Perm, ...], ...]:
        want = canonical_patterns(patterns)
        for c in self.classes:
            if want in c:
                return c
        raise KeyError(f"{want} is not a subset in this report")

    def to_json(self) -> list[list[str]]:
        return [[format_pattern_set(s) for s in c] for c in self.classes]


_CLASSIFY_STATS = ("inv", "maj", "maj-des")


def _signature(n_max: int, patterns: tuple[Perm, ...], stat: str):
    if stat == "maj-des":
        return tuple(maj_des_poly(n, patterns) for n in range(n_max + 1))
    return tuple(stat_poly(n, patterns, stat) for n in range(n_max + 1))


def classify(
    ground_length: int,
    subset_size: int,
    stat: str,
    n_max: int,
    max_subsets: int = 20000,
    should_stop: Optional[Callable[[], bool]] = None,
) -> EquivalenceReport:
    """Partition all subsets of the given size of S_ground_length by equality
    of their statistic polynomials for n = 0..n_max.

    Classes are sorted by their lexicographically least member; equality is
    only asserted up to n_max, never beyond.  should_stop is polled between
    subsets and raises SearchCancelled.
    """
    if stat not in _CLASSIFY_STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {_CLASSIFY_STATS}")
    if n_max < ground_length:
        raise ValueError("n_max must be at least the pattern length")
    ground = sorted(all_perms(ground_length))
    total = math.comb(len(ground), subset_size)
    if total > max_subsets:
        raise ValueError(
            f"{total} subsets exceed the guard of {max_subsets}; raise max_subsets to force"
        )
    groups: dict[object, list[tuple[Perm, ...]]] = {}
    for subset in combinations(ground, subset_size):
        if should_stop is not None and should_stop():
            raise SearchCancelled("classification stopped")
        sig = _signature(n_max, subset, stat)
        groups.setdefault(sig, []).append(subset)
    classes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    # classmates agree at n = ground_length, which forces equal multisets of
    # the statistic over the subsets themselves; check that consistency
    if stat in ("inv", "maj"):
        for cls in classes:
            sets = {stat_multiset(s, stat) for s in cls}
            if len(sets) > 1:
                raise AssertionError(f"classmates with unequal {stat} multisets: {cls}")
    return EquivalenceReport(stat, ground_length, subset_size, n_max, classes)


def mahonian_pair_check(s_query: AvoidanceQuery, t_query: AvoidanceQuery) -> bool:
    """True iff maj over the first avoidance set and inv over the second are
    equidistributed (the pair is Mahonian)."""
    left = stat_poly(s_query.n, s_query.patterns, "maj")
    right = stat_poly(t_query.n, t_query.patterns, "inv")
    return left == right
