"""Pattern-avoidance sets: enumeration by backtracking search, statistic
generating polynomials by a dynamic program over prefix states.

The search places values left to right; a placement is rejected exactly
when it completes a pattern copy whose final element is the new entry, so
a prefix that already contains a copy is never explored.  It carries one
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

Profiles (the inv polynomial and the joint maj/des polynomial) do not visit
the avoiders one by one.  What a prefix means for its completions depends
only on where its entries sit relative to the values still free, so the
prefixes of one length fall into few states; the dynamic program carries
one polynomial pair per state, level by level (see _dp_profile).
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .perms import Perm, all_perms, complement, format_pattern_set, perm, reverse
from .polynomials import QPoly, QTPoly


class AvoidanceQuery(NamedTuple):
    """A length together with the patterns to avoid."""

    n: int
    patterns: tuple[Perm, ...]


class SearchCancelled(RuntimeError):
    """Raised inside enumeration or a profile when the cooperative stop signal fires."""


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
    first_value: int,
    on_leaf: Callable[[list[int]], None],
    should_stop: Optional[Callable[[], bool]],
) -> None:
    """Run the backtracking search over the permutations of length n >= 1
    that start with first_value, passing each avoider to on_leaf(prefix)."""
    if () in patterns:
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

    def rec(depth: int, used: int, forbid: int, min_b: int, max_b: int) -> None:
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
        if depth == 0:
            allowed &= 1 << (first_value - 1)
        if depth == last:
            # exactly one value is free, so finish without recursing
            if allowed:
                prefix[depth] = allowed.bit_length()
                on_leaf(prefix)
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
            )

    # a length-1 pattern forbids every value, so the root dies at once
    rec(0, 0, full if (1,) in patterns else 0, sentinel_hi, 0)


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

    def on_leaf(prefix):
        found.append(tuple(prefix))

    for first in range(1, n + 1):
        found.clear()
        _walk(n, pats, first, on_leaf, should_stop)
        yield from found


# ---------------------------------------------------------------------------
# statistic profiles: a dynamic program over prefix states


@dataclass(frozen=True)
class Profile:
    """Joint statistics over one avoidance set."""

    inv_poly: QPoly
    majdes_poly: QTPoly

    @property
    def count(self) -> int:
        """The size of the set; like every coefficient, it must fit in 64 bits."""
        return self.inv_poly.eval_at_q1()


class _CopyTables(NamedTuple):
    """How the prefix copies of one pattern of length >= 4 extend and die.

    ext[j] = (indices i < j with pat[i] < pat[j], indices with pat[i] > pat[j]).
    order[j] lists the indices of pat[:j] by increasing value, and need[j][g]
    counts the entries of pat[j:] whose value falls in gap g of pat[:j]
    (gap 0 below its least value, gap j above its greatest).
    """

    k: int
    ext: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    order: tuple[tuple[int, ...], ...]
    need: tuple[tuple[int, ...], ...]
    # +1 if pat starts with its minimum, -1 with its maximum, else 0
    anchor: int


def _copy_tables(pat: Perm) -> _CopyTables:
    k = len(pat)
    ext = tuple(
        (tuple(i for i in range(j) if pat[i] < pat[j]),
         tuple(i for i in range(j) if pat[i] > pat[j]))
        for j in range(k - 1)
    )
    order = []
    need = []
    for j in range(k):
        by_value = tuple(sorted(range(j), key=pat.__getitem__))
        gaps = [0] * (j + 1)
        for x in pat[j:]:
            gaps[sum(pat[i] < x for i in by_value)] += 1
        order.append(by_value)
        need.append(tuple(gaps))
    anchor = 1 if pat[0] == 1 else -1 if pat[0] == k else 0
    return _CopyTables(k, ext, tuple(order), tuple(need), anchor)


def _fits(cuts: tuple[int, ...], order: tuple[int, ...], need: tuple[int, ...], m: int) -> bool:
    """Whether m free values leave room for the rest of a pattern copy.

    Every gap between the copy's values must hold as many free values as
    the pattern still has entries to put there.
    """
    low = 0
    for i, want in zip(order, need):
        c = cuts[i]
        if c - low < want:
            return False
        low = c
    return m - low >= need[-1]


def _step_copies(tables: _CopyTables, copies: frozenset, r: int, m: int) -> Optional[frozenset]:
    """The copies after placing the free value of rank r, or None if that
    placement leaves a free value completing a copy of the whole pattern."""
    k, ext, order, need, anchor = tables
    m1 = m - 1
    out = set()
    for t in copies:
        j = len(t)
        moved = tuple(c - 1 if c > r else c for c in t)
        if _fits(moved, order[j], need[j], m1):
            out.add(moved)
        below, above = ext[j]
        if all(t[i] <= r for i in below) and all(t[i] > r for i in above):
            longer = moved + (r,)
            if _fits(longer, order[j + 1], need[j + 1], m1):
                # a copy of pat[:-1] fits iff a free value completes it
                if j + 1 == k - 1:
                    return None
                out.add(longer)
    if _fits((r,), order[1], need[1], m1):
        out.add((r,))
    if anchor:
        # a one-entry copy of a pattern that starts with its minimum (maximum)
        # completes whenever one with a larger (smaller) value does
        singles = [t for t in out if len(t) == 1]
        if len(singles) > 1:
            out.difference_update(singles)
            out.add(min(singles) if anchor > 0 else max(singles))
    return frozenset(out)


def _step_all(longs: list[_CopyTables], copies: tuple[frozenset, ...], r: int,
              m: int) -> Optional[tuple[frozenset, ...]]:
    out = []
    for tables, held in zip(longs, copies):
        step = _step_copies(tables, held, r, m)
        if step is None:
            return None
        out.append(step)
    return tuple(out)


def _anchored(patterns: Iterable[Perm]) -> int:
    return sum(p[0] in (1, len(p)) for p in patterns)


def _dp_profile(n: int, patterns: tuple[Perm, ...],
                should_stop: Optional[Callable[[], bool]]) -> Profile:
    """The profile of Av_n(patterns) by a dynamic program over prefix states.

    Values are placed left to right.  With m values still free, a placed
    value's cut is the number of free values below it, and the free value
    of rank r (0-based) is placed next: an old cut c becomes c - 1 if
    c > r, the new entry gets cut r, it adds r to inv (the smaller values
    that follow it) and makes a descent iff r < the cut of the previous
    entry.  A state holds what the completions can still see of the
    prefix, in cuts: the previous entry; the least and greatest entries
    (for 123, 132, 321, 312); which gaps strictly inside the free values
    hold an entry (for 213, 231); and for each pattern pat of length
    k >= 4 the set of cut tuples of the copies of pat[:j], 1 <= j <= k - 2,
    that still fit in the free values.  A copy of pat[:-1] is settled when
    it forms: a free value in its completion gap kills the prefix, and an
    empty gap stays empty.  The rules are the search's forbidden-value
    rules read in cuts.  Prefixes with equal states have the same completions,
    so each level maps a state to the inv and maj/des polynomials of the
    prefixes reaching it; only two levels are alive at once.

    Polynomials are packed into integers, one slot per exponent, so moving
    a prefix's polynomials to a child is a shift.  No coefficient exceeds
    n!, which fixes the slot width.  A set whose patterns start with their
    minimum or maximum less often than those of the reverse-complement set
    is run in that orientation: reverse-complement keeps inv and des and
    maps maj to n*des - maj.
    """
    if () in patterns:
        return Profile(QPoly.zero(), QTPoly.zero())
    if n == 0:
        return Profile(QPoly.one(), QTPoly.one())
    if (1,) in patterns:
        return Profile(QPoly.zero(), QTPoly.zero())
    flipped = tuple(complement(reverse(p)) for p in patterns)
    rc = _anchored(flipped) > _anchored(patterns)
    if rc:
        patterns = flipped

    f12 = (1, 2) in patterns
    f21 = (2, 1) in patterns
    f123 = (1, 2, 3) in patterns
    f321 = (3, 2, 1) in patterns
    f213 = (2, 1, 3) in patterns
    f231 = (2, 3, 1) in patterns
    f132 = (1, 3, 2) in patterns
    f312 = (3, 1, 2) in patterns
    track_min = f123 or f132
    track_max = f321 or f312
    track_mid = f213 or f231
    longs = [_copy_tables(p) for p in patterns if len(p) >= 4]

    bits = math.factorial(n).bit_length()
    slot_bytes = next((b for b in _WORD_CODES if 8 * b >= bits), (bits + 63) // 64 * 8)
    slot = 8 * slot_bytes
    maj_span = math.comb(n, 2) + 1  # maj <= C(n, 2); md slot of q^maj t^des: maj + maj_span*des

    # state: (prev_cut, min_cut, max_cut, mid_mask, copies); the root's
    # least entry is a sentinel above every value
    root = (0, n if track_min else 0, 0, 0, (frozenset(),) * len(longs))
    level = {root: [1, 1]}
    for depth in range(n):
        m = n - depth
        inner = (1 << (m - 1)) - 2 if m > 1 else 0  # gaps 1 .. m-2 of the child
        nxt: dict = {}
        steps: dict = {}  # (copies, r) -> copies of the child, None if it dies
        for (prev_cut, min_cut, max_cut, mid, copies), (inv_x, md_x) in level.items():
            if should_stop is not None and should_stop():
                raise SearchCancelled("profile stopped")
            for r in range(m):
                if f12 and r != m - 1 or f21 and r:
                    continue
                if r >= min_cut and (f123 and r < m - 1 or f132 and r > min_cut):
                    continue
                if r < max_cut and (f321 and r or f312 and r < max_cut - 1):
                    continue
                if f213 and mid >> (r + 1) or f231 and mid & ((2 << r) - 1):
                    continue
                moved = copies
                if longs:
                    try:
                        moved = steps[copies, r]
                    except KeyError:
                        moved = steps[copies, r] = _step_all(longs, copies, r, m)
                    if moved is None:
                        continue
                child = (
                    r,
                    min(r, min_cut) if track_min else 0,
                    (r if r >= max_cut else max_cut - 1) if track_max else 0,
                    ((mid & ((2 << r) - 1)) | (mid >> (r + 1) << r) | (1 << r)) & inner
                    if track_mid else 0,
                    moved,
                )
                iv = inv_x << (slot * r)
                mv = md_x << (slot * (depth + maj_span)) if r < prev_cut else md_x
                acc = nxt.get(child)
                if acc is None:
                    nxt[child] = [iv, mv]
                else:
                    acc[0] += iv
                    acc[1] += mv
        level = nxt

    inv_coeffs = _unpack(sum(a for a, _ in level.values()), slot_bytes, maj_span)
    md_coeffs = _unpack(sum(b for _, b in level.values()), slot_bytes, maj_span * n)
    counts = {}
    for index in compress(range(len(md_coeffs)), md_coeffs):
        des, maj = divmod(index, maj_span)
        counts[(n * des - maj if rc else maj, des)] = md_coeffs[index]
    return Profile(QPoly(inv_coeffs), QTPoly.from_counts(counts))


# machine words of 1, 2, 4 and 8 bytes, which memoryview.cast reads in one call
_WORD_CODES = {struct.calcsize(code): code for code in "BHIQ"}


def _unpack(packed: int, slot_bytes: int, slots: int) -> list[int]:
    data = packed.to_bytes(slot_bytes * slots, sys.byteorder)
    if slot_bytes in _WORD_CODES:
        return memoryview(data).cast(_WORD_CODES[slot_bytes]).tolist()
    return [int.from_bytes(data[i:i + slot_bytes], sys.byteorder)
            for i in range(0, len(data), slot_bytes)]


_PROFILE_CACHE_SIZE = 8192
_profile_cache: dict[tuple[int, tuple[Perm, ...]], Profile] = {}


def _profile(n: int, patterns: tuple[Perm, ...],
             should_stop: Optional[Callable[[], bool]] = None) -> Profile:
    """Least-recently-used cache over _dp_profile; a cancelled call stores nothing."""
    key = (n, patterns)
    prof = _profile_cache.pop(key, None)
    if prof is None:
        prof = _dp_profile(n, patterns, should_stop)
        if len(_profile_cache) >= _PROFILE_CACHE_SIZE:
            del _profile_cache[next(iter(_profile_cache))]
    # (re)inserted last, so the dict's order is the order of use
    _profile_cache[key] = prof
    return prof


def profile(n: int, patterns: Iterable[Sequence[int]],
            should_stop: Optional[Callable[[], bool]] = None) -> Profile:
    """Profile of Av_n(patterns); should_stop is polled during the
    computation and raises SearchCancelled."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    return _profile(n, canonical_patterns(patterns), should_stop)


def count_avoiders(n: int, patterns: Iterable[Sequence[int]],
                   should_stop: Optional[Callable[[], bool]] = None) -> int:
    """The cardinality of the avoidance set."""
    return profile(n, patterns, should_stop=should_stop).count


def stat_poly(n: int, patterns: Iterable[Sequence[int]], stat: str,
              should_stop: Optional[Callable[[], bool]] = None) -> QPoly:
    """Generating polynomial sum of q^stat over the avoidance set."""
    prof = profile(n, patterns, should_stop=should_stop)
    if stat == "inv":
        return prof.inv_poly
    if stat == "maj":
        return prof.majdes_poly.specialize_t1()
    raise ValueError(f"unknown statistic {stat!r}; expected 'inv' or 'maj'")


def maj_des_poly(n: int, patterns: Iterable[Sequence[int]],
                 should_stop: Optional[Callable[[], bool]] = None) -> QTPoly:
    """Bivariate sum of q^maj t^des over the avoidance set."""
    return profile(n, patterns, should_stop=should_stop).majdes_poly


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


def _signature(n_max: int, patterns: tuple[Perm, ...], stat: str,
               should_stop: Optional[Callable[[], bool]]):
    if stat == "maj-des":
        return tuple(maj_des_poly(n, patterns, should_stop=should_stop) for n in range(n_max + 1))
    return tuple(stat_poly(n, patterns, stat, should_stop=should_stop) for n in range(n_max + 1))


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
    subsets and inside each profile, and raises SearchCancelled.
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
        sig = _signature(n_max, subset, stat, should_stop)
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


def mahonian_pair_check(s_query: AvoidanceQuery, t_query: AvoidanceQuery,
                        should_stop: Optional[Callable[[], bool]] = None) -> bool:
    """True iff maj over the first avoidance set and inv over the second are
    equidistributed (the pair is Mahonian)."""
    left = stat_poly(s_query.n, s_query.patterns, "maj", should_stop=should_stop)
    right = stat_poly(t_query.n, t_query.patterns, "inv", should_stop=should_stop)
    return left == right
