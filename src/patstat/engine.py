"""Pattern-avoidance sets, by one rule set over prefix states.

Values are placed left to right.  With m values still free, a placed
value's cut is the number of free values below it, and what a prefix means
for its completions depends only on those cuts: the prefixes of one length
fall into few states (see _transitions).  A placement is rejected when a
free value would then complete a copy of some pattern: that value must
still be placed, so no avoider has the prefix.  The empty pattern occurs
in every permutation and a length-1 pattern in every nonempty one, so
those sets are settled before any state is built.

Enumeration walks the states depth first from one stack of pending
placements, least rank first, and yields each avoider as it is found, so
its output order is lexicographic in one-line notation, which is part of
the contract.  Many prefixes have no completion although no free value
completes a pattern yet.  Once all children of a state have been walked,
the state keeps only those that have a completion, so the subtree of a
dead state is walked once at most, and the walk costs about the number of
states plus the avoiders times n.  The last few values of each avoider
come from a table, per state, of the orders that complete it, built from
the completions of its children as rank codes (see _getter).  Profiles
(the inv polynomial and the joint maj/des polynomial) run the same rules
level by level, carrying one polynomial pair per state and previous cut
rather than visiting the avoiders one by one (see _dp_profile).
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from itertools import combinations, compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import perms
from .perms import (INV_REVERSING, STAT_MOVES, Perm, _match_plan, all_perms, format_pattern_set,
                    image, perm)
from .polynomials import QPoly, QTPoly


class AvoidanceQuery(NamedTuple):
    """A length together with the patterns to avoid."""

    n: int
    patterns: tuple[Perm, ...]


class SearchCancelled(RuntimeError):
    """Raised inside enumeration or a profile when the cooperative stop signal fires."""


_STOP_CHECK_INTERVAL = 4096
# enumeration reads the last min(_TAIL, max(4, n - 3)) values of each avoider
# from a table per state, so at least three placed values lie above a table,
# where states repeat; a table at 6 values free for every n made enumeration
# at n = 7 1.7 times slower, its tables built for states met once
_TAIL = 6


def canonical_patterns(patterns: Iterable[Sequence[int]]) -> tuple[Perm, ...]:
    """Validated, deduplicated, sorted pattern tuple."""
    return tuple(sorted(set(perm(p) for p in patterns)))


# ---------------------------------------------------------------------------
# prefix states


class _CopyTables(NamedTuple):
    """How the prefix copies of one pattern of length >= 4 extend and die.

    need[j][g] counts the entries of pat[j:] whose value falls in gap g of
    pat[:j] (gap 0 below its least value, gap j above its greatest).
    plan[j] names the entries of pat[:j] nearest to pat[j] in value
    (perms._match_plan), and split[j] counts the entries of pat[j + 1:]
    that fall below and above pat[j] in the gap of pat[:j] that holds it.
    moves maps (copy set, m) to its row (see _moves_row), which depends on
    the pattern alone.
    """

    k: int
    plan: tuple[tuple[int, int], ...]
    split: tuple[tuple[int, int], ...]
    need: tuple[tuple[int, ...], ...]
    # +1 if pat starts with its minimum, -1 with its maximum, else 0
    anchor: int
    moves: dict


# The tables of the _COPY_TABLE_PATTERNS patterns used last are kept (all of
# S4 fits), each emptied at _COPY_ROWS_MAX rows: at about 1.7 kB a row, 2.6 MiB
# a table and 85 MiB in all.  classify over S4 to n = 11 stores at most 1,491
# rows in one table, so it empties none, and holds 15 MiB of rows in all.
_COPY_TABLE_PATTERNS = 32
_COPY_ROWS_MAX = 1536


@functools.lru_cache(maxsize=_COPY_TABLE_PATTERNS)
def _copy_tables(pat: Perm) -> _CopyTables:
    k = len(pat)
    need = []
    for j in range(k):
        gaps = [0] * (j + 1)
        for x in pat[j:]:
            gaps[sum(y < x for y in pat[:j])] += 1
        need.append(tuple(gaps))
    # pat[j] splits gap p of pat[:j] into gaps p and p + 1 of pat[:j + 1]
    split = []
    for j in range(k - 1):
        p = sum(y < pat[j] for y in pat[:j])
        split.append(need[j + 1][p:p + 2])
    anchor = 1 if pat[0] == 1 else -1 if pat[0] == k else 0
    return _CopyTables(k, _match_plan(pat), tuple(split), tuple(need), anchor, {})


def _moves_row(tables: _CopyTables, held: frozenset, m: int) -> tuple:
    """The copy sets after placing the free value of rank r = 0 .. m - 1, or
    None where a free value would then complete a copy of the whole pattern,
    read from the pattern's table, where a row is stored whole once built.

    A gap of a copy is the run of free ranks between two consecutive cuts,
    and placing rank r shrinks only the gap that holds r.  Every copy in
    held fits m free values, since the step that made the set kept only
    those, so each part of the row covers one interval of r: a copy moves
    the same way for every r in a gap and stays iff that gap has a free
    value to spare; it extends iff r leaves both parts of the gap around
    pat[j] the entries that pat[j + 1:] puts there; and (r,) is a copy iff
    r leaves room on both sides.
    """
    moves = tables.moves
    row = moves.get((held, m))
    if row is not None:
        return row
    k, plan, split, need, anchor, _ = tables
    out = [[] for _ in range(m)]
    first, stop = need[1][0], m - need[1][1]  # the r for which (r,) is a copy
    kills = []
    for t in held:
        j = len(t)
        edges = [0, *sorted(t), m]  # cuts grow with values
        gaps = range(j + 1)
        if anchor and j == 1:
            # a one-entry copy of a pattern that starts with its minimum
            # (maximum) completes whenever one with a larger (smaller) value
            # does, so of (r,) and t's move the least (greatest) is kept: (r,)
            # for r < t[0] (r >= t[0]) and the move otherwise; as t fits,
            # the one kept fits wherever the one dropped does
            if anchor > 0:
                stop, gaps = min(stop, t[0]), (1,)
            else:
                first, gaps = max(first, t[0]), (0,)
        for g in gaps:
            a, b = edges[g], edges[g + 1]
            if b - a > need[j][g]:
                moved = tuple([c - 1 if c >= b else c for c in t])
                for copies in out[a:b]:
                    copies.append(moved)
        # the gap around pat[j] ends at the cuts of its nearest entries below
        # and above, since cuts grow with values
        lo, hi = plan[j]
        a, b = t[lo] if lo >= 0 else 0, t[hi] if hi >= 0 else m
        below, above = split[j]
        if a + below < b - above:
            if j == k - 2:  # a copy of pat[:-1] fits iff a free value completes it
                kills.append((a + below, b - above))
            else:
                moved = tuple([c - 1 if c >= b else c for c in t])
                for r in range(a + below, b - above):
                    out[r].append(moved + (r,))
    for r in range(first, stop):
        out[r].append((r,))
    for a, b in kills:
        out[a:b] = [None] * (b - a)
    row = tuple([copies if copies is None else frozenset(copies) for copies in out])
    if len(moves) >= _COPY_ROWS_MAX:
        moves.clear()
    moves[held, m] = row
    return row


def _transitions(n: int, patterns: tuple[Perm, ...]):
    """The prefix states of Av_n(patterns) and the rule that extends them.

    With m values still free, the free value of rank r (0-based) is placed
    next: an old cut c becomes c - 1 if c > r and the new entry gets cut r.
    A state (cuts, copies) holds what the completions can still see of the
    prefix.  lo and hi are the least and greatest cut of an entry, and the
    inner cuts lie in 1 .. m - 1.  Each pattern of length 2 or 3 bounds r:
    12 to r = m - 1, 21 to r = 0, 132 to r <= lo, 312 to r >= hi - 1, 213 to
    r >= the greatest inner cut of an entry, 231 to r < the least, 123 to
    r < lo or r = m - 1, and 321 to r = 0 or r >= hi.  cuts has a bit set
    for each cut of an entry that these read: lo for 123 and 132, hi for 321
    and 312, and the inner cuts for 213 and 231, save that under 312 every
    later r is at least hi - 1, so no inner cut but hi can lie above r for
    213, and under 132 at most lo, so none but lo can lie at or below r for
    231.  copies holds, for each pattern pat of length k >= 4, the cut
    tuples of the copies of pat[:j], 1 <= j <= k - 2, that still fit in the
    free values.  A copy of pat[:-1] is settled when it forms: a free value
    in its completion gap kills the prefix, and an empty gap stays empty.
    Prefixes with equal states have the same completions.  The previous
    entry's cut, which decides descents, is the r of the placement that made
    the state (see _dp_profile).

    Returns the root state and children(state, m), the (r, child state)
    pairs in increasing r.  Patterns of length 0 and 1 are left to the caller.
    """
    f12, f21, f123, f132, f213, f231, f312, f321 = (
        (1, 2) in patterns, (2, 1) in patterns, (1, 2, 3) in patterns, (1, 3, 2) in patterns,
        (2, 1, 3) in patterns, (2, 3, 1) in patterns, (3, 1, 2) in patterns, (3, 2, 1) in patterns)
    keep_lo, keep_hi = f123 or f132, f321 or f312
    keep_inner = f213 and not f312 or f231 and not f132
    longs = [_copy_tables(p) for p in patterns if len(p) >= 4]
    shorts = len(longs) < len(patterns)

    def children(state, m: int) -> list:
        cuts, copies = state
        first, last = m - 1 if f12 else 0, 0 if f21 else m - 1
        if shorts:
            lo = (cuts & -cuts).bit_length() - 1 if keep_lo and cuts else m  # m while empty
            hi, inner = cuts.bit_length() - 1, cuts & (1 << m) - 2
            last = lo if f132 and lo < last else last
            first = hi - 1 if f312 and hi - 1 > first else first
            first = inner.bit_length() - 1 if f213 and inner >> first + 1 else first
            last = (inner & -inner).bit_length() - 2 if f231 and inner & (2 << last) - 1 else last
        if longs:
            steps = list(zip(*[_moves_row(t, held, m) for t, held in zip(longs, copies)]))
        inside = (1 << (m - 1)) - 2 if keep_inner and m > 1 else 0  # the child's inner cuts
        out = []
        for r in range(first, last + 1):
            if f123 and lo <= r < m - 1 or f321 and 0 < r < hi:
                continue
            moved = steps[r] if longs else copies
            if longs and None in moved:  # some pattern's row kills the placement
                continue
            out.append((r, (
                (1 << (r if r < lo else lo) if keep_lo else 0)
                | (1 << (r if r >= hi else hi - 1) if keep_hi else 0)
                | ((cuts & (1 << r) - 1 | cuts >> r + 1 << r | 1 << r) & inside
                   if keep_inner else 0),
                moved)))
        return out

    return (0, (frozenset(),) * len(longs)), children


# ---------------------------------------------------------------------------
# enumeration


@functools.cache
def _getter(k: int, code: int) -> Callable:
    """The getter that puts a sorted list of k free values into one order,
    given by its rank code: the rank r_k of its first value among all k,
    then that of its second among the k - 1 left, and so on, read as the
    number whose digit r_i has weight (i - 1)!, which is the order's
    lexicographic rank in S_k.  So the cache holds at most k! getters per
    k, and 1! + ... + 6! = 873 in all for k up to _TAIL."""
    left = list(range(k))
    picks = []
    for i in range(k - 1, -1, -1):
        r, code = divmod(code, math.factorial(i))
        picks.append(left.pop(r))
    return itemgetter(*picks)


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
    # the empty pattern occurs in every permutation, a length-1 pattern in
    # every nonempty one
    if () in pats or n and (1,) in pats:
        return
    if n < 2:
        # no longer pattern fits in fewer than two values
        yield tuple(range(1, n + 1))
        return
    root, children = _transitions(n, pats)
    low = min(_TAIL, max(4, n - 3))  # values free at a table
    # Per m, for each state met so far with m values free: above low, its
    # children, and once they have all been walked only those that have a
    # completion; at min(n, low), the orders of the free values that
    # complete it, least first, as getters of index tuples into them; below
    # that, the rank codes of those orders (see _getter).
    memo: list[dict] = [{} for _ in range(n + 1)]

    def ranks(state, k: int) -> list:
        """The rank codes of the orders of k free values that complete a
        state, least first, from those of its children."""
        w = math.factorial(k - 1)
        return [r * w + x for r, c in children(state, k) for x in codes(c, k - 1)]

    def codes(state, k: int) -> list:
        if not k:
            return [0]
        known = memo[k]
        out = known.get(state)
        if out is None:
            out = known[state] = ranks(state, k)
        return out

    # Pending placements (state after it, values still free after it, value
    # placed), least rank on top.  A popped value goes into the one shared
    # prefix, whose earlier positions then hold the values of its ancestors.
    # A state other than the root met for the first time above low also
    # leaves (state, [], m) below its children, which marks them all walked.
    pending: list = []
    prefix = [0] * n
    state, free = root, list(range(1, n + 1))
    ticker = 0
    while True:
        if should_stop is not None:
            ticker += 1
            if ticker >= _STOP_CHECK_INTERVAL:
                ticker = 0
                if should_stop():
                    raise SearchCancelled("enumeration stopped")
        m = len(free)
        known = memo[m]
        out = known.get(state)
        if m > low:
            if out is None:
                # leave out the children already known to have no completion
                below = memo[m - 1]
                out = known[state] = [rc for rc in children(state, m) if below.get(rc[1], True)]
                if out and m < n:
                    pending.append((state, [], m))
            for r, child in reversed(out):
                pending.append((child, free[:r] + free[r + 1:], free[r]))
        else:
            if out is None:
                out = known[state] = [_getter(m, code) for code in ranks(state, m)]
            ticker += len(out)  # a tick per avoider too, for a prompt deadline
            head = tuple(prefix[:n - m])
            for tail in out:
                yield head + tail(free)
        while True:
            if not pending:
                return
            state, free, value = pending.pop()
            if free:
                break
            # a marker: keep the children of the state with `value` values
            # free that have a completion, so no later visit walks the others
            below = memo[value - 1]
            memo[value][state] = [rc for rc in memo[value][state] if below[rc[1]]]
        prefix[n - len(free) - 1] = value


# ---------------------------------------------------------------------------
# statistic profiles: a dynamic program over prefix states


# QTPoly's term order: by t (des), then by q (maj)
_DES_MAJ = itemgetter(1, 0)


class Profile(NamedTuple):
    """Joint statistics over one avoidance set."""

    inv_poly: QPoly
    majdes_poly: QTPoly

    @property
    def count(self) -> int:
        """The size of the set; like every coefficient, it must fit in 64 bits."""
        return self.inv_poly.eval_at_q1()

    def moved(self, n: int, tag: str) -> "Profile":
        """The profile of Av_n(g(P)), if this is that of Av_n(P), for the symmetry
        g named by tag, one of perms.STAT_MOVES: inv moves by
        perms.INV_REVERSING and QPoly.reverse, maj and des by the table."""
        rule = STAT_MOVES[tag]
        # the rule is (maj, des) -> (a + s*maj + t*des, d + u*des) at n: three points fix it
        (a, d), (a_s, _), (a_t, d_u) = rule(n, 0, 0), rule(n, 1, 0), rule(n, 0, 1)
        s, t, u = a_s - a, a_t - a, d_u - d
        inv_poly = self.inv_poly.reverse(n) if tag in INV_REVERSING else self.inv_poly
        # the move is a bijection on (maj, des), so no two terms share a key
        terms = [(a + s * maj + t * des, d + u * des, c) for maj, des, c in self.majdes_poly.terms]
        terms.sort(key=_DES_MAJ)
        return Profile(inv_poly, QTPoly._from_terms(tuple(terms)))


def _anchored(patterns: Iterable[Perm]) -> int:
    """How many of the patterns start with their least or greatest value."""
    return sum(p[:1] in ((1,), (len(p),)) for p in patterns)


def _dp_profile(n: int, patterns: tuple[Perm, ...],
                should_stop: Optional[Callable[[], bool]]) -> Profile:
    """The profile of Av_n(patterns) by a dynamic program over prefix states.

    Each level maps a (prev_cut, state) pair, as children returns it, to
    the inv and maj/des polynomials of the prefixes reaching it; only two
    levels are alive at once, and a state's children are computed once a
    level.  Placing the free value of rank r adds r to inv (the smaller
    values that follow it) and makes a descent iff r < prev_cut.

    Polynomials are packed into integers, one slot per exponent, so moving
    a prefix's polynomials to a child is a shift.  No coefficient exceeds
    n!, which fixes the slot width.  The run is over exactly the given
    set; _uncached chooses which member of a symmetry orbit it runs on.
    """
    if () in patterns or n and (1,) in patterns:
        return Profile(QPoly.zero(), QTPoly.zero())
    if n == 0:
        return Profile(QPoly.one(), QTPoly.one())
    root, children = _transitions(n, patterns)

    bits = math.factorial(n).bit_length()
    slot_bytes = next((b for b in _WORD_CODES if 8 * b >= bits), (bits + 63) // 64 * 8)
    slot = 8 * slot_bytes
    maj_span = math.comb(n, 2) + 1  # maj <= C(n, 2); md slot of q^maj t^des: maj + maj_span*des

    level = {(0, root): [1, 1]}
    for depth in range(n):
        m = n - depth
        nxt: dict = {}
        kids: dict = {}
        for (prev_cut, state), (inv_x, md_x) in level.items():
            if should_stop is not None and should_stop():
                raise SearchCancelled("profile stopped")
            pairs = kids.get(state)
            if pairs is None:
                pairs = kids[state] = children(state, m)
            for key in pairs:
                r = key[0]
                iv = inv_x << (slot * r)
                mv = md_x << (slot * (depth + maj_span)) if r < prev_cut else md_x
                acc = nxt.get(key)
                if acc is None:
                    nxt[key] = [iv, mv]
                else:
                    acc[0] += iv
                    acc[1] += mv
        level = nxt

    inv_coeffs = _unpack(sum(a for a, _ in level.values()), slot_bytes, maj_span)
    md = _unpack(sum(b for _, b in level.values()), slot_bytes, maj_span * n)
    # slot maj + maj_span*des comes in QTPoly's (des, maj) term order
    return Profile(QPoly._from_list(inv_coeffs), QTPoly._from_terms(tuple(
        [(i % maj_span, i // maj_span, md[i]) for i in compress(range(len(md)), md)])))


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
    """Least-recently-used cache of profiles, by exact key; see _uncached
    for a miss.  A cancelled call stores nothing."""
    key = (n, patterns)
    prof = _profile_cache.pop(key, None)
    if prof is None:
        prof = _uncached(n, patterns, should_stop)
        if len(_profile_cache) >= _PROFILE_CACHE_SIZE:
            del _profile_cache[next(iter(_profile_cache))]
    # (re)inserted last, so the dict's order is the order of use
    _profile_cache[key] = prof
    return prof


def _uncached(n: int, patterns: tuple[Perm, ...],
              should_stop: Optional[Callable[[], bool]]) -> Profile:
    """The profile of a key that is not in the cache, from a cached mate if
    there is one: reverse-complement, reversal and complement each carry
    Av_n(patterns) onto the avoiders of the image set, so Profile.moved
    serves the key from the mate (each is its own inverse).  Otherwise
    _dp_profile runs on the set or its reverse-complement, whichever has
    more patterns that start with their least or greatest value (the set at
    a tie), so its mates are served from one run.
    """
    images = {tag: image(tag, patterns) for tag in STAT_MOVES}
    for tag, mate_key in images.items():
        mate = _profile_cache.get((n, mate_key)) if mate_key != patterns else None
        if mate is not None:
            return mate.moved(n, tag)
    flipped = images["R180"]
    if _anchored(flipped) > _anchored(patterns):
        return _dp_profile(n, flipped, should_stop).moved(n, "R180")
    return _dp_profile(n, patterns, should_stop)


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
    if stat not in ("inv", "maj"):
        raise ValueError(f"unknown statistic {stat!r}; expected 'inv' or 'maj'")
    prof = profile(n, patterns, should_stop=should_stop)
    return prof.inv_poly if stat == "inv" else prof.majdes_poly.specialize_t1()


def maj_des_poly(n: int, patterns: Iterable[Sequence[int]],
                 should_stop: Optional[Callable[[], bool]] = None) -> QTPoly:
    """Bivariate sum of q^maj t^des over the avoidance set."""
    return profile(n, patterns, should_stop=should_stop).majdes_poly


def stat_multiset(patterns: Iterable[Sequence[int]], stat: str) -> tuple[int, ...]:
    """Sorted multiset of the statistic over the patterns themselves."""
    stats = {"inv": perms.inv, "maj": perms.maj, "des": perms.des}
    if stat not in stats:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {tuple(stats)}")
    fn = stats[stat]
    return tuple(sorted(fn(p) for p in canonical_patterns(patterns)))


# ---------------------------------------------------------------------------
# st-Wilf classification


class EquivalenceReport(NamedTuple):
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
    for name, value in (("ground length", ground_length), ("subset size", subset_size)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    if n_max < ground_length:
        raise ValueError("n_max must be at least the pattern length")
    # refuse before S_k is built; combinations would build it even for size 0
    total = math.comb(math.factorial(ground_length), subset_size)
    if total > max_subsets:
        raise ValueError(
            f"{total} subsets exceed the guard of {max_subsets}; raise max_subsets to force"
        )
    groups: dict[object, list[tuple[Perm, ...]]] = {}
    for subset in combinations(all_perms(ground_length), subset_size) if subset_size else [()]:
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
