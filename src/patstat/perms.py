"""Permutations in one-line notation: statistics, patterns, symmetries, inflation.

A permutation of length n is a plain tuple of the integers 1..n (the empty
tuple is the empty permutation).  Everything here is a pure function on
immutable values, so the module is safe to use from any number of threads.

Text form: a comma-free digit string for n <= 9 ("41523"), comma-separated
otherwise ("10,1,2,...").  The empty permutation prints as "ε".
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]

EMPTY: Perm = ()

#: The eight rigid motions of the square diagram: rotations are
#: counterclockwise, reflections are keyed by the slope of their axis
#: ("rinf" = vertical axis = reversal, "r0" = horizontal axis = complement).
#: Each is (inverse?, reverse?, complement?), applied in that order.
_STEPS: dict[str, tuple[bool, bool, bool]] = {
    "R0": (False, False, False),
    "R90": (True, True, False),
    "R180": (False, True, True),
    "R270": (True, False, True),
    "r-1": (True, True, True),
    "r0": (False, False, True),
    "r1": (True, False, False),
    "rinf": (False, True, False),
}
SYMMETRIES: tuple[str, ...] = tuple(_STEPS)

#: The inverse keeps inv, and reversal and complement each send it to
#: C(n,2) - inv: a symmetry keeps inv iff it takes both or neither.
INV_PRESERVING: tuple[str, ...] = tuple(f for f, (_, r, c) in _STEPS.items() if r == c)
INV_REVERSING: tuple[str, ...] = tuple(f for f, (_, r, c) in _STEPS.items() if r != c)

#: How reverse-complement ("R180"), reversal ("rinf") and complement ("r0") move
#: (maj, des) at length n: R180 keeps des and sends maj to n*des - maj; r0 sends maj
#: to C(n,2) - maj and des to n-1-des (0 at n = 0); rinf is r0 after R180.  Each is
#: affine, and des moves without maj (engine.Profile.moved relies on both).  inv moves
#: by INV_REVERSING and QPoly.reverse(n); the inverse keeps inv but not maj or des.
STAT_MOVES: dict[str, Callable[[int, int, int], tuple[int, int]]] = {
    "R180": lambda n, maj, des: (n * des - maj, des),
    "rinf": lambda n, maj, des: STAT_MOVES["r0"](n, *STAT_MOVES["R180"](n, maj, des)),
    "r0": lambda n, maj, des: (math.comb(n, 2) - maj, max(n - 1, 0) - des),
}

_TAG_ALIASES = {"r∞": "rinf", "rINF": "rinf"}

#: No symmetry but R0 fixes this permutation, so its image names the symmetry.
_SAMPLE: Perm = (1, 3, 4, 2)


def is_perm(values: Sequence[int]) -> bool:
    """Check that values is a bijection on {1, ..., n}.

    >>> is_perm((4, 1, 5, 2, 3)), is_perm((1, 1)), is_perm(())
    (True, False, True)
    """
    n = len(values)
    seen = 0
    for v in values:
        if not 1 <= v <= n:
            return False
        bit = 1 << (v - 1)
        if seen & bit:
            return False
        seen |= bit
    return True


def perm(values: Iterable[int]) -> Perm:
    """Build a permutation tuple, validating the one-line notation."""
    p = tuple(values)
    if not is_perm(p):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def parse_perm(text: str) -> Perm:
    """Parse "41523", "10,1,2,...", "ε" or "" into a permutation tuple."""
    text = text.strip()
    if text in ("", "ε", "eps", "()"):
        return EMPTY
    if "," in text:
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse permutation {text!r}") from None
        return perm(values)
    if not text.isdigit():
        raise ValueError(f"cannot parse permutation {text!r}")
    return perm(int(ch) for ch in text)


def format_perm(p: Perm) -> str:
    """One-line text form: digits for n <= 9, comma-separated otherwise."""
    if not p:
        return "ε"
    # one %-format of the tuple is about twice as fast as a str per entry
    return ("%d" * len(p) if len(p) <= 9 else ",".join(["%d"] * len(p))) % tuple(p)


def parse_pattern_set(text: str) -> tuple[Perm, ...]:
    """Parse a comma-separated pattern list such as "132,213"; "" is the empty
    list, and a text that is no such list but one permutation in comma form
    ("10,1,2,...,9") is that pattern.  An empty item is refused: every
    permutation contains the empty pattern, which is written "ε", so a stray
    comma would leave no avoiders."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"empty item in pattern list {text!r} (the empty pattern is ε)")
    try:
        return tuple(parse_perm(part) for part in parts)
    except ValueError as err:
        try:
            return (parse_perm(text),)
        except ValueError:
            raise err from None


def format_pattern_set(patterns: Iterable[Perm]) -> str:
    return ",".join(format_perm(p) for p in sorted(patterns))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# statistics


def inversion_set(p: Sequence[int]) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j), 1-based, with i < j and p(i) > p(j).

    >>> sorted(inversion_set((4, 1, 5, 2, 3)))
    [(1, 2), (1, 4), (1, 5), (3, 4), (3, 5)]
    """
    n = len(p)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if p[i - 1] > p[j - 1]
    )


def inv(p: Sequence[int]) -> int:
    """Inversion number: the number of out-of-order pairs."""
    n = len(p)
    return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))


def descent_set(p: Sequence[int]) -> frozenset[int]:
    """Positions i (1-based) with p(i) > p(i+1).

    >>> sorted(descent_set((4, 1, 5, 2, 3)))
    [1, 3]
    """
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def des(p: Sequence[int]) -> int:
    """Descent number."""
    return sum(p[i - 1] > p[i] for i in range(1, len(p)))


def maj(p: Sequence[int]) -> int:
    """Major index: the sum of the descent positions."""
    return sum(i for i in range(1, len(p)) if p[i - 1] > p[i])


# ---------------------------------------------------------------------------
# pattern containment


@lru_cache(maxsize=256)
def _match_plan(pattern: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """For each j, the indices t < j of the nearest entries below and above
    pattern[j] in value (-1 if none): a match maps pattern[:j] to values in
    the same order, so those two entries bound the value that can match
    pattern[j].  The engine reads the same table for the cuts of its
    partial copies, which grow with the values they stand for.

    Raises ValueError for a pattern with a repeated value, which no
    sequence of distinct values matches.
    """
    if len(set(pattern)) < len(pattern):
        raise ValueError(f"pattern {pattern} repeats a value")
    plan = []
    for j, v in enumerate(pattern):
        below = [t for t in range(j) if pattern[t] < v]
        above = [t for t in range(j) if pattern[t] > v]
        plan.append((max(below, key=pattern.__getitem__, default=-1),
                     min(above, key=pattern.__getitem__, default=-1)))
    return tuple(plan)


def contains(p: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of p is order isomorphic to pattern; the
    values of p must be distinct.

    Depth-first subsequence matching from one explicit stack of chosen
    positions; the entries chosen so far bound the value that can match the
    next pattern entry, inclusively, so each candidate costs two comparisons
    and an unbounded side admits -inf or inf.  Every
    permutation contains the empty pattern; a pattern with a repeated value
    raises ValueError.

    >>> contains((4, 3, 6, 1, 5, 2), (1, 3, 2))
    True
    >>> contains((1, 2, 3, 4, 5), (3, 2, 1))
    False
    """
    k = len(pattern)
    if k == 0:
        return True
    plan = _match_plan(tuple(pattern))
    n = len(p)
    if k > n:
        return False
    at = [0] * k  # the positions in p matched to pattern[:j]
    floor, ceiling = -math.inf, math.inf  # the bounds of an unbounded side
    j = i = 0
    while True:
        lo, hi = plan[j]
        low = p[at[lo]] if lo >= 0 else floor
        high = p[at[hi]] if hi >= 0 else ceiling
        last = n - k + j
        while i <= last and not low <= p[i] <= high:
            i += 1
        if i > last:
            # nothing left matches pattern[j]: move the match of pattern[j - 1] on
            if j == 0:
                return False
            j -= 1
            i = at[j] + 1
            continue
        at[j] = i
        j += 1
        if j == k:
            return True
        i += 1


def avoids_all(p: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    """True iff p contains none of the given patterns."""
    return not any(contains(p, pat) for pat in patterns)


# ---------------------------------------------------------------------------
# diagram symmetries


def reverse(p: Perm) -> Perm:
    """Reversal of the one-line notation (reflection in the vertical axis)."""
    return p[::-1]


def complement(p: Perm) -> Perm:
    """Complement a_i -> n + 1 - a_i (reflection in the horizontal axis)."""
    n = len(p)
    return tuple(n + 1 - v for v in p)


def inverse(p: Perm) -> Perm:
    """Group-theoretic inverse (reflection in the main diagonal)."""
    out = [0] * len(p)
    for i, v in enumerate(p, 1):
        out[v - 1] = i
    return tuple(out)


def normalize_symmetry(tag: str) -> str:
    tag = _TAG_ALIASES.get(tag, tag)
    if tag not in _STEPS:
        raise ValueError(f"unknown symmetry {tag!r}; expected one of {SYMMETRIES}")
    return tag


def apply_symmetry(tag: str, p: Perm) -> Perm:
    """Apply one of the eight diagram symmetries to a permutation.

    >>> apply_symmetry("rinf", (4, 1, 5, 2, 3))
    (3, 2, 5, 1, 4)
    >>> apply_symmetry("R90", (1, 3, 2))
    (2, 3, 1)
    """
    inv_step, rev_step, comp_step = _STEPS[normalize_symmetry(tag)]
    p = tuple(p)
    if inv_step:
        p = inverse(p)
    if rev_step:
        p = p[::-1]
    return complement(p) if comp_step else p


def image(tag: str, patterns: Iterable[Perm]) -> tuple[Perm, ...]:
    """The sorted image of a pattern set under one symmetry."""
    return tuple(sorted(apply_symmetry(tag, p) for p in patterns))


def orbit(patterns: Iterable[Perm], tags: Iterable[str]) -> tuple[tuple[Perm, ...], ...]:
    """The sorted set and its image under each tag, each once, sorted: the
    whole orbit when tags with R0 form a group, as INV_PRESERVING does.

    >>> orbit(((1, 3, 2),), INV_PRESERVING)
    (((1, 3, 2),), ((2, 1, 3),))
    """
    patterns = tuple(patterns)
    return tuple(sorted({image(tag, patterns) for tag in ("R0", *tags)}))


@lru_cache(maxsize=None)
def compose_symmetries(outer: str, inner: str) -> str:
    """The tag h with apply(h, p) == apply(outer, apply(inner, p)) for all p."""
    image = apply_symmetry(outer, apply_symmetry(inner, _SAMPLE))
    return next(tag for tag in _STEPS if apply_symmetry(tag, _SAMPLE) == image)


# ---------------------------------------------------------------------------
# inflation and named families


def inflate(base: Perm, components: Sequence[Perm]) -> Perm:
    """Inflate each point of base's diagram into a block.

    The point (i, b_i) is replaced by a block order isomorphic to
    components[i-1]; empty components delete their point.

    >>> inflate((1, 3, 2), ((2, 1), (1,), (2, 1, 3)))
    (2, 1, 6, 4, 3, 5)
    >>> inflate((1, 3, 2), ((), (1,), (2, 1, 3)))
    (4, 2, 1, 3)
    """
    if len(components) != len(base):
        raise ValueError(
            f"inflation needs {len(base)} components, got {len(components)}"
        )
    # a block's values start above the blocks of every lower base entry
    offset = [0] * len(base)
    total = 0
    for i in sorted(range(len(base)), key=base.__getitem__):
        offset[i] = total
        total += len(components[i])
    out: list[int] = []
    for comp, off in zip(components, offset):
        out.extend(off + v for v in comp)
    return tuple(out)


def increasing(n: int) -> Perm:
    """1 2 ... n."""
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    """n ... 2 1."""
    return tuple(range(n, 0, -1))


def max_first(n: int) -> Perm:
    """n 1 2 ... (n-1): the maximum prepended to an increasing run."""
    if n < 1:
        raise ValueError("max-first needs n >= 1")
    return (n,) + tuple(range(1, n))


def min_last(n: int) -> Perm:
    """2 3 ... n 1: an increasing run followed by the minimum."""
    if n < 1:
        raise ValueError("min-last needs n >= 1")
    return tuple(range(2, n + 1)) + (1,)


def swap_last_two(n: int) -> Perm:
    """1 2 ... (n-2) n (n-1): increasing with the final pair exchanged."""
    if n < 2:
        raise ValueError("swap-last-two needs n >= 2")
    return tuple(range(1, n - 1)) + (n, n - 1)


_FAMILIES = {
    "increasing": increasing,
    "decreasing": decreasing,
    "max-first": max_first,
    "min-last": min_last,
    "swap-last-two": swap_last_two,
}


def named_family(name: str, n: int) -> Perm:
    """Construct a member of one of the named monotone-block families."""
    try:
        builder = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}")
    if n < 0:
        raise ValueError("length must be nonnegative")
    return builder(n)


def left_right_maxima(p: Perm) -> tuple[int, ...]:
    """1-based positions whose entry exceeds everything before it."""
    out = []
    best = 0
    for i, v in enumerate(p, 1):
        if v > best:
            out.append(i)
            best = v
    return tuple(out)


def right_left_minima(p: Perm) -> tuple[int, ...]:
    """1-based positions whose entry is below everything after it."""
    out = []
    best = len(p) + 1
    for i in range(len(p), 0, -1):
        if p[i - 1] < best:
            out.append(i)
            best = p[i - 1]
    return tuple(reversed(out))
