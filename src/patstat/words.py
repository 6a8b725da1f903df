"""Binary words as lattice paths, Ferrers/Durfee decompositions, the
run-rearranging maj-to-inv bijection on binary words, and the explicit
descent-preserving bijections between avoidance classes and word or
partition sets.

A word is a tuple over {0, 1}; reading 0 as a north step and 1 as an east
step turns it into a lattice path whose Ferrers diagram (the boxes
northwest of the path inside the bounding rectangle) carries the word's
statistics: the area is the inversion number and the Durfee square side
matches the descent number of the preimage under the rearrangement map.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .perms import (
    Perm,
    avoids_all,
    des,
    descent_set,
    format_perm,
    inv,
    left_right_maxima,
    maj,
    parse_perm,
    right_left_minima,
)

Word = tuple[int, ...]
Partition = tuple[int, ...]


def word(letters: Iterable[int]) -> Word:
    w = tuple(letters)
    if any(x not in (0, 1) for x in w):
        raise ValueError(f"word letters must be 0 or 1: {w}")
    return w


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("", "ε", "eps"):
        return ()
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"cannot parse word {text!r}: its letters must be 0 or 1")
    return tuple(map(int, text))


def format_word(w: Word) -> str:
    return "".join(str(x) for x in w) if w else "ε"


def format_partition(parts: Sequence[int]) -> str:
    return ",".join(str(x) for x in parts) if parts else "-"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "-", "()"):
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}: each part must be an integer") from None


class WordStats(NamedTuple):
    inv: int
    maj: int
    des: int
    descents: frozenset[int]


def word_stats(w: Word) -> WordStats:
    """Inversions, major index, and descents of a 0/1 word.

    Position i is a descent exactly when letter i exceeds letter i+1, so
    only a "10" factor descends; an inversion is a 1 before a 0.
    """
    ones = 0
    inv = 0
    for x in w:
        if x == 1:
            ones += 1
        else:
            inv += ones
    descents = descent_set(w)
    return WordStats(inv, sum(descents), len(descents), descents)


# ---------------------------------------------------------------------------
# Ferrers diagram and Durfee square


def _shape(w: Word) -> tuple[list[int], int]:
    """All row lengths of the diagram, top row first, zero rows included, and
    the Durfee side.  One row per north step; its length is the number of
    east steps taken before that north step."""
    rows = []
    ones = 0
    for x in w:
        if x == 1:
            ones += 1
        else:
            rows.append(ones)
    rows.reverse()
    d = 0
    while d < len(rows) and rows[d] > d:
        d += 1
    return rows, d


def decomposition(w: Word) -> tuple[Partition, int, Partition, Partition]:
    """(lambda_of(w), durfee(w), beta_of(w), rho_of(w)) from one pass over w."""
    rows, d = _shape(w)
    # column j > d holds the top rows that reach it; they shorten as j grows
    rho = []
    reach = d
    for j in range(d + 1, len(w) - len(rows) + 1):  # one column per east step
        while reach and rows[reach - 1] < j:
            reach -= 1
        rho.append(reach)
    return tuple(r for r in rows if r), d, tuple(rows[d:]), tuple(rho)


def lambda_of(w: Word) -> Partition:
    """The diagram read as a partition, zero rows dropped; its size equals
    the inversion number of the word."""
    return decomposition(w)[0]


def durfee(w: Word) -> int:
    """Side of the largest square anchored at the diagram's northwest corner."""
    return _shape(w)[1]


def beta_of(w: Word) -> Partition:
    """Rows below the Durfee square, one per north step below it, zeros kept."""
    return decomposition(w)[2]


def rho_of(w: Word) -> Partition:
    """Columns right of the Durfee square, one per east step beyond its span,
    zeros kept."""
    return decomposition(w)[3]


def from_durfee(d: int, beta: Sequence[int], rho: Sequence[int]) -> Word:
    """Rebuild the unique word with the given Durfee square side, rows below,
    and columns right.  Inverse of the (durfee, beta_of, rho_of) triple."""
    if d < 0:
        raise ValueError("square side must be nonnegative")
    for name, parts in (("beta", beta), ("rho", rho)):
        if any(p < 0 or p > d for p in parts):
            raise ValueError(f"{name} parts must lie in 0..{d}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"{name} must be weakly decreasing")
    rows = [d + sum(1 for p in rho if p >= i) for i in range(1, d + 1)]
    rows.extend(beta)
    n_ones = d + len(rho)
    out: list[int] = []
    prev = 0
    for r in reversed(rows):
        out.extend([1] * (r - prev))
        out.append(0)
        prev = r
    out.extend([1] * (n_ones - prev))
    return tuple(out)


# ---------------------------------------------------------------------------
# the run-rearranging bijection (maj goes to inv)


def _run_decomposition(v: Word) -> tuple[list[int], list[int]]:
    """Split v into 0^m0 1^n0 0^m1 1^n1 ... 0^mk 1^nk with the interior runs
    positive; returns (ms, ns) of equal length k+1."""
    # the runs alternate, so an empty run of zeros goes before a leading 1
    # (or stands for the empty word) and an empty run of ones closes the list
    lengths = [0] * (not v or v[0] == 1) + [len(list(run)) for _, run in groupby(v)]
    if len(lengths) % 2:
        lengths.append(0)
    return lengths[::2], lengths[1::2]


def foata(v: Word) -> Word:
    """Rearrange the runs of a 0/1 word so that the major index becomes the
    inversion number; length is preserved and the map is a bijection.

    With v = 0^m0 1^n0 0^m1 1^n1 ... 0^mk 1^nk the image is
    0^(mk-1) 1 0^(m(k-1)-1) 1 ... 0^(m1-1) 1 0^m0 1^(n0-1) 0 ... 1^(n(k-1)-1) 0 1^nk.
    """
    ms, ns = _run_decomposition(word(v))
    k = len(ms) - 1
    out: list[int] = []
    for i in range(k, 0, -1):
        out.extend([0] * (ms[i] - 1))
        out.append(1)
    out.extend([0] * ms[0])
    for i in range(k):
        out.extend([1] * (ns[i] - 1))
        out.append(0)
    out.extend([1] * ns[k])
    return tuple(out)


def foata_inverse(w: Word) -> Word:
    """Recover the unique preimage of w under the run rearrangement.

    The number of descents of the preimage equals the Durfee side of w,
    which pins down how many leading ones act as run separators.
    """
    w = word(w)
    k = durfee(w)
    if k == 0:
        return w
    # w = 0^(mk-1) 1 ... 0^(m1-1) 1, then the tail 0^m0 1^(n0-1) 0 ... 1^(n(k-1)-1) 0 1^nk
    ms = [0] * (k + 1)
    i = 0
    for sep in range(k, 0, -1):
        j = w.index(1, i)
        ms[sep] = j - i + 1
        i = j + 1
    tail = w[i:]
    ms[0] = tail.count(0) - k
    if ms[0] < 0:
        raise AssertionError("word escaped the image of the rearrangement")
    rest = tail[ms[0]:]
    zeros = [-1] + [idx for idx, x in enumerate(rest) if x == 0]
    ns = [b - a for a, b in zip(zeros, zeros[1:])] + [len(rest) - 1 - zeros[-1]]
    out: list[int] = []
    for m, n1 in zip(ms, ns):
        out.extend([0] * m)
        out.extend([1] * n1)
    return tuple(out)


def in_start_one_set(w: Word) -> bool:
    """Empty or starting with a 1."""
    return not w or w[0] == 1


def in_end_zero_set(w: Word) -> bool:
    """Empty or ending with a 0."""
    return not w or w[-1] == 0


def in_sparse_set(w: Word) -> bool:
    """Empty, or ending in 0 with no two consecutive 1s."""
    if not w:
        return True
    if w[-1] != 0:
        return False
    return all(not (w[i] == 1 and w[i + 1] == 1) for i in range(len(w) - 1))


def _rows_below_shorter(w: Word) -> bool:
    """Every row below the Durfee square is shorter than its side."""
    _, d, beta, _ = decomposition(w)
    return all(p < d for p in beta)


# ---------------------------------------------------------------------------
# descent-preserving bijections onto word sets


def _avoiding(p: Perm, patterns: tuple[Perm, ...]) -> Perm:
    """p itself if it avoids every pattern, else ValueError naming them."""
    if avoids_all(p, patterns):
        return p
    names = [format_perm(q) for q in patterns]
    listed = ", ".join(names[:-1]) + " or " + names[-1] if len(names) > 1 else names[0]
    raise ValueError(f"{format_perm(p)} contains {listed}")


def to_word_231_321(p: Perm) -> Word:
    """Indicator word of the left-right maxima; starts with 1 when nonempty
    and preserves the descent set on the avoiders of 231 and 321."""
    maxima = set(left_right_maxima(_avoiding(p, BIJECTIONS["231-321"].patterns)))
    return tuple(1 if i in maxima else 0 for i in range(1, len(p) + 1))


def from_word_231_321(w: Word) -> Perm:
    """Rebuild the avoider from its left-right maxima indicator word."""
    w = word(w)
    if not in_start_one_set(w):
        raise ValueError("word must be empty or start with 1")
    out: list[int] = []
    top = 0
    starts = [i for i, x in enumerate(w) if x == 1]
    for b, start in enumerate(starts):
        end = starts[b + 1] if b + 1 < len(starts) else len(w)
        size = end - start
        out.append(top + size)
        out.extend(range(top + 1, top + size))
        top += size
    return tuple(out)


def _zero_right_left_minima(p: Perm) -> Word:
    minima = set(right_left_minima(p))
    return tuple(0 if i in minima else 1 for i in range(1, len(p) + 1))


def to_word_312_321(p: Perm) -> Word:
    """Zero out the right-left minima; ends with 0 when nonempty and
    preserves the descent set on the avoiders of 312 and 321."""
    return _zero_right_left_minima(_avoiding(p, BIJECTIONS["312-321"].patterns))


def from_word_312_321(w: Word) -> Perm:
    w = word(w)
    if not in_end_zero_set(w):
        raise ValueError("word must be empty or end with 0")
    out: list[int] = []
    base = 0
    block = 0
    for x in w:
        block += 1
        if x == 0:
            out.extend(range(base + 2, base + block + 1))
            out.append(base + 1)
            base += block
            block = 0
    return tuple(out)


def to_word_231_312_321(p: Perm) -> Word:
    """Zero out the right-left minima; lands in the words with no adjacent
    ones that end in 0, preserving the descent set on the avoiders of
    231, 312 and 321."""
    return _zero_right_left_minima(_avoiding(p, BIJECTIONS["231-312-321"].patterns))


def from_word_231_312_321(w: Word) -> Perm:
    w = word(w)
    if not in_sparse_set(w):
        raise ValueError("word must avoid adjacent ones and end with 0")
    # the forward map is the one of 312-321 restricted to a smaller set
    return from_word_312_321(w)


# ---------------------------------------------------------------------------
# partition bijections (distinct parts, each at most n-1)


def is_distinct_partition(parts: Sequence[int], bound: int) -> bool:
    """Strictly decreasing positive parts, none exceeding the bound."""
    return all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    ) and all(1 <= p <= bound for p in parts)


def descent_partition_132_213(p: Perm) -> Partition:
    """Descent set in decreasing order; on the avoiders of 132 and 213 this
    is a bijection onto distinct-part partitions bounded by n-1, carrying
    des to the number of parts and maj to the size."""
    p = _avoiding(p, BIJECTIONS["132-213-partition"].patterns)
    return tuple(sorted(descent_set(p), reverse=True))


def _check_partition(parts: Sequence[int], n: int) -> None:
    """Refuse a negative length, and parts that are not a distinct-part
    partition bounded by n-1."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if not is_distinct_partition(parts, n - 1):
        raise ValueError(f"{parts} is not a distinct-part partition bounded by {n - 1}")


def from_descent_partition_132_213(parts: Sequence[int], n: int) -> Perm:
    _check_partition(parts, n)
    boundaries = sorted(parts)
    out: list[int] = []
    top = n
    prev = 0
    for b in boundaries + [n]:
        size = b - prev
        out.extend(range(top - size + 1, top + 1))
        top -= size
        prev = b
    return tuple(out)


def prefix_partition_132_231(p: Perm) -> Partition:
    """Decreasing prefix before the entry 1, each entry lowered by one; on
    the avoiders of 132 and 231 this is a bijection onto distinct-part
    partitions bounded by n-1, carrying inv to the size."""
    p = _avoiding(p, BIJECTIONS["132-231-partition"].patterns)
    return tuple(v - 1 for v in p[:p.index(1)]) if p else ()


def from_prefix_partition_132_231(parts: Sequence[int], n: int) -> Perm:
    _check_partition(parts, n)
    if n == 0:
        return ()
    prefix = [x + 1 for x in parts]
    used = set(prefix) | {1}
    rest = [v for v in range(2, n + 1) if v not in used]
    return tuple(prefix + [1] + rest)


# ---------------------------------------------------------------------------
# the descent-preserving map between the 132- and 231-avoiders


def map_132_to_231(p: Perm) -> Perm:
    """Descent-preserving bijection from the 132-avoiders onto the
    231-avoiders, defined recursively on the position of the maximum."""
    return _map_132(_avoiding(p, BIJECTIONS["132-to-231"].patterns))


def _map_132(p: Perm) -> Perm:
    if not p:
        return ()
    n = len(p)
    pos = p.index(n)
    right = p[pos + 1 :]
    k = len(right)
    left_std = tuple(v - k for v in p[:pos])
    fl = _map_132(left_std)
    fr = _map_132(right)
    return fl + (n,) + tuple(v + pos for v in fr)


def map_231_to_132(p: Perm) -> Perm:
    """Inverse of map_132_to_231."""
    return _map_231(_avoiding(p, BIJECTIONS["132-to-231"].onto))


def _map_231(p: Perm) -> Perm:
    if not p:
        return ()
    n = len(p)
    pos = p.index(n)
    left = p[:pos]
    right_std = tuple(v - pos for v in p[pos + 1 :])
    gl = _map_231(left)
    gr = _map_231(right_std)
    k = len(right_std)
    return tuple(v + k for v in gl) + (n,) + gr


# ---------------------------------------------------------------------------
# the bijections by name


def _same_descents(p: Perm, image: Sequence[int]) -> bool:
    """The image, a word or a permutation, descends where p does."""
    return descent_set(image) == descent_set(p)


class Bijection(NamedTuple):
    """An explicit bijection from Av_n(patterns) and its inverse.  It lands on
    the 0/1 words that pass `words`, on the avoiders of `onto`, or else on
    the distinct-part partitions below n, whose inverse also takes n.
    carries(p, image) tells whether the image keeps what it should of p, and
    foata(w), for a word map, whether w is in the run rearrangement's image
    of its word set."""

    patterns: tuple[Perm, ...]
    map: Callable
    inverse: Callable
    carries: Callable[[Perm, Sequence[int]], bool]
    words: Optional[Callable[[Word], bool]] = None
    foata: Optional[Callable[[Word], bool]] = None
    onto: Optional[tuple[Perm, ...]] = None

    @property
    def needs_n(self) -> bool:
        return self.words is None and self.onto is None

    @property
    def text(self) -> tuple[Callable[[str], Sequence[int]], Callable[[Sequence[int]], str]]:
        """How an image is parsed and printed."""
        return ((parse_word, format_word) if self.words else (parse_perm, format_perm) if self.onto
                else (parse_partition, format_partition))

    def back(self, image: Sequence[int], n: int) -> Perm:
        """The preimage of the image of a permutation of length n."""
        return self.inverse(image, n) if self.needs_n else self.inverse(image)


#: The explicit bijections, keyed by their command line names.  Each word
#: bijection's image is counted by the series "gf-<name>".
BIJECTIONS: dict[str, Bijection] = {
    "231-321": Bijection(((2, 3, 1), (3, 2, 1)), to_word_231_321, from_word_231_321,
                         _same_descents, words=in_start_one_set, foata=_rows_below_shorter),
    "312-321": Bijection(((3, 1, 2), (3, 2, 1)), to_word_312_321, from_word_312_321,
                         _same_descents, words=in_end_zero_set, foata=in_end_zero_set),
    "231-312-321": Bijection(((2, 3, 1), (3, 1, 2), (3, 2, 1)), to_word_231_312_321,
                             from_word_231_312_321, _same_descents, words=in_sparse_set,
                             foata=lambda w: not rho_of(w)),
    "132-213-partition": Bijection(((1, 3, 2), (2, 1, 3)), descent_partition_132_213,
                                   from_descent_partition_132_213,
                                   lambda p, lam: sum(lam) == maj(p) and len(lam) == des(p)),
    "132-231-partition": Bijection(((1, 3, 2), (2, 3, 1)), prefix_partition_132_231,
                                   from_prefix_partition_132_231,
                                   lambda p, lam: sum(lam) == inv(p)),
    "132-to-231": Bijection(((1, 3, 2),), map_132_to_231, map_231_to_132, _same_descents,
                            onto=((2, 3, 1),)),
}
