"""Closed forms, recursions, and series identities for avoidance statistics.

Everything here is computed from the formulas alone, independently of the
enumeration engine, so each side can be checked against the other.  The
formula catalog is keyed by kebab-case identifiers naming the statistic and
the avoided patterns; each entry also records the other pattern sets whose
polynomial the formula is known to match.

No polynomial in q is ever divided by another: the two formulas that are
naturally stated as quotients are implemented through their geometric-sum expansions
((q^(k(n-k+1)) - q^k)/(q^k - 1) as sum_{j=1..n-k} q^(jk), and
(n - [n]_q)/(1 - q) as sum_{i=1..n-1} [i]_q).
"""

from __future__ import annotations

import math
from operator import add
from typing import Callable, Iterable, NamedTuple, Optional, Union

from .engine import SearchCancelled
from .perms import INV_PRESERVING, Perm, orbit
from .polynomials import QPoly, QTPoly, TruncatedSeries, _check_all, q_int


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n)/(n + 1)."""
    if n < 0:
        raise ValueError("catalan needs n >= 0")
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """Fibonacci numbers with F_0 = F_1 = 1."""
    if n < 0:
        raise ValueError("fibonacci needs n >= 0")
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# q-Catalan recursions

def ct_poly(n: int) -> QPoly:
    """Reversed Carlitz-Riordan q-Catalan polynomials.

    c_0 = 1 and c_n = sum_{k=0}^{n-1} q^k c_k c_{n-1-k}.
    """
    if n < 0:
        raise ValueError("ct_poly needs n >= 0")
    table = [QPoly.one()]
    for m in range(1, n + 1):
        acc = QPoly.zero()
        for k in range(m):
            acc = acc + QPoly.monomial(k) * table[k] * table[m - 1 - k]
        table.append(acc)
    return table[n]


def c_poly(n: int) -> QPoly:
    """Carlitz-Riordan q-Catalan polynomials, the coefficient reversal of
    ct_poly within degree C(n,2)."""
    return ct_poly(n).reverse(n)


# The inversion polynomial over the 312-avoiders obeys the same recursion,
# I_n = sum_{k=0}^{n-1} q^k I_k I_{n-1-k} with I_0 = 1, so it is ct_poly itself.
i312_recursive = ct_poly


def i321_conjectured(n: int) -> QPoly:
    """Inversion polynomial over the 321-avoiders via the recursion
    I_n = I_{n-1} + sum_{k=0}^{n-2} q^(k+1) I_k I_{n-1-k}, I_0 = 1.

    Stated as a conjecture where this catalog originates and proved in
    later literature; brute force stays authoritative in the tests.
    """
    if n < 0:
        raise ValueError("i321_conjectured needs n >= 0")
    table = [QPoly.one()]
    for m in range(1, n + 1):
        acc = table[m - 1]
        for k in range(m - 1):
            acc = acc + QPoly.monomial(k + 1) * table[k] * table[m - 1 - k]
        table.append(acc)
    return table[n]


def m312_recursive(n: int) -> QTPoly:
    """Bivariate (maj, des) polynomial over the 312-avoiders via
    M_n(q, t) = M_{n-1}(q, qt) + sum_{k=1}^{n-1} q^k t M_k(q, t) M_{n-1-k}(q, q^(k+1) t),
    with M_0 = 1."""
    if n < 0:
        raise ValueError("m312_recursive needs n >= 0")
    table = [QTPoly.one()]
    for m in range(1, n + 1):
        acc = table[m - 1].substitute_t_scale(1)
        for k in range(1, m):
            term = (
                QTPoly.monomial(k, 1)
                * table[k]
                * table[m - 1 - k].substitute_t_scale(k + 1)
            )
            acc = acc + term
        table.append(acc)
    return table[n]


# ---------------------------------------------------------------------------
# coefficient parity


class ParityProfile(NamedTuple):
    """Constant term plus the parity of every higher coefficient."""

    constant: int
    odd_exponents: tuple[int, ...]
    even_exponents: tuple[int, ...]

    @property
    def holds(self) -> bool:
        """Constant term 1 and every higher coefficient even."""
        return self.constant == 1 and not self.odd_exponents


def parity_profile(p: QPoly) -> ParityProfile:
    odd = tuple(i for i, c in enumerate(p.coeffs) if i >= 1 and c % 2 == 1)
    even = tuple(i for i, c in enumerate(p.coeffs) if i >= 1 and c % 2 == 0)
    return ParityProfile(p[0], odd, even)


# ---------------------------------------------------------------------------
# closed-form catalog

PolyLike = Union[QPoly, QTPoly]


def _q_sum(terms: Iterable[tuple[int, int]]) -> QPoly:
    """The sum of c q^e over the (e, c) pairs, built once."""
    terms = list(terms)
    out = [0] * (max((e for e, _ in terms), default=-1) + 1)
    for e, c in terms:
        out[e] += c
    return QPoly._from_list(out)


def _inv_231_321(n: int) -> QPoly:
    return QPoly((1, 1)) ** (n - 1)  # (1 + q)^(n - 1)


def _inv_132_231(n: int) -> QPoly:
    out = QPoly.one()
    for i in range(1, n):
        out = out * (QPoly.one() + QPoly.monomial(i))
    return out


def _inv_132_213(n: int) -> QPoly:
    table = [QPoly.one()]
    for m in range(1, n + 1):
        acc = QPoly.zero()
        for k in range(1, m + 1):
            acc = acc + QPoly.monomial(k * (m - k)) * table[m - k]
        table.append(acc)
    return table[n]


def _maj_132_213(n: int) -> QTPoly:
    out = QTPoly.one()
    for i in range(1, n):
        out = out * (QTPoly.one() + QTPoly.monomial(i, 1))
    return out


class FormulaEntry(NamedTuple):
    """One catalog entry: builder, result kind, and every pattern set whose
    polynomial the formula matches."""

    build: Callable[[int], PolyLike]
    kind: str  # "q" or "qt"
    pattern_sets: tuple[tuple[Perm, ...], ...]


def _inv_row(build: Callable[[int], QPoly], *pats: Perm) -> FormulaEntry:
    # the inv-preserving symmetries keep the inv polynomial, so an inv entry
    # matches the whole orbit under them of the set its id names
    return FormulaEntry(build, "q", orbit(pats, INV_PRESERVING))


def _maj_row(build: Callable[[int], QTPoly], *sets: tuple[Perm, ...]) -> FormulaEntry:
    return FormulaEntry(build, "qt", tuple(tuple(sorted(s)) for s in sets))


# Each sum form is one expression of its terms: (exponent, coefficient) pairs
# in q, or (q_exp, t_exp, coeff) triples that QTPoly sums in one pass.
CLOSED_FORMS: dict[str, FormulaEntry] = {
    "inv-231-321": _inv_row(_inv_231_321, (2, 3, 1), (3, 2, 1)),
    "inv-132-231": _inv_row(_inv_132_231, (1, 3, 2), (2, 3, 1)),
    "inv-132-321": _inv_row(
        lambda n: _q_sum([(0, 1)] + [(j * k, 1) for k in range(1, n) for j in range(1, n - k + 1)]),
        (1, 3, 2), (3, 2, 1)),
    "inv-132-213": _inv_row(_inv_132_213, (1, 3, 2), (2, 1, 3)),
    "maj-132-213": _maj_row(
        _maj_132_213, ((1, 3, 2), (2, 1, 3)), ((1, 3, 2), (3, 1, 2)), ((2, 1, 3), (2, 3, 1))),
    "maj-132-231": _maj_row(
        lambda n: QTPoly([(math.comb(k + 1, 2), k, math.comb(n - 1, k)) for k in range(n)]),
        ((1, 3, 2), (2, 3, 1))),
    # the sum of [i]_q over i < n has n - 1 - e at q^e
    "maj-132-321": _maj_row(
        lambda n: QTPoly([(0, 0, 1)] + [(e + 1, 1, n - 1 - e) for e in range(n - 1)]),
        ((1, 3, 2), (3, 2, 1))),
    "maj-213-321": _maj_row(
        lambda n: QTPoly([(0, 0, 1)] + [(k, 1, k) for k in range(1, n)]), ((2, 1, 3), (3, 2, 1))),
    "inv-132-213-321": _inv_row(
        lambda n: _q_sum((k * (n - k), 1) for k in range(1, n + 1)),
        (1, 3, 2), (2, 1, 3), (3, 2, 1)),
    "inv-132-231-312": _inv_row(
        lambda n: _q_sum((math.comb(k, 2), 1) for k in range(1, n + 1)),
        (1, 3, 2), (2, 3, 1), (3, 1, 2)),
    "inv-132-231-321": _inv_row(q_int, (1, 3, 2), (2, 3, 1), (3, 2, 1)),
    "inv-231-312-321": _inv_row(
        lambda n: _q_sum((k, math.comb(n - k, k)) for k in range(n + 1)),
        (2, 3, 1), (3, 1, 2), (3, 2, 1)),
    "maj-triple-A": _maj_row(
        lambda n: QTPoly([(0, 0, 1)] + [(e, 1, 1) for e in range(1, n)]),
        ((1, 3, 2), (2, 1, 3), (3, 2, 1)),
        ((1, 3, 2), (3, 1, 2), (3, 2, 1)),
        ((2, 1, 3), (2, 3, 1), (3, 2, 1))),
    "maj-triple-B": _maj_row(
        lambda n: QTPoly([(0, 0, 1)] + [(math.comb(k, 2), k - 1, 1) for k in range(2, n + 1)]),
        ((1, 3, 2), (2, 1, 3), (2, 3, 1)), ((1, 3, 2), (2, 3, 1), (3, 1, 2))),
    "maj-213-312-321": _maj_row(
        lambda n: QTPoly([(0, 0, 1), (n - 1, 1, n - 1)]), ((2, 1, 3), (3, 1, 2), (3, 2, 1))),
    "maj-132-231-321": _maj_row(
        lambda n: QTPoly([(0, 0, 1), (1, 1, n - 1)]), ((1, 3, 2), (2, 3, 1), (3, 2, 1))),
}


def closed_form(formula_id: str, n: int) -> PolyLike:
    """Evaluate one catalog formula; every formula returns 1 at n = 0.

    >>> print(closed_form("inv-231-321", 3))
    1 + 2*q + q^2
    >>> print(closed_form("maj-132-231", 3))
    1 + 2*q*t + q^3*t^2
    """
    try:
        entry = CLOSED_FORMS[formula_id]
    except KeyError:
        raise ValueError(f"unknown formula id {formula_id!r}")
    if n < 0:
        raise ValueError("closed_form needs n >= 0")
    if n == 0:
        return QPoly.one() if entry.kind == "q" else QTPoly.one()
    return entry.build(n)


# ---------------------------------------------------------------------------
# generating-function expansions

# Each series is a sum over k of q^(k^2) t^k x^(2k) / D_k, where D_k is a
# product of q-shifted factorials: (x)_k (x)_(k+1), (x)_(k+1) (qx)_k and
# (x)_(k+1) respectively.  D_0 = 1 - x for all three, and D_k / D_(k-1) is
# the product of (1 - q^j x) over these j.
_NEW_FACTORS: dict[str, Callable[[int], tuple[int, ...]]] = {
    "gf-231-321": lambda k: (k - 1, k),
    "gf-312-321": lambda k: (k, k),
    "gf-231-312-321": lambda k: (k,),
}
SERIES_IDS = tuple(_NEW_FACTORS)


def series_expand(series_id: str, order: int,
                  should_stop: Optional[Callable[[], bool]] = None) -> TruncatedSeries:
    """Truncated expansion of one of the three word generating functions.

    The x^(2k) factor makes the sum finite at any truncation order, and
    summand k needs 1/D_k only up to x^(order - 2k).  Its coefficients are
    polynomials in q alone, kept as one list per power of x; dividing by a
    new factor 1 - q^j x adds q^j times each coefficient into the next, going
    up in x, and each finished coefficient is range-checked.  Summand k's
    terms all have t-degree k, so they go into one dict per power of x and
    each coefficient of the result is built once.  should_stop is polled
    before each summand.

    >>> print(series_expand("gf-231-312-321", 4)[4])
    1 + q*t + q^2*t + q^3*t + q^4*t^2
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    counts: list[dict[tuple[int, int], int]] = [{} for _ in range(order + 1)]
    inverse: list[list[int]] = [[1]] + [[] for _ in range(order)]  # 1/D_(k-1)
    for k in range(order // 2 + 1):
        if should_stop is not None and should_stop():
            raise SearchCancelled("series expansion stopped")
        del inverse[order - 2 * k + 1:]
        for j in _NEW_FACTORS[series_id](k) if k else (0,):
            for prev, cur in zip(inverse, inverse[1:]):
                end = len(prev) + j
                cur.extend([0] * (end - len(cur)))
                cur[j:end] = map(add, cur[j:end], prev)
        for i, c in enumerate(inverse, 2 * k):
            _check_all(c)
            counts[i].update(((qe + k * k, k), v) for qe, v in enumerate(c) if v)
    return TruncatedSeries(order, tuple(QTPoly.from_counts(c) for c in counts))
