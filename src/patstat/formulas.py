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
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .engine import SearchCancelled
from .perms import INV_PRESERVING, Perm, orbit
from .polynomials import QPoly, QTPoly, TruncatedSeries, q_int


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

_Q = QPoly.monomial(1)


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


@dataclass(frozen=True)
class ParityProfile:
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


def _inv_231_321(n: int) -> QPoly:
    return (QPoly.one() + _Q) ** (n - 1)


def _inv_132_231(n: int) -> QPoly:
    out = QPoly.one()
    for i in range(1, n):
        out = out * (QPoly.one() + QPoly.monomial(i))
    return out


def _inv_132_321(n: int) -> QPoly:
    out = QPoly.one()
    for k in range(1, n):
        for j in range(1, n - k + 1):
            out = out + QPoly.monomial(j * k)
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


def _maj_132_231(n: int) -> QTPoly:
    acc = QTPoly.zero()
    for k in range(n):
        acc = acc + QTPoly.monomial(math.comb(k + 1, 2), k, math.comb(n - 1, k))
    return acc


def _maj_132_321(n: int) -> QTPoly:
    tail = QPoly.zero()
    for i in range(1, n):
        tail = tail + q_int(i)
    return QTPoly.one() + QTPoly.monomial(1, 1) * QTPoly.from_qpoly(tail)


def _maj_213_321(n: int) -> QTPoly:
    acc = QTPoly.one()
    for k in range(1, n):
        acc = acc + QTPoly.monomial(k, 1, k)
    return acc


def _inv_132_213_321(n: int) -> QPoly:
    acc = QPoly.zero()
    for k in range(1, n + 1):
        acc = acc + QPoly.monomial(k * (n - k))
    return acc


def _inv_132_231_312(n: int) -> QPoly:
    acc = QPoly.zero()
    for k in range(1, n + 1):
        acc = acc + QPoly.monomial(math.comb(k, 2))
    return acc


def _inv_132_231_321(n: int) -> QPoly:
    return q_int(n)


def _inv_231_312_321(n: int) -> QPoly:
    acc = QPoly.zero()
    for k in range(n + 1):
        c = math.comb(n - k, k)
        if c:
            acc = acc + QPoly.monomial(k, c)
    return acc


def _maj_triple_a(n: int) -> QTPoly:
    return QTPoly.one() + QTPoly.monomial(1, 1) * QTPoly.from_qpoly(q_int(n - 1))


def _maj_triple_b(n: int) -> QTPoly:
    acc = QTPoly.one()
    for k in range(2, n + 1):
        acc = acc + QTPoly.monomial(math.comb(k, 2), k - 1)
    return acc


def _maj_213_312_321(n: int) -> QTPoly:
    return QTPoly.one() + QTPoly.monomial(n - 1, 1, n - 1)


def _maj_132_231_321(n: int) -> QTPoly:
    return QTPoly.one() + QTPoly.monomial(1, 1, n - 1)


@dataclass(frozen=True)
class FormulaEntry:
    """One catalog entry: builder, result kind, and every pattern set whose
    polynomial the formula matches."""

    build: Callable[[int], PolyLike]
    kind: str  # "q" or "qt"
    pattern_sets: tuple[tuple[Perm, ...], ...]


def _psets(*sets: tuple[Perm, ...]) -> tuple[tuple[Perm, ...], ...]:
    return tuple(tuple(sorted(s)) for s in sets)


# The inv-preserving symmetries keep the inv polynomial, so an inv entry
# matches the whole orbit under them of the set its id names.
CLOSED_FORMS: dict[str, FormulaEntry] = {
    "inv-231-321": FormulaEntry(_inv_231_321, "q", orbit(((2, 3, 1), (3, 2, 1)), INV_PRESERVING)),
    "inv-132-231": FormulaEntry(_inv_132_231, "q", orbit(((1, 3, 2), (2, 3, 1)), INV_PRESERVING)),
    "inv-132-321": FormulaEntry(_inv_132_321, "q", orbit(((1, 3, 2), (3, 2, 1)), INV_PRESERVING)),
    "inv-132-213": FormulaEntry(_inv_132_213, "q", orbit(((1, 3, 2), (2, 1, 3)), INV_PRESERVING)),
    "maj-132-213": FormulaEntry(
        _maj_132_213, "qt",
        _psets(
            ((1, 3, 2), (2, 1, 3)),
            ((1, 3, 2), (3, 1, 2)),
            ((2, 1, 3), (2, 3, 1)),
        ),
    ),
    "maj-132-231": FormulaEntry(
        _maj_132_231, "qt",
        _psets(((1, 3, 2), (2, 3, 1))),
    ),
    "maj-132-321": FormulaEntry(
        _maj_132_321, "qt",
        _psets(((1, 3, 2), (3, 2, 1))),
    ),
    "maj-213-321": FormulaEntry(
        _maj_213_321, "qt",
        _psets(((2, 1, 3), (3, 2, 1))),
    ),
    "inv-132-213-321": FormulaEntry(
        _inv_132_213_321, "q", orbit(((1, 3, 2), (2, 1, 3), (3, 2, 1)), INV_PRESERVING)),
    "inv-132-231-312": FormulaEntry(
        _inv_132_231_312, "q", orbit(((1, 3, 2), (2, 3, 1), (3, 1, 2)), INV_PRESERVING)),
    "inv-132-231-321": FormulaEntry(
        _inv_132_231_321, "q", orbit(((1, 3, 2), (2, 3, 1), (3, 2, 1)), INV_PRESERVING)),
    "inv-231-312-321": FormulaEntry(
        _inv_231_312_321, "q", orbit(((2, 3, 1), (3, 1, 2), (3, 2, 1)), INV_PRESERVING)),
    "maj-triple-A": FormulaEntry(
        _maj_triple_a, "qt",
        _psets(
            ((1, 3, 2), (2, 1, 3), (3, 2, 1)),
            ((1, 3, 2), (3, 1, 2), (3, 2, 1)),
            ((2, 1, 3), (2, 3, 1), (3, 2, 1)),
        ),
    ),
    "maj-triple-B": FormulaEntry(
        _maj_triple_b, "qt",
        _psets(((1, 3, 2), (2, 1, 3), (2, 3, 1)), ((1, 3, 2), (2, 3, 1), (3, 1, 2))),
    ),
    "maj-213-312-321": FormulaEntry(
        _maj_213_312_321, "qt",
        _psets(((2, 1, 3), (3, 1, 2), (3, 2, 1))),
    ),
    "maj-132-231-321": FormulaEntry(
        _maj_132_231_321, "qt",
        _psets(((1, 3, 2), (2, 3, 1), (3, 2, 1))),
    ),
}


def closed_form(formula_id: str, n: int) -> PolyLike:
    """Evaluate one catalog formula; every formula returns 1 at n = 0."""
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
    summand k needs 1/D_k only up to x^(order - 2k), so each inverse is
    carried at that order: 1/D_k comes from 1/D_(k-1) by one division by
    its new linear factors.  Summand k's terms all have t-degree k, so they
    go into one dict per power of x and each coefficient is built once.
    should_stop is polled before each summand.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    counts: list[dict[tuple[int, int], int]] = [{} for _ in range(order + 1)]
    inverse = TruncatedSeries.one(order)  # 1/D_(k-1)
    for k in range(order // 2 + 1):
        if should_stop is not None and should_stop():
            raise SearchCancelled("series expansion stopped")
        rest = order - 2 * k
        factors = TruncatedSeries.one(rest)
        for j in _NEW_FACTORS[series_id](k) if k else (0,):
            factors = factors * TruncatedSeries(rest, (QTPoly.one(), QTPoly.monomial(j, 0, -1)))
        inverse = inverse / factors
        for i, c in enumerate(inverse.coeffs, 2 * k):
            # the coefficients of 1/D_k are polynomials in q alone
            counts[i].update(((qe + k * k, k), v) for qe, _, v in c.terms)
    return TruncatedSeries(order, tuple(QTPoly.from_counts(c) for c in counts))
