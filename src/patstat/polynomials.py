"""Exact integer-coefficient polynomial arithmetic in q, in (q, t), and
truncated power series in x over (q, t)-polynomial coefficients.

All values are immutable and all arithmetic is exact.  Coefficients are
checked against the signed 64-bit range so a port to fixed-width integers
behaves identically; exceeding the bound raises OverflowError instead of
ever wrapping.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

_COEFF_BOUND = 1 << 63


def _checked(c: int, what: str = "coefficient") -> int:
    if not -_COEFF_BOUND < c < _COEFF_BOUND:
        raise OverflowError(f"{what} {c} exceeds the signed 64-bit range")
    return c


def _check_all(cs: Sequence[int]) -> None:
    """Raise OverflowError unless every coefficient is in the signed 64-bit
    range, naming the first one out of it; one min/max pass when all fit.
    Each polynomial result is checked this way once, on its finished
    coefficients, in index (QPoly) or term (QTPoly) order."""
    if cs and not -_COEFF_BOUND < min(cs) <= max(cs) < _COEFF_BOUND:
        for c in cs:
            _checked(c)


def _canonical(cs: list[int]) -> tuple[int, ...]:
    """QPoly coefficients from a list of ints (which it consumes): range-checked
    in one pass, trailing zeros stripped once."""
    _check_all(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _power(base, e: int, one):
    """base**e by repeated squaring, with one as the empty product."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _term_str(coeff: int, vars_part: str) -> str:
    if not vars_part:
        return str(coeff)
    if coeff == 1:
        return vars_part
    if coeff == -1:
        return f"-{vars_part}"
    return f"{coeff}*{vars_part}"


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


class _Frozen:
    """Base of the immutable value types, whose fields are their __slots__:
    a field is set once, by object.__setattr__, and the repr and pickling
    read the fields in order.  Each type defines its own __eq__ (equal only
    within its class) and __hash__; dataclasses would import inspect."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# ---------------------------------------------------------------------------
# univariate polynomials in q


class QPoly(_Frozen):
    """Dense integer polynomial in q; coeffs[i] is the coefficient of q^i."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        object.__setattr__(self, "coeffs", _canonical(list(map(int, coeffs))))

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @staticmethod
    def _from_list(cs: list[int]) -> "QPoly":
        """The one builder, from a list of ints (which it consumes)."""
        p = object.__new__(QPoly)
        object.__setattr__(p, "coeffs", _canonical(cs))
        return p

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def monomial(exp: int, coeff: int = 1) -> "QPoly":
        if exp < 0:
            raise ValueError("exponent must be nonnegative")
        return QPoly((0,) * exp + (coeff,))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        return self.coeffs[exp] if 0 <= exp < len(self.coeffs) else 0

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly._from_list(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return QPoly._from_list(out)

    def __neg__(self) -> "QPoly":
        return QPoly._from_list([-c for c in self.coeffs])

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly._from_list([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return QPoly._from_list(out)

    def __rmul__(self, scalar: int) -> "QPoly":
        return QPoly._from_list([scalar * c for c in self.coeffs])

    def __pow__(self, exponent: int) -> "QPoly":
        return _power(self, exponent, QPoly.one())

    def reverse(self, n: int) -> "QPoly":
        """q^C(n,2) * p(1/q): coefficient of q^i moves to q^(C(n,2)-i)."""
        top = math.comb(n, 2)
        if self.degree > top:
            raise ValueError(f"degree {self.degree} exceeds C({n},2) = {top}")
        out = [0] * (top + 1)
        for i, c in enumerate(self.coeffs):
            out[top - i] = c
        return QPoly._from_list(out)

    def eval_at_q1(self) -> int:
        """Set q = 1, recovering the plain count."""
        return _checked(sum(self.coeffs), "count")

    def eval_at(self, q):
        """The value at q, an int or a fractions.Fraction, by Horner's rule."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            var = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            terms.append(_term_str(c, var))
        return _join_terms(terms)


def q_int(n: int) -> QPoly:
    """1 + q + ... + q^(n-1), the q-analogue of the integer n."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    return QPoly._from_list([1] * n)


# ---------------------------------------------------------------------------
# bivariate polynomials in q and t


def _sum_of_products(pairs: Iterable[tuple["QTPoly", "QTPoly"]]) -> "QTPoly":
    """The sum of a * b over the pairs, accumulated in one dict and built once."""
    acc: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        for qa, ta, ca in a.terms:
            for qb, tb, cb in b.terms:
                key = (ta + tb, qa + qb)
                acc[key] = acc.get(key, 0) + ca * cb
    return QTPoly._from_acc(acc)


class QTPoly(_Frozen):
    """Sparse integer polynomial in q and t.

    Stored as (q_exp, t_exp, coeff) triples with no zero coefficients,
    sorted lexicographically by (t_exp, q_exp).
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[int, int, int], ...]

    def __init__(self, terms: Iterable[tuple[int, int, int]] = ()) -> None:
        acc: dict[tuple[int, int], int] = {}
        for qe, te, c in terms:
            if qe < 0 or te < 0:
                raise ValueError("exponents must be nonnegative")
            key = (int(te), int(qe))
            acc[key] = acc.get(key, 0) + int(c)
        object.__setattr__(self, "terms", QTPoly._from_acc(acc).terms)

    def __eq__(self, other):
        return self.terms == other.terms if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.terms,))

    @staticmethod
    def _from_terms(terms: tuple[tuple[int, int, int], ...]) -> "QTPoly":
        """The one builder, from nonzero terms in (t_exp, q_exp) order: checks
        the coefficients in one pass (naming the first one out of range)."""
        _check_all([c for _, _, c in terms])
        p = object.__new__(QTPoly)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def _from_acc(acc: dict[tuple[int, int], int]) -> "QTPoly":
        """From a {(t_exp, q_exp): coeff} dict with nonnegative int exponents:
        sorted by (t_exp, q_exp), zeros dropped."""
        return QTPoly._from_terms(tuple([(qe, te, c) for (te, qe), c in sorted(acc.items()) if c]))

    @staticmethod
    def zero() -> "QTPoly":
        return QTPoly(())

    @staticmethod
    def one() -> "QTPoly":
        return QTPoly(((0, 0, 1),))

    @staticmethod
    def monomial(q_exp: int, t_exp: int, coeff: int = 1) -> "QTPoly":
        return QTPoly(((q_exp, t_exp, coeff),))

    @staticmethod
    def from_counts(counts: Mapping[tuple[int, int], int]) -> "QTPoly":
        """Build from a {(q_exp, t_exp): coeff} mapping."""
        if any(qe < 0 or te < 0 for qe, te in counts):
            raise ValueError("exponents must be nonnegative")
        return QTPoly._from_acc({(te, qe): c for (qe, te), c in counts.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "QTPoly") -> "QTPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "QTPoly") -> "QTPoly":
        return self._plus(other, -1)

    def _plus(self, other: "QTPoly", sign: int) -> "QTPoly":
        acc = {(te, qe): c for qe, te, c in self.terms}
        for qe, te, c in other.terms:
            acc[te, qe] = acc.get((te, qe), 0) + sign * c
        return QTPoly._from_acc(acc)

    def __mul__(self, other: "QTPoly") -> "QTPoly":
        if len(self.terms) == 1:
            return other._times_term(*self.terms[0])
        if len(other.terms) == 1:
            return self._times_term(*other.terms[0])
        return _sum_of_products(((self, other),))

    def _times_term(self, q_exp: int, t_exp: int, coeff: int) -> "QTPoly":
        """self * coeff q^q_exp t^t_exp for a nonzero coeff: shifting every exponent
        keeps the term order, so nothing is sorted."""
        return QTPoly._from_terms(
            tuple([(qe + q_exp, te + t_exp, coeff * c) for qe, te, c in self.terms]))

    def __rmul__(self, scalar: int) -> "QTPoly":
        return self._times_term(0, 0, scalar) if scalar else QTPoly.zero()

    def __pow__(self, exponent: int) -> "QTPoly":
        return _power(self, exponent, QTPoly.one())

    def substitute_t_scale(self, j: int) -> "QTPoly":
        """The substitution t -> q^j t, sending q^a t^b to q^(a+jb) t^b."""
        if j < 0:
            raise ValueError("power must be nonnegative")
        return QTPoly._from_acc({(te, qe + j * te): c for qe, te, c in self.terms})

    def specialize_t1(self) -> QPoly:
        """Set t = 1, collapsing onto a univariate q-polynomial."""
        deg = max((qe for qe, _, _ in self.terms), default=-1)
        out = [0] * (deg + 1)
        for qe, _, c in self.terms:
            out[qe] += c
        return QPoly._from_list(out)

    def eval_at(self, q: int, t: int) -> int:
        return sum(c * q**qe * t**te for qe, te, c in self.terms)

    def to_json(self) -> list[dict[str, int]]:
        return [{"q": qe, "t": te, "c": c} for qe, te, c in self.terms]

    def __str__(self) -> str:
        parts = []
        for qe, te, c in self.terms:
            qpart = "" if qe == 0 else ("q" if qe == 1 else f"q^{qe}")
            tpart = "" if te == 0 else ("t" if te == 1 else f"t^{te}")
            var = "*".join(x for x in (qpart, tpart) if x)
            parts.append(_term_str(c, var))
        return _join_terms(parts)


# ---------------------------------------------------------------------------
# truncated power series in x over QTPoly coefficients


class TruncatedSeries(_Frozen):
    """Power series in x modulo x^(order+1); coeffs[i] is the x^i coefficient."""

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: tuple[QTPoly, ...]

    def __init__(self, order: int, coeffs: Iterable[QTPoly] = ()) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        # pad with zeros, then cut to order + 1 coefficients
        cs = (tuple(coeffs) + (QTPoly.zero(),) * (order + 1))[: order + 1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return (self.order, self.coeffs) == (other.order, other.coeffs) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries(order, (QTPoly.one(),))

    def __getitem__(self, x_exp: int) -> QTPoly:
        return self.coeffs[x_exp]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        n = min(self.order, other.order)
        return TruncatedSeries(n, tuple(
            _sum_of_products(zip(self.coeffs[: m + 1], other.coeffs[m::-1])) for m in range(n + 1)
        ))

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        return _power(self, exponent, TruncatedSeries.one(self.order))

    def scale(self, c: QTPoly) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(c * a for a in self.coeffs))

    def __rmul__(self, scalar: int) -> "TruncatedSeries":
        return self.scale(scalar * QTPoly.one())

    def shift_x(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k, truncating at the order."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return TruncatedSeries(self.order, (QTPoly.zero(),) * k + self.coeffs)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self / other, for other with constant term 1: out[m] = self[m] minus the
        sum over i >= 1 of other[i] * out[m - i], accumulated whole; only the
        nonzero coefficients of other cost work."""
        if other.coeffs[0] != QTPoly.one():
            raise ValueError("series inversion needs a unit constant term")
        one = QTPoly.one()
        negated = [(i, -1 * c) for i, c in enumerate(other.coeffs) if i and c]
        out: list[QTPoly] = []
        for m in range(min(self.order, other.order) + 1):
            out.append(_sum_of_products(
                [(one, self.coeffs[m])] + [(c, out[m - i]) for i, c in negated if i <= m]))
        return TruncatedSeries(len(out) - 1, tuple(out))

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires the constant term to be 1."""
        return TruncatedSeries.one(self.order) / self

    def to_json(self) -> list[list[dict[str, int]]]:
        return [c.to_json() for c in self.coeffs]

    def __str__(self) -> str:
        return "; ".join(f"x^{i}: {c}" for i, c in enumerate(self.coeffs))


def pochhammer(k: int, order: int, shift: int = 0) -> TruncatedSeries:
    """The truncated product (1 - q^shift x)(1 - q^(shift+1) x)...(k factors).

    shift=0 gives the usual q-shifted factorial of x; shift=1 starts at qx.
    """
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    out = TruncatedSeries.one(order)
    for i in range(k):
        factor = TruncatedSeries(
            order, (QTPoly.one(), QTPoly.monomial(i + shift, 0, -1))
        )
        out = out * factor
    return out
