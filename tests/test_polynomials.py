from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patstat.polynomials import QPoly, QTPoly, TruncatedSeries, pochhammer, q_int


def test_basic_products():
    one_plus_q = QPoly((1, 1))
    assert one_plus_q * one_plus_q == QPoly((1, 2, 1))
    p = QPoly((3, 0, -2, 5))
    assert p * QPoly.one() == p
    assert 1 * p == p
    assert (QTPoly.one() + QTPoly.monomial(1, 1)) * (QTPoly.one() + QTPoly.monomial(2, 1)) == QTPoly(
        ((0, 0, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1))
    )


def test_canonical_form_strips_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert not QPoly.zero()
    assert QTPoly(((1, 1, 2), (1, 1, -2))).terms == ()


def test_qpoly_pow_and_scalar():
    p = QPoly((1, 1))
    assert p**0 == QPoly.one()
    assert p**3 == QPoly((1, 3, 3, 1))
    assert 2 * p == QPoly((2, 2))
    with pytest.raises(ValueError):
        p ** (-1)


@pytest.mark.parametrize("value, one", [
    (QTPoly(((0, 0, 1), (1, 1, -2), (3, 0, 1))), QTPoly.one()),
    (TruncatedSeries(5, (QTPoly.one(), QTPoly.monomial(1, 1), QTPoly.monomial(0, 2, -1))),
     TruncatedSeries.one(5)),
], ids=["qtpoly", "series"])
def test_pow_matches_repeated_product(value, one):
    product = one
    for e in range(7):
        assert value**e == product, e
        product = product * value
    with pytest.raises(ValueError):
        value ** (-1)


def test_overflow_detected_not_wrapped():
    big = QPoly((2**62,))
    with pytest.raises(OverflowError):
        big + big
    with pytest.raises(OverflowError):
        QPoly((2**63,))
    with pytest.raises(OverflowError):
        2 * QTPoly.monomial(0, 0, 2**62)
    assert (QTPoly.monomial(0, 0, 2**62 - 1) + QTPoly.monomial(0, 0, 2**62)).terms == (
        (0, 0, 2**63 - 1),)


def test_overflow_names_the_first_coefficient_out_of_range():
    # in index order for QPoly, in term order for QTPoly, whichever is largest
    with pytest.raises(OverflowError, match=f"^coefficient {2**63} exceeds"):
        QPoly((1, 2**63, -(2**64)))
    with pytest.raises(OverflowError, match=f"^coefficient {-(2**64)} exceeds"):
        QPoly((-(2**64), 2**63))
    with pytest.raises(OverflowError, match=f"^coefficient {-(2**64)} exceeds"):
        QTPoly(((0, 1, 2**65), (5, 0, -(2**64))))
    with pytest.raises(OverflowError, match=f"^coefficient {3 * 2**62} exceeds"):
        3 * QPoly((0, 2**62, 2**62 - 1))
    assert QPoly((-(2**63) + 1, 2**63 - 1)).coeffs == (-(2**63) + 1, 2**63 - 1)


def test_qpoly_product_is_checked_on_its_finished_coefficients():
    # the rule of every polynomial result: a partial sum may leave the signed
    # 64-bit range (here 2^62 + 2^62 in the q^2 coefficient) as long as the
    # finished coefficient fits, as it does under wrapping 64-bit arithmetic
    a, b = QPoly((1, 1, -1)), QPoly((1, 2**62, 2**62))
    assert (a * b).coeffs == (1, 2**62 + 1, 2**63 - 1, 0, -(2**62))
    # when one does not fit, the error names the first finished coefficient
    # out of range in index order, not the partial sum that left it first
    with pytest.raises(OverflowError, match=f"^coefficient {-(2**63)} exceeds"):
        QPoly((1, 1, -2)) * b
    with pytest.raises(OverflowError, match=f"^coefficient {2**64} exceeds"):
        QPoly((2**32, 2**32)) * QPoly((2**32, 2**32))


def test_qpoly_normalizes_int_like_coefficients():
    p = QPoly([True, Fraction(4, 2), 3.0, 0, False])
    assert p.coeffs == (1, 2, 3) and all(type(c) is int for c in p.coeffs)
    assert QPoly(c for c in (0, 5, 0)).coeffs == (0, 5)


@pytest.mark.parametrize("overflow", [
    lambda: QTPoly.monomial(1, 0, 2**32) * QTPoly.monomial(0, 1, 2**31),
    lambda: QTPoly.monomial(1, 1, 2**62) + QTPoly(((0, 0, 1), (1, 1, 2**62))),
    lambda: QTPoly.monomial(0, 0, -(2**62)) - QTPoly.monomial(0, 0, 2**62),
    # each product fits; their sum, the x^1 coefficient, does not
    lambda: TruncatedSeries(1, (QTPoly.monomial(0, 0, 2**31),) * 2) ** 2,
], ids=["qtpoly-mul", "qtpoly-add", "qtpoly-sub", "series-mul"])
def test_operator_overflow_detected_not_wrapped(overflow):
    with pytest.raises(OverflowError):
        overflow()


# Reference arithmetic for the differential test: naive term lists, summed
# by the public constructor, whose result is checked against an independent
# accumulate-and-sort.
_TERMS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(-4, 4)),
                  max_size=6)


def _naive(terms) -> QTPoly:
    acc = {}
    for qe, te, c in terms:
        acc[qe, te] = acc.get((qe, te), 0) + c
    want = tuple((qe, te, c) for (qe, te), c in sorted(acc.items(), key=lambda kv: kv[0][::-1])
                 if c)
    p = QTPoly(terms)
    assert p.terms == want
    return p


def _naive_product(a: QTPoly, b: QTPoly) -> list:
    return [(qa + qb, ta + tb, ca * cb) for qa, ta, ca in a.terms for qb, tb, cb in b.terms]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_TERMS, _TERMS, st.integers(-3, 3), st.integers(0, 3))
def test_arithmetic_matches_naive_term_lists(ta, tb, k, j):
    a, b = _naive(ta), _naive(tb)
    assert (a * b).terms == _naive(_naive_product(a, b)).terms
    assert (a + b).terms == _naive(list(a.terms) + list(b.terms)).terms
    assert (a - b).terms == _naive(list(a.terms) + [(q, t, -c) for q, t, c in b.terms]).terms
    assert (k * a).terms == _naive([(q, t, k * c) for q, t, c in a.terms]).terms
    assert a.substitute_t_scale(j).terms == _naive([(q + j * t, t, c) for q, t, c in a.terms]).terms
    counts = {}
    for q, t, c in ta:
        counts[q, t] = counts.get((q, t), 0) + c
    assert QTPoly.from_counts(counts).terms == _naive(ta).terms


_COEFFS = st.lists(st.integers(-9, 9), max_size=6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_COEFFS, _COEFFS, st.integers(-3, 3))
def test_qpoly_arithmetic_matches_coefficient_lists(xs, ys, k):
    a, b = QPoly(xs), QPoly(ys)
    pad = max(len(xs), len(ys))
    xs, ys = xs + [0] * (pad - len(xs)), ys + [0] * (pad - len(ys))

    def canonical(cs):
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        return tuple(cs)

    assert (a + b).coeffs == canonical([x + y for x, y in zip(xs, ys)])
    assert (a - b).coeffs == canonical([x - y for x, y in zip(xs, ys)]) == (a + (-1) * b).coeffs
    assert (-a).coeffs == canonical([-x for x in xs]) == ((-1) * a).coeffs
    assert (k * a).coeffs == canonical([k * x for x in xs])
    assert (a * b).coeffs == canonical(
        [sum(xs[i] * ys[m - i] for i in range(pad) if 0 <= m - i < pad) for m in range(2 * pad)])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(_TERMS, min_size=1, max_size=5), st.lists(_TERMS, min_size=1, max_size=5))
def test_series_arithmetic_matches_naive_term_lists(xs, ys):
    order = min(len(xs), len(ys)) - 1
    s = TruncatedSeries(order, tuple(map(_naive, xs)))
    u = TruncatedSeries(order, tuple(map(_naive, ys)))
    product = s * u
    for m in range(order + 1):
        terms = [t for i in range(m + 1) for t in _naive_product(s[i], u[m - i])]
        assert product[m].terms == _naive(terms).terms
    unit = TruncatedSeries(order, (QTPoly.one(),) + s.coeffs[1:])
    inverse = [QTPoly.one()]
    for m in range(1, order + 1):
        terms = [(q, t, -c) for i in range(1, m + 1)
                 for q, t, c in _naive_product(unit[i], inverse[m - i])]
        inverse.append(_naive(terms))
    assert [c.terms for c in unit.invert().coeffs] == [c.terms for c in inverse]
    assert [c.terms for c in (u / unit).coeffs] == [c.terms for c in (u * unit.invert()).coeffs]


def test_reverse_coefficients_examples():
    p = QPoly((1, 2, 1, 1))
    assert p.reverse(3) == QPoly((1, 1, 2, 1))
    assert QPoly.one().reverse(0) == QPoly.one()
    with pytest.raises(ValueError):
        QPoly((1, 1)).reverse(1)  # degree 1 > C(1,2) = 0


def test_specialize_and_eval():
    m3 = (QTPoly.one() + QTPoly.monomial(1, 1)) * (QTPoly.one() + QTPoly.monomial(2, 1))
    assert m3.specialize_t1() == QPoly((1, 1)) * QPoly((1, 0, 1))
    assert m3.specialize_t1().eval_at_q1() == 4
    assert QPoly.zero().eval_at_q1() == 0
    assert QPoly((1, 2, 3)).eval_at(Fraction(1, 2)) == Fraction(11, 4)
    assert QTPoly.monomial(2, 1, 3).eval_at(2, 5) == 60


def test_qtpoly_term_order_and_json():
    p = QTPoly(((3, 0, 1), (0, 1, 2), (1, 0, 4)))
    # iteration sorted by (t, q)
    assert p.terms == ((1, 0, 4), (3, 0, 1), (0, 1, 2))
    assert p.to_json() == [
        {"q": 1, "t": 0, "c": 4},
        {"q": 3, "t": 0, "c": 1},
        {"q": 0, "t": 1, "c": 2},
    ]
    assert QPoly((1, 0, 2)).to_json() == [1, 0, 2]


def test_substitute_t_scale():
    p = QTPoly(((2, 1, 1), (0, 2, 3)))
    assert p.substitute_t_scale(2) == QTPoly(((4, 1, 1), (4, 2, 3)))
    assert p.substitute_t_scale(0) == p


def test_text_rendering():
    assert str(QPoly((1, 2, 1, 1))) == "1 + 2*q + q^2 + q^3"
    assert str(QPoly(())) == "0"
    assert str(QPoly((0, -1, 3))) == "-q + 3*q^2"
    assert str(QTPoly(((1, 1, 1), (0, 0, 1), (2, 1, 2)))) == "1 + q*t + 2*q^2*t"
    assert str(QTPoly(((3, 2, -1),))) == "-q^3*t^2"


def test_pochhammer_small_cases():
    assert pochhammer(0, 5) == TruncatedSeries.one(5)
    two = pochhammer(2, 2)
    assert two[0] == QTPoly.one()
    assert two[1] == QTPoly(((0, 0, -1), (1, 0, -1)))  # -(1+q) x
    assert two[2] == QTPoly.monomial(1, 0)  # q x^2
    shifted = pochhammer(1, 1, shift=1)
    assert shifted[0] == QTPoly.one()
    assert shifted[1] == QTPoly.monomial(1, 0, -1)


def test_series_invert_geometric():
    geom = TruncatedSeries(3, (QTPoly.one(), QTPoly.monomial(0, 0, -1)))
    assert geom.invert().coeffs == (QTPoly.one(),) * 4
    assert TruncatedSeries.one(4).invert() == TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        TruncatedSeries(2, (QTPoly.monomial(1, 0),)).invert()


def _independent_inverse_x2():
    # 1/((x)_1 (x)_2) = 1/((1-x)^2 (1-qx)); expand each factor as a plain
    # truncated list and convolve by hand, without TruncatedSeries
    order = 2
    geo1 = [{(0, 0): 1}, {(0, 0): 2}, {(0, 0): 3}]  # 1/(1-x)^2
    geo2 = [{(0, 0): 1}, {(1, 0): 1}, {(2, 0): 1}]  # 1/(1-qx)
    out = [dict() for _ in range(order + 1)]
    for i, a in enumerate(geo1):
        for j, b in enumerate(geo2):
            if i + j <= order:
                for (qa, ta), ca in a.items():
                    for (qb, tb), cb in b.items():
                        key = (qa + qb, ta + tb)
                        out[i + j][key] = out[i + j].get(key, 0) + ca * cb
    return out


def test_series_invert_pochhammer_product():
    s = (pochhammer(1, 2) * pochhammer(2, 2)).invert()
    expected = _independent_inverse_x2()
    assert s[2] == QTPoly.from_counts(expected[2])
    assert s[2] == QTPoly(((0, 0, 3), (1, 0, 2), (2, 0, 1)))
    # and the round trip closes
    assert s * (pochhammer(1, 2) * pochhammer(2, 2)) == TruncatedSeries.one(2)


def test_series_shift_and_pow():
    s = TruncatedSeries(4, (QTPoly.one(), QTPoly.one()))  # 1 + x
    assert (s**2)[2] == QTPoly.one()
    assert s.shift_x(3)[3] == QTPoly.one()
    assert s.shift_x(3)[4] == QTPoly.one()
    assert s.shift_x(5).coeffs == (QTPoly.zero(),) * 5


def test_q_int():
    assert q_int(0) == QPoly.zero()
    assert q_int(1) == QPoly.one()
    assert q_int(4) == QPoly((1, 1, 1, 1))
