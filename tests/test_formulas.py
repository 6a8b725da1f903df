import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from conftest import brute_profile
from patstat import cli, formulas, perms
from patstat.engine import SearchCancelled
from patstat.polynomials import QPoly, QTPoly, TruncatedSeries, pochhammer


def test_catalan_values_and_recursion():
    assert formulas.catalan(0) == 1
    assert formulas.catalan(3) == 5
    assert formulas.catalan(10) == 16796
    # independent route: the additive recursion
    table = [1]
    for n in range(1, 14):
        table.append(sum(table[k] * table[n - 1 - k] for k in range(n)))
    for n in range(14):
        assert formulas.catalan(n) == table[n]
    with pytest.raises(ValueError):
        formulas.catalan(-1)


def test_fibonacci_values():
    assert formulas.fibonacci(0) == 1
    assert formulas.fibonacci(1) == 1
    assert formulas.fibonacci(5) == 8
    for n in range(2, 12):
        assert formulas.fibonacci(n) == formulas.fibonacci(n - 1) + formulas.fibonacci(n - 2)


def test_reversed_q_catalan_small():
    assert formulas.ct_poly(0) == QPoly.one()
    assert formulas.ct_poly(2) == QPoly((1, 1))
    assert formulas.ct_poly(3) == QPoly((1, 2, 1, 1))
    assert formulas.c_poly(3) == QPoly((1, 1, 2, 1))
    assert formulas.c_poly(0) == QPoly.one()


def test_both_catalan_recursions_agree():
    for n in range(11):
        ct = formulas.ct_poly(n)
        assert formulas.c_poly(n) == ct.reverse(n)
        assert ct.eval_at_q1() == formulas.catalan(n)


def test_recursions_against_brute_force():
    for n in range(8):
        assert formulas.ct_poly(n) == brute_profile(n, [(3, 1, 2)])[1]
        assert formulas.c_poly(n) == brute_profile(n, [(1, 3, 2)])[1]
        assert formulas.i321_conjectured(n) == brute_profile(n, [(3, 2, 1)])[1]
        assert formulas.m312_recursive(n) == brute_profile(n, [(3, 1, 2)])[2]


def test_i321_small_values():
    assert formulas.i321_conjectured(1) == QPoly.one()
    assert formulas.i321_conjectured(3) == QPoly((1, 2, 2))


def test_m312_small_values():
    assert formulas.m312_recursive(0) == QTPoly.one()
    assert formulas.m312_recursive(2) == QTPoly(((0, 0, 1), (1, 1, 1)))


def test_parity_profile():
    p13 = brute_profile(3, [(3, 2, 1)])[1]  # 1 + 2q + 2q^2
    prof = formulas.parity_profile(p13)
    assert prof.constant == 1 and prof.holds and prof.odd_exponents == ()
    p7 = brute_profile(7, [(3, 2, 1)])[1]
    assert p7.eval_at_q1() == 429
    assert formulas.parity_profile(p7).holds
    p2 = brute_profile(2, [(3, 2, 1)])[1]  # 1 + q: fails as expected
    prof2 = formulas.parity_profile(p2)
    assert not prof2.holds and prof2.odd_exponents == (1,)


def test_closed_form_worked_examples():
    assert formulas.closed_form("inv-231-321", 3) == QPoly((1, 2, 1))
    assert formulas.closed_form("maj-132-231", 3) == QTPoly(((0, 0, 1), (1, 1, 2), (3, 2, 1)))
    for n in range(9):
        assert formulas.closed_form("inv-132-231-321", n) == (
            QPoly((1,) * n) if n else QPoly.one()
        )
    with pytest.raises(ValueError):
        formulas.closed_form("inv-123-456", 3)
    with pytest.raises(ValueError):
        formulas.closed_form("inv-231-321", -1)


def test_every_closed_form_is_one_at_zero():
    for fid, entry in formulas.CLOSED_FORMS.items():
        got = formulas.closed_form(fid, 0)
        want = QPoly.one() if entry.kind == "q" else QTPoly.one()
        assert got == want, fid


def test_each_inv_row_is_one_orbit_of_the_inv_preserving_symmetries():
    rows = [entry for entry in formulas.CLOSED_FORMS.values() if entry.kind == "q"]
    assert len(rows) == 8
    for entry in rows:
        for pats in entry.pattern_sets:
            assert perms.orbit(pats, perms.INV_PRESERVING) == entry.pattern_sets, pats


def test_closed_forms_against_brute_force_small():
    for fid, entry in formulas.CLOSED_FORMS.items():
        for pats in entry.pattern_sets:
            for n in range(7):
                if entry.kind == "q":
                    assert formulas.closed_form(fid, n) == brute_profile(n, pats)[1], (fid, n)
                else:
                    assert formulas.closed_form(fid, n) == brute_profile(n, pats)[2], (fid, n)


def test_quotient_elimination_inv_132_321():
    # the geometric-sum rewrite must agree with the rational expression
    # 1 + sum_k (q^(k(n-k+1)) - q^k)/(q^k - 1) at several numeric points
    for n in range(1, 9):
        poly = formulas.closed_form("inv-132-321", n)
        for q in (2, 3, 5, Fraction(7, 2)):
            rational = 1 + sum(
                Fraction(q ** (k * (n - k + 1)) - q**k, q**k - 1)
                for k in range(1, n)
            )
            assert poly.eval_at(q) == rational, (n, q)


def test_quotient_elimination_maj_132_321():
    # 1 + qt(n - [n]_q)/(1 - q) against the summed q-integers, at t = 1
    for n in range(1, 9):
        poly = formulas.closed_form("maj-132-321", n).specialize_t1()
        for q in (2, 3, 5, Fraction(7, 2)):
            nq = sum(q**i for i in range(n))
            rational = 1 + q * Fraction(n - nq, 1 - q)
            assert poly.eval_at(q) == rational, (n, q)


def test_series_expansion_basics():
    for sid in formulas.SERIES_IDS:
        s = formulas.series_expand(sid, 0)
        assert s[0] == QTPoly.one()
    with pytest.raises(ValueError):
        formulas.series_expand("gf-123", 3)
    with pytest.raises(ValueError):
        formulas.series_expand("gf-231-321", -1)


def test_series_against_brute_force_small():
    targets = {
        "gf-231-321": [(2, 3, 1), (3, 2, 1)],
        "gf-312-321": [(3, 1, 2), (3, 2, 1)],
        "gf-231-312-321": [(2, 3, 1), (3, 1, 2), (3, 2, 1)],
    }
    for sid, pats in targets.items():
        s = formulas.series_expand(sid, 7)
        for n in range(8):
            assert s[n] == brute_profile(n, pats)[2], (sid, n)


def test_series_counts_at_q_t_one():
    s = formulas.series_expand("gf-312-321", 9)
    for n in range(1, 10):
        assert s[n].eval_at(1, 1) == 2 ** (n - 1)
    s = formulas.series_expand("gf-231-312-321", 9)
    for n in range(10):
        assert s[n].eval_at(1, 1) == formulas.fibonacci(n)


def _series_reference(series_id, order):
    """The sum over k of q^(k^2) t^k x^(2k) / D_k, with each D_k built from
    q-shifted factorials and inverted whole."""
    total = TruncatedSeries(order, ())
    for k in range(order // 2 + 1):
        den = {
            "gf-231-321": lambda: pochhammer(k, order) * pochhammer(k + 1, order),
            "gf-312-321": lambda: pochhammer(k + 1, order) * pochhammer(k, order, shift=1),
            "gf-231-312-321": lambda: pochhammer(k + 1, order),
        }[series_id]()
        total = total + den.invert().scale(QTPoly.monomial(k * k, k)).shift_x(2 * k)
    return total


@pytest.mark.parametrize("sid", formulas.SERIES_IDS)
def test_series_matches_inverted_pochhammer_products(sid):
    reference = _series_reference(sid, 16)
    for order in range(17):
        got = formulas.series_expand(sid, order)
        assert got.order == order
        # a coefficient does not depend on the order it is truncated at
        assert [c.terms for c in got.coeffs] == [c.terms for c in reference.coeffs[: order + 1]]


@pytest.mark.parametrize("sid, count", [
    ("gf-231-321", lambda n: 2 ** (n - 1) if n else 1),
    ("gf-312-321", lambda n: 2 ** (n - 1) if n else 1),
    ("gf-231-312-321", formulas.fibonacci),
])
def test_series_counts_to_the_largest_order(sid, count):
    # past order 37, where an inverse carried at the full order overflowed
    s = formulas.series_expand(sid, 40)
    assert [c.eval_at(1, 1) for c in s.coeffs] == [count(n) for n in range(41)]


@pytest.mark.parametrize("sid, coeff", [
    ("gf-231-321", 9294597774361418829),
    ("gf-312-321", 9358720488097600839),
])
def test_series_overflow_at_order_74(sid, coeff):
    # every coefficient of a truncated 1/D_k is one of the series', so the
    # first beyond 2^63 - 1 is a coefficient of the result itself: order 73
    # is the largest that fits
    with pytest.raises(OverflowError,
                       match=f"^coefficient {coeff} exceeds the signed 64-bit range$"):
        formulas.series_expand(sid, 74)


def test_series_expansion_stops_on_request():
    with pytest.raises(SearchCancelled):
        formulas.series_expand("gf-231-321", 10, should_stop=lambda: True)
    polls = []
    formulas.series_expand("gf-312-321", 10, should_stop=lambda: polls.append(1) and False)
    assert len(polls) == 6  # once per summand, k = 0..5


# SHA-1 digests of the formula layer's output: a rewrite of the closed forms
# or of the series division must reproduce them byte for byte.
FORMULA_COMMAND_DIGEST = "2772083d528baa39bc5bc7a6dbe0e6955a8b2eb4"
SERIES_JSON_DIGEST = "d1447688ffefa6f130c0581a21a6cec7cfd644aa"


def formula_command_digest():
    """Exit code and stdout of `patstat formula` for every id at n = 0..24 in
    each format."""
    digest = hashlib.sha1()
    for fid in sorted(formulas.CLOSED_FORMS):
        for n in range(25):
            for fmt in ("text", "json", "csv"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["formula", "--id", fid, "--n", str(n), "--format", fmt])
                digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def series_json_digest():
    """Every series' expansion at orders 0..30, as json."""
    digest = hashlib.sha1()
    for sid in formulas.SERIES_IDS:
        for order in range(31):
            digest.update(json.dumps(formulas.series_expand(sid, order).to_json()).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_formula_command_output_is_pinned():
    assert formula_command_digest() == FORMULA_COMMAND_DIGEST


def test_series_expansions_are_pinned():
    assert series_json_digest() == SERIES_JSON_DIGEST
