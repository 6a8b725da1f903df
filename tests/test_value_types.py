"""The value contract of the six public types: their repr text, equality and
hashing, keyword construction, frozen fields, and pickle and deepcopy
round trips."""

import copy
import pickle

import pytest

from patstat import engine, verify
from patstat.polynomials import QPoly, QTPoly, TruncatedSeries

P132 = ((1, 3, 2),)


def samples():
    return {
        "QPoly": (QPoly((0, 1, -2)), "QPoly(coeffs=(0, 1, -2))"),
        "QTPoly": (QTPoly(((1, 0, 2), (0, 1, -1))), "QTPoly(terms=((1, 0, 2), (0, 1, -1)))"),
        "TruncatedSeries": (
            TruncatedSeries(2, (QTPoly.one(),)),
            "TruncatedSeries(order=2, coeffs=(QTPoly(terms=((0, 0, 1),)), QTPoly(terms=()),"
            " QTPoly(terms=())))"),
        "Profile": (
            engine.profile(3, P132),
            "Profile(inv_poly=QPoly(coeffs=(1, 1, 2, 1)), majdes_poly=QTPoly(terms=((0, 0, 1),"
            " (1, 1, 2), (2, 1, 1), (3, 2, 1))))"),
        "EquivalenceReport": (
            engine.classify(3, 1, "inv", 3),
            "EquivalenceReport(stat='inv', ground_length=3, subset_size=1, n_max=3,"
            " classes=((((1, 2, 3),),), (((1, 3, 2),), ((2, 1, 3),)),"
            " (((2, 3, 1),), ((3, 1, 2),)), (((3, 2, 1),),)))"),
        "CheckResult": (verify.CheckResult("x", False, 2, ("a", "b")),
                        "CheckResult(name='x', passed=False, cases=2, failures=('a', 'b'))"),
    }


# written out, so that a fault in building a value fails the tests that use
# it in place of the collection of this file
NAMES = ("QPoly", "QTPoly", "TruncatedSeries", "Profile", "EquivalenceReport", "CheckResult")


def test_names_are_the_samples():
    assert NAMES == tuple(samples())


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    value, text = samples()[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trip(name):
    value, _ = samples()[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_polynomial_types_compare_only_within_their_class():
    assert QPoly(()) != QTPoly(())
    assert QPoly(()) != ()
    assert QTPoly(()) != TruncatedSeries(0)
    assert QPoly((1,)).__eq__(QTPoly.one()) is NotImplemented
    assert QPoly((1, 2)) == QPoly([1, 2, 0])
    assert QTPoly(((0, 1, 1), (2, 0, 3))) == QTPoly(((2, 0, 1), (0, 1, 1), (2, 0, 2)))
    assert TruncatedSeries(1, (QTPoly.one(),)) != TruncatedSeries(2, (QTPoly.one(),))


def test_equal_values_hash_equal():
    assert hash(QPoly([1, 2, 0])) == hash(QPoly((1, 2))) == hash(((1, 2),))
    assert hash(QTPoly(((0, 1, 1), (0, 1, 1)))) == hash(QTPoly(((0, 1, 2),)))
    assert hash(TruncatedSeries(1)) == hash(TruncatedSeries(1, (QTPoly.zero(),) * 2))
    assert len({QPoly((0, 1)), QPoly([0, 1, 0]), QPoly(())}) == 2


def test_constructors_take_their_fields_by_keyword():
    assert QPoly(coeffs=[0, 1, 0]) == QPoly((0, 1))
    assert QPoly() == QPoly.zero()
    assert QTPoly(terms=((1, 1, 1),)) == QTPoly.monomial(1, 1)
    assert QTPoly() == QTPoly.zero()
    s = TruncatedSeries(order=2, coeffs=(QTPoly.one(),))
    assert s == TruncatedSeries(2, (QTPoly.one(), QTPoly.zero(), QTPoly.zero()))
    assert TruncatedSeries(order=1).coeffs == (QTPoly.zero(), QTPoly.zero())
    assert verify.CheckResult(name="x", passed=True, cases=0, failures=()).line() == "PASS x (0 cases)"


@pytest.mark.parametrize("value, field", [
    (QPoly((1,)), "coeffs"),
    (QTPoly.one(), "terms"),
    (TruncatedSeries(1), "order"),
    (TruncatedSeries(1), "coeffs"),
])
def test_polynomial_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
