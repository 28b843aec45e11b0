"""Rational function field: canonical forms, parsing, printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from qilab.field import MPoly, ParseError, RatFun


def test_cancellation_is_automatic():
    z = MPoly.var("z")
    f = RatFun(z * z - 1, z - 1)
    assert f == RatFun(z + 1)
    assert f.den == 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFun(1, 0)


def test_field_ops():
    z = RatFun.var("z")
    q = RatFun.var("q")
    f = (z - 1) / (z + 1)
    assert f * f.inverse() == RatFun(1)
    assert f - f == RatFun.zero()
    assert (f + q) - q == f
    assert (z / q) ** -2 == (q / z) ** 2


def test_division_by_zero_function():
    z = RatFun.var("z")
    with pytest.raises(ZeroDivisionError):
        z / RatFun.zero()
    with pytest.raises(ZeroDivisionError):
        RatFun.zero().inverse()


def test_parse_basic_grammar():
    f = RatFun.parse("(z^2 - 1)/(z - 1)")
    assert f == RatFun.var("z") + 1
    g = RatFun.parse("3/4")
    assert g.as_fraction() == Fraction(3, 4)
    assert RatFun.parse("q^-2") == RatFun.var("q") ** -2
    assert RatFun.parse("-z") == -RatFun.var("z")


def test_parse_rejects_garbage():
    for bad in ("", "z +", "(z", "z ** 2", "1//2", "2.5x"):
        with pytest.raises((ParseError, ValueError)):
            RatFun.parse(bad)


def test_print_parenthesizes_composite_denominator():
    z = MPoly.var("z")
    u = MPoly.var("u")
    h = MPoly.var("h")
    assert str(RatFun(u, u + h)) == "u/(u + h)"
    assert str(RatFun(z + 1, z)) == "(z + 1)/z"
    assert str(RatFun(1)) == "1"
    assert str(RatFun.zero()) == "0"


def test_printed_form_is_kept_and_matches_a_fresh_render():
    # str is cached on first use; every way of making a value must still
    # print exactly what a newly built copy of it prints
    z = RatFun.var("z")
    q = RatFun.var("q")
    made = [
        (z - 1) / (z + 1),
        (z * q + 1) * (z - q) / q**2,
        RatFun.parse("(1 + X1)/(1 + X2)"),
        RatFun.parse("-3/5*z^2 + z/q^2"),
        RatFun.const(Fraction(-7, 3)),
        RatFun.zero(),
    ]
    for f in made:
        first = str(f)
        neg = -f
        assert str(neg) == str(RatFun(neg.num, neg.den))
        assert str(f) == first == str(RatFun(f.num, f.den))
        assert str(f + neg) == "0"
        assert str(RatFun.parse(first)) == first
    assert str(-RatFun.parse("(z + 1)/q")) == "(-z - 1)/q"


def test_substitute_and_eval():
    z = RatFun.var("z")
    q = RatFun.var("q")
    f = (z - 1) / (z - q**-2)
    val = f.eval_fraction({"z": Fraction(2), "q": Fraction(2)})
    assert val == Fraction(1) / Fraction(7, 4)
    cv = f.eval_complex({"z": 2.0, "q": 2.0})
    assert abs(cv - 4.0 / 7.0) < 1e-14


def test_eval_on_pole_raises():
    z = RatFun.var("z")
    f = RatFun(1) / (z - 1)
    with pytest.raises(ZeroDivisionError):
        f.eval_fraction({"z": Fraction(1)})


small_fracs = st_.fractions(min_value=-3, max_value=3, max_denominator=5)


@st_.composite
def small_ratfuns(draw):
    z = MPoly.var("z")
    num = MPoly.const(draw(small_fracs))
    den = MPoly.zero()
    for k in range(draw(st_.integers(0, 2)) + 1):
        num = num + MPoly.const(draw(small_fracs)) * z**k
    for k in range(draw(st_.integers(0, 2)) + 1):
        den = den + MPoly.const(draw(small_fracs)) * z**k
    if den.is_zero():
        den = z + 1
    return RatFun(num, den)


@settings(max_examples=60, deadline=None)
@given(small_ratfuns())
def test_print_parse_round_trip(f):
    assert RatFun.parse(str(f)) == f


@settings(max_examples=40, deadline=None)
@given(small_ratfuns(), small_ratfuns())
def test_field_axioms_random(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


# Reduced forms and their stored keys (vars, sorted exponent -> coefficient
# pairs of numerator and denominator) as the canonical form defines them.
_GOLDEN = [
    (
        "(z-q)*(z*w+3/2)*z^2*q/((z-q)*(w-2)*z*q^3)",
        "(z^2*w + 3/2*z)/(w*q^2 - 2*q^2)",
        (
            (("z", "w"), (((1, 0), Fraction(3, 2)), ((2, 1), Fraction(1)))),
            (("w", "q"), (((0, 2), Fraction(-2)), ((1, 2), Fraction(1)))),
        ),
    ),
    (
        "(X1^2-X2^2)/(2*X1*X2+2*X2^2)",
        "(1/2*X1 - 1/2*X2)/X2",
        (
            (("X1", "X2"), (((0, 1), Fraction(-1, 2)), ((1, 0), Fraction(1, 2)))),
            (("X2",), (((1,), Fraction(1)),)),
        ),
    ),
    (
        "(c*u1 - 2*h)^2*(u2+1)/(3*(c*u1-2*h)*(u2+1)^2*t)",
        "(1/3*c*u1 - 2/3*h)/(u2*t + t)",
        (
            (("c", "u1", "h"), (((0, 0, 1), Fraction(-2, 3)), ((1, 1, 0), Fraction(1, 3)))),
            (("u2", "t"), (((0, 1), Fraction(1)), ((1, 1), Fraction(1)))),
        ),
    ),
    (
        "(4*z^2*w - 6*z*w)/(-10*z^3 + 15*z^2)",
        "-2/5*w/z",
        ((("w",), (((1,), Fraction(-2, 5)),)), (("z",), (((1,), Fraction(1)),))),
    ),
    (
        "z^3*q/(z*w^2)",
        "z^2*q/w^2",
        ((("z", "q"), (((2, 1), Fraction(1)),)), (("w",), (((2,), Fraction(1)),))),
    ),
    (
        "(z^2*q + z*q^3)/(3*z*q^2)",
        "(1/3*z + 1/3*q^2)/q",
        (
            (("z", "q"), (((0, 2), Fraction(1, 3)), ((1, 0), Fraction(1, 3)))),
            (("q",), (((1,), Fraction(1)),)),
        ),
    ),
    (
        "(q^2-1)/(q^4-1)",
        "1/(q^2 + 1)",
        (((), (((), Fraction(1)),)), (("q",), (((0,), Fraction(1)), ((2,), Fraction(1))))),
    ),
]


@pytest.mark.parametrize("text,shown,key", _GOLDEN)
def test_reduced_fractions_match_golden_forms(text, shown, key):
    f = RatFun.parse(text)
    assert str(f) == shown
    assert f.key() == key
    assert hash(f) == hash(key)
