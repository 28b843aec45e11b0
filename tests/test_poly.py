"""Exact multivariate polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from qilab.field import MPoly, NotDivisible, normalize_var, poly_gcd, var_rank


def test_constants_and_zero():
    z = MPoly.zero()
    assert z.is_zero()
    assert not z
    c = MPoly.const(Fraction(3, 4))
    assert c.is_const()
    assert c.as_fraction() == Fraction(3, 4)
    assert MPoly.const(0) == z


def test_variable_order_is_significance_not_alphabet():
    # c outranks cluster variables, which outrank z, w, u, h, q, t
    assert var_rank("c") < var_rank("X1") < var_rank("X2")
    assert var_rank("X2") < var_rank("z") < var_rank("w") < var_rank("u")
    assert var_rank("u") < var_rank("u1") < var_rank("u2")
    assert var_rank("u2") < var_rank("h") < var_rank("q") < var_rank("t")


def test_normalize_var_merges_subscripts():
    assert normalize_var("u_1") == "u1"
    assert normalize_var("u2") == "u2"


def test_display_order_examples():
    u = MPoly.var("u")
    h = MPoly.var("h")
    assert str(u + h) == "u + h"
    assert str(h - u) == "-u + h"
    q = MPoly.var("q")
    z = MPoly.var("z")
    assert str(q * q * z - 1) == "z*q^2 - 1"


def test_arith_ring_identities():
    x = MPoly.var("z")
    y = MPoly.var("w")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p - p == MPoly.zero()
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        MPoly.var("z") ** -1


def test_degree_bookkeeping():
    z = MPoly.var("z")
    q = MPoly.var("q")
    p = z * z * q + z
    assert p.degree() == 3
    assert p.degree_in("z") == 2
    assert p.degree_in("q") == 1
    assert p.degree_in_set({"z", "q"}) == 3
    assert MPoly.zero().degree() == -1


def test_split_and_coeff():
    z = MPoly.var("z")
    q = MPoly.var("q")
    p = z * z * q + z * q + 2
    parts = p.split_by("z")
    assert parts[2] == q
    assert parts[1] == q
    assert parts[0] == MPoly.const(2)
    assert p.coeff_of("z", 1) == q
    assert p.coeff_of("z", 5) == MPoly.zero()


def test_substitute_polynomial():
    z = MPoly.var("z")
    q = MPoly.var("q")
    p = z * q + 1
    out = p.substitute({"z": q * q})
    assert out == q**3 + 1


def test_eval_fraction_and_complex():
    z = MPoly.var("z")
    q = MPoly.var("q")
    p = z * z - q
    assert p.eval_fraction({"z": Fraction(2), "q": Fraction(1, 2)}) == Fraction(7, 2)
    v = p.eval_complex({"z": 1j, "q": 2.0})
    assert abs(v - (-3.0)) < 1e-14


def test_div_exact_and_failure():
    z = MPoly.var("z")
    p = z * z - 1
    d = z - 1
    assert p.div_exact(d) == z + 1
    with pytest.raises(NotDivisible):
        (z * z + 1).div_exact(z - 1)


def test_monic_scales_leading_unit():
    z = MPoly.var("z")
    p = 2 * z * z + 4
    m = p.monic()
    assert m == z * z + 2


def test_gcd_primitive_parts():
    z = MPoly.var("z")
    w = MPoly.var("w")
    a = (z - w) * (z + 1)
    b = (z - w) * (z + 2)
    g = poly_gcd(a, b)
    assert g.monic() == (z - w).monic()
    assert poly_gcd(a, MPoly.zero()).monic() == a.monic()


small_fracs = st_.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st_.composite
def small_polys(draw):
    z = MPoly.var("z")
    q = MPoly.var("q")
    acc = MPoly.const(draw(small_fracs))
    for _ in range(draw(st_.integers(0, 3))):
        c = draw(small_fracs)
        dz = draw(st_.integers(0, 2))
        dq = draw(st_.integers(0, 2))
        acc = acc + MPoly.const(c) * z**dz * q**dq
    return acc


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms_random(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_product_divides_back(a, b):
    if b.is_zero():
        return
    assert (a * b).div_exact(b) == a


_POOL = ("c", "X1", "z", "u2", "q")  # spans the rank classes


def _schoolbook(a: MPoly, b: MPoly) -> tuple[tuple, dict]:
    """Product over the rank-ordered union of variables, term by term."""
    names = tuple(sorted(set(a.vars) | set(b.vars), key=var_rank))

    def spread(p):
        return [
            (tuple(dict(zip(p.vars, e)).get(v, 0) for v in names), c)
            for e, c in p.terms.items()
        ]

    out: dict[tuple, Fraction] = {}
    for ea, ca in spread(a):
        for eb, cb in spread(b):
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return names, {e: c for e, c in out.items() if c}


@st_.composite
def wide_polys(draw):
    names = draw(st_.lists(st_.sampled_from(_POOL), min_size=0, max_size=4, unique=True))
    exps = st_.tuples(*[st_.integers(0, 40)] * len(names))
    terms = draw(st_.dictionaries(exps, small_fracs, min_size=1, max_size=5))
    return MPoly(names, terms)


@st_.composite
def product_pairs(draw):
    a, b = draw(wide_polys()), draw(wide_polys())
    if draw(st_.booleans()):
        a, b = a + b, a - b  # cross terms cancel
    return a, b


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_packed_product_equals_schoolbook(pair):
    a, b = pair
    names, ref = _schoolbook(a, b)
    expected = MPoly(names, ref)
    got = a * b
    assert got.terms == expected.terms
    support = {v for e in ref for v, k in zip(names, e) if k}
    assert got.vars == tuple(v for v in names if v in support)
    assert hash(got) == hash(expected)
    assert b * a == got
