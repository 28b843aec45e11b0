"""Exact multivariate polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from qilab.field import MPoly, NotDivisible, normalize_var, poly_gcd, var_rank
from qilab.field import poly as poly_mod


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


def test_constructors_give_canonical_data():
    assert MPoly.const(0).terms == {} and MPoly.const(0).vars == ()
    assert MPoly.const(Fraction(-2, 4)).terms == {(): Fraction(-1, 2)}
    assert MPoly.var("u_2").vars == ("u2",)
    z = MPoly.var("z")
    assert z**0 == MPoly.const(1)
    assert MPoly.zero() ** 3 == MPoly.zero()
    assert (2 * z - 1) ** 5 == (2 * z - 1) ** 4 * (2 * z - 1)


nonzero_fracs = small_fracs.filter(bool)


@st_.composite
def gcd_pairs(draw):
    """``(g*a*x^m, g*b*x^n)``: a planted common factor over 0-4 variables."""
    names = draw(st_.lists(st_.sampled_from(_POOL), max_size=4, unique=True))
    exps = st_.tuples(*[st_.integers(0, 2)] * len(names))

    def poly(max_terms):
        terms = draw(st_.dictionaries(exps, nonzero_fracs, min_size=1, max_size=max_terms))
        return MPoly(names, terms)

    def monomial():
        return MPoly(names, {draw(st_.tuples(*[st_.integers(0, 3)] * len(names))): 1})

    g = poly(3)
    a = g * poly(draw(st_.sampled_from([1, 3]))) * monomial()
    b = g * poly(draw(st_.sampled_from([1, 3]))) * monomial()
    if draw(st_.booleans()):
        a = a * g  # a repeated factor
    if draw(st_.integers(0, 9)) == 0:
        a = MPoly.zero()
    return a, b


@settings(max_examples=150, deadline=None)
@given(gcd_pairs())
def test_poly_gcd_agrees_with_remainder_sequence(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert g == poly_mod._prs_gcd(a, b)
    assert g.vars == tuple(sorted(g.vars, key=var_rank))
    assert g.lex_leading()[1] == 1
    ca, cb = a.div_exact(g), b.div_exact(g)  # raises NotDivisible if g does not divide
    assert poly_gcd(ca, cb) == MPoly.const(1)
    assert poly_gcd(b, a) == g


# (g, a, b) with a and b coprime: planted gcds over two to four variables
# that the heuristic must answer without the remainder sequence.
def _heuristic_cases():
    z, w, u, q = (MPoly.var(v) for v in "zwuq")
    return [
        (3 * z + 2 * q, 6 * z * z - 4 * q, z * q + Fraction(1, 2)),
        (z * w - 2 * q, (z + w) ** 2, 4 * z - 2 * q * q + w),
        (u * q + 3, 5 * u + 10 * q, u * u * q - 7),
        (z - q, z + q, z * q + 1),
        (2 * z * w * u + 4 * q, 3 * u * u - w, 6 * z * z + 9 * q * q),
        (w * w * q - Fraction(4, 3) * z, w + q, z * w + u),
        (q * q + 3, z + q, z * q - 2),  # a gcd in the evaluated variable alone
        (z + q, q * q + q + 2, q * q + q + 4),  # cofactor values are all even
    ]


def test_heuristic_answers_without_fallback(monkeypatch):
    def fail(a, b):
        raise AssertionError("remainder sequence used")

    monkeypatch.setattr(poly_mod, "_prs_gcd", fail)
    z, q = MPoly.var("z"), MPoly.var("q")
    for g, a, b in _heuristic_cases():
        got = poly_gcd(14 * g * a * z * z, 21 * g * b * z * q)
        assert got == (g * z).monic()
    # coprime pairs whose first candidate is a false common factor (z - 1,
    # z - 3/2, z - 1) that only the division test rejects
    for a, b in [(z * z + 2, 4 * z - 4), (2 * z - 3, 1 - 5 * z), (5 * z * z + 1, 2 * z * z - 2)]:
        assert poly_gcd(a, b) == MPoly.const(1)


def test_fallback_runs_when_the_heuristic_gives_up(monkeypatch):
    calls = []
    prs = poly_mod._prs_gcd

    def spy(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(poly_mod, "_prs_gcd", spy)
    z = MPoly.var("z")
    big = 3**1300  # xi has over 2000 bits, so xi's size times the degree 3 passes the limit
    a = (z + big) * (z * z + 1)
    b = (z + big) * (z * z + 2)
    assert poly_gcd(a, b) == z + big
    assert calls == [(a, b)]


@st_.composite
def division_pairs(draw):
    names = draw(st_.lists(st_.sampled_from(_POOL), min_size=1, max_size=3, unique=True))
    exps = st_.tuples(*[st_.integers(0, 4)] * len(names))
    coeffs = st_.integers(-3, 3).filter(bool)

    def poly():
        return MPoly(names, draw(st_.dictionaries(exps, coeffs, min_size=1, max_size=3)))

    f, g = poly(), poly()
    if draw(st_.booleans()):
        f = f * g
    return f, g


@settings(max_examples=200, deadline=None)
@given(division_pairs())
def test_packed_division_test_matches_div_exact(pair):
    f, g = pair
    if f.is_const() or g.is_const():
        return
    zeros = ([0] * len(f.vars), [0] * len(g.vars))
    layout = poly_mod._GcdLayout((f, zeros[0]), (g, zeros[1]))
    pf, pg = layout.pack(f, zeros[0]), layout.pack(g, zeros[1])
    try:
        f.div_exact(g)  # over Q, which for primitive parts means over Z (Gauss)
        expected = True
    except NotDivisible:
        expected = False
    assert poly_mod._divides(pf, pg, layout.guards[layout.n]) == expected
