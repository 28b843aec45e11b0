"""Exact multivariate polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

from qilab.field import (
    MPoly,
    NotDivisible,
    RatFun,
    apply_on_slots,
    mat_mul,
    normalize_var,
    poly_gcd,
    var_rank,
)
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
    assert p.degree_in("z") == 2
    assert p.degree_in("q") == 1
    assert p.degree_in_set({"z", "q"}) == 3


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
            for e, c in p.terms().items()
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
    assert got.terms() == expected.terms()
    support = {v for e in ref for v, k in zip(names, e) if k}
    assert got.vars == tuple(v for v in names if v in support)
    assert hash(got) == hash(expected)
    assert b * a == got


def _stored(p: MPoly) -> tuple:
    """The stored form, checked canonical: exact rank-ordered support, a
    primitive int vector with positive leading coefficient, guard bits clear,
    and the content as two ints in lowest terms with a positive denominator."""
    num, den = p._num, p._den
    assert type(num) is int and type(den) is int
    if p.is_zero():
        assert p.vars == () and p._ints == {} and (num, den) == (0, 1)
        return p.vars, p._ints, num, den
    assert p.vars == tuple(sorted(p.vars, key=var_rank))
    assert all(p.degree_in(v) > 0 for v in p.vars)
    assert poly_mod.gcd(*p._ints.values()) == 1
    assert p._ints[max(p._ints)] > 0 and num != 0
    assert den > 0 and poly_mod.gcd(num, den) == 1
    guard = poly_mod._masks(len(p.vars))[0]
    assert not any(k & guard for k in p._ints)
    return p.vars, p._ints, num, den


@settings(max_examples=150, deadline=None)
@given(wide_polys(), wide_polys(), small_fracs.filter(bool))
def test_every_route_gives_one_stored_form(a, b, s):
    names = list(a.vars) + ["t"]  # shuffled and with an unused variable
    rebuilt = MPoly(names[::-1], {(0,) + e[::-1]: c for e, c in a.terms().items()})
    ab = a * b
    routes = [
        rebuilt,
        (a + b) - b,
        -(b - a) + b,
        a * s * (1 / s),
        a * 1,
        a.substitute({}),
    ]
    if not b.is_zero():
        routes.append(ab.div_exact(b))
        routes.append((ab + b).div_exact(b) - 1)
    for p in routes:
        assert _stored(p) == _stored(a)
        assert hash(p) == hash(a)
    names, ref = _schoolbook(a, b)
    assert _stored(ab) == _stored(MPoly(names, ref))


@settings(max_examples=60, deadline=None)
@given(
    small_fracs.filter(bool),
    st_.lists(st_.sampled_from(["z", "q", "u_1", "h", "X2"]), max_size=4),
    st_.integers(1, 7),
)
def test_a_monomial_power_is_the_repeated_product(c, names, n):
    # one-term powers take their own path; constants have no variables
    mono = MPoly.const(c)
    for v in names:
        mono = mono * MPoly.var(v)
    product = mono
    for _ in range(n - 1):
        product = product * mono
    assert _stored(mono**n) == _stored(product)


@st_.composite
def zwqu_polys(draw):
    names = draw(st_.lists(st_.sampled_from(("z", "w", "q", "u")), max_size=4, unique=True))
    exps = st_.tuples(*[st_.integers(0, 6)] * len(names))
    terms = draw(st_.dictionaries(exps, small_fracs, min_size=1, max_size=6))
    return MPoly(names, terms)


_Z, _W, _U = MPoly.var("z"), MPoly.var("w"), MPoly.var("u")


@settings(max_examples=200, deadline=None)
@given(zwqu_polys(), st_.sampled_from([("z", "w"), ("w", "z"), ("z", "u"), ("q", "w")]))
@example(_Z - _W, ("z", "w"))  # the leading coefficient turns negative
@example(3 * _Z**2 * _U - 5 * _W**3 + _U, ("z", "w"))  # and again, with u
@example(_Z * _U - 2, ("z", "w"))  # only one of the pair
@example(_W**2 - _U, ("w", "z"))
@example(_Z * _W - _U**2, ("z", "u"))  # the support is reordered
def test_exchange_is_the_swapping_substitution(p, pair):
    a, b = pair
    got = p.exchange(a, b)
    want = p.substitute({a: MPoly.var(b), b: MPoly.var(a)})
    assert _stored(got) == _stored(want)
    assert hash(got) == hash(want)
    assert _stored(got.exchange(a, b)) == _stored(p)
    assert _stored(got.exchange(b, a)) == _stored(p)
    if a not in p.vars and b not in p.vars:
        assert got is p


def test_exchange_of_a_pair_outside_the_support_returns_self():
    p = 3 * MPoly.var("q") ** 2 - _U * Fraction(1, 7)
    for a, b in (("z", "w"), ("h", "t"), ("q", "q"), ("u_1", "X2")):
        assert p.exchange(a, b) is p
    assert MPoly.zero().exchange("z", "w") is MPoly.zero()
    assert MPoly.const(5).exchange("z", "w") == 5
    # a spelling with an underscore names the same variable
    u1 = MPoly.var("u1")
    assert (u1 - _Z).exchange("u_1", "z") == _Z - u1


def test_exponent_at_the_guard_limit_raises():
    limit = 2**31  # the guard bit of a 32-bit slot
    z, q = MPoly.var("z"), MPoly.var("q")
    top = MPoly(("q", "z"), {(1, limit - 1): 3})
    assert top.degree_in("z") == limit - 1 and str(top) == f"3*z^{limit - 1}*q"
    assert top.div_exact(z ** (limit - 1)) == 3 * q
    assert ((z ** (limit // 2 - 1)) ** 2).degree_in("z") == limit - 2
    for build in (
        lambda: MPoly(("z",), {(limit,): 1}),
        lambda: MPoly(("z",), {(-1,): 1}),
        lambda: top * z,
        lambda: (z + q) * (top + 1),
        lambda: z**limit,
        lambda: (z ** (limit // 2)) ** 2,
        lambda: (3 * q * z ** (limit // 2 + 1)) ** 2,
        lambda: mat_mul([[top]], [[z + 1]]),
    ):
        with pytest.raises(ValueError, match="exponent"):
            build()


def test_constructors_give_canonical_data():
    assert MPoly.const(0).terms() == {} and MPoly.const(0).vars == ()
    assert MPoly.const(Fraction(-2, 4)).terms() == {(): Fraction(-1, 2)}
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


def _long_division(f: MPoly, g: MPoly):
    """f / g by leading terms over Fractions on exponent tuples of the
    union of the supports; None when a remainder is left."""
    names = tuple(sorted(set(f.vars) | set(g.vars), key=var_rank))

    def spread(p):
        return {
            tuple(dict(zip(p.vars, e)).get(v, 0) for v in names): c
            for e, c in p.terms().items()
        }

    rem, tb = spread(f), spread(g)
    eb = max(tb)
    quo = {}
    while rem:
        er = max(rem)
        eq = tuple(a - b for a, b in zip(er, eb))
        if any(x < 0 for x in eq):
            return None
        cq = quo[eq] = rem[er] / tb[eb]
        for e, c in tb.items():
            tgt = tuple(a + b for a, b in zip(e, eq))
            acc = rem.get(tgt, 0) - c * cq
            if acc:
                rem[tgt] = acc
            else:
                rem.pop(tgt, None)
    return MPoly(names, quo)


@settings(max_examples=200, deadline=None)
@given(division_pairs())
# a remainder key past the guard bit: z*q^(2^31 + 2) after the first step
@example(
    (MPoly(("z", "q"), {(2, 2**31 - 3): 1}), MPoly(("z", "q"), {(1, 0): 1, (0, 5): 1}))
)
def test_packed_division_test_matches_div_exact(pair):
    f, g = pair
    if f.is_const() or g.is_const():
        return
    # the guard-bit division on the stored ints against long division over Q,
    # which for primitive parts means over Z (Gauss)
    vars, pf, pg = poly_mod._align(f, g)
    quotient = poly_mod._quotient(pf, pg, poly_mod._masks(len(vars))[0])
    expected = _long_division(f, g)
    assert (quotient is not None) == (expected is not None)
    if expected is None:
        with pytest.raises(NotDivisible):
            f.div_exact(g)
    else:
        assert f.div_exact(g) == expected


def test_arithmetic_builds_no_fraction(monkeypatch):
    # contents are int pairs: no Fraction is made on the way through the
    # kernel, only where one is handed out (terms, key, as_fraction, ...)
    z, q, u = MPoly.var("z"), MPoly.var("q"), MPoly.var("u")
    a = Fraction(3, 4) * z * q + Fraction(-5, 6) * u + 2
    b = Fraction(2, 9) * z - q * q
    c = a * b * Fraction(7, 10)
    b23 = Fraction(2, 3) * b
    F = [[q, 0, 0, 0], [0, b, Fraction(1, 3) * z, 0], [0, u, a, 0], [0, 0, 0, q]]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [
        a + b,
        a - b,
        a + 3,
        -a,
        a * b,
        a * 5,
        c.div_exact(b),
        c.div_exact(3),
        c.monic(),
        MPoly.matrix_product([[a, b], [0, c]], [[b, 0], [a, u]]),
        apply_on_slots(3, [(F, (0, 1)), (F, (2, 1))]),
        RatFun(c, b * u),
        RatFun(a, b) + RatFun(u, b),
        RatFun(a, b23) * RatFun(b, a * q),
    ]
    assert made == []
    assert a.terms()  # the counter sees a Fraction built at the edge
    monkeypatch.undo()
    assert made
    assert results[6] == a * Fraction(7, 10)
    assert results[-1] == RatFun(Fraction(3, 2), q)
