"""The fundamental 4x4 solution: identities, degenerations, pole data."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qilab import rmatrix
from qilab.field import MPoly, RatFun, apply_on_slots, mat_eq, mat_mul
from qilab.rmatrix import (
    _lowest_along,
    _taylor_lowest,
    check_hexagon,
    check_intertwiner,
    check_inverse,
    check_pole_structure,
    check_ybe,
    check_yang,
    cleared_r,
    coproduct_action,
    normalize,
    perm_p,
    pole_limit,
    pole_limit_holds,
    random_rational,
    trig_r,
    yang_limit,
)

Q = RatFun.var("q")
Z = RatFun.var("z")


def test_entry_closed_forms():
    R = trig_r(Z)
    assert R[0][0] == RatFun(1)
    assert R[3][3] == RatFun(1)
    den = Z - Q**-2
    assert R[1][1] == Q**-1 * (Z - 1) / den
    assert R[2][2] == R[1][1]
    assert R[1][2] == (1 - Q**-2) / den
    assert R[2][1] == Z * (1 - Q**-2) / den
    assert R[0][1].is_zero() and R[3][0].is_zero()


def test_pole_argument_rejected():
    with pytest.raises(ZeroDivisionError):
        trig_r(Q**-2)


def test_unit_argument_is_permutation():
    R = trig_r(RatFun(1))
    P = [[RatFun(x) for x in row] for row in perm_p()]
    assert mat_eq(R, P)


def test_cleared_matches_scaled_normalized():
    z = MPoly.var("z")
    C = cleared_r(z, 1)
    corner = RatFun(C[0][0])
    R = trig_r(Z)
    for i in range(4):
        for j in range(4):
            assert RatFun(C[i][j]) == corner * R[i][j]


@pytest.mark.parametrize("f", [Fraction(3, 5), Fraction(-2), Fraction(7, 3)])
def test_cleared_at_pinned_q_equals_substitution(f):
    z, w = MPoly.var("z"), MPoly.var("w")
    at = {"q": MPoly.const(f)}
    for zeta in (z, Fraction(3, 5) * z * w, 2):
        want = [[e.substitute(at) for e in row] for row in cleared_r(zeta, 1)]
        assert cleared_r(zeta, 1, q=MPoly.const(f)) == want


def test_normalize_round_trip():
    z = MPoly.var("z")
    C = [[RatFun(e) for e in row] for row in cleared_r(z, 1)]
    rows, factor = normalize(C)
    assert rows[0][0] == RatFun(1)
    assert mat_eq(rows, trig_r(Z))
    assert factor * C[0][0] == RatFun(1)


def test_ybe_passes_and_perturbation_fails():
    assert check_ybe().ok
    assert check_ybe(Fraction(2), Fraction(3), Fraction(5)).ok
    assert not check_ybe(perturb=True).ok


def test_yang_limit_golden():
    lim = yang_limit()
    u = MPoly.var("u")
    h = MPoly.var("h")
    s = u + h
    assert lim[1][1] == RatFun(u, s)
    assert lim[1][2] == RatFun(h, s)
    assert lim[2][1] == RatFun(h, s)
    assert lim[0][0] == RatFun(1)
    cr = check_yang()
    assert cr.ok
    assert not check_yang(perturb=True).ok


def test_yang_limit_matches_evaluation_along_the_ray():
    # R at z = 1 + eps u0, q = 1 + eps h0/2 is the limit at (u0, h0) up to O(eps)
    R = trig_r(Z)
    lim = yang_limit()
    for u0, h0 in [(2, 3), (Fraction(-5, 7), Fraction(1, 3)), (1, -4)]:
        u0, h0 = Fraction(u0), Fraction(h0)
        for eps in (Fraction(1, 10**4), Fraction(1, 10**8)):
            at = {"z": 1 + eps * u0, "q": 1 + eps * h0 / 2}
            point = {"u": u0, "h": h0}
            err = max(
                abs(R[i][j].eval_fraction(at) - lim[i][j].eval_fraction(point))
                for i in range(4)
                for j in range(4)
            )
            assert err / eps <= 10


def test_pole_limit_matches_evaluation_along_the_ray():
    # (z - 1) R(z q^-2) at z = 1 + eps differs from the residue by O(eps)
    M = trig_r(RatFun(MPoly.var("z"), MPoly.var("q") ** 2))
    order, res = pole_limit(M, "z", 1)
    assert order == 1
    q0 = Fraction(3, 5)
    for eps in (Fraction(1, 10**4), Fraction(1, 10**8)):
        at = {"z": 1 + eps, "q": q0}
        err = max(
            abs(eps * M[i][j].eval_fraction(at) - res[i][j].eval_fraction({"q": q0}))
            for i in range(4)
            for j in range(4)
        )
        assert err / eps <= 10


_FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def polys_along_rays(draw):
    """A nonzero polynomial in z, q, u1, u, h and w times a random power of
    (v - c), so its vanishing order at v = c is high, with the variable v,
    one of z, q, u1 and u, and the point c.  u1 is sometimes spelled
    ``u_1``."""
    names = ("z", "q", "u1", "u", "h", "w")
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    terms = st.dictionaries(exps, _FRACS.filter(bool), min_size=1, max_size=4)
    v, c = draw(st.sampled_from(names[:4])), draw(_FRACS)
    p = MPoly(names, draw(terms)) * (MPoly.var(v) - c) ** draw(st.integers(0, 6))
    if v == "u1" and draw(st.booleans()):
        v = "u_1"
    return p, v, c


@settings(max_examples=80, deadline=None)
@given(polys_along_rays())
def test_taylor_coefficients_match_the_full_expansion(case):
    # the first nonzero Taylor coefficient against expanding p at v = c + t
    p, v, c = case
    parts = p.substitute({v: c + MPoly.var("t")}).split_by("t")
    assert _taylor_lowest(p, v, c) == (min(parts), parts[min(parts)])


@pytest.mark.parametrize("a, orders", [("z^3200", [1, 0, 0, 0]), ("(z-1)^60", [0] * 4)])
def test_pole_limit_substitutes_nothing(a, orders, monkeypatch):
    # the full expansion of (z-1)^N along z = 1 + t forms about N^3/3
    # coefficient products; the Taylor coefficients need no substitution
    M = trig_r(Z * RatFun.parse(a) / Q**2)

    def refuse(*args):
        raise AssertionError("pole_limit substituted")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    points = (1, Fraction(3, 2), 0, -1)
    assert [pole_limit(M, "z", point)[0] for point in points] == orders


def test_lowest_along_stops_on_a_vanishing_substitution():
    t, h = MPoly.var("t"), MPoly.var("h")
    f = RatFun(MPoly.var("z") - MPoly.var("q"), 1)
    with pytest.raises(ValueError, match="vanishes along the ray"):
        _lowest_along(f, {"z": 2 + t * h, "q": 2 + h * t})
    with pytest.raises(ValueError, match="vanishes along the ray"):
        _lowest_along(f, {"z": MPoly.var("u"), "q": MPoly.var("u")})


def test_pole_order_and_residue():
    order, lim = pole_limit([[RatFun(1) / ((Z - 1) ** 2), Z - 1]], "z", 1)
    assert order == 2
    assert lim == [[RatFun(1), RatFun(0)]]
    # a zero of order 1 only: the scaled limit is the entry's leading coefficient
    assert pole_limit([[Z - 1, RatFun(0)]], "z", 1) == (-1, [[RatFun(1), RatFun(0)]])
    assert pole_limit([[RatFun(0)]], "z", 1) == (0, [[RatFun(0)]])
    with pytest.raises(ValueError, match="contains t"):
        pole_limit([[RatFun.var("t")]], "z", 1)


def test_pole_limit_holds_rejects_a_wrong_order_or_entry():
    # the arguments of the pole_limit inputs pinned for `rmat limit`
    for a, b, point in (
        (RatFun(2), RatFun(3), Fraction(3, 2)),
        (RatFun(1), Q, 1),
        (RatFun(1), RatFun(1), 1),
        (Q, RatFun(1), 1),
        (RatFun(1), Z, 1),
        (Z**2, Q, 1),
        (RatFun(0), RatFun(1), 1),
    ):
        M = trig_r(Z * a / b)
        order, lim = pole_limit(M, "z", point)
        assert pole_limit_holds(M, "z", point, order, lim)
        assert not pole_limit_holds(M, "z", point, order - 1, lim)
        assert not pole_limit_holds(M, "z", point, order + 1, lim)
        for i, j in ((1, 1), (0, 3)):  # a nonzero and a zero limit entry
            wrong = [list(row) for row in lim]
            wrong[i][j] = wrong[i][j] + 1
            assert not pole_limit_holds(M, "z", point, order, wrong)
    zero = [[RatFun(0)] * 2]
    assert pole_limit_holds(zero, "z", 1, 0, zero)


def test_pole_limit_rank_one():
    cr = check_pole_structure()
    assert cr.ok
    assert cr.details["pole_order"] == 1
    assert cr.details["rank"] == 1
    q = MPoly.var("q")
    order, res = pole_limit(trig_r(RatFun(MPoly.var("z"), q * q)), "z", 1)
    assert order == 1
    assert res[1][1] == RatFun(1 - q * q, q)
    assert res[1][2] == RatFun(q * q - 1)
    assert res[2][1] == RatFun(q * q - 1, q * q)
    assert res[0][0].is_zero()


def test_inverse_identity():
    cr = check_inverse()
    assert cr.ok
    assert not check_inverse(perturb=True).ok


def test_hexagon():
    cr = check_hexagon()
    assert cr.ok
    assert not check_hexagon(perturb=True).ok


def _braid_hexagon(seed, points, perturb=False) -> list:
    """Per-draw verdicts of the braid form of the hexagon: with Ř = P R,
    Ř_bc Ř_ac Ř_ab on slots (0,1), (1,2), (0,1) against Ř_ab Ř_ac Ř_bc on
    (1,2), (0,1), (1,2), over the draws ``check_hexagon`` makes;
    ``perturb`` doubles entry (1, 2) of the left side's middle factor."""
    P = perm_p()
    rng = np.random.default_rng(seed)
    draws = [(Fraction(1),) * 3]
    draws += [tuple(random_rational(rng) for _ in "abc") for _ in range(points)]
    z, w = MPoly.var("z"), MPoly.var("w")
    out = []
    for a, b, c in draws:
        pr_ab = mat_mul(P, rmatrix.cleared_r(a / b * z))
        pr_ac = mat_mul(P, rmatrix.cleared_r(a / c * z * w))
        pr_bc = mat_mul(P, rmatrix.cleared_r(b / c * w))
        mid = [row[:] for row in pr_ac]
        if perturb:
            mid[1][2] = 2 * mid[1][2]
        lhs = apply_on_slots(3, [(pr_bc, (0, 1)), (mid, (1, 2)), (pr_ab, (0, 1))])
        rhs = apply_on_slots(3, [(pr_ab, (1, 2)), (pr_ac, (0, 1)), (pr_bc, (1, 2))])
        out.append(mat_eq(lhs, rhs))
    return out


def _broken(entry, scale):
    good = rmatrix.cleared_r

    def broken(zn, zd=1, q=MPoly.var("q")):
        R = good(zn, zd, q)
        i, j = entry
        R[i][j] = R[i][j] * scale(zn)
        return R

    return broken


_with_each_defect = pytest.mark.parametrize(
    "entry, scale",
    [
        (None, None),
        ((2, 1), lambda zeta: 2),
        ((2, 1), lambda zeta: 1 + zeta),
        ((1, 2), lambda zeta: 2),
        ((1, 1), lambda zeta: 2),
        ((2, 2), lambda zeta: 1 + zeta),
    ],
    ids=["unbroken", "R21x2", "R21x(1+zeta)", "R12x2", "R11x2", "R22x(1+zeta)"],
)


@_with_each_defect
def test_hexagon_gives_the_braid_form_verdict_on_every_draw(monkeypatch, entry, scale):
    # for any 4x4 R the braid relation of P R is the triple exchange identity
    # conjugated by flips, so the ybe routine decides each draw as the braid
    # form does, for a broken R as for the true one
    if entry is not None:
        monkeypatch.setattr(rmatrix, "cleared_r", _broken(entry, scale))
    for seed in range(4):
        braid = _braid_hexagon(seed, 3)
        cr = check_hexagon(seed=seed, points=3)
        assert [row["ok"] for row in cr.details["cases"]] == braid
        assert all(braid) == (entry is None)
        assert cr.ok == (entry is None)


@_with_each_defect
def test_exchange_rows_give_the_materialised_verdict(monkeypatch, entry, scale):
    # the triple exchange identity compares the rows of its sides in step;
    # each call must decide as mat_eq of the two sides built whole
    if entry is not None:
        monkeypatch.setattr(rmatrix, "cleared_r", _broken(entry, scale))
    streamed, rows = rmatrix._exchange_row, []

    def against_whole_sides(m12, m13, m23):
        f12, f13, f23 = (m12, (0, 1)), (m13, (0, 2)), (m23, (1, 2))
        lhs, rhs = apply_on_slots(3, [f12, f13, f23]), apply_on_slots(3, [f23, f13, f12])
        whole = next((i for i, (x, y) in enumerate(zip(lhs, rhs)) if not mat_eq([x], [y])), None)
        rows.append(streamed(m12, m13, m23))
        assert rows[-1] == whole
        return whole

    monkeypatch.setattr(rmatrix, "_exchange_row", against_whole_sides)
    for abc in [(1, 1, 1), (2, 3, 5), (Fraction(1, 2), Fraction(-3, 7), 4)]:
        for perturb in (False, True):
            cr = check_ybe(*abc, perturb=perturb)
            assert cr.ok == (entry is None and not perturb)
            # a failure counts the 8 entries of each row compared
            assert cr.details["entries_compared"] == (64 if cr.ok else 8 * (rows[-1] + 1))
    for perturb in (False, True):
        assert check_yang(perturb=perturb).details["additive_identity"] == (not perturb)
    assert rows.count(None) == (4 if entry is None else 1)


def test_hexagon_perturb_fails_every_draw():
    for seed in range(4):
        cr = check_hexagon(seed=seed, points=3, perturb=True)
        assert [row["ok"] for row in cr.details["cases"]] == [False] * 4
        assert _braid_hexagon(seed, 3, perturb=True) == [False] * 4


def test_intertwiner():
    cr = check_intertwiner()
    assert cr.ok
    assert not check_intertwiner(perturb=True).ok


def test_coproduct_action_shape():
    acts = coproduct_action()
    # one matrix per generator, all 4x4
    assert len(acts) >= 2
    for M in acts.values() if isinstance(acts, dict) else acts:
        assert len(M) == 4 and all(len(row) == 4 for row in M)
