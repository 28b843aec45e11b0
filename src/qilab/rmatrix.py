"""The fundamental 4x4 spectral solution and its structural checks.

Basis order on a two-fold tensor product is e1(x)e1, e1(x)e2, e2(x)e1,
e2(x)e2.  The normalized solution with corner entry 1 is

    R(zeta) = [[1, 0,  0,  0],
               [0, b,  c2, 0],
               [0, c1, b,  0],
               [0, 0,  0,  1]]

    b  = q^-1 (zeta - 1)/(zeta - q^-2)
    c2 = (1 - q^-2)/(zeta - q^-2)
    c1 = zeta (1 - q^-2)/(zeta - q^-2)

It is written once, in three forms: ``trig_r`` over rational functions,
``numeric_r`` in complex128 (the chain's numeric factor) and ``cleared_r``,
the polynomial matrix (q^2 zeta - 1) R(zeta) at symbolic or pinned q.  The
first two run the one weight formula ``_weights``, all three return the one
layout ``_layout``, and ``rmat normalize`` ties the cleared form to the
normalized one.

Identity checks run on cleared polynomial matrices: every factor is scaled
by its corner denominator so both sides of an identity carry the same
scalar and the comparison is pure polynomial equality, with no gcd work.
Evaluation modules attach a spectral parameter a to each two-dimensional
space; a pair (a, b) meets at argument zeta = z * a / b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

import numpy as np

from .field import (
    MPoly,
    RatFun,
    apply_on_slots,
    identity,
    kron,
    mat_add,
    mat_eq,
    mat_mul,
    mat_scale,
    rref,
)
from .verdict import CheckResult

__all__ = [
    "perm_p",
    "trig_r",
    "numeric_r",
    "cleared_r",
    "normalize",
    "check_ybe",
    "yang_limit",
    "check_yang",
    "pole_limit",
    "pole_limit_holds",
    "check_pole_structure",
    "check_inverse",
    "check_hexagon",
    "coproduct_action",
    "check_intertwiner",
    "random_rational",
]

_Q = MPoly.var("q")
_Z = MPoly.var("z")
_W = MPoly.var("w")
_T = MPoly.var("t")


def perm_p():
    """The flip of the two tensor factors."""
    return [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]


def _layout(one, b, c2, c1, zero) -> list:
    """The 4x4 arrangement every form of the solution shares."""
    return [
        [one, zero, zero, zero],
        [zero, b, c2, zero],
        [zero, c1, b, zero],
        [zero, zero, zero, one],
    ]


def _weights(zeta, q, on_pole, message):
    """Normalized weights (b, c2, c1) at argument zeta, in any field that
    holds zeta and q (RatFun or complex); ``on_pole(den)`` is the form's own
    pole guard."""
    den = zeta - q**-2
    if on_pole(den):
        raise ZeroDivisionError(message)
    b = (zeta - 1) / (q * den)
    c2 = (1 - q**-2) / den
    c1 = zeta * (1 - q**-2) / den
    return b, c2, c1


def trig_r(zeta) -> list:
    """Normalized solution at spectral argument ``zeta`` (a RatFun)."""
    if not isinstance(zeta, RatFun):
        zeta = RatFun(zeta)
    w = _weights(
        zeta, RatFun.var("q"), RatFun.is_zero, "spectral argument sits on the pole"
    )
    return _layout(RatFun(1), *w, RatFun(0))


def numeric_r(zeta: complex, q: complex) -> np.ndarray:
    """Numeric fundamental solution at argument zeta."""
    w = _weights(
        zeta,
        q,
        lambda den: abs(den) < 1e-12,
        "spectral argument numerically on the pole",
    )
    return np.array(_layout(1, *w, 0), dtype=complex)


def cleared_r(zn, zd=1, q=_Q):
    """Polynomial matrix ``(q^2 zn - zd) * R(zn/zd)`` for zeta = zn/zd, q
    symbolic unless given."""
    if not isinstance(zn, MPoly):
        zn = MPoly.const(zn)
    if not isinstance(zd, MPoly):
        zd = MPoly.const(zd)
    q2 = q * q
    corner = q2 * zn - zd
    return _layout(corner, q * (zn - zd), (q2 - 1) * zd, (q2 - 1) * zn, MPoly.zero())


def normalize(M):
    """Rescale so the corner entry is 1; returns (matrix, factor)."""
    corner = M[0][0]
    if not isinstance(corner, RatFun):
        corner = RatFun(corner)
    if corner.is_zero():
        raise ZeroDivisionError("corner entry vanishes; cannot normalize")
    f = corner.inverse()
    return [[f * x for x in row] for row in M], f


def random_rational(rng, avoid=(), lo=-9, hi=9) -> Fraction:
    """Small random fraction from a seeded generator, away from given values."""
    avoid = set(avoid)
    while True:
        p = int(rng.integers(lo, hi + 1))
        r = int(rng.integers(1, 10))
        f = Fraction(p, r)
        if f != 0 and f not in avoid:
            return f


def _zeta_pair(scale: Fraction, *poly_factors):
    zn = MPoly.const(scale)
    for p in poly_factors:
        zn = zn * p
    return zn, MPoly.const(1)


def _exchange_holds(m12, m13, m23) -> bool:
    """M12*M13*M23 == M23*M13*M12 for three 4x4 factors on three slots."""
    f12, f13, f23 = (m12, (0, 1)), (m13, (0, 2)), (m23, (1, 2))
    return mat_eq(
        apply_on_slots(3, [f12, f13, f23]), apply_on_slots(3, [f23, f13, f12])
    )


def check_ybe(a=Fraction(1), b=Fraction(1), c=Fraction(1), perturb=False) -> CheckResult:
    """Triple exchange identity on three spaces with parameters a, b, c.

    Arguments z and w stay symbolic; the three spectral arguments are
    z*a/b, z*w*a/c, and w*b/c on the (1,2), (1,3), (2,3) pairs.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    r12 = cleared_r(*_zeta_pair(a / b, _Z))
    r13 = cleared_r(*_zeta_pair(a / c, _Z, _W))
    r23 = cleared_r(*_zeta_pair(b / c, _W))
    if perturb:
        r12 = [row[:] for row in r12]
        r12[1][2] = 2 * r12[1][2]
    return CheckResult(
        name="ybe",
        ok=_exchange_holds(r12, r13, r23),
        details={
            "params": {"a": str(a), "b": str(b), "c": str(c)},
            "symbolic": ["z", "w"],
            "entries_compared": 64,
            "perturbed": bool(perturb),
        },
    )


def _lowest_along(f: RatFun, ray: dict):
    """Substitute ``ray`` (variable -> polynomial in a fresh t) into the
    numerator and denominator of a nonzero ``f``.

    Returns ``((dn, cn), (dd, cd))``: the lowest t-degree of each and its
    coefficient, so ``f ~ t^(dn - dd) * cn / cd`` as t -> 0.  The whole
    substitution is expanded, which suits ``yang_limit``'s small fixed
    entries; ``pole_limit`` reads Taylor coefficients instead.
    """
    out = []
    for p in (f.num, f.den):
        parts = p.substitute(ray).split_by("t")
        if not parts:
            raise ValueError(f"{p} vanishes along the ray")
        d = min(parts)
        out.append((d, parts[d]))
    return out


def yang_limit(cutoff: int = 6):
    """Leading behaviour of each entry under z -> 1+u, q -> 1+h/2.

    Along z = 1 + t u, q = 1 + t h/2 the t^d coefficient of a polynomial is
    its degree-d homogeneous part in (u, h), so each entry's leading form is
    the ratio of the lowest coefficients.  ``cutoff`` bounds the leading
    degree of each denominator.  Returns a 4x4 matrix of exact rational
    functions in (u, h).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    u, h = MPoly.var("u"), MPoly.var("h")
    ray = {"z": 1 + _T * u, "q": 1 + _T * h * Fraction(1, 2)}
    out = []
    for row in trig_r(RatFun.var("z")):
        out_row = []
        for entry in row:
            if entry.is_zero():
                out_row.append(RatFun(0))
                continue
            (_, cn), (dd, cd) = _lowest_along(entry, ray)
            if dd >= cutoff:
                raise ZeroDivisionError("denominator series vanishes to the cutoff")
            out_row.append(RatFun(cn, cd))
        out.append(out_row)
    return out


def _additive_cleared(s):
    """The cleared degenerate factor s*I + h*P."""
    h = MPoly.var("h")
    return _layout(s + h, s, h, h, MPoly.zero())


def check_yang(cutoff: int = 6, perturb=False) -> CheckResult:
    """Degeneration checks: the closed form of the limit and the
    additive-parameter triple exchange identity.

    ``cutoff`` bounds the leading degree of each denominator.
    """
    lim = yang_limit(cutoff)
    u = MPoly.var("u")
    h = MPoly.var("h")
    s = u + h
    golden = [
        [RatFun(1), RatFun(0), RatFun(0), RatFun(0)],
        [RatFun(0), RatFun(u, s), RatFun(h, s), RatFun(0)],
        [RatFun(0), RatFun(h, s), RatFun(u, s), RatFun(0)],
        [RatFun(0), RatFun(0), RatFun(0), RatFun(1)],
    ]
    closed_form = all(lim[i][j] == golden[i][j] for i in range(4) for j in range(4))
    w = MPoly.var("w")
    m12 = _additive_cleared(u)
    m13 = _additive_cleared(u + w)
    m23 = _additive_cleared(w)
    if perturb:
        m13 = [
            [e.substitute({"h": 2 * MPoly.var("h")}) for e in row] for row in m13
        ]
    additive = _exchange_holds(m12, m13, m23)
    return CheckResult(
        name="yang",
        ok=closed_form and additive,
        details={
            "cutoff": cutoff,
            "closed_form": closed_form,
            "additive_identity": additive,
            "limit": [[str(x) for x in row] for row in lim],
            "perturbed": bool(perturb),
        },
    )


def _taylor_lowest(p: MPoly, var: str, point: Fraction):
    """The first nonzero Taylor coefficient of a nonzero ``p`` at var =
    point: ``(k, c_k)`` with ``c_k = sum_d C(d, k) point^(d-k) p_d`` over
    ``p.split_by(var)``, so ``p = c_k t^k + O(t^(k+1))`` at var = point + t.
    For point = a/b it forms b^(top-k) c_k, ``top`` the degree of p in var,
    whose weights C(d, k) a^(d-k) b^(top-d) are ints.  Each power of a and
    b is computed once, so a sparse ``p`` such as ``z^3200`` stays cheap."""
    parts = p.split_by(var)
    top = max(parts)
    a, b = point.numerator, point.denominator
    power = cache(pow)
    for k in range(top + 1):
        c = MPoly.zero()
        for d, pd in parts.items():
            if d == k or (d > k and a):  # at point 0 only p_k counts
                c = c + pd * (comb(d, k) * power(a, d - k) * power(b, top - d))
        if c:
            return k, c * Fraction(1, power(b, top - k))


def pole_limit(M, var: str, point):
    """Pole order of ``M`` at var = point and the limit of
    (var - point)^order * M; returns ``(order, limit_matrix)``.

    The order is the largest pole order over the nonzero entries (0 if there
    are none); an entry of lower order has limit 0.  Along var = point + t
    the lowest t-term of a numerator or denominator p is its first nonzero
    Taylor coefficient c_k = sum_d C(d, k) point^(d-k) p_d at the point
    (``_taylor_lowest``).  Each c_k costs one scaled sum over the
    coefficients p_d of p in var, and k stops at the vanishing order of p,
    so the cost follows that order, not the degree of p: expanding
    (z - 1)^N along z = 1 + t would form about N^3/3 coefficient products.
    """
    point = Fraction(point)
    lead = {}
    for i, row in enumerate(M):
        for j, x in enumerate(row):
            if x.is_zero():
                continue
            if "t" in x.num.vars or "t" in x.den.vars:
                raise ValueError(f"entry {x} already contains t, the expansion variable")
            lead[(i, j)] = [_taylor_lowest(p, var, point) for p in (x.num, x.den)]
    order = max((dd - dn for (dn, _), (dd, _) in lead.values()), default=0)
    limit = [[RatFun(0) for _ in row] for row in M]
    for (i, j), ((dn, cn), (dd, cd)) in lead.items():
        if dd - dn == order:
            limit[i][j] = RatFun(cn, cd)
    return order, limit


def pole_limit_holds(M, var: str, point, order: int, limit) -> bool:
    """Check a ``pole_limit`` result by substitution, independently of the
    expansion ``pole_limit`` uses.

    For every entry f, (var - point)^order * f must have a denominator that
    is nonzero at var = point, and its value there must equal the limit
    entry; unless ``M`` is zero, some limit entry must be nonzero.
    """
    at = {var: Fraction(point)}
    scale = (RatFun.var(var) - at[var]) ** order
    for row, lim_row in zip(M, limit):
        for f, lim in zip(row, lim_row):
            g = scale * f
            den = g.den.substitute(at)
            if den.is_zero() or RatFun(g.num.substitute(at), den) != lim:
                return False
    return any(x for row in limit for x in row) or not any(f for row in M for f in row)


def check_pole_structure() -> CheckResult:
    """Pole order, the limit matrix at z -> 1, and its rank."""
    order, res = pole_limit(trig_r(RatFun(_Z, _Q * _Q)), "z", 1)
    q = MPoly.var("q")
    golden = [
        [RatFun(0)] * 4,
        [RatFun(0), RatFun(1 - q * q, q), RatFun(q * q - 1), RatFun(0)],
        [RatFun(0), RatFun(q * q - 1, q * q), RatFun(1 - q * q, q), RatFun(0)],
        [RatFun(0)] * 4,
    ]
    matches = all(res[i][j] == golden[i][j] for i in range(4) for j in range(4))
    rank = len(rref(res)[1])
    ok = order == 1 and matches and rank == 1
    return CheckResult(
        name="pole-structure",
        ok=ok,
        details={
            "pole_order": order,
            "limit_matches_closed_form": matches,
            "rank": rank,
            "limit": [[str(x) for x in row] for row in res],
        },
    )


def check_inverse(seed: int = 0, points: int = 3, perturb=False) -> CheckResult:
    """R(z) * P R(1/z) P = Id, symbolically and at sampled rational points."""
    if points < 0:
        raise ValueError("points must be nonnegative")
    P = perm_p()
    C1 = cleared_r(_Z, 1)
    C2 = cleared_r(MPoly.const(1), _Z)
    factor = mat_mul(mat_mul(P, C2), P)
    if perturb:
        factor = mat_scale(factor, 2)
    prod = mat_mul(C1, factor)
    q2 = _Q * _Q
    sigma = (q2 * _Z - 1) * (q2 - _Z)
    target = [[sigma * e for e in row] for row in identity(4)]
    symbolic_ok = mat_eq(prod, target)
    rng = np.random.default_rng(seed)
    R = trig_r(RatFun.var("z"))
    sampled = []
    numeric_ok = True
    for _ in range(points):
        q0 = random_rational(rng, avoid=(1, -1))
        while True:
            z0 = random_rational(rng)
            if z0 not in (q0 * q0, Fraction(1) / (q0 * q0)) and z0 != 0:
                break
        Rz = [[x.eval_fraction({"q": q0, "z": z0}) for x in row] for row in R]
        Rinv = [[x.eval_fraction({"q": q0, "z": 1 / z0}) for x in row] for row in R]
        fac = mat_mul(mat_mul(P, Rinv), P)
        if perturb:
            fac = mat_scale(fac, 2)
        good = mat_eq(mat_mul(Rz, fac), identity(4))
        numeric_ok = numeric_ok and good
        sampled.append({"q": str(q0), "z": str(z0), "ok": good})
    _, f = normalize(R)
    unit_ok = f == 1
    ok = symbolic_ok and numeric_ok and unit_ok
    return CheckResult(
        name="inverse",
        ok=ok,
        details={
            "symbolic": symbolic_ok,
            "sampled": sampled,
            "normalization_factor": str(f),
            "factor_product_is_one": unit_ok,
            "perturbed": bool(perturb),
        },
    )


def check_hexagon(seed: int = 0, points: int = 3, perturb=False) -> CheckResult:
    """Braided triple identity for P R on three parametrized spaces."""
    if points < 0:
        raise ValueError("points must be nonnegative")
    P = perm_p()
    rng = np.random.default_rng(seed)
    draws = [(Fraction(1), Fraction(1), Fraction(1))]
    for _ in range(points):
        draws.append(
            (
                random_rational(rng),
                random_rational(rng),
                random_rational(rng),
            )
        )
    all_ok = True
    rows = []
    for a, b, c in draws:
        pr_ab = mat_mul(P, cleared_r(*_zeta_pair(a / b, _Z)))
        pr_ac = mat_mul(P, cleared_r(*_zeta_pair(a / c, _Z, _W)))
        pr_bc = mat_mul(P, cleared_r(*_zeta_pair(b / c, _W)))
        pr_ac_mid = pr_ac
        if perturb:
            pr_ac_mid = [row[:] for row in pr_ac]
            pr_ac_mid[1][2] = 2 * pr_ac_mid[1][2]
        lhs = apply_on_slots(3, [(pr_bc, (0, 1)), (pr_ac_mid, (1, 2)), (pr_ab, (0, 1))])
        rhs = apply_on_slots(3, [(pr_ab, (1, 2)), (pr_ac, (0, 1)), (pr_bc, (1, 2))])
        good = mat_eq(lhs, rhs)
        all_ok = all_ok and good
        rows.append({"a": str(a), "b": str(b), "c": str(c), "ok": good})
    return CheckResult(
        name="hexagon",
        ok=all_ok,
        details={"cases": rows, "perturbed": bool(perturb)},
    )


def _blocks():
    """E, the identity, q*K and q*K^-1 on one two-dimensional space, K =
    diag(q, q^-1)."""
    q2 = _Q * _Q
    zero = MPoly.zero()
    one = MPoly.const(1)
    E = [[zero, one], [zero, zero]]
    I2 = [[one, zero], [zero, one]]
    return E, I2, [[q2, zero], [zero, one]], [[one, zero], [zero, q2]]


def coproduct_action():
    """Cleared tensor-square actions of the three generators.

    Convention selected by experiment (see check_intertwiner): with
    K = diag(q, q^-1), E and F the corner units, the tensor actions are
    E (x) K^-1 + 1 (x) E, F (x) 1 + K (x) F, and K (x) K.  Each matrix
    below is scaled by a power of q to stay polynomial; the scale is
    irrelevant to commutation.
    """
    q = _Q
    q2 = q * q
    zero = MPoly.zero()
    one = MPoly.const(1)
    E, I2, qK, qKinv = _blocks()
    F = [[zero, zero], [one, zero]]
    dE = mat_add(kron(E, qKinv), mat_scale(kron(I2, E), q))
    dF = mat_add(mat_scale(kron(F, I2), q), kron(qK, F))
    dK = [[zero] * 4 for _ in range(4)]
    for i, s in enumerate([q2 * q2, q2, q2, one]):
        dK[i][i] = s
    return {"E": dE, "F": dF, "K": dK}


def _commutes(M, X) -> bool:
    return mat_eq(mat_mul(M, X), mat_mul(X, M))


def check_intertwiner(perturb=False) -> CheckResult:
    """P R(z) commutes with the selected tensor-square action.

    Also records that the natural rival conventions fail, which is what
    pins the convention down empirically.
    """
    P = perm_p()
    PC = mat_mul(P, cleared_r(_Z, 1))
    target = [[MPoly.const(x) for x in row] for row in P] if perturb else PC
    acts = coproduct_action()
    good = {name: _commutes(target, X) for name, X in acts.items()}
    E, I2, qK, qKinv = _blocks()
    rival_a = mat_add(kron(E, qK), mat_scale(kron(I2, E), _Q))
    rival_b = mat_add(mat_scale(kron(E, I2), _Q), kron(qKinv, E))
    rivals_fail = (not _commutes(PC, rival_a)) and (not _commutes(PC, rival_b))
    # the flip alone is not an intertwiner for the E action
    p_mat = [[MPoly.const(x) for x in row] for row in P]
    flip_fails = not _commutes(p_mat, acts["E"])
    ok = all(good.values()) and rivals_fail and flip_fails
    return CheckResult(
        name="intertwiner",
        ok=ok,
        details={
            "coproduct": "E(x)K^-1 + 1(x)E; F(x)1 + K(x)F; K(x)K",
            "commutes": good,
            "rival_conventions_fail": rivals_fail,
            "flip_alone_fails": flip_fails,
            "perturbed": bool(perturb),
        },
    )
