"""Chambers, attracting orders, stable-envelope solves, and wall crossings.

The fixed points p_0..p_n carry torus weights 0, u_1..u_n (plain u when
n = 1); the cotangent direction contributes an extra -h to each negative
normal weight.  A chamber is a strict total order on those weight values.
Each column of a stable matrix is a degree-n class constrained by support
(a combination of the attracting-stratum classes of the points at or
under the source point), by its restriction at the source point, and by
u-degree bounds under it; the solver demands a unique solution.

Three routes keep the exact work at the fixed points:

- ``stab_matrix`` restricts each stratum class at p_i as the product of its
  linear factors at c = v_i, once per chamber; the constraint rows and the
  returned matrix are read from that table, never by substituting into a
  class.
- ``check_axioms`` decides membership by Newton divided differences of each
  column over the nodes v_0..v_n, each one an exact polynomial division by
  (v_i - v_{i-lev}).
- ``geometric_r`` row-reduces the augmented matrix [S_to | S_from] once and
  reads S_to^-1 S_from off the right block, so cyclic products of
  wall crossings around a codimension-2 face close to the identity on the
  nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .field import (
    MPoly,
    NotDivisible,
    RatFun,
    identity,
    mat_eq,
    mat_mul,
    rref,
    solve_unique,
)
from .verdict import CheckResult

__all__ = [
    "weight_names",
    "weights",
    "roots",
    "Chamber",
    "e_neg",
    "default_polarization",
    "StabMatrix",
    "stab_matrix",
    "geometric_r",
    "adjacent",
    "fan_n2",
    "check_axioms",
    "check_cycle_identity",
]


def weight_names(n: int) -> list:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return ["u"]
    return [f"u{i}" for i in range(1, n + 1)]


def weights(n: int) -> list:
    """Values of c at the fixed points p_0..p_n."""
    return [MPoly.zero()] + [MPoly.var(nm) for nm in weight_names(n)]


def roots(n: int) -> list:
    """Character differences of the fixed-point weights, as strings."""
    vs = weights(n)
    out = []
    for i, j in combinations(range(n + 1), 2):
        d = vs[j] - vs[i]
        out.append(str(d))
        out.append(str(-d))
    return sorted(out)


@dataclass(frozen=True)
class Chamber:
    """Strict total order on the n+1 fixed-point weights; perm[0] on top."""

    n: int
    perm: tuple

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.n + 1)):
            raise ValueError("chamber order must be a permutation of 0..n")

    @classmethod
    def from_perm(cls, n: int, perm) -> "Chamber":
        return cls(n=n, perm=tuple(int(p) for p in perm))

    @classmethod
    def named(cls, name: str) -> "Chamber":
        if name == "plus":
            return cls(n=1, perm=(1, 0))
        if name == "minus":
            return cls(n=1, perm=(0, 1))
        raise ValueError("named chambers exist only for n=1: plus, minus")

    def opposite(self) -> "Chamber":
        return Chamber(n=self.n, perm=tuple(reversed(self.perm)))

    def position(self, j: int) -> int:
        return self.perm.index(j)

    def above(self, j: int) -> list:
        """Fixed points strictly above p_j in the attracting order."""
        pos = self.position(j)
        return list(self.perm[:pos])

    def below(self, j: int) -> list:
        pos = self.position(j)
        return list(self.perm[pos + 1 :])

    def order_string(self) -> str:
        return " > ".join(f"p{j}" for j in self.perm)


def e_neg(chamber: Chamber, j: int) -> MPoly:
    """Product of repelling normal weights at p_j.

    Base directions toward higher points contribute (v_i - v_j); the
    cotangent partners of directions toward lower points contribute
    (v_j - v_i - h).  That is the stratum class through p_j restricted at
    p_j, times (-1)^|above(j)|: the default polarization's sign.
    """
    sign = default_polarization(chamber)[j]
    return sign * _stratum(chamber, j, weights(chamber.n)[j])


def default_polarization(chamber: Chamber) -> tuple:
    """Sign recipe reproducing the n=1 reference matrices."""
    return tuple(
        -1 if len(chamber.above(j)) % 2 else 1 for j in range(chamber.n + 1)
    )


@dataclass(frozen=True)
class StabMatrix:
    """Solved envelope: c-basis columns and their fixed-point restrictions."""

    chamber: Chamber
    polarization: tuple
    gammas: tuple
    matrix: tuple

    @property
    def n(self) -> int:
        return self.chamber.n


def _stratum(chamber: Chamber, k: int, at: MPoly) -> MPoly:
    """Product of (at - v_i) over points above p_k and (at - v_i - h) below.

    With ``at`` = c this is the stratum class through p_k; with ``at`` = v_i
    it is the restriction of that class at p_i.
    """
    vs = weights(chamber.n)
    h = MPoly.var("h")
    out = MPoly.const(1)
    for i in chamber.above(k):
        out = out * (at - vs[i])
    for i in chamber.below(k):
        out = out * (at - vs[i] - h)
    return out


def attr_class(chamber: Chamber, k: int) -> MPoly:
    """Class of the closed attracting stratum through p_k.

    Product of (c - v_i) over points above p_k and (c - v_i - h) over
    points below; it vanishes at every point above p_k and restricts at
    p_k to the signed repelling weight product.
    """
    return _stratum(chamber, k, MPoly.var("c"))


def _span(polys, coeffs) -> MPoly:
    out = MPoly.zero()
    for p, x in zip(polys, coeffs):
        if x:
            out = out + p * x
    return out


def _rows_for(targets, polys, rhs_poly, mono_filter=None):
    """Append coefficient-matching rows: sum_t x_t polys[t] = rhs_poly."""
    monos = {}
    for t, p in enumerate(polys):
        for mono, coeff in zip(*_mono_items(p)):
            monos.setdefault(mono, {})[t] = coeff
    rhs_map = dict(zip(*_mono_items(rhs_poly)))
    keys = set(monos) | set(rhs_map)
    for mono in sorted(keys):
        if mono_filter is not None and not mono_filter(mono):
            continue
        row = [monos.get(mono, {}).get(t, Fraction(0)) for t in range(len(polys))]
        targets.append((row, rhs_map.get(mono, Fraction(0))))


def _mono_items(p: MPoly):
    """Monomials of p keyed by nonzero (name, exp) pairs, plus coefficients."""
    keys = []
    coeffs = []
    for exps, coeff in p.terms().items():
        keys.append(tuple(sorted((nm, e) for nm, e in zip(p.vars, exps) if e)))
        coeffs.append(coeff)
    return keys, coeffs


def stab_matrix(chamber: Chamber, polarization=None) -> StabMatrix:
    """Solve the constraint system for every column; unique or error.

    Support pins column j inside the span of the stratum classes of the
    points at or under p_j; the cohomological degree makes the span
    coefficients scalars.  The restriction at p_j must equal the signed
    repelling weight product, and every restriction strictly under p_j
    must keep u-degree below n.  The resulting linear system must have
    exactly one solution.
    """
    n = chamber.n
    unames = weight_names(n)
    vs = weights(n)
    pol = (
        default_polarization(chamber)
        if polarization is None
        else tuple(int(s) for s in polarization)
    )
    if len(pol) != n + 1 or any(s not in (-1, 1) for s in pol):
        raise ValueError("polarization must be a vector of +-1 per fixed point")
    strata = [attr_class(chamber, k) for k in range(n + 1)]
    restr = [
        [_stratum(chamber, k, vs[i]) for k in range(n + 1)] for i in range(n + 1)
    ]
    big = lambda mono: sum(e for nm, e in mono if nm in unames) >= n
    gammas = []
    columns = []
    for j in range(n + 1):
        allowed = [j] + chamber.below(j)
        above = chamber.above(j)
        targets = []
        diag = e_neg(chamber, j) * pol[j]
        for i in range(n + 1):
            basis_at_i = [restr[i][k] for k in allowed]
            if i in above:
                _rows_for(targets, basis_at_i, MPoly.zero())
            elif i == j:
                _rows_for(targets, basis_at_i, diag)
            else:
                _rows_for(targets, basis_at_i, MPoly.zero(), mono_filter=big)
        A = [row for row, _ in targets]
        b = [rhs for _, rhs in targets]
        try:
            x = solve_unique(A, b)
        except ValueError as e:
            raise ValueError(
                f"column {j}: constraint system has no unique solution ({e})"
            ) from None
        gammas.append(_span([strata[k] for k in allowed], x))
        columns.append((allowed, x))
    matrix = tuple(
        tuple(_span([restr[i][k] for k in allowed], x) for allowed, x in columns)
        for i in range(n + 1)
    )
    return StabMatrix(
        chamber=chamber, polarization=pol, gammas=tuple(gammas), matrix=matrix
    )


def geometric_r(stab_from: StabMatrix, stab_to: StabMatrix):
    """Wall-crossing matrix S_to^-1 S_from: the inverse of the target times
    the source, read off the right block of one rref of [S_to | S_from]."""
    if stab_from.n != stab_to.n:
        raise ValueError("both envelopes must live on the same space")
    size = stab_to.n + 1
    aug = [
        [RatFun(e) for e in (*row_to, *row_from)]
        for row_to, row_from in zip(stab_to.matrix, stab_from.matrix)
    ]
    R, pivots = rref(aug)
    if pivots[:size] != list(range(size)):
        raise ValueError("target envelope matrix is singular")
    return [row[size:] for row in R]


def adjacent(c1: Chamber, c2: Chamber) -> bool:
    """True when the orders differ by one swap of neighboring positions."""
    if c1.n != c2.n or c1.perm == c2.perm:
        return False
    diffs = [i for i in range(c1.n + 1) if c1.perm[i] != c2.perm[i]]
    if len(diffs) != 2:
        return False
    a, b = diffs
    return b == a + 1 and c1.perm[a] == c2.perm[b] and c1.perm[b] == c2.perm[a]


def fan_n2() -> list:
    """The six chambers cyclically ordered around the origin face."""
    perms = [(0, 2, 1), (0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1)]
    return [Chamber(n=2, perm=p) for p in perms]


def _is_restriction(nodes, values) -> bool:
    """True when every divided difference of ``values`` over ``nodes`` is a
    polynomial."""
    dd = list(values)
    try:
        for lev in range(1, len(dd)):
            for i in range(len(dd) - 1, lev - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]).div_exact(nodes[i] - nodes[i - lev])
    except NotDivisible:
        return False
    return True


def check_axioms(sm: StabMatrix) -> CheckResult:
    """Support, normalization, degree axioms plus non-localized membership.

    The membership test asks whether every column is the restriction of a
    class polynomial in c, u and h, independently of how the solver produced
    the column.  The interpolating polynomial in c of degree at most n has
    polynomial coefficients exactly when every divided difference of the
    column over the nodes v_0..v_n is a polynomial: the Newton coefficients
    are among them, the Newton basis prod_{m<k} (c - v_m) is monic with
    polynomial coefficients, and every divided difference of a polynomial is
    one.  Each difference is an exact division by (v_i - v_{i-lev}), and a
    remainder fails the column.
    """
    n = sm.n
    ch = sm.chamber
    unames = weight_names(n)
    vs = weights(n)
    support_ok = True
    diag_ok = True
    degree_ok = True
    for j in range(n + 1):
        for i in ch.above(j):
            if sm.matrix[i][j]:
                support_ok = False
        if sm.matrix[j][j] != e_neg(ch, j) * sm.polarization[j]:
            diag_ok = False
        if sm.matrix[j][j].degree_in_set(unames) != n:
            degree_ok = False
        for i in ch.below(j):
            if sm.matrix[i][j].degree_in_set(unames) >= n:
                degree_ok = False
    honest_ok = all(
        _is_restriction(vs, [sm.matrix[i][j] for i in range(n + 1)])
        for j in range(n + 1)
    )
    ok = support_ok and diag_ok and degree_ok and honest_ok
    return CheckResult(
        name="stab-axioms",
        ok=ok,
        details={
            "chamber": ch.order_string(),
            "support": support_ok,
            "normalization": diag_ok,
            "degree": degree_ok,
            "membership": honest_ok,
        },
    )


N1_R = (("u/(u + h)", "h/(u + h)"), ("h/(u + h)", "u/(u + h)"))


def check_cycle_identity(chambers=None, perturb: bool = False) -> CheckResult:
    """Product of wall crossings around a face must be the identity.

    Consecutive chambers (cyclically) must be wall-adjacent; ``perturb``
    doubles one envelope inside a single factor, which must break closure.
    """
    if chambers is None:
        chambers = fan_n2()
    m = len(chambers)
    if m < 2:
        raise ValueError("a cycle needs at least two chambers")
    for i in range(m):
        if not adjacent(chambers[i], chambers[(i + 1) % m]):
            raise ValueError(
                f"chambers {chambers[i].order_string()!r} and "
                f"{chambers[(i + 1) % m].order_string()!r} are not wall-adjacent"
            )
    stabs = [stab_matrix(ch) for ch in chambers]
    n = chambers[0].n
    size = n + 1
    prod = None
    for i in range(m):
        src = stabs[(i + 1) % m]
        if perturb and i == 1:
            doubled = tuple(
                tuple(e * 2 for e in row) for row in src.matrix
            )
            src = StabMatrix(
                chamber=src.chamber,
                polarization=src.polarization,
                gammas=src.gammas,
                matrix=doubled,
            )
        factor = geometric_r(src, stabs[i])
        prod = factor if prod is None else mat_mul(prod, factor)
    ident = mat_eq(prod, identity(size))
    return CheckResult(
        name="stab-cycle",
        ok=ident,
        details={
            "chambers": [ch.order_string() for ch in chambers],
            "factors": m,
            "perturbed": bool(perturb),
        },
    )
