"""Chambers, attracting orders, stable envelopes in closed form, and wall
crossings.

The fixed points p_0..p_n carry torus weights 0, u_1..u_n (plain u when
n = 1); the cotangent direction contributes an extra -h to each negative
normal weight.  A chamber is a strict total order on those weight values.
The stable envelope of p_j is the degree-n class fixed by support (a
combination of the attracting-stratum classes of the points at or under
p_j; the degree makes the coefficients scalars), by its restriction at p_j
(the signed repelling weight product) and by u-degree below n at every point
strictly under p_j.  It is the signed stratum class through p_j itself,
with m running over the points above and below p_j:

    stab(p_j) = sign_j * prod_{m above} (c - v_m) * prod_{m below} (c - v_m - h),

with sign_j the default polarization's sign at p_j times the given one's.
Uniqueness: the stratum class through p_k restricts to zero at the points
above p_k, and at a point p_i under p_k its restriction has the factor
(v_i - v_i - h) = -h, so its u-degree is at most n - 1.  The restriction at
p_i of the class through p_i has u-degree exactly n, with top part
prod_{m != i} (v_i - v_m) != 0.  So the degree bound at each point under p_j
forces that point's coefficient to 0, and the normalization at p_j forces
the coefficient of p_j to sign_j.

Support makes every stable matrix triangular: S[i][k] = 0 whenever p_i lies
above p_k.  The exact work stays at the fixed points:

- ``stab_matrix`` builds one restriction table per call from the linear
  factors (v_i - v_m) and (v_i - v_m - h) and reads each column off it.
- ``check_axioms`` rebuilds each diagonal target on its own, as sign_j times
  the stratum product at p_j, and decides membership by Newton divided
  differences of each column over the nodes v_0..v_n, each an exact
  polynomial division by one of the differences (v_i - v_{i-lev}) it builds
  once per call.
- ``geometric_r`` solves S_to X = S_from by substitution down the target's
  chamber order on MPoly numerators, with one RatFun per entry, so cyclic
  products of wall crossings around a codimension-2 face close to the
  identity on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations
from operator import mul

from .field import (
    MPoly,
    NotDivisible,
    RatFun,
    identity,
    mat_eq,
    mat_mul,
)
from .verdict import CheckResult

__all__ = [
    "weight_names",
    "weights",
    "roots",
    "Chamber",
    "default_polarization",
    "StabMatrix",
    "StabBreakdown",
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


class StabBreakdown(ValueError):
    """A wall crossing broke down at one column: a defect of the envelopes,
    reported as a failed verdict, not as bad input."""

    stage = "crossing"

    def __init__(self, column: int, message: str):
        super().__init__(f"{self.stage}, column {column}: {message}")
        self.column = column

    def verdict(self, name: str, **details) -> CheckResult:
        details.update(stage=self.stage, column=self.column, error=str(self))
        return CheckResult(name=name, ok=False, details=details)


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


def _restrictions(chamber: Chamber) -> list:
    """restr[i][k] = _stratum(chamber, k, v_i), from one table of the linear
    factors (v_i - v_m) and (v_i - v_m - h); zero when p_i lies above p_k."""
    vs = weights(chamber.n)
    lin = [[vi - vm for vm in vs] for vi in vs]
    cot = [[d - MPoly.var("h") for d in row] for row in lin]
    order = chamber.perm
    restr = [[MPoly.zero()] * len(vs) for _ in vs]
    for i in order:
        for a in range(chamber.position(i) + 1):
            factors = [lin[i][m] for m in order[:a]]
            factors += [cot[i][m] for m in order[a + 1 :]]
            restr[i][order[a]] = reduce(mul, factors)
    return restr


def stab_matrix(chamber: Chamber, polarization=None) -> StabMatrix:
    """The stable envelope of every fixed point, in closed form.

    Column j is sign_j * restr[i][j] and its class is sign_j times the
    stratum class through p_j, with sign_j = base[j] * pol[j]: the unique
    combination of stratum classes at or under p_j with the signed repelling
    weight product at p_j and u-degree below n under it (module docstring).
    """
    n = chamber.n
    base = default_polarization(chamber)
    pol = base if polarization is None else tuple(int(s) for s in polarization)
    if len(pol) != n + 1 or any(s not in (-1, 1) for s in pol):
        raise ValueError("polarization must be a vector of +-1 per fixed point")
    signs = [b * p for b, p in zip(base, pol)]
    c = MPoly.var("c")
    gammas = tuple(_stratum(chamber, j, c) * signs[j] for j in range(n + 1))
    matrix = tuple(
        tuple(e * sg for e, sg in zip(row, signs)) for row in _restrictions(chamber)
    )
    return StabMatrix(chamber=chamber, polarization=pol, gammas=gammas, matrix=matrix)


def geometric_r(stab_from: StabMatrix, stab_to: StabMatrix):
    """Wall-crossing matrix S_to^-1 S_from, by substitution down the target's
    chamber order: X[i] = (S_from[i] - sum over k above p_i of S_to[i][k]
    X[k]) / S_to[i][i], kept as MPoly numerators over the product of the
    diagonal entries at and above p_i.  A zero diagonal entry or a nonzero
    entry above the diagonal raises ``StabBreakdown``."""
    if stab_from.n != stab_to.n:
        raise ValueError("both envelopes must live on the same space")
    T, B = stab_to.matrix, stab_from.matrix
    order = stab_to.chamber.perm
    out = [None] * len(order)
    nums = [None] * len(order)
    den = MPoly.const(1)
    for a, i in enumerate(order):
        for k in order[a + 1 :]:
            if T[i][k]:
                raise StabBreakdown(k, f"nonzero above diagonal at p{i}")
        if not T[i][i]:
            raise StabBreakdown(i, "target envelope matrix is singular")
        num = B[i]
        for k in order[:a]:
            num = [e * T[k][k] - T[i][k] * x for e, x in zip(num, nums[k])]
        den = den * T[i][i]
        nums[i] = num
        out[i] = [RatFun(e, den) for e in num]
    return out


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


def _is_restriction(gaps, values) -> bool:
    """True when every divided difference of ``values`` is a polynomial;
    ``gaps[i, lev]`` is the node difference v_i - v_(i-lev)."""
    dd = list(values)
    try:
        for lev in range(1, len(dd)):
            for i in range(len(dd) - 1, lev - 1, -1):
                dd[i] = (dd[i] - dd[i - 1]).div_exact(gaps[i, lev])
    except NotDivisible:
        return False
    return True


def check_axioms(sm: StabMatrix) -> CheckResult:
    """Support, normalization, degree axioms plus non-localized membership.

    The membership test asks whether every column is the restriction of a
    class polynomial in c, u and h, independently of the restriction table
    ``stab_matrix`` reads the column from.  The interpolating polynomial in c
    of degree at most n has polynomial coefficients exactly when every
    divided difference of the column over the nodes v_0..v_n is a
    polynomial: the Newton coefficients are among them, the Newton basis
    prod_{m<k} (c - v_m) is monic with polynomial coefficients, and every
    divided difference of a polynomial is one.  Each difference is an exact
    division by (v_i - v_{i-lev}), built once per call, and a remainder
    fails the column.  The normalization target of column j is sign_j =
    base[j] * pol[j] times ``_stratum`` at v_j, also not read from that
    table.  A failed verdict lists, under ``failed_columns``, the columns
    that break each failing axiom.
    """
    n = sm.n
    ch = sm.chamber
    unames = weight_names(n)
    vs = weights(n)
    gaps = {
        (i, lev): vs[i] - vs[i - lev]
        for lev in range(1, n + 1)
        for i in range(lev, n + 1)
    }
    signs = [b * p for b, p in zip(default_polarization(ch), sm.polarization)]
    failed = {"support": [], "normalization": [], "degree": [], "membership": []}
    for j in range(n + 1):
        col = [row[j] for row in sm.matrix]
        if any(col[i] for i in ch.above(j)):
            failed["support"].append(j)
        if col[j] != signs[j] * _stratum(ch, j, vs[j]):
            failed["normalization"].append(j)
        degrees = [col[i].degree_in_set(unames) for i in ch.below(j)]
        if col[j].degree_in_set(unames) != n or any(d >= n for d in degrees):
            failed["degree"].append(j)
        if not _is_restriction(gaps, col):
            failed["membership"].append(j)
    details = {"chamber": ch.order_string()}
    details.update((axiom, not cols) for axiom, cols in failed.items())
    ok = not any(failed.values())
    if not ok:
        details["failed_columns"] = {a: cols for a, cols in failed.items() if cols}
    return CheckResult(name="stab-axioms", ok=ok, details=details)


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
            doubled = tuple(tuple(e * 2 for e in row) for row in src.matrix)
            src = replace(src, matrix=doubled)
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
