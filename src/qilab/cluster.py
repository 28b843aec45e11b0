"""Skew-matrix quiver mutation, seed mutation, and exploration.

Arrows live in an integer skew matrix (entry = arrows i->j minus arrows
j->i), which makes loop and 2-cycle removal automatic.  Seeds carry exact
rational-function variables; exchange always produces the canonical
reduced form, so Laurentness is a direct look at the denominator.
Exploration is breadth-first with unordered-cluster deduplication, and it
computes each distinct exchange relation once per call: a finite-type
exploration meets the same few exchanges many times.

Vertices are 1-based everywhere in the public interface, matching the
JSON format {"r": int, "frozen": [int...], "arrows": [[i, j, mult]...]}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .field import MPoly, NotDivisible, RatFun
from .verdict import CheckResult

__all__ = [
    "Quiver",
    "Seed",
    "Atlas",
    "mutate_quiver",
    "mutate_seed",
    "initial_seed",
    "explore",
    "laurent_check",
    "check_examples",
]

_ONE = MPoly.const(1)


@dataclass(frozen=True)
class Quiver:
    """Vertex count, skew arrow matrix (tuple rows), frozen vertex set."""

    r: int
    B: tuple
    frozen: frozenset

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("quiver needs at least one vertex")
        if len(self.B) != self.r or any(len(row) != self.r for row in self.B):
            raise ValueError("arrow matrix shape must be r x r")
        for i in range(self.r):
            if self.B[i][i] != 0:
                raise ValueError("loops are not allowed")
            for j in range(self.r):
                if self.B[i][j] != -self.B[j][i]:
                    raise ValueError("arrow matrix must be skew-symmetric")
        for v in self.frozen:
            if not 1 <= v <= self.r:
                raise ValueError("frozen vertex out of range")

    @property
    def n(self) -> int:
        return self.r - len(self.frozen)

    def is_mutable(self, k: int) -> bool:
        return 1 <= k <= self.r and k not in self.frozen

    @classmethod
    def from_json(cls, text_or_dict) -> "Quiver":
        d = (
            json.loads(text_or_dict)
            if isinstance(text_or_dict, str)
            else dict(text_or_dict)
        )
        known = {"r", "frozen", "arrows"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown quiver fields: {sorted(extra)}")
        if "r" not in d:
            raise ValueError("quiver needs a vertex count r")
        r = int(d["r"])
        B = [[0] * r for _ in range(r)]
        for arrow in d.get("arrows", ()):
            if len(arrow) == 2:
                i, j = arrow
                mult = 1
            elif len(arrow) == 3:
                i, j, mult = arrow
            else:
                raise ValueError("arrows must be [from, to] or [from, to, mult]")
            i, j, mult = int(i), int(j), int(mult)
            if not (1 <= i <= r and 1 <= j <= r):
                raise ValueError("arrow endpoint out of range")
            if i == j:
                raise ValueError("loops are not allowed")
            B[i - 1][j - 1] += mult
            B[j - 1][i - 1] -= mult
        return cls(
            r=r,
            B=tuple(tuple(row) for row in B),
            frozen=frozenset(int(v) for v in d.get("frozen", ())),
        )

    def to_json(self) -> str:
        arrows = []
        for i in range(self.r):
            for j in range(self.r):
                if self.B[i][j] > 0:
                    arrows.append([i + 1, j + 1, self.B[i][j]])
        return json.dumps(
            {"r": self.r, "frozen": sorted(self.frozen), "arrows": arrows},
            sort_keys=True,
        )


def mutate_quiver(q: Quiver, k: int) -> Quiver:
    """Matrix mutation at mutable vertex k (1-based)."""
    if not q.is_mutable(k):
        raise ValueError(f"vertex {k} is frozen or out of range")
    a = k - 1
    B = q.B
    new = [
        [
            -B[i][j]
            if i == a or j == a
            else B[i][j]
            + (abs(B[i][a]) * B[a][j] + B[i][a] * abs(B[a][j])) // 2
            for j in range(q.r)
        ]
        for i in range(q.r)
    ]
    return Quiver(r=q.r, B=tuple(tuple(row) for row in new), frozen=q.frozen)


@dataclass(frozen=True)
class Seed:
    """Exact variables attached to the quiver's vertices.

    Frozen vertices must be the trailing indices n+1..r: those variables
    belong to every cluster and are never mutated.  ``exchange`` is the
    ``_exchange`` of the mutation that made the seed (None for an initial
    seed); it takes no part in comparisons.
    """

    variables: tuple
    quiver: Quiver
    exchange: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.variables) != self.quiver.r:
            raise ValueError("one variable per vertex")
        expected = set(range(self.quiver.n + 1, self.quiver.r + 1))
        if set(self.quiver.frozen) != expected:
            raise ValueError("frozen vertices must be the trailing indices")


def initial_seed(q: Quiver) -> Seed:
    vs = tuple(RatFun.var(f"X{i}") for i in range(1, q.r + 1))
    return Seed(variables=vs, quiver=q)


def _exponents(seed: Seed, k: int):
    """The out and in exponents at vertex k: each maps a 0-based neighbor
    index to its arrow count."""
    out, inn = {}, {}
    for j, m in enumerate(seed.quiver.B[k - 1]):
        if m > 0:
            out[j] = m
        elif m < 0:
            inn[j] = -m
    return out, inn


def _exchange(seed: Seed, k: int):
    """``(out exponents, in exponents, out-product + in-product)`` at vertex
    k, the exponents as ``_exponents`` gives them.

    Each product is kept as a numerator and denominator pair of MPolys, so
    the sum is the only RatFun built.
    """
    out, inn = _exponents(seed, k)
    parts = []
    for exps in (out, inn):
        num = den = _ONE
        for j, e in exps.items():
            v = seed.variables[j]
            num = num * v.num**e
            den = den * v.den**e
        parts.append((num, den))
    (n0, d0), (n1, d1) = parts
    return out, inn, RatFun(n0 * d1 + n1 * d0, d0 * d1)


def _divide(rhs: RatFun, v: RatFun) -> RatFun:
    """``rhs / v`` for the exchange at a vertex holding ``v``.

    By the Laurent phenomenon both denominators are monomials and ``v.num``
    divides ``rhs.num * v.den`` exactly, which leaves only a gcd with a
    monomial operand.  Any other input, or a division that is not exact,
    takes the generic quotient, so a non-Laurent value comes out as it is.
    """
    if rhs.den.n_terms() == 1 and v.den.n_terms() == 1:
        try:
            return RatFun((rhs.num * v.den).div_exact(v.num), rhs.den)
        except NotDivisible:
            pass
    return rhs / v


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Replace z_k by (out-product + in-product)/z_k; mutate the quiver."""
    if not seed.quiver.is_mutable(k):
        raise ValueError(f"vertex {k} is frozen or out of range")
    exchange = _exchange(seed, k)
    vs = list(seed.variables)
    vs[k - 1] = _divide(exchange[2], vs[k - 1])
    return Seed(tuple(vs), mutate_quiver(seed.quiver, k), exchange)


def _canonical_key(seed: Seed) -> str:
    """Unordered-cluster form: mutable slots sorted by variable, the arrow
    matrix permuted to match.  A seed's variables are algebraically
    independent, so no two are equal and the sort fixes the permutation."""
    n, r = seed.quiver.n, seed.quiver.r
    names = [str(v) for v in seed.variables]
    perm = sorted(range(n), key=names.__getitem__) + list(range(n, r))
    B = seed.quiver.B
    Bp = tuple(tuple(B[i][j] for j in perm) for i in perm)
    return repr(tuple(names[i] for i in perm)) + "|" + repr(Bp)


class Atlas:
    """Everything found by one exploration run."""

    def __init__(self):
        self.seed_keys = []
        self.seeds = []
        self.names = {}
        self.variables = {}
        self.relations = {}
        self.closed = False

    def cluster_count(self) -> int:
        return len(self.seed_keys)

    def variable_strings(self) -> list:
        return sorted(str(v) for v in self.variables.values())

    def relation_strings(self) -> list:
        return sorted(self.relations.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "clusters": self.cluster_count(),
                "variables": self.variable_strings(),
                "relations": self.relation_strings(),
                "closed": self.closed,
            },
            sort_keys=True,
        )


def _register_variable(atlas: Atlas, value: RatFun, base_name: str) -> str:
    key = str(value)
    if key in atlas.names:
        return atlas.names[key]
    name = base_name
    taken = set(atlas.names.values())
    while name in taken:
        name += "p"
    atlas.names[key] = name
    atlas.variables[key] = value
    return name


def _product_display(seed: Seed, atlas: Atlas, exps: dict) -> str:
    if not exps:
        return "1"
    parts = []
    for j in sorted(exps):
        nm = atlas.names[str(seed.variables[j])]
        e = exps[j]
        parts.append(nm if e == 1 else f"{nm}^{e}")
    return "*".join(parts)


def _record_relation(seed: Seed, atlas: Atlas, k: int, new_seed: Seed):
    """Record the exchange relation of ``new_seed = mutate_seed(seed, k)``."""
    old = seed.variables[k - 1]
    new = new_seed.variables[k - 1]
    out_exps, in_exps, rhs = new_seed.exchange
    key = (frozenset({str(old), str(new)}), str(rhs))
    if key in atlas.relations:
        return
    old_name = atlas.names[str(old)]
    new_name = _register_variable(atlas, new, old_name + "p")
    rhs_disp = (
        _product_display(seed, atlas, out_exps)
        + " + "
        + _product_display(seed, atlas, in_exps)
    )
    atlas.relations[key] = f"{new_name}*{old_name} = {rhs_disp}"


def _mutate_once(seed: Seed, k: int, exchanges: dict) -> Seed:
    """``mutate_seed(seed, k)``, computing each exchange only once.

    ``exchanges`` maps the inputs of an exchange to its ``(new variable,
    rhs)``.  The key is the variable at k and the unordered pair of the out
    and in monomials, each a set of (variable, arrow count) over the whole
    row, so that it fixes the result on any quiver.  The rhs is symmetric in
    out and in, so a computed exchange is stored both ways: mutating back at
    k meets the same pair with the two variables swapped.
    """
    out, inn = _exponents(seed, k)
    vs = list(seed.variables)
    pair = frozenset(
        frozenset((str(vs[j]), e) for j, e in exps.items()) for exps in (out, inn)
    )
    key = (str(vs[k - 1]), pair)
    if key not in exchanges:
        child = mutate_seed(seed, k)
        new, rhs = child.variables[k - 1], child.exchange[2]
        exchanges[key] = new, rhs
        exchanges[str(new), pair] = vs[k - 1], rhs
        return child
    vs[k - 1], rhs = exchanges[key]
    return Seed(tuple(vs), mutate_quiver(seed.quiver, k), (out, inn, rhs))


def explore(seed: Seed, depth: int) -> Atlas:
    """Breadth-first mutation closure up to the given depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    atlas = Atlas()
    for i, v in enumerate(seed.variables):
        _register_variable(atlas, v, f"X{i + 1}")
    k0 = _canonical_key(seed)
    atlas.seed_keys.append(k0)
    atlas.seeds.append(seed)
    seen = {k0}
    # (seed, the vertex it was found by): mutation is an involution, so
    # mutating back along that edge gives the parent, already recorded
    frontier = [(seed, None)]
    exchanges = {}
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for s, found_by in frontier:
            for k in range(1, s.quiver.n + 1):
                if k == found_by:
                    continue
                child = _mutate_once(s, k, exchanges)
                _record_relation(s, atlas, k, child)
                ck = _canonical_key(child)
                if ck not in seen:
                    seen.add(ck)
                    atlas.seed_keys.append(ck)
                    atlas.seeds.append(child)
                    nxt.append((child, k))
        frontier = nxt
    atlas.closed = not frontier
    return atlas


def laurent_check(v: RatFun) -> bool:
    """True iff the canonical denominator is a single monomial."""
    return v.den.n_terms() == 1


EXAMPLE_QUIVER = {"r": 3, "frozen": [2, 3], "arrows": [[3, 1, 1], [1, 2, 1]]}
A2_QUIVER = {"r": 2, "frozen": [], "arrows": [[1, 2, 1]]}

A2_VARIABLES = (
    "X1",
    "X2",
    "(X2 + 1)/X1",
    "(X1 + X2 + 1)/(X1*X2)",
    "(X1 + 1)/X2",
)


def check_examples(perturb: bool = False) -> CheckResult:
    """Golden exploration facts for the two bundled quivers.

    ``perturb`` injects a non-Laurent expression into the checked variable
    set, which must make the Laurent property fail.
    """
    details = {}
    q1 = Quiver.from_json(EXAMPLE_QUIVER)
    atlas1 = explore(initial_seed(q1), 4)
    details["example"] = {
        "clusters": atlas1.cluster_count(),
        "variables": atlas1.variable_strings(),
        "relations": atlas1.relation_strings(),
        "closed": atlas1.closed,
    }
    ok1 = (
        atlas1.closed
        and atlas1.cluster_count() == 2
        and len(atlas1.variables) == 4
        and atlas1.relation_strings() == ["X1p*X1 = X2 + X3"]
    )
    q2 = Quiver.from_json(A2_QUIVER)
    atlas2 = explore(initial_seed(q2), 8)
    details["a2"] = {
        "clusters": atlas2.cluster_count(),
        "variables": atlas2.variable_strings(),
        "closed": atlas2.closed,
    }
    ok2 = (
        atlas2.closed
        and atlas2.cluster_count() == 5
        and set(atlas2.variable_strings()) == set(A2_VARIABLES)
    )
    checked = list(atlas1.variables.values()) + list(atlas2.variables.values())
    if perturb:
        checked.append(RatFun.parse("(1 + X1)/(1 + X2)"))
    laurent_ok = all(laurent_check(v) for v in checked)
    details["laurent_all"] = laurent_ok
    details["perturbed"] = bool(perturb)
    return CheckResult(
        name="cluster-examples",
        ok=ok1 and ok2 and laurent_ok,
        details=details,
    )
