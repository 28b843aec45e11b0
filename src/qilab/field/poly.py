"""Multivariate polynomials with exact rational coefficients.

The variable set is fixed: q, z, w, u, h, u1, u2, ..., c, X1, X2, ..., t.
Underscored spellings such as ``u_1`` or ``X_2`` are accepted on input and
normalized to the plain form.  Every canonical form in the package (term
order, leading coefficients, denominator normalization) is stated relative
to one global monomial order, defined by ranking the variables

    c > X1 > X2 > ... > z > w > u > u1 > u2 > ... > h > q > t

and comparing exponent vectors lexicographically, most significant variable
first.  Terms print in descending order under this ranking.

Products keep that storage (exponent tuple -> Fraction, ``vars`` the exact
support) and use integers only inside their loops.  A one-term factor shifts
and scales the other's terms.  Otherwise a private packed kernel,
``_Packing``, aligns the variables of both sides in rank order, packs each
exponent tuple into one int whose bit slot per variable is as wide as the
bit length of that variable's largest degree sum over the two sides (so key
addition never carries), scales coefficients to ints over a common
denominator, accumulates ``ka + kb -> ca * cb`` in one int dict and unpacks
once.  ``MPoly.__mul__`` and ``linalg.mat_mul`` on MPoly matrices use it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, mul, or_

__all__ = ["MPoly", "NotDivisible", "normalize_var", "var_rank", "poly_gcd"]


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder."""


_PLAIN = {"q", "z", "w", "u", "h", "c", "t"}
_INDEXED = re.compile(r"^([uX])_?([1-9][0-9]*)$")


class _RankTable(dict):
    """Variable name -> rank; indexed names are ranked on first lookup."""

    def __missing__(self, name):
        r = (1, int(name[1:])) if name[0] == "X" else (5, int(name[1:]))
        self[name] = r
        return r


_RANK = _RankTable(
    c=(0, 0), z=(2, 0), w=(3, 0), u=(4, 0), h=(6, 0), q=(7, 0), t=(8, 0)
)


def normalize_var(name: str) -> str:
    """Map an accepted variable spelling to its canonical name."""
    if name in _PLAIN:
        return name
    m = _INDEXED.match(name)
    if m:
        return m.group(1) + m.group(2)
    raise ValueError(f"unknown variable {name!r}")


def var_rank(name: str) -> tuple[int, int]:
    """Sort key of a canonical variable name; smaller sorts more significant."""
    return _RANK[name]


def _coerce_scalar(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class MPoly:
    """Immutable sparse polynomial; ``vars`` holds exactly the support."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        clean = {}
        for exps, coeff in terms.items():
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if coeff:
                clean[tuple(exps)] = coeff
        used = [False] * len(vars)
        for exps in clean:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        order = sorted(
            (i for i in range(len(vars)) if used[i]), key=lambda i: _RANK[vars[i]]
        )
        newvars = tuple(vars[i] for i in order)
        if newvars != vars:
            remapped: dict[tuple, Fraction] = {}
            for exps, coeff in clean.items():
                key = tuple(exps[i] for i in order)
                acc = remapped.get(key, Fraction(0)) + coeff
                if acc:
                    remapped[key] = acc
                else:
                    remapped.pop(key, None)
            clean = remapped
            vars = newvars
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    # constructors

    @classmethod
    def _from_canonical(cls, vars: tuple, terms: dict) -> "MPoly":
        """Wrap data that is already canonical: ``vars`` the rank-ordered
        exact support, ``terms`` nonzero Fractions keyed by exponent tuples."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls) -> "MPoly":
        return cls((), {})

    @classmethod
    def const(cls, x) -> "MPoly":
        return cls((), {(): Fraction(x)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls((normalize_var(name),), {(1,): Fraction(1)})

    # predicates and views

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def as_fraction(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        name = normalize_var(name)
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def degree_in_set(self, names) -> int:
        """Max total degree counting only the listed variables."""
        names = {normalize_var(n) for n in names}
        idx = [i for i, v in enumerate(self.vars) if v in names]
        if not self.terms:
            return -1
        return max(sum(e[i] for i in idx) for e in self.terms)

    def key(self):
        return (self.vars, tuple(sorted(self.terms.items())))

    def __hash__(self):
        return hash(self.key())

    def __bool__(self):
        return bool(self.terms)

    def _aligned(self, other):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars), key=_RANK.__getitem__))
        return merged, _remap(self, merged), _remap(other, merged)

    # arithmetic

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self.is_const() and self.as_fraction() == s

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = MPoly.const(s)
        vars, ta, tb = self._aligned(other)
        out = dict(ta)
        for e, c in tb.items():
            acc = out.get(e, Fraction(0)) + c
            if acc:
                out[e] = acc
            else:
                out.pop(e, None)
        return MPoly(vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = MPoly.const(s)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            if not s:
                return MPoly.zero()
            return MPoly(self.vars, {e: c * s for e, c in self.terms.items()})
        if not self.terms or not other.terms:
            return MPoly.zero()
        # A product of nonzero polynomials has positive degree in every
        # variable of either factor, so the union of the supports is exact.
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a one-term factor shifts the other's terms apart: no two collide
            big, mono = (other, self) if len(self.terms) == 1 else (self, other)
            vars, tb, tm = big._aligned(mono)
            ((em, cm),) = tm.items()
            return MPoly._from_canonical(
                vars, {tuple(map(add, e, em)): c * cm for e, c in tb.items()}
            )
        pk = _Packing((self,), (other,))
        acc: dict[int, int] = {}
        _accumulate(acc, pk.pack(self, 0), pk.pack(other, 1))
        return MPoly._from_canonical(pk.vars, pk.terms(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("MPoly exponent must be a nonnegative integer")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # leading data under the global order

    def lex_leading(self):
        """Leading ``(exponents, coefficient)``; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self) -> "MPoly":
        if not self.terms:
            return self
        _, c = self.lex_leading()
        if c == 1:
            return self
        inv = 1 / c
        return MPoly(self.vars, {e: k * inv for e, k in self.terms.items()})

    # structure helpers

    def split_by(self, name: str) -> dict:
        """Decompose as a polynomial in one variable: degree -> coefficient."""
        name = normalize_var(name)
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            d = e[i]
            re_ = e[:i] + e[i + 1 :]
            buckets.setdefault(d, {})[re_] = c
        return {d: MPoly(rest, t) for d, t in buckets.items()}

    def coeff_of(self, name: str, k: int) -> "MPoly":
        return self.split_by(name).get(k, MPoly.zero())

    def substitute(self, mapping: dict) -> "MPoly":
        """Substitute variables by polynomials or scalars; others are kept."""
        norm = {}
        for k, v in mapping.items():
            if not isinstance(v, MPoly):
                v = MPoly.const(v)
            norm[normalize_var(k)] = v
        targets = [norm.get(v, MPoly.var(v)) for v in self.vars]
        out = MPoly.zero()
        cache: dict[tuple[int, int], MPoly] = {}
        for e, coeff in self.terms.items():
            term = MPoly.const(coeff)
            for i, k in enumerate(e):
                if k:
                    ck = cache.get((i, k))
                    if ck is None:
                        ck = targets[i] ** k
                        cache[(i, k)] = ck
                    term = term * ck
            out = out + term
        return out

    def eval_complex(self, mapping: dict) -> complex:
        norm = {normalize_var(k): complex(v) for k, v in mapping.items()}
        missing = [v for v in self.vars if v not in norm]
        if missing:
            raise ValueError(f"unbound variables in numeric evaluation: {missing}")
        total = 0j
        for e, coeff in self.terms.items():
            val = complex(coeff.numerator) / coeff.denominator
            for i, k in enumerate(e):
                if k:
                    val *= norm[self.vars[i]] ** k
            total += val
        return total

    def eval_fraction(self, mapping: dict) -> Fraction:
        norm = {normalize_var(k): Fraction(v) for k, v in mapping.items()}
        missing = [v for v in self.vars if v not in norm]
        if missing:
            raise ValueError(f"unbound variables in exact evaluation: {missing}")
        total = Fraction(0)
        for e, coeff in self.terms.items():
            val = coeff
            for i, k in enumerate(e):
                if k:
                    val *= norm[self.vars[i]] ** k
            total += val
        return total

    # exact division

    def div_exact(self, other) -> "MPoly":
        """Exact quotient self/other; raises NotDivisible on a remainder."""
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                raise TypeError("div_exact expects a polynomial or scalar")
            if not s:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / s)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return MPoly.zero()
        if other.is_const():
            return self * (Fraction(1) / other.as_fraction())
        vars, ta, tb = self._aligned(other)
        eb = max(tb)
        cb = tb[eb]
        rem = dict(ta)
        quo: dict[tuple, Fraction] = {}
        while rem:
            er = max(rem)
            cr = rem[er]
            eq = tuple(a - b for a, b in zip(er, eb))
            if any(x < 0 for x in eq):
                raise NotDivisible(f"({self}) is not divisible by ({other})")
            cq = cr / cb
            quo[eq] = quo.get(eq, Fraction(0)) + cq
            for e, c in tb.items():
                tgt = tuple(a + b for a, b in zip(e, eq))
                acc = rem.get(tgt, Fraction(0)) - c * cq
                if acc:
                    rem[tgt] = acc
                else:
                    rem.pop(tgt, None)
        return MPoly(vars, quo)

    # printing

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            coeff = self.terms[e]
            mono = "*".join(
                self.vars[i] if k == 1 else f"{self.vars[i]}^{k}"
                for i, k in enumerate(e)
                if k
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"MPoly({self})"


def _remap(p: MPoly, merged: tuple) -> dict:
    pos = [merged.index(v) for v in p.vars]
    width = len(merged)
    out = {}
    for e, c in p.terms.items():
        key = [0] * width
        for i, k in enumerate(e):
            key[pos[i]] = k
        out[tuple(key)] = c
    return out


# packed products


class _Packing:
    """Integer layout for products of a polynomial from ``left`` with one
    from ``right``.

    The variables of both sides are aligned in rank order.  Each gets a bit
    slot as wide as the bit length of the largest degree it can reach in such
    a product (its largest degree on the left plus its largest on the right),
    so adding two packed exponent keys never carries from one slot into the
    next.  Coefficients are scaled to ints over their side's common
    denominator; accumulated products are over ``den``, the product of both.
    """

    __slots__ = ("vars", "den", "_shift", "_slots", "_side_den", "_exps", "_fracs")

    def __init__(self, left, right):
        deg_l, den_l = _scan(left)
        deg_r, den_r = _scan(right)
        self.vars = tuple(sorted(deg_l.keys() | deg_r.keys(), key=_RANK.__getitem__))
        self._shift = {}
        self._slots = []
        bit = 0
        for v in self.vars:
            width = (deg_l.get(v, 0) + deg_r.get(v, 0)).bit_length()
            self._shift[v] = 1 << bit
            self._slots.append((bit, (1 << width) - 1))
            bit += width
        self._side_den = (den_l, den_r)
        self.den = den_l * den_r
        # The entries of one matrix product share most monomials and
        # coefficients: each key and each int is unpacked once per layout.
        self._exps: dict[int, tuple] = {}
        self._fracs: dict[int, Fraction] = {}

    def pack(self, p: MPoly, side: int) -> list:
        """``[(key, int coefficient)]`` of ``p`` from side 0 (left) or 1."""
        shifts = [self._shift[v] for v in p.vars]
        keys = [sum(map(mul, exps, shifts)) for exps in p.terms]
        den = self._side_den[side]
        if den == 1:
            coeffs = [c.numerator for c in p.terms.values()]
        else:
            coeffs = [c.numerator * (den // c.denominator) for c in p.terms.values()]
        return list(zip(keys, coeffs))

    def terms(self, acc: dict) -> dict:
        """An accumulated ``key -> int`` dict as ``exponents -> Fraction``."""
        exps, fracs, slots, den = self._exps, self._fracs, self._slots, self.den
        out = {}
        for k, c in acc.items():
            e = exps.get(k)
            if e is None:
                e = exps[k] = tuple([(k >> o) & m for o, m in slots])
            f = fracs.get(c)
            if f is None:
                f = fracs[c] = Fraction(c, den) if den != 1 else Fraction(c)
            out[e] = f
        return out

    def poly(self, acc: dict) -> MPoly:
        """The MPoly of an accumulated sum of products; it is built through the
        constructor only when cancellation left a variable unused."""
        if not acc:
            return MPoly.zero()
        used = reduce(or_, acc)
        if all((used >> o) & m for o, m in self._slots):
            return MPoly._from_canonical(self.vars, self.terms(acc))
        return MPoly(self.vars, self.terms(acc))


def _scan(polys) -> tuple[dict, int]:
    """Largest degree of each variable and the lcm of all denominators."""
    degs: dict[str, int] = {}
    den = 1
    for p in polys:
        for v, column in zip(p.vars, zip(*p.terms)):
            d = max(column)
            if d > degs.get(v, 0):
                degs[v] = d
        den = lcm(den, *[c.denominator for c in p.terms.values()])
    return degs, den


def _accumulate(acc: dict, pa: list, pb: list) -> None:
    """``acc[ka + kb] += ca * cb`` over all pairs; zero sums are dropped."""
    get = acc.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            c = get(k, 0) + ca * cb
            if c:
                acc[k] = c
            else:
                del acc[k]


def _min_exps(p: MPoly) -> dict:
    mins = None
    for e in p.terms:
        mins = list(e) if mins is None else [min(a, b) for a, b in zip(mins, e)]
    return dict(zip(p.vars, mins or []))


def _shift_down(p: MPoly, mins: dict) -> MPoly:
    if not any(mins.values()):
        return p
    drop = [mins[v] for v in p.vars]
    return MPoly(
        p.vars, {tuple(a - b for a, b in zip(e, drop)): c for e, c in p.terms.items()}
    )


def _euclid_univar(a: MPoly, b: MPoly, x: str) -> MPoly:
    da = {k: v.as_fraction() for k, v in a.split_by(x).items()}
    db = {k: v.as_fraction() for k, v in b.split_by(x).items()}
    while db:
        degb = max(db)
        lcb = db[degb]
        while da and max(da) >= degb:
            dega = max(da)
            f = da[dega] / lcb
            shift = dega - degb
            for k, v in db.items():
                tgt = k + shift
                acc = da.get(tgt, Fraction(0)) - f * v
                if acc:
                    da[tgt] = acc
                else:
                    da.pop(tgt, None)
        da, db = db, da
    deg = max(da)
    lc = da[deg]
    return MPoly((x,), {(k,): v / lc for k, v in da.items()})


def _content_in(p: MPoly, x: str) -> MPoly:
    parts = list(p.split_by(x).values())
    g = parts[0]
    for piece in parts[1:]:
        g = poly_gcd(g, piece)
        if g.is_const():
            return MPoly.const(1)
    return g.monic()


def _prem(a: MPoly, b: MPoly, x: str) -> MPoly:
    db = b.degree_in(x)
    lcb = b.coeff_of(x, db)
    xv = MPoly.var(x)
    r = a
    while not r.is_zero() and r.degree_in(x) >= db:
        dr = r.degree_in(x)
        lcr = r.coeff_of(x, dr)
        r = lcb * r - lcr * (xv ** (dr - db)) * b
    return r


def _gcd_core(a: MPoly, b: MPoly) -> MPoly:
    # both nonzero with trivial monomial content
    if a.is_const() or b.is_const():
        return MPoly.const(1)
    shared = [v for v in a.vars if v in b.vars]
    if not shared:
        return MPoly.const(1)
    x = min(shared, key=lambda v: min(a.degree_in(v), b.degree_in(v)))
    if a.vars == (x,) and b.vars == (x,):
        return _euclid_univar(a, b, x)
    ca = _content_in(a, x)
    cb = _content_in(b, x)
    cont = poly_gcd(ca, cb)
    A = a.div_exact(ca)
    B = b.div_exact(cb)
    if A.degree_in(x) < B.degree_in(x):
        A, B = B, A
    while not B.is_zero():
        R = _prem(A, B, x)
        if not R.is_zero():
            R = R.div_exact(_content_in(R, x))
        A, B = B, R
    return (cont * A).monic()


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ma = _min_exps(a)
    mb = _min_exps(b)
    a1 = _shift_down(a, ma)
    b1 = _shift_down(b, mb)
    mono = MPoly.const(1)
    for v in ma:
        if v in mb:
            k = min(ma[v], mb[v])
            if k:
                mono = mono * (MPoly.var(v) ** k)
    return (mono * _gcd_core(a1, b1)).monic()
