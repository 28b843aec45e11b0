"""Multivariate polynomials with exact rational coefficients.

The variable set is fixed: q, z, w, u, h, u1, u2, ..., c, X1, X2, ..., t.
Underscored spellings such as ``u_1`` or ``X_2`` are accepted on input and
normalized to the plain form.  Every canonical form in the package (term
order, leading coefficients, denominator normalization) is stated relative
to one global monomial order, defined by ranking the variables

    c > X1 > X2 > ... > z > w > u > u1 > u2 > ... > h > q > t

and comparing exponent vectors lexicographically, most significant variable
first.  Terms print in descending order under this ranking.

One stored form.  An MPoly is ``num/den * P``: the content ``num/den`` is
two ints in lowest terms with ``den > 0`` (``0/1`` only for the zero
polynomial) and ``P`` a primitive integer polynomial whose lex-leading
coefficient is positive, so the stored form is canonical and ``==`` and
``hash`` compare it directly.  ``vars`` is the exact support in rank
order.  ``P`` is a dict from packed exponent key to int.  Every variable
owns one 32-bit slot, ``vars[0]`` the highest and the last variable bits
0-31, so comparing keys as ints is the lex order, adding keys multiplies
monomials and the least significant variable sits in the lowest slot.  The
top bit of each slot is a guard: exponents stay below 2^31, and an
operation whose result would reach that bit raises ValueError.  Two
operands with different supports are rekeyed to the union of the two
(``_align``); only this module reads the stored form.

Every operation updates the content on its two ints, cancelling with
``math.gcd``; a Fraction is built only where one is handed out
(``as_fraction``, ``terms``, ``key``, ``lex_leading`` and the lifts of
``evaluate``).  Products cross-cancel the contents and multiply the
primitive parts.  By Gauss's lemma a product of primitive parts is
primitive, and its leading coefficient is the product of two positive
ones, so no gcd of the coefficients runs.  Matrix products and slot
products pack each entry once (``_pack``) and build one row at a time;
they, sums and ``split_by`` divide the gcd of the ints back out, and
comparisons of two sides compare raw rows.  A comparison of two slot
streams (``_compared_rows``) packs further, by Kronecker substitution:
each row entry is one int, its image at X = 2^B over an exponent box both
streams share, and each factor entry a few ``(shift, coeff)`` terms, so
big-int arithmetic runs the loop over terms.  The bounds on exponents and
coefficients make the map one-to-one on every row either stream can
build, so equal ints are equal polynomials; this is exact, not a test at
a random point.  A box too large to pack keeps int dict entries, and so
do the products of two matrices and the rows that ``apply_on_slots``
canonicalises, where ints would have to be decoded; a comparison of the
two orders of a product keys each term by its index in the product's
exponent box instead (``_box_keys``).  ``div_exact``
divides the primitive parts over Z by leading terms (``_quotient``); by
Gauss's lemma the quotient is integral whenever it exists.

``poly_gcd`` returns the gcd with leading coefficient 1 and runs on ints:

- a zero operand gives the other made monic, and a constant operand gives 1;
- each side's monomial content (the slotwise minimum of its keys) is divided
  out and the shared part becomes a monomial factor of the result; if a side
  is then a constant, that factor is the gcd;
- otherwise the heuristic gcd of Char, Geddes and Gonnet (GCDHEU)
  evaluates the least significant variable at an integer ``xi`` above
  twice the smaller coefficient norm plus one, recurses on the images down
  to an integer gcd, and rebuilds a candidate from balanced ``xi``-adic
  digits.  Its primitive part is the gcd if it divides both sides exactly
  over Z, which ``_quotient`` checks; otherwise ``xi`` grows by
  73794/27011, at most six times per variable.
- The primitive pseudo-remainder sequence over MPoly (``_prs_gcd``) runs only
  when the heuristic gives up: after six rejected candidates for one
  variable, or once the bit length of ``xi`` times the degree passes 5000.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import gcd, lcm, prod
from operator import or_

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
    """``(num, den)`` of an int or Fraction, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _ratio(x) -> tuple:
    """``(num, den)`` of any rational scalar."""
    s = _coerce_scalar(x)
    if s is None:
        x = Fraction(x)
        s = x.numerator, x.denominator
    return s


def _times(a: int, b: int, c: int, d: int) -> tuple:
    """``a/b * c/d`` in lowest terms, for two reduced pairs with ``b, d > 0``."""
    g = gcd(a, d)
    h = gcd(c, b)
    if g != 1:
        a //= g
        d //= g
    if h != 1:
        c //= h
        b //= h
    return a * c, b * d


def _over(a: int, b: int, c: int, d: int) -> tuple:
    """``(a/b) / (c/d)`` in lowest terms, for reduced pairs with ``c != 0``."""
    return _times(a, b, -d, -c) if c < 0 else _times(a, b, d, c)


# the packed layout

_W = 32  # bits per variable slot
_LIMIT = 1 << (_W - 1)  # the guard bit: every exponent stays below it
_SLOT = (1 << _W) - 1


@cache
def _masks(n: int) -> tuple[int, int]:
    """``(guard, fill)`` for ``n`` slots: the guard bits, and ``_LIMIT - 1``
    in every slot (adding it to a key sets the guard bit of each nonzero
    slot)."""
    ones = ((1 << _W * n) - 1) // _SLOT
    return _LIMIT * ones, (_LIMIT - 1) * ones


@cache
def _offsets(n: int) -> tuple:
    """Bit offset of each of ``n`` slots, most significant first."""
    return tuple(_W * (n - 1 - i) for i in range(n))


def _slot_min(x: int, y: int, guard: int) -> int:
    """The slotwise minimum of two keys whose ``guard`` bits are clear."""
    ge = ((x | guard) - y) & guard  # the guard bit of each slot where x >= y
    return x ^ ((x ^ y) & (ge - (ge >> _W - 1)))


def _decode(k: int, n: int) -> tuple:
    return tuple([k >> s & _SLOT for s in _offsets(n)])


@lru_cache(maxsize=4096)
def _union(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(set(a) | set(b), key=_RANK.__getitem__))


@lru_cache(maxsize=4096)
def _moves(src: tuple, dst: tuple) -> tuple:
    """``(src offset, mask, dst offset)`` per run of slots that move together
    from the layout of ``src`` to that of ``dst``.  Variables of ``src``
    missing from ``dst`` must have exponent 0; they are dropped."""
    runs = []
    for v, s in zip(reversed(src), reversed(_offsets(len(src)))):
        if v not in dst:
            continue
        d = _W * (len(dst) - 1 - dst.index(v))
        if runs and runs[-1][0] + runs[-1][2] == s and runs[-1][1] + runs[-1][2] == d:
            runs[-1][2] += _W
        else:
            runs.append([s, d, _W])
    return tuple((s, (1 << width) - 1, d) for s, d, width in runs)


def _rekey(ints: dict, src: tuple, dst: tuple) -> dict:
    """``ints`` keyed on the slots of ``dst`` instead of ``src``."""
    if src == dst:
        return ints
    runs = _moves(src, dst)
    if len(runs) == 1:
        ((s, m, d),) = runs
        return {(k >> s & m) << d: c for k, c in ints.items()}
    out = {}
    for k, c in ints.items():
        key = 0
        for s, m, d in runs:
            key |= (k >> s & m) << d
        out[key] = c
    return out


def _align(a: "MPoly", b: "MPoly") -> tuple:
    """``(vars, ints of a, ints of b)`` on the union of the two supports."""
    if a.vars == b.vars:
        return a.vars, a._ints, b._ints
    vars = _union(a.vars, b.vars)
    return vars, _rekey(a._ints, a.vars, vars), _rekey(b._ints, b.vars, vars)


def _make(vars: tuple, ints: dict, num: int, den: int) -> "MPoly":
    """Wrap data that is already canonical."""
    p = _new(MPoly)
    _set_vars(p, vars)
    _set_ints(p, ints)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _trim(vars: tuple, ints: dict, num: int, den: int) -> "MPoly":
    """The MPoly of a primitive, positive-leading ``ints``: drops the slots no
    key uses and raises ValueError if an exponent reached the guard bit."""
    if vars:
        guard, fill = _masks(len(vars))
        used = reduce(or_, ints)
        if used & guard:
            raise ValueError(f"exponent exceeds the limit {_LIMIT - 1}")
        alive = (used + fill) & guard
        if alive != guard:
            offsets = _offsets(len(vars))
            keep = tuple(v for v, s in zip(vars, offsets) if alive >> s + _W - 1 & 1)
            ints = _rekey(ints, vars, keep)
            vars = keep
    return _make(vars, ints, num, den)


def _canon(vars: tuple, ints: dict, num: int = 1, den: int = 1) -> "MPoly":
    """The MPoly ``num/den * ints`` for ``den > 0``; ``ints`` need not be
    primitive, nor ``num/den`` reduced."""
    if not ints:
        return _ZERO
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    if g != 1:
        ints = {k: c // g for k, c in ints.items()}
    num *= g
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    return _trim(vars, ints, num, den)


class MPoly:
    """Immutable sparse polynomial; ``vars`` holds exactly the support."""

    __slots__ = ("vars", "_ints", "_num", "_den")

    def __new__(cls, vars, terms):
        """``terms`` maps exponent tuples over ``vars`` (any order, unused
        variables allowed) to int or Fraction coefficients."""
        vars = tuple(vars)
        order = sorted(range(len(vars)), key=lambda i: _RANK[vars[i]])
        offsets = _offsets(len(vars))
        coeffs = {}
        for exps, c in terms.items():
            n, d = _ratio(c)
            if not n:
                continue
            if len(exps) != len(vars) or not all(0 <= e < _LIMIT for e in exps):
                raise ValueError(f"exponents {tuple(exps)} outside 0..{_LIMIT - 1}")
            coeffs[sum(exps[i] << s for i, s in zip(order, offsets))] = n, d
        den = lcm(*[d for _, d in coeffs.values()])
        ints = {k: n * (den // d) for k, (n, d) in coeffs.items()}
        return _canon(tuple(vars[i] for i in order), ints, 1, den)

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    # constructors

    @classmethod
    def zero(cls) -> "MPoly":
        return _ZERO

    @classmethod
    def const(cls, x) -> "MPoly":
        return _const(*_ratio(x))

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return _make((normalize_var(name),), {1: 1}, 1, 1)

    # predicates and views

    def is_zero(self) -> bool:
        return not self._ints

    def is_const(self) -> bool:
        return not self.vars

    def n_terms(self) -> int:
        return len(self._ints)

    def terms(self) -> dict:
        """Exponent tuple over ``vars`` -> Fraction, in descending order."""
        n, num, den = len(self.vars), self._num, self._den
        return {
            _decode(k, n): Fraction(num * v, den)
            for k, v in sorted(self._ints.items(), reverse=True)
        }

    def as_fraction(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._num, self._den)

    def degree_in(self, name: str) -> int:
        name = normalize_var(name)
        if name not in self.vars:
            return 0
        s = _offsets(len(self.vars))[self.vars.index(name)]
        return max(k >> s & _SLOT for k in self._ints)

    def degree_in_set(self, names) -> int:
        """Max total degree counting only the listed variables."""
        names = {normalize_var(n) for n in names}
        if not self._ints:
            return -1
        picked = [s for v, s in zip(self.vars, _offsets(len(self.vars))) if v in names]
        return max(sum(k >> s & _SLOT for s in picked) for k in self._ints)

    def key(self):
        """``(vars, ((exponents, coefficient), ...))`` in ascending order."""
        n, num, den = len(self.vars), self._num, self._den
        return self.vars, tuple(
            (_decode(k, n), Fraction(num * v, den))
            for k, v in sorted(self._ints.items())
        )

    def __hash__(self):
        return hash((self.vars, self._num, self._den, frozenset(self._ints.items())))

    def __bool__(self):
        return bool(self._ints)

    # arithmetic

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return (self.vars, self._num, self._den, self._ints) == (
                other.vars,
                other._num,
                other._den,
                other._ints,
            )
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return not self.vars and (self._num, self._den) == s

    def __neg__(self):
        return _make(self.vars, self._ints, -self._num, self._den)

    def __add__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = _const(*s)
        if not other._ints:
            return self
        if not self._ints:
            return other
        vars, A, B = _align(self, other)
        na, da, nb, db = self._num, self._den, other._num, other._den
        g = gcd(na, nb)
        den = da if da == db else lcm(da, db)
        sa = na // g * (den // da)
        sb = nb // g * (den // db)
        out = {k: c * sa for k, c in A.items()} if sa != 1 else dict(A)
        get = out.get
        for k, c in B.items():
            s = get(k, 0) + c * sb
            if s:
                out[k] = s
            else:
                del out[k]
        return _canon(vars, out, g, den)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = _const(*s)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            if not s[0] or not self._ints:
                return _ZERO
            return _make(self.vars, self._ints, *_times(self._num, self._den, *s))
        if not self._ints or not other._ints:
            return _ZERO
        vars, A, B = _align(self, other)
        if len(A) == 1 or len(B) == 1:
            # a primitive one-term factor is a monomial with coefficient 1
            big, mono = (B, A) if len(A) == 1 else (A, B)
            (km,) = mono
            out = {k + km: c for k, c in big.items()}
        else:
            out = {}
            _accumulate(out, A.items(), B.items())
        return _trim(vars, out, *_times(self._num, self._den, other._num, other._den))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("MPoly exponent must be a nonnegative integer")
        if not n:
            return MPoly.const(1)
        if len(self._ints) == 1:
            # a primitive one-term polynomial is a monomial with coefficient 1
            (k,) = self._ints
            if max(_decode(k, len(self.vars)), default=0) * n >= _LIMIT:
                raise ValueError(f"exponent exceeds the limit {_LIMIT - 1}")
            return _make(self.vars, {k * n: 1}, self._num**n, self._den**n)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # leading data under the global order

    def lex_leading(self):
        """Leading ``(exponents, coefficient)``; raises on the zero polynomial."""
        if not self._ints:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._ints)
        lc = Fraction(self._num * self._ints[k], self._den)
        return _decode(k, len(self.vars)), lc

    def monic(self) -> "MPoly":
        if not self._ints:
            return self
        lc = self._ints[max(self._ints)]  # positive, so 1/lc is reduced
        if self._num == 1 and self._den == lc:
            return self
        return _make(self.vars, self._ints, 1, lc)

    # structure helpers

    def split_by(self, name: str) -> dict:
        """Decompose as a polynomial in one variable: degree -> coefficient."""
        name = normalize_var(name)
        if name not in self.vars:
            return {0: self} if self._ints else {}
        i = self.vars.index(name)
        s = _offsets(len(self.vars))[i]
        below = (1 << s) - 1
        buckets: dict[int, dict] = {}
        for k, c in self._ints.items():
            buckets.setdefault(k >> s & _SLOT, {})[k >> s + _W << s | k & below] = c
        rest = self.vars[:i] + self.vars[i + 1 :]
        num, den = self._num, self._den
        return {d: _canon(rest, t, num, den) for d, t in buckets.items()}

    def coeff_of(self, name: str, k: int) -> "MPoly":
        return self.split_by(name).get(k, _ZERO)

    def evaluate(self, values: dict, lift, total):
        """``total`` plus, term by term in descending order,
        ``lift(n, d) * values[v1]**e1 * values[v2]**e2 * ...``, where ``n/d``
        is the term's coefficient in lowest terms with ``d > 0``; ``values``
        maps every variable of ``vars`` to a ring element."""
        slots = [(values[v], s) for v, s in zip(self.vars, _offsets(len(self.vars)))]
        num, den = self._num, self._den
        powers = {}
        for key, c in sorted(self._ints.items(), reverse=True):
            g = gcd(c, den)
            val = lift(num * c // g, den // g)
            for x, s in slots:
                k = key >> s & _SLOT
                if k:
                    xk = powers.get((s, k))
                    if xk is None:
                        xk = powers[(s, k)] = x**k
                    val = val * xk
            total = total + val
        return total

    def substitute(self, mapping: dict) -> "MPoly":
        """Substitute variables by polynomials or scalars; others are kept."""
        norm = {}
        for k, v in mapping.items():
            norm[normalize_var(k)] = v if isinstance(v, MPoly) else MPoly.const(v)
        values = {v: norm[v] if v in norm else MPoly.var(v) for v in self.vars}
        return self.evaluate(values, _const, _ZERO)

    def exchange(self, a: str, b: str) -> "MPoly":
        """The polynomial with the variables ``a`` and ``b`` swapped, and
        ``self`` when it holds neither.  With both in the support, each key
        swaps the two slots in place, one expression per key where
        ``_rekey`` would loop over its runs; with one, the keys are rekeyed
        from the swapped support to rank order.  The sign moves to the
        content if the leading coefficient turns negative."""
        a, b = normalize_var(a), normalize_var(b)
        vars = self.vars
        if a == b or (a not in vars and b not in vars):
            return self
        if a in vars and b in vars:
            sa, sb = (_offsets(len(vars))[vars.index(v)] for v in (a, b))
            ints = _swap_slots(self._ints, sa, sb)
        else:
            src = tuple(b if v == a else a if v == b else v for v in vars)
            vars = tuple(sorted(src, key=_RANK.__getitem__))
            ints = _rekey(self._ints, src, vars)
        if ints[max(ints)] < 0:
            return _make(vars, {k: -c for k, c in ints.items()}, -self._num, self._den)
        return _make(vars, ints, self._num, self._den)

    def _bound(self, mapping: dict, kind: str, cast) -> dict:
        norm = {normalize_var(k): cast(v) for k, v in mapping.items()}
        missing = [v for v in self.vars if v not in norm]
        if missing:
            raise ValueError(f"unbound variables in {kind} evaluation: {missing}")
        return norm

    def eval_complex(self, mapping: dict) -> complex:
        values = self._bound(mapping, "numeric", complex)
        return self.evaluate(values, lambda n, d: complex(n) / d, 0j)

    def eval_fraction(self, mapping: dict) -> Fraction:
        values = self._bound(mapping, "exact", Fraction)
        return self.evaluate(values, Fraction, Fraction(0))

    # exact division

    def div_exact(self, other) -> "MPoly":
        """Exact quotient self/other; raises NotDivisible on a remainder."""
        poly = isinstance(other, MPoly)
        if poly:
            if not other._ints:
                raise ZeroDivisionError("division by zero polynomial")
            s = other._num, other._den
        else:
            s = _coerce_scalar(other)
            if s is None:
                raise TypeError("div_exact expects a polynomial or scalar")
            if not s[0]:
                raise ZeroDivisionError("division by zero")
        if not self._ints:
            return _ZERO
        content = _over(self._num, self._den, *s)
        if not poly or not other.vars:
            return _make(self.vars, self._ints, *content)
        vars, A, B = _align(self, other)
        quo = _quotient(A, B, _masks(len(vars))[0])
        if quo is None:
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        return _trim(vars, quo, *content)

    # printing

    def __str__(self):
        if not self._ints:
            return "0"
        pieces = []
        num, den = self._num, self._den
        n = len(self.vars)
        for k in sorted(self._ints, reverse=True):
            c = self._ints[k] * num
            g = gcd(c, den)
            c, d = c // g, den // g
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, _decode(k, n))
                if e
            )
            mag = str(abs(c)) if d == 1 else f"{abs(c)}/{d}"
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self):
        return f"MPoly({self})"

    @staticmethod
    def matrix_product(A, B):
        """``A·B`` for matrices whose nonzero entries are all MPoly.

        Every entry is packed once (``_pack``), each side over its own common
        denominator, and the rows of ``_product_rows`` are canonicalised.  An
        entry stays int 0 when no t has A[i][t] and B[t][j] both nonzero, as
        in the generic loop; a sum that cancels is zero.  Only ``_trim``
        bounds the exponents, so only a product that really overflows raises.
        """
        vars, dens, (PA, PB) = _pack((A, B))
        return _canon_rows(vars, dens[0] * dens[1], _product_rows(PA, PB), len(B[0]))


_new = object.__new__
# the slot setters skip MPoly.__setattr__, which refuses every write
_set_vars, _set_ints, _set_num, _set_den = (
    MPoly.__dict__[name].__set__ for name in MPoly.__slots__
)
_ZERO = _make((), {}, 0, 1)


def _const(num: int, den: int) -> MPoly:
    """The constant ``num/den``, a reduced pair with ``den > 0``."""
    return _make((), {0: 1}, num, den) if num else _ZERO


def _monic_den(num: MPoly, den: MPoly) -> tuple:
    """``(num/lc, den/lc)`` for the lex-leading coefficient ``lc`` of the
    nonzero ``den``; only the two contents change."""
    lead = den._ints[max(den._ints)]
    if den._num == 1 and den._den == lead:
        return num, den
    g = gcd(lead, den._den)
    content = _over(num._num, num._den, den._num * (lead // g), den._den // g)
    return _make(num.vars, num._ints, *content), _make(den.vars, den._ints, 1, lead)


def _parts(x) -> tuple:
    """``(vars, ints, num, den)`` of an MPoly, Fraction or int."""
    if isinstance(x, MPoly):
        return x.vars, x._ints, x._num, x._den
    s = _coerce_scalar(x)
    if s is None:
        raise TypeError(f"packed entries are MPoly, Fraction or int, not {x!r}")
    return ((), {0: 1}) + s


def _pack(sides) -> tuple:
    """``(vars, dens, packed)``: every nonzero entry (MPoly, Fraction or int)
    of each matrix rekeyed to the union ``vars`` of all supports and scaled
    to an int dict over its matrix's common denominator ``dens[i]``, once
    per entry object; zero packs to None."""
    sides = list(sides)
    parts = [{id(x): _parts(x) for row in M for x in row if x} for M in sides]
    vars = reduce(_union, [p[0] for memo in parts for p in memo.values()], ())
    dens = [lcm(*[p[3] for p in memo.values()]) for memo in parts]
    for memo, d in zip(parts, dens):
        for key, (vs, ints, num, den) in memo.items():
            m = num * (d // den)
            memo[key] = {k: v * m for k, v in _rekey(ints, vs, vars).items()}
    return vars, dens, [
        [[memo[id(x)] if x else None for x in row] for row in M]
        for M, memo in zip(sides, parts)
    ]


def _top(F, guard: int) -> int:
    """The slotwise largest key of the packed matrix ``F``."""
    return _slot_max([k for row in F for e in row if e for k in e], guard)


def _slot_max(keys, guard: int) -> int:
    """The slotwise largest of ``keys`` whose ``guard`` bits are clear."""
    return reduce(lambda x, y: x + y - _slot_min(x, y, guard), keys, 0)


def _bound(tops, guard: int) -> int:
    """The running sum of the slotwise largest keys ``tops`` of packed
    factors, which bounds every exponent of their product slotwise;
    ValueError as soon as it sets a ``guard`` bit."""
    bound = 0
    for top in tops:
        bound += top
        if bound & guard:
            raise ValueError(f"exponent exceeds the limit {_LIMIT - 1}")
    return bound


def _swap_slots(ints: dict, sa: int, sb: int) -> dict:
    """``ints`` with the slots at bit offsets ``sa`` and ``sb`` swapped."""
    return {
        k ^ ((d := (k >> sa ^ k >> sb) & _SLOT) << sa | d << sb): c for k, c in ints.items()
    }


def _product_rows(PA, PB):
    """The rows of A·B from packed A and B, one at a time: column j -> the
    int dict of the sum over t of A[i][t]·B[t][j], empty if it cancels."""
    PB = [[(j, b.items()) for j, b in enumerate(row) if b] for row in PB]
    for row in PA:
        accs: dict[int, dict] = {}
        for t, a in enumerate(row):
            if a:
                pa = a.items()
                for j, pb in PB[t]:
                    acc = accs.get(j)
                    if acc is None:
                        acc = accs[j] = {}
                    _accumulate(acc, pa, pb)
        yield accs


def _orders_differ(A, B, swap=None):
    """``linalg.orders_differ``.  After the pack and its bound, each term
    is keyed by its index in the product's exponent box (``_box_keys``), so
    ``_product_rows`` adds small ints; both products share the denominator,
    so their rows compare raw once zero entries are dropped.

    With ``swap``, both variables get the larger of their two ranges, so an
    exchanged index stays in the box.  Each term of A·B with e_a > e_b must
    find its exchanged term, with e_a < e_b, in its entry with the same
    coefficient.  The exchange is an involution, so these partners are
    distinct, and when a row has as many terms with e_a < e_b as with
    e_a > e_b, every entry of it equals its exchange."""
    vars, _, (PA, PB) = _pack((A, B))
    guard = _masks(len(vars))[0]
    top = _bound([_top(PA, guard), _top(PB, guard)], guard)
    if swap is not None:
        present = [v for v in map(normalize_var, swap) if v in vars]
        if len(present) == 1:
            raise ValueError(
                f"exchanging {swap[0]} and {swap[1]} cannot turn A into B: "
                f"only {present[0]} occurs"
            )
        if not present:  # the exchange fixes every entry, so B is A
            return None
        slots = [_offsets(len(vars))[vars.index(v)] for v in present]
        d = max(top >> s & _SLOT for s in slots)
        top += sum((d - (top >> s & _SLOT)) << s for s in slots)
    units = _box(top, len(vars))[1]
    PA, PB = _box_keys((PA, PB), units)
    rows = _product_rows(PA, PB)
    if swap is None:
        nonzero = lambda row: {j: x for j, x in row.items() if x}
        pairs = zip(map(nonzero, rows), map(nonzero, _product_rows(PB, PA)))
        return next((i for i, (x, y) in enumerate(pairs) if x != y), None)
    sa, sb = sorted([dict(units)[s] for s in slots], reverse=True)
    mirror = {}

    def asymmetric(row) -> bool:
        surplus = 0
        for x in row.values():
            get = x.get
            for k, c in x.items():
                j = mirror.get(k)
                if j is None:
                    j = mirror[k] = k + (k // sa % (d + 1) - k // sb % (d + 1)) * (sb - sa)
                if j < k:  # e_a > e_b, a the variable of the larger stride
                    if get(j) != c:
                        return True
                    surplus += 1
                elif j > k:
                    surplus -= 1
        return surplus != 0

    return next((i for i, row in enumerate(rows) if asymmetric(row)), None)


def _box(top: int, n: int) -> tuple:
    """``(cells, units)`` of the box of exponents 0..d_i in each of ``n``
    slots, d_i the slot's value in ``top``: an ``(offset, stride)`` unit
    per slot with d_i > 0, the stride the product of d_j + 1 over the lower
    slots.  The index sum of e_i * stride_i is one to one on the box."""
    cells, units = 1, []
    for s in reversed(_offsets(n)):
        d = top >> s & _SLOT
        if d:
            units.append((s, cells))
        cells *= d + 1
    return cells, units


def _box_keys(sides, units) -> list:
    """The packed matrices ``sides`` with each key replaced by its box index
    over ``units`` (``_box``): additive, and no wider than the key, since
    each d_i + 1 is at most 2^31.  Each distinct entry and key is rekeyed
    once."""
    index, memo = {}, {}

    def key(k: int) -> int:
        i = index.get(k)
        if i is None:
            i = index[k] = sum([(k >> o & _SLOT) * s for o, s in units])
        return i

    def entry(e):
        if not e:
            return None
        out = memo.get(id(e))
        if out is None:
            out = memo[id(e)] = {key(k): c for k, c in e.items()}
        return out

    return [[[entry(e) for e in row] for row in M] for M in sides]


def _slot_plans(n: int, streams) -> tuple:
    """``(vars, den, parts)``, one ``(plan, scale, bound)`` per stream of
    conserving 4x4 factors ``(F, (s0, s1))`` on ``n`` slots, after one pack
    and each stream's ``_bound``.

    A plan lists the bits of each factor's two slots and its packed entries
    F00, F11, F12, F21, F22 and F33, the others being zero.  Each unit
    vector starts at ``scale``, the common denominator ``den`` over its
    stream's, so rows of two streams are equal exactly when the products'
    are.
    """
    streams = [list(steps) for steps in streams]
    # each factor object is packed once, as its six conserving entries
    distinct = {id(F): F for steps in streams for F, _ in steps}
    vars, dens, packed = _pack(
        [[F[0][0], F[1][1], F[1][2], F[2][1], F[2][2], F[3][3]]] for F in distinct.values()
    )
    guard, parts = _masks(len(vars))[0], []
    packed = {i: (F, d, _top(F, guard)) for i, F, d in zip(distinct, packed, dens)}
    for steps in streams:
        factors = [packed[id(F)] for F, _ in steps]
        plan = [
            (1 << n - 1 - s0, 1 << n - 1 - s1, F[0])
            for (_, (s0, s1)), (F, _, _) in zip(steps, factors)
        ]
        bound = _bound([top for _, _, top in factors], guard)
        parts.append((plan, prod([d for _, d, _ in factors]), bound))
    den = lcm(*[d for _, d, _ in parts])
    return vars, den, [(plan, den // d, bound) for plan, d, bound in parts]


def _slot_rows(n: int, streams) -> tuple:
    """``(vars, den, rows)``: a generator per stream of the rows of the
    identity on ``n`` slots times that stream (``_slot_plans``), each row a
    dict from column to int dict over ``den``."""
    vars, den, parts = _slot_plans(n, streams)
    return vars, den, [_rows(n, plan, {0: scale}, _send) for plan, scale, _ in parts]


# Largest exponent box packed into ints.  The largest box the CLI builds is
# symbolic rtt's, which grows about as L^3 and has 4,185 cells at L=7 (a
# 45 s run), so this cap is not reached in practice.  A sparse entry of high
# degree, such as z^(2^30), would make every int of a row gigabytes long, so
# a larger box keeps int dict entries.
_BOX_CELLS = 1 << 16


def _compared_rows(n: int, streams) -> list:
    """A generator per stream of the rows of ``_slot_rows``, for comparison
    only: each entry is one int, the entry evaluated at 2^B in the
    Kronecker form of a box shared by all streams.

    The box holds exponent e_i of each variable in 0..d_i, d_i the slotwise
    largest ``_bound`` of the streams; the monomial with exponents e goes to
    X^(sum e_i s_i), s_i the product of d_j + 1 over the lower slots, which
    is one-to-one on the box.  A factor entry becomes ``(shift, coeff)``
    terms, and sending x through it is the sum of ``(x * coeff) << shift``.
    Both maps are ring homomorphisms, so each int is its entry's image.  A
    step multiplies a row's largest l1 norm by at most N_F, the larger of
    F11 + F21 and F12 + F22 in l1 norms, F00's and F33's, and at least 1.
    So no coefficient of any row, partial or whole, passes M, the largest
    scale times the product of its stream's N_F.  Two coefficients then
    differ by at most 2M < 2^B for B = bit_length(2M), and their images are
    equal exactly when the entries are: an injective map on the bounded
    set, not a probabilistic test.  A box of more than ``_BOX_CELLS`` cells
    keeps int dict entries.
    """
    vars, _, parts = _slot_plans(n, streams)
    top = _slot_max([bound for *_, bound in parts], _masks(len(vars))[0])
    cells, units = _box(top, len(vars))
    if cells > _BOX_CELLS:
        return [_rows(n, plan, {0: scale}, _send) for plan, scale, _ in parts]
    factors = {id(F): F for plan, _, _ in parts for *_, F in plan}
    norms = {}
    for i, F in factors.items():
        n00, n11, n12, n21, n22, n33 = [sum(map(abs, e.values())) if e else 0 for e in F]
        norms[i] = max(n11 + n21, n12 + n22, n00, n33, 1)
    M = max(scale * prod([norms[id(F)] for *_, F in plan]) for plan, scale, _ in parts)
    B = (2 * M).bit_length()
    units = [(s, B * stride) for s, stride in units]
    shifts = {}

    def terms(e):
        if not e:
            return None
        f = []
        for k, c in e.items():
            shift = shifts.get(k)
            if shift is None:
                shift = shifts[k] = sum([(k >> s & _SLOT) * u for s, u in units])
            f.append((shift, c))
        return f

    coded = {i: [terms(e) for e in F] for i, F in factors.items()}
    return [
        _rows(n, [(b0, b1, coded[id(F)]) for b0, b1, F in plan], scale, _send_int)
        for plan, scale, _ in parts
    ]


def _rows(n: int, plan, start, send):
    """The rows of the identity on ``n`` slots times ``plan``, one at a
    time: a row maps column to entry, each unit vector starts at ``start``
    and ``send(row, c, x, f)`` adds ``x*f`` to ``row[c]``; zero entries are
    dropped.  A step sends an entry whose slots read 01 to its own column
    by F11 and to its 10 partner by F12, a 10 entry to its 01 partner by
    F21 and to its own column by F22, and a 00 or 11 entry to itself by
    F00 or F33.
    """
    for r in range(1 << n):
        row = {r: start}
        for b0, b1, (f00, f11, f12, f21, f22, f33) in plan:
            both = b0 | b1
            new = {}
            for c, x in row.items():
                t = c & both
                if t == b1:
                    send(new, c, x, f11)
                    send(new, c ^ both, x, f12)
                elif t == b0:
                    send(new, c ^ both, x, f21)
                    send(new, c, x, f22)
                else:
                    send(new, c, x, f33 if t else f00)
            row = {c: x for c, x in new.items() if x}
        yield row


def _canon_rows(vars: tuple, den: int, rows, width: int) -> list:
    """Raw rows as lists of ``width`` entries, each canonicalised once; int 0
    where a row has no entry."""
    out = []
    for row in rows:
        entries = [0] * width
        for j, x in row.items():
            entries[j] = _canon(vars, x, 1, den)
        out.append(entries)
    return out


def _send(row: dict, c: int, x: dict, f) -> None:
    """``row[c] += x*f`` over int dicts; None is zero."""
    if f:
        acc = row.get(c)
        if acc is None:
            acc = row[c] = {}
        _accumulate(acc, f.items(), x.items())


def _send_int(row: dict, c: int, x: int, f) -> None:
    """``row[c] += x*f`` for an int ``x`` and ``(shift, coeff)`` terms
    ``f``; None is zero."""
    if f:
        y = row.get(c, 0)
        for s, k in f:
            t = x << s if s else x
            if k == -1:
                y -= t
            else:
                if k != 1:
                    t *= k
                y = y + t if y else t
        row[c] = y


def _accumulate(acc: dict, pa, pb) -> None:
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


def _quotient(f: dict, g: dict, guard: int):
    """``f / g`` over Z when ``g`` divides ``f`` exactly, else None.

    Sparse division by leading terms on keys whose guard bits are clear.
    Subtracting the divisor's leading key from a remainder key with its
    guard bits set clears a guard bit exactly where an exponent would go
    negative.  A remainder key that sets a guard bit has an exponent above
    ``f``'s degree, which an exact quotient never produces; stopping there
    also keeps every exponent inside its slot.
    """
    lk = max(g)
    lc = g[lk]
    rest = [(k - lk, v) for k, v in g.items() if k != lk]
    rem = dict(f)
    get = rem.get
    quo = {}
    while rem:
        kr = max(rem)
        q, r = divmod(rem.pop(kr), lc)
        if r or ((kr | guard) - lk) & guard != guard:
            return None
        quo[kr - lk] = q
        for d, v in rest:
            k = kr + d
            if k & guard:
                return None
            s = get(k, 0) - q * v
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quo


# greatest common divisors

_HEU_TRIES = 6  # evaluation points per variable before giving up
# Give up once the bit length of xi times the degree passes this, which caps
# the size of the images (the paper's cap counts decimal digits).
_HEU_BITS = 5000


def poly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    if not a._ints:
        return b.monic()
    if not b._ints:
        return a.monic()
    if not a.vars or not b.vars:
        return MPoly.const(1)
    vars, f, g, mono = _strip_monomials(a, b)
    h = {0: 1}
    if len(f) > 1 and len(g) > 1:
        h = _heuristic_gcd(f, g, len(vars))
        if h is None:
            return _prs_gcd(a, b)
    return _canon(vars, {k + mono: c for k, c in h.items()}).monic()


def _strip_monomials(a: MPoly, b: MPoly) -> tuple:
    """``(vars, f, g, mono)``: the ints of ``a`` and ``b`` on the union of
    their supports, each divided by its monomial content, and the key of the
    monomial both contents share."""
    vars, A, B = _align(a, b)
    guard = _masks(len(vars))[0]
    lo_a, lo_b = (reduce(lambda x, y: _slot_min(x, y, guard), P) for P in (A, B))
    f = {k - lo_a: c for k, c in A.items()} if lo_a else A
    g = {k - lo_b: c for k, c in B.items()} if lo_b else B
    return vars, f, g, _slot_min(lo_a, lo_b, guard)


def _heuristic_gcd(f: dict, g: dict, m: int):
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989).

    ``f`` and ``g`` are nonzero packed int polynomials in ``m`` slots.
    Returns their gcd over Z up to sign, or None when the heuristic gives
    up.  The variable in the lowest slot is evaluated at an integer ``xi``,
    the gcd of the images is found recursively and its balanced ``xi``-adic
    digits become the coefficients of the candidate.  With
    ``xi > 2 min(|f|, |g|) + 1`` a primitive candidate that divides both is
    the gcd; otherwise ``xi`` grows.  A variable that appears in neither
    side is skipped.
    """
    c = gcd(*f.values(), *g.values())
    if c != 1:
        f = {k: v // c for k, v in f.items()}
        g = {k: v // c for k, v in g.items()}
    if (len(f) == 1 and 0 in f) or (len(g) == 1 and 0 in g):
        return {0: c}
    df = max([k & _SLOT for k in f])
    dg = max([k & _SLOT for k in g])
    top = max(df, dg)
    if not top:
        f, g = ({k >> _W: v for k, v in p.items()} for p in (f, g))
        h = _heuristic_gcd(f, g, m - 1)
        return None if h is None else {k << _W: c * v for k, v in h.items()}
    guard = _masks(m)[0]
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * top > _HEU_BITS:
            return None
        powers = [xi**j for j in range(top + 1)]
        ff = _evaluate_low(f, powers)
        gg = _evaluate_low(g, powers)
        if ff and gg:
            h = _heuristic_gcd(ff, gg, m - 1)
            if h is not None:
                cand = _interpolate(h, xi, min(df, dg))
                if cand is not None:
                    if len(cand) == 1 and 0 in cand:
                        return {0: c}
                    if all(_quotient(p, cand, guard) is not None for p in (f, g)):
                        return {k: c * v for k, v in cand.items()} if c != 1 else cand
        xi = xi * 73794 // 27011
    return None


def _evaluate_low(f: dict, powers: list) -> dict:
    """Substitute ``powers[1]`` for the variable in the lowest slot."""
    out: dict[int, int] = {}
    get = out.get
    for k, v in f.items():
        key = k >> _W
        s = get(key, 0) + v * powers[k & _SLOT]
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _interpolate(h: dict, xi: int, dmax: int):
    """Primitive part of the polynomial whose lowest variable has the balanced
    ``xi``-adic digits of ``h``'s coefficients; None past degree ``dmax``."""
    half = xi >> 1
    out = {}
    for k, v in h.items():
        k <<= _W
        j = 0
        while v:
            d = v % xi
            if d > half:
                d -= xi
            if d:
                if j > dmax:
                    return None
                out[k | j] = d
            v = (v - d) // xi
            j += 1
    cont = gcd(*out.values())
    if cont != 1:
        out = {k: v // cont for k, v in out.items()}
    return out


# the primitive remainder sequence, run when the heuristic gives up


def _prs_gcd(a: MPoly, b: MPoly) -> MPoly:
    """``poly_gcd`` by primitive pseudo-remainder sequences over MPoly."""
    if not a._ints:
        return b.monic()
    if not b._ints:
        return a.monic()
    vars, f, g, mono = _strip_monomials(a, b)
    core = _gcd_core(_canon(vars, f), _canon(vars, g))
    return (_canon(vars, {mono: 1}) * core).monic()


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
            R = R.div_exact(_content_in(R, x)).monic()
        A, B = B, R
    return (cont * A).monic()
