"""Rational functions in canonical reduced form, plus the expression grammar.

A RatFun is always stored gcd-reduced with the denominator scaled to leading
coefficient 1 under the global monomial order, and zero is stored as 0/1.
Equality is therefore structural.  The scaling changes only the int contents
of the two polynomials (``poly._monic_den``), so building a RatFun from
polynomials does no Fraction arithmetic.

The grammar accepted by :func:`RatFun.parse` is plain infix arithmetic over
integer literals and the fixed variable set: ``+ - * / ^`` with the usual
precedence (unary sign, then ``^``, then ``* /`` left to right, then ``+ -``),
and parentheses.  Exponents are integer literals, optionally negative, so
``3/5*z`` is ``(3/5)*z`` and ``z/q^2`` is ``z/(q^2)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import MPoly, _monic_den, poly_gcd

__all__ = ["RatFun", "ParseError"]


class ParseError(ValueError):
    """Malformed expression text."""


def _as_poly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MPoly.const(x)
    return None


class RatFun:
    """Quotient of two MPoly values, canonicalized on construction."""

    __slots__ = ("num", "den", "_hash", "_str")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFun expects polynomial or scalar parts")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = MPoly.zero(), MPoly.const(1)
        else:
            g = poly_gcd(num, den)
            if g != 1:
                num = num.div_exact(g)
                den = den.div_exact(g)
            num, den = _monic_den(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    # constructors

    @classmethod
    def zero(cls) -> "RatFun":
        return cls(0)

    @classmethod
    def const(cls, x) -> "RatFun":
        return cls(MPoly.const(x))

    @classmethod
    def var(cls, name: str) -> "RatFun":
        return cls(MPoly.var(name))

    # predicates

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def as_fraction(self) -> Fraction:
        return self.num.as_fraction() / self.den.as_fraction()

    def key(self):
        return (self.num.key(), self.den.key())

    def __hash__(self):
        # the key decodes both polynomials; labels used as dict keys are
        # hashed again and again, so the hash is kept after the first call
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.key()))
            return self._hash

    def __bool__(self):
        return not self.num.is_zero()

    # arithmetic

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFun):
            return x
        p = _as_poly(x)
        return None if p is None else RatFun(p)

    def __eq__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __neg__(self):
        out = object.__new__(RatFun)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __add__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFun(self.num + o.num, self.den)
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = RatFun._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFun(self.den, self.num)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("RatFun exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return RatFun(self.num**n, self.den**n)

    # evaluation

    def eval_complex(self, mapping: dict) -> complex:
        d = self.den.eval_complex(mapping)
        if abs(d) == 0.0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval_complex(mapping) / d

    def eval_fraction(self, mapping: dict) -> Fraction:
        d = self.den.eval_fraction(mapping)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.eval_fraction(mapping) / d

    # parsing and printing

    @classmethod
    def parse(cls, text: str) -> "RatFun":
        return _Parser(text).run()

    def __str__(self):
        # canonical strings are compared and used as keys over and over
        # (cluster exploration); like the hash, render once per object
        try:
            return self._str
        except AttributeError:
            object.__setattr__(self, "_str", self._render())
            return self._str

    def _render(self) -> str:
        if self.den == 1:
            return str(self.num)
        ns = str(self.num)
        if self.num.n_terms() > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if not _plain_den(self.den):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFun({self})"


def _plain_den(p: MPoly) -> bool:
    # a bare variable power prints without parentheses on the right of /
    return p.n_terms() == 1 and len(p.vars) <= 1 and p.lex_leading()[1] == 1


_TOKEN = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*/^])|(\S)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        for m in _TOKEN.finditer(text):
            if m.group(4):
                raise ParseError(f"unexpected character {m.group(4)!r} in {text!r}")
            if m.group(1):
                self.toks.append(("int", int(m.group(1))))
            elif m.group(2):
                self.toks.append(("name", m.group(2)))
            else:
                self.toks.append(("op", m.group(3)))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def run(self) -> RatFun:
        if not self.toks:
            raise ParseError("empty expression")
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return value

    def expr(self) -> RatFun:
        value = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> RatFun:
        value = self.unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                rhs = self.unary()
                if val == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero in expression")
                    value = value / rhs
            else:
                return value

    def unary(self) -> RatFun:
        sign = 1
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                if val == "-":
                    sign = -sign
            else:
                break
        value = self.power()
        return value if sign > 0 else -value

    def power(self) -> RatFun:
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            e = self.exponent()
            if base.is_zero() and e < 0:
                raise ParseError("zero raised to a negative power")
            return base**e
        return base

    def exponent(self) -> int:
        kind, val = self.take()
        neg = False
        if kind == "op" and val in "+-":
            neg = val == "-"
            kind, val = self.take()
        if kind != "int":
            raise ParseError(f"exponent must be an integer literal in {self.text!r}")
        return -val if neg else val

    def atom(self) -> RatFun:
        kind, val = self.take()
        if kind == "int":
            return RatFun.const(val)
        if kind == "name":
            try:
                return RatFun.var(val)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token in {self.text!r}")
